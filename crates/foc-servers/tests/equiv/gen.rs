//! The MiniC generator: random guest programs judged by the harness
//! instead of loops somebody drew. Each case is one function
//! `long f(long n)` over one or two global and two or three local
//! arrays (`char` to `long`, signed or not, 1–16 elements) and the
//! scalars `x v t i j k`: assignments, stores used as values, `if`
//! chains long enough to form superblocks, bounded loops nested two
//! deep whose counters no statement assigns, and `d[k] = s[k]` copies
//! run to either side of both arrays' ends. An index is a constant in
//! the array or just off it, an `i64` extreme, a loop counter, `n`, a
//! scalar or any expression; an expression is constants, scalars, array
//! reads and stores, `+ - * & | ^ == < >`, and `<<`, `/` and `%` by a
//! constant (never a zero divisor).
//!
//! The generator writes source text, one statement per line, because
//! `foc-lang`'s arena builders are crate-private and a test does not
//! open product API. [`judge`] runs a program through [`check`]; a
//! failure shrinks by deleting lines (a block with its body) while the
//! same assertion fails and the front end accepts what is left, and is
//! printed as `print_unit(parse(src))` under its corpus header.
//! `tests/corpus/gen/` holds such programs, replayed by
//! [`replay_corpus`]. [`Tally`] counts what lowering emitted and what
//! the executor did, so a floor on it says what the cases reach.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use foc_compiler::native::NOp;
use foc_compiler::ProgramImage;
use foc_memory::{Mode, TableKind, ValueSequence};
use foc_vm::{ExecProfile, Machine, MachineConfig};
use proptest::test_runner::TestRng;

use super::{Case, Run};

/// Cases per run of the generator test.
pub const CASES: usize = 64;
/// Fuel per call: every Failure Oblivious run ends well inside it, and
/// it bounds a Standard run whose wild store reset a loop counter.
const FUEL: u64 = 4_000;
/// Instructions a program's statements may cost, estimated as they are
/// written: the 64 cases' Failure Oblivious runs retire 115–604.
const BUDGET: i64 = 250;
/// The manufactured-value sequences a sweep is drawn with.
const SEQUENCES: [ValueSequence; 4] = [
    ValueSequence::Zero,
    ValueSequence::Constant(0x41),
    ValueSequence::Cycling { wrap: 3 },
    ValueSequence::Cycling { wrap: 257 },
];
const TYPES: [&str; 4] = ["char", "short", "int", "long"];
/// `i64::MAX` and `i64::MIN`, the latter without a literal past
/// `i64::MAX`.
const EXTREMES: [&str; 2] = ["9223372036854775807", "(-9223372036854775807 - 1)"];
const OPS: [&str; 9] = ["+", "-", "*", "&", "|", "^", "==", "<", ">"];
const CMPS: [&str; 6] = ["<", ">", "==", "!=", "<=", ">="];
const SCALARS: [&str; 7] = ["x", "v", "t", "i", "j", "k", "n"];
/// The `Src` variants, as `{:?}` names them.
const SRCS: [&str; 5] = ["Reg", "Slot", "Slot8", "Const", "Addr"];

/// How one program is called and swept.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The argument.
    n: i64,
    /// Host-side allocate/free rounds before the call.
    churn: u32,
    /// Index into [`SEQUENCES`], for the sweep.
    sequence: usize,
    /// The mode × table point the sweep runs at, below 10.
    point: usize,
}

impl Params {
    /// The first line of a corpus file.
    fn header(&self) -> String {
        let (n, churn, sequence) = (self.n, self.churn, self.sequence);
        format!("// n={n} churn={churn} sequence={sequence}")
    }
}

/// Point `p` of the ten: a mode and a table.
fn point(p: usize) -> (Mode, TableKind) {
    (Mode::ALL[p / 2], TableKind::ALL[p % 2])
}

fn config(mode: Mode, table: TableKind) -> MachineConfig {
    MachineConfig::with_mode(mode)
        .with_table(table)
        .with_fuel(FUEL)
}

/// `rounds` of host-side allocate/free traffic before the call,
/// reshaping the object table the view resolves against. Every other
/// allocation is freed at once, so the table sees interleaved insert
/// and remove traffic, not just growth.
fn churn(m: &mut Machine, rounds: u32) {
    for round in 0..rounds {
        let addr = m.alloc_cstring(&[b'x'; 11]).expect("churn allocation fits");
        if round % 2 == 0 {
            m.free_guest(addr).expect("churn free");
        }
    }
}

struct Array {
    name: String,
    len: u64,
    width: usize,
}

struct Gen<'r> {
    rng: &'r mut TestRng,
    arrays: Vec<Array>,
    lines: Vec<String>,
    /// Loop counters open around the statement being written.
    open: Vec<&'static str>,
    budget: i64,
    /// Whether indices may leave their arrays; a quarter of the cases
    /// keep them in, so some calls log no violation.
    wild: bool,
}

/// Case `c`: a program, its lines in order, and how it runs.
pub fn case(rng: &mut TestRng, c: usize) -> (Vec<String>, Params) {
    let wild = rng.below(4) > 0;
    let mut g = Gen {
        rng,
        arrays: Vec::new(),
        lines: Vec::new(),
        open: Vec::new(),
        budget: BUDGET,
        wild,
    };
    for a in 0..1 + g.below(2) {
        g.array(format!("g{a}"));
    }
    g.lines.push("long f(long n) {".into());
    for s in ["x", "v"] {
        let c = g.constant();
        g.lines.push(format!("long {s} = {c};"));
    }
    for s in ["t", "i", "j", "k"] {
        g.lines.push(format!("long {s} = 0;"));
    }
    for a in 0..2 + g.below(2) {
        g.array(format!("a{a}"));
    }
    while g.budget > 0 {
        g.stmt();
    }
    let ends: String = g
        .arrays
        .iter()
        .map(|a| format!(" + {0}[0] + {0}[{1}]", a.name, a.len - 1))
        .collect();
    g.lines.push(format!("return t + x * 3 + v * 5{ends};"));
    g.lines.push("}".into());
    let n = *g.pick(&[-1, 0, 1, 2, 3, 7, 15, 16, 17, i64::MAX, i64::MIN]);
    let (churn, sequence) = (g.below(97) as u32, g.below(4) as usize);
    let params = Params {
        n,
        churn,
        sequence,
        point: c % 10,
    };
    (g.lines, params)
}

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    fn array(&mut self, name: String) {
        let (ty, len) = (self.below(4) as usize, 1 + self.below(16));
        let sign = ["", "unsigned "][self.below(2) as usize];
        self.lines
            .push(format!("{sign}{} {name}[{len}];", TYPES[ty]));
        let width = 1 << ty;
        self.arrays.push(Array { name, len, width });
    }

    fn constant(&mut self) -> String {
        match self.below(10) {
            0 => self.pick(&EXTREMES).to_string(),
            _ => (self.below(24) as i64 - 4).to_string(),
        }
    }

    /// `a[I]` for a random array `a`.
    fn access(&mut self, depth: u32) -> String {
        let at = self.below(self.arrays.len() as u64) as usize;
        let len = self.arrays[at].len;
        let index = self.index(len, depth);
        format!("{}[{index}]", self.arrays[at].name)
    }

    fn index(&mut self, len: u64, depth: u32) -> String {
        let c = 1 + self.below(3);
        let i = self.open.last().copied().unwrap_or("i");
        // Counters never go below zero.
        if !self.wild {
            return match self.below(2) {
                0 => self.below(len).to_string(),
                _ => format!("({i} * {c}) % {len}"),
            };
        }
        match self.below(14) {
            0..=2 => self.below(len).to_string(),
            3 => "-1".into(),
            4 => len.to_string(),
            5 => (len + c).to_string(),
            6 => self.pick(&EXTREMES).to_string(),
            7..=9 => i.into(),
            10 => format!("{i} + {c}"),
            11 => format!("({i} * {c}) % {}", 1 + self.below(len + 4)),
            12 => self.pick(&SCALARS).to_string(),
            _ => self.expr(depth),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        self.budget -= 3;
        match self.below(if depth == 0 { 3 } else { 9 }) {
            0 => self.constant(),
            1 => self.pick(&SCALARS).to_string(),
            2 => self.access(depth.saturating_sub(1)),
            3 | 4 => {
                let (a, op, b) = (self.expr(depth - 1), self.pick(&OPS), self.expr(depth - 1));
                format!("({a} {op} {b})")
            }
            5 => format!("({} << {})", self.expr(depth - 1), self.below(64)),
            6 => {
                let (a, op) = (self.expr(depth - 1), self.pick(&["/", "%"]));
                format!("({a} {op} {})", 1 + self.below(9))
            }
            _ => format!("({} = {})", self.access(depth - 1), self.expr(depth - 1)),
        }
    }

    fn stmt(&mut self) {
        self.budget -= 3;
        let (compound, nested) = (self.budget > 40, self.open.len() < 2);
        let line = match self.below(12) {
            0..=2 => format!("{} = {};", self.pick(&["t", "x", "v"]), self.expr(2)),
            3..=5 => format!("{} = {};", self.access(1), self.expr(2)),
            6 => {
                let (a, store, b) = (self.expr(1), self.access(1), self.expr(1));
                format!("t = {a} + ({store} = {b});")
            }
            7 | 8 if compound => return self.branches(),
            9 | 10 if compound && nested => return self.looped(),
            11 if compound && nested => return self.copy(),
            _ => format!("t = {};", self.expr(2)),
        };
        self.lines.push(line);
    }

    /// `if (E cmp E) S else if … else S`, two to four arms.
    fn branches(&mut self) {
        let arms = 2 + self.below(3);
        for arm in 0..arms {
            let head = match arm {
                0 => "if",
                _ if arm + 1 < arms => "} else if",
                _ => "} else",
            };
            let cond = if arm == 0 || arm + 1 < arms {
                let (a, cmp, b) = (self.expr(1), self.pick(&CMPS), self.expr(1));
                format!(" ({a} {cmp} {b})")
            } else {
                String::new()
            };
            self.lines.push(format!("{head}{cond} {{"));
            for _ in 0..1 + self.below(2) {
                self.stmt();
            }
        }
        self.lines.push("}".into());
    }

    /// `for (i = 0; i < C; i++) { … }`, `j` inside another loop; the
    /// body's cost is paid `C` times.
    fn looped(&mut self) {
        let counter = ["i", "j"][self.open.len()];
        let trips = 1 + self.below((self.budget / 25).clamp(1, 10) as u64) as i64;
        self.lines.push(format!(
            "for ({counter} = 0; {counter} < {trips}; {counter}++) {{"
        ));
        let outer = self.budget;
        self.budget = outer / trips;
        let start = self.budget;
        self.open.push(counter);
        for _ in 0..1 + self.below(3) {
            self.stmt();
        }
        self.open.pop();
        self.budget = outer - (start - self.budget + 12) * trips;
        self.lines.push("}".into());
    }

    /// `for (k = 0; k < C; k++) d[k] = s[k];` over two arrays of one
    /// width (a counted loop), `C` one either side of an end or on it.
    fn copy(&mut self) {
        let d = self.below(self.arrays.len() as u64) as usize;
        let width = self.arrays[d].width;
        let same: Vec<usize> = (0..self.arrays.len())
            .filter(|&a| self.arrays[a].width == width)
            .collect();
        let s = *self.pick(&same);
        let (d_len, s_len) = (self.arrays[d].len, self.arrays[s].len);
        let trips = match self.wild {
            true => [d_len, s_len][self.below(2) as usize] + self.below(3) - 1,
            false => d_len.min(s_len) - self.below(2),
        };
        let (d, s) = (&self.arrays[d].name, &self.arrays[s].name);
        self.lines
            .push(format!("for (k = 0; k < {trips}; k++) {d}[k] = {s}[k];"));
        self.budget -= 24 * trips as i64 + 4;
    }
}

/// What the cases reached, summed.
#[derive(Debug, Default)]
pub struct Tally {
    /// How often lowering emitted each `NOp`, `Src` and `Term` variant.
    lowered: BTreeMap<String, u64>,
    pub view_misses: u64,
    pub faults: u64,
    pub side_exits: u64,
    pub fuel_short_exits: u64,
    pub batches: u64,
    /// Calls Failure Oblivious logged no violation in.
    pub clean: u64,
    /// Bounds Check deaths that left values on the operand stack.
    pub live_deaths: u64,
    /// Those in a region, at an `IdxLoad` seam.
    pub live_idx_loads: u64,
    /// Those in a region, at an `IdxStore` seam.
    pub live_idx_stores: u64,
}

impl Tally {
    /// How often lowering emitted `variant`.
    pub fn emitted(&self, variant: &str) -> u64 {
        self.lowered.get(variant).copied().unwrap_or(0)
    }

    fn lowering(&mut self, native: &ProgramImage) {
        let fid = native.func_index("f").expect("f exists");
        for region in &native.native_func(fid).expect("native image").regions {
            let ops = region.ops.iter().map(|op| format!("{op:?}"));
            for text in ops.chain([format!("{:?}", region.term)]) {
                // The variant's name, then its operands'.
                let mut words = text.split(|c: char| !c.is_ascii_alphanumeric());
                let variant = words.next().expect("a variant name").to_owned();
                let operands = words.filter(|w| SRCS.contains(w)).map(str::to_owned);
                for name in operands.chain([variant]) {
                    *self.lowered.entry(name).or_default() += 1;
                }
            }
        }
    }

    fn ran(&mut self, mode: Mode, native: &ProgramImage, run: &Run, profile: &ExecProfile) {
        self.view_misses += profile.view_misses;
        self.faults += profile.faults;
        self.side_exits += profile.side_exits;
        self.fuel_short_exits += profile.fuel_short_exits;
        self.batches += profile.batches;
        if mode != Mode::BoundsCheck || run.result.is_ok() || run.seen.stack.is_empty() {
            return;
        }
        self.live_deaths += 1;
        let pc = run.seen.frames.last().map(|&(_, pc)| pc);
        let fid = native.func_index("f").expect("f exists");
        let regions = &native.native_func(fid).expect("native image").regions;
        let seam = regions
            .iter()
            .flat_map(|r| &r.ops)
            .find_map(|op| match *op {
                NOp::IdxLoad { seam, .. } if Some(seam.pc) == pc => Some(true),
                NOp::IdxStore { seam, .. } if Some(seam.pc) == pc => Some(false),
                _ => None,
            });
        match seam.filter(|_| profile.faults > 0) {
            Some(true) => self.live_idx_loads += 1,
            Some(false) => self.live_idx_stores += 1,
            None => {}
        }
    }
}

/// `src` as `f(params.n)` after `params.churn` rounds of churn: both
/// tiers at every point at full fuel, where the two tables' runs must
/// be equal, Failure Oblivious must return, and a call it logs no
/// violation in must return alike in every mode; then [`super::sweep`]
/// at `params.point` with its value sequence.
pub fn check(src: &str, params: &Params, tally: &mut Tally) {
    let images = super::images(src);
    tally.lowering(&images[1]);
    let case = Case::prep(&images, "f", |m| {
        churn(m, params.churn);
        vec![params.n]
    });
    let runs = Mode::ALL.map(|mode| {
        let [reference, flat] = TableKind::ALL.map(|table| {
            let (run, profile) = super::tiers(&case, &config(mode, table));
            tally.ran(mode, &images[1], &run, &profile);
            run
        });
        assert_eq!(reference, flat, "the tables diverge under {mode:?}");
        (mode, flat)
    });
    let (_, oblivious) = &runs[2];
    assert!(
        oblivious.result.is_ok(),
        "Failure Oblivious faults: {oblivious:?}"
    );
    if oblivious.seen.log_total == 0 {
        tally.clean += 1;
        for (mode, run) in &runs {
            assert_eq!(
                run.result, oblivious.result,
                "{mode:?} differs on a clean call"
            );
        }
    }
    let (mode, table) = point(params.point);
    let config = config(mode, table).with_sequence(SEQUENCES[params.sequence]);
    let (run, profile) = super::sweep(&case, &config);
    tally.ran(mode, &images[1], &run, &profile);
}

/// The first line of a panic's message, digits dropped: what a shrunk
/// program must still fail with.
fn assertion(payload: Box<dyn std::any::Any + Send>) -> String {
    let message = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    };
    let first = message.lines().next().unwrap_or("");
    first.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// [`check`]s `lines`; on a failure, shrinks them and panics with the
/// shrunk program, `what` and the point.
pub fn judge(lines: &[String], params: &Params, what: &str, tally: &mut Tally) {
    let attempt = |lines: &[String], tally: &mut Tally| {
        let src = lines.join("\n");
        panic::catch_unwind(AssertUnwindSafe(|| check(&src, params, tally))).map_err(assertion)
    };
    let Err(failed) = attempt(lines, tally) else {
        return;
    };
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut lines = lines.to_vec();
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut at = 0;
        while at < lines.len() {
            // A line, or a block from its opening line to its close.
            let mut end = at;
            let mut depth = 0;
            loop {
                depth += lines[end].matches('{').count() as i64;
                depth -= lines[end].matches('}').count() as i64;
                end += 1;
                if depth <= 0 || end == lines.len() {
                    break;
                }
            }
            let mut fewer = lines.clone();
            fewer.drain(at..end);
            let src = fewer.join("\n");
            let same = foc_lang::frontend(&src).is_ok()
                && attempt(&fewer, &mut Tally::default()).err().as_ref() == Some(&failed);
            if same {
                (lines, shrunk) = (fewer, true);
            } else {
                at += 1;
            }
        }
    }
    panic::set_hook(hook);
    let unit = foc_lang::parse(&lines.join("\n")).expect("the shrunk program parses");
    let (mode, table) = point(params.point);
    panic!(
        "{what}, swept at {mode:?}/{table:?}, fails: {failed}\nshrunk to {} lines:\n{}\n{}",
        lines.len(),
        params.header(),
        foc_lang::pretty::print_unit(&unit)
    );
}

/// Each program in `tests/corpus/gen/`, judged with its sweep at every
/// point; returns how many there are.
pub fn replay_corpus() -> usize {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/gen");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("the corpus directory")
        .map(|entry| entry.expect("a corpus entry").path())
        .collect();
    files.sort();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("a readable corpus file");
        let lines: Vec<String> = src.lines().map(str::to_owned).collect();
        let values: Vec<i64> = lines[0]
            .split_whitespace()
            .filter_map(|field| field.split_once('=')?.1.parse().ok())
            .collect();
        let [n, churn, sequence] = values[..] else {
            panic!("{}: no `// n= churn= sequence=` line first", path.display());
        };
        let (churn, sequence) = (churn as u32, sequence as usize);
        for point in 0..10 {
            let params = Params {
                n,
                churn,
                sequence,
                point,
            };
            judge(
                &lines,
                &params,
                &path.display().to_string(),
                &mut Tally::default(),
            );
        }
    }
    files.len()
}
