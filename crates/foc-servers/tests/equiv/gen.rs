//! The MiniC generator: random guest programs judged by the harness
//! instead of shapes somebody drew. Each case is a helper
//! `long h(long n, long x)` and `long f(long n)`, which calls it; both
//! are written alike over the globals `g0`/`g1` and their own locals:
//! `char`-to-`long` arrays (signed or not, 1–16 elements), `malloc`ed
//! buffers, a string literal, the scalars `x v t i j k e`, narrow `c s w`,
//! and two pointers `p q` into arrays or scalars of one element type.
//! Statements: assignments, stores through an index or a pointer
//! (`*q++ = E` among them), pointer moves (`p = &a[I]`, `q = a + c`,
//! `p = &x`, and after a store through one `p += E`, `q -= E`), a buffer
//! `free`d mid-loop, `if` chains long enough to form superblocks, bounded
//! loops nested two deep whose counters no statement assigns, and copies
//! `d[k] = s[k]` run to either side of both ends. A
//! case writes every copy in one of [`STYLES`]: between arrays, through
//! a pointer slot (`p` re-pointed, so the two sides may overlap), or with
//! a counter whose `k·size` leaves `i64`. An index is a constant in the
//! array or just off it, an `i64` extreme, a loop counter, `n`, a scalar
//! or any expression; an expression adds `*p`, `p[I]`, `p - q`, `p < q`,
//! `a[I]++`, `x--`, unary `- ~ !`, calls of `h`, `+ - * & | ^ == < >`,
//! `<<` by a constant, and `/` and `%` by a constant or by a value that
//! may be zero. Inside loops, `io_wait(E)` comes before some statements,
//! its byte count an `i64` extreme, negative, 0, a small constant or a
//! scalar. `f` ends in [`Gen::tail`]: the counted copies a case without
//! one lacks, in the rest of [`STYLES`], then calls of the libc shim over
//! its arrays, buffers and literals. The pointer bumps, the waits and
//! the tail come from streams of their own, so each leaves every other
//! line as the main stream drew it.
//!
//! The generator writes source text, one statement per line, because
//! `foc-lang`'s arena builders are crate-private and a test does not
//! open product API. [`judge`] runs a program through [`check`]; a
//! failure shrinks by deleting lines (a block with its body) while the
//! same assertion fails and the front end accepts what is left, and is
//! printed as `print_unit(parse(src))` under its corpus header.
//! `tests/corpus/gen/` holds such programs, replayed by
//! [`replay_corpus`]. [`Tally`] counts what lowering emitted in every
//! function and what the executor did, so a floor on it says what the
//! cases reach.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use foc_compiler::native::{NOp, Src};
use foc_compiler::ProgramImage;
use foc_memory::{HeapError, MemFault, MemorySpace, Mode, TableKind, ValueSequence};
use foc_vm::{ExecProfile, Machine, MachineConfig, VmFault};
use proptest::test_runner::TestRng;

use super::{Case, Run};

/// Cases per run of the generator test: the last [`SENTINEL_CASES`] end
/// in a sentinel loop ([`Gen::sentinel`]) instead of tail copies.
pub const CASES: usize = 120;
/// Cases written in one of [`SENTINEL_STYLES`], after the others so
/// that theirs stay as the main stream drew them.
const SENTINEL_CASES: usize = 24;
/// Fuel per call: every Failure Oblivious run ends well inside it, and
/// it bounds a Standard run whose wild store reset a loop counter.
const FUEL: u64 = 4_000;
/// Instructions `f`'s statements may cost, estimated as they are
/// written, calls of `h` included; `h`'s own budget is [`HELPER`].
const BUDGET: i64 = 250;
const HELPER: i64 = 30;
/// The manufactured-value sequences a sweep is drawn with.
const SEQUENCES: [ValueSequence; 4] = [
    ValueSequence::Zero,
    ValueSequence::Constant(0x41),
    ValueSequence::Cycling { wrap: 3 },
    ValueSequence::Cycling { wrap: 257 },
];
/// How a case writes its copies: between arrays, through a pointer
/// slot, or with a counter near the top of `i64`; past those three, the
/// copies [`Gen::tail`] writes in a case that wrote none.
pub const STYLES: [&str; 12] = [
    "array",
    "slot",
    "wrap",
    "cast",
    "!=",
    "unsigned",
    "&k",
    "k--",
    "strided",
    "scan",
    "scan-copy",
    "alias",
];
/// Where [`Gen::sentinel`]'s styles start in [`STYLES`]: a byte loop that
/// stops at a sentinel, one that copies as it goes, and a copy whose
/// stores run onto its own base and bound slots.
const SENTINEL_STYLES: usize = 9;
const TYPES: [&str; 4] = ["char", "short", "int", "long"];
const LETTERS: [char; 4] = ['a', 'n', 'z', '%'];
/// The text of the literals [`Gen::tail`] writes.
const TEXT: &[u8] = b"+- 0123456789azAZ%";
/// The libc shim's builtins whose operands are guest memory, each with
/// its operands: `d` written, `s` read, `h` a heap block, `n` a length,
/// `c` a byte.
const LIBC: &str = "strlen:s strcpy:ds strncpy:dsn strcat:ds strncat:dsn strcmp:ss \
     strncmp:ssn strchr:sc strrchr:sc memcpy:dsn memmove:dsn memset:dcn memcmp:ssn print_str:s \
     atoi:s read_input:dn emit_output:sn realloc:hn";
/// The ctype family, called on values.
const CTYPE: [&str; 6] = [
    "isspace", "isdigit", "isalpha", "isprint", "toupper", "tolower",
];
/// Where a library call's operands reach, as it was written.
pub const REACH: [&str; 4] = ["in bounds", "leaves its unit", "descriptor", "freed"];
/// Bytes of `m`, whose pages past the first two no write commits.
const PAGES: u64 = 5 << 12;
/// `i64::MAX` and `i64::MIN`, the latter without a literal past
/// `i64::MAX`.
const EXTREMES: [&str; 2] = ["9223372036854775807", "(-9223372036854775807 - 1)"];
const OPS: [&str; 9] = ["+", "-", "*", "&", "|", "^", "==", "<", ">"];
const CMPS: [&str; 6] = ["<", ">", "==", "!=", "<=", ">="];
const READS: [&str; 11] = ["x", "v", "t", "i", "j", "k", "e", "n", "c", "s", "w"];
const WRITES: [&str; 6] = ["t", "x", "v", "c", "s", "w"];
/// The `Src` variants, as `{:?}` names them.
const SRCS: [&str; 5] = ["Reg", "Slot", "Slot8", "Const", "Addr"];
/// Every `NOp` and `Term` variant, as `{:?}` names them.
const OPS_AND_TERMS: &str = "Mov Rot3 GlobalAddr StrAddr StoreLocal Inc Alu Cmp Div Neg BitNot \
     Not Normalize EffAddr PtrDiff PtrAdd PtrInc Load Store IdxLoad IdxStore IoWait Exit Goto \
     Branch IncBranch Counted";

/// Every `NOp`, `Src` and `Term` variant.
pub fn variants() -> impl Iterator<Item = &'static str> {
    OPS_AND_TERMS.split_whitespace().chain(SRCS)
}

/// The tally's key for each [`LIBC`] builtin at each [`REACH`].
pub fn calls() -> impl Iterator<Item = String> {
    let libc = LIBC.split_whitespace().filter_map(|c| c.split(':').next());
    libc.flat_map(|name| REACH.map(|reach| format!("{name} calls, {reach}")))
}

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
    /// Index into [`STYLES`], for the tally.
    style: usize,
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

/// Regions small enough to compare every guest byte after every run,
/// with heap for `m` and the buffers `h` leaves behind.
fn config(mode: Mode, table: TableKind) -> MachineConfig {
    let mut config = MachineConfig::with_mode(mode).with_table(table);
    let mem = &mut config.mem;
    (mem.global_len, mem.heap_len, mem.stack_len) = (8 << 10, 64 << 10, 16 << 10);
    config.with_fuel(FUEL)
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

/// How an array's elements are named: declared as an array, or through
/// a pointer slot holding a `malloc`ed buffer or a string literal.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Array,
    Heap,
    Str,
}

struct Array {
    name: String,
    len: u64,
    width: usize,
    /// The element type.
    ty: String,
    kind: Kind,
}

struct Gen<'r> {
    rng: &'r mut TestRng,
    arrays: Vec<Array>,
    lines: Vec<String>,
    /// Loop counters open around the statement being written.
    open: Vec<&'static str>,
    budget: i64,
    /// Whether indices and pointers may leave their arrays; a quarter of
    /// the cases keep them in, so some calls log no violation.
    wild: bool,
    /// Index into [`STYLES`]: never `wrap` where indices stay in.
    style: usize,
    /// The element type `p` and `q` point to.
    pointee: String,
    /// The scalars a pointer may point to, with their types: not the
    /// loop counters, which a store through it could keep from ending.
    scalars: Vec<(&'static str, String)>,
    /// What a call of `h` costs, once `h` is written.
    call: Option<i64>,
    /// The streams [`Gen::bump`], [`Gen::wait`] and [`Gen::tail`] draw
    /// from, and the lines the first two wrote.
    bumps: TestRng,
    waits: TestRng,
    libc: TestRng,
    sentinels: TestRng,
    /// Whether this case ends in a sentinel loop: it writes no copy.
    sentinel: bool,
    aside: usize,
    /// Copies the main stream wrote, and the lines `f`'s sentinel loop and
    /// its tail go before.
    copies: usize,
    head: usize,
    tail: usize,
    /// Whether [`Gen::call`] wrote a call of more than 64 bytes.
    long: bool,
}

/// Case `c`: a program, its lines in order, and how it runs.
pub fn case(rng: &mut TestRng, c: usize) -> (Vec<String>, Params) {
    let wild = rng.below(4) > 0;
    let style = rng.below(2 + wild as u64) as usize;
    let mut g = Gen {
        rng,
        arrays: Vec::new(),
        lines: Vec::new(),
        open: Vec::new(),
        budget: 0,
        wild,
        style,
        pointee: String::new(),
        scalars: Vec::new(),
        call: None,
        bumps: TestRng::deterministic(&format!("pointer bumps of case {c}")),
        waits: TestRng::deterministic(&format!("I/O waits of case {c}")),
        libc: TestRng::deterministic(&format!("library calls of case {c}")),
        sentinels: TestRng::deterministic(&format!("sentinel loops of case {c}")),
        sentinel: c >= CASES - SENTINEL_CASES,
        aside: 0,
        copies: 0,
        head: 0,
        tail: 0,
        long: false,
    };
    for a in 0..1 + g.below(2) {
        g.array(format!("g{a}"), Kind::Array);
    }
    g.func("h", &["n", "x"], HELPER);
    // A call also runs `h`'s declarations and return: about six
    // instructions a line (the bumps' and waits' few are left to
    // `FUEL`'s margin).
    let lines = (g.lines.len() - g.aside) as i64;
    g.call = Some(6 * lines + HELPER - g.budget);
    g.func("f", &["n"], BUDGET);
    let n = *g.pick(&[-1, 0, 1, 2, 3, 7, 15, 16, 17, i64::MAX, i64::MIN]);
    let (churn, sequence) = (g.below(97) as u32, g.below(4) as usize);
    g.tail(point(c % 10).0, SEQUENCES[sequence]);
    let params = Params {
        n,
        churn,
        sequence,
        point: c % 10,
        style: g.style,
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

    /// Indices of the arrays `keep` accepts.
    fn arrays(&self, keep: impl Fn(&Array) -> bool) -> Vec<usize> {
        (0..self.arrays.len())
            .filter(|&a| keep(&self.arrays[a]))
            .collect()
    }

    /// `long name(long params…) { … }` over the globals and its own
    /// locals, its statements costing about `budget`.
    fn func(&mut self, name: &str, params: &[&str], budget: i64) {
        self.arrays.retain(|a| a.name.starts_with('g'));
        let list: Vec<String> = params.iter().map(|p| format!("long {p}")).collect();
        self.lines
            .push(format!("long {name}({}) {{", list.join(", ")));
        for s in ["x", "v", "t", "i", "j", "k", "e"] {
            if !params.contains(&s) {
                let c = "xv".contains(s).then(|| self.constant());
                self.lines
                    .push(format!("long {s} = {};", c.unwrap_or("0".into())));
            }
        }
        self.scalars = ["x", "v", "t", "e"].map(|s| (s, "long".into())).into();
        for (s, ty) in [("c", "char"), ("s", "short"), ("w", "int")] {
            let (ty, c) = (format!("{}{ty}", self.sign()), self.constant());
            self.lines.push(format!("{ty} {s} = {c};"));
            self.scalars.push((s, ty));
        }
        for a in 0..2 + self.below(2) {
            self.array(format!("a{a}"), Kind::Array);
        }
        for a in 0..self.below(3) {
            self.array(format!("b{a}"), Kind::Heap);
        }
        if self.below(2) == 0 {
            self.array("z".into(), Kind::Str);
        }
        let home = self.below(self.arrays.len() as u64) as usize;
        self.pointee = self.arrays[home].ty.clone();
        let (name, len) = (&self.arrays[home].name, self.arrays[home].len);
        for p in ["p", "q"] {
            let c = self.rng.below(len + 2 * self.wild as u64);
            self.lines
                .push(format!("{} *{p} = {name} + {c};", self.pointee));
        }
        self.budget = budget;
        // A sentinel case's loop goes here, before any statement can fault.
        self.head = self.lines.len();
        while self.budget > 0 {
            self.stmt();
        }
        let ends: String = self
            .arrays
            .iter()
            .map(|a| format!(" + {0}[0] + {0}[{1}]", a.name, a.len - 1))
            .collect();
        // `f`'s tail goes here, over its arrays (`Gen::tail`).
        self.tail = self.lines.len();
        self.lines
            .push(format!("return t + x * 3 + v * 5 + c + s + w{ends};"));
        self.lines.push("}".into());
    }

    fn sign(&mut self) -> &'static str {
        ["", "unsigned "][self.below(2) as usize]
    }

    /// An array `name`: 1–16 elements of an integer type, or a string of
    /// up to six letters and its NUL.
    fn array(&mut self, name: String, kind: Kind) {
        let (at, len) = match kind {
            Kind::Str => (0, 1 + self.below(7)),
            _ => (self.below(4) as usize, 1 + self.below(16)),
        };
        let (ty, width) = (format!("{}{}", self.sign(), TYPES[at]), 1 << at);
        let ty = if kind == Kind::Str { "char".into() } else { ty };
        let line = match kind {
            Kind::Array => format!("{ty} {name}[{len}];"),
            Kind::Heap => format!("{ty} *{name} = ({ty} *) malloc({});", len * width as u64),
            Kind::Str => {
                let text: String = (1..len).map(|_| self.pick(&LETTERS)).collect();
                format!("char *{name} = \"{text}\";")
            }
        };
        self.lines.push(line);
        self.arrays.push(Array {
            name,
            len,
            width,
            ty,
            kind,
        });
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

    /// `&a[I]` or `a + c` for an array `a` of `p`'s element type, or now
    /// and then `&x` for such a scalar.
    fn point(&mut self) -> String {
        let pointee = self.pointee.clone();
        let scalars = self.scalars.iter().filter(|(_, ty)| *ty == pointee);
        let scalars: Vec<&str> = scalars.map(|&(s, _)| s).collect();
        if !scalars.is_empty() && self.below(4) == 0 {
            return format!("&{}", self.pick(&scalars));
        }
        let at = *self.pick(&self.arrays(|a| a.ty == pointee));
        let (name, len) = (self.arrays[at].name.clone(), self.arrays[at].len);
        match self.below(2) {
            0 => format!("&{name}[{}]", self.index(len, 0)),
            _ => format!("{name} + {}", self.below(len + 2 * self.wild as u64)),
        }
    }

    /// `a[I]`, or a third of the time [`Gen::deref`]: a place to store to.
    fn place(&mut self, depth: u32) -> String {
        match self.below(3) {
            0 => self.deref(depth),
            _ => self.access(depth),
        }
    }

    /// `*p`, `*q` or `p[I]`.
    fn deref(&mut self, depth: u32) -> String {
        let p = self.pick(&["p", "q"]);
        match (self.below(2), self.wild) {
            (0, _) => format!("*{p}"),
            (_, true) => format!("{p}[{}]", self.index(4, depth)),
            _ => format!("{p}[0]"),
        }
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
            12 => self.pick(&READS).to_string(),
            _ => self.expr(depth),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        self.budget -= 3;
        let Some(d) = depth.checked_sub(1) else {
            return match self.below(4) {
                0 => self.constant(),
                1 => self.pick(&READS).to_string(),
                2 => self.access(0),
                _ => self.deref(0),
            };
        };
        match self.below(16) {
            0 => self.constant(),
            1 => self.pick(&READS).to_string(),
            2 => self.access(d),
            3 => self.deref(d),
            4 => format!("({} << {})", self.expr(d), self.below(64)),
            5 => {
                let (a, op) = (self.expr(d), self.pick(&["/", "%"]));
                match self.below(3) == 0 {
                    true => {
                        let (b, c) = (self.expr(d), self.expr(d));
                        format!("({a} + {b} {op} ({c} & 1))")
                    }
                    false => format!("({a} {op} {})", 1 + self.below(9)),
                }
            }
            6 => format!("({} = {})", self.place(d), self.expr(d)),
            7 => format!("{}({})", self.pick(&["-", "~", "!"]), self.expr(d)),
            8 => format!("(p {} q)", self.pick(&["-", "<", "=="])),
            9 => format!("{}{}", self.place(d), self.pick(&["++", "--"])),
            10 => format!("{}{}", self.pick(&WRITES), self.pick(&["++", "--"])),
            // A call only where the budget has room for it.
            11 | 12 if self.call.is_some_and(|cost| cost < self.budget) => {
                self.budget -= self.call.unwrap_or(0);
                format!("h({}, {})", self.expr(d), self.expr(d))
            }
            _ => {
                let (a, op, b) = (self.expr(d), self.pick(&OPS), self.expr(d));
                format!("({a} {op} {b})")
            }
        }
    }

    fn stmt(&mut self) {
        self.wait();
        self.budget -= 3;
        let (compound, nested) = (self.budget > 40, self.open.len() < 2);
        let heap = self.arrays(|a| a.kind == Kind::Heap);
        let line = match self.below(19) {
            0 | 1 => format!("{} = {};", self.pick(&WRITES), self.expr(2)),
            2..=6 => format!("{} = {};", self.access(1), self.expr(2)),
            7 => {
                let (a, store, b) = (self.expr(1), self.place(1), self.expr(1));
                format!("t = {a} + ({store} = {b});")
            }
            8 => format!("{} = {};", self.pick(&["p", "q"]), self.point()),
            9 | 10 if self.wild => {
                let (p, step) = (self.pick(&["p", "q"]), self.pick(&["", "++"]));
                let store = format!("*{p}{step} = {};", self.expr(1));
                self.lines.push(store);
                return self.bump(p);
            }
            9 | 10 => format!("*p = {};", self.expr(1)),
            11 if self.wild && !heap.is_empty() && !self.open.is_empty() => {
                let (i, at) = (self.open[0], *self.pick(&heap));
                let c = self.below(3);
                format!("if ({i} == {c}) free({});", self.arrays[at].name)
            }
            12..=14 if compound => return self.branches(),
            15 | 16 if compound && nested => return self.looped(),
            17 if compound && nested && !self.sentinel => return self.copy(),
            _ => format!("t = {};", self.expr(2)),
        };
        self.lines.push(line);
    }

    /// A third of the time, `p += E` or `p -= E` for a read or a constant
    /// (an `i64` extreme among them): a pointer bump by a value, which may
    /// walk `p` out of its unit and back. Drawn from the bumps' own stream
    /// and left out of every cost estimate, so every other line of a case
    /// stays as the main stream drew it.
    fn bump(&mut self, p: &str) {
        let r = &mut self.bumps;
        if r.below(3) > 0 {
            return;
        }
        let op = ["+=", "-="][r.below(2) as usize];
        let by = match r.below(4) {
            0 => EXTREMES[r.below(2) as usize].to_string(),
            1 => r.below(24).to_string(),
            _ => READS[r.below(READS.len() as u64) as usize].to_string(),
        };
        self.lines.push(format!("{p} {op} {by};"));
        self.aside += 1;
    }

    /// Inside a loop, half the time, `io_wait(E);` before the statement
    /// about to be written, so that it sits between stores, before
    /// accesses that may fault and before `if` chains: modelled I/O the
    /// native tier runs inside its region, superblocks included. Drawn
    /// from the waits' own stream and left out of every cost estimate,
    /// like [`Gen::bump`].
    fn wait(&mut self) {
        let r = &mut self.waits;
        if self.open.is_empty() || r.below(2) > 0 {
            return;
        }
        let bytes = match r.below(5) {
            0 => EXTREMES[r.below(2) as usize].to_string(),
            1 => format!("-{}", 1 + r.below(8)),
            2 => "0".into(),
            3 => r.below(4097).to_string(),
            _ => READS[r.below(READS.len() as u64) as usize].to_string(),
        };
        self.lines.push(format!("io_wait({bytes});"));
        self.aside += 1;
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

    /// A counted loop `d[k] = s[k]` over two sides of one width in the
    /// case's style, its pass count one either side of an end or on it.
    fn copy(&mut self) {
        self.copies += 1;
        let (style, pointee) = (STYLES[self.style], self.pointee.clone());
        let (d, s) = match style {
            "array" => {
                let d = *self.pick(&self.arrays(|a| a.kind == Kind::Array));
                let width = self.arrays[d].width;
                let sides = self.arrays(|a| a.kind == Kind::Array && a.width == width);
                (d, *self.pick(&sides))
            }
            _ => {
                let sides = self.arrays(|a| a.ty == pointee);
                (*self.pick(&sides), *self.pick(&sides))
            }
        };
        let [mut to, mut from] = [d, s].map(|a| self.arrays[a].name.clone());
        let (mut d_len, s_len) = (self.arrays[d].len, self.arrays[s].len);
        if style == "slot" {
            // `p` into `d`, then the destination or the source.
            let c = self.below(d_len);
            self.lines.push(format!("p = {to} + {c};"));
            (to, d_len) = ("p".into(), d_len - c);
            if self.below(2) == 0 {
                (to, from) = (from, to);
            }
        }
        let passes = match self.wild {
            true => [d_len, s_len][self.below(2) as usize] + self.below(3) - 1,
            false => d_len.min(s_len) - self.below(2),
        };
        let (first, latch) = match style {
            "wrap" => {
                // `k · size` leaves `i64` a few passes in.
                let shift = 63 - self.arrays[d].width.trailing_zeros();
                let near = (1u64 << shift) - 1 - self.below(6);
                self.lines.push(format!("p = {to} - {near};"));
                self.lines.push(format!("q = {from} - {near};"));
                self.lines.push(format!("e = {near} + {passes};"));
                (to, from) = ("p".into(), "q".into());
                (near.to_string(), "k != e".to_string())
            }
            _ => ("0".into(), format!("k < {passes}")),
        };
        self.lines.push(format!(
            "for (k = {first}; {latch}; k++) {to}[k] = {from}[k];"
        ));
        self.budget -= 24 * passes as i64 + 12;
    }

    /// `f`'s last lines, once the case's point and sequence are drawn:
    /// in a case that wrote no copy, two copies in a style past the first
    /// three over `long *`s cast from a `char` literal at byte offsets 0–7
    /// each side; then buffers for the libc shim — the literal `u`, `m` of
    /// [`PAGES`], `r` freed at once, `hb` for `realloc` — and calls of it.
    fn tail(&mut self, mode: Mode, sequence: ValueSequence) {
        let mut end = self.lines.len();
        let text = self.text(47);
        let [to, from, near] = [self.lib(8), self.lib(8), 1 + self.lib(8)];
        let room = (48 - to.max(from)) / 8;
        self.lines.push(format!("char *cb = \"{text}\";"));
        self.lines.push(format!("long *cd = (long *) (cb + {to});"));
        self.lines
            .push(format!("long *cs = (long *) (cb + {from});"));
        self.lines.push("unsigned long ku = 0;".into());
        self.lines.push(format!("long *kd = &k - {near};"));
        // Through `&k - C`, out of `k`'s unit, only where indices leave
        // theirs.
        let style = match self.lib(4) {
            0 => 7 + self.lib(2),
            _ => 3 + self.lib(3 + self.wild as u64),
        };
        if self.sentinel {
            let start = self.lines.len();
            self.sentinel_loop();
            let lines: Vec<String> = self.lines.drain(start..).collect();
            (end, self.tail) = (end + lines.len(), self.tail + lines.len());
            self.lines.splice(self.head..self.head, lines);
        }
        for _ in 0..2 * (self.copies == 0 && !self.sentinel) as usize {
            self.style = style as usize;
            let passes = match self.wild {
                true => [1, 2, room - 1, room, room + 1, room + 2][self.lib(6) as usize],
                false => self.lib(room + 1),
            };
            let up = format!("k = 0; k < {passes}; k++");
            let copy = match STYLES[self.style] {
                "cast" => format!("for ({up}) cd[k] = cs[k];"),
                "!=" => format!("for (k = 0; k != {passes}; k++) cd[k] = cs[k];"),
                "unsigned" => format!("for (ku = 0; ku < {passes}; ku++) cd[ku] = cs[ku];"),
                "&k" if near % 2 == 0 => format!("for ({up}) cd[k] = kd[k];"),
                "&k" => format!("for ({up}) kd[k] = cs[k];"),
                "k--" => format!("for (k = {passes} - 1; k >= 0; k--) cd[k] = cs[k];"),
                _ => format!("for ({up}) *((char *) (cd + k)) = *((char *) (cs + k));"),
            };
            self.lines
                .push(format!("{copy} // {} copies", STYLES[self.style]));
        }
        let (size, hb) = (1100 + self.lib(200), 16 + self.lib(48));
        let text = self.text(size - 1);
        self.lines.push(format!("char *u = \"{text}\";"));
        self.lines
            .push(format!("char *m = (char *) malloc({PAGES});"));
        self.lines.push("char *r = (char *) malloc(24);".into());
        self.lines.push("free(r);".into());
        self.lines
            .push(format!("char *hb = (char *) malloc({hb});"));
        let wild = match self.lib(3) {
            0 => format!("-{}", 1 + self.lib(8)),
            _ => EXTREMES[self.lib(2) as usize].to_string(),
        };
        self.lines.push(format!("long wild = {wild};"));
        let mut units: Vec<_> = (self.arrays.iter())
            .map(|a| match a.width {
                1 => (a.name.clone(), a.len),
                _ => (format!("((char *) {})", a.name), a.len * a.width as u64),
            })
            .collect();
        // Last, `m` past the two pages a write may commit.
        let far = ("m + 8192".into(), PAGES - 8192);
        units.extend([
            ("hb".into(), hb),
            ("u".into(), size),
            ("m".into(), PAGES),
            far,
        ]);
        // A call reads past its units up to a NUL unless the sweep goes on
        // through errors in Redirect mode or with a constant sequence,
        // which may never read one and run to the fuel; a length is wild
        // only where the sweep runs at Bounds Check, which ends it at the
        // unit's edge. Half the cases may write one call of over 64 bytes.
        let endless = mode == Mode::Redirect || matches!(sequence, ValueSequence::Constant(_));
        let bound = mode.continues_through_errors() && endless;
        self.long = self.lib(2) > 0;
        for _ in 0..3 + self.lib(6) {
            self.call(&mut units, [!bound, mode == Mode::BoundsCheck]);
        }
        for _ in 0..2 {
            let f = CTYPE[self.lib(6) as usize];
            let values = ["-1", "0", "9", "32", "53", "65", "200", "255", "c", "x"];
            let v = values[self.lib(10) as usize];
            self.lines.push(format!("t = t + {f}({v});"));
        }
        let tail: Vec<String> = self.lines.drain(end..).collect();
        self.lines.splice(self.tail..self.tail, tail);
    }

    fn lib(&mut self, n: u64) -> u64 {
        self.libc.below(n)
    }

    /// A sentinel case's loop, drawn from its own stream and written
    /// before `f`'s first statement, over a literal
    /// `sa` of up to 23 of [`TEXT`]'s characters whose sentinel sits first,
    /// in the middle or nowhere: a scan `while (sa[k] … ) k++;` or a copy
    /// `while (…) { da[k] = sa[k]; k++; }` into a shorter or longer `da`,
    /// over `long k` or `int w` (now and then started a few passes below
    /// `INT_MAX` through a base moved down by as much), testing for the
    /// NUL, one character or both, and a bound that may fire first or run
    /// past `sa` (where violations and manufactured values follow); or a
    /// copy `ap[k] = sa[k]` whose stores start in `ab` and run onto its own
    /// base `ap` and bound `an`, the slots declared after it.
    fn sentinel_loop(&mut self) {
        let r = &mut self.sentinels;
        self.style = SENTINEL_STYLES + r.below(3) as usize;
        let len = 1 + r.below(23);
        let mut text: Vec<u8> = (0..len)
            .map(|_| TEXT[r.below(TEXT.len() as u64) as usize])
            .collect();
        let stop = [b'%', b'z', b' ', b'9'][r.below(4) as usize];
        text.retain(|&b| b != stop);
        match r.below(3) {
            0 => text.insert(0, stop),
            1 => text.insert(r.below(text.len() as u64 + 1) as usize, stop),
            _ => {}
        }
        let text = String::from_utf8(text).expect("ASCII");
        self.lines.push(format!("char *sa = \"{text}\";"));
        let bound = r.below(text.len() as u64 + 10);
        if STYLES[self.style] == "alias" {
            // `ab`'s 16 bytes, then `ap` and `an` past their guards.
            let at = r.below(16);
            let passes = 32 - at + r.below(24);
            self.lines.push("char ab[16];".into());
            self.lines.push(format!("char *ap = ab + {at};"));
            self.lines.push(format!("long an = {passes};"));
            self.lines
                .push("for (k = 0; k < an; k++) ap[k] = sa[k]; // alias copies".into());
            return;
        }
        // `long k`, or a new `int sk`, now and then started below `INT_MAX`
        // so that its passes would cross the wrap.
        let (k, base) = match r.below(3) {
            0 => {
                let near = 2 + r.below(4);
                self.lines.push(format!("int sk = 2147483647 - {near};"));
                self.lines
                    .push(format!("char *sw = sa - 2147483647 + {near};"));
                ("sk", "sw")
            }
            1 => {
                self.lines.push("int sk = 0;".into());
                ("sk", "sa")
            }
            _ => {
                self.lines.push("k = 0;".into());
                ("k", "sa")
            }
        };
        // The NUL, the character or both, and a bound unless a NUL test
        // ends the loop (a Failure Oblivious run past `sa` reads a
        // manufactured zero); a loop near the wrap has none to cross it.
        let nul = base == "sw" || r.below(3) > 0;
        let mut tests = Vec::new();
        if nul {
            tests.push(format!("{base}[{k}]"));
        }
        if !nul || r.below(3) > 0 {
            tests.push(format!("{base}[{k}] != '{}'", stop as char));
        }
        if base != "sw" && (!nul || r.below(2) == 0) {
            tests.push(format!("{k} < {bound}"));
        }
        let cond = tests.join(" && ");
        let line = match STYLES[self.style] {
            "scan" => format!("while ({cond}) {k}++; // scan copies"),
            _ => {
                let room = 1 + r.below(text.len() as u64 + 8);
                self.lines.push(format!("char da[{room}];"));
                format!("while ({cond}) {{ da[{k}] = {base}[{k}]; {k}++; }} // scan-copy copies")
            }
        };
        self.lines.push(line);
    }

    /// `len` characters of [`TEXT`].
    fn text(&mut self, len: u64) -> String {
        let mut pick = || TEXT[self.lib(TEXT.len() as u64) as usize] as char;
        (0..len).map(|_| pick()).collect()
    }

    /// One call of a builtin of [`LIBC`], its operands reaching as
    /// [`REACH`] says — always in bounds where indices stay in. In bounds,
    /// a read up to a NUL reads a literal that fits, and two pointers may
    /// lie 0–511 bytes apart in `u`; leaving its unit, a length runs past
    /// the room (`wild` where it may) and a read up to a NUL reads a unit
    /// `memset` full first; otherwise the first pointer is past its unit
    /// (a descriptor in the checked modes) or in the freed `r`. Once a
    /// case, a copy of 513 bytes or more runs from `u` into `m`, to its
    /// length or off `u`'s end. A source is now and then in `m`'s
    /// never-written pages. The line ends in a comment naming what it
    /// reached, which [`check`] tallies.
    fn call(&mut self, units: &mut [(String, u64)], [unbounded, wild]: [bool; 2]) {
        let reach = if self.wild { self.lib(4) as usize } else { 0 };
        // Past its units, only a call whose reads stay bounded where others
        // may not end.
        let calls = LIBC.split_whitespace().filter_map(|c| c.split_once(':'));
        let bounded = |&(name, ops): &(&str, &str)| ops.contains('n') && name != "strncat";
        let calls: Vec<_> = calls
            .filter(|c| reach == 0 || unbounded || bounded(c))
            .collect();
        let (name, ops) = calls[self.lib(calls.len() as u64) as usize];
        let to_nul = !ops.contains('n') || name.starts_with("strn");
        // Overlapping only in bounds; long in bounds or off `u`'s end.
        let shape = match self.lib(3 - self.long as u64) {
            1 if to_nul || reach > 0 => 0,
            2 if reach > 1 || reach == 1 && to_nul => 0,
            shape => shape * (ops.matches(['d', 's']).count() == 2) as u64,
        };
        let (first, ahead) = (self.lib(32), self.lib(2) as usize);
        let apart = self.lib(if self.long { 17 } else { 512 });
        self.long |= shape == 2 || shape == 1 && apart > 16;
        let (mut args, mut room, mut far) = (Vec::<String>::new(), u64::MAX, false);
        for (i, op) in ops.chars().enumerate() {
            let (arg, fits) = match op {
                'c' => (["0", "53", "97", "109"][self.lib(4) as usize].into(), room),
                'n' if reach == 1 && wild => ("wild".into(), room),
                'n' => {
                    let n = match reach {
                        0 if ops == "hn" => room + 1 + self.lib(64),
                        0 if shape == 2 => 513 + self.lib(64),
                        0 => [0, room - 1, room, self.lib(room + 1)][self.lib(4) as usize],
                        1 => room + 1 + self.lib(40),
                        _ => 1 + self.lib(16),
                    };
                    (n.to_string(), room)
                }
                _ if i == 0 && reach == 3 => (format!("r + {}", self.lib(24)), 0),
                _ if i == 0 && reach == 2 => {
                    let (base, bytes) = match self.lib(units.len() as u64 + 2) as usize {
                        at if at < units.len() => units[at].clone(),
                        at => (format!("(char *) {}", ["p", "q"][at % 2]), 128),
                    };
                    (format!("{base} + {}", bytes + 1 + self.lib(8)), 0)
                }
                'h' => ("hb".into(), units[units.len() - 4].1),
                _ if shape == 1 => {
                    let at = [first, first + apart][i ^ ahead];
                    (format!("u + {at}"), apart + first + 1)
                }
                _ if shape == 2 => {
                    // To `u`'s NUL, 513 bytes or more.
                    let at = [self.lib(64), units[units.len() - 3].1 - 513 - self.lib(64)][i];
                    (format!("{} + {at}", ["m", "u"][i]), 577)
                }
                's' if reach == 0 && to_nul => {
                    let len = self.lib(room.min(16));
                    (format!("\"{}\"", self.text(len)), room.min(16))
                }
                // Zeros no other call writes: past where a destination
                // in `m` may reach, short of the never-written pages.
                'd' if reach == 0 && name.contains("cat") => {
                    (format!("m + {}", 4608 + self.lib(3072)), 24)
                }
                _ if reach == 1 && to_nul && (op == 's') != name.contains("cat") => {
                    // An array with no NUL.
                    let (base, bytes) = units[self.lib(units.len() as u64 - 4) as usize].clone();
                    self.lines.push(format!("memset({base}, 49, {bytes});"));
                    let at = self.lib(bytes);
                    (format!("{base} + {at}"), bytes - at)
                }
                _ => {
                    // Only a source in `m`'s never-written pages, and
                    // nothing in `m` where the length leaves its unit.
                    let skip = if reach == 1 { 2 } else { (op != 's') as u64 };
                    let at = self.lib(units.len() as u64 - skip) as usize;
                    far |= at == units.len() - 1;
                    let (base, bytes) = &units[at];
                    let at = self.lib(*bytes.min(&4096));
                    (format!("{base} + {at}"), (bytes - at).min(64))
                }
            };
            room = room.min(fits);
            args.push(arg);
        }
        let copies = ["cpy", "cat", "move"].iter().any(|w| name.contains(w));
        let mut tags = vec![format!("{name} calls, {}", REACH[reach])];
        let kinds = [
            (copies && shape == 1, "overlapping copies"),
            (copies && shape == 2, "copies longer than 512"),
            (far, "never-written sources"),
            (args.contains(&"wild".into()), "wild lengths"),
        ];
        tags.extend(kinds.iter().filter(|k| k.0).map(|k| k.1.to_string()));
        let call = format!("{name}({})", args.join(", "));
        let line = match name {
            "print_str" | "emit_output" => format!("{call};"),
            "realloc" if reach < 2 => {
                if let Ok(n) = args[1].parse() {
                    units[units.len() - 4].1 = n;
                }
                format!("hb = {call};")
            }
            _ => format!("t = t + (long) {call};"),
        };
        self.lines.push(format!("{line} // {}", tags.join("; ")));
    }
}

/// What the cases reached, summed by name: each `NOp`, `Src` and `Term`
/// variant lowering emitted, pointer bumps by element size and by a
/// value, regions running an `io_wait` before a side exit, `ExecProfile`
/// counters, batches per copy style and mode class, calls that logged
/// no violation, and Bounds Check deaths that left values on the
/// operand stack, by the seam's op.
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<String, u64>);

impl Tally {
    /// The count under `key`.
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    fn add(&mut self, key: impl Into<String>, n: u64) {
        *self.0.entry(key.into()).or_default() += n;
    }

    fn lowering(&mut self, native: &ProgramImage) {
        for fid in 0..native.funcs.len() as u32 {
            for region in &native.native_func(fid).expect("native image").regions {
                let ops = region.ops.iter().map(|op| format!("{op:?}"));
                for text in ops.chain([format!("{:?}", region.term)]) {
                    // The variant's name, then its operands'.
                    let mut words = text.split(|c: char| !c.is_ascii_alphanumeric());
                    let variant = words.next().expect("a variant name").to_owned();
                    let operands = words.filter(|w| SRCS.contains(w));
                    for name in operands.map(str::to_owned).chain([variant]) {
                        self.add(name, 1);
                    }
                }
                for op in &region.ops {
                    if let NOp::PtrInc { count, esz, .. } = *op {
                        self.add(format!("PtrInc by {esz}"), 1);
                        let by_value = !matches!(count, Src::Const(_));
                        self.add("PtrInc by a value", by_value as u64);
                    }
                }
                let wait = region
                    .ops
                    .iter()
                    .position(|op| matches!(op, NOp::IoWait { .. }));
                let exit = |op: &NOp| matches!(op, NOp::Exit { .. });
                let exits_after = wait.is_some_and(|at| region.ops[at..].iter().any(exit));
                self.add(
                    "IoWait in a superblock before a side exit",
                    exits_after as u64,
                );
                let latch = |w: &&[NOp]| matches!(w, [NOp::Inc { .. }, NOp::Exit { .. }]);
                let crossed = region.ops.windows(2).filter(latch).count();
                self.add("crossed latches", crossed as u64);
            }
        }
    }

    fn ran(
        &mut self,
        mode: Mode,
        style: usize,
        native: &ProgramImage,
        run: &Run,
        profile: &ExecProfile,
    ) {
        self.add("view misses", profile.view_misses);
        self.add("faults", profile.faults);
        self.add("side exits", profile.side_exits);
        self.add("fuel-short exits", profile.fuel_short_exits);
        self.add("span instrs", profile.span_instrs);
        let class = ["Standard", "checked"][mode.is_checked() as usize];
        let batches = format!("{} batches, {class}", STYLES[style]);
        self.add(batches, profile.batches);
        if mode != Mode::BoundsCheck || run.result.is_ok() || run.seen.stack.is_empty() {
            return;
        }
        self.add("live deaths", 1);
        let Some(&(fid, pc)) = run.seen.frames.last().filter(|_| profile.faults > 0) else {
            return;
        };
        for region in &native.native_func(fid).expect("native image").regions {
            for (at, op) in region.ops.iter().enumerate() {
                if super::validate::seam(*op).is_some_and(|(seam, _)| seam.pc == pc) {
                    let name = format!("{op:?}");
                    let name = name.split(' ').next().expect("a variant name");
                    self.add(format!("live deaths at {name}"), 1);
                    let exit = |op: &NOp| matches!(op, NOp::Exit { .. });
                    let past = region.ops[..at].iter().any(exit);
                    self.add("live deaths past a side exit", past as u64);
                    return;
                }
            }
        }
    }
}

/// `src` as `f(params.n)` after `params.churn` rounds of churn: both
/// tiers at every point at full fuel, where the two tables' runs must
/// be equal, Failure Oblivious must return (or divide by zero), and a
/// call it logs no violation in must return alike in every mode; then
/// [`super::sweep`] at `params.point` with its value sequence.
pub fn check(src: &str, params: &Params, tally: &mut Tally) {
    let images = super::images(src);
    tally.lowering(&images[1]);
    for line in src.lines().filter_map(|line| line.split_once("// ")) {
        line.1.split("; ").for_each(|tag| tally.add(tag, 1));
    }
    // One case per configuration: its first run on each tier churns, and
    // the rest start from a clone of that space — the space a replay
    // leaves, since churn touches nothing else — as a sweep runs hundreds.
    let case = || {
        let spaces: RefCell<[Option<MemorySpace>; 2]> = RefCell::default();
        let case = Case::prep(&images, "f", move |m| {
            match &mut spaces.borrow_mut()[m.image().native().is_some() as usize] {
                Some(space) => *m.space_mut() = space.clone(),
                slot => {
                    churn(m, params.churn);
                    *slot = Some(m.space().clone());
                }
            }
            for len in [1_000, 40, 700] {
                m.push_input((0..len).map(|i| b'1' + (i % 9) as u8).collect::<Vec<_>>());
            }
            vec![params.n]
        });
        case.with_memory()
    };
    let style = params.style;
    let runs = Mode::ALL.map(|mode| {
        let [reference, flat] = TableKind::ALL.map(|table| {
            let (run, profile) = super::tiers(&case(), &config(mode, table));
            tally.ran(mode, style, &images[1], &run, &profile);
            run
        });
        assert_eq!(reference, flat, "the tables diverge under {mode:?}");
        (mode, flat)
    });
    // A wild length or size runs to the fuel or out of heap.
    let (_, oblivious) = &runs[2];
    let out = VmFault::Mem(MemFault::Heap(HeapError::OutOfMemory));
    let ended = [Err(VmFault::FuelExhausted), Err(out)].contains(&oblivious.result);
    let wild = src.contains(", wild)") && ended;
    assert!(
        matches!(oblivious.result, Ok(_) | Err(VmFault::DivideByZero)) || wild,
        "Failure Oblivious faults: {oblivious:?}"
    );
    tally.add("wild calls ending Failure Oblivious", wild as u64);
    if oblivious.seen.log_total == 0 {
        tally.add("clean calls", 1);
        for (mode, run) in &runs {
            assert_eq!(
                run.result, oblivious.result,
                "{mode:?} differs on a clean call"
            );
        }
    }
    let (mode, table) = point(params.point);
    let config = config(mode, table).with_sequence(SEQUENCES[params.sequence]);
    let (run, profile) = super::sweep(&case(), &config);
    tally.ran(mode, style, &images[1], &run, &profile);
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
        let (churn, sequence, what) = (churn as u32, sequence as usize, path.display().to_string());
        let params = |point| Params {
            n,
            churn,
            sequence,
            point,
            style: 0,
        };
        for point in 0..10 {
            judge(&lines, &params(point), &what, &mut Tally::default());
        }
    }
    files.len()
}
