//! Builtin calls a native stay completes on its view, against the
//! baseline tier.
//!
//! One guest function calls one libc-shim builtin over operands the host
//! lays out — two 32-byte heap units, a five-page heap unit whose pages
//! are committed apart, a freed unit, a 32-byte local and a 32-byte
//! global copied from a third unit, each at an offset, so an operand can
//! leave its unit and become an out-of-bounds descriptor — then copies
//! the local and the global out to the host. Every builtin the view may
//! complete runs over seeded operand shapes: NULs inside a unit, on its
//! last byte and nowhere, `n` of zero and past the unit, copies
//! 0 to `len` bytes apart either way, operands in different regions and
//! in a window other than the first, descriptors and freed units. Each
//! case runs on both tiers at every fuel budget up to one past the
//! call's need, so the budgets where the builtin has exactly one more
//! than its iterations and one fewer are among them, and the two tiers
//! must agree on the result, the output, every guest byte and the whole
//! [`foc_vm::Observation`] (`RunStats`, `SpaceStats`, the error log, the
//! fault). At full fuel in Failure Oblivious mode the case must have
//! completed in its stay exactly when it is meant to
//! (`ExecProfile::stay_builtins`).

use foc_compiler::{compile_image_tier, ExecTier, ProgramImage};
use foc_memory::{Mode, Run};
use foc_vm::{Machine, MachineConfig};

const SRC: &str = r#"
char g[32];
long run(long which, char *init, char *out, long sa, char *pa, long oa, long sb, char *pb, long ob, long n) {
    char a[32];
    char *p;
    char *q;
    long r = 0;
    memcpy(a, init, 32);
    memcpy(g, init, 32);
    p = pa + oa;
    if (sa == 1) p = g + oa;
    if (sa == 2) p = a + oa;
    q = pb + ob;
    if (sb == 1) q = g + ob;
    if (sb == 2) q = a + ob;
    if (which == 0) r = strlen(p);
    if (which == 1) r = (long) strcpy(p, q);
    if (which == 2) r = (long) strncpy(p, q, n);
    if (which == 3) r = (long) strcat(p, q);
    if (which == 4) r = (long) strncat(p, q, n);
    if (which == 5) r = strcmp(p, q);
    if (which == 6) r = strncmp(p, q, n);
    if (which == 7) r = (long) strchr(p, n);
    if (which == 8) r = (long) strrchr(p, n);
    if (which == 9) r = (long) memcpy(p, q, n);
    if (which == 10) r = (long) memmove(p, q, n);
    if (which == 11) r = (long) memset(p, n, 7);
    if (which == 12) r = memcmp(p, q, n);
    if (which == 13) print_str(p);
    if (which == 14) emit_output(p, n);
    if (which == 15) r = atoi(p);
    if (which == 16) print_int(n);
    if (which == 17) r = putchar(n);
    if (which == 18) r = isspace(n) + 2 * isdigit(n) + 4 * isalpha(n) + 8 * isprint(n);
    if (which == 19) r = toupper(n) * 1000 + tolower(n);
    memcpy(out, a, 32);
    memcpy(out + 32, g, 32);
    return r;
}
"#;

const STRLEN: i64 = 0;
const STRCPY: i64 = 1;
const STRNCPY: i64 = 2;
const STRCAT: i64 = 3;
const STRNCAT: i64 = 4;
const STRCMP: i64 = 5;
const STRNCMP: i64 = 6;
const STRCHR: i64 = 7;
const STRRCHR: i64 = 8;
const MEMCPY: i64 = 9;
const MEMMOVE: i64 = 10;
const MEMSET: i64 = 11;
const MEMCMP: i64 = 12;
const PRINT_STR: i64 = 13;
const EMIT_OUTPUT: i64 = 14;
const ATOI: i64 = 15;
const PRINT_INT: i64 = 16;
const PUTCHAR: i64 = 17;
const CTYPE: i64 = 18;
const CASE: i64 = 19;

/// Where an operand points.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Base {
    /// One of the two 32-byte heap units.
    H1,
    H2,
    /// The five-page heap unit, near its end, at a window of its own
    /// (holding `h2`'s bytes, then zeros).
    Far,
    /// The same unit, eight bytes (`h2`'s first eight) that end the
    /// window holding its first byte: the rest of the unit lies outside
    /// that window.
    Edge,
    /// A freed 32-byte unit.
    Gone,
    /// The 32-byte global.
    Global,
    /// The 32-byte local.
    Local,
}

#[derive(Debug, Clone)]
struct Case {
    what: String,
    which: i64,
    p: (Base, i64),
    q: (Base, i64),
    n: i64,
    /// The 32 bytes of each 32-byte unit: `h1`, `h2`, and `init` (the
    /// local's and the global's).
    h1: [u8; 32],
    h2: [u8; 32],
    init: [u8; 32],
    /// Whether the call under test completes in its stay at full fuel
    /// in Failure Oblivious mode.
    in_stay: bool,
}

/// A deterministic stream (SplitMix64).
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// 32 letters, digits and blanks with a NUL at `nul` (none past 31).
    fn bytes(&mut self, nul: usize) -> [u8; 32] {
        const ALPHABET: &[u8] = b"abcdefghij0123456789 +-ABC";
        let mut out = [0u8; 32];
        for b in out.iter_mut() {
            *b = ALPHABET[self.below(ALPHABET.len() as u64) as usize];
        }
        if nul < 32 {
            out[nul] = 0;
        }
        out
    }
}

/// A guest process with the host's operands laid out: its machine and the
/// addresses of `h1`, `h2`, the far unit's window and edge, `gone`,
/// `init` and `out`.
struct Laid {
    m: Machine,
    h1: u64,
    h2: u64,
    far: u64,
    edge: u64,
    gone: u64,
    init: u64,
    out: u64,
}

fn lay_out(image: &ProgramImage, mode: Mode, fuel: u64, case: &Case) -> Laid {
    let mut m = Machine::load(
        image.clone(),
        MachineConfig::with_mode(mode).with_fuel(fuel),
    )
    .expect("load");
    let space = m.space_mut();
    let mut unit = |len: u64| space.malloc(len).expect("host malloc");
    let (h1, h2, init, out) = (unit(32), unit(32), unit(32), unit(64));
    let far_unit = unit(5 << 12);
    let gone = unit(32);
    // The far unit's last bytes open a window of their own; the eight
    // bytes that end the window its first byte lies in are the edge.
    let far = far_unit + (5 << 12) - 64;
    let ok = space.write_bytes_raw(h1, &case.h1)
        && space.write_bytes_raw(h2, &case.h2)
        && space.write_bytes_raw(init, &case.init)
        && space.write_bytes_raw(far, &case.h2);
    let first = space.run_bytes(Run {
        addr: far_unit,
        len: 5 << 12,
    });
    assert!(first.len() < 5 << 12, "the far unit spans two windows");
    let edge = far_unit + first.len() as u64 - 8;
    assert!(ok && space.write_bytes_raw(edge, &case.h2[..8]));
    space.free(gone, Default::default()).expect("host free");
    Laid {
        m,
        h1,
        h2,
        far,
        edge,
        gone,
        init,
        out,
    }
}

/// What both tiers must agree on.
type Seen = (
    Result<i64, foc_vm::VmFault>,
    Vec<u8>,
    Vec<u8>,
    foc_vm::Observation,
);

/// Runs `case` at `fuel`; returns what it left and how many builtin calls
/// completed in a stay.
fn run(image: &ProgramImage, mode: Mode, fuel: u64, case: &Case) -> (Seen, u64) {
    let Laid {
        mut m,
        h1,
        h2,
        far,
        edge,
        gone,
        init,
        out,
    } = lay_out(image, mode, fuel, case);
    let operand = |(base, off): (Base, i64)| -> [i64; 3] {
        let (select, ptr) = match base {
            Base::H1 => (0, h1),
            Base::H2 => (0, h2),
            Base::Far => (0, far),
            Base::Edge => (0, edge),
            Base::Gone => (0, gone),
            Base::Global => (1, h1),
            Base::Local => (2, h1),
        };
        [select, ptr as i64, off]
    };
    let [sa, pa, oa] = operand(case.p);
    let [sb, pb, ob] = operand(case.q);
    let args = [
        case.which,
        init as i64,
        out as i64,
        sa,
        pa,
        oa,
        sb,
        pb,
        ob,
        case.n,
    ];
    let result = m.call("run", &args);
    let mut bytes = Vec::new();
    for (at, len) in [(h1, 32), (h2, 32), (out, 64), (far - 8, 72), (edge, 16)] {
        bytes.extend(m.space().read_bytes_raw(at, len).expect("mapped"));
    }
    let stays = m.exec_profile().stay_builtins;
    ((result, m.take_output(), bytes, m.observe()), stays)
}

fn cases() -> Vec<Case> {
    let mut rng = Seeded(0x5EED_B17E);
    let mut cases = Vec::new();
    let mut add = |what: String, which, p, q, n, units: [[u8; 32]; 3], in_stay| {
        let [h1, h2, init] = units;
        cases.push(Case {
            what,
            which,
            p,
            q,
            n,
            h1,
            h2,
            init,
            in_stay,
        });
    };
    let (h1, h2, local, global) = (
        (Base::H1, 0),
        (Base::H2, 0),
        (Base::Local, 0),
        (Base::Global, 0),
    );
    for round in 0..2 {
        let j = 1 + rng.below(30) as usize;
        // The NUL inside, on the unit's last byte, and nowhere.
        for (shape, nul, fits) in [
            ("inside", j, true),
            ("last byte", 31, true),
            ("no NUL", 32, false),
        ] {
            let units = [rng.bytes(nul), rng.bytes(nul), rng.bytes(nul)];
            let tag = |name: &str| format!("{name} {shape} #{round}");
            for (name, which) in [("strlen", STRLEN), ("print_str", PRINT_STR), ("atoi", ATOI)] {
                // Each base's bytes, and whether the walk ends inside them:
                // the far window reads zeros past them, the edge ends its
                // window after eight.
                let bases = [
                    (h1, &units[0][..], fits),
                    (local, &units[2][..], fits),
                    (global, &units[2][..], fits),
                    ((Base::Far, 0), &units[1][..], true),
                    ((Base::Edge, 0), &units[1][..8], nul < 8),
                ];
                for (p, bytes, ended) in bases {
                    let ended = if which == ATOI {
                        atoi_ends(bytes) || ended
                    } else {
                        ended
                    };
                    add(tag(name), which, p, h2, 0, units, ended);
                }
            }
            let c = units[0][rng.below(nul.min(32) as u64) as usize] as i64;
            add(tag("strchr"), STRCHR, h1, h2, c, units, true);
            add(tag("strchr miss"), STRCHR, h1, h2, b'#' as i64, units, fits);
            add(tag("strrchr"), STRRCHR, h1, h2, c, units, fits);
            // Equal strings: the verdict is the shared NUL, or none.
            let same = [units[0], units[0], units[0]];
            add(tag("strcmp equal"), STRCMP, h1, h2, 0, same, fits);
            add(
                tag("strcmp local/global"),
                STRCMP,
                local,
                global,
                0,
                same,
                fits,
            );
            add(
                tag("strncmp past the unit"),
                STRNCMP,
                h1,
                h2,
                40,
                same,
                fits,
            );
            add(tag("strncmp within"), STRNCMP, h1, h2, 20, same, true);
            add(tag("memcmp"), MEMCMP, h1, h2, 32, same, true);
            add(tag("memcmp past the unit"), MEMCMP, h1, h2, 33, same, false);
            // Strings that differ before any NUL decide there.
            let mut other = units;
            other[1][0] = other[0][0] ^ 1;
            add(tag("strcmp differ"), STRCMP, h1, h2, 0, other, true);
            add(tag("strncmp differ"), STRNCMP, h1, h2, 40, other, true);
            // Copies between units: whole, and into a shorter room.
            add(tag("strcpy"), STRCPY, h1, h2, 0, units, fits);
            add(
                tag("strcpy to local"),
                STRCPY,
                local,
                global,
                0,
                units,
                fits,
            );
            add(tag("strncpy pads"), STRNCPY, h1, h2, 32, units, true);
            add(
                tag("strncpy past the unit"),
                STRNCPY,
                h1,
                h2,
                33,
                units,
                false,
            );
            let short = [units[0], rng.bytes(2), units[2]];
            add(tag("strcat"), STRCAT, h1, h2, 0, short, nul <= 29);
            add(tag("strcat too long"), STRCAT, h1, h2, 0, units, nul <= 15);
            add(tag("strncat"), STRNCAT, h1, h2, 3, units, nul <= 28);
            add(
                tag("strncat to the NUL"),
                STRNCAT,
                h1,
                h2,
                30,
                [rng.bytes(20), rng.bytes(4), units[2]],
                true,
            );
            add(tag("emit_output"), EMIT_OUTPUT, h1, h2, 32, units, true);
            add(
                tag("emit_output past the unit"),
                EMIT_OUTPUT,
                h1,
                h2,
                33,
                units,
                false,
            );
            add(tag("memcpy"), MEMCPY, h1, h2, j as i64, units, true);
            add(
                tag("memmove across regions"),
                MEMMOVE,
                local,
                h2,
                j as i64,
                units,
                true,
            );
            add(tag("memset"), MEMSET, global, h2, 32, units, true);
        }
        // `n` of zero.
        let units = [rng.bytes(j), rng.bytes(j), rng.bytes(j)];
        for (name, which) in [
            ("strncpy", STRNCPY),
            ("strncmp", STRNCMP),
            ("memcpy", MEMCPY),
            ("memmove", MEMMOVE),
            ("memcmp", MEMCMP),
            ("emit_output", EMIT_OUTPUT),
            ("strncat", STRNCAT),
        ] {
            add(
                format!("{name} n = 0 #{round}"),
                which,
                h1,
                h2,
                0,
                units,
                true,
            );
        }
        // Copies 0 to `len` bytes apart, the destination after the source
        // and before it: a span is no longer than the two are apart.
        let len = 4 + rng.below(12) as i64;
        let units = [rng.bytes(len as usize), rng.bytes(31), rng.bytes(31)];
        for d in 0..=len {
            let (src, dst) = ((Base::H1, 0), (Base::H1, d));
            let apart = d > 0 && d >= len;
            add(
                format!("memcpy {d} after, len {len}"),
                MEMCPY,
                dst,
                src,
                len,
                units,
                apart,
            );
            add(
                format!("memcpy {d} before"),
                MEMCPY,
                src,
                dst,
                len,
                units,
                apart,
            );
            add(
                format!("memmove {d} after"),
                MEMMOVE,
                dst,
                src,
                len,
                units,
                true,
            );
            let through = d > len;
            add(
                format!("strcpy {d} after"),
                STRCPY,
                dst,
                src,
                0,
                units,
                through,
            );
            add(
                format!("strncpy {d} before"),
                STRNCPY,
                src,
                dst,
                len + 1,
                units,
                d > 0 && d > len - d,
            );
        }
        // Words: no guest memory, always in the stay.
        for n in [-1, 0, 9, 32, 48, 65, 97, 200, 255, 256] {
            add(format!("print_int {n}"), PRINT_INT, h1, h2, n, units, true);
            add(format!("putchar {n}"), PUTCHAR, h1, h2, n, units, true);
            add(format!("ctype {n}"), CTYPE, h1, h2, n, units, true);
            add(format!("toupper/tolower {n}"), CASE, h1, h2, n, units, true);
        }
        // Descriptors and freed units: never in the stay.
        let units = [rng.bytes(8), rng.bytes(8), rng.bytes(8)];
        let gone = (Base::Gone, 0);
        for (name, which) in [
            ("strlen", STRLEN),
            ("print_str", PRINT_STR),
            ("strcpy", STRCPY),
            ("strcmp", STRCMP),
            ("memcpy", MEMCPY),
        ] {
            let reads_q = !matches!(which, STRLEN | PRINT_STR);
            add(
                format!("{name} descriptor #{round}"),
                which,
                (Base::H1, 33),
                h2,
                8,
                units,
                false,
            );
            add(
                format!("{name} at an offset"),
                which,
                (Base::H1, 2),
                (Base::H2, 1),
                4,
                units,
                true,
            );
            add(format!("{name} freed"), which, gone, h2, 8, units, false);
            add(
                format!("{name} from freed"),
                which,
                h1,
                gone,
                8,
                units,
                !reads_q,
            );
        }
    }
    cases
}

/// Whether `atoi`'s scan stops inside `bytes`.
fn atoi_ends(bytes: &[u8]) -> bool {
    let mut begun = false;
    for &b in bytes {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C if !begun => {}
            b'-' | b'+' if !begun => begun = true,
            b'0'..=b'9' => begun = true,
            _ => return true,
        }
    }
    false
}

#[test]
fn builtins_completed_in_a_stay_match_the_baseline() {
    let native = compile_image_tier(SRC, ExecTier::Native).expect("compile");
    let baseline = compile_image_tier(SRC, ExecTier::Baseline).expect("compile");
    let check = |case: &Case| {
        for mode in [Mode::FailureOblivious, Mode::BoundsCheck, Mode::Standard] {
            let what = format!("{} ({mode:?}): {case:?}", case.what);
            let (full, stays) = run(&native, mode, u64::MAX, case);
            assert_eq!(full, run(&baseline, mode, u64::MAX, case).0, "{what}");
            if mode == Mode::FailureOblivious {
                // The copies in and out complete in every case but the
                // first into the global: the loader commits no page of a
                // zero global, and the view commits nothing.
                let calls = match case.which {
                    CTYPE => 4,
                    CASE => 2,
                    _ => 1,
                };
                assert_eq!(stays, 3 + calls * case.in_stay as u64, "{what}");
            }
            if mode == Mode::Standard {
                continue;
            }
            let need = full.3.run.instrs;
            for fuel in 1..=need + 1 {
                let theirs = run(&baseline, mode, fuel, case).0;
                assert_eq!(
                    run(&native, mode, fuel, case).0,
                    theirs,
                    "{what} at fuel {fuel}"
                );
            }
        }
    };
    let cases = cases();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for w in 0..workers {
            let (cases, check) = (&cases, &check);
            s.spawn(move || cases.iter().skip(w).step_by(workers).for_each(check));
        }
    });
    let completed = cases.iter().filter(|c| c.in_stay).count();
    let missed = cases.len() - completed;
    assert!(
        completed > 150 && missed > 75,
        "{completed} completed, {missed} missed"
    );
}
