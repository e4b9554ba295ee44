//! The native executor's invisibility contract at the memory boundary,
//! as cases of the equivalence harness (`equiv`): a region's checked
//! guest loads and stores, resolved through the view's placement probe
//! (`Load`/`Store`/`IdxLoad`/`IdxStore`), must be observationally
//! byte-identical to one-dispatch-at-a-time interpretation — equal call
//! results and equal [`foc_vm::Observation`]s, so in particular the
//! `charge − spent` refund taken at a mid-region deopt, the log's fault
//! pcs and sequence numbers, and the operand stack and frame pcs a
//! fault leaves behind.
//!
//! Most of it is judged on generated programs (`equiv/gen.rs`): a
//! function and the helper it calls, over local, global, heap and string
//! arrays and pointers into them and into scalars, indexed in and out of
//! bounds, with buffers freed mid-loop and copies whose counters wrap;
//! each at every mode × table point and swept over every fuel budget at
//! one, under alloc/free churn and a manufactured-value sequence. Shrunk
//! failures are replayed from `tests/corpus/gen/`, and a tally of what
//! the programs reached holds a floor on every lowered variant.
//!
//! The hand-written cases are what the generator cannot write: a region
//! too deep for the register file, and the counted copies its batch
//! floors do not hold (through `&k`, through casts, other latches, and
//! loops that are no copies), each held to the modes it batches in. One
//! test validates every region of the five servers (`equiv/validate.rs`).
//!
//! The last section holds the libc shim to the same contract. On the
//! native tier its string/memory builtins retire whole runs of in-bounds
//! bytes at once (`foc-vm/src/builtins.rs`); on the baseline tier they
//! walk byte by byte. Each builtin is driven over operands built to put
//! a seam of the run everywhere one can fall — the unit's edge, a
//! missing NUL, a neighbouring unit, a descriptor, a freed unit,
//! overlap in both directions, never-written bytes, stack, heap and
//! global units, copies longer than one span — under every mode and
//! every fuel budget up to completion, and the two tiers must agree on
//! the result, the `Observation`, the output and every byte of guest
//! memory.

mod equiv;

use proptest::test_runner::TestRng;

use equiv::{gen, Case};
use foc_compiler::native::{NOp, Term};
use foc_compiler::ExecTier;
use foc_memory::{MemConfig, Mode, TableKind};
use foc_servers::ServerKind;
use foc_vm::{Machine, MachineConfig};

// ---------------------------------------------------------------------
// Generated programs: the native tier runs region after region over one
// borrowed view of the space, and neither the chain, the view nor its
// placement memo may leak into what a guest or an operator observes.
// ---------------------------------------------------------------------

/// [`equiv::gen`]'s cases, each at every mode × table point and swept
/// at one, then its corpus. The floors are on what the hand-drawn shapes
/// this replaced were written to reach: view misses (an index leaving
/// its unit and coming back), faults and side exits refunded mid-region,
/// fuel-short exits between chained regions, crossed latches, copies
/// batched in each style and mode class (and a counter near the `i64`
/// wrap over a base out of its unit batched in no checked mode), calls
/// with no violation (where every mode must agree), Bounds Check dying
/// with live values below each kind of seam, pointer bumps (`PtrInc`) by
/// a value and over `int` and `long` elements, `io_wait` run inside its
/// region (`IoWait`, some in a superblock ahead of a side exit), and
/// every `NOp`, `Src` and `Term` variant emitted.
#[test]
fn generated_programs_are_tier_blind() {
    let mut rng = TestRng::deterministic("generated_programs_are_tier_blind");
    let mut tally = gen::Tally::default();
    for c in 0..gen::CASES {
        let (lines, params) = gen::case(&mut rng, c);
        let src = lines.join("\n");
        let accepted = foc_lang::frontend(&src);
        assert!(
            accepted.is_ok(),
            "case {c} is no MiniC: {accepted:?}\n{src}"
        );
        gen::judge(&lines, &params, &format!("case {c}"), &mut tally);
    }
    let floors = [
        ("view misses", 2_700),
        ("faults", 160),
        ("side exits", 150),
        ("fuel-short exits", 7_000),
        ("clean calls", 16),
        ("live deaths", 52),
        ("live deaths at IdxLoad", 11),
        ("live deaths at IdxStore", 25),
        ("live deaths at Load", 13),
        ("live deaths at Store", 2),
        ("live deaths at Div", 6),
        ("live deaths past a side exit", 3),
        ("crossed latches", 12),
        ("array batches, Standard", 2),
        ("array batches, checked", 12),
        ("slot batches, Standard", 5),
        ("slot batches, checked", 12),
        ("wrap batches, Standard", 3),
        ("IdxLoad", 1_400),
        ("IdxStore", 400),
        ("Exit", 160),
        ("IncBranch", 100),
        ("PtrInc by a value", 12),
        ("PtrInc by 4", 5),
        ("PtrInc by 8", 4),
        ("IoWait", 50),
        ("IoWait in a superblock before a side exit", 3),
    ];
    let variants = gen::variants().map(|v| (v, 8));
    for (what, floor) in floors.into_iter().chain(variants) {
        let got = tally.get(what);
        assert!(got >= floor, "{what}: {got} under {floor}\n{tally:#?}");
    }
    // A base out of its unit is a descriptor there, which no batch proves.
    assert_eq!(tally.get("wrap batches, checked"), 0, "{tally:#?}");
    assert!(gen::replay_corpus() > 0, "the corpus is empty");
}

/// An expression nested deeper than the register file, which the
/// generator never writes. Its region is not lowered; the interpreter
/// runs it, and the regions around it still chain.
#[test]
fn a_region_too_deep_for_the_register_file_runs_interpreted() {
    let depth = foc_compiler::native::NATIVE_REGS + 6;
    let images = equiv::images(&format!(
        "long f(long x) {{ long i; long t = 0;\n\
             for (i = 0; i < 3; i++) t = t + {}x{};\n\
             return t; }}",
        "(x + ".repeat(depth),
        ")".repeat(depth)
    ));
    let case = Case::new(&images, "f", &[2]);
    for mode in Mode::ALL {
        let config = MachineConfig::with_mode(mode).with_fuel(100_000);
        let (run, profile) = equiv::sweep(&case, &config);
        assert_eq!(run.result, Ok(3 * 2 * (depth as i64 + 1)));
        let interpreted = run.seen.run.instrs - profile.native_instrs;
        assert!(
            profile.native_instrs > 0 && interpreted > 3 * depth as u64,
            "the deep body is interpreted, the loop control native: {profile:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Every region lowering emits, validated against its bytecode.
// ---------------------------------------------------------------------

/// Sources whose seams, spills, charges and branch senses `native.rs`'s
/// unit tests once pinned by hand.
const ONCE_PINNED: [&str; 7] = [
    "int f() { int x = 3; int y = 4; return x + y; }",
    "long f() { long acc = 0; long xs[2]; acc += xs[5]; return acc; }",
    "long f() { long k = 1; return k + k++; }",
    "int main() { long i; long n = 3; i = 0; while (i < n) { i++; } return 0; }",
    "long f(long k) { long a[2]; long x = 1; return x + a[k]; }",
    "int main() { int a; a = 9; return a / 3 + a % 2; }",
    "long f(long a, long b) { long x = a + 1; long q = x / b; long y = q + 2; return y + x; }",
];

/// Every region of the five servers passes translation validation
/// (`equiv/validate.rs`), as do [`ONCE_PINNED`]'s. Superblocks still
/// form — 264 crossing 449 branches when written, a floor — and a
/// counted loop's region is its copy alone.
#[test]
fn every_region_of_the_five_servers_passes_translation_validation() {
    let (mut superblocks, mut exits) = (0, 0);
    for kind in ServerKind::ALL {
        let image = kind.fresh_image_tier(ExecTier::Native);
        equiv::validate::image(&image);
        for fid in 0..image.funcs.len() as u32 {
            for region in &image.native_func(fid).expect("native image").regions {
                let exit = |op: &&NOp| matches!(op, NOp::Exit { .. });
                let crossed = region.ops.iter().filter(exit).count();
                if matches!(region.term, Term::Counted(_)) {
                    assert_eq!((region.ops.len(), crossed), (2, 0), "{region:?}");
                }
                superblocks += (crossed > 0) as usize;
                exits += crossed;
            }
        }
    }
    assert!(
        superblocks > 200 && exits > superblocks,
        "{superblocks} / {exits}"
    );
    for source in ONCE_PINNED {
        equiv::images(source);
    }
}

// ---------------------------------------------------------------------
// Counted loops: a copy loop's passes run as one proven move.
// ---------------------------------------------------------------------

/// One counted-loop shape: a function `f(n)` over units whose end is
/// `end` elements in, and in which modes its copy loop must batch.
struct Counted {
    name: &'static str,
    source: String,
    end: i64,
    /// Whether batches fire (at some length) in Standard mode, then in
    /// the checked modes.
    batches: [bool; 2],
}

/// `f(n)` fills `s`, runs `copy` and sums `d`'s `len` elements; `decls`
/// declares `s`, `d`, `k` and whatever else `copy` names.
fn counted_source(decls: &str, copy: &str, len: i64) -> String {
    format!(
        "long f(long n) {{\n\
             {decls} long t = 0; long j;\n\
             for (j = 0; j < {len}; j++) s[j] = j * 5 - 40;\n\
             {copy}\n\
             for (j = 0; j < {len}; j++) t = t * 3 + d[j];\n\
             return t;\n\
         }}"
    )
}

/// The shapes [`equiv::gen`]'s batch floors do not hold: copies through
/// a pointer into the frame, through `long *`s cast from a `char`
/// buffer, latches other than `k < C` on a signed `k`, and loops that
/// are not copies.
fn counted_shapes() -> Vec<Counted> {
    let up = "for (k = 0; k < n; k++) d[k] = s[k];";
    let shape = |name, decls: &str, copy: &str, len, end, batches| Counted {
        name,
        source: counted_source(decls, copy, len),
        end,
        batches,
    };
    vec![
        // Four slots of `pad` and the gap below `k`, then `k` itself:
        // Standard batches the prefix, the checked modes see a pointer
        // out of its unit.
        shape(
            "a store through &k",
            "long s[16]; long pad[8]; long k; long *d = &k - 6;",
            up,
            4,
            6,
            [true, false],
        ),
        // The same for a load: the batch holds `k` in a register.
        shape(
            "a load through &k",
            "long s[16]; long d[16]; long k; long *y = &k - 4;",
            "for (k = 0; k < n; k++) d[k] = y[k];",
            16,
            4,
            [true, false],
        ),
        // A latch stepping down is not counted.
        shape(
            "k--",
            "long s[16]; long d[16]; long k;",
            "for (k = n - 1; k >= 0; k--) d[k] = s[k];",
            16,
            16,
            [false, false],
        ),
        // Stores 3 and 5 bytes below the loads: each store overwrites part
        // of the element its own pass loaded, so the move must read the
        // last pass's value first.
        shape(
            "stores 3 bytes below the loads",
            "char c[136]; long *s = (long *) (c + 3); long *d = (long *) c; long k;",
            up,
            16,
            16,
            [true, true],
        ),
        shape(
            "stores 5 bytes below the loads",
            "char c[136]; long *s = (long *) (c + 5); long *d = (long *) c; long k;",
            up,
            16,
            16,
            [true, true],
        ),
        // Every pass's store overlaps its own load's element from above:
        // the loop runs pass by pass.
        shape(
            "stores 3 bytes above the loads",
            "char c[136]; long *s = (long *) c; long *d = (long *) (c + 3); long k;",
            up,
            16,
            16,
            [false, false],
        ),
        // One byte of each 8-byte element: the passes do not tile, and
        // the loop is not counted.
        shape(
            "strided",
            "long s[16]; long d[16]; long k;",
            "for (k = 0; k < n; k++) *((char *) (d + k)) = *((char *) (s + k));",
            16,
            16,
            [false, false],
        ),
        // Latches other than `k < n` that fail inside the proven span.
        shape(
            "k != n",
            "long s[16]; long d[16]; long k;",
            "for (k = 0; k != n; k++) d[k] = s[k];",
            16,
            16,
            [true, true],
        ),
        shape(
            "unsigned k",
            "long s[16]; long d[16]; unsigned long k;",
            up,
            16,
            16,
            [true, true],
        ),
    ]
}

/// Every shape × every mode × lengths straddling its unit's end: the
/// native tier equals the baseline on the result and the `Observation`,
/// and batches fire exactly in the modes the shape says — the checked
/// modes refuse a base pointer out of its unit, and a loop nobody
/// batches cannot pass this vacuously.
#[test]
fn counted_loops_batch_only_what_they_prove() {
    for shape in counted_shapes() {
        let images = equiv::images(&shape.source);
        let end = shape.end;
        for mode in Mode::ALL {
            let config = MachineConfig::with_mode(mode).with_fuel(100_000);
            let batched: u64 = [0, 1, 2, end - 1, end, end + 1, end + 40]
                .iter()
                .map(|&n| equiv::tiers(&Case::new(&images, "f", &[n]), &config).1)
                .map(|profile| profile.batched_instrs)
                .sum();
            let want = shape.batches[mode.is_checked() as usize];
            assert_eq!(batched > 0, want, "{} under {mode:?}", shape.name);
        }
    }
}

/// Every fuel budget across every shape, run one element past its unit
/// — a batch, then the violation, where the shape batches — in each of
/// the sweep's three modes: each budget ends the batch one pass sooner
/// (fuel covers `fuel / charge` passes), and the budgets about the
/// loop's first latch leave fewer than two.
#[test]
fn every_fuel_budget_across_a_batch_is_tier_blind() {
    for shape in counted_shapes() {
        let images = equiv::images(&shape.source);
        let case = Case::new(&images, "f", &[shape.end + 1]);
        for mode in [Mode::FailureOblivious, Mode::Standard, Mode::BoundsCheck] {
            // Every shape ends within 2 000 instructions but `a store
            // through &k` outside Bounds Check, whose store resets `k`:
            // it runs until this fuel is gone.
            let config = MachineConfig::with_mode(mode).with_fuel(4_000);
            let (_, profile) = equiv::sweep(&case, &config);
            let batched = profile.batched_instrs > 0;
            assert_eq!(
                batched,
                shape.batches[mode.is_checked() as usize],
                "{} under {mode:?}",
                shape.name
            );
        }
    }
}

// ---------------------------------------------------------------------
// The libc shim at every seam of a run.
// ---------------------------------------------------------------------

/// One wrapper per span-wise builtin, all `(a, b, n)`: `a` is the
/// operand written (or the first compared), `b` the one read.
const SHIM_SOURCE: &str = "\
     long t_strlen(char *a, char *b, long n) { return strlen(b); }\n\
     long t_strcpy(char *a, char *b, long n) { return (long) strcpy(a, b); }\n\
     long t_strncpy(char *a, char *b, long n) { return (long) strncpy(a, b, n); }\n\
     long t_strcat(char *a, char *b, long n) { return (long) strcat(a, b); }\n\
     long t_strncat(char *a, char *b, long n) { return (long) strncat(a, b, n); }\n\
     long t_strcmp(char *a, char *b, long n) { return strcmp(a, b); }\n\
     long t_strncmp(char *a, char *b, long n) { return strncmp(a, b, n); }\n\
     long t_strchr(char *a, char *b, long n) { return (long) strchr(b, '5'); }\n\
     long t_strrchr(char *a, char *b, long n) { return (long) strrchr(b, '5'); }\n\
     long t_memcpy(char *a, char *b, long n) { return (long) memcpy(a, b, n); }\n\
     long t_memmove(char *a, char *b, long n) { return (long) memmove(a, b, n); }\n\
     long t_memset(char *a, char *b, long n) { return (long) memset(a, 'm', n); }\n\
     long t_memcmp(char *a, char *b, long n) { return memcmp(a, b, n); }\n\
     long t_print_str(char *a, char *b, long n) { print_str(b); return 0; }\n\
     long t_atoi(char *a, char *b, long n) { return atoi(b); }\n\
     long t_read_input(char *a, char *b, long n) { return read_input(a, n); }\n\
     long t_emit_output(char *a, char *b, long n) { emit_output(b, n); return 0; }\n";

const SHIM_ENTRIES: [&str; 17] = [
    "t_strlen",
    "t_strcpy",
    "t_strncpy",
    "t_strcat",
    "t_strncat",
    "t_strcmp",
    "t_strncmp",
    "t_strchr",
    "t_strrchr",
    "t_memcpy",
    "t_memmove",
    "t_memset",
    "t_memcmp",
    "t_print_str",
    "t_atoi",
    "t_read_input",
    "t_emit_output",
];

/// Region sizes small enough to compare every guest byte after every
/// run; `roomy` leaves heap for a block whose far end no write has
/// committed.
fn shim_config(mode: Mode, table: TableKind, roomy: bool, fuel: u64) -> MachineConfig {
    MachineConfig {
        mem: MemConfig {
            global_len: 8 << 10,
            heap_len: if roomy { 512 << 10 } else { 16 << 10 },
            stack_len: 16 << 10,
            table,
            ..MemConfig::with_mode(mode)
        },
        fuel_per_call: fuel,
    }
}

/// `len` bytes: `text`, a NUL if there is room, then a non-zero filler
/// so bytes past the terminator are told apart from never-written ones.
fn unit_bytes(text: &[u8], len: usize) -> Vec<u8> {
    let mut bytes = text.to_vec();
    if bytes.len() < len {
        bytes.push(0);
    }
    bytes.resize(len, b'q');
    bytes
}

/// Digits `1..=9` cycling: no NUL, plenty of `'5'`s, a valid `atoi`.
fn digits(len: usize) -> Vec<u8> {
    (0..len).map(|i| b'1' + (i % 9) as u8).collect()
}

/// Operand shapes, each `(name, a, b, n)`, over units the host builds
/// before the call — so the call under the fuel sweep is the wrapper
/// and the builtin, nothing else. Both tiers replay the same host
/// operations, so the addresses agree.
fn shim_shapes(m: &mut Machine, roomy: bool) -> Vec<(&'static str, u64, u64, i64)> {
    let space = m.space_mut();
    let mut heap = |bytes: &[u8]| {
        let p = space.malloc(bytes.len() as u64).expect("heap has room");
        assert!(space.write_bytes_raw(p, bytes));
        p
    };
    let dst = heap(&unit_bytes(b"xy", 24));
    let short = heap(&unit_bytes(b"12345", 24));
    let exact = heap(&unit_bytes(&digits(23), 24));
    let solid = heap(&digits(24));
    let gone = heap(&unit_bytes(b"777", 24));
    let long_src = heap(&unit_bytes(&digits(599), 600));
    let long_dst = heap(&unit_bytes(b"ab", 600));
    let overlap = heap(&unit_bytes(&digits(40), 64));
    space.free(gone, Default::default()).expect("live block");

    let mut global = |name: &str, bytes: &[u8]| {
        space
            .alloc_global_bytes(bytes, name)
            .expect("globals have room")
    };
    let glob_a = global("glob_a", &unit_bytes(b"g", 24));
    let glob_b = global("glob_b", &unit_bytes(b"5150", 24));

    let frame = space
        .push_frame(64, &[(0, 24), (32, 24)])
        .expect("stack has room");
    let (stack_a, stack_b) = (frame, frame + 32);
    assert!(space.write_bytes_raw(stack_a, &unit_bytes(b"s", 24)));
    assert!(space.write_bytes_raw(stack_b, &unit_bytes(b"2552", 24)));

    // Descriptors in the checked modes, plain addresses in Standard.
    let past_exact = space.ptr_add(exact, 30);
    let past_dst = space.ptr_add(dst, 26);

    let mut shapes = vec![
        ("within", dst, short, 10),
        ("length zero", dst, short, 0),
        ("ends at the edge", dst, exact, 24),
        ("no NUL in the unit", dst, solid, 30),
        ("into a neighbour", dst, exact + 20, 12),
        ("descriptor source", dst, past_exact, 6),
        ("descriptor destination", past_dst, short, 6),
        ("freed source", dst, gone, 6),
        ("freed destination", gone, short, 6),
        ("destination ahead", overlap + 3, overlap, 20),
        ("destination behind", overlap, overlap + 3, 20),
        ("onto itself", overlap, overlap, 8),
        ("stack units", stack_a, stack_b, 10),
        ("global units", glob_a, glob_b, 10),
        ("stack from global", stack_a + 2, glob_b, 24),
        ("several spans", long_dst, long_src, 600),
        ("several spans, then off", long_dst + 90, long_src, 600),
    ];
    if roomy {
        let far = space.malloc(300 << 10).expect("heap has room") + (200 << 10);
        shapes = vec![
            ("uncommitted destination", far, short, 10),
            ("uncommitted source", dst, far + 64, 10),
            ("uncommitted both", far, far + 4096, 10),
        ];
    }
    shapes
}

/// Every builtin over `shapes` (indices into [`shim_shapes`]), every
/// mode, both object tables at `full` fuel and every fuel budget from
/// nothing to one past completion on the shipped table, comparing every
/// guest byte too. `full` covers every call that ends; a copy that
/// overwrites its own terminator, or a Redirect scan wrapping round a
/// unit with no NUL, stops there.
fn sweep_shim(roomy: bool, shapes: std::ops::Range<usize>, full: u64) {
    let images = equiv::images(SHIM_SOURCE);
    let mut spanned = 0;
    for entry in SHIM_ENTRIES {
        for mode in Mode::ALL {
            for shape in shapes.clone() {
                let case = Case::prep(&images, entry, |m| {
                    let (_, a, b, n) = shim_shapes(m, roomy)[shape];
                    m.push_input(digits(700));
                    vec![a as i64, b as i64, n]
                });
                let case = case.with_memory();
                equiv::tiers(&case, &shim_config(mode, TableKind::Reference, roomy, full));
                let config = shim_config(mode, TableKind::Flat, roomy, full);
                spanned += equiv::sweep(&case, &config).1.span_instrs;
            }
        }
    }
    assert!(
        spanned > 0,
        "the sweep never left the byte-wise path on the native tier"
    );
}

#[test]
fn shim_runs_that_end_inside_and_at_the_edge_of_a_unit_are_tier_blind() {
    sweep_shim(false, 0..5, 200);
}

#[test]
fn shim_runs_from_descriptors_and_freed_units_are_tier_blind() {
    sweep_shim(false, 5..9, 200);
}

#[test]
fn shim_runs_over_overlapping_operands_are_tier_blind() {
    sweep_shim(false, 9..12, 200);
}

#[test]
fn shim_runs_over_stack_and_global_units_are_tier_blind() {
    sweep_shim(false, 12..15, 200);
}

#[test]
fn shim_copies_longer_than_one_span_are_tier_blind() {
    sweep_shim(false, 15..17, 1400);
}

#[test]
fn shim_runs_over_never_written_bytes_are_tier_blind() {
    sweep_shim(true, 0..3, 200);
}
