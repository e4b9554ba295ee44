//! The native executor's invisibility contract at the memory boundary,
//! as cases of the equivalence harness (`equiv`): a region's checked
//! guest loads and stores, resolved through the view's placement probe
//! (`Load`/`Store`/`IdxLoad`/`IdxStore`), must be observationally
//! byte-identical to one-dispatch-at-a-time interpretation — equal call
//! results and equal [`foc_vm::Observation`]s, so in particular the
//! `charge − spent` refund taken at a mid-region deopt, the log's fault
//! pcs and sequence numbers, and the operand stack and frame pcs a
//! fault leaves behind. The native tier runs region after region over
//! one borrowed view of the space, and neither the chain, the view nor
//! its placement memo may leak into what a guest or an operator sees.
//!
//! Most of it is judged on generated programs (`equiv/gen.rs`): a
//! function and the helper it calls, over local, global, heap and string
//! arrays and pointers into them and into scalars, indexed in and out of
//! bounds, with buffers freed mid-loop and copies whose counters wrap,
//! ending in calls of the libc shim — whose builtins retire whole runs
//! of in-bounds bytes at once on the native tier and walk byte by byte
//! on the baseline (`foc-vm/src/builtins.rs`) — with operands that put
//! a seam of the run everywhere one can fall; each at every mode × table
//! point and swept over every fuel budget at one, under alloc/free churn
//! and a manufactured-value sequence, comparing every guest byte too.
//! Shrunk failures are replayed from `tests/corpus/gen/`, and a tally of
//! what the programs reached holds a floor on every lowered variant and
//! every builtin's reach.
//!
//! The hand-written cases are what the generator cannot write: a region
//! too deep for the register file, and the five servers' regions, each
//! validated (`equiv/validate.rs`).

mod equiv;

use proptest::test_runner::TestRng;

use equiv::{gen, Case};
use foc_compiler::native::{NOp, Term, Test};
use foc_compiler::ExecTier;
use foc_memory::Mode;
use foc_servers::ServerKind;
use foc_vm::MachineConfig;

/// [`equiv::gen`]'s cases, each at every mode × table point and swept
/// at one, then its corpus, before the floors so that it alone decides
/// when no case runs. The floors are on what the hand-drawn shapes this
/// replaced were written to reach: view misses (an index leaving its
/// unit and coming back), faults and side exits refunded mid-region,
/// fuel-short exits between chained regions, crossed latches, batches by
/// copy or sentinel style and mode class, calls with no violation (every mode must
/// agree), Bounds Check dying with live values below each kind of seam,
/// pointer bumps (`PtrInc`) by a value and over `int` and `long`, each
/// `io_wait` run in its region (some in a superblock ahead of a side
/// exit), every `NOp`, `Src` and `Term` variant emitted, and each libc
/// builtin in bounds, off its unit, via a descriptor and on a freed one.
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
    assert!(gen::replay_corpus() > 0, "the corpus is empty");
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
        ("cast batches, Standard", 12),
        ("cast batches, checked", 50),
        ("!= batches, Standard", 14),
        ("!= batches, checked", 50),
        ("unsigned batches, Standard", 5),
        ("unsigned batches, checked", 17),
        ("&k batches, Standard", 4),
        ("k-- copies", 3),
        ("strided copies", 10),
        ("overlapping copies", 6),
        ("copies longer than 512", 6),
        ("never-written sources", 9),
        ("wild lengths", 3),
        ("wild calls ending Failure Oblivious", 1),
        ("span instrs", 40_000),
        ("scan batches, Standard", 3),
        ("scan batches, checked", 9),
        ("scan-copy batches, Standard", 5),
        ("scan-copy batches, checked", 22),
        ("alias batches, Standard", 24),
        ("alias batches, checked", 44),
    ];
    let floors = floors.map(|(what, floor)| (what.to_string(), floor));
    let variants = gen::variants().map(|v| (v.to_string(), 8));
    for (what, floor) in floors
        .into_iter()
        .chain(variants)
        .chain(gen::calls().map(|c| (c, 1)))
    {
        let got = tally.get(&what);
        assert!(got >= floor, "{what}: {got} under {floor}\n{tally:#?}");
    }
    // A base out of its unit is a descriptor there, which no batch proves;
    // the `k--` and strided forms are no counted shape.
    for (style, from) in [("wrap", 1), ("&k", 1), ("k--", 0), ("strided", 0)] {
        for class in &["Standard", "checked"][from..] {
            let key = format!("{style} batches, {class}");
            assert_eq!(tally.get(&key), 0, "{key}: {tally:#?}");
        }
    }
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
/// counted loop's region is one pass: indexed loads, at most a store, the
/// `k++` and exits. Each byte loop that stops at a sentinel where a
/// request spends its passes counts: Apache's path copy and rewrite
/// scan, MC's component scan.
#[test]
fn every_region_of_the_five_servers_passes_translation_validation() {
    let (mut superblocks, mut exits) = (0, 0);
    let mut sentinels = Vec::new();
    for kind in ServerKind::ALL {
        let image = kind.fresh_image_tier(ExecTier::Native);
        equiv::validate::image(&image);
        for (fid, func) in image.funcs.iter().enumerate() {
            let nf = image.native_func(fid as u32).expect("native image");
            for region in &nf.regions {
                let exit = |op: &&NOp| matches!(op, NOp::Exit { .. });
                let crossed = region.ops.iter().filter(exit).count();
                if let Term::Counted(at) = region.term {
                    let pass = |op: &NOp| {
                        use NOp::*;
                        matches!(
                            op,
                            IdxLoad { .. } | IdxStore { .. } | Inc { .. } | Exit { .. }
                        )
                    };
                    assert!(region.ops.iter().all(pass), "{region:?}");
                    let tests = nf.loops[at as usize].tests;
                    if tests
                        .iter()
                        .flatten()
                        .any(|t| matches!(t, Test::Elem { .. }))
                    {
                        sentinels.push(func.name.clone());
                    }
                }
                superblocks += (crossed > 0) as usize;
                exits += crossed;
            }
        }
    }
    for name in ["handle_request", "apply_rewrite", "mc_component_end"] {
        assert!(sentinels.iter().any(|s| s == name), "{name}: {sentinels:?}");
    }
    assert!(
        superblocks > 200 && exits > superblocks,
        "{superblocks} / {exits}"
    );
    for source in ONCE_PINNED {
        equiv::images(source);
    }
}
