//! The native executor's invisibility contract at the memory boundary:
//! a region's checked guest loads and stores, resolved through the
//! view's placement probe (`Load`/`Store`/`IdxLoad`/`IdxStore`), must
//! be observationally byte-identical to one-dispatch-at-a-time
//! interpretation: equal call results and equal
//! [`foc_vm::Observation`]s — so in particular the `charge − spent`
//! refund taken at a mid-region deopt, the log's fault pcs and sequence
//! numbers, and the operand stack and frame pcs a fault leaves behind.
//!
//! `native_equiv.rs` proves the server-layer contract; this battery
//! aims straight at the heap seams with direct-machine sources built
//! to fault *inside* a region (earlier ops already retired, the probe
//! misses, the access deopts at its pre-baked `FaultAt` seam), crossed
//! with both object tables, alloc/free churn that reshapes the table
//! under the probe, manufactured-value strategies, and a fuel sweep
//! that probes the whole-region pre-charge gate around the faulting
//! region — plus the server-layer attack battery re-run on the oracle
//! table, which the probe shares with the interpreter.
//!
//! One section holds the lowering's folding pass to its spill, alias
//! and fuel rules: every folded operand mode and fused terminator with
//! a live value below a faulting access, every fuel budget across a
//! fused loop latch, frame slots rewritten between an operand's read
//! and its use, and a region too deep for the register file.
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

use proptest::prelude::*;

use foc_compiler::{compile_image_tier, ExecTier, ProgramImage};
use foc_memory::addr::{GLOBAL_BASE, HEAP_BASE, STACK_BASE};
use foc_memory::{MemConfig, Mode, TableKind, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{drive_input, INPUT_LIBRARY};
use foc_servers::BootSpec;
use foc_vm::{Machine, MachineConfig, Observation, VmFault};

/// An in-bounds copy loop: the inner `dst[i] = src[i]` lowers to a
/// pointer-arithmetic + checked-access pair that the native tier folds
/// into `IdxLoad`/`IdxStore`, every access resolving on the probe's fast
/// path (no deopt anywhere).
const COPY_SOURCE: &str = "long spin(long n) {\n\
     long src[32];\n\
     long dst[32];\n\
     long i;\n\
     long j;\n\
     long t = 0;\n\
     for (i = 0; i < 32; i++) src[i] = i * 7;\n\
     for (j = 0; j < n; j++) {\n\
         for (i = 0; i < 32; i++) dst[i] = src[i];\n\
         t = t + dst[31];\n\
     }\n\
     return t;\n\
 }";

/// A copy loop that walks past both 8-element arrays when `n > 8`: the
/// first out-of-bounds iteration faults *mid-block* — the block's
/// pointer arithmetic has already retired in registers when the access
/// probe misses — so the native tier must deopt at the access's seam,
/// refund the unexecuted remainder of the region's pre-charge, and
/// produce the identical log record (address, width, fault pc,
/// sequence number) or crash fault as the baseline interpreter.
const OVERRUN_SOURCE: &str = "long smash(long n) {\n\
     long src[8];\n\
     long dst[8];\n\
     long i;\n\
     long t = 0;\n\
     for (i = 0; i < 8; i++) src[i] = i + 1;\n\
     for (i = 0; i < n; i++) {\n\
         dst[i] = src[i] + 1;\n\
         t = t + dst[i];\n\
     }\n\
     return t;\n\
 }";

/// One machine run: the call's result beside everything it left
/// observable ([`Observation`] — the relation every test here asserts).
type Run = (Result<i64, VmFault>, Observation);

/// Boots `source` at `tier`, applies `churn` rounds of host-side
/// allocate/free traffic (reshaping the object table the in-block
/// probe resolves against), calls `entry(arg)` once, and
/// snapshots everything observable.
fn observe(
    source: &str,
    entry: &str,
    arg: i64,
    tier: ExecTier,
    config: MachineConfig,
    churn: u32,
) -> Run {
    let image = compile_image_tier(source, tier).expect("source builds");
    let mut m = Machine::load(image, config).expect("load");
    let mut held = Vec::new();
    for round in 0..churn {
        let addr = m.alloc_cstring(&[b'x'; 11]).expect("churn allocation fits");
        // Free every other allocation immediately so the table sees
        // interleaved insert/remove traffic, not just growth.
        if round % 2 == 0 {
            m.free_guest(addr).expect("churn free");
        } else {
            held.push(addr);
        }
    }
    let result = m.call(entry, &[arg]);
    (result, m.observe())
}

/// Asserts both tiers of (`source`, `config`) agree on every
/// observable surface, returning the shared observation.
fn assert_mem_blind(
    source: &str,
    entry: &str,
    arg: i64,
    config: &MachineConfig,
    churn: u32,
) -> Run {
    let baseline = observe(
        source,
        entry,
        arg,
        ExecTier::Baseline,
        config.clone(),
        churn,
    );
    let native = observe(source, entry, arg, ExecTier::Native, config.clone(), churn);
    assert_eq!(
        baseline, native,
        "{entry}({arg}) native must match baseline ({config:?}, churn {churn})"
    );
    baseline
}

/// The in-bounds copy loop is byte-identical across tiers, modes, and
/// both object tables — and the two tables agree with *each other*,
/// pinning that the in-block probe drives the substrate counters
/// exactly as interpreted accesses do on the pure fast path.
#[test]
fn in_bounds_copy_loop_is_tier_and_lookup_blind() {
    for mode in Mode::ALL {
        let mut per_table = Vec::new();
        for table in TableKind::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_table(table)
                .with_fuel(1_000_000);
            let (result, seen) = assert_mem_blind(COPY_SOURCE, "spin", 6, &config, 0);
            assert_eq!(
                result,
                Ok(31 * 7 * 6),
                "the copy loop is violation-free and must complete under {mode:?}/{table:?}"
            );
            assert_eq!(seen.log_total, 0, "no violations on the in-bounds loop");
            per_table.push(seen);
        }
        assert_eq!(
            per_table[0], per_table[1],
            "the tables must be mutually invisible under {mode:?}"
        );
    }
}

/// Mid-block access faults: the overrun loop crosses its arrays' ends,
/// so the fused in-block access deopts. Every mode's full observable
/// surface — including the fault pc inside the log records and the
/// refunded `RunStats` — must match the baseline interpreter, on both
/// object tables.
#[test]
fn mid_block_access_faults_are_tier_blind() {
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_table(table)
                .with_fuel(1_000_000);
            let (result, seen) = assert_mem_blind(OVERRUN_SOURCE, "smash", 12, &config, 0);
            if mode == Mode::FailureOblivious {
                assert!(
                    result.is_ok(),
                    "failure-oblivious execution must ride through the overrun"
                );
                assert!(
                    seen.log_total > 0,
                    "the overrun must be observable in the error log"
                );
                let record = &seen.log[0];
                assert!(
                    record.pc > 0,
                    "log records must carry the interpreter's fault pc"
                );
            }
        }
    }
}

/// Manufactured-value strategies decide what a deopted out-of-bounds
/// read returns — and therefore which branches the guest takes after
/// the fault. The in-block miss path draws from the same sequence at
/// the same point as the interpreter, so every strategy must agree.
#[test]
fn manufactured_values_at_deopt_seams_are_tier_blind() {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(0x41),
        ValueSequence::Cycling { wrap: 3 },
        ValueSequence::Cycling { wrap: 257 },
    ];
    for sequence in sequences {
        let config = MachineConfig::with_mode(Mode::FailureOblivious)
            .with_sequence(sequence)
            .with_fuel(1_000_000);
        let _ = assert_mem_blind(OVERRUN_SOURCE, "smash", 20, &config, 0);
    }
}

/// The server-layer attack battery on the *oracle* table: all five
/// servers × all five modes × the full input library, native vs
/// baseline. `native_equiv.rs` covers the shipped table; this leg pins
/// that heap-spanning blocks inside real server images resolve through
/// the splay tree identically too.
#[test]
fn all_servers_all_modes_attack_library_on_the_oracle_table() {
    let mut attacks = 0;
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let spec = BootSpec::new(input.kind, mode).with_table(TableKind::Splay);
            let baseline =
                drive_input(input, &spec.with_tier(ExecTier::Baseline), &Edge::InProcess);
            let native = drive_input(input, &spec.with_tier(ExecTier::Native), &Edge::InProcess);
            assert_eq!(
                baseline,
                native,
                "{}/{} on the splay table: native must match baseline",
                input.kind.name(),
                input.name
            );
            if input.attack && mode == Mode::FailureOblivious {
                attacks += 1;
                assert!(
                    baseline.violations > 0 || baseline.fault.is_some(),
                    "{}/{}: an attack input must be observable",
                    input.kind.name(),
                    input.name
                );
            }
        }
    }
    assert!(attacks >= 5, "the library must cover every server's attack");
}

// ---------------------------------------------------------------------
// Chained-executor seams: the native tier runs region after region over
// one borrowed view of the space. Each test aims at one place where the
// chain, the view or its placement memo could leak into what a guest or
// an operator observes.
// ---------------------------------------------------------------------

/// A loop of two chained regions (the compare head, then the body with
/// a memory block and the increment latch), entered from a straight
/// prologue and left through an epilogue.
const TWO_REGION_LOOP: &str = "long walk(long n) {\n\
     long xs[6];\n\
     long i;\n\
     long t = 0;\n\
     for (i = 0; i < n; i++) { xs[i] = i + t; t = t + xs[i] * 3; }\n\
     return t;\n\
 }";

/// Every fuel budget from nothing to completion: exhaustion lands
/// before the loop, between the chained head and body, inside the
/// body's block (where only the interpreter's per-op seams can stop),
/// on the latch, and — with `n` past the array — on either side of the
/// view misses. Each budget must fuel out at the baseline's pc with the
/// baseline's counters.
#[test]
fn every_fuel_budget_of_a_chained_loop_is_tier_blind() {
    for mode in [Mode::FailureOblivious, Mode::Standard, Mode::BoundsCheck] {
        let full = observe(
            TWO_REGION_LOOP,
            "walk",
            8,
            ExecTier::Baseline,
            MachineConfig::with_mode(mode),
            0,
        );
        let budget = full.1.run.instrs + 2;
        assert!(budget > 100, "the sweep must cross several iterations");
        for fuel in 0..budget {
            let config = MachineConfig::with_mode(mode).with_fuel(fuel);
            let _ = assert_mem_blind(TWO_REGION_LOOP, "walk", 8, &config, 0);
        }
    }
}

/// The loop reads its heap buffer, frees it half-way, and keeps
/// reading. `free` is a builtin, so it runs outside the native
/// executor and its view: if anything remembered the buffer's placement
/// across it, the reads after the free would be served from dead bytes
/// instead of taking the violation path.
const FREE_MID_LOOP: &str = "long reap(long n) {\n\
     long *buf = (long *) malloc(64);\n\
     long i;\n\
     long t = 0;\n\
     for (i = 0; i < 8; i++) buf[i] = i + 1;\n\
     for (i = 0; i < n; i++) {\n\
         if (i == 4) free(buf);\n\
         t = t + buf[i % 8];\n\
         buf[i % 8] = t;\n\
     }\n\
     return t;\n\
 }";

#[test]
fn a_freed_buffer_is_not_remembered_across_the_free() {
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_table(table)
                .with_sequence(ValueSequence::Cycling { wrap: 5 })
                .with_fuel(1_000_000);
            let (result, seen) = assert_mem_blind(FREE_MID_LOOP, "reap", 11, &config, 0);
            if mode == Mode::FailureOblivious {
                // Iterations 4..11 each read and write the dead buffer.
                assert_eq!(seen.space.invalid_reads, 7, "{table:?}");
                assert_eq!(seen.space.invalid_writes, 7, "{table:?}");
                // 1 + 2 + 3 + 4 from the live buffer, then manufactured
                // 0, 1, 2, 0, 1, 3, 0.
                assert_eq!(result, Ok(10 + 7), "{table:?}");
            }
        }
    }
}

/// The index leaves the array on some iterations and comes back on the
/// next: each excursion is a view miss that runs the full violation
/// path and resumes behind the op, and the iterations after it must hit
/// again with nothing stale (the memo is rebuilt, the frame window
/// re-taken).
const OFF_AND_BACK: &str = "long weave(long n) {\n\
     long xs[4];\n\
     long ys[4];\n\
     long i;\n\
     long t = 0;\n\
     for (i = 0; i < 4; i++) { xs[i] = i + 1; ys[i] = 10 * i; }\n\
     for (i = 0; i < n; i++) {\n\
         t = t + xs[(i * 3) % 7];\n\
         ys[(i * 5) % 6] = t;\n\
         t = t + ys[i % 4];\n\
     }\n\
     return t;\n\
 }";

#[test]
fn excursions_off_a_unit_resume_on_the_hit_path() {
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_table(table)
                .with_fuel(1_000_000);
            let (result, seen) = assert_mem_blind(OFF_AND_BACK, "weave", 21, &config, 0);
            if mode == Mode::FailureOblivious {
                assert!(result.is_ok());
                // (i * 3) % 7 >= 4 on 9 of 21 iterations, (i * 5) % 6
                // >= 4 on 8.
                assert_eq!(seen.space.invalid_reads, 9, "{table:?}");
                assert_eq!(seen.space.invalid_writes, 8, "{table:?}");
            }
        }
    }
}

/// A pointer into the current frame, stored through and loaded through
/// as checked guest accesses in the same block that reads and writes
/// the slot as a direct local: the view's frame window and its checked
/// stack accesses must be the same bytes.
const FRAME_ALIAS: &str = "long alias(long n) {\n\
     long x = 1;\n\
     long *p = &x;\n\
     long i;\n\
     long t = 0;\n\
     for (i = 0; i < n; i++) {\n\
         *p = x + i;\n\
         x = x * 2;\n\
         t = t + *p + x;\n\
     }\n\
     return t;\n\
 }";

#[test]
fn a_checked_store_into_the_frame_is_the_local_it_aliases() {
    // x: 1 -> (1+0)*2 = 2 -> (2+1)*2 = 6 -> (6+2)*2 = 16; t sums 2x.
    let expected = 2 * (2 + 6 + 16);
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_table(table)
                .with_fuel(1_000_000);
            let (result, seen) = assert_mem_blind(FRAME_ALIAS, "alias", 3, &config, 0);
            assert_eq!(result, Ok(expected), "{mode:?}/{table:?}");
            assert_eq!(seen.log_total, 0);
        }
    }
}

// ----------------------------------------------------------------------
// The folding pass: folded operands, fused terminators, linked regions.
// ----------------------------------------------------------------------

/// One statement per folded operand mode and fused terminator, each
/// with a live value below the access on the operand stack (`x`, a
/// constant or a computed sum) when it faults: `k` indexes a 4-element
/// array, `q` points `k` elements into it.
const FOLDED_ACCESSES: [&str; 16] = [
    // Indexed load: frame-address base, slot index; slot value below.
    "t = x + a[k];",
    // Pointer-slot base, slot index.
    "t = x + p[k];",
    // Constant index (out of bounds whatever `k` is).
    "t = x + a[9];",
    // Computed (register) index; constant below.
    "t = 5 + p[k + 1];",
    // Plain load through a pointer slot.
    "t = x + *q;",
    // Computed value below.
    "t = (x + v) + a[k];",
    // Two live values below.
    "t = x + (v + p[k]);",
    // Indexed stores: slot, constant and register values.
    "t = x + (a[k] = v);",
    "t = x + (p[k] = 7);",
    "t = x + (p[k] = v + 1);",
    // Plain store through a pointer slot.
    "t = x + (*q = v);",
    // Post-increment through a pointer: the address register outlives
    // the slot's update.
    "t = x + (*q++ = v);",
    // Division by zero when k == 9.
    "t = x + v / (k - 9);",
    // The access feeds a comparison folded into the branch.
    "if (x + a[k] > 3) t = 1;",
    "if (v - p[k] == 5 && x < v) t = 2; else t = 3;",
    // A counted loop walking off the array: the fault sits in a region
    // whose terminator is the fused latch.
    "for (i = 0; i <= k; i++) t = t + p[i];",
];

fn folded_source(statement: &str) -> String {
    format!(
        "long f(long k) {{\n\
             long a[4]; long *p = a; long *q = a + k;\n\
             long x = 3; long v = 7; long t = 0; long i;\n\
             for (i = 0; i < 4; i++) a[i] = i;\n\
             {statement}\n\
             return t + x + v + a[1] + (q - p);\n\
         }}"
    )
}

/// Case (a): every folded form, in bounds (`k = 2`) and out (`k = 9`),
/// under every mode and both tables. Out of bounds, Bounds Check dies
/// at the access with the live values still on its operand stack —
/// `Observation` compares that stack and the fault pc — and Failure
/// Oblivious manufactures and carries on. A pass that deleted the
/// `Mov` of a value a later seam spills would show here as a stale
/// register in the post-fault stack.
#[test]
fn folded_operands_fault_and_manufacture_like_the_interpreter() {
    for statement in FOLDED_ACCESSES {
        let source = folded_source(statement);
        for mode in Mode::ALL {
            for table in TableKind::ALL {
                let config = MachineConfig::with_mode(mode)
                    .with_table(table)
                    .with_fuel(100_000);
                let hit = assert_mem_blind(&source, "f", 2, &config, 0);
                let always_out = statement.contains("a[9]") && mode == Mode::BoundsCheck;
                assert_eq!(hit.0.is_ok(), !always_out, "`{statement}`: {hit:?}");
                let miss = assert_mem_blind(&source, "f", 9, &config, 0);
                if mode == Mode::BoundsCheck {
                    assert!(miss.0.is_err(), "`{statement}` must kill Bounds Check");
                    assert!(
                        !miss.1.stack.is_empty(),
                        "`{statement}`: a live value sits below the faulting op: {miss:?}"
                    );
                }
                if mode == Mode::FailureOblivious && !statement.contains('/') {
                    assert!(miss.0.is_ok(), "`{statement}` must survive: {miss:?}");
                    assert!(miss.1.log_total > 0, "`{statement}` must log its violation");
                }
            }
        }
    }
}

/// Case (b): a loop whose latch carries the head's compare. The region
/// is gated on the sum of both charges; a budget that ends between the
/// increment and the compare must run the increment (interpreted) and
/// fuel out on the compare, exactly as the baseline does.
const FUSED_LATCH_LOOP: &str = "long sum(long n) {\n\
     long xs[4];\n\
     long i;\n\
     long t = 0;\n\
     xs[0] = 1; xs[1] = 2; xs[2] = 3; xs[3] = 4;\n\
     for (i = 0; i < n; i++) t = t + xs[i & 3];\n\
     return t;\n\
 }";

#[test]
fn every_fuel_budget_of_a_fused_latch_loop_is_tier_blind() {
    let instrs = |n| {
        let config = MachineConfig::with_mode(Mode::FailureOblivious);
        let (_, seen) = observe(FUSED_LATCH_LOOP, "sum", n, ExecTier::Baseline, config, 0);
        seen.run.instrs
    };
    // Prologue plus two full iterations, and the epilogue for good
    // measure: every budget in between ends somewhere inside one.
    let (two, three) = (instrs(2), instrs(3));
    assert!(
        three - two >= 15,
        "an iteration is body + increment + compare"
    );
    for mode in Mode::ALL {
        for fuel in 0..=two + 2 {
            let config = MachineConfig::with_mode(mode).with_fuel(fuel);
            let (result, _) = assert_mem_blind(FUSED_LATCH_LOOP, "sum", 5, &config, 0);
            assert_eq!(result, Err(VmFault::FuelExhausted), "fuel {fuel}");
        }
        for fuel in two..=three + 2 {
            let config = MachineConfig::with_mode(mode).with_fuel(fuel);
            let _ = assert_mem_blind(FUSED_LATCH_LOOP, "sum", 2, &config, 0);
        }
    }
}

/// Case (c): a frame slot read into an operand is rewritten — through a
/// pointer, and by `k++` — before the op that consumes the operand, in
/// the same region. The read may not move across the write.
const ALIASED_OPERANDS: [(&str, i64); 8] = [
    // Alu operand.
    ("t = k + (*p = 3);", 1 + 3),
    ("t = k + k++;", 1 + 1),
    // Compare operand, folded into the branch.
    ("if (k < (*p = 3)) t = 10; else t = 20;", 10),
    ("if (k == k++) t = 10; else t = 20;", 10),
    // Stored value: the right-hand side is read before the index runs.
    ("a[(*p = 3)] = k; t = a[3];", 1),
    ("a[k++] = k; t = a[1] * 10 + a[2];", 10 + 12),
    // Folded index, before and after the write.
    ("t = a[k] + (*p = 3) + a[k];", 11 + 3 + 13),
    ("t = a[k] * 100 + a[k++] * 10 + a[k];", 1100 + 110 + 12),
];

#[test]
fn a_frame_read_does_not_move_across_a_write_of_its_slot() {
    for (statement, expected) in ALIASED_OPERANDS {
        let source = format!(
            "long f(long n) {{\n\
                 long a[8]; long k = 1; long t = 0; long i; long *p = &k;\n\
                 for (i = 0; i < 8; i++) a[i] = 10 + i;\n\
                 {statement}\n\
                 return t;\n\
             }}"
        );
        for mode in Mode::ALL {
            let config = MachineConfig::with_mode(mode).with_fuel(100_000);
            let (result, seen) = assert_mem_blind(&source, "f", 0, &config, 0);
            assert_eq!(result, Ok(expected), "`{statement}` under {mode:?}");
            assert_eq!(seen.log_total, 0, "`{statement}` stays in bounds");
        }
    }
}

/// Case (d): an expression nested deeper than the register file. Its
/// region is not lowered; the interpreter runs it, and the regions
/// around it still chain.
#[test]
fn a_region_too_deep_for_the_register_file_runs_interpreted() {
    let depth = foc_compiler::native::NATIVE_REGS + 6;
    let source = format!(
        "long f(long x) {{ long i; long t = 0;\n\
             for (i = 0; i < 3; i++) t = t + {}x{};\n\
             return t; }}",
        "(x + ".repeat(depth),
        ")".repeat(depth)
    );
    for mode in Mode::ALL {
        for fuel in [100_000, 400] {
            let config = MachineConfig::with_mode(mode).with_fuel(fuel);
            let (result, _) = assert_mem_blind(&source, "f", 2, &config, 0);
            if fuel > 400 {
                assert_eq!(result, Ok(3 * 2 * (depth as i64 + 1)));
            }
        }
    }
    let image = compile_image_tier(&source, ExecTier::Native).expect("source builds");
    let mut m = Machine::load(image, MachineConfig::default()).expect("load");
    m.call("f", &[2]).expect("runs");
    let (stats, profile) = (m.stats(), m.exec_profile());
    assert!(
        profile.native_instrs > 0 && stats.instrs - profile.native_instrs > 3 * depth as u64,
        "the deep body is interpreted, the loop control native: {profile:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuel sweep over the faulting copy loop: a native region is only
    /// entered when remaining fuel covers its whole pre-charge, and a
    /// mid-block deopt refunds `charge − spent` — so a drifted refund
    /// (or a drifted entry decision) moves *where* tight budgets fuel
    /// out. Every fuel point from boot-time exhaustion through full
    /// completion must agree with baseline on the entire observable
    /// surface.
    #[test]
    fn fuel_sweep_pins_identical_faults_and_refunds(
        fuel in 0u64..6_000,
        n in 0i64..24,
        mode_index in 0usize..Mode::ALL.len(),
    ) {
        let config = MachineConfig::with_mode(Mode::ALL[mode_index]).with_fuel(fuel);
        let baseline = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Baseline, config.clone(), 0);
        let native = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Native, config, 0);
        prop_assert_eq!(baseline, native);
    }

    /// Alloc/free churn reshapes the object table the in-block probe
    /// resolves against (splay rotations, shifted vector entries and a
    /// stale memo, freed-unit tombstones). Random churn volumes crossed
    /// with random overrun depths and manufactured-value seeds must
    /// leave the native tier observationally invisible.
    #[test]
    fn alloc_free_churn_is_probe_blind(
        churn in 0u32..96,
        n in 0i64..24,
        wrap in 2u64..600,
        table_index in 0usize..TableKind::ALL.len(),
    ) {
        let config = MachineConfig::with_mode(Mode::FailureOblivious)
            .with_table(TableKind::ALL[table_index])
            .with_sequence(ValueSequence::Cycling { wrap })
            .with_fuel(1_000_000);
        let baseline = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Baseline, config.clone(), churn);
        let native = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Native, config, churn);
        prop_assert_eq!(baseline, native);
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

    let frame = space.push_frame(64).expect("stack has room");
    space.register_local(frame, 0, 24);
    space.register_local(frame, 32, 24);
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

/// Everything a run of one wrapper leaves behind: the run itself, the
/// pending output and every byte of the three guest regions.
type ShimSeen = (Run, Vec<u8>, [Vec<u8>; 3]);

/// One wrapper call on a fresh machine: what it left behind, and how
/// many builtin iterations it retired span-wise (which is nobody's
/// business but the sweep's own sanity check).
fn shim_run(
    image: &ProgramImage,
    entry: &str,
    shape: usize,
    config: &MachineConfig,
) -> (ShimSeen, u64) {
    let roomy = config.mem.heap_len > 16 << 10;
    let mut m = Machine::load(image.clone(), config.clone()).expect("load");
    let (_, a, b, n) = shim_shapes(&mut m, roomy)[shape];
    m.push_input(digits(700));
    let result = m.call(entry, &[a as i64, b as i64, n]);
    let (space, mem) = (m.space(), &config.mem);
    let region = |base: u64, len: usize| space.read_bytes_raw(base, len as u64).expect("region");
    let memory = [
        region(GLOBAL_BASE, mem.global_len),
        region(HEAP_BASE, mem.heap_len),
        region(STACK_BASE, mem.stack_len),
    ];
    let seen = ((result, m.observe()), m.output().to_vec(), memory);
    (seen, m.exec_profile().span_instrs)
}

/// Every builtin over `shapes` (indices into [`shim_shapes`]), every
/// mode, both object tables at `full` fuel and every fuel budget from
/// nothing to one past completion on the shipped table. `full` covers
/// every call that ends; a copy that overwrites its own terminator, or
/// a Redirect scan wrapping round a unit with no NUL, stops there.
fn sweep_shim(roomy: bool, shapes: std::ops::Range<usize>, full: u64) {
    let baseline = compile_image_tier(SHIM_SOURCE, ExecTier::Baseline).expect("source builds");
    let native = compile_image_tier(SHIM_SOURCE, ExecTier::Native).expect("source builds");
    let spanned_instrs = std::cell::Cell::new(0);
    for entry in SHIM_ENTRIES {
        for mode in Mode::ALL {
            for shape in shapes.clone() {
                let agree = |table: TableKind, fuel: u64| {
                    let config = shim_config(mode, table, roomy, fuel);
                    let (reference, byte_wise) = shim_run(&baseline, entry, shape, &config);
                    let (spanned, span_wise) = shim_run(&native, entry, shape, &config);
                    assert_eq!(
                        reference, spanned,
                        "{entry} {mode:?} {table:?} shape {shape} (roomy {roomy}) fuel {fuel}"
                    );
                    assert_eq!(byte_wise, 0, "the baseline tier is the byte-wise reference");
                    spanned_instrs.set(spanned_instrs.get() + span_wise);
                    let ((_, observed), ..) = reference;
                    observed.run.instrs
                };
                agree(TableKind::Splay, full);
                let instrs = agree(TableKind::Flat, full);
                for fuel in 0..=(instrs + 1).min(full) {
                    agree(TableKind::Flat, fuel);
                }
            }
        }
    }
    assert!(
        spanned_instrs.get() > 0,
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
