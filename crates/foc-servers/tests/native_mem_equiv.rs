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
//! The cases are direct-machine sources built to fault *inside* a
//! region (earlier ops already retired, the probe misses, the access
//! deopts at its pre-baked `FaultAt` seam), crossed with both object
//! tables, alloc/free churn that reshapes the table under the probe,
//! manufactured-value strategies, and every fuel budget of the run,
//! which probes the whole-region pre-charge gate around the faulting
//! region.
//!
//! One section holds the lowering's folding pass to its spill, alias
//! and fuel rules: every folded operand mode and fused terminator with
//! a live value below a faulting access, every fuel budget across a
//! fused loop latch, frame slots rewritten between an operand's read
//! and its use, and a region too deep for the register file. Another
//! walks every server's superblocks along the instruction stream they
//! were copied from.
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

use proptest::prelude::*;

use equiv::Case;
use foc_compiler::native::{NOp, NativeRegion, Term};
use foc_compiler::{ExecTier, Instr};
use foc_memory::{MemConfig, Mode, TableKind, ValueSequence};
use foc_servers::ServerKind;
use foc_vm::{Machine, MachineConfig};

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

/// `mode` on `table` with `fuel` to spend per call.
fn config(mode: Mode, table: TableKind, fuel: u64) -> MachineConfig {
    MachineConfig::with_mode(mode)
        .with_table(table)
        .with_fuel(fuel)
}

/// `rounds` of host-side allocate/free traffic before the call,
/// reshaping the object table the in-block probe resolves against.
/// Every other allocation is freed at once, so the table sees
/// interleaved insert/remove traffic, not just growth.
fn churn(m: &mut Machine, rounds: u32) {
    for round in 0..rounds {
        let addr = m.alloc_cstring(&[b'x'; 11]).expect("churn allocation fits");
        if round % 2 == 0 {
            m.free_guest(addr).expect("churn free");
        }
    }
}

/// The in-bounds copy loop is byte-identical across tiers, modes, and
/// both object tables — and the two tables agree with *each other*,
/// pinning that the in-block probe drives the substrate counters
/// exactly as interpreted accesses do on the pure fast path.
#[test]
fn in_bounds_copy_loop_is_tier_and_lookup_blind() {
    let images = equiv::images(COPY_SOURCE);
    let case = Case::new(&images, "spin", &[6]);
    for mode in Mode::ALL {
        let per_table = TableKind::ALL.map(|table| {
            let (run, _) = equiv::tiers(&case, &config(mode, table, 1_000_000));
            assert_eq!(
                run.result,
                Ok(31 * 7 * 6),
                "the copy loop is violation-free and must complete under {mode:?}/{table:?}"
            );
            assert_eq!(run.seen.log_total, 0, "no violations on the in-bounds loop");
            run.seen
        });
        assert_eq!(
            per_table[0], per_table[1],
            "the tables must be mutually invisible under {mode:?}"
        );
    }
}

/// Mid-block access faults: the overrun loop crosses its arrays' ends,
/// so the fused in-block access deopts. Every mode's full observable
/// surface — including the fault pc inside the log records and the
/// refunded `RunStats` — must match the baseline interpreter at every
/// fuel budget, on both object tables.
#[test]
fn mid_block_access_faults_are_tier_blind() {
    let images = equiv::images(OVERRUN_SOURCE);
    let case = Case::new(&images, "smash", &[12]);
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            // Standard's overrun rewrites the counter and never ends.
            let (run, _) = equiv::sweep(&case, &config(mode, table, 2_000));
            if mode == Mode::FailureOblivious {
                assert!(
                    run.result.is_ok(),
                    "failure-oblivious execution must ride through the overrun"
                );
                assert!(
                    run.seen.log_total > 0,
                    "the overrun must be observable in the error log"
                );
                assert!(
                    run.seen.log[0].pc > 0,
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
    let images = equiv::images(OVERRUN_SOURCE);
    for sequence in sequences {
        let config = MachineConfig::with_mode(Mode::FailureOblivious)
            .with_sequence(sequence)
            .with_fuel(1_000_000);
        equiv::tiers(&Case::new(&images, "smash", &[20]), &config);
    }
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
    let images = equiv::images(TWO_REGION_LOOP);
    let case = Case::new(&images, "walk", &[8]);
    for mode in [Mode::FailureOblivious, Mode::Standard, Mode::BoundsCheck] {
        let (run, _) = equiv::sweep(&case, &MachineConfig::with_mode(mode));
        let instrs = run.seen.run.instrs;
        assert!(instrs > 100, "the sweep must cross several iterations");
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
    let images = equiv::images(FREE_MID_LOOP);
    let case = Case::new(&images, "reap", &[11]);
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let cycling = ValueSequence::Cycling { wrap: 5 };
            let (run, _) = equiv::sweep(
                &case,
                &config(mode, table, 1_000_000).with_sequence(cycling),
            );
            if mode == Mode::FailureOblivious {
                // Iterations 4..11 each read and write the dead buffer.
                assert_eq!(run.seen.space.invalid_reads, 7, "{table:?}");
                assert_eq!(run.seen.space.invalid_writes, 7, "{table:?}");
                // 1 + 2 + 3 + 4 from the live buffer, then manufactured
                // 0, 1, 2, 0, 1, 3, 0.
                assert_eq!(run.result, Ok(10 + 7), "{table:?}");
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
    let images = equiv::images(OFF_AND_BACK);
    let case = Case::new(&images, "weave", &[21]);
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let (run, _) = equiv::sweep(&case, &config(mode, table, 1_000_000));
            if mode == Mode::FailureOblivious {
                assert!(run.result.is_ok());
                // (i * 3) % 7 >= 4 on 9 of 21 iterations, (i * 5) % 6
                // >= 4 on 8.
                assert_eq!(run.seen.space.invalid_reads, 9, "{table:?}");
                assert_eq!(run.seen.space.invalid_writes, 8, "{table:?}");
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
    let images = equiv::images(FRAME_ALIAS);
    let case = Case::new(&images, "alias", &[3]);
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let (run, _) = equiv::sweep(&case, &config(mode, table, 1_000_000));
            assert_eq!(run.result, Ok(expected), "{mode:?}/{table:?}");
            assert_eq!(run.seen.log_total, 0);
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
/// under every mode and both tables, at every fuel budget. Out of
/// bounds, Bounds Check dies at the access with the live values still
/// on its operand stack — `Observation` compares that stack and the
/// fault pc — and Failure Oblivious manufactures and carries on. A pass
/// that deleted the `Mov` of a value a later seam spills would show
/// here as a stale register in the post-fault stack.
#[test]
fn folded_operands_fault_and_manufacture_like_the_interpreter() {
    for statement in FOLDED_ACCESSES {
        let images = equiv::images(&folded_source(statement));
        let (inside, outside) = (Case::new(&images, "f", &[2]), Case::new(&images, "f", &[9]));
        for mode in Mode::ALL {
            for table in TableKind::ALL {
                let config = config(mode, table, 100_000);
                let (hit, _) = equiv::sweep(&inside, &config);
                let always_out = statement.contains("a[9]") && mode == Mode::BoundsCheck;
                assert_eq!(hit.result.is_ok(), !always_out, "`{statement}`: {hit:?}");
                let (miss, _) = equiv::sweep(&outside, &config);
                if mode == Mode::BoundsCheck {
                    assert!(miss.result.is_err(), "`{statement}` must kill Bounds Check");
                    assert!(
                        !miss.seen.stack.is_empty(),
                        "`{statement}`: a live value sits below the faulting op: {miss:?}"
                    );
                }
                if mode == Mode::FailureOblivious && !statement.contains('/') {
                    assert!(miss.result.is_ok(), "`{statement}` must survive: {miss:?}");
                    assert!(
                        miss.seen.log_total > 0,
                        "`{statement}` must log its violation"
                    );
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
    let images = equiv::images(FUSED_LATCH_LOOP);
    let case = |n| Case::new(&images, "sum", &[n]);
    let instrs = |n| {
        equiv::tiers(&case(n), &MachineConfig::default())
            .0
            .seen
            .run
            .instrs
    };
    assert!(
        instrs(3) - instrs(2) >= 15,
        "an iteration is body + increment + compare"
    );
    // Every budget ends somewhere inside one of five iterations.
    for mode in Mode::ALL {
        equiv::sweep(&case(5), &MachineConfig::with_mode(mode));
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
        let images = equiv::images(&format!(
            "long f(long n) {{\n\
                 long a[8]; long k = 1; long t = 0; long i; long *p = &k;\n\
                 for (i = 0; i < 8; i++) a[i] = 10 + i;\n\
                 {statement}\n\
                 return t;\n\
             }}"
        ));
        let case = Case::new(&images, "f", &[0]);
        for mode in Mode::ALL {
            let config = MachineConfig::with_mode(mode).with_fuel(100_000);
            let (run, _) = equiv::sweep(&case, &config);
            assert_eq!(run.result, Ok(expected), "`{statement}` under {mode:?}");
            assert_eq!(run.seen.log_total, 0, "`{statement}` stays in bounds");
        }
    }
}

/// Case (d): an expression nested deeper than the register file. Its
/// region is not lowered; the interpreter runs it, and the regions
/// around it still chain.
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
// Superblocks: a region runs on past its branches, which become side
// exits. The executor's side is swept at every fuel budget in
// `mid_shape_entry.rs`; here every server's lowering is walked against
// the instruction stream it came from.
// ---------------------------------------------------------------------

/// Walks `region`, entered at `start`, along the baseline stream: every
/// instruction one component, constant branches decided (what threading
/// and absorbing fold), and every other branch either a side exit —
/// whose `to` the walk does not take — or the terminator. Each seam must
/// be charged the components the stream charges through its
/// instruction, each exit those through its branch with nothing on the
/// operand stack (a statement-shaped segment), and the terminator the
/// region's charge with `produces` values left.
fn walk_region(code: &[Instr], start: u32, region: &NativeRegion) {
    let mut marks = region.ops.iter().filter_map(|op| match *op {
        NOp::Div { seam, .. }
        | NOp::Load { seam, .. }
        | NOp::Store { seam, .. }
        | NOp::IdxLoad { seam, .. }
        | NOp::IdxStore { seam, .. } => Some((seam.spent, None, seam.pc)),
        NOp::Exit { to, spent, .. } => Some((spent, Some(to), 0)),
        _ => None,
    });
    let mut next = marks.next();
    let stop = match region.term {
        Term::Goto(s) => s.pc,
        _ => u32::MAX,
    };
    let mut stack: Vec<Option<i64>> = vec![None; region.consumes as usize];
    let (mut pc, mut n) = (start, 0u32);
    for _ in 0..code.len() {
        let instr = code[pc as usize];
        n += 1;
        let mut to = pc + 1;
        match instr {
            Instr::Const(c) => stack.push(Some(c)),
            Instr::Dup => stack.push(*stack.last().unwrap()),
            Instr::Swap | Instr::Rot3 | Instr::Normalize(..) | Instr::EffAddr => {
                let k = if instr == Instr::Rot3 {
                    3
                } else {
                    1 + (instr == Instr::Swap) as usize
                };
                let len = stack.len();
                stack[len - k..].iter_mut().for_each(|v| *v = None);
            }
            Instr::Drop | Instr::StoreLocal(..) => drop(stack.pop()),
            Instr::LocalAddr(_)
            | Instr::GlobalAddr(_)
            | Instr::StrAddr(_)
            | Instr::LoadLocal(..) => stack.push(None),
            Instr::Neg | Instr::BitNot | Instr::Not | Instr::Load(..) => {
                *stack.last_mut().unwrap() = None;
            }
            Instr::Store(_) => drop(stack.drain(stack.len() - 2..)),
            Instr::Jump(t) => to = t,
            Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => {
                let taken = |c: i64| (c == 0) == matches!(instr, Instr::JumpIfZero(_));
                match stack.pop().unwrap() {
                    Some(c) => to = if taken(c) { t } else { pc + 1 },
                    None => match next {
                        Some((spent, Some(exit), _)) => {
                            assert_eq!(spent, n, "exit at pc {pc}: {region:?}");
                            assert!(stack.is_empty(), "exit at pc {pc}: {region:?}");
                            to = if exit.pc == t { pc + 1 } else { t };
                            next = marks.next();
                        }
                        _ => {
                            assert_eq!((next, n as u64), (None, region.charge), "{region:?}");
                            assert_eq!(stack.len(), region.produces as usize, "{region:?}");
                            return;
                        }
                    },
                }
            }
            Instr::Call(_) | Instr::CallBuiltin(_) | Instr::Ret => {
                panic!("walked into a boundary at pc {pc}: {region:?}")
            }
            _ => {
                stack.pop().unwrap();
                *stack.last_mut().unwrap() = None;
            }
        }
        let faults = matches!(
            instr,
            Instr::Load(_, _)
                | Instr::Store(_)
                | Instr::DivS
                | Instr::DivU
                | Instr::RemS
                | Instr::RemU
        );
        if faults {
            let Some((spent, None, at)) = next else {
                panic!("no seam for pc {pc}: {region:?}");
            };
            assert_eq!((at, spent), (pc + 1, n), "{region:?}");
            next = marks.next();
        }
        pc = to;
        // A chain may pass its jump's target once before it ends there.
        if (pc, next, n as u64) == (stop, None, region.charge) {
            assert_eq!(stack.len(), region.produces as usize, "{region:?}");
            return;
        }
    }
    panic!("the walk from {start} never reached the terminator: {region:?}");
}

#[test]
fn every_superblock_is_statement_shaped_and_charges_what_the_stream_does() {
    let (mut superblocks, mut exits) = (0, 0);
    for kind in ServerKind::ALL {
        let image = kind.fresh_image_tier(ExecTier::Native);
        for (fid, func) in image.funcs.iter().enumerate() {
            let nf = image.native_func(fid as u32).expect("native image");
            for (pc, &at) in nf.entry.iter().enumerate() {
                let Some(region) = nf.regions.get(at as usize) else {
                    continue;
                };
                walk_region(&func.code, pc as u32, region);
                let crossed = region
                    .ops
                    .iter()
                    .filter(|op| matches!(op, NOp::Exit { .. }));
                let crossed = crossed.count();
                if matches!(region.term, Term::Counted(_)) {
                    assert_eq!((region.ops.len(), crossed), (2, 0), "{region:?}");
                }
                if crossed > 0 {
                    assert_eq!(region.produces, 0, "{region:?}");
                    superblocks += 1;
                    exits += crossed;
                }
            }
        }
    }
    // 264 superblocks crossing 449 branches when written: a floor, so
    // superblocks that stop forming fail here too.
    assert!(
        superblocks > 200 && exits > superblocks,
        "{superblocks} / {exits}"
    );
}

// ---------------------------------------------------------------------
// Counted loops: a copy loop's passes run as one proven move.
// ---------------------------------------------------------------------

/// `2^63 − 6`: a counter that wraps six latches in.
const NEAR_MAX: &str = "9223372036854775802";
/// `2^60 − 3`: a long index whose `k·8` leaves `i64` three passes in.
const NEAR_SCALED_MAX: &str = "1152921504606846973";

/// One counted-loop shape: a function `f(n)` over units whose ends are
/// `ends` elements in, and in which modes its copy loop must batch.
struct Counted {
    name: &'static str,
    source: String,
    ends: &'static [i64],
    /// Batches fire in the checked modes (some length).
    checked: bool,
    /// Batches fire in Standard mode (some length).
    standard: bool,
}

impl Counted {
    /// The same shape batching in no mode.
    fn unbatched(self) -> Counted {
        Counted {
            checked: false,
            standard: false,
            ..self
        }
    }

    /// Whether batches fire under `mode`.
    fn batches_in(&self, mode: Mode) -> bool {
        if mode.is_checked() {
            self.checked
        } else {
            self.standard
        }
    }

    /// The same shape with `globals` declared above `f`.
    fn with_globals(self, globals: &str) -> Counted {
        Counted {
            source: format!("{globals}\n{}", self.source),
            ..self
        }
    }
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

fn counted_shapes() -> Vec<Counted> {
    let up = "for (k = 0; k < n; k++) d[k] = s[k];";
    let shape = |name, decls: &str, copy: &str, len, ends, checked| Counted {
        name,
        source: counted_source(decls, copy, len),
        ends,
        checked,
        standard: true,
    };
    vec![
        shape(
            "local → local",
            "long s[16]; long d[16]; long k;",
            up,
            16,
            &[16],
            true,
        ),
        shape(
            "heap → heap",
            "long *s = (long *) malloc(128); long *d = (long *) malloc(128); long k;",
            up,
            16,
            &[16],
            true,
        ),
        shape(
            "char",
            "char s[24]; char d[24]; long k;",
            up,
            24,
            &[24],
            true,
        ),
        shape(
            "off the source first",
            "long s[8]; long d[16]; long k;",
            up,
            8,
            &[8, 16],
            true,
        ),
        // Stores one element above the loads: only a last pass alone
        // moves, as one element never overlaps its own store.
        shape(
            "forward overlap",
            "long a[16]; long *s = a; long *d = a + 1; long k;",
            up,
            15,
            &[15],
            true,
        ),
        shape(
            "backward overlap",
            "long a[16]; long *s = a + 1; long *d = a; long k;",
            up,
            15,
            &[15],
            true,
        ),
        // Four slots of `pad` and the gap below `k`, then `k` itself:
        // Standard batches the prefix, the checked modes see a pointer
        // out of its unit.
        shape(
            "a store through &k",
            "long s[16]; long pad[8]; long k; long *d = &k - 6;",
            up,
            4,
            &[6],
            false,
        ),
        // The same for a load: the batch holds `k` in a register.
        shape(
            "a load through &k",
            "long s[16]; long d[16]; long k; long *y = &k - 4;",
            "for (k = 0; k < n; k++) d[k] = y[k];",
            16,
            &[4],
            false,
        ),
        // Past `d` and the 16-byte gap between locals, `d[6]` is `k`.
        shape(
            "past the buffer into the frame",
            "long s[16]; long d[4]; long k;",
            up,
            4,
            &[4, 6],
            true,
        ),
        // A latch stepping down is not counted.
        shape(
            "k--",
            "long s[16]; long d[16]; long k;",
            "for (k = n - 1; k >= 0; k--) d[k] = s[k];",
            16,
            &[16],
            false,
        )
        .unbatched(),
        shape(
            "counter near i64::MAX",
            "char s[16]; char d[16]; long k; char *x = d; char *y = s;",
            &format!(
                "x = x - {NEAR_MAX}; y = y - {NEAR_MAX}; long end = {NEAR_MAX} + n; \
                 for (k = {NEAR_MAX}; k != end; k++) x[k] = y[k];"
            ),
            16,
            &[16],
            false,
        ),
        shape(
            "k·esz past i64",
            "long s[16]; long d[16]; long k; long *x = d; long *y = s;",
            &format!(
                "x = x - {NEAR_SCALED_MAX}; y = y - {NEAR_SCALED_MAX}; \
                 long end = {NEAR_SCALED_MAX} + n; \
                 for (k = {NEAR_SCALED_MAX}; k != end; k++) x[k] = y[k];"
            ),
            16,
            &[16],
            false,
        ),
        // Stores 3 and 5 bytes below the loads: each store overwrites part
        // of the element its own pass loaded, so the move must read the
        // last pass's value first.
        shape(
            "stores 3 bytes below the loads",
            "char c[136]; long *s = (long *) (c + 3); long *d = (long *) c; long k;",
            up,
            16,
            &[16],
            true,
        ),
        shape(
            "stores 5 bytes below the loads",
            "char c[136]; long *s = (long *) (c + 5); long *d = (long *) c; long k;",
            up,
            16,
            &[16],
            true,
        ),
        // Every pass's store overlaps its own load's element from above:
        // the loop runs pass by pass.
        shape(
            "stores 3 bytes above the loads",
            "char c[136]; long *s = (long *) c; long *d = (long *) (c + 3); long k;",
            up,
            16,
            &[16],
            false,
        )
        .unbatched(),
        shape(
            "global → heap",
            "long *s = g; long *d = (long *) malloc(128); long k;",
            up,
            16,
            &[16],
            true,
        )
        .with_globals("long g[16];"),
        shape(
            "stack → global",
            "long s[16]; long *d = g; long k;",
            up,
            16,
            &[16],
            true,
        )
        .with_globals("long g[16];"),
        shape(
            "short",
            "short s[20]; short d[20]; long k;",
            up,
            20,
            &[20],
            true,
        ),
        shape("int", "int s[20]; int d[20]; long k;", up, 20, &[20], true),
        // `t` starts from the last value the loop loaded, sign-extended.
        shape(
            "char, last value returned",
            "char s[24]; char d[24]; long k;",
            "for (k = 0; k < n; k++) d[k] = s[k]; if (n > 0 && n <= 24) t = d[n - 1];",
            24,
            &[24],
            true,
        ),
        // One byte of each 8-byte element: the passes do not tile, and
        // the loop is not counted.
        shape(
            "strided",
            "long s[16]; long d[16]; long k;",
            "for (k = 0; k < n; k++) *((char *) (d + k)) = *((char *) (s + k));",
            16,
            &[16],
            false,
        )
        .unbatched(),
        // Latches other than `k < n` that fail inside the proven span.
        shape(
            "k != n",
            "long s[16]; long d[16]; long k;",
            "for (k = 0; k != n; k++) d[k] = s[k];",
            16,
            &[16],
            true,
        ),
        shape(
            "unsigned k",
            "long s[16]; long d[16]; unsigned long k;",
            up,
            16,
            &[16],
            true,
        ),
    ]
}

/// Every shape × every mode × lengths straddling each unit's end: the
/// native tier equals the baseline on the result and the `Observation`,
/// and batches fire exactly in the modes the shape says — the checked
/// modes refuse a base pointer out of its unit, and a loop nobody
/// batches cannot pass this vacuously.
#[test]
fn counted_loops_batch_only_what_they_prove() {
    for shape in counted_shapes() {
        let images = equiv::images(&shape.source);
        let mut lengths = vec![0, 1, 2, shape.ends[shape.ends.len() - 1] + 40];
        for &end in shape.ends {
            lengths.extend([end - 1, end, end + 1]);
        }
        for mode in Mode::ALL {
            let config = MachineConfig::with_mode(mode).with_fuel(100_000);
            let batched: u64 = lengths
                .iter()
                .map(|&n| equiv::tiers(&Case::new(&images, "f", &[n]), &config).1)
                .map(|profile| profile.batched_instrs)
                .sum();
            let want = shape.batches_in(mode);
            assert_eq!(batched > 0, want, "{} under {mode:?}", shape.name);
        }
    }
}

/// Every fuel budget across every shape, run one element past its units
/// — a batch, then the violation, where the shape batches — in each of
/// the sweep's three modes: each budget ends the batch one pass sooner
/// (fuel covers `fuel / charge` passes), and the budgets about the
/// loop's first latch leave fewer than two.
#[test]
fn every_fuel_budget_across_a_batch_is_tier_blind() {
    for shape in counted_shapes() {
        let images = equiv::images(&shape.source);
        let case = Case::new(&images, "f", &[shape.ends[0] + 1]);
        for mode in [Mode::FailureOblivious, Mode::Standard, Mode::BoundsCheck] {
            // Every shape ends within 2 000 instructions but `a store
            // through &k` outside Bounds Check, whose store resets `k`:
            // it runs until this fuel is gone.
            let config = MachineConfig::with_mode(mode).with_fuel(4_000);
            let (_, profile) = equiv::sweep(&case, &config);
            // Forward overlap batches only a last pass alone, and one
            // element past the unit that pass leaves it in the checked
            // modes.
            let cut = mode.is_checked() && shape.name == "forward overlap";
            let want = shape.batches_in(mode) && !cut;
            let batched = profile.batched_instrs > 0;
            assert_eq!(batched, want, "{} under {mode:?}", shape.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random points of the faulting copy loop: a native region is only
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
        let images = equiv::images(OVERRUN_SOURCE);
        let config = MachineConfig::with_mode(Mode::ALL[mode_index]).with_fuel(fuel);
        equiv::tiers(&Case::new(&images, "smash", &[n]), &config);
    }

    /// Alloc/free churn reshapes the object table the in-block probe
    /// resolves against (splay rotations, shifted vector entries and a
    /// stale memo, freed-unit tombstones). Random churn volumes crossed
    /// with random overrun depths and manufactured-value seeds must
    /// leave the native tier observationally invisible.
    #[test]
    fn alloc_free_churn_is_probe_blind(
        rounds in 0u32..96,
        n in 0i64..24,
        wrap in 2u64..600,
        table_index in 0usize..TableKind::ALL.len(),
    ) {
        let images = equiv::images(OVERRUN_SOURCE);
        let config = config(Mode::FailureOblivious, TableKind::ALL[table_index], 1_000_000)
            .with_sequence(ValueSequence::Cycling { wrap });
        let case = Case::prep(&images, "smash", |m| {
            churn(m, rounds);
            vec![n]
        });
        equiv::tiers(&case, &config);
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
                equiv::tiers(&case, &shim_config(mode, TableKind::Splay, roomy, full));
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
