//! Accounting audit: the native tier's fused dispatch — its
//! whole-region charge — and the interpreter it falls back to charge
//! *exactly* what a naive one-dispatch-per-instruction interpreter
//! would, at every fuel interleaving.
//!
//! The referee is deliberately independent: a mini interpreter written
//! in this test from the instruction-set documentation alone, covering
//! the pure local/arithmetic/branch subset (no guest memory accesses, no
//! nested calls — accounting there is pinned by the VM's own parity
//! batteries). It executes the *baseline* bytecode one dispatch at a
//! time with no peepholes, and the production machine — under every
//! execution tier in `ExecTier::ALL` (baseline and native region
//! execution) — must land on identical instruction counts, cycle
//! counts, results, and fuel-out points for every budget from zero to
//! run-to-completion.

use foc_compiler::{compile_image_tier, ExecTier, Instr};
use foc_memory::{AccessSize, Mode};
use foc_vm::{cost, Machine, MachineConfig, VmFault};

/// What the referee and the machine each report for one budgeted call.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Audited {
    result: Result<i64, String>,
    instrs: u64,
    cycles: u64,
    calls: u64,
}

fn extend(raw: u64, size: AccessSize, signed: bool) -> i64 {
    match (size, signed) {
        (AccessSize::B1, true) => raw as u8 as i8 as i64,
        (AccessSize::B1, false) => raw as u8 as i64,
        (AccessSize::B2, true) => raw as u16 as i16 as i64,
        (AccessSize::B2, false) => raw as u16 as i64,
        (AccessSize::B4, true) => raw as u32 as i32 as i64,
        (AccessSize::B4, false) => raw as u32 as i64,
        (AccessSize::B8, _) => raw as i64,
    }
}

/// The reference interpreter: baseline bytecode, one dispatch per
/// instruction, no peepholes, charging the documented costs — one fuel,
/// one instruction, `BASE` cycles per dispatch; `CALL_EXTRA` (plus the
/// per-slot registration surcharge in checked modes) at entry.
fn reference_run(src: &str, func: &str, args: &[i64], mode: Mode, budget: u64) -> Audited {
    let image = compile_image_tier(src, ExecTier::Baseline).expect("compile");
    let fid = image.func_index(func).expect("function exists") as usize;
    let f = &image.funcs[fid];
    assert_eq!(args.len(), f.param_count);

    let mut instrs = 0u64;
    let mut cycles = cost::CALL_EXTRA;
    if mode.is_checked() {
        cycles += f.frame.slots.len() as u64 * cost::LOCAL_REG_EXTRA;
    }

    // The frame: a flat little-endian byte image of the locals, exactly
    // what `read_raw`/`write_raw` see.
    let mut frame = vec![0u8; f.frame.total as usize];
    let write = |frame: &mut [u8], off: u64, size: AccessSize, raw: u64| {
        let n = size.bytes() as usize;
        frame[off as usize..off as usize + n].copy_from_slice(&raw.to_le_bytes()[..n]);
    };
    let read = |frame: &[u8], off: u64, size: AccessSize| -> u64 {
        let n = size.bytes() as usize;
        let mut b = [0u8; 8];
        b[..n].copy_from_slice(&frame[off as usize..off as usize + n]);
        u64::from_le_bytes(b)
    };
    for (i, &arg) in args.iter().enumerate() {
        let (off, size) = f.frame.slots[i];
        let acc = AccessSize::from_bytes(size.clamp(1, 8).next_power_of_two().min(8));
        write(&mut frame, off, acc, arg as u64);
    }

    let mut stack: Vec<i64> = Vec::new();
    let mut pc = 0usize;
    let mut fuel = budget;
    let audited = |result, instrs, cycles| Audited {
        result,
        instrs,
        cycles,
        calls: 1,
    };
    macro_rules! bin {
        ($op:expr) => {{
            let b = stack.pop().unwrap();
            let a = stack.pop().unwrap();
            #[allow(clippy::redundant_closure_call)]
            stack.push($op(a, b));
        }};
    }
    loop {
        let instr = f.code[pc];
        pc += 1;
        if fuel == 0 {
            return audited(Err(format!("{:?}", VmFault::FuelExhausted)), instrs, cycles);
        }
        fuel -= 1;
        instrs += 1;
        cycles += cost::BASE;
        match instr {
            Instr::Const(v) => stack.push(v),
            Instr::Dup => stack.push(*stack.last().unwrap()),
            Instr::Drop => {
                stack.pop().unwrap();
            }
            Instr::Swap => {
                let n = stack.len();
                stack.swap(n - 1, n - 2);
            }
            Instr::LoadLocal(off, size, signed) => {
                stack.push(extend(read(&frame, off as u64, size), size, signed));
            }
            Instr::StoreLocal(off, size) => {
                let v = stack.pop().unwrap();
                write(&mut frame, off as u64, size, v as u64);
            }
            Instr::Add => bin!(|a: i64, b: i64| a.wrapping_add(b)),
            Instr::Sub => bin!(|a: i64, b: i64| a.wrapping_sub(b)),
            Instr::Mul => bin!(|a: i64, b: i64| a.wrapping_mul(b)),
            Instr::DivS => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                if b == 0 {
                    return audited(Err(format!("{:?}", VmFault::DivideByZero)), instrs, cycles);
                }
                stack.push(a.overflowing_div(b).0);
            }
            Instr::And => bin!(|a: i64, b: i64| a & b),
            Instr::Or => bin!(|a: i64, b: i64| a | b),
            Instr::Xor => bin!(|a: i64, b: i64| a ^ b),
            Instr::Shl => bin!(|a: i64, b: i64| a.wrapping_shl(b as u32 & 63)),
            Instr::ShrS => bin!(|a: i64, b: i64| a.wrapping_shr(b as u32 & 63)),
            Instr::Eq => bin!(|a: i64, b: i64| (a == b) as i64),
            Instr::Ne => bin!(|a: i64, b: i64| (a != b) as i64),
            Instr::LtS => bin!(|a: i64, b: i64| (a < b) as i64),
            Instr::LeS => bin!(|a: i64, b: i64| (a <= b) as i64),
            Instr::GtS => bin!(|a: i64, b: i64| (a > b) as i64),
            Instr::GeS => bin!(|a: i64, b: i64| (a >= b) as i64),
            Instr::LtU => bin!(|a: i64, b: i64| ((a as u64) < b as u64) as i64),
            Instr::LeU => bin!(|a: i64, b: i64| (a as u64 <= b as u64) as i64),
            Instr::GtU => bin!(|a: i64, b: i64| (a as u64 > b as u64) as i64),
            Instr::GeU => bin!(|a: i64, b: i64| (a as u64 >= b as u64) as i64),
            Instr::Neg => {
                let v = stack.pop().unwrap();
                stack.push(v.wrapping_neg());
            }
            Instr::BitNot => {
                let v = stack.pop().unwrap();
                stack.push(!v);
            }
            Instr::Not => {
                let v = stack.pop().unwrap();
                stack.push((v == 0) as i64);
            }
            Instr::Normalize(size, signed) => {
                let v = stack.pop().unwrap();
                stack.push(extend(v as u64, size, signed));
            }
            Instr::Jump(t) => pc = t as usize,
            Instr::JumpIfZero(t) => {
                if stack.pop().unwrap() == 0 {
                    pc = t as usize;
                }
            }
            Instr::JumpIfNotZero(t) => {
                if stack.pop().unwrap() != 0 {
                    pc = t as usize;
                }
            }
            Instr::Ret => {
                return audited(Ok(stack.pop().unwrap()), instrs, cycles);
            }
            other => panic!("outside the referee's pure subset: {other:?}"),
        }
    }
}

/// One budgeted call on the production machine, under the given tier.
fn machine_run(
    src: &str,
    func: &str,
    args: &[i64],
    mode: Mode,
    budget: u64,
    tier: ExecTier,
) -> Audited {
    let image = compile_image_tier(src, tier).expect("compile");
    let mut m =
        Machine::load(image, MachineConfig::with_mode(mode).with_fuel(budget)).expect("load");
    let result = m.call(func, args).map_err(|e| format!("{e:?}"));
    let stats = m.stats();
    Audited {
        result,
        instrs: stats.instrs,
        cycles: stats.cycles,
        calls: stats.calls,
    }
}

/// A pure local/arith/branch function whose compiled form contains every
/// shape the native tier fuses: compare+branch loop heads, local
/// increments, a loop latch back-jump, constant-operand ALU, and a mix
/// of `int`/`long` widths (so `Normalize` re-narrowing is in play).
const AUDIT_SRC: &str = "
    long audit(long n, long step) {
        long i; long acc = 0; int small = 0;
        for (i = 0; i < n; i++) {
            acc = acc + step;
            small = small + 3;
            if (acc > 100) { acc = acc - 7; }
        }
        return acc * 2 + small - acc / 3;
    }
";

#[test]
fn fused_dispatch_charges_exactly_like_the_reference() {
    for mode in [Mode::Standard, Mode::FailureOblivious] {
        // Ample fuel: the full run must agree to the instruction.
        let expected = reference_run(AUDIT_SRC, "audit", &[25, 9], mode, 100_000);
        assert!(
            expected.result.is_ok(),
            "referee must complete: {expected:?}"
        );
        for tier in ExecTier::ALL {
            let got = machine_run(AUDIT_SRC, "audit", &[25, 9], mode, 100_000, tier);
            assert_eq!(expected, got, "{mode:?}/{tier:?} ample-fuel drift");
        }
    }
}

#[test]
fn fuel_out_points_match_the_reference_at_every_budget() {
    // Sweep every budget through entry, several whole loop iterations,
    // and the epilogue: the machine must fault (or finish) with the
    // referee's exact instruction and cycle counts — under the baseline
    // tier (one dispatch per instruction) and the native tier (whose
    // whole-region pre-charge gate must surface fuel exhaustion at the
    // same instruction) alike.
    let full = reference_run(AUDIT_SRC, "audit", &[4, 9], Mode::Standard, 100_000);
    let run_len = full.instrs;
    for mode in [Mode::Standard, Mode::FailureOblivious] {
        for budget in 0..=(run_len + 2) {
            let expected = reference_run(AUDIT_SRC, "audit", &[4, 9], mode, budget);
            for tier in ExecTier::ALL {
                let got = machine_run(AUDIT_SRC, "audit", &[4, 9], mode, budget, tier);
                assert_eq!(expected, got, "{mode:?}/{tier:?} drift at budget {budget}");
            }
        }
    }
}
