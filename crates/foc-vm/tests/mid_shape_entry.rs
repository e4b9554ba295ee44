//! Mid-shape entry: a branch target *inside* a statement shape the
//! native lowering recognises. The region that holds the shape's head
//! lowers it to one micro-op spanning the target; the region that starts
//! at the target is lowered from the shape's remaining instructions.
//! Both must be indistinguishable from the baseline interpreter — same
//! result, same [`foc_vm::Observation`] — at every fuel budget.
//!
//! The front end never emits such a jump, so the program is assembled
//! by hand. Each shape is reached both ways: from its head on even loop
//! iterations, and — with the operand stack its skipped prefix would
//! have left — at an interior slot on odd ones.

use std::collections::HashMap;

use foc_compiler::{CompiledFunc, CompiledProgram, FrameLayout, Instr, ProgramImage};
use foc_memory::{AccessSize, Mode};
use foc_vm::{ExecProfile, Machine, MachineConfig, Observation, VmFault};

use AccessSize::{B4, B8};

// Frame offsets.
const N: u32 = 0; // long n (the parameter)
const I: u32 = 8; // long i
const ACC: u32 = 16; // long acc
const XS: u32 = 24; // int xs[2]
const K: u32 = 32; // int k

/// A branch whose target is a label, patched by [`Asm::finish`].
type Branch = fn(u32) -> Instr;

#[derive(Default)]
struct Asm {
    code: Vec<Instr>,
    labels: HashMap<&'static str, u32>,
    fixups: Vec<(usize, &'static str, Branch)>,
}

impl Asm {
    fn emit(&mut self, instrs: &[Instr]) {
        self.code.extend_from_slice(instrs);
    }

    fn label(&mut self, name: &'static str) {
        self.labels.insert(name, self.code.len() as u32);
    }

    fn branch(&mut self, kind: Branch, target: &'static str) {
        self.fixups.push((self.code.len(), target, kind));
        self.code.push(kind(0));
    }

    /// Pushes `i & 1` and branches to `target` when it is set.
    fn branch_on_odd_i(&mut self, target: &'static str) {
        self.emit(&[Instr::LoadLocal(I, B8, true), Instr::Const(1), Instr::And]);
        self.branch(Instr::JumpIfNotZero, target);
    }

    fn finish(mut self) -> Vec<Instr> {
        for (at, target, kind) in self.fixups {
            self.code[at] = kind(self.labels[target]);
        }
        self.code
    }
}

/// `long f(long n)`: a counted loop over every shape, then one
/// out-of-bounds accumulate. Comments give the operand stack at a
/// mid-shape target.
fn program() -> CompiledProgram {
    let mut a = Asm::default();
    a.emit(&[
        Instr::Const(0),
        Instr::StoreLocal(I, B8),
        Instr::Const(0),
        Instr::StoreLocal(ACC, B8),
        Instr::Const(0),
        Instr::StoreLocal(K, B4),
        Instr::Const(7),
        Instr::LocalAddr(XS),
        Instr::Store(B4),
        // The first pass enters the loop head at its comparison: [i, n].
        Instr::LoadLocal(I, B8, true),
        Instr::LoadLocal(N, B8, true),
    ]);
    a.branch(Instr::Jump, "head_cmp");

    // Loop head (5 slots).
    a.label("head");
    a.emit(&[Instr::LoadLocal(I, B8, true), Instr::LoadLocal(N, B8, true)]);
    a.label("head_cmp");
    a.emit(&[Instr::LtS, Instr::Normalize(B4, true)]);
    a.branch(Instr::JumpIfZero, "exit");

    // Constant-index store `xs[1] = i` (4 slots), entered at the
    // `PtrAdd`: [i, &xs, 1].
    a.emit(&[
        Instr::LoadLocal(I, B8, true),
        Instr::LocalAddr(XS),
        Instr::Const(1),
    ]);
    a.branch_on_odd_i("store_mid");
    a.emit(&[Instr::Drop, Instr::Drop]);
    a.emit(&[Instr::LocalAddr(XS), Instr::Const(1)]);
    a.label("store_mid");
    a.emit(&[Instr::PtrAdd(4), Instr::Store(B4)]);

    // The nine-wide accumulate `acc += xs[1]`, entered at the `Load`
    // (component 4): [acc, &xs[1]].
    let accum_prefix = [
        Instr::LoadLocal(ACC, B8, true),
        Instr::LocalAddr(XS),
        Instr::Const(1),
        Instr::PtrAdd(4),
    ];
    let accum_tail = [
        Instr::Load(B4, true),
        Instr::Add,
        Instr::Dup,
        Instr::StoreLocal(ACC, B8),
        Instr::Drop,
    ];
    a.emit(&accum_prefix);
    a.branch_on_odd_i("accum_mid");
    a.emit(&[Instr::Drop, Instr::Drop]);
    a.emit(&accum_prefix);
    a.label("accum_mid");
    a.emit(&accum_tail);

    // Constant-index load feeding an assignment tail, `k = xs[0]`,
    // entered at the `Const`: [&xs].
    a.emit(&[Instr::LocalAddr(XS)]);
    a.branch_on_odd_i("load_mid");
    a.emit(&[Instr::Drop, Instr::LocalAddr(XS)]);
    a.label("load_mid");
    a.emit(&[
        Instr::Const(0),
        Instr::PtrAdd(4),
        Instr::Load(B4, true),
        Instr::Dup,
        Instr::StoreLocal(K, B4),
        Instr::Drop,
    ]);

    // Narrow increment statement `k++` (7 slots, with its `Normalize`),
    // entered at the `Normalize`: [k, k + 1].
    a.emit(&[
        Instr::LoadLocal(K, B4, true),
        Instr::Dup,
        Instr::Const(1),
        Instr::Add,
    ]);
    a.branch_on_odd_i("inc_mid");
    a.emit(&[Instr::Drop, Instr::Drop]);
    a.emit(&[
        Instr::LoadLocal(K, B4, true),
        Instr::Dup,
        Instr::Const(1),
        Instr::Add,
    ]);
    a.label("inc_mid");
    a.emit(&[
        Instr::Normalize(B4, true),
        Instr::StoreLocal(K, B4),
        Instr::Drop,
    ]);

    // The latch `i++` plus back-jump (7 slots), entered at the
    // `Const`: [i, i].
    a.emit(&[Instr::LoadLocal(I, B8, true), Instr::Dup]);
    a.branch_on_odd_i("latch_mid");
    a.emit(&[Instr::Drop, Instr::Drop]);
    a.emit(&[Instr::LoadLocal(I, B8, true), Instr::Dup]);
    a.label("latch_mid");
    a.emit(&[
        Instr::Const(1),
        Instr::Add,
        Instr::StoreLocal(I, B8),
        Instr::Drop,
    ]);
    a.branch(Instr::Jump, "head");

    // `acc += xs[FAR]`, far out of bounds, entered at the `Load`: the
    // access that faults in Standard mode and manufactures a value (and
    // a log record carrying its pc) when failure-oblivious. The shape's
    // head is never executed; the jump over it keeps it in the stream.
    a.label("exit");
    let far_prefix = [
        Instr::LoadLocal(ACC, B8, true),
        Instr::LocalAddr(XS),
        Instr::Const(1 << 40),
        Instr::PtrAdd(4),
    ];
    a.emit(&far_prefix);
    a.branch(Instr::Jump, "oob_mid");
    a.emit(&far_prefix);
    a.label("oob_mid");
    a.emit(&accum_tail);
    a.emit(&[
        Instr::LoadLocal(ACC, B8, true),
        Instr::LoadLocal(K, B4, true),
        Instr::Add,
        Instr::Ret,
    ]);

    let slots = [(N, 8), (I, 8), (ACC, 8), (XS, 8), (K, 4)];
    CompiledProgram {
        funcs: vec![CompiledFunc {
            name: "f".to_owned(),
            param_count: 1,
            frame: FrameLayout {
                slots: slots.map(|(off, size)| (off as u64, size)).to_vec(),
                total: 40,
            },
            code: a.finish(),
        }],
        ..CompiledProgram::default()
    }
}

/// One run of `f(5)`: its result and everything it left observable,
/// and — apart, because it is not — where execution went.
fn observe(
    image: &ProgramImage,
    mode: Mode,
    fuel: u64,
) -> ((Result<i64, VmFault>, Observation), ExecProfile) {
    let config = MachineConfig::with_mode(mode).with_fuel(fuel);
    let mut m = Machine::load(image.clone(), config).expect("load");
    let result = m.call("f", &[5]);
    ((result, m.observe()), m.exec_profile())
}

#[test]
fn mid_shape_entries_are_tier_blind_at_every_fuel_budget() {
    let program = program();
    let native = ProgramImage::with_native(program.clone());
    let baseline = ProgramImage::new(program);

    let ((result, seen), _) = observe(&baseline, Mode::FailureOblivious, 1_000_000);
    let (stats, log) = (seen.run, seen.log);
    assert_eq!(result, Ok(18), "acc = 0+1+2+3+4 + a manufactured 0; k = 8");
    // The one invalid read is the final shape's `Load`, nine slots
    // from the end; its record carries the pc behind it.
    let load_pc = baseline.funcs[0].code.len() as u32 - 9;
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!(log[0].pc, load_pc + 1);

    for mode in [Mode::Standard, Mode::FailureOblivious] {
        for fuel in 0..=stats.instrs + 1 {
            let (expected, _) = observe(&baseline, mode, fuel);
            let (got, profile) = observe(&native, mode, fuel);
            assert_eq!(expected, got, "{mode:?} diverges at fuel {fuel}");
            if fuel > stats.instrs {
                assert!(profile.native_instrs > 0, "regions must be in play");
                assert_eq!(got.0.is_err(), mode == Mode::Standard, "{got:?}");
            }
        }
    }
}
