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
//!
//! The second half does the same for superblocks, where a segment is
//! entered mid-chain: a region runs on through copies of its successors
//! and leaves at a side exit. Hand-assembled branchy shapes take an
//! exit at each segment, fault inside a copied segment with a value
//! live below the access, cross a fused loop latch, and reach one
//! segment both inline and through its own region. Every region of both
//! programs is also validated against its bytecode (`equiv::validate`).

mod equiv;

use std::collections::HashMap;

use equiv::{Case, Images};
use foc_compiler::native::NOp;
use foc_compiler::{CompiledFunc, CompiledProgram, FrameLayout, Instr, ProgramImage};
use foc_memory::{AccessSize, Mode};
use foc_vm::MachineConfig;

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

/// A hand-assembled program at both tiers, every region of the native
/// image validated.
fn tiers_of(program: CompiledProgram) -> Images {
    let images = [
        ProgramImage::new(program.clone()),
        ProgramImage::with_native(program),
    ];
    equiv::validate::image(&images[1]);
    images
}

/// Standard, then Failure Oblivious, with fuel to spare.
fn configs() -> [MachineConfig; 2] {
    [Mode::Standard, Mode::FailureOblivious]
        .map(|mode| MachineConfig::with_mode(mode).with_fuel(1_000_000))
}

#[test]
fn mid_shape_entries_are_tier_blind_at_every_fuel_budget() {
    let images = tiers_of(program());
    let case = Case::new(&images, "f", &[5]);
    let [_, failure_oblivious] = configs();
    let (run, _) = equiv::tiers(&case, &failure_oblivious);
    assert_eq!(
        run.result,
        Ok(18),
        "acc = 0+1+2+3+4 + a manufactured 0; k = 8"
    );
    // The one invalid read is the final shape's `Load`, nine slots
    // from the end; its record carries the pc behind it.
    let load_pc = images[0].funcs[0].code.len() as u32 - 9;
    let log = run.seen.log;
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!(log[0].pc, load_pc + 1);
    for config in configs() {
        let (run, profile) = equiv::sweep(&case, &config);
        assert!(profile.native_instrs > 0, "regions must be in play");
        let standard = config.mem.mode == Mode::Standard;
        assert_eq!(run.result.is_err(), standard, "{run:?}");
    }
}

// ---------------------------------------------------------------------
// Superblocks: a region runs on through its successors' ops, and each
// branch it crosses becomes a side exit that refunds what it skips.
// ---------------------------------------------------------------------

/// `slot += c;` as the front end emits the statement.
fn add_to(a: &mut Asm, slot: u32, c: i64) {
    a.emit(&[
        Instr::LoadLocal(slot, B8, true),
        Instr::Const(c),
        Instr::Add,
        Instr::StoreLocal(slot, B8),
    ]);
}

/// `if (slot == c) goto target;`
fn leave_if(a: &mut Asm, slot: u32, c: i64, target: &'static str) {
    a.emit(&[Instr::LoadLocal(slot, B8, true), Instr::Const(c), Instr::Eq]);
    a.branch(Instr::JumpIfNotZero, target);
}

/// Two functions over the frame `n, i, acc, xs[2]`.
///
/// `long h(long n)` is one superblock of four segments, leaving at the
/// segment `n` names:
///
/// ```text
/// acc = 0;   if (n == 0) goto out;
/// acc += 1;  if (n == 1) goto out;
/// acc += 10; if (n == 2) goto out;
/// acc += 100; if (n == 3) goto out;
/// acc += 1000;
/// out: return acc;
/// ```
///
/// `long g(long n)` is a loop whose body is four statement-shaped
/// segments:
///
/// ```text
/// head:  if (i >= n) goto done;
/// s1:    acc += 1;  if (i == 1) goto s3;
/// s2:    acc += 10; if (i == 2) goto s4;
/// s3:    acc = acc + xs[(i & 4) << 30]; if (i == 3) goto latch;
/// s4:    acc += 100;
/// latch: i++; goto head;               // fused with head's compare
/// done:  return acc;
/// ```
///
/// Lowered, the entry, the head and the latch each run on through `s1`,
/// `s2` and `s3`; the latch's compare is a crossed `IncBranch`; `s3` is
/// reached inline and, from `s1`'s exit, through its own region; and
/// from `i = 4` on its load leaves the object — with `acc` live below
/// it — inside a copied segment.
fn branchy_program() -> CompiledProgram {
    let mut a = Asm::default();
    a.emit(&[Instr::Const(0), Instr::StoreLocal(ACC, B8)]);
    leave_if(&mut a, N, 0, "out");
    for (seg, c) in [(1, 1), (2, 10), (3, 100)] {
        add_to(&mut a, ACC, c);
        leave_if(&mut a, N, seg, "out");
    }
    add_to(&mut a, ACC, 1000);
    a.label("out");
    a.emit(&[Instr::LoadLocal(ACC, B8, true), Instr::Ret]);
    let h = a.finish();

    let mut a = Asm::default();
    a.emit(&[
        Instr::Const(0),
        Instr::StoreLocal(I, B8),
        Instr::Const(0),
        Instr::StoreLocal(ACC, B8),
        Instr::Const(7),
        Instr::LocalAddr(XS),
        Instr::Store(B4),
    ]);
    a.label("head");
    a.emit(&[
        Instr::LoadLocal(I, B8, true),
        Instr::LoadLocal(N, B8, true),
        Instr::LtS,
    ]);
    a.branch(Instr::JumpIfZero, "done");
    add_to(&mut a, ACC, 1);
    leave_if(&mut a, I, 1, "s3");
    add_to(&mut a, ACC, 10);
    leave_if(&mut a, I, 2, "s4");
    a.label("s3");
    a.emit(&[
        Instr::LoadLocal(ACC, B8, true),
        Instr::LocalAddr(XS),
        Instr::LoadLocal(I, B8, true),
        Instr::Const(4),
        Instr::And,
        Instr::Const(30),
        Instr::Shl,
        Instr::PtrAdd(4),
        Instr::Load(B4, true),
        Instr::Add,
        Instr::StoreLocal(ACC, B8),
    ]);
    leave_if(&mut a, I, 3, "latch");
    a.label("s4");
    add_to(&mut a, ACC, 100);
    a.label("latch");
    add_to(&mut a, I, 1);
    a.branch(Instr::Jump, "head");
    a.label("done");
    a.emit(&[Instr::LoadLocal(ACC, B8, true), Instr::Ret]);
    let g = a.finish();

    let slots = [(N, 8), (I, 8), (ACC, 8), (XS, 8)];
    let func = |name: &str, code| CompiledFunc {
        name: name.to_owned(),
        param_count: 1,
        frame: FrameLayout {
            slots: slots.map(|(off, size)| (off as u64, size)).to_vec(),
            total: 32,
        },
        code,
    };
    CompiledProgram {
        funcs: vec![func("h", h), func("g", g)],
        ..CompiledProgram::default()
    }
}

fn exits(ops: &[NOp]) -> usize {
    ops.iter()
        .filter(|op| matches!(op, NOp::Exit { .. }))
        .count()
}

#[test]
fn a_superblock_leaves_at_each_segment_as_the_stream_does() {
    let images = tiers_of(branchy_program());
    let nf = images[1].native_func(0).expect("native image");
    let entry = &nf.regions[nf.entry[0] as usize];
    assert_eq!(
        exits(&entry.ops),
        3,
        "four segments, three exits: {entry:?}"
    );
    for n in 0..=4 {
        let want = [0, 1, 11, 111, 1111][n as usize];
        let case = Case::new(&images, "h", &[n]);
        for config in configs() {
            let (run, profile) = equiv::sweep(&case, &config);
            assert_eq!(run.result, Ok(want));
            // Segments 0–2 leave through an exit, 3 through the terminator.
            assert_eq!(profile.side_exits, (n < 3) as u64, "h({n}): {profile:?}");
            assert_eq!(
                profile.region_entries,
                2 + (n == 4) as u64,
                "h({n}): {profile:?}"
            );
        }
    }
}

#[test]
fn superblock_seams_latches_and_shared_segments_are_tier_blind() {
    let images = tiers_of(branchy_program());
    let nf = images[1].native_func(1).expect("native image");
    let longest = nf.regions.iter().map(|r| exits(&r.ops)).max();
    assert_eq!(
        longest,
        Some(3),
        "a superblock crosses three branches: {nf:?}"
    );
    assert!(
        nf.regions.iter().any(|r| r
            .ops
            .windows(2)
            .any(|w| matches!(w, [NOp::Inc { .. }, NOp::Exit { .. }]))),
        "the latch's IncBranch is crossed: {nf:?}"
    );
    // `s3`'s load, its pc read off the stream.
    let code = &images[0].funcs[1].code;
    let load = code.iter().position(|i| matches!(i, Instr::Load(..)));
    let load_pc = load.expect("s3 loads") as u32 + 1;

    // Standard dies at the load on pass 4 with `acc` spilled: passes 0–3
    // add 118, 108, 111 and 18, pass 4 adds 11 before it.
    let [standard, _] = configs();
    let (died, _) = equiv::tiers(&Case::new(&images, "g", &[6]), &standard);
    assert!(died.result.is_err(), "{died:?}");
    assert_eq!(died.seen.frames, [(1, load_pc)]);
    assert_eq!(died.seen.stack, [118 + 108 + 111 + 18 + 11]);
    // `g(0)` leaves the entry's superblock at its first exit.
    for n in [0, 6] {
        let case = Case::new(&images, "g", &[n]);
        for config in configs() {
            let (_, profile) = equiv::sweep(&case, &config);
            assert!(profile.side_exits > 0, "g({n}): {profile:?}");
        }
    }
}
