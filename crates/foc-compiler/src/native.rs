//! Native-tier lowering — the `ExecTier::Native` region pass.
//!
//! The interpreter pays one fetch/decode/dispatch per opcode plus
//! per-dispatch fuel and counter bookkeeping. This pass compiles each
//! function *past* fetch/decode, once, the first time a machine enters
//! it ([`NativeProgram::func`]): it partitions the baseline instruction
//! stream into **regions** — maximal straight-line runs entered only at
//! known leaders — and lowers every region to a dense array of
//! pre-decoded micro-ops ([`NOp`]) with all operands resolved (index
//! deltas folded, branch targets and fault pcs baked in). Hot statement
//! shapes — the two-local loop head, the increment latch, constant-index
//! array accesses, the `acc += xs[C]` accumulate, assignment tails,
//! pointer dereferences, constant ALU operands — are recognised as the
//! walk goes and become single micro-ops ([`match_op`], [`match_term`]).
//! The VM executes a region with no per-instruction dispatch:
//! accounting for the whole region is charged once at entry, and the
//! micro-ops run back to back.
//!
//! ## Deopt contract
//!
//! The artifact adds no observable state of its own; every observable
//! surface must stay byte-identical to the baseline tier:
//!
//! * **Entry gate.** A region is entered only when the remaining fuel
//!   covers its whole pre-computed [`NativeRegion::charge`]. Otherwise
//!   the VM falls back to the interpreter, which runs the baseline
//!   stream one instruction at a time, so fuel exhaustion lands exactly
//!   where it does on the baseline tier.
//! * **Fault seams.** Micro-ops that can fault (guest loads/stores,
//!   division) carry a [`FaultAt`]: the architectural pc the fault must
//!   surface at and the components the instruction stream would have
//!   charged by that point. On a fault the VM refunds `charge - spent`
//!   and unwinds with the baseline tier's exact counters, stack, and
//!   log. A recognised shape charges exactly its component count and
//!   faults only through such a seam, so which shapes a walk picks is
//!   unobservable.
//! * **Boundaries.** Calls, builtins, returns, and any pc without a
//!   region drop to the interpreter, which runs the very same bytecode
//!   — the artifact is attached to the image's one instruction stream,
//!   it never replaces it.
//!
//! A shape may span a branch target. The region that starts *at* that
//! target is lowered from the same instructions, matching whatever
//! shapes fit from there, so a mid-shape entry needs no special case.

use std::sync::OnceLock;

use foc_memory::AccessSize;

use crate::bytecode::{AluOp, CmpOp, Instr};

/// Entry-table sentinel: no region starts at this pc.
pub const NO_REGION: u32 = u32::MAX;

/// The per-program native artifact (one slot per function, indices
/// matching `CompiledProgram::funcs`). A slot is filled the first time
/// a machine enters its function, from the code the image already
/// holds, so building an image costs nothing per function and
/// a boot pays only for the functions it runs. `Sync`: one `Arc` serves
/// every machine booted from the image, checkpoints included; threads
/// racing a first entry publish exactly one [`NativeFunc`].
#[derive(Debug)]
pub struct NativeProgram {
    funcs: Vec<OnceLock<NativeFunc>>,
}

impl NativeProgram {
    /// An artifact with one empty slot per function.
    pub(crate) fn new(func_count: usize) -> NativeProgram {
        NativeProgram {
            funcs: (0..func_count).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Function `idx`'s regions, lowered from `code` — that function's
    /// instruction stream — on first use;
    /// [`crate::ProgramImage::native_func`] is the accessor that pairs
    /// the two.
    pub(crate) fn func(&self, idx: usize, code: &[Instr]) -> &NativeFunc {
        self.funcs[idx].get_or_init(|| lower_func(code))
    }

    /// Function `idx`'s regions if some machine has entered it yet.
    pub fn lowered(&self, idx: usize) -> Option<&NativeFunc> {
        self.funcs[idx].get()
    }
}

/// One function's lowered regions plus the pc → region map.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeFunc {
    /// `entry[pc]` is the region starting at `pc`, or [`NO_REGION`].
    pub entry: Vec<u32>,
    /// The regions, in discovery order.
    pub regions: Vec<NativeRegion>,
}

/// A maximal straight-line run: pre-decoded micro-ops plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeRegion {
    /// Total components (fuel units / instruction counts) the region
    /// charges — the exact sum its instructions would charge when
    /// interpreted, terminator included.
    pub charge: u64,
    /// The straight-line micro-ops.
    pub ops: Vec<NOp>,
    /// How the region ends.
    pub term: Term,
}

/// Where a faulting micro-op surfaces architecturally: the pc the fault
/// is reported at, and the components the instruction stream would have
/// charged when it faulted there (the VM refunds `charge - spent`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAt {
    /// Architectural fault pc (same pc the interpreter's seam uses).
    pub pc: u32,
    /// Components legitimately charged at the fault point.
    pub spent: u64,
}

/// A pre-decoded micro-op. Constant folds (index deltas, branch senses)
/// are done at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum NOp {
    /// Push a constant.
    Const(i64),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Swap the top two values.
    Swap,
    /// Rotate the top three values.
    Rot3,
    /// Push a local slot's address.
    LocalAddr(u32),
    /// Push a global's address (resolved through the machine's table).
    GlobalAddr(u32),
    /// Push an interned string's address.
    StrAddr(u32),
    /// Direct scalar load from a local slot.
    LoadLocal {
        /// Frame offset.
        off: u32,
        /// Scalar width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
    },
    /// Direct scalar store to a local slot (pops the value).
    StoreLocal {
        /// Frame offset.
        off: u32,
        /// Stored width.
        size: AccessSize,
    },
    /// Non-trapping binary ALU op.
    Alu(AluOp),
    /// Division/remainder (traps on a zero divisor).
    Div {
        /// Signed variant.
        signed: bool,
        /// Remainder instead of quotient.
        rem: bool,
        /// Divide-by-zero seam.
        at: FaultAt,
    },
    /// Comparison, pushing the 0/1 flag (unfolded form).
    Cmp(CmpOp),
    /// Arithmetic negation.
    Neg,
    /// Bitwise not.
    BitNot,
    /// Logical not.
    Not,
    /// Re-normalize the top value.
    Normalize {
        /// Width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// Replace a pointer with its effective address.
    EffAddr,
    /// Checked pointer arithmetic (pops count, pointer).
    PtrAdd {
        /// Element size.
        esz: u64,
    },
    /// Pointer difference (pops rhs, lhs).
    PtrDiff {
        /// Element size.
        esz: u64,
    },
    /// Checked guest load (pops the address).
    Load {
        /// Access width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        at: FaultAt,
    },
    /// Checked guest store (pops address, then value).
    Store {
        /// Access width.
        size: AccessSize,
        /// Fault seam.
        at: FaultAt,
    },
    /// `LocalAddr; Const idx; PtrAdd esz; Load`: constant-index read of
    /// a local array, in or out of bounds.
    IdxLoad {
        /// Frame offset of the aggregate.
        off: u32,
        /// Folded byte delta (`idx * esz`).
        delta: i64,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        at: FaultAt,
    },
    /// `LocalAddr; Const idx; PtrAdd esz; Store`: constant-index write
    /// (pops the value).
    IdxStore {
        /// Frame offset of the aggregate.
        off: u32,
        /// Folded byte delta.
        delta: i64,
        /// Stored width.
        size: AccessSize,
        /// Fault seam.
        at: FaultAt,
    },
    /// `LoadLocal acc; LocalAddr; Const idx; PtrAdd esz; Load; Add; Dup;
    /// StoreLocal acc; Drop`: the whole `acc += xs[C]` statement.
    IdxAccum {
        /// Accumulator frame offset.
        acc: u32,
        /// Accumulator load width.
        acc_size: AccessSize,
        /// Accumulator load signedness.
        acc_signed: bool,
        /// Accumulator store width.
        store_size: AccessSize,
        /// Aggregate frame offset.
        addr: u32,
        /// Folded byte delta.
        delta: i64,
        /// Element load width.
        load_size: AccessSize,
        /// Element load signedness.
        load_signed: bool,
        /// Fault seam (the load is component 4; `spent` covers 5).
        at: FaultAt,
    },
    /// Direct-local increment statement, `i++;` or `++i;`.
    IncLocal {
        /// Frame offset.
        off: u32,
        /// Increment.
        delta: i64,
        /// Scalar width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// `Const c; <alu>`: constant-rhs ALU op.
    ConstAlu {
        /// Constant rhs.
        c: i64,
        /// Operation.
        op: AluOp,
    },
    /// `Dup; StoreLocal; Drop`: the assignment statement tail — store
    /// top-of-stack to a local and pop.
    StoreLocalPop {
        /// Frame offset.
        off: u32,
        /// Stored width.
        size: AccessSize,
    },
    /// `LoadLocal (B8); Load`: dereference a pointer held in a local.
    LoadLoad {
        /// Pointer local's frame offset.
        off: u32,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        at: FaultAt,
    },
    /// A maximal run (length ≥ 2) of register-lowerable micro-ops: the
    /// operand stack is statically known at every point, so each
    /// push/pop is resolved to a fixed scratch-register index ahead of
    /// time and the ops run back to back with no operand-stack
    /// traffic. Pure frame-local ops index the frame window the
    /// executor's view of the space committed up front; checked guest
    /// accesses ([`ROp::GLoad`]/[`ROp::GStore`] and the pointer ops)
    /// stay inside the block too, completing through the same view
    /// against the live register file and taking the full access path
    /// — seam, spill, refund — only on a view miss. This is the
    /// "pre-resolved operands" half of the native tier's dispatch win,
    /// extended across the memory boundary.
    Locals(LocalsBlock),
}

/// Scratch registers available to a [`LocalsBlock`]. Runs whose stack
/// shape exceeds this stay in individual-op form (none observed in
/// practice: the cap comfortably exceeds any expression depth the
/// front end emits).
pub const LOCALS_REGS: usize = 64;

/// A run of frame-local and guest-memory ops in register form.
/// `consumes` operand-stack values enter as registers `0..consumes`
/// (`consumes - 1` is the old top of stack); after the ops run,
/// registers `0..produces` are the block's operand-stack contribution,
/// pushed back in index order. A self-contained block (every
/// statement's expression stack starts and ends empty) has
/// `consumes == produces == 0` and touches the operand stack not at
/// all. Pure and guest-memory ops ([`ROp`]'s `G`-prefixed variants)
/// mix freely: the VM's one executor runs them in a single loop over
/// its view of the space, so a block carries no flag saying which kind
/// it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalsBlock {
    /// Operand-stack values consumed at entry.
    pub consumes: u8,
    /// Operand-stack values produced at exit.
    pub produces: u8,
    /// The straight-line register ops.
    pub ops: Box<[ROp]>,
}

/// A register-form micro-op inside a [`LocalsBlock`]. All register
/// indices are below [`LOCALS_REGS`]; frame offsets were validated
/// against the frame layout by the front end, so the executor indexes
/// the committed frame window directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ROp {
    /// `r[dst] = c`.
    Const {
        /// Destination register.
        dst: u8,
        /// The constant.
        c: i64,
    },
    /// `r[dst] = r[src]` (a `Dup` with its stack slots resolved).
    Copy {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Exchange two registers (a resolved `Swap`).
    Swap {
        /// One register.
        a: u8,
        /// The other.
        b: u8,
    },
    /// Rotate three registers (a resolved `Rot3`): `a←b, b←c, c←a`.
    Rot3 {
        /// Deepest slot.
        a: u8,
        /// Middle slot.
        b: u8,
        /// Top slot.
        c: u8,
    },
    /// `r[dst] = base + off` (a resolved `LocalAddr`).
    Addr {
        /// Destination register.
        dst: u8,
        /// Frame offset.
        off: u32,
    },
    /// Scalar load straight off the frame window.
    Load {
        /// Destination register.
        dst: u8,
        /// Frame offset.
        off: u32,
        /// Width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
    },
    /// Scalar store straight into the frame window.
    Store {
        /// Source register.
        src: u8,
        /// Frame offset.
        off: u32,
        /// Width.
        size: AccessSize,
    },
    /// `r[dst] = op(r[a], r[b])` (`dst == a` in stack-lowered code).
    Alu {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
        /// Operation.
        op: AluOp,
    },
    /// `r[at] = op(r[at], c)` (a resolved [`NOp::ConstAlu`]).
    ConstAlu {
        /// In-place operand register.
        at: u8,
        /// Constant rhs.
        c: i64,
        /// Operation.
        op: AluOp,
    },
    /// `r[dst] = op(r[a], r[b])` as a 0/1 flag.
    Cmp {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: u8,
        /// Right operand.
        b: u8,
        /// Comparison.
        op: CmpOp,
    },
    /// In-place arithmetic negation.
    Neg {
        /// Operand register.
        at: u8,
    },
    /// In-place bitwise not.
    BitNot {
        /// Operand register.
        at: u8,
    },
    /// In-place logical not.
    Not {
        /// Operand register.
        at: u8,
    },
    /// In-place re-normalization.
    Normalize {
        /// Operand register.
        at: u8,
        /// Width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// Direct-local increment against the frame window (a resolved
    /// [`NOp::IncLocal`]; touches no registers).
    Inc {
        /// Frame offset.
        off: u32,
        /// Increment.
        delta: i64,
        /// Scalar width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
    },
    /// Checked guest load against the live register file: the address
    /// comes from register `at` and the loaded value replaces it. The
    /// executor completes it through its view of the space (placement
    /// memo, else one lookup); a view miss takes the full access path
    /// (violation continuation included), and a fault spills registers
    /// `0..spill` back to the operand stack — reproducing the
    /// interpreted stack image after the address pop — before
    /// unwinding at the pre-baked seam.
    GLoad {
        /// Address register, also the destination.
        at: u8,
        /// Access width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
    /// Checked guest store against the live register file (consumes
    /// the address and value registers). Probe/deopt/spill contract as
    /// [`ROp::GLoad`].
    GStore {
        /// Address register.
        addr: u8,
        /// Value register.
        val: u8,
        /// Access width.
        size: AccessSize,
        /// Fault seam.
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
    /// Checked pointer arithmetic in register form: `r[dst] =
    /// ptr_add(r[ptr], r[count] * esz)`. A result that leaves its unit
    /// runs the interpreter's exact routine (out-of-bounds interning
    /// included) — it cannot fault, so it needs no seam.
    GPtrAdd {
        /// Destination register.
        dst: u8,
        /// Base-pointer register.
        ptr: u8,
        /// Element-count register.
        count: u8,
        /// Element size.
        esz: u64,
    },
    /// Pointer difference in register form (effective addresses of
    /// both operands; cannot fault).
    GPtrDiff {
        /// Destination register.
        dst: u8,
        /// Lhs register.
        a: u8,
        /// Rhs register.
        b: u8,
        /// Element size.
        esz: u64,
    },
    /// Effective-address fold in register form (cannot fault).
    GEffAddr {
        /// In-place operand register.
        at: u8,
    },
    /// A [`ROp::GPtrAdd`] whose derived pointer immediately feeds a
    /// [`ROp::GLoad`] — the variable-index access shape. One placement
    /// lookup answers both the derivation and the access on the hit
    /// path (units never overlap, so in-unit containment of the target
    /// proves both), exactly as the constant-index [`NOp::IdxLoad`]
    /// does; a miss runs the exact two-step sequence.
    GIdxLoad {
        /// Destination register (the pair's net stack slot).
        dst: u8,
        /// Base-pointer register.
        ptr: u8,
        /// Element-count register.
        count: u8,
        /// Element size.
        esz: u64,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// The load's fault seam (`spent` covers the pointer add).
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
    /// Store twin of [`ROp::GIdxLoad`].
    GIdxStore {
        /// Base-pointer register.
        ptr: u8,
        /// Element-count register.
        count: u8,
        /// Value register.
        val: u8,
        /// Element size.
        esz: u64,
        /// Stored width.
        size: AccessSize,
        /// The store's fault seam (`spent` covers the pointer add).
        seam: FaultAt,
        /// Live registers to spill to the operand stack on a fault.
        spill: u8,
    },
}

/// How a region ends. Conditional terminators carry both successors so
/// the executor can chain into the next region without touching the
/// interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when zero.
    JumpIfZero {
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// Pop; jump when non-zero.
    JumpIfNotZero {
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// A comparison folded with its branch (the interpreter's runtime
    /// `cmp_arm` peephole, resolved at lowering time): pops rhs then
    /// lhs, jumps when `op` holds.
    FlagJump {
        /// Comparison, normalized to jump-when-true.
        op: CmpOp,
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// `LoadLocal a; LoadLocal b; <cmp>; Normalize; JumpIf(Not)Zero`:
    /// the two-local loop head.
    CmpJump {
        /// Lhs frame offset.
        a: u32,
        /// Lhs width.
        a_size: AccessSize,
        /// Lhs signedness.
        a_signed: bool,
        /// Rhs frame offset.
        b: u32,
        /// Rhs width.
        b_size: AccessSize,
        /// Rhs signedness.
        b_signed: bool,
        /// Comparison, jump taken when true.
        op: CmpOp,
        /// Branch target.
        target: u32,
        /// Fall-through pc.
        fall: u32,
    },
    /// The loop latch: an increment statement plus its back-jump.
    IncJump {
        /// Frame offset.
        off: u32,
        /// Increment.
        delta: i64,
        /// Scalar width.
        size: AccessSize,
        /// Signedness.
        signed: bool,
        /// Jump target.
        target: u32,
    },
    /// Straight-line fall to a pc the interpreter (or the next region)
    /// must handle: a call/builtin/return boundary or a region split at
    /// a leader. Charges nothing.
    Fall(u32),
}

/// The seam of a faulting component `n` slots into a shape (or plain
/// instruction, `n == 1`) that starts at `pc` with `done` components
/// charged before it: the fault surfaces at the pc behind the
/// component, with everything up to and including it charged.
fn seam(pc: usize, done: u64, n: u32) -> FaultAt {
    FaultAt {
        pc: pc as u32 + n,
        spent: done + n as u64,
    }
}

/// Tries the straight-line shapes at `pc`. Returns the micro-op and
/// the instruction slots it covers (= the components it charges).
/// Only a shape's memory access can fault, and it carries its seam;
/// division joins no shape, because its divide-by-zero fault point
/// must stay a separate instruction. The shapes' leading instruction
/// pairs are pairwise distinct, so the order here decides nothing.
fn match_op(code: &[Instr], pc: usize, done: u64) -> Option<(NOp, usize)> {
    match_load_idx_accum(code, pc, done)
        .or_else(|| match_inc_local(code, pc))
        .or_else(|| match_local_idx(code, pc, done))
        .or_else(|| match_store_local_pop(code, pc))
        .or_else(|| match_load_load(code, pc, done))
        .or_else(|| match_const_alu(code, pc))
}

/// Tries the terminator shapes at `pc`; [`build_region`] asks before
/// [`match_op`], so an increment followed by a jump is the latch, not
/// an increment statement.
fn match_term(code: &[Instr], pc: usize) -> Option<(Term, usize)> {
    match_inc_jump(code, pc).or_else(|| match_cmp_jump(code, pc))
}

/// `LoadLocal a; LoadLocal b; <cmp>; Normalize; JumpIf(Not)Zero t`
/// (k = 5), the canonical loop head: comparisons produce an `int`, so
/// the front end re-normalizes the flag before the branch. The
/// `Normalize` is an identity on the comparison's 0/1 result, and the
/// branch sense is folded into the stored comparison (jump-when-true).
fn match_cmp_jump(code: &[Instr], pc: usize) -> Option<(Term, usize)> {
    let [Instr::LoadLocal(a, a_size, a_signed), Instr::LoadLocal(b, b_size, b_signed), cmp, Instr::Normalize(..), branch] =
        *code.get(pc..pc + 5)?
    else {
        return None;
    };
    let op = cmp_op_of(cmp)?;
    let (op, target) = match branch {
        Instr::JumpIfNotZero(t) => (op, t),
        Instr::JumpIfZero(t) => (op.negate(), t),
        _ => return None,
    };
    let term = Term::CmpJump {
        a,
        a_size,
        a_signed,
        b,
        b_size,
        b_signed,
        op,
        target,
        fall: pc as u32 + 5,
    };
    Some((term, 5))
}

/// `LoadLocal acc; LocalAddr; Const idx; PtrAdd esz; Load; Add; Dup;
/// StoreLocal acc; Drop` (k = 9) — the whole `acc += xs[IDX]`
/// statement, the inner-loop body of every scan/sum kernel. The index
/// is folded into a byte delta (`ptr_add` only consumes the wrapping
/// product). The load is component 4 of 9, so a memory fault surfaces
/// with exactly components 0..=4 charged.
fn match_load_idx_accum(code: &[Instr], pc: usize, done: u64) -> Option<(NOp, usize)> {
    let [Instr::LoadLocal(acc, acc_size, acc_signed), Instr::LocalAddr(addr), Instr::Const(c), Instr::PtrAdd(esz), Instr::Load(load_size, load_signed), Instr::Add, Instr::Dup, Instr::StoreLocal(dst, store_size), Instr::Drop] =
        *code.get(pc..pc + 9)?
    else {
        return None;
    };
    // The accumulate idiom: store back into the local that was loaded.
    if dst != acc {
        return None;
    }
    let op = NOp::IdxAccum {
        acc,
        acc_size,
        acc_signed,
        store_size,
        addr,
        delta: c.wrapping_mul(esz as i64),
        load_size,
        load_signed,
        at: seam(pc, done, 5),
    };
    Some((op, 9))
}

/// `LocalAddr; Const idx; PtrAdd esz; Load|Store` (k = 4) — the
/// constant-index array access, in or out of bounds (the micro-op still
/// routes through `ptr_add` and the checked access, so OOB interning,
/// logging, and manufactured values are identical).
fn match_local_idx(code: &[Instr], pc: usize, done: u64) -> Option<(NOp, usize)> {
    let [Instr::LocalAddr(off), Instr::Const(c), Instr::PtrAdd(esz), access] =
        *code.get(pc..pc + 4)?
    else {
        return None;
    };
    let delta = c.wrapping_mul(esz as i64);
    let at = seam(pc, done, 4);
    let op = match access {
        Instr::Load(size, signed) => NOp::IdxLoad {
            off,
            delta,
            size,
            signed,
            at,
        },
        Instr::Store(size) => NOp::IdxStore {
            off,
            delta,
            size,
            at,
        },
        _ => return None,
    };
    Some((op, 4))
}

/// Direct-local increment statements (k = 6 without `Normalize`, 7 with):
///
/// * postfix `i++;` — `LoadLocal; Dup; Const d; Add; [Normalize;]
///   StoreLocal; Drop`
/// * prefix `++i;` — `LoadLocal; Const d; Add; [Normalize;] Dup;
///   StoreLocal; Drop`
///
/// Both shapes leave the stack untouched and store
/// `normalize(local + d)`, so one micro-op covers all four.
fn match_inc_local(code: &[Instr], pc: usize) -> Option<(NOp, usize)> {
    let Instr::LoadLocal(off, size, signed) = *code.get(pc)? else {
        return None;
    };
    let rest = code.get(pc + 1..)?;
    // Split the two shapes on the position of `Dup`.
    let (delta, after_add) = match *rest {
        [Instr::Dup, Instr::Const(d), Instr::Add, ..] => (d, &rest[3..]),
        [Instr::Const(d), Instr::Add, ..] => (d, &rest[2..]),
        _ => return None,
    };
    let postfix = matches!(rest[0], Instr::Dup);
    // Narrow locals re-normalize after the add; B8 locals never do.
    let after_norm = match *after_add.first()? {
        Instr::Normalize(nsz, nsg) if nsz == size && nsg == signed && size != AccessSize::B8 => {
            &after_add[1..]
        }
        _ if size == AccessSize::B8 => after_add,
        _ => return None,
    };
    let tail_ok = if postfix {
        matches!(*after_norm, [Instr::StoreLocal(o, s), Instr::Drop, ..] if o == off && s == size)
    } else {
        matches!(
            *after_norm,
            [Instr::Dup, Instr::StoreLocal(o, s), Instr::Drop, ..] if o == off && s == size
        )
    };
    if !tail_ok {
        return None;
    }
    let op = NOp::IncLocal {
        off,
        delta,
        size,
        signed,
    };
    Some((op, 6 + (after_norm.len() < after_add.len()) as usize))
}

/// An increment statement followed by an unconditional `Jump` — the
/// loop latch every counted loop executes per iteration (k = 7 or 8,
/// jump included).
fn match_inc_jump(code: &[Instr], pc: usize) -> Option<(Term, usize)> {
    let (
        NOp::IncLocal {
            off,
            delta,
            size,
            signed,
        },
        k,
    ) = match_inc_local(code, pc)?
    else {
        return None;
    };
    let Instr::Jump(target) = *code.get(pc + k)? else {
        return None;
    };
    let term = Term::IncJump {
        off,
        delta,
        size,
        signed,
        target,
    };
    Some((term, k + 1))
}

/// `Dup; StoreLocal; Drop` (k = 3) — the direct-local assignment
/// statement tail.
fn match_store_local_pop(code: &[Instr], pc: usize) -> Option<(NOp, usize)> {
    let [Instr::Dup, Instr::StoreLocal(off, size), Instr::Drop] = *code.get(pc..pc + 3)? else {
        return None;
    };
    Some((NOp::StoreLocalPop { off, size }, 3))
}

/// `LoadLocal (B8); Load` (k = 2) — dereference of a pointer held in a
/// scalar local. Only pointer-width locals qualify (narrow locals
/// cannot hold a guest address).
fn match_load_load(code: &[Instr], pc: usize, done: u64) -> Option<(NOp, usize)> {
    let [Instr::LoadLocal(off, AccessSize::B8, _), Instr::Load(size, signed)] =
        *code.get(pc..pc + 2)?
    else {
        return None;
    };
    let op = NOp::LoadLoad {
        off,
        size,
        signed,
        at: seam(pc, done, 2),
    };
    Some((op, 2))
}

/// `Const c; <alu>` (k = 2). Comparisons are excluded (they fold with a
/// following branch instead) and so are division/remainder (fault-point
/// preservation).
fn match_const_alu(code: &[Instr], pc: usize) -> Option<(NOp, usize)> {
    let [Instr::Const(c), alu] = *code.get(pc..pc + 2)? else {
        return None;
    };
    Some((
        NOp::ConstAlu {
            c,
            op: alu_op_of(alu)?,
        },
        2,
    ))
}

fn cmp_op_of(instr: Instr) -> Option<CmpOp> {
    Some(match instr {
        Instr::Eq => CmpOp::Eq,
        Instr::Ne => CmpOp::Ne,
        Instr::LtS => CmpOp::LtS,
        Instr::LtU => CmpOp::LtU,
        Instr::LeS => CmpOp::LeS,
        Instr::LeU => CmpOp::LeU,
        Instr::GtS => CmpOp::GtS,
        Instr::GtU => CmpOp::GtU,
        Instr::GeS => CmpOp::GeS,
        Instr::GeU => CmpOp::GeU,
        _ => return None,
    })
}

fn alu_op_of(instr: Instr) -> Option<AluOp> {
    Some(match instr {
        Instr::Add => AluOp::Add,
        Instr::Sub => AluOp::Sub,
        Instr::Mul => AluOp::Mul,
        Instr::And => AluOp::And,
        Instr::Or => AluOp::Or,
        Instr::Xor => AluOp::Xor,
        Instr::Shl => AluOp::Shl,
        Instr::ShrS => AluOp::ShrS,
        Instr::ShrU => AluOp::ShrU,
        _ => return None,
    })
}

/// Whether the instruction forces a drop to the interpreter (frame and
/// builtin machinery the region executor does not replicate).
fn is_breaker(instr: Instr) -> bool {
    matches!(instr, Instr::Call(_) | Instr::CallBuiltin(_) | Instr::Ret)
}

/// Marks `pc` as a leader and queues it for region construction.
fn note_leader(code_len: usize, leader: &mut [bool], work: &mut Vec<u32>, pc: u32) {
    if (pc as usize) < code_len && !leader[pc as usize] {
        leader[pc as usize] = true;
        work.push(pc);
    }
}

fn lower_func(code: &[Instr]) -> NativeFunc {
    // Pass 1 — leaders: function entry plus every branch target named
    // anywhere in the stream, a conservative superset of the live
    // entry points, which only ever adds regions.
    let mut leader = vec![false; code.len()];
    let mut work: Vec<u32> = Vec::new();
    if !code.is_empty() {
        leader[0] = true;
        work.push(0);
    }
    for &instr in code {
        match instr {
            Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => {
                note_leader(code.len(), &mut leader, &mut work, t)
            }
            _ => {}
        }
    }

    // Pass 2 — build one region per leader. Fall-through successors of
    // conditional terminators and post-call resume points become new
    // leaders as they are discovered; no region ever crosses them (both
    // always follow a terminator/breaker, and no shape contains one
    // before its last slot), so late discovery cannot invalidate an
    // earlier region.
    let mut entry = vec![NO_REGION; code.len()];
    let mut regions: Vec<NativeRegion> = Vec::new();
    // One op buffer for every region of the function: lowering runs at
    // a function's first entry, on a request's time, so it allocates
    // only what the artifact keeps.
    let mut scratch: Vec<NOp> = Vec::new();
    while let Some(start) = work.pop() {
        if entry[start as usize] != NO_REGION {
            continue;
        }
        let region = build_region(code, start, &mut leader, &mut work, &mut scratch);
        if region.ops.is_empty() && region.term == Term::Fall(start) {
            // A leader that is immediately a call/ret lowers to a no-op
            // region falling to itself. Leave the slot unmapped so the
            // executor hands the pc straight to the interpreter instead
            // of spinning on a zero-charge region.
            continue;
        }
        entry[start as usize] = regions.len() as u32;
        regions.push(region);
    }
    NativeFunc { entry, regions }
}

/// Walks the stream from `start` to the region's end, lowering as it
/// goes; newly discovered fall-through leaders go onto `work`. `ops` is
/// the caller's scratch buffer (contents irrelevant on entry).
fn build_region(
    code: &[Instr],
    start: u32,
    leader: &mut [bool],
    work: &mut Vec<u32>,
    ops: &mut Vec<NOp>,
) -> NativeRegion {
    ops.clear();
    let mut done: u64 = 0;
    let mut pc = start as usize;
    let term = loop {
        if pc >= code.len() {
            // Defensive: the lowering never runs off a well-formed
            // function (every path ends in `Ret`), but a malformed one
            // must fail in the interpreter, not here.
            break Term::Fall(pc as u32);
        }
        if pc as u32 != start && leader[pc] {
            // Split at a known entry point; the executor chains into
            // the next region without leaving the fast path.
            break Term::Fall(pc as u32);
        }
        let instr = code[pc];
        if is_breaker(instr) {
            if !matches!(instr, Instr::Ret) {
                note_leader(code.len(), leader, work, pc as u32 + 1);
            }
            break Term::Fall(pc as u32);
        }
        match instr {
            Instr::Jump(t) => {
                done += 1;
                break Term::Jump(t);
            }
            Instr::JumpIfZero(t) => {
                done += 1;
                note_leader(code.len(), leader, work, pc as u32 + 1);
                break Term::JumpIfZero {
                    target: t,
                    fall: pc as u32 + 1,
                };
            }
            Instr::JumpIfNotZero(t) => {
                done += 1;
                note_leader(code.len(), leader, work, pc as u32 + 1);
                break Term::JumpIfNotZero {
                    target: t,
                    fall: pc as u32 + 1,
                };
            }
            _ => {}
        }
        // Shapes are matched on the instructions alone: one may span a
        // leader, and the region starting at that leader is lowered
        // from the same instructions on its own walk.
        if let Some((term, k)) = match_term(code, pc) {
            done += k as u64;
            if let Term::CmpJump { fall, .. } = term {
                note_leader(code.len(), leader, work, fall);
            }
            break term;
        }
        if let Some((op, k)) = match_op(code, pc, done) {
            ops.push(op);
            done += k as u64;
            pc += k;
            continue;
        }
        // Fold a comparison with a directly following branch — the
        // runtime `cmp_arm` peephole, resolved ahead of time. Skipped
        // when the branch is itself a leader (the split wins; the flag
        // is pushed and the next region's terminator pops it, which is
        // observationally the same thing).
        if let Some(op) = cmp_op_of(instr) {
            if pc + 1 < code.len() && !leader[pc + 1] {
                match code[pc + 1] {
                    Instr::JumpIfZero(t) => {
                        done += 2;
                        note_leader(code.len(), leader, work, pc as u32 + 2);
                        break Term::FlagJump {
                            op: op.negate(),
                            target: t,
                            fall: pc as u32 + 2,
                        };
                    }
                    Instr::JumpIfNotZero(t) => {
                        done += 2;
                        note_leader(code.len(), leader, work, pc as u32 + 2);
                        break Term::FlagJump {
                            op,
                            target: t,
                            fall: pc as u32 + 2,
                        };
                    }
                    _ => {}
                }
            }
            ops.push(NOp::Cmp(op));
            done += 1;
            pc += 1;
            continue;
        }
        ops.push(lower_op(instr, pc, done));
        done += 1;
        pc += 1;
    };
    // Every terminator folded its own components into `done` at its
    // break (a `Fall` charges nothing), so the region charge is final.
    // Charges were computed per original op, and grouping neither adds
    // nor removes components, so the charge is unaffected by it.
    NativeRegion {
        charge: done,
        ops: group_locals(ops),
        term,
    }
}

/// Whether `op` is a pure frame-local micro-op: it touches only the
/// operand stack and the frame's byte window, cannot fault, and adds no
/// per-access stat extras. [`is_block_heap`] ops join blocks too.
/// Division stays top-level (its seam is cheap to keep there and it
/// never clusters with access traffic), as do the frame-anchored
/// constant-index access shapes, whose top-level handlers already answer
/// derivation and access with one lookup.
fn is_local_pure(op: &NOp) -> bool {
    matches!(
        op,
        NOp::Const(_)
            | NOp::Dup
            | NOp::Drop
            | NOp::Swap
            | NOp::Rot3
            | NOp::LocalAddr(_)
            | NOp::LoadLocal { .. }
            | NOp::StoreLocal { .. }
            | NOp::Alu(_)
            | NOp::Cmp(_)
            | NOp::Neg
            | NOp::BitNot
            | NOp::Not
            | NOp::Normalize { .. }
            | NOp::IncLocal { .. }
            | NOp::ConstAlu { .. }
            | NOp::StoreLocalPop { .. }
    )
}

/// Whether `op` is a guest-memory micro-op a [`LocalsBlock`] can span:
/// checked loads/stores (served by the executor's view, full access
/// path on a miss) and the pointer ops (which cannot fault).
fn is_block_heap(op: &NOp) -> bool {
    matches!(
        op,
        NOp::Load { .. }
            | NOp::Store { .. }
            | NOp::PtrAdd { .. }
            | NOp::PtrDiff { .. }
            | NOp::EffAddr
    )
}

/// Block-membership predicate for [`group_locals`].
fn is_block_member(op: &NOp) -> bool {
    is_local_pure(op) || is_block_heap(op)
}

/// Groups maximal runs (length ≥ 2) of register-lowerable ops — pure
/// frame-local ops plus the guest-memory ops of [`is_block_heap`] —
/// into register-form [`NOp::Locals`] blocks. Singleton runs stay
/// as-is: the block only pays for its stack-to-register traffic when
/// at least two ops amortize it. Runs whose stack shape exceeds
/// [`LOCALS_REGS`] also stay in individual-op form (the executor's
/// slow path is observationally identical). Blocks are built from a
/// flat op vector, so they never nest.
fn group_locals(ops: &[NOp]) -> Vec<NOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if !is_block_member(&ops[i]) {
            out.push(ops[i].clone());
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < ops.len() && is_block_member(&ops[j]) {
            j += 1;
        }
        match (j - i >= 2).then(|| lower_locals(&ops[i..j])).flatten() {
            Some(block) => out.push(NOp::Locals(block)),
            None => out.extend(ops[i..j].iter().cloned()),
        }
        i = j;
    }
    out
}

/// How a pure-local op shapes the operand stack: `(consumed, effect)`
/// — how many values below the current top it reads or removes, and
/// its net depth change.
fn stack_shape(op: &NOp) -> (i32, i32) {
    match op {
        NOp::Const(_) | NOp::LocalAddr(_) | NOp::LoadLocal { .. } => (0, 1),
        NOp::Dup => (1, 1),
        NOp::Drop | NOp::StoreLocal { .. } | NOp::StoreLocalPop { .. } => (1, -1),
        NOp::Swap => (2, 0),
        NOp::Rot3 => (3, 0),
        NOp::Alu(_) | NOp::Cmp(_) => (2, -1),
        NOp::Neg | NOp::BitNot | NOp::Not | NOp::Normalize { .. } | NOp::ConstAlu { .. } => (1, 0),
        NOp::IncLocal { .. } => (0, 0),
        NOp::Load { .. } | NOp::EffAddr => (1, 0),
        NOp::Store { .. } => (2, -2),
        NOp::PtrAdd { .. } | NOp::PtrDiff { .. } => (2, -1),
        other => unreachable!("non-member op in a locals run: {other:?}"),
    }
}

/// Lowers a block-member run to register form. The run is
/// straight-line, so the operand-stack depth at every op is static:
/// stack slot `d` (relative to the block's deepest excursion below its
/// entry depth) becomes scratch register `d`, and every push/pop turns
/// into a fixed register index. A `Drop` vanishes entirely — the dead
/// value simply never makes it back to the operand stack. Guest
/// accesses bake their fault seam and static spill count per site, so
/// a mid-block fault can reproduce the interpreted operand-stack image
/// exactly; a `GPtrAdd` feeding the immediately following access fuses
/// into the combined `GIdx*` form ([`push_access`]: one placement
/// lookup for the pair, the same peephole the constant-index shapes
/// get). Returns `None` when the run's stack shape exceeds
/// [`LOCALS_REGS`].
fn lower_locals(run: &[NOp]) -> Option<LocalsBlock> {
    // Pass 1: the run's depth envelope relative to its entry depth.
    let mut depth: i32 = 0;
    let mut lowest: i32 = 0;
    let mut highest: i32 = 0;
    for op in run {
        let (consumed, effect) = stack_shape(op);
        lowest = lowest.min(depth - consumed);
        depth += effect;
        highest = highest.max(depth);
    }
    let bias = -lowest;
    if highest + bias > LOCALS_REGS as i32 {
        return None;
    }
    // Pass 2: emit, mapping relative depth `d` to register `d + bias`.
    let r = |d: i32| (d + bias) as u8;
    let mut ops = Vec::with_capacity(run.len());
    let mut d: i32 = 0;
    for op in run {
        match *op {
            NOp::Const(c) => {
                ops.push(ROp::Const { dst: r(d), c });
                d += 1;
            }
            NOp::Dup => {
                ops.push(ROp::Copy {
                    dst: r(d),
                    src: r(d - 1),
                });
                d += 1;
            }
            NOp::Drop => d -= 1,
            NOp::Swap => ops.push(ROp::Swap {
                a: r(d - 1),
                b: r(d - 2),
            }),
            NOp::Rot3 => ops.push(ROp::Rot3 {
                a: r(d - 3),
                b: r(d - 2),
                c: r(d - 1),
            }),
            NOp::LocalAddr(off) => {
                ops.push(ROp::Addr { dst: r(d), off });
                d += 1;
            }
            NOp::LoadLocal { off, size, signed } => {
                ops.push(ROp::Load {
                    dst: r(d),
                    off,
                    size,
                    signed,
                });
                d += 1;
            }
            NOp::StoreLocal { off, size } | NOp::StoreLocalPop { off, size } => {
                ops.push(ROp::Store {
                    src: r(d - 1),
                    off,
                    size,
                });
                d -= 1;
            }
            NOp::Alu(op) => {
                ops.push(ROp::Alu {
                    dst: r(d - 2),
                    a: r(d - 2),
                    b: r(d - 1),
                    op,
                });
                d -= 1;
            }
            NOp::Cmp(op) => {
                ops.push(ROp::Cmp {
                    dst: r(d - 2),
                    a: r(d - 2),
                    b: r(d - 1),
                    op,
                });
                d -= 1;
            }
            NOp::Neg => ops.push(ROp::Neg { at: r(d - 1) }),
            NOp::BitNot => ops.push(ROp::BitNot { at: r(d - 1) }),
            NOp::Not => ops.push(ROp::Not { at: r(d - 1) }),
            NOp::Normalize { size, signed } => ops.push(ROp::Normalize {
                at: r(d - 1),
                size,
                signed,
            }),
            NOp::ConstAlu { c, op } => ops.push(ROp::ConstAlu {
                at: r(d - 1),
                c,
                op,
            }),
            NOp::IncLocal {
                off,
                delta,
                size,
                signed,
            } => ops.push(ROp::Inc {
                off,
                delta,
                size,
                signed,
            }),
            NOp::Load { size, signed, at } => {
                // Pops the address, pushes the value: same slot. The
                // spill image on a fault is everything below the
                // popped address.
                let load = ROp::GLoad {
                    at: r(d - 1),
                    size,
                    signed,
                    seam: at,
                    spill: r(d - 1),
                };
                push_access(&mut ops, load);
            }
            NOp::Store { size, at } => {
                let store = ROp::GStore {
                    addr: r(d - 1),
                    val: r(d - 2),
                    size,
                    seam: at,
                    spill: r(d - 2),
                };
                push_access(&mut ops, store);
                d -= 2;
            }
            NOp::PtrAdd { esz } => {
                ops.push(ROp::GPtrAdd {
                    dst: r(d - 2),
                    ptr: r(d - 2),
                    count: r(d - 1),
                    esz,
                });
                d -= 1;
            }
            NOp::PtrDiff { esz } => {
                ops.push(ROp::GPtrDiff {
                    dst: r(d - 2),
                    a: r(d - 2),
                    b: r(d - 1),
                    esz,
                });
                d -= 1;
            }
            NOp::EffAddr => ops.push(ROp::GEffAddr { at: r(d - 1) }),
            ref other => unreachable!("non-member op in a locals run: {other:?}"),
        }
    }
    Some(LocalsBlock {
        consumes: bias as u8,
        produces: (d + bias) as u8,
        ops: ops.into_boxed_slice(),
    })
}

/// Appends a `GLoad`/`GStore` to a block under construction, fusing it
/// with a directly preceding `GPtrAdd` that derived its address into
/// the combined one-lookup form. The pointer register the pair threads
/// through is dead afterwards (the access pops it), so the rewrite is
/// invisible: on the hit path one in-unit containment check proves both
/// steps, and on the miss path the executor runs the exact two-step
/// sequence.
fn push_access(ops: &mut Vec<ROp>, access: ROp) {
    let fused = match (ops.last(), access) {
        (
            Some(&ROp::GPtrAdd {
                dst,
                ptr,
                count,
                esz,
            }),
            ROp::GLoad {
                at,
                size,
                signed,
                seam,
                spill,
            },
        ) if at == dst => ROp::GIdxLoad {
            dst,
            ptr,
            count,
            esz,
            size,
            signed,
            seam,
            spill,
        },
        (
            Some(&ROp::GPtrAdd {
                dst,
                ptr,
                count,
                esz,
            }),
            ROp::GStore {
                addr,
                val,
                size,
                seam,
                spill,
            },
        ) if addr == dst => ROp::GIdxStore {
            ptr,
            count,
            val,
            esz,
            size,
            seam,
            spill,
        },
        _ => {
            ops.push(access);
            return;
        }
    };
    *ops.last_mut().expect("matched a preceding GPtrAdd") = fused;
}

/// Lowers one plain (non-terminator, non-breaker) instruction. `pc` is
/// the instruction's own index; `done` the components charged before it.
fn lower_op(instr: Instr, pc: usize, done: u64) -> NOp {
    let at = seam(pc, done, 1);
    match instr {
        Instr::Const(v) => NOp::Const(v),
        Instr::Dup => NOp::Dup,
        Instr::Drop => NOp::Drop,
        Instr::Swap => NOp::Swap,
        Instr::Rot3 => NOp::Rot3,
        Instr::LocalAddr(off) => NOp::LocalAddr(off),
        Instr::GlobalAddr(i) => NOp::GlobalAddr(i),
        Instr::StrAddr(i) => NOp::StrAddr(i),
        Instr::Load(size, signed) => NOp::Load { size, signed, at },
        Instr::Store(size) => NOp::Store { size, at },
        Instr::LoadLocal(off, size, signed) => NOp::LoadLocal { off, size, signed },
        Instr::StoreLocal(off, size) => NOp::StoreLocal { off, size },
        Instr::DivS | Instr::DivU | Instr::RemS | Instr::RemU => NOp::Div {
            signed: matches!(instr, Instr::DivS | Instr::RemS),
            rem: matches!(instr, Instr::RemS | Instr::RemU),
            at,
        },
        Instr::Neg => NOp::Neg,
        Instr::BitNot => NOp::BitNot,
        Instr::Not => NOp::Not,
        Instr::Normalize(size, signed) => NOp::Normalize { size, signed },
        Instr::EffAddr => NOp::EffAddr,
        Instr::PtrAdd(esz) => NOp::PtrAdd { esz },
        Instr::PtrDiff(esz) => NOp::PtrDiff { esz },
        other => {
            if let Some(op) = alu_op_of(other) {
                NOp::Alu(op)
            } else if let Some(op) = cmp_op_of(other) {
                NOp::Cmp(op)
            } else {
                unreachable!("terminator/breaker reached lower_op: {other:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, CompiledProgram};

    /// Every function's artifact, each forced through the first-entry
    /// accessor.
    fn lower_all(program: &CompiledProgram) -> Vec<NativeFunc> {
        let native = NativeProgram::new(program.funcs.len());
        let funcs = program.funcs.iter().enumerate();
        funcs
            .map(|(i, f)| native.func(i, &f.code).clone())
            .collect()
    }

    fn lower(src: &str) -> Vec<NativeFunc> {
        lower_all(&compile_source(src).unwrap())
    }

    /// The first function's top-level micro-ops, all regions.
    fn top_ops(native: &[NativeFunc]) -> Vec<&NOp> {
        native[0].regions.iter().flat_map(|r| &r.ops).collect()
    }

    fn has_term(native: &[NativeFunc], want: impl Fn(&Term) -> bool) -> bool {
        native[0].regions.iter().any(|r| want(&r.term))
    }

    const LOOP_SRC: &str = "long spin(long n) { long i; long acc = 0; \
                            for (i = 0; i < n; i++) acc = acc + i; return acc; }";

    #[test]
    fn lowering_is_deterministic() {
        assert_eq!(lower(LOOP_SRC), lower(LOOP_SRC));
    }

    #[test]
    fn entry_table_is_aligned_and_indices_are_valid() {
        let program = compile_source(LOOP_SRC).unwrap();
        for (f, nf) in program.funcs.iter().zip(&lower_all(&program)) {
            assert_eq!(nf.entry.len(), f.code.len());
            for &r in &nf.entry {
                assert!(r == NO_REGION || (r as usize) < nf.regions.len());
            }
            // Every region is reachable through the entry table.
            for idx in 0..nf.regions.len() as u32 {
                assert!(nf.entry.contains(&idx), "orphan region {idx}");
            }
        }
    }

    #[test]
    fn loop_lowers_to_chained_regions_with_fused_terminators() {
        let native = lower(LOOP_SRC);
        let nf = &native[0];
        let has_cmp_head = nf
            .regions
            .iter()
            .any(|r| matches!(r.term, Term::CmpJump { .. }));
        let has_latch = nf
            .regions
            .iter()
            .any(|r| matches!(r.term, Term::IncJump { .. }));
        assert!(has_cmp_head, "loop head should lower to Term::CmpJump");
        assert!(has_latch, "loop latch should lower to Term::IncJump");
        // The head's fall-through (the loop body) must itself start a
        // region, so a full iteration never leaves the native path.
        for r in &nf.regions {
            if let Term::CmpJump { target, fall, .. } = r.term {
                assert_ne!(nf.entry[fall as usize], NO_REGION, "body has a region");
                assert_ne!(nf.entry[target as usize], NO_REGION, "exit has a region");
            }
        }
    }

    #[test]
    fn charges_match_component_sums() {
        // A straight-line function: one region covering everything up to
        // the Ret breaker, charging exactly the component count.
        let src = "int f() { int x = 3; int y = 4; return x + y; }";
        let nf = &lower(src)[0];
        let entry_region = &nf.regions[nf.entry[0] as usize];
        // The region ends at the Ret; its charge equals the instruction
        // slots it covers (every slot is one component).
        let covered = match entry_region.term {
            Term::Fall(at) => at as u64,
            ref t => panic!("straight-line function should fall to Ret, got {t:?}"),
        };
        assert_eq!(entry_region.charge, covered);
    }

    #[test]
    fn pure_local_runs_group_into_register_blocks() {
        // A dispatch-bound body of local expression arithmetic: the
        // whole thing must collapse into register-form Locals blocks
        // with no ungrouped pure-local runs left at top level.
        let src = "long f(long n) { long t = 0; long u = 1; \
                   t = t + u + 3; t = t + 5; u = u + t; return t + u; }";
        let native = lower(src);
        let mut blocks = 0usize;
        for region in &native[0].regions {
            let mut run = 0usize;
            for op in &region.ops {
                match op {
                    NOp::Locals(block) => {
                        blocks += 1;
                        assert!(!block.ops.is_empty(), "empty block");
                        // Statement-shaped code is self-contained: a
                        // block never digs below its entry stack, and
                        // leaves at most the `return` expression's one
                        // value behind for the Ret breaker.
                        assert_eq!(block.consumes, 0, "statement block consumes");
                        assert!(block.produces <= 1, "statement block produces");
                        for r in block.ops.iter() {
                            if let ROp::Alu { dst, a, b, .. } = r {
                                assert!(
                                    (*dst as usize) < LOCALS_REGS
                                        && (*a as usize) < LOCALS_REGS
                                        && (*b as usize) < LOCALS_REGS,
                                    "register index out of range"
                                );
                            }
                        }
                        run = 0;
                    }
                    op if is_local_pure(op) => {
                        run += 1;
                        assert!(run < 2, "ungrouped run of pure local ops");
                    }
                    _ => run = 0,
                }
            }
        }
        assert!(blocks > 0, "local-only body should form a block");
    }

    #[test]
    fn register_lowering_resolves_stack_slots() {
        // `t + u` is LoadLocal t, LoadLocal u, Alu(Add): registers 0
        // and 1, the add landing in 0, the store reading 0.
        let run = [
            NOp::LoadLocal {
                off: 0,
                size: AccessSize::B8,
                signed: true,
            },
            NOp::LoadLocal {
                off: 8,
                size: AccessSize::B8,
                signed: true,
            },
            NOp::Alu(AluOp::Add),
            NOp::StoreLocal {
                off: 0,
                size: AccessSize::B8,
            },
        ];
        let block = lower_locals(&run).expect("shallow run lowers");
        assert_eq!(block.consumes, 0);
        assert_eq!(block.produces, 0);
        assert_eq!(
            &*block.ops,
            &[
                ROp::Load {
                    dst: 0,
                    off: 0,
                    size: AccessSize::B8,
                    signed: true
                },
                ROp::Load {
                    dst: 1,
                    off: 8,
                    size: AccessSize::B8,
                    signed: true
                },
                ROp::Alu {
                    dst: 0,
                    a: 0,
                    b: 1,
                    op: AluOp::Add
                },
                ROp::Store {
                    src: 0,
                    off: 0,
                    size: AccessSize::B8
                },
            ]
        );
    }

    #[test]
    fn register_lowering_biases_entry_stack_consumption() {
        // A run that digs below its entry depth: the consumed values
        // become the low registers and the balance is reported so the
        // executor can move them in and out of the operand stack.
        let run = [
            NOp::StoreLocal {
                off: 0,
                size: AccessSize::B8,
            },
            NOp::Const(7),
        ];
        let block = lower_locals(&run).expect("shallow run lowers");
        assert_eq!(block.consumes, 1, "the store pops an entry value");
        assert_eq!(block.produces, 1, "the const pushes one back");
        assert_eq!(
            &*block.ops,
            &[
                ROp::Store {
                    src: 0,
                    off: 0,
                    size: AccessSize::B8
                },
                ROp::Const { dst: 0, c: 7 },
            ]
        );
    }

    #[test]
    fn impure_ops_split_locals_blocks() {
        // The division can trap, so it must stay top-level with its
        // seam; the pure prefix and suffix group around it.
        let src = "long f(long a, long b) { long x = a + 1; \
                   long q = x / b; long y = q + 2; return y + x; }";
        let native = lower(src);
        let ops: Vec<&NOp> = native[0].regions.iter().flat_map(|r| &r.ops).collect();
        assert!(
            ops.iter().any(|op| matches!(op, NOp::Div { .. })),
            "division must stay a top-level op"
        );
        assert!(
            ops.iter().any(|op| matches!(op, NOp::Locals(_))),
            "pure neighbours should still group"
        );
    }

    #[test]
    fn heap_accesses_group_into_memory_blocks() {
        // The `mem_cost` copy shape: the loop body's `dst[i] = src[i]`
        // is address arithmetic plus two checked accesses — all block
        // members, so load, store and the frame-local index reads must
        // sit in one block, the address+access pairs fused into the
        // combined index ops.
        let src = "long f(long n) { long src[4]; long dst[4]; long i; \
                   for (i = 0; i < n; i++) dst[i] = src[i]; return dst[0]; }";
        let native = lower(src);
        let copy_body = native[0]
            .regions
            .iter()
            .flat_map(|r| &r.ops)
            .filter_map(|op| match op {
                NOp::Locals(b) => Some(b),
                _ => None,
            })
            .find(|b| b.ops.iter().any(|r| matches!(r, ROp::GIdxStore { .. })))
            .expect("the indexed store must fuse into a GIdxStore inside a block");
        assert!(
            copy_body
                .ops
                .iter()
                .any(|r| matches!(r, ROp::GIdxLoad { .. })),
            "the indexed load must fuse into the same block: {copy_body:?}"
        );
        assert!(
            copy_body.ops.iter().any(|r| matches!(r, ROp::Load { .. })),
            "the block must span frame-local reads and guest accesses: {copy_body:?}"
        );
    }

    #[test]
    fn heap_lowering_pins_seam_and_spill() {
        // LocalAddr pushes the address (depth 0 → 1); the load pops it
        // and pushes the value back into the same register. A fault at
        // the load must surface the baked seam with an empty spill
        // image (nothing sat below the popped address).
        let seam = FaultAt { pc: 7, spent: 3 };
        let run = [
            NOp::LocalAddr(16),
            NOp::Load {
                size: AccessSize::B8,
                signed: true,
                at: seam,
            },
        ];
        let block = lower_locals(&run).expect("heap run lowers");
        assert_eq!(block.consumes, 0);
        assert_eq!(block.produces, 1);
        assert_eq!(
            &*block.ops,
            &[
                ROp::Addr { dst: 0, off: 16 },
                ROp::GLoad {
                    at: 0,
                    size: AccessSize::B8,
                    signed: true,
                    seam,
                    spill: 0
                },
            ]
        );
    }

    #[test]
    fn ptr_add_access_pairs_fuse_into_idx_ops() {
        // value, base, index, PtrAdd, Store — the classic indexed-store
        // pattern. The PtrAdd's derived pointer feeds the store
        // directly, so the pair must fuse into one GIdxStore carrying
        // the access's seam and the store's spill image (just the
        // not-yet-consumed value... nothing: the store pops both).
        let seam = FaultAt { pc: 11, spent: 4 };
        let run = [
            NOp::Const(5),
            NOp::LocalAddr(0),
            NOp::LoadLocal {
                off: 32,
                size: AccessSize::B8,
                signed: true,
            },
            NOp::PtrAdd { esz: 8 },
            NOp::Store {
                size: AccessSize::B8,
                at: seam,
            },
        ];
        let block = lower_locals(&run).expect("heap run lowers");
        assert_eq!(block.consumes, 0);
        assert_eq!(block.produces, 0);
        assert_eq!(
            &*block.ops,
            &[
                ROp::Const { dst: 0, c: 5 },
                ROp::Addr { dst: 1, off: 0 },
                ROp::Load {
                    dst: 2,
                    off: 32,
                    size: AccessSize::B8,
                    signed: true
                },
                ROp::GIdxStore {
                    ptr: 1,
                    count: 2,
                    val: 0,
                    esz: 8,
                    size: AccessSize::B8,
                    seam,
                    spill: 0
                },
            ]
        );
    }

    #[test]
    fn spin_loop_fuses_head_body_and_step() {
        let native = lower(
            "int main() { int xs[2]; long i; long acc = 0; long n = 4; \
             for (i = 0; i < n; i++) acc += xs[1]; return 0; }",
        );
        assert!(
            has_term(&native, |t| matches!(t, Term::CmpJump { .. })),
            "loop head: {native:?}"
        );
        assert!(
            top_ops(&native)
                .iter()
                .any(|op| matches!(op, NOp::IdxAccum { .. })),
            "accumulate body lowers whole: {native:?}"
        );
        assert!(
            has_term(&native, |t| matches!(t, Term::IncJump { .. })),
            "loop latch (step + back-jump): {native:?}"
        );
    }

    #[test]
    fn accum_mega_op_folds_index_and_keeps_smaller_fusions_elsewhere() {
        // `acc += xs[5]` with int elements folds to a byte delta of 20;
        // a non-accumulate read of the same array still takes the
        // smaller `IdxLoad`.
        let native = lower(
            "int main() { int xs[2]; long acc = 0; \
             acc += xs[5]; return (int) (acc + xs[1]); }",
        );
        let ops = top_ops(&native);
        let delta = ops.iter().find_map(|op| match op {
            NOp::IdxAccum { delta, .. } => Some(*delta),
            _ => None,
        });
        assert_eq!(delta, Some(20), "{ops:?}");
        assert!(
            ops.iter().any(|op| matches!(op, NOp::IdxLoad { .. })),
            "{ops:?}"
        );
    }

    #[test]
    fn accum_fault_seam_covers_five_components() {
        let src = "long f() { long acc = 0; long xs[2]; acc += xs[5]; return acc; }";
        let native = lower(src);
        let accum = top_ops(&native)
            .iter()
            .find_map(|op| match op {
                NOp::IdxAccum { at, .. } => Some(*at),
                _ => None,
            })
            .expect("accumulate statement should lower to IdxAccum");
        // The load is component 4 of the 9-wide shape: the seam must
        // surface at the pc behind it with the prefix plus exactly five
        // components charged (the entry region starts at pc 0, so the
        // prefix is the shape's own pc).
        let code = &compile_source(src).unwrap().funcs[0].code;
        let head = code
            .windows(2)
            .position(|w| matches!(w, [Instr::LoadLocal(..), Instr::LocalAddr(_)]))
            .unwrap();
        assert_eq!(accum, seam(head, head as u64, 5));
    }

    #[test]
    fn const_index_store_fuses() {
        let native = lower("int main() { int xs[2]; xs[5] = 7; return 0; }");
        let ops = top_ops(&native);
        assert!(
            ops.iter()
                .any(|op| matches!(op, NOp::IdxStore { delta: 20, .. })),
            "{ops:?}"
        );
    }

    #[test]
    fn pointer_deref_fuses() {
        let native = lower("int main() { int x; int *p; p = &x; *p = 3; return *p; }");
        let ops = top_ops(&native);
        assert!(
            ops.iter().any(|op| matches!(op, NOp::LoadLoad { .. })),
            "{ops:?}"
        );
    }

    #[test]
    fn division_never_fuses() {
        // `Const 3; DivS` is not a `ConstAlu`: Div/Rem keep their own
        // micro-op and seam so the divide-by-zero fault pc stays
        // architectural.
        let native = lower("int main() { int a; a = 9; return a / 3 + a % 2; }");
        let ops = top_ops(&native);
        let divs = ops.iter().filter(|op| matches!(op, NOp::Div { .. }));
        assert_eq!(divs.count(), 2, "{ops:?}");
        let const_alu = ops.iter().any(|op| match op {
            NOp::ConstAlu { .. } => true,
            NOp::Locals(b) => b.ops.iter().any(|r| matches!(r, ROp::ConstAlu { .. })),
            _ => false,
        });
        assert!(!const_alu, "{ops:?}");
    }

    #[test]
    fn cmp_jump_folds_branch_sense() {
        // `while (i < n)` compiles to LtS + JumpIfZero(end): the
        // terminator must jump on the *negated* comparison.
        let native =
            lower("int main() { long i; long n = 3; i = 0; while (i < n) { i++; } return 0; }");
        assert!(
            has_term(&native, |t| matches!(
                t,
                Term::CmpJump { op: CmpOp::GeS, .. }
            )),
            "{native:?}"
        );
    }
}
