//! Native-tier lowering — the `ExecTier::Native` region pass.
//!
//! The interpreter pays one fetch/decode/dispatch per opcode plus
//! per-dispatch fuel and counter bookkeeping. This pass compiles each
//! function *past* fetch/decode, once, the first time a machine enters
//! it ([`NativeProgram::func`]): it partitions the baseline instruction
//! stream into **regions** — maximal straight-line runs entered only at
//! known leaders — and lowers every region to one array of
//! register-form micro-ops ([`NOp`]) plus a terminator ([`Term`]). A
//! region is straight-line, so the operand-stack depth at each of its
//! instructions is static: stack slot `d` becomes scratch register `d`
//! and every push and pop a fixed register index. The VM executes a
//! region with no per-instruction dispatch and no operand-stack traffic:
//! accounting for the whole region is charged once at entry, and the
//! ops run back to back over the register file.
//!
//! ## The folding pass
//!
//! What keeps a region short is one pass, applied as each op is
//! appended ([`Fold::push`]) and again when a terminator is attached
//! ([`Fold::seal`]). Charges and fault seams are per *baseline
//! instruction*, so an op that disappears takes no cycle with it. Four
//! folds:
//!
//! 1. **Operands.** An op's pointer, index, value or compare operand is
//!    a [`Src`]: a register, a frame slot, a constant or a frame
//!    address. An operand naming a register that a `Mov` last filled
//!    from a slot, constant or address names that source instead, and a
//!    `Mov` nobody reads before its register dies is deleted — so the
//!    `LoadLocal`/`Const`/`Dup` feeding an op cost nothing.
//! 2. **Pointer-add + access.** A `PtrAdd` whose result only feeds the
//!    next load or store becomes one indexed access answered by one
//!    placement lookup.
//! 3. **Normalize.** Re-normalizing a value already in range (after a
//!    same-or-narrower extending load, after a comparison) disappears;
//!    `slot = normalize(slot ± c)` is one [`NOp::Inc`].
//! 4. **Terminator.** A region-tail comparison moves into the branch, a
//!    branch on two constants becomes a jump, and a tail `Inc` rides in
//!    the terminator ([`Term::IncBranch`], the loop latch).
//!
//! Two rules keep this invisible. *Spill:* a faulting op spills
//! registers `0..spill` back to the operand stack, so a `Mov` is only
//! deleted when no op that can fault sits between it and the point its
//! register dies — every register below a later seam's `spill` holds
//! its interpreted value. *Alias:* a frame read never moves across a
//! checked store (which may reach the slot through a pointer) nor
//! across a `StoreLocal`/`Inc` of overlapping bytes.
//!
//! ## Linked regions
//!
//! After all of a function's regions exist, terminators carry their
//! successors' region indices ([`Succ`]; `entry[]` serves only the
//! interpreter → native entry), and a region ending in a jump to an
//! op-less region takes that region's terminator with it, charges
//! summed ([`absorb`]): the loop latch carries the loop head's compare,
//! and the `&&`/`||` short-circuit's `Const; JumpIfZero` folds to a
//! jump. The absorbed region still exists for whoever enters at its pc.
//! Then each 8-byte frame-slot operand is sealed to the kind the
//! executor decodes in one step ([`Src::Slot8`]).
//!
//! ## Counted loops
//!
//! Then a region looping onto itself through a fused `k++` latch on an
//! 8-byte counter `k`, its body exactly a copy `d[k] = s[k]` whose passes
//! tile both ranges (`counted`), ends in [`Term::Counted`]; any other
//! loop keeps its [`Term::IncBranch`]. When the latch points back, the
//! executor proves how many more passes are hits and moves them at once.
//! Its proof (`NativeView::prove`) holds each pass to:
//!
//! * **unit** — each access stays in its base's unit (Standard: window);
//! * **window** — each access lies in the committed window;
//! * **store alias** — no store meets a frame slot the loop reads
//!   (counter, bound, base), no load the counter;
//! * **counter and `k·esz` overflow** — both exact in `i64`;
//! * **fuel** — the fuel left covers each pass's whole charge.
//!
//! A batch stops before the first pass it cannot prove, and its trip
//! count is one closed form ([`CountedLoop::trips`]). It is one `memmove`
//! when the stores start at or below the loads or miss them: no pass then
//! reads a byte an earlier pass wrote, so moving the original bytes is
//! what the passes store. The last pass's value, the one its register
//! ends with, is loaded first, as the move may overwrite it (stores less
//! than a width below the loads). Fewer than two proven passes, or stores
//! above overlapping loads, run the region one pass at a time: violations,
//! manufactured values, fault seams and fuel-short exits stay ordinary.
//!
//! ## Superblocks
//!
//! Last, each region runs on along its `Goto` or branch-fall successors,
//! copying their ops in (at most four segments, 24 ops): a crossed branch
//! becomes an [`NOp::Exit`] (after a fused latch's [`NOp::Inc`]), copied
//! seams are charged the prefix before them. Segments are statement-shaped
//! (an exit pushes nothing), never a counted loop nor one region twice,
//! and every original region stays: the interpreter enters at every pc.
//!
//! ## Deopt contract
//!
//! The artifact adds no observable state of its own; every observable
//! surface must stay byte-identical to the baseline tier:
//!
//! * **Entry gate.** A region is entered only when the remaining fuel
//!   covers its whole pre-computed [`NativeRegion::charge`] (an absorbed
//!   successor's and a superblock's chain included; a side exit refunds
//!   like a fault seam, and its target is gated alike). Otherwise the VM
//!   falls back to the interpreter, which runs the baseline stream one
//!   instruction at a time, so fuel exhaustion lands exactly where it
//!   does on the baseline tier.
//! * **Fault seams.** Ops that can fault (guest loads/stores, division)
//!   carry a [`FaultAt`] — the architectural pc the fault must surface
//!   at and the components the instruction stream would have charged by
//!   that point — and a `spill` count. On a fault the VM refunds
//!   `charge - spent`, pushes registers `0..spill` back as the operand
//!   stack the interpreter would have left, and unwinds with the
//!   baseline tier's exact counters, stack, and log.
//! * **Boundaries.** Calls, builtins, returns, and any pc without a
//!   region drop to the interpreter, which runs the very same bytecode
//!   — the artifact is attached to the image's one instruction stream,
//!   it never replaces it. A region whose depth envelope exceeds
//!   [`NATIVE_REGS`] is simply not lowered.

use std::sync::OnceLock;

use foc_memory::AccessSize;

use crate::bytecode::{AluOp, CmpOp, Instr};

/// Entry-table and successor sentinel: no region starts at this pc.
pub const NO_REGION: u32 = u32::MAX;

/// Scratch registers a region may use; a region whose operand-stack
/// envelope is deeper stays interpreted (none observed in practice: the
/// cap comfortably exceeds any expression depth the servers reach).
pub const NATIVE_REGS: usize = 64;

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
    /// The counted loops [`Term::Counted`] indexes.
    pub loops: Vec<CountedLoop>,
}

/// A counted loop's `k++` latch, kept aside so [`Term`] keeps its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountedLoop {
    /// Frame offset of the 8-byte counter `k`.
    pub counter: u32,
    /// What the stepped `k` is compared against.
    pub bound: Src,
    /// `k op bound`: the loop goes round again when it holds.
    pub op: CmpOp,
    /// The region itself.
    pub back: Succ,
    /// Where the loop leaves to.
    pub exit: Succ,
}

impl CountedLoop {
    /// The frame bytes `[start, end)` the loop over `ops` reads: the
    /// counter's first, then the bound's and each base pointer's.
    pub fn reads(self, ops: &[NOp]) -> impl Iterator<Item = (u64, u64)> + '_ {
        let bases = ops.iter().filter_map(|op| match *op {
            NOp::IdxLoad { ptr, .. } | NOp::IdxStore { ptr, .. } => Some(ptr),
            _ => None,
        });
        let srcs = [Src::Slot8(self.counter), self.bound].into_iter();
        srcs.chain(bases).filter_map(|s| match s {
            Src::Slot { off, size, .. } => Some((off as u64, off as u64 + size.bytes())),
            Src::Slot8(off) => Some((off as u64, off as u64 + 8)),
            _ => None,
        })
    }

    /// How many of up to `n` passes from counter `k` (the latch held for
    /// `k`) run: the first after which `k op bound` fails, and `exit`,
    /// else `n` and `back`; `k + n` must be exact in `i64` (the batch's
    /// proof). The compare's truth changes only where the counter steps
    /// onto 0 (the unsigned wrap), `bound` or `bound + 1`, so the first
    /// failing pass is pass 1 or the one reaching one of those (a gap
    /// past `u64::MAX` lies beyond `n`).
    pub fn trips(&self, k: i64, bound: i64, n: u64) -> (u64, Succ) {
        let (k, b) = (k as i128, bound as i128);
        let beyond = |p: i128| (p - k).clamp(0, u64::MAX as i128) as u64;
        let fails = |i: &u64| (1..=n).contains(i) && !self.op.eval((k + *i as i128) as i64, bound);
        let passes = [1, beyond(0), beyond(b), beyond(b + 1)];
        let first = passes.into_iter().filter(fails).min();
        first.map_or((n, self.back), |i| (i, self.exit))
    }
}

/// A maximal straight-line run (or a superblock of several): ops plus a
/// terminator. `consumes` operand-stack values enter as registers
/// `0..consumes` (`consumes - 1` is the old top of stack); after the
/// terminator, registers `0..produces` go back in index order.
/// Statement-shaped code has both at zero and no operand-stack traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeRegion {
    /// Total components (fuel units / instruction counts) the region
    /// charges — the exact sum its instructions would charge when
    /// interpreted, terminator (and an absorbed successor) included.
    pub charge: u64,
    /// Operand-stack values consumed at entry.
    pub consumes: u8,
    /// Operand-stack values produced at exit.
    pub produces: u8,
    /// Dispatches one pass through the region costs the executor: the
    /// entry, each op, the terminator (`ExecProfile::native_ops`).
    pub dispatches: u32,
    /// The straight-line ops.
    pub ops: Vec<NOp>,
    /// How the region ends.
    pub term: Term,
}

/// Where a faulting op surfaces architecturally: the pc the fault is
/// reported at, and the components the instruction stream would have
/// charged when it faulted there (the VM refunds `charge - spent`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAt {
    /// Architectural fault pc (same pc the interpreter's seam uses).
    pub pc: u32,
    /// Components legitimately charged at the fault point.
    pub spent: u32,
}

/// An operand. Frame offsets were validated against the frame layout by
/// the front end, so the executor indexes the committed frame window
/// directly; register indices are below [`NATIVE_REGS`]. A kind must
/// remove more decode than it adds, and two measurements draw the line.
/// Global and string addresses as kinds added an arm to every operand's
/// decode to save a rare dispatch: `mc_copy` −5%, nothing elsewhere, so
/// those two stay ops. [`Src::Slot8`] adds an arm too, but takes a whole
/// decode level — the second match, on `(size, signed)` — off the
/// operand a copy loop reads six times per iteration: `mc_copy` +12%.
/// One kind per width × sign gained nothing over it, so narrower slots
/// stay [`Src::Slot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// A scratch register.
    Reg(u8),
    /// A scalar frame slot, read and extended like `LoadLocal`.
    Slot {
        /// Frame offset.
        off: u32,
        /// Scalar width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
    },
    /// A whole 8-byte frame slot: one fixed-width window read, nothing to
    /// extend. Only lowering's last step makes one (the folds want `size`).
    Slot8(u32),
    /// A constant.
    Const(i64),
    /// The address of the frame slot at this offset (`LocalAddr`).
    Addr(u32),
}

/// A register-form micro-op. Ops with a `seam` can fault; their `spill`
/// is the number of low registers that were live operand-stack values
/// below the instruction's own operands (`u32` sizes keep an op in 64 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NOp {
    /// `r[dst] = src` (`Const`, `Dup`, `LocalAddr`, `LoadLocal`).
    Mov {
        /// Destination register.
        dst: u8,
        /// The value.
        src: Src,
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
    /// `r[dst]` = a global's address (resolved through the machine).
    GlobalAddr {
        /// Destination register.
        dst: u8,
        /// Global index.
        idx: u32,
    },
    /// `r[dst]` = an interned string's address.
    StrAddr {
        /// Destination register.
        dst: u8,
        /// String index.
        idx: u32,
    },
    /// Scalar store straight into the frame window.
    StoreLocal {
        /// The value.
        src: Src,
        /// Frame offset.
        off: u32,
        /// Width.
        size: AccessSize,
    },
    /// `slot = normalize(slot + delta)` against the frame window
    /// (`i++;`, `++i;`, `i--;`; touches no registers).
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
    /// `r[dst] = op(a, b)`, non-trapping.
    Alu {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Operation.
        op: AluOp,
    },
    /// `r[dst] = op(a, b)` as a 0/1 flag.
    Cmp {
        /// Destination register.
        dst: u8,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Comparison.
        op: CmpOp,
    },
    /// Division/remainder (traps on a zero divisor).
    Div {
        /// Destination register.
        dst: u8,
        /// Dividend register.
        a: u8,
        /// Divisor register.
        b: u8,
        /// Signed variant.
        signed: bool,
        /// Remainder instead of quotient.
        rem: bool,
        /// Divide-by-zero seam.
        seam: FaultAt,
        /// Live registers to spill on a fault.
        spill: u8,
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
    /// In-place effective-address fold (cannot fault).
    EffAddr {
        /// Operand register.
        at: u8,
    },
    /// Pointer difference (effective addresses of both; cannot fault).
    PtrDiff {
        /// Destination register.
        dst: u8,
        /// Lhs register.
        a: u8,
        /// Rhs register.
        b: u8,
        /// Element size.
        esz: u32,
    },
    /// Checked pointer arithmetic: `r[dst] = ptr_add(ptr, count * esz)`.
    /// A result that leaves its unit runs the interpreter's exact
    /// routine (out-of-bounds interning included) — it cannot fault, so
    /// it needs no seam.
    PtrAdd {
        /// Destination register.
        dst: u8,
        /// Base pointer.
        ptr: Src,
        /// Element count.
        count: Src,
        /// Element size.
        esz: u32,
    },
    /// Checked guest load. The executor completes it through its view
    /// of the space (placement memo, else one lookup); a view miss
    /// takes the full access path, violation continuation included.
    Load {
        /// Destination register.
        dst: u8,
        /// The address.
        addr: Src,
        /// Access width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// Fault seam.
        seam: FaultAt,
        /// Live registers to spill on a fault.
        spill: u8,
    },
    /// Checked guest store; contract as [`NOp::Load`].
    Store {
        /// The address.
        addr: Src,
        /// The value.
        val: Src,
        /// Access width.
        size: AccessSize,
        /// Fault seam.
        seam: FaultAt,
        /// Live registers to spill on a fault.
        spill: u8,
    },
    /// A pointer add whose derived pointer only feeds this load — the
    /// indexed access. One placement lookup answers both the derivation
    /// and the access on the hit path (units never overlap, so in-unit
    /// containment of the target proves both); a miss runs the exact
    /// two-step sequence.
    IdxLoad {
        /// Destination register.
        dst: u8,
        /// Base pointer.
        ptr: Src,
        /// Element count.
        count: Src,
        /// Element size.
        esz: u32,
        /// Loaded width.
        size: AccessSize,
        /// Sign-extend when set.
        signed: bool,
        /// The load's fault seam (`spent` covers the pointer add).
        seam: FaultAt,
        /// Live registers to spill on a fault.
        spill: u8,
    },
    /// Store twin of [`NOp::IdxLoad`].
    IdxStore {
        /// Base pointer.
        ptr: Src,
        /// Element count.
        count: Src,
        /// The value.
        val: Src,
        /// Element size.
        esz: u32,
        /// Stored width.
        size: AccessSize,
        /// The store's fault seam (`spent` covers the pointer add).
        seam: FaultAt,
        /// Live registers to spill on a fault.
        spill: u8,
    },
    /// A superblock's crossed branch: when `op` holds, refund as a seam
    /// would, take back the dispatches skipped, and leave for `to`.
    Exit {
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Comparison, normalized to leave-when-true.
        op: CmpOp,
        /// Where the chain continues when it leaves.
        to: Succ,
        /// Components charged through the crossed branch.
        spent: u32,
        /// Dispatches through this exit: the entry and the ops up to it.
        ran: u32,
    },
}

const _: () = assert!(std::mem::size_of::<NOp>() <= 64);

/// A terminator's successor: the pc, for the interpreter to resume at
/// when the chain stops there, and the region the executor continues
/// in (or [`NO_REGION`]: a call, builtin or return boundary, or a
/// region too deep to lower). That is the region starting at `pc`
/// unless it was an op-less jump, which the edge threads through:
/// `skip` is what the skipped regions charge, taken (and gated) with
/// the target's own charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Succ {
    /// Architectural pc.
    pub pc: u32,
    /// Index into [`NativeFunc::regions`].
    pub region: u32,
    /// Components charged by the jumps threaded through on the way.
    pub skip: u32,
}

/// How a region ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Term {
    /// `Jump`, or a straight-line fall to a leader or to a pc the
    /// interpreter must handle (which charges nothing).
    Goto(Succ),
    /// Compare and branch: `JumpIfZero`/`JumpIfNotZero` (`a` against
    /// constant zero) or a comparison folded with its branch. Jumps to
    /// `taken` when `op` holds.
    Branch {
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Comparison, normalized to jump-when-true.
        op: CmpOp,
        /// Successor when `op` holds.
        taken: Succ,
        /// Successor otherwise.
        fall: Succ,
    },
    /// An [`NOp::Inc`] followed by a [`Term::Branch`]: the counted
    /// loop's latch with the loop head's compare absorbed.
    IncBranch {
        /// Frame offset of the incremented slot.
        off: u32,
        /// Increment.
        delta: i64,
        /// Slot width.
        size: AccessSize,
        /// Slot signedness.
        signed: bool,
        /// Left operand, read after the increment.
        a: Src,
        /// Right operand, read after the increment.
        b: Src,
        /// Comparison, jump taken when true.
        op: CmpOp,
        /// Successor when `op` holds.
        taken: Succ,
        /// Successor otherwise.
        fall: Succ,
    },
    /// The latch of the counted loop at this [`NativeFunc::loops`] index.
    Counted(u32),
}

/// Sign- or zero-extends the low `size` bytes of `raw`.
#[inline]
pub fn extend(raw: u64, size: AccessSize, signed: bool) -> i64 {
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

/// How an op uses one of its operands ([`NOp::visit`]).
enum Use<'a> {
    /// Reads a register.
    Read(u8),
    /// Writes a register.
    Write(u8),
    /// Reads a foldable operand.
    Src(&'a mut Src),
}

impl NOp {
    /// Every operand of the op, reads before writes — the one table the
    /// folding pass's questions ([`NOp::reads`], [`NOp::writes`]) and
    /// its rewrites are answered from.
    fn visit(&mut self, mut f: impl FnMut(Use<'_>)) {
        use Use::{Read, Src as S, Write};
        match self {
            NOp::Mov { dst, src } => {
                f(S(src));
                f(Write(*dst));
            }
            NOp::Rot3 { a, b, c } => [*a, *b, *c].into_iter().for_each(|r| {
                f(Read(r));
                f(Write(r));
            }),
            NOp::GlobalAddr { dst, .. } | NOp::StrAddr { dst, .. } => f(Write(*dst)),
            NOp::StoreLocal { src, .. } => f(S(src)),
            NOp::Inc { .. } => {}
            NOp::Alu { dst, a, b, .. } | NOp::Cmp { dst, a, b, .. } => {
                f(S(a));
                f(S(b));
                f(Write(*dst));
            }
            NOp::Div { dst, a, b, .. } | NOp::PtrDiff { dst, a, b, .. } => {
                f(Read(*a));
                f(Read(*b));
                f(Write(*dst));
            }
            NOp::Neg { at }
            | NOp::BitNot { at }
            | NOp::Not { at }
            | NOp::Normalize { at, .. }
            | NOp::EffAddr { at } => {
                f(Read(*at));
                f(Write(*at));
            }
            NOp::PtrAdd {
                dst, ptr, count, ..
            }
            | NOp::IdxLoad {
                dst, ptr, count, ..
            } => {
                f(S(ptr));
                f(S(count));
                f(Write(*dst));
            }
            NOp::Load { dst, addr, .. } => {
                f(S(addr));
                f(Write(*dst));
            }
            NOp::Store {
                addr: a, val: b, ..
            }
            | NOp::Exit { a, b, .. } => {
                f(S(a));
                f(S(b));
            }
            NOp::IdxStore {
                ptr, count, val, ..
            } => {
                f(S(ptr));
                f(S(count));
                f(S(val));
            }
        }
    }

    /// The op copied behind a superblock prefix charging `by`.
    fn shifted(mut self, by: u32) -> NOp {
        if let Some(seam) = self.seam() {
            seam.spent += by;
        }
        self
    }

    fn reads(mut self, r: u8) -> bool {
        let mut hit = false;
        self.visit(|u| match u {
            Use::Read(x) | Use::Src(&mut Src::Reg(x)) => hit |= x == r,
            _ => {}
        });
        hit
    }

    fn writes(mut self, r: u8) -> bool {
        let mut hit = false;
        self.visit(|u| {
            if let Use::Write(x) = u {
                hit |= x == r;
            }
        });
        hit
    }

    /// The fault seam, which exactly the ops that can fault carry.
    fn seam(&mut self) -> Option<&mut FaultAt> {
        match self {
            NOp::Div { seam, .. }
            | NOp::Load { seam, .. }
            | NOp::Store { seam, .. }
            | NOp::IdxLoad { seam, .. }
            | NOp::IdxStore { seam, .. } => Some(seam),
            _ => None,
        }
    }

    /// Whether the op may change the `size` frame bytes at `off`: a
    /// checked store may reach any slot through a pointer.
    fn clobbers(&self, off: u32, size: AccessSize) -> bool {
        match *self {
            NOp::Store { .. } | NOp::IdxStore { .. } => true,
            NOp::StoreLocal {
                off: o, size: s, ..
            }
            | NOp::Inc {
                off: o, size: s, ..
            } => (o as u64) < off as u64 + size.bytes() && (off as u64) < o as u64 + s.bytes(),
            _ => false,
        }
    }
}

impl Term {
    /// The compare operands, for the folding pass.
    fn operands(&mut self) -> impl Iterator<Item = &mut Src> {
        match self {
            Term::Goto(_) | Term::Counted(_) => [None, None],
            Term::Branch { a, b, .. } | Term::IncBranch { a, b, .. } => [Some(a), Some(b)],
        }
        .into_iter()
        .flatten()
    }

    fn reads(mut self, r: u8) -> bool {
        self.operands().any(|s| *s == Src::Reg(r))
    }

    /// The successors, for linking (before the region's loop counts).
    fn succs(&mut self) -> impl Iterator<Item = &mut Succ> {
        match self {
            Term::Goto(s) => [Some(s), None],
            Term::Counted(_) => [None, None],
            Term::Branch { taken, fall, .. } | Term::IncBranch { taken, fall, .. } => {
                [Some(taken), Some(fall)]
            }
        }
        .into_iter()
        .flatten()
    }
}

/// A region under construction: the ops so far, folded as they arrive.
struct Fold {
    out: Vec<NOp>,
}

impl Fold {
    /// Index of the op that last wrote `r`.
    fn last_writer(&self, r: u8) -> Option<usize> {
        self.out.iter().rposition(|op| op.writes(r))
    }

    /// Fold 1, reading side: an operand naming a register that a `Mov`
    /// last filled names the `Mov`'s source instead, when that source
    /// still reads the same at the end of `out` (alias rule).
    fn propagate(&self, s: &mut Src) {
        while let Src::Reg(r) = *s {
            let Some(k) = self.last_writer(r) else { return };
            let NOp::Mov { src, .. } = self.out[k] else {
                return;
            };
            let since = &self.out[k + 1..];
            let stale = match src {
                Src::Const(_) | Src::Addr(_) => false,
                Src::Slot { off, size, .. } => since.iter().any(|op| op.clobbers(off, size)),
                Src::Slot8(off) => since.iter().any(|op| op.clobbers(off, AccessSize::B8)),
                Src::Reg(y) => since.iter().any(|op| op.writes(y)),
            };
            if stale {
                return;
            }
            *s = src;
        }
    }

    /// Fold 1, deleting side: register `r` dies here unread by the op
    /// being appended; if a `Mov` filled it and nothing since reads it
    /// or can fault (spill rule), the `Mov` goes.
    fn kill(&mut self, r: u8) {
        for k in (0..self.out.len()).rev() {
            let mut op = self.out[k];
            if op.writes(r) {
                if matches!(op, NOp::Mov { .. }) {
                    self.out.remove(k);
                }
                return;
            }
            if op.reads(r) || op.seam().is_some() {
                return;
            }
        }
    }

    /// Whether register `r` already holds a value `Normalize(size,
    /// signed)` would leave alone.
    fn in_range(&self, r: u8, size: AccessSize, signed: bool) -> bool {
        let fits = |m: AccessSize, m_signed: bool| {
            (m == size && m_signed == signed) || (m.bytes() < size.bytes() && (!m_signed || signed))
        };
        let Some(k) = self.last_writer(r) else {
            return false;
        };
        match self.out[k] {
            NOp::Cmp { .. } | NOp::Not { .. } => true,
            NOp::Mov {
                src: Src::Const(c), ..
            } => extend(c as u64, size, signed) == c,
            NOp::Mov {
                src:
                    Src::Slot {
                        size: m,
                        signed: m_signed,
                        ..
                    },
                ..
            }
            | NOp::Load {
                size: m,
                signed: m_signed,
                ..
            }
            | NOp::IdxLoad {
                size: m,
                signed: m_signed,
                ..
            }
            | NOp::Normalize {
                size: m,
                signed: m_signed,
                ..
            } => fits(m, m_signed),
            _ => false,
        }
    }

    /// Appends `op`, which takes the operand-stack depth from `before`
    /// to `after` (registers `after..before` die, as does whatever its
    /// destination held), applying folds 1–3.
    fn push(&mut self, mut op: NOp, before: u8, after: u8) {
        op.visit(|u| {
            if let Use::Src(s) = u {
                self.propagate(s);
            }
        });
        // Fold 2: the pointer add the access's address came from.
        if let Some(&NOp::PtrAdd {
            dst,
            ptr,
            count,
            esz,
        }) = self.out.last()
        {
            let indexed = match op {
                NOp::Load {
                    dst: to,
                    addr,
                    size,
                    signed,
                    seam,
                    spill,
                } if addr == Src::Reg(dst) => Some(NOp::IdxLoad {
                    dst: to,
                    ptr,
                    count,
                    esz,
                    size,
                    signed,
                    seam,
                    spill,
                }),
                NOp::Store {
                    addr,
                    val,
                    size,
                    seam,
                    spill,
                } if addr == Src::Reg(dst) => Some(NOp::IdxStore {
                    ptr,
                    count,
                    val,
                    esz,
                    size,
                    seam,
                    spill,
                }),
                _ => None,
            };
            if let Some(indexed) = indexed {
                self.out.pop();
                op = indexed;
            }
        }
        // Fold 3: a re-normalization that changes nothing, and the
        // increment statement `slot = normalize(slot ± c)`.
        match op {
            NOp::Normalize { at, size, signed } if self.in_range(at, size, signed) => return,
            NOp::Normalize { at, size, .. } => {
                // Only the last of two narrowings in a row shows.
                if matches!(self.out.last(), Some(&NOp::Normalize { at: prev, size: wider, .. })
                    if prev == at && wider.bytes() >= size.bytes())
                {
                    self.out.pop();
                }
            }
            NOp::StoreLocal {
                src: Src::Reg(x),
                off,
                size,
            } if x >= after => {
                if let Some(inc) = self.inc_of(x, off, size) {
                    op = inc;
                }
            }
            _ => {}
        }
        let mut dying = [None; 3];
        let mut n = 0;
        op.visit(|u| {
            if let Use::Write(r) = u {
                dying[n] = Some(r);
                n += 1;
            }
        });
        for r in (after..before).chain(dying.into_iter().flatten()) {
            if !op.reads(r) {
                self.kill(r);
            }
        }
        self.out.push(op);
    }

    /// The tail `Alu { x = slot ± c } [; Normalize x]` that a store of
    /// `x` back to the same slot completes, taken off `out` as one
    /// [`NOp::Inc`]. Narrow slots must re-normalize to their own type
    /// (what `Inc` does); 8-byte slots never do.
    fn inc_of(&mut self, x: u8, off: u32, size: AccessSize) -> Option<NOp> {
        let mut alu_at = self.out.len().checked_sub(1)?;
        let mut renormalized = None;
        if size != AccessSize::B8 {
            let NOp::Normalize {
                at,
                size: n,
                signed,
            } = self.out[alu_at]
            else {
                return None;
            };
            if at != x || n != size {
                return None;
            }
            renormalized = Some(signed);
            alu_at = alu_at.checked_sub(1)?;
        }
        let NOp::Alu {
            dst,
            a:
                Src::Slot {
                    off: o,
                    size: s,
                    signed,
                },
            b: Src::Const(c),
            op,
        } = self.out[alu_at]
        else {
            return None;
        };
        let delta = match op {
            AluOp::Add => c,
            AluOp::Sub => c.wrapping_neg(),
            _ => return None,
        };
        if dst != x || o != off || s != size || renormalized.is_some_and(|n| n != signed) {
            return None;
        }
        self.out.truncate(alu_at);
        Some(NOp::Inc {
            off,
            delta,
            size,
            signed,
        })
    }

    /// Attaches a terminator that takes the depth from `before` to
    /// `after`, applying folds 1 and 4.
    fn seal(&mut self, mut term: Term, before: u8, after: u8) -> Term {
        if let Term::Branch { .. } = term {
            for s in term.operands() {
                self.propagate(s);
            }
        }
        for r in after..before {
            if !term.reads(r) {
                self.kill(r);
            }
        }
        // A flag tested against zero is its comparison (or, for `== 0`,
        // the opposite one) — again for the `(a <= b) != 0` the front
        // end emits for `&&`/`||` operands.
        while let (
            Term::Branch {
                a: Src::Reg(x),
                b: Src::Const(0),
                op: sense @ (CmpOp::Eq | CmpOp::Ne),
                taken,
                fall,
            },
            Some(&NOp::Cmp { dst, a, b, op }),
        ) = (term, self.out.last())
        {
            if dst != x || x < after {
                break;
            }
            self.out.pop();
            let op = if sense == CmpOp::Ne { op } else { op.negate() };
            term = Term::Branch {
                a,
                b,
                op,
                taken,
                fall,
            };
        }
        match (term, self.out.last()) {
            (
                Term::Branch {
                    a: Src::Const(a),
                    b: Src::Const(b),
                    op,
                    taken,
                    fall,
                },
                _,
            ) => Term::Goto(if op.eval(a, b) { taken } else { fall }),
            (
                Term::Branch {
                    a,
                    b,
                    op,
                    taken,
                    fall,
                },
                Some(&NOp::Inc {
                    off,
                    delta,
                    size,
                    signed,
                }),
            ) => {
                self.out.pop();
                Term::IncBranch {
                    off,
                    delta,
                    size,
                    signed,
                    a,
                    b,
                    op,
                    taken,
                    fall,
                }
            }
            _ => term,
        }
    }
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

/// How an instruction shapes the operand stack: `(consumed, effect)` —
/// how many values below the current top it reads or removes, and its
/// net depth change.
fn stack_shape(instr: Instr) -> (i32, i32) {
    match instr {
        Instr::Const(_)
        | Instr::LocalAddr(_)
        | Instr::GlobalAddr(_)
        | Instr::StrAddr(_)
        | Instr::LoadLocal(..) => (0, 1),
        Instr::Dup => (1, 1),
        Instr::Drop | Instr::StoreLocal(..) | Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => {
            (1, -1)
        }
        Instr::Rot3 => (3, 0),
        Instr::Neg
        | Instr::BitNot
        | Instr::Not
        | Instr::Normalize(..)
        | Instr::EffAddr
        | Instr::Load(..) => (1, 0),
        Instr::Store(_) => (2, -2),
        Instr::Jump(_) | Instr::Call(_) | Instr::CallBuiltin(_) | Instr::Ret => (0, 0),
        // Binary arithmetic, comparisons and the pointer pair.
        _ => (2, -1),
    }
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
    // always follow a terminator/breaker), so late discovery cannot
    // invalidate an earlier region.
    let mut entry = vec![NO_REGION; code.len()];
    let mut regions: Vec<NativeRegion> = Vec::new();
    while let Some(start) = work.pop() {
        if entry[start as usize] != NO_REGION {
            continue;
        }
        // A leader that is immediately a call/ret, or whose region is
        // too deep for the register file, stays unmapped: the executor
        // hands the pc straight to the interpreter.
        if let Some(region) = build_region(code, start, &mut leader, &mut work) {
            entry[start as usize] = regions.len() as u32;
            regions.push(region);
        }
    }

    // Pass 3 — link: successors learn their region indices, then each
    // region absorbs the op-less regions it jumps to.
    for region in &mut regions {
        for s in region.term.succs() {
            s.region = entry.get(s.pc as usize).copied().unwrap_or(NO_REGION);
        }
    }
    for at in 0..regions.len() {
        absorb(&mut regions, at);
    }
    // Pass 4 — thread the edges, then seal: every fold is done, so what
    // lowering knows about an 8-byte slot is decided once, not per run.
    // Then a sealed self-loop may count ("Counted loops").
    let seal = |s: &mut Src| {
        if let Src::Slot { off, size, .. } = *s {
            if size == AccessSize::B8 {
                *s = Src::Slot8(off);
            }
        }
    };
    let mut loops = Vec::new();
    for at in 0..regions.len() {
        let mut term = regions[at].term;
        term.succs().for_each(|s| thread(&regions, s));
        term.operands().for_each(seal);
        regions[at].term = term;
        for op in &mut regions[at].ops {
            op.visit(|u| {
                if let Use::Src(s) = u {
                    seal(s);
                }
            });
        }
        if let Some(lp) = counted(&regions[at], at as u32) {
            regions[at].term = Term::Counted(loops.len() as u32);
            loops.push(lp);
        }
    }
    // Pass 5 — superblocks, which also count each region's dispatches.
    superblocks(&mut regions);
    NativeFunc {
        entry,
        regions,
        loops,
    }
}

/// The loop region `at` counts, if any: a `k++` latch on an 8-byte slot
/// `k` back into `at` (unthreaded) and out elsewhere, no stack traffic,
/// and a body that is exactly the copy `d[k] = s[k]` — an indexed load
/// stored back, element size = width, each base an address or a slot
/// clear of `k`, the bound a constant too.
fn counted(region: &NativeRegion, at: u32) -> Option<CountedLoop> {
    let Term::IncBranch {
        off,
        delta: 1,
        size: AccessSize::B8,
        a,
        b,
        op,
        taken,
        fall,
        ..
    } = region.term
    else {
        return None;
    };
    let k = Src::Slot8(off);
    let (op, bound) = if a == k { (op, b) } else { (op.mirror(), a) };
    let (op, back, exit) = if taken.region == at {
        (op, taken, fall)
    } else {
        (op.negate(), fall, taken)
    };
    let [NOp::IdxLoad {
        dst,
        ptr: from,
        count: i,
        esz,
        size,
        ..
    }, NOp::IdxStore {
        ptr: to,
        count: j,
        val,
        esz: e,
        size: s,
        ..
    }] = region.ops[..]
    else {
        return None;
    };
    let base = |p: Src| !matches!(p, Src::Reg(_) | Src::Const(_));
    let width = size.bytes() as u32;
    let copy = (i, j, val) == (k, k, Src::Reg(dst))
        && (esz, e, s) == (width, width, size)
        && base(from)
        && base(to);
    let lp = CountedLoop {
        counter: off,
        bound,
        op,
        back,
        exit,
    };
    let clear_of_k = |(lo, hi)| hi <= off as u64 || lo >= off as u64 + 8;
    let fits = copy
        && (a == k || b == k)
        && (back.region, back.skip) == (at, 0)
        && exit.region != at
        && (region.consumes, region.produces) == (0, 0)
        && !matches!(bound, Src::Reg(_))
        && lp.reads(&region.ops).skip(1).all(clear_of_k);
    fits.then_some(lp)
}

/// Most segments one superblock chains, and most ops it holds.
const SUPER_SEGMENTS: usize = 4;
const SUPER_OPS: usize = 24;

/// Extends every region along its `Goto` or branch-fall successors
/// ("Superblocks"): each chain is walked over the regions as lowered (an
/// extension only appends ops and replaces the terminator), then copied.
fn superblocks(regions: &mut [NativeRegion]) {
    let own: Vec<_> = regions
        .iter()
        .map(|r| (r.ops.len(), r.term, r.charge))
        .collect();
    // The successor a segment runs on into, and the ops crossing it adds.
    let through = |term: Term| match term {
        Term::Goto(s) => Some((s, 0)),
        Term::Branch { fall, .. } => Some((fall, 1)),
        Term::IncBranch { fall, .. } => Some((fall, 2)),
        Term::Counted(_) => None,
    };
    for at in 0..regions.len() {
        let (mut chain, mut segs, (mut len, mut term, _)) = ([0; SUPER_SEGMENTS], 0, own[at]);
        while let Some((next, crossing)) = through(term).filter(|_| segs + 1 < SUPER_SEGMENTS) {
            let n = next.region as usize;
            let fits = regions.get(n).is_some_and(|seg| {
                (seg.consumes, seg.produces) == (0, 0)
                    && !matches!(own[n].1, Term::Counted(_))
                    && len + crossing + own[n].0 <= SUPER_OPS
            });
            if !fits || n == at || chain[..segs].contains(&n) || regions[at].produces != 0 {
                break;
            }
            (chain[segs], segs, len, term) = (n, segs + 1, len + crossing + own[n].0, own[n].1);
        }
        let (mut ops, (_, mut term, mut charge)) = (std::mem::take(&mut regions[at].ops), own[at]);
        ops.reserve_exact(len - ops.len());
        for &n in &chain[..segs] {
            let exit = |a, b, op, to, ahead: usize| NOp::Exit {
                a,
                b,
                op,
                to,
                spent: charge as u32,
                ran: (ops.len() + ahead) as u32 + 2,
            };
            let (next, crossing) = match term {
                Term::Goto(next) => (next, [None, None]),
                Term::Branch {
                    a,
                    b,
                    op,
                    taken,
                    fall,
                } => (fall, [None, Some(exit(a, b, op, taken, 0))]),
                Term::IncBranch {
                    off,
                    delta,
                    size,
                    signed,
                    a,
                    b,
                    op,
                    taken,
                    fall,
                } => {
                    let inc = NOp::Inc {
                        off,
                        delta,
                        size,
                        signed,
                    };
                    (fall, [Some(inc), Some(exit(a, b, op, taken, 1))])
                }
                Term::Counted(_) => unreachable!("a counted loop ends no chain"),
            };
            ops.extend(crossing.into_iter().flatten());
            charge += next.skip as u64;
            let copy = regions[n].ops[..own[n].0].iter();
            ops.extend(copy.map(|op| op.shifted(charge as u32)));
            (term, charge) = (own[n].1, charge + own[n].2);
        }
        let region = &mut regions[at];
        region.dispatches = ops.len() as u32 + 2;
        (region.ops, region.term, region.charge) = (ops, term, charge);
    }
}

/// Points `s` past the op-less, stack-neutral jumps it lands on (what
/// [`absorb`] leaves of a short-circuit's `Const; JumpIfZero`), their
/// charges riding on the edge. Short of fuel for the lot, the chain
/// stops at `s.pc` with none of it taken.
fn thread(regions: &[NativeRegion], s: &mut Succ) {
    for _ in 0..ABSORB_DEPTH {
        let Some(via) = regions.get(s.region as usize) else {
            return;
        };
        let Term::Goto(next) = via.term else { return };
        let neutral = via.ops.is_empty() && via.consumes == 0 && via.produces == 0;
        if !neutral || next.region as usize >= regions.len() {
            return;
        }
        s.region = next.region;
        s.skip += via.charge as u32 + next.skip;
    }
}

/// Most op-less successors one region takes in or one edge threads
/// through: the short-circuit chains the front end emits are two or
/// three deep, and a bound keeps a cycle of empty jumps from absorbing
/// itself forever.
const ABSORB_DEPTH: usize = 4;

/// While region `at` ends in a jump to an op-less region, takes that
/// region's terminator (its registers renumbered onto `at`'s exit
/// stack) and charge, and folds again: the latch gains the loop head's
/// compare, a `Const` feeding a `JumpIfZero` becomes a plain jump. The
/// fuel gate then covers both; short of it, the interpreter runs the
/// instructions one at a time and reaches the absorbed region's pc,
/// whose own region is untouched.
fn absorb(regions: &mut [NativeRegion], at: usize) {
    for _ in 0..ABSORB_DEPTH {
        let Term::Goto(Succ { region: n, .. }) = regions[at].term else {
            return;
        };
        let produces = regions[at].produces;
        // `NO_REGION` is past every index.
        let Some(next) = regions.get(n as usize) else {
            return;
        };
        if n as usize == at || !next.ops.is_empty() || next.consumes > produces {
            return;
        }
        let shift = produces - next.consumes;
        let (mut term, charge, after) = (next.term, next.charge, next.produces + shift);
        for s in term.operands() {
            if let Src::Reg(r) = s {
                *r += shift;
            }
        }
        let region = &mut regions[at];
        let mut fold = Fold {
            out: std::mem::take(&mut region.ops),
        };
        region.term = fold.seal(term, produces, after);
        region.ops = fold.out;
        region.charge += charge;
        region.produces = after;
    }
}

/// Lowers the region starting at `start`; newly discovered fall-through
/// leaders go onto `work`. `None` when nothing would be lowered (the
/// leader is a call or return), the region is too deep, or an element
/// size exceeds `u32`.
fn build_region(
    code: &[Instr],
    start: u32,
    leader: &mut [bool],
    work: &mut Vec<u32>,
) -> Option<NativeRegion> {
    // Extent and depth envelope relative to the entry depth. Every
    // instruction is one component, so the components charged before
    // `pc` are `pc - start`.
    let (mut depth, mut lowest, mut highest) = (0i32, 0i32, 0i32);
    let mut end = start as usize;
    let branches = loop {
        // Running off the end is defensive: every path of a well-formed
        // function ends in `Ret`, and a malformed one must fail in the
        // interpreter, not here.
        if end >= code.len() || (end != start as usize && leader[end]) {
            break false;
        }
        let instr = code[end];
        if is_breaker(instr) {
            if !matches!(instr, Instr::Ret) {
                note_leader(code.len(), leader, work, end as u32 + 1);
            }
            break false;
        }
        let (consumed, effect) = stack_shape(instr);
        lowest = lowest.min(depth - consumed);
        depth += effect;
        highest = highest.max(depth);
        match instr {
            Instr::Jump(_) => break true,
            Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) => {
                note_leader(code.len(), leader, work, end as u32 + 1);
                break true;
            }
            _ => end += 1,
        }
    };
    if (end == start as usize && !branches) || (highest - lowest) as usize > NATIVE_REGS {
        return None;
    }

    let mut fold = Fold {
        out: Vec::with_capacity(end - start as usize),
    };
    let consumes = (-lowest) as u8;
    let mut d = consumes;
    for (pc, &instr) in code.iter().enumerate().take(end).skip(start as usize) {
        let seam = FaultAt {
            pc: pc as u32 + 1,
            spent: (pc - start as usize) as u32 + 1,
        };
        let (_, effect) = stack_shape(instr);
        let after = (d as i32 + effect) as u8;
        // `top` is the old top of stack, `under` the value below it;
        // a push lands in `d`.
        let (top, under) = (d.wrapping_sub(1), d.wrapping_sub(2));
        let op = match instr {
            Instr::Const(c) => NOp::Mov {
                dst: d,
                src: Src::Const(c),
            },
            Instr::Dup => NOp::Mov {
                dst: d,
                src: Src::Reg(top),
            },
            Instr::Drop => {
                fold.kill(top);
                d = after;
                continue;
            }
            Instr::Rot3 => NOp::Rot3 {
                a: d - 3,
                b: under,
                c: top,
            },
            Instr::LocalAddr(off) => NOp::Mov {
                dst: d,
                src: Src::Addr(off),
            },
            Instr::GlobalAddr(idx) => NOp::GlobalAddr { dst: d, idx },
            Instr::StrAddr(idx) => NOp::StrAddr { dst: d, idx },
            Instr::LoadLocal(off, size, signed) => NOp::Mov {
                dst: d,
                src: Src::Slot { off, size, signed },
            },
            Instr::StoreLocal(off, size) => NOp::StoreLocal {
                src: Src::Reg(top),
                off,
                size,
            },
            Instr::DivS | Instr::DivU | Instr::RemS | Instr::RemU => NOp::Div {
                dst: under,
                a: under,
                b: top,
                signed: matches!(instr, Instr::DivS | Instr::RemS),
                rem: matches!(instr, Instr::RemS | Instr::RemU),
                seam,
                spill: under,
            },
            Instr::Neg => NOp::Neg { at: top },
            Instr::BitNot => NOp::BitNot { at: top },
            Instr::Not => NOp::Not { at: top },
            Instr::Normalize(size, signed) => NOp::Normalize {
                at: top,
                size,
                signed,
            },
            Instr::EffAddr => NOp::EffAddr { at: top },
            Instr::PtrAdd(esz) => NOp::PtrAdd {
                dst: under,
                ptr: Src::Reg(under),
                count: Src::Reg(top),
                esz: u32::try_from(esz).ok()?,
            },
            Instr::PtrDiff(esz) => NOp::PtrDiff {
                dst: under,
                a: under,
                b: top,
                esz: u32::try_from(esz).ok()?,
            },
            // The spill image on a fault is everything below the
            // popped operands.
            Instr::Load(size, signed) => NOp::Load {
                dst: top,
                addr: Src::Reg(top),
                size,
                signed,
                seam,
                spill: top,
            },
            Instr::Store(size) => NOp::Store {
                addr: Src::Reg(top),
                val: Src::Reg(under),
                size,
                seam,
                spill: under,
            },
            other => {
                let (dst, a, b) = (under, Src::Reg(under), Src::Reg(top));
                if let Some(op) = alu_op_of(other) {
                    NOp::Alu { dst, a, b, op }
                } else if let Some(op) = cmp_op_of(other) {
                    NOp::Cmp { dst, a, b, op }
                } else {
                    unreachable!("terminator/breaker inside a region: {other:?}")
                }
            }
        };
        fold.push(op, d, after);
        d = after;
    }

    let unlinked = |pc: u32| Succ {
        pc,
        region: NO_REGION,
        skip: 0,
    };
    let mut charge = (end - start as usize) as u64;
    let (term, after) = if branches {
        charge += 1;
        let fall = unlinked(end as u32 + 1);
        let zero_test = |op, t| Term::Branch {
            a: Src::Reg(d.wrapping_sub(1)),
            b: Src::Const(0),
            op,
            taken: unlinked(t),
            fall,
        };
        match code[end] {
            Instr::Jump(t) => (Term::Goto(unlinked(t)), d),
            Instr::JumpIfZero(t) => (zero_test(CmpOp::Eq, t), d - 1),
            Instr::JumpIfNotZero(t) => (zero_test(CmpOp::Ne, t), d - 1),
            other => unreachable!("not a branch: {other:?}"),
        }
    } else {
        (Term::Goto(unlinked(end as u32)), d)
    };
    let term = fold.seal(term, d, after);
    Some(NativeRegion {
        charge,
        consumes,
        produces: after,
        dispatches: 0,
        ops: fold.out,
        term,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, CompiledProgram};
    use AccessSize::{B4, B8};

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

    /// The first function's ops, all regions.
    fn all_ops(native: &[NativeFunc]) -> Vec<NOp> {
        let regions = native[0].regions.iter();
        regions.flat_map(|r| r.ops.iter().copied()).collect()
    }

    fn has_term(native: &[NativeFunc], want: impl Fn(&Term) -> bool) -> bool {
        native[0].regions.iter().any(|r| want(&r.term))
    }

    /// The region entered at pc 0 of a hand-assembled stream.
    fn entry_region(code: &[Instr]) -> NativeRegion {
        let nf = lower_func(code);
        nf.regions[nf.entry[0] as usize].clone()
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
        let nf = &lower(LOOP_SRC)[0];
        // The head compares two slots in place, first thing: a side exit
        // out of the loop, the superblock running on into the body...
        let head = nf
            .regions
            .iter()
            .find(|r| matches!(r.ops.first(), Some(NOp::Exit { .. })))
            .expect("loop head lowers to a leading side exit");
        let NOp::Exit {
            a: Src::Slot8(_),
            b: Src::Slot8(_),
            ..
        } = head.ops[0]
        else {
            panic!("head compares i and n in place: {head:?}");
        };
        // ...whose latch is the head's terminator: increment, compare and
        // both successors in one, looping back into the body's region.
        let Term::IncBranch {
            delta: 1,
            fall: again,
            ..
        } = head.term
        else {
            panic!("latch fuses step, back-jump and compare: {head:?}");
        };
        let body = &nf.regions[again.region as usize];
        assert_eq!(head.ops[1..], body.ops[..], "the body is copied in");
    }

    #[test]
    fn pure_local_runs_group_into_register_blocks() {
        // A dispatch-bound body of local expression arithmetic: one
        // region, and after folding every statement is its ALU ops and
        // one store — no `Mov` left to feed them.
        let src = "long f(long n) { long t = 0; long u = 1; \
                   t = t + u + 3; t = t + 5; u = u + t; return t + u; }";
        let native = lower(src);
        assert_eq!(native[0].regions.len(), 1);
        let region = &native[0].regions[0];
        // Statement-shaped code is self-contained: the region never digs
        // below its entry stack, and leaves only the `return`
        // expression's one value behind for the Ret breaker.
        assert_eq!((region.consumes, region.produces), (0, 1));
        let kinds: Vec<&str> = region
            .ops
            .iter()
            .map(|op| match op {
                NOp::Alu { dst: 0, .. } => "alu",
                NOp::StoreLocal { .. } => "store",
                other => panic!("unfolded op {other:?}"),
            })
            .collect();
        let want = "store store alu alu store alu store alu store alu";
        assert_eq!(kinds.join(" "), want, "{region:?}");
    }

    #[test]
    fn register_lowering_resolves_stack_slots() {
        // `t = t + u` is LoadLocal t, LoadLocal u, Add, StoreLocal t:
        // registers 0 and 1 in stack form; folded, the add reads both
        // slots itself, and the store reads the sum.
        let region = entry_region(&[
            Instr::LoadLocal(0, B8, true),
            Instr::LoadLocal(8, B8, true),
            Instr::Add,
            Instr::StoreLocal(0, B8),
            Instr::Const(0),
            Instr::Ret,
        ]);
        let [NOp::Alu { a, b, .. }, NOp::StoreLocal { .. }, NOp::Mov { .. }] = region.ops[..]
        else {
            panic!("{region:?}");
        };
        assert_eq!((a, b), (Src::Slot8(0), Src::Slot8(8)));
    }

    #[test]
    fn register_lowering_biases_entry_stack_consumption() {
        // A region that digs below its entry depth (here: the value a
        // call left): the consumed values become the low registers and
        // the balance is reported so the executor can move them in and
        // out of the operand stack.
        let region = entry_region(&[Instr::StoreLocal(0, B8), Instr::Const(7), Instr::Ret]);
        assert_eq!(region.consumes, 1, "the store pops an entry value");
        assert_eq!(region.produces, 1, "the const pushes one back");
    }

    #[test]
    fn impure_ops_split_locals_blocks() {
        // The division can trap: it stays an op of its own — in the same
        // op stream as its neighbours, which fold around it.
        let src = "long f(long a, long b) { long x = a + 1; \
                   long q = x / b; long y = q + 2; return y + x; }";
        let native = lower(src);
        assert_eq!(native[0].regions.len(), 1, "one region, one op stream");
        let ops = all_ops(&native);
        let div = ops.iter().position(|op| matches!(op, NOp::Div { .. }));
        let div = div.expect("division is an ordinary register op");
        assert!(matches!(ops[div - 3], NOp::StoreLocal { .. }), "{ops:?}");
        assert!(matches!(ops[div + 1], NOp::StoreLocal { .. }), "{ops:?}");
    }

    #[test]
    fn heap_accesses_group_into_memory_blocks() {
        // The `mem_cost` copy shape: the loop body's `dst[i] = src[i]`
        // is address arithmetic plus two checked accesses. Folded, it
        // is two indexed ops naming the array bases and the index slot
        // directly, and the latch is the terminator — a counted loop's,
        // looping back on the index slot.
        let src = "long f(long n) { long src[4]; long dst[4]; long i; \
                   for (i = 0; i < n; i++) dst[i] = src[i]; return dst[0]; }";
        let native = lower(src);
        let nf = &native[0];
        let at = nf
            .regions
            .iter()
            .position(|r| matches!(r.term, Term::Counted(0)))
            .expect("the copy loop's body ends in the counted latch");
        let body = &nf.regions[at];
        let [CountedLoop { counter, .. }] = nf.loops[..] else {
            panic!("one counted loop: {nf:?}");
        };
        let [NOp::IdxLoad {
            dst,
            ptr: Src::Addr(from),
            count: i @ Src::Slot8(_),
            esz: 8,
            ..
        }, NOp::IdxStore {
            ptr: Src::Addr(to),
            count,
            val,
            esz: 8,
            ..
        }] = body.ops[..]
        else {
            panic!("load and store fold to one indexed op each: {body:?}");
        };
        assert_ne!(from, to);
        assert_eq!((count, val), (i, Src::Reg(dst)));
        assert_eq!(i, Src::Slot8(counter));
    }

    #[test]
    fn trips_match_a_per_pass_scan() {
        use CmpOp::*;
        let (back, exit) = (
            Succ {
                pc: 1,
                region: 2,
                skip: 0,
            },
            Succ {
                pc: 3,
                region: 4,
                skip: 0,
            },
        );
        let scan = |lp: &CountedLoop, k: i64, bound: i64, n: u64| {
            let mut at = k;
            for i in 1..=n {
                at += 1;
                if !lp.op.eval(at, bound) {
                    return (i, exit);
                }
            }
            (n, back)
        };
        let counters = [
            0,
            1,
            -1,
            5,
            -5,
            40,
            i64::MIN,
            i64::MIN + 4,
            i64::MAX,
            i64::MAX - 4,
        ];
        let mut checked = 0;
        for op in [Eq, Ne, LtS, LtU, LeS, LeU, GtS, GtU, GeS, GeU] {
            let lp = CountedLoop {
                counter: 0,
                bound: Src::Const(0),
                op,
                back,
                exit,
            };
            for k in counters {
                let near = |c: i64| (-7..=7).map(move |j: i64| c.wrapping_add(j));
                let bounds = near(k)
                    .chain(near(0))
                    .chain(near(i64::MIN))
                    .chain(near(i64::MAX));
                for bound in bounds {
                    for n in 0..=12u64 {
                        // `trips` asks that every stepped counter be exact.
                        if k.checked_add(n as i64).is_none() {
                            break;
                        }
                        let want = scan(&lp, k, bound, n);
                        assert_eq!(
                            lp.trips(k, bound, n),
                            want,
                            "{op:?} k={k} bound={bound} n={n}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 66_000, "{checked}");
        // A first failure far into a long batch, a latch that holds across
        // the unsigned wrap, and one that fails at it.
        for (op, k, bound, n) in [
            (LtS, 0, 1_000_000, 400_000),
            (LtU, -600_000, -2, 300_000),
            (GeU, -600_000, 7, 300_000),
        ] {
            let lp = CountedLoop {
                counter: 0,
                bound: Src::Const(0),
                op,
                back,
                exit,
            };
            assert_eq!(
                lp.trips(k, bound, n),
                scan(&lp, k, bound, n),
                "{op:?} k={k}"
            );
        }
    }

    #[test]
    fn loops_outside_the_counted_shape_keep_their_latch() {
        // Each loop differs from the copy loop in one obligation.
        for body in [
            // A 4-byte counter.
            "int i; for (i = 0; i < n; i++) d[i] = s[i];",
            // An ALU op in the body.
            "long i; for (i = 0; i < n; i++) d[i] = s[i] + 1;",
            // Two regions: the body branches.
            "long i; for (i = 0; i < n; i++) if (s[i]) d[i] = 1;",
            // A latch stepping down.
            "long i; for (i = n - 1; i >= 0; i--) d[i] = s[i];",
            // One byte of each element: the passes do not tile.
            "long i; for (i = 0; i < n; i++) *((char *) (d + i)) = *((char *) (s + i));",
            // A constant stored, nothing loaded.
            "long i; for (i = 0; i < n; i++) d[i] = 0;",
            // Two copies in one body.
            "long e[4]; long i; for (i = 0; i < n; i++) { d[i] = s[i]; e[i] = s[i]; }",
            // A widening copy.
            "int w[4]; long i; for (i = 0; i < n; i++) d[i] = w[i];",
        ] {
            let src = format!("long f(long n) {{ long s[4]; long d[4]; {body} return d[0]; }}");
            let native = lower(&src);
            assert!(native[0].loops.is_empty(), "`{body}`: {native:?}");
            assert!(has_term(&native, |t| matches!(t, Term::IncBranch { .. })));
        }
        // The copy loop's region with its latch put back is counted; one
        // step away from the shape, it is not.
        let nf = &lower(
            "long f(long n) { long s[4]; long d[4]; long i; \
             for (i = 0; i < n; i++) d[i] = s[i]; return d[0]; }",
        )[0];
        let lp = nf.loops[0];
        let at = lp.back.region;
        let mut region = nf.regions[at as usize].clone();
        let latch = |size, back: Succ| Term::IncBranch {
            off: lp.counter,
            delta: 1,
            size,
            signed: true,
            a: Src::Slot8(lp.counter),
            b: lp.bound,
            op: lp.op,
            taken: back,
            fall: lp.exit,
        };
        region.term = latch(B8, lp.back);
        assert_eq!(counted(&region, at), Some(lp));
        let threaded = Succ { skip: 1, ..lp.back };
        for term in [latch(B4, lp.back), latch(B8, threaded)] {
            let region = NativeRegion {
                term,
                ..region.clone()
            };
            assert_eq!(counted(&region, at), None, "{region:?}");
        }
        let NOp::IdxLoad { dst, .. } = region.ops[0] else {
            panic!("{region:?}");
        };
        let mut own_base = region.clone();
        if let NOp::IdxLoad { ptr, .. } = &mut own_base.ops[0] {
            *ptr = Src::Slot8(lp.counter);
        }
        let mut alu = region.clone();
        let (a, b, op) = (Src::Reg(dst), Src::Const(1), AluOp::Add);
        alu.ops.insert(1, NOp::Alu { dst, a, b, op });
        for shape in [own_base, alu] {
            assert_eq!(counted(&shape, at), None, "{shape:?}");
        }
    }

    #[test]
    fn heap_lowering_pins_seam_and_spill() {
        // LocalAddr pushes the address; the load pops it and names the
        // frame address in place.
        let region = entry_region(&[Instr::LocalAddr(16), Instr::Load(B8, true), Instr::Ret]);
        let [NOp::Load {
            dst: 0,
            addr: Src::Addr(16),
            ..
        }] = region.ops[..]
        else {
            panic!("{region:?}");
        };
    }

    #[test]
    fn ptr_add_access_pairs_fuse_into_idx_ops() {
        // value, base, index, PtrAdd, Store — the classic indexed-store
        // pattern. The PtrAdd's derived pointer feeds the store
        // directly, so the pair must fuse into one IdxStore, its three
        // operands named in place.
        let region = entry_region(&[
            Instr::Const(5),
            Instr::LocalAddr(0),
            Instr::LoadLocal(32, B8, true),
            Instr::PtrAdd(8),
            Instr::Store(B8),
            Instr::Const(0),
            Instr::Ret,
        ]);
        assert!(
            matches!(
                region.ops[0],
                NOp::IdxStore {
                    ptr: Src::Addr(0),
                    count: Src::Slot8(32),
                    val: Src::Const(5),
                    esz: 8,
                    size: B8,
                    ..
                }
            ),
            "{region:?}"
        );
        assert_eq!(region.ops.len(), 2);
    }

    #[test]
    fn spill_keeps_the_mov_below_a_faulting_access() {
        // `x + a[k]`: x is on the operand stack when the load faults,
        // so its `Mov` stays; `a[k] + x` has nothing below the load and
        // folds away.
        let kept = lower("long f(long k) { long a[2]; long x = 1; return x + a[k]; }");
        let ops = all_ops(&kept);
        assert!(
            matches!(ops[..], [_, NOp::Mov { .. }, NOp::IdxLoad { .. }, ..]),
            "{ops:?}"
        );
        let gone = lower("long f(long k) { long a[2]; long x = 1; return a[k] + x; }");
        assert!(
            !all_ops(&gone)
                .iter()
                .any(|op| matches!(op, NOp::Mov { .. })),
            "{gone:?}"
        );
    }

    #[test]
    fn short_circuit_constants_thread_to_plain_jumps() {
        // `a && b` materialises `Const 0` on the false path and tests it
        // at the join; absorbed, that region is a plain jump, and the
        // edge into it threads straight to the else branch.
        let native = lower(
            "long f(long a, long b) { long t; if (a > 1 && b > 2) t = 5; else t = 6; return t; }",
        );
        assert!(
            !all_ops(&native).iter().any(|op| matches!(
                op,
                NOp::Mov {
                    src: Src::Const(_),
                    ..
                } | NOp::Cmp { .. }
            )),
            "every compare and flag constant sits in a terminator or an exit: {native:?}"
        );
        // The entry runs on through both tests: the first one's false
        // edge is a side exit skipping the join's jumps.
        let nf = &native[0];
        let entry = &nf.regions[nf.entry[0] as usize];
        assert!(
            matches!(
                entry.ops[..],
                [NOp::Exit { to: Succ { skip, .. }, .. }, NOp::Exit { .. }, ..] if skip > 0
            ),
            "the false edge skips the join's jumps: {entry:?}"
        );
    }

    #[test]
    fn spin_loop_fuses_head_body_and_step() {
        let native = lower(
            "int main() { int xs[2]; long i; long acc = 0; long n = 4; \
             for (i = 0; i < n; i++) acc += xs[1]; return 0; }",
        );
        let regions = &native[0].regions;
        let (at, body) = regions
            .iter()
            .enumerate()
            .find(|(at, r)| {
                matches!(r.term, Term::IncBranch { fall, .. } if fall.region == *at as u32)
            })
            .expect("loop latch (step + back-jump + head compare) into its own region");
        // The accumulator is live below the load, so it is read first;
        // the load names the array and the constant index in place.
        assert!(
            matches!(
                body.ops[..],
                [
                    NOp::Mov { dst: 0, .. },
                    NOp::IdxLoad {
                        ptr: Src::Addr(_),
                        count: Src::Const(1),
                        ..
                    },
                    NOp::Alu { .. },
                    NOp::StoreLocal { .. }
                ]
            ),
            "{body:?}"
        );
        // Every way into the loop runs on into a copy of that body, behind
        // the head compare's side exit.
        let entries = regions
            .iter()
            .enumerate()
            .filter(|&(i, r)| i != at && r.term == body.term);
        for (_, r) in entries.clone() {
            let tail = r.ops.len() - body.ops.len();
            assert!(matches!(r.ops[tail - 1], NOp::Exit { .. }), "{r:?}");
        }
        assert_eq!(
            entries.count(),
            2,
            "the loop's entry and its head: {regions:?}"
        );
    }

    #[test]
    fn accum_mega_op_folds_index_and_keeps_smaller_fusions_elsewhere() {
        // `acc += xs[5]` and a plain read of the same array both take
        // the indexed load with the element index as a constant operand
        // (scaled by the element size when it runs).
        let native = lower(
            "int main() { int xs[2]; long acc = 0; \
             acc += xs[5]; return (int) (acc + xs[1]); }",
        );
        let idx: Vec<(Src, u32)> = all_ops(&native)
            .iter()
            .filter_map(|op| match *op {
                NOp::IdxLoad { count, esz, .. } => Some((count, esz)),
                _ => None,
            })
            .collect();
        assert_eq!(idx, [(Src::Const(5), 4), (Src::Const(1), 4)]);
    }

    #[test]
    fn const_index_store_fuses() {
        let native = lower("int main() { int xs[2]; xs[5] = 7; return 0; }");
        let ops = all_ops(&native);
        assert!(
            ops.iter().any(|op| matches!(
                op,
                NOp::IdxStore {
                    ptr: Src::Addr(_),
                    count: Src::Const(5),
                    val: Src::Const(7),
                    esz: 4,
                    size: B4,
                    ..
                }
            )),
            "{ops:?}"
        );
    }

    #[test]
    fn pointer_deref_fuses() {
        let native = lower("int main() { int x; int *p; p = &x; *p = 3; return *p; }");
        let ops = all_ops(&native);
        assert!(
            ops.iter().any(|op| matches!(
                op,
                NOp::Load {
                    addr: Src::Slot8(_),
                    ..
                }
            )),
            "{ops:?}"
        );
    }

    #[test]
    fn division_never_fuses() {
        // `Const 3; DivS` keeps its own op, so the divide-by-zero fault
        // pc stays architectural.
        let native = lower("int main() { int a; a = 9; return a / 3 + a % 2; }");
        let ops = all_ops(&native);
        let divs = ops.iter().filter(|op| matches!(op, NOp::Div { .. }));
        assert_eq!(divs.count(), 2, "{ops:?}");
    }

    #[test]
    fn normalize_of_a_value_already_in_range_disappears() {
        // `char c; if (c == 64)`: the char widens to int (a no-op on a
        // sign-extended byte) and the flag re-normalizes (a no-op on
        // 0/1); `(char) (c - 32)` narrows twice, and only the last
        // narrowing shows.
        let native = lower("int f(char c) { if (c == 64) return 1; c = c - 32; return c; }");
        let norms: Vec<NOp> = all_ops(&native)
            .into_iter()
            .filter(|op| matches!(op, NOp::Normalize { .. }))
            .collect();
        assert!(
            matches!(
                norms[..],
                [NOp::Normalize {
                    size: AccessSize::B1,
                    ..
                }]
            ),
            "{native:?}"
        );
    }

    #[test]
    fn a_region_deeper_than_the_register_file_is_not_lowered() {
        // `pushes` values on the stack before the first pop.
        let sum_of = |pushes: usize| {
            let mut code = vec![Instr::Const(1); pushes];
            code.extend(vec![Instr::Add; pushes - 1]);
            code.push(Instr::Ret);
            lower_func(&code)
        };
        let deep = sum_of(NATIVE_REGS + 1);
        assert_eq!(deep.entry[0], NO_REGION);
        assert!(deep.regions.is_empty());
        assert_eq!(sum_of(NATIVE_REGS).regions.len(), 1);
    }
}
