//! Translation validation of the native tier (Necula, PLDI 2000, scaled
//! down to straight-line regions). Each region lowering emits runs
//! symbolically beside the baseline instructions it came from, each
//! micro-op as the instructions it stands for ([`meaning`]), over one
//! hash-consed term language whose leaves are the region's inputs —
//! consumed registers, frame slots at entry, what earlier pointer adds
//! and loads returned — constants and addresses. For all inputs at once
//! the two must agree on every effect in order (pointer add, checked
//! load and store, division, frame write: its terms, and at a fault seam
//! its pc, `spent` and registers `0..spill` against the operand stack
//! below the instruction's operands), on each superblock exit (condition,
//! target, `spent`, an empty stack) and on the terminator (condition,
//! successors, `charge`, registers `0..produces`). A successor's `region`
//! and `skip` must be where the baseline lands after `skip` instructions
//! that do nothing; `ran` and `dispatches` must count the ops.
//!
//! Terms normalise by the folding pass's four rules (`native.rs`, "The
//! folding pass") and nothing more, so an unsound fold is a mismatch. A
//! frame read is versioned by the last effect that may have written its
//! bytes (a checked store, an overlapping frame write): a read moved
//! across one is a mismatch too, the alias rule. A branch is compared in
//! one spelling — a negated compare swaps the successors, a mirrored one
//! the operands — because a `Term::Counted` latch is spelt either way.
//! That region is checked as one pass; the batch's proof is
//! `NativeView::prove`'s.

use std::cell::RefCell;
use std::collections::HashMap;

use foc_compiler::native::{extend, FaultAt, NOp, NativeFunc, NativeRegion, Src, Succ, Term};
use foc_compiler::{native::NO_REGION, AluOp, CmpOp, Instr as I, ProgramImage};
use foc_memory::AccessSize::{self, B8};

/// The instruction an ALU op or a comparison stands for (each enum
/// lists its instructions in order).
fn alu(op: AluOp) -> I {
    use I::*;
    [Add, Sub, Mul, And, Or, Xor, Shl, ShrS, ShrU][op as usize]
}

fn cmp(op: CmpOp) -> I {
    use I::*;
    [Eq, Ne, LtS, LtU, LeS, LeU, GtS, GtU, GeS, GeU][op as usize]
}

/// The comparison an instruction makes, if it makes one.
fn cmp_of(instr: I) -> Option<CmpOp> {
    use CmpOp::*;
    let ops = [Eq, Ne, LtS, LtU, LeS, LeU, GtS, GtU, GeS, GeU];
    ops.into_iter().find(|&op| cmp(op) == instr)
}

/// A hash-consed term: an index into [`Sym`]'s nodes.
type Id = u32;

/// A term node over earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum T {
    /// What register `k` holds at entry: an operand-stack value when
    /// `k` is below `consumes`, else nothing the baseline can name.
    In(u8),
    /// A constant.
    K(i64),
    /// What an address instruction pushes.
    Addr(I),
    /// Frame bytes as effect `ver` left them (`u32::MAX`: at entry).
    Slot(u32, AccessSize, bool, u32),
    /// What effect `k`, this instruction, returned.
    Ret(u32, I),
    /// A pure instruction over its operands (a unary one's twice).
    Op(I, Id, Id),
    /// A comparison: 1 when it holds, else 0.
    Cmp(CmpOp, Id, Id),
}

/// A fault seam: its pc, `spent`, and the operand stack it leaves.
type Seam = (u32, u32, Vec<Id>);

/// What a run did, in order.
#[derive(Debug, PartialEq)]
enum Ev {
    /// An effect, its operands, and its seam if it can fault.
    Eff(I, [Id; 2], Option<Seam>),
    /// A branch (no condition: a jump), its taken and fall pcs (an exit
    /// falls nowhere), the components charged through it, the stack left.
    Br(Option<Id>, [u32; 2], u64, Vec<Id>),
}

/// The hash-consed nodes and their ids.
#[derive(Default)]
struct Sym(RefCell<(Vec<T>, HashMap<T, Id>)>);

impl Sym {
    fn get(&self, x: Id) -> T {
        self.0.borrow().0[x as usize]
    }

    /// The node for `t`, normalised by the four folds.
    fn mk(&self, t: T) -> Id {
        let operands = match t {
            T::Op(_, a, b) | T::Cmp(_, a, b) => [self.get(a), self.get(b)],
            _ => [t; 2],
        };
        let t = match (t, operands) {
            // Fold 3: a re-normalization that changes nothing (an 8-byte
            // one never does); of two narrowings only the last shows.
            (T::Op(I::Normalize(size, signed), x, _), _)
                if size == B8 || self.fits(x, size, signed) =>
            {
                return x
            }
            (T::Op(I::Normalize(size, signed), ..), [T::Op(I::Normalize(w, _), y, _), _])
                if w.bytes() >= size.bytes() =>
            {
                return self.mk(T::Op(I::Normalize(size, signed), y, y))
            }
            // Fold 3's increment statement: `slot - c` is `slot + -c`.
            (T::Op(I::Sub, a, _), [_, T::K(c)]) => {
                T::Op(I::Add, a, self.mk(T::K(c.wrapping_neg())))
            }
            // Fold 4: a compare of constants is decided, and a flag tested
            // against zero is its comparison (or, for `== 0`, the opposite).
            (T::Cmp(op, ..), [T::K(x), T::K(y)]) => T::K(op.eval(x, y) as i64),
            (T::Cmp(CmpOp::Ne, ..), [T::Cmp(c, p, q), T::K(0)]) => T::Cmp(c, p, q),
            (T::Cmp(CmpOp::Eq, ..), [T::Cmp(c, p, q), T::K(0)]) => T::Cmp(c.negate(), p, q),
            _ => t,
        };
        let (terms, ids) = &mut *self.0.borrow_mut();
        *ids.entry(t).or_insert_with(|| {
            terms.push(t);
            terms.len() as Id - 1
        })
    }

    /// Whether `x` already holds a value `Normalize(size, signed)` keeps.
    fn fits(&self, x: Id, size: AccessSize, signed: bool) -> bool {
        let (b, n) = (size.bytes(), signed);
        let within = |m: AccessSize, ms| (m, ms) == (size, n) || (m.bytes() < b && (!ms || n));
        match self.get(x) {
            T::Cmp(..) | T::Op(I::Not, ..) => true,
            T::K(c) => extend(c as u64, size, signed) == c,
            T::Slot(_, m, ms, _) | T::Ret(_, I::Load(m, ms)) => within(m, ms),
            T::Op(I::Normalize(m, ms), ..) => within(m, ms),
            _ => false,
        }
    }
}

/// One side's run: the operand stack, the lowered side's registers, its
/// effects, and on the baseline's side where it is in the code.
struct Run<'a> {
    sym: &'a Sym,
    stack: Vec<Id>,
    regs: Vec<Id>,
    evs: Vec<Ev>,
    code: &'a [I],
    pc: u32,
    /// Instructions run, each one component.
    n: u64,
}

impl<'a> Run<'a> {
    fn new(sym: &'a Sym, code: &'a [I], pc: u32, stack: Vec<Id>) -> Run<'a> {
        let (regs, evs) = (Vec::new(), Vec::new());
        Run {
            sym,
            stack,
            regs,
            evs,
            code,
            pc,
            n: 0,
        }
    }

    fn c(&self, t: T) -> Id {
        self.sym.mk(t)
    }

    fn pop(&mut self) -> Result<Id, String> {
        Ok(self.stack.pop().ok_or("a pop below the entry stack")?)
    }

    /// The `size` frame bytes at `off`, versioned.
    fn slot(&self, off: u32, size: AccessSize, signed: bool) -> Id {
        let (lo, hi) = (off as u64, off as u64 + size.bytes());
        let ver = self.evs.iter().rposition(|e| match *e {
            Ev::Eff(I::Store(_), ..) => true,
            Ev::Eff(I::StoreLocal(o, s), ..) => (o as u64) < hi && lo < o as u64 + s.bytes(),
            _ => false,
        });
        let ver = ver.map_or(u32::MAX, |v| v as u32);
        self.c(T::Slot(off, size, signed && size != B8, ver))
    }

    fn eff(&mut self, instr: I, ops: [Id; 2], seam: Option<Seam>) -> Id {
        self.evs.push(Ev::Eff(instr, ops, seam));
        self.c(T::Ret(self.evs.len() as u32 - 1, instr))
    }

    /// A branch spelt one way: a decided one jumps; a compare reads its
    /// operands in id order and takes the lower pc.
    fn br(&self, cond: Option<Id>, to: [u32; 2], spent: u64, stack: Vec<Id>) -> Ev {
        match cond.map(|c| self.sym.get(c)) {
            Some(T::K(c)) => Ev::Br(None, [to[(c == 0) as usize]; 2], spent, stack),
            Some(T::Cmp(op, a, b)) if to[0] > to[1] => {
                let cond = self.c(T::Cmp(op.negate(), a, b));
                self.br(Some(cond), [to[1], to[0]], spent, stack)
            }
            Some(T::Cmp(op, a, b)) if a > b => {
                let cond = self.c(T::Cmp(op.mirror(), b, a));
                self.br(Some(cond), to, spent, stack)
            }
            _ => Ev::Br(cond, to, spent, stack),
        }
    }

    /// A lowered operand.
    fn v(&self, s: Src) -> Id {
        match s {
            Src::Reg(r) => self.regs[r as usize],
            Src::Slot { off, size, signed } => self.slot(off, size, signed),
            Src::Slot8(off) => self.slot(off, B8, false),
            Src::Const(c) => self.c(T::K(c)),
            Src::Addr(off) => self.c(T::Addr(I::LocalAddr(off))),
        }
    }

    /// Runs one instruction on the operand stack, a fault seam at `pc`
    /// having charged `spent`; a conditional branch hands back its
    /// condition and target.
    fn exec(&mut self, instr: I, (pc, spent): (u32, u32)) -> Result<Option<(Id, u32)>, String> {
        let seam = |w: &Self| Some((pc, spent, w.stack.clone()));
        let x = match instr {
            I::Const(c) => self.c(T::K(c)),
            I::LocalAddr(_) | I::GlobalAddr(_) | I::StrAddr(_) => self.c(T::Addr(instr)),
            I::LoadLocal(off, size, signed) => self.slot(off, size, signed),
            I::Dup => *self.stack.last().ok_or("a pop below the entry stack")?,
            I::Rot3 => {
                let k = self.stack.len().checked_sub(3);
                self.stack[k.ok_or("a pop below the entry stack")?..].rotate_left(1);
                return Ok(None);
            }
            I::Drop => return self.pop().map(|_| None),
            I::StoreLocal(..) => {
                let x = self.pop()?;
                self.eff(instr, [x; 2], None);
                return Ok(None);
            }
            I::Store(_) => {
                let (at, x) = (self.pop()?, self.pop()?);
                self.eff(instr, [at, x], seam(self));
                return Ok(None);
            }
            I::Load(..) => {
                let at = self.pop()?;
                self.eff(instr, [at; 2], seam(self))
            }
            I::Neg | I::BitNot | I::Not | I::EffAddr | I::Normalize(..) => {
                let x = self.pop()?;
                self.c(T::Op(instr, x, x))
            }
            I::Jump(t) => {
                self.pc = t;
                return Ok(None);
            }
            I::JumpIfZero(t) | I::JumpIfNotZero(t) => {
                let (flag, zero) = (self.pop()?, self.c(T::K(0)));
                let op = [CmpOp::Ne, CmpOp::Eq][(instr == I::JumpIfZero(t)) as usize];
                return Ok(Some((self.c(T::Cmp(op, flag, zero)), t)));
            }
            I::Call(_) | I::CallBuiltin(_) | I::Ret => return Err("a call or return".into()),
            _ => {
                let (b, a) = (self.pop()?, self.pop()?);
                match (instr, cmp_of(instr)) {
                    (I::PtrAdd(_), _) => self.eff(instr, [a, b], None),
                    (I::DivS | I::DivU | I::RemS | I::RemU, _) => {
                        self.eff(instr, [a, b], seam(self))
                    }
                    (_, Some(op)) => self.c(T::Cmp(op, a, b)),
                    _ => self.c(T::Op(instr, a, b)),
                }
            }
        };
        self.stack.push(x);
        Ok(None)
    }

    /// Runs the baseline's next instruction. A branch on a condition
    /// that is no constant is handed back; a decided one is taken.
    fn step(&mut self) -> Result<Option<(Id, u32)>, String> {
        let instr = *self.code.get(self.pc as usize).ok_or("off the code")?;
        (self.pc, self.n) = (self.pc + 1, self.n + 1);
        let branch = self.exec(instr, (self.pc, self.n as u32))?;
        if let Some((T::K(c), t)) = branch.map(|(cond, t)| (self.sym.get(cond), t)) {
            self.pc = if c != 0 { t } else { self.pc };
            return Ok(None);
        }
        Ok(branch)
    }

    /// Runs lowered `op`; a side exit hands back its condition.
    fn op(&mut self, op: NOp) -> Result<Option<(Id, u32)>, String> {
        let (seam, spill) = seam(op).unwrap_or((FaultAt { pc: 0, spent: 0 }, 0));
        let (srcs, code, dsts) = meaning(op);
        self.stack = self.regs[..spill as usize].to_vec();
        for s in srcs {
            self.stack.push(self.v(s));
        }
        let mut branch = None;
        for instr in code {
            branch = self.exec(instr, (seam.pc, seam.spent))?;
        }
        for d in dsts {
            self.regs[d as usize] = self.pop()?;
        }
        Ok(branch)
    }
}

/// `op`'s fault seam and the registers it spills there, if it can fault.
pub fn seam(op: NOp) -> Option<(FaultAt, u8)> {
    match op {
        NOp::Div { seam, spill, .. }
        | NOp::Load { seam, spill, .. }
        | NOp::Store { seam, spill, .. }
        | NOp::IdxLoad { seam, spill, .. }
        | NOp::IdxStore { seam, spill, .. } => Some((seam, spill)),
        _ => None,
    }
}

/// What lowered `op` does as the instructions it stands for: the
/// operands it pushes, the instructions, and the registers it pops the
/// results into, top first.
fn meaning(op: NOp) -> (Vec<Src>, Vec<I>, Vec<u8>) {
    let (r, m) = (Src::Reg, |s: &[Src], c: &[I], d: &[u8]| {
        (s.to_vec(), c.to_vec(), d.to_vec())
    });
    match op {
        NOp::Mov { dst, src } => m(&[src], &[], &[dst]),
        NOp::Rot3 { a, b, c } => m(&[r(a), r(b), r(c)], &[I::Rot3], &[c, b, a]),
        NOp::GlobalAddr { dst, idx } => m(&[], &[I::GlobalAddr(idx)], &[dst]),
        NOp::StrAddr { dst, idx } => m(&[], &[I::StrAddr(idx)], &[dst]),
        NOp::StoreLocal { src, off, size } => m(&[src], &[I::StoreLocal(off, size)], &[]),
        NOp::Inc {
            off,
            delta,
            size,
            signed,
        } => {
            let code = [I::Add, I::Normalize(size, signed), I::StoreLocal(off, size)];
            m(
                &[Src::Slot { off, size, signed }, Src::Const(delta)],
                &code,
                &[],
            )
        }
        NOp::Alu { dst, a, b, op } => m(&[a, b], &[alu(op)], &[dst]),
        NOp::Cmp { dst, a, b, op } => m(&[a, b], &[cmp(op)], &[dst]),
        NOp::Div {
            dst,
            a,
            b,
            signed,
            rem,
            ..
        } => {
            let div = [[I::DivU, I::RemU], [I::DivS, I::RemS]][signed as usize][rem as usize];
            m(&[r(a), r(b)], &[div], &[dst])
        }
        NOp::Neg { at } => m(&[r(at)], &[I::Neg], &[at]),
        NOp::BitNot { at } => m(&[r(at)], &[I::BitNot], &[at]),
        NOp::Not { at } => m(&[r(at)], &[I::Not], &[at]),
        NOp::EffAddr { at } => m(&[r(at)], &[I::EffAddr], &[at]),
        NOp::Normalize { at, size, signed } => m(&[r(at)], &[I::Normalize(size, signed)], &[at]),
        NOp::PtrDiff { dst, a, b, esz } => m(&[r(a), r(b)], &[I::PtrDiff(esz as u64)], &[dst]),
        NOp::PtrAdd {
            dst,
            ptr,
            count,
            esz,
        } => m(&[ptr, count], &[I::PtrAdd(esz as u64)], &[dst]),
        NOp::Load {
            dst,
            addr,
            size,
            signed,
            ..
        } => m(&[addr], &[I::Load(size, signed)], &[dst]),
        NOp::IdxLoad {
            dst,
            ptr,
            count,
            esz,
            size,
            signed,
            ..
        } => m(
            &[ptr, count],
            &[I::PtrAdd(esz as u64), I::Load(size, signed)],
            &[dst],
        ),
        NOp::Store {
            addr, val, size, ..
        } => m(&[val, addr], &[I::Store(size)], &[]),
        NOp::IdxStore {
            ptr,
            count,
            val,
            esz,
            size,
            ..
        } => m(
            &[val, ptr, count],
            &[I::PtrAdd(esz as u64), I::Store(size)],
            &[],
        ),
        NOp::Exit { a, b, op, to, .. } => m(&[a, b], &[cmp(op), I::JumpIfNotZero(to.pc)], &[]),
    }
}

/// A terminator as the ops it runs (an increment, then a compare that
/// branches to the first successor) and its successors.
fn tail(f: &NativeFunc, term: Term) -> (Vec<NOp>, [Succ; 2]) {
    let exit = |a, b, op, to| NOp::Exit {
        a,
        b,
        op,
        to,
        spent: 0,
        ran: 0,
    };
    match term {
        Term::Goto(to) => (vec![], [to, to]),
        Term::Branch {
            a,
            b,
            op,
            taken,
            fall,
        } => (vec![exit(a, b, op, taken)], [taken, fall]),
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
            (vec![inc, exit(a, b, op, taken)], [taken, fall])
        }
        Term::Counted(at) => {
            let lp = f.loops[at as usize];
            let (off, k) = (lp.counter, Src::Slot8(lp.counter));
            let inc = NOp::Inc {
                off,
                delta: 1,
                size: B8,
                signed: true,
            };
            (
                vec![inc, exit(k, lp.bound, lp.op, lp.back)],
                [lp.back, lp.exit],
            )
        }
    }
}

/// Region `r` run symbolically: its events, and the successors it names.
/// An exit whose condition the terms decide is no branch: one never
/// taken is dropped, and one always taken ends the region, as the
/// baseline's decided branch does.
fn lowered<'a>(
    sym: &'a Sym,
    f: &NativeFunc,
    r: &NativeRegion,
) -> Result<(Run<'a>, Vec<Succ>), String> {
    if r.dispatches as usize != r.ops.len() + 2 {
        return Err(format!("{} dispatches", r.dispatches));
    }
    let mut n = Run::new(sym, &[], 0, Vec::new());
    n.regs = (0..=255).map(|k| sym.mk(T::In(k))).collect();
    let mut succs = Vec::new();
    for (i, &op) in r.ops.iter().enumerate() {
        if let (Some((cond, _)), NOp::Exit { to, spent, ran, .. }) = (n.op(op)?, op) {
            if ran as usize != i + 2 {
                return Err(format!("exit {i} runs {ran} dispatches"));
            }
            let br = n.br(Some(cond), [to.pc, u32::MAX], spent as u64, n.stack.clone());
            let decided = match br {
                Ev::Br(None, [u32::MAX, _], ..) => continue,
                Ev::Br(None, ..) => true,
                _ => false,
            };
            n.evs.push(br);
            succs.push(to);
            if decided {
                return Ok((n, succs));
            }
        }
    }
    let (ops, to) = tail(f, r.term);
    let mut cond = None;
    for op in ops {
        cond = n.op(op)?.map(|(c, _)| c);
    }
    let stack = n.regs[..r.produces as usize].to_vec();
    n.evs
        .push(n.br(cond, [to[0].pc, to[1].pc], r.charge, stack));
    succs.extend(to);
    Ok((n, succs))
}

/// Region `r`, entered at `start`, against the baseline stream.
fn region(code: &[I], f: &NativeFunc, start: u32, r: &NativeRegion) -> Result<(), String> {
    let sym = &Sym::default();
    let (n, succs) = lowered(sym, f, r)?;
    // A successor's `skip` instructions, from its pc, do nothing and land
    // where its `region` starts (`NO_REGION`: none does).
    for s in succs {
        let mut w = Run::new(sym, code, s.pc, Vec::new());
        while w.n < s.skip as u64 {
            w.step()?
                .map_or(Ok(()), |_| Err(format!("{s:?} threads through a branch")))?;
        }
        let at = f.entry.get(w.pc as usize).copied().unwrap_or(NO_REGION);
        if !(w.evs.is_empty() && w.stack.is_empty() && at == s.region) {
            return Err(format!("{s:?} lands at pc {} (region {at})", w.pc));
        }
    }
    // Every branch but the last is a side exit; the last is where the
    // stream stops, after what it charges.
    let mut exits = n.evs.iter().filter(|e| matches!(e, Ev::Br(..))).count() - 1;
    let Some(Ev::Br(cond, [pc, _], charge, _)) = n.evs.last() else {
        unreachable!("a region ends in a branch");
    };
    let (stop, charge) = (cond.is_none().then_some(*pc), *charge);
    let mut w = Run::new(
        sym,
        code,
        start,
        (0..r.consumes).map(|k| sym.mk(T::In(k))).collect(),
    );
    while exits > 0 || stop != Some(w.pc) || w.n != charge {
        if w.n >= charge {
            return Err(format!(
                "the stream runs on past the charge, to pc {}",
                w.pc
            ));
        }
        if let Some((cond, to)) = w.step()? {
            let fall = if exits > 0 { u32::MAX } else { w.pc };
            w.evs
                .push(w.br(Some(cond), [to, fall], w.n, w.stack.clone()));
            if exits == 0 {
                break;
            }
            exits -= 1;
        }
    }
    if stop.is_some() {
        w.evs.push(w.br(None, [w.pc; 2], w.n, w.stack.clone()));
    }
    let terms = &sym.0.borrow().0;
    let why = format!("lowered {:?}\nbaseline {:?}\nterms {terms:?}", n.evs, w.evs);
    (n.evs == w.evs).then_some(()).ok_or(why)
}

/// Validates every region of every function of `image`, a native-tier
/// image, lowering what no machine has entered yet; panics at the first
/// that disagrees.
pub fn image(image: &ProgramImage) {
    for (fid, func) in image.funcs.iter().enumerate() {
        let f = image.native_func(fid as u32).expect("a native-tier image");
        let entered = f.entry.iter().filter(|&&at| at != NO_REGION).count();
        let name = &func.name;
        assert_eq!(f.entry.len(), func.code.len(), "{name}: entry table");
        assert_eq!(entered, f.regions.len(), "{name}: a region no pc enters");
        for (start, &at) in f.entry.iter().enumerate() {
            let Some(r) = f.regions.get(at as usize) else {
                continue;
            };
            if let Err(why) = region(&func.code, f, start as u32, r) {
                panic!("{name}: the region at pc {start} disagrees: {why}\n{r:?}");
            }
        }
    }
}
