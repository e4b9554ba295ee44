//! The stack-machine instruction set and compiled program image. Every
//! image holds this one instruction set: the native tier (`native.rs`)
//! recognises hot shapes in it at lowering time and never rewrites it.

use std::fmt;

use foc_lang::hir::Builtin;
use foc_memory::AccessSize;

/// One bytecode instruction.
///
/// The evaluation stack holds `i64` values. Pointers are guest addresses
/// (possibly out-of-bounds descriptor addresses). All arithmetic operates
/// on the canonical representation: values of narrow C types are kept
/// sign- or zero-extended according to their static type, re-established
/// by [`Instr::Normalize`] after operations that may overflow the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Push a constant.
    Const(i64),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Rotate the top three values: `[a, b, c] → [b, c, a]` (top is `c`).
    Rot3,

    /// Push the address of a local slot (frame base + offset).
    LocalAddr(u32),
    /// Push the address of a global (loader-assigned).
    GlobalAddr(u32),
    /// Push the address of an interned string literal.
    StrAddr(u32),

    /// Pop an address; load `size` bytes; sign-extend when `signed`.
    Load(AccessSize, bool),
    /// Pop an address, pop a value; store the low `size` bytes.
    Store(AccessSize),
    /// Direct scalar load from the local slot at the given frame offset.
    ///
    /// Scalar locals are direct stack slots the safe-C compilers never
    /// instrument (a native compiler would keep them in registers), so
    /// these execute unchecked in every mode. Accesses to a local through
    /// a *pointer* still compile to [`Instr::Load`]/[`Instr::Store`] and
    /// are checked.
    LoadLocal(u32, AccessSize, bool),
    /// Direct scalar store to the local slot at the given frame offset
    /// (pops the value).
    StoreLocal(u32, AccessSize),

    /// Binary arithmetic: pop rhs, pop lhs, push result.
    Add,
    Sub,
    Mul,
    DivS,
    DivU,
    RemS,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    Eq,
    Ne,
    LtS,
    LtU,
    LeS,
    LeU,
    GtS,
    GtU,
    GeS,
    GeU,

    /// Unary: pop, push.
    Neg,
    BitNot,
    /// Logical not: push 1 if zero else 0.
    Not,

    /// Re-normalize the top value to the given width/signedness.
    Normalize(AccessSize, bool),
    /// Replace a pointer with its effective (intended) address.
    EffAddr,
    /// Pop element count, pop pointer; push `ptr + count * elem_size`
    /// through the checked pointer-arithmetic path.
    PtrAdd(u64),
    /// Pop rhs pointer, pop lhs pointer; push `(lhs - rhs) / elem_size`.
    PtrDiff(u64),

    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop; jump when zero.
    JumpIfZero(u32),
    /// Pop; jump when non-zero.
    JumpIfNotZero(u32),

    /// Call a user function: pops its arguments (last on top).
    Call(u32),
    /// Call a runtime builtin: pops its arguments, pushes its result
    /// (void builtins push 0).
    CallBuiltin(Builtin),
    /// Pop the return value and return to the caller.
    Ret,
}

/// Comparison operator of the native tier's compare-and-branch
/// terminators, mirroring the comparison instructions exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// signed `<`
    LtS,
    /// unsigned `<`
    LtU,
    /// signed `<=`
    LeS,
    /// unsigned `<=`
    LeU,
    /// signed `>`
    GtS,
    /// unsigned `>`
    GtU,
    /// signed `>=`
    GeS,
    /// unsigned `>=`
    GeU,
}

impl CmpOp {
    /// Evaluates the comparison on canonical `i64` operands.
    #[inline(always)]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::LtS => a < b,
            CmpOp::LtU => (a as u64) < (b as u64),
            CmpOp::LeS => a <= b,
            CmpOp::LeU => (a as u64) <= (b as u64),
            CmpOp::GtS => a > b,
            CmpOp::GtU => (a as u64) > (b as u64),
            CmpOp::GeS => a >= b,
            CmpOp::GeU => (a as u64) >= (b as u64),
        }
    }

    /// The comparison with its operands exchanged (`b op a` as another
    /// `CmpOp` on `(a, b)`).
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Eq | CmpOp::Ne => self,
            CmpOp::LtS => CmpOp::GtS,
            CmpOp::LtU => CmpOp::GtU,
            CmpOp::LeS => CmpOp::GeS,
            CmpOp::LeU => CmpOp::GeU,
            CmpOp::GtS => CmpOp::LtS,
            CmpOp::GtU => CmpOp::LtU,
            CmpOp::GeS => CmpOp::LeS,
            CmpOp::GeU => CmpOp::LeU,
        }
    }

    /// The logical negation (`!(a op b)` as another `CmpOp`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::LtS => CmpOp::GeS,
            CmpOp::LtU => CmpOp::GeU,
            CmpOp::LeS => CmpOp::GtS,
            CmpOp::LeU => CmpOp::GtU,
            CmpOp::GtS => CmpOp::LeS,
            CmpOp::GtU => CmpOp::LeU,
            CmpOp::GeS => CmpOp::LtS,
            CmpOp::GeU => CmpOp::LtU,
        }
    }
}

/// ALU operator of the native tier's micro-ops — the non-trapping binary
/// ops (division and remainder are excluded: their divide-by-zero fault
/// point must stay a separate architectural instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping `+`
    Add,
    /// Wrapping `-`
    Sub,
    /// Wrapping `*`
    Mul,
    /// Bitwise `&`
    And,
    /// Bitwise `|`
    Or,
    /// Bitwise `^`
    Xor,
    /// `<<` (shift count masked to 63)
    Shl,
    /// Arithmetic `>>`
    ShrS,
    /// Logical `>>`
    ShrU,
}

impl AluOp {
    /// Evaluates the operation exactly as the instruction would.
    #[inline(always)]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32 & 63),
            AluOp::ShrS => a.wrapping_shr(b as u32 & 63),
            AluOp::ShrU => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Stack frame layout for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FrameLayout {
    /// Per-slot `(offset from frame base, size in bytes)`.
    pub slots: Vec<(u64, u64)>,
    /// Total locals footprint (excluding the canary guard the memory
    /// space appends).
    pub total: u64,
}

/// A compiled function.
#[derive(Debug, Clone, Hash)]
pub struct CompiledFunc {
    /// Source name.
    pub name: String,
    /// Leading slots that receive arguments.
    pub param_count: usize,
    /// Frame layout (every local is a data unit).
    pub frame: FrameLayout,
    /// Bytecode.
    pub code: Vec<Instr>,
}

/// A global's load image.
#[derive(Debug, Clone, Hash)]
pub struct GlobalImage {
    /// Source name (data-unit label).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents (length == `size`).
    pub init: Vec<u8>,
    /// `(offset, string index)` relocations patched by the loader.
    pub relocs: Vec<(u64, u32)>,
}

/// A complete compiled program.
#[derive(Debug, Clone, Default, Hash)]
pub struct CompiledProgram {
    /// Functions; indices match [`Instr::Call`] operands.
    pub funcs: Vec<CompiledFunc>,
    /// Globals; indices match [`Instr::GlobalAddr`] operands.
    pub globals: Vec<GlobalImage>,
    /// Interned strings (NUL included); indices match [`Instr::StrAddr`].
    pub strings: Vec<Vec<u8>>,
}

impl CompiledProgram {
    /// Finds a function index by name.
    pub fn func_index(&self, name: &str) -> Option<u32> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// Total instruction count across all functions.
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Renders a human-readable disassembly (tests and debugging).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.funcs {
            let _ = writeln!(
                out,
                "fn {} (params: {}, frame: {} bytes)",
                f.name, f.param_count, f.frame.total
            );
            for (i, ins) in f.code.iter().enumerate() {
                let _ = writeln!(out, "  {i:4}: {ins}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_stays_within_16_bytes() {
        // `Const(i64)` sets the floor (interpreter code-cache footprint).
        assert_eq!(std::mem::size_of::<Instr>(), 16);
    }
}
