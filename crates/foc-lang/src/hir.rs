//! Typed, resolved intermediate representation.
//!
//! [`crate::sema`] lowers the AST into this form: every expression carries
//! its type, identifiers are resolved to slots, implicit conversions are
//! explicit [`Expr::Cast`] nodes, array indexing and member access are
//! lowered to pointer arithmetic, and lvalues are explicit address
//! expressions. The `foc-compiler` crate lowers this directly to bytecode.
//! Like the AST it is an arena: [`Program`] holds every node, and a
//! child is an [`Id`] or a [`List`] into it.

use crate::ast::pools;
pub use crate::ast::{Id, List, UnOp};
use crate::types::{CType, Layouts};

/// Index of a function in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// Index of a global in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// Index of a local slot within a function (parameters first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub u32);

/// Index of an interned string literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrId(pub u32);

/// Index of a label within a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// Builtin runtime functions provided by the VM (the libc shim layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    Malloc,
    Free,
    Realloc,
    Strlen,
    Strcpy,
    Strncpy,
    Strcat,
    Strncat,
    Strcmp,
    Strncmp,
    Strchr,
    Strrchr,
    Memcpy,
    Memmove,
    Memset,
    Memcmp,
    /// `print_str(char*)`: writes a NUL-terminated string to the output.
    PrintStr,
    /// `print_int(long)`: writes a decimal integer to the output.
    PrintInt,
    /// `putchar(int)`.
    Putchar,
    /// `abort(void)`: terminates the program abnormally.
    Abort,
    /// `exit(int)`.
    Exit,
    Isspace,
    Isdigit,
    Isalpha,
    Isprint,
    Toupper,
    Tolower,
    Atoi,
    /// `read_input(char* buf, long cap) -> long`: reads the next request
    /// chunk from the driver-supplied input stream; returns bytes read.
    ReadInput,
    /// `emit_output(char* buf, long len)`: appends raw bytes to the output
    /// sink (binary-safe `write`).
    EmitOutput,
    /// `io_wait(long bytes)`: models blocking I/O of `bytes` bytes; adds
    /// I/O time to the virtual clock without touching guest memory.
    IoWait,
}

impl Builtin {
    /// Resolves a callee name to a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "malloc" => Builtin::Malloc,
            "free" => Builtin::Free,
            "realloc" => Builtin::Realloc,
            "strlen" => Builtin::Strlen,
            "strcpy" => Builtin::Strcpy,
            "strncpy" => Builtin::Strncpy,
            "strcat" => Builtin::Strcat,
            "strncat" => Builtin::Strncat,
            "strcmp" => Builtin::Strcmp,
            "strncmp" => Builtin::Strncmp,
            "strchr" => Builtin::Strchr,
            "strrchr" => Builtin::Strrchr,
            "memcpy" => Builtin::Memcpy,
            "memmove" => Builtin::Memmove,
            "memset" => Builtin::Memset,
            "memcmp" => Builtin::Memcmp,
            "print_str" => Builtin::PrintStr,
            "print_int" => Builtin::PrintInt,
            "putchar" => Builtin::Putchar,
            "abort" => Builtin::Abort,
            "exit" => Builtin::Exit,
            "isspace" => Builtin::Isspace,
            "isdigit" => Builtin::Isdigit,
            "isalpha" => Builtin::Isalpha,
            "isprint" => Builtin::Isprint,
            "toupper" => Builtin::Toupper,
            "tolower" => Builtin::Tolower,
            "atoi" => Builtin::Atoi,
            "read_input" => Builtin::ReadInput,
            "emit_output" => Builtin::EmitOutput,
            "io_wait" => Builtin::IoWait,
            _ => return None,
        })
    }

    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Abort => 0,
            Builtin::Malloc
            | Builtin::Free
            | Builtin::Strlen
            | Builtin::PrintStr
            | Builtin::PrintInt
            | Builtin::Putchar
            | Builtin::Exit
            | Builtin::Isspace
            | Builtin::Isdigit
            | Builtin::Isalpha
            | Builtin::Isprint
            | Builtin::Toupper
            | Builtin::Tolower
            | Builtin::Atoi
            | Builtin::IoWait => 1,
            Builtin::Realloc
            | Builtin::Strcpy
            | Builtin::Strcat
            | Builtin::Strcmp
            | Builtin::Strchr
            | Builtin::Strrchr
            | Builtin::ReadInput
            | Builtin::EmitOutput => 2,
            Builtin::Strncpy
            | Builtin::Strncat
            | Builtin::Strncmp
            | Builtin::Memcpy
            | Builtin::Memmove
            | Builtin::Memset
            | Builtin::Memcmp => 3,
        }
    }
}

/// Binary operators on values (all operate on the canonical `i64`
/// representation; signedness is resolved at lowering time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division.
    DivS,
    /// Unsigned division.
    DivU,
    /// Signed remainder.
    RemS,
    /// Unsigned remainder.
    RemU,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic shift right.
    ShrS,
    /// Logical shift right.
    ShrU,
    Eq,
    Ne,
    /// Signed comparisons.
    LtS,
    LeS,
    GtS,
    GeS,
    /// Unsigned comparisons (also pointers).
    LtU,
    LeU,
    GtU,
    GeU,
}

/// Who a call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// A user-defined MiniC function.
    Func(FuncId),
    /// A VM builtin.
    Builtin(Builtin),
}

/// Typed expressions. Every node knows its result type via [`Expr::ty`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expr {
    /// Integer constant (already in canonical representation for its type).
    Const(i64, CType),
    /// Address of an interned string literal (`char*`).
    Str(StrId),
    /// Address of a local slot (`T*` where `T` is the slot type).
    LocalAddr(LocalId, CType),
    /// Address of a global (`T*`).
    GlobalAddr(GlobalId, CType),
    /// Scalar load from an address.
    Load {
        /// Address to load from.
        addr: Id<Expr>,
        /// Scalar type loaded.
        ty: CType,
    },
    /// Scalar store; evaluates to the stored value.
    Store {
        /// Address to store to.
        addr: Id<Expr>,
        /// Value to store.
        value: Id<Expr>,
        /// Scalar type stored.
        ty: CType,
    },
    /// Arithmetic/logical operation on values.
    Binary {
        op: BinOp,
        lhs: Id<Expr>,
        rhs: Id<Expr>,
        /// Result type (conversions applied by sema).
        ty: CType,
    },
    /// Unary operation.
    Unary {
        op: UnOp,
        operand: Id<Expr>,
        ty: CType,
    },
    /// Conversion between scalar types (truncation / extension /
    /// pointer-integer bridging).
    Cast {
        expr: Id<Expr>,
        from: CType,
        to: CType,
    },
    /// Checked pointer arithmetic: `ptr + count * elem_size` bytes.
    PtrAdd {
        ptr: Id<Expr>,
        /// Element count (may be negative).
        count: Id<Expr>,
        /// Element size in bytes.
        elem_size: u64,
        /// Result pointer type.
        ty: CType,
    },
    /// Pointer difference in elements: `(lhs - rhs) / elem_size`.
    PtrDiff {
        lhs: Id<Expr>,
        rhs: Id<Expr>,
        elem_size: u64,
    },
    /// Call a function or builtin.
    Call {
        callee: Callee,
        args: List<Expr>,
        /// Result type (`void` calls yield a dummy 0 in value position).
        ty: CType,
    },
    /// Short-circuit `&&` / `||`, yielding 0 or 1.
    ShortCircuit {
        and: bool,
        lhs: Id<Expr>,
        rhs: Id<Expr>,
    },
    /// `cond ? then : els` with lazy evaluation.
    Conditional {
        cond: Id<Expr>,
        then: Id<Expr>,
        els: Id<Expr>,
        ty: CType,
    },
    /// Evaluate `effects` for side effects, then yield `result`.
    Comma {
        effects: Id<Expr>,
        result: Id<Expr>,
        /// The type of `result`.
        ty: CType,
    },
    /// Pre/post increment/decrement of a scalar lvalue.
    IncDec {
        /// Address of the lvalue.
        addr: Id<Expr>,
        /// Scalar type of the lvalue.
        ty: CType,
        /// Byte delta (±1 for integers, ±elem_size handled via `ptr`).
        delta: i64,
        /// Whether the result is the new value (prefix) or old (postfix).
        prefix: bool,
        /// Whether this is pointer arithmetic (use checked PtrAdd).
        ptr: bool,
    },
}

impl Expr {
    /// The expression's result type.
    pub fn ty(&self) -> CType {
        match self {
            Expr::Str(_) => CType::CHAR_PTR,
            Expr::LocalAddr(_, t) | Expr::GlobalAddr(_, t) => t.ptr(),
            Expr::PtrDiff { .. } => CType::LONG,
            Expr::ShortCircuit { .. } => CType::INT,
            Expr::Const(_, ty)
            | Expr::Load { ty, .. }
            | Expr::Store { ty, .. }
            | Expr::Binary { ty, .. }
            | Expr::Unary { ty, .. }
            | Expr::Cast { to: ty, .. }
            | Expr::PtrAdd { ty, .. }
            | Expr::Call { ty, .. }
            | Expr::Conditional { ty, .. }
            | Expr::Comma { ty, .. }
            | Expr::IncDec { ty, .. } => *ty,
        }
    }
}

/// Typed statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stmt {
    /// Evaluate for side effects.
    Expr(Expr),
    /// `if`.
    If {
        cond: Expr,
        then: List<Stmt>,
        els: List<Stmt>,
    },
    /// `while` / `for` normalised: `for` becomes init + While with step.
    While {
        cond: Expr,
        body: List<Stmt>,
        /// Step expression executed at `continue` and end of body.
        step: Option<Expr>,
    },
    /// `do { } while`.
    DoWhile { body: List<Stmt>, cond: Expr },
    /// `break` out of the innermost loop.
    Break,
    /// `continue` the innermost loop.
    Continue,
    /// Return (with value unless the function is `void`).
    Return(Option<Expr>),
    /// Label target.
    Label(LabelId),
    /// Unconditional jump.
    Goto(LabelId),
    /// Conditional jump used by lowered `switch`: `if (scrutinee == value)
    /// goto label`.
    GotoIf { cond: Expr, target: LabelId },
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Number of leading slots that are parameters.
    pub param_count: usize,
    /// The type of each local slot, parameters first (arrays kept as
    /// arrays; they are addressable units).
    pub locals: Vec<CType>,
    /// Return type.
    pub ret: CType,
    /// Body.
    pub body: List<Stmt>,
    /// Number of labels used by the body.
    pub label_count: u32,
}

/// A global definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Type (arrays kept as arrays).
    pub ty: CType,
    /// Initial bytes (little-endian scalars / array contents); shorter
    /// than the type's size means the rest is zero.
    pub init: Vec<u8>,
    /// String relocations: at byte `offset`, the loader patches in the
    /// 8-byte address of the interned string (`char *p = "...";`).
    pub relocs: Vec<(u64, StrId)>,
}

/// A type-checked program ready for lowering.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Struct layouts (the [`Layouts`] oracle).
    pub layouts: Layouts,
    /// Globals in declaration order.
    pub globals: Vec<Global>,
    /// Interned string literals (NUL terminator included).
    pub strings: Vec<Vec<u8>>,
    /// Functions.
    pub funcs: Vec<Function>,
    pub(crate) exprs: Vec<Expr>,
    /// Each block's statements in a run of their own.
    pub(crate) stmts: Vec<Stmt>,
}

pools!(Program {
    exprs: Expr,
    stmts: Stmt
});
