//! Abstract syntax tree produced by the parser.
//!
//! The AST mirrors source syntax; types, name resolution, and implicit
//! conversions are resolved later by [`crate::sema`] into the
//! [`crate::hir`] representation consumed by the compiler.

use crate::token::Pos;

/// An identifier, interned: the same name is the same symbol throughout
/// a translation unit, and [`Names::get`] spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// The identifiers of a translation unit, each stored once.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Names {
    text: String,
    /// Where each symbol's spelling ends in `text`.
    ends: Vec<usize>,
}

impl Names {
    /// Stores `name` as a new symbol (the parser's interner dedupes).
    pub(crate) fn push(&mut self, name: &str) -> Symbol {
        let sym = Symbol(self.ends.len() as u32);
        self.text.push_str(name);
        self.ends.push(self.text.len());
        sym
    }

    /// The spelling of `sym`.
    pub fn get(&self, sym: Symbol) -> &str {
        let i = sym.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A parsed type as written in source (before struct resolution): a
/// base type under `pointers` levels of `*`. Array dimensions belong to
/// the declarator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeExpr {
    /// The type the `*`s apply to.
    pub base: BaseType,
    /// Levels of pointer.
    pub pointers: u32,
}

impl TypeExpr {
    /// `base` with no pointer levels.
    pub fn base(base: BaseType) -> TypeExpr {
        TypeExpr { base, pointers: 0 }
    }

    /// Pointer to this type.
    pub fn ptr(self) -> TypeExpr {
        TypeExpr {
            pointers: self.pointers + 1,
            ..self
        }
    }
}

/// The base of a [`TypeExpr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseType {
    /// `void`.
    Void,
    /// Integer type with explicit signedness/width (e.g. `unsigned char`).
    Int {
        /// Width in bytes (1, 2, 4, or 8).
        width: u8,
        /// Signedness.
        signed: bool,
    },
    /// `struct Name`.
    Struct(Symbol),
}

/// Binary operators (value-level; pointer arithmetic is resolved in sema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    LogicalAnd,
    LogicalOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`.
    Neg,
    /// `~x`.
    BitNot,
    /// `!x`.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Pos),
    /// String literal.
    StrLit(Vec<u8>, Pos),
    /// Identifier reference.
    Ident(Symbol, Pos),
    /// `lhs op rhs`.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
    /// `op operand`.
    Unary {
        op: UnOp,
        operand: Box<Expr>,
        pos: Pos,
    },
    /// `*ptr`.
    Deref(Box<Expr>, Pos),
    /// `&lvalue`.
    AddrOf(Box<Expr>, Pos),
    /// `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        pos: Pos,
    },
    /// `base.field` (`arrow` selects `base->field`).
    Member {
        base: Box<Expr>,
        field: Symbol,
        arrow: bool,
        pos: Pos,
    },
    /// Function call by name.
    Call {
        callee: Symbol,
        args: Vec<Expr>,
        pos: Pos,
    },
    /// `lvalue = value`.
    Assign {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
    /// `lvalue op= value`.
    OpAssign {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
    /// `++x`, `--x`, `x++`, `x--`.
    IncDec {
        target: Box<Expr>,
        inc: bool,
        prefix: bool,
        pos: Pos,
    },
    /// `cond ? then : else`.
    Conditional {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
        pos: Pos,
    },
    /// `(type) expr`.
    Cast {
        ty: TypeExpr,
        expr: Box<Expr>,
        pos: Pos,
    },
    /// `sizeof(type)` or `sizeof expr`.
    SizeofType(TypeExpr, Pos),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>, Pos),
    /// `a, b` — evaluates both, yields the right operand.
    Comma {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
}

impl Expr {
    /// Source position of the expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::IntLit(_, p)
            | Expr::StrLit(_, p)
            | Expr::Ident(_, p)
            | Expr::Deref(_, p)
            | Expr::AddrOf(_, p)
            | Expr::SizeofType(_, p)
            | Expr::SizeofExpr(_, p) => *p,
            Expr::Binary { pos, .. }
            | Expr::Unary { pos, .. }
            | Expr::Index { pos, .. }
            | Expr::Member { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Assign { pos, .. }
            | Expr::OpAssign { pos, .. }
            | Expr::IncDec { pos, .. }
            | Expr::Conditional { pos, .. }
            | Expr::Cast { pos, .. }
            | Expr::Comma { pos, .. } => *pos,
        }
    }
}

/// A local declaration's initialiser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Initializer {
    /// `= expr`.
    Expr(Expr),
    /// `= { e, e, ... }` for arrays.
    List(Vec<Expr>),
}

/// One declarator within a declaration (`int *p, q[4]` has two).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declarator {
    /// Declared name.
    pub name: Symbol,
    /// Full type after applying pointer/array syntax.
    pub ty: TypeExpr,
    /// Array dimension when declared as `name[N]` (outermost first);
    /// an empty vec means not an array.
    pub array_dims: Vec<u64>,
    /// Optional initialiser.
    pub init: Option<Initializer>,
    /// Position of the name.
    pub pos: Pos,
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Expression statement.
    Expr(Expr),
    /// Local variable declaration(s).
    Decl(Vec<Declarator>),
    /// `{ ... }`.
    Block(Vec<Stmt>),
    /// `if (cond) then else els`.
    If {
        cond: Expr,
        then: Box<Stmt>,
        els: Option<Box<Stmt>>,
    },
    /// `while (cond) body`.
    While { cond: Expr, body: Box<Stmt> },
    /// `do body while (cond);`.
    DoWhile { body: Box<Stmt>, cond: Expr },
    /// `for (init; cond; step) body`.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    /// `switch (scrutinee) { case ...: ... }`.
    Switch { scrutinee: Expr, body: Vec<Stmt> },
    /// `case value:` (must appear inside a switch body).
    Case(i64, Pos),
    /// `default:`.
    Default(Pos),
    /// `break;`.
    Break(Pos),
    /// `continue;`.
    Continue(Pos),
    /// `return expr?;`.
    Return(Option<Expr>, Pos),
    /// `label:`.
    Label(Symbol, Pos),
    /// `goto label;`.
    Goto(Symbol, Pos),
    /// `;`.
    Empty,
}

/// A struct field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: Symbol,
    /// Field type.
    pub ty: TypeExpr,
    /// Array dimension, if `name[N]`.
    pub array_dims: Vec<u64>,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Struct tag.
    pub name: Symbol,
    /// Fields in declaration order.
    pub fields: Vec<FieldDecl>,
    /// Position of the tag.
    pub pos: Pos,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Parameter type.
    pub ty: TypeExpr,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDecl {
    /// Function name.
    pub name: Symbol,
    /// Return type.
    pub ret: TypeExpr,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Position of the name.
    pub pos: Pos,
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// Struct definition.
    Struct(StructDecl),
    /// Global variable declaration(s).
    Global(Vec<Declarator>),
    /// Function definition.
    Func(FuncDecl),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TranslationUnit {
    /// Items in source order.
    pub items: Vec<Item>,
    /// Every identifier the items name.
    pub names: Names,
}
