//! Abstract syntax tree produced by the parser.
//!
//! The AST mirrors source syntax; types, name resolution, and implicit
//! conversions are resolved later by [`crate::sema`] into the
//! [`crate::hir`] representation consumed by the compiler.
//!
//! Both trees are arenas: every node of a program lives in one vector
//! per kind, a child is an [`Id`] into it, and every list (a block's
//! statements, a call's arguments, a declaration's declarators) is a
//! [`List`], one run of a pool. Indexing the tree with either yields the
//! node or the slice, and dropping it frees a handful of vectors.

use std::fmt;
use std::marker::PhantomData;

use crate::token::Pos;

/// Index of one `T` in its tree.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Id<T>(pub(crate) u32, PhantomData<fn() -> T>);

/// The run `.0...1` of consecutive `T`s in one of its tree's pools.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct List<T>(pub(crate) u32, pub(crate) u32, PhantomData<fn() -> T>);

impl<T> List<T> {
    /// The list with no items.
    pub const EMPTY: List<T> = List(0, 0, PhantomData);

    /// Number of items.
    pub fn len(self) -> usize {
        (self.1 - self.0) as usize
    }

    /// Whether there are none.
    pub fn is_empty(self) -> bool {
        self.0 == self.1
    }
}

impl<T> fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl<T> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}..{}", self.0, self.1)
    }
}

/// The refusal of a program with more items of one kind than ids.
pub(crate) const TOO_LARGE: &str = "program too large: over 2^32 - 2 nodes of one kind";

/// The id of the next item of a pool holding `len`, or `None` past the
/// `u32` id space (whose last id stays free, so every list's end fits).
pub(crate) fn next_id(len: usize) -> Option<u32> {
    u32::try_from(len).ok().filter(|&id| id < u32::MAX)
}

/// Appends `item` to `pool`, or `None` when the id space is full.
pub(crate) fn push<T>(pool: &mut Vec<T>, item: T) -> Option<Id<T>> {
    let id = next_id(pool.len())?;
    pool.push(item);
    Some(Id(id, PhantomData))
}

/// The items `pool` gained since it held `start`, or `None` when full.
pub(crate) fn tail<T>(pool: &[T], start: usize) -> Option<List<T>> {
    Some(List(start as u32, next_id(pool.len())?, PhantomData))
}

/// Makes `tree[id]` a node and `tree[list]` a slice of each named pool.
macro_rules! pools {
    ($tree:ty { $($pool:ident: $item:ty),* $(,)? }) => {$(
        impl std::ops::Index<$crate::ast::Id<$item>> for $tree {
            type Output = $item;
            fn index(&self, id: $crate::ast::Id<$item>) -> &$item {
                &self.$pool[id.0 as usize]
            }
        }
        impl std::ops::Index<$crate::ast::List<$item>> for $tree {
            type Output = [$item];
            fn index(&self, list: $crate::ast::List<$item>) -> &[$item] {
                &self.$pool[list.0 as usize..list.1 as usize]
            }
        }
    )*};
}
pub(crate) use pools;

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
    /// `!x`, which yields 0 or 1.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Pos),
    /// String literal.
    StrLit(List<u8>, Pos),
    /// Identifier reference.
    Ident(Symbol, Pos),
    /// `lhs op rhs`.
    Binary {
        op: BinOp,
        lhs: Id<Expr>,
        rhs: Id<Expr>,
        pos: Pos,
    },
    /// `op operand`.
    Unary {
        op: UnOp,
        operand: Id<Expr>,
        pos: Pos,
    },
    /// `*ptr`.
    Deref(Id<Expr>, Pos),
    /// `&lvalue`.
    AddrOf(Id<Expr>, Pos),
    /// `base[index]`.
    Index {
        base: Id<Expr>,
        index: Id<Expr>,
        pos: Pos,
    },
    /// `base.field` (`arrow` selects `base->field`).
    Member {
        base: Id<Expr>,
        field: Symbol,
        arrow: bool,
        pos: Pos,
    },
    /// Function call by name.
    Call {
        callee: Symbol,
        args: List<Expr>,
        pos: Pos,
    },
    /// `lvalue = value`.
    Assign {
        lhs: Id<Expr>,
        rhs: Id<Expr>,
        pos: Pos,
    },
    /// `lvalue op= value`.
    OpAssign {
        op: BinOp,
        lhs: Id<Expr>,
        rhs: Id<Expr>,
        pos: Pos,
    },
    /// `++x`, `--x`, `x++`, `x--`.
    IncDec {
        target: Id<Expr>,
        inc: bool,
        prefix: bool,
        pos: Pos,
    },
    /// `cond ? then : else`.
    Conditional {
        cond: Id<Expr>,
        then: Id<Expr>,
        els: Id<Expr>,
        pos: Pos,
    },
    /// `(type) expr`.
    Cast {
        ty: TypeExpr,
        expr: Id<Expr>,
        pos: Pos,
    },
    /// `sizeof(type)` or `sizeof expr`.
    SizeofType(TypeExpr, Pos),
    /// `sizeof expr`.
    SizeofExpr(Id<Expr>, Pos),
    /// `a, b` — evaluates both, yields the right operand.
    Comma {
        lhs: Id<Expr>,
        rhs: Id<Expr>,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initializer {
    /// `= expr`.
    Expr(Expr),
    /// `= { e, e, ... }` for arrays.
    List(List<Expr>),
}

/// One declarator within a declaration (`int *p, q[4]` has two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declarator {
    /// Declared name.
    pub name: Symbol,
    /// Full type after applying pointer/array syntax.
    pub ty: TypeExpr,
    /// Array dimension when declared as `name[N]` (outermost first);
    /// an empty list means not an array.
    pub array_dims: List<u64>,
    /// Optional initialiser.
    pub init: Option<Initializer>,
    /// Position of the name.
    pub pos: Pos,
}

/// Statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// Expression statement.
    Expr(Expr),
    /// Local variable declaration(s).
    Decl(List<Declarator>),
    /// `{ ... }`.
    Block(List<Stmt>),
    /// `if (cond) then else els`.
    If {
        cond: Expr,
        then: Id<Stmt>,
        els: Option<Id<Stmt>>,
    },
    /// `while (cond) body`.
    While { cond: Expr, body: Id<Stmt> },
    /// `do body while (cond);`.
    DoWhile { body: Id<Stmt>, cond: Expr },
    /// `for (init; cond; step) body`.
    For {
        init: Option<Id<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Id<Stmt>,
    },
    /// `switch (scrutinee) { case ...: ... }`.
    Switch { scrutinee: Expr, body: List<Stmt> },
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: Symbol,
    /// Field type.
    pub ty: TypeExpr,
    /// Array dimension, if `name[N]`.
    pub array_dims: List<u64>,
}

/// A struct definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructDecl {
    /// Struct tag.
    pub name: Symbol,
    /// Fields in declaration order.
    pub fields: List<FieldDecl>,
    /// Position of the tag.
    pub pos: Pos,
}

/// A function parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Parameter type.
    pub ty: TypeExpr,
}

/// A function definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncDecl {
    /// Function name.
    pub name: Symbol,
    /// Return type.
    pub ret: TypeExpr,
    /// Parameters.
    pub params: List<Param>,
    /// Body statements.
    pub body: List<Stmt>,
    /// Position of the name.
    pub pos: Pos,
}

/// Top-level items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// Struct definition.
    Struct(StructDecl),
    /// Global variable declaration(s).
    Global(List<Declarator>),
    /// Function definition.
    Func(FuncDecl),
}

/// A parsed translation unit: its items, and the pools every node and
/// list of theirs lives in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TranslationUnit {
    /// Items in source order.
    pub items: Vec<Item>,
    /// Every identifier the items name.
    pub names: Names,
    pub(crate) exprs: Vec<Expr>,
    pub(crate) stmts: Vec<Stmt>,
    pub(crate) decls: Vec<Declarator>,
    pub(crate) dims: Vec<u64>,
    pub(crate) fields: Vec<FieldDecl>,
    pub(crate) params: Vec<Param>,
    /// String literals' bytes.
    pub(crate) bytes: Vec<u8>,
}

impl TranslationUnit {
    /// `e` folded to a constant, as C folds an integer constant
    /// expression: literals under any operator, and casts, which
    /// truncate and extend to an integer type.
    pub(crate) fn const_eval(&self, e: &Expr) -> Option<i64> {
        let sub = |id: Id<Expr>| self.const_eval(&self[id]);
        Some(match *e {
            Expr::IntLit(v, _) => v,
            Expr::Unary { op, operand, .. } => {
                let v = sub(operand)?;
                match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::BitNot => !v,
                    UnOp::Not => (v == 0) as i64,
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (l, r) = (sub(lhs)?, sub(rhs)?);
                use BinOp as B;
                match op {
                    B::Add => l.wrapping_add(r),
                    B::Sub => l.wrapping_sub(r),
                    B::Mul => l.wrapping_mul(r),
                    B::Div => l.checked_div(r)?,
                    B::Rem => l.checked_rem(r)?,
                    B::And => l & r,
                    B::Or => l | r,
                    B::Xor => l ^ r,
                    B::Shl => l.wrapping_shl(r as u32),
                    B::Shr => l.wrapping_shr(r as u32),
                    B::Eq => (l == r) as i64,
                    B::Ne => (l != r) as i64,
                    B::Lt => (l < r) as i64,
                    B::Gt => (l > r) as i64,
                    B::Le => (l <= r) as i64,
                    B::Ge => (l >= r) as i64,
                    B::LogicalAnd => ((l != 0) && (r != 0)) as i64,
                    B::LogicalOr => ((l != 0) || (r != 0)) as i64,
                }
            }
            Expr::Cast { ty, expr, .. } => {
                let v = sub(expr)?;
                match ty.base {
                    BaseType::Int { width, signed } if ty.pointers == 0 && width < 8 => {
                        let shift = 64 - 8 * u32::from(width);
                        if signed {
                            (v << shift) >> shift
                        } else {
                            ((v as u64) << shift >> shift) as i64
                        }
                    }
                    _ => v,
                }
            }
            _ => return None,
        })
    }
}

pools!(TranslationUnit {
    exprs: Expr,
    stmts: Stmt,
    decls: Declarator,
    dims: u64,
    fields: FieldDecl,
    params: Param,
    bytes: u8,
});
