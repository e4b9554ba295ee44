//! Recursive-descent parser for MiniC.

use std::collections::HashMap;
use std::fmt;

use crate::ast::*;
use crate::lexer::{string_bytes, LexError, Lexer};
use crate::token::{Described, Keyword, Pos, Span, Tok, Token};

/// How deeply a program may nest: statements in statements, operands in
/// expressions (a chain such as `a + b + c` or `p->q->r` nests one level
/// per operator), `*`s and array dimensions in a type. Every later pass
/// walks the tree recursively, so this bound is what keeps hostile input
/// from exhausting the host's stack. The servers reach 20 levels.
pub const MAX_NESTING: u32 = 256;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.pos)
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            pos: e.pos,
        }
    }
}

/// Parses a MiniC translation unit.
pub fn parse(source: &str) -> Result<TranslationUnit, ParseError> {
    let tokens = Lexer::new(source).tokenize()?;
    // The token count sizes each pool once: the servers hold an expression
    // per three tokens, a statement per seven, a declarator per 25.
    let n = tokens.len();
    Parser {
        src: source,
        tokens,
        at: 0,
        depth: 0,
        symbols: HashMap::with_capacity(n / 8),
        unit: TranslationUnit {
            items: Vec::with_capacity(n / 32),
            names: Names::default(),
            exprs: Vec::with_capacity(n / 2),
            stmts: Vec::with_capacity(n / 4),
            decls: Vec::with_capacity(n / 16),
            dims: Vec::with_capacity(n / 32),
            fields: Vec::with_capacity(n / 32),
            params: Vec::with_capacity(n / 32),
            bytes: Vec::with_capacity(source.len() / 16),
        },
        stmts: Vec::with_capacity(n / 16),
        exprs: Vec::with_capacity(n / 16),
    }
    .parse_unit()
}

/// `id`, or the refusal at `pos` of a program past the `u32` id space.
fn fits<T>(id: Option<T>, pos: Pos) -> Result<T, ParseError> {
    id.ok_or_else(|| ParseError {
        message: TOO_LARGE.into(),
        pos,
    })
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    at: usize,
    /// Current nesting (see [`MAX_NESTING`]).
    depth: u32,
    /// The interner: each identifier's symbol, by spelling.
    symbols: HashMap<&'a str, Symbol>,
    /// The tree so far.
    unit: TranslationUnit,
    /// The statements of every open block, innermost last: a list is
    /// gathered here and moved to its pool when it closes.
    stmts: Vec<Stmt>,
    /// Likewise the arguments of every open call or initialiser list.
    exprs: Vec<Expr>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok {
        self.tokens[self.at].kind
    }

    fn peek2(&self) -> Tok {
        let i = (self.at + 1).min(self.tokens.len() - 1);
        self.tokens[i].kind
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                self.describe(tok),
                self.describe(self.peek())
            )))
        }
    }

    fn describe(&self, tok: Tok) -> Described<'a> {
        tok.describe(self.src)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            pos: self.pos(),
        }
    }

    /// Goes one level deeper, refusing past [`MAX_NESTING`]. The caller
    /// restores `depth` when it leaves the level.
    fn deeper(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    #[cold]
    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `parse` one level deeper.
    #[inline(always)]
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deeper()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn expr(&mut self, e: Expr) -> Result<Id<Expr>, ParseError> {
        fits(push(&mut self.unit.exprs, e), self.pos())
    }

    fn stmt_id(&mut self, s: Stmt) -> Result<Id<Stmt>, ParseError> {
        fits(push(&mut self.unit.stmts, s), self.pos())
    }

    /// A statement nested in one (a branch, a loop body).
    fn child(&mut self) -> Result<Id<Stmt>, ParseError> {
        let s = self.parse_stmt()?;
        self.stmt_id(s)
    }

    /// Statements up to the closing `}` (the `{` consumed).
    fn parse_block_body(&mut self) -> Result<List<Stmt>, ParseError> {
        let base = self.stmts.len();
        while !self.eat(Tok::RBrace) {
            let stmt = self.parse_stmt()?;
            self.stmts.push(stmt);
        }
        let start = self.unit.stmts.len();
        self.unit.stmts.extend(self.stmts.drain(base..));
        fits(tail(&self.unit.stmts, start), self.pos())
    }

    /// Comma-separated assignment expressions up to `close` (the opener
    /// consumed), allowing a trailing comma when `trailing`.
    fn parse_list(&mut self, close: Tok, trailing: bool) -> Result<List<Expr>, ParseError> {
        let base = self.exprs.len();
        if !self.eat(close) {
            loop {
                let e = self.parse_assign()?;
                self.exprs.push(e);
                if !self.eat(Tok::Comma) || (trailing && self.peek() == close) {
                    break;
                }
            }
            self.expect(close)?;
        }
        let start = self.unit.exprs.len();
        self.unit.exprs.extend(self.exprs.drain(base..));
        fits(tail(&self.unit.exprs, start), self.pos())
    }

    fn intern(&mut self, span: Span) -> Symbol {
        let name = span.text(self.src);
        let names = &mut self.unit.names;
        *self.symbols.entry(name).or_insert_with(|| names.push(name))
    }

    fn expect_ident(&mut self) -> Result<(Symbol, Pos), ParseError> {
        let pos = self.pos();
        match self.bump() {
            Tok::Ident(span) => Ok((self.intern(span), pos)),
            other => Err(ParseError {
                message: format!("expected identifier, found {}", self.describe(other)),
                pos,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Types.
    // ------------------------------------------------------------------

    /// Whether the current token can begin a type.
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Signed
                    | Keyword::Unsigned
                    | Keyword::Struct
                    | Keyword::SizeT
                    | Keyword::Static
                    | Keyword::Const
            )
        )
    }

    /// Parses a type specifier (without declarator pointers).
    fn parse_base_type(&mut self) -> Result<TypeExpr, ParseError> {
        // Skip storage/qualifier keywords.
        while matches!(self.peek(), Tok::Kw(Keyword::Static | Keyword::Const)) {
            self.bump();
        }
        let mut signed: Option<bool> = None;
        let mut base: Option<BaseType> = None;
        let mut long_count = 0;
        let int = |width| {
            Some(BaseType::Int {
                width,
                signed: true,
            })
        };
        loop {
            match self.peek() {
                Tok::Kw(Keyword::Signed) => {
                    self.bump();
                    signed = Some(true);
                }
                Tok::Kw(Keyword::Unsigned) => {
                    self.bump();
                    signed = Some(false);
                }
                Tok::Kw(Keyword::Const) => {
                    self.bump();
                }
                Tok::Kw(Keyword::Void) => {
                    self.bump();
                    base = Some(BaseType::Void);
                }
                Tok::Kw(Keyword::Char) => {
                    self.bump();
                    base = int(1);
                }
                Tok::Kw(Keyword::Short) => {
                    self.bump();
                    base = int(2);
                    // Allow `short int`.
                    if matches!(self.peek(), Tok::Kw(Keyword::Int)) {
                        self.bump();
                    }
                }
                Tok::Kw(Keyword::Int) => {
                    self.bump();
                    if base.is_none() {
                        base = int(4);
                    }
                }
                Tok::Kw(Keyword::Long) => {
                    self.bump();
                    long_count += 1;
                    base = int(8);
                    if long_count > 2 {
                        return Err(self.err("too many `long`s"));
                    }
                }
                Tok::Kw(Keyword::SizeT) => {
                    self.bump();
                    base = Some(BaseType::Int {
                        width: 8,
                        signed: false,
                    });
                }
                Tok::Kw(Keyword::Struct) => {
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    base = Some(BaseType::Struct(name));
                }
                _ => break,
            }
        }
        let Some(mut base) = base.or(signed.and(int(4))) else {
            return Err(self.err("expected type"));
        };
        if let (BaseType::Int { width, .. }, Some(s)) = (base, signed) {
            base = BaseType::Int { width, signed: s };
        }
        Ok(TypeExpr::base(base))
    }

    /// Applies `*` pointer declarator syntax.
    fn parse_pointers(&mut self, mut ty: TypeExpr) -> Result<TypeExpr, ParseError> {
        let depth = self.depth;
        while self.eat(Tok::Star) {
            self.deeper()?;
            // `const` may qualify the pointer; ignored.
            while matches!(self.peek(), Tok::Kw(Keyword::Const)) {
                self.bump();
            }
            ty = ty.ptr();
        }
        self.depth = depth;
        Ok(ty)
    }

    /// Parses a complete abstract type (for casts and sizeof).
    fn parse_type(&mut self) -> Result<TypeExpr, ParseError> {
        let base = self.parse_base_type()?;
        self.parse_pointers(base)
    }

    /// Parses array dimensions after a declarator name.
    fn parse_array_dims(&mut self) -> Result<List<u64>, ParseError> {
        let depth = self.depth;
        let start = self.unit.dims.len();
        while self.eat(Tok::LBracket) {
            self.deeper()?;
            if self.eat(Tok::RBracket) {
                // `[]`: size inferred from the initialiser.
                self.unit.dims.push(0);
                continue;
            }
            let e = self.parse_conditional()?;
            let v = self
                .unit
                .const_eval(&e)
                .ok_or_else(|| self.err("array dimension must be a constant expression"))?;
            if v <= 0 {
                return Err(self.err("array dimension must be positive"));
            }
            self.unit.dims.push(v as u64);
            self.expect(Tok::RBracket)?;
        }
        self.depth = depth;
        fits(tail(&self.unit.dims, start), self.pos())
    }

    // ------------------------------------------------------------------
    // Top level.
    // ------------------------------------------------------------------

    fn parse_unit(mut self) -> Result<TranslationUnit, ParseError> {
        while self.peek() != Tok::Eof {
            let item = self.parse_item()?;
            self.unit.items.push(item);
        }
        Ok(self.unit)
    }

    fn parse_item(&mut self) -> Result<Item, ParseError> {
        // `struct Name { ... };` is a struct definition; `struct Name x;`
        // is a global. Disambiguate by looking past the tag.
        if matches!(self.peek(), Tok::Kw(Keyword::Struct))
            && matches!(self.peek2(), Tok::Ident(_))
            && self.tokens.get(self.at + 2).map(|t| t.kind) == Some(Tok::LBrace)
        {
            return Ok(Item::Struct(self.parse_struct()?));
        }
        if !self.at_type() {
            return Err(self.err(format!(
                "expected declaration or function, found {}",
                self.describe(self.peek())
            )));
        }
        let base = self.parse_base_type()?;
        let ty = self.parse_pointers(base)?;
        let (name, pos) = self.expect_ident()?;
        if self.peek() == Tok::LParen {
            return Ok(Item::Func(self.parse_func(ty, name, pos)?));
        }
        // Global declarator list.
        let decls = self.parse_declarator_list(base, ty, name, pos)?;
        Ok(Item::Global(decls))
    }

    fn parse_struct(&mut self) -> Result<StructDecl, ParseError> {
        self.expect(Tok::Kw(Keyword::Struct))?;
        let (name, pos) = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let start = self.unit.fields.len();
        while !self.eat(Tok::RBrace) {
            let base = self.parse_base_type()?;
            loop {
                let fty = self.parse_pointers(base)?;
                let (fname, _) = self.expect_ident()?;
                let dims = self.parse_array_dims()?;
                self.unit.fields.push(FieldDecl {
                    name: fname,
                    ty: fty,
                    array_dims: dims,
                });
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Semi)?;
        }
        self.expect(Tok::Semi)?;
        let fields = fits(tail(&self.unit.fields, start), self.pos())?;
        Ok(StructDecl { name, fields, pos })
    }

    fn parse_func(
        &mut self,
        ret: TypeExpr,
        name: Symbol,
        pos: Pos,
    ) -> Result<FuncDecl, ParseError> {
        self.expect(Tok::LParen)?;
        let start = self.unit.params.len();
        if !self.eat(Tok::RParen) {
            // `(void)` means no parameters.
            if matches!(self.peek(), Tok::Kw(Keyword::Void)) && self.peek2() == Tok::RParen {
                self.bump();
                self.expect(Tok::RParen)?;
            } else {
                loop {
                    let base = self.parse_base_type()?;
                    let ty = self.parse_pointers(base)?;
                    let (pname, _) = self.expect_ident()?;
                    // Array parameters decay to pointers.
                    let dims = self.parse_array_dims()?;
                    let ty = if dims.is_empty() { ty } else { ty.ptr() };
                    self.unit.params.push(Param { name: pname, ty });
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
            }
        }
        let params = fits(tail(&self.unit.params, start), self.pos())?;
        self.expect(Tok::LBrace)?;
        let body = self.parse_block_body()?;
        Ok(FuncDecl {
            name,
            ret,
            params,
            body,
            pos,
        })
    }

    /// Parses the rest of a declarator list, having already consumed the
    /// base type, pointers, and the first name.
    fn parse_declarator_list(
        &mut self,
        base: TypeExpr,
        first_ty: TypeExpr,
        first_name: Symbol,
        first_pos: Pos,
    ) -> Result<List<Declarator>, ParseError> {
        let start = self.unit.decls.len();
        let dims = self.parse_array_dims()?;
        let init = if self.eat(Tok::Assign) {
            Some(self.parse_initializer()?)
        } else {
            None
        };
        self.unit.decls.push(Declarator {
            name: first_name,
            ty: first_ty,
            array_dims: dims,
            init,
            pos: first_pos,
        });
        while self.eat(Tok::Comma) {
            let ty = self.parse_pointers(base)?;
            let (name, pos) = self.expect_ident()?;
            let dims = self.parse_array_dims()?;
            let init = if self.eat(Tok::Assign) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            self.unit.decls.push(Declarator {
                name,
                ty,
                array_dims: dims,
                init,
                pos,
            });
        }
        self.expect(Tok::Semi)?;
        fits(tail(&self.unit.decls, start), self.pos())
    }

    fn parse_initializer(&mut self) -> Result<Initializer, ParseError> {
        if self.eat(Tok::LBrace) {
            let items = self.parse_list(Tok::RBrace, true)?;
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Expr(self.parse_assign()?))
        }
    }

    // ------------------------------------------------------------------
    // Statements.
    // ------------------------------------------------------------------

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::LBrace => {
                self.bump();
                Ok(Stmt::Block(self.parse_block_body()?))
            }
            Tok::Kw(Keyword::If) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let then = self.child()?;
                let els = if self.eat(Tok::Kw(Keyword::Else)) {
                    Some(self.child()?)
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::Kw(Keyword::While) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let body = self.child()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Kw(Keyword::Do) => {
                self.bump();
                let body = self.child()?;
                self.expect(Tok::Kw(Keyword::While))?;
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::Kw(Keyword::For) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.eat(Tok::Semi) {
                    None
                } else {
                    let init = if self.at_type() {
                        self.parse_decl_stmt()?
                    } else {
                        let e = self.parse_expr()?;
                        self.expect(Tok::Semi)?;
                        Stmt::Expr(e)
                    };
                    Some(self.stmt_id(init)?)
                };
                let cond = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::RParen)?;
                let body = self.child()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Kw(Keyword::Switch) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let scrutinee = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::LBrace)?;
                let body = self.parse_block_body()?;
                Ok(Stmt::Switch { scrutinee, body })
            }
            Tok::Kw(Keyword::Case) => {
                self.bump();
                let e = self.parse_conditional()?;
                let v = self
                    .unit
                    .const_eval(&e)
                    .ok_or_else(|| self.err("case label must be constant"))?;
                self.expect(Tok::Colon)?;
                Ok(Stmt::Case(v, pos))
            }
            Tok::Kw(Keyword::Default) => {
                self.bump();
                self.expect(Tok::Colon)?;
                Ok(Stmt::Default(pos))
            }
            Tok::Kw(Keyword::Break) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break(pos))
            }
            Tok::Kw(Keyword::Continue) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            Tok::Kw(Keyword::Return) => {
                self.bump();
                if self.eat(Tok::Semi) {
                    Ok(Stmt::Return(None, pos))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Return(Some(e), pos))
                }
            }
            Tok::Kw(Keyword::Goto) => {
                self.bump();
                let (label, _) = self.expect_ident()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Goto(label, pos))
            }
            // `ident:` is a label.
            Tok::Ident(_) if self.peek2() == Tok::Colon => {
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::Colon)?;
                Ok(Stmt::Label(name, pos))
            }
            _ if self.at_type() => self.parse_decl_stmt(),
            _ => {
                let e = self.parse_expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let base = self.parse_base_type()?;
        let ty = self.parse_pointers(base)?;
        let (name, pos) = self.expect_ident()?;
        let decls = self.parse_declarator_list(base, ty, name, pos)?;
        Ok(Stmt::Decl(decls))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing).
    // ------------------------------------------------------------------

    /// Full expression, including the comma operator.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut e = self.parse_assign()?;
        while self.peek() == Tok::Comma {
            self.deeper()?;
            let pos = self.pos();
            self.bump();
            let rhs = self.parse_assign()?;
            e = Expr::Comma {
                lhs: self.expr(e)?,
                rhs: self.expr(rhs)?,
                pos,
            };
        }
        self.depth = depth;
        Ok(e)
    }

    /// Assignment expression (no top-level comma).
    fn parse_assign(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::assign)
    }

    fn assign(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_conditional()?;
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Rem),
            Tok::AmpAssign => Some(BinOp::And),
            Tok::PipeAssign => Some(BinOp::Or),
            Tok::CaretAssign => Some(BinOp::Xor),
            Tok::ShlAssign => Some(BinOp::Shl),
            Tok::ShrAssign => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_assign()?; // right associative
        Ok(match op {
            None => Expr::Assign {
                lhs: self.expr(lhs)?,
                rhs: self.expr(rhs)?,
                pos,
            },
            Some(op) => Expr::OpAssign {
                op,
                lhs: self.expr(lhs)?,
                rhs: self.expr(rhs)?,
                pos,
            },
        })
    }

    fn parse_conditional(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(0)?;
        if self.peek() == Tok::Question {
            let pos = self.pos();
            self.bump();
            let then = self.parse_expr()?;
            self.expect(Tok::Colon)?;
            let els = self.parse_assign()?;
            Ok(Expr::Conditional {
                cond: self.expr(cond)?,
                then: self.expr(then)?,
                els: self.expr(els)?,
                pos,
            })
        } else {
            Ok(cond)
        }
    }

    fn binop_of(tok: Tok) -> Option<(BinOp, u8)> {
        Some(match tok {
            Tok::OrOr => (BinOp::LogicalOr, 1),
            Tok::AndAnd => (BinOp::LogicalAnd, 2),
            Tok::Pipe => (BinOp::Or, 3),
            Tok::Caret => (BinOp::Xor, 4),
            Tok::Amp => (BinOp::And, 5),
            Tok::Eq => (BinOp::Eq, 6),
            Tok::Ne => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = Self::binop_of(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.deeper()?;
            let pos = self.pos();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: self.expr(lhs)?,
                rhs: self.expr(rhs)?,
                pos,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    operand: self.expr(e)?,
                    pos,
                })
            }
            Tok::Plus => {
                self.bump();
                self.parse_unary()
            }
            Tok::Tilde => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::BitNot,
                    operand: self.expr(e)?,
                    pos,
                })
            }
            Tok::Bang => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    operand: self.expr(e)?,
                    pos,
                })
            }
            Tok::Star => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::Deref(self.expr(e)?, pos))
            }
            Tok::Amp => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::AddrOf(self.expr(e)?, pos))
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let inc = self.peek() == Tok::PlusPlus;
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::IncDec {
                    target: self.expr(e)?,
                    inc,
                    prefix: true,
                    pos,
                })
            }
            Tok::Kw(Keyword::Sizeof) => {
                self.bump();
                if self.peek() == Tok::LParen {
                    // Could be `sizeof(type)` or `sizeof(expr)`.
                    let save = self.at;
                    self.bump();
                    if self.at_type() {
                        let ty = self.parse_type()?;
                        self.expect(Tok::RParen)?;
                        return Ok(Expr::SizeofType(ty, pos));
                    }
                    self.at = save;
                }
                let e = self.parse_unary()?;
                Ok(Expr::SizeofExpr(self.expr(e)?, pos))
            }
            // Cast: `(type) unary`.
            Tok::LParen => {
                let save = self.at;
                self.bump();
                if self.at_type() {
                    let ty = self.parse_type()?;
                    self.expect(Tok::RParen)?;
                    let e = self.parse_unary()?;
                    return Ok(Expr::Cast {
                        ty,
                        expr: self.expr(e)?,
                        pos,
                    });
                }
                self.at = save;
                self.parse_postfix()
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut e = self.parse_primary()?;
        loop {
            let pos = self.pos();
            let tok = self.peek();
            if matches!(
                tok,
                Tok::LBracket | Tok::Dot | Tok::Arrow | Tok::PlusPlus | Tok::MinusMinus
            ) {
                self.deeper()?;
            }
            match tok {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Index {
                        base: self.expr(e)?,
                        index: self.expr(idx)?,
                        pos,
                    };
                }
                Tok::Dot => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::Member {
                        base: self.expr(e)?,
                        field,
                        arrow: false,
                        pos,
                    };
                }
                Tok::Arrow => {
                    self.bump();
                    let (field, _) = self.expect_ident()?;
                    e = Expr::Member {
                        base: self.expr(e)?,
                        field,
                        arrow: true,
                        pos,
                    };
                }
                Tok::PlusPlus | Tok::MinusMinus => {
                    let inc = self.peek() == Tok::PlusPlus;
                    self.bump();
                    e = Expr::IncDec {
                        target: self.expr(e)?,
                        inc,
                        prefix: false,
                        pos,
                    };
                }
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.bump() {
            Tok::IntLit(v) => Ok(Expr::IntLit(v, pos)),
            Tok::StrLit(span) => {
                let start = self.unit.bytes.len();
                string_bytes(self.src, span, &mut self.unit.bytes);
                Ok(Expr::StrLit(
                    fits(tail(&self.unit.bytes, start), self.pos())?,
                    pos,
                ))
            }
            Tok::Ident(span) => {
                let name = self.intern(span);
                if self.peek() == Tok::LParen {
                    self.bump();
                    let args = self.parse_list(Tok::RParen, false)?;
                    Ok(Expr::Call {
                        callee: name,
                        args,
                        pos,
                    })
                } else {
                    Ok(Expr::Ident(name, pos))
                }
            }
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(ParseError {
                message: format!("expected expression, found {}", self.describe(other)),
                pos,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        match parse(src) {
            Ok(u) => u,
            Err(e) => panic!("parse failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn parses_minimal_function() {
        let u = parse_ok("int main() { return 0; }");
        assert_eq!(u.items.len(), 1);
        let Item::Func(f) = &u.items[0] else {
            panic!("expected function");
        };
        assert_eq!(u.names.get(f.name), "main");
        assert_eq!(f.params.len(), 0);
    }

    #[test]
    fn parses_void_parameter_list() {
        let u = parse_ok("int f(void) { return 1; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert!(f.params.is_empty());
    }

    #[test]
    fn parses_pointer_and_array_declarations() {
        let u = parse_ok("char *p; int xs[10]; char grid[3][4]; unsigned long n = 7;");
        assert_eq!(u.items.len(), 4);
        let Item::Global(g) = &u.items[1] else {
            panic!()
        };
        assert_eq!(u[u[*g][0].array_dims], [10]);
        let Item::Global(g) = &u.items[2] else {
            panic!()
        };
        assert_eq!(u[u[*g][0].array_dims], [3, 4]);
    }

    #[test]
    fn parses_struct_definition_and_use() {
        let u = parse_ok(
            "struct point { int x; int y; char tag[8]; };\n\
             struct point origin;\n\
             int get_x(struct point *p) { return p->x; }",
        );
        assert_eq!(u.items.len(), 3);
        let Item::Struct(s) = &u.items[0] else {
            panic!()
        };
        assert_eq!(s.fields.len(), 3);
        assert_eq!(u[u[s.fields][2].array_dims], [8]);
    }

    #[test]
    fn parses_control_flow() {
        parse_ok(
            "int f(int n) {\n\
               int i; int acc = 0;\n\
               for (i = 0; i < n; i++) { acc += i; }\n\
               while (acc > 100) acc /= 2;\n\
               do { acc--; } while (acc % 3);\n\
               if (acc) return acc; else return -1;\n\
             }",
        );
    }

    #[test]
    fn parses_goto_and_labels() {
        let u = parse_ok(
            "int f() {\n\
               int x = 0;\n\
             retry:\n\
               x++;\n\
               if (x < 3) goto retry;\n\
               return x;\n\
             }",
        );
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert!(u[f.body]
            .iter()
            .any(|s| matches!(s, Stmt::Label(name, _) if u.names.get(*name) == "retry")));
    }

    #[test]
    fn parses_switch() {
        parse_ok(
            "int f(int c) {\n\
               switch (c) {\n\
                 case 1: return 10;\n\
                 case 2:\n\
                 case 3: return 20;\n\
                 default: break;\n\
               }\n\
               return 0;\n\
             }",
        );
    }

    #[test]
    fn parses_casts_sizeof_and_ternary() {
        parse_ok(
            "unsigned long f(char *p) {\n\
               unsigned long n = sizeof(int) + sizeof *p;\n\
               int c = (int)(unsigned char)*p;\n\
               return c ? n : (unsigned long)0;\n\
             }",
        );
    }

    #[test]
    fn parses_comma_operator_figure1_style() {
        // The paper's Figure 1 uses `if (c < 0x80) ch = c, n = 0;`.
        parse_ok(
            "int f(int c) {\n\
               int ch; int n;\n\
               if (c < 128) ch = c, n = 0;\n\
               else ch = c & 31, n = 1;\n\
               return ch + n;\n\
             }",
        );
    }

    #[test]
    fn parses_string_initialisers() {
        let u = parse_ok(
            "char B64Chars[64] = \"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+,\";\n\
             char greeting[] = \"hi\";\n\
             int nums[3] = {1, 2, 3};",
        );
        assert_eq!(u.items.len(), 3);
        let Item::Global(g) = &u.items[1] else {
            panic!()
        };
        assert_eq!(u[u[*g][0].array_dims], [0], "[] must mean inferred");
    }

    #[test]
    fn parses_for_with_declaration() {
        parse_ok("int f() { int s = 0; for (int i = 0; i < 4; ++i) s += i; return s; }");
    }

    #[test]
    fn parses_multiple_declarators_per_line() {
        let u = parse_ok("int f() { int a = 1, b = 2; char *p, buf[16]; return a + b; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Decl(d) = u[f.body][1] else {
            panic!()
        };
        let d = &u[d];
        assert_eq!(d.len(), 2);
        let char = TypeExpr::base(BaseType::Int {
            width: 1,
            signed: true,
        });
        assert_eq!(d[0].ty, char.ptr());
        // `buf` is an array of char, not a pointer.
        assert_eq!(d[1].ty, char);
        assert_eq!(u[d[1].array_dims], [16]);
    }

    #[test]
    fn assignment_is_right_associative() {
        let u = parse_ok("int f() { int a; int b; a = b = 3; return a; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Expr(Expr::Assign { rhs, .. }) = u[f.body][2] else {
            panic!("expected assignment");
        };
        assert!(matches!(u[rhs], Expr::Assign { .. }));
    }

    #[test]
    fn precedence_shift_vs_compare() {
        // `1 << 2 < 3` parses as `(1 << 2) < 3` in our table (C's actual
        // precedence puts shift above comparison, which matches).
        let u = parse_ok("int f() { return 1 << 2 < 3; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        let Stmt::Return(Some(Expr::Binary { op, .. }), _) = u[f.body][0] else {
            panic!()
        };
        assert_eq!(op, BinOp::Lt);
    }

    #[test]
    fn error_reports_position() {
        let err = parse("int f() { x = ; }").unwrap_err();
        assert!(err.pos.line >= 1);
        assert!(parse("int f() {").is_err());
        assert!(parse("int 3x;").is_err());
    }

    #[test]
    fn static_and_const_are_accepted() {
        parse_ok("static const char *msg = \"x\"; static int f() { return 0; }");
    }

    #[test]
    fn each_name_is_one_symbol() {
        let u = parse_ok("int count; int f(int n) { count = count + n; return count; }");
        let Item::Func(f) = &u.items[1] else { panic!() };
        let Item::Global(g) = &u.items[0] else {
            panic!()
        };
        let Stmt::Return(Some(Expr::Ident(used, _)), _) = u[f.body][1] else {
            panic!()
        };
        assert_eq!(used, u[*g][0].name);
        assert_ne!(u[f.params][0].name, u[*g][0].name);
        assert_eq!(u.names.len(), 3, "count, f, n");
        assert_eq!(u.names.get(f.name), "f");
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        let deep = format!("int f(int x) {{ return {}x; }}", "- ".repeat(300));
        let err = parse(&deep).unwrap_err();
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_NESTING} levels")
        );
        let fits = format!("int f(int x) {{ return {}x; }}", "~".repeat(200));
        parse_ok(&fits);
    }

    #[test]
    fn a_pool_past_the_id_space_is_a_diagnostic_not_a_wrapped_id() {
        // The last id stays free, so a list's end always fits too.
        assert_eq!(next_id(u32::MAX as usize - 1), Some(u32::MAX - 1));
        assert_eq!(next_id(u32::MAX as usize), None);
        assert_eq!(next_id(usize::MAX), None);
        let pos = Pos {
            offset: 4,
            line: 1,
            col: 5,
        };
        let err = fits(next_id(u32::MAX as usize), pos).unwrap_err();
        assert_eq!(
            err.to_string(),
            "program too large: over 2^32 - 2 nodes of one kind at 1:5"
        );
        assert_eq!(fits(next_id(7), pos), Ok(7));
    }

    #[test]
    fn array_dims_allow_constant_expressions() {
        let u = parse_ok("char buf[4 * 16 + 2];");
        let Item::Global(g) = &u.items[0] else {
            panic!()
        };
        assert_eq!(u[u[*g][0].array_dims], [66]);
    }
}
