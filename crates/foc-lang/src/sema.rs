//! Semantic analysis: name resolution, type checking, HIR lowering.
//!
//! Every table keyed by a name is a vector indexed by the name's
//! [`Symbol`], so no name is hashed again after the parser interned it.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{self, push, tail, Id, List, Symbol, TranslationUnit, TOO_LARGE};
use crate::hir::{self, Builtin, Callee, FuncId, GlobalId, LabelId, LocalId, StrId};
use crate::token::Pos;
use crate::types::{
    CType, FieldLayout, IntWidth, Layouts, StructId, StructLayout, TypeKind, MAX_OBJECT_SIZE,
};

/// Type-checking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.pos)
    }
}

type Result<T> = std::result::Result<T, SemaError>;

fn err<T>(pos: Pos, message: impl Into<String>) -> Result<T> {
    Err(SemaError {
        message: message.into(),
        pos,
    })
}

/// Analyzes a parsed translation unit into a typed program.
pub fn analyze(unit: &TranslationUnit) -> Result<hir::Program> {
    let mut cx = Context {
        unit,
        meanings: vec![Meaning::default(); unit.names.len()],
        layouts: Layouts::default(),
        arrays: HashMap::new(),
        globals: Vec::new(),
        strings: Vec::new(),
        string_ids: HashMap::new(),
        funcs: Vec::new(),
        sigs: Vec::new(),
        // Sized once: lowering adds loads, casts and scaled offsets to
        // the source's expressions (twice as many nodes in the servers),
        // and about as many statements.
        exprs: Vec::with_capacity(3 * unit.exprs.len()),
        stmts: Vec::with_capacity(2 * unit.stmts.len()),
    };
    cx.collect_structs()?;
    cx.collect_globals_and_sigs()?;
    cx.check_bodies()?;
    Ok(hir::Program {
        layouts: cx.layouts,
        globals: cx.globals,
        strings: cx.strings,
        funcs: cx.funcs,
        exprs: cx.exprs,
        stmts: cx.stmts,
    })
}

/// A function signature gathered in the first pass.
#[derive(Debug, Clone)]
struct FuncSig {
    params: Vec<CType>,
    ret: CType,
}

/// What one name means. C keeps struct tags, ordinary identifiers and
/// labels in separate namespaces, so a name may mean one of each.
#[derive(Debug, Clone, Copy, Default)]
struct Meaning {
    strukt: Option<StructId>,
    global: Option<GlobalId>,
    func: Option<FuncId>,
    /// The innermost visible local, with the scope depth it lives at.
    local: Option<(LocalId, usize)>,
    /// The current function's label, and whether it has been placed.
    label: Option<(LabelId, bool)>,
}

struct Context<'u> {
    unit: &'u TranslationUnit,
    /// Indexed by [`Symbol`].
    meanings: Vec<Meaning>,
    layouts: Layouts,
    /// Each array type built so far, by element and length.
    arrays: HashMap<(CType, u64), CType>,
    globals: Vec<hir::Global>,
    strings: Vec<Vec<u8>>,
    string_ids: HashMap<&'u [u8], StrId>,
    funcs: Vec<hir::Function>,
    sigs: Vec<FuncSig>,
    /// The HIR's pools.
    exprs: Vec<hir::Expr>,
    stmts: Vec<hir::Stmt>,
}

impl<'u> Context<'u> {
    fn name(&self, sym: Symbol) -> &'u str {
        self.unit.names.get(sym)
    }

    fn meaning(&mut self, sym: Symbol) -> &mut Meaning {
        &mut self.meanings[sym.0 as usize]
    }

    // ------------------------------------------------------------------
    // Pass 1: structs.
    // ------------------------------------------------------------------

    fn collect_structs(&mut self) -> Result<()> {
        for item in &self.unit.items {
            let ast::Item::Struct(decl) = item else {
                continue;
            };
            let name = self.name(decl.name);
            if self.meaning(decl.name).strukt.is_some() {
                return err(decl.pos, format!("duplicate struct `{name}`"));
            }
            let mut fields = Vec::with_capacity(decl.fields.len());
            let mut offset = 0u64;
            let mut align = 1u64;
            for f in &self.unit[decl.fields] {
                let base = self.resolve_type(f.ty, decl.pos)?;
                let fty = self.object_type(base, &self.unit[f.array_dims], f.name, decl.pos)?;
                if fty.is_void() {
                    let field = self.name(f.name);
                    return err(decl.pos, format!("field `{field}` cannot be void"));
                }
                let fa = self.layouts.align_of(fty);
                // Every offset stays within MAX_OBJECT_SIZE, so rounding
                // up to an alignment of at most 8 cannot overflow.
                offset = offset.div_ceil(fa) * fa;
                fields.push(FieldLayout {
                    name: self.name(f.name).to_owned(),
                    ty: fty,
                    offset,
                });
                offset = offset
                    .checked_add(self.layouts.size_of(fty))
                    .filter(|&end| end <= MAX_OBJECT_SIZE)
                    .ok_or_else(|| SemaError {
                        message: format!("struct `{name}` is larger than {MAX_OBJECT_SIZE} bytes"),
                        pos: decl.pos,
                    })?;
                align = align.max(fa);
            }
            let size = offset.div_ceil(align) * align;
            let id = StructId(self.layouts.structs.len() as u32);
            self.layouts.structs.push(StructLayout {
                name: name.to_owned(),
                fields,
                size: size.max(1),
                align,
            });
            self.meaning(decl.name).strukt = Some(id);
        }
        Ok(())
    }

    fn resolve_type(&self, ty: ast::TypeExpr, pos: Pos) -> Result<CType> {
        let mut resolved = match ty.base {
            ast::BaseType::Void => CType::VOID,
            ast::BaseType::Int { width, signed } => CType::int(IntWidth::from_bytes(width), signed),
            ast::BaseType::Struct(name) => match self.meanings[name.0 as usize].strukt {
                Some(id) => CType::structure(id),
                None => return err(pos, format!("unknown struct `{}`", self.name(name))),
            },
        };
        for _ in 0..ty.pointers {
            resolved = resolved.ptr();
        }
        Ok(resolved)
    }

    /// `base` under array dimensions `dims` (outermost first), the type
    /// of the object `name` declared at `pos`: no array of void, and no
    /// array larger than [`MAX_OBJECT_SIZE`].
    fn object_type(&mut self, base: CType, dims: &[u64], name: Symbol, pos: Pos) -> Result<CType> {
        let mut ty = base;
        for &len in dims.iter().rev() {
            if ty.is_void() {
                return err(pos, format!("`{}` is an array of void", self.name(name)));
            }
            ty = match self.arrays.get(&(ty, len)) {
                Some(&array) => array,
                None => {
                    let Some(array) = self.layouts.add_array(ty, len) else {
                        return err(
                            pos,
                            format!(
                                "`{}` is larger than {MAX_OBJECT_SIZE} bytes",
                                self.name(name)
                            ),
                        );
                    };
                    self.arrays.insert((ty, len), array);
                    array
                }
            };
        }
        Ok(ty)
    }

    /// A declarator's type, its leading `[]` sized from the initialiser.
    fn declared_type(&mut self, d: &ast::Declarator) -> Result<CType> {
        let base = self.resolve_type(d.ty, d.pos)?;
        let dims = &self.unit[d.array_dims];
        let (outer, inner) = match dims.split_first() {
            Some((&0, inner)) => {
                let inferred = match &d.init {
                    Some(ast::Initializer::Expr(ast::Expr::StrLit(s, _))) => s.len() as u64 + 1,
                    Some(ast::Initializer::List(items)) => items.len() as u64,
                    _ => return err(d.pos, "cannot infer array size without initialiser"),
                };
                (Some(inferred), inner)
            }
            _ => (None, dims),
        };
        let ty = self.object_type(base, inner, d.name, d.pos)?;
        match outer {
            Some(len) => self.object_type(ty, &[len], d.name, d.pos),
            None => Ok(ty),
        }
    }

    /// The size of `ty`, which a program may not take of `void`.
    fn size_of(&self, ty: CType, pos: Pos) -> Result<u64> {
        if ty.is_void() {
            return err(pos, "void has no size");
        }
        Ok(self.layouts.size_of(ty))
    }

    // ------------------------------------------------------------------
    // Pass 2: globals and function signatures.
    // ------------------------------------------------------------------

    fn collect_globals_and_sigs(&mut self) -> Result<()> {
        for item in &self.unit.items {
            match item {
                ast::Item::Global(decls) => {
                    for d in &self.unit[*decls] {
                        self.define_global(d)?;
                    }
                }
                ast::Item::Func(f) => {
                    let name = self.name(f.name);
                    if self.meaning(f.name).func.is_some() {
                        return err(f.pos, format!("duplicate function `{name}`"));
                    }
                    if Builtin::from_name(name).is_some() {
                        return err(f.pos, format!("`{name}` shadows a runtime builtin"));
                    }
                    let ret = self.resolve_type(f.ret, f.pos)?;
                    let mut params = Vec::with_capacity(f.params.len());
                    for p in &self.unit[f.params] {
                        let ty = self.resolve_type(p.ty, f.pos)?;
                        if !ty.is_scalar() {
                            return err(
                                f.pos,
                                format!(
                                    "parameter `{}` must be scalar (pass structs by pointer)",
                                    self.name(p.name)
                                ),
                            );
                        }
                        params.push(ty);
                    }
                    let id = FuncId(self.funcs.len() as u32);
                    self.meaning(f.name).func = Some(id);
                    self.sigs.push(FuncSig { params, ret });
                    // Body is filled in pass 3; push a placeholder.
                    self.funcs.push(hir::Function {
                        name: name.to_owned(),
                        param_count: f.params.len(),
                        locals: Vec::new(),
                        ret,
                        body: List::EMPTY,
                        label_count: 0,
                    });
                }
                ast::Item::Struct(_) => {}
            }
        }
        Ok(())
    }

    fn intern_string(&mut self, bytes: &'u [u8]) -> StrId {
        if let Some(&id) = self.string_ids.get(bytes) {
            return id;
        }
        let mut with_nul = Vec::with_capacity(bytes.len() + 1);
        with_nul.extend_from_slice(bytes);
        with_nul.push(0);
        let id = StrId(self.strings.len() as u32);
        self.strings.push(with_nul);
        self.string_ids.insert(bytes, id);
        id
    }

    fn define_global(&mut self, d: &'u ast::Declarator) -> Result<()> {
        if self.meaning(d.name).global.is_some() {
            return err(d.pos, format!("duplicate global `{}`", self.name(d.name)));
        }
        let ty = self.declared_type(d)?;
        if ty.is_void() {
            return err(d.pos, "global cannot be void");
        }
        // At most MAX_OBJECT_SIZE bytes, which `object_type` checked.
        let mut init = vec![0u8; self.layouts.size_of(ty) as usize];
        let mut relocs: Vec<(u64, StrId)> = Vec::new();
        match &d.init {
            None => {}
            Some(ast::Initializer::Expr(e)) => {
                self.init_scalar_or_string(ty, e, 0, &mut init, &mut relocs, d.pos)?;
            }
            Some(ast::Initializer::List(items)) => {
                let Some((elem, n)) = self.layouts.array_of(ty) else {
                    return err(d.pos, "brace initialiser requires an array");
                };
                if items.len() as u64 > n {
                    return err(d.pos, "too many initialisers");
                }
                let esz = self.layouts.size_of(elem);
                for (i, item) in self.unit[*items].iter().enumerate() {
                    self.init_scalar_or_string(
                        elem,
                        item,
                        i as u64 * esz,
                        &mut init,
                        &mut relocs,
                        d.pos,
                    )?;
                }
            }
        }
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(hir::Global {
            name: self.name(d.name).to_owned(),
            ty,
            init,
            relocs,
        });
        self.meaning(d.name).global = Some(id);
        Ok(())
    }

    fn init_scalar_or_string(
        &mut self,
        ty: CType,
        e: &'u ast::Expr,
        offset: u64,
        out: &mut [u8],
        relocs: &mut Vec<(u64, StrId)>,
        pos: Pos,
    ) -> Result<()> {
        match (ty.kind(), e) {
            // `char buf[N] = "str"`.
            (TypeKind::Array(_), &ast::Expr::StrLit(s, spos))
                if self
                    .layouts
                    .array_of(ty)
                    .is_some_and(|(elem, _)| elem == CType::CHAR) =>
            {
                let (_, n) = self.layouts.array_of(ty).expect("matched an array");
                let s = &self.unit[s];
                if s.len() as u64 > n {
                    return err(spos, "string initialiser too long");
                }
                let start = offset as usize;
                out[start..start + s.len()].copy_from_slice(s);
                // Remaining bytes stay zero (including the NUL).
                Ok(())
            }
            // `char *p = "str"`.
            (TypeKind::Ptr(_), &ast::Expr::StrLit(s, _)) => {
                let id = self.intern_string(&self.unit[s]);
                relocs.push((offset, id));
                Ok(())
            }
            (TypeKind::Int { .. } | TypeKind::Ptr(_), e) => {
                let Some(v) = self.unit.const_eval(e) else {
                    let what = if ty.is_pointer() { " pointer" } else { "" };
                    return err(pos, format!("global{what} initialiser must be constant"));
                };
                let (start, width) = (offset as usize, self.layouts.size_of(ty) as usize);
                out[start..start + width].copy_from_slice(&v.to_le_bytes()[..width]);
                Ok(())
            }
            _ => err(
                pos,
                format!(
                    "cannot initialise a value of type {}",
                    self.layouts.name(ty)
                ),
            ),
        }
    }

    // ------------------------------------------------------------------
    // Pass 3: function bodies.
    // ------------------------------------------------------------------

    fn check_bodies(&mut self) -> Result<()> {
        // Room for any one server function, so none of these regrows.
        const ROOM: usize = 64;
        let mut fx = FuncCx {
            unit: self.unit,
            cx: self,
            fid: FuncId(0),
            pos: Pos::default(),
            locals: Vec::with_capacity(ROOM),
            scopes: Vec::with_capacity(ROOM),
            shadowed: Vec::with_capacity(ROOM),
            labels: Vec::with_capacity(ROOM),
            label_count: 0,
            breakables: Vec::with_capacity(ROOM),
            loop_depth: 0,
            pending_gotos: Vec::with_capacity(ROOM),
            stmts: Vec::with_capacity(ROOM),
            args: Vec::with_capacity(ROOM),
        };
        let funcs = fx.unit.items.iter().filter_map(|item| match item {
            ast::Item::Func(f) => Some(f),
            _ => None,
        });
        for (i, f) in funcs.enumerate() {
            fx.fid = FuncId(i as u32);
            fx.check_body(f)?;
        }
        Ok(())
    }
}

/// What `break` currently binds to.
#[derive(Debug, Clone, Copy)]
enum Breakable {
    Loop,
    Switch(LabelId),
}

/// Pass 3's state. One serves every function in turn, so its vectors
/// are allocated once per program, not once per function.
struct FuncCx<'a, 'u> {
    cx: &'a mut Context<'u>,
    unit: &'u TranslationUnit,
    fid: FuncId,
    /// Where the function is declared.
    pos: Pos,
    locals: Vec<CType>,
    /// Per open scope, the length `shadowed` had when it opened.
    scopes: Vec<usize>,
    /// Each local declaration's symbol and the meaning it hid.
    shadowed: Vec<(Symbol, Option<(LocalId, usize)>)>,
    /// Symbols this function gave a label.
    labels: Vec<Symbol>,
    label_count: u32,
    breakables: Vec<Breakable>,
    loop_depth: u32,
    pending_gotos: Vec<(Symbol, Pos)>,
    /// The statements of every open block, innermost last (moved to the
    /// pool when the block closes).
    stmts: Vec<hir::Stmt>,
    /// Likewise the arguments of every open call.
    args: Vec<hir::Expr>,
}

impl<'u> FuncCx<'_, 'u> {
    fn check_body(&mut self, f: &'u ast::FuncDecl) -> Result<()> {
        self.pos = f.pos;
        self.locals.clear();
        self.labels.clear();
        self.pending_gotos.clear();
        self.label_count = 0;
        // Parameters are the first local slots, in a scope of their own.
        self.push_scope();
        for p in &self.unit[f.params] {
            let ty = self.cx.resolve_type(p.ty, f.pos)?;
            self.declare_local(p.name, ty, f.pos)?;
        }
        let body = self.lower_block(&self.unit[f.body])?;
        for &(name, pos) in &self.pending_gotos {
            if !self.cx.meanings[name.0 as usize]
                .label
                .is_some_and(|(_, placed)| placed)
            {
                let name = self.cx.name(name);
                return err(pos, format!("goto to undefined label `{name}`"));
            }
        }
        self.pop_scope();
        for &name in &self.labels {
            self.cx.meanings[name.0 as usize].label = None;
        }
        let func = &mut self.cx.funcs[self.fid.0 as usize];
        func.locals = self.locals.clone();
        func.body = body;
        func.label_count = self.label_count;
        Ok(())
    }

    fn declare_local(&mut self, name: Symbol, ty: CType, pos: Pos) -> Result<LocalId> {
        let depth = self.scopes.len();
        let hidden = self.cx.meaning(name).local;
        if hidden.is_some_and(|(_, at)| at == depth) {
            return err(pos, format!("duplicate local `{}`", self.cx.name(name)));
        }
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(ty);
        self.shadowed.push((name, hidden));
        self.cx.meaning(name).local = Some((id, depth));
        Ok(id)
    }

    fn push_scope(&mut self) {
        self.scopes.push(self.shadowed.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scopes.pop().expect("scope stack never empty");
        for (name, hidden) in self.shadowed.drain(mark..).rev() {
            self.cx.meanings[name.0 as usize].local = hidden;
        }
    }

    fn fresh_temp(&mut self, ty: CType) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(ty);
        id
    }

    fn fresh_label(&mut self) -> LabelId {
        let id = LabelId(self.label_count);
        self.label_count += 1;
        id
    }

    fn named_label(&mut self, name: Symbol) -> LabelId {
        if let Some((id, _)) = self.cx.meaning(name).label {
            return id;
        }
        let id = self.fresh_label();
        self.cx.meaning(name).label = Some((id, false));
        self.labels.push(name);
        id
    }

    // ------------------------------------------------------------------
    // Statements.
    // ------------------------------------------------------------------

    fn push(&mut self, e: hir::Expr) -> Result<Id<hir::Expr>> {
        fits(push(&mut self.cx.exprs, e), self.pos)
    }

    /// The arguments gathered since `base`, moved to the pool.
    fn args_since(&mut self, base: usize) -> Result<List<hir::Expr>> {
        let start = self.cx.exprs.len();
        self.cx.exprs.extend(self.args.drain(base..));
        fits(tail(&self.cx.exprs, start), self.pos)
    }

    /// Lowers `stmts` in a scope of their own.
    fn lower_block(&mut self, stmts: &'u [ast::Stmt]) -> Result<List<hir::Stmt>> {
        let base = self.stmts.len();
        self.lower_scoped(stmts)?;
        let start = self.cx.stmts.len();
        self.cx.stmts.extend(self.stmts.drain(base..));
        fits(tail(&self.cx.stmts, start), self.pos)
    }

    /// Lowers `stmts` onto the open block, in a scope of their own.
    fn lower_scoped(&mut self, stmts: &'u [ast::Stmt]) -> Result<()> {
        self.push_scope();
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    /// Appends a statement to the open block.
    fn emit(&mut self, stmt: hir::Stmt) {
        self.stmts.push(stmt);
    }

    fn lower_stmt(&mut self, stmt: &'u ast::Stmt) -> Result<()> {
        match stmt {
            ast::Stmt::Empty => {}
            ast::Stmt::Expr(e) => {
                let e = self.lower_expr(e)?;
                self.emit(hir::Stmt::Expr(e));
            }
            ast::Stmt::Decl(decls) => {
                for d in &self.unit[*decls] {
                    self.lower_local_decl(d)?;
                }
            }
            ast::Stmt::Block(stmts) => self.lower_scoped(&self.unit[*stmts])?,
            ast::Stmt::If { cond, then, els } => {
                let cond = self.lower_scalar(cond)?;
                let then = self.lower_stmt_as_block(*then)?;
                let els = match els {
                    Some(e) => self.lower_stmt_as_block(*e)?,
                    None => List::EMPTY,
                };
                self.emit(hir::Stmt::If { cond, then, els });
            }
            ast::Stmt::While { cond, body } => {
                let cond = self.lower_scalar(cond)?;
                let body = self.lower_loop_body(*body)?;
                self.emit(hir::Stmt::While {
                    cond,
                    body,
                    step: None,
                });
            }
            ast::Stmt::DoWhile { body, cond } => {
                let body = self.lower_loop_body(*body)?;
                let cond = self.lower_scalar(cond)?;
                self.emit(hir::Stmt::DoWhile { body, cond });
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The init's declarations live in their own scope.
                self.push_scope();
                if let Some(init) = init {
                    self.lower_stmt(&self.unit[*init])?;
                }
                let cond = match cond {
                    Some(c) => self.lower_scalar(c)?,
                    None => hir::Expr::Const(1, CType::INT),
                };
                let step = match step {
                    Some(s) => Some(self.lower_expr(s)?),
                    None => None,
                };
                let body = self.lower_loop_body(*body)?;
                self.pop_scope();
                self.emit(hir::Stmt::While { cond, body, step });
            }
            ast::Stmt::Switch { scrutinee, body } => {
                self.lower_switch(scrutinee, &self.unit[*body])?
            }
            ast::Stmt::Case(_, pos) | ast::Stmt::Default(pos) => {
                return err(*pos, "case/default outside switch");
            }
            ast::Stmt::Break(pos) => match self.breakables.last() {
                Some(Breakable::Loop) => self.emit(hir::Stmt::Break),
                Some(Breakable::Switch(end)) => self.emit(hir::Stmt::Goto(*end)),
                None => return err(*pos, "break outside loop or switch"),
            },
            ast::Stmt::Continue(pos) => {
                if self.loop_depth == 0 {
                    return err(*pos, "continue outside loop");
                }
                self.emit(hir::Stmt::Continue);
            }
            ast::Stmt::Return(e, pos) => {
                let ret_ty = self.cx.funcs[self.fid.0 as usize].ret;
                match (e, ret_ty.is_void()) {
                    (None, true) => self.emit(hir::Stmt::Return(None)),
                    (None, false) => return err(*pos, "missing return value"),
                    (Some(_), true) => return err(*pos, "void function returns a value"),
                    (Some(e), false) => {
                        let v = self.lower_expr(e)?;
                        let v = self.convert(v, ret_ty, *pos)?;
                        self.emit(hir::Stmt::Return(Some(v)));
                    }
                }
            }
            ast::Stmt::Label(name, _) => {
                let id = self.named_label(*name);
                self.cx.meaning(*name).label = Some((id, true));
                self.emit(hir::Stmt::Label(id));
            }
            ast::Stmt::Goto(name, pos) => {
                // Defined eagerly; whether the label is ever placed is
                // checked at the end of the function.
                let id = self.named_label(*name);
                self.pending_gotos.push((*name, *pos));
                self.emit(hir::Stmt::Goto(id));
            }
        }
        Ok(())
    }

    fn lower_loop_body(&mut self, body: Id<ast::Stmt>) -> Result<List<hir::Stmt>> {
        self.breakables.push(Breakable::Loop);
        self.loop_depth += 1;
        let body = self.lower_stmt_as_block(body)?;
        self.loop_depth -= 1;
        self.breakables.pop();
        Ok(body)
    }

    fn lower_stmt_as_block(&mut self, stmt: Id<ast::Stmt>) -> Result<List<hir::Stmt>> {
        match &self.unit[stmt] {
            ast::Stmt::Block(stmts) => self.lower_block(&self.unit[*stmts]),
            other => self.lower_block(std::slice::from_ref(other)),
        }
    }

    fn lower_switch(&mut self, scrutinee: &'u ast::Expr, body: &'u [ast::Stmt]) -> Result<()> {
        let pos = scrutinee.pos();
        let scrut = self.lower_expr(scrutinee)?;
        let scrut_ty = scrut.ty();
        if !scrut_ty.is_integer() {
            return err(pos, "switch scrutinee must be an integer");
        }
        // Stash the scrutinee in a temp so the comparisons are pure.
        let tmp = self.fresh_temp(scrut_ty);
        self.emit_store(hir::Expr::LocalAddr(tmp, scrut_ty), scrut, scrut_ty)?;
        let end = self.fresh_label();
        // One label per case/default marker, in body order.
        let mut markers: Vec<(Option<i64>, LabelId)> = Vec::new();
        for s in body {
            match s {
                ast::Stmt::Case(v, _) => markers.push((Some(*v), self.fresh_label())),
                ast::Stmt::Default(_) => markers.push((None, self.fresh_label())),
                _ => {}
            }
        }
        // Dispatch.
        for &(v, l) in &markers {
            let Some(v) = v else { continue };
            let addr = self.push(hir::Expr::LocalAddr(tmp, scrut_ty))?;
            let cond = hir::Expr::Binary {
                op: hir::BinOp::Eq,
                lhs: self.push(hir::Expr::Load { addr, ty: scrut_ty })?,
                rhs: self.push(hir::Expr::Const(v, scrut_ty))?,
                ty: CType::INT,
            };
            self.emit(hir::Stmt::GotoIf { cond, target: l });
        }
        let default = markers.iter().rev().find(|(v, _)| v.is_none());
        self.emit(hir::Stmt::Goto(default.map_or(end, |&(_, l)| l)));
        // Body with case markers replaced by labels; `break` exits.
        self.breakables.push(Breakable::Switch(end));
        self.push_scope();
        let mut labels = markers.iter().map(|&(_, l)| l);
        for s in body {
            if matches!(s, ast::Stmt::Case(..) | ast::Stmt::Default(_)) {
                let l = labels.next().expect("one label per marker");
                self.emit(hir::Stmt::Label(l));
                continue;
            }
            self.lower_stmt(s)?;
        }
        self.pop_scope();
        self.breakables.pop();
        self.emit(hir::Stmt::Label(end));
        Ok(())
    }

    fn lower_local_decl(&mut self, d: &'u ast::Declarator) -> Result<()> {
        let ty = self.cx.declared_type(d)?;
        if ty.is_void() {
            return err(d.pos, "local cannot be void");
        }
        let id = self.declare_local(d.name, ty, d.pos)?;
        let array = self.cx.layouts.array_of(ty);
        match &d.init {
            None => {}
            Some(ast::Initializer::Expr(e)) => match (array, e) {
                (Some((CType::CHAR, n)), &ast::Expr::StrLit(s, spos)) => {
                    let s = &self.unit[s];
                    if s.len() as u64 > n {
                        return err(spos, "string initialiser too long");
                    }
                    let sid = self.cx.intern_string(s);
                    let count = (s.len() as u64 + 1).min(n);
                    let base = self.args.len();
                    let dst = self.push(hir::Expr::LocalAddr(id, ty))?;
                    let src = self.push(hir::Expr::Str(sid))?;
                    self.args.extend([
                        hir::Expr::Cast {
                            expr: dst,
                            from: ty.ptr(),
                            to: CType::VOID_PTR,
                        },
                        hir::Expr::Cast {
                            expr: src,
                            from: CType::CHAR_PTR,
                            to: CType::VOID_PTR,
                        },
                        hir::Expr::Const(count as i64, CType::ULONG),
                    ]);
                    let args = self.args_since(base)?;
                    self.emit(hir::Stmt::Expr(hir::Expr::Call {
                        callee: Callee::Builtin(Builtin::Memcpy),
                        args,
                        ty: CType::VOID_PTR,
                    }));
                }
                (_, e) => {
                    if !ty.is_scalar() {
                        return err(d.pos, "only scalars and char arrays can be initialised");
                    }
                    let v = self.lower_expr(e)?;
                    let v = self.convert(v, ty, d.pos)?;
                    self.emit_store(hir::Expr::LocalAddr(id, ty), v, ty)?;
                }
            },
            Some(ast::Initializer::List(items)) => {
                let Some((elem, n)) = array else {
                    return err(d.pos, "brace initialiser requires an array");
                };
                if !elem.is_scalar() {
                    return err(d.pos, "brace initialiser elements must be scalar");
                }
                if items.len() as u64 > n {
                    return err(d.pos, "too many initialisers");
                }
                let elem_size = self.cx.layouts.size_of(elem);
                for (i, item) in self.unit[*items].iter().enumerate() {
                    let v = self.lower_expr(item)?;
                    let v = self.convert(v, elem, d.pos)?;
                    let local = self.push(hir::Expr::LocalAddr(id, ty))?;
                    let addr = hir::Expr::PtrAdd {
                        ptr: self.push(hir::Expr::Cast {
                            expr: local,
                            from: ty.ptr(),
                            to: elem.ptr(),
                        })?,
                        count: self.push(hir::Expr::Const(i as i64, CType::LONG))?,
                        elem_size,
                        ty: elem.ptr(),
                    };
                    self.emit_store(addr, v, elem)?;
                }
            }
        }
        Ok(())
    }

    /// Appends `*addr = value` (of type `ty`) to the open block.
    fn emit_store(&mut self, addr: hir::Expr, value: hir::Expr, ty: CType) -> Result<()> {
        let store = hir::Expr::Store {
            addr: self.push(addr)?,
            value: self.push(value)?,
            ty,
        };
        self.emit(hir::Stmt::Expr(store));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions.
    // ------------------------------------------------------------------

    /// Lowers an expression used as a scalar (condition/value).
    fn lower_scalar(&mut self, e: &'u ast::Expr) -> Result<hir::Expr> {
        let pos = e.pos();
        let v = self.lower_expr(e)?;
        let ty = v.ty();
        if !ty.is_scalar() {
            return err(
                pos,
                format!("expected scalar, found {}", self.cx.layouts.name(ty)),
            );
        }
        Ok(v)
    }

    /// Lowers an lvalue to (address expression, object type).
    fn lower_lvalue(&mut self, e: &'u ast::Expr) -> Result<(hir::Expr, CType)> {
        let pos = e.pos();
        match e {
            ast::Expr::Ident(name, pos) => {
                let meaning = self.cx.meanings[name.0 as usize];
                if let Some((id, _)) = meaning.local {
                    let ty = self.locals[id.0 as usize];
                    return Ok((hir::Expr::LocalAddr(id, ty), ty));
                }
                if let Some(gid) = meaning.global {
                    let ty = self.cx.globals[gid.0 as usize].ty;
                    return Ok((hir::Expr::GlobalAddr(gid, ty), ty));
                }
                err(
                    *pos,
                    format!("unknown identifier `{}`", self.cx.name(*name)),
                )
            }
            ast::Expr::Deref(inner, pos) => {
                let p = self.lower_expr(&self.unit[*inner])?;
                let pty = p.ty();
                let Some(pointee) = pty.pointee() else {
                    return err(
                        *pos,
                        format!("cannot dereference {}", self.cx.layouts.name(pty)),
                    );
                };
                if pointee.is_void() {
                    return err(*pos, "cannot dereference void*");
                }
                Ok((p, pointee))
            }
            ast::Expr::Index { base, index, pos } => {
                let addr = self.lower_index_addr(&self.unit[*base], &self.unit[*index], *pos)?;
                let ty = addr.ty().pointee().expect("index addr is a pointer");
                Ok((addr, ty))
            }
            ast::Expr::Member {
                base,
                field,
                arrow,
                pos,
            } => {
                let (base_addr, sid) = if *arrow {
                    let p = self.lower_expr(&self.unit[*base])?;
                    match p.ty().kind() {
                        TypeKind::Ptr(inner) => match inner.kind() {
                            TypeKind::Struct(sid) => (p, sid),
                            _ => {
                                let inner = self.cx.layouts.name(inner);
                                return err(*pos, format!("`->` on non-struct {inner}"));
                            }
                        },
                        _ => {
                            let other = self.cx.layouts.name(p.ty());
                            return err(*pos, format!("`->` on non-pointer {other}"));
                        }
                    }
                } else {
                    let (addr, ty) = self.lower_lvalue(&self.unit[*base])?;
                    match ty.kind() {
                        TypeKind::Struct(sid) => (addr, sid),
                        _ => {
                            let other = self.cx.layouts.name(ty);
                            return err(*pos, format!("`.` on non-struct {other}"));
                        }
                    }
                };
                let layout = self.cx.layouts.layout(sid);
                let Some(f) = layout.field(self.cx.name(*field)) else {
                    return err(
                        *pos,
                        format!(
                            "no field `{}` in struct `{}`",
                            self.cx.name(*field),
                            layout.name
                        ),
                    );
                };
                let (fty, offset) = (f.ty, f.offset);
                // Field address = base + offset, as checked byte arithmetic
                // within the struct's data unit.
                let base = self.push(base_addr)?;
                let addr = hir::Expr::PtrAdd {
                    ptr: self.push(hir::Expr::Cast {
                        expr: base,
                        from: CType::structure(sid).ptr(),
                        to: CType::CHAR_PTR,
                    })?,
                    count: self.push(hir::Expr::Const(offset as i64, CType::LONG))?,
                    elem_size: 1,
                    ty: CType::CHAR_PTR,
                };
                let addr = hir::Expr::Cast {
                    expr: self.push(addr)?,
                    from: CType::CHAR_PTR,
                    to: fty.ptr(),
                };
                Ok((addr, fty))
            }
            _ => err(pos, "expression is not an lvalue"),
        }
    }

    /// Address of `base[index]`.
    fn lower_index_addr(
        &mut self,
        base: &'u ast::Expr,
        index: &'u ast::Expr,
        pos: Pos,
    ) -> Result<hir::Expr> {
        let b = self.lower_expr(base)?;
        let bty = b.ty();
        let Some(elem) = bty.pointee() else {
            return err(pos, format!("cannot index {}", self.cx.layouts.name(bty)));
        };
        let idx = self.lower_scalar(index)?;
        if !idx.ty().is_integer() {
            return err(pos, "array index must be an integer");
        }
        let esz = self.cx.size_of(elem, pos)?;
        Ok(hir::Expr::PtrAdd {
            ptr: self.push(b)?,
            count: self.push(idx)?,
            elem_size: esz,
            ty: elem.ptr(),
        })
    }

    /// Lowers an expression to an rvalue.
    fn lower_expr(&mut self, e: &'u ast::Expr) -> Result<hir::Expr> {
        let pos = e.pos();
        match e {
            // Literals are `int` unless they do not fit.
            ast::Expr::IntLit(v, _) => match i32::try_from(*v) {
                Ok(_) => Ok(hir::Expr::Const(*v, CType::INT)),
                Err(_) => Ok(hir::Expr::Const(*v, CType::LONG)),
            },
            ast::Expr::StrLit(s, _) => {
                let id = self.cx.intern_string(&self.unit[*s]);
                Ok(hir::Expr::Str(id))
            }
            ast::Expr::Ident(..)
            | ast::Expr::Deref(..)
            | ast::Expr::Index { .. }
            | ast::Expr::Member { .. } => {
                let (addr, ty) = self.lower_lvalue(e)?;
                match ty.kind() {
                    // Arrays decay to a pointer to their first element.
                    TypeKind::Array(_) => Ok(hir::Expr::Cast {
                        expr: self.push(addr)?,
                        from: ty.ptr(),
                        to: self.cx.layouts.decayed(ty),
                    }),
                    TypeKind::Struct(_) => {
                        err(pos, "struct value cannot be used here (take its address)")
                    }
                    _ => Ok(hir::Expr::Load {
                        addr: self.push(addr)?,
                        ty,
                    }),
                }
            }
            // `&x` has type T*: the address expression already is that
            // pointer (an array's address points to the whole array).
            ast::Expr::AddrOf(inner, _) => Ok(self.lower_lvalue(&self.unit[*inner])?.0),
            ast::Expr::Unary { op, operand, pos } => {
                let v = self.lower_scalar(&self.unit[*operand])?;
                let (v, ty) = match op {
                    ast::UnOp::Not => (v, CType::INT),
                    ast::UnOp::Neg | ast::UnOp::BitNot => {
                        let ty = v.ty();
                        if !ty.is_integer() {
                            let ty = self.cx.layouts.name(ty);
                            return err(*pos, format!("cannot apply operator to {ty}"));
                        }
                        let promoted = promote(ty);
                        (self.convert(v, promoted, *pos)?, promoted)
                    }
                };
                let operand = self.push(v)?;
                Ok(hir::Expr::Unary {
                    op: *op,
                    operand,
                    ty,
                })
            }
            ast::Expr::Binary { op, lhs, rhs, pos } => {
                self.lower_binary(*op, &self.unit[*lhs], &self.unit[*rhs], *pos)
            }
            ast::Expr::Assign { lhs, rhs, pos } => {
                let (addr, ty) = self.lower_lvalue(&self.unit[*lhs])?;
                if !ty.is_scalar() {
                    return err(*pos, "assignment target must be scalar");
                }
                let v = self.lower_expr(&self.unit[*rhs])?;
                let v = self.convert(v, ty, *pos)?;
                Ok(hir::Expr::Store {
                    addr: self.push(addr)?,
                    value: self.push(v)?,
                    ty,
                })
            }
            ast::Expr::OpAssign { op, lhs, rhs, pos } => {
                self.lower_op_assign(*op, &self.unit[*lhs], &self.unit[*rhs], *pos)
            }
            ast::Expr::IncDec {
                target,
                inc,
                prefix,
                pos,
            } => {
                let (addr, ty) = self.lower_lvalue(&self.unit[*target])?;
                let (delta, is_ptr) = match ty.kind() {
                    TypeKind::Int { .. } => (1i64, false),
                    TypeKind::Ptr(inner) => (self.cx.size_of(inner, *pos)? as i64, true),
                    _ => {
                        let other = self.cx.layouts.name(ty);
                        return err(*pos, format!("cannot increment {other}"));
                    }
                };
                let delta = if *inc { delta } else { -delta };
                Ok(hir::Expr::IncDec {
                    addr: self.push(addr)?,
                    ty,
                    delta,
                    prefix: *prefix,
                    ptr: is_ptr,
                })
            }
            ast::Expr::Conditional {
                cond, then, els, ..
            } => {
                let c = self.lower_scalar(&self.unit[*cond])?;
                let t = self.lower_expr(&self.unit[*then])?;
                let f = self.lower_expr(&self.unit[*els])?;
                let (t, f, ty) = self.unify_branches(t, f, pos)?;
                Ok(hir::Expr::Conditional {
                    cond: self.push(c)?,
                    then: self.push(t)?,
                    els: self.push(f)?,
                    ty,
                })
            }
            ast::Expr::Cast { ty, expr, pos } => {
                let to = self.cx.resolve_type(*ty, *pos)?;
                let v = self.lower_expr(&self.unit[*expr])?;
                let from = v.ty();
                if to.is_void() {
                    // `(void) e` discards the value.
                    return Ok(hir::Expr::Comma {
                        effects: self.push(v)?,
                        result: self.push(hir::Expr::Const(0, CType::INT))?,
                        ty: CType::INT,
                    });
                }
                if !to.is_scalar() || !from.is_scalar() {
                    let (from, to) = (self.cx.layouts.name(from), self.cx.layouts.name(to));
                    return err(*pos, format!("cannot cast {from} to {to}"));
                }
                Ok(hir::Expr::Cast {
                    expr: self.push(v)?,
                    from,
                    to,
                })
            }
            ast::Expr::SizeofType(ty, pos) => {
                let t = self.cx.resolve_type(*ty, *pos)?;
                if t.is_void() {
                    return err(*pos, "sizeof(void)");
                }
                Ok(hir::Expr::Const(
                    self.cx.layouts.size_of(t) as i64,
                    CType::ULONG,
                ))
            }
            ast::Expr::SizeofExpr(inner, pos) => {
                // The operand is typed but never evaluated.
                let t = match self.lower_lvalue(&self.unit[*inner]) {
                    Ok((_, ty)) => ty,
                    Err(_) => self.lower_expr(&self.unit[*inner])?.ty(),
                };
                if t.is_void() {
                    return err(*pos, "sizeof(void expression)");
                }
                Ok(hir::Expr::Const(
                    self.cx.layouts.size_of(t) as i64,
                    CType::ULONG,
                ))
            }
            ast::Expr::Comma { lhs, rhs, .. } => {
                let l = self.lower_expr(&self.unit[*lhs])?;
                let r = self.lower_expr(&self.unit[*rhs])?;
                Ok(hir::Expr::Comma {
                    effects: self.push(l)?,
                    result: self.push(r)?,
                    ty: r.ty(),
                })
            }
            ast::Expr::Call { callee, args, pos } => {
                self.lower_call(*callee, &self.unit[*args], *pos)
            }
        }
    }

    fn lower_call(&mut self, callee: Symbol, args: &'u [ast::Expr], pos: Pos) -> Result<hir::Expr> {
        let name = self.cx.name(callee);
        // User-defined functions shadow nothing; builtins resolve second.
        let (target, params, ret, kind) = if let Some(fid) = self.cx.meaning(callee).func {
            let sig = &self.cx.sigs[fid.0 as usize];
            (Callee::Func(fid), sig.params.len(), sig.ret, "")
        } else if let Some(b) = Builtin::from_name(name) {
            let (params, ret) = builtin_sig(b);
            (Callee::Builtin(b), params.len(), ret, "builtin ")
        } else {
            return err(pos, format!("unknown function `{name}`"));
        };
        if args.len() != params {
            return err(
                pos,
                format!(
                    "{kind}`{name}` expects {params} argument(s), got {}",
                    args.len()
                ),
            );
        }
        let base = self.args.len();
        for (i, a) in args.iter().enumerate() {
            let pty = match target {
                Callee::Func(fid) => self.cx.sigs[fid.0 as usize].params[i],
                Callee::Builtin(b) => builtin_sig(b).0[i],
            };
            let v = self.lower_expr(a)?;
            let v = self.convert(v, pty, pos)?;
            self.args.push(v);
        }
        Ok(hir::Expr::Call {
            callee: target,
            args: self.args_since(base)?,
            ty: ret,
        })
    }

    fn lower_op_assign(
        &mut self,
        op: ast::BinOp,
        lhs: &'u ast::Expr,
        rhs: &'u ast::Expr,
        pos: Pos,
    ) -> Result<hir::Expr> {
        let (addr, ty) = self.lower_lvalue(lhs)?;
        if !ty.is_scalar() {
            return err(pos, "compound assignment target must be scalar");
        }
        // Evaluate the address once via a temp if it has effects; plain
        // local/global addresses are pure.
        let (addr_setup, addr_use): (Option<hir::Expr>, hir::Expr) = match &addr {
            hir::Expr::LocalAddr(..) | hir::Expr::GlobalAddr(..) => (None, addr),
            _ => {
                let pty = ty.ptr();
                let tmp = self.fresh_temp(pty);
                let setup = hir::Expr::Store {
                    addr: self.push(hir::Expr::LocalAddr(tmp, pty))?,
                    value: self.push(addr)?,
                    ty: pty,
                };
                let use_ = hir::Expr::Load {
                    addr: self.push(hir::Expr::LocalAddr(tmp, pty))?,
                    ty: pty,
                };
                (Some(setup), use_)
            }
        };
        // The address is one node, read and written through.
        let addr_use = self.push(addr_use)?;
        let current = hir::Expr::Load { addr: addr_use, ty };
        let rhs_v = self.lower_expr(rhs)?;
        let combined = match (ty.kind(), op) {
            // Pointer += / -= integer.
            (TypeKind::Ptr(inner), ast::BinOp::Add | ast::BinOp::Sub) => {
                let esz = self.cx.size_of(inner, pos)?;
                let count = if matches!(op, ast::BinOp::Sub) {
                    hir::Expr::Unary {
                        op: hir::UnOp::Neg,
                        operand: self.push(rhs_v)?,
                        ty: CType::LONG,
                    }
                } else {
                    rhs_v
                };
                hir::Expr::PtrAdd {
                    ptr: self.push(current)?,
                    count: self.push(count)?,
                    elem_size: esz,
                    ty,
                }
            }
            _ => {
                let bin = self.build_arith(op, current, rhs_v, pos)?;
                self.convert(bin, ty, pos)?
            }
        };
        let store = hir::Expr::Store {
            addr: addr_use,
            value: self.push(combined)?,
            ty,
        };
        Ok(match addr_setup {
            None => store,
            Some(setup) => hir::Expr::Comma {
                effects: self.push(setup)?,
                result: self.push(store)?,
                ty,
            },
        })
    }

    fn lower_binary(
        &mut self,
        op: ast::BinOp,
        lhs: &'u ast::Expr,
        rhs: &'u ast::Expr,
        pos: Pos,
    ) -> Result<hir::Expr> {
        if matches!(op, ast::BinOp::LogicalAnd | ast::BinOp::LogicalOr) {
            let l = self.lower_scalar(lhs)?;
            let r = self.lower_scalar(rhs)?;
            return Ok(hir::Expr::ShortCircuit {
                and: matches!(op, ast::BinOp::LogicalAnd),
                lhs: self.push(l)?,
                rhs: self.push(r)?,
            });
        }
        let l = self.lower_scalar(lhs)?;
        let r = self.lower_scalar(rhs)?;
        self.build_arith(op, l, r, pos)
    }

    /// Builds a typed binary operation from already-lowered operands,
    /// handling pointer arithmetic, comparisons, and usual conversions.
    fn build_arith(
        &mut self,
        op: ast::BinOp,
        l: hir::Expr,
        r: hir::Expr,
        pos: Pos,
    ) -> Result<hir::Expr> {
        let lt = l.ty();
        let rt = r.ty();
        use ast::BinOp as B;
        // Pointer arithmetic.
        match (lt.kind(), rt.kind(), op) {
            (TypeKind::Ptr(inner), _, B::Add) if rt.is_integer() => {
                let esz = self.cx.size_of(inner, pos)?.max(1);
                return Ok(hir::Expr::PtrAdd {
                    ptr: self.push(l)?,
                    count: self.push(r)?,
                    elem_size: esz,
                    ty: lt,
                });
            }
            (_, TypeKind::Ptr(inner), B::Add) if lt.is_integer() => {
                let esz = self.cx.size_of(inner, pos)?.max(1);
                return Ok(hir::Expr::PtrAdd {
                    ptr: self.push(r)?,
                    count: self.push(l)?,
                    elem_size: esz,
                    ty: rt,
                });
            }
            (TypeKind::Ptr(inner), _, B::Sub) if rt.is_integer() => {
                let esz = self.cx.size_of(inner, pos)?.max(1);
                let neg = hir::Expr::Unary {
                    op: hir::UnOp::Neg,
                    operand: self.push(r)?,
                    ty: CType::LONG,
                };
                return Ok(hir::Expr::PtrAdd {
                    ptr: self.push(l)?,
                    count: self.push(neg)?,
                    elem_size: esz,
                    ty: lt,
                });
            }
            (TypeKind::Ptr(inner), TypeKind::Ptr(_), B::Sub) => {
                let esz = self.cx.size_of(inner, pos)?.max(1);
                return Ok(hir::Expr::PtrDiff {
                    lhs: self.push(l)?,
                    rhs: self.push(r)?,
                    elem_size: esz,
                });
            }
            _ => {}
        }
        // Comparisons.
        if matches!(op, B::Eq | B::Ne | B::Lt | B::Gt | B::Le | B::Ge) {
            let pointers = lt.is_pointer() || rt.is_pointer();
            let (l, r, unsigned) = if pointers {
                (l, r, true)
            } else {
                let common = usual_arith(lt, rt);
                (
                    self.convert(l, common, pos)?,
                    self.convert(r, common, pos)?,
                    !common.is_signed(),
                )
            };
            let hop = match (op, unsigned) {
                (B::Eq, _) => hir::BinOp::Eq,
                (B::Ne, _) => hir::BinOp::Ne,
                (B::Lt, false) => hir::BinOp::LtS,
                (B::Lt, true) => hir::BinOp::LtU,
                (B::Le, false) => hir::BinOp::LeS,
                (B::Le, true) => hir::BinOp::LeU,
                (B::Gt, false) => hir::BinOp::GtS,
                (B::Gt, true) => hir::BinOp::GtU,
                (B::Ge, false) => hir::BinOp::GeS,
                (B::Ge, true) => hir::BinOp::GeU,
                _ => unreachable!(),
            };
            return Ok(hir::Expr::Binary {
                op: hop,
                lhs: self.push(l)?,
                rhs: self.push(r)?,
                ty: CType::INT,
            });
        }
        // Remaining value arithmetic requires integers.
        if !lt.is_integer() || !rt.is_integer() {
            let (lt, rt) = (self.cx.layouts.name(lt), self.cx.layouts.name(rt));
            return err(pos, format!("invalid operands: {lt} and {rt}"));
        }
        // Shifts keep the left operand's promoted type.
        let (result_ty, l, r) = if matches!(op, B::Shl | B::Shr) {
            let lp = promote(lt);
            (
                lp,
                self.convert(l, lp, pos)?,
                self.convert(r, CType::INT, pos)?,
            )
        } else {
            let common = usual_arith(lt, rt);
            (
                common,
                self.convert(l, common, pos)?,
                self.convert(r, common, pos)?,
            )
        };
        let signed = result_ty.is_signed();
        let hop = match op {
            B::Add => hir::BinOp::Add,
            B::Sub => hir::BinOp::Sub,
            B::Mul => hir::BinOp::Mul,
            B::Div if signed => hir::BinOp::DivS,
            B::Div => hir::BinOp::DivU,
            B::Rem if signed => hir::BinOp::RemS,
            B::Rem => hir::BinOp::RemU,
            B::And => hir::BinOp::And,
            B::Or => hir::BinOp::Or,
            B::Xor => hir::BinOp::Xor,
            B::Shl => hir::BinOp::Shl,
            B::Shr if signed => hir::BinOp::ShrS,
            B::Shr => hir::BinOp::ShrU,
            _ => unreachable!("handled above"),
        };
        Ok(hir::Expr::Binary {
            op: hop,
            lhs: self.push(l)?,
            rhs: self.push(r)?,
            ty: result_ty,
        })
    }

    /// Makes the branches of a conditional agree on a type.
    fn unify_branches(
        &mut self,
        t: hir::Expr,
        f: hir::Expr,
        pos: Pos,
    ) -> Result<(hir::Expr, hir::Expr, CType)> {
        let tt = t.ty();
        let ft = f.ty();
        if tt == ft {
            return Ok((t, f, tt));
        }
        if tt.is_pointer() && (ft.is_pointer() || ft.is_integer()) {
            let f = self.convert(f, tt, pos)?;
            return Ok((t, f, tt));
        }
        if ft.is_pointer() && tt.is_integer() {
            let t = self.convert(t, ft, pos)?;
            return Ok((t, f, ft));
        }
        if tt.is_integer() && ft.is_integer() {
            let common = usual_arith(tt, ft);
            let t = self.convert(t, common, pos)?;
            let f = self.convert(f, common, pos)?;
            return Ok((t, f, common));
        }
        let (tt, ft) = (self.cx.layouts.name(tt), self.cx.layouts.name(ft));
        err(
            pos,
            format!("incompatible conditional branches: {tt} / {ft}"),
        )
    }

    /// Implicit conversion of a value to `to`.
    fn convert(&mut self, v: hir::Expr, to: CType, pos: Pos) -> Result<hir::Expr> {
        let from = v.ty();
        if from == to {
            return Ok(v);
        }
        if !from.is_scalar() || !to.is_scalar() {
            let (from, to) = (self.cx.layouts.name(from), self.cx.layouts.name(to));
            return err(pos, format!("cannot convert {from} to {to}"));
        }
        Ok(hir::Expr::Cast {
            expr: self.push(v)?,
            from,
            to,
        })
    }
}

/// `id`, or the refusal at `pos` of a program past the `u32` id space.
fn fits<T>(id: Option<T>, pos: Pos) -> Result<T> {
    id.ok_or_else(|| SemaError {
        message: TOO_LARGE.into(),
        pos,
    })
}

/// Integer promotion: anything narrower than `int` becomes `int`.
fn promote(ty: CType) -> CType {
    match ty.kind() {
        TypeKind::Int { width, .. } if width.bytes() < 4 => CType::INT,
        _ => ty,
    }
}

/// C's usual arithmetic conversions (integer types only).
fn usual_arith(a: CType, b: CType) -> CType {
    let (
        TypeKind::Int {
            width: wa,
            signed: sa,
        },
        TypeKind::Int {
            width: wb,
            signed: sb,
        },
    ) = (promote(a).kind(), promote(b).kind())
    else {
        return CType::LONG;
    };
    if wa == wb {
        return CType::int(wa, sa && sb);
    }
    // The wider type wins: if it is unsigned the result is unsigned, and
    // if it is signed it can represent every narrower value.
    if wa > wb {
        CType::int(wa, sa)
    } else {
        CType::int(wb, sb)
    }
}

/// Builtin runtime signatures.
fn builtin_sig(b: Builtin) -> (&'static [CType], CType) {
    const CP: CType = CType::CHAR_PTR;
    const VP: CType = CType::VOID_PTR;
    const INT: CType = CType::INT;
    const LONG: CType = CType::LONG;
    const ULONG: CType = CType::ULONG;
    match b {
        Builtin::Malloc => (&[ULONG], VP),
        Builtin::Free => (&[VP], CType::VOID),
        Builtin::Realloc => (&[VP, ULONG], VP),
        Builtin::Strlen => (&[CP], ULONG),
        Builtin::Strcpy => (&[CP, CP], CP),
        Builtin::Strncpy => (&[CP, CP, ULONG], CP),
        Builtin::Strcat => (&[CP, CP], CP),
        Builtin::Strncat => (&[CP, CP, ULONG], CP),
        Builtin::Strcmp => (&[CP, CP], INT),
        Builtin::Strncmp => (&[CP, CP, ULONG], INT),
        Builtin::Strchr => (&[CP, INT], CP),
        Builtin::Strrchr => (&[CP, INT], CP),
        Builtin::Memcpy => (&[VP, VP, ULONG], VP),
        Builtin::Memmove => (&[VP, VP, ULONG], VP),
        Builtin::Memset => (&[VP, INT, ULONG], VP),
        Builtin::Memcmp => (&[VP, VP, ULONG], INT),
        Builtin::PrintStr => (&[CP], CType::VOID),
        Builtin::PrintInt => (&[LONG], CType::VOID),
        Builtin::Putchar => (&[INT], INT),
        Builtin::Abort => (&[], CType::VOID),
        Builtin::Exit => (&[INT], CType::VOID),
        Builtin::Isspace
        | Builtin::Isdigit
        | Builtin::Isalpha
        | Builtin::Isprint
        | Builtin::Toupper
        | Builtin::Tolower => (&[INT], INT),
        Builtin::Atoi => (&[CP], INT),
        Builtin::ReadInput => (&[CP, LONG], LONG),
        Builtin::EmitOutput => (&[CP, LONG], CType::VOID),
        Builtin::IoWait => (&[LONG], CType::VOID),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> hir::Program {
        let unit = parse(src).expect("parse");
        match analyze(&unit) {
            Ok(p) => p,
            Err(e) => panic!("sema failed: {e}\nsource:\n{src}"),
        }
    }

    /// Every HIR node of `p`, for matching on.
    fn dump(p: &hir::Program) -> String {
        format!("{:?} {:?}", p.stmts, p.exprs)
    }

    fn check_err(src: &str) -> SemaError {
        let unit = parse(src).expect("parse");
        analyze(&unit).expect_err("expected sema error")
    }

    #[test]
    fn minimal_program() {
        let p = check("int main() { return 0; }");
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
    }

    #[test]
    fn unknown_identifier_rejected() {
        let e = check_err("int f() { return x; }");
        assert!(e.message.contains("unknown identifier"));
    }

    #[test]
    fn unknown_function_rejected() {
        let e = check_err("int f() { return g(); }");
        assert!(e.message.contains("unknown function"));
    }

    #[test]
    fn arg_count_checked() {
        let e = check_err("int g(int a) { return a; } int f() { return g(1, 2); }");
        assert!(e.message.contains("expects 1 argument"));
    }

    #[test]
    fn struct_layout_is_padded() {
        let p = check("struct s { char c; long l; char d; }; struct s g;");
        let layout = &p.layouts.structs[0];
        assert_eq!(layout.fields[0].offset, 0);
        assert_eq!(layout.fields[1].offset, 8);
        assert_eq!(layout.fields[2].offset, 16);
        assert_eq!(layout.size, 24);
        assert_eq!(layout.align, 8);
    }

    #[test]
    fn array_indexing_lowers_to_ptr_add() {
        let p = check("int xs[4]; int f(int i) { return xs[i]; }");
        let hir::Stmt::Return(Some(hir::Expr::Load { addr, .. })) = p[p.funcs[0].body][0] else {
            panic!("expected return of load");
        };
        assert!(matches!(p[addr], hir::Expr::PtrAdd { elem_size: 4, .. }));
    }

    #[test]
    fn member_access_resolves_offsets() {
        let p = check(
            "struct pt { int x; int y; };\n\
             int f(struct pt *p) { return p->y; }",
        );
        // The offset const 4 must appear inside the address computation.
        let body = dump(&p);
        assert!(body.contains("Const(4"), "{body}");
    }

    #[test]
    fn string_literals_are_interned_with_nul() {
        let p = check("char *f() { return \"hi\"; } char *g() { return \"hi\"; }");
        assert_eq!(p.strings.len(), 1);
        assert_eq!(p.strings[0], b"hi\0".to_vec());
    }

    #[test]
    fn char_array_global_with_string_init() {
        let p = check("char tab[8] = \"abc\";");
        assert_eq!(p.globals[0].init[..4], *b"abc\0");
        assert_eq!(p.globals[0].init.len(), 8);
    }

    #[test]
    fn global_pointer_to_string_uses_reloc() {
        let p = check("char *msg = \"boo\";");
        assert_eq!(p.globals[0].relocs.len(), 1);
        assert_eq!(p.globals[0].relocs[0].0, 0);
    }

    #[test]
    fn sizeof_is_constant() {
        let p = check(
            "struct s { long a; char b; };\n\
             unsigned long f() { return sizeof(struct s) + sizeof(char *); }",
        );
        let hir::Stmt::Return(Some(hir::Expr::Binary { .. })) = p[p.funcs[0].body][0] else {
            panic!()
        };
        // 16 + 8 folded at lowering time? We keep the add; both sides const.
        let dbg = dump(&p);
        assert!(dbg.contains("Const(16") && dbg.contains("Const(8"), "{dbg}");
    }

    #[test]
    fn pointer_minus_pointer_gives_long() {
        let p = check("long f(char *a, char *b) { return a - b; }");
        let hir::Stmt::Return(Some(e)) = p[p.funcs[0].body][0] else {
            panic!()
        };
        assert!(matches!(e, hir::Expr::PtrDiff { .. }));
    }

    #[test]
    fn signed_unsigned_comparison_selection() {
        let op = |src| dump(&check(src));
        assert!(op("int f(unsigned int a, unsigned int b) { return a < b; }").contains("LtU"));
        assert!(op("int g(int a, int b) { return a < b; }").contains("LtS"));
        assert!(op("int h(char *a, char *b) { return a < b; }").contains("LtU"));
    }

    #[test]
    fn char_promotes_to_int_in_arithmetic() {
        let p = check("int f(char c) { return c + 1; }");
        let dbg = dump(&p);
        // A cast from char to int must be present.
        assert!(dbg.contains("Cast"), "{dbg}");
    }

    #[test]
    fn switch_lowered_to_dispatch() {
        let p = check(
            "int f(int c) {\n\
               int r = 0;\n\
               switch (c) { case 1: r = 10; break; case 2: r = 20; break; default: r = -1; }\n\
               return r;\n\
             }",
        );
        let dbg = dump(&p);
        assert!(dbg.contains("GotoIf"), "{dbg}");
    }

    #[test]
    fn goto_undefined_label_rejected() {
        let e = check_err("int f() { goto nowhere; return 0; }");
        assert!(e.message.contains("undefined label"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = check_err("int f() { break; return 0; }");
        assert!(e.message.contains("break outside"));
    }

    #[test]
    fn void_return_checks() {
        assert!(check_err("void f() { return 3; }")
            .message
            .contains("void function"));
        assert!(check_err("int f() { return; }")
            .message
            .contains("missing return value"));
    }

    #[test]
    fn local_shadowing_in_nested_scopes() {
        check("int f() { int x = 1; { int x = 2; x++; } return x; }");
        let e = check_err("int f() { int x; int x; return 0; }");
        assert!(e.message.contains("duplicate local"));
    }

    #[test]
    fn figure1_style_code_type_checks() {
        // A condensed version of the paper's utf8_to_utf7 skeleton.
        check(
            "char *utf8_to_utf7(char *u8, size_t u8len) {\n\
               char *buf, *p;\n\
               int ch; int n; int i; int b = 0; int k = 0; int base64 = 0;\n\
               p = buf = (char *) malloc(u8len * 2 + 1);\n\
               while (u8len) {\n\
                 unsigned char c = *u8;\n\
                 if (c < 0x80) ch = c, n = 0;\n\
                 else if (c < 0xc2) goto bail;\n\
                 else ch = c & 0x1f, n = 1;\n\
                 u8++; u8len--;\n\
                 if (n > u8len) goto bail;\n\
                 for (i = 0; i < n; i++) {\n\
                   if ((u8[i] & 0xc0) != 0x80) goto bail;\n\
                   ch = (ch << 6) | (u8[i] & 0x3f);\n\
                 }\n\
                 u8 += n; u8len -= n;\n\
                 *p++ = ch;\n\
               }\n\
               *p++ = '\\0';\n\
               return buf;\n\
             bail:\n\
               free(buf);\n\
               return 0;\n\
             }",
        );
    }

    #[test]
    fn inc_dec_on_pointers_scales() {
        let p = check("char *f(int *p) { p++; return (char *) p; }");
        let dbg = dump(&p);
        assert!(dbg.contains("delta: 4"), "{dbg}");
    }

    #[test]
    fn conditional_branches_unify() {
        check("int f(int c) { return c ? 1 : 2; }");
        check("char *f(int c, char *p) { return c ? p : 0; }");
        let e = check_err("struct s { int x; }; struct s g; int f(int c) { return c ? g : 1; }");
        assert!(!e.message.is_empty());
    }

    #[test]
    fn builtin_shadowing_rejected() {
        let e = check_err("int malloc(int x) { return x; }");
        assert!(e.message.contains("shadows a runtime builtin"));
    }

    #[test]
    fn a_pool_past_the_id_space_is_a_diagnostic_not_a_wrapped_id() {
        let pos = Pos {
            offset: 4,
            line: 1,
            col: 5,
        };
        let err = fits(ast::next_id(u32::MAX as usize), pos).unwrap_err();
        assert_eq!(
            err.to_string(),
            "program too large: over 2^32 - 2 nodes of one kind at 1:5"
        );
        assert_eq!(fits(ast::next_id(7), pos), Ok(7));
    }

    #[test]
    fn constant_casts_truncate_and_extend_like_c() {
        let p = check(
            "int a = (char)300; int b = (unsigned char)-1; long c = (short)65535;\n\
             char d[(1 < 2) + !0]; int e = (long)-7;",
        );
        let init = |i: usize| &p.globals[i].init;
        assert_eq!(init(0)[..], 44i32.to_le_bytes());
        assert_eq!(init(1)[..], 255i32.to_le_bytes());
        assert_eq!(init(2)[..], (-1i64).to_le_bytes());
        assert_eq!(init(3).len(), 2, "comparisons and `!` fold in a dimension");
        assert_eq!(init(4)[..], (-7i32).to_le_bytes());
    }

    #[test]
    fn usual_arith_conversions() {
        assert_eq!(usual_arith(CType::CHAR, CType::CHAR), CType::INT);
        assert_eq!(usual_arith(CType::INT, CType::UINT), CType::UINT);
        assert_eq!(usual_arith(CType::UINT, CType::LONG), CType::LONG);
        assert_eq!(usual_arith(CType::ULONG, CType::LONG), CType::ULONG);
        assert_eq!(usual_arith(CType::UCHAR, CType::INT), CType::INT);
    }
}
