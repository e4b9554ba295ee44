//! HIR → bytecode lowering.

use std::fmt;

use foc_lang::hir::{self, Callee};
use foc_lang::types::{CType, Layouts, TypeKind};
use foc_memory::AccessSize;

use crate::bytecode::{CompiledFunc, CompiledProgram, FrameLayout, GlobalImage, Instr};

/// Gap inserted between local data units so adjacent locals never blur
/// together in address-based object-table lookups (Jones & Kelly padding).
const LOCAL_GAP: u64 = 16;

/// Lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

/// Compiles a type-checked program to bytecode.
pub fn compile(program: &hir::Program) -> Result<CompiledProgram, CompileError> {
    let inits = program.globals.iter().map(|g| g.init.clone()).collect();
    compile_with(program, inits)
}

/// [`compile`], moving each global's load image out of `program` instead
/// of copying it (Pine's are 172 KB of zeros); the globals are left with
/// empty images.
pub fn compile_moving(program: &mut hir::Program) -> Result<CompiledProgram, CompileError> {
    let globals = program.globals.iter_mut();
    let inits = globals.map(|g| std::mem::take(&mut g.init)).collect();
    compile_with(program, inits)
}

/// Compiles `program` with `inits`, one load image per global.
fn compile_with(
    program: &hir::Program,
    inits: Vec<Vec<u8>>,
) -> Result<CompiledProgram, CompileError> {
    let mut out = CompiledProgram {
        funcs: Vec::new(),
        globals: Vec::new(),
        strings: program.strings.clone(),
    };
    for (g, init) in program.globals.iter().zip(inits) {
        let size = program.layouts.size_of(g.ty);
        out.globals.push(GlobalImage {
            name: g.name.clone(),
            size,
            init,
            relocs: g.relocs.iter().map(|&(o, s)| (o, s.0)).collect(),
        });
    }
    for f in &program.funcs {
        out.funcs.push(compile_func(f, program)?);
    }
    Ok(out)
}

fn frame_layout(f: &hir::Function, layouts: &Layouts) -> FrameLayout {
    let mut slots = Vec::with_capacity(f.locals.len());
    let mut offset = 0u64;
    for &ty in &f.locals {
        let size = layouts.size_of(ty).max(1);
        let align = layouts.align_of(ty).max(1);
        offset = offset.div_ceil(align) * align;
        slots.push((offset, size));
        offset += size + LOCAL_GAP;
    }
    FrameLayout {
        slots,
        total: offset,
    }
}

fn compile_func(f: &hir::Function, p: &hir::Program) -> Result<CompiledFunc, CompileError> {
    let frame = frame_layout(f, &p.layouts);
    let mut cg = Codegen {
        p,
        frame: &frame,
        code: Vec::new(),
        labels: vec![None; f.label_count as usize],
        label_fixups: Vec::new(),
        loops: Vec::new(),
        jumps: Vec::new(),
    };
    cg.emit_block(f.body)?;
    // Implicit return for functions that fall off the end.
    cg.code.push(Instr::Const(0));
    cg.code.push(Instr::Ret);
    cg.patch_labels()?;
    let code = std::mem::take(&mut cg.code);
    drop(cg);
    Ok(CompiledFunc {
        name: f.name.clone(),
        param_count: f.param_count,
        frame,
        code,
    })
}

struct Codegen<'a> {
    /// The program the function's nodes live in.
    p: &'a hir::Program,
    frame: &'a FrameLayout,
    code: Vec<Instr>,
    /// Placement of each HIR label.
    labels: Vec<Option<u32>>,
    /// `(instruction index, label)` pairs to patch.
    label_fixups: Vec<(usize, hir::LabelId)>,
    /// Per open loop, innermost last, the length `jumps` had when it
    /// opened.
    loops: Vec<usize>,
    /// The `break` (`true`) and `continue` jumps of every open loop, by
    /// instruction index.
    jumps: Vec<(usize, bool)>,
}

impl<'a> Codegen<'a> {
    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emits a jump-family instruction whose target is patched later.
    fn emit_jump_to_label(&mut self, make: fn(u32) -> Instr, label: hir::LabelId) {
        self.label_fixups.push((self.code.len(), label));
        self.code.push(make(u32::MAX));
    }

    fn patch_target(&mut self, at: usize, target: u32) {
        let ins = match self.code[at] {
            Instr::Jump(_) => Instr::Jump(target),
            Instr::JumpIfZero(_) => Instr::JumpIfZero(target),
            Instr::JumpIfNotZero(_) => Instr::JumpIfNotZero(target),
            other => panic!("patching non-jump {other:?}"),
        };
        self.code[at] = ins;
    }

    /// Closes the innermost loop: its breaks jump to `end`, its
    /// continues to `cont`.
    fn close_loop(&mut self, end: u32, cont: u32) {
        let base = self.loops.pop().expect("a loop is open");
        for i in base..self.jumps.len() {
            let (at, brk) = self.jumps[i];
            self.patch_target(at, if brk { end } else { cont });
        }
        self.jumps.truncate(base);
    }

    fn patch_labels(&mut self) -> Result<(), CompileError> {
        let fixups = std::mem::take(&mut self.label_fixups);
        for (at, label) in fixups {
            let Some(target) = self.labels[label.0 as usize] else {
                return Err(CompileError {
                    message: format!("label {} never placed", label.0),
                });
            };
            self.patch_target(at, target);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statements.
    // ------------------------------------------------------------------

    fn emit_block(&mut self, block: hir::List<hir::Stmt>) -> Result<(), CompileError> {
        for stmt in &self.p[block] {
            self.emit_stmt(stmt)?;
        }
        Ok(())
    }

    fn emit_stmt(&mut self, stmt: &hir::Stmt) -> Result<(), CompileError> {
        match stmt {
            hir::Stmt::Expr(e) => {
                self.emit_expr(e)?;
                self.code.push(Instr::Drop);
            }
            hir::Stmt::If { cond, then, els } => {
                self.emit_expr(cond)?;
                let jelse = self.code.len();
                self.code.push(Instr::JumpIfZero(u32::MAX));
                self.emit_block(*then)?;
                if els.is_empty() {
                    let end = self.here();
                    self.patch_target(jelse, end);
                } else {
                    let jend = self.code.len();
                    self.code.push(Instr::Jump(u32::MAX));
                    let else_at = self.here();
                    self.patch_target(jelse, else_at);
                    self.emit_block(*els)?;
                    let end = self.here();
                    self.patch_target(jend, end);
                }
            }
            hir::Stmt::While { cond, body, step } => {
                let cond_at = self.here();
                self.emit_expr(cond)?;
                let jend = self.code.len();
                self.code.push(Instr::JumpIfZero(u32::MAX));
                self.loops.push(self.jumps.len());
                self.emit_block(*body)?;
                let cont_at = self.here();
                if let Some(step) = step {
                    self.emit_expr(step)?;
                    self.code.push(Instr::Drop);
                }
                self.code.push(Instr::Jump(cond_at));
                let end = self.here();
                self.patch_target(jend, end);
                self.close_loop(end, cont_at);
            }
            hir::Stmt::DoWhile { body, cond } => {
                let body_at = self.here();
                self.loops.push(self.jumps.len());
                self.emit_block(*body)?;
                let cont_at = self.here();
                self.emit_expr(cond)?;
                self.code.push(Instr::JumpIfNotZero(body_at));
                self.close_loop(self.here(), cont_at);
            }
            hir::Stmt::Break | hir::Stmt::Continue => {
                let brk = matches!(stmt, hir::Stmt::Break);
                if self.loops.is_empty() {
                    let what = if brk { "break" } else { "continue" };
                    return Err(CompileError {
                        message: format!("{what} outside loop"),
                    });
                }
                self.jumps.push((self.code.len(), brk));
                self.code.push(Instr::Jump(u32::MAX));
            }
            hir::Stmt::Return(e) => {
                match e {
                    Some(e) => {
                        self.emit_expr(e)?;
                    }
                    None => self.code.push(Instr::Const(0)),
                }
                self.code.push(Instr::Ret);
            }
            hir::Stmt::Label(id) => {
                self.labels[id.0 as usize] = Some(self.here());
            }
            hir::Stmt::Goto(id) => {
                self.emit_jump_to_label(Instr::Jump, *id);
            }
            hir::Stmt::GotoIf { cond, target } => {
                self.emit_expr(cond)?;
                self.emit_jump_to_label(Instr::JumpIfNotZero, *target);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions: each emission leaves exactly one value on the stack.
    // ------------------------------------------------------------------

    fn emit_expr(&mut self, e: &hir::Expr) -> Result<(), CompileError> {
        let p = self.p;
        match e {
            hir::Expr::Const(v, ty) => {
                self.code.push(Instr::Const(canonical(*v, *ty)));
            }
            hir::Expr::Str(id) => self.code.push(Instr::StrAddr(id.0)),
            hir::Expr::LocalAddr(id, _) => {
                let (offset, _) = self.frame.slots[id.0 as usize];
                self.code.push(Instr::LocalAddr(offset as u32));
            }
            hir::Expr::GlobalAddr(id, _) => self.code.push(Instr::GlobalAddr(id.0)),
            hir::Expr::Load { addr, ty } => {
                let (size, signed) = scalar_repr(*ty);
                if let Some(off) = self.direct_local(&p[*addr]) {
                    self.code.push(Instr::LoadLocal(off, size, signed));
                } else {
                    self.emit_expr(&p[*addr])?;
                    self.code.push(Instr::Load(size, signed));
                }
            }
            hir::Expr::Store { addr, value, ty } => {
                let (size, _) = scalar_repr(*ty);
                self.emit_expr(&p[*value])?;
                self.code.push(Instr::Dup);
                if let Some(off) = self.direct_local(&p[*addr]) {
                    self.code.push(Instr::StoreLocal(off, size));
                } else {
                    self.emit_expr(&p[*addr])?;
                    self.code.push(Instr::Store(size));
                }
            }
            hir::Expr::Binary { op, lhs, rhs, ty } => {
                self.emit_expr(&p[*lhs])?;
                if p[*lhs].ty().is_pointer() {
                    self.code.push(Instr::EffAddr);
                }
                self.emit_expr(&p[*rhs])?;
                if p[*rhs].ty().is_pointer() {
                    self.code.push(Instr::EffAddr);
                }
                self.code.push(binop_instr(*op));
                self.emit_normalize(*ty);
            }
            hir::Expr::Unary { op, operand, ty } => {
                self.emit_expr(&p[*operand])?;
                self.code.push(match op {
                    hir::UnOp::Neg => Instr::Neg,
                    hir::UnOp::BitNot => Instr::BitNot,
                    hir::UnOp::Not => Instr::Not,
                });
                if !matches!(op, hir::UnOp::Not) {
                    self.emit_normalize(*ty);
                }
            }
            hir::Expr::Cast { expr, from, to } => {
                self.emit_expr(&p[*expr])?;
                match (from.is_pointer(), to.is_pointer()) {
                    (true, true) | (false, true) => {
                        // Pointer↔pointer and int→pointer keep the bits.
                    }
                    (true, false) => {
                        // Pointer→integer resolves the intended address
                        // (CRED semantics for out-of-bounds pointers).
                        self.code.push(Instr::EffAddr);
                        self.emit_normalize(*to);
                    }
                    (false, false) => self.emit_normalize(*to),
                }
            }
            hir::Expr::PtrAdd {
                ptr,
                count,
                elem_size,
                ..
            } => {
                self.emit_expr(&p[*ptr])?;
                self.emit_expr(&p[*count])?;
                self.code.push(Instr::PtrAdd(*elem_size));
            }
            hir::Expr::PtrDiff {
                lhs,
                rhs,
                elem_size,
            } => {
                self.emit_expr(&p[*lhs])?;
                self.emit_expr(&p[*rhs])?;
                self.code.push(Instr::PtrDiff(*elem_size));
            }
            hir::Expr::Call { callee, args, .. } => {
                for a in &p[*args] {
                    self.emit_expr(a)?;
                }
                match callee {
                    Callee::Func(fid) => self.code.push(Instr::Call(fid.0)),
                    Callee::Builtin(b) => self.code.push(Instr::CallBuiltin(*b)),
                }
            }
            hir::Expr::ShortCircuit { and, lhs, rhs } => {
                self.emit_expr(&p[*lhs])?;
                let jshort = self.code.len();
                if *and {
                    self.code.push(Instr::JumpIfZero(u32::MAX));
                } else {
                    self.code.push(Instr::JumpIfNotZero(u32::MAX));
                }
                self.emit_expr(&p[*rhs])?;
                // Normalise the right side to 0/1.
                self.code.push(Instr::Const(0));
                self.code.push(Instr::Ne);
                let jend = self.code.len();
                self.code.push(Instr::Jump(u32::MAX));
                let short_at = self.here();
                self.code.push(Instr::Const(if *and { 0 } else { 1 }));
                let end = self.here();
                self.patch_target(jshort, short_at);
                self.patch_target(jend, end);
            }
            hir::Expr::Conditional {
                cond, then, els, ..
            } => {
                self.emit_expr(&p[*cond])?;
                let jelse = self.code.len();
                self.code.push(Instr::JumpIfZero(u32::MAX));
                self.emit_expr(&p[*then])?;
                let jend = self.code.len();
                self.code.push(Instr::Jump(u32::MAX));
                let else_at = self.here();
                self.patch_target(jelse, else_at);
                self.emit_expr(&p[*els])?;
                let end = self.here();
                self.patch_target(jend, end);
            }
            hir::Expr::Comma {
                effects, result, ..
            } => {
                self.emit_expr(&p[*effects])?;
                self.code.push(Instr::Drop);
                self.emit_expr(&p[*result])?;
            }
            hir::Expr::IncDec {
                addr,
                ty,
                delta,
                prefix,
                ptr,
            } => {
                let (size, signed) = scalar_repr(*ty);
                // A direct scalar local (the hot i++ path), or an address
                // kept under the value: [addr, old].
                let local = self.direct_local(&p[*addr]);
                match local {
                    Some(off) => self.code.push(Instr::LoadLocal(off, size, signed)),
                    None => {
                        self.emit_expr(&p[*addr])?;
                        self.code.push(Instr::Dup);
                        self.code.push(Instr::Load(size, signed));
                    }
                }
                if !*prefix {
                    self.code.push(Instr::Dup); // [old, old]
                }
                // The new value, from the top copy.
                self.code.push(Instr::Const(*delta));
                if *ptr {
                    self.code.push(Instr::PtrAdd(1));
                } else {
                    self.code.push(Instr::Add);
                    self.emit_normalize(*ty);
                }
                if *prefix {
                    self.code.push(Instr::Dup); // [new, new]
                }
                // Store the top, keep the value under it as the result.
                match local {
                    Some(off) => self.code.push(Instr::StoreLocal(off, size)),
                    None => {
                        self.code.push(Instr::Rot3); // [result, new, addr]
                        self.code.push(Instr::Store(size));
                    }
                }
            }
        }
        Ok(())
    }

    /// Frame offset when `addr` is statically the address of a scalar
    /// local (direct slot access — never instrumented).
    fn direct_local(&self, addr: &hir::Expr) -> Option<u32> {
        if let hir::Expr::LocalAddr(id, ty) = addr {
            if ty.is_scalar() {
                let (offset, _) = self.frame.slots[id.0 as usize];
                return Some(offset as u32);
            }
        }
        None
    }

    fn emit_normalize(&mut self, ty: CType) {
        let (size, signed) = scalar_repr(ty);
        if size != AccessSize::B8 {
            self.code.push(Instr::Normalize(size, signed));
        }
    }
}

/// Width and signedness of a scalar type's memory representation.
fn scalar_repr(ty: CType) -> (AccessSize, bool) {
    match ty.kind() {
        TypeKind::Int { width, signed } => (AccessSize::from_bytes(width.bytes()), signed),
        TypeKind::Ptr(_) => (AccessSize::B8, false),
        _ => panic!("non-scalar in value position: {ty:?}"),
    }
}

/// Canonical `i64` representation of a constant for its type.
fn canonical(v: i64, ty: CType) -> i64 {
    match ty.kind() {
        TypeKind::Int { width, signed } => {
            let bits = width.bytes() * 8;
            if bits == 64 {
                return v;
            }
            let mask = (1u64 << bits) - 1;
            let low = (v as u64) & mask;
            if signed {
                let sign_bit = 1u64 << (bits - 1);
                if low & sign_bit != 0 {
                    (low | !mask) as i64
                } else {
                    low as i64
                }
            } else {
                low as i64
            }
        }
        _ => v,
    }
}

fn binop_instr(op: hir::BinOp) -> Instr {
    use hir::BinOp as B;
    match op {
        B::Add => Instr::Add,
        B::Sub => Instr::Sub,
        B::Mul => Instr::Mul,
        B::DivS => Instr::DivS,
        B::DivU => Instr::DivU,
        B::RemS => Instr::RemS,
        B::RemU => Instr::RemU,
        B::And => Instr::And,
        B::Or => Instr::Or,
        B::Xor => Instr::Xor,
        B::Shl => Instr::Shl,
        B::ShrS => Instr::ShrS,
        B::ShrU => Instr::ShrU,
        B::Eq => Instr::Eq,
        B::Ne => Instr::Ne,
        B::LtS => Instr::LtS,
        B::LtU => Instr::LtU,
        B::LeS => Instr::LeS,
        B::LeU => Instr::LeU,
        B::GtS => Instr::GtS,
        B::GtU => Instr::GtU,
        B::GeS => Instr::GeS,
        B::GeU => Instr::GeU,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    #[test]
    fn compiles_minimal_program() {
        let p = compile_source("int main() { return 42; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        let code = &p.funcs[0].code;
        assert!(code.contains(&Instr::Const(42)));
        assert!(code.contains(&Instr::Ret));
    }

    #[test]
    fn frame_layout_separates_locals() {
        let p = compile_source("int f() { char a[16]; char b[16]; return 0; }").unwrap();
        let frame = &p.funcs[0].frame;
        assert_eq!(frame.slots.len(), 2);
        let (o1, s1) = frame.slots[0];
        let (o2, _) = frame.slots[1];
        assert!(
            o2 >= o1 + s1 + LOCAL_GAP,
            "locals must be separated by a gap"
        );
    }

    #[test]
    fn loads_carry_width_and_sign() {
        let p = compile_source("int f(char *p, unsigned char *q) { return *p + *q; }").unwrap();
        let code = &p.funcs[0].code;
        assert!(code.contains(&Instr::Load(AccessSize::B1, true)));
        assert!(code.contains(&Instr::Load(AccessSize::B1, false)));
    }

    #[test]
    fn pointer_indexing_emits_ptr_add() {
        let p = compile_source("int f(int *xs, int i) { return xs[i]; }").unwrap();
        assert!(p.funcs[0].code.contains(&Instr::PtrAdd(4)));
    }

    #[test]
    fn pointer_comparison_uses_effective_addresses() {
        let p = compile_source("int f(char *a, char *b) { return a < b; }").unwrap();
        let effs = p.funcs[0]
            .code
            .iter()
            .filter(|i| **i == Instr::EffAddr)
            .count();
        assert_eq!(effs, 2);
        assert!(p.funcs[0].code.contains(&Instr::LtU));
    }

    #[test]
    fn short_circuit_does_not_always_evaluate_rhs() {
        let p = compile_source("int f(int a, int b) { return a && b; }").unwrap();
        let code = &p.funcs[0].code;
        assert!(code.iter().any(|i| matches!(i, Instr::JumpIfZero(_))));
    }

    #[test]
    fn labels_are_patched() {
        let p =
            compile_source("int f() { int x = 0; again: x++; if (x < 3) goto again; return x; }")
                .unwrap();
        for ins in &p.funcs[0].code {
            match ins {
                Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNotZero(t) => {
                    assert_ne!(*t, u32::MAX, "unpatched jump");
                    assert!((*t as usize) <= p.funcs[0].code.len());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn globals_and_strings_are_imaged() {
        let p = compile_source(
            "char tab[4] = \"ab\"; char *msg = \"hello\";\n\
             char *f() { return msg; }",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].init[..3], *b"ab\0");
        assert_eq!(p.globals[1].relocs.len(), 1);
        assert!(!p.strings.is_empty());
    }

    #[test]
    fn canonical_constant_representation() {
        assert_eq!(canonical(0xFF, CType::CHAR), -1);
        assert_eq!(canonical(0xFF, CType::UCHAR), 0xFF);
        assert_eq!(canonical(-1, CType::UINT), 0xFFFF_FFFF);
        assert_eq!(canonical(0x1_0000_0001, CType::INT), 1);
        assert_eq!(canonical(-5, CType::LONG), -5);
    }

    #[test]
    fn disassembly_renders() {
        let p = compile_source("int main() { return 1; }").unwrap();
        let dis = p.disassemble();
        assert!(dis.contains("fn main"));
        assert!(dis.contains("Ret"));
    }

    #[test]
    fn break_and_continue_patch_into_loop() {
        let p = compile_source(
            "int f() {\n\
               int i; int n = 0;\n\
               for (i = 0; i < 10; i++) {\n\
                 if (i == 3) continue;\n\
                 if (i == 7) break;\n\
                 n++;\n\
               }\n\
               return n;\n\
             }",
        )
        .unwrap();
        for ins in &p.funcs[0].code {
            if let Instr::Jump(t) = ins {
                assert_ne!(*t, u32::MAX);
            }
        }
    }

    #[test]
    fn the_deepest_nesting_the_parser_accepts_compiles_on_a_small_stack() {
        let shapes: [fn(usize) -> String; 5] = [
            |n| format!("int f(int x) {{ return {}x; }}", "- ".repeat(n)),
            |n| format!("int f(int x) {{ return x{}; }}", " + x".repeat(n)),
            |n| format!("int f(int x) {{ return {}x; }}", "x ? x : ".repeat(n)),
            |n| {
                format!(
                    "int f(int x) {{ {} return 0; return 1; }}",
                    "if (x)".repeat(n)
                )
            },
            |n| format!("int f(int x) {{ {}0; return x; }}", "x = ".repeat(n)),
        ];
        let compiled = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                shapes.map(|program| {
                    let deepest = (1..)
                        .take_while(|&n| foc_lang::frontend(&program(n)).is_ok())
                        .last()
                        .expect("one level is accepted");
                    compile_source(&program(deepest)).map(|p| (deepest, p.funcs.len()))
                })
            })
            .expect("spawn")
            .join()
            .expect("lowering panicked");
        for result in compiled {
            let (deepest, funcs) = result.expect("the deepest accepted program compiles");
            assert!(
                deepest >= 64 && funcs == 1,
                "{deepest} levels, {funcs} functions"
            );
        }
    }
}
