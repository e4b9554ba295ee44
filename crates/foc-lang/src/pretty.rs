//! AST pretty-printer.
//!
//! Renders a parsed translation unit back to MiniC source. The printer's
//! contract, checked by property tests, is *round-trip stability*:
//! `parse(print(parse(src)))` equals `parse(src)`. This pins down the
//! parser's precedence and associativity decisions and gives diagnostics
//! a way to quote reconstructed code.

use std::fmt::Write as _;

use crate::ast::*;

/// Renders a translation unit as MiniC source.
pub fn print_unit(unit: &TranslationUnit) -> String {
    let mut p = Printer {
        out: String::new(),
        indent: 0,
        unit,
    };
    for item in &unit.items {
        p.item(item);
    }
    p.out
}

struct Printer<'a> {
    out: String,
    indent: usize,
    unit: &'a TranslationUnit,
}

impl<'a> Printer<'a> {
    fn name(&self, sym: Symbol) -> &'a str {
        self.unit.names.get(sym)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    fn close(&mut self, text: &str) {
        self.indent -= 1;
        self.line(text);
    }

    // ------------------------------------------------------------------
    // Types and declarators.
    // ------------------------------------------------------------------

    fn type_str(&self, ty: TypeExpr) -> String {
        let mut s = match ty.base {
            BaseType::Void => "void".into(),
            BaseType::Int { width, signed } => match (width, signed) {
                (1, true) => "char".into(),
                (1, false) => "unsigned char".into(),
                (2, true) => "short".into(),
                (2, false) => "unsigned short".into(),
                (4, true) => "int".into(),
                (4, false) => "unsigned int".into(),
                (8, true) => "long".into(),
                (8, false) => "unsigned long".into(),
                _ => unreachable!("parser emits only 1/2/4/8"),
            },
            BaseType::Struct(name) => format!("struct {}", self.name(name)),
        };
        for _ in 0..ty.pointers {
            s.push('*');
        }
        s
    }

    fn declarator_str(&mut self, d: &Declarator) -> String {
        let mut s = format!("{} {}", self.type_str(d.ty), self.name(d.name));
        for dim in &self.unit[d.array_dims] {
            if *dim == 0 {
                s.push_str("[]");
            } else {
                let _ = write!(s, "[{dim}]");
            }
        }
        match &d.init {
            None => {}
            Some(Initializer::Expr(e)) => {
                s.push_str(" = ");
                s.push_str(&self.expr_str(e, 2));
            }
            Some(Initializer::List(items)) => {
                s.push_str(" = {");
                for (i, item) in self.unit[*items].iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&self.expr_str(item, 2));
                }
                s.push('}');
            }
        }
        s
    }

    // ------------------------------------------------------------------
    // Items and statements.
    // ------------------------------------------------------------------

    fn item(&mut self, item: &'a Item) {
        match item {
            Item::Struct(s) => {
                self.open(&format!("struct {} {{", self.name(s.name)));
                for f in &self.unit[s.fields] {
                    let mut line = format!("{} {}", self.type_str(f.ty), self.name(f.name));
                    for dim in &self.unit[f.array_dims] {
                        let _ = write!(line, "[{dim}]");
                    }
                    line.push(';');
                    self.line(&line);
                }
                self.close("};");
            }
            Item::Global(decls) => {
                for d in &self.unit[*decls] {
                    let s = format!("{};", self.declarator_str(d));
                    self.line(&s);
                }
            }
            Item::Func(f) => {
                let params: Vec<String> = self.unit[f.params]
                    .iter()
                    .map(|p| format!("{} {}", self.type_str(p.ty), self.name(p.name)))
                    .collect();
                self.open(&format!(
                    "{} {}({}) {{",
                    self.type_str(f.ret),
                    self.name(f.name),
                    params.join(", ")
                ));
                for s in &self.unit[f.body] {
                    self.stmt(s);
                }
                self.close("}");
            }
        }
    }

    fn stmt(&mut self, s: &'a Stmt) {
        match s {
            Stmt::Empty => self.line(";"),
            Stmt::Expr(e) => {
                let s = format!("{};", self.expr_str(e, 0));
                self.line(&s);
            }
            Stmt::Decl(decls) => {
                for d in &self.unit[*decls] {
                    let s = format!("{};", self.declarator_str(d));
                    self.line(&s);
                }
            }
            Stmt::Block(stmts) => {
                self.open("{");
                for s in &self.unit[*stmts] {
                    self.stmt(s);
                }
                self.close("}");
            }
            Stmt::If { cond, then, els } => {
                self.open(&format!("if ({}) {{", self.expr_str(cond, 0)));
                self.stmt_body(*then);
                match els {
                    None => self.close("}"),
                    Some(els) => {
                        self.close("} else {");
                        self.indent += 1;
                        self.stmt_body(*els);
                        self.close("}");
                    }
                }
            }
            Stmt::While { cond, body } => {
                self.open(&format!("while ({}) {{", self.expr_str(cond, 0)));
                self.stmt_body(*body);
                self.close("}");
            }
            Stmt::DoWhile { body, cond } => {
                self.open("do {");
                self.stmt_body(*body);
                self.close(&format!("}} while ({});", self.expr_str(cond, 0)));
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The init may be a declaration; print it inline.
                let init_s = match init.map(|s| &self.unit[s]) {
                    None => String::new(),
                    Some(Stmt::Expr(e)) => self.expr_str(e, 0),
                    Some(Stmt::Decl(decls)) if decls.len() == 1 => {
                        self.declarator_str(&self.unit[*decls][0])
                    }
                    Some(other) => {
                        // Rare shape: hoist it before the loop.
                        self.stmt(other);
                        String::new()
                    }
                };
                let cond_s = cond
                    .as_ref()
                    .map(|c| self.expr_str(c, 0))
                    .unwrap_or_default();
                let step_s = step
                    .as_ref()
                    .map(|s| self.expr_str(s, 0))
                    .unwrap_or_default();
                self.open(&format!("for ({init_s}; {cond_s}; {step_s}) {{"));
                self.stmt_body(*body);
                self.close("}");
            }
            Stmt::Switch { scrutinee, body } => {
                self.open(&format!("switch ({}) {{", self.expr_str(scrutinee, 0)));
                for s in &self.unit[*body] {
                    self.stmt(s);
                }
                self.close("}");
            }
            Stmt::Case(v, _) => self.line(&format!("case {v}:")),
            Stmt::Default(_) => self.line("default:"),
            Stmt::Break(_) => self.line("break;"),
            Stmt::Continue(_) => self.line("continue;"),
            Stmt::Return(None, _) => self.line("return;"),
            Stmt::Return(Some(e), _) => {
                let s = format!("return {};", self.expr_str(e, 0));
                self.line(&s);
            }
            Stmt::Label(name, _) => self.line(&format!("{}:", self.name(*name))),
            Stmt::Goto(name, _) => self.line(&format!("goto {};", self.name(*name))),
        }
    }

    fn stmt_body(&mut self, s: Id<Stmt>) {
        match &self.unit[s] {
            Stmt::Block(stmts) => {
                for s in &self.unit[*stmts] {
                    self.stmt(s);
                }
            }
            other => self.stmt(other),
        }
    }
}

/// Precedence levels used to decide parenthesisation. Higher binds
/// tighter; mirrors the parser's table.
fn bin_prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        LogicalOr => 1,
        LogicalAnd => 2,
        Or => 3,
        Xor => 4,
        And => 5,
        Eq | Ne => 6,
        Lt | Gt | Le | Ge => 7,
        Shl | Shr => 8,
        Add | Sub => 9,
        Mul | Div | Rem => 10,
    }
}

fn bin_token(op: BinOp) -> &'static str {
    use BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Rem => "%",
        And => "&",
        Or => "|",
        Xor => "^",
        Shl => "<<",
        Shr => ">>",
        Eq => "==",
        Ne => "!=",
        Lt => "<",
        Gt => ">",
        Le => "<=",
        Ge => ">=",
        LogicalAnd => "&&",
        LogicalOr => "||",
    }
}

impl Printer<'_> {
    /// Renders an expression, parenthesising when the context binds at least
    /// as tightly as `min_prec` requires.
    fn expr_str(&self, e: &Expr, min_prec: u8) -> String {
        let sub = |id: Id<Expr>, min_prec| self.expr_str(&self.unit[id], min_prec);
        // Precedence classes: 0 = comma, 2 = assignment, 3 = conditional,
        // 4.. = binary (offset by +3 over `bin_prec`), 15 = unary, 16 = postfix.
        match e {
            Expr::IntLit(v, _) => format!("{v}"),
            Expr::StrLit(bytes, _) => {
                let mut s = String::from("\"");
                for &b in &self.unit[*bytes] {
                    match b {
                        b'"' => s.push_str("\\\""),
                        b'\\' => s.push_str("\\\\"),
                        b'\n' => s.push_str("\\n"),
                        b'\t' => s.push_str("\\t"),
                        b'\r' => s.push_str("\\r"),
                        0x20..=0x7E => s.push(b as char),
                        other => {
                            let _ = write!(s, "\\x{other:02x}");
                        }
                    }
                }
                s.push('"');
                s
            }
            Expr::Ident(name, _) => self.name(*name).to_owned(),
            Expr::Binary { op, lhs, rhs, .. } => {
                let prec = bin_prec(*op) + 3;
                let s = format!(
                    "{} {} {}",
                    sub(*lhs, prec),
                    bin_token(*op),
                    sub(*rhs, prec + 1)
                );
                parens_if(s, prec < min_prec)
            }
            Expr::Unary { op, operand, .. } => {
                let t = match op {
                    UnOp::Neg => "-",
                    UnOp::BitNot => "~",
                    UnOp::Not => "!",
                };
                let s = format!("{t}{}", sub(*operand, 15));
                parens_if(s, 15 < min_prec)
            }
            Expr::Deref(inner, _) => parens_if(format!("*{}", sub(*inner, 15)), 15 < min_prec),
            Expr::AddrOf(inner, _) => parens_if(format!("&{}", sub(*inner, 15)), 15 < min_prec),
            Expr::Index { base, index, .. } => {
                format!("{}[{}]", sub(*base, 16), sub(*index, 0))
            }
            Expr::Member {
                base, field, arrow, ..
            } => format!(
                "{}{}{}",
                sub(*base, 16),
                if *arrow { "->" } else { "." },
                self.name(*field)
            ),
            Expr::Call { callee, args, .. } => {
                let args: Vec<String> = self.unit[*args]
                    .iter()
                    .map(|a| self.expr_str(a, 2))
                    .collect();
                format!("{}({})", self.name(*callee), args.join(", "))
            }
            Expr::Assign { lhs, rhs, .. } => {
                let s = format!("{} = {}", sub(*lhs, 3), sub(*rhs, 2));
                parens_if(s, 2 < min_prec)
            }
            Expr::OpAssign { op, lhs, rhs, .. } => {
                let s = format!("{} {}= {}", sub(*lhs, 3), bin_token(*op), sub(*rhs, 2));
                parens_if(s, 2 < min_prec)
            }
            Expr::IncDec {
                target,
                inc,
                prefix,
                ..
            } => {
                let t = if *inc { "++" } else { "--" };
                let s = if *prefix {
                    format!("{t}{}", sub(*target, 15))
                } else {
                    format!("{}{t}", sub(*target, 16))
                };
                parens_if(s, 15 < min_prec)
            }
            Expr::Conditional {
                cond, then, els, ..
            } => {
                let s = format!("{} ? {} : {}", sub(*cond, 4), sub(*then, 0), sub(*els, 2));
                parens_if(s, 3 < min_prec)
            }
            Expr::Cast { ty, expr, .. } => {
                let s = format!("({}) {}", self.type_str(*ty), sub(*expr, 15));
                parens_if(s, 15 < min_prec)
            }
            Expr::SizeofType(ty, _) => format!("sizeof({})", self.type_str(*ty)),
            Expr::SizeofExpr(inner, _) => format!("sizeof({})", sub(*inner, 0)),
            Expr::Comma { lhs, rhs, .. } => {
                let s = format!("{}, {}", sub(*lhs, 2), sub(*rhs, 2));
                parens_if(s, 1 < min_prec)
            }
        }
    }
}

fn parens_if(s: String, yes: bool) -> String {
    if yes {
        format!("({s})")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strips positions so round-trip comparison ignores layout.
    fn normalize(unit: &TranslationUnit) -> String {
        // Debug output includes `Pos`; easier to compare re-printed text.
        print_unit(unit)
    }

    fn round_trip(src: &str) {
        let first = parse(src).expect("initial parse");
        let printed = print_unit(&first);
        let second =
            parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        assert_eq!(
            normalize(&first),
            normalize(&second),
            "round trip diverged for:\n{src}\nprinted:\n{printed}"
        );
    }

    #[test]
    fn round_trips_basic_constructs() {
        round_trip("int main() { return 1 + 2 * 3; }");
        round_trip("int f(int a, char *b) { return a + *b; }");
        round_trip("char tab[4] = \"ab\"; char *msg = \"hi\\n\"; int xs[3] = {1, 2, 3};");
        round_trip(
            "struct pt { int x; int y; char name[8]; };\n\
             int g(struct pt *p) { return p->x + p->y; }",
        );
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            "int f(int n) {\n\
               int acc = 0;\n\
               for (int i = 0; i < n; i++) { if (i % 2) acc += i; else acc -= i; }\n\
               while (acc > 10) acc /= 2;\n\
               do acc++; while (acc < 3);\n\
               switch (acc) { case 1: return 1; default: break; }\n\
               again: if (acc) goto again;\n\
               return acc;\n\
             }",
        );
    }

    #[test]
    fn round_trips_tricky_precedence() {
        round_trip("int f(int a, int b, int c) { return a - (b - c); }");
        round_trip("int f(int a, int b) { return (a + b) * (a - b); }");
        round_trip("int f(int a) { return -(a + 1); }");
        round_trip("int f(int a, int b) { return a & b | a ^ b; }");
        round_trip("int f(int a) { return (a << 2) < 3; }");
        round_trip("int f(int *p) { return (*p)++ + *p++; }");
        round_trip("int f(int a, int b, int c) { return a ? b : c ? a : b; }");
        round_trip("int f(int a) { int b; b = (a = 2, a + 1); return b; }");
        round_trip("long f(char *p) { return (long) (unsigned char) *p; }");
    }

    #[test]
    fn round_trips_figure1() {
        // The full Mutt source (which embeds Figure 1) must survive a
        // print/reparse cycle.
        let src = r#"
            char B64Chars[64] =
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+,";
            char *utf8_to_utf7(char *u8, size_t u8len) {
                char *buf; char *p;
                int ch; int n; int i; int b = 0; int k = 0; int base64 = 0;
                p = buf = (char *) malloc(u8len * 2 + 1);
                while (u8len) {
                    unsigned char c = *u8;
                    if (c < 0x80) ch = c, n = 0;
                    else if (c < 0xc2) goto bail;
                    else ch = c & 0x1f, n = 1;
                    u8++; u8len--;
                    if (n > u8len) goto bail;
                    for (i = 0; i < n; i++) {
                        if ((u8[i] & 0xc0) != 0x80) goto bail;
                        ch = (ch << 6) | (u8[i] & 0x3f);
                    }
                    u8 += n; u8len -= n;
                    *p++ = ch;
                }
                *p++ = '\0';
                return buf;
            bail:
                free(buf);
                return 0;
            }
        "#;
        round_trip(src);
    }

    #[test]
    fn printed_programs_execute_identically() {
        // Semantic round trip: the printed source compiles and produces
        // the same result.
        let src = "int main() {\n\
                     int xs[8]; int i; int acc = 0;\n\
                     for (i = 0; i < 8; i++) xs[i] = i * i - 3;\n\
                     for (i = 0; i < 8; i++) acc = acc * 2 + xs[i] % 5;\n\
                     return acc & 0xFFFF;\n\
                   }";
        let unit = parse(src).unwrap();
        let printed = print_unit(&unit);
        let a = crate::frontend(src).unwrap();
        let b = crate::frontend(&printed).unwrap();
        // Compare the HIR structurally, node for node.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn string_escapes_survive() {
        round_trip(r#"char *s = "tab\t nl\n quote\" backslash\\ hex\xff";"#);
    }
}
