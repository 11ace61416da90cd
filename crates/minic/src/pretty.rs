//! Pretty-printing MiniC ASTs back to source text.
//!
//! Used for diagnostics, for dumping analysis results next to the code
//! they describe, and to test the parser: `print ∘ parse` is idempotent
//! (printing a parsed program and re-parsing yields the same printed
//! form), which the round-trip tests over the whole benchmark suite
//! verify. Names print through the interner of the unit the tree
//! was parsed from.

use crate::ast::*;
use crate::symbol::Interner;
use std::fmt::Write as _;

/// Pretty-prints a whole translation unit.
pub fn print_unit(unit: &Unit) -> String {
    let mut p = Printer::new(&unit.names);
    for item in &unit.items {
        match item {
            Item::Struct(sd) => p.struct_decl(sd),
            Item::Enum(ed) => p.enum_decl(ed),
            Item::Globals(decls) => p.globals(decls),
            Item::Function(fd) => p.function(fd),
        }
    }
    p.out
}

/// Pretty-prints one top-level item. The serve database fingerprints
/// declarations with this: two parses whose items print identically
/// (at the same ordinal) are guaranteed to carry identical node ids,
/// so the canonical text is a sound content key for per-declaration
/// derived artifacts. `names` is the interner of `item`'s unit.
pub fn print_item(item: &Item, names: &Interner) -> String {
    let mut p = Printer::new(names);
    match item {
        Item::Struct(sd) => p.struct_decl(sd),
        Item::Enum(ed) => p.enum_decl(ed),
        Item::Globals(decls) => p.globals(decls),
        Item::Function(fd) => p.function(fd),
    }
    p.out
}

/// Pretty-prints a single expression; `names` is the interner of its
/// unit.
pub fn print_expr(e: &Expr, names: &Interner) -> String {
    let mut p = Printer::new(names);
    p.expr(e, 0);
    p.out
}

/// Pretty-prints a single statement at the given indent level; `names`
/// is the interner of its unit.
pub fn print_stmt(s: &Stmt, indent: usize, names: &Interner) -> String {
    let mut p = Printer::new(names);
    p.indent = indent;
    p.stmt(s);
    p.out
}

struct Printer<'a> {
    names: &'a Interner,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(names: &'a Interner) -> Self {
        Printer {
            names,
            out: String::new(),
            indent: 0,
        }
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn type_name(&mut self, ty: &TypeName, name: &str) {
        // Rebuild a C declarator: base, pointers, arrays, fn pointers.
        match ty {
            TypeName::Base(b) => {
                let base = match b {
                    BaseType::Void => "void".to_string(),
                    BaseType::Int => "int".to_string(),
                    BaseType::Char => "char".to_string(),
                    BaseType::Float => "float".to_string(),
                    BaseType::Struct(s) => format!("struct {}", &self.names[*s]),
                };
                self.out.push_str(&base);
                if !name.is_empty() {
                    let _ = write!(self.out, " {name}");
                }
            }
            TypeName::Ptr(inner) => {
                self.type_name(inner, &format!("*{name}"));
            }
            TypeName::Array(inner, dim) => {
                let dim_text = dim
                    .as_ref()
                    .map(|e| print_expr(e, self.names))
                    .unwrap_or_default();
                // Arrays bind tighter than pointers: parenthesize a
                // pointer declarator.
                let decl = if name.starts_with('*') {
                    format!("({name})[{dim_text}]")
                } else {
                    format!("{name}[{dim_text}]")
                };
                self.type_name(inner, &decl);
            }
            TypeName::FnPtr(ret, params) => {
                let mut plist = String::new();
                for (i, pt) in params.iter().enumerate() {
                    if i > 0 {
                        plist.push_str(", ");
                    }
                    let mut sub = Printer::new(self.names);
                    sub.type_name(pt, "");
                    plist.push_str(&sub.out);
                }
                if plist.is_empty() {
                    plist.push_str("void");
                }
                self.type_name(ret, &format!("(*{name})({plist})"));
            }
        }
    }

    fn struct_decl(&mut self, sd: &StructDecl) {
        let _ = writeln!(self.out, "struct {} {{", &self.names[sd.name]);
        for &(fname, ref fty) in &sd.fields {
            self.out.push_str("    ");
            self.type_name(fty, &self.names[fname]);
            self.out.push_str(";\n");
        }
        self.out.push_str("};\n\n");
    }

    fn enum_decl(&mut self, ed: &EnumDecl) {
        let tag = &self.names[ed.name];
        if tag.is_empty() {
            self.out.push_str("enum {\n");
        } else {
            let _ = writeln!(self.out, "enum {tag} {{");
        }
        for (i, &(name, ref value)) in ed.variants.iter().enumerate() {
            self.out.push_str("    ");
            self.out.push_str(&self.names[name]);
            if let Some(v) = value {
                self.out.push_str(" = ");
                self.expr(v, 3);
            }
            if i + 1 < ed.variants.len() {
                self.out.push(',');
            }
            self.out.push('\n');
        }
        self.out.push_str("};\n\n");
    }

    fn initializer(&mut self, init: &Initializer) {
        match init {
            Initializer::Expr(e) => self.expr(e, 0),
            Initializer::List(items) => {
                self.out.push_str("{ ");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.initializer(item);
                }
                self.out.push_str(" }");
            }
        }
    }

    fn globals(&mut self, decls: &[VarDecl]) {
        for d in decls {
            self.type_name(&d.ty, &self.names[d.name]);
            if let Some(init) = &d.init {
                self.out.push_str(" = ");
                self.initializer(init);
            }
            self.out.push_str(";\n\n");
        }
    }

    fn function(&mut self, fd: &FunctionDecl) {
        let mut params = String::new();
        for (i, p) in fd.params.iter().enumerate() {
            if i > 0 {
                params.push_str(", ");
            }
            let mut sub = Printer::new(self.names);
            sub.type_name(&p.ty, &self.names[p.name]);
            params.push_str(&sub.out);
        }
        if params.is_empty() {
            params.push_str("void");
        }
        self.type_name(&fd.ret, &format!("{}({params})", &self.names[fd.name]));
        match &fd.body {
            None => self.out.push_str(";\n\n"),
            Some(body) => {
                self.out.push(' ');
                self.stmt(body);
                self.out.push('\n');
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.pad();
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    self.pad();
                    self.type_name(&d.ty, &self.names[d.name]);
                    if let Some(init) = &d.init {
                        self.out.push_str(" = ");
                        self.initializer(init);
                    }
                    self.out.push_str(";\n");
                }
            }
            StmtKind::If(cond, then_s, else_s) => {
                self.pad();
                self.out.push_str("if (");
                self.expr(cond, 0);
                self.out.push_str(")\n");
                // An else-less `if` at the tail of the then-branch
                // would capture our `else` on reparse; brace the
                // then-branch to keep the association.
                if else_s.is_some() && dangles(then_s) {
                    self.pad();
                    self.out.push_str("{\n");
                    self.indent += 1;
                    self.stmt(then_s);
                    self.indent -= 1;
                    self.pad();
                    self.out.push_str("}\n");
                } else {
                    self.nested(then_s);
                }
                if let Some(e) = else_s {
                    self.pad();
                    self.out.push_str("else\n");
                    self.nested(e);
                }
            }
            StmtKind::While(cond, body) => {
                self.pad();
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(")\n");
                self.nested(body);
            }
            StmtKind::DoWhile(body, cond) => {
                self.pad();
                self.out.push_str("do\n");
                self.nested(body);
                self.pad();
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(");\n");
            }
            StmtKind::For(init, cond, step, body) => {
                self.pad();
                self.out.push_str("for (");
                match init {
                    Some(i) => match &i.kind {
                        StmtKind::Expr(e) => {
                            self.expr(e, 0);
                            self.out.push_str("; ");
                        }
                        StmtKind::Decl(decls) => {
                            for (k, d) in decls.iter().enumerate() {
                                if k > 0 {
                                    self.out.push_str(", ");
                                }
                                self.type_name(&d.ty, &self.names[d.name]);
                                if let Some(init) = &d.init {
                                    self.out.push_str(" = ");
                                    self.initializer(init);
                                }
                            }
                            self.out.push_str("; ");
                        }
                        _ => self.out.push_str("; "),
                    },
                    None => self.out.push_str("; "),
                }
                if let Some(c) = cond {
                    self.expr(c, 0);
                }
                self.out.push_str("; ");
                if let Some(st) = step {
                    self.expr(st, 0);
                }
                self.out.push_str(")\n");
                self.nested(body);
            }
            StmtKind::Switch(scrut, sections) => {
                self.pad();
                self.out.push_str("switch (");
                self.expr(scrut, 0);
                self.out.push_str(") {\n");
                for sec in sections {
                    for l in &sec.labels {
                        self.pad();
                        self.out.push_str("case ");
                        self.expr(l, 0);
                        self.out.push_str(":\n");
                    }
                    if sec.is_default {
                        self.pad();
                        self.out.push_str("default:\n");
                    }
                    self.indent += 1;
                    for st in &sec.body {
                        self.stmt(st);
                    }
                    self.indent -= 1;
                }
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::Break => {
                self.pad();
                self.out.push_str("break;\n");
            }
            StmtKind::Continue => {
                self.pad();
                self.out.push_str("continue;\n");
            }
            StmtKind::Return(e) => {
                self.pad();
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e, 0);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Goto(label) => {
                self.pad();
                let _ = writeln!(self.out, "goto {};", &self.names[*label]);
            }
            StmtKind::Label(label, inner) => {
                let _ = writeln!(self.out, "{}:", &self.names[*label]);
                self.stmt(inner);
            }
            StmtKind::Block(stmts) => {
                self.pad();
                self.out.push_str("{\n");
                self.indent += 1;
                for st in stmts {
                    self.stmt(st);
                }
                self.indent -= 1;
                self.pad();
                self.out.push_str("}\n");
            }
            StmtKind::Empty => {
                self.pad();
                self.out.push_str(";\n");
            }
        }
    }

    /// Prints a nested (body) statement, indenting non-blocks.
    fn nested(&mut self, s: &Stmt) {
        if matches!(s.kind, StmtKind::Block(_)) {
            self.stmt(s);
        } else {
            self.indent += 1;
            self.stmt(s);
            self.indent -= 1;
        }
    }

    /// Prints an expression; `prec` is the minimum precedence of the
    /// surrounding context (parenthesize when ours is lower).
    fn expr(&mut self, e: &Expr, prec: u8) {
        let my_prec = expr_precedence(e);
        let need_parens = my_prec < prec;
        if need_parens {
            self.out.push('(');
        }
        match &e.kind {
            ExprKind::IntLit(v) => {
                if *v < 0 {
                    let _ = write!(self.out, "({v})");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::StrLit(s) => {
                self.out.push('"');
                let mut chars = self.names[*s].chars().peekable();
                while let Some(c) = chars.next() {
                    match c {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\r' => self.out.push_str("\\r"),
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        // An octal escape takes up to three digits, so a
                        // NUL before an octal digit must spell all three.
                        '\0' if chars.peek().is_some_and(|d| ('0'..='7').contains(d)) => {
                            self.out.push_str("\\000")
                        }
                        '\0' => self.out.push_str("\\0"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            ExprKind::Ident(name) => self.out.push_str(&self.names[*name]),
            ExprKind::Unary(op, inner) => match op {
                UnOp::PostInc => {
                    self.expr(inner, 15);
                    self.out.push_str("++");
                }
                UnOp::PostDec => {
                    self.expr(inner, 15);
                    self.out.push_str("--");
                }
                _ => {
                    let sym = match op {
                        UnOp::Neg => "-",
                        UnOp::Not => "!",
                        UnOp::BitNot => "~",
                        UnOp::Deref => "*",
                        UnOp::Addr => "&",
                        UnOp::PreInc => "++",
                        UnOp::PreDec => "--",
                        UnOp::PostInc | UnOp::PostDec => unreachable!(),
                    };
                    self.out.push_str(sym);
                    // `-` before `-x`/`--x` would lex back as the
                    // single `--` token (and `&` before `&x` as `&&`),
                    // turning `-(-x)` into a pre-decrement of `-x`;
                    // parenthesize to keep the tokens apart.
                    let glues = matches!(
                        (op, &inner.kind),
                        (UnOp::Neg, ExprKind::Unary(UnOp::Neg | UnOp::PreDec, _))
                            | (UnOp::Addr, ExprKind::Unary(UnOp::Addr, _))
                    );
                    if glues {
                        self.out.push('(');
                        self.expr(inner, 0);
                        self.out.push(')');
                    } else {
                        self.expr(inner, 14);
                    }
                }
            },
            ExprKind::Binary(op, a, b) => {
                let sym = binop_str(*op);
                self.expr(a, my_prec);
                let _ = write!(self.out, " {sym} ");
                self.expr(b, my_prec + 1);
            }
            ExprKind::LogAnd(a, b) => {
                self.expr(a, my_prec);
                self.out.push_str(" && ");
                self.expr(b, my_prec + 1);
            }
            ExprKind::LogOr(a, b) => {
                self.expr(a, my_prec);
                self.out.push_str(" || ");
                self.expr(b, my_prec + 1);
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.expr(lhs, 14);
                let sym = match op {
                    None => "=".to_string(),
                    Some(op) => format!("{}=", binop_str(*op)),
                };
                let _ = write!(self.out, " {sym} ");
                self.expr(rhs, 2);
            }
            ExprKind::Call(callee, args) => {
                self.expr(callee, 15);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a, 3);
                }
                self.out.push(')');
            }
            ExprKind::Index(base, idx) => {
                self.expr(base, 15);
                self.out.push('[');
                self.expr(idx, 0);
                self.out.push(']');
            }
            ExprKind::Member(base, field, arrow) => {
                self.expr(base, 15);
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(&self.names[*field]);
            }
            ExprKind::Cond(c, t, f) => {
                self.expr(c, 4);
                self.out.push_str(" ? ");
                self.expr(t, 3);
                self.out.push_str(" : ");
                self.expr(f, 3);
            }
            ExprKind::Cast(ty, inner) => {
                self.out.push('(');
                self.type_name(ty, "");
                self.out.push_str(") ");
                self.expr(inner, 14);
            }
            ExprKind::SizeofType(ty) => {
                self.out.push_str("sizeof(");
                self.type_name(ty, "");
                self.out.push(')');
            }
            ExprKind::SizeofExpr(inner) => {
                self.out.push_str("sizeof ");
                self.expr(inner, 14);
            }
            ExprKind::Comma(a, b) => {
                self.expr(a, 1);
                self.out.push_str(", ");
                self.expr(b, 2);
            }
        }
        if need_parens {
            self.out.push(')');
        }
    }
}

/// Whether `s` ends (possibly through nested tail statements) in an
/// `if` without an `else` that an outer `else` would bind to.
fn dangles(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::If(_, _, None) => true,
        StmtKind::If(_, _, Some(e)) => dangles(e),
        StmtKind::While(_, body) | StmtKind::For(_, _, _, body) | StmtKind::Label(_, body) => {
            dangles(body)
        }
        _ => false,
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
    }
}

/// C precedence levels, higher binds tighter.
fn expr_precedence(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Comma(_, _) => 1,
        ExprKind::Assign(_, _, _) => 2,
        ExprKind::Cond(_, _, _) => 3,
        ExprKind::LogOr(_, _) => 4,
        ExprKind::LogAnd(_, _) => 5,
        ExprKind::Binary(op, _, _) => match op {
            BinOp::BitOr => 6,
            BinOp::BitXor => 7,
            BinOp::BitAnd => 8,
            BinOp::Eq | BinOp::Ne => 9,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 10,
            BinOp::Shl | BinOp::Shr => 11,
            BinOp::Add | BinOp::Sub => 12,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 13,
        },
        ExprKind::Unary(UnOp::PostInc | UnOp::PostDec, _) => 15,
        ExprKind::Unary(_, _) | ExprKind::Cast(_, _) | ExprKind::SizeofExpr(_) => 14,
        ExprKind::Call(_, _) | ExprKind::Index(_, _) | ExprKind::Member(_, _, _) => 15,
        _ => 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::token::Span;
    use std::sync::Arc;

    fn round_trip(src: &str) -> (String, String) {
        let unit1 = parse(src).expect("first parse");
        let printed1 = print_unit(&unit1);
        let unit2 = parse(&printed1)
            .unwrap_or_else(|e| panic!("reparse failed: {}\n---\n{printed1}", e.render(&printed1)));
        let printed2 = print_unit(&unit2);
        (printed1, printed2)
    }

    #[test]
    fn print_parse_is_idempotent_on_basics() {
        let (a, b) = round_trip(
            r#"
            struct point { int x; int y; };
            int counts[10] = {1, 2, 3};
            char *msg = "hi\n";
            int add(int a, int b) { return a + b; }
            int main(void) {
                int i, total = 0;
                for (i = 0; i < 10; i++) {
                    if (i % 2 == 0) total += add(i, counts[i % 3]);
                    else total--;
                }
                while (total > 100) total /= 2;
                return total;
            }
            "#,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn precedence_is_preserved() {
        // (1 + 2) * 3 must not print as 1 + 2 * 3.
        let src = "int x = (1 + 2) * 3; int y = 1 + 2 * 3;";
        let unit = parse(src).unwrap();
        let printed = print_unit(&unit);
        assert!(printed.contains("(1 + 2) * 3"), "{printed}");
        assert!(printed.contains("1 + 2 * 3"), "{printed}");
        let (a, b) = round_trip(src);
        assert_eq!(a, b);
    }

    #[test]
    fn function_pointers_round_trip() {
        let (a, b) = round_trip(
            r#"
            int pick(int x) { return x; }
            int (*handler)(int) = pick;
            int (*table[4])(int);
            int use(int (*f)(int)) { return f(3); }
            "#,
        );
        assert_eq!(a, b);
        assert!(a.contains("(*handler)(int)"), "{a}");
    }

    #[test]
    fn control_flow_round_trips() {
        let (a, b) = round_trip(
            r#"
            int f(int n) {
                int s = 0;
                switch (n) {
                    case 1: s = 1; break;
                    case 2:
                    case 3: s = 2; /* merged */ break;
                    default: s = -1;
                }
                do { s++; } while (s < 3);
                if (n) goto out;
                s = n ? s + 1 : s - 1;
            out:
                return s;
            }
            "#,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn nested_negation_does_not_glue_into_decrement() {
        // `-(-x)` must not print as `--x` (found by fuzzgen seed 27).
        let (a, b) = round_trip("int f(int x) { return -(-x); }");
        assert_eq!(a, b);
        assert!(a.contains("-(-x)"), "{a}");
        let m = crate::compile(&a).expect("reprinted form still compiles");
        assert_eq!(m.functions.len(), 1);
    }

    #[test]
    fn negated_predecrement_does_not_glue() {
        // `-(--x)` must not print as `---x`, which re-lexes as
        // `--(-x)` — a pre-decrement of a non-lvalue.
        let (a, b) = round_trip("int f(int x) { return -(--x); }");
        assert_eq!(a, b);
        assert!(a.contains("-(--x)"), "{a}");
        crate::compile(&a).expect("reprinted form still compiles");
    }

    #[test]
    fn address_of_address_does_not_glue_into_logical_and() {
        // Parse-level only (sema rejects `&&x` anyway): the printed
        // form must keep the two `&` tokens apart.
        let (a, b) = round_trip("int f(int x) { return &(&x); }");
        assert_eq!(a, b);
        assert!(a.contains("&(&x)"), "{a}");
    }

    #[test]
    fn dangling_else_keeps_association() {
        // A constructed AST where the outer `if` owns the `else` and
        // the then-branch is an else-less `if`: printing without
        // braces would rebind the `else` to the inner `if` on reparse.
        let mut names = Interner::new();
        let (a, b) = (names.intern("a"), names.intern("b"));
        let mut g = NodeIdGen::new();
        let mut e = |kind: ExprKind| {
            Arc::new(Expr {
                id: g.fresh(),
                span: Span::default(),
                kind,
            })
        };
        let ret = |p: &mut dyn FnMut(ExprKind) -> Arc<Expr>, v: i64| Stmt {
            id: NodeId(900 + v as u32),
            span: Span::default(),
            kind: StmtKind::Return(Some(p(ExprKind::IntLit(v)))),
        };
        let inner_if = Stmt {
            id: NodeId(800),
            span: Span::default(),
            kind: StmtKind::If(e(ExprKind::Ident(b)), Box::new(ret(&mut e, 1)), None),
        };
        let outer_if = Stmt {
            id: NodeId(801),
            span: Span::default(),
            kind: StmtKind::If(
                e(ExprKind::Ident(a)),
                Box::new(inner_if),
                Some(Box::new(ret(&mut e, 2))),
            ),
        };
        let printed = print_stmt(&outer_if, 0, &names);
        // Reparse inside a function and verify the else still belongs
        // to the outer if.
        let src = format!("int f(int a, int b) {{\n{printed}return 0;\n}}");
        let unit = parse(&src).expect("printed dangling-else candidate parses");
        let reprinted = print_unit(&unit);
        let occurrences = reprinted.matches("else").count();
        assert_eq!(occurrences, 1, "{reprinted}");
        // The outer if must keep its else: behaviorally, a=0 must hit
        // `return 2`, not fall through to `return 0`.
        let module = crate::compile(&src).expect("dangling-else source compiles");
        assert_eq!(module.functions.len(), 1);
        let unit2 = parse(&reprinted).expect("reprint parses");
        assert_eq!(reprinted, print_unit(&unit2));
        assert!(
            reprinted.contains('{'),
            "then-branch must be braced: {reprinted}"
        );
    }

    #[test]
    fn for_init_declaration_with_list_initializer_round_trips() {
        let src = "int f(void) { int s = 0; for (int a[2] = { 1, 2 }; a[0] < 9; a[0]++) s += a[1]; return s; }";
        if parse(src).is_err() {
            // The grammar may not allow declarations in for-inits at
            // all; nothing to print then.
            return;
        }
        let (a, b) = round_trip(src);
        assert_eq!(a, b);
        assert!(a.contains("{ 1, 2 }"), "list initializer dropped: {a}");
    }

    #[test]
    fn escapes_round_trip_exactly() {
        // `\012` is a newline and `\x41` is `A`. A NUL before an octal
        // digit prints as `\000`, or it would read back as one longer
        // octal escape; elsewhere it prints as `\0`.
        let (a, b) = round_trip(r#"char *s = "a\012b\0007\x41\0|";"#);
        assert_eq!(a, b);
        assert!(a.contains(r#""a\nb\0007A\0|""#), "{a}");
    }

    #[test]
    fn whole_suite_round_trips() {
        for bench in suite_sources() {
            let unit1 = parse(bench).expect("suite parses");
            let printed1 = print_unit(&unit1);
            let unit2 = parse(&printed1)
                .unwrap_or_else(|e| panic!("suite reparse failed: {}", e.render(&printed1)));
            let printed2 = print_unit(&unit2);
            assert_eq!(printed1, printed2);
        }
    }

    // A couple of representative suite-style sources embedded here to
    // avoid a circular dev-dependency on the suite crate.
    fn suite_sources() -> Vec<&'static str> {
        vec![
            r#"
            #define N 16
            int tab[N];
            int hash(int x) { return ((x << 3) ^ (x >> 2)) & (N - 1); }
            int main(void) {
                int i;
                for (i = 0; i < 100; i++) tab[hash(i)]++;
                return tab[0];
            }
            "#,
            r#"
            struct node { int v; struct node *next; };
            struct node *head;
            void push(int v) {
                struct node *n = (struct node *) malloc(sizeof(struct node));
                n->v = v;
                n->next = head;
                head = n;
            }
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 5; i++) push(i * i);
                while (head) { s += head->v; head = head->next; }
                return s;
            }
            "#,
        ]
    }
}
