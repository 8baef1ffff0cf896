//! Pretty-printer: renders the (possibly annotated) AST back to C source.
//!
//! `KEEP_LIVE` and `GC_same_obj` annotation nodes render as the calls the
//! paper's preprocessor emits, so the output of the annotator is itself
//! valid input for an ordinary C compiler given the runtime declarations.

use crate::ast::*;
use crate::types::{Type, TypeTable};
use std::fmt::Write;

/// Renders a whole program.
pub fn program_to_c(prog: &Program) -> String {
    let mut p = Printer {
        types: &prog.types,
        out: String::new(),
        indent: 0,
    };
    for (name, value) in &prog.enum_consts {
        let _ = writeln!(p.out, "enum {{ {name} = {value} }};");
    }
    // Emit record definitions: forward tags first (so self/mutual pointers
    // resolve), then bodies.
    for i in 0..prog.types.len() {
        let rec = prog.types.record(crate::types::RecordId(i as u32));
        if let Some(tag) = &rec.tag {
            let kw = if rec.is_union { "union" } else { "struct" };
            let _ = writeln!(p.out, "{kw} {tag};");
        }
    }
    for i in 0..prog.types.len() {
        let rec = prog.types.record(crate::types::RecordId(i as u32));
        if !rec.complete {
            continue;
        }
        let Some(tag) = &rec.tag else { continue };
        let kw = if rec.is_union { "union" } else { "struct" };
        let _ = writeln!(p.out, "{kw} {tag} {{");
        for f in &rec.fields {
            let _ = writeln!(p.out, "    {};", render_decl(&f.ty, &f.name, &prog.types));
        }
        p.out.push_str("};\n");
    }
    for g in &prog.globals {
        p.global(g);
    }
    for f in &prog.funcs {
        p.func(f);
    }
    p.out
}

/// Renders a single expression.
pub fn expr_to_c(e: &Expr, types: &TypeTable) -> String {
    let mut p = Printer {
        types,
        out: String::new(),
        indent: 0,
    };
    p.expr(e, 0);
    p.out
}

struct Printer<'a> {
    types: &'a TypeTable,
    out: String,
    indent: usize,
}

impl Printer<'_> {
    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    /// Renders `ty declarator-name`, C-style (arrays/functions on the right).
    fn decl(&mut self, ty: &Type, name: &str) {
        let rendered = render_decl(ty, name, self.types);
        self.out.push_str(&rendered);
    }

    /// Prints declarators that share one base-type spelling as a single
    /// declaration: `base d1 = e1, d2, …` (no trailing `;`).
    fn decl_run(&mut self, decls: &[LocalDecl]) {
        for (i, d) in decls.iter().enumerate() {
            let (base, declarator) = render_decl_parts(&d.ty, &d.name, self.types);
            if i == 0 {
                self.out.push_str(&base);
                self.out.push(' ');
            } else {
                self.out.push_str(", ");
            }
            self.out.push_str(&declarator);
            if let Some(init) = &d.init {
                self.out.push_str(" = ");
                self.expr(init, 2);
            }
        }
    }

    fn global(&mut self, g: &GlobalDecl) {
        self.decl(&g.ty, &g.name);
        if let Some(init) = &g.init {
            self.out.push_str(" = ");
            self.init(init);
        }
        self.out.push_str(";\n");
    }

    fn init(&mut self, init: &Init) {
        match init {
            Init::Scalar(e) => self.expr(e, 2),
            Init::List(items) => {
                self.out.push('{');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.init(it);
                }
                self.out.push('}');
            }
        }
    }

    fn func(&mut self, f: &FuncDef) {
        let ret = render_decl(&f.ret, "", self.types);
        let _ = write!(self.out, "{} {}(", ret.trim_end(), f.name);
        if f.params.is_empty() && !f.varargs {
            self.out.push_str("void");
        }
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let name = if p.name.is_empty() {
                String::new()
            } else {
                p.name.clone()
            };
            let rendered = render_decl(&p.ty, &name, self.types);
            self.out.push_str(rendered.trim_end());
        }
        if f.varargs {
            self.out.push_str(", ...");
        }
        self.out.push(')');
        match &f.body {
            Some(b) => {
                self.out.push(' ');
                self.block(b);
                self.out.push('\n');
            }
            None => self.out.push_str(";\n"),
        }
    }

    fn block(&mut self, b: &Block) {
        self.out.push_str("{\n");
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.pad();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.pad();
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Decl(decls) => {
                // One parsed declaration statement keeps its declarators in
                // one `Stmt::Decl`; print them back as one statement
                // (`long i = 0, *p;`) so the round-trip preserves the
                // grouping. Runs of differing base spellings (only possible
                // in hand-built trees) fall into separate statements.
                let mut i = 0;
                while i < decls.len() {
                    let (base, _) = render_decl_parts(&decls[i].ty, &decls[i].name, self.types);
                    let run = decls[i..]
                        .iter()
                        .take_while(|d| render_decl_parts(&d.ty, &d.name, self.types).0 == base)
                        .count();
                    self.pad();
                    self.decl_run(&decls[i..i + run]);
                    self.out.push_str(";\n");
                    i += run;
                }
            }
            Stmt::Block(b) => {
                self.pad();
                self.block(b);
                self.out.push('\n');
            }
            Stmt::If(c, t, e) => {
                self.pad();
                self.out.push_str("if (");
                self.expr(c, 0);
                if e.is_some() && swallows_else(t) {
                    // Dangling else: an unbraced then-branch ending in an
                    // else-less `if` would capture our `else` on reparse.
                    self.out.push_str(") {\n");
                    self.indent += 1;
                    self.stmt(t);
                    self.indent -= 1;
                    self.pad();
                    self.out.push_str("}\n");
                } else {
                    self.out.push_str(")\n");
                    self.indented(t);
                }
                if let Some(e) = e {
                    self.pad();
                    self.out.push_str("else\n");
                    self.indented(e);
                }
            }
            Stmt::While(c, b) => {
                self.pad();
                self.out.push_str("while (");
                self.expr(c, 0);
                self.out.push_str(")\n");
                self.indented(b);
            }
            Stmt::DoWhile(b, c) => {
                self.pad();
                self.out.push_str("do\n");
                self.indented(b);
                self.pad();
                self.out.push_str("while (");
                self.expr(c, 0);
                self.out.push_str(");\n");
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.pad();
                self.out.push_str("for (");
                match init.as_deref() {
                    Some(Stmt::Expr(e)) => {
                        self.expr(e, 0);
                        self.out.push_str("; ");
                    }
                    Some(Stmt::Decl(decls)) => {
                        // A for-init is a single declaration: the base type
                        // is spelled once, declarators follow comma-separated.
                        self.decl_run(decls);
                        self.out.push_str("; ");
                    }
                    _ => self.out.push_str("; "),
                }
                if let Some(c) = cond {
                    self.expr(c, 0);
                }
                self.out.push_str("; ");
                if let Some(st) = step {
                    self.expr(st, 0);
                }
                self.out.push_str(")\n");
                self.indented(body);
            }
            Stmt::Switch(c, b) => {
                self.pad();
                self.out.push_str("switch (");
                self.expr(c, 0);
                self.out.push_str(")\n");
                self.indented(b);
            }
            Stmt::Case(v) => {
                self.pad();
                let _ = writeln!(self.out, "case {v}:");
            }
            Stmt::Default => {
                self.pad();
                self.out.push_str("default:\n");
            }
            Stmt::Break => {
                self.pad();
                self.out.push_str("break;\n");
            }
            Stmt::Continue => {
                self.pad();
                self.out.push_str("continue;\n");
            }
            Stmt::Return(None) => {
                self.pad();
                self.out.push_str("return;\n");
            }
            Stmt::Return(Some(e)) => {
                self.pad();
                self.out.push_str("return ");
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Empty => {
                self.pad();
                self.out.push_str(";\n");
            }
        }
    }

    fn indented(&mut self, s: &Stmt) {
        if matches!(s, Stmt::Block(_)) {
            self.stmt(s);
        } else {
            self.indent += 1;
            self.stmt(s);
            self.indent -= 1;
        }
    }

    /// Prints `e` parenthesised if its precedence is below `min_prec`.
    /// Precedence scale: 0 comma, 1 assignment, 2 conditional, 3.. binary,
    /// 14 unary, 15 postfix/primary.
    fn expr(&mut self, e: &Expr, min_prec: u8) {
        let prec = expr_prec(e);
        if prec < min_prec {
            self.out.push('(');
        }
        match &e.kind {
            ExprKind::IntLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::StrLit(s) => {
                self.out.push('"');
                for ch in s.chars() {
                    match ch {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\r' => self.out.push_str("\\r"),
                        '"' => self.out.push_str("\\\""),
                        '\\' => self.out.push_str("\\\\"),
                        '\0' => self.out.push_str("\\0"),
                        // The lexer's remaining named escapes: without
                        // these, \a \b \f \v round-tripped as raw control
                        // bytes.
                        '\x07' => self.out.push_str("\\a"),
                        '\x08' => self.out.push_str("\\b"),
                        '\x0C' => self.out.push_str("\\f"),
                        '\x0B' => self.out.push_str("\\v"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            ExprKind::Ident(name) => self.out.push_str(name),
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.as_str());
                // Guard token gluing: `- -x` / `+ +x` (sign pairs), `- --x`
                // / `+ ++x` (prefix steps), and `- -5` (a directly-built
                // negative literal) would otherwise lex as `--` / `++`.
                let glues = match op {
                    UnOp::Neg => match &inner.kind {
                        ExprKind::Unary(UnOp::Neg | UnOp::Plus, _) => true,
                        ExprKind::IncDec {
                            pre: true,
                            inc: false,
                            ..
                        } => true,
                        ExprKind::IntLit(v) => *v < 0,
                        _ => false,
                    },
                    UnOp::Plus => matches!(
                        inner.kind,
                        ExprKind::Unary(UnOp::Neg | UnOp::Plus, _)
                            | ExprKind::IncDec {
                                pre: true,
                                inc: true,
                                ..
                            }
                    ),
                    _ => false,
                };
                if glues {
                    self.out.push(' ');
                }
                self.expr(inner, 14);
            }
            ExprKind::Deref(inner) => {
                self.out.push('*');
                self.expr(inner, 14);
            }
            ExprKind::AddrOf(inner) => {
                self.out.push('&');
                // `&&` would lex as logical-and.
                if matches!(inner.kind, ExprKind::AddrOf(_)) {
                    self.out.push(' ');
                }
                self.expr(inner, 14);
            }
            ExprKind::Binary(op, l, r) => {
                let p = bin_prec(*op);
                self.expr(l, p);
                let _ = write!(self.out, " {} ", op.as_str());
                self.expr(r, p + 1);
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(lhs, 14);
                match op {
                    Some(op) => {
                        let _ = write!(self.out, " {}= ", op.as_str());
                    }
                    None => self.out.push_str(" = "),
                }
                self.expr(rhs, 1);
            }
            ExprKind::IncDec { inc, pre, target } => {
                let tok = if *inc { "++" } else { "--" };
                if *pre {
                    self.out.push_str(tok);
                    self.expr(target, 14);
                } else {
                    self.expr(target, 15);
                    self.out.push_str(tok);
                }
            }
            ExprKind::Cond(c, t, f) => {
                self.expr(c, 3);
                self.out.push_str(" ? ");
                self.expr(t, 0);
                self.out.push_str(" : ");
                self.expr(f, 2);
            }
            ExprKind::Comma(l, r) => {
                self.expr(l, 0);
                self.out.push_str(", ");
                self.expr(r, 1);
            }
            ExprKind::Call(callee, args) => {
                self.expr(callee, 15);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a, 1);
                }
                self.out.push(')');
            }
            ExprKind::Index(a, i) => {
                self.expr(a, 15);
                self.out.push('[');
                self.expr(i, 0);
                self.out.push(']');
            }
            ExprKind::Member { obj, field, arrow } => {
                // `587.x` would lex as a floating-point literal: a dot
                // directly after an integer literal needs parentheses.
                let min = if !arrow && matches!(obj.kind, ExprKind::IntLit(_)) {
                    16
                } else {
                    15
                };
                self.expr(obj, min);
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(field);
            }
            ExprKind::Cast(ty, inner) => {
                let _ = write!(self.out, "({})", render_decl(ty, "", self.types).trim_end());
                self.expr(inner, 14);
            }
            ExprKind::SizeofType(ty) => {
                let _ = write!(
                    self.out,
                    "sizeof({})",
                    render_decl(ty, "", self.types).trim_end()
                );
            }
            ExprKind::SizeofExpr(inner) => {
                self.out.push_str("sizeof ");
                // `sizeof (int)x` lexes as sizeof(type) followed by a stray
                // token; a cast operand needs explicit parentheses.
                let min = if matches!(inner.kind, ExprKind::Cast(..)) {
                    15
                } else {
                    14
                };
                self.expr(inner, min);
            }
            ExprKind::KeepLive { value, base } => {
                self.out.push_str("KEEP_LIVE(");
                self.expr(value, 1);
                self.out.push_str(", ");
                match base {
                    Some(b) => self.expr(b, 1),
                    None => self.out.push('0'),
                }
                self.out.push(')');
            }
            ExprKind::CheckSame { value, base } => {
                self.out.push_str("GC_same_obj(");
                self.expr(value, 1);
                self.out.push_str(", ");
                self.expr(base, 1);
                self.out.push(')');
            }
        }
        if prec < min_prec {
            self.out.push(')');
        }
    }
}

/// Whether `s`, printed unbraced directly before an `else`, would end in
/// an else-less `if` that captures it (the dangling-else ambiguity).
fn swallows_else(s: &Stmt) -> bool {
    match s {
        Stmt::If(_, _, None) => true,
        Stmt::If(_, _, Some(e)) => swallows_else(e),
        Stmt::While(_, b) | Stmt::Switch(_, b) => swallows_else(b),
        Stmt::For { body, .. } => swallows_else(body),
        _ => false,
    }
}

fn expr_prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Comma(..) => 0,
        ExprKind::Assign { .. } => 1,
        ExprKind::Cond(..) => 2,
        ExprKind::Binary(op, ..) => bin_prec(*op),
        ExprKind::Unary(..)
        | ExprKind::Deref(..)
        | ExprKind::AddrOf(..)
        | ExprKind::Cast(..)
        | ExprKind::SizeofExpr(..)
        // `sizeof(type)` is a unary expression: a postfix operator glued
        // onto it (`sizeof(int).x`) re-lexes as sizeof-of-type followed by
        // a stray token, so it must parenthesize in postfix contexts.
        | ExprKind::SizeofType(..)
        | ExprKind::IncDec { pre: true, .. } => 14,
        _ => 15,
    }
}

fn bin_prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        LogOr => 4,
        LogAnd => 5,
        BitOr => 6,
        BitXor => 7,
        BitAnd => 8,
        Eq | Ne => 9,
        Lt | Gt | Le | Ge => 10,
        Shl | Shr => 11,
        Add | Sub => 12,
        Mul | Div | Rem => 13,
    }
}

/// Renders a C declaration of `name` with type `ty` (no trailing `;`).
pub fn render_decl(ty: &Type, name: &str, types: &TypeTable) -> String {
    let (base, decl) = render_decl_parts(ty, name, types);
    if decl.is_empty() {
        base
    } else {
        format!("{base} {decl}")
    }
}

/// Splits a declaration into its base-type spelling and the declarator
/// (`long *v[4]` → `("long", "*v[4]")`), so several declarators sharing one
/// base can be printed as a single comma-separated declaration.
pub fn render_decl_parts(ty: &Type, name: &str, types: &TypeTable) -> (String, String) {
    // Classic inside-out rendering.
    fn inner(ty: &Type, acc: String, types: &TypeTable) -> (String, String) {
        match ty {
            Type::Ptr(p) => {
                let needs_paren = matches!(p.as_ref(), Type::Array(..) | Type::Func(_));
                let acc = if needs_paren {
                    format!("(*{acc})")
                } else {
                    format!("*{acc}")
                };
                inner(p, acc, types)
            }
            Type::Array(elem, n) => {
                let dim = match n {
                    Some(n) => format!("[{n}]"),
                    None => "[]".to_string(),
                };
                inner(elem, format!("{acc}{dim}"), types)
            }
            Type::Func(ft) => {
                let mut params = String::new();
                if ft.params.is_empty() && !ft.varargs {
                    params.push_str("void");
                }
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        params.push_str(", ");
                    }
                    params.push_str(render_decl(p, "", types).trim_end());
                }
                if ft.varargs {
                    if !ft.params.is_empty() {
                        params.push_str(", ");
                    }
                    params.push_str("...");
                }
                inner(&ft.ret, format!("{acc}({params})"), types)
            }
            base => (base.display(types).to_string(), acc),
        }
    }
    inner(ty, name.to_string(), types)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    fn roundtrip_expr(src: &str) -> String {
        let e = parse_expr(src).unwrap();
        expr_to_c(&e, &TypeTable::new())
    }

    #[test]
    fn renders_precedence_correctly() {
        assert_eq!(roundtrip_expr("(a + b) * c"), "(a + b) * c");
        assert_eq!(roundtrip_expr("a + b * c"), "a + b * c");
        assert_eq!(roundtrip_expr("*p++"), "*p++");
        assert_eq!(roundtrip_expr("(*p).f"), "(*p).f");
    }

    #[test]
    fn renders_decl_shapes() {
        let t = TypeTable::new();
        assert_eq!(render_decl(&Type::Int, "x", &t), "int x");
        assert_eq!(render_decl(&Type::Char.ptr_to(), "p", &t), "char *p");
        assert_eq!(
            render_decl(&Type::Array(Box::new(Type::Int.ptr_to()), Some(4)), "v", &t),
            "int *v[4]"
        );
        let fp = Type::Func(Box::new(crate::types::FuncType {
            ret: Type::Int,
            params: vec![Type::Char.ptr_to()],
            varargs: false,
        }))
        .ptr_to();
        assert_eq!(render_decl(&fp, "handler", &t), "int (*handler)(char *)");
    }

    #[test]
    fn program_roundtrips_through_parser() {
        let src = "struct node { int v; struct node *next; };\n\
                   int sum(struct node *n) { int s = 0; while (n) { s += n->v; n = n->next; } return s; }";
        let prog = parse(src).unwrap();
        let printed = program_to_c(&prog);
        // The printed output must itself parse.
        let reparsed = parse(&printed);
        assert!(reparsed.is_ok(), "reparse failed for:\n{printed}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        assert_eq!(roundtrip_expr("\"a\\nb\\\"c\""), "\"a\\nb\\\"c\"");
    }
}
