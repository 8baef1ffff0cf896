//! Structural (content) hashing over normalized ASTs.
//!
//! The compilation cache keys every pipeline stage on the *structure* of
//! its input program, so two sources that differ only in whitespace,
//! comments, or other formatting share one key. The hash walks exactly
//! the shape that [`crate::normalize`] canonicalizes: node ids, spans,
//! and sema-filled types are excluded; everything semantic — literals,
//! identifier names, operator choice, declaration order, record layout —
//! is included. `hash(p) == hash(normalize_program(p))` by construction
//! (pinned by a test below), without paying for the clone `normalize`
//! performs.
//!
//! The hash is a deterministic 64-bit FNV-1a over a tagged pre-order
//! serialization: every enum variant contributes a distinct tag byte and
//! every list its length, so `{1; 2;}` and `{12;}` cannot collide by
//! concatenation. 64 bits is plenty for an in-process memoization table
//! (the fuzz suite property-tests the corpus for collisions); the cache
//! additionally stores whole artifacts, never just hashes, so an
//! astronomically unlikely collision would at worst share an artifact
//! between programs the equality-checked key deemed identical.

use crate::ast::{Block, Expr, ExprKind, FuncDef, GlobalDecl, Init, Param, Program, Stmt};
use crate::types::{Type, TypeTable};
use std::hash::Hash;

/// Hashes a whole program structurally (spans/ids/types excluded): types,
/// globals, enum constants, and every function, in declaration order.
/// Function bodies are compiled against the program's record layouts and
/// globals, so only the whole program is a sound memoization key.
pub fn program_hash(p: &Program) -> u64 {
    let mut w = StructHasher::new();
    w.tag(b'P');
    hash_type_table(&mut w, &p.types);
    w.len(p.enum_consts.len());
    for (name, v) in &p.enum_consts {
        w.str(name);
        w.i64(*v);
    }
    w.len(p.globals.len());
    for g in &p.globals {
        hash_global(&mut w, g);
    }
    w.len(p.funcs.len());
    for f in &p.funcs {
        w.u64(hash_function(f));
    }
    w.finish()
}

/// Hashes one function definition or prototype structurally.
fn hash_function(f: &FuncDef) -> u64 {
    let mut w = StructHasher::new();
    w.tag(b'F');
    w.str(&f.name);
    w.ty(&f.ret);
    w.len(f.params.len());
    for p in &f.params {
        hash_param(&mut w, p);
    }
    w.bool(f.varargs);
    match &f.body {
        Some(b) => {
            w.tag(1);
            hash_block(&mut w, b);
        }
        None => w.tag(0),
    }
    w.finish()
}

struct StructHasher {
    h: fnv::Fnv1a,
}

// A tiny inlined FNV-1a: cfront is the bottom of the crate graph and
// should not grow edges for 10 lines of arithmetic.
mod fnv {
    pub struct Fnv1a(pub u64);
    impl Fnv1a {
        pub fn new() -> Self {
            Fnv1a(0xcbf2_9ce4_8422_2325)
        }
        pub fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    impl std::hash::Hasher for Fnv1a {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            Fnv1a::write(self, bytes);
        }
    }
}

impl StructHasher {
    fn new() -> Self {
        StructHasher {
            h: fnv::Fnv1a::new(),
        }
    }

    fn tag(&mut self, t: u8) {
        self.h.write(&[t]);
    }

    fn u64(&mut self, v: u64) {
        self.h.write(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.h.write(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn bool(&mut self, b: bool) {
        self.tag(u8::from(b));
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.h.write(s.as_bytes());
    }

    fn ty(&mut self, t: &Type) {
        // `Type` derives `Hash` (ids and spans never appear inside it),
        // so the derived walk is exactly the structural one.
        t.hash(&mut self.h);
    }

    fn finish(&self) -> u64 {
        use std::hash::Hasher as _;
        self.h.finish()
    }
}

fn hash_type_table(w: &mut StructHasher, t: &TypeTable) {
    w.len(t.len());
    for i in 0..t.len() {
        let r = t.record(crate::types::RecordId(i as u32));
        match &r.tag {
            Some(tag) => {
                w.tag(1);
                w.str(tag);
            }
            None => w.tag(0),
        }
        w.bool(r.is_union);
        w.bool(r.complete);
        w.u64(r.size);
        w.u64(r.align);
        w.len(r.fields.len());
        for f in &r.fields {
            w.str(&f.name);
            w.ty(&f.ty);
            w.u64(f.offset);
        }
    }
}

fn hash_param(w: &mut StructHasher, p: &Param) {
    w.str(&p.name);
    w.ty(&p.ty);
}

fn hash_global(w: &mut StructHasher, g: &GlobalDecl) {
    w.tag(b'G');
    w.str(&g.name);
    w.ty(&g.ty);
    match &g.init {
        Some(i) => {
            w.tag(1);
            hash_init(w, i);
        }
        None => w.tag(0),
    }
}

fn hash_init(w: &mut StructHasher, i: &Init) {
    match i {
        Init::Scalar(e) => {
            w.tag(1);
            hash_expr(w, e);
        }
        Init::List(items) => {
            w.tag(2);
            w.len(items.len());
            for it in items {
                hash_init(w, it);
            }
        }
    }
}

fn hash_block(w: &mut StructHasher, b: &Block) {
    w.len(b.stmts.len());
    for s in &b.stmts {
        hash_stmt(w, s);
    }
}

fn hash_stmt(w: &mut StructHasher, s: &Stmt) {
    match s {
        Stmt::Expr(e) => {
            w.tag(1);
            hash_expr(w, e);
        }
        Stmt::Decl(decls) => {
            w.tag(2);
            w.len(decls.len());
            for d in decls {
                w.str(&d.name);
                w.ty(&d.ty);
                match &d.init {
                    Some(e) => {
                        w.tag(1);
                        hash_expr(w, e);
                    }
                    None => w.tag(0),
                }
            }
        }
        Stmt::Block(b) => {
            w.tag(3);
            hash_block(w, b);
        }
        Stmt::If(c, t, e) => {
            w.tag(4);
            hash_expr(w, c);
            hash_stmt(w, t);
            match e {
                Some(e) => {
                    w.tag(1);
                    hash_stmt(w, e);
                }
                None => w.tag(0),
            }
        }
        Stmt::While(c, b) => {
            w.tag(5);
            hash_expr(w, c);
            hash_stmt(w, b);
        }
        Stmt::DoWhile(b, c) => {
            w.tag(6);
            hash_stmt(w, b);
            hash_expr(w, c);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            w.tag(7);
            match init {
                Some(i) => {
                    w.tag(1);
                    hash_stmt(w, i);
                }
                None => w.tag(0),
            }
            match cond {
                Some(c) => {
                    w.tag(1);
                    hash_expr(w, c);
                }
                None => w.tag(0),
            }
            match step {
                Some(s) => {
                    w.tag(1);
                    hash_expr(w, s);
                }
                None => w.tag(0),
            }
            hash_stmt(w, body);
        }
        Stmt::Switch(c, b) => {
            w.tag(8);
            hash_expr(w, c);
            hash_stmt(w, b);
        }
        Stmt::Case(v) => {
            w.tag(9);
            w.i64(*v);
        }
        Stmt::Default => w.tag(10),
        Stmt::Break => w.tag(11),
        Stmt::Continue => w.tag(12),
        Stmt::Return(e) => {
            w.tag(13);
            match e {
                Some(e) => {
                    w.tag(1);
                    hash_expr(w, e);
                }
                None => w.tag(0),
            }
        }
        Stmt::Empty => w.tag(14),
    }
}

fn hash_expr(w: &mut StructHasher, e: &Expr) {
    // id, span, and ty are deliberately not written: the hash must agree
    // for any two programs `normalize_program` maps to the same tree.
    match &e.kind {
        ExprKind::IntLit(v) => {
            w.tag(1);
            w.i64(*v);
        }
        ExprKind::StrLit(s) => {
            w.tag(2);
            w.str(s);
        }
        ExprKind::Ident(name) => {
            w.tag(3);
            w.str(name);
        }
        ExprKind::Unary(op, x) => {
            w.tag(4);
            op.hash(&mut w.h);
            hash_expr(w, x);
        }
        ExprKind::Deref(x) => {
            w.tag(5);
            hash_expr(w, x);
        }
        ExprKind::AddrOf(x) => {
            w.tag(6);
            hash_expr(w, x);
        }
        ExprKind::Binary(op, l, r) => {
            w.tag(7);
            op.hash(&mut w.h);
            hash_expr(w, l);
            hash_expr(w, r);
        }
        ExprKind::Assign { op, lhs, rhs } => {
            w.tag(8);
            match op {
                Some(op) => {
                    w.tag(1);
                    op.hash(&mut w.h);
                }
                None => w.tag(0),
            }
            hash_expr(w, lhs);
            hash_expr(w, rhs);
        }
        ExprKind::IncDec { inc, pre, target } => {
            w.tag(9);
            w.bool(*inc);
            w.bool(*pre);
            hash_expr(w, target);
        }
        ExprKind::Cond(c, t, f) => {
            w.tag(10);
            hash_expr(w, c);
            hash_expr(w, t);
            hash_expr(w, f);
        }
        ExprKind::Comma(l, r) => {
            w.tag(11);
            hash_expr(w, l);
            hash_expr(w, r);
        }
        ExprKind::Call(callee, args) => {
            w.tag(12);
            hash_expr(w, callee);
            w.len(args.len());
            for a in args {
                hash_expr(w, a);
            }
        }
        ExprKind::Index(a, i) => {
            w.tag(13);
            hash_expr(w, a);
            hash_expr(w, i);
        }
        ExprKind::Member { obj, field, arrow } => {
            w.tag(14);
            hash_expr(w, obj);
            w.str(field);
            w.bool(*arrow);
        }
        ExprKind::Cast(ty, x) => {
            w.tag(15);
            w.ty(ty);
            hash_expr(w, x);
        }
        ExprKind::SizeofType(ty) => {
            w.tag(16);
            w.ty(ty);
        }
        ExprKind::SizeofExpr(x) => {
            w.tag(17);
            hash_expr(w, x);
        }
        ExprKind::KeepLive { value, base } => {
            w.tag(18);
            hash_expr(w, value);
            match base {
                Some(b) => {
                    w.tag(1);
                    hash_expr(w, b);
                }
                None => w.tag(0),
            }
        }
        ExprKind::CheckSame { value, base } => {
            w.tag(19);
            hash_expr(w, value);
            hash_expr(w, base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_program;
    use crate::parse;

    const SRC: &str = r#"
        struct node { long v; struct node *next; };
        int COUNT = 3;
        int sum(struct node *n) {
            int s = 0;
            while (n) { s += (int) n->v; n = n->next; }
            return s;
        }
        int main(void) {
            struct node *head = 0;
            long i;
            for (i = 0; i < COUNT; i++) {
                struct node *c = (struct node *) malloc(sizeof(struct node));
                c->v = i; c->next = head; head = c;
            }
            return sum(head);
        }
    "#;

    #[test]
    fn whitespace_and_comments_do_not_change_the_hash() {
        let a = parse(SRC).unwrap();
        let squeezed: String = SRC
            .lines()
            .map(str::trim)
            .collect::<Vec<_>>()
            .join("\n/* reformatted */\n");
        let b = parse(&squeezed).unwrap();
        assert_eq!(program_hash(&a), program_hash(&b));
    }

    #[test]
    fn hash_agrees_with_the_normalized_tree() {
        let mut p = parse(SRC).unwrap();
        let h_parsed = program_hash(&p);
        let normalized = normalize_program(&p);
        assert_eq!(h_parsed, program_hash(&normalized));
        // Sema fills `ty` in place; the hash must not see it.
        crate::analyze(&mut p).unwrap();
        assert_eq!(h_parsed, program_hash(&p));
    }

    #[test]
    fn semantic_edits_change_the_hash() {
        let a = parse(SRC).unwrap();
        for (what, edited) in [
            ("literal", SRC.replace("i < COUNT", "i <= COUNT")),
            ("identifier", SRC.replace("head = c;", "head = head;")),
            (
                "field order",
                SRC.replace("long v; struct node *next;", "struct node *next; long v;"),
            ),
            (
                "global init",
                SRC.replace("int COUNT = 3;", "int COUNT = 4;"),
            ),
        ] {
            let b = parse(&edited).unwrap();
            assert_ne!(program_hash(&a), program_hash(&b), "{what}");
        }
    }

    #[test]
    fn pretty_print_round_trip_is_hash_invariant() {
        let p = parse(SRC).unwrap();
        let printed = crate::pretty::program_to_c(&p);
        let again = parse(&printed).unwrap_or_else(|e| panic!("{}", e.render(&printed)));
        assert_eq!(program_hash(&p), program_hash(&again));
    }
}
