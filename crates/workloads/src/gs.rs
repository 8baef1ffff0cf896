//! `gs` — a miniature of the Ghostscript workload.
//!
//! A PostScript-flavoured stack interpreter: tagged objects, an operand
//! stack, a name dictionary, array and string composition, and an operator
//! dispatch table of function pointers. Like the paper's gs, every
//! composite object carries a prepended standard header (type word before
//! the payload), "an unusually clean coding style", and — as the paper
//! observed — no pointer arithmetic errors for the checker to find.
//!
//! The program text is read from the input stream.

use std::fmt::Write;

/// The C source of the workload.
pub const SOURCE: &str = r#"
/* mini-gs: a PostScript-flavoured token interpreter. */

enum { T_INT, T_STR, T_ARR };

struct obj {
    int type;          /* the prepended standard header */
    long ival;
    char *sval;
    struct obj **elems;
    int len;
};

struct dictent {
    char *name;
    struct obj *val;
    struct dictent *next;
};

struct obj **stack;
int sp = 0;
int stack_cap = 0;
struct dictent *dict = 0;
long output_check = 0;

struct obj *obj_new(int type) {
    struct obj *o = (struct obj *) malloc(sizeof(struct obj));
    o->type = type;
    o->ival = 0;
    o->sval = 0;
    o->elems = 0;
    o->len = 0;
    return o;
}

struct obj *obj_int(long v) {
    struct obj *o = obj_new(T_INT);
    o->ival = v;
    return o;
}

struct obj *obj_str(char *s) {
    struct obj *o = obj_new(T_STR);
    o->sval = s;
    o->len = (int) strlen(s);
    return o;
}

void push(struct obj *o) {
    if (sp >= stack_cap) {
        stack_cap = stack_cap == 0 ? 64 : stack_cap * 2;
        stack = (struct obj **) realloc(stack, stack_cap * sizeof(struct obj *));
    }
    stack[sp++] = o;
}

struct obj *pop(void) {
    if (sp == 0) {
        putstr("stack underflow\n");
        abort();
    }
    return stack[--sp];
}

/* ---- operators ---------------------------------------------------- */

void op_add(void) {
    struct obj *b = pop();
    struct obj *a = pop();
    push(obj_int(a->ival + b->ival));
}

void op_sub(void) {
    struct obj *b = pop();
    struct obj *a = pop();
    push(obj_int(a->ival - b->ival));
}

void op_mul(void) {
    struct obj *b = pop();
    struct obj *a = pop();
    push(obj_int(a->ival * b->ival));
}

void op_dup(void) {
    struct obj *a = pop();
    push(a);
    push(a);
}

void op_exch(void) {
    struct obj *b = pop();
    struct obj *a = pop();
    push(b);
    push(a);
}

void op_pop(void) {
    pop();
}

void op_concat(void) {
    struct obj *b = pop();
    struct obj *a = pop();
    char *s = (char *) malloc(a->len + b->len + 1);
    memcpy(s, a->sval, a->len);
    memcpy(s + a->len, b->sval, b->len);
    s[a->len + b->len] = 0;
    push(obj_str(s));
}

void op_length(void) {
    struct obj *a = pop();
    if (a->type == T_INT) push(obj_int(0));
    else push(obj_int(a->len));
}

void op_def(void) {
    struct obj *val = pop();
    struct obj *name = pop();
    struct dictent *e = (struct dictent *) malloc(sizeof(struct dictent));
    e->name = name->sval;
    e->val = val;
    e->next = dict;
    dict = e;
}

void op_load(void) {
    struct obj *name = pop();
    struct dictent *e = dict;
    while (e) {
        if (strcmp(e->name, name->sval) == 0) {
            push(e->val);
            return;
        }
        e = e->next;
    }
    push(obj_int(0));
}

void op_print(void) {
    struct obj *a = pop();
    if (a->type == T_INT) {
        output_check = (output_check * 31 + a->ival) & 0xffffff;
    } else if (a->type == T_STR) {
        char *s = a->sval;
        while (*s) {
            output_check = (output_check * 31 + *s) & 0xffffff;
            s++;
        }
    } else {
        output_check = (output_check * 31 + a->len) & 0xffffff;
    }
}

void op_index(void) {
    struct obj *n = pop();
    struct obj *arr = pop();
    if (arr->type == T_ARR && n->ival >= 0 && n->ival < arr->len) {
        push(arr->elems[n->ival]);
    } else {
        push(obj_int(-1));
    }
}

void op_sum(void) {
    /* sum the elements of an array object */
    struct obj *arr = pop();
    long s = 0;
    int i;
    for (i = 0; i < arr->len; i++) {
        if (arr->elems[i]->type == T_INT) s += arr->elems[i]->ival;
    }
    push(obj_int(s));
}

struct opdef {
    char *name;
    void (*fn)(void);
};

struct opdef ops[13] = {
    {"add", op_add},
    {"sub", op_sub},
    {"mul", op_mul},
    {"dup", op_dup},
    {"exch", op_exch},
    {"pop", op_pop},
    {"concat", op_concat},
    {"length", op_length},
    {"def", op_def},
    {"load", op_load},
    {"print", op_print},
    {"index", op_index},
    {"sum", op_sum}
};

/* ---- tokenizer ----------------------------------------------------- */

int tk_type;          /* 0 eof, 1 int, 2 name, 3 string, 4 '[', 5 ']', 6 '/' name */
long tk_ival;
char tk_text[64];

int next_token(void) {
    int c = getchar();
    int n = 0;
    while (c == ' ' || c == '\n' || c == '\t') c = getchar();
    if (c == -1) { tk_type = 0; return 0; }
    if (c == '[') { tk_type = 4; return 1; }
    if (c == ']') { tk_type = 5; return 1; }
    if (c >= '0' && c <= '9') {
        tk_ival = 0;
        while (c >= '0' && c <= '9') {
            tk_ival = tk_ival * 10 + (c - '0');
            c = getchar();
        }
        tk_type = 1;
        return 1;
    }
    if (c == '(') {
        c = getchar();
        while (c != ')' && c != -1 && n < 63) {
            tk_text[n++] = (char) c;
            c = getchar();
        }
        tk_text[n] = 0;
        tk_type = 3;
        return 1;
    }
    if (c == '/') {
        c = getchar();
        while (c > ' ' && c != -1 && n < 63) {
            tk_text[n++] = (char) c;
            c = getchar();
        }
        tk_text[n] = 0;
        tk_type = 6;
        return 1;
    }
    while (c > ' ' && c != -1 && n < 63) {
        tk_text[n++] = (char) c;
        c = getchar();
    }
    tk_text[n] = 0;
    tk_type = 2;
    return 1;
}

char *heap_str(char *s) {
    char *d = (char *) malloc(strlen(s) + 1);
    strcpy(d, s);
    return d;
}

int run_name(char *name) {
    int i;
    for (i = 0; i < 13; i++) {
        if (strcmp(ops[i].name, name) == 0) {
            ops[i].fn();
            return 1;
        }
    }
    /* unknown name: load from dict */
    push(obj_str(heap_str(name)));
    op_load();
    return 1;
}

int marks[32];
int nmarks = 0;

int main(void) {
    while (next_token()) {
        if (tk_type == 1) {
            push(obj_int(tk_ival));
        } else if (tk_type == 3) {
            push(obj_str(heap_str(tk_text)));
        } else if (tk_type == 6) {
            push(obj_str(heap_str(tk_text)));
        } else if (tk_type == 4) {
            marks[nmarks++] = sp;
        } else if (tk_type == 5) {
            int start = marks[--nmarks];
            int n = sp - start;
            struct obj *arr = obj_new(T_ARR);
            int i;
            arr->elems = (struct obj **) malloc((n > 0 ? n : 1) * sizeof(struct obj *));
            arr->len = n;
            for (i = 0; i < n; i++) arr->elems[i] = stack[start + i];
            sp = start;
            push(arr);
        } else if (tk_type == 2) {
            run_name(tk_text);
        }
    }
    putstr("gs ");
    putint(output_check);
    putstr(" depth ");
    putint(sp);
    putchar('\n');
    return 0;
}
"#;

/// Generates a deterministic PostScript-ish program of roughly
/// `statements` statements, written into one buffer sized for them.
pub fn input(statements: u32) -> Vec<u8> {
    let mut seed: u64 = 0x853c49e6748fea9b;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    // A statement averages about 24 bytes.
    let mut out = String::with_capacity(statements as usize * 32);
    for i in 0..statements {
        // Writing to a `String` cannot fail.
        let _ = match next() % 7 {
            0 => {
                let a = next() % 10_000;
                let b = next() % 10_000;
                writeln!(out, "{a} {b} add print")
            }
            1 => writeln!(out, "{} dup mul print", next() % 1000),
            2 => writeln!(
                out,
                "(w{}) (x{}) concat dup length print print",
                next() % 50,
                next() % 50
            ),
            3 => {
                let n = 2 + next() % 5;
                out.push('[');
                for _ in 0..n {
                    let _ = write!(out, " {}", next() % 100);
                }
                writeln!(out, " ] sum print")
            }
            4 => writeln!(out, "/v{} {} def", i % 40, next() % 500),
            5 => writeln!(out, "(v{}) load print", i % 40),
            _ => {
                let n = 2 + next() % 4;
                out.push('[');
                for _ in 0..n {
                    let _ = write!(out, " {}", next() % 100);
                }
                writeln!(out, " ] {} index print", next() % n)
            }
        };
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    /// The generator as it was written before it used one buffer: a
    /// `format!` temporary per statement. It is the reference output.
    fn reference_input(statements: u32) -> Vec<u8> {
        let mut seed: u64 = 0x853c49e6748fea9b;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut out = String::new();
        for i in 0..statements {
            match next() % 7 {
                0 => {
                    let a = next() % 10_000;
                    let b = next() % 10_000;
                    out.push_str(&format!("{a} {b} add print\n"));
                }
                1 => {
                    let a = next() % 1000;
                    out.push_str(&format!("{a} dup mul print\n"));
                }
                2 => {
                    out.push_str(&format!(
                        "(w{}) (x{}) concat dup length print print\n",
                        next() % 50,
                        next() % 50
                    ));
                }
                3 => {
                    let n = 2 + next() % 5;
                    out.push('[');
                    for _ in 0..n {
                        out.push_str(&format!(" {}", next() % 100));
                    }
                    out.push_str(" ] sum print\n");
                }
                4 => {
                    out.push_str(&format!("/v{} {} def\n", i % 40, next() % 500));
                }
                5 => {
                    out.push_str(&format!("(v{}) load print\n", i % 40));
                }
                _ => {
                    let n = 2 + next() % 4;
                    out.push('[');
                    for _ in 0..n {
                        out.push_str(&format!(" {}", next() % 100));
                    }
                    out.push_str(&format!(" ] {} index print\n", next() % n));
                }
            }
        }
        out.into_bytes()
    }

    #[test]
    fn input_equals_the_reference_generator() {
        // The tiny, perfbench and paper sizes.
        for statements in [40, 2500, 18_000] {
            assert_eq!(
                super::input(statements),
                reference_input(statements),
                "{statements} statements"
            );
        }
    }
}
