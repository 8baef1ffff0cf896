//! `gawk` — a miniature of the awk interpreter workload.
//!
//! Reads lines, splits them into fields, tallies word frequencies in a
//! chained hash table and sums a numeric column — the inner loops of the
//! classic `{ count[$1]++; sum += $2 }` program.
//!
//! **Faithfully buggy**: like gawk 2.11 in the paper, it indulges in the
//! "common bug (sometimes referred to incorrectly as a 'technique')" of
//! representing a 1-indexed array as a pointer one element *before* a heap
//! array (`fields - 1`). The program runs correctly without checking;
//! under the checking-mode preprocessor it "immediately and correctly
//! detect\[s\] a pointer arithmetic error" — the paper's `<fails>` cell.

use std::fmt::Write;

/// The C source of the workload.
pub const SOURCE: &str = r#"
/* mini-gawk: { count[$1]++; sum += $2 } END { report } */

struct entry {
    char *key;
    long count;
    struct entry *next;
};

struct entry *table[128];

long hash_str(char *s) {
    long h = 5381;
    while (*s) {
        h = h * 33 + *s++;
        h = h & 0x7fffff;
    }
    return h;
}

char *copy_str(char *s) {
    char *d = (char *) malloc(strlen(s) + 1);
    strcpy(d, s);
    return d;
}

void tally(char *word) {
    long b = hash_str(word) % 128;
    struct entry *e = table[b];
    while (e) {
        if (strcmp(e->key, word) == 0) {
            e->count++;
            return;
        }
        e = e->next;
    }
    e = (struct entry *) malloc(sizeof(struct entry));
    e->key = copy_str(word);
    e->count = 1;
    e->next = table[b];
    table[b] = e;
}

long to_num(char *s) {
    long v = 0;
    while (*s >= '0' && *s <= '9') {
        v = v * 10 + (*s - '0');
        s++;
    }
    return v;
}

/* Reads one line into a fresh heap buffer; returns 0 at EOF. */
char *get_line(void) {
    char *buf = (char *) malloc(256);
    int n = 0;
    int c = getchar();
    if (c == -1) return 0;
    while (c != -1 && c != '\n' && n < 255) {
        buf[n++] = (char) c;
        c = getchar();
    }
    buf[n] = 0;
    return buf;
}

/* Splits `line` in place; returns the number of fields. The field table
 * is heap allocated and then — the bug — addressed 1-based through a
 * pointer placed one element before it. */
int split(char *line, char ***out) {
    char **fields = (char **) malloc(16 * sizeof(char *));
    int nf = 0;
    char *p = line;
    while (*p && nf < 16) {
        while (*p == ' ') *p++ = 0;
        if (*p == 0) break;
        fields[nf++] = p;
        while (*p && *p != ' ') p++;
    }
    *out = fields;
    return nf;
}

int main(void) {
    long sum = 0;
    long lines = 0;
    long words = 0;
    long i;
    char *line;
    while ((line = get_line()) != 0) {
        char **fields;
        char **f;
        int nf = split(line, &fields);
        if (nf == 0) continue;
        /* awk's $1..$NF are 1-based: fake it with pointer arithmetic.
         * This leaves the object and is exactly what the paper's checker
         * catches in gawk. */
        f = fields - 1;
        lines++;
        for (i = 1; i <= nf; i++) {
            if (i == 1) {
                tally(f[i]);
            }
            if (i == 2) {
                sum += to_num(f[i]);
            }
            words++;
        }
    }
    /* END block: report in bucket order. */
    {
        long maxc = 0;
        char *maxw = "";
        long distinct = 0;
        for (i = 0; i < 128; i++) {
            struct entry *e = table[i];
            while (e) {
                distinct++;
                if (e->count > maxc) {
                    maxc = e->count;
                    maxw = e->key;
                }
                e = e->next;
            }
        }
        putstr("lines ");
        putint(lines);
        putstr(" words ");
        putint(words);
        putstr(" sum ");
        putint(sum);
        putstr(" distinct ");
        putint(distinct);
        putstr(" top ");
        putstr(maxw);
        putstr(" x");
        putint(maxc);
        putchar('\n');
    }
    return 0;
}
"#;

/// Generates a deterministic input of `lines` lines of `word number word…`
/// records, like the paper's benchmark inputs, written into one buffer
/// sized for them.
pub fn input(lines: u32) -> Vec<u8> {
    const WORDS: &[&str] = &[
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    ];
    let mut seed: u64 = 0x9e3779b97f4a7c15;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    // A line averages about 17 bytes.
    let mut out = String::with_capacity(lines as usize * 24);
    for _ in 0..lines {
        let w1 = WORDS[(next() as usize) % WORDS.len()];
        let n = next() % 1000;
        let w2 = WORDS[(next() as usize) % WORDS.len()];
        // Writing to a `String` cannot fail.
        let _ = writeln!(out, "{w1} {n} {w2}");
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    /// The generator as it was written before it used one buffer: a
    /// `to_string` temporary per line. It is the reference output.
    fn reference_input(lines: u32) -> Vec<u8> {
        const WORDS: &[&str] = &[
            "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
            "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
        ];
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut out = String::new();
        for _ in 0..lines {
            let w1 = WORDS[(next() as usize) % WORDS.len()];
            let n = next() % 1000;
            let w2 = WORDS[(next() as usize) % WORDS.len()];
            out.push_str(w1);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push(' ');
            out.push_str(w2);
            out.push('\n');
        }
        out.into_bytes()
    }

    #[test]
    fn input_equals_the_reference_generator() {
        // The tiny, perfbench and paper sizes.
        for lines in [30, 1000, 6000] {
            assert_eq!(super::input(lines), reference_input(lines), "{lines} lines");
        }
    }
}
