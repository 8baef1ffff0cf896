//! The C-to-C preprocessor as a command-line tool — the artifact the
//! paper actually built ("We have built a GC-safe compiler for ANSI C …
//! by writing a C-to-C preprocessor that annotates the input program").
//!
//! Usage:
//!
//! ```text
//! cargo run --example preprocessor -- [--checked] [--base-heuristic] \
//!     [--no-skip-copies] [file.c]
//! ```
//!
//! Reads the file (or a built-in demo when omitted), prints the annotated
//! source produced by applying the edit list ("insertions and deletions,
//! sorted by character position in the original source string") and the
//! annotation statistics, plus any pointer-hygiene warnings.

use gcsafe::{annotate_program, Config, Mode};

const DEMO: &str = r#"/* The paper's canonical string-copy loop plus assorted arithmetic. */
struct buffer { int len; char data[64]; };

void copy(char *s, char *t) {
    char *p;
    char *q;
    p = s;
    q = t;
    while (*p++ = *q++);
}

char *advance(char *base, long n) {
    base += n;
    return base + 1;
}

int sum(struct buffer *b) {
    int i;
    int acc = 0;
    for (i = 0; i < b->len; i++) acc += b->data[i];
    return acc;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Config::gc_safe();
    let mut path = None;
    for a in &args {
        match a.as_str() {
            "--checked" => config.mode = Mode::Checked,
            "--base-heuristic" => config.base_heuristic = true,
            "--no-skip-copies" => config.skip_copies = false,
            other => path = Some(other.to_string()),
        }
    }
    let source = match &path {
        Some(p) => std::fs::read_to_string(p)?,
        None => DEMO.to_string(),
    };
    let annotated = annotate_program(&source, &config)?;
    println!("{}", annotated.annotated_source);
    eprintln!("/* --- preprocessor report ---");
    eprintln!(" * mode: {:?}", config.mode);
    eprintln!(
        " * KEEP_LIVE inserted:   {}",
        annotated.result.stats.keep_lives
    );
    eprintln!(" * GC_same_obj inserted: {}", annotated.result.stats.checks);
    eprintln!(
        " * ++/-- specialized:    {}",
        annotated.result.stats.incdec_specials
    );
    eprintln!(
        " * copies skipped:       {}",
        annotated.result.stats.skipped_copies
    );
    eprintln!(
        " * base heuristic hits:  {}",
        annotated.result.stats.base_heuristic_hits
    );
    for w in &annotated.sema.warnings {
        eprintln!(" * warning: {} (at byte {})", w.message, w.span.start);
    }
    eprintln!(" */");
    Ok(())
}
