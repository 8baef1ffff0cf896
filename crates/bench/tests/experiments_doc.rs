//! EXPERIMENTS.md's measured columns must match the pinned paper-scale
//! tables.
//!
//! `tests/golden/tables_paper.txt` is what `tables all` prints at paper
//! scale (CI compares a fresh run against it byte for byte). This test
//! parses the markdown tables of E1–E5, of the implementation-strategy
//! ablation and of the optimizer's seed-vs-full cycles, and checks every
//! measured cell against the golden table it transcribes, so the
//! document cannot drift from the code again.

const DOC: &str = include_str!("../../../EXPERIMENTS.md");
const GOLDEN: &str = include_str!("../../../tests/golden/tables_paper.txt");

/// One transcribed table: the doc heading that introduces it, the golden
/// section title it copies, and for each measured column its index in
/// the markdown row (0 = program), its header text, and the golden
/// column it copies (0 = first value after the program name).
struct Transcript {
    heading: &'static str,
    golden: &'static str,
    columns: &'static [(usize, &'static str, usize)],
}

const OURS_3: &[(usize, &str, usize)] = &[(2, "ours", 0), (4, "ours", 1), (6, "ours", 2)];

const TRANSCRIPTS: &[Transcript] = &[
    Transcript {
        heading: "## E1 ",
        golden: "SPARCstation 2:",
        columns: OURS_3,
    },
    Transcript {
        heading: "## E2 ",
        golden: "SPARC 10:",
        columns: OURS_3,
    },
    Transcript {
        heading: "## E3 ",
        golden: "Pentium 90:",
        columns: OURS_3,
    },
    Transcript {
        heading: "## E4 ",
        golden: "SPARC object code expansion (processed code only):",
        columns: OURS_3,
    },
    Transcript {
        heading: "## E5 ",
        golden: "After the peephole postprocessor (SPARC 10):",
        columns: &[(2, "ours", 0), (4, "ours", 1)],
    },
    Transcript {
        heading: "## Implementation-strategy ablation",
        golden: "Annotator ablations (SPARC 10 cycles, wraps inserted):",
        columns: &[
            (1, "`-O` cycles", 0),
            (2, "safe (asm primitive)", 1),
            (3, "naive (identity call)", 4),
        ],
    },
    Transcript {
        heading: "## Optimizer: seed pipeline vs full registry",
        golden: "Optimizer cycles at -O: seed pipeline (no gvn, sccp) vs full registry:",
        columns: &[
            (1, "machine", 0),
            (2, "seed cycles", 1),
            (3, "full cycles", 2),
            (4, "saved", 3),
        ],
    },
];

/// The cells of the first markdown table after `heading`: the header row
/// first, then one row per program (the `|---|` separator dropped).
fn doc_table(heading: &str) -> Vec<Vec<String>> {
    let start = DOC
        .lines()
        .position(|l| l.starts_with(heading))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no heading {heading:?}"));
    DOC.lines()
        .skip(start + 1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("|--"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// Program name → its value columns, for the golden section `title`.
fn golden_rows(title: &str) -> Vec<(String, Vec<String>)> {
    let start = GOLDEN
        .lines()
        .position(|l| l == title)
        .unwrap_or_else(|| panic!("golden has no section {title:?}"));
    GOLDEN
        .lines()
        .skip(start + 2) // the title and the column header
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let mut cells = l.split_whitespace().map(str::to_string);
            let program = cells.next().expect("row names its program");
            (program, cells.collect())
        })
        .collect()
}

/// A doc cell as the tables print it: no code ticks, no digit grouping.
fn doc_value(cell: &str) -> String {
    cell.trim_matches('`').replace(',', "")
}

/// A golden cell's measured value: ablation cells print `pct/wraps`, and
/// the doc transcribes only the percentage.
fn golden_value(cell: &str) -> &str {
    cell.split('/').next().expect("split yields a first part")
}

#[test]
fn every_measured_cell_matches_the_paper_golden() {
    let mut checked = 0;
    let mut drift = Vec::new();
    for t in TRANSCRIPTS {
        let table = doc_table(t.heading);
        let (header, rows) = table.split_first().expect("table has a header");
        for &(col, name, _) in t.columns {
            assert_eq!(
                header.get(col).map(String::as_str),
                Some(name),
                "{}: column {col} header",
                t.heading
            );
        }
        let golden = golden_rows(t.golden);
        let programs = |rows: &[Vec<String>]| rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>();
        assert_eq!(
            programs(rows),
            golden.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
            "{}: same programs in the same order as the golden",
            t.heading
        );
        for (row, (program, values)) in rows.iter().zip(&golden) {
            for &(col, name, gcol) in t.columns {
                let ours = doc_value(&row[col]);
                let want = golden_value(&values[gcol]);
                checked += 1;
                if ours != want {
                    drift.push(format!(
                        "{}{program} / {name} (column {col}): doc says {ours}, golden prints {want}",
                        t.heading
                    ));
                }
            }
        }
    }
    assert_eq!(checked, 68 + 12 * 4, "every transcribed cell was checked");
    assert!(
        drift.is_empty(),
        "EXPERIMENTS.md disagrees with tests/golden/tables_paper.txt:\n{}",
        drift.join("\n")
    );
}
