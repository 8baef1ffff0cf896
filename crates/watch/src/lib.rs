//! gcwatch: perf observability for the GC trajectory.
//!
//! Three pillars, all dependency-free and deterministic where the rest of
//! the repo demands determinism:
//!
//! * [`stats`] — robust statistics (`median` + MAD) and the `--repeat N`
//!   aggregator that folds N `BENCH_gc.json` runs into one document with
//!   median wall-clock fields (minimum for the per-run-maximum
//!   `max_pause_ns`, which noise can only inflate), `<field>_mad` noise
//!   estimates, and a hard assertion that every deterministic count is
//!   byte-identical across repeats.
//! * [`chrome`] — a Chrome Trace Event Format (Perfetto-loadable)
//!   timeline writer fed by the per-collection attribution log. The
//!   timeline runs on a *virtual clock* derived only from deterministic
//!   counters (bytes allocated, roots scanned, words marked, pages
//!   swept), so the exported JSON is byte-identical run to run and at any
//!   `--jobs` level.
//! * [`compare`](mod@compare) — the trajectory check: a fresh
//!   `BENCH_gc.json` must reproduce every deterministic field of the
//!   committed one, cell for cell, or the check names each cell and field
//!   that differs. Wall-clock fields are printed beside the committed
//!   median and MAD as advice and never fail it.

#![warn(missing_docs)]

pub mod chrome;
pub mod compare;
pub mod stats;

pub use chrome::{chrome_trace, validate_chrome_trace, TimelineCell};
pub use compare::{compare, Verdict};
pub use stats::{aggregate, mad, median};
