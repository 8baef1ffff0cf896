//! cfrac must actually exercise the collector at paper scale.
//!
//! The trajectory's early revisions carried cfrac cells with zero
//! collections — 6 KB of bignum churn never crossed the 256 KiB
//! threshold, so every cfrac collector count was vacuous. The workload now
//! mirrors the original cfrac's allocating `pdiv` (a scratch digit vector
//! per `big_mod_small` call) and factors enough numbers that every mode
//! cell collects well over ten times. This test pins that floor so input
//! rescaling can't silently regress the trajectory back to vacuity.

use gc_safety::Mode;
use workloads::Scale;

#[test]
fn cfrac_paper_cells_collect_at_least_ten_times() {
    let w = workloads::all()
        .into_iter()
        .find(|w| w.name == "cfrac")
        .expect("cfrac is in the suite");
    let results = gc_safety::measure_workload(&w, Scale::Paper).expect("cfrac measures");
    for mode in Mode::all() {
        let m = &results[&mode];
        let out = m.outcome.as_ref().expect("cfrac runs in every mode");
        assert!(
            out.heap.collections >= 10,
            "cfrac/{}: only {} collections — the workload no longer \
pressures the collector (bytes_requested={})",
            mode.key(),
            out.heap.collections,
            out.heap.bytes_requested,
        );
    }
}
