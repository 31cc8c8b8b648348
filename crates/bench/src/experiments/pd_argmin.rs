//! `pd-argmin` — the block-pruned t3/t4 opening-target argmins at large |M|.
//!
//! PD serve is index-bound: the remaining per-arrival term is the t3/t4
//! opening-target argmins over `(f − B)⁺ + d(m, r)`. This experiment
//! measures the engine that answers them with the block-pruned argmin
//! (`omfl_core::index::OpeningTargetIndex`, a bucketed lower-bound prune
//! list) over the graph's stored distance rows or the blocked
//! distance-row cache (`omfl_metric::blocked`) on the large-metric catalog
//! families. Every timed run is cross-checked against the linear-scan
//! oracle `NaivePd`: it must reproduce the oracle's total cost bit for bit.
//!
//! Reported per family: |M|, requests, construct + serve ms per run, the
//! share of opening-target blocks the prune skipped, and the blocked
//! row-cache hit rate (cells whose metric lends its stored rows, like the
//! graph family, never read the cache and show "-").
//!
//! The measurement protocol is [`crate::perfjson::pd_timing`] — the same
//! harness that produces the gated large cells of `BENCH_pd.json`.

use crate::perfjson::{pd_euclid_large_profile, pd_large_profile, pd_timing};
use crate::table::{fmt, Table};

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    // The gated BENCH_pd.json cells' profiles: the steady-state tail (most
    // arrivals after facilities stabilize) is where the argmin index pays,
    // so short streams undersell it.
    let graph_repeats = if quick { 3 } else { 5 };
    let mut plan = vec![
        ("zipf-services-large", pd_large_profile(), graph_repeats),
        ("euclid-grid-large", pd_euclid_large_profile(), 3),
    ];
    if !quick {
        // The id-order adversary: ids random w.r.t. space and every query
        // cold — the distance-free bounds see nothing, so the skip rate
        // here is purely the relabeled radius bounds.
        plan.push(("cold-scatter-large", pd_large_profile(), 3));
    }
    let cells: Vec<_> = plan
        .into_iter()
        .map(|(family, profile, repeats)| pd_timing(family, &profile, repeats).expect("PD timing"))
        .collect();

    let mut t = Table::new(
        "PD opening targets: block-pruned argmin + blocked rows (checked against NaivePd)",
        &[
            "family", "|M|", "requests", "incr ms", "blk skip", "row hit",
        ],
    );
    for c in &cells {
        t.row(&[
            c.family.to_string(),
            c.points.to_string(),
            c.requests.to_string(),
            fmt(c.incremental.mean * 1e3),
            format!("{:.1}%", 100.0 * c.block_skip_rate),
            c.row_hit_rate
                .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", 100.0 * r)),
        ]);
    }
    vec![t]
}
