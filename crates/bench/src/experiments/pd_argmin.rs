//! `pd-argmin` — the block-pruned t3/t4 opening-target argmins at large |M|.
//!
//! PD serve is index-bound: the remaining per-arrival term is the t3/t4
//! opening-target argmins over `(f − B)⁺ + d(m, r)`. This experiment
//! measures the engine that answers them with the block-pruned argmin
//! (`omfl_core::index::OpeningTargetIndex`, a bucketed lower-bound prune
//! list) over the blocked distance-row cache (`omfl_metric::blocked`) on
//! the large-metric catalog families. Every timed run is cross-checked
//! against the linear-scan oracle `NaivePd`: it must reproduce the
//! oracle's total cost bit for bit.
//!
//! Reported per family: |M|, requests, construct + serve ms per run, the
//! share of opening-target blocks the prune skipped, and the blocked
//! row-cache hit rate (dense-backend cells show "-").
//!
//! The measurement protocol is [`crate::perfjson::pd_timing`] — the same
//! harness that produces the gated large cells of `BENCH_pd.json`.

use crate::perfjson::{pd_timing, PdTiming};
use crate::table::{fmt, Table};
use omfl_workload::catalog::CatalogProfile;

fn measure(family: &'static str, profile: &CatalogProfile, repeats: usize) -> PdTiming {
    pd_timing(family, profile, repeats).expect("PD timing")
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let cells: Vec<(&str, PdTiming)> = if quick {
        // Matches perfjson::pd_large_profile / pd_euclid_large_profile, the
        // gated BENCH_pd.json cells: the steady-state tail (most arrivals
        // after facilities stabilize) is where the argmin index pays, so
        // short streams undersell it.
        vec![
            (
                "zipf-services-large",
                measure(
                    "zipf-services-large",
                    &CatalogProfile {
                        points: 128, // × 32 scale → |M| = 4096
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
            (
                "euclid-grid-large",
                measure(
                    "euclid-grid-large",
                    &CatalogProfile {
                        points: 256, // × 64 scale → |M| = 16384
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
        ]
    } else {
        vec![
            (
                "zipf-services-large",
                measure(
                    "zipf-services-large",
                    &CatalogProfile {
                        points: 128,
                        services: 64,
                        requests: 4096,
                    },
                    5,
                ),
            ),
            (
                "euclid-grid-large",
                measure(
                    "euclid-grid-large",
                    &CatalogProfile {
                        points: 256, // × 64 scale → |M| = 16384
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
            (
                // The id-order adversary: ids random w.r.t. space and every
                // query cold — the distance-free bounds see nothing, so the
                // skip rate here is purely the relabeled radius bounds.
                "cold-scatter-large",
                measure(
                    "cold-scatter-large",
                    &CatalogProfile {
                        points: 128, // × 32 scale → |M| = 4096
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
        ]
    };

    let mut t = Table::new(
        "PD opening targets: block-pruned argmin + blocked rows (checked against NaivePd)",
        &[
            "family", "|M|", "requests", "incr ms", "blk skip", "row hit",
        ],
    );
    for (family, c) in &cells {
        t.row(&[
            family.to_string(),
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
