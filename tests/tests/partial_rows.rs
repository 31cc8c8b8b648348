//! Locksteps for the partial-row serve path: kd-bounded partial row fills,
//! coverage-bounded openings and the sharded, f32-screened freeze walk.
//!
//! From `HUGE_METRIC_MIN_POINTS` up (forced on here via the
//! `set_partial_row_threshold` hook so CI-sized metrics exercise it, and
//! reached unforced by one 65,536-point lockstep) the engine no longer
//! fills a full `|M|`-entry distance row per arrival — it fills only the
//! coverage set `OpeningTargetIndex::query_scan_cover` predicts from the
//! per-block bounds of one representative pass, its openings read
//! distances block by block from the layout, and the freeze walk (the
//! same at every size) screens each block with certified f32 brackets
//! before confirming survivors exactly. All are *execution*
//! choices, never algorithmic ones: every covered entry and every layout
//! distance is the verbatim metric value, the predicted cover is a
//! superset of what the pruned scans can read, the freeze update set is
//! exactly `{p : d < cap}` however it is narrowed, and the shard
//! partition is a pure function of the block count. So the engine
//! must be bit-for-bit indistinguishable — per-arrival outcomes, dual
//! sums, total costs — from the linear-scan oracle `NaivePd` at 1, 2, 7,
//! or 16 threads, on every family including the id-scattered adversary,
//! and keep every pruning statistic of an engine pinned to full rows.

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::index::HUGE_METRIC_MIN_POINTS;
use omfl_core::naive::NaivePd;
use omfl_core::pd::PdOmflp;
use omfl_metric::euclidean::{EuclideanMetric, Norm};
use omfl_workload::catalog::{by_name, CatalogProfile};
use omfl_workload::Scenario;
use proptest::prelude::*;
use std::sync::Arc;

/// Serves one scenario on the engine and the oracle in lockstep;
/// everything observable must agree bit for bit.
fn assert_serve_lockstep(sc: &Scenario, mut tuned: PdOmflp<'_>, label: &str) {
    let mut reference = NaivePd::new(sc.instance());
    for (step, r) in sc.requests.iter().enumerate() {
        let a = tuned.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = reference
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
    }
    assert_eq!(
        tuned.dual_sum().to_bits(),
        reference.dual_sum().to_bits(),
        "{label}: dual sums diverged"
    );
    assert_eq!(
        tuned.solution().total_cost().to_bits(),
        reference.solution().total_cost().to_bits(),
        "{label}: costs diverged"
    );
}

#[test]
fn partial_rows_and_sharded_freeze_lockstep_at_every_thread_count() {
    // euclid-grid-large at points=40 → |M| = 2560, with the threshold
    // forced to 0: the engine fills its row cache over the radius-bounded
    // layout — partial rows and the sharded screened freeze are live. It
    // must replay the oracle identically at every pool size (the freeze
    // walk shares the scan pool, so the extremes exercise it too).
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 100,
    };
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&profile, 7)
        .expect("euclid-grid-large");
    let inst = sc.instance();
    for threads in [1usize, 2, 7, 16] {
        let mut tuned = PdOmflp::new(inst);
        tuned.set_partial_row_threshold(0);
        assert!(
            tuned.partial_rows_active(),
            "a bounded layout must enable partial rows"
        );
        tuned.configure_parallel_scans(threads, 16);
        assert_serve_lockstep(&sc, tuned, &format!("partial t={threads}"));
    }
}

/// Serves `sc` on the partial-row engine and the oracle in lockstep and
/// attributes the engine's row promotions: an arrival whose openings
/// lowered no past cap ran no cap-shrink pass, so a promotion there could
/// only come from the facility-cache refresh, which must fill no row.
/// Returns `(promotions, opening arrivals without a shrink pass)`.
fn promotions_outside_refreshes(sc: &Scenario, label: &str) -> (u64, usize) {
    let inst = sc.instance();
    let mut tuned = PdOmflp::new(inst);
    tuned.set_partial_row_threshold(0);
    assert!(tuned.partial_rows_active(), "{label}");
    tuned.configure_parallel_scans(7, 2);
    let mut reference = NaivePd::new(inst);
    let caps = |pd: &PdOmflp<'_>| -> Vec<f64> {
        let past = pd.past_requests().iter();
        past.flat_map(|pr| pr.caps.iter().copied().chain([pr.cap_total]))
            .collect()
    };
    let mut refresh_only = 0;
    for (step, r) in sc.requests.iter().enumerate() {
        let (before, promoted) = (caps(&tuned), tuned.row_fallback_promotions());
        let a = tuned.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = reference
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
        let shrank = before.iter().zip(caps(&tuned)).any(|(&old, new)| new < old);
        if !a.opened.is_empty() && !shrank {
            refresh_only += 1;
            assert_eq!(
                tuned.row_fallback_promotions(),
                promoted,
                "{label}: a facility-cache refresh promoted a row at arrival {step}"
            );
        }
    }
    assert_eq!(
        tuned.solution().total_cost().to_bits(),
        reference.solution().total_cost().to_bits(),
        "{label}: costs diverged"
    );
    let (hits, misses, _) = tuned.distance_cache_stats().expect("always Some");
    assert!(hits + misses > 0, "{label}: the cache was never touched");
    (
        tuned.row_fallback_promotions().expect("always Some"),
        refresh_only,
    )
}

#[test]
fn cold_scatter_adversary_locksteps_and_only_shrink_passes_promote_rows() {
    // The id-scattered adversary defeats id-order pruning entirely, so its
    // coverage sets are the least block-aligned the catalog produces; its
    // region-hopping queries also open facilities. Every facility-cache
    // refresh reads distances only over the blocks it can change, however
    // many there are — each commodity's first openings, while the cached
    // nearest distances are still ∞, keep every block — so no refresh
    // fills or promotes a row. Lockstep must hold on both streams, with
    // refresh-only openings on each. On the 529-point grid, past caps
    // reach most blocks, so wide cap-shrink passes still fall back to a
    // full fill of a past location's row, promoting the partial row its
    // arrival left: the fallback counter must see them.
    let cold = CatalogProfile {
        points: 40, // × 32 scale → 1280 points
        services: 8,
        requests: 120,
    };
    let sc = by_name("cold-scatter-large")
        .unwrap()
        .build(&cold, 13)
        .expect("cold-scatter-large");
    let (_, refresh_only) = promotions_outside_refreshes(&sc, "cold-scatter");
    assert!(refresh_only > 0, "no opening ran without a shrink pass");

    let grid = CatalogProfile {
        points: 8,
        services: 8,
        requests: 200,
    };
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&grid, 5)
        .expect("euclid-grid-large");
    let (promotions, refresh_only) = promotions_outside_refreshes(&sc, "grid");
    assert!(refresh_only > 0, "no opening ran without a shrink pass");
    assert!(
        promotions > 0,
        "wide cap-shrink passes must promote partial rows via the fallback"
    );
}

#[test]
fn threshold_toggles_mid_stream_stay_in_lockstep() {
    // The partial-row threshold hook moves the facility caches between id
    // order and layout order. Toggled both ways after openings have
    // filled the caches, the engine must keep replaying the oracle bit
    // for bit.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 150,
    };
    for name in ["euclid-grid-large", "cold-scatter-large"] {
        let sc = by_name(name).unwrap().build(&profile, 11).expect(name);
        let inst = sc.instance();
        for (first, second) in [(0, usize::MAX), (usize::MAX, 0)] {
            let label = format!("{name} toggled from {first}");
            let mut tuned = PdOmflp::new(inst);
            tuned.set_partial_row_threshold(first);
            let mut reference = NaivePd::new(inst);
            let n = sc.requests.len();
            for (step, r) in sc.requests.iter().enumerate() {
                if step == n / 3 || step == 2 * n / 3 {
                    assert!(
                        tuned.facility_index().openings() > 0,
                        "{label}: toggled before any opening"
                    );
                    let next = if step == n / 3 { second } else { first };
                    tuned.set_partial_row_threshold(next);
                    assert_eq!(tuned.partial_rows_active(), next == 0, "{label}");
                }
                let a = tuned.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
                let b = reference
                    .serve(r)
                    .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
                assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
            }
            assert_eq!(
                tuned.dual_sum().to_bits(),
                reference.dual_sum().to_bits(),
                "{label}: dual sums diverged"
            );
        }
    }
}

/// `sc`'s grid and stream over the same coordinates under another norm:
/// the layout keeps its kd partition, but the embedding is no longer
/// isometric, so every layout distance pass falls back to pointwise
/// metric calls.
fn with_norm(sc: &Scenario, norm: Norm) -> Scenario {
    let kd = sc.metric.kd_coords().expect("Euclidean metrics embed");
    let rows: Vec<Vec<f64>> = kd.coords.chunks(kd.dim).map(<[f64]>::to_vec).collect();
    let metric = EuclideanMetric::new(&rows, norm).expect("same coordinates");
    Scenario::new(
        format!("{} {norm:?}", sc.name),
        Arc::new(metric),
        sc.cost.clone(),
        sc.requests.clone(),
    )
    .expect("same requests")
}

#[test]
fn coverage_bounded_openings_keep_every_pruning_statistic() {
    // The partial-row path refreshes the facility caches block by block,
    // reads shrink distances only over the blocks a lowered cap can reach,
    // and rebuilds only the target bounds those walks touched; the
    // full-row path (threshold at usize::MAX) walks whole rows and
    // rebuilds whole bound rows. The target and shrink-walk statistics are
    // functions of the bound values, so equal statistics after every
    // arrival are what shows the touched-block rebuilds leave every bound
    // exactly where a full rebuild would. The L1 and L∞ grids run the same
    // kd-partitioned layouts without an isometric embedding: their
    // representative and block distances are pointwise metric calls.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 150,
    };
    for seed in [2u64, 9, 31] {
        let build = |name| by_name(name).unwrap().build(&profile, seed).unwrap();
        let grid = build("euclid-grid-large");
        let l1 = with_norm(&grid, Norm::L1);
        let linf = with_norm(&grid, Norm::LInf);
        let scenarios = [
            grid,
            l1,
            linf,
            build("cold-scatter-large"),
            build("zipf-services-large"),
        ];
        for sc in &scenarios {
            let inst = sc.instance();
            for threads in [1usize, 2, 7, 16] {
                let label = format!("{} seed {seed} t={threads}", sc.name);
                let mut bounded = PdOmflp::new(inst);
                bounded.set_partial_row_threshold(0);
                assert!(bounded.partial_rows_active(), "{label}");
                bounded.configure_parallel_scans(threads, 16);
                let mut full = PdOmflp::new(inst);
                full.set_partial_row_threshold(usize::MAX);
                assert!(!full.partial_rows_active(), "{label}");
                full.configure_parallel_scans(threads, 16);
                assert_stats_lockstep(sc, &mut bounded, &mut full, &label);
            }
        }
    }
}

/// Serves `sc` on both engines in lockstep: equal outcomes, target
/// statistics and shrink-walk statistics after every arrival.
fn assert_stats_lockstep(sc: &Scenario, a: &mut PdOmflp<'_>, b: &mut PdOmflp<'_>, label: &str) {
    for (step, r) in sc.requests.iter().enumerate() {
        let oa = a.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
        let ob = b.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(oa, ob, "{label}: outcome diverged at arrival {step}");
        assert_eq!(
            a.opening_target_stats(),
            b.opening_target_stats(),
            "{label}: target statistics diverged at arrival {step}"
        );
        assert_eq!(
            a.past_index_stats(),
            b.past_index_stats(),
            "{label}: shrink-walk statistics diverged at arrival {step}"
        );
    }
}

#[test]
fn partial_rows_engage_unforced_at_the_size_threshold() {
    // euclid-grid-large at points=1024 → |M| = 65,536 = HUGE_METRIC_MIN_POINTS:
    // the stock engine, with no threshold hook, builds the 64-point
    // HUGE_BLOCK kd layout, serves through partial rows and the
    // layout-ordered coordinate passes, and auto-engages its scan pool
    // whenever OMFL_THREADS (or the machine) allows more than one thread.
    // It must replay the oracle bit for bit and keep every pruning
    // statistic of an engine pinned to full rows.
    let profile = CatalogProfile {
        points: 1024,
        services: 8,
        requests: 24,
    };
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&profile, 3)
        .expect("euclid-grid-large");
    let inst = sc.instance();
    assert_eq!(inst.num_points(), HUGE_METRIC_MIN_POINTS);
    let stock = PdOmflp::new(inst);
    assert!(
        stock.partial_rows_active(),
        "the size threshold must engage partial rows"
    );
    assert_serve_lockstep(&sc, stock, "threshold");
    let mut stock = PdOmflp::new(inst);
    let mut full = PdOmflp::new(inst);
    full.set_partial_row_threshold(usize::MAX);
    assert!(!full.partial_rows_active());
    assert_stats_lockstep(&sc, &mut stock, &mut full, "threshold stats");
    // The stream opens facilities and shrinks caps, so every coverage-
    // bounded opening pass runs at this size too.
    assert!(stock.solution().facilities().len() > 1);
    assert!(
        stock.past_index_stats().1 > 0,
        "no shrink walk scanned a block"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (large family, seed, threads, shard size) cells of 1056–2756
    /// points: the partial-row engine must be indistinguishable from
    /// the oracle. Thread counts beyond the machine's cores are
    /// deliberate — oversubscription must not be observable either.
    #[test]
    fn random_partial_row_configurations_never_change_outcomes(
        family_idx in 0usize..64,
        seed in 0u64..10_000,
        threads in 1usize..9,
        shard_blocks in 1usize..40,
        points in 33usize..44,
        services in 2u16..8,
        requests in 20usize..60,
    ) {
        let families = ["zipf-services-large", "euclid-grid-large", "cold-scatter-large"];
        let name = families[family_idx % families.len()];
        let profile = CatalogProfile { points, services, requests };
        let sc = by_name(name).unwrap().build(&profile, seed).unwrap();
        let inst = sc.instance();
        let mut tuned = PdOmflp::new(inst);
        tuned.set_partial_row_threshold(0);
        prop_assert!(tuned.partial_rows_active(), "{name} must run partial rows");
        tuned.configure_parallel_scans(threads, shard_blocks);
        let label = format!("{name} t={threads} sb={shard_blocks}");
        assert_serve_lockstep(&sc, tuned, &label);
    }
}
