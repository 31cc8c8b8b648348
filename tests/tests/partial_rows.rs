//! Locksteps for the block-pass serve path: layout block passes in the
//! t3/t4 argmins, the openings and the cap shrinks, and the sharded,
//! f32-screened freeze walk.
//!
//! Every metric that lends no stored rows takes this path, at every size,
//! and reads no `|M|`-entry distance row: one representative pass gives
//! the per-block bounds, the t3/t4 argmins read each block they scan
//! through one layout pass (`QueryDistances::Layout`), its openings and
//! cap shrinks read distances block by block from the layout, and the
//! freeze walk (the same on both paths) screens each block with certified
//! f32 brackets before confirming survivors exactly. The suites pick a
//! path by wrapping the metric (`common::lend_rows`, `common::hide_rows`).
//! All are *execution* choices, never algorithmic ones: every layout
//! distance is the verbatim metric value, the freeze update set is exactly
//! `{p : d < cap}` however it is narrowed, and the shard partition is a
//! pure function of the block count. So the engine must be bit-for-bit
//! indistinguishable — per-arrival outcomes, dual sums, total costs — from
//! the linear-scan oracle `NaivePd` at 1, 2, 7, or 16 threads, on every
//! family including the id-scattered adversary and a metric with no
//! coherent order, and keep every pruning statistic of an engine on the
//! row path.

mod common;

use common::{distances_only, hide_rows, lend_rows};
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
fn assert_serve_lockstep(sc: &Scenario, tuned: &mut PdOmflp<'_>, label: &str) {
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
    // euclid-grid-large at points=40 → |M| = 2560: a computed metric, so
    // the engine reads block passes of the radius-bounded layout and runs
    // the sharded screened freeze. It must replay the oracle identically
    // at every pool size (the freeze walk shares the scan pool, so the
    // extremes exercise it too).
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
        assert!(
            tuned.partial_rows_active(),
            "a computed metric must take block passes"
        );
        tuned.configure_parallel_scans(threads, 16);
        assert_serve_lockstep(&sc, &mut tuned, &format!("partial t={threads}"));
    }
}

#[test]
fn block_passes_over_the_identity_layout_lockstep() {
    // A metric that offers only `len` and `distance` lays out the identity
    // with all-zero distance bounds, so its block passes prune by bid keys
    // alone, every layout distance is a metric call, and the freeze walk
    // confirms every candidate exactly. With and without a sharded pool,
    // the engine must still replay the oracle bit for bit.
    let profile = CatalogProfile {
        points: 24,
        services: 8,
        requests: 120,
    };
    for name in ["zipf-services-large", "cold-scatter-large"] {
        let sc = by_name(name).unwrap().build(&profile, 19).expect(name);
        let sc = distances_only(&sc);
        for pool in [false, true] {
            let label = format!("{} pool {pool}", sc.name);
            let mut tuned = PdOmflp::new(sc.instance());
            assert!(tuned.partial_rows_active(), "{label}");
            let summaries = tuned.opening_targets().block_summaries();
            assert!(
                summaries.iter().all(|&(_, radius, _)| radius.is_infinite()),
                "{label}: the layout must be the identity"
            );
            if pool {
                tuned.configure_parallel_scans(7, 2);
            }
            assert_serve_lockstep(&sc, &mut tuned, &label);
            assert!(tuned.solution().facilities().len() > 1, "{label}");
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
    // The block-pass path refreshes the facility caches block by block,
    // reads shrink distances only over the blocks a lowered cap can reach,
    // and rebuilds only the target bounds those walks touched; the row
    // path walks whole rows. Each scenario runs behind both wrappers,
    // which keep its layout. The target and shrink-walk statistics are
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
            let (passes, rows) = (hide_rows(sc), lend_rows(sc));
            for threads in [1usize, 2, 7, 16] {
                let label = format!("{} seed {seed} t={threads}", sc.name);
                let mut bounded = PdOmflp::new(passes.instance());
                assert!(bounded.partial_rows_active(), "{label}");
                bounded.configure_parallel_scans(threads, 16);
                let mut full = PdOmflp::new(rows.instance());
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
    // the stock engine builds the 64-point HUGE_BLOCK kd layout, serves
    // through the layout-ordered coordinate passes, and auto-engages its
    // scan pool whenever OMFL_THREADS (or the machine) allows more than
    // one thread. It must replay the oracle bit for bit. No row-path
    // engine runs at this size (its rows would take 32 GiB), so the
    // statistics lockstep against one stays at the sizes above.
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
    let mut stock = PdOmflp::new(inst);
    assert!(
        stock.partial_rows_active(),
        "a computed metric must take block passes"
    );
    assert_serve_lockstep(&sc, &mut stock, "threshold");
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
    /// points, each metric behind `HideRows`: the block-pass engine must
    /// be indistinguishable from the oracle. Thread counts beyond the
    /// machine's cores are deliberate — oversubscription must not be
    /// observable either.
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
        let sc = hide_rows(&by_name(name).unwrap().build(&profile, seed).unwrap());
        let mut tuned = PdOmflp::new(sc.instance());
        prop_assert!(tuned.partial_rows_active(), "{name} must take block passes");
        tuned.configure_parallel_scans(threads, shard_blocks);
        let label = format!("{name} t={threads} sb={shard_blocks}");
        assert_serve_lockstep(&sc, &mut tuned, &label);
    }
}
