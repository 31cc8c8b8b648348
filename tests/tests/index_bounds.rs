//! Bound-curve checks at the index refresh boundary.
//!
//! The incremental index layer refreshes its nearest-facility caches and
//! cap buckets exactly when a facility opens. An off-by-one there (caps
//! shrunk too early/late, a stale nearest distance) would not necessarily
//! crash — it would silently bend the dual accounting the paper's
//! guarantees rest on. So, for every catalog family, these tests re-assert
//! the two theorem-backed inequalities **on the exact arrivals where the
//! caches were refreshed** (i.e. where `ServeOutcome::opened` is
//! non-empty):
//!
//! * **Corollary 8**: `cost ≤ 3 · Σ_r Σ_e a_{re}` — the primal-dual charging
//!   argument, sensitive to bid reinvestment bookkeeping;
//! * **Corollary 17**: the scaled dual sum `γ·Σa` (γ = 1/(5·√|S|·H_n)) is a
//!   lower bound on OPT, hence at most the algorithm's own cost; combining
//!   both, `cost ≤ 15·√|S|·H_n · (scaled dual LB)` must hold with *no*
//!   slack constant — it is an identity of the two corollaries, checked
//!   here against `omfl_core::bounds::sqrt_s` and `harmonic`.
//!
//! On top of the bound curves, this suite locksteps the relabeled,
//! radius-bounded opening-target prune bitwise at every arrival against
//! verbatim full scans over the oracle's bids, across the whole catalog
//! (including the cold-query adversary, and at 1280–2560 points on both
//! the row path and the block-pass path, picked by wrapping the metric),
//! and drives *random* relabelings through whole engine runs — the
//! index's block layout must never leak into engine-visible state. It
//! also checks, after every arrival and on both paths, that every block
//! bound is the exact minimum of its block's keys, which no engine outcome
//! can show.

mod common;

use common::{hide_rows, lend_rows};
use omfl_commodity::CommodityId;
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::index::OpeningTargetIndex;
use omfl_core::instance::Instance;
use omfl_core::naive::NaivePd;
use omfl_core::pd::{OpeningTarget, PdOmflp};
use omfl_core::{bounds, harmonic, CoreError};
use omfl_metric::dense::DenseMetric;
use omfl_metric::PointId;
use omfl_workload::catalog::{by_name, registry, CatalogProfile};
use omfl_workload::Scenario;
use proptest::prelude::*;
use std::sync::Arc;

fn profile() -> CatalogProfile {
    CatalogProfile {
        points: 12,
        services: 9,
        requests: 70,
    }
}

/// The verbatim opening-target scan: `min_p (f[p] − b[p])⁺ + d(p, at)`
/// with strict-`<` ascending-`p` tie-breaking — what the block-pruned
/// argmins must reproduce bit for bit.
fn scan_target(
    inst: &Instance,
    f: impl Fn(PointId) -> f64,
    b: &[f64],
    at: PointId,
) -> OpeningTarget {
    let mut best = f64::INFINITY;
    let mut best_m = PointId(0);
    for (p, &bp) in b.iter().enumerate() {
        let p = PointId(p as u32);
        let v = (f(p) - bp).max(0.0) + inst.distance(p, at);
        if v < best {
            best = v;
            best_m = p;
        }
    }
    (best, best_m)
}

/// Locksteps `engine` against the oracle over one scenario: identical
/// outcomes and, at every non-fast-path arrival, the block-pruned t3/t4
/// targets must equal verbatim scans over the oracle's bids taken just
/// before the arrival **bit for bit** — value bits and winning location
/// both. Returns the engine's `(skipped, scanned)` block statistics.
fn assert_targets_lockstep(sc: &Scenario, mut engine: PdOmflp<'_>, label: &str) -> (u64, u64) {
    let inst = sc.instance();
    let s = inst.num_commodities();
    let mut oracle = NaivePd::new(inst);
    for (step, r) in sc.requests.iter().enumerate() {
        // The oracle's bids are point-major: `B[p][e]` at `p·|S| + e`.
        let (b_small, b_large) = oracle.bids();
        let at = r.location();
        let t3: Vec<OpeningTarget> = r
            .demand()
            .iter()
            .map(|e| {
                let b: Vec<f64> = b_small.iter().skip(e.index()).step_by(s).copied().collect();
                scan_target(inst, |p| inst.small_cost(p, e), &b, at)
            })
            .collect();
        let t4 = scan_target(inst, |p| inst.large_cost(p), b_large, at);
        let a = engine
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: engine: {e}"));
        match engine.last_opening_targets() {
            // The zero-distance large fast path computes no targets.
            None => assert!(
                a.served_by_large && a.opened.is_empty() && a.connection_cost == 0.0,
                "{label}: no targets recorded off the fast path at arrival {step}"
            ),
            Some((t3e, t4e)) => {
                assert_eq!(t3e.len(), t3.len(), "{label}: arrival {step}");
                for (slot, (te, ts)) in t3e.iter().zip(&t3).enumerate() {
                    assert_eq!(
                        (te.0.to_bits(), te.1),
                        (ts.0.to_bits(), ts.1),
                        "{label}: t3 slot {slot} diverged at arrival {step} \
                         (pruned {te:?} vs verbatim scan {ts:?})"
                    );
                }
                assert_eq!(
                    (t4e.0.to_bits(), t4e.1),
                    (t4.0.to_bits(), t4.1),
                    "{label}: t4 diverged at arrival {step}"
                );
            }
        }
        let b = oracle
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: oracle: {e}"));
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
    }
    engine
        .opening_target_stats()
        .expect("the engine exposes stats")
}

#[test]
fn incremental_targets_equal_fresh_scans_at_every_arrival() {
    // Every catalog family — including the large-metric ones.
    let mut total_skipped = 0;
    for fam in registry() {
        let sc = fam.build(&profile(), 29).expect(fam.name);
        let engine = PdOmflp::new(sc.instance());
        let (skipped, scanned) = assert_targets_lockstep(&sc, engine, fam.name);
        assert!(
            skipped + scanned > 0,
            "{}: the opening-target index was never queried",
            fam.name
        );
        total_skipped += skipped;
    }
    assert!(
        total_skipped > 0,
        "the block prune never engaged — the incremental path is inert"
    );
}

#[test]
fn incremental_targets_lockstep_beyond_the_dense_cap() {
    // Push the large families — including the cold-query adversary whose
    // ids are scattered against spatial structure — to 1280–2560 points so
    // the lockstep covers lent rows and the relabeled radius-bounded prune
    // together. Each runs twice: behind `LendRows`, on the row path, and
    // behind `HideRows`, on the block-pass path, where the scans read each
    // block they visit through one layout pass and no row.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 120,
    };
    for name in [
        "zipf-services-large",
        "euclid-grid-large",
        "cold-scatter-large",
    ] {
        let sc = by_name(name).unwrap().build(&profile, 5).expect(name);
        for (sc, passes) in [(lend_rows(&sc), false), (hide_rows(&sc), true)] {
            let engine = PdOmflp::new(sc.instance());
            assert_eq!(engine.partial_rows_active(), passes, "{}", sc.name);
            let (skipped, _) = assert_targets_lockstep(&sc, engine, &sc.name);
            assert!(
                skipped > 0,
                "{}: the prune never skipped a block on a hotspot workload",
                sc.name
            );
        }
    }
}

/// Serves `sc` on `engine` and, after every arrival, checks every t3/t4
/// block bound against the exact minimum of `(f − B)⁺` over its block,
/// recomputed from the engine's own bids. A shrink that fails to mark a
/// block it lowered leaves that bound stale low: still a sound lower
/// bound, so outcomes stay bit-identical and only this check sees it.
/// Returns the number of arrivals that opened a large facility.
fn assert_bounds_exact(sc: &Scenario, mut engine: PdOmflp<'_>, label: &str) -> usize {
    let inst = sc.instance();
    let (m, s) = (inst.num_points(), inst.num_commodities());
    let blocks = engine.opening_targets().block_partition();
    let rows: Vec<Option<CommodityId>> = (0..s as u16)
        .map(|e| Some(CommodityId(e)))
        .chain([None])
        .collect();
    let mut large_openings = 0;
    for (step, r) in sc.requests.iter().enumerate() {
        let out = engine
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: engine: {e}"));
        large_openings += usize::from(out.served_by_large && !out.opened.is_empty());
        let (b_small, b_large) = engine.bids();
        for &row in &rows {
            let key = |p: u32| {
                let p = PointId(p);
                let (f, b) = match row {
                    Some(e) => (inst.small_cost(p, e), b_small[e.index() * m + p.index()]),
                    None => (inst.large_cost(p), b_large[p.index()]),
                };
                (f - b).max(0.0)
            };
            let bounds = engine.opening_targets().bounds(row);
            for (bi, members) in blocks.iter().enumerate() {
                let exact =
                    members
                        .iter()
                        .map(|&p| key(p))
                        .fold(f64::INFINITY, |a, v| if v < a { v } else { a });
                assert_eq!(
                    bounds[bi].to_bits(),
                    exact.to_bits(),
                    "{label}: row {row:?} block {bi} after arrival {step}: \
                     bound {} vs exact minimum {exact}",
                    bounds[bi]
                );
            }
        }
    }
    large_openings
}

#[test]
fn block_bounds_stay_exact_minima_after_every_arrival() {
    let large = CatalogProfile {
        points: 40,
        services: 8,
        requests: 120,
    };
    let build = |name: &str, profile: &CatalogProfile| {
        by_name(name).unwrap().build(profile, 5).expect(name)
    };
    let graph = build("zipf-services-large", &large);
    let grid = build("euclid-grid-large", &large);
    // A line of a few hundred points, and the same clusters over a dense
    // matrix, which offers no coherent order: the identity layout.
    let line = build(
        "thm2-mix",
        &CatalogProfile {
            points: 300,
            services: 16,
            requests: 150,
        },
    );
    let clusters = build(
        "euclid-clusters",
        &CatalogProfile {
            points: 120,
            services: 9,
            requests: 150,
        },
    );
    let dense = DenseMetric::from_metric(clusters.metric.as_ref()).unwrap();
    let dense = Scenario::new(
        "euclid-clusters (dense)",
        Arc::new(dense),
        clusters.cost.clone(),
        clusters.requests.clone(),
    )
    .unwrap();
    assert!(
        dense.instance().metric().coherent_order().is_none(),
        "the dense metric must lay out the identity"
    );
    // Every scenario on the row path (behind `LendRows`), and all but the
    // dense matrix on the block-pass path too (behind `HideRows`).
    let rows = [&graph, &grid, &line, &dense].map(lend_rows);
    let passes = [&graph, &grid, &line].map(hide_rows);
    let mut runs = Vec::new();
    for (sc, partial) in rows
        .iter()
        .map(|sc| (sc, false))
        .chain(passes.iter().map(|sc| (sc, true)))
    {
        let engine = PdOmflp::new(sc.instance());
        assert_eq!(engine.partial_rows_active(), partial, "{}", sc.name);
        runs.push((sc.name.clone(), sc, engine));
    }
    // One arbitrary relabeling: ids reversed.
    let order: Vec<u32> = (0..graph.instance().num_points() as u32).rev().collect();
    let engine = PdOmflp::with_target_order(graph.instance(), order).unwrap();
    runs.push((
        "zipf-services-large (reversed order)".into(),
        &graph,
        engine,
    ));
    for (label, sc, engine) in runs {
        let large_openings = assert_bounds_exact(sc, engine, &label);
        assert!(large_openings > 0, "{label}: no large opening shrank B̂");
    }
}

/// The cold-query family is built to defeat the *distance-free* part of
/// the bound (ids scattered, queries hopping between far regions), so a
/// healthy skip rate here can only come from the relabeled radius bounds.
#[test]
fn cold_query_family_is_pruned_by_radius_bounds_alone() {
    let profile = CatalogProfile {
        points: 48, // × 32 scale → 1536 points
        services: 8,
        requests: 256,
    };
    let sc = by_name("cold-scatter-large")
        .unwrap()
        .build(&profile, 17)
        .expect("cold-scatter-large");
    let engine = PdOmflp::new(sc.instance());
    let (skipped, scanned) = assert_targets_lockstep(&sc, engine, "cold-scatter-large");
    let rate = skipped as f64 / (skipped + scanned).max(1) as f64;
    assert!(
        rate >= 0.5,
        "cold queries must be pruned by the radius bounds: skip rate {:.1}% \
         (skipped {skipped}, scanned {scanned})",
        100.0 * rate
    );
}

#[test]
fn corollary8_holds_on_every_cache_refresh_arrival() {
    for fam in registry() {
        let sc = fam.build(&profile(), 11).expect(fam.name);
        let inst = sc.instance();
        let mut pd = PdOmflp::new(inst);
        let mut refreshes = 0usize;
        for (step, r) in sc.requests.iter().enumerate() {
            let out = pd.serve(r).expect(fam.name);
            if out.opened.is_empty() {
                continue;
            }
            refreshes += 1;
            // The opening just updated the nearest caches and shrank caps;
            // the charging argument must survive the refresh.
            let cost = pd.solution().total_cost();
            let bound = 3.0 * pd.dual_sum();
            assert!(
                cost <= bound + 1e-7 * (1.0 + bound),
                "{}: Corollary 8 violated at refresh arrival {step}: \
                 cost {cost} > 3Σa = {bound}",
                fam.name
            );
        }
        assert!(
            refreshes > 0,
            "{}: no openings — the boundary was never exercised",
            fam.name
        );
        // Openings refresh the index exactly once each.
        assert_eq!(
            pd.facility_index().openings(),
            pd.solution().facilities().len(),
            "{}",
            fam.name
        );
    }
}

#[test]
fn scaled_dual_lower_bound_stays_below_cost_at_refreshes() {
    for fam in registry() {
        let sc = fam.build(&profile(), 23).expect(fam.name);
        let inst = sc.instance();
        let s = inst.num_commodities();
        let mut pd = PdOmflp::new(inst);
        for (step, r) in sc.requests.iter().enumerate() {
            let out = pd.serve(r).expect(fam.name);
            if out.opened.is_empty() {
                continue;
            }
            let cost = pd.solution().total_cost();
            let lb = pd.scaled_dual_lower_bound();
            let n = pd.past_requests().len();
            // γΣa ≤ OPT ≤ ALG's own (feasible) cost.
            assert!(
                lb <= cost + 1e-7 * (1.0 + cost),
                "{}: dual LB {lb} exceeds cost {cost} at refresh arrival {step}",
                fam.name
            );
            assert!(lb > 0.0, "{}: dual LB vanished after openings", fam.name);
            // The corollary-composition identity, in terms of the bounds
            // module's curve pieces: cost ≤ 3Σa = 15·√S·H_n·(γΣa).
            let curve = 15.0 * bounds::sqrt_s(s) * harmonic(n);
            assert!(
                cost <= curve * lb + 1e-6 * (1.0 + curve * lb),
                "{}: cost {cost} > 15·√S·H_n·LB = {} at refresh arrival {step}",
                fam.name,
                curve * lb
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The relabeling lives entirely inside the opening-target index, so an
    /// engine running under an ARBITRARY permutation of the block layout
    /// must be indistinguishable — outcome by outcome, bit by bit — from
    /// the stock engine (whose own layout is the metric's coherent order).
    /// This is the structural guarantee behind "relabeling never leaks":
    /// not one blessed order, but all of them.
    #[test]
    fn random_relabelings_never_change_engine_outcomes(
        family_idx in 0usize..64,
        seed in 0u64..10_000,
        perm_seed in 0u64..10_000,
        points in 4usize..20,
        services in 2u16..10,
        requests in 5usize..60,
    ) {
        let families = registry();
        let fam = families[family_idx % families.len()];
        let profile = CatalogProfile { points, services, requests };
        let sc = fam.build(&profile, seed).unwrap();
        let inst = sc.instance();
        let m = inst.num_points();
        // Deterministic Fisher–Yates driven by perm_seed.
        let mut order: Vec<u32> = (0..m as u32).collect();
        let mut st = perm_seed | 1;
        for i in (1..m).rev() {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            let j = (st % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut relabeled = PdOmflp::with_target_order(inst, order).unwrap();
        let mut reference = PdOmflp::new(inst);
        for (step, r) in sc.requests.iter().enumerate() {
            let a = relabeled.serve(r).unwrap();
            let b = reference.serve(r).unwrap();
            assert_eq!(a, b, "{}: outcome diverged at arrival {step}", fam.name);
        }
        assert_eq!(
            relabeled.dual_sum().to_bits(),
            reference.dual_sum().to_bits(),
            "{}: dual sums diverged", fam.name
        );
        assert_eq!(
            relabeled.solution().total_cost().to_bits(),
            reference.solution().total_cost().to_bits(),
            "{}: costs diverged", fam.name
        );
    }
}

#[test]
fn refresh_arrival_state_matches_a_fresh_replay() {
    // The cache-refresh arrival must leave the engine in a state
    // indistinguishable from replaying the prefix from scratch — i.e. the
    // incremental maintenance carries no hidden history dependence.
    let fam = registry()
        .into_iter()
        .find(|f| f.name == "zipf-services")
        .unwrap();
    let sc = fam.build(&profile(), 3).unwrap();
    let inst = sc.instance();
    let mut pd = PdOmflp::new(inst);
    for (step, r) in sc.requests.iter().enumerate() {
        let out = pd.serve(r).unwrap();
        if out.opened.is_empty() || step < 5 {
            continue;
        }
        let mut replay = PdOmflp::new(inst);
        for rr in &sc.requests[..=step] {
            replay.serve(rr).unwrap();
        }
        assert_eq!(
            pd.dual_sum().to_bits(),
            replay.dual_sum().to_bits(),
            "prefix replay diverged at {step}"
        );
        assert_eq!(
            pd.solution().total_cost().to_bits(),
            replay.solution().total_cost().to_bits()
        );
        break; // one deep replay per run keeps the test fast
    }
}

/// A bad relabeling — the identity order after `spoil` — through both
/// public constructors that take one: each must return a typed
/// `BadInstance` error naming the defect, not panic.
fn assert_relabeling_rejected(spoil: impl FnOnce(&mut Vec<u32>), defect: &str) {
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&profile(), 3)
        .expect("euclid-grid-large");
    let inst = sc.instance();
    let (m, s) = (inst.num_points(), inst.num_commodities());
    let mut order: Vec<u32> = (0..m as u32).collect();
    spoil(&mut order);
    let (f_small, f_full) = (vec![1.0; m * s], vec![2.0; m]);
    let errors = [
        PdOmflp::with_target_order(inst, order.clone()).err(),
        OpeningTargetIndex::with_order(inst, &f_small, &f_full, order).err(),
    ];
    for err in errors {
        match err {
            Some(CoreError::BadInstance(msg)) => {
                assert!(msg.contains(defect), "{defect}: message {msg:?}")
            }
            other => panic!("{defect}: expected BadInstance, got {other:?}"),
        }
    }
}

#[test]
fn relabeling_of_the_wrong_length_is_a_typed_error() {
    assert_relabeling_rejected(|order| order.truncate(order.len() - 1), "entries for");
}

#[test]
fn relabeling_with_a_repeated_point_is_a_typed_error() {
    assert_relabeling_rejected(|order| order[5] = order[4], "repeats point 4");
}

#[test]
fn relabeling_with_an_out_of_range_point_is_a_typed_error() {
    assert_relabeling_rejected(|order| order[0] = order.len() as u32, "out of range");
}
