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
//! radius-bounded opening-target prune against fresh full scans bitwise at
//! every arrival across the whole catalog (including the cold-query
//! adversary and past the dense distance cap), and drives *random*
//! relabelings through whole engine runs — the index's block layout must
//! never leak into engine-visible state.

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::index::OpeningTargetIndex;
use omfl_core::pd::PdOmflp;
use omfl_core::{bounds, harmonic, CoreError};
use omfl_workload::catalog::{by_name, registry, CatalogProfile};
use proptest::prelude::*;

fn profile() -> CatalogProfile {
    CatalogProfile {
        points: 12,
        services: 9,
        requests: 70,
    }
}

/// Locksteps the incremental engine against a scan-mode engine over one
/// scenario: identical outcomes and, at every non-fast-path arrival, the
/// memo-repaired t3/t4 targets must equal the fresh-scan argmins **bit for
/// bit** — value bits and winning location both.
fn assert_targets_lockstep(sc: &omfl_workload::Scenario, label: &str) -> (u64, u64) {
    let inst = sc.instance();
    let mut inc = PdOmflp::new(inst);
    let mut scan = PdOmflp::with_full_scans(inst);
    for (step, r) in sc.requests.iter().enumerate() {
        let a = inc
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: incremental: {e}"));
        let b = scan
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: scan: {e}"));
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
        match (inc.last_opening_targets(), scan.last_opening_targets()) {
            (None, None) => {} // both took the zero-distance large fast path
            (Some((t3i, t4i)), Some((t3s, t4s))) => {
                assert_eq!(t3i.len(), t3s.len(), "{label}: arrival {step}");
                for (slot, (ti, ts)) in t3i.iter().zip(t3s).enumerate() {
                    assert_eq!(
                        (ti.0.to_bits(), ti.1),
                        (ts.0.to_bits(), ts.1),
                        "{label}: t3 slot {slot} diverged at arrival {step} \
                         (memo {ti:?} vs fresh scan {ts:?})"
                    );
                }
                assert_eq!(
                    (t4i.0.to_bits(), t4i.1),
                    (t4s.0.to_bits(), t4s.1),
                    "{label}: t4 diverged at arrival {step}"
                );
            }
            (i, s) => panic!("{label}: fast-path divergence at arrival {step}: {i:?} vs {s:?}"),
        }
    }
    inc.opening_target_stats()
        .expect("incremental engine exposes stats")
}

#[test]
fn incremental_targets_equal_fresh_scans_at_every_arrival() {
    // Every catalog family — including the large-metric ones, which at this
    // profile cross DENSE_DISTANCE_CAP and run the blocked row cache.
    let mut total_skipped = 0;
    for fam in registry() {
        let sc = fam.build(&profile(), 29).expect(fam.name);
        let (skipped, scanned) = assert_targets_lockstep(&sc, fam.name);
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
    // ids are scattered against spatial structure — past DENSE_DISTANCE_CAP
    // (1280–2560 points) so the lockstep covers the blocked-row-cache
    // backend and the relabeled radius-bounded prune together.
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
        assert!(
            sc.instance().num_points() > omfl_core::pd::DENSE_DISTANCE_CAP,
            "{name}: profile failed to cross the dense cap"
        );
        let (skipped, _) = assert_targets_lockstep(&sc, name);
        assert!(
            skipped > 0,
            "{name}: the prune never skipped a block on a hotspot workload"
        );
    }
}

/// The cold-query family is built to defeat the *distance-free* part of
/// the bound (ids scattered, queries hopping between far regions), so a
/// healthy skip rate here can only come from the relabeled radius bounds.
#[test]
fn cold_query_family_is_pruned_by_radius_bounds_alone() {
    let profile = CatalogProfile {
        points: 48, // × 32 scale → 1536 points, past the dense cap
        services: 8,
        requests: 256,
    };
    let sc = by_name("cold-scatter-large")
        .unwrap()
        .build(&profile, 17)
        .expect("cold-scatter-large");
    let (skipped, scanned) = assert_targets_lockstep(&sc, "cold-scatter-large");
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
