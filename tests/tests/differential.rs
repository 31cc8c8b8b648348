//! Differential testing: the indexed PD serve path vs the retained
//! linear-scan reference engine.
//!
//! `omfl_core::pd::PdOmflp` rebuilt its hot path on the incremental index
//! layer (`omfl_core::index`): nearest-open-facility caches instead of
//! per-request facility scans, and location-bucketed cap accumulators
//! instead of full history walks on every opening. The claim is not
//! "approximately the same algorithm" but **bit-for-bit the same process**:
//! every `ServeOutcome`, every frozen dual, every cap and every cell of the
//! bid matrices must be identical to `omfl_core::naive::NaivePd` (the
//! pre-index implementation, frozen under the `naive-ref` feature).
//!
//! These tests drive both engines over the entire scenario catalog — every
//! family in `catalog::registry()` across several seeds and profile shapes,
//! plus proptest-driven random shapes — and compare with `to_bits`, not
//! tolerances.

mod common;

use common::{hide_rows, lend_rows};
use omfl_commodity::cost::{CostModel, FacilityCostFn};
use omfl_commodity::{CommoditySet, Universe};
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::instance::Instance;
use omfl_core::naive::NaivePd;
use omfl_core::pd::PdOmflp;
use omfl_core::request::Request;
use omfl_core::CoreError;
use omfl_metric::line::LineMetric;
use omfl_metric::tree::TreeMetric;
use omfl_metric::PointId;
use omfl_workload::catalog::{registry, CatalogProfile, Family};
use omfl_workload::Scenario;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Serves `scenario` with both engines, asserting bit-identical behavior at
/// every arrival and over the whole frozen dual state at the end.
fn assert_bit_identical(scenario: &Scenario, label: &str) {
    assert_matches_naive(PdOmflp::new(scenario.instance()), scenario, label);
}

/// [`assert_bit_identical`] for an engine built by the caller.
fn assert_matches_naive(mut fast: PdOmflp<'_>, scenario: &Scenario, label: &str) {
    let inst = scenario.instance();
    let mut slow = NaivePd::new(inst);

    for (step, r) in scenario.requests.iter().enumerate() {
        let a = fast
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: indexed serve failed: {e}"));
        let b = slow
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: naive serve failed: {e}"));
        // ServeOutcome's PartialEq compares exact f64 values.
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
        assert_eq!(
            fast.dual_sum().to_bits(),
            slow.dual_sum().to_bits(),
            "{label}: dual sum diverged at arrival {step}"
        );
    }

    // Solutions: same facilities (location, configuration, cost, opening
    // time) and the same cost accounting, bitwise.
    let (fs, ns) = (fast.solution(), slow.solution());
    assert_eq!(fs.facilities().len(), ns.facilities().len(), "{label}");
    for (ff, nf) in fs.facilities().iter().zip(ns.facilities()) {
        assert_eq!(ff.location, nf.location, "{label}");
        assert_eq!(ff.config, nf.config, "{label}");
        assert_eq!(ff.cost.to_bits(), nf.cost.to_bits(), "{label}");
        assert_eq!(ff.opened_at, nf.opened_at, "{label}");
    }
    assert_eq!(
        fs.total_cost().to_bits(),
        ns.total_cost().to_bits(),
        "{label}: total cost"
    );
    assert_eq!(
        fs.construction_cost().to_bits(),
        ns.construction_cost().to_bits(),
        "{label}: construction cost"
    );
    assert_eq!(
        fs.connection_cost().to_bits(),
        ns.connection_cost().to_bits(),
        "{label}: connection cost"
    );

    // Frozen dual state: duals, caps and the joint caps per past request.
    assert_eq!(fast.past_requests().len(), slow.past_requests().len());
    for (i, (fp, np)) in fast
        .past_requests()
        .iter()
        .zip(slow.past_requests())
        .enumerate()
    {
        assert_eq!(fp.location, np.location, "{label}: request {i}");
        assert_eq!(fp.commodities, np.commodities, "{label}: request {i}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fp.duals), bits(&np.duals), "{label}: duals of {i}");
        assert_eq!(bits(&fp.caps), bits(&np.caps), "{label}: caps of {i}");
        assert_eq!(
            fp.cap_total.to_bits(),
            np.cap_total.to_bits(),
            "{label}: joint cap of {i}"
        );
    }

    // Bid matrices, cell by cell across the layout transpose (indexed B is
    // commodity-major `e·m + p`; the reference kept point-major `p·s + e`).
    let (m, s) = (inst.num_points(), inst.num_commodities());
    let (fb, fbh) = fast.bids();
    let (nb, nbh) = slow.bids();
    for p in 0..m {
        for e in 0..s {
            assert_eq!(
                fb[e * m + p].to_bits(),
                nb[p * s + e].to_bits(),
                "{label}: B[{p}][{e}]"
            );
        }
    }
    for p in 0..m {
        assert_eq!(fbh[p].to_bits(), nbh[p].to_bits(), "{label}: B-hat[{p}]");
    }
}

#[test]
fn indexed_pd_matches_naive_on_every_catalog_family() {
    let profile = CatalogProfile {
        points: 12,
        services: 9,
        requests: 60,
    };
    for fam in registry() {
        for seed in [1u64, 7, 2020] {
            let sc = fam.build(&profile, seed).expect(fam.name);
            assert_bit_identical(&sc, &format!("{} (seed {seed})", fam.name));
        }
    }
}

#[test]
fn indexed_pd_matches_naive_on_long_streams_with_openings() {
    // Longer streams exercise the cap-shrink passes hard: late openings
    // must shrink exactly the same caps in exactly the same order.
    let profile = CatalogProfile {
        points: 16,
        services: 12,
        requests: 220,
    };
    for fam in registry().into_iter().take(4) {
        let sc = fam.build(&profile, 99).expect(fam.name);
        assert_bit_identical(&sc, &format!("{} (long)", fam.name));
    }
}

#[test]
fn indexed_pd_matches_naive_beyond_the_dense_distance_cap_shape() {
    // A skinny profile (more points than the families usually get) checks
    // the row-slice arithmetic near the profile edges; stored and cached
    // rows are value-identical to metric calls by construction.
    let profile = CatalogProfile {
        points: 40,
        services: 4,
        requests: 80,
    };
    for fam in registry() {
        let sc = fam.build(&profile, 5).expect(fam.name);
        assert_bit_identical(&sc, &format!("{} (skinny)", fam.name));
    }
}

/// A degenerate metric where *every* distance is zero: all |M| locations
/// key identically in the t3/t4 scans (facility costs are
/// location-independent and the bid rows stay uniform), so every argmin is
/// a maximal tie and the strict-`<` first-winner rule is all that
/// distinguishes locations. The opening-target memo must reproduce that
/// winner exactly.
fn tie_storm(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(4);
    let m = p.points.max(6);
    let metric = Arc::new(LineMetric::new(vec![2.5; m]).expect("coincident line"));
    let cost = CostModel::power(s, 1.0, 1.5);
    let universe = cost.universe();
    let mut state = seed | 1;
    let mut requests = Vec::with_capacity(p.requests);
    for i in 0..p.requests {
        // Simple xorshift so streams vary by seed without pulling rand in.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let loc = PointId((state % m as u64) as u32);
        let a = (i as u16) % s;
        let b = (state >> 32) as u16 % s;
        requests.push(Request::new(
            loc,
            CommoditySet::from_ids(universe, &[a, b]).map_err(CoreError::Commodity)?,
        ));
    }
    Scenario::new(format!("tie-storm(|M|={m})"), metric, cost, requests)
}

/// Repeated budget bumps on the *same* locations: a tight two-point cluster
/// plus a far outpost. The stream hammers the cluster with the same bundle,
/// so every freeze reinvests bids into the identical small location set
/// over and over (the moved-log repair path), with periodic far requests
/// that trigger openings (the epoch-invalidation path).
fn bump_hammer(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(4);
    let metric =
        Arc::new(LineMetric::new(vec![0.0, 0.125, 0.25, 40.0, 40.125]).expect("cluster line"));
    let cost = CostModel::power(s, 1.0, 2.0);
    let universe = cost.universe();
    let mut requests = Vec::with_capacity(p.requests);
    for i in 0..p.requests {
        let (loc, ids): (u32, Vec<u16>) = if i % 11 == 10 {
            // Outpost burst: forces openings → cap shrinks → epoch bumps.
            (3 + (i as u32 / 11) % 2, vec![(i as u16) % s])
        } else {
            // Cluster hammer: same bundle, alternating coincident-ish
            // locations — every freeze bumps the same budget cells.
            (
                (i as u32 + seed as u32) % 3,
                vec![0, 1 % s, (seed as u16 + 2) % s],
            )
        };
        requests.push(Request::new(
            PointId(loc),
            CommoditySet::from_ids(universe, &ids).map_err(CoreError::Commodity)?,
        ));
    }
    Scenario::new("bump-hammer(|M|=5)".to_string(), metric, cost, requests)
}

#[test]
fn indexed_pd_matches_naive_under_tie_storms_and_budget_hammering() {
    let profile = CatalogProfile {
        points: 14,
        services: 10,
        requests: 160,
    };
    for fam in [
        Family::new("tie-storm", "max-tie argmins", tie_storm),
        Family::new(
            "bump-hammer",
            "repeated same-location budget bumps",
            bump_hammer,
        ),
    ] {
        for seed in [2u64, 13, 77] {
            let sc = fam.build(&profile, seed).expect(fam.name);
            assert_bit_identical(&sc, &format!("{} (seed {seed})", fam.name));
        }
    }
}

/// `scenario` with its facility costs scaled per location by
/// `1 + spread·U(0, 1)`.
fn location_priced(scenario: &Scenario, spread: f64, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let scales = (0..scenario.instance().num_points())
        .map(|_| 1.0 + spread * rng.gen::<f64>())
        .collect();
    let cost = scenario
        .cost
        .clone()
        .location_scaled(scales)
        .expect("scales");
    Scenario::new(
        format!("{} priced ×{spread}", scenario.name),
        Arc::clone(&scenario.metric),
        cost,
        scenario.requests.clone(),
    )
    .expect("priced scenario")
}

/// Every catalog family at one seed, priced per location at spreads 0.5
/// and 4, on the row path (behind `LendRows`) and on the block-pass path
/// (behind `HideRows`). The catalog prices facilities alike at every
/// location. Here `f^e_m` and `f^S_m` differ per location, and both
/// engines must still agree on both paths, whose relabeled blocks, block
/// bounds and block passes all read them. One test per seed, so the
/// harness runs the seeds' graph closures in parallel.
fn assert_location_priced_families_match_naive(seed: u64) {
    let profile = CatalogProfile {
        points: 96,
        services: 6,
        requests: 160,
    };
    for fam in registry() {
        let base = fam.build(&profile, seed).expect(fam.name);
        for spread in [0.5, 4.0] {
            let sc = location_priced(&base, spread, seed);
            for (sc, partial) in [(lend_rows(&sc), false), (hide_rows(&sc), true)] {
                let pd = PdOmflp::new(sc.instance());
                assert_eq!(pd.partial_rows_active(), partial, "{}", sc.name);
                let label = format!("{} (seed {seed})", sc.name);
                assert_matches_naive(pd, &sc, &label);
            }
        }
    }
}

#[test]
fn indexed_pd_matches_naive_under_location_dependent_costs_seed_3() {
    assert_location_priced_families_match_naive(3);
}

#[test]
fn indexed_pd_matches_naive_under_location_dependent_costs_seed_31() {
    assert_location_priced_families_match_naive(31);
}

#[test]
fn indexed_pd_matches_naive_under_location_dependent_costs_seed_313() {
    assert_location_priced_families_match_naive(313);
}

/// Unit costs per commodity, except at location `at`: every configuration
/// there costs `bad`, or only the full set with `full_only`.
struct PricedAt {
    universe: Universe,
    at: usize,
    bad: f64,
    full_only: bool,
}

impl FacilityCostFn for PricedAt {
    fn universe(&self) -> Universe {
        self.universe
    }

    fn cost(&self, location: usize, config: &CommoditySet) -> f64 {
        let full = config.len() == self.universe.len();
        if location == self.at && (full || !self.full_only) {
            self.bad
        } else {
            config.len() as f64
        }
    }
}

#[test]
fn both_engines_reject_nan_negative_and_infinite_facility_costs() {
    // A 3-point line with |S| = 2, one location priced at an unusable
    // value. Both engines still construct, and every serve returns the
    // same typed error, naming the first bad cost, before any state moves.
    let universe = Universe::new(2).unwrap();
    for bad in [f64::NAN, -1.0, f64::INFINITY] {
        for (at, full_only, names) in [
            (1, false, "location 1 for commodity 0"),
            (2, true, "location 2 for full"),
        ] {
            let cost = PricedAt {
                universe,
                at,
                bad,
                full_only,
            };
            let metric = Box::new(LineMetric::new(vec![0.0, 1.0, 3.0]).unwrap());
            let inst = Instance::with_cost_fn(metric, Box::new(cost)).unwrap();
            let label = format!("f = {bad} at {names}");
            let requests: Vec<Request> = (0..3u32)
                .map(|p| Request::new(PointId(p), CommoditySet::full(universe)))
                .collect();
            let mut fast = PdOmflp::new(&inst);
            let mut slow = NaivePd::new(&inst);
            for r in &requests {
                for err in [fast.serve(r).unwrap_err(), slow.serve(r).unwrap_err()] {
                    let CoreError::BadInstance(msg) = &err else {
                        panic!("{label}: expected BadInstance, got {err:?}");
                    };
                    assert!(msg.contains(names), "{label}: {msg}");
                    assert!(msg.contains(&format!("is {bad}")), "{label}: {msg}");
                }
            }
            assert_eq!(fast.solution().num_requests(), 0, "{label}");
            assert_eq!(slow.solution().num_requests(), 0, "{label}");
            assert!(fast.past_requests().is_empty() && slow.past_requests().is_empty());
        }
    }
}

/// A hub at depth `2^26` whose 30–99 leaves hang a fraction of an ulp to
/// three ulps below it, priced per location: the tree's stored depths
/// differ in their last bits, where a distance computed as
/// `depth(a) + depth(b) − 2·depth(lca)` breaks the triangle inequality the
/// engine's block bounds rely on.
fn ulp_tree(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let hub = 2f64.powi(26);
    let ulp = hub * f64::EPSILON;
    let leaves = rng.gen_range(30..100);
    let mut parents = vec![None, Some((0, hub))];
    for _ in 0..leaves {
        let k = [0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 1.0, 2.0, 3.0][rng.gen_range(0..9usize)];
        parents.push(Some((1, k * ulp)));
    }
    let m = parents.len();
    let metric = Arc::new(TreeMetric::new(&parents).expect("tree"));
    let scales = (0..m)
        .map(|_| [1.0, 1.5, 2.0, 2.5, 1e9][rng.gen_range(0..5usize)])
        .collect();
    let cost = CostModel::power(2, 1.0, 2.0 * ulp)
        .location_scaled(scales)
        .expect("scales");
    let universe = cost.universe();
    let requests = (0..30)
        .map(|_| {
            let at = PointId(rng.gen_range(0..m as u32));
            let e = rng.gen_range(0..2u16);
            Request::new(
                at,
                CommoditySet::from_ids(universe, &[e]).expect("commodity"),
            )
        })
        .collect();
    Scenario::new(format!("ulp-tree(seed {seed})"), metric, cost, requests).expect("ulp tree")
}

#[test]
fn indexed_pd_matches_naive_on_trees_with_ulp_scale_edges() {
    // About one seed in twenty diverged under the rounded-sum distance.
    for seed in 0..200u64 {
        assert_bit_identical(&ulp_tree(seed), &format!("ulp-tree (seed {seed})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (family, seed, shape) triples: the indexed and reference
    /// engines must be bit-identical everywhere, not just on hand-picked
    /// profiles.
    #[test]
    fn indexed_pd_matches_naive_on_random_catalog_draws(
        family_idx in 0usize..64,
        seed in 0u64..10_000,
        points in 4usize..20,
        services in 2u16..14,
        requests in 5usize..70,
    ) {
        let families = registry();
        let fam = families[family_idx % families.len()];
        let profile = CatalogProfile { points, services, requests };
        let sc = fam.build(&profile, seed).unwrap();
        assert_bit_identical(&sc, &format!("{} (prop seed {seed})", fam.name));
    }
}
