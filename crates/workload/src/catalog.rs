//! The scenario catalog: named, parameterized, seedable workload families.
//!
//! Each [`Family`] probes a regime where the paper's `O(√|S|·log n)` bound
//! (Theorem 4) or its baselines behave differently — heavy-tailed demand,
//! drifting and bursty arrivals, regular vs clustered vs hierarchical
//! topologies, and adversarial gadgets diluted with stochastic noise. The
//! [`registry`] is the corpus behind the engine-conformance suite, the
//! sharded sweep harness (`omfl_sim::sweep`), and the `catalog-sweep`
//! experiment.
//!
//! Every family is deterministic given `(profile, seed)`, so sweeps
//! reproduce bit-for-bit across runs and thread counts.

use crate::adversarial;
use crate::composite;
use crate::demand::{default_bundles, DemandModel};
use crate::scenario::Scenario;
use crate::spatial;
use omfl_commodity::cost::{CostModel, FacilityCostFn};
use omfl_commodity::{CommodityId, CommoditySet};
use omfl_core::request::Request;
use omfl_core::CoreError;
use omfl_metric::tree::TreeMetric;
use omfl_metric::{Metric, PointId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Size knobs shared by every family. Families interpret them approximately
/// (a dyadic line rounds `points` to `2^levels + 1`; bundle families clamp
/// `services` up to the 8 the default bundle catalogue needs).
#[derive(Debug, Clone)]
pub struct CatalogProfile {
    /// Approximate metric size `|M|`.
    pub points: usize,
    /// Number of commodities `|S|`.
    pub services: u16,
    /// Approximate request-stream length `n`.
    pub requests: usize,
}

impl Default for CatalogProfile {
    fn default() -> Self {
        Self {
            points: 24,
            services: 9,
            requests: 120,
        }
    }
}

impl CatalogProfile {
    /// A profile small enough for per-arrival invariant checks and CI.
    pub fn small() -> Self {
        Self {
            points: 12,
            services: 8,
            requests: 48,
        }
    }
}

/// A named scenario family: a seedable builder plus the regime it probes.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// Stable family name (sweep tables group by it).
    pub name: &'static str,
    /// The paper / related-work regime this family exercises.
    pub regime: &'static str,
    builder: fn(&CatalogProfile, u64) -> Result<Scenario, CoreError>,
}

impl Family {
    /// Defines a family outside the built-in registry — downstream corpora
    /// and tests (e.g. the scheduler-skew determinism suite) extend sweeps
    /// with custom families this way.
    pub fn new(
        name: &'static str,
        regime: &'static str,
        builder: fn(&CatalogProfile, u64) -> Result<Scenario, CoreError>,
    ) -> Self {
        Self {
            name,
            regime,
            builder,
        }
    }

    /// Builds one concrete scenario of this family.
    pub fn build(&self, profile: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
        (self.builder)(profile, seed)
    }
}

/// All catalog families, in fixed order (sweep tables and the canonical CSV
/// rely on this order being stable).
pub fn registry() -> Vec<Family> {
    vec![
        Family {
            name: "zipf-services",
            regime: "heavy-tailed service popularity on a network (§1 motivating \
                     scenario; few hot services dominate, as in web workloads)",
            builder: zipf_services,
        },
        Family {
            name: "hotspot-drift",
            regime: "non-stationary demand whose mode migrates across the metric \
                     (the regime where irrevocable early openings go stale, cf. \
                     online facility location with deletions)",
            builder: hotspot_drift,
        },
        Family {
            name: "burst-arrivals",
            regime: "correlated bursts: one location repeats a bundle many times \
                     in a row (t-bounded/weak-adversary arrival orders, §1.2)",
            builder: burst_arrivals,
        },
        Family {
            name: "euclid-grid",
            regime: "regular Euclidean grid with uniform demand — the isotropic \
                     baseline where log n, not √|S|, drives the ratio",
            builder: euclid_grid,
        },
        Family {
            name: "euclid-clusters",
            regime: "clustered plane with bundle demand (Figure 3 serve-mode \
                     workload: joint facilities pay off inside clusters)",
            builder: euclid_clusters,
        },
        Family {
            name: "tree-hierarchy",
            regime: "complete-binary-tree metric with bundle demand \
                     (hierarchical topologies / HST embeddings of related work)",
            builder: tree_hierarchy,
        },
        Family {
            name: "thm2-mix",
            regime: "Theorem 2 single-point Ω(√|S|) adversary diluted with \
                     uniform stochastic requests — how fast the lower-bound \
                     pressure washes out",
            builder: thm2_mix,
        },
        Family {
            name: "dyadic-mix",
            regime: "Fotakis-style dyadic line (Corollary 3's log n/log log n \
                     term) layered with Zipf stochastic noise",
            builder: dyadic_mix,
        },
        Family {
            name: "zipf-services-large",
            regime: "zipf-services at a large-metric scale (|M| = 32·points, \
                     4096 at points=128): the regime where per-arrival t3/t4 \
                     opening-target scans dominate PD serve and incremental \
                     argmin maintenance pays",
            builder: zipf_services_large,
        },
        Family {
            name: "euclid-grid-large",
            regime: "hotspot-skewed Euclidean grid at |M| = 64·points (16384 \
                     at points=256) — beyond any dense distance matrix, the \
                     layout block-pass regime",
            builder: euclid_grid_large,
        },
        Family {
            name: "cold-scatter-large",
            regime: "id-scattered Euclidean clusters (|M| = 32·points) with \
                     region-hopping cold queries: point ids are random with \
                     respect to space, so id-order block bounds see every \
                     block straddle every cluster and prune nothing — only \
                     distance-aware (relabeled) pruning gets traction",
            builder: cold_scatter_large,
        },
    ]
}

/// Metric-size multiplier of `zipf-services-large` over the profile's
/// `points` (so small CI profiles stay tractable while bench profiles reach
/// |M| ≥ 4096).
pub const ZIPF_LARGE_POINTS_SCALE: usize = 32;

/// Metric-size multiplier of `euclid-grid-large` over the profile's
/// `points`.
pub const EUCLID_LARGE_POINTS_SCALE: usize = 64;

/// Metric-size multiplier of `cold-scatter-large` over the profile's
/// `points`.
pub const COLD_LARGE_POINTS_SCALE: usize = 32;

/// Looks a family up by its stable name.
pub fn by_name(name: &str) -> Option<Family> {
    registry().into_iter().find(|f| f.name == name)
}

// --- builders -------------------------------------------------------------

fn zipf_services(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(2);
    composite::service_network(
        p.points.max(2),
        p.points / 2,
        p.requests,
        DemandModel::Zipf {
            alpha: 1.1,
            k_max: 3,
        },
        CostModel::power(s, 1.0, 3.0),
        seed,
    )
}

fn hotspot_drift(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(2);
    let n_pts = p.points.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = spatial::random_line(n_pts, n_pts as f64, &mut rng).map_err(CoreError::Metric)?;
    let cost = CostModel::power(s, 1.0, 2.0);
    let universe = cost.universe();
    let locs = spatial::sample_locations_drift(n_pts, p.requests, 0.1, &mut rng);
    let requests = locs
        .into_iter()
        .map(|loc| {
            Request::new(
                PointId(loc),
                DemandModel::UniformK { k: 2 }.sample(universe, &mut rng),
            )
        })
        .collect();
    Scenario::new(
        format!("hotspot-drift(|M|={n_pts},n={})", p.requests),
        metric,
        cost,
        requests,
    )
}

fn burst_arrivals(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(8);
    let n_pts = p.points.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let metric =
        spatial::random_network(n_pts, n_pts / 2, 1.0, &mut rng).map_err(CoreError::Metric)?;
    let cost = CostModel::affine(s, 5.0, 0.6);
    let universe = cost.universe();
    let demand = DemandModel::Bundles {
        bundles: default_bundles(s),
        noise: 0.1,
    };
    // Bursts: one location and one bundle, repeated burst-length times. The
    // adversarially easy part is within-burst repetition; across bursts the
    // stream is stochastic.
    let burst_len = 6;
    let mut requests = Vec::with_capacity(p.requests);
    while requests.len() < p.requests {
        let loc = PointId(rng.gen_range(0..n_pts as u32));
        let d = demand.sample(universe, &mut rng);
        for _ in 0..burst_len.min(p.requests - requests.len()) {
            requests.push(Request::new(loc, d.clone()));
        }
    }
    Scenario::new(
        format!("burst-arrivals(|M|={n_pts},n={})", p.requests),
        metric,
        cost,
        requests,
    )
}

fn euclid_grid(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(2);
    // Squarest grid with ~`points` cells.
    let w = (p.points.max(4) as f64).sqrt().round() as usize;
    let h = p.points.max(4).div_ceil(w);
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = spatial::grid_plane(w, h, 1.0).map_err(CoreError::Metric)?;
    let n_pts = metric.len();
    let cost = CostModel::power(s, 1.0, 2.5);
    let universe = cost.universe();
    let locs = spatial::sample_locations(n_pts, p.requests, 0.0, &mut rng);
    let requests = locs
        .into_iter()
        .map(|loc| {
            Request::new(
                PointId(loc),
                DemandModel::UniformK { k: 2 }.sample(universe, &mut rng),
            )
        })
        .collect();
    Scenario::new(
        format!("euclid-grid({w}x{h},n={})", p.requests),
        metric,
        cost,
        requests,
    )
}

fn euclid_clusters(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(8);
    let clusters = 3;
    let per_cluster = p.points.max(clusters).div_ceil(clusters);
    composite::clustered_bundles(
        clusters,
        per_cluster,
        40.0,
        2.0,
        p.requests,
        DemandModel::Bundles {
            bundles: default_bundles(s),
            noise: 0.15,
        },
        CostModel::affine(s, 6.0, 0.75),
        seed,
    )
}

fn tree_hierarchy(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(8);
    let n_pts = p.points.max(3);
    let mut rng = StdRng::seed_from_u64(seed);
    let metric: Arc<dyn Metric> =
        Arc::new(TreeMetric::complete_binary(n_pts).map_err(CoreError::Metric)?);
    let cost = CostModel::affine(s, 4.0, 0.5);
    let universe = cost.universe();
    let demand = DemandModel::Bundles {
        bundles: default_bundles(s),
        noise: 0.1,
    };
    // Hotspot-biased locations: deep leaves are hot, so requests cluster in
    // subtrees and joint facilities at internal nodes pay off.
    let locs = spatial::sample_locations(n_pts, p.requests, 1.0, &mut rng);
    let requests = locs
        .into_iter()
        .map(|loc| Request::new(PointId(loc), demand.sample(universe, &mut rng)))
        .collect();
    Scenario::new(
        format!("tree-hierarchy(|M|={n_pts},n={})", p.requests),
        metric,
        cost,
        requests,
    )
}

fn thm2_mix(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(4);
    let n_pts = p.points.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = spatial::random_line(n_pts, 4.0, &mut rng).map_err(CoreError::Metric)?;
    let cost = CostModel::ceil_sqrt(s);
    let universe = cost.universe();

    // Adversarial stream: the Theorem 2 sequence (a random S' of size √|S|,
    // one singleton at a time) pinned to a random attack point.
    let attack = PointId(rng.gen_range(0..n_pts as u32));
    let sqrt_s = ((s as f64).sqrt().round() as usize).max(1);
    let mut ids: Vec<u16> = (0..s).collect();
    ids.shuffle(&mut rng);
    let adversarial: Vec<Request> = ids[..sqrt_s.min(s as usize)]
        .iter()
        .map(|&e| {
            Ok(Request::new(
                attack,
                CommoditySet::singleton(universe, CommodityId(e)).map_err(CoreError::Commodity)?,
            ))
        })
        .collect::<Result<Vec<_>, CoreError>>()?;

    // Stochastic stream: uniform locations, pairs of commodities.
    let stochastic: Vec<Request> = spatial::sample_locations(
        n_pts,
        p.requests.saturating_sub(adversarial.len()),
        0.0,
        &mut rng,
    )
    .into_iter()
    .map(|loc| {
        Request::new(
            PointId(loc),
            DemandModel::UniformK { k: 2 }.sample(universe, &mut rng),
        )
    })
    .collect();

    let requests = riffle(adversarial, stochastic, &mut rng);
    Scenario::new(
        format!("thm2-mix(|S|={s},n={})", requests.len()),
        metric,
        cost,
        requests,
    )
}

fn dyadic_mix(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(4);
    // 2^levels + 1 points ≈ profile.points.
    let levels = (usize::BITS - 1 - p.points.max(5).leading_zeros()).clamp(2, 6);
    let base = adversarial::dyadic_line(levels, 8.0, s, 2, seed)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD7AD);
    let universe = base.cost.universe();
    let n_pts = base.metric.len();
    let stochastic: Vec<Request> = spatial::sample_locations(n_pts, p.requests / 2, 1.0, &mut rng)
        .into_iter()
        .map(|loc| {
            Request::new(
                PointId(loc),
                DemandModel::Zipf {
                    alpha: 1.0,
                    k_max: 2,
                }
                .sample(universe, &mut rng),
            )
        })
        .collect();
    let merged = riffle(base.requests.clone(), stochastic, &mut rng);
    base.with_requests(merged)
}

fn zipf_services_large(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(2);
    let nodes = (p.points * ZIPF_LARGE_POINTS_SCALE).max(64);
    composite::service_network(
        nodes,
        nodes / 2,
        p.requests,
        DemandModel::Zipf {
            alpha: 1.1,
            k_max: 3,
        },
        CostModel::power(s, 1.0, 3.0),
        seed,
    )
}

fn euclid_grid_large(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(2);
    let target = (p.points * EUCLID_LARGE_POINTS_SCALE).max(256);
    let w = (target as f64).sqrt().round() as usize;
    let h = target.div_ceil(w);
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = spatial::grid_plane(w, h, 1.0).map_err(CoreError::Metric)?;
    let n_pts = metric.len();
    let cost = CostModel::power(s, 1.0, 2.5);
    let universe = cost.universe();
    // Hotspot-skewed locations (Zipf over a shuffled identity): big metric,
    // localized demand, so the layout's block passes skip most blocks.
    let locs = spatial::sample_locations(n_pts, p.requests, 1.0, &mut rng);
    let requests = locs
        .into_iter()
        .map(|loc| {
            Request::new(
                PointId(loc),
                DemandModel::UniformK { k: 2 }.sample(universe, &mut rng),
            )
        })
        .collect();
    Scenario::new(
        format!("euclid-grid-large({w}x{h},n={})", p.requests),
        metric,
        cost,
        requests,
    )
}

fn cold_scatter_large(p: &CatalogProfile, seed: u64) -> Result<Scenario, CoreError> {
    let s = p.services.max(2);
    let target = (p.points * COLD_LARGE_POINTS_SCALE).max(256);
    let clusters = (target / 8).clamp(2, 64);
    let per_cluster = target.div_ceil(clusters);
    let mut rng = StdRng::seed_from_u64(seed);
    // Tight clusters on a wide span, ids scattered across clusters: the
    // substrate where id-order block bounds are provably useless.
    let (metric, membership) =
        spatial::scattered_clustered_plane(clusters, per_cluster, 1024.0, 6.0, &mut rng)
            .map_err(CoreError::Metric)?;
    let cost = CostModel::power(s, 1.0, 2.5);
    let universe = cost.universe();
    // Cold queries: every arrival hops to a uniformly random cluster, so
    // consecutive requests land in unrelated regions and the budget mass
    // near one query says nothing about the next.
    let requests = (0..p.requests)
        .map(|_| {
            let c = rng.gen_range(0..clusters);
            let member = membership[c][rng.gen_range(0..membership[c].len())];
            Request::new(
                PointId(member),
                DemandModel::UniformK { k: 2 }.sample(universe, &mut rng),
            )
        })
        .collect();
    Scenario::new(
        format!(
            "cold-scatter-large({clusters}x{per_cluster},n={})",
            p.requests
        ),
        metric,
        cost,
        requests,
    )
}

/// Merges two streams into one, preserving each stream's internal order
/// (the adversarial nesting survives; the noise is interleaved at random
/// positions proportional to the remaining lengths).
fn riffle<R: Rng>(a: Vec<Request>, b: Vec<Request>, rng: &mut R) -> Vec<Request> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut rem_a, mut rem_b) = (a.len(), b.len());
    let (mut ia, mut ib) = (a.into_iter(), b.into_iter());
    while rem_a > 0 || rem_b > 0 {
        // Remaining counts drive the coin so the merge is unbiased.
        let take_a = rem_b == 0 || (rem_a > 0 && rng.gen_range(0..rem_a + rem_b) < rem_a);
        if take_a {
            out.push(ia.next().expect("rem_a > 0"));
            rem_a -= 1;
        } else {
            out.push(ib.next().expect("rem_b > 0"));
            rem_b -= 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_six_distinct_families() {
        let reg = registry();
        assert!(reg.len() >= 6, "catalog must expose ≥ 6 families");
        let mut names: Vec<&str> = reg.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "family names must be unique");
    }

    #[test]
    fn every_family_builds_and_is_non_empty() {
        let profile = CatalogProfile::small();
        for fam in registry() {
            let sc = fam.build(&profile, 7).unwrap_or_else(|e| {
                panic!("family {} failed to build: {e}", fam.name);
            });
            assert!(!sc.is_empty(), "{} produced no requests", fam.name);
            assert!(sc.instance().num_points() >= 1, "{}", fam.name);
            assert!(!fam.regime.is_empty());
        }
    }

    #[test]
    fn families_are_seed_deterministic_and_seed_sensitive() {
        let profile = CatalogProfile::small();
        for fam in registry() {
            let a = fam.build(&profile, 3).unwrap();
            let b = fam.build(&profile, 3).unwrap();
            assert_eq!(a.requests, b.requests, "{} not deterministic", fam.name);
            let c = fam.build(&profile, 4).unwrap();
            assert!(
                a.requests != c.requests || a.len() != c.len(),
                "{} ignores its seed",
                fam.name
            );
        }
    }

    #[test]
    fn by_name_finds_every_family() {
        for fam in registry() {
            assert!(by_name(fam.name).is_some(), "{} not found", fam.name);
        }
        assert!(by_name("no-such-family").is_none());
    }

    #[test]
    fn riffle_preserves_subsequence_order() {
        let cost = CostModel::power(4, 1.0, 1.0);
        let u = cost.universe();
        let mk =
            |loc: u32, e: u16| Request::new(PointId(loc), CommoditySet::from_ids(u, &[e]).unwrap());
        let a: Vec<Request> = (0..5).map(|i| mk(i, 0)).collect();
        let b: Vec<Request> = (0..5).map(|i| mk(i, 1)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let merged = riffle(a.clone(), b.clone(), &mut rng);
        assert_eq!(merged.len(), 10);
        let sub = |e: u16| -> Vec<u32> {
            merged
                .iter()
                .filter(|r| r.demand().first().unwrap().0 == e)
                .map(|r| r.location().0)
                .collect()
        };
        assert_eq!(sub(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(sub(1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn profile_scales_request_counts() {
        let small = CatalogProfile::small();
        let big = CatalogProfile {
            requests: 200,
            ..CatalogProfile::default()
        };
        let f = by_name("zipf-services").unwrap();
        assert!(f.build(&small, 1).unwrap().len() < f.build(&big, 1).unwrap().len());
    }
}
