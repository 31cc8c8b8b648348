//! Meyerson's randomized online facility location \[13\] for a single
//! commodity — the ancestor of RAND-OMFLP and the engine of the
//! per-commodity decomposition baseline.
//!
//! Non-uniform facility costs are handled with the same power-of-two cost
//! classes as RAND-OMFLP; with uniform costs the algorithm degenerates to
//! the classic "open at the request point with probability `min(1, d/f)`"
//! rule (up to the class rounding). The expected competitive ratio is
//! `O(log n / log log n)`.

use omfl_commodity::CommoditySet;
use omfl_core::algorithm::{OnlineAlgorithm, ServeOutcome};
use omfl_core::index::FacilityIndex;
use omfl_core::instance::Instance;
use omfl_core::request::Request;
use omfl_core::solution::{FacilityId, Solution};
use omfl_core::CoreError;
use omfl_metric::PointId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Meyerson's algorithm over a **single-commodity** instance
/// (`|S| = 1`; construct one with
/// [`crate::project::single_commodity_instance`]).
pub struct MeyersonOfl<'a, R: Rng = StdRng> {
    inst: &'a Instance,
    rng: R,
    sol: Solution,
    /// Ascending (rounded cost, members) classes over `f_m`.
    classes: Vec<(f64, Vec<PointId>)>,
    /// Nearest-open-facility cache (all facilities are full-universe here,
    /// so only the large side is used).
    index: FacilityIndex,
    /// The opening location's distance row, reused across openings.
    row: Vec<f64>,
}

impl<'a> MeyersonOfl<'a, StdRng> {
    /// Creates the algorithm with a seeded RNG.
    pub fn new(inst: &'a Instance, seed: u64) -> Result<Self, CoreError> {
        Self::with_rng(inst, StdRng::seed_from_u64(seed))
    }
}

impl<'a, R: Rng> MeyersonOfl<'a, R> {
    /// Creates the algorithm with an explicit RNG. Fails unless `|S| = 1`.
    pub fn with_rng(inst: &'a Instance, rng: R) -> Result<Self, CoreError> {
        if inst.num_commodities() != 1 {
            return Err(CoreError::BadInstance(format!(
                "MeyersonOfl requires a single-commodity instance, got |S| = {}",
                inst.num_commodities()
            )));
        }
        // Build cost classes (round down to powers of two).
        let mut rounded: Vec<(f64, u32)> = (0..inst.num_points())
            .map(|p| {
                let c = inst.large_cost(PointId(p as u32));
                debug_assert!(c > 0.0);
                (2f64.powi(c.log2().floor() as i32), p as u32)
            })
            .collect();
        rounded.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        let mut classes: Vec<(f64, Vec<PointId>)> = Vec::new();
        for (c, p) in rounded {
            match classes.last_mut() {
                Some((cc, pts)) if *cc == c => pts.push(PointId(p)),
                _ => classes.push((c, vec![PointId(p)])),
            }
        }
        Ok(Self {
            inst,
            rng,
            sol: Solution::new(),
            classes,
            index: FacilityIndex::for_instance(inst),
            row: vec![0.0; inst.num_points()],
        })
    }

    fn nearest_open(&self, from: PointId) -> Option<(FacilityId, f64)> {
        self.index.nearest_large(from)
    }

    fn open_at(&mut self, at: PointId, opened: &mut Vec<FacilityId>) {
        let fid = self
            .sol
            .open_facility(self.inst, at, CommoditySet::full(self.inst.universe()));
        self.inst.fill_row(at, &mut self.row);
        self.index.note_opening(None, &self.row, fid);
        opened.push(fid);
    }
}

impl<R: Rng> OnlineAlgorithm for MeyersonOfl<'_, R> {
    fn serve(&mut self, request: &Request) -> Result<ServeOutcome, CoreError> {
        request.validate(self.inst)?;
        let loc = request.location();
        let start_con = self.sol.construction_cost();
        let mut opened = Vec::new();

        // Budget X = min(d(F, r), min_i (C_i + d(C_i, r))).
        let d_open = self.nearest_open(loc).map(|(_, d)| d);
        let mut class_near = Vec::with_capacity(self.classes.len());
        let mut best_open = f64::INFINITY;
        let mut best_open_at = PointId(0);
        for (c, pts) in &self.classes {
            let (p, d) = pts
                .iter()
                .map(|&p| (p, self.inst.distance(loc, p)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("classes are non-empty");
            class_near.push((*c, p, d));
            if c + d < best_open {
                best_open = c + d;
                best_open_at = p;
            }
        }
        let x = d_open.unwrap_or(f64::INFINITY).min(best_open);

        // Coin flips per class (telescoping distances, virtual d(C_0) = X).
        let mut prev_d = x;
        let flips: Vec<(f64, PointId, f64)> = class_near;
        for (c, p, d) in flips {
            let pr = ((prev_d - d) / c).clamp(0.0, 1.0);
            if pr > 0.0 && self.rng.gen::<f64>() < pr {
                self.open_at(p, &mut opened);
            }
            prev_d = d;
        }

        // Guarantee service (Meyerson's first-request rule generalized).
        if self.index.openings() == 0 {
            self.open_at(best_open_at, &mut opened);
        }
        let (fid, _) = self.nearest_open(loc).expect("at least one open facility");
        let assignment = self.sol.assign(self.inst, request.clone(), &[fid]);
        Ok(ServeOutcome {
            opened,
            assigned_to: assignment.facilities.clone(),
            connection_cost: assignment.connection_cost,
            construction_cost: self.sol.construction_cost() - start_con,
            served_by_large: true,
        })
    }

    fn solution(&self) -> &Solution {
        &self.sol
    }

    fn name(&self) -> &'static str {
        "meyerson-ofl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::single_commodity_instance;
    use omfl_commodity::cost::CostModel;
    use omfl_commodity::CommodityId;
    use omfl_core::algorithm::run_online_verified;
    use omfl_metric::line::LineMetric;
    use omfl_metric::Metric;
    use std::sync::Arc;

    fn sub_instance(positions: Vec<f64>, fcost: f64) -> Instance {
        let metric: Arc<dyn Metric> = Arc::new(LineMetric::new(positions).unwrap());
        single_commodity_instance(metric, CostModel::power(1, 2.0, fcost), CommodityId(0)).unwrap()
    }

    fn req(inst: &Instance, loc: u32) -> Request {
        Request::new(PointId(loc), CommoditySet::full(inst.universe()))
    }

    #[test]
    fn rejects_multi_commodity_instances() {
        let inst = omfl_core::instance::Instance::new(
            Box::new(LineMetric::single_point()),
            3,
            CostModel::power(3, 1.0, 1.0),
        )
        .unwrap();
        assert!(MeyersonOfl::new(&inst, 1).is_err());
    }

    #[test]
    fn first_request_always_opens() {
        let inst = sub_instance(vec![0.0, 5.0], 4.0);
        for seed in 0..10 {
            let mut alg = MeyersonOfl::new(&inst, seed).unwrap();
            let out = alg.serve(&req(&inst, 1)).unwrap();
            assert!(!out.opened.is_empty());
            alg.solution().verify(&inst).unwrap();
        }
    }

    #[test]
    fn colocated_requests_reuse_the_facility() {
        let inst = sub_instance(vec![0.0], 10.0);
        let mut alg = MeyersonOfl::new(&inst, 7).unwrap();
        for _ in 0..50 {
            alg.serve(&req(&inst, 0)).unwrap();
        }
        alg.solution().verify(&inst).unwrap();
        // All requests at the facility point: zero connection cost and
        // exactly one facility (X = 0 after the first, so no more coins).
        assert_eq!(alg.solution().facilities().len(), 1);
        assert_eq!(alg.solution().connection_cost(), 0.0);
    }

    #[test]
    fn feasible_on_spread_requests() {
        let inst = sub_instance((0..20).map(|i| i as f64).collect(), 3.0);
        let reqs: Vec<Request> = (0..20u32).map(|i| req(&inst, (i * 7) % 20)).collect();
        for seed in [0u64, 3, 11] {
            let mut alg = MeyersonOfl::new(&inst, seed).unwrap();
            run_online_verified(&mut alg, &inst, &reqs).unwrap();
        }
    }

    #[test]
    fn cost_is_reasonable_vs_opt_on_cluster() {
        // 30 requests at one point, facility cost 8: OPT = 8. Meyerson's
        // expected cost is O(8) here; check a generous multiple.
        let inst = sub_instance(vec![0.0], 8.0);
        let mut total = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let mut alg = MeyersonOfl::new(&inst, seed).unwrap();
            for _ in 0..30 {
                alg.serve(&req(&inst, 0)).unwrap();
            }
            total += alg.solution().total_cost();
        }
        let mean = total / trials as f64;
        assert!(mean < 4.0 * 8.0, "mean {mean} should be O(OPT = 8)");
    }
}
