//! A deterministic primal–dual single-commodity online facility location
//! algorithm in the style of Fotakis \[5\] (as presented primal–dually in
//! \[14\]) — the `O(log n)`-competitive ancestor of PD-OMFLP.
//!
//! Each arriving request raises a dual `a_r` until either
//!
//! * `a_r = d(F, r)` — connect to the nearest open facility, or
//! * `(a_r − d(m,r))⁺ + Σ_j (min{a_j, d(F, j)} − d(m,j))⁺ = f_m` — open a
//!   facility at `m` and connect there.
//!
//! This implementation is deliberately *independent* of [`omfl_core::pd`]
//! (bids are recomputed from scratch each arrival instead of maintained
//! incrementally), so it doubles as a differential-testing oracle:
//! PD-OMFLP restricted to `|S| = 1` must produce the same costs.
//!
//! The nearest-open-facility queries do share the
//! [`omfl_core::index::FacilityIndex`] cache (the per-arrival cap
//! recomputation asks `d(F, j)` for *every* past request, which the old
//! linear scan made `O(n·|F|)` per arrival); the cache returns bit-identical
//! distances and winners, so the oracle property is unaffected.

use omfl_commodity::CommoditySet;
use omfl_core::algorithm::{OnlineAlgorithm, ServeOutcome};
use omfl_core::index::FacilityIndex;
use omfl_core::instance::Instance;
use omfl_core::request::Request;
use omfl_core::solution::{FacilityId, Solution};
use omfl_core::CoreError;
use omfl_metric::PointId;

/// Deterministic primal–dual OFL over a **single-commodity** instance.
pub struct FotakisOfl<'a> {
    inst: &'a Instance,
    sol: Solution,
    /// Nearest-open-facility cache; every facility here is full-universe
    /// (`|S| = 1`), so only the large side of the index is used.
    index: FacilityIndex,
    /// The opening location's distance row, reused across openings.
    row: Vec<f64>,
    /// Frozen duals `a_j` in arrival order, with request locations.
    duals: Vec<(PointId, f64)>,
}

impl<'a> FotakisOfl<'a> {
    /// Creates the algorithm. Fails unless `|S| = 1`.
    pub fn new(inst: &'a Instance) -> Result<Self, CoreError> {
        if inst.num_commodities() != 1 {
            return Err(CoreError::BadInstance(format!(
                "FotakisOfl requires a single-commodity instance, got |S| = {}",
                inst.num_commodities()
            )));
        }
        Ok(Self {
            inst,
            sol: Solution::new(),
            index: FacilityIndex::for_instance(inst),
            row: vec![0.0; inst.num_points()],
            duals: Vec::new(),
        })
    }

    /// `Σ_j a_j`, for analysis-style assertions in tests.
    pub fn dual_sum(&self) -> f64 {
        self.duals.iter().map(|&(_, a)| a).sum()
    }

    fn nearest_open(&self, from: PointId) -> Option<(FacilityId, f64)> {
        self.index.nearest_large(from)
    }
}

impl OnlineAlgorithm for FotakisOfl<'_> {
    fn serve(&mut self, request: &Request) -> Result<ServeOutcome, CoreError> {
        request.validate(self.inst)?;
        let loc = request.location();
        let start_con = self.sol.construction_cost();

        // Fresh bids: caps against the *current* facility set.
        let caps: Vec<(PointId, f64)> = self
            .duals
            .iter()
            .map(|&(jloc, aj)| {
                let dj = self
                    .nearest_open(jloc)
                    .map(|(_, d)| d)
                    .unwrap_or(f64::INFINITY);
                (jloc, aj.min(dj))
            })
            .collect();

        let d_open = self.nearest_open(loc);
        let mut t_open = f64::INFINITY;
        let mut open_at = PointId(0);
        for p in 0..self.inst.num_points() {
            let m = PointId(p as u32);
            let f = self.inst.large_cost(m);
            let b: f64 = caps
                .iter()
                .map(|&(jloc, cap)| (cap - self.inst.distance(m, jloc)).max(0.0))
                .sum();
            let t = (f - b).max(0.0) + self.inst.distance(m, loc);
            if t < t_open {
                t_open = t;
                open_at = m;
            }
        }

        let d_conn = d_open.map(|(_, d)| d).unwrap_or(f64::INFINITY);
        let mut opened = Vec::new();
        let (fid, a_r) = if d_conn <= t_open {
            (
                d_open.expect("finite distance implies a facility").0,
                d_conn,
            )
        } else {
            let fid = self.sol.open_facility(
                self.inst,
                open_at,
                CommoditySet::full(self.inst.universe()),
            );
            self.inst.fill_row(open_at, &mut self.row);
            self.index.note_opening(None, &self.row, fid);
            opened.push(fid);
            (fid, t_open)
        };
        self.duals.push((loc, a_r));
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
        "fotakis-ofl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::single_commodity_instance;
    use omfl_commodity::cost::CostModel;
    use omfl_commodity::CommodityId;
    use omfl_core::algorithm::run_online_verified;
    use omfl_core::pd::PdOmflp;
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
    fn first_request_opens_at_cheapest_reachable_point() {
        let inst = sub_instance(vec![0.0, 10.0], 5.0);
        let mut alg = FotakisOfl::new(&inst).unwrap();
        let out = alg.serve(&req(&inst, 0)).unwrap();
        assert_eq!(out.opened.len(), 1);
        // Facility at the request point (f = 5 there vs 5 + 10 across).
        assert_eq!(alg.solution().facilities()[0].location, PointId(0));
        assert!((alg.solution().total_cost() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nearby_requests_connect_instead_of_opening() {
        let inst = sub_instance(vec![0.0, 0.5], 5.0);
        let mut alg = FotakisOfl::new(&inst).unwrap();
        alg.serve(&req(&inst, 0)).unwrap();
        let out = alg.serve(&req(&inst, 1)).unwrap();
        assert!(out.opened.is_empty());
        assert!((out.connection_cost - 0.5).abs() < 1e-9);
    }

    #[test]
    fn repeated_far_requests_eventually_open_second_facility() {
        let inst = sub_instance(vec![0.0, 100.0], 5.0);
        let mut alg = FotakisOfl::new(&inst).unwrap();
        alg.serve(&req(&inst, 0)).unwrap();
        // Requests at the far point: connecting costs 100 each; opening
        // costs 5, so the second far request must open locally.
        let out1 = alg.serve(&req(&inst, 1)).unwrap();
        assert_eq!(out1.opened.len(), 1, "far request opens its own facility");
        let out2 = alg.serve(&req(&inst, 1)).unwrap();
        assert!(out2.opened.is_empty());
        assert_eq!(out2.connection_cost, 0.0);
        alg.solution().verify(&inst).unwrap();
    }

    #[test]
    fn matches_pd_omflp_on_single_commodity() {
        // Differential test: PD-OMFLP restricted to |S| = 1 implements the
        // same primal–dual process, so total costs must agree.
        let positions: Vec<f64> = vec![0.0, 1.0, 2.5, 4.0, 7.0, 11.0];
        let inst = sub_instance(positions, 3.0);
        let reqs: Vec<Request> = (0..24u32).map(|i| req(&inst, (i * 5) % 6)).collect();

        let mut fot = FotakisOfl::new(&inst).unwrap();
        run_online_verified(&mut fot, &inst, &reqs).unwrap();

        let mut pd = PdOmflp::new(&inst);
        run_online_verified(&mut pd, &inst, &reqs).unwrap();

        let cf = fot.solution().total_cost();
        let cp = pd.solution().total_cost();
        assert!(
            (cf - cp).abs() < 1e-6 * (1.0 + cf.abs()),
            "Fotakis = {cf} vs PD(|S|=1) = {cp}"
        );
        assert!((fot.dual_sum() - pd.dual_sum()).abs() < 1e-6);
    }
}
