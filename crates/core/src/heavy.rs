//! Heavy-commodity exclusion — the §5 future-work extension.
//!
//! Condition 1 "indirectly implies that the costs for single commodities are
//! not too different". When a few *heavy* commodities violate it, the paper
//! suggests: "simply run our algorithms in which the heavy commodities are
//! excluded such that a large facility becomes one including all non-heavy
//! commodities", handling the heavy ones separately.
//!
//! [`HeavyInstances`] splits an instance into a *light* sub-instance (the
//! non-heavy commodities, re-indexed densely, with a cost adapter that maps
//! configurations back to the original cost function) plus one
//! single-commodity sub-instance per heavy commodity.
//! [`HeavyExclusion`] runs PD-OMFLP on each part and mirrors every opening
//! and assignment into one solution over the *original* instance, so costs
//! and feasibility are accounted in the original model.

use crate::algorithm::{OnlineAlgorithm, ServeOutcome};
use crate::instance::Instance;
use crate::pd::PdOmflp;
use crate::request::Request;
use crate::solution::{FacilityId, Solution};
use crate::CoreError;
use omfl_commodity::cost::{CostModel, FacilityCostFn};
use omfl_commodity::{CommodityId, CommoditySet, Universe};
use omfl_metric::{Metric, PointId};
use std::sync::Arc;

/// A metric handle that can be shared between the original instance and the
/// sub-instances without copying the distance data.
pub struct SharedMetric(pub Arc<dyn Metric>);

impl Metric for SharedMetric {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.0.distance(a, b)
    }

    fn row(&self, q: PointId) -> Option<&[f64]> {
        self.0.row(q)
    }

    fn fill_row(&self, q: PointId, out: &mut [f64]) {
        self.0.fill_row(q, out)
    }

    fn coherent_order(&self) -> Option<Vec<u32>> {
        self.0.coherent_order()
    }

    fn kd_coords(&self) -> Option<omfl_metric::KdCoords> {
        self.0.kd_coords()
    }

    fn screen_distances(&self, q: PointId, others: &[u32], lo: &mut [f64], hi: &mut [f64]) -> bool {
        self.0.screen_distances(q, others, lo, hi)
    }
}

/// Cost adapter presenting the light sub-universe of a [`CostModel`].
struct LightCost {
    inner: CostModel,
    /// light id → original id, ascending.
    light_to_orig: Vec<CommodityId>,
    orig_universe: Universe,
    universe: Universe,
}

impl FacilityCostFn for LightCost {
    fn universe(&self) -> Universe {
        self.universe
    }

    fn cost(&self, location: usize, config: &CommoditySet) -> f64 {
        let mut mapped = CommoditySet::empty(self.orig_universe);
        for e in config.iter() {
            mapped
                .insert(self.light_to_orig[e.index()])
                .expect("light map targets are in the original universe");
        }
        self.inner.cost(location, &mapped)
    }
}

/// Cost adapter: a 1-commodity universe whose only commodity is original
/// commodity `e`, priced via `f^{{e}}_m`.
struct SingleCommodityCost {
    inner: CostModel,
    e: CommodityId,
    orig_universe: Universe,
    universe: Universe,
}

impl FacilityCostFn for SingleCommodityCost {
    fn universe(&self) -> Universe {
        self.universe
    }

    fn cost(&self, location: usize, config: &CommoditySet) -> f64 {
        if config.is_empty() {
            0.0
        } else {
            let s = CommoditySet::singleton(self.orig_universe, self.e)
                .expect("commodity id from the original universe");
            self.inner.cost(location, &s)
        }
    }
}

/// Builds the single-commodity sub-instance for original commodity `e`.
pub fn single_commodity_instance(
    metric: Arc<dyn Metric>,
    cost: CostModel,
    e: CommodityId,
) -> Result<Instance, CoreError> {
    let orig_universe = cost.universe();
    if e.index() >= orig_universe.len() {
        return Err(CoreError::BadInstance(format!(
            "commodity {e} out of range for |S| = {}",
            orig_universe.len()
        )));
    }
    Instance::with_cost_fn(
        Box::new(SharedMetric(metric)),
        Box::new(SingleCommodityCost {
            inner: cost,
            e,
            orig_universe,
            universe: Universe::new(1).expect("1 >= 1"),
        }),
    )
}

/// The original instance plus its light/heavy decomposition.
pub struct HeavyInstances {
    /// The undecomposed instance (costs from the given [`CostModel`]).
    pub original: Instance,
    /// Sub-instance over the light commodities (re-indexed `0..L`).
    pub light: Instance,
    /// One single-commodity sub-instance per heavy commodity, in the order
    /// given at construction.
    pub heavy: Vec<(CommodityId, Instance)>,
    /// light id → original id.
    light_to_orig: Vec<CommodityId>,
    /// original id → light id (None for heavy commodities).
    orig_to_light: Vec<Option<u16>>,
}

impl HeavyInstances {
    /// Splits `cost` over `metric` into light + heavy parts.
    ///
    /// At least one commodity must remain light, heavy ids must be in range
    /// and distinct.
    pub fn build(
        metric: Arc<dyn Metric>,
        cost: CostModel,
        heavy_ids: &[CommodityId],
    ) -> Result<Self, CoreError> {
        let orig_universe = cost.universe();
        let s = orig_universe.len();
        let mut is_heavy = vec![false; s];
        for &h in heavy_ids {
            if h.index() >= s {
                return Err(CoreError::BadInstance(format!(
                    "heavy commodity {h} out of range for |S| = {s}"
                )));
            }
            if std::mem::replace(&mut is_heavy[h.index()], true) {
                return Err(CoreError::BadInstance(format!(
                    "heavy commodity {h} listed twice"
                )));
            }
        }
        let light_to_orig: Vec<CommodityId> = (0..s as u16)
            .filter(|&e| !is_heavy[e as usize])
            .map(CommodityId)
            .collect();
        if light_to_orig.is_empty() {
            return Err(CoreError::BadInstance(
                "at least one commodity must remain light".into(),
            ));
        }
        let mut orig_to_light = vec![None; s];
        for (li, &o) in light_to_orig.iter().enumerate() {
            orig_to_light[o.index()] = Some(li as u16);
        }
        let light_universe =
            Universe::new(light_to_orig.len() as u16).expect("light part is non-empty");

        let original = Instance::with_cost_fn(
            Box::new(SharedMetric(Arc::clone(&metric))),
            Box::new(cost.clone()),
        )?;
        let light = Instance::with_cost_fn(
            Box::new(SharedMetric(Arc::clone(&metric))),
            Box::new(LightCost {
                inner: cost.clone(),
                light_to_orig: light_to_orig.clone(),
                orig_universe,
                universe: light_universe,
            }),
        )?;
        let mut heavy = Vec::with_capacity(heavy_ids.len());
        for &h in heavy_ids {
            heavy.push((
                h,
                single_commodity_instance(Arc::clone(&metric), cost.clone(), h)?,
            ));
        }
        Ok(Self {
            original,
            light,
            heavy,
            light_to_orig,
            orig_to_light,
        })
    }
}

/// PD-OMFLP with heavy commodities excluded from prediction (§5).
pub struct HeavyExclusion<'a> {
    parts: &'a HeavyInstances,
    light_alg: PdOmflp<'a>,
    heavy_algs: Vec<PdOmflp<'a>>,
    /// sub-facility id → own facility id, per sub-algorithm.
    light_fmap: Vec<FacilityId>,
    heavy_fmaps: Vec<Vec<FacilityId>>,
    sol: Solution,
}

impl<'a> HeavyExclusion<'a> {
    /// Creates the composite algorithm over a decomposition.
    pub fn new(parts: &'a HeavyInstances) -> Self {
        Self {
            parts,
            light_alg: PdOmflp::new(&parts.light),
            heavy_algs: parts.heavy.iter().map(|(_, i)| PdOmflp::new(i)).collect(),
            light_fmap: Vec::new(),
            heavy_fmaps: vec![Vec::new(); parts.heavy.len()],
            sol: Solution::new(),
        }
    }

    /// Mirrors freshly opened sub-facilities into the composite solution.
    fn mirror_opened(
        sub_sol: &Solution,
        opened: &[FacilityId],
        map_config: impl Fn(&CommoditySet) -> CommoditySet,
        fmap: &mut Vec<FacilityId>,
        own: &mut Solution,
        orig: &Instance,
    ) {
        for &fid in opened {
            let f = &sub_sol.facilities()[fid.index()];
            let own_fid = own.open_facility(orig, f.location, map_config(&f.config));
            debug_assert_eq!(fid.index(), fmap.len(), "sub facilities open densely");
            fmap.push(own_fid);
        }
    }
}

impl OnlineAlgorithm for HeavyExclusion<'_> {
    fn serve(&mut self, request: &Request) -> Result<ServeOutcome, CoreError> {
        let orig = &self.parts.original;
        request.validate(orig)?;
        let start_con = self.sol.construction_cost();
        let mut opened_own = Vec::new();
        let mut assigned_own = Vec::new();
        let mut any_large = false;

        // Light part.
        let light_universe = self.parts.light.universe();
        let mut light_demand = CommoditySet::empty(light_universe);
        for e in request.demand().iter() {
            if let Some(li) = self.parts.orig_to_light[e.index()] {
                light_demand
                    .insert(CommodityId(li))
                    .expect("light id in light universe");
            }
        }
        if !light_demand.is_empty() {
            let sub_req = Request::new(request.location(), light_demand);
            let out = self.light_alg.serve(&sub_req)?;
            any_large |= out.served_by_large;
            let light_to_orig = &self.parts.light_to_orig;
            let orig_universe = orig.universe();
            Self::mirror_opened(
                self.light_alg.solution(),
                &out.opened,
                |cfg| {
                    let mut mapped = CommoditySet::empty(orig_universe);
                    for e in cfg.iter() {
                        mapped
                            .insert(light_to_orig[e.index()])
                            .expect("in original universe");
                    }
                    mapped
                },
                &mut self.light_fmap,
                &mut self.sol,
                orig,
            );
            for fid in out.assigned_to {
                assigned_own.push(self.light_fmap[fid.index()]);
            }
        }

        // Heavy parts.
        for (hi, (h, hinst)) in self.parts.heavy.iter().enumerate() {
            if !request.demand().contains(*h) {
                continue;
            }
            let sub_demand = CommoditySet::full(hinst.universe());
            let sub_req = Request::new(request.location(), sub_demand);
            let out = self.heavy_algs[hi].serve(&sub_req)?;
            let orig_universe = orig.universe();
            let h = *h;
            Self::mirror_opened(
                self.heavy_algs[hi].solution(),
                &out.opened,
                |_| CommoditySet::singleton(orig_universe, h).expect("heavy id in range"),
                &mut self.heavy_fmaps[hi],
                &mut self.sol,
                orig,
            );
            for fid in out.assigned_to {
                assigned_own.push(self.heavy_fmaps[hi][fid.index()]);
            }
        }

        // Facilities mirrored during this serve carry `opened_at ==` the
        // current request index in the composite solution.
        let before_assign = self.sol.num_requests();
        opened_own.extend(
            self.sol
                .facilities()
                .iter()
                .filter(|f| f.opened_at == before_assign)
                .map(|f| f.id),
        );

        let assignment = self.sol.assign(orig, request.clone(), &assigned_own);
        Ok(ServeOutcome {
            opened: opened_own,
            assigned_to: assignment.facilities.clone(),
            connection_cost: assignment.connection_cost,
            construction_cost: self.sol.construction_cost() - start_con,
            served_by_large: any_large && request.demand().len() > 1,
        })
    }

    fn solution(&self) -> &Solution {
        &self.sol
    }

    fn name(&self) -> &'static str {
        "heavy-exclusion-pd"
    }
}

/// Flags commodities whose *marginal* cost in the full configuration exceeds
/// `factor ×` the average per-commodity cost of `S` at location 0 — the
/// paper's informal notion of a heavy commodity ("a high increase in the
/// construction cost when it is added to an existing configuration").
pub fn detect_heavy(inst: &Instance, factor: f64) -> Vec<CommodityId> {
    let u = inst.universe();
    let full = CommoditySet::full(u);
    let f_full = inst.facility_cost(PointId(0), &full);
    let avg = f_full / u.len() as f64;
    let mut heavy = Vec::new();
    for e in u.ids() {
        let mut without = full.clone();
        without.remove(e).expect("in range");
        if without.is_empty() {
            continue; // |S| = 1: nothing to compare against
        }
        let marginal = f_full - inst.facility_cost(PointId(0), &without);
        if marginal > factor * avg {
            heavy.push(e);
        }
    }
    heavy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_online_verified;
    use omfl_metric::line::LineMetric;

    fn shared_line(positions: Vec<f64>) -> Arc<dyn Metric> {
        Arc::new(LineMetric::new(positions).unwrap())
    }

    fn req(inst: &Instance, loc: u32, ids: &[u16]) -> Request {
        Request::new(
            PointId(loc),
            CommoditySet::from_ids(inst.universe(), ids).unwrap(),
        )
    }

    fn heavy_cost(s: u16, surcharge_on_last: f64) -> CostModel {
        let mut sur = vec![0.0; s as usize];
        sur[s as usize - 1] = surcharge_on_last;
        CostModel::power(s, 1.0, 1.0).with_surcharges(sur).unwrap()
    }

    #[test]
    fn build_rejects_bad_heavy_lists() {
        let m = shared_line(vec![0.0]);
        let c = CostModel::power(4, 1.0, 1.0);
        assert!(HeavyInstances::build(m.clone(), c.clone(), &[CommodityId(9)]).is_err());
        assert!(
            HeavyInstances::build(m.clone(), c.clone(), &[CommodityId(1), CommodityId(1)]).is_err()
        );
        let all: Vec<CommodityId> = (0..4).map(CommodityId).collect();
        assert!(HeavyInstances::build(m, c, &all).is_err());
    }

    #[test]
    fn light_cost_adapter_maps_back() {
        let m = shared_line(vec![0.0]);
        let parts = HeavyInstances::build(m, heavy_cost(4, 100.0), &[CommodityId(3)]).unwrap();
        assert_eq!(parts.light.num_commodities(), 3);
        // The light "full" config is {0,1,2} in original ids — cost sqrt(3),
        // no surcharge.
        let light_full = parts.light.large_cost(PointId(0));
        assert!((light_full - 3f64.sqrt()).abs() < 1e-12);
        // The heavy instance sees only commodity 3, cost 1 + 100.
        let h = &parts.heavy[0].1;
        assert!((h.large_cost(PointId(0)) - 101.0).abs() < 1e-12);
    }

    #[test]
    fn composite_solution_is_feasible_in_original_model() {
        let m = shared_line(vec![0.0, 2.0, 5.0]);
        let parts = HeavyInstances::build(m, heavy_cost(6, 50.0), &[CommodityId(5)]).unwrap();
        let mut alg = HeavyExclusion::new(&parts);
        let inst = &parts.original;
        let reqs: Vec<Request> = (0..20u32)
            .map(|i| req(inst, i % 3, &[(i % 5) as u16, ((i * 2 + 1) % 6) as u16]))
            .collect();
        run_online_verified(&mut alg, inst, &reqs).unwrap();
        assert_eq!(alg.solution().num_requests(), 20);
        // No facility may offer the heavy commodity together with others:
        // the wrapper never predicts commodity 5.
        for f in alg.solution().facilities() {
            if f.config.contains(CommodityId(5)) {
                assert_eq!(f.config.len(), 1, "heavy commodity must stay isolated");
            }
        }
    }

    #[test]
    fn detect_heavy_flags_the_surcharged_commodity() {
        let m = shared_line(vec![0.0]);
        let inst =
            Instance::with_cost_fn(Box::new(SharedMetric(m)), Box::new(heavy_cost(8, 100.0)))
                .unwrap();
        let heavy = detect_heavy(&inst, 4.0);
        assert_eq!(heavy, vec![CommodityId(7)]);
    }

    #[test]
    fn detect_heavy_empty_on_uniform_costs() {
        let m = shared_line(vec![0.0]);
        let inst = Instance::with_cost_fn(
            Box::new(SharedMetric(m)),
            Box::new(CostModel::power(8, 1.0, 1.0)),
        )
        .unwrap();
        assert!(detect_heavy(&inst, 4.0).is_empty());
    }
}
