//! The OMFLP instance: a metric space, a commodity universe, and a
//! construction cost function (paper §1.1).

use crate::CoreError;
use omfl_commodity::cost::{CostModel, FacilityCostFn};
use omfl_commodity::{CommodityId, CommoditySet, Universe};
use omfl_metric::{Metric, PointId};

/// A complete problem instance.
///
/// Every point of the metric space is a candidate facility location (the
/// paper's `f^σ_m` is "given for each m ∈ M and each σ ⊆ S beforehand").
pub struct Instance {
    metric: Box<dyn Metric>,
    cost: Box<dyn FacilityCostFn>,
    universe: Universe,
}

impl Instance {
    /// Builds an instance from a metric and a [`CostModel`].
    ///
    /// `universe_size` must match the cost model's universe; the redundancy
    /// is a deliberate cross-check because mixing up `|S|` silently corrupts
    /// every downstream experiment.
    pub fn new(
        metric: Box<dyn Metric>,
        universe_size: u16,
        cost: CostModel,
    ) -> Result<Self, CoreError> {
        if cost.universe().size() != universe_size {
            return Err(CoreError::BadInstance(format!(
                "cost model universe |S| = {} does not match declared size {}",
                cost.universe().size(),
                universe_size
            )));
        }
        Self::with_cost_fn(metric, Box::new(cost))
    }

    /// Builds an instance from a metric and any cost-function object.
    pub fn with_cost_fn(
        metric: Box<dyn Metric>,
        cost: Box<dyn FacilityCostFn>,
    ) -> Result<Self, CoreError> {
        if metric.is_empty() {
            return Err(CoreError::BadInstance("metric space is empty".into()));
        }
        let universe = cost.universe();
        Ok(Self {
            metric,
            cost,
            universe,
        })
    }

    /// The metric space `M`.
    pub fn metric(&self) -> &dyn Metric {
        self.metric.as_ref()
    }

    /// The construction cost function `f^σ_m`.
    pub fn cost_fn(&self) -> &dyn FacilityCostFn {
        self.cost.as_ref()
    }

    /// The commodity universe `S`.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Number of points `|M|`.
    pub fn num_points(&self) -> usize {
        self.metric.len()
    }

    /// Number of commodities `|S|`.
    pub fn num_commodities(&self) -> usize {
        self.universe.len()
    }

    /// Shorthand for the metric distance between two points.
    #[inline]
    pub fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.metric.distance(a, b)
    }

    /// Bulk distance row: `out[p] = d(p, q)` — bit-identical to calling
    /// [`Instance::distance`] per point (the [`Metric::fill_row`] contract).
    #[inline]
    pub fn fill_row(&self, q: PointId, out: &mut [f64]) {
        self.metric.fill_row(q, out)
    }

    /// `f^σ_m`.
    #[inline]
    pub fn facility_cost(&self, m: PointId, config: &CommoditySet) -> f64 {
        self.cost.cost(m.index(), config)
    }

    /// `f^{e}_m` — small-facility cost.
    #[inline]
    pub fn small_cost(&self, m: PointId, e: CommodityId) -> f64 {
        self.cost.singleton_cost(m.index(), e)
    }

    /// `f^{S}_m` — large-facility cost.
    #[inline]
    pub fn large_cost(&self, m: PointId) -> f64 {
        self.cost.full_cost(m.index())
    }

    /// Every `f^e_m` and `f^S_m`, evaluated once for an engine's race:
    /// `f^e_m` lands at `small_at(m, e)` of the first vector (`|M|·|S|`
    /// entries), `f^S_m` at `m` of the second. The third value is the
    /// first of them, in location order, that is NaN, negative or
    /// infinite, as a [`CoreError::BadInstance`] naming its location and
    /// commodity (or "full"); its message is built only then.
    pub(crate) fn facility_costs(
        &self,
        small_at: impl Fn(usize, usize) -> usize,
    ) -> (Vec<f64>, Vec<f64>, Option<CoreError>) {
        let (m, s) = (self.num_points(), self.num_commodities());
        let mut f_small = vec![0.0; m * s];
        let mut f_full = vec![0.0; m];
        let mut bad = None;
        let mut check = |f: f64, p: usize, e: Option<CommodityId>| {
            if bad.is_none() && !(f.is_finite() && f >= 0.0) {
                let config = e.map_or_else(|| "full".into(), |e| format!("commodity {}", e.0));
                bad = Some(CoreError::BadInstance(format!(
                    "facility cost at location {p} for {config} is {f}, not finite and non-negative"
                )));
            }
            f
        };
        for p in 0..m {
            for e in (0..s).map(|e| CommodityId(e as u16)) {
                let f = self.small_cost(PointId(p as u32), e);
                f_small[small_at(p, e.index())] = check(f, p, Some(e));
            }
            f_full[p] = check(self.large_cost(PointId(p as u32)), p, None);
        }
        (f_small, f_full, bad)
    }

    /// Checks that a point id is in range.
    pub fn check_point(&self, p: PointId) -> Result<(), CoreError> {
        if p.index() >= self.num_points() {
            Err(CoreError::BadRequest(format!(
                "point {p} out of range for |M| = {}",
                self.num_points()
            )))
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("num_points", &self.num_points())
            .field("num_commodities", &self.num_commodities())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omfl_metric::line::LineMetric;

    fn line(positions: Vec<f64>) -> Box<dyn Metric> {
        Box::new(LineMetric::new(positions).unwrap())
    }

    #[test]
    fn construction_and_accessors() {
        let inst =
            Instance::new(line(vec![0.0, 1.0, 4.0]), 4, CostModel::power(4, 1.0, 2.0)).unwrap();
        assert_eq!(inst.num_points(), 3);
        assert_eq!(inst.num_commodities(), 4);
        assert_eq!(inst.distance(PointId(0), PointId(2)), 4.0);
        assert_eq!(inst.small_cost(PointId(1), CommodityId(0)), 2.0);
        assert_eq!(inst.large_cost(PointId(1)), 4.0);
        let sigma = CommoditySet::from_ids(inst.universe(), &[0, 1]).unwrap();
        assert!((inst.facility_cost(PointId(0), &sigma) - 2.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn universe_mismatch_rejected() {
        let err = Instance::new(line(vec![0.0]), 5, CostModel::power(4, 1.0, 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::BadInstance(_)));
    }

    #[test]
    fn point_range_check() {
        let inst = Instance::new(line(vec![0.0, 1.0]), 2, CostModel::power(2, 1.0, 1.0)).unwrap();
        assert!(inst.check_point(PointId(1)).is_ok());
        assert!(inst.check_point(PointId(2)).is_err());
    }

    #[test]
    fn debug_is_informative() {
        let inst = Instance::new(line(vec![0.0]), 2, CostModel::power(2, 1.0, 1.0)).unwrap();
        let s = format!("{inst:?}");
        assert!(s.contains("num_points") && s.contains("num_commodities"));
    }
}
