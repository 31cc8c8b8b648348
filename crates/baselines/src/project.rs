//! Sub-instance builders: project a multi-commodity instance onto a single
//! commodity, or collapse it to "large facilities only".
//!
//! Both adapters share the original metric via an `Arc` (see
//! [`omfl_core::heavy::SharedMetric`]) and own a clone of the concrete
//! [`CostModel`], so sub-instances are cheap and self-contained. The
//! single-commodity projection lives in [`omfl_core::heavy`], which builds
//! its heavy parts with it, and is re-exported here.

use omfl_commodity::cost::{CostModel, FacilityCostFn};
use omfl_commodity::{CommoditySet, Universe};
pub use omfl_core::heavy::single_commodity_instance;
use omfl_core::heavy::SharedMetric;
use omfl_core::instance::Instance;
use omfl_core::CoreError;
use omfl_metric::Metric;
use std::sync::Arc;

/// Cost adapter: a 1-commodity universe whose only "commodity" stands for
/// the whole of `S`, priced via `f^{S}_m` — the substrate of the always-
/// predict baseline.
struct CollapsedCost {
    inner: CostModel,
    universe: Universe,
}

impl FacilityCostFn for CollapsedCost {
    fn universe(&self) -> Universe {
        self.universe
    }

    fn cost(&self, location: usize, config: &CommoditySet) -> f64 {
        if config.is_empty() {
            0.0
        } else {
            self.inner.full_cost(location)
        }
    }
}

/// Builds the collapsed ("everything is one commodity priced at `f^S_m`")
/// sub-instance.
pub fn collapsed_instance(metric: Arc<dyn Metric>, cost: CostModel) -> Result<Instance, CoreError> {
    Instance::with_cost_fn(
        Box::new(SharedMetric(metric)),
        Box::new(CollapsedCost {
            inner: cost,
            universe: Universe::new(1).expect("1 >= 1"),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use omfl_commodity::CommodityId;
    use omfl_metric::line::LineMetric;
    use omfl_metric::PointId;

    fn metric() -> Arc<dyn Metric> {
        Arc::new(LineMetric::new(vec![0.0, 1.0]).unwrap())
    }

    #[test]
    fn single_commodity_projection_prices_match() {
        let cost = CostModel::Linear {
            universe: Universe::new(3).unwrap(),
            weights: vec![1.0, 2.0, 4.0],
        };
        let sub = single_commodity_instance(metric(), cost, CommodityId(2)).unwrap();
        assert_eq!(sub.num_commodities(), 1);
        assert_eq!(sub.large_cost(PointId(0)), 4.0);
        assert_eq!(sub.small_cost(PointId(1), CommodityId(0)), 4.0);
    }

    #[test]
    fn collapsed_projection_prices_full_set() {
        let cost = CostModel::power(16, 1.0, 3.0); // f^S = 3·4 = 12
        let sub = collapsed_instance(metric(), cost).unwrap();
        assert_eq!(sub.num_commodities(), 1);
        assert_eq!(sub.large_cost(PointId(0)), 12.0);
    }

    #[test]
    fn out_of_range_commodity_rejected() {
        let cost = CostModel::power(3, 1.0, 1.0);
        assert!(single_commodity_instance(metric(), cost, CommodityId(3)).is_err());
    }
}
