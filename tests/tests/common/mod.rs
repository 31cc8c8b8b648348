//! Test-only metric wrappers that pick the PD engine's distance path.
//!
//! `PdOmflp` reads a metric's stored rows in place when the metric lends
//! them (`Metric::row`: graph closures, dense matrices) and layout block
//! passes otherwise, at every size. The suites run one scenario on either
//! path by wrapping its metric. [`LendRows`] and [`HideRows`] change only
//! whether rows are lent: both forward `len`, `distance`,
//! `coherent_order`, `kd_coords` and `screen_distances`, so the engine
//! lays out the same blocks over the wrapped metric, and the pruning
//! statistics of the two paths stay comparable. [`DistancesOnly`]
//! forwards `len` and `distance` alone, which leaves the engine the
//! identity layout.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use omfl_metric::{KdCoords, Metric, PointId};
use omfl_workload::Scenario;
use std::sync::{Arc, OnceLock};

/// Lends every row of the wrapped metric, each filled once with
/// `fill_row` on first use (so a run holds only the rows it reads): a
/// computed metric wrapped in it takes the row path.
pub struct LendRows {
    inner: Arc<dyn Metric>,
    rows: Vec<OnceLock<Vec<f64>>>,
}

impl LendRows {
    pub fn new(inner: Arc<dyn Metric>) -> Self {
        let rows = (0..inner.len()).map(|_| OnceLock::new()).collect();
        Self { inner, rows }
    }
}

impl Metric for LendRows {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.inner.distance(a, b)
    }

    fn row(&self, q: PointId) -> Option<&[f64]> {
        let row = self.rows[q.index()].get_or_init(|| {
            let mut row = vec![0.0; self.inner.len()];
            self.inner.fill_row(q, &mut row);
            row
        });
        Some(row)
    }

    fn coherent_order(&self) -> Option<Vec<u32>> {
        self.inner.coherent_order()
    }

    fn kd_coords(&self) -> Option<KdCoords> {
        self.inner.kd_coords()
    }

    fn screen_distances(&self, q: PointId, others: &[u32], lo: &mut [f64], hi: &mut [f64]) -> bool {
        self.inner.screen_distances(q, others, lo, hi)
    }
}

/// Lends no row, whatever the wrapped metric stores: a graph wrapped in it
/// takes the block-pass path.
pub struct HideRows(pub Arc<dyn Metric>);

impl Metric for HideRows {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.0.distance(a, b)
    }

    fn coherent_order(&self) -> Option<Vec<u32>> {
        self.0.coherent_order()
    }

    fn kd_coords(&self) -> Option<KdCoords> {
        self.0.kd_coords()
    }

    fn screen_distances(&self, q: PointId, others: &[u32], lo: &mut [f64], hi: &mut [f64]) -> bool {
        self.0.screen_distances(q, others, lo, hi)
    }
}

/// Forwards `len` and `distance` only: no rows, no order, no coordinates
/// and no screening, so the engine takes block passes over the identity
/// layout, whose distance bounds are all zero.
pub struct DistancesOnly(pub Arc<dyn Metric>);

impl Metric for DistancesOnly {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.0.distance(a, b)
    }
}

/// `sc` over `metric`, a wrapper of its own metric named by `what`: same
/// costs, same requests.
fn rewrap(sc: &Scenario, what: &str, metric: Arc<dyn Metric>) -> Scenario {
    let name = format!("{} ({what})", sc.name);
    Scenario::new(name, metric, sc.cost.clone(), sc.requests.clone()).expect("same requests")
}

/// `sc` on the row path: its metric behind [`LendRows`].
pub fn lend_rows(sc: &Scenario) -> Scenario {
    let metric = LendRows::new(Arc::clone(&sc.metric));
    rewrap(sc, "lent rows", Arc::new(metric))
}

/// `sc` on the block-pass path: its metric behind [`HideRows`].
pub fn hide_rows(sc: &Scenario) -> Scenario {
    let metric = HideRows(Arc::clone(&sc.metric));
    rewrap(sc, "hidden rows", Arc::new(metric))
}

/// `sc` on the block-pass path over the identity layout: its metric
/// behind [`DistancesOnly`].
pub fn distances_only(sc: &Scenario) -> Scenario {
    let metric = DistancesOnly(Arc::clone(&sc.metric));
    rewrap(sc, "distances only", Arc::new(metric))
}
