//! Call taps at the program's public trait boundaries.
//!
//! [`MetricTap`] wraps a scenario's `Arc<dyn Metric>` and [`CostTap`] its
//! cost model; both forward every call unchanged to the wrapped object and
//! count (and, for the bulk calls, time) it into a shared [`Probe`]. The
//! engine sees them as just another `Metric` / `FacilityCostFn`, installed
//! through `Instance::with_cost_fn` — nothing inside the program is read.
//!
//! The probe also holds the trace's spans: the harness opens one span per
//! arrival ([`Probe::begin_arrival`]), and every `fill_row` or
//! `screen_distances` call made while it is open — on any thread, including
//! the engine's internal pool — is recorded as its child.

use omfl_commodity::cost::{CostModel, FacilityCostFn};
use omfl_commodity::{CommodityId, CommoditySet, Universe};
use omfl_metric::{KdCoords, Metric, PointId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept in memory per probe; later child spans are counted as dropped.
const MAX_SPANS: usize = 1 << 21;

/// `current` value outside any arrival.
const NO_ARRIVAL: u64 = u64::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `OnlineAlgorithm::serve` call.
    Arrival,
    /// A `Metric::fill_row` call made inside an arrival.
    FillRow,
    /// A `Metric::screen_distances` call made inside an arrival.
    Screen,
}

impl SpanKind {
    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Arrival => "core.pd.serve",
            SpanKind::FillRow => "metric.fill_row",
            SpanKind::Screen => "metric.screen_distances",
        }
    }
}

/// One recorded interval. Child spans share their arrival's
/// `(tenant, arrival)` identifier; times are ns since the probe's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub kind: SpanKind,
    /// Tenant index (0 for single-engine workloads).
    pub tenant: u32,
    /// Arrival index within the tenant's stream.
    pub arrival: u32,
    /// Start, ns since the probe epoch.
    pub start_ns: u64,
    /// End, ns since the probe epoch.
    pub end_ns: u64,
}

/// Call counts and busy times accumulated by the taps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// `Metric::distance` calls.
    pub distance_calls: u64,
    /// `Metric::fill_row` calls.
    pub fill_row_calls: u64,
    /// Entries written by those calls.
    pub fill_row_entries: u64,
    /// Time inside `fill_row`, summed over threads.
    pub fill_row_ns: u64,
    /// `Metric::screen_distances` calls.
    pub screen_calls: u64,
    /// Candidates passed to those calls.
    pub screen_candidates: u64,
    /// Time inside `screen_distances`, summed over threads.
    pub screen_ns: u64,
    /// Time inside `coherent_order` and `kd_coords`.
    pub layout_ns: u64,
    /// `FacilityCostFn` cost evaluations.
    pub cost_evals: u64,
    /// Time inside them.
    pub cost_ns: u64,
}

impl ProbeCounts {
    /// Field-wise `self - before`.
    pub fn since(self, before: Self) -> Self {
        Self {
            distance_calls: self.distance_calls - before.distance_calls,
            fill_row_calls: self.fill_row_calls - before.fill_row_calls,
            fill_row_entries: self.fill_row_entries - before.fill_row_entries,
            fill_row_ns: self.fill_row_ns - before.fill_row_ns,
            screen_calls: self.screen_calls - before.screen_calls,
            screen_candidates: self.screen_candidates - before.screen_candidates,
            screen_ns: self.screen_ns - before.screen_ns,
            layout_ns: self.layout_ns - before.layout_ns,
            cost_evals: self.cost_evals - before.cost_evals,
            cost_ns: self.cost_ns - before.cost_ns,
        }
    }
}

/// Shared sink of the taps: counters, the open arrival, and the spans.
pub struct Probe {
    epoch: Instant,
    distance_calls: AtomicU64,
    fill_row_calls: AtomicU64,
    fill_row_entries: AtomicU64,
    fill_row_ns: AtomicU64,
    screen_calls: AtomicU64,
    screen_candidates: AtomicU64,
    screen_ns: AtomicU64,
    layout_ns: AtomicU64,
    cost_evals: AtomicU64,
    cost_ns: AtomicU64,
    /// `tenant << 32 | arrival` of the open arrival span, or `NO_ARRIVAL`.
    /// It publishes nothing else; the engine's pool hands work to its
    /// threads under a mutex, which orders this store before their loads.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Probe {
    /// A fresh probe.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            distance_calls: AtomicU64::new(0),
            fill_row_calls: AtomicU64::new(0),
            fill_row_entries: AtomicU64::new(0),
            fill_row_ns: AtomicU64::new(0),
            screen_calls: AtomicU64::new(0),
            screen_candidates: AtomicU64::new(0),
            screen_ns: AtomicU64::new(0),
            layout_ns: AtomicU64::new(0),
            cost_evals: AtomicU64::new(0),
            cost_ns: AtomicU64::new(0),
            current: AtomicU64::new(NO_ARRIVAL),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// ns since the probe's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A consistent-enough read of every counter (each is exact; they are
    /// read while no serve is in flight).
    pub fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            distance_calls: self.distance_calls.load(Relaxed),
            fill_row_calls: self.fill_row_calls.load(Relaxed),
            fill_row_entries: self.fill_row_entries.load(Relaxed),
            fill_row_ns: self.fill_row_ns.load(Relaxed),
            screen_calls: self.screen_calls.load(Relaxed),
            screen_candidates: self.screen_candidates.load(Relaxed),
            screen_ns: self.screen_ns.load(Relaxed),
            layout_ns: self.layout_ns.load(Relaxed),
            cost_evals: self.cost_evals.load(Relaxed),
            cost_ns: self.cost_ns.load(Relaxed),
        }
    }

    /// Opens the arrival span `(tenant, arrival)`: child spans recorded
    /// until [`Probe::end_arrival`] belong to it. Returns its start time.
    pub fn begin_arrival(&self, tenant: u32, arrival: u32) -> u64 {
        self.current
            .store(u64::from(tenant) << 32 | u64::from(arrival), Relaxed);
        self.now_ns()
    }

    /// Closes the open arrival span and records it; returns its end time.
    pub fn end_arrival(&self, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        let current = self.current.swap(NO_ARRIVAL, Relaxed);
        if current != NO_ARRIVAL {
            self.push(SpanKind::Arrival, current, start_ns, end_ns);
        }
        end_ns
    }

    fn child(&self, kind: SpanKind, start_ns: u64, end_ns: u64) {
        let current = self.current.load(Relaxed);
        if current != NO_ARRIVAL {
            self.push(kind, current, start_ns, end_ns);
        }
    }

    fn push(&self, kind: SpanKind, id: u64, start_ns: u64, end_ns: u64) {
        let mut spans = self.spans.lock().expect("span sink poisoned by a panic");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                kind,
                tenant: (id >> 32) as u32,
                arrival: id as u32,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Takes the recorded spans (in recording order) and the dropped count.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned by a panic"));
        (spans, self.dropped.swap(0, Relaxed))
    }
}

/// A `Metric` that forwards all six trait methods to the wrapped metric,
/// counting every call and timing the bulk ones.
pub struct MetricTap {
    inner: Arc<dyn Metric>,
    probe: Arc<Probe>,
}

impl MetricTap {
    /// Taps `inner`, reporting into `probe`.
    pub fn new(inner: Arc<dyn Metric>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl Metric for MetricTap {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.probe.distance_calls.fetch_add(1, Relaxed);
        self.inner.distance(a, b)
    }

    fn fill_row(&self, q: PointId, out: &mut [f64]) {
        let t0 = self.probe.now_ns();
        self.inner.fill_row(q, out);
        let t1 = self.probe.now_ns();
        let p = &self.probe;
        p.fill_row_calls.fetch_add(1, Relaxed);
        p.fill_row_entries.fetch_add(out.len() as u64, Relaxed);
        p.fill_row_ns.fetch_add(t1 - t0, Relaxed);
        p.child(SpanKind::FillRow, t0, t1);
    }

    fn coherent_order(&self) -> Option<Vec<u32>> {
        let t0 = self.probe.now_ns();
        let order = self.inner.coherent_order();
        self.probe
            .layout_ns
            .fetch_add(self.probe.now_ns() - t0, Relaxed);
        order
    }

    fn kd_coords(&self) -> Option<KdCoords> {
        let t0 = self.probe.now_ns();
        let coords = self.inner.kd_coords();
        self.probe
            .layout_ns
            .fetch_add(self.probe.now_ns() - t0, Relaxed);
        coords
    }

    fn screen_distances(&self, q: PointId, others: &[u32], lo: &mut [f64], hi: &mut [f64]) -> bool {
        let t0 = self.probe.now_ns();
        let screened = self.inner.screen_distances(q, others, lo, hi);
        let t1 = self.probe.now_ns();
        let p = &self.probe;
        p.screen_calls.fetch_add(1, Relaxed);
        p.screen_candidates.fetch_add(others.len() as u64, Relaxed);
        p.screen_ns.fetch_add(t1 - t0, Relaxed);
        p.child(SpanKind::Screen, t0, t1);
        screened
    }
}

/// A `FacilityCostFn` that forwards to a scenario's cost model, counting
/// and timing every cost evaluation.
pub struct CostTap {
    inner: CostModel,
    probe: Arc<Probe>,
}

impl CostTap {
    /// Taps `inner`, reporting into `probe`.
    pub fn new(inner: CostModel, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }

    fn timed(&self, f: impl FnOnce(&CostModel) -> f64) -> f64 {
        let t0 = Instant::now();
        let v = f(&self.inner);
        self.probe
            .cost_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.probe.cost_evals.fetch_add(1, Relaxed);
        v
    }
}

impl FacilityCostFn for CostTap {
    fn universe(&self) -> Universe {
        self.inner.universe()
    }

    fn cost(&self, location: usize, config: &CommoditySet) -> f64 {
        self.timed(|c| c.cost(location, config))
    }

    fn singleton_cost(&self, location: usize, e: CommodityId) -> f64 {
        self.timed(|c| c.singleton_cost(location, e))
    }

    fn full_cost(&self, location: usize) -> f64 {
        self.timed(|c| c.full_cost(location))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omfl_workload::catalog;
    use omfl_workload::CatalogProfile;

    fn profile() -> CatalogProfile {
        CatalogProfile {
            points: 40,
            services: 6,
            requests: 60,
        }
    }

    /// Every forwarded method returns exactly what the wrapped metric
    /// returns, bit for bit, and the probe counts the calls.
    fn assert_forwards_bit_identically(family: &str) {
        let sc = catalog::by_name(family)
            .expect("catalog family")
            .build(&profile(), 5)
            .expect("scenario builds");
        let inner = Arc::clone(&sc.metric);
        let probe = Probe::new();
        let tap = MetricTap::new(Arc::clone(&inner), Arc::clone(&probe));
        let n = inner.len();
        assert_eq!(tap.len(), n);
        assert_eq!(tap.coherent_order(), inner.coherent_order(), "{family}");
        match (tap.kd_coords(), inner.kd_coords()) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!((a.dim, a.isometric), (b.dim, b.isometric), "{family}");
                let bits = |k: &KdCoords| k.coords.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{family}");
            }
            _ => panic!("{family}: kd_coords presence differs"),
        }
        let others: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
        for q in (0..n as u32).map(PointId) {
            let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
            tap.fill_row(q, &mut a);
            inner.fill_row(q, &mut b);
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            for p in (0..n as u32).map(PointId) {
                assert_eq!(tap.distance(p, q).to_bits(), inner.distance(p, q).to_bits());
            }
            let m = others.len();
            let (mut lo_a, mut hi_a) = (vec![0.0; m], vec![0.0; m]);
            let (mut lo_b, mut hi_b) = (vec![0.0; m], vec![0.0; m]);
            assert_eq!(
                tap.screen_distances(q, &others, &mut lo_a, &mut hi_a),
                inner.screen_distances(q, &others, &mut lo_b, &mut hi_b),
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lo_a), bits(&lo_b), "{family}");
            assert_eq!(bits(&hi_a), bits(&hi_b), "{family}");
        }
        let c = probe.counts();
        assert_eq!(c.fill_row_calls, n as u64);
        assert_eq!(c.fill_row_entries, (n * n) as u64);
        assert_eq!(c.distance_calls, (n * n) as u64);
        assert_eq!(c.screen_calls, n as u64);
        assert_eq!(c.screen_candidates, (n * others.len()) as u64);
    }

    #[test]
    fn metric_tap_forwards_euclidean_grid_bit_identically() {
        assert_forwards_bit_identically("euclid-grid-large");
    }

    #[test]
    fn metric_tap_forwards_graph_bit_identically() {
        assert_forwards_bit_identically("zipf-services-large");
    }

    #[test]
    fn cost_tap_forwards_and_counts() {
        let sc = catalog::by_name("zipf-services")
            .expect("catalog family")
            .build(&profile(), 5)
            .expect("scenario builds");
        let probe = Probe::new();
        let tap = CostTap::new(sc.cost.clone(), Arc::clone(&probe));
        let u = sc.cost.universe();
        assert_eq!(tap.universe(), u);
        let full = CommoditySet::full(u);
        for m in 0..sc.metric.len() {
            assert_eq!(tap.full_cost(m).to_bits(), sc.cost.full_cost(m).to_bits());
            assert_eq!(
                tap.cost(m, &full).to_bits(),
                sc.cost.cost(m, &full).to_bits()
            );
            let e = CommodityId((m % u.len()) as u16);
            assert_eq!(
                tap.singleton_cost(m, e).to_bits(),
                sc.cost.singleton_cost(m, e).to_bits()
            );
        }
        assert_eq!(probe.counts().cost_evals, 3 * sc.metric.len() as u64);
    }

    #[test]
    fn child_spans_attach_to_the_open_arrival_only() {
        let sc = catalog::by_name("euclid-grid")
            .expect("catalog family")
            .build(&profile(), 1)
            .expect("scenario builds");
        let probe = Probe::new();
        let tap = MetricTap::new(Arc::clone(&sc.metric), Arc::clone(&probe));
        let mut row = vec![0.0; tap.len()];
        tap.fill_row(PointId(0), &mut row); // outside any arrival: no span
        let t0 = probe.begin_arrival(3, 7);
        tap.fill_row(PointId(1), &mut row);
        probe.end_arrival(t0);
        let (spans, dropped) = probe.take_spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::FillRow);
        assert_eq!(spans[1].kind, SpanKind::Arrival);
        assert!(spans.iter().all(|s| (s.tenant, s.arrival) == (3, 7)));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
