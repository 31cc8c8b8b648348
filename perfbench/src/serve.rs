//! Serving one arrival through `OnlineAlgorithm::serve`, timed, and — in a
//! traced pass — attributed: an arrival span, the engine's counter deltas
//! by arrival class (opened at least one facility, or quiet), and the
//! metric/commodity taps' call counts.

use crate::counters::EngineCounters;
use crate::tap::{Probe, ProbeCounts, Span};
use crate::{arrival_self_ns, Outcome};
use omfl_core::algorithm::{OnlineAlgorithm, ServeOutcome};
use omfl_core::pd::PdOmflp;
use omfl_core::request::Request;
use omfl_core::CoreError;
use std::time::Instant;

/// Per-layer work and time of one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Arrivals served.
    pub arrivals: u64,
    /// Arrivals that opened at least one facility.
    pub open_arrivals: u64,
    /// Facilities opened (`ServeOutcome::opened`, summed).
    pub openings: u64,
    /// Arrivals served by one large facility.
    pub large_serves: u64,
    /// Serve time of opening arrivals.
    pub open_ns: u64,
    /// Serve time of quiet arrivals.
    pub quiet_ns: u64,
    /// Engine counter deltas of opening arrivals.
    pub open: EngineCounters,
    /// Engine counter deltas of quiet arrivals.
    pub quiet: EngineCounters,
    /// Tap counts during engine construction.
    pub construct: ProbeCounts,
    /// Tap counts during serving.
    pub serve: ProbeCounts,
    /// Recorded spans of the pass, and how many were dropped.
    pub spans: Vec<Span>,
    /// Spans over the in-memory cap.
    pub spans_dropped: u64,
}

/// Serves `request`, returning the outcome and the call's duration in ns.
/// With a probe, the call is an arrival span `(tenant, index)` and its
/// counter deltas go to `layers` under the arrival's class.
pub fn serve_arrival(
    engine: &mut PdOmflp<'_>,
    request: &Request,
    traced: Option<(&Probe, &mut Layers)>,
    tenant: u32,
    index: u32,
) -> Result<(ServeOutcome, u64), CoreError> {
    let Some((probe, layers)) = traced else {
        let t0 = Instant::now();
        let out = engine.serve(request)?;
        return Ok((out, t0.elapsed().as_nanos() as u64));
    };
    let before = EngineCounters::read(engine);
    let start = probe.begin_arrival(tenant, index);
    let served = engine.serve(request);
    let end = probe.end_arrival(start);
    let out = served?;
    let delta = EngineCounters::read(engine).since(before);
    let ns = end - start;
    layers.arrivals += 1;
    layers.openings += out.opened.len() as u64;
    layers.large_serves += u64::from(out.served_by_large);
    if out.opened.is_empty() {
        layers.quiet_ns += ns;
        layers.quiet.add(delta);
    } else {
        layers.open_arrivals += 1;
        layers.open_ns += ns;
        layers.open.add(delta);
    }
    Ok((out, ns))
}

/// Reports the engine- and metric-layer metrics of one traced pass.
/// Times are seconds per pass; counts are per pass.
pub fn report_layers(out: &mut Outcome, l: &Layers) {
    let s = |ns: u64| ns as f64 * 1e-9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let serve_ns = l.open_ns + l.quiet_ns;

    out.metric(
        "commodity.cost_evals",
        l.construct.cost_evals as f64,
        "count",
    );
    out.metric("commodity.cost_s", s(l.construct.cost_ns), "s");
    out.metric(
        "commodity.serve_cost_evals",
        l.serve.cost_evals as f64,
        "count",
    );
    out.metric("metric.layout_s", s(l.construct.layout_ns), "s");

    out.metric("core.pd.arrivals", l.arrivals as f64, "count");
    out.metric("core.pd.open_arrivals", l.open_arrivals as f64, "count");
    out.metric("core.pd.openings", l.openings as f64, "count");
    out.metric("core.pd.large_serves", l.large_serves as f64, "count");
    out.metric("core.pd.open_serve_s", s(l.open_ns), "s");
    out.metric("core.pd.quiet_serve_s", s(l.quiet_ns), "s");
    out.metric("core.pd.open_share", ratio(l.open_ns, serve_ns), "ratio");
    out.metric("core.pd.self_s", s(arrival_self_ns(&l.spans)), "s");

    let mut total = l.open;
    total.add(l.quiet);
    for ((name, all), (_, open)) in total.named().zip(l.open.named()) {
        out.metric(name, all as f64, "count");
        out.metric(&format!("{name}.open"), open as f64, "count");
    }
    let hits = total.get("metric.blocked.hits");
    let misses = total.get("metric.blocked.misses");
    out.metric(
        "metric.blocked.hit_rate",
        ratio(hits, hits + misses),
        "ratio",
    );
    let skipped = total.get("core.index.target_blocks_skipped");
    let scanned = total.get("core.index.target_blocks_scanned");
    out.metric(
        "core.index.target_skip_rate",
        ratio(skipped, skipped + scanned),
        "ratio",
    );

    let m = &l.serve;
    out.metric("metric.distance_calls", m.distance_calls as f64, "count");
    out.metric("metric.fill_row_calls", m.fill_row_calls as f64, "count");
    out.metric(
        "metric.fill_row_entries",
        m.fill_row_entries as f64,
        "count",
    );
    out.metric("metric.fill_row_s", s(m.fill_row_ns), "s");
    out.metric("metric.screen_calls", m.screen_calls as f64, "count");
    out.metric(
        "metric.screen_candidates",
        m.screen_candidates as f64,
        "count",
    );
    out.metric("metric.screen_s", s(m.screen_ns), "s");

    out.metric("trace.spans", l.spans.len() as f64, "count");
    out.metric("trace.spans_dropped", l.spans_dropped as f64, "count");
}

/// Reports the serve- and pool-layer metrics as zero, for workloads that
/// do not run those layers.
pub fn report_no_serve_layer(out: &mut Outcome) {
    for (name, unit) in SERVE_LAYER_METRICS {
        out.metric(name, 0.0, unit);
    }
}

/// Serve- and pool-layer metric names and units, in report order.
pub const SERVE_LAYER_METRICS: [(&str, &str); 8] = [
    ("serve.wall_s", "s"),
    ("serve.replay_s", "s"),
    ("serve.batches", "count"),
    ("serve.backpressure_waits", "count"),
    ("serve.overhead_share", "ratio"),
    ("serve.shard_skew", "ratio"),
    ("par.dispatch_us", "us"),
    ("par.dispatch_share", "ratio"),
];
