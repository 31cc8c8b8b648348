//! The repository benchmark.
//!
//! Three fixed workloads drive the program through its public APIs only —
//! `PdOmflp::new` + `OnlineAlgorithm::serve` and `Server::new` +
//! `Server::serve` — check every output, and report end-to-end metrics
//! (untraced runs) or per-layer metrics (traced runs):
//!
//! - `pd-1m` ([`pd::pd_1m`]): one engine on a 1,048,576-point Euclidean
//!   grid, where most arrivals open facilities;
//! - `pd-4k-graph` ([`pd::pd_4k_graph`]): one engine on a 4096-point graph
//!   metric with 64 commodities, where most arrivals are quiet;
//! - `fleet-mixed` ([`fleet::fleet_mixed`]): one multi-tenant server over
//!   many small tenants plus three large ones, at saturation.
//!
//! The traced run attributes time and work to the program's layers from
//! outside: a `Metric`/`FacilityCostFn` tap ([`tap`]), the engine's public
//! stat accessors ([`counters`]), a single-thread replay of the fleet, and
//! an empty `TaskPool::run` for dispatch cost.

pub mod counters;
pub mod fleet;
pub mod pd;
pub mod serve;
pub mod tap;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed whose output digests are recorded ([`expected_digest`]).
pub const DEFAULT_SEED: u64 = 1;

/// Output digests of each workload at [`DEFAULT_SEED`]. A run at that seed
/// whose digest differs counts every arrival of the pass as failed; at
/// other seeds `Solution::verify` and pass-to-pass agreement are the check.
const EXPECTED_DIGESTS: [(&str, u64); 3] = [
    ("pd-1m", 0x705e02716bb3975b),
    ("pd-4k-graph", 0x59348eb7b1a1efbc),
    ("fleet-mixed", 0x8b1513dc99f07915),
];

/// The recorded digest of `workload` at `seed`, if there is one.
pub fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    EXPECTED_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, d)| d)
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Measurement budget: passes start while they are expected to end
    /// within it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The result of one run: arrivals attempted and failed, metrics, and
/// human-readable summary lines printed before the JSON result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Arrivals attempted in timed passes.
    pub attempted: u64,
    /// Of them, arrivals that failed (engine error, quarantine, failed
    /// `verify`, or digest mismatch).
    pub failed: u64,
    /// Reported metrics, in report order.
    pub metrics: Vec<Reported>,
    /// Summary lines (medians, quartiles, sample counts, digests).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Reported {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records the median of `samples` as metric `name`, with a summary
    /// line giving its quartiles and sample count.
    pub fn median_metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let (q1, med, q3) = quartiles(samples);
        self.notes.push(format!(
            "{name}: median {med:.6} q1 {q1:.6} q3 {q3:.6} n {} [{unit}]",
            samples.len()
        ));
        self.metric(name, med, unit);
    }

    /// Adds a summary line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `(first quartile, median, third quartile)` by linear interpolation;
/// all three are the value itself for one sample and 0 for none.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let x = p * (v.len() - 1) as f64;
        let (i, frac) = (x.floor() as usize, x - x.floor());
        let hi = v[(i + 1).min(v.len() - 1)];
        v[i] + (hi - v[i]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Nearest-rank percentile `p ∈ (0, 1]` of unsorted samples (0 if none).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// FNV-1a fold of 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325, |h, w| {
        (h ^ w).wrapping_mul(0x100000001b3)
    })
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Time inside each arrival span not covered by its child spans, summed
/// over arrivals — the engine's own (`core.pd`) time. Spans must be in
/// recording order: an arrival's children precede the arrival span.
pub fn arrival_self_ns(spans: &[tap::Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = Vec::new();
    let mut total = 0;
    for s in spans {
        if s.kind != tap::SpanKind::Arrival {
            children.push((s.start_ns, s.end_ns));
            continue;
        }
        children.sort_unstable();
        let (mut covered, mut reach) = (0, s.start_ns);
        for &(a, b) in &children {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        total += (s.end_ns - s.start_ns).saturating_sub(covered);
        children.clear();
    }
    total
}

/// Writes spans as CSV (`kind,tenant,arrival,start_ns,end_ns`).
pub fn write_spans(path: &std::path::Path, spans: &[tap::Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "kind,tenant,arrival,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.kind.name(),
            s.tenant,
            s.arrival,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tap::{Span, SpanKind};

    #[test]
    fn quartiles_and_percentiles() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.5, 2.0, 2.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |kind, start_ns, end_ns| Span {
            kind,
            tenant: 0,
            arrival: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(SpanKind::Screen, 20, 40),
            span(SpanKind::Screen, 30, 50), // overlaps the first
            span(SpanKind::FillRow, 70, 80),
            span(SpanKind::Arrival, 10, 110),
            span(SpanKind::Arrival, 200, 210),
        ];
        assert_eq!(arrival_self_ns(&spans), (100 - 30 - 10) + 10);
    }

    #[test]
    fn json_has_the_result_keys() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.metric("setup_s", 1.25, "s");
        o.metric("arrivals_per_s", 10.0, "1/s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"arrivals_per_s\": {\"value\": 10.0, \"unit\": \"1/s\"}}}"
        );
    }
}

#[cfg(test)]
mod listed_metrics {
    //! The metrics a run prints are exactly those `BENCHMARK.json` lists.

    use super::*;
    use std::collections::BTreeSet;

    /// Names listed under `key` ("end_to_end" or "per_layer").
    fn listed(key: &str) -> BTreeSet<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let section = &doc[doc.find(&format!("\"{key}\"")).expect("section present")..];
        let section = &section[..section.find(']').expect("section ends")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name ends")].to_string())
            .collect()
    }

    fn reported(o: &Outcome) -> BTreeSet<String> {
        o.metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn opts(trace: bool) -> RunOptions {
        RunOptions {
            seed: 2,
            seconds: 0.01,
            trace,
            spans_dir: None,
        }
    }

    #[test]
    fn every_workload_prints_exactly_the_listed_metrics() {
        let pd_spec = pd::PdSpec {
            name: "small",
            family: "zipf-services-large",
            profile: omfl_workload::CatalogProfile {
                points: 8,
                services: 4,
                requests: 64,
            },
        };
        let mut fleet_spec = fleet::fleet_mixed();
        fleet_spec.small = 3;
        fleet_spec.small_profile.requests = 32;
        fleet_spec.large = 1;
        fleet_spec.large_profile.points = 8;
        fleet_spec.large_profile.requests = 32;
        for trace in [false, true] {
            let want = listed(if trace { "per_layer" } else { "end_to_end" });
            let runs = [
                pd::run(&pd_spec, &opts(trace)).expect("pd run"),
                fleet::run(&fleet_spec, &opts(trace)).expect("fleet run"),
            ];
            for o in runs {
                assert!(o.correct(), "{:?}", o.notes);
                assert_eq!(reported(&o), want, "trace {trace}");
                assert_eq!(o.metrics.len(), want.len(), "a metric is reported twice");
            }
        }
    }
}
