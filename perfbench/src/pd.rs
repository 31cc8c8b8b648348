//! The single-engine workloads: one `PdOmflp` serving one catalog stream,
//! closed loop with one caller (each arrival is served before the next is
//! offered).

use crate::serve::{report_layers, report_no_serve_layer, serve_arrival, Layers};
use crate::tap::{CostTap, MetricTap, Probe};
use crate::{
    expected_digest, fnv, peak_rss_mib, percentile, quartiles, write_spans, Outcome, RunOptions,
};
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::instance::Instance;
use omfl_core::pd::PdOmflp;
use omfl_core::CoreError;
use omfl_workload::{catalog, CatalogProfile, Scenario};
use std::sync::Arc;
use std::time::Instant;

/// A single-engine workload: a catalog family at a fixed profile.
#[derive(Debug, Clone)]
pub struct PdSpec {
    /// Workload name.
    pub name: &'static str,
    /// Catalog family.
    pub family: &'static str,
    /// Size profile.
    pub profile: CatalogProfile,
}

/// `euclid-grid-large` at |M| = 1,048,576, |S| = 8, 1024 arrivals: most
/// arrivals open facilities, so openings' O(|M|) passes, partial row
/// fills, row promotions and evictions, the sharded freeze walk and the
/// engine's internal pool do the work.
pub fn pd_1m() -> PdSpec {
    PdSpec {
        name: "pd-1m",
        family: "euclid-grid-large",
        profile: CatalogProfile {
            points: 16384,
            services: 8,
            requests: 1024,
        },
    }
}

/// `zipf-services-large` at |M| = 4096 (graph metric), |S| = 64, 16384
/// arrivals: below every size threshold of the engine, and most arrivals
/// are quiet, so t3/t4 argmins and t1 lookups are the per-arrival work.
pub fn pd_4k_graph() -> PdSpec {
    PdSpec {
        name: "pd-4k-graph",
        family: "zipf-services-large",
        profile: CatalogProfile {
            points: 128,
            services: 64,
            requests: 16384,
        },
    }
}

/// Arrivals the untimed warm-up pass serves: enough to touch every code
/// path and the allocator's working set once.
const WARMUP_ARRIVALS: usize = 128;

/// One engine built and driven over the whole stream.
#[derive(Debug, Default)]
pub struct Pass {
    /// `PdOmflp::new` seconds.
    pub construct_s: f64,
    /// Wall seconds of the serve loop.
    pub serve_s: f64,
    /// Per-arrival `serve` durations, ns.
    pub lat_ns: Vec<u64>,
    /// Output digest (see [`digest`]).
    pub digest: u64,
    /// Arrivals attempted.
    pub arrivals: u64,
    /// Arrivals that failed: from an engine error on, or all of them when
    /// the finished solution fails `verify`.
    pub failed: u64,
    /// Per-layer attribution (traced passes only).
    pub layers: Option<Layers>,
}

/// Builds the workload's scenario for `seed`.
pub fn build(spec: &PdSpec, seed: u64) -> Result<Scenario, CoreError> {
    catalog::by_name(spec.family)
        .ok_or_else(|| CoreError::BadInstance(format!("no catalog family {}", spec.family)))?
        .build(&spec.profile, seed)
}

/// The instance a traced pass runs on: the scenario's metric and cost
/// model behind the taps.
pub fn tapped_instance(sc: &Scenario, probe: &Arc<Probe>) -> Result<Instance, CoreError> {
    Instance::with_cost_fn(
        Box::new(MetricTap::new(Arc::clone(&sc.metric), Arc::clone(probe))),
        Box::new(CostTap::new(sc.cost.clone(), Arc::clone(probe))),
    )
}

/// Output digest of a finished engine: arrivals, cost bits, facilities.
pub fn digest(engine: &dyn OnlineAlgorithm) -> u64 {
    let sol = engine.solution();
    fnv([
        sol.num_requests() as u64,
        sol.total_cost().to_bits(),
        sol.construction_cost().to_bits(),
        sol.connection_cost().to_bits(),
        sol.facilities().len() as u64,
        sol.num_large_facilities() as u64,
    ])
}

/// Builds an engine over `sc` and serves the first `arrivals` of its
/// stream; traced when a probe is given.
pub fn run_pass(
    sc: &Scenario,
    arrivals: usize,
    probe: Option<&Arc<Probe>>,
) -> Result<Pass, CoreError> {
    let tapped = probe.map(|p| tapped_instance(sc, p)).transpose()?;
    let inst = tapped.as_ref().unwrap_or(sc.instance());
    let mut layers = probe.map(|_| Layers::default());
    let counts = || probe.map(|p| p.counts()).unwrap_or_default();

    let c0 = counts();
    let t0 = Instant::now();
    let mut engine = PdOmflp::new(inst);
    let construct_s = t0.elapsed().as_secs_f64();
    let c1 = counts();

    let n = arrivals.min(sc.requests.len());
    let mut lat_ns = Vec::with_capacity(n);
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, r) in sc.requests[..n].iter().enumerate() {
        let traced = probe.zip(layers.as_mut()).map(|(p, l)| (p.as_ref(), l));
        match serve_arrival(&mut engine, r, traced, 0, i as u32) {
            Ok((_, ns)) => lat_ns.push(ns),
            Err(e) => {
                eprintln!("arrival {i} failed: {e}");
                failed = (n - i) as u64;
                break;
            }
        }
    }
    let serve_s = t0.elapsed().as_secs_f64();
    let c2 = counts();

    if failed == 0 {
        if let Err(e) = engine.solution().verify(inst) {
            eprintln!("solution failed verify: {e}");
            failed = n as u64;
        }
    }
    if let (Some(l), Some(p)) = (layers.as_mut(), probe) {
        l.construct = c1.since(c0);
        l.serve = c2.since(c1);
        (l.spans, l.spans_dropped) = p.take_spans();
    }
    Ok(Pass {
        construct_s,
        serve_s,
        lat_ns,
        digest: digest(&engine),
        arrivals: n as u64,
        failed,
        layers,
    })
}

/// Runs a single-engine workload in this process.
///
/// Set-up is measured once, cold, as a process meets it: build the
/// scenario, construct the engine. That engine serves a prefix of the
/// stream as an untimed warm-up. Then timed passes — a fresh engine over
/// the whole stream each — run until the time budget is spent (at least
/// one). A traced run pairs each untraced pass with a traced one.
///
/// Every pass's digest must equal the recorded one at the default seed,
/// and the first timed pass's at other seeds.
pub fn run(spec: &PdSpec, opts: &RunOptions) -> Result<Outcome, CoreError> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let sc = build(spec, opts.seed)?;
    let build_s = t0.elapsed().as_secs_f64();
    let warm = run_pass(&sc, WARMUP_ARRIVALS, None)?;
    let mut reference = expected_digest(spec.name, opts.seed);

    let mut rate = Vec::new();
    let mut serve_s = Vec::new();
    let mut traced_serve_s = Vec::new();
    let mut lat_ns = Vec::new();
    let mut last_layers = None;
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        // Traced and untraced passes alternate which goes first, so that
        // neither always finds the other's warm caches.
        let traced_first = opts.trace && serve_s.len() % 2 == 1;
        let early = traced_first
            .then(|| run_pass(&sc, usize::MAX, Some(&Probe::new())))
            .transpose()?;
        let p = run_pass(&sc, usize::MAX, None)?;
        let expected = *reference.get_or_insert(p.digest);
        let mismatch = p.failed == 0 && p.digest != expected;
        if mismatch {
            eprintln!("digest {:#018x} != {expected:#018x}", p.digest);
        }
        out.attempted += p.arrivals;
        out.failed += if mismatch { p.arrivals } else { p.failed };
        eprintln!(
            "pass {}: construct {:.3} s, serve {:.3} s",
            rate.len(),
            p.construct_s,
            p.serve_s
        );
        rate.push(p.arrivals as f64 / p.serve_s);
        serve_s.push(p.serve_s);
        lat_ns.extend_from_slice(&p.lat_ns);

        if opts.trace {
            let t = match early {
                Some(t) => t,
                None => run_pass(&sc, usize::MAX, Some(&Probe::new()))?,
            };
            if t.failed == 0 && t.digest != p.digest {
                eprintln!(
                    "traced digest {:#018x} != untraced {:#018x}",
                    t.digest, p.digest
                );
                out.failed += t.arrivals;
            }
            out.attempted += t.arrivals;
            out.failed += t.failed;
            traced_serve_s.push(t.serve_s);
            last_layers = t.layers;
        }

        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + pass_start.elapsed().as_secs_f64() > opts.seconds {
            break;
        }
    }

    out.note(format!(
        "{} seed {} digest {:#018x}; set-up {:.3} s = build {build_s:.3} s + construct {:.3} s",
        spec.name,
        opts.seed,
        reference.unwrap_or_default(),
        build_s + warm.construct_s,
        warm.construct_s
    ));
    if !opts.trace {
        report_end_to_end(&mut out, build_s + warm.construct_s, &rate, &mut lat_ns);
        return Ok(out);
    }

    out.metric("workload.build_s", build_s, "s");
    out.metric("core.pd.construct_s", warm.construct_s, "s");
    let layers = last_layers.expect("a traced run makes at least one traced pass");
    report_layers(&mut out, &layers);
    report_no_serve_layer(&mut out);
    let (_, untraced, _) = quartiles(&serve_s);
    let (_, traced, _) = quartiles(&traced_serve_s);
    out.metric("trace.overhead", traced / untraced, "ratio");
    save_spans(&mut out, opts, spec.name, &layers);
    Ok(out)
}

/// Reports the end-to-end metrics of an untraced run: set-up, the fastest
/// pass's throughput, per-arrival percentiles (with their sample count),
/// the served share and peak memory.
pub fn report_end_to_end(out: &mut Outcome, setup_s: f64, rate: &[f64], lat_ns: &mut [u64]) {
    out.metric("setup_s", setup_s, "s");
    // The fastest pass: other load on the host slows some passes, never
    // speeds one up, so the best pass is what repeats from run to run.
    let (q1, med, q3) = quartiles(rate);
    let best = rate.iter().copied().fold(0.0, f64::max);
    out.note(format!(
        "arrivals_per_s: best {best:.6} median {med:.6} q1 {q1:.6} q3 {q3:.6} n {} [1/s]",
        rate.len()
    ));
    out.metric("arrivals_per_s", best, "1/s");
    let samples = lat_ns.len();
    let p50 = percentile(lat_ns, 0.50) as f64 * 1e-3;
    let p99 = percentile(lat_ns, 0.99) as f64 * 1e-3;
    out.note(format!(
        "arrival latency: p50 {p50:.3} us, p99 {p99:.3} us over {samples} samples \
         ({} beyond p99)",
        samples - (0.99 * samples as f64).ceil() as usize
    ));
    out.metric("arrival_p50_us", p50, "us");
    out.metric("arrival_p99_us", p99, "us");
    let served = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("served_share", served, "ratio");
    out.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB");
}

/// Writes a traced pass's spans where the options say.
pub fn save_spans(out: &mut Outcome, opts: &RunOptions, workload: &str, layers: &Layers) {
    let Some(dir) = &opts.spans_dir else { return };
    let path = dir.join(format!("spans-{workload}-seed{}.csv", opts.seed));
    match write_spans(&path, &layers.spans) {
        Ok(()) => out.note(format!(
            "wrote {} spans to {}",
            layers.spans.len(),
            path.display()
        )),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::SpanKind;

    pub(crate) fn small(family: &'static str) -> PdSpec {
        PdSpec {
            name: "small",
            family,
            profile: CatalogProfile {
                points: 24,
                services: 6,
                requests: 200,
            },
        }
    }

    #[test]
    fn traced_pass_matches_untraced_and_attributes_every_opening() {
        for family in ["euclid-grid-large", "zipf-services-large"] {
            let sc = build(&small(family), 3).expect("scenario builds");
            let plain = run_pass(&sc, usize::MAX, None).expect("pass runs");
            let traced = run_pass(&sc, usize::MAX, Some(&Probe::new())).expect("pass runs");
            assert_eq!((plain.failed, traced.failed), (0, 0), "{family}");
            assert_eq!(plain.digest, traced.digest, "{family}");

            let l = traced.layers.expect("traced pass has layers");
            assert_eq!(l.arrivals, sc.len() as u64);
            assert!(l.openings > 0 && l.open_arrivals > 0, "{family}");
            assert_eq!(l.open.get("core.index.facility_openings"), l.openings);
            assert_eq!(l.quiet.get("core.index.facility_openings"), 0);
            let arrival_spans = l.spans.iter().filter(|s| s.kind == SpanKind::Arrival);
            assert_eq!(arrival_spans.count(), sc.len());
            assert!(l.construct.cost_evals > 0, "{family}");
        }
    }

    #[test]
    fn warm_up_prefix_serves_only_the_prefix() {
        let sc = build(&small("euclid-grid-large"), 1).expect("scenario builds");
        let p = run_pass(&sc, 10, None).expect("pass runs");
        assert_eq!((p.arrivals, p.lat_ns.len(), p.failed), (10, 10, 0));
    }
}
