//! The multi-tenant workload: one `omfl_serve::Server` over many small
//! tenants plus a few large ones, fed by a single producer as fast as the
//! bounded ring admits (a saturation run), and a single-thread replay of
//! the same canonical arrival order through one `PdOmflp` per tenant.
//!
//! The replay is the fleet's output check (its digest must equal the
//! served run's), the source of per-arrival latency (the server exposes
//! only a log2 histogram), and, in a traced run, the per-tenant engine
//! times behind `serve.shard_skew` and `serve.overhead_share`.

use crate::pd::{report_end_to_end, save_spans, tapped_instance};
use crate::serve::{report_layers, serve_arrival, Layers};
use crate::tap::Probe;
use crate::{expected_digest, percentile, quartiles, Outcome, RunOptions};
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::instance::Instance;
use omfl_core::pd::PdOmflp;
use omfl_core::CoreError;
use omfl_par::{seed_for, TaskPool};
use omfl_serve::{ServeConfig, ServeReport, Server};
use omfl_sim::{ArrivalSource, Engine, StreamingMetrics};
use omfl_workload::{catalog, CatalogProfile, Scenario};
use std::sync::Arc;
use std::time::Instant;

/// A fleet: `small` tenants of one family then `large` of another.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Workload name.
    pub name: &'static str,
    /// Family of the small tenants.
    pub small_family: &'static str,
    /// Small tenant count.
    pub small: usize,
    /// Small tenants' profile.
    pub small_profile: CatalogProfile,
    /// Family of the large tenants.
    pub large_family: &'static str,
    /// Large tenant count.
    pub large: usize,
    /// Large tenants' profile.
    pub large_profile: CatalogProfile,
}

/// 64 small `zipf-services` tenants plus three `euclid-grid-large`
/// tenants (|M| = 16384, |S| = 16), 2048 arrivals each, round-robin. The
/// small tenants make per-arrival serve overhead visible; the three large
/// ones over `t % shards` shards load some shards more than others.
pub fn fleet_mixed() -> FleetSpec {
    FleetSpec {
        name: "fleet-mixed",
        small_family: "zipf-services",
        small: 64,
        small_profile: CatalogProfile {
            points: 16,
            services: 8,
            requests: 2048,
        },
        large_family: "euclid-grid-large",
        large: 3,
        large_profile: CatalogProfile {
            points: 256,
            services: 16,
            requests: 2048,
        },
    }
}

/// Arrivals per micro-batch: amortizes the per-batch pool barrier.
const MICRO_BATCH: usize = 1024;

/// Ring capacity: the producer's run-ahead bound.
const QUEUE_CAPACITY: usize = 8192;

/// Empty `TaskPool::run` calls timed for `par.dispatch_us`.
const DISPATCH_SAMPLES: usize = 2000;

/// The tenants' scenarios and their canonical arrival order.
pub struct Fleet {
    /// One scenario per tenant, small tenants first.
    pub scenarios: Vec<Scenario>,
    /// Round-robin order over the tenants.
    pub source: ArrivalSource,
}

/// Builds the fleet for `seed` (tenant `t` uses `seed_for(seed, t)`).
pub fn build(spec: &FleetSpec, seed: u64) -> Result<Fleet, CoreError> {
    let family = |name: &str| {
        catalog::by_name(name)
            .ok_or_else(|| CoreError::BadInstance(format!("no catalog family {name}")))
    };
    let (small, large) = (family(spec.small_family)?, family(spec.large_family)?);
    let scenarios = (0..spec.small + spec.large)
        .map(|t| {
            let tenant_seed = seed_for(seed, t as u64);
            if t < spec.small {
                small.build(&spec.small_profile, tenant_seed)
            } else {
                large.build(&spec.large_profile, tenant_seed)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let lens: Vec<usize> = scenarios.iter().map(Scenario::len).collect();
    Ok(Fleet {
        source: ArrivalSource::round_robin(&lens),
        scenarios,
    })
}

/// One served run.
#[derive(Debug)]
pub struct Served {
    /// `Server::new` seconds (every tenant's engine build).
    pub construct_s: f64,
    /// `Server::serve` wall seconds.
    pub serve_s: f64,
    /// Arrivals in the stream.
    pub arrivals: u64,
    /// Arrivals of quarantined tenants, or all of them on a serve error.
    pub failed: u64,
    /// `ServeReport::digest`.
    pub digest: u64,
    /// Producer blocking episodes on the full ring.
    pub backpressure_waits: u64,
}

/// Builds a server over the fleet and serves the whole stream.
pub fn serve(fleet: &Fleet, pool: &TaskPool, shards: usize) -> Served {
    let arrivals = fleet.source.len() as u64;
    let failed_run = |construct_s, e: &dyn std::fmt::Display| {
        eprintln!("serve failed: {e}");
        Served {
            construct_s,
            serve_s: f64::NAN,
            arrivals,
            failed: arrivals,
            digest: 0,
            backpressure_waits: 0,
        }
    };
    let t0 = Instant::now();
    let server = match Server::new(&fleet.scenarios, Engine::Pd) {
        Ok(s) => s,
        Err(e) => return failed_run(f64::NAN, &e),
    };
    let construct_s = t0.elapsed().as_secs_f64();
    let cfg = ServeConfig {
        shards,
        micro_batch: MICRO_BATCH,
        queue_capacity: QUEUE_CAPACITY,
        deadline: None,
    };
    let t0 = Instant::now();
    let (report, telemetry) = match server.serve(&fleet.source, &cfg, pool) {
        Ok(r) => r,
        Err(e) => return failed_run(construct_s, &e),
    };
    let serve_s = t0.elapsed().as_secs_f64();
    let mut failed: u64 = 0;
    for q in &report.quarantined {
        eprintln!("tenant {} quarantined: {:?}", q.tenant, q.reason);
        failed += fleet.scenarios[q.tenant].len() as u64;
    }
    if telemetry.ingest_gave_up {
        eprintln!("ingest gave up");
        failed = arrivals;
    }
    Served {
        construct_s,
        serve_s,
        arrivals,
        failed,
        digest: report.digest,
        backpressure_waits: telemetry.backpressure_waits,
    }
}

/// One single-thread replay of the fleet's canonical order.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall seconds of the serve loop.
    pub serve_s: f64,
    /// Per-arrival `serve` durations, ns.
    pub lat_ns: Vec<u64>,
    /// Engine time per tenant, ns.
    pub tenant_ns: Vec<u64>,
    /// Digest over the tenants' reports, computed as `ServeReport` does.
    pub digest: u64,
    /// Arrivals of tenants whose engine erred or whose solution failed
    /// `verify`.
    pub failed: u64,
    /// Per-layer attribution (traced replays only).
    pub layers: Option<Layers>,
}

/// Replays the fleet through one `PdOmflp` per tenant on this thread;
/// traced when a probe is given (one probe for all tenants).
pub fn replay(fleet: &Fleet, probe: Option<&Arc<Probe>>) -> Result<Replay, CoreError> {
    let scenarios = &fleet.scenarios;
    let tapped = match probe {
        Some(p) => Some(
            scenarios
                .iter()
                .map(|sc| tapped_instance(sc, p))
                .collect::<Result<Vec<Instance>, _>>()?,
        ),
        None => None,
    };
    let instance = |t: usize| match &tapped {
        Some(v) => &v[t],
        None => scenarios[t].instance(),
    };
    let mut layers = probe.map(|_| Layers::default());
    let counts = || probe.map(|p| p.counts()).unwrap_or_default();

    let c0 = counts();
    let mut engines: Vec<PdOmflp<'_>> = (0..scenarios.len())
        .map(|t| PdOmflp::new(instance(t)))
        .collect();
    let c1 = counts();
    let mut metrics: Vec<StreamingMetrics> = scenarios
        .iter()
        .map(|sc| StreamingMetrics::with_capacity(sc.len()))
        .collect();
    let mut dead = vec![false; scenarios.len()];
    let mut tenant_ns = vec![0u64; scenarios.len()];
    let mut lat_ns = Vec::with_capacity(fleet.source.len());

    let t0 = Instant::now();
    for &(t, i) in fleet.source.order() {
        let tu = t as usize;
        if dead[tu] {
            continue;
        }
        let traced = probe.zip(layers.as_mut()).map(|(p, l)| (p.as_ref(), l));
        let engine = &mut engines[tu];
        match serve_arrival(engine, &scenarios[tu].requests[i as usize], traced, t, i) {
            Ok((out, ns)) => {
                lat_ns.push(ns);
                tenant_ns[tu] += ns;
                metrics[tu].observe(&out, engine.solution().total_cost());
            }
            Err(e) => {
                eprintln!("tenant {t} arrival {i} failed: {e}");
                dead[tu] = true;
            }
        }
    }
    let serve_s = t0.elapsed().as_secs_f64();
    let c2 = counts();

    let mut failed = 0;
    let mut tenants = Vec::with_capacity(scenarios.len());
    for (t, (engine, m)) in engines.iter().zip(metrics).enumerate() {
        if !dead[t] {
            if let Err(e) = engine.solution().verify(instance(t)) {
                eprintln!("tenant {t} failed verify: {e}");
                dead[t] = true;
            }
        }
        if dead[t] {
            failed += scenarios[t].len() as u64;
        }
        tenants.push(m.finish(Engine::Pd, &scenarios[t], engine.solution()));
    }
    let report = ServeReport {
        engine: Engine::Pd.name(),
        tenants,
        quarantined: Vec::new(),
        arrivals: 0,
        total_cost: 0.0,
        construction_cost: 0.0,
        connection_cost: 0.0,
        facilities: 0,
        large_facilities: 0,
        digest: 0,
    };
    if let (Some(l), Some(p)) = (layers.as_mut(), probe) {
        l.construct = c1.since(c0);
        l.serve = c2.since(c1);
        (l.spans, l.spans_dropped) = p.take_spans();
    }
    Ok(Replay {
        serve_s,
        lat_ns,
        tenant_ns,
        digest: report.digest_over(|_| true),
        failed,
        layers,
    })
}

/// Median of an empty `TaskPool::run(shards, ..)` on `pool`, µs.
fn dispatch_us(pool: &TaskPool, shards: usize) -> f64 {
    let mut ns: Vec<u64> = (0..DISPATCH_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            pool.run(shards, |s| {
                std::hint::black_box(s);
            })
            .expect("an empty task cannot panic");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    percentile(&mut ns, 0.5) as f64 * 1e-3
}

/// Runs the fleet workload in this process.
///
/// Set-up is measured once, cold: build every tenant's scenario, then
/// `Server::new`. That server serves the whole stream as an untimed
/// warm-up. Then timed passes — a fresh server over the same scenarios —
/// run until the time budget is spent (at least one). The first pass is
/// followed by a replay; in a traced run every pass is, and by a traced
/// replay too.
/// Shards and pool threads both equal `omfl_par::default_threads()`.
pub fn run(spec: &FleetSpec, opts: &RunOptions) -> Result<Outcome, CoreError> {
    let mut out = Outcome::default();
    let threads = omfl_par::default_threads();
    let shards = threads;
    let pool = TaskPool::new(threads);

    let t0 = Instant::now();
    let fleet = build(spec, opts.seed)?;
    let build_s = t0.elapsed().as_secs_f64();
    let warm = serve(&fleet, &pool, shards);
    let reference = expected_digest(spec.name, opts.seed).unwrap_or(warm.digest);
    out.note(format!(
        "{} seed {} digest {:#018x} (warm-up {:#018x}); {} tenants, {} arrivals, \
         {shards} shards, {threads} threads; set-up {:.3} s = build {build_s:.3} s + \
         Server::new {:.3} s",
        spec.name,
        opts.seed,
        reference,
        warm.digest,
        spec.small + spec.large,
        warm.arrivals,
        build_s + warm.construct_s,
        warm.construct_s
    ));

    let mut rate = Vec::new();
    let mut wall = Vec::new();
    let mut waits = Vec::new();
    let mut replay_s = Vec::new();
    let mut traced_replay_s = Vec::new();
    let mut overhead_share = Vec::new();
    let mut skew = Vec::new();
    let mut lat_ns = Vec::new();
    let mut last_layers = None;
    let started = Instant::now();
    loop {
        let pass_start = Instant::now();
        let s = serve(&fleet, &pool, shards);
        let mut failed = s.failed;
        if failed == 0 && s.digest != reference {
            eprintln!("served digest {:#018x} != {reference:#018x}", s.digest);
            failed = s.arrivals;
        }
        eprintln!("pass {}: serve {:.3} s", rate.len(), s.serve_s);
        rate.push(s.arrivals as f64 / s.serve_s);
        wall.push(s.serve_s);
        waits.push(s.backpressure_waits as f64);

        // The replay is slower than serving; an untraced run replays once.
        if replay_s.is_empty() || opts.trace {
            // Traced and untraced replays alternate which goes first, so
            // that neither always finds the other's warm caches.
            let traced_first = opts.trace && replay_s.len() % 2 == 1;
            let early = traced_first
                .then(|| replay(&fleet, Some(&Probe::new())))
                .transpose()?;
            let r = replay(&fleet, None)?;
            if r.failed == 0 && r.digest != s.digest {
                eprintln!(
                    "replayed digest {:#018x} != served {:#018x}",
                    r.digest, s.digest
                );
                failed = s.arrivals;
            }
            failed = failed.max(r.failed);
            eprintln!("replay {:.3} s", r.serve_s);
            replay_s.push(r.serve_s);
            lat_ns.extend_from_slice(&r.lat_ns);
            let mut shard_ns = vec![0u64; shards];
            for (t, ns) in r.tenant_ns.iter().enumerate() {
                shard_ns[t % shards] += ns;
            }
            let busiest = *shard_ns.iter().max().unwrap_or(&0) as f64;
            let mean = shard_ns.iter().sum::<u64>() as f64 / shards as f64;
            overhead_share.push(1.0 - busiest * 1e-9 / s.serve_s);
            skew.push(busiest / mean);

            if opts.trace {
                let t = match early {
                    Some(t) => t,
                    None => replay(&fleet, Some(&Probe::new()))?,
                };
                if t.failed == 0 && t.digest != r.digest {
                    eprintln!(
                        "traced digest {:#018x} != untraced {:#018x}",
                        t.digest, r.digest
                    );
                    failed = s.arrivals;
                }
                failed = failed.max(t.failed);
                traced_replay_s.push(t.serve_s);
                last_layers = t.layers;
            }
        }
        out.attempted += s.arrivals;
        out.failed += failed;

        // The next pass takes as long as this one, less the replay when
        // only the first pass replays.
        let next_pass_s = if opts.trace {
            pass_start.elapsed().as_secs_f64()
        } else {
            s.serve_s
        };
        if started.elapsed().as_secs_f64() + next_pass_s > opts.seconds {
            break;
        }
    }

    if !opts.trace {
        out.note("fleet per-arrival latency is the single-thread replay's".to_string());
        report_end_to_end(&mut out, build_s + warm.construct_s, &rate, &mut lat_ns);
        return Ok(out);
    }

    out.metric("workload.build_s", build_s, "s");
    out.metric("core.pd.construct_s", warm.construct_s, "s");
    let layers = last_layers.expect("a traced run makes at least one traced pass");
    report_layers(&mut out, &layers);

    let (_, wall_s, _) = quartiles(&wall);
    // The server exposes no batch count. At saturation the producer keeps a
    // full micro-batch queued, so the count is the stream over the batch
    // size (a lower bound if the consumer ever drained a partial batch).
    let batches = fleet.source.len().div_ceil(MICRO_BATCH) as f64;
    let dispatch = dispatch_us(&pool, shards);
    out.median_metric("serve.wall_s", &wall, "s");
    out.median_metric("serve.replay_s", &replay_s, "s");
    out.metric("serve.batches", batches, "count");
    out.median_metric("serve.backpressure_waits", &waits, "count");
    out.median_metric("serve.overhead_share", &overhead_share, "ratio");
    out.median_metric("serve.shard_skew", &skew, "ratio");
    out.metric("par.dispatch_us", dispatch, "us");
    out.metric(
        "par.dispatch_share",
        dispatch * 1e-6 * batches / wall_s,
        "ratio",
    );
    let (_, untraced, _) = quartiles(&replay_s);
    let (_, traced, _) = quartiles(&traced_replay_s);
    out.metric("trace.overhead", traced / untraced, "ratio");
    save_spans(&mut out, opts, spec.name, &layers);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetSpec {
        FleetSpec {
            name: "small",
            small_family: "zipf-services",
            small: 4,
            small_profile: CatalogProfile {
                points: 8,
                services: 4,
                requests: 64,
            },
            large_family: "euclid-grid-large",
            large: 2,
            large_profile: CatalogProfile {
                points: 8,
                services: 4,
                requests: 64,
            },
        }
    }

    #[test]
    fn served_replayed_and_traced_digests_agree() {
        let fleet = build(&small(), 7).expect("fleet builds");
        let pool = TaskPool::new(2);
        let served = serve(&fleet, &pool, 2);
        assert_eq!((served.failed, served.arrivals), (0, 6 * 64));
        let plain = replay(&fleet, None).expect("replay runs");
        let traced = replay(&fleet, Some(&Probe::new())).expect("replay runs");
        assert_eq!((plain.failed, traced.failed), (0, 0));
        assert_eq!(plain.digest, served.digest);
        assert_eq!(traced.digest, served.digest);
        assert_eq!(plain.lat_ns.len(), 6 * 64);
        assert_eq!(plain.tenant_ns.len(), 6);
        let layers = traced.layers.expect("traced replay has layers");
        assert_eq!(layers.arrivals, 6 * 64);
    }
}
