//! Serve-layer acceptance: the multi-tenant loop must be bit-identical
//! across shard counts, thread counts and micro-batch sizes, must agree
//! with the single-tenant batch runner per tenant, and must survive every
//! degenerate stream (|M| = 1, zero-demand arrivals, empty batches,
//! traffic-less tenants) without losing snapshot consistency.

use omfl_commodity::cost::CostModel;
use omfl_commodity::{CommoditySet, Universe};
use omfl_core::request::Request;
use omfl_core::CoreError;
use omfl_metric::line::LineMetric;
use omfl_metric::PointId;
use omfl_par::TaskPool;
use omfl_serve::{ServeConfig, ServeError, ServeReport, Server};
use omfl_sim::{build_scenario, run_engine, ArrivalSource, Engine, SimConfig};
use omfl_workload::Scenario;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// A small fleet of distinct tenant scenarios (different seeds and sizes).
fn tenant_fleet(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|t| {
            build_scenario(&SimConfig {
                nodes: 20 + 3 * t,
                extra_edges: 10,
                requests: 40 + 11 * t,
                seed: 1000 + t as u64,
                ..SimConfig::default()
            })
            .expect("scenario builds")
        })
        .collect()
}

fn lens(scenarios: &[Scenario]) -> Vec<usize> {
    scenarios.iter().map(|s| s.requests.len()).collect()
}

fn serve_once(
    scenarios: &[Scenario],
    source: &ArrivalSource,
    shards: usize,
    threads: usize,
    micro_batch: usize,
) -> ServeReport {
    let pool = TaskPool::new(threads);
    let server = Server::new(scenarios, Engine::Pd).expect("pd tenants build");
    let cfg = ServeConfig {
        shards,
        micro_batch,
        queue_capacity: 128,
        deadline: None,
    };
    let (report, telemetry) = server.serve(source, &cfg, &pool).expect("serve succeeds");
    assert_eq!(telemetry.shards, shards.max(1));
    report
}

/// The acceptance gate: aggregate serve reports are bit-identical across
/// shard/thread configurations 1/2/7/16 and across micro-batch sizes.
#[test]
fn serve_reports_bit_identical_across_shards_threads_and_batches() {
    let scenarios = tenant_fleet(5);
    let source = ArrivalSource::interleaved(&lens(&scenarios), 99);
    let baseline = serve_once(&scenarios, &source, 1, 1, 64);
    assert_eq!(baseline.arrivals, source.len());
    for (shards, threads, micro_batch) in [
        (2, 2, 64),
        (7, 7, 1),
        (16, 16, 7),
        (16, 2, 1024),
        (3, 16, 5),
    ] {
        let report = serve_once(&scenarios, &source, shards, threads, micro_batch);
        assert_eq!(
            report, baseline,
            "serve report diverged at shards={shards} threads={threads} batch={micro_batch}"
        );
        assert_eq!(report.digest, baseline.digest);
    }
}

/// The interleaving itself must not matter either: round-robin and seeded
/// weighted merges of the same per-tenant streams serve each tenant the
/// same requests in the same order, so per-tenant reports coincide.
#[test]
fn serve_report_independent_of_interleaving() {
    let scenarios = tenant_fleet(3);
    let ls = lens(&scenarios);
    let a = serve_once(&scenarios, &ArrivalSource::round_robin(&ls), 2, 4, 16);
    let b = serve_once(&scenarios, &ArrivalSource::interleaved(&ls, 1), 2, 4, 16);
    let c = serve_once(&scenarios, &ArrivalSource::interleaved(&ls, 2), 2, 4, 16);
    assert_eq!(a, b);
    assert_eq!(b, c);
}

/// Each tenant's report through the serve loop equals the single-tenant
/// batch runner's report for the same scenario and engine.
#[test]
fn serve_tenants_match_batch_runner() {
    let scenarios = tenant_fleet(4);
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let report = serve_once(&scenarios, &source, 4, 4, 32);
    assert_eq!(report.engine, "pd-omflp");
    for (scenario, served) in scenarios.iter().zip(&report.tenants) {
        let batch = run_engine(scenario, Engine::Pd).expect("batch run succeeds");
        assert_eq!(served, &batch, "tenant {} diverged", scenario.name);
    }
}

/// Snapshot handles read consistent state concurrently with the serve loop
/// and settle on the final engine state; a traffic-less tenant's handle
/// stays at the default snapshot throughout.
#[test]
fn snapshots_read_consistently_and_idle_tenant_stays_default() {
    let scenarios = tenant_fleet(3);
    let mut ls = lens(&scenarios);
    ls[1] = 0; // tenant 1 exists but receives no traffic
    let source = ArrivalSource::round_robin(&ls);
    let pool = TaskPool::new(4);
    let server = Server::new(&scenarios, Engine::Pd).expect("pd tenants build");
    let handles: Vec<_> = (0..scenarios.len())
        .map(|t| server.snapshot_handle(t).expect("tenant not poisoned"))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(Barrier::new(2));

    let (report, _telemetry) = std::thread::scope(|scope| {
        let reader = {
            let handles = handles.clone();
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            scope.spawn(move || {
                let read_all = || {
                    for h in &handles {
                        let snap = h.read();
                        // Internal consistency: a published snapshot is one
                        // coherent engine state, never a torn mix.
                        assert!(snap.facilities >= snap.large_facilities);
                        assert!(snap.construction_cost >= 0.0);
                        assert!(snap.connection_cost >= 0.0);
                        assert!(snap.arrivals > 0 || snap.total_cost() == 0.0);
                    }
                    handles.len() as u64
                };
                // One whole pass before serving starts, so the reads never
                // depend on when this thread is first scheduled.
                let mut reads = read_all();
                ready.wait();
                while !stop.load(Ordering::Relaxed) {
                    reads += read_all();
                }
                reads
            })
        };
        ready.wait();
        let out = server
            .serve(&source, &ServeConfig::default(), &pool)
            .expect("serve succeeds");
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().expect("reader clean") > 0);
        out
    });

    assert_eq!(*handles[1].read(), Default::default(), "idle tenant");
    assert_eq!(report.tenants[1].requests, 0);
    assert_eq!(report.tenants[1].total_cost, 0.0);
    for t in [0, 2] {
        let snap = handles[t].read();
        assert_eq!(snap.arrivals, report.tenants[t].requests);
        assert_eq!(snap.construction_cost, report.tenants[t].construction_cost);
        assert_eq!(snap.connection_cost, report.tenants[t].connection_cost);
        assert!(snap.dual_lower_bound > 0.0, "pd publishes its dual bound");
    }
}

/// A single-point metric (|M| = 1) flows through every engine and through
/// the serve loop: everything is forced onto the one location.
#[test]
fn single_point_metric_through_every_engine_and_serve() {
    let metric: Arc<dyn omfl_metric::Metric> =
        Arc::new(LineMetric::new(vec![0.0]).expect("one point"));
    let universe = Universe::new(4).expect("universe");
    let requests: Vec<Request> = (0..6)
        .map(|i| {
            let ids = [i % 4, (i + 1) % 4];
            Request::new(PointId(0), CommoditySet::from_ids(universe, &ids).unwrap())
        })
        .collect();
    let cost = CostModel::affine(4, 3.0, 0.5);
    let scenario = Scenario::new("single-point", metric, cost, requests).expect("scenario builds");

    for engine in Engine::all(7) {
        let report = run_engine(&scenario, engine).expect("engine survives |M| = 1");
        assert_eq!(report.requests, 6);
        assert!(report.facilities >= 1);
        assert_eq!(report.latency.max, 0.0, "one point, zero distances");
    }

    let scenarios = vec![scenario];
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let report = serve_once(&scenarios, &source, 2, 2, 2);
    assert_eq!(report.arrivals, 6);
    assert_eq!(
        report.tenants[0],
        run_engine(&scenarios[0], Engine::Pd).unwrap()
    );
}

/// Zero-demand arrivals cannot be constructed: the request constructor is
/// the serve loop's guarantee that every queued arrival has `sr ≠ ∅`.
#[test]
fn zero_demand_arrivals_are_rejected_at_construction() {
    let universe = Universe::new(3).expect("universe");
    let err = Request::try_new(PointId(0), CommoditySet::empty(universe)).unwrap_err();
    assert!(matches!(err, CoreError::BadRequest(_)));
}

/// Empty streams and empty micro-batches terminate cleanly: the report has
/// zero arrivals and zero cost everywhere.
#[test]
fn empty_stream_serves_to_an_empty_report() {
    let scenarios = tenant_fleet(2);
    let source = ArrivalSource::round_robin(&[0, 0]);
    assert!(source.is_empty());
    let report = serve_once(&scenarios, &source, 4, 2, 8);
    assert_eq!(report.arrivals, 0);
    assert_eq!(report.total_cost, 0.0);
    assert_eq!(report.facilities, 0);
    assert_eq!(report.tenants.len(), 2);
    for t in &report.tenants {
        assert_eq!(t.requests, 0);
        assert!(t.cost_over_time.is_empty());
    }
    // No tenants at all is equally fine.
    let no_tenants: Vec<Scenario> = Vec::new();
    let none = serve_once(&no_tenants, &ArrivalSource::round_robin(&[]), 3, 2, 8);
    assert_eq!(none.arrivals, 0);
    assert!(none.tenants.is_empty());
}

/// The projected baselines cannot live as boxed tenant engines; the server
/// reports that as a typed error instead of panicking.
#[test]
fn unsupported_tenant_engines_surface_a_typed_error() {
    let scenarios = tenant_fleet(1);
    for engine in [Engine::PerCommodity, Engine::AllLarge] {
        match Server::new(&scenarios, engine) {
            Err(ServeError::UnsupportedEngine(name)) => assert_eq!(name, engine.name()),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("expected UnsupportedEngine for {}", engine.name()),
        }
    }
}

/// Degenerate config values (zero shards, zero micro-batch) clamp instead
/// of dividing by zero or spinning.
#[test]
fn degenerate_config_values_are_clamped() {
    let scenarios = tenant_fleet(1);
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let report = serve_once(&scenarios, &source, 0, 1, 0);
    assert_eq!(report.arrivals, source.len());
}
