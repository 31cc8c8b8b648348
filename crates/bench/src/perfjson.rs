//! The `--emit-json` perf-regression path: machine-readable benchmark
//! baselines in `BENCH_pd.json`, `BENCH_sweep.json`, `BENCH_serve.json`
//! and `BENCH_opt.json`.
//!
//! The ROADMAP's "measurably faster" PRs need numbers to beat; this module
//! produces them:
//!
//! * **`BENCH_pd.json`** — the PD serve hot path: the `zipf-services`
//!   cell (indexed engine vs the linear-scan oracle
//!   `omfl_core::naive::NaivePd` — what the index layer buys), and three
//!   single-engine cells timing `PdOmflp::new` construct + serve: `large`
//!   (`zipf-services-large` at |M| = 4096, a graph metric), `euclid-large`
//!   (`euclid-grid-large` at |M| = 16384) and `huge` (`euclid-grid-large`
//!   at |M| = 1048576). Each large cell records `incremental_secs` and its
//!   deterministic `block_skip_rate`, and every timed run must reproduce
//!   the total cost of one untimed `NaivePd` run bit for bit (see
//!   [`pd_timing`]);
//! * **`BENCH_sweep.json`** — per (engine × family) serve wall-clock
//!   (mean/std/min/max over trials) for the whole catalog under the
//!   work-stealing sweep;
//! * **`BENCH_serve.json`** — the multi-tenant serve loop (`omfl_serve`):
//!   the machine-independent `digest_match` determinism cell (aggregate
//!   reports bit-identical across shard/thread configs
//!   [`SERVE_DETERMINISM_CONFIGS`], hard-gated at 1.0), the
//!   `arrivals_per_sec` throughput cell (gated as a ratio against the
//!   committed baseline, dev-box target ≥ 1M/s aggregate), and
//!   informational p50/p99 latency and backpressure telemetry;
//! * **`BENCH_opt.json`** — certified exact optima (see [`opt_json`]).
//!
//! The committed files at the repo root are the baseline; CI re-runs the
//! smoke profile and [`check`]s the fresh numbers against them: missing
//! keys fail, a `secs.mean` with a baseline of at least [`MIN_GATED_SECS`]
//! regressing by more than [`REGRESSION_FACTOR`] fails, the small-cell
//! speedup dropping below [`MIN_PD_SPEEDUP`] fails, and a block skip rate
//! dropping below [`MIN_BLOCK_SKIP_RATE`] fails. Wall-clock comparisons
//! across machines are inherently noisy — hence the sub-millisecond
//! exemption and the emphasis on deterministic gates; the recorded `std`
//! per summary is what justified tightening the factor to 1.5×.
//!
//! JSON is written and parsed by hand (the workspace vendors no serde): the
//! emitter produces a small object tree of numbers/strings (nested objects
//! to any depth — `large.incremental_secs.mean` is three levels), and the
//! parser below reads exactly that shape back as flattened dotted keys.

use omfl_baselines::offline::ExactSolver;
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::naive::NaivePd;
use omfl_core::pd::PdOmflp;
use omfl_core::CoreError;
use omfl_par::{summarize, Summary, TaskPool};
use omfl_serve::{FaultPlan, ServeConfig, ServeError, Server};
use omfl_sim::sweep::timed_sweep;
use omfl_sim::{ArrivalSource, Engine};
use omfl_workload::catalog::{self, CatalogProfile};
use omfl_workload::Scenario;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Fresh `secs.mean` may be at most this factor above the committed
/// baseline before the check fails. Applies only to cells whose baseline is
/// at least [`MIN_GATED_SECS`]; with the recorded `std` showing
/// millisecond-scale cells jitter well under 50% between runs, the factor
/// sits at 1.5 (down from the initial 2.0).
pub const REGRESSION_FACTOR: f64 = 1.5;

/// Absolute-seconds regression gating only applies to keys whose committed
/// baseline is at least this long. Sub-millisecond cells (the per-family
/// sweep timings) jitter far beyond 2× between a dev box and a shared CI
/// runner — for those the check verifies key presence and reports the ratio
/// as a note instead of failing the job; the `speedup` ratio and the
/// millisecond-scale PD/sweep-wall means stay hard-gated.
pub const MIN_GATED_SECS: f64 = 1e-3;

/// The indexed-vs-naive PD speedup must stay at least this high. The
/// acceptance bar when the index landed was 3×; CI machines are slower and
/// noisier than the dev box, so the hard floor leaves headroom.
pub const MIN_PD_SPEEDUP: f64 = 2.0;

/// Every `block_skip_rate` recorded in `BENCH_pd.json` must stay at least
/// this high. Unlike wall-clock, the skip rate is a *deterministic*
/// function of the workload and the pruning structure (same instance, same
/// bounds, same floats — machines don't enter it), so the gate is tight:
/// the acceptance bar was ≥ 70% on both large families (measured 77% on
/// the graph family, 99.8% on the Euclidean one), and the floor only
/// leaves room for deliberate profile tweaks, not for regressions back
/// toward the 27–39% id-order era.
pub const MIN_BLOCK_SKIP_RATE: f64 = 0.65;

/// Shard/thread configurations the serve determinism cell compares. The
/// acceptance contract is that the aggregate [`omfl_serve::ServeReport`] is
/// bit-identical across all of them; `digest_match` in `BENCH_serve.json`
/// records the comparison as 1.0/0.0 and CI hard-gates it at 1.0 — the one
/// serve gate no machine difference can excuse.
pub const SERVE_DETERMINISM_CONFIGS: [usize; 4] = [1, 2, 7, 16];

/// The PD hot-path bench profile: `zipf-services` at 4096 requests with a
/// service-heavy shape — the regime the index layer targets, where the
/// naive path's per-request facility scans and history re-walks dominate.
pub fn pd_profile() -> CatalogProfile {
    CatalogProfile {
        points: 48,
        services: 64,
        requests: 4096,
    }
}

/// The sweep smoke profile: small enough for CI, large enough that per-cell
/// times are above timer noise.
pub fn sweep_profile() -> CatalogProfile {
    CatalogProfile::default()
}

/// The large-metric PD profile: `zipf-services-large` scales `points` by
/// 32×, so this reaches |M| = 4096 — the regime where the per-arrival t3/t4
/// opening-target argmins dominate PD serve.
pub fn pd_large_profile() -> CatalogProfile {
    CatalogProfile {
        points: 128,
        services: 64,
        requests: 4096,
    }
}

/// The Euclidean large-metric PD profile: `euclid-grid-large` scales
/// `points` by 64×, so this reaches |M| = 16384 — past any dense matrix,
/// where distance-aware pruning and the bulk `fill_row` carry serve.
pub fn pd_euclid_large_profile() -> CatalogProfile {
    CatalogProfile {
        points: 256,
        services: 64,
        requests: 4096,
    }
}

/// The huge-metric PD profile: `euclid-grid-large` scales `points` by 64×,
/// so this reaches |M| = 1048576 — the 1M-point target regime, where the
/// engine fills only the kd-bounded coverage set the pruned scans can
/// touch and walks the freeze reinvestment sharded and screened, so per
/// arrival it does work proportional to the coverage, not to |M|.
/// Requests are kept moderate: the untimed `NaivePd` check still costs
/// |requests| × |M| distance evaluations.
pub fn pd_huge_profile() -> CatalogProfile {
    CatalogProfile {
        points: 16384,
        services: 8,
        requests: 1024,
    }
}

/// PD hot-path measurement: indexed vs linear-scan reference.
#[derive(Debug, Clone)]
pub struct PdBench {
    /// Workload family name.
    pub family: &'static str,
    /// Requests served per run.
    pub requests: usize,
    /// Metric size / commodity count of the profile.
    pub points: usize,
    /// Commodity count.
    pub services: u16,
    /// Indexed engine wall-clock seconds over the repeats.
    pub indexed: Summary,
    /// Linear-scan reference wall-clock seconds.
    pub naive: Summary,
}

impl PdBench {
    /// `naive.mean / indexed.mean` — what the index layer buys.
    pub fn speedup(&self) -> f64 {
        self.naive.mean / self.indexed.mean
    }
}

/// Times the PD serve hot path (indexed and naive) on `zipf-services`.
///
/// One untimed warm-up pair runs first — the very first run pays allocator
/// and page-fault warm-up that would otherwise skew a small repeat count.
pub fn pd_bench(profile: &CatalogProfile, repeats: usize) -> Result<PdBench, CoreError> {
    let family = catalog::by_name("zipf-services").expect("catalog family");
    let scenario = family.build(profile, 0x0B5E55ED)?;
    let inst = scenario.instance();

    {
        let mut warm_fast = PdOmflp::new(inst);
        let mut warm_slow = NaivePd::new(inst);
        for r in &scenario.requests {
            warm_fast.serve(r)?;
            warm_slow.serve(r)?;
        }
    }

    let mut indexed = Vec::with_capacity(repeats);
    let mut naive = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut fast = PdOmflp::new(inst);
        for r in &scenario.requests {
            fast.serve(r)?;
        }
        indexed.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut slow = NaivePd::new(inst);
        for r in &scenario.requests {
            slow.serve(r)?;
        }
        naive.push(t0.elapsed().as_secs_f64());

        // Timing a divergent run would be meaningless; the differential
        // suite proves this in depth, the bench just refuses to lie.
        assert_eq!(
            fast.solution().total_cost().to_bits(),
            slow.solution().total_cost().to_bits(),
            "indexed and naive PD diverged — bench numbers would be invalid"
        );
    }
    Ok(PdBench {
        family: family.name,
        requests: scenario.len(),
        points: profile.points,
        services: profile.services,
        indexed: summarize(&indexed),
        naive: summarize(&naive),
    })
}

/// One single-engine PD measurement for a large `BENCH_pd.json` cell and
/// the `pd-argmin` experiment. Produced by [`pd_timing`], so the gated
/// numbers and the reported table can never drift apart.
#[derive(Debug, Clone)]
pub struct PdTiming {
    /// Workload family name.
    pub family: &'static str,
    /// Commodity count.
    pub services: u16,
    /// Actual metric size |M|.
    pub points: usize,
    /// Requests served per run.
    pub requests: usize,
    /// `PdOmflp::new` construct + serve wall-clock seconds over the
    /// repeats.
    pub incremental: Summary,
    /// Share of opening-target blocks the prune skipped — deterministic
    /// and machine-portable (the shard partition is a pure function of the
    /// block count, never of the worker pool).
    pub block_skip_rate: f64,
    /// Blocked row-cache hit rate (`None` on the dense backend).
    pub row_hit_rate: Option<f64>,
}

/// Times PD construct + serve (`PdOmflp::new`) on a catalog family.
///
/// One untimed `NaivePd` run comes first and doubles as the warm-up; every
/// timed run must reproduce its total cost bit for bit — the harness
/// refuses to report timings of an engine that diverged from the oracle.
/// The skip and hit rates are the last timed run's.
pub fn pd_timing(
    family_name: &str,
    profile: &CatalogProfile,
    repeats: usize,
) -> Result<PdTiming, CoreError> {
    let family = catalog::by_name(family_name).expect("catalog family");
    let scenario = family.build(profile, 0x0B5E55ED)?;
    let inst = scenario.instance();

    let expected = {
        let mut oracle = NaivePd::new(inst);
        for r in &scenario.requests {
            oracle.serve(r)?;
        }
        oracle.solution().total_cost().to_bits()
    };

    let mut incremental = Vec::with_capacity(repeats);
    let mut block_skip_rate = 0.0;
    let mut row_hit_rate = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut engine = PdOmflp::new(inst);
        for r in &scenario.requests {
            engine.serve(r)?;
        }
        incremental.push(t0.elapsed().as_secs_f64());

        assert_eq!(
            engine.solution().total_cost().to_bits(),
            expected,
            "{family_name}: PD diverged from NaivePd — bench numbers would be invalid"
        );
        let (skipped, scanned) = engine.opening_target_stats().expect("target stats");
        block_skip_rate = skipped as f64 / (skipped + scanned).max(1) as f64;
        row_hit_rate = engine
            .distance_cache_stats()
            .map(|(h, m, _)| h as f64 / (h + m).max(1) as f64);
    }
    Ok(PdTiming {
        family: family.name,
        services: profile.services,
        points: inst.num_points(),
        requests: scenario.len(),
        incremental: summarize(&incremental),
        block_skip_rate,
        row_hit_rate,
    })
}

/// The serve bench profile: 16 light tenants at 2048 requests each (32768
/// arrivals aggregate). Tenants are deliberately small (16 points, 8
/// services): this cell prices the *multiplexing layer* — ring, shards,
/// locks, snapshots — per arrival, not PD's own per-request cost, which
/// `BENCH_pd.json` already gates at heavier shapes. The dev-box target for
/// the throughput cell is ≥ 1M arrivals/sec aggregate.
pub fn serve_profile() -> (usize, CatalogProfile) {
    (
        16,
        CatalogProfile {
            points: 16,
            services: 8,
            requests: 2048,
        },
    )
}

/// One multi-tenant serve measurement for `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Workload family every tenant runs.
    pub family: &'static str,
    /// Tenant count.
    pub tenants: usize,
    /// Aggregate arrivals per run.
    pub arrivals: usize,
    /// Shards the throughput runs used.
    pub shards: usize,
    /// Pool worker threads the throughput runs used.
    pub pool_threads: usize,
    /// Serve-loop wall seconds over the timed repeats.
    pub serve: Summary,
    /// `true` iff the aggregate reports of all
    /// [`SERVE_DETERMINISM_CONFIGS`] were bit-identical.
    pub digest_match: bool,
    /// The shared digest of the determinism runs.
    pub digest: u64,
    /// Tenants quarantined by the injected-fault panel (the fault plan
    /// panics exactly one tenant, so this must be 1).
    pub faulted_quarantined: usize,
    /// `true` iff, under the injected fault, every
    /// [`SERVE_DETERMINISM_CONFIGS`] run quarantined the planned tenant
    /// and the healthy tenants' digest matched the clean run's digest
    /// over the same subset — the "healthy tenants are bit-identical
    /// under faults" gate.
    pub faulted_digest_match: bool,
    /// Median per-arrival serve latency (ns) of the last timed repeat.
    pub latency_p50_ns: u64,
    /// 99th-percentile per-arrival serve latency (ns) of the last repeat.
    pub latency_p99_ns: u64,
    /// Producer blocking episodes of the last timed repeat.
    pub backpressure_waits: u64,
}

impl ServeBench {
    /// Aggregate arrivals per second at the mean serve wall time.
    pub fn arrivals_per_sec(&self) -> f64 {
        self.arrivals as f64 / self.serve.mean.max(1e-12)
    }
}

fn serve_run(
    scenarios: &[Scenario],
    source: &ArrivalSource,
    shards: usize,
    pool: &TaskPool,
) -> Result<(omfl_serve::ServeReport, omfl_serve::ServeTelemetry), CoreError> {
    let server = Server::new(scenarios, Engine::Pd).expect("pd tenants always box");
    // Micro-batches amortize the per-batch pool barrier: at 1024 arrivals
    // per batch the dispatch overhead is a few percent of the engine work;
    // at 128 it dominated and halved aggregate throughput.
    let cfg = ServeConfig {
        shards,
        micro_batch: 1024,
        queue_capacity: 8192,
        deadline: None,
    };
    let (report, telemetry) = server.serve(source, &cfg, pool).map_err(|e| match e {
        ServeError::Tenant(_, core) => core,
        other => CoreError::BadInstance(other.to_string()),
    })?;
    // A clean bench run that quietly quarantined a tenant would report a
    // digest about a smaller fleet; fail loudly instead.
    if let Some(q) = report.quarantined.first() {
        return Err(CoreError::BadInstance(format!(
            "clean serve run quarantined tenant {}: {:?}",
            q.tenant, q.reason
        )));
    }
    Ok((report, telemetry))
}

/// Silences the panic-hook stderr noise for the *injected* panics the
/// faulted serve panel fires on purpose; every other panic keeps the
/// default report. Installed once per process.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !message.contains(omfl_serve::INJECTED_PANIC_MARKER) {
                default_hook(info);
            }
        }));
    });
}

/// Times the multi-tenant serve loop on a fleet of `tenants` independent
/// `zipf-services` scenarios (distinct seeds), multiplexed over one
/// [`TaskPool`].
///
/// Protocol: one serve per [`SERVE_DETERMINISM_CONFIGS`] entry first (each
/// at `shards == threads`) — these double as warm-up and must produce
/// bit-identical aggregate reports — then `repeats` timed runs at the
/// throughput configuration: 16 shards on a pool sized by
/// [`omfl_par::default_threads`] (the hardware the box actually has — a
/// single-core runner serves inline, a dev box fans out).
pub fn serve_bench(
    tenants: usize,
    profile: &CatalogProfile,
    repeats: usize,
) -> Result<ServeBench, CoreError> {
    let family = catalog::by_name("zipf-services").expect("catalog family");
    let scenarios = (0..tenants)
        .map(|t| family.build(profile, omfl_par::seed_for(0x5E12FE, t as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    let lens: Vec<usize> = scenarios.iter().map(|s| s.requests.len()).collect();
    let source = ArrivalSource::round_robin(&lens);

    let mut determinism_reports = Vec::new();
    for &n in SERVE_DETERMINISM_CONFIGS.iter() {
        let pool = TaskPool::new(n);
        let (report, _) = serve_run(&scenarios, &source, n, &pool)?;
        determinism_reports.push(report);
    }
    let digest_match = determinism_reports
        .windows(2)
        .all(|w| w[0] == w[1] && w[0].digest == w[1].digest);

    // Faulted panel: the same fleet with one tenant panicking mid-stream.
    // The gate is machine-independent: at every shard/thread config the
    // planned tenant (and only it) is quarantined, and the healthy
    // tenants' digest equals the clean run's digest over the same subset.
    quiet_injected_panics();
    let plan = FaultPlan::seeded(0xC4A05, &lens, 1);
    let planned: Vec<usize> = plan
        .faulted_tenants()
        .into_iter()
        .map(|t| t as usize)
        .collect();
    let healthy_clean = determinism_reports[0].digest_over(|t| !planned.contains(&t));
    let mut faulted_quarantined = usize::MAX;
    let mut faulted_digest_match = true;
    for &n in SERVE_DETERMINISM_CONFIGS.iter() {
        let pool = TaskPool::new(n);
        let server = Server::new(&scenarios, Engine::Pd).expect("pd tenants always box");
        let cfg = ServeConfig {
            shards: n,
            micro_batch: 1024,
            queue_capacity: 8192,
            deadline: None,
        };
        let (report, _) = server
            .serve_with_faults(&source, &cfg, &pool, &plan)
            .map_err(|e| CoreError::BadInstance(e.to_string()))?;
        let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.tenant).collect();
        faulted_quarantined = report.quarantined.len();
        faulted_digest_match &= quarantined == planned && report.digest == healthy_clean;
    }

    let shards = 16;
    let pool = TaskPool::new(omfl_par::default_threads());
    let mut secs = Vec::with_capacity(repeats);
    let mut last_telemetry = None;
    for _ in 0..repeats {
        let (report, telemetry) = serve_run(&scenarios, &source, shards, &pool)?;
        // A throughput number for a run that diverged from the determinism
        // panel would be a number about a different computation.
        assert_eq!(
            report.digest, determinism_reports[0].digest,
            "throughput run diverged from the determinism panel"
        );
        secs.push(telemetry.wall_secs);
        last_telemetry = Some(telemetry);
    }
    let telemetry = last_telemetry.expect("at least one timed repeat");
    Ok(ServeBench {
        family: family.name,
        tenants,
        arrivals: source.len(),
        shards,
        pool_threads: pool.threads(),
        serve: summarize(&secs),
        digest_match,
        digest: determinism_reports[0].digest,
        faulted_quarantined,
        faulted_digest_match,
        latency_p50_ns: telemetry.latency_p50_ns,
        latency_p99_ns: telemetry.latency_p99_ns,
        backpressure_waits: telemetry.backpressure_waits,
    })
}

/// Thread counts the exact branch-and-bound cell re-solves under. The
/// frontier contract is that node counts and bounds are bit-identical
/// across all of them; each family cell's `digest_match` records the
/// comparison and CI hard-gates it at 1.0.
pub const OPT_DETERMINISM_CONFIGS: [usize; 4] = [1, 2, 7, 16];

/// Families the exact-OPT cell certifies. All three reach |M| = 200 under
/// [`opt_profile`] and close the gap well inside [`OPT_NODE_BUDGET`]:
/// `zipf-services` certifies at the root, `tree-hierarchy` and
/// `euclid-clusters` each take a few hundred branch-and-bound nodes.
pub const OPT_FAMILIES: [&str; 3] = ["zipf-services", "tree-hierarchy", "euclid-clusters"];

/// Node budget for the `BENCH_opt.json` cells — far above the few hundred
/// nodes the gated families need, so a budget exhaustion is a bound
/// regression, not noise.
pub const OPT_NODE_BUDGET: u64 = 5_000;

/// The exact-OPT bench profile: |M| = 200 catalog instances, the ISSUE's
/// target scale for certified optima.
pub fn opt_profile() -> CatalogProfile {
    CatalogProfile {
        points: 200,
        services: 6,
        requests: 48,
    }
}

/// One certified exact-OPT measurement for `BENCH_opt.json`.
#[derive(Debug, Clone)]
pub struct OptBench {
    /// Workload family name.
    pub family: &'static str,
    /// Actual metric size |M|.
    pub points: usize,
    /// Requests solved.
    pub requests: usize,
    /// Branch-and-bound nodes expanded (thread-count independent).
    pub nodes_expanded: u64,
    /// Certified relative gap — 0.0 exactly when the run certified.
    pub gap_certified: f64,
    /// The certified optimum (upper bound == lower bound when certified).
    pub optimum: f64,
    /// Root Lagrangian bound.
    pub root_bound: f64,
    /// `true` iff node counts and both bounds were bit-identical across
    /// all [`OPT_DETERMINISM_CONFIGS`].
    pub digest_match: bool,
    /// Wall seconds per solve, one sample per thread configuration.
    pub solve: Summary,
}

/// Solves one catalog family exactly at every [`OPT_DETERMINISM_CONFIGS`]
/// entry and cross-checks that node counts and bounds are bit-identical.
pub fn opt_bench(
    family_name: &'static str,
    profile: &CatalogProfile,
) -> Result<OptBench, CoreError> {
    let family = catalog::by_name(family_name).expect("catalog family");
    let scenario = family.build(profile, 404)?;
    let inst = scenario.instance();

    let mut secs = Vec::with_capacity(OPT_DETERMINISM_CONFIGS.len());
    let mut runs = Vec::with_capacity(OPT_DETERMINISM_CONFIGS.len());
    for &threads in OPT_DETERMINISM_CONFIGS.iter() {
        let solver = ExactSolver {
            max_points: 512,
            node_budget: OPT_NODE_BUDGET,
            ..ExactSolver::default()
        }
        .with_threads(threads);
        let t0 = Instant::now();
        let res = solver.solve_bounded(inst, &scenario.requests)?;
        secs.push(t0.elapsed().as_secs_f64());
        if !res.certified() {
            return Err(CoreError::BadInstance(format!(
                "{family_name}: branch-and-bound failed to certify within \
                 {OPT_NODE_BUDGET} nodes (gap {:.6}) — the bench gates \
                 certified optima only",
                res.gap
            )));
        }
        runs.push(res);
    }
    let reference = &runs[0];
    let digest_match = runs.iter().all(|r| {
        r.nodes_expanded == reference.nodes_expanded
            && r.upper_bound.to_bits() == reference.upper_bound.to_bits()
            && r.lower_bound.to_bits() == reference.lower_bound.to_bits()
    });
    Ok(OptBench {
        family: family.name,
        points: inst.num_points(),
        requests: scenario.len(),
        nodes_expanded: reference.nodes_expanded,
        gap_certified: reference.gap,
        optimum: reference.upper_bound,
        root_bound: reference.root_bound,
        digest_match,
        solve: summarize(&secs),
    })
}

/// Renders `BENCH_opt.json`: one cell per [`OPT_FAMILIES`] entry carrying
/// the machine-independent `nodes_expanded` / `gap_certified` /
/// `digest_match` gates plus the certified optimum and per-solve wall
/// seconds (ratio-gated like every other `secs.mean`).
pub fn opt_json(cells: &[OptBench], profile: &CatalogProfile) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"services\": {},", profile.services);
    let _ = writeln!(out, "  \"node_budget\": {OPT_NODE_BUDGET},");
    let _ = writeln!(
        out,
        "  \"thread_configs\": \"{:?}\",",
        OPT_DETERMINISM_CONFIGS
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(out, "  \"{}\": {{", c.family);
        let _ = writeln!(out, "    \"points\": {},", c.points);
        let _ = writeln!(out, "    \"requests\": {},", c.requests);
        let _ = writeln!(out, "    \"nodes_expanded\": {},", c.nodes_expanded);
        let _ = writeln!(out, "    \"gap_certified\": {:.9},", c.gap_certified);
        let _ = writeln!(out, "    \"optimum\": {:.9},", c.optimum);
        let _ = writeln!(out, "    \"root_bound\": {:.9},", c.root_bound);
        let _ = writeln!(
            out,
            "    \"digest_match\": {},",
            if c.digest_match { "1.0" } else { "0.0" }
        );
        summary_json(&mut out, "solve_secs", &c.solve, "    ");
        out.push('\n');
        out.push_str(if i + 1 < cells.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out.push_str("}\n");
    out
}

/// Renders `BENCH_serve.json`: the deterministic `digest_match` cell (CI
/// hard-gates it at 1.0), the gated throughput cell, and informational
/// latency/backpressure telemetry. See the README's serve section for the
/// cell layout.
pub fn serve_json(b: &ServeBench) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"family\": \"{}\",", b.family);
    let _ = writeln!(out, "  \"tenants\": {},", b.tenants);
    let _ = writeln!(out, "  \"arrivals\": {},", b.arrivals);
    let _ = writeln!(out, "  \"shards\": {},", b.shards);
    let _ = writeln!(out, "  \"pool_threads\": {},", b.pool_threads);
    let _ = writeln!(
        out,
        "  \"digest_match\": {},",
        if b.digest_match { "1.0" } else { "0.0" }
    );
    let _ = writeln!(
        out,
        "  \"faulted\": {{ \"quarantined\": {}, \"digest_match\": {} }},",
        b.faulted_quarantined,
        if b.faulted_digest_match { "1.0" } else { "0.0" }
    );
    summary_json(&mut out, "serve_secs", &b.serve, "  ");
    out.push_str(",\n");
    let _ = writeln!(out, "  \"arrivals_per_sec\": {:.1},", b.arrivals_per_sec());
    let _ = writeln!(out, "  \"latency_p50_ns\": {},", b.latency_p50_ns);
    let _ = writeln!(out, "  \"latency_p99_ns\": {},", b.latency_p99_ns);
    let _ = writeln!(out, "  \"backpressure_waits\": {}", b.backpressure_waits);
    out.push_str("}\n");
    out
}

fn summary_json(out: &mut String, key: &str, s: &Summary, indent: &str) {
    let _ = write!(
        out,
        "{indent}\"{key}\": {{ \"n\": {}, \"mean\": {:.9}, \"std\": {:.9}, \"min\": {:.9}, \"max\": {:.9} }}",
        s.n, s.mean, s.std, s.min, s.max
    );
}

fn pd_cell_json(out: &mut String, key: &str, cell: &PdTiming, trailing_comma: bool) {
    let _ = writeln!(out, "  \"{key}\": {{");
    let _ = writeln!(out, "    \"family\": \"{}\",", cell.family);
    let _ = writeln!(out, "    \"requests\": {},", cell.requests);
    let _ = writeln!(out, "    \"points\": {},", cell.points);
    let _ = writeln!(out, "    \"services\": {},", cell.services);
    summary_json(out, "incremental_secs", &cell.incremental, "    ");
    out.push_str(",\n");
    let _ = writeln!(out, "    \"block_skip_rate\": {:.4}", cell.block_skip_rate);
    out.push_str(if trailing_comma { "  },\n" } else { "  }\n" });
}

/// Renders `BENCH_pd.json`: the small-metric indexed-vs-naive cell and the
/// single-engine `large` (graph family), `huge` and `euclid-large`
/// (Euclidean family) cells, each carrying its deterministic
/// `block_skip_rate`.
pub fn pd_json(b: &PdBench, large: &PdTiming, euclid_large: &PdTiming, huge: &PdTiming) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"family\": \"{}\",", b.family);
    let _ = writeln!(out, "  \"requests\": {},", b.requests);
    let _ = writeln!(out, "  \"points\": {},", b.points);
    let _ = writeln!(out, "  \"services\": {},", b.services);
    summary_json(&mut out, "indexed_secs", &b.indexed, "  ");
    out.push_str(",\n");
    summary_json(&mut out, "naive_secs", &b.naive, "  ");
    out.push_str(",\n");
    let _ = writeln!(out, "  \"speedup\": {:.4},", b.speedup());
    pd_cell_json(&mut out, "large", large, true);
    pd_cell_json(&mut out, "huge", huge, true);
    pd_cell_json(&mut out, "euclid-large", euclid_large, false);
    out.push_str("}\n");
    out
}

/// Times every catalog family × engine and renders `BENCH_sweep.json`.
pub fn sweep_json(
    profile: &CatalogProfile,
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Result<String, CoreError> {
    let families = catalog::registry();
    let engines = Engine::all(omfl_par::seed_for(base_seed, u64::MAX));
    let t0 = Instant::now();
    let cells = timed_sweep(&families, profile, &engines, base_seed, trials, threads)?;
    let wall = t0.elapsed().as_secs_f64();

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(out, "  \"points\": {},", profile.points);
    let _ = writeln!(out, "  \"services\": {},", profile.services);
    let _ = writeln!(out, "  \"requests\": {},", profile.requests);
    let _ = writeln!(out, "  \"sweep_wall_secs\": {wall:.9},");
    let mut first = true;
    for engine in &engines {
        for fam in &families {
            let secs: Vec<f64> = cells
                .iter()
                .filter(|c| c.family == fam.name && c.engine == engine.name())
                .map(|c| c.secs)
                .collect();
            if secs.is_empty() {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let key = format!("{}/{}", engine.name(), fam.name);
            let mut obj = String::new();
            summary_json(&mut obj, "secs", &summarize(&secs), "");
            let _ = write!(out, "  \"{key}\": {{ {} }}", obj.trim_start());
        }
    }
    out.push_str("\n}\n");
    Ok(out)
}

// --- minimal JSON reading (the emitter's shape only) ----------------------

/// Flattened dotted-key views of a parsed document: numbers and strings.
pub type FlatJson = (BTreeMap<String, f64>, BTreeMap<String, String>);

/// Parses the subset of JSON the emitters above produce — objects, strings,
/// and numbers — into flattened `"a.b.c" → value` maps. Numbers land in the
/// first map, strings in the second.
pub fn parse_flat(text: &str) -> Result<FlatJson, String> {
    let mut nums = BTreeMap::new();
    let mut strs = BTreeMap::new();
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    parse_object(&chars, &mut pos, "", &mut nums, &mut strs)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok((nums, strs))
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while *pos < c.len() && c[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(c: &[char], pos: &mut usize, ch: char) -> Result<(), String> {
    skip_ws(c, pos);
    if *pos < c.len() && c[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{ch}' at offset {pos}", pos = *pos))
    }
}

fn parse_string(c: &[char], pos: &mut usize) -> Result<String, String> {
    expect(c, pos, '"')?;
    let mut s = String::new();
    while *pos < c.len() && c[*pos] != '"' {
        // The emitter never escapes anything; reject rather than mis-parse.
        if c[*pos] == '\\' {
            return Err("escape sequences are not supported".into());
        }
        s.push(c[*pos]);
        *pos += 1;
    }
    expect(c, pos, '"')?;
    Ok(s)
}

fn parse_object(
    c: &[char],
    pos: &mut usize,
    prefix: &str,
    nums: &mut BTreeMap<String, f64>,
    strs: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    expect(c, pos, '{')?;
    skip_ws(c, pos);
    if *pos < c.len() && c[*pos] == '}' {
        *pos += 1;
        return Ok(());
    }
    loop {
        let key = parse_string(c, pos)?;
        let full = if prefix.is_empty() {
            key
        } else {
            format!("{prefix}.{key}")
        };
        expect(c, pos, ':')?;
        skip_ws(c, pos);
        match c.get(*pos) {
            Some('{') => parse_object(c, pos, &full, nums, strs)?,
            Some('"') => {
                let v = parse_string(c, pos)?;
                strs.insert(full, v);
            }
            Some(_) => {
                let start = *pos;
                while *pos < c.len()
                    && !matches!(c[*pos], ',' | '}' | ']')
                    && !c[*pos].is_whitespace()
                {
                    *pos += 1;
                }
                let raw: String = c[start..*pos].iter().collect();
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("bad number '{raw}' for key {full}"))?;
                nums.insert(full, v);
            }
            None => return Err("unexpected end of input".into()),
        }
        skip_ws(c, pos);
        match c.get(*pos) {
            Some(',') => {
                *pos += 1;
                skip_ws(c, pos);
            }
            Some('}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

/// Compares a freshly generated JSON document against a committed baseline.
///
/// Failure modes, in the order they are reported:
/// * a key present in the baseline but missing from the fresh run;
/// * a fresh `*.secs.mean` / `*_secs.mean` more than [`REGRESSION_FACTOR`]
///   above the committed value (baselines of at least [`MIN_GATED_SECS`]
///   only);
/// * a fresh `speedup` below [`MIN_PD_SPEEDUP`];
/// * a fresh `*block_skip_rate` below [`MIN_BLOCK_SKIP_RATE`];
/// * the deterministic `nodes_expanded`, `gap_certified`, `digest_match`
///   and `faulted.quarantined` cells drifting, and the serve throughput
///   falling by more than [`REGRESSION_FACTOR`].
pub fn check(fresh: &str, committed: &str, label: &str) -> Result<Vec<String>, Vec<String>> {
    let (f_nums, f_strs) =
        parse_flat(fresh).map_err(|e| vec![format!("{label}: fresh JSON unreadable: {e}")])?;
    let (c_nums, c_strs) = parse_flat(committed)
        .map_err(|e| vec![format!("{label}: committed JSON unreadable: {e}")])?;

    let mut errors = Vec::new();
    let mut notes = Vec::new();
    for key in c_nums.keys() {
        if !f_nums.contains_key(key) {
            errors.push(format!("{label}: key '{key}' missing from fresh run"));
        }
    }
    for key in c_strs.keys() {
        if !f_strs.contains_key(key) {
            errors.push(format!("{label}: key '{key}' missing from fresh run"));
        }
    }
    for (key, &base) in &c_nums {
        let Some(&now) = f_nums.get(key) else {
            continue;
        };
        if key.ends_with("secs.mean") && base > 0.0 {
            let ratio = now / base;
            if ratio > REGRESSION_FACTOR && base >= MIN_GATED_SECS {
                errors.push(format!(
                    "{label}: '{key}' regressed {ratio:.2}x ({base:.6}s -> {now:.6}s)"
                ));
            } else {
                let gated = if base >= MIN_GATED_SECS {
                    ""
                } else {
                    " (ungated: sub-ms baseline)"
                };
                notes.push(format!("{label}: '{key}' {ratio:.2}x of baseline{gated}"));
            }
        }
        if key == "speedup" && now < MIN_PD_SPEEDUP {
            errors.push(format!(
                "{label}: PD index speedup {now:.2}x below the {MIN_PD_SPEEDUP}x floor \
                 (baseline {base:.2}x)"
            ));
        }
        if key.ends_with("nodes_expanded") && now != base {
            errors.push(format!(
                "{label}: '{key}' = {now} nodes vs committed {base} — the \
                 branch-and-bound explored a different tree (node counts are \
                 a deterministic function of the instance and the bound, \
                 never of the machine or thread count)"
            ));
        }
        if key.ends_with("gap_certified") && now != base {
            errors.push(format!(
                "{label}: '{key}' = {now} vs committed {base} — a certified \
                 gap drifted (0.0 means proven optimal; any other value \
                 means the certificate was lost)"
            ));
        }
        if key.ends_with("digest_match") && now != 1.0 {
            errors.push(format!(
                "{label}: '{key}' results diverged across thread configs — \
                 a deterministic pipeline (serve aggregate reports, or the \
                 exact branch-and-bound frontier) lost thread-count \
                 independence (this gate is machine-independent; the \
                 'faulted.' variant gates healthy-tenant identity under an \
                 injected panic)"
            ));
        }
        if key == "faulted.quarantined" && now != base {
            errors.push(format!(
                "{label}: the injected-fault panel quarantined {now} tenants \
                 (baseline {base}) — fault containment drifted"
            ));
        }
        if key == "arrivals_per_sec" && base > 0.0 {
            let ratio = base / now.max(1e-12);
            let wall_gated = c_nums
                .get("serve_secs.mean")
                .is_some_and(|&w| w >= MIN_GATED_SECS);
            if ratio > REGRESSION_FACTOR && wall_gated {
                errors.push(format!(
                    "{label}: serve throughput fell {ratio:.2}x \
                     ({base:.0} -> {now:.0} arrivals/sec)"
                ));
            } else {
                notes.push(format!(
                    "{label}: serve throughput {:.2}x of baseline ({now:.0} arrivals/sec)",
                    now / base
                ));
            }
        }
        if key.ends_with("block_skip_rate") && now < MIN_BLOCK_SKIP_RATE {
            errors.push(format!(
                "{label}: '{key}' = {:.1}% below the {:.0}% floor (baseline \
                 {:.1}%) — the opening-target prune stopped engaging",
                100.0 * now,
                100.0 * MIN_BLOCK_SKIP_RATE,
                100.0 * base
            ));
        }
    }
    if errors.is_empty() {
        Ok(notes)
    } else {
        Err(errors)
    }
}

/// The smoke profile both `--emit-json` and `--check-json` run: PD hot
/// path, catalog sweep timings, the multi-tenant serve loop, and the
/// certified exact-OPT cells. Returns `(BENCH_pd.json, BENCH_sweep.json,
/// BENCH_serve.json, BENCH_opt.json)` contents.
pub fn smoke_profile_json() -> Result<(String, String, String, String), CoreError> {
    let pd = pd_bench(&pd_profile(), 5)?;
    let large = pd_timing("zipf-services-large", &pd_large_profile(), 3)?;
    let euclid_large = pd_timing("euclid-grid-large", &pd_euclid_large_profile(), 3)?;
    let huge = pd_timing("euclid-grid-large", &pd_huge_profile(), 3)?;
    let pd_doc = pd_json(&pd, &large, &euclid_large, &huge);
    // Cells are timed serially: under a parallel sweep, co-scheduled cells
    // contend for cores and per-cell wall-clock becomes too noisy to gate
    // the regression factor on.
    let sweep_doc = sweep_json(&sweep_profile(), 2020, 3, 1)?;
    let (tenants, profile) = serve_profile();
    let serve_doc = serve_json(&serve_bench(tenants, &profile, 3)?);
    let opt_cells = OPT_FAMILIES
        .iter()
        .map(|name| opt_bench(name, &opt_profile()))
        .collect::<Result<Vec<_>, _>>()?;
    let opt_doc = opt_json(&opt_cells, &opt_profile());
    Ok((pd_doc, sweep_doc, serve_doc, opt_doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_pd_json_round_trips() {
        let profile = CatalogProfile {
            points: 8,
            services: 8,
            requests: 64,
        };
        let b = pd_bench(&profile, 2).unwrap();
        let large = pd_timing("zipf-services-large", &profile, 2).unwrap();
        let euclid = pd_timing("euclid-grid-large", &profile, 2).unwrap();
        let doc = pd_json(&b, &large, &euclid, &euclid);
        let (nums, strs) = parse_flat(&doc).unwrap();
        assert_eq!(strs["family"], "zipf-services");
        assert_eq!(nums["requests"], 64.0);
        assert!(nums["indexed_secs.mean"] > 0.0);
        assert!(nums["naive_secs.mean"] > 0.0);
        assert!(nums.contains_key("indexed_secs.std"));
        assert!(nums.contains_key("speedup"));
        assert_eq!(strs["large.family"], "zipf-services-large");
        assert_eq!(nums["large.points"], 256.0); // 8 × 32 scale
        assert!(nums["large.incremental_secs.mean"] > 0.0);
        assert!(nums.contains_key("large.block_skip_rate"));
        assert_eq!(strs["euclid-large.family"], "euclid-grid-large");
        assert_eq!(nums["euclid-large.points"], 529.0); // 8 × 64 ≈ 23×23 grid
        assert!(nums["euclid-large.incremental_secs.mean"] > 0.0);
        assert!(nums.contains_key("euclid-large.block_skip_rate"));
        assert_eq!(strs["huge.family"], "euclid-grid-large");
        assert!(nums["huge.incremental_secs.mean"] > 0.0);
        assert!(nums.contains_key("huge.block_skip_rate"));
    }

    #[test]
    fn emitted_sweep_json_round_trips() {
        let doc = sweep_json(
            &CatalogProfile {
                points: 8,
                services: 8,
                requests: 16,
            },
            7,
            1,
            2,
        )
        .unwrap();
        let (nums, _) = parse_flat(&doc).unwrap();
        assert!(nums["sweep_wall_secs"] > 0.0);
        // 8 families × 4 engines, each with a 4-field summary.
        assert!(nums.keys().any(|k| k == "pd-omflp/zipf-services.secs.mean"));
        assert!(nums.keys().any(|k| k == "all-large/dyadic-mix.secs.max"));
    }

    #[test]
    fn check_flags_missing_keys_and_regressions() {
        let base = r#"{ "a": { "secs": { "mean": 1.0 } }, "speedup": 4.0 }"#;
        // Identical: passes.
        assert!(check(base, base, "t").is_ok());
        // 3x slower: regression.
        let slow = r#"{ "a": { "secs": { "mean": 3.0 } }, "speedup": 4.0 }"#;
        let errs = check(slow, base, "t").unwrap_err();
        assert!(errs[0].contains("regressed"));
        // 1.6x slower on a >= 1 ms baseline: the tightened gate fires too.
        let slow16 = r#"{ "a": { "secs": { "mean": 1.6 } }, "speedup": 4.0 }"#;
        let errs = check(slow16, base, "t").unwrap_err();
        assert!(errs[0].contains("regressed"), "1.5x gate must fire at 1.6x");
        // 1.4x stays within the tightened tolerance.
        let ok14 = r#"{ "a": { "secs": { "mean": 1.4 } }, "speedup": 4.0 }"#;
        assert!(check(ok14, base, "t").is_ok());
        // Sub-millisecond baselines stay ungated however noisy.
        let sub = r#"{ "a": { "secs": { "mean": 0.0005 } }, "speedup": 4.0 }"#;
        let noisy = r#"{ "a": { "secs": { "mean": 0.005 } }, "speedup": 4.0 }"#;
        assert!(check(noisy, sub, "t").is_ok());
        // Missing key: fails.
        let missing = r#"{ "speedup": 4.0 }"#;
        let errs = check(missing, base, "t").unwrap_err();
        assert!(errs[0].contains("missing"));
        // Speedup collapse: fails.
        let collapsed = r#"{ "a": { "secs": { "mean": 1.0 } }, "speedup": 1.1 }"#;
        let errs = check(collapsed, base, "t").unwrap_err();
        assert!(errs[0].contains("below"));
        // Block skip rates are deterministic and hard-gated.
        let base_s = r#"{ "large": { "block_skip_rate": 0.77 } }"#;
        let inert = r#"{ "large": { "block_skip_rate": 0.31 } }"#;
        let errs = check(inert, base_s, "t").unwrap_err();
        assert!(errs[0].contains("stopped engaging"));
        let engaged = r#"{ "large": { "block_skip_rate": 0.72 } }"#;
        assert!(check(engaged, base_s, "t").is_ok());
    }

    #[test]
    fn emitted_serve_json_round_trips() {
        let profile = CatalogProfile {
            points: 12,
            services: 8,
            requests: 48,
        };
        let b = serve_bench(3, &profile, 2).unwrap();
        assert!(b.digest_match, "tiny serve bench must be deterministic");
        assert_eq!(
            b.faulted_quarantined, 1,
            "the plan panics exactly one tenant"
        );
        assert!(
            b.faulted_digest_match,
            "healthy tenants must be bit-identical under the injected panic"
        );
        let doc = serve_json(&b);
        let (nums, strs) = parse_flat(&doc).unwrap();
        assert_eq!(strs["family"], "zipf-services");
        assert_eq!(nums["tenants"], 3.0);
        assert_eq!(nums["arrivals"], 144.0);
        assert_eq!(nums["digest_match"], 1.0);
        assert_eq!(nums["faulted.quarantined"], 1.0);
        assert_eq!(nums["faulted.digest_match"], 1.0);
        assert!(nums["serve_secs.mean"] > 0.0);
        assert!(nums["arrivals_per_sec"] > 0.0);
        assert!(nums.contains_key("latency_p50_ns"));
        assert!(nums.contains_key("latency_p99_ns"));
        assert!(nums.contains_key("backpressure_waits"));
    }

    #[test]
    fn check_gates_serve_determinism_and_throughput() {
        // A digest mismatch fails regardless of every timing.
        let base = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.02 }, "arrivals_per_sec": 2000000.0 }"#;
        let diverged = r#"{ "digest_match": 0.0, "serve_secs": { "mean": 0.02 }, "arrivals_per_sec": 2000000.0 }"#;
        let errs = check(diverged, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("lost")), "{errs:?}");
        // Throughput collapse beyond the factor fails on a >= 1 ms cell.
        let slow = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.04 }, "arrivals_per_sec": 1000000.0 }"#;
        let errs = check(slow, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("throughput")), "{errs:?}");
        // A mild dip stays a note, not an error.
        let mild = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.025 }, "arrivals_per_sec": 1600000.0 }"#;
        assert!(check(mild, base, "t").is_ok());
        // Sub-millisecond serve cells exempt the throughput ratio too.
        let sub_base = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.0005 }, "arrivals_per_sec": 2000000.0 }"#;
        let sub_noisy = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.0005 }, "arrivals_per_sec": 200000.0 }"#;
        assert!(check(sub_noisy, sub_base, "t").is_ok());
    }

    #[test]
    fn check_gates_the_faulted_cell() {
        let base = r#"{ "faulted": { "quarantined": 1, "digest_match": 1.0 } }"#;
        // Healthy-tenant divergence under faults is a hard failure.
        let diverged = r#"{ "faulted": { "quarantined": 1, "digest_match": 0.0 } }"#;
        let errs = check(diverged, base, "t").unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("faulted.digest_match")),
            "{errs:?}"
        );
        // So is a drifting quarantine count (containment over- or
        // under-firing is machine-independent).
        let drifted = r#"{ "faulted": { "quarantined": 2, "digest_match": 1.0 } }"#;
        let errs = check(drifted, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("containment")), "{errs:?}");
        let same = r#"{ "faulted": { "quarantined": 1, "digest_match": 1.0 } }"#;
        assert!(check(same, base, "t").is_ok());
    }

    #[test]
    fn emitted_opt_json_round_trips() {
        // Tiny profile: the emitter shape and the determinism panel are
        // what's under test, not the |M| = 200 scale (the smoke profile
        // covers that in release).
        let profile = CatalogProfile {
            points: 16,
            services: 4,
            requests: 12,
        };
        let cells: Vec<OptBench> = ["zipf-services", "tree-hierarchy"]
            .iter()
            .map(|name| opt_bench(name, &profile).unwrap())
            .collect();
        for c in &cells {
            assert!(
                c.digest_match,
                "{}: frontier must be thread-independent",
                c.family
            );
            assert_eq!(c.gap_certified, 0.0, "{}", c.family);
            assert!(c.optimum > 0.0, "{}", c.family);
        }
        let doc = opt_json(&cells, &profile);
        let (nums, _) = parse_flat(&doc).unwrap();
        assert_eq!(nums["services"], 4.0);
        assert_eq!(nums["node_budget"], OPT_NODE_BUDGET as f64);
        for c in &cells {
            let fam = c.family;
            assert_eq!(
                nums[&format!("{fam}.nodes_expanded")],
                c.nodes_expanded as f64
            );
            assert_eq!(nums[&format!("{fam}.gap_certified")], 0.0);
            assert_eq!(nums[&format!("{fam}.digest_match")], 1.0);
            assert!(nums[&format!("{fam}.optimum")] > 0.0);
            assert!(nums.contains_key(&format!("{fam}.solve_secs.mean")));
        }
    }

    #[test]
    fn check_gates_opt_nodes_and_certified_gaps() {
        let base = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.000000000, "digest_match": 1.0 } }"#;
        assert!(check(base, base, "t").is_ok());
        // A different tree is a hard failure even if everything else holds.
        let drifted = r#"{ "zipf-services": { "nodes_expanded": 290, "gap_certified": 0.000000000, "digest_match": 1.0 } }"#;
        let errs = check(drifted, base, "t").unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("different tree")),
            "{errs:?}"
        );
        // Losing the optimality certificate fails.
        let uncertified = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.031400000, "digest_match": 1.0 } }"#;
        let errs = check(uncertified, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("certificate")), "{errs:?}");
        // Thread-count divergence reuses the digest_match hard gate.
        let diverged = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.000000000, "digest_match": 0.0 } }"#;
        let errs = check(diverged, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("thread")), "{errs:?}");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_flat("{").is_err());
        assert!(parse_flat(r#"{ "a": }"#).is_err());
        assert!(parse_flat(r#"{ "a": 1 } trailing"#).is_err());
        assert!(parse_flat(r#"{ "a": "b\"c" }"#).is_err());
    }
}
