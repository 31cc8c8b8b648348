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
//!   (mean/std/min/max over trials) for the whole catalog;
//! * **`BENCH_serve.json`** — the multi-tenant serve loop (`omfl_serve`):
//!   the machine-independent `digest_match` determinism cell (aggregate
//!   reports bit-identical across shard/thread configs
//!   [`SERVE_DETERMINISM_CONFIGS`]), the `serve_secs` wall-clock summary
//!   with its derived `arrivals_per_sec` (dev-box target ≥ 1M/s
//!   aggregate), and informational p50/p99 latency and backpressure
//!   telemetry;
//! * **`BENCH_opt.json`** — certified exact optima (see [`opt_json`]).
//!
//! Each builder returns a [`Doc`]: an ordered document whose keys each
//! hold a number or a string and the [`Gate`] that judges it, declared on
//! the line that emits the value, or a nested document. [`Doc::render`] is
//! the one JSON writer. The committed files at the repo root are the
//! baseline; CI re-runs the smoke profile and [`check`]s each fresh
//! document against them: a committed key missing from the fresh run
//! fails, and otherwise the fresh entry's gate decides — run shape, node
//! counts, certified gaps and quarantine counts are [`Gate::Exact`]; the
//! small-cell speedup, the block skip rates and every `digest_match` have
//! a [`Gate::Floor`]; every wall-clock mean is [`Gate::RatioMax`]; the
//! rest is [`Gate::Info`]. A gated value that is not finite fails.
//! Wall-clock comparisons across machines are inherently noisy — hence the
//! sub-millisecond exemption and the emphasis on deterministic gates; the
//! recorded `std` per summary is what justified tightening the factor to
//! 1.5×.
//!
//! JSON is written and parsed by hand (the workspace vendors no serde):
//! [`parse_flat`] reads the nested objects back as flattened dotted keys
//! (`large.incremental_secs.mean` is three levels), the form [`check`]
//! compares in.

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
use std::time::Instant;

/// A [`Gate::RatioMax`] value may be at most this factor above the
/// committed baseline before the check fails. Applies only to cells whose
/// baseline is at least [`MIN_GATED_SECS`]; with the recorded `std` showing
/// millisecond-scale cells jitter well under 50% between runs, the factor
/// sits at 1.5 (down from the initial 2.0).
pub const REGRESSION_FACTOR: f64 = 1.5;

/// [`Gate::RatioMax`] only fails keys whose committed baseline is at least
/// this long. Sub-millisecond cells (most per-family sweep timings) jitter
/// far beyond 2× between a dev box and a shared CI runner — for those the
/// check reports the ratio as a note instead of failing the job.
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

/// How [`check`] judges one key of a fresh document against the committed
/// baseline. Every gate but `Info` fails a value that is not finite, fresh
/// or committed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Must equal the committed value: run shape, node counts, certified
    /// gaps, quarantine counts. Strings are always exact.
    Exact,
    /// Must be at least this floor, whatever the committed value.
    Floor(f64),
    /// Wall-clock: fails when fresh ÷ committed exceeds
    /// [`REGRESSION_FACTOR`] and the committed value is at least
    /// [`MIN_GATED_SECS`]; otherwise the ratio becomes a note.
    RatioMax,
    /// Recorded, never judged.
    Info,
}

/// One emitted value: a number as its rendered text and the `f64` that
/// text parses back to, or a string.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(String, f64),
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(text, _) => f.write_str(text),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

/// An ordered `BENCH_*.json` document: each key holds a value and the
/// [`Gate`] that judges it, or a nested document.
#[derive(Debug, Clone, Default)]
pub struct Doc {
    entries: Vec<(String, Entry)>,
}

#[derive(Debug, Clone)]
enum Entry {
    Value(Value, Gate),
    Nested(Doc),
}

impl Doc {
    /// Adds a number printed with `decimals` digits after the point. The
    /// entry holds the printed value, so [`check`] judges exactly what the
    /// rendered file says.
    #[must_use]
    pub fn num(self, key: &str, value: f64, decimals: usize, gate: Gate) -> Self {
        let text = format!("{value:.decimals$}");
        let value = text.parse().expect("a formatted f64 parses back");
        self.push(key, Entry::Value(Value::Num(text, value), gate))
    }

    /// Adds a string; strings are [`Gate::Exact`].
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        let value = Value::Str(value.to_string());
        self.push(key, Entry::Value(value, Gate::Exact))
    }

    /// Adds a wall-clock summary under `key`: `mean` is
    /// [`Gate::RatioMax`], `n`, `std`, `min` and `max` are [`Gate::Info`].
    #[must_use]
    pub fn summary(self, key: &str, s: &Summary) -> Self {
        let summary = Doc::default()
            .num("n", s.n as f64, 0, Gate::Info)
            .num("mean", s.mean, 9, Gate::RatioMax)
            .num("std", s.std, 9, Gate::Info)
            .num("min", s.min, 9, Gate::Info)
            .num("max", s.max, 9, Gate::Info);
        self.nest(key, summary)
    }

    /// Adds `inner` as the object under `key`.
    #[must_use]
    pub fn nest(self, key: &str, inner: Doc) -> Self {
        self.push(key, Entry::Nested(inner))
    }

    fn push(mut self, key: &str, entry: Entry) -> Self {
        debug_assert!(
            self.entries.iter().all(|(k, _)| k != key),
            "duplicate key {key}"
        );
        self.entries.push((key.to_string(), entry));
        self
    }

    /// Every value with its dotted key and gate, in document order.
    fn flat(&self) -> Vec<(String, &Value, Gate)> {
        let mut out = Vec::new();
        for (key, entry) in &self.entries {
            match entry {
                Entry::Value(value, gate) => out.push((key.clone(), value, *gate)),
                Entry::Nested(doc) => out.extend(
                    doc.flat()
                        .into_iter()
                        .map(|(k, value, gate)| (format!("{key}.{k}"), value, gate)),
                ),
            }
        }
        out
    }

    /// Writes the document as nested JSON, keys in insertion order. Flat
    /// objects (summaries, `faulted`) and single-key wrappers (sweep cells)
    /// stay on one line; everything else takes a line per key.
    pub fn render(&self) -> String {
        self.render_at(0) + "\n"
    }

    fn render_at(&self, depth: usize) -> String {
        let items: Vec<String> = self
            .entries
            .iter()
            .map(|(key, entry)| match entry {
                Entry::Value(value, _) => format!("\"{key}\": {value}"),
                Entry::Nested(doc) => format!("\"{key}\": {}", doc.render_at(depth + 1)),
            })
            .collect();
        let flat = self
            .entries
            .iter()
            .all(|(_, e)| matches!(e, Entry::Value(..)));
        if depth > 0 && (flat || items.len() == 1) {
            format!("{{ {} }}", items.join(", "))
        } else {
            let pad = "  ".repeat(depth);
            format!("{{\n{pad}  {}\n{pad}}}", items.join(&format!(",\n{pad}  ")))
        }
    }
}

/// How the `digest_match` cells record a comparison: 1.0 or 0.0.
fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

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
    /// Blocked row-cache hit rate; `None` when the cache served no reads
    /// (a metric that lends its stored rows, such as a graph closure).
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
            .filter(|&(h, m, _)| h + m > 0)
            .map(|(h, m, _)| h as f64 / (h + m) as f64);
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

/// Builds `BENCH_opt.json`: one cell per [`OPT_FAMILIES`] entry carrying
/// the machine-independent `nodes_expanded` / `gap_certified` /
/// `digest_match` gates plus the certified optimum and per-solve wall
/// seconds.
pub fn opt_json(cells: &[OptBench], profile: &CatalogProfile) -> Doc {
    let mut doc = Doc::default()
        .num("services", f64::from(profile.services), 0, Gate::Exact)
        .num("node_budget", OPT_NODE_BUDGET as f64, 0, Gate::Exact)
        .str("thread_configs", &format!("{OPT_DETERMINISM_CONFIGS:?}"));
    for c in cells {
        let cell = Doc::default()
            .num("points", c.points as f64, 0, Gate::Exact)
            .num("requests", c.requests as f64, 0, Gate::Exact)
            .num("nodes_expanded", c.nodes_expanded as f64, 0, Gate::Exact)
            .num("gap_certified", c.gap_certified, 9, Gate::Exact)
            .num("optimum", c.optimum, 9, Gate::Info)
            .num("root_bound", c.root_bound, 9, Gate::Info)
            .num("digest_match", flag(c.digest_match), 1, Gate::Floor(1.0))
            .summary("solve_secs", &c.solve);
        doc = doc.nest(c.family, cell);
    }
    doc
}

/// Builds `BENCH_serve.json`: the deterministic `digest_match` and
/// `faulted` cells, the wall-clock `serve_secs`, and informational
/// throughput, latency and backpressure telemetry. See the README's serve
/// section for the cell layout.
pub fn serve_json(b: &ServeBench) -> Doc {
    let faulted = Doc::default()
        .num("quarantined", b.faulted_quarantined as f64, 0, Gate::Exact)
        .num(
            "digest_match",
            flag(b.faulted_digest_match),
            1,
            Gate::Floor(1.0),
        );
    Doc::default()
        .str("family", b.family)
        .num("tenants", b.tenants as f64, 0, Gate::Exact)
        .num("arrivals", b.arrivals as f64, 0, Gate::Exact)
        .num("shards", b.shards as f64, 0, Gate::Exact)
        .num("pool_threads", b.pool_threads as f64, 0, Gate::Info)
        .num("digest_match", flag(b.digest_match), 1, Gate::Floor(1.0))
        .nest("faulted", faulted)
        .summary("serve_secs", &b.serve)
        // Derived from `serve_secs.mean`, which carries the gate.
        .num("arrivals_per_sec", b.arrivals_per_sec(), 1, Gate::Info)
        .num("latency_p50_ns", b.latency_p50_ns as f64, 0, Gate::Info)
        .num("latency_p99_ns", b.latency_p99_ns as f64, 0, Gate::Info)
        .num(
            "backpressure_waits",
            b.backpressure_waits as f64,
            0,
            Gate::Info,
        )
}

fn pd_cell_json(cell: &PdTiming) -> Doc {
    Doc::default()
        .str("family", cell.family)
        .num("requests", cell.requests as f64, 0, Gate::Exact)
        .num("points", cell.points as f64, 0, Gate::Exact)
        .num("services", f64::from(cell.services), 0, Gate::Exact)
        .summary("incremental_secs", &cell.incremental)
        .num(
            "block_skip_rate",
            cell.block_skip_rate,
            4,
            Gate::Floor(MIN_BLOCK_SKIP_RATE),
        )
}

/// Builds `BENCH_pd.json`: the small-metric indexed-vs-naive cell and the
/// single-engine `large` (graph family), `huge` and `euclid-large`
/// (Euclidean family) cells, each carrying its deterministic
/// `block_skip_rate`.
pub fn pd_json(b: &PdBench, large: &PdTiming, euclid_large: &PdTiming, huge: &PdTiming) -> Doc {
    Doc::default()
        .str("family", b.family)
        .num("requests", b.requests as f64, 0, Gate::Exact)
        .num("points", b.points as f64, 0, Gate::Exact)
        .num("services", f64::from(b.services), 0, Gate::Exact)
        .summary("indexed_secs", &b.indexed)
        .summary("naive_secs", &b.naive)
        .num("speedup", b.speedup(), 4, Gate::Floor(MIN_PD_SPEEDUP))
        .nest("large", pd_cell_json(large))
        .nest("huge", pd_cell_json(huge))
        .nest("euclid-large", pd_cell_json(euclid_large))
}

/// Times every catalog family × engine and builds `BENCH_sweep.json`.
pub fn sweep_json(
    profile: &CatalogProfile,
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Result<Doc, CoreError> {
    let families = catalog::registry();
    let engines = Engine::all(omfl_par::seed_for(base_seed, u64::MAX));
    let t0 = Instant::now();
    let cells = timed_sweep(&families, profile, &engines, base_seed, trials, threads)?;
    let wall = t0.elapsed().as_secs_f64();

    let mut doc = Doc::default()
        .num("threads", threads as f64, 0, Gate::Exact)
        .num("trials", trials as f64, 0, Gate::Exact)
        .num("points", profile.points as f64, 0, Gate::Exact)
        .num("services", f64::from(profile.services), 0, Gate::Exact)
        .num("requests", profile.requests as f64, 0, Gate::Exact)
        .num("sweep_wall_secs", wall, 9, Gate::Info);
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
            let cell = Doc::default().summary("secs", &summarize(&secs));
            doc = doc.nest(&format!("{}/{}", engine.name(), fam.name), cell);
        }
    }
    Ok(doc)
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

/// Compares a fresh document against a committed baseline.
///
/// Walks the committed keys: one missing from `fresh` fails, and otherwise
/// the fresh entry's [`Gate`] judges it. Returns the [`Gate::RatioMax`]
/// notes on success, every failure otherwise; each message names the key,
/// its gate and both values.
pub fn check(fresh: &Doc, committed: &str, label: &str) -> Result<Vec<String>, Vec<String>> {
    let (nums, strs) = parse_flat(committed)
        .map_err(|e| vec![format!("{label}: committed JSON unreadable: {e}")])?;
    let fresh: BTreeMap<String, (&Value, Gate)> = fresh
        .flat()
        .into_iter()
        .map(|(key, value, gate)| (key, (value, gate)))
        .collect();
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    for (key, base) in &strs {
        match fresh.get(key) {
            None => errors.push(format!("{label}: '{key}' missing from fresh run")),
            Some((Value::Str(now), _)) if now == base => {}
            Some(&(now, gate)) => errors.push(format!(
                "{label}: '{key}' [{gate:?}] fresh {now} != committed \"{base}\""
            )),
        }
    }
    for (key, &base) in &nums {
        let Some(&(now, gate)) = fresh.get(key) else {
            errors.push(format!("{label}: '{key}' missing from fresh run"));
            continue;
        };
        let &Value::Num(_, now) = now else {
            errors.push(format!(
                "{label}: '{key}' [{gate:?}] fresh {now} is not a number (committed {base})"
            ));
            continue;
        };
        if gate != Gate::Info && !(now.is_finite() && base.is_finite()) {
            errors.push(format!(
                "{label}: '{key}' [{gate:?}] is not finite (fresh {now}, committed {base})"
            ));
            continue;
        }
        match gate {
            Gate::Exact if now != base => errors.push(format!(
                "{label}: '{key}' [Exact] fresh {now} != committed {base}"
            )),
            Gate::Floor(floor) if now < floor => errors.push(format!(
                "{label}: '{key}' [{gate:?}] fresh {now} is below the floor (committed {base})"
            )),
            Gate::RatioMax => {
                let ratio = now / base;
                let gated = base >= MIN_GATED_SECS;
                let values = format!("committed {base:.6}s -> fresh {now:.6}s");
                if gated && ratio > REGRESSION_FACTOR {
                    errors.push(format!(
                        "{label}: '{key}' [RatioMax] regressed {ratio:.2}x ({values})"
                    ));
                } else {
                    let ungated = if gated {
                        ""
                    } else {
                        ", ungated: sub-ms baseline"
                    };
                    notes.push(format!(
                        "{label}: '{key}' [RatioMax] {ratio:.2}x of baseline ({values}{ungated})"
                    ));
                }
            }
            _ => {}
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
/// certified exact-OPT cells, as `(file name, document)` pairs.
pub fn smoke_profile_json() -> Result<[(&'static str, Doc); 4], CoreError> {
    let pd = pd_bench(&pd_profile(), 5)?;
    let large = pd_timing("zipf-services-large", &pd_large_profile(), 3)?;
    let euclid_large = pd_timing("euclid-grid-large", &pd_euclid_large_profile(), 3)?;
    let huge = pd_timing("euclid-grid-large", &pd_huge_profile(), 3)?;
    // Cells are timed serially: under a parallel sweep, co-scheduled cells
    // contend for cores and per-cell wall-clock becomes too noisy to gate
    // the regression factor on.
    let sweep = sweep_json(&sweep_profile(), 2020, 3, 1)?;
    let (tenants, profile) = serve_profile();
    let serve = serve_bench(tenants, &profile, 3)?;
    let opt_cells = OPT_FAMILIES
        .iter()
        .map(|name| opt_bench(name, &opt_profile()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok([
        ("BENCH_pd.json", pd_json(&pd, &large, &euclid_large, &huge)),
        ("BENCH_sweep.json", sweep),
        ("BENCH_serve.json", serve_json(&serve)),
        ("BENCH_opt.json", opt_json(&opt_cells, &opt_profile())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A committed baseline, read from the repo root.
    fn committed(file: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// Renders `doc` and parses it back; every value must survive the trip
    /// bit for bit.
    fn round_trip(doc: &Doc) -> FlatJson {
        let (nums, strs) = parse_flat(&doc.render()).unwrap();
        let entries = doc.flat();
        for (key, value, _) in &entries {
            match value {
                Value::Num(_, value) => assert_eq!(nums[key].to_bits(), value.to_bits(), "{key}"),
                Value::Str(s) => assert_eq!(&strs[key], s, "{key}"),
            }
        }
        assert_eq!(nums.len() + strs.len(), entries.len());
        (nums, strs)
    }

    /// Asserts `doc` emits exactly the committed baseline's keys, apart
    /// from the committed cells named in `absent`.
    fn assert_committed_key_set(doc: &Doc, file: &str, absent: &[&str]) {
        let (nums, strs) = parse_flat(&committed(file)).unwrap();
        let expected: BTreeSet<&str> = nums
            .keys()
            .chain(strs.keys())
            .map(String::as_str)
            .filter(|k| !absent.iter().any(|cell| k.starts_with(&format!("{cell}."))))
            .collect();
        let entries = doc.flat();
        let emitted: BTreeSet<&str> = entries.iter().map(|(k, ..)| k.as_str()).collect();
        assert_eq!(
            emitted, expected,
            "{file}: emitted keys differ from the baseline"
        );
    }

    fn summary_at(nums: &BTreeMap<String, f64>, key: &str) -> Summary {
        let at = |field: &str| nums[&format!("{key}.{field}")];
        Summary {
            n: at("n") as usize,
            mean: at("mean"),
            std: at("std"),
            ci95: 0.0,
            min: at("min"),
            max: at("max"),
        }
    }

    /// The `pd_json` inputs the committed `BENCH_pd.json` records:
    /// the small cell and the `large`, `euclid-large` and `huge` cells.
    fn committed_pd_inputs() -> (PdBench, [PdTiming; 3]) {
        let (nums, strs) = parse_flat(&committed("BENCH_pd.json")).unwrap();
        let family = |key: &str| catalog::by_name(&strs[key]).expect("catalog family").name;
        let timing = |cell: &str| PdTiming {
            family: family(&format!("{cell}.family")),
            services: nums[&format!("{cell}.services")] as u16,
            points: nums[&format!("{cell}.points")] as usize,
            requests: nums[&format!("{cell}.requests")] as usize,
            incremental: summary_at(&nums, &format!("{cell}.incremental_secs")),
            block_skip_rate: nums[&format!("{cell}.block_skip_rate")],
            row_hit_rate: None,
        };
        let small = PdBench {
            family: family("family"),
            requests: nums["requests"] as usize,
            points: nums["points"] as usize,
            services: nums["services"] as u16,
            indexed: summary_at(&nums, "indexed_secs"),
            naive: summary_at(&nums, "naive_secs"),
        };
        (
            small,
            [timing("large"), timing("euclid-large"), timing("huge")],
        )
    }

    /// A serve result whose throughput repeats averaged `mean` seconds.
    fn serve_fixture(mean: f64) -> ServeBench {
        ServeBench {
            family: "zipf-services",
            tenants: 16,
            arrivals: 40_000,
            shards: 16,
            pool_threads: 1,
            serve: summarize(&[mean]),
            digest_match: true,
            digest: 0,
            faulted_quarantined: 1,
            faulted_digest_match: true,
            latency_p50_ns: 256,
            latency_p99_ns: 4096,
            backpressure_waits: 0,
        }
    }

    fn opt_fixture(nodes_expanded: u64, gap_certified: f64, digest_match: bool) -> OptBench {
        OptBench {
            family: "zipf-services",
            points: 200,
            requests: 48,
            nodes_expanded,
            gap_certified,
            optimum: 100.0,
            root_bound: 99.0,
            digest_match,
            solve: summarize(&[0.1]),
        }
    }

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
        let (nums, strs) = round_trip(&doc);
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
        assert_committed_key_set(&doc, "BENCH_pd.json", &[]);
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
        let (nums, _) = round_trip(&doc);
        assert!(nums["sweep_wall_secs"] > 0.0);
        // Every family × 4 engines, each with a 5-field summary.
        assert!(nums.keys().any(|k| k == "pd-omflp/zipf-services.secs.mean"));
        assert!(nums.keys().any(|k| k == "all-large/dyadic-mix.secs.max"));
        assert_committed_key_set(&doc, "BENCH_sweep.json", &[]);
    }

    #[test]
    fn check_flags_missing_keys_and_regressions() {
        let timed = |mean: f64, speedup: f64| {
            Doc::default().summary("a.secs", &summarize(&[mean])).num(
                "speedup",
                speedup,
                4,
                Gate::Floor(MIN_PD_SPEEDUP),
            )
        };
        let base = r#"{ "a": { "secs": { "mean": 1.0 } }, "speedup": 4.0 }"#;
        // Identical: passes.
        assert!(check(&timed(1.0, 4.0), base, "t").is_ok());
        // 3x slower: regression.
        let errs = check(&timed(3.0, 4.0), base, "t").unwrap_err();
        assert!(errs[0].contains("'a.secs.mean' [RatioMax] regressed 3.00x"));
        // 1.6x slower on a >= 1 ms baseline: the tightened gate fires too.
        let errs = check(&timed(1.6, 4.0), base, "t").unwrap_err();
        assert!(errs[0].contains("regressed"), "1.5x gate must fire at 1.6x");
        // 1.4x stays within the tightened tolerance.
        assert!(check(&timed(1.4, 4.0), base, "t").is_ok());
        // Sub-millisecond baselines stay ungated however noisy.
        let sub = r#"{ "a": { "secs": { "mean": 0.0005 } }, "speedup": 4.0 }"#;
        assert!(check(&timed(0.005, 4.0), sub, "t").is_ok());
        // Missing key: fails.
        let missing = Doc::default().num("speedup", 4.0, 4, Gate::Floor(MIN_PD_SPEEDUP));
        let errs = check(&missing, base, "t").unwrap_err();
        assert_eq!(errs, ["t: 'a.secs.mean' missing from fresh run"]);
        // Speedup collapse: fails.
        let errs = check(&timed(1.0, 1.1), base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'speedup' [Floor(2.0)] fresh 1.1 is below the floor (committed 4)"]
        );
        // Block skip rates are deterministic and hard-gated.
        let skip = |rate: f64| {
            Doc::default().num(
                "large.block_skip_rate",
                rate,
                4,
                Gate::Floor(MIN_BLOCK_SKIP_RATE),
            )
        };
        let base_s = r#"{ "large": { "block_skip_rate": 0.77 } }"#;
        let errs = check(&skip(0.31), base_s, "t").unwrap_err();
        assert!(errs[0].contains("'large.block_skip_rate' [Floor(0.65)] fresh 0.31"));
        assert!(check(&skip(0.72), base_s, "t").is_ok());
    }

    #[test]
    fn check_gates_run_shape_exactly() {
        let committed = committed("BENCH_pd.json");
        let (b, [large, euclid_large, huge]) = committed_pd_inputs();
        assert!(check(&pd_json(&b, &large, &euclid_large, &huge), &committed, "t").is_ok());
        // A lighter workload timed against the committed seconds fails,
        // however well it times.
        let lighter = PdTiming {
            requests: large.requests / 2,
            ..large.clone()
        };
        let errs = check(
            &pd_json(&b, &lighter, &euclid_large, &huge),
            &committed,
            "t",
        )
        .unwrap_err();
        assert_eq!(
            errs,
            ["t: 'large.requests' [Exact] fresh 2048 != committed 4096"]
        );
    }

    #[test]
    fn check_fails_on_an_infinite_committed_mean() {
        // An infinite baseline would make every ratio 0, passing forever.
        let base = r#"{ "secs": { "mean": inf } }"#;
        let fresh = Doc::default().summary("secs", &summarize(&[1.0]));
        let errs = check(&fresh, base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'secs.mean' [RatioMax] is not finite (fresh 1, committed inf)"]
        );
    }

    #[test]
    fn check_fails_on_a_nan_committed_mean() {
        // A NaN baseline would fail every comparison and skip the gate.
        let base = r#"{ "secs": { "mean": NaN } }"#;
        let fresh = Doc::default().summary("secs", &summarize(&[1.0]));
        let errs = check(&fresh, base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'secs.mean' [RatioMax] is not finite (fresh 1, committed NaN)"]
        );
    }

    #[test]
    fn check_fails_on_nan_fresh_values() {
        // `NaN < floor` and `NaN > factor` are both false, so a NaN would
        // pass a floor and a ratio gate alike.
        let base =
            r#"{ "speedup": 2.6, "large": { "block_skip_rate": 0.68 }, "secs": { "mean": 0.5 } }"#;
        let fresh = Doc::default()
            .num("speedup", f64::NAN, 4, Gate::Floor(MIN_PD_SPEEDUP))
            .num(
                "large.block_skip_rate",
                f64::NAN,
                4,
                Gate::Floor(MIN_BLOCK_SKIP_RATE),
            )
            .summary("secs", &summarize(&[f64::NAN]));
        let errs = check(&fresh, base, "t").unwrap_err();
        assert_eq!(errs.len(), 3, "{errs:?}");
        for key in ["speedup", "large.block_skip_rate", "secs.mean"] {
            assert!(
                errs.iter()
                    .any(|e| e.contains(&format!("'{key}'")) && e.contains("not finite")),
                "{key}: {errs:?}"
            );
        }
        // Informational values are never judged.
        let info = Doc::default().num("optimum", f64::NAN, 9, Gate::Info);
        assert!(check(&info, r#"{ "optimum": 1.0 }"#, "t").is_ok());
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
        let (nums, strs) = round_trip(&doc);
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
        assert_committed_key_set(&doc, "BENCH_serve.json", &[]);
    }

    #[test]
    fn check_gates_serve_determinism_and_throughput() {
        let base = r#"{ "shards": 16, "pool_threads": 1, "digest_match": 1.0, "serve_secs": { "mean": 0.02 }, "arrivals_per_sec": 2000000.0 }"#;
        assert!(check(&serve_json(&serve_fixture(0.02)), base, "t").is_ok());
        // A digest mismatch fails regardless of every timing.
        let diverged = ServeBench {
            digest_match: false,
            ..serve_fixture(0.02)
        };
        let errs = check(&serve_json(&diverged), base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'digest_match' [Floor(1.0)] fresh 0 is below the floor (committed 1)"]
        );
        // A 2x throughput collapse fails through `serve_secs.mean`; the
        // derived `arrivals_per_sec` is informational.
        let errs = check(&serve_json(&serve_fixture(0.04)), base, "t").unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("'serve_secs.mean' [RatioMax] regressed 2.00x"));
        // A mild dip stays a note, not an error.
        assert!(check(&serve_json(&serve_fixture(0.025)), base, "t").is_ok());
        // Sub-millisecond serve cells are exempt from the ratio.
        let sub_base = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.0005 }, "arrivals_per_sec": 80000000.0 }"#;
        assert!(check(&serve_json(&serve_fixture(0.005)), sub_base, "t").is_ok());
        // The pool size follows the machine; the shard count is run shape.
        let wider = ServeBench {
            pool_threads: 2,
            ..serve_fixture(0.02)
        };
        assert!(check(&serve_json(&wider), base, "t").is_ok());
        let fewer = ServeBench {
            shards: 8,
            ..serve_fixture(0.02)
        };
        let errs = check(&serve_json(&fewer), base, "t").unwrap_err();
        assert_eq!(errs, ["t: 'shards' [Exact] fresh 8 != committed 16"]);
    }

    #[test]
    fn check_gates_the_faulted_cell() {
        let base = r#"{ "faulted": { "quarantined": 1, "digest_match": 1.0 } }"#;
        // Healthy-tenant divergence under faults is a hard failure.
        let diverged = ServeBench {
            faulted_digest_match: false,
            ..serve_fixture(0.02)
        };
        let errs = check(&serve_json(&diverged), base, "t").unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("'faulted.digest_match'")),
            "{errs:?}"
        );
        // So is a drifting quarantine count (containment over- or
        // under-firing is machine-independent).
        let drifted = ServeBench {
            faulted_quarantined: 2,
            ..serve_fixture(0.02)
        };
        let errs = check(&serve_json(&drifted), base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'faulted.quarantined' [Exact] fresh 2 != committed 1"]
        );
        assert!(check(&serve_json(&serve_fixture(0.02)), base, "t").is_ok());
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
        let (nums, _) = round_trip(&doc);
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
        assert_committed_key_set(&doc, "BENCH_opt.json", &["euclid-clusters"]);
    }

    #[test]
    fn check_gates_opt_nodes_and_certified_gaps() {
        let base = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.000000000, "digest_match": 1.0 } }"#;
        let opt = |cell: OptBench| opt_json(&[cell], &opt_profile());
        assert!(check(&opt(opt_fixture(271, 0.0, true)), base, "t").is_ok());
        // A different tree is a hard failure even if everything else holds.
        let errs = check(&opt(opt_fixture(290, 0.0, true)), base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'zipf-services.nodes_expanded' [Exact] fresh 290 != committed 271"]
        );
        // Losing the optimality certificate fails.
        let errs = check(&opt(opt_fixture(271, 0.0314, true)), base, "t").unwrap_err();
        assert_eq!(
            errs,
            ["t: 'zipf-services.gap_certified' [Exact] fresh 0.0314 != committed 0"]
        );
        // Thread-count divergence fails the digest_match floor.
        let errs = check(&opt(opt_fixture(271, 0.0, false)), base, "t").unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("'zipf-services.digest_match'")),
            "{errs:?}"
        );
    }

    #[test]
    fn render_reproduces_the_committed_layout() {
        // BENCH_opt.json records every input of its builder, so rebuilding
        // it from its own numbers must reproduce the file byte for byte.
        let text = committed("BENCH_opt.json");
        let (nums, _) = parse_flat(&text).unwrap();
        let cells: Vec<OptBench> = OPT_FAMILIES
            .iter()
            .map(|&family| {
                let at = |field: &str| nums[&format!("{family}.{field}")];
                OptBench {
                    family,
                    points: at("points") as usize,
                    requests: at("requests") as usize,
                    nodes_expanded: at("nodes_expanded") as u64,
                    gap_certified: at("gap_certified"),
                    optimum: at("optimum"),
                    root_bound: at("root_bound"),
                    digest_match: at("digest_match") == 1.0,
                    solve: summary_at(&nums, &format!("{family}.solve_secs")),
                }
            })
            .collect();
        let profile = CatalogProfile {
            services: nums["services"] as u16,
            ..opt_profile()
        };
        assert_eq!(opt_json(&cells, &profile).render(), text);
        // Flat objects and single-key wrappers stay on one line.
        let doc = Doc::default()
            .str("family", "f")
            .nest(
                "faulted",
                Doc::default().num("quarantined", 1.0, 0, Gate::Exact).num(
                    "digest_match",
                    1.0,
                    1,
                    Gate::Floor(1.0),
                ),
            )
            .nest(
                "pd-omflp/f",
                Doc::default().summary("secs", &summarize(&[0.25])),
            );
        assert_eq!(
            doc.render(),
            "{\n  \"family\": \"f\",\n  \"faulted\": { \"quarantined\": 1, \"digest_match\": 1.0 },\n  \
             \"pd-omflp/f\": { \"secs\": { \"n\": 1, \"mean\": 0.250000000, \"std\": 0.000000000, \
             \"min\": 0.250000000, \"max\": 0.250000000 } }\n}\n"
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_flat("{").is_err());
        assert!(parse_flat(r#"{ "a": }"#).is_err());
        assert!(parse_flat(r#"{ "a": 1 } trailing"#).is_err());
        assert!(parse_flat(r#"{ "a": "b\"c" }"#).is_err());
    }
}
