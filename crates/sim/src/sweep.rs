//! Sharded (scenario-family × engine × seed) sweeps.
//!
//! [`sweep`] flattens the full matrix into independent cells, fans them
//! across worker threads with `omfl_par::parallel_map` (order-preserving —
//! results never depend on thread scheduling), and
//! [`aggregate`]s the cells into a per-(family, engine) comparison table.
//! Scenario seeds derive from `(base_seed, family, trial)` via
//! `omfl_par::seed_for`, so every engine sees the *same* instance in trial
//! `t` and the whole table is bit-identical across runs and thread counts.
//!
//! The table's text and CSV renderings are consumed by the `catalog-sweep`
//! experiment in `omfl-bench` and by `examples/scenario_sweep.rs` (which
//! commits the canonical CSV under `results/`).

use crate::{run_engine, Engine, SimReport};
use omfl_baselines::offline::ExactSolver;
use omfl_core::CoreError;
use omfl_par::{parallel_map, seed_for, summarize, Summary};
use omfl_workload::catalog;
use omfl_workload::catalog::{CatalogProfile, Family};

/// Size envelope for the per-scenario exact reference: instances inside it
/// get a branch-and-bound run (threads = 1, fixed node budget — fully
/// deterministic, so the canonical CSV stays regenerable); anything larger
/// reports `None` columns.
const SWEEP_EXACT_MAX_POINTS: usize = 32;
const SWEEP_EXACT_MAX_COMMODITIES: usize = 10;
const SWEEP_EXACT_MAX_REQUESTS: usize = 256;
const SWEEP_EXACT_NODE_BUDGET: u64 = 128;

/// The exact-OPT reference computed once per (family, trial) scenario and
/// shared by every engine's cell in that trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactRef {
    /// Certified optimum, when the branch-and-bound certified in budget.
    pub opt: Option<f64>,
    /// Certified relative gap `(upper − lower) / upper` when the exact
    /// solver ran (0 when certified); `None` when the instance was skipped.
    pub gap: Option<f64>,
}

impl ExactRef {
    /// The skipped reference (instance outside the envelope).
    pub fn skipped() -> Self {
        Self {
            opt: None,
            gap: None,
        }
    }
}

/// Runs the deterministic exact reference for one scenario.
fn exact_reference(scenario: &crate::Scenario) -> ExactRef {
    let inst = scenario.instance();
    if inst.num_points() > SWEEP_EXACT_MAX_POINTS
        || inst.num_commodities() > SWEEP_EXACT_MAX_COMMODITIES
        || scenario.requests.len() > SWEEP_EXACT_MAX_REQUESTS
    {
        return ExactRef::skipped();
    }
    match ExactSolver::new()
        .with_node_budget(SWEEP_EXACT_NODE_BUDGET)
        .solve_bounded(inst, &scenario.requests)
    {
        Ok(res) => {
            let rel = if res.upper_bound > 0.0 {
                res.gap / res.upper_bound
            } else {
                0.0
            };
            ExactRef {
                opt: res.certified().then_some(res.upper_bound),
                gap: Some(rel),
            }
        }
        Err(_) => ExactRef::skipped(),
    }
}

/// One completed cell of the sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Family name (stable across parameterizations).
    pub family: &'static str,
    /// Engine name.
    pub engine: &'static str,
    /// The scenario seed this cell was built with.
    pub seed: u64,
    /// The full simulation report.
    pub report: SimReport,
    /// True competitive ratio `cost / certified OPT`, when the exact
    /// branch-and-bound certified this trial's scenario.
    pub ratio_exact: Option<f64>,
    /// Certified relative optimality gap of the exact reference (0 when
    /// certified), `None` when the scenario was outside its envelope.
    pub gap_certified: Option<f64>,
}

/// A (family, engine) row aggregated over its trials.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Family name.
    pub family: &'static str,
    /// Engine name.
    pub engine: &'static str,
    /// Total-cost statistics over the trials.
    pub cost: Summary,
    /// Mean number of facilities opened.
    pub mean_facilities: f64,
    /// Mean number of large facilities.
    pub mean_large: f64,
    /// Mean fraction of requests served by a large facility.
    pub large_serve_share: f64,
    /// Mean p95 connection latency.
    pub mean_p95_latency: f64,
    /// Mean true competitive ratio over the trials whose scenario the
    /// exact solver certified; `None` when it certified none of them.
    pub ratio_exact: Option<f64>,
    /// Mean certified relative gap over the trials where the exact solver
    /// ran; `None` when every trial was outside its envelope.
    pub gap_certified: Option<f64>,
}

/// The aggregated sweep: rows in (family, engine) first-seen order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    /// Aggregated rows.
    pub rows: Vec<SweepRow>,
}

/// The shared matrix plumbing behind [`sweep`] and [`timed_sweep`]: one
/// task per (family, trial) — the scenario is engine-independent, so each
/// worker builds it once and runs every engine through it — then
/// reassembly into deterministic matrix order (family-major, then engine,
/// then trial) regardless of thread count. The scenario seed for trial `t`
/// of family `i` is `seed_for(base_seed, i·2³² + t)`, independent of the
/// engine, so all engines compete on identical instances. Keeping this in
/// one place guarantees a timed run measures exactly the cells a regular
/// sweep produces.
#[allow(clippy::too_many_arguments)] // private plumbing: the six matrix knobs plus the two stage closures
fn run_matrix<C: Clone + Send, P: Send>(
    families: &[Family],
    profile: &CatalogProfile,
    engines: &[Engine],
    base_seed: u64,
    trials: usize,
    threads: usize,
    prep: impl Fn(&Family, &crate::Scenario) -> Result<P, CoreError> + Sync,
    cell: impl Fn(&Family, &crate::Scenario, &P, Engine, u64) -> Result<C, CoreError> + Sync,
) -> Result<Vec<C>, CoreError> {
    let mut tasks = Vec::with_capacity(families.len() * trials);
    for fi in 0..families.len() {
        for t in 0..trials as u64 {
            tasks.push((fi, t));
        }
    }
    let groups = parallel_map(&tasks, threads, |_, &(fi, t)| {
        let seed = seed_for(base_seed, ((fi as u64) << 32) | t);
        let scenario = families[fi].build(profile, seed)?;
        let prepared = prep(&families[fi], &scenario)?;
        engines
            .iter()
            .map(|&engine| cell(&families[fi], &scenario, &prepared, engine, seed))
            .collect::<Result<Vec<C>, CoreError>>()
    });
    let groups = groups.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut cells = Vec::with_capacity(families.len() * engines.len() * trials);
    for fi in 0..families.len() {
        for (ei, _) in engines.iter().enumerate() {
            for t in 0..trials {
                cells.push(groups[fi * trials + t][ei].clone());
            }
        }
    }
    Ok(cells)
}

/// Runs the full matrix: every family × every engine × `trials` seeds,
/// sharded over `threads` worker threads.
///
/// Cell order and seed derivation are documented on the shared matrix
/// runner; all engines in a trial see the identical instance.
pub fn sweep(
    families: &[Family],
    profile: &CatalogProfile,
    engines: &[Engine],
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Result<Vec<SweepCell>, CoreError> {
    run_matrix(
        families,
        profile,
        engines,
        base_seed,
        trials,
        threads,
        |_, scenario| Ok(exact_reference(scenario)),
        |fam, scenario, exact, engine, seed| {
            let report = run_engine(scenario, engine)?;
            let ratio_exact = exact
                .opt
                .filter(|&o| o > 0.0)
                .map(|o| report.total_cost / o);
            Ok(SweepCell {
                family: fam.name,
                engine: engine.name(),
                seed,
                report,
                ratio_exact,
                gap_certified: exact.gap,
            })
        },
    )
}

/// One timed cell of the sweep matrix: the wall-clock of a full
/// `run_engine` call on one (family, engine, seed) triple.
///
/// Timing is deliberately kept *out* of [`SweepCell`]: cells are compared
/// bit-identically by the determinism suite and aggregated into the
/// canonical CSV, and wall-clock is the one field that can never reproduce.
/// The bench runner's `--emit-json` path consumes these instead.
#[derive(Debug, Clone)]
pub struct TimedCell {
    /// Family name.
    pub family: &'static str,
    /// Engine name.
    pub engine: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Wall-clock seconds of the full serve stream (excluding scenario
    /// construction, including final verification).
    pub secs: f64,
}

/// Runs the same matrix as [`sweep`] but records per-cell wall-clock
/// instead of reports. Built on the shared matrix runner, so cell order
/// and scenario seeds are identical to [`sweep`] by construction — a timed
/// run measures exactly the work a regular sweep would do.
pub fn timed_sweep(
    families: &[Family],
    profile: &CatalogProfile,
    engines: &[Engine],
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Result<Vec<TimedCell>, CoreError> {
    run_matrix(
        families,
        profile,
        engines,
        base_seed,
        trials,
        threads,
        // No exact reference in timed runs: timing must measure exactly the
        // engine work a regular sweep does, nothing else.
        |_, _| Ok(()),
        |fam, scenario, (), engine, seed| {
            let t0 = std::time::Instant::now();
            run_engine(scenario, engine)?;
            Ok(TimedCell {
                family: fam.name,
                engine: engine.name(),
                seed,
                secs: t0.elapsed().as_secs_f64(),
            })
        },
    )
}

/// Groups cells into per-(family, engine) rows, preserving first-seen order.
pub fn aggregate(cells: &[SweepCell]) -> SweepTable {
    let mut keys: Vec<(&'static str, &'static str)> = Vec::new();
    for c in cells {
        let k = (c.family, c.engine);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let rows = keys
        .into_iter()
        .map(|(family, engine)| {
            let group: Vec<&SweepCell> = cells
                .iter()
                .filter(|c| c.family == family && c.engine == engine)
                .collect();
            let costs: Vec<f64> = group.iter().map(|c| c.report.total_cost).collect();
            let n = group.len() as f64;
            let mean = |f: &dyn Fn(&SimReport) -> f64| -> f64 {
                group.iter().map(|c| f(&c.report)).sum::<f64>() / n
            };
            let mean_opt = |f: &dyn Fn(&SweepCell) -> Option<f64>| -> Option<f64> {
                let vals: Vec<f64> = group.iter().filter_map(|c| f(c)).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            };
            SweepRow {
                family,
                engine,
                cost: summarize(&costs),
                mean_facilities: mean(&|r| r.facilities as f64),
                mean_large: mean(&|r| r.large_facilities as f64),
                large_serve_share: mean(&|r| r.large_serves as f64 / (r.requests.max(1)) as f64),
                mean_p95_latency: mean(&|r| r.latency.p95),
                ratio_exact: mean_opt(&|c| c.ratio_exact),
                gap_certified: mean_opt(&|c| c.gap_certified),
            }
        })
        .collect();
    SweepTable { rows }
}

/// Convenience: the whole catalog against all four engines, aggregated.
pub fn sweep_catalog(
    profile: &CatalogProfile,
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Result<SweepTable, CoreError> {
    let families = catalog::registry();
    let engines = Engine::all(seed_for(base_seed, u64::MAX));
    let cells = sweep(&families, profile, &engines, base_seed, trials, threads)?;
    Ok(aggregate(&cells))
}

impl SweepTable {
    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let headers = [
            "family",
            "engine",
            "trials",
            "mean cost",
            "ci95",
            "min",
            "max",
            "facs",
            "large",
            "lg-serve",
            "p95 lat",
            "ratio-x",
            "cert-gap",
        ];
        let cells: Vec<Vec<String>> = self.rows.iter().map(row_cells).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        format!("{:<width$}", c, width = widths[i])
                    } else {
                        format!("{:>width$}", c, width = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
                + "\n"
        };
        let mut out = line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &cells {
            out.push_str(&line(row));
        }
        out
    }

    /// CSV form with a stable schema (the committed canonical results file
    /// under `results/` uses exactly this).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "family,engine,trials,mean_cost,ci95,min_cost,max_cost,\
             mean_facilities,mean_large,large_serve_share,mean_p95_latency,\
             ratio_exact,gap_certified\n",
        );
        for row in self.rows.iter().map(row_cells) {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

fn row_cells(r: &SweepRow) -> Vec<String> {
    vec![
        r.family.to_string(),
        r.engine.to_string(),
        r.cost.n.to_string(),
        fmt(r.cost.mean),
        fmt(r.cost.ci95),
        fmt(r.cost.min),
        fmt(r.cost.max),
        fmt(r.mean_facilities),
        fmt(r.mean_large),
        fmt(r.large_serve_share),
        fmt(r.mean_p95_latency),
        fmt(r.ratio_exact.unwrap_or(f64::NAN)),
        fmt(r.gap_certified.unwrap_or(f64::NAN)),
    ]
}

/// Compact fixed formatting for the committed CSV. The canonical platform
/// is the CI runner (linux); last-ulp libm differences on another OS can in
/// principle flip the 4th decimal, so regenerate the committed file there
/// (the CI examples job checks exactly this).
fn fmt(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> CatalogProfile {
        CatalogProfile {
            points: 8,
            services: 8,
            requests: 20,
        }
    }

    #[test]
    fn sweep_covers_the_full_matrix_in_order() {
        let families = catalog::registry();
        let engines = [Engine::Pd, Engine::PerCommodity];
        let cells = sweep(&families, &tiny_profile(), &engines, 1, 2, 2).unwrap();
        assert_eq!(cells.len(), families.len() * engines.len() * 2);
        // Family-major, then engine, then trial.
        assert_eq!(cells[0].family, families[0].name);
        assert_eq!(cells[0].engine, "pd-omflp");
        assert_eq!(cells[1].engine, "pd-omflp");
        assert_eq!(cells[2].engine, "per-commodity");
        // Same trial index ⇒ same scenario seed for every engine.
        assert_eq!(cells[0].seed, cells[2].seed);
    }

    #[test]
    fn sweep_is_thread_count_independent() {
        let families = catalog::registry();
        let engines = Engine::all(9);
        let reference = sweep(&families, &tiny_profile(), &engines, 7, 2, 1).unwrap();
        for threads in [2, 5, 16] {
            let out = sweep(&families, &tiny_profile(), &engines, 7, 2, threads).unwrap();
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn aggregate_groups_and_averages() {
        let families: Vec<_> = catalog::registry().into_iter().take(2).collect();
        let engines = [Engine::Pd];
        let cells = sweep(&families, &tiny_profile(), &engines, 3, 3, 2).unwrap();
        let table = aggregate(&cells);
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert_eq!(row.cost.n, 3);
            assert!(row.cost.mean > 0.0);
            assert!(row.cost.min <= row.cost.mean && row.cost.mean <= row.cost.max);
            assert!(row.mean_facilities >= 1.0);
            assert!((0.0..=1.0).contains(&row.large_serve_share));
        }
    }

    #[test]
    fn exact_columns_certify_small_families_and_bound_ratios() {
        let families = catalog::registry();
        let engines = [Engine::Pd];
        let cells = sweep(&families, &tiny_profile(), &engines, 11, 2, 2).unwrap();
        let mut certified = 0;
        for c in &cells {
            if c.family.ends_with("-large") {
                // ×32/×64 families sit outside the exact envelope.
                assert_eq!(c.ratio_exact, None, "{}", c.family);
                assert_eq!(c.gap_certified, None, "{}", c.family);
                continue;
            }
            if let Some(ratio) = c.ratio_exact {
                certified += 1;
                // Online cost can never beat the certified optimum.
                assert!(ratio >= 1.0 - 1e-6, "{}: ratio_exact {ratio} < 1", c.family);
                assert_eq!(c.gap_certified, Some(0.0), "{}", c.family);
            }
        }
        assert!(
            certified >= 8,
            "expected most tiny scenarios to certify, got {certified}"
        );
        let table = aggregate(&cells);
        for row in table.rows.iter().filter(|r| !r.family.ends_with("-large")) {
            if let Some(ratio) = row.ratio_exact {
                assert!(ratio >= 1.0 - 1e-6);
            }
        }
    }

    #[test]
    fn renderings_are_stable_and_parse() {
        let table = sweep_catalog(&tiny_profile(), 5, 1, 2).unwrap();
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + table.rows.len());
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged CSV row: {l}");
        }
        let text = table.render();
        assert!(text.contains("pd-omflp") && text.contains("all-large"));
    }
}
