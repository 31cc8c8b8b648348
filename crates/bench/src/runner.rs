//! Shared measurement machinery: run algorithms over scenarios, estimate
//! expectations over trials, and bracket OPT.

use omfl_baselines::offline::{
    serve_alone_lower_bound, DualLowerBound, ExactArm, GreedyOffline, LocalSearch, OptBracket,
};
use omfl_core::algorithm::run_online_verified;
use omfl_par::{parallel_map, seed_for, summarize, Summary};
use omfl_sim::{with_engine, Engine};
use omfl_workload::Scenario;
use std::time::Instant;

/// Runs one engine over a scenario, verifying feasibility; returns the
/// total cost. Panics on infeasibility — a broken run must never silently
/// enter a results table.
pub fn run_cost(scenario: &Scenario, engine: Engine) -> f64 {
    with_engine(scenario, engine, |a| {
        run_online_verified(a, scenario.instance(), &scenario.requests)
    })
    .expect("feasible run")
}

/// Wall-clock of one full run (seconds) together with the cost.
pub fn run_timed(scenario: &Scenario, engine: Engine) -> (f64, f64) {
    let t0 = Instant::now();
    let cost = run_cost(scenario, engine);
    (cost, t0.elapsed().as_secs_f64())
}

/// Monte-Carlo estimate over `trials` scenario seeds: `make(seed)` builds
/// the (possibly random) scenario, `engine(seed)` selects the engine for
/// that trial. Trials run in parallel with deterministic per-trial seeds.
pub fn trial_summary<F, G>(
    trials: usize,
    base_seed: u64,
    threads: usize,
    make: F,
    engine: G,
) -> Summary
where
    F: Fn(u64) -> Scenario + Sync,
    G: Fn(u64) -> Engine + Sync,
{
    let idx: Vec<u64> = (0..trials as u64).collect();
    let costs = parallel_map(&idx, threads, |_, &t| {
        let seed = seed_for(base_seed, t);
        let sc = make(seed);
        run_cost(&sc, engine(seed))
    });
    summarize(&costs)
}

/// Like [`trial_summary`] but for cost *ratios* against a per-trial OPT
/// value provided by `opt`.
pub fn ratio_summary<F, G, H>(
    trials: usize,
    base_seed: u64,
    threads: usize,
    make: F,
    engine: G,
    opt: H,
) -> Summary
where
    F: Fn(u64) -> Scenario + Sync,
    G: Fn(u64) -> Engine + Sync,
    H: Fn(&Scenario) -> f64 + Sync,
{
    let idx: Vec<u64> = (0..trials as u64).collect();
    let ratios = parallel_map(&idx, threads, |_, &t| {
        let seed = seed_for(base_seed, t);
        let sc = make(seed);
        let o = opt(&sc);
        assert!(o > 0.0, "OPT reference must be positive");
        run_cost(&sc, engine(seed)) / o
    });
    summarize(&ratios)
}

/// OPT bracket with a size guard: the local-search tightening only runs on
/// instances small enough for the exact-assignment recomputation.
pub fn bracket(scenario: &Scenario) -> OptBracket {
    let inst = scenario.instance();
    let reqs = &scenario.requests;
    let dual = DualLowerBound::compute(inst, reqs).expect("dual LB");
    let alone = serve_alone_lower_bound(inst, reqs).expect("serve-alone LB");
    let greedy = GreedyOffline::new().solve(inst, reqs).expect("greedy");
    let mut upper = greedy.total_cost();
    if reqs.len() <= 128 && greedy.facilities().len() <= 24 {
        let ls = LocalSearch::new()
            .improve(inst, &greedy, reqs)
            .expect("local search");
        upper = upper.min(ls.total_cost());
    }
    // The exact arm stays out of the bench bracket on purpose: it is a
    // timing reference, and the sweep's `ratio_exact` column is where
    // certified optima are reported.
    OptBracket {
        lower: dual.max(alone).min(upper),
        upper,
        exact: ExactArm::Skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omfl_commodity::cost::CostModel;
    use omfl_workload::composite::uniform_line;
    use omfl_workload::demand::DemandModel;

    fn scenario(seed: u64) -> Scenario {
        uniform_line(
            8,
            10.0,
            20,
            DemandModel::UniformK { k: 2 },
            CostModel::power(6, 1.0, 2.0),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn run_cost_all_algorithms() {
        let sc = scenario(1);
        for engine in Engine::all(3) {
            let c = run_cost(&sc, engine);
            assert!(c > 0.0, "{}", engine.name());
        }
    }

    #[test]
    fn bracket_orders_and_pd_within_bounds() {
        let sc = scenario(2);
        let b = bracket(&sc);
        assert!(b.lower > 0.0);
        assert!(b.lower <= b.upper + 1e-9);
        let pd = run_cost(&sc, Engine::Pd);
        // The online cost must be at least the lower bound on OPT (it is a
        // feasible solution), sanity-checking the whole pipeline.
        assert!(pd >= b.lower - 1e-9);
    }

    #[test]
    fn trial_summary_deterministic() {
        let rand = |seed| Engine::Rand { seed };
        let a = trial_summary(4, 7, 2, scenario, rand);
        let b = trial_summary(4, 7, 4, scenario, rand);
        assert_eq!(a, b, "thread count must not change results");
    }

    #[test]
    fn run_timed_returns_positive_duration() {
        let sc = scenario(3);
        let (c, t) = run_timed(&sc, Engine::Pd);
        assert!(c > 0.0);
        assert!(t >= 0.0);
    }
}
