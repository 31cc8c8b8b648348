//! `decomp-cross` — §1.3's trivial per-commodity baseline vs the
//! always-predict baseline vs PD, as demand breadth `k` sweeps from
//! singletons to the full universe.
//!
//! With isolated requests (construction-dominated), the per-commodity
//! decomposition pays ≈ `k` per fresh site, all-large pays ≈ `√|S|`
//! (`f^S` under the square-root cost), so the two baselines cross near
//! `k = √|S|`. PD tracks the cheaper regime on both sides — exactly the
//! small/large switch the paper designs.

use crate::runner::run_cost;
use crate::table::{fmt, Table};
use omfl_commodity::cost::CostModel;
use omfl_sim::Engine;
use omfl_workload::composite::uniform_line;
use omfl_workload::demand::DemandModel;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let s: u16 = 64;
    let ks: &[usize] = if quick {
        &[1, 4, 8, 24, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let n = if quick { 80 } else { 200 };
    let mut t = Table::new(
        format!("Decomposition crossover in demand breadth k (|S| = {s}, √S = 8, n = {n})"),
        &[
            "k",
            "pd",
            "rand",
            "per-com",
            "all-large",
            "per-com/all-large",
        ],
    );
    for &k in ks {
        let sc = uniform_line(
            48,
            400.0, // isolated sites: construction dominates
            n,
            DemandModel::UniformK { k },
            CostModel::power(s, 1.0, 1.0),
            307,
        )
        .expect("scenario");
        let pd = run_cost(&sc, Engine::Pd);
        let rn = run_cost(&sc, Engine::Rand { seed: 3 });
        let dc = run_cost(&sc, Engine::PerCommodity);
        let al = run_cost(&sc, Engine::AllLarge);
        t.row(&[
            k.to_string(),
            fmt(pd),
            fmt(rn),
            fmt(dc),
            fmt(al),
            fmt(dc / al),
        ]);
    }
    t.note("expected crossover: per-com/all-large < 1 for k < √S = 8, > 1 for k > √S");
    t.note("pd should track min(per-com, all-large) within a small constant on both sides");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn baselines_cross_near_sqrt_s_and_pd_tracks_the_winner() {
        let tables = super::run(true);
        let t = &tables[0];
        let get = |i: usize, j: usize| -> f64 { t.rows[i][j].parse().unwrap() };
        // k = 1 (first row): per-commodity beats all-large.
        assert!(
            get(0, 5) < 1.0,
            "narrow demands must favour per-commodity, got ratio {}",
            get(0, 5)
        );
        // k = 64 (last row): all-large beats per-commodity.
        let last = t.rows.len() - 1;
        assert!(
            get(last, 5) > 1.0,
            "broad demands must favour all-large, got ratio {}",
            get(last, 5)
        );
        // PD stays within a small factor of the better baseline everywhere.
        for i in 0..t.rows.len() {
            let pd = get(i, 1);
            let best = get(i, 3).min(get(i, 4));
            assert!(
                pd <= 2.0 * best + 1e-9,
                "row {i}: pd {pd} should track min(baselines) = {best}"
            );
        }
    }
}
