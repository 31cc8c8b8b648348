//! `cor3-line` — the Corollary 3 line workloads: hierarchical (dyadic)
//! request cascades driving the `log n / log log n` term. Ratios are
//! reported against the OPT bracket (dual + serve-alone lower bound,
//! greedy/local-search upper bound).

use crate::runner::{bracket, run_cost};
use crate::table::{fmt, Table};
use omfl_core::bounds::log_over_loglog;
use omfl_sim::Engine;
use omfl_workload::adversarial::dyadic_line;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let levels: &[u32] = if quick { &[2, 3, 4] } else { &[2, 3, 4, 5, 6] };
    let mut t = Table::new(
        "Corollary 3: dyadic line cascades (|S| = 4, bundle 2)",
        &[
            "levels",
            "n",
            "ln n/ln ln n",
            "pd/upper",
            "pd/lower",
            "rand/upper",
            "rand/lower",
        ],
    );
    for &lv in levels {
        let sc = dyadic_line(lv, 16.0, 4, 2, 7).expect("scenario");
        let n = sc.len();
        let b = bracket(&sc);
        let pd = run_cost(&sc, Engine::Pd);
        let rn = run_cost(&sc, Engine::Rand { seed: 5 });
        t.row(&[
            lv.to_string(),
            n.to_string(),
            fmt(log_over_loglog(n)),
            fmt(b.ratio_lower(pd)),
            fmt(b.ratio_upper(pd)),
            fmt(b.ratio_lower(rn)),
            fmt(b.ratio_upper(rn)),
        ]);
    }
    t.note("true ratio lies between the /upper (optimistic) and /lower (pessimistic) columns");
    t.note("paper shape: slow growth with n, tracking ln n / ln ln n");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn produces_rows_with_ordered_ratio_bracket() {
        let tables = super::run(true);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let lo: f64 = row[3].parse().unwrap();
            let hi: f64 = row[4].parse().unwrap();
            assert!(lo <= hi + 1e-9, "bracket columns out of order: {lo} > {hi}");
            assert!(lo > 0.0);
        }
    }
}
