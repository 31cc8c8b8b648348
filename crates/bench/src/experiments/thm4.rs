//! `thm4-pd` — measured PD-OMFLP competitive ratios as `n` and `|S|` grow,
//! against the Theorem 4 shape `√|S| · ln n`.

use crate::runner::{bracket, run_cost};
use crate::table::{fmt, Table};
use omfl_commodity::cost::CostModel;
use omfl_core::bounds::pd_upper;
use omfl_sim::Engine;
use omfl_workload::composite::uniform_line;
use omfl_workload::demand::DemandModel;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut out = Vec::new();

    // Sweep n at fixed |S| = 16.
    {
        let ns: &[usize] = if quick {
            &[32, 64, 128]
        } else {
            &[32, 64, 128, 256, 512]
        };
        let s = 16u16;
        let mut t = Table::new(
            format!("Theorem 4: PD ratio vs n (|S| = {s}, uniform line)"),
            &[
                "n",
                "√S·ln n",
                "pd cost",
                "opt∈[lo,hi]",
                "ratio/upper",
                "ratio/lower",
            ],
        );
        for &n in ns {
            let sc = uniform_line(
                24,
                30.0,
                n,
                DemandModel::UniformK { k: 3 },
                CostModel::power(s, 1.0, 2.0),
                101,
            )
            .expect("scenario");
            let b = bracket(&sc);
            let pd = run_cost(&sc, Engine::Pd);
            t.row(&[
                n.to_string(),
                fmt(pd_upper(s as usize, n)),
                fmt(pd),
                format!("[{},{}]", fmt(b.lower), fmt(b.upper)),
                fmt(b.ratio_lower(pd)),
                fmt(b.ratio_upper(pd)),
            ]);
        }
        t.note("paper shape: ratio grows at most like √S·ln n; measured growth must be ≲ logarithmic in n");
        out.push(t);
    }

    // Sweep |S| at fixed n.
    {
        let ss: &[u16] = if quick {
            &[4, 16, 64]
        } else {
            &[4, 16, 64, 256]
        };
        let n = if quick { 96 } else { 256 };
        let mut t = Table::new(
            format!("Theorem 4: PD ratio vs |S| (n = {n}, uniform line)"),
            &[
                "|S|",
                "√S·ln n",
                "pd cost",
                "opt∈[lo,hi]",
                "ratio/upper",
                "ratio/lower",
            ],
        );
        for &s in ss {
            let k = ((s as f64).sqrt() as usize).clamp(1, 4);
            let sc = uniform_line(
                24,
                30.0,
                n,
                DemandModel::UniformK { k },
                CostModel::power(s, 1.0, 2.0),
                103,
            )
            .expect("scenario");
            let b = bracket(&sc);
            let pd = run_cost(&sc, Engine::Pd);
            t.row(&[
                s.to_string(),
                fmt(pd_upper(s as usize, n)),
                fmt(pd),
                format!("[{},{}]", fmt(b.lower), fmt(b.upper)),
                fmt(b.ratio_lower(pd)),
                fmt(b.ratio_upper(pd)),
            ]);
        }
        t.note("paper shape: ratio grows at most like √S; the /upper column should grow sublinearly in |S|");
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn pd_is_always_within_its_proven_bound_scaled() {
        // The optimistic ratio (vs the greedy upper bound on OPT) must never
        // exceed the Theorem 4 bound with a generous constant.
        let tables = super::run(true);
        for t in &tables {
            for row in &t.rows {
                let shape: f64 = row[1].parse().unwrap();
                let ratio: f64 = row[4].parse().unwrap();
                assert!(
                    ratio <= 3.0 * shape,
                    "ratio {ratio} violates 3× the √S·ln n shape {shape}"
                );
            }
        }
    }
}
