//! `model-split` — §1.1's alternative cost model (connection cost charged
//! per commodity) simulated by the paper's own reduction: replace each
//! request by `|sr|` singleton requests. The table reports the sequence
//! inflation and the cost inflation for PD and RAND; the paper argues the
//! competitive ratio grows by at most a factor 2 when `|S|` is polynomial
//! in n.

use crate::runner::run_cost;
use crate::table::{fmt, Table};
use omfl_commodity::cost::CostModel;
use omfl_core::transform::{split_into_singletons, split_len};
use omfl_sim::Engine;
use omfl_workload::composite::uniform_line;
use omfl_workload::demand::DemandModel;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let ns: &[usize] = if quick {
        &[48, 96]
    } else {
        &[48, 96, 192, 384]
    };
    let s = 12u16;
    let mut t = Table::new(
        format!("§1.1 model split: joint vs per-commodity connection model (|S| = {s})"),
        &[
            "n",
            "n'",
            "pd joint",
            "pd split",
            "infl",
            "rand joint",
            "rand split",
            "infl",
        ],
    );
    for &n in ns {
        let sc = uniform_line(
            16,
            20.0,
            n,
            DemandModel::UniformK { k: 3 },
            CostModel::power(s, 1.0, 2.0),
            401,
        )
        .expect("scenario");
        let split = split_into_singletons(&sc.requests);
        let nn = split_len(&sc.requests);
        let sc_split = sc.with_requests(split).expect("split scenario");
        let pd_j = run_cost(&sc, Engine::Pd);
        let pd_s = run_cost(&sc_split, Engine::Pd);
        let rn_j = run_cost(&sc, Engine::Rand { seed: 5 });
        let rn_s = run_cost(&sc_split, Engine::Rand { seed: 5 });
        t.row(&[
            n.to_string(),
            nn.to_string(),
            fmt(pd_j),
            fmt(pd_s),
            fmt(pd_s / pd_j),
            fmt(rn_j),
            fmt(rn_s),
            fmt(rn_s / rn_j),
        ]);
    }
    t.note("split model charges every commodity its own connection; inflation ≤ |sr| trivially");
    t.note("paper: ratios increase only by a factor of 2 for |S| polynomial in n");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn inflation_is_bounded_by_demand_size() {
        let tables = super::run(true);
        let t = &tables[0];
        for row in &t.rows {
            let infl: f64 = row[4].parse().unwrap();
            assert!(
                infl <= 3.0 + 1e-9,
                "PD split inflation {infl} should stay ≤ k = 3"
            );
            assert!(
                infl >= 0.8,
                "split cost cannot collapse below the joint cost"
            );
        }
    }
}
