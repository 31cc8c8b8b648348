//! `order-abl` — §1.2 notes that weakening the adversary's control over
//! arrival order helps Meyerson-style algorithms. We serve the same dyadic
//! request multiset in adversarial (coarse-to-fine) and random order and
//! compare RAND-OMFLP and PD-OMFLP costs.

use crate::runner::run_cost;
use crate::table::{fmt, Table};
use omfl_par::{parallel_map, seed_for, summarize};
use omfl_sim::Engine;
use omfl_workload::adversarial::dyadic_line;
use omfl_workload::arrival::Arrival;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let levels = if quick { 5 } else { 7 };
    let trials = if quick { 8 } else { 32 };
    let threads = omfl_par::default_threads();
    let sc = dyadic_line(levels, 32.0, 6, 2, 501).expect("scenario");
    let n = sc.len();

    let mut t = Table::new(
        format!("Arrival-order ablation (dyadic line, n = {n}, {trials} trials)"),
        &["order", "pd", "rand mean±ci"],
    );
    for (label, order) in [("adversarial", None), ("random", Some(()))] {
        let seeds: Vec<u64> = (0..trials as u64).collect();
        let rand_costs = parallel_map(&seeds, threads, |_, &tr| {
            let reqs = match order {
                None => Arrival::Adversarial.apply(&sc.requests),
                Some(()) => Arrival::RandomOrder {
                    seed: seed_for(7, tr),
                }
                .apply(&sc.requests),
            };
            let sc2 = sc.with_requests(reqs).expect("reorder");
            let seed = seed_for(11, tr);
            run_cost(&sc2, Engine::Rand { seed })
        });
        let rand = summarize(&rand_costs);
        let pd_cost = {
            let reqs = match order {
                None => Arrival::Adversarial.apply(&sc.requests),
                Some(()) => Arrival::RandomOrder { seed: 1 }.apply(&sc.requests),
            };
            let sc2 = sc.with_requests(reqs).expect("reorder");
            run_cost(&sc2, Engine::Pd)
        };
        t.row(&[
            label.to_string(),
            fmt(pd_cost),
            format!("{}±{}", fmt(rand.mean), fmt(rand.ci95)),
        ]);
    }
    t.note("paper §1.2 (citing Lang 2018): weaker adversaries lower Meyerson-style costs");
    t.note("expected: the random-order row is no more expensive than the adversarial one");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn random_order_does_not_hurt_much() {
        let tables = super::run(true);
        let t = &tables[0];
        let rand_of =
            |i: usize| -> f64 { t.rows[i][2].split('±').next().unwrap().parse().unwrap() };
        let adv = rand_of(0);
        let rnd = rand_of(1);
        assert!(
            rnd <= adv * 1.15,
            "random order should not be materially worse: adv {adv} vs random {rnd}"
        );
    }
}
