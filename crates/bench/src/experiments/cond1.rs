//! `cond1-abl` — §5 closing remarks: a commodity with a large surcharge
//! violates Condition 1; the plain algorithms then predict the heavy
//! commodity into every large facility and overpay, while the
//! heavy-exclusion wrapper isolates it.
//!
//! Lower-bound note: PD's dual lower bound (Corollary 17) *assumes*
//! Condition 1 for configurations larger than √|S|, so it is not sound here;
//! ratios are reported against the greedy upper bound only.

use crate::runner::run_cost;
use crate::table::{fmt, Table};
use omfl_commodity::cost::CostModel;
use omfl_commodity::CommodityId;
use omfl_core::algorithm::run_online;
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::heavy::{detect_heavy, HeavyExclusion, HeavyInstances};
use omfl_sim::Engine;
use omfl_workload::composite::uniform_line;
use omfl_workload::demand::DemandModel;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let surcharges: &[f64] = if quick {
        &[0.0, 20.0, 80.0]
    } else {
        &[0.0, 20.0, 80.0, 320.0]
    };
    let n = if quick { 120 } else { 300 };
    let s = 8u16;
    let mut t = Table::new(
        format!(
            "Condition 1 ablation: heavy surcharge on commodity {} (n = {n})",
            s - 1
        ),
        &[
            "surcharge",
            "cond1 holds",
            "pd",
            "heavy-excl pd",
            "per-com",
            "excl/pd",
        ],
    );
    for &h in surcharges {
        let mut sur = vec![0.0; s as usize];
        sur[s as usize - 1] = h;
        let cost = CostModel::power(s, 1.0, 2.0)
            .with_surcharges(sur)
            .expect("cost");
        // Heavy commodity requested rarely (12% of requests via noise-free
        // bundles), everything else broad.
        let sc = uniform_line(
            12,
            16.0,
            n,
            DemandModel::Bundles {
                bundles: vec![
                    vec![0, 1, 2],
                    vec![2, 3, 4],
                    vec![4, 5, 6],
                    vec![0, 3, 6],
                    vec![1, 5],
                    vec![6, 7], // the only bundle touching the heavy commodity
                ],
                noise: 0.0,
            },
            cost.clone(),
            601,
        )
        .expect("scenario");
        let cond1_ok = omfl_commodity::props::condition1_exact(&cost, 0).is_ok();
        let pd = run_cost(&sc, Engine::Pd);
        let dc = run_cost(&sc, Engine::PerCommodity);
        // Heavy-exclusion wrapper with auto-detected heavy set.
        let heavy: Vec<CommodityId> = detect_heavy(sc.instance(), 4.0);
        let excl = if heavy.is_empty() {
            pd // nothing to exclude; identical to plain PD by construction
        } else {
            let parts =
                HeavyInstances::build(std::sync::Arc::clone(&sc.metric), sc.cost.clone(), &heavy)
                    .expect("split");
            let mut alg = HeavyExclusion::new(&parts);
            let c = run_online(&mut alg, &sc.requests).expect("serve");
            alg.solution().verify(&parts.original).expect("feasible");
            c
        };
        t.row(&[
            fmt(h),
            cond1_ok.to_string(),
            fmt(pd),
            fmt(excl),
            fmt(dc),
            fmt(excl / pd),
        ]);
    }
    t.note("expected: with a large surcharge, excl/pd < 1 (plain PD predicts the heavy commodity into f^S)");
    t.note("dual lower bounds are unsound without Condition 1; costs are reported raw");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn exclusion_helps_under_large_surcharge() {
        let tables = super::run(true);
        let t = &tables[0];
        // Last row: biggest surcharge.
        let last = t.rows.last().unwrap();
        let ratio: f64 = last[5].parse().unwrap();
        assert!(
            ratio <= 1.05,
            "heavy exclusion should not lose to plain PD under heavy surcharge, ratio {ratio}"
        );
        // First row (surcharge 0): Condition 1 holds and exclusion ≡ PD.
        assert_eq!(t.rows[0][1], "true");
        let base_ratio: f64 = t.rows[0][5].parse().unwrap();
        assert!((base_ratio - 1.0).abs() < 1e-9);
    }
}
