//! Experiment harness regenerating every figure and theorem of the paper.
//!
//! `cargo run -p omfl-bench --release --bin experiments -- --list` prints the
//! registry (README, "The experiment harness", shows how to run it); each
//! experiment id produces one or more aligned tables (and CSV files under
//! `results/`).

pub mod experiments;
pub mod perfjson;
pub mod runner;
pub mod table;

use table::Table;

/// A registered experiment.
pub struct Experiment {
    /// Stable id (as `experiments -- --list` prints it).
    pub id: &'static str,
    /// What paper artifact it regenerates.
    pub title: &'static str,
    /// Runs the experiment; `quick` trades precision for time.
    pub run: fn(quick: bool) -> Vec<Table>,
}

/// The experiment registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2-bounds",
            title: "Figure 2: class-C upper vs lower bound curves (|S| = 10,000)",
            run: experiments::fig2::run,
        },
        Experiment {
            id: "thm2-lb",
            title: "Theorem 2: Ω(√|S|) lower bound on a single point",
            run: experiments::thm2::run,
        },
        Experiment {
            id: "cor3-line",
            title: "Corollary 3: hierarchical line workloads (log n / log log n term)",
            run: experiments::cor3::run,
        },
        Experiment {
            id: "thm4-pd",
            title: "Theorem 4: PD-OMFLP is O(√|S|·log n)-competitive",
            run: experiments::thm4::run,
        },
        Experiment {
            id: "thm19-rand",
            title: "Theorem 19: RAND-OMFLP expected ratio and efficiency",
            run: experiments::thm19::run,
        },
        Experiment {
            id: "thm18-sweep",
            title: "Theorem 18: class-C cost sweep x ∈ [0,2]",
            run: experiments::thm18::run,
        },
        Experiment {
            id: "fig3-modes",
            title: "Figure 3: RAND-OMFLP serve modes over time",
            run: experiments::fig3::run,
        },
        Experiment {
            id: "decomp-cross",
            title: "§1.3: per-commodity decomposition crossover in |S|",
            run: experiments::decomp::run,
        },
        Experiment {
            id: "model-split",
            title: "§1.1: per-commodity connection-cost model via request splitting",
            run: experiments::model_split::run,
        },
        Experiment {
            id: "order-abl",
            title: "§1.2: adversarial vs random arrival order",
            run: experiments::order::run,
        },
        Experiment {
            id: "cond1-abl",
            title: "§5: Condition 1 violation and heavy-commodity exclusion",
            run: experiments::cond1::run,
        },
        Experiment {
            id: "catalog-sweep",
            title: "Scenario catalog: every workload family × all four engines",
            run: experiments::catalog::run,
        },
        Experiment {
            id: "pd-argmin",
            title: "PD opening targets: block-pruned t3/t4 argmin at large |M|, checked against NaivePd",
            run: experiments::pd_argmin::run,
        },
    ]
}
