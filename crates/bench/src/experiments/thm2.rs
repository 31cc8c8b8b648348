//! `thm2-lb` — the Theorem 2 adversary, measured.
//!
//! Phase 1 (`S'` only): OPT = 1 and *every* online algorithm pays Ω(√|S|) —
//! the lower bound binds universally.
//! Phase 2 (`S'` then all of `S`): OPT = √|S|; algorithms that predict
//! (PD, RAND, all-large) converge to O(1)·OPT while the never-predict
//! decomposition stays at √|S|·OPT — the separation that motivates the
//! paper's small/large facility design.

use crate::runner::ratio_summary;
use crate::table::{fmt, Table};
use omfl_par::default_threads;
use omfl_sim::Engine;
use omfl_workload::adversarial::{theorem2_gadget, theorem2_opt, Theorem2Phase};

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[u16] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024, 4096]
    };
    let trials = if quick { 8 } else { 32 };
    let threads = default_threads();

    let mut out = Vec::new();
    for phase in [Theorem2Phase::SPrimeOnly, Theorem2Phase::SPrimeThenAll] {
        let mut t = Table::new(
            format!("Theorem 2 gadget, phase {phase:?} (ratio ALG/OPT, {trials} trials)"),
            &["|S|", "sqrt(S)", "pd", "rand", "per-com", "all-large"],
        );
        for &s in sizes {
            let make = |seed: u64| theorem2_gadget(s, phase, seed).expect("gadget");
            let opt = move |_: &_| theorem2_opt(s, phase);
            let pd = ratio_summary(trials, 11, threads, make, |_| Engine::Pd, opt);
            let rand = ratio_summary(trials, 13, threads, make, |seed| Engine::Rand { seed }, opt);
            let dec = ratio_summary(trials, 17, threads, make, |_| Engine::PerCommodity, opt);
            let all = ratio_summary(trials, 19, threads, make, |_| Engine::AllLarge, opt);
            t.row(&[
                s.to_string(),
                fmt((s as f64).sqrt()),
                format!("{}±{}", fmt(pd.mean), fmt(pd.ci95)),
                format!("{}±{}", fmt(rand.mean), fmt(rand.ci95)),
                format!("{}±{}", fmt(dec.mean), fmt(dec.ci95)),
                format!("{}±{}", fmt(all.mean), fmt(all.ci95)),
            ]);
        }
        match phase {
            Theorem2Phase::SPrimeOnly => {
                t.note("OPT = 1 (one facility holding S'); paper: every algorithm ≥ Ω(√S)");
                t.note("expected shape: all columns grow ∝ √S; PD ≈ 2√S (smalls then one large)");
            }
            Theorem2Phase::SPrimeThenAll => {
                t.note("OPT = √S (one full facility); prediction pays off");
                t.note("expected shape: pd/rand/all-large → O(1); per-com stays ≈ √S");
            }
        }
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_theory_quick() {
        // Tiny inline rerun (s = 16) asserting the separation numerically.
        let trials = 4;
        let make =
            |seed: u64| theorem2_gadget(16, Theorem2Phase::SPrimeThenAll, seed).expect("gadget");
        let opt = |_: &_| theorem2_opt(16, Theorem2Phase::SPrimeThenAll);
        let pd = ratio_summary(trials, 1, 2, make, |_| Engine::Pd, opt);
        let dec = ratio_summary(trials, 1, 2, make, |_| Engine::PerCommodity, opt);
        assert!(
            pd.mean < dec.mean,
            "PD ({}) must beat never-predict ({}) once prediction pays",
            pd.mean,
            dec.mean
        );
        // per-commodity = |S| facilities · cost 1 / OPT 4 = 4 exactly.
        assert!((dec.mean - 4.0).abs() < 1e-9);
    }
}
