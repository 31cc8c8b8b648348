//! `thm18-sweep` — class-C costs `g_x(σ) = |σ|^{x/2}`: measured ratios on
//! the adaptive gadget across `x ∈ [0, 2]`, next to the Theorem 18 curves.
//!
//! On the single-point gadget with `|S'| = √S`, the theory predicts PD's
//! ratio tracks the *lower* curve `min{√S^{(2−x)/2}, √S^{x/2}}` (peak `|S|^{1/4}`
//! at `x = 1`, constant at the endpoints); the upper curve additionally
//! carries the worst-case `log n` over all metric instances.

use crate::runner::ratio_summary;
use crate::table::{fmt, Table};
use omfl_core::bounds::{class_c_lower, class_c_upper};
use omfl_par::default_threads;
use omfl_sim::Engine;
use omfl_workload::adversarial::class_c_gadget;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let s: u16 = if quick { 256 } else { 1024 };
    let trials = if quick { 6 } else { 24 };
    let threads = default_threads();
    let xs = [0.0, 0.5, 1.0, 1.5, 2.0];
    let sqrt_s = (s as f64).sqrt().round() as usize;

    let mut t = Table::new(
        format!("Theorem 18 sweep: ratios on the class-C gadget (|S| = {s}, |S'| = {sqrt_s})"),
        &["x", "upper curve", "lower curve", "pd", "rand", "per-com"],
    );
    for &x in &xs {
        // OPT: a single facility holding S' costs g_x(√S) = √S^{x/2}... but a
        // full-S facility costs √S^x which may be cheaper per commodity; the
        // gadget OPT is min(g_x(|S'|), g_x(|S|)) = g_x(|S'|) for x ≥ 0 since
        // g_x is monotone in |σ|.
        let opt_val = (sqrt_s as f64).powf(x / 2.0);
        let make = |seed: u64| class_c_gadget(s, x, sqrt_s, seed).expect("gadget");
        let opt = move |_: &_| opt_val;
        let pd = ratio_summary(trials, 31, threads, make, |_| Engine::Pd, opt);
        let rn = ratio_summary(trials, 37, threads, make, |seed| Engine::Rand { seed }, opt);
        let dc = ratio_summary(trials, 41, threads, make, |_| Engine::PerCommodity, opt);
        t.row(&[
            fmt(x),
            fmt(class_c_upper(s as usize, x)),
            fmt(class_c_lower(s as usize, x)),
            format!("{}±{}", fmt(pd.mean), fmt(pd.ci95)),
            format!("{}±{}", fmt(rn.mean), fmt(rn.ci95)),
            format!("{}±{}", fmt(dc.mean), fmt(dc.ci95)),
        ]);
    }
    t.note(
        "expected: pd/rand peak near x = 1 (the hardest exponent) and stay near the lower curve",
    );
    t.note(
        "per-com is flat ≈ √S/√S^{x/2}·√S^{x/2}... i.e. |S'| singletons / OPT — large for small x",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn pd_peaks_at_x_equal_one() {
        let tables = super::run(true);
        let t = &tables[0];
        let pd_at = |i: usize| -> f64 { t.rows[i][3].split('±').next().unwrap().parse().unwrap() };
        let (x0, x1, x2) = (pd_at(0), pd_at(2), pd_at(4));
        assert!(
            x1 >= x0 * 0.8 && x1 >= x2 * 0.8,
            "x=1 should be (near) the hardest point: pd({x0}, {x1}, {x2})"
        );
    }
}
