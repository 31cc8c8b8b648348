//! The bulk distance kernels: one scalar loop each, compiled twice.
//!
//! The column-streaming passes behind [`crate::euclidean::EuclideanMetric`]'s
//! `fill_row` and `screen_distances`, and behind the PD block layout's
//! distance passes, are element-wise maps: per point, subtract one broadcast
//! query coordinate, square (or take the absolute value) and accumulate,
//! then, for L2, one square-root pass. Each kernel is written once, as that
//! scalar loop, and compiled twice: as is, where LLVM vectorizes it for the
//! baseline target (SSE2 on x86-64), and inlined into a twin compiled under
//! `#[target_feature(enable = "avx")]`, where LLVM vectorizes it four lanes
//! wide. The public function calls the twin when the CPU reports AVX.
//!
//! # The bit-identity contract
//!
//! Both compilations return the bits of the scalar loop, by construction,
//! so filled rows and the layout's distance passes equal per-call
//! `distance` at every compilation:
//!
//! * Rust never lets LLVM reassociate or contract float operations, so each
//!   vector lane applies one point's operations in the loop's order. The
//!   twin enables `avx` alone, which has no fused multiply-add.
//! * `sqrt` is correctly rounded at every width.
//! * `max` never sees a NaN, and never sees `+0.0` against `−0.0`, the one
//!   pair on which LLVM may return either operand: its operands are
//!   absolute differences, accumulators that start at `+0.0`, and the
//!   difference of a clear-signed value and a non-negative slack.
//!
//! The lane count only decides which iteration handles a point. `tests`
//! checks both compilations against plain loops on adversarial values, and
//! the euclidean metric's `bulk_fill_row_is_bit_identical_to_per_call`
//! checks whole rows against `distance`.
//!
//! Every kernel asserts that its slices have equal lengths before its loop,
//! in release builds too.

/// Defines each kernel from its scalar loop: the always-inlined body in
/// `baseline`, its AVX twin in `avx`, and the public function that picks
/// one of the two.
macro_rules! kernels {
    ($($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block)*) => {
        /// Each kernel's loop, compiled for the baseline target wherever it
        /// is inlined.
        mod baseline {
            $(#[inline(always)]
            pub(super) fn $name($($arg: $ty),*) $body)*
        }

        /// Each kernel's loop, inlined into a function compiled with AVX.
        #[cfg(target_arch = "x86_64")]
        mod avx {
            $(#[target_feature(enable = "avx")]
            pub(super) fn $name($($arg: $ty),*) {
                super::baseline::$name($($arg),*)
            })*
        }

        $($(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: the twin enables AVX alone, and the CPU reports it.
                return unsafe { avx::$name($($arg),*) };
            }
            baseline::$name($($arg),*)
        })*
    };
}

kernels! {
    /// `out[i] += (col[i] − q)²`: the L2 axis accumulation.
    ///
    /// # Panics
    ///
    /// If `out` and `col` differ in length.
    pub fn accumulate_squared(out: &mut [f64], col: &[f64], q: f64) {
        assert_eq!(out.len(), col.len());
        for (slot, &c) in out.iter_mut().zip(col) {
            let d = c - q;
            *slot += d * d;
        }
    }

    /// `out[i] += |col[i] − q|`: the L1 axis accumulation.
    ///
    /// # Panics
    ///
    /// If `out` and `col` differ in length.
    pub fn accumulate_abs(out: &mut [f64], col: &[f64], q: f64) {
        assert_eq!(out.len(), col.len());
        for (slot, &c) in out.iter_mut().zip(col) {
            *slot += (c - q).abs();
        }
    }

    /// `out[i] = max(out[i], |col[i] − q|)`: the L∞ axis fold. Both
    /// compilations agree bit for bit when `out` holds no NaN and no
    /// `−0.0`, as an accumulator filled with `0.0` does.
    ///
    /// # Panics
    ///
    /// If `out` and `col` differ in length.
    pub fn fold_max_abs(out: &mut [f64], col: &[f64], q: f64) {
        assert_eq!(out.len(), col.len());
        for (slot, &c) in out.iter_mut().zip(col) {
            *slot = slot.max((c - q).abs());
        }
    }

    /// The L2 screening axis accumulation over the f32 store:
    ///
    /// ```text
    /// a  = |f64(col[i] − q)|          (the subtraction in f32, then widened)
    /// lo[i] += max(a − slack, 0)²
    /// hi[i] += (a + slack)²
    /// ```
    ///
    /// One pass per axis builds the squared bracket accumulators behind
    /// [`crate::Metric::screen_distances`]. The widening is exact, and
    /// `slack` is non-negative.
    ///
    /// # Panics
    ///
    /// If `lo` or `hi` differs in length from `col`.
    pub fn screen_accumulate_squared(
        lo: &mut [f64],
        hi: &mut [f64],
        col: &[f32],
        q: f32,
        slack: f64,
    ) {
        assert_eq!(lo.len(), col.len());
        assert_eq!(hi.len(), col.len());
        for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(col) {
            let a = f64::from(c - q).abs();
            let al = (a - slack).max(0.0);
            let ah = a + slack;
            *l += al * al;
            *h += ah * ah;
        }
    }

    /// `out[i] = √out[i]`: the L2 finishing pass.
    pub fn sqrt_in_place(out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = slot.sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// One compilation of the five kernels.
    struct Kernels {
        name: &'static str,
        squared: fn(&mut [f64], &[f64], f64),
        abs: fn(&mut [f64], &[f64], f64),
        max_abs: fn(&mut [f64], &[f64], f64),
        screen: fn(&mut [f64], &mut [f64], &[f32], f32, f64),
        sqrt: fn(&mut [f64]),
    }

    /// The baseline bodies, and the AVX twins when the CPU reports AVX.
    fn compilations() -> Vec<Kernels> {
        let baseline = Kernels {
            name: "baseline",
            squared: baseline::accumulate_squared,
            abs: baseline::accumulate_abs,
            max_abs: baseline::fold_max_abs,
            screen: baseline::screen_accumulate_squared,
            sqrt: baseline::sqrt_in_place,
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY (every closure): the CPU reports AVX.
            let avx = Kernels {
                name: "avx",
                squared: |o, c, q| unsafe { avx::accumulate_squared(o, c, q) },
                abs: |o, c, q| unsafe { avx::accumulate_abs(o, c, q) },
                max_abs: |o, c, q| unsafe { avx::fold_max_abs(o, c, q) },
                screen: |l, h, c, q, s| unsafe { avx::screen_accumulate_squared(l, h, c, q, s) },
                sqrt: |o| unsafe { avx::sqrt_in_place(o) },
            };
            return vec![baseline, avx];
        }
        vec![baseline]
    }

    /// Lengths around every loop shape: LLVM's AVX loop runs a 16-element
    /// vector body, a 4-element remainder loop and a scalar tail.
    const LENGTHS: [usize; 24] = [
        0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 19, 20, 31, 32, 33, 35, 63, 64, 65, 67, 100, 129, 130,
    ];

    /// Deterministic awkward doubles: mixed signs, exact ties, values whose
    /// squares lose bits, `±0.0`, subnormals and `±1e300` (whose square
    /// overflows to infinity).
    fn awkward(n: usize, salt: u64) -> Vec<f64> {
        let mut st = 0x5EED ^ salt;
        (0..n)
            .map(|i| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                let v = ((st % 20000) as f64 - 10000.0) * 0.000_312_5;
                if i % 11 == 0 {
                    0.0
                } else if i % 13 == 5 {
                    -0.0
                } else if i % 13 == 9 {
                    v * 1.0e-310
                } else if i % 17 == 3 {
                    1.0e300f64.copysign(v)
                } else if i % 7 == 0 {
                    -v * 1.0e8
                } else {
                    v
                }
            })
            .collect()
    }

    /// The kernels' loops written out once more. `black_box` keeps them
    /// scalar in optimized builds, so each point runs on its own.
    fn scalar_sq(out: &mut [f64], col: &[f64], q: f64) {
        for (slot, &c) in out.iter_mut().zip(col) {
            let d = black_box(c) - q;
            *slot += d * d;
        }
    }

    fn scalar_abs(out: &mut [f64], col: &[f64], q: f64) {
        for (slot, &c) in out.iter_mut().zip(col) {
            *slot += (black_box(c) - q).abs();
        }
    }

    fn scalar_max(out: &mut [f64], col: &[f64], q: f64) {
        for (slot, &c) in out.iter_mut().zip(col) {
            *slot = slot.max((black_box(c) - q).abs());
        }
    }

    fn scalar_sqrt(out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = black_box(*slot).sqrt();
        }
    }

    fn scalar_screen(lo: &mut [f64], hi: &mut [f64], col: &[f32], q: f32, slack: f64) {
        for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(col) {
            let a = f64::from(black_box(c) - q).abs();
            let al = (a - slack).max(0.0);
            let ah = a + slack;
            *l += al * al;
            *h += ah * ah;
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: entry {i}");
        }
    }

    #[test]
    fn kernels_are_bit_identical_to_scalar_loops() {
        let qs = [-3.75, 0.0, -0.0, 1.0e9, 2.5e-5, 1.0e-310, 1.0e300];
        for k in compilations() {
            // Accumulators start from a prior pass's values, not zero, to
            // catch ordering mistakes.
            for n in LENGTHS {
                let col = awkward(n, 1);
                let seed = awkward(n, 2);
                for q in qs {
                    let label = format!("{} n = {n}, q = {q:e}", k.name);
                    let (mut a, mut b) = (seed.clone(), seed.clone());
                    (k.squared)(&mut a, &col, q);
                    scalar_sq(&mut b, &col, q);
                    assert_bits(&a, &b, &format!("squared, {label}"));

                    let (mut a, mut b) = (seed.clone(), seed.clone());
                    (k.abs)(&mut a, &col, q);
                    scalar_abs(&mut b, &col, q);
                    assert_bits(&a, &b, &format!("abs, {label}"));

                    let mut a: Vec<f64> = seed.iter().map(|v| v.abs()).collect();
                    let mut b = a.clone();
                    (k.max_abs)(&mut a, &col, q);
                    scalar_max(&mut b, &col, q);
                    assert_bits(&a, &b, &format!("max_abs, {label}"));
                }
                // Squares, and the seeds with their signs cleared except
                // on zeros, so that `−0.0` reaches the pass too.
                let squares: Vec<f64> = seed.iter().map(|v| v * v).collect();
                let unsigned = seed
                    .iter()
                    .map(|&v| if v == 0.0 { v } else { v.abs() })
                    .collect();
                for mut a in [squares, unsigned] {
                    let mut b = a.clone();
                    (k.sqrt)(&mut a);
                    scalar_sqrt(&mut b);
                    assert_bits(&a, &b, &format!("sqrt, {} n = {n}", k.name));
                }
            }
        }
    }

    /// `(q, slack)` pairs of the screening test.
    const SCREEN_QUERIES: [(f32, f64); 4] = [
        (-3.75, 1.0e-4),
        (0.0, 0.0),
        (-0.0, 1.0e-310),
        (1.0e9, 128.0),
    ];

    #[test]
    fn screen_kernel_is_bit_identical_to_its_scalar_loop() {
        for k in compilations() {
            for n in LENGTHS {
                // Narrowed: ±1e300 becomes ±∞, and the f64 subnormals
                // become ±0.0, so an f32 subnormal is mixed in as well.
                let col: Vec<f32> = awkward(n, 4)
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 19 == 10 { -1.0e-40 } else { v as f32 })
                    .collect();
                let seed_lo = awkward(n, 5);
                let seed_hi = awkward(n, 6);
                for (q, slack) in SCREEN_QUERIES {
                    // A slack equal to some |c − q| exercises the
                    // a − s == 0 corner.
                    let slack_exact = col
                        .iter()
                        .map(|&c| f64::from(c - q).abs())
                        .find(|a| a.is_finite())
                        .unwrap_or(slack);
                    for s in [slack, slack_exact] {
                        let (mut al, mut ah) = (seed_lo.clone(), seed_hi.clone());
                        let (mut bl, mut bh) = (seed_lo.clone(), seed_hi.clone());
                        (k.screen)(&mut al, &mut ah, &col, q, s);
                        scalar_screen(&mut bl, &mut bh, &col, q, s);
                        let label = format!("{} n = {n}, q = {q:e}, slack = {s:e}", k.name);
                        assert_bits(&al, &bl, &format!("lo, {label}"));
                        assert_bits(&ah, &bh, &format!("hi, {label}"));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn accumulate_squared_rejects_unequal_lengths() {
        accumulate_squared(&mut [0.0; 8], &[1.0; 3], 0.0);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn accumulate_abs_rejects_unequal_lengths() {
        accumulate_abs(&mut [0.0; 8], &[1.0; 3], 0.0);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn fold_max_abs_rejects_unequal_lengths() {
        fold_max_abs(&mut [0.0; 8], &[1.0; 3], 0.0);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn screen_accumulate_squared_rejects_unequal_lengths() {
        screen_accumulate_squared(&mut [0.0; 3], &mut [0.0; 3], &[1.0; 8], 0.0, 0.0);
    }
}
