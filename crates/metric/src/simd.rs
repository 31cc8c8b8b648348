//! Explicit SIMD kernels for the bulk distance primitives.
//!
//! The column-streaming loops behind [`crate::euclidean::EuclideanMetric`]'s
//! `fill_row` are pure element-wise maps: per point, subtract one broadcast
//! query coordinate, square (or take the absolute value), and accumulate —
//! then, for L2, one square-root pass. LLVM already autovectorizes those
//! loops, but only for the *baseline* target features (SSE2 on x86-64), so
//! half the vector width of every AVX machine goes unused. This module
//! provides the same four kernels as explicit `std::arch` intrinsics behind
//! a runtime dispatch: AVX when the CPU reports it, SSE2 otherwise, and a
//! plain scalar loop on every other architecture (or when SIMD is switched
//! off, see [`set_simd_enabled`]).
//!
//! # The bit-identity contract
//!
//! Every kernel must produce **bit-identical** results to its scalar loop —
//! the repo-wide `fill_row` contract (filled rows and the PD layout's
//! distance passes must be indistinguishable from per-call `distance`).
//! The vector forms qualify because each lane processes one point with
//! exactly the scalar operation sequence:
//!
//! * `sub`/`mul`/`add` lanes are the same IEEE-754 double operations as
//!   their scalar counterparts — no reassociation, and **no FMA**: a fused
//!   `d·d + acc` rounds once instead of twice and would change low bits, so
//!   these kernels never use it;
//! * `sqrt` is correctly rounded by IEEE-754 (vector and scalar alike), so
//!   `_mm*_sqrt_pd` equals `f64::sqrt` bit for bit;
//! * `max` is only applied to non-negative finite values (absolute
//!   differences), where `_mm*_max_pd` and `f64::max` agree exactly (the
//!   `-0.0`/NaN corner cases that distinguish them cannot occur).
//!
//! The lane count therefore only changes *which iteration* handles a point,
//! never the arithmetic applied to it. `tests` pins every kernel against
//! the scalar loop on adversarial values, and the euclidean metric's
//! `bulk_fill_row_is_bit_identical_to_per_call` test locks the whole row
//! path to `distance` under every dispatch tier.

use std::sync::atomic::{AtomicBool, Ordering};

/// Global SIMD switch, default on. Results are bit-identical either way —
/// the toggle exists so the tier-equivalence tests can run the scalar
/// loops and the vector kernels side by side in one process, and so a
/// misbehaving platform can be ruled out without a rebuild. Racing toggles
/// never change a result for the same reason: both paths compute the same
/// bits. They do change which tier a comparison exercises, so this crate's
/// tests that switch the toggle or rely on its state serialize on one lock.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the explicit SIMD kernels process-wide.
pub fn set_simd_enabled(on: bool) {
    SIMD_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the explicit SIMD kernels are currently enabled.
pub fn simd_enabled() -> bool {
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// Serializes the tests that switch [`set_simd_enabled`] or whose checks
/// depend on its state: the harness runs a crate's tests on parallel
/// threads of one process, where one test's "off" would otherwise turn
/// another's dispatch check into a failure, or its vector-vs-scalar
/// comparison into scalar against scalar. Poison-tolerant, so one failing
/// test does not fail every later one.
#[cfg(test)]
pub(crate) fn toggle_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Which kernel tier [`active_dispatch`] resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// 4 × f64 lanes (`__m256d`), runtime-detected.
    Avx,
    /// 2 × f64 lanes (`__m128d`), the x86-64 baseline.
    Sse2,
    /// The plain scalar loops (non-x86 targets, or SIMD disabled).
    Scalar,
}

/// The kernel tier the current process would use right now.
pub fn active_dispatch() -> Dispatch {
    if !simd_enabled() {
        return Dispatch::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            Dispatch::Avx
        } else {
            Dispatch::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Dispatch::Scalar
    }
}

/// `out[i] += (col[i] − q)²` — the L2 axis accumulation.
pub fn accumulate_squared(out: &mut [f64], col: &[f64], q: f64) {
    debug_assert_eq!(out.len(), col.len());
    match active_dispatch() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx => unsafe { accumulate_squared_avx(out, col, q) },
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse2 => unsafe { accumulate_squared_sse2(out, col, q) },
        _ => {
            for (slot, &c) in out.iter_mut().zip(col) {
                let d = c - q;
                *slot += d * d;
            }
        }
    }
}

/// `out[i] += |col[i] − q|` — the L1 axis accumulation.
pub fn accumulate_abs(out: &mut [f64], col: &[f64], q: f64) {
    debug_assert_eq!(out.len(), col.len());
    match active_dispatch() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx => unsafe { accumulate_abs_avx(out, col, q) },
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse2 => unsafe { accumulate_abs_sse2(out, col, q) },
        _ => {
            for (slot, &c) in out.iter_mut().zip(col) {
                *slot += (c - q).abs();
            }
        }
    }
}

/// `out[i] = max(out[i], |col[i] − q|)` — the L∞ axis fold.
pub fn fold_max_abs(out: &mut [f64], col: &[f64], q: f64) {
    debug_assert_eq!(out.len(), col.len());
    match active_dispatch() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx => unsafe { fold_max_abs_avx(out, col, q) },
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse2 => unsafe { fold_max_abs_sse2(out, col, q) },
        _ => {
            for (slot, &c) in out.iter_mut().zip(col) {
                *slot = slot.max((c - q).abs());
            }
        }
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
/// [`crate::Metric::screen_distances`]. The f32 subtraction happens in the
/// narrow type *before* widening — exactly the scalar expression — and the
/// widening conversion is exact, so the lane arithmetic is the scalar
/// sequence verbatim (`max` against non-NaN arguments; a `−0.0` from
/// `a == slack` squares to the same `+0.0` either way).
pub fn screen_accumulate_squared(lo: &mut [f64], hi: &mut [f64], col: &[f32], q: f32, slack: f64) {
    debug_assert!(lo.len() == col.len() && hi.len() == col.len());
    match active_dispatch() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx => unsafe { screen_accumulate_squared_avx(lo, hi, col, q, slack) },
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse2 => unsafe { screen_accumulate_squared_sse2(lo, hi, col, q, slack) },
        _ => {
            for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(col) {
                let a = f64::from(c - q).abs();
                let al = (a - slack).max(0.0);
                let ah = a + slack;
                *l += al * al;
                *h += ah * ah;
            }
        }
    }
}

/// `out[i] = √out[i]` — the L2 finishing pass.
pub fn sqrt_in_place(out: &mut [f64]) {
    match active_dispatch() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx => unsafe { sqrt_in_place_avx(out) },
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse2 => unsafe { sqrt_in_place_sse2(out) },
        _ => {
            for slot in out.iter_mut() {
                *slot = slot.sqrt();
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsic bodies. Every tail element falls through to the exact
    //! scalar expression, and every vector op is lane-wise identical to it
    //! (see the module docs for why that makes the results bit-identical).
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn accumulate_squared_avx(out: &mut [f64], col: &[f64], q: f64) {
        let n = out.len();
        let qv = _mm256_set1_pd(q);
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_sub_pd(_mm256_loadu_pd(col.as_ptr().add(i)), qv);
            let acc = _mm256_loadu_pd(out.as_ptr().add(i));
            _mm256_storeu_pd(
                out.as_mut_ptr().add(i),
                _mm256_add_pd(acc, _mm256_mul_pd(d, d)),
            );
            i += 4;
        }
        for j in i..n {
            let d = col[j] - q;
            out[j] += d * d;
        }
    }

    pub(super) unsafe fn accumulate_squared_sse2(out: &mut [f64], col: &[f64], q: f64) {
        let n = out.len();
        let qv = _mm_set1_pd(q);
        let mut i = 0;
        while i + 2 <= n {
            let d = _mm_sub_pd(_mm_loadu_pd(col.as_ptr().add(i)), qv);
            let acc = _mm_loadu_pd(out.as_ptr().add(i));
            _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_add_pd(acc, _mm_mul_pd(d, d)));
            i += 2;
        }
        for j in i..n {
            let d = col[j] - q;
            out[j] += d * d;
        }
    }

    /// Clears the sign bit — exactly `f64::abs`.
    #[inline]
    unsafe fn abs256(x: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
    }

    #[inline]
    unsafe fn abs128(x: __m128d) -> __m128d {
        _mm_andnot_pd(_mm_set1_pd(-0.0), x)
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn accumulate_abs_avx(out: &mut [f64], col: &[f64], q: f64) {
        let n = out.len();
        let qv = _mm256_set1_pd(q);
        let mut i = 0;
        while i + 4 <= n {
            let d = abs256(_mm256_sub_pd(_mm256_loadu_pd(col.as_ptr().add(i)), qv));
            let acc = _mm256_loadu_pd(out.as_ptr().add(i));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_add_pd(acc, d));
            i += 4;
        }
        for j in i..n {
            out[j] += (col[j] - q).abs();
        }
    }

    pub(super) unsafe fn accumulate_abs_sse2(out: &mut [f64], col: &[f64], q: f64) {
        let n = out.len();
        let qv = _mm_set1_pd(q);
        let mut i = 0;
        while i + 2 <= n {
            let d = abs128(_mm_sub_pd(_mm_loadu_pd(col.as_ptr().add(i)), qv));
            let acc = _mm_loadu_pd(out.as_ptr().add(i));
            _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_add_pd(acc, d));
            i += 2;
        }
        for j in i..n {
            out[j] += (col[j] - q).abs();
        }
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn fold_max_abs_avx(out: &mut [f64], col: &[f64], q: f64) {
        let n = out.len();
        let qv = _mm256_set1_pd(q);
        let mut i = 0;
        while i + 4 <= n {
            let d = abs256(_mm256_sub_pd(_mm256_loadu_pd(col.as_ptr().add(i)), qv));
            let acc = _mm256_loadu_pd(out.as_ptr().add(i));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_max_pd(acc, d));
            i += 4;
        }
        for j in i..n {
            out[j] = out[j].max((col[j] - q).abs());
        }
    }

    pub(super) unsafe fn fold_max_abs_sse2(out: &mut [f64], col: &[f64], q: f64) {
        let n = out.len();
        let qv = _mm_set1_pd(q);
        let mut i = 0;
        while i + 2 <= n {
            let d = abs128(_mm_sub_pd(_mm_loadu_pd(col.as_ptr().add(i)), qv));
            let acc = _mm_loadu_pd(out.as_ptr().add(i));
            _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_max_pd(acc, d));
            i += 2;
        }
        for j in i..n {
            out[j] = out[j].max((col[j] - q).abs());
        }
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn screen_accumulate_squared_avx(
        lo: &mut [f64],
        hi: &mut [f64],
        col: &[f32],
        q: f32,
        slack: f64,
    ) {
        let n = col.len();
        let qv = _mm_set1_ps(q);
        let sv = _mm256_set1_pd(slack);
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            // f32 subtraction first, then the exact widening — the scalar
            // `f64::from(c − q)` order of operations.
            let d32 = _mm_sub_ps(_mm_loadu_ps(col.as_ptr().add(i)), qv);
            let a = abs256(_mm256_cvtps_pd(d32));
            let al = _mm256_max_pd(_mm256_sub_pd(a, sv), zero);
            let ah = _mm256_add_pd(a, sv);
            let lacc = _mm256_loadu_pd(lo.as_ptr().add(i));
            let hacc = _mm256_loadu_pd(hi.as_ptr().add(i));
            _mm256_storeu_pd(
                lo.as_mut_ptr().add(i),
                _mm256_add_pd(lacc, _mm256_mul_pd(al, al)),
            );
            _mm256_storeu_pd(
                hi.as_mut_ptr().add(i),
                _mm256_add_pd(hacc, _mm256_mul_pd(ah, ah)),
            );
            i += 4;
        }
        for j in i..n {
            let a = f64::from(col[j] - q).abs();
            let al = (a - slack).max(0.0);
            let ah = a + slack;
            lo[j] += al * al;
            hi[j] += ah * ah;
        }
    }

    pub(super) unsafe fn screen_accumulate_squared_sse2(
        lo: &mut [f64],
        hi: &mut [f64],
        col: &[f32],
        q: f32,
        slack: f64,
    ) {
        let n = col.len();
        let qv = _mm_set1_ps(q);
        let sv = _mm_set1_pd(slack);
        let zero = _mm_setzero_pd();
        let mut i = 0;
        while i + 2 <= n {
            let d32 = _mm_sub_ps(_mm_setr_ps(col[i], col[i + 1], 0.0, 0.0), qv);
            let a = abs128(_mm_cvtps_pd(d32));
            let al = _mm_max_pd(_mm_sub_pd(a, sv), zero);
            let ah = _mm_add_pd(a, sv);
            let lacc = _mm_loadu_pd(lo.as_ptr().add(i));
            let hacc = _mm_loadu_pd(hi.as_ptr().add(i));
            _mm_storeu_pd(lo.as_mut_ptr().add(i), _mm_add_pd(lacc, _mm_mul_pd(al, al)));
            _mm_storeu_pd(hi.as_mut_ptr().add(i), _mm_add_pd(hacc, _mm_mul_pd(ah, ah)));
            i += 2;
        }
        for j in i..n {
            let a = f64::from(col[j] - q).abs();
            let al = (a - slack).max(0.0);
            let ah = a + slack;
            lo[j] += al * al;
            hi[j] += ah * ah;
        }
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn sqrt_in_place_avx(out: &mut [f64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            _mm256_storeu_pd(
                out.as_mut_ptr().add(i),
                _mm256_sqrt_pd(_mm256_loadu_pd(out.as_ptr().add(i))),
            );
            i += 4;
        }
        for v in out[i..n].iter_mut() {
            *v = v.sqrt();
        }
    }

    pub(super) unsafe fn sqrt_in_place_sse2(out: &mut [f64]) {
        let n = out.len();
        let mut i = 0;
        while i + 2 <= n {
            _mm_storeu_pd(
                out.as_mut_ptr().add(i),
                _mm_sqrt_pd(_mm_loadu_pd(out.as_ptr().add(i))),
            );
            i += 2;
        }
        for v in out[i..n].iter_mut() {
            *v = v.sqrt();
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::*;

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic awkward doubles: mixed signs, subnormal-ish scales,
    /// exact ties, values whose squares lose bits.
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
                } else if i % 7 == 0 {
                    -v * 1.0e8
                } else {
                    v
                }
            })
            .collect()
    }

    fn scalar_sq(out: &mut [f64], col: &[f64], q: f64) {
        for (slot, &c) in out.iter_mut().zip(col) {
            let d = c - q;
            *slot += d * d;
        }
    }

    fn scalar_abs(out: &mut [f64], col: &[f64], q: f64) {
        for (slot, &c) in out.iter_mut().zip(col) {
            *slot += (c - q).abs();
        }
    }

    fn scalar_max(out: &mut [f64], col: &[f64], q: f64) {
        for (slot, &c) in out.iter_mut().zip(col) {
            *slot = slot.max((c - q).abs());
        }
    }

    #[test]
    fn kernels_are_bit_identical_to_scalar_loops() {
        let _toggle = toggle_lock();
        // Odd lengths exercise every vector tail; accumulators start from a
        // prior pass's values, not zero, to catch ordering mistakes.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129] {
            let col = awkward(n, 1);
            let seed = awkward(n, 2);
            for q in [-3.75, 0.0, 1.0e9, 2.5e-5] {
                let mut a = seed.clone();
                let mut b = seed.clone();
                accumulate_squared(&mut a, &col, q);
                scalar_sq(&mut b, &col, q);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));

                let mut a = seed.clone();
                let mut b = seed.clone();
                accumulate_abs(&mut a, &col, q);
                scalar_abs(&mut b, &col, q);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));

                let mut a: Vec<f64> = seed.iter().map(|v| v.abs()).collect();
                let mut b = a.clone();
                fold_max_abs(&mut a, &col, q);
                scalar_max(&mut b, &col, q);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));

                let mut a: Vec<f64> = seed.iter().map(|v| v * v).collect();
                let mut b = a.clone();
                sqrt_in_place(&mut a);
                for slot in b.iter_mut() {
                    *slot = slot.sqrt();
                }
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    fn scalar_screen(lo: &mut [f64], hi: &mut [f64], col: &[f32], q: f32, slack: f64) {
        for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(col) {
            let a = f64::from(c - q).abs();
            let al = (a - slack).max(0.0);
            let ah = a + slack;
            *l += al * al;
            *h += ah * ah;
        }
    }

    #[test]
    fn screen_kernel_is_bit_identical_to_its_scalar_loop() {
        let _toggle = toggle_lock();
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129] {
            let col: Vec<f32> = awkward(n, 4).iter().map(|&v| v as f32).collect();
            let seed_lo = awkward(n, 5);
            let seed_hi = awkward(n, 6);
            // A slack equal to some |c − q| exercises the a − s == 0 corner.
            for (q, slack) in [(-3.75f32, 1.0e-4), (0.0, 0.0), (1.0e9, 128.0)] {
                let slack_exact = col
                    .first()
                    .map_or(slack, |&c| f64::from(c - q).abs().min(slack));
                for s in [slack, slack_exact] {
                    let (mut al, mut ah) = (seed_lo.clone(), seed_hi.clone());
                    let (mut bl, mut bh) = (seed_lo.clone(), seed_hi.clone());
                    screen_accumulate_squared(&mut al, &mut ah, &col, q, s);
                    scalar_screen(&mut bl, &mut bh, &col, q, s);
                    assert!(al.iter().zip(&bl).all(|(x, y)| x.to_bits() == y.to_bits()));
                    assert!(ah.iter().zip(&bh).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
        }
    }

    #[test]
    fn disabling_simd_changes_nothing_but_the_dispatch() {
        let _toggle = toggle_lock();
        let col = awkward(97, 3);
        let mut on = vec![0.0; 97];
        accumulate_squared(&mut on, &col, 0.125);
        sqrt_in_place(&mut on);
        set_simd_enabled(false);
        assert_eq!(active_dispatch(), Dispatch::Scalar);
        let mut off = vec![0.0; 97];
        accumulate_squared(&mut off, &col, 0.125);
        sqrt_in_place(&mut off);
        set_simd_enabled(true);
        assert!(on.iter().zip(&off).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn dispatch_reports_a_real_tier() {
        let _toggle = toggle_lock();
        // On x86-64 the baseline guarantees at least SSE2.
        let d = active_dispatch();
        if cfg!(target_arch = "x86_64") {
            assert_ne!(d, Dispatch::Scalar);
        } else {
            assert_eq!(d, Dispatch::Scalar);
        }
    }
}
