//! Point sets in d-dimensional real space under L1, L2, or L∞ norms.
//!
//! Used by the clustered / uniform plane workloads that stand in for the
//! paper's "clients appear at locations in the network" scenario when a
//! geometric embedding is more natural than a graph.

use crate::{check_finite, simd, KdCoords, Metric, MetricError, PointId};

/// Which norm induces the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// Manhattan distance, `Σ|aᵢ−bᵢ|`.
    L1,
    /// Euclidean distance, `√(Σ(aᵢ−bᵢ)²)`.
    L2,
    /// Chebyshev distance, `max|aᵢ−bᵢ|`.
    LInf,
}

/// A finite set of points in ℝ^dim with a chosen norm.
///
/// Coordinates are stored twice: row-major (`point * dim + axis`) for the
/// scalar [`Metric::distance`] path, and column-major (`axis * len + point`)
/// for the bulk [`Metric::fill_row`] override, whose inner loops then stream
/// one contiguous coordinate column per axis — the layout the
/// autovectorizer wants. The duplication costs `8·dim·len` bytes (512 KiB
/// at 16384 2-D points), far below a distance matrix over the same points.
#[derive(Debug, Clone)]
pub struct EuclideanMetric {
    coords: Vec<f64>,
    /// `coords` transposed: `coords_t[axis * len + p] == coords[p * dim + axis]`.
    coords_t: Vec<f64>,
    /// `coords_t` narrowed to f32 — the screening store behind
    /// [`Metric::screen_distances`]. Half the bandwidth of the exact
    /// columns; never used to produce a distance value directly, only
    /// certified `[lo, hi]` brackets (see `screen_distances`).
    screen_t: Vec<f32>,
    /// Per-axis absolute slack covering the worst-case error of an f32
    /// coordinate difference: `4·ε₃₂·max|coord|` on that axis. (Narrowing
    /// each coordinate costs ≤ ε₃₂/2·|c| ≤ ε₃₂/2·M each, and the f32
    /// subtraction rounds once more at ≤ ε₃₂/2·|Δ| ≤ ε₃₂·M — about
    /// 2·ε₃₂·M in total, stored doubled for margin.)
    screen_slack: Vec<f64>,
    dim: usize,
    norm: Norm,
}

/// Relative margin absorbing the f64 rounding of the screen's own
/// accumulation (and of the exact path it brackets): a handful of ulps per
/// axis, generously covered at 1e-12.
const SCREEN_REL_SLACK: f64 = 1e-12;

/// Largest coordinate magnitude accepted, `f32::MAX / 2`: every f32
/// coordinate difference of the screen, its brackets and every f64
/// distance then stay finite.
const MAX_COORD: f64 = f32::MAX as f64 / 2.0;

impl EuclideanMetric {
    /// Builds a metric from per-point coordinate rows (all of length `dim`).
    /// Rejects a coordinate that is not finite or exceeds `f32::MAX / 2` in
    /// magnitude.
    pub fn new(points: &[Vec<f64>], norm: Norm) -> Result<Self, MetricError> {
        if points.is_empty() {
            return Err(MetricError::Empty);
        }
        let dim = points[0].len();
        if dim == 0 {
            return Err(MetricError::Malformed(
                "points must have at least one coordinate".into(),
            ));
        }
        let mut coords = Vec::with_capacity(points.len() * dim);
        for (i, row) in points.iter().enumerate() {
            if row.len() != dim {
                return Err(MetricError::Malformed(format!(
                    "point {i} has {} coordinates, expected {dim}",
                    row.len()
                )));
            }
            for (j, &c) in row.iter().enumerate() {
                check_finite(c, format_args!("point[{i}][{j}]"))?;
                if c.abs() > MAX_COORD {
                    return Err(MetricError::InvalidValue(format!(
                        "point[{i}][{j}] = {c:e} exceeds f32::MAX / 2 in magnitude"
                    )));
                }
                coords.push(c);
            }
        }
        let n = points.len();
        let mut coords_t = vec![0.0; coords.len()];
        for p in 0..n {
            for axis in 0..dim {
                coords_t[axis * n + p] = coords[p * dim + axis];
            }
        }
        let screen_t: Vec<f32> = coords_t.iter().map(|&c| c as f32).collect();
        let screen_slack: Vec<f64> = (0..dim)
            .map(|axis| {
                let max_abs = coords_t[axis * n..(axis + 1) * n]
                    .iter()
                    .fold(0.0f64, |m, &c| m.max(c.abs()));
                4.0 * f64::from(f32::EPSILON) * max_abs
            })
            .collect();
        Ok(Self {
            coords,
            coords_t,
            screen_t,
            screen_slack,
            dim,
            norm,
        })
    }

    /// Builds a 2-D L2 metric from `(x, y)` pairs — the common case.
    pub fn plane(points: &[(f64, f64)]) -> Result<Self, MetricError> {
        let rows: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
        Self::new(&rows, Norm::L2)
    }

    /// An `w × h` unit grid under the chosen norm (row-major point ids).
    pub fn grid(w: usize, h: usize, norm: Norm) -> Result<Self, MetricError> {
        if w == 0 || h == 0 {
            return Err(MetricError::Empty);
        }
        let mut rows = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                rows.push(vec![x as f64, y as f64]);
            }
        }
        Self::new(&rows, norm)
    }

    /// Dimension of the ambient space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The norm in use.
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// Coordinates of a point.
    pub fn coords(&self, p: PointId) -> &[f64] {
        let i = p.index() * self.dim;
        &self.coords[i..i + self.dim]
    }
}

impl Metric for EuclideanMetric {
    fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        let pa = self.coords(a);
        let pb = self.coords(b);
        match self.norm {
            Norm::L1 => pa.iter().zip(pb).map(|(x, y)| (x - y).abs()).sum(),
            Norm::L2 => pa
                .iter()
                .zip(pb)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            Norm::LInf => pa
                .iter()
                .zip(pb)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }

    /// Bulk row fill over the column-major coordinate copy: one streaming
    /// pass per axis accumulating into `out`, then (for L2) one sqrt pass.
    /// The per-axis passes run through the kernels in [`crate::simd`]
    /// (each one loop, compiled for the baseline target and for AVX).
    ///
    /// Bit-identity with the per-call loop: per point, the accumulator
    /// starts at 0.0 and folds the axes in ascending order with the exact
    /// same operations (`+= (x−y)²` / `+= |x−y|` / `max`), which is
    /// precisely the fold [`EuclideanMetric::distance`] performs — only the
    /// loop nest is interchanged, and per-point operation order is what
    /// determines the float result. Both compilations of the kernels
    /// preserve this because each lane applies the identical scalar
    /// operation sequence to one point (no FMA, no reassociation — see the
    /// `simd` module docs).
    fn fill_row(&self, q: PointId, out: &mut [f64]) {
        let n = self.len();
        assert!(out.len() <= n, "row buffer longer than the space");
        let qb = q.index() * self.dim;
        out.fill(0.0);
        match self.norm {
            Norm::L2 => {
                for axis in 0..self.dim {
                    let qa = self.coords[qb + axis];
                    let col = &self.coords_t[axis * n..axis * n + out.len()];
                    simd::accumulate_squared(out, col, qa);
                }
                simd::sqrt_in_place(out);
            }
            Norm::L1 => {
                for axis in 0..self.dim {
                    let qa = self.coords[qb + axis];
                    let col = &self.coords_t[axis * n..axis * n + out.len()];
                    simd::accumulate_abs(out, col, qa);
                }
            }
            Norm::LInf => {
                for axis in 0..self.dim {
                    let qa = self.coords[qb + axis];
                    let col = &self.coords_t[axis * n..axis * n + out.len()];
                    simd::fold_max_abs(out, col, qa);
                }
            }
        }
    }

    /// Z-order (Morton) curve over per-axis quantized coordinates: each axis
    /// is scaled to an integer grid over its bounding box and the bits are
    /// interleaved, so consecutive ranks share coordinate prefixes — nearby
    /// in space. Ties (coincident or sub-grid points) break by point id, so
    /// the order is deterministic.
    fn coherent_order(&self) -> Option<Vec<u32>> {
        let n = self.len();
        // One interleaved u128 key: cap per-axis resolution so dim axes fit.
        let bits = (128 / self.dim).clamp(1, 16) as u32;
        let levels = (1u64 << bits) - 1;
        // Per-axis affine map onto [0, levels].
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        for p in 0..n {
            for (axis, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let c = self.coords[p * self.dim + axis];
                *l = l.min(c);
                *h = h.max(c);
            }
        }
        let scale: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| if h > l { levels as f64 / (h - l) } else { 0.0 })
            .collect();
        let mut quantized = vec![0u64; self.dim];
        let mut keyed: Vec<(u128, u32)> = (0..n)
            .map(|p| {
                for (axis, q) in quantized.iter_mut().enumerate() {
                    let c = self.coords[p * self.dim + axis];
                    *q = (((c - lo[axis]) * scale[axis]).round() as u64).min(levels);
                }
                let mut code: u128 = 0;
                for b in (0..bits).rev() {
                    for &q in &quantized {
                        code = (code << 1) | u128::from((q >> b) & 1);
                    }
                }
                (code, p as u32)
            })
            .collect();
        keyed.sort_unstable();
        Some(keyed.into_iter().map(|(_, p)| p).collect())
    }

    /// The stored coordinates themselves. `isometric` only under L2, where
    /// an ascending-axis L2 fold over them *is* [`EuclideanMetric::distance`];
    /// L1/L∞ coordinates are spatially correlated with the metric (good for
    /// partitioning) but an L2 fold over them is not the metric distance.
    fn kd_coords(&self) -> Option<KdCoords> {
        Some(KdCoords {
            coords: self.coords.clone(),
            dim: self.dim,
            isometric: self.norm == Norm::L2,
        })
    }

    /// f32-store screening with certified brackets.
    ///
    /// Per axis, the screened absolute difference `a = |fl₃₂(c_p) − fl₃₂(c_q)|`
    /// (computed in f32, widened) differs from the exact `|c_p − c_q|` by at
    /// most the stored per-axis slack, so `[max(a−s, 0), a+s]` brackets the
    /// exact axis term. The norm fold over these per-axis brackets is
    /// monotone in every argument, hence brackets the exact fold; a final
    /// relative margin absorbs the f64 rounding of both folds. The result
    /// is `lo ≤ distance(q, p) ≤ hi` — *guaranteed*, so callers may prune
    /// on these bounds and stay bit-identical after exact confirmation.
    ///
    /// Under L2 — the norm the freeze walk screens per block on the hot
    /// path — the loop nest is interchanged to axis-outer: candidates'
    /// column entries are gathered into a contiguous chunk and each axis
    /// runs through [`crate::simd::screen_accumulate_squared`]. Per
    /// candidate the accumulation folds the axes in the same ascending
    /// order with lane-identical arithmetic, so the brackets are
    /// bit-identical to the candidate-outer loop in both of the kernel's
    /// compilations.
    fn screen_distances(&self, q: PointId, others: &[u32], lo: &mut [f64], hi: &mut [f64]) -> bool {
        assert!(others.len() <= lo.len() && others.len() <= hi.len());
        let n = self.len();
        if self.norm == Norm::L2 {
            let k = others.len();
            let (lo, hi) = (&mut lo[..k], &mut hi[..k]);
            lo.fill(0.0);
            hi.fill(0.0);
            let mut col = [0.0f32; SCREEN_CHUNK];
            let mut start = 0usize;
            while start < k {
                let end = (start + SCREEN_CHUNK).min(k);
                let c = end - start;
                for axis in 0..self.dim {
                    let base = axis * n;
                    let qv = self.screen_t[base + q.index()];
                    for (slot, &p) in col[..c].iter_mut().zip(&others[start..end]) {
                        *slot = self.screen_t[base + p as usize];
                    }
                    simd::screen_accumulate_squared(
                        &mut lo[start..end],
                        &mut hi[start..end],
                        &col[..c],
                        qv,
                        self.screen_slack[axis],
                    );
                }
                for (l, h) in lo[start..end].iter_mut().zip(hi[start..end].iter_mut()) {
                    *l = (l.sqrt() * (1.0 - SCREEN_REL_SLACK)).max(0.0);
                    *h = h.sqrt() * (1.0 + SCREEN_REL_SLACK);
                }
                start = end;
            }
            return true;
        }
        for ((&p, lo), hi) in others.iter().zip(lo.iter_mut()).zip(hi.iter_mut()) {
            let p = p as usize;
            let (mut alo, mut ahi) = (0.0f64, 0.0f64);
            for axis in 0..self.dim {
                let base = axis * n;
                let a = f64::from(self.screen_t[base + p] - self.screen_t[base + q.index()]).abs();
                let s = self.screen_slack[axis];
                let al = (a - s).max(0.0);
                let ah = a + s;
                match self.norm {
                    Norm::L1 => {
                        alo += al;
                        ahi += ah;
                    }
                    _ => {
                        alo = alo.max(al);
                        ahi = ahi.max(ah);
                    }
                }
            }
            *lo = (alo * (1.0 - SCREEN_REL_SLACK)).max(0.0);
            *hi = ahi * (1.0 + SCREEN_REL_SLACK);
        }
        true
    }
}

/// Candidates per gather chunk of the axis-outer L2 screening pass: the
/// block sizes it screens (16 or 64 locations) fit in one chunk, and the
/// fixed-size buffer keeps the trait method allocation-free for any caller.
const SCREEN_CHUNK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ]
    }

    #[test]
    fn l2_diagonal_of_unit_square() {
        let m = EuclideanMetric::new(&unit_square(), Norm::L2).unwrap();
        assert!((m.distance(PointId(0), PointId(3)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn l1_diagonal_of_unit_square() {
        let m = EuclideanMetric::new(&unit_square(), Norm::L1).unwrap();
        assert!((m.distance(PointId(0), PointId(3)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linf_diagonal_of_unit_square() {
        let m = EuclideanMetric::new(&unit_square(), Norm::LInf).unwrap();
        assert!((m.distance(PointId(0), PointId(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plane_constructor() {
        let m = EuclideanMetric::plane(&[(0.0, 0.0), (3.0, 4.0)]).unwrap();
        assert_eq!(m.len(), 2);
        assert!((m.distance(PointId(0), PointId(1)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_coordinates_beyond_the_screen_range() {
        let err = EuclideanMetric::plane(&[(0.0, 0.0), (1e200, 1e200)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid numeric value: point[1][0] = 1e200 exceeds f32::MAX / 2 in magnitude"
        );
        let err = EuclideanMetric::plane(&[(3e38, 0.0), (-3e38, 0.0)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid numeric value: point[0][0] = 3e38 exceeds f32::MAX / 2 in magnitude"
        );
        // At the limit itself, distances and screen brackets stay finite
        // and the brackets still contain the exact distance.
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let m = EuclideanMetric::new(
                &[vec![MAX_COORD, -MAX_COORD], vec![-MAX_COORD, MAX_COORD]],
                norm,
            )
            .unwrap();
            let d = m.distance(PointId(0), PointId(1));
            let (mut lo, mut hi) = ([0.0], [0.0]);
            assert!(m.screen_distances(PointId(0), &[1], &mut lo, &mut hi));
            let ok = hi[0].is_finite() && lo[0] <= d && d <= hi[0];
            assert!(ok, "{norm:?}: {d} in [{lo:?}, {hi:?}]");
        }
    }

    #[test]
    fn grid_has_expected_size_and_spacing() {
        let m = EuclideanMetric::grid(3, 2, Norm::L1).unwrap();
        assert_eq!(m.len(), 6);
        // (0,0) to (2,1): |2| + |1| = 3.
        assert!((m.distance(PointId(0), PointId(5)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_ragged_rows_and_empty() {
        assert!(matches!(
            EuclideanMetric::new(&[vec![0.0], vec![0.0, 1.0]], Norm::L2),
            Err(MetricError::Malformed(_))
        ));
        assert_eq!(
            EuclideanMetric::new(&[], Norm::L2).unwrap_err(),
            MetricError::Empty
        );
        assert!(matches!(
            EuclideanMetric::new(&[vec![f64::NAN]], Norm::L2),
            Err(MetricError::InvalidValue(_))
        ));
    }

    #[test]
    fn zero_distance_on_same_point() {
        let m = EuclideanMetric::plane(&[(2.5, -1.0)]).unwrap();
        assert_eq!(m.distance(PointId(0), PointId(0)), 0.0);
    }

    /// Awkward coordinates (negative, irrational spacing, 3-D) across all
    /// three norms: the bulk fill must reproduce the per-call loop bit for
    /// bit, including into buffers shorter than a whole row.
    #[test]
    fn bulk_fill_row_is_bit_identical_to_per_call() {
        let mut pts = Vec::new();
        let mut state = 0x5EEDu64;
        for _ in 0..37 {
            let mut row = Vec::new();
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                row.push(((state % 20000) as f64 - 10000.0) * 0.37);
            }
            pts.push(row);
        }
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let m = EuclideanMetric::new(&pts, norm).unwrap();
            for q in [0u32, 7, 36] {
                for len in [1usize, 17, 37] {
                    let mut bulk = vec![f64::NAN; len];
                    m.fill_row(PointId(q), &mut bulk);
                    for (p, &d) in bulk.iter().enumerate() {
                        assert_eq!(
                            d.to_bits(),
                            m.distance(PointId(p as u32), PointId(q)).to_bits(),
                            "norm {norm:?}, row {q}, entry {p}"
                        );
                    }
                }
            }
        }
    }

    /// Screening brackets must contain the exact distance for every pair,
    /// including coincident points and large-magnitude coordinates where
    /// f32 narrowing loses real bits.
    #[test]
    fn screen_bounds_bracket_exact_distances() {
        let mut pts = Vec::new();
        let mut state = 0xBEEFu64;
        for i in 0..64 {
            let mut row = Vec::new();
            for _ in 0..2 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Mix tiny offsets with 1e8-scale magnitudes: the f32 store
                // cannot represent these exactly, so the slack must carry.
                let v = ((state % 65536) as f64 - 32768.0) * 0.001;
                row.push(if i % 3 == 0 { v * 1.0e8 } else { v });
            }
            pts.push(row);
        }
        // A duplicate point exercises the d = 0 corner.
        pts.push(pts[0].clone());
        let others: Vec<u32> = (0..pts.len() as u32).collect();
        for norm in [Norm::L1, Norm::L2, Norm::LInf] {
            let m = EuclideanMetric::new(&pts, norm).unwrap();
            let mut lo = vec![f64::NAN; others.len()];
            let mut hi = vec![f64::NAN; others.len()];
            for q in [0u32, 9, 64] {
                assert!(m.screen_distances(PointId(q), &others, &mut lo, &mut hi));
                for (i, &p) in others.iter().enumerate() {
                    let d = m.distance(PointId(q), PointId(p));
                    assert!(
                        lo[i] <= d && d <= hi[i],
                        "norm {norm:?}: screen [{}, {}] misses d({q},{p}) = {d}",
                        lo[i],
                        hi[i]
                    );
                    assert!(lo[i] >= 0.0);
                }
            }
        }
    }

    #[test]
    fn kd_coords_are_isometric_exactly_for_l2() {
        let pts = unit_square();
        for (norm, iso) in [(Norm::L1, false), (Norm::L2, true), (Norm::LInf, false)] {
            let m = EuclideanMetric::new(&pts, norm).unwrap();
            let kd = m.kd_coords().expect("euclidean metrics embed");
            assert_eq!(kd.dim, 2);
            assert_eq!(kd.coords.len(), 8);
            assert_eq!(kd.isometric, iso);
            if iso {
                // Ascending-axis L2 fold over the coords == distance, bitwise.
                for a in 0..4usize {
                    for b in 0..4usize {
                        let mut acc = 0.0f64;
                        for axis in 0..2 {
                            let d = kd.coords[a * 2 + axis] - kd.coords[b * 2 + axis];
                            acc += d * d;
                        }
                        assert_eq!(
                            acc.sqrt().to_bits(),
                            m.distance(PointId(a as u32), PointId(b as u32)).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coherent_order_is_a_spatially_local_permutation() {
        let m = EuclideanMetric::grid(16, 16, Norm::L2).unwrap();
        let order = m.coherent_order().expect("euclidean metrics have one");
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..256).collect::<Vec<u32>>(),
            "must be a permutation"
        );
        // Z-order on a 16x16 grid: consecutive ranks are close (the curve
        // never jumps more than a quadrant), so the mean adjacent-pair
        // distance must beat row-major id order's (which pays the row wrap).
        let adjacent = |ids: &[u32]| -> f64 {
            ids.windows(2)
                .map(|w| m.distance(PointId(w[0]), PointId(w[1])))
                .sum::<f64>()
                / (ids.len() - 1) as f64
        };
        let identity: Vec<u32> = (0..256).collect();
        assert!(
            adjacent(&order) <= adjacent(&identity),
            "Z-order must not be less coherent than id order on a grid"
        );
        // Determinism: two calls agree exactly.
        assert_eq!(order, m.coherent_order().unwrap());
    }
}
