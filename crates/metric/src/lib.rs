//! Finite metric spaces for facility-location problems.
//!
//! The OMFLP model (paper §1.1) places requests and facilities at points of a
//! finite metric space `M`. This crate provides the metric substrate:
//!
//! * [`line::LineMetric`] — points on the real line (the paper's lower bounds
//!   already hold on line metrics, Corollary 3);
//! * [`euclidean::EuclideanMetric`] — point sets in d-dimensional space with
//!   L1/L2/L∞ norms;
//! * [`dense::DenseMetric`] — an explicit distance matrix, validated against
//!   the metric axioms;
//! * [`graph::GraphMetric`] — shortest-path closure of a weighted graph (the
//!   "network infrastructure" of the paper's motivating scenario);
//! * [`tree::TreeMetric`] — shortest paths on a weighted tree.
//!
//! All distances are non-negative `f64`; identity of indiscernibles is
//! relaxed to `d(a, a) = 0` (distinct points at distance zero are allowed,
//! matching the paper where multiple facilities may share a point).

pub mod dense;
pub mod euclidean;
pub mod graph;
pub mod line;
pub mod simd;
pub mod tree;
pub mod validate;

use std::fmt;

/// A coordinate embedding of the point set, for kd-tree consumers.
///
/// Returned by [`Metric::kd_coords`] when the metric's points live in (or
/// embed into) a low-dimensional real space. `coords` is row-major
/// (`point * dim + axis`), one row per point in id order.
///
/// `isometric` asserts that the **L2 distance over these coordinates,
/// folded over axes in ascending order exactly as
/// [`euclidean::EuclideanMetric::distance`] does, is bit-identical to
/// [`Metric::distance`]** for every pair of points. Consumers may then
/// substitute their own L2 computation over the coordinates for
/// `distance` calls with no float divergence (up to the documented per-op
/// rounding of any *different* fold they choose). One does: the PD
/// engine's block layout, which keeps the coordinates in layout order and
/// computes every distance of its block-pass path (the representative
/// and per-block distances of the t3/t4 argmins, the facility-cache
/// refresh and the cap shrinks) as contiguous
/// [`simd::accumulate_squared`] / [`simd::sqrt_in_place`] passes — the
/// same fold, lane by lane. L2 Euclidean metrics claim it;
/// line metrics claim it inside the guards of [`line::LineMetric`]'s
/// embedding (no overflowing and no subnormal squares). When `isometric`
/// is `false` the coordinates are only spatially correlated with the
/// metric (e.g. an L1/L∞ norm over the same points) — good enough to build
/// partitions, never for distance values.
#[derive(Debug, Clone)]
pub struct KdCoords {
    /// Row-major coordinates, `len * dim` entries, all finite.
    pub coords: Vec<f64>,
    /// Dimension of the embedding (≥ 1).
    pub dim: usize,
    /// See the type docs: ascending-axis L2 over `coords` equals `distance`.
    pub isometric: bool,
}

/// Index of a point of the finite metric space.
///
/// Points are dense indices `0..metric.len()`; the newtype prevents mixing
/// them up with commodity or request indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointId(pub u32);

impl PointId {
    /// The point index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors produced while constructing or validating metric spaces.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricError {
    /// The space has no points.
    Empty,
    /// A coordinate or edge weight is NaN, infinite, or negative.
    InvalidValue(String),
    /// The triangle inequality (or symmetry / zero diagonal) is violated.
    AxiomViolation(String),
    /// A point index is out of range.
    PointOutOfRange { point: u32, len: usize },
    /// The underlying graph is disconnected, so some distances are undefined.
    Disconnected { from: u32, to: u32 },
    /// Structural problem in the input (e.g. a tree with a cycle).
    Malformed(String),
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::Empty => write!(f, "metric space must contain at least one point"),
            MetricError::InvalidValue(s) => write!(f, "invalid numeric value: {s}"),
            MetricError::AxiomViolation(s) => write!(f, "metric axiom violated: {s}"),
            MetricError::PointOutOfRange { point, len } => {
                write!(
                    f,
                    "point index {point} out of range for space of {len} points"
                )
            }
            MetricError::Disconnected { from, to } => {
                write!(f, "graph is disconnected: no path from {from} to {to}")
            }
            MetricError::Malformed(s) => write!(f, "malformed input: {s}"),
        }
    }
}

impl std::error::Error for MetricError {}

/// A finite metric space.
///
/// Implementations must guarantee, for all in-range points:
/// `distance(a, b) >= 0`, `distance(a, a) == 0`,
/// `distance(a, b) == distance(b, a)`, and the triangle inequality
/// (up to floating-point rounding; see [`validate`]).
pub trait Metric: Send + Sync {
    /// Number of points in the space.
    fn len(&self) -> usize;

    /// Distance between two points. Panics if either index is out of range.
    fn distance(&self, a: PointId, b: PointId) -> f64;

    /// The stored distance row `d(·, q)` of a metric that holds its full
    /// closure, or `None` (the default) for one that computes distances.
    ///
    /// When `Some`, the slice has [`Metric::len`] entries and
    /// `row[p] == distance(PointId(p), q)` **bit for bit**, so consumers
    /// read it in place instead of copying it.
    /// `GraphMetric` and `DenseMetric` lend their matrix rows, which their
    /// constructors make bitwise symmetric.
    ///
    /// All or none: a metric lends a row for every point or for none. The
    /// PD engine asks once, at construction, and then reads every row of a
    /// lending metric in place, and layout block passes for any other
    /// metric. Wrappers must forward it: one that drops it sends the
    /// engine to block passes over a metric whose rows are at hand. May
    /// panic if `q` is out of range.
    fn row(&self, _q: PointId) -> Option<&[f64]> {
        None
    }

    /// Fills `out[p] = distance(PointId(p), q)` for `p` in `0..out.len()`.
    ///
    /// This is the bulk primitive behind the baseline engines'
    /// facility-cache refresh (RAND, Meyerson and Fotakis fill the row of
    /// each opening) and the offline solvers' distance rows; the PD engine
    /// fills no row. The default copies [`Metric::row`] when the metric
    /// stores one and calls [`Metric::distance`] per point otherwise.
    /// Implementations may override it with a faster loop nest but must
    /// produce **bit-identical** values to the per-call loop — callers
    /// rely on filled rows being indistinguishable from calling
    /// [`Metric::distance`]. Panics if `out.len() > self.len()` or `q` is
    /// out of range.
    fn fill_row(&self, q: PointId, out: &mut [f64]) {
        match self.row(q) {
            Some(row) => out.copy_from_slice(&row[..out.len()]),
            None => {
                for (p, slot) in out.iter_mut().enumerate() {
                    *slot = self.distance(PointId(p as u32), q);
                }
            }
        }
    }

    /// A spatially coherent ordering of the point ids, or `None` when the
    /// metric has no cheap one (callers fall back to identity order).
    ///
    /// The returned vector is a permutation of `0..len` such that points
    /// adjacent in the order tend to be close in the metric — the locality
    /// lever behind block-partitioned indexes (a run of consecutive entries
    /// then has a small covering radius, so triangle-inequality distance
    /// bounds over the run are tight). Sorted lines return position order,
    /// Euclidean point sets a Z-order (Morton) curve, graphs a greedy
    /// nearest-neighbor chain over the shortest-path closure, trees a DFS
    /// preorder (subtrees stay contiguous).
    ///
    /// Contract: the order must be **deterministic** (same metric → same
    /// permutation, bit for bit), and implementors returning `Some` assert
    /// that their `distance` satisfies the triangle inequality up to a few
    /// ulps of relative rounding error — consumers that derive pruning
    /// bounds from representatives and covering radii budget only for
    /// float-level violations, not for approximately-metric data. Metrics
    /// that merely *validate* the axioms under a tolerance (e.g. an
    /// arbitrary dense matrix) must return `None`.
    fn coherent_order(&self) -> Option<Vec<u32>> {
        None
    }

    /// `true` if the space has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all point ids of the space.
    fn points(&self) -> PointIter {
        PointIter {
            next: 0,
            len: self.len() as u32,
        }
    }

    /// The nearest point to `from` among `candidates`, with its distance.
    ///
    /// Returns `None` when `candidates` is empty. Ties break to the earliest
    /// candidate, so the result is deterministic.
    fn nearest_among(&self, from: PointId, candidates: &[PointId]) -> Option<(PointId, f64)> {
        let mut best: Option<(PointId, f64)> = None;
        for &c in candidates {
            let d = self.distance(from, c);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((c, d)),
            }
        }
        best
    }

    /// A coordinate embedding of the points for kd-tree partitioning, or
    /// `None` when the metric has no cheap low-dimensional one (graphs,
    /// arbitrary dense matrices). See [`KdCoords`] for the contract; the
    /// embedding must be deterministic, like [`Metric::coherent_order`].
    fn kd_coords(&self) -> Option<KdCoords> {
        None
    }

    /// Certified low-precision distance screening: on success, fills
    /// `lo[i] ≤ distance(q, others[i]) ≤ hi[i]` for every candidate and
    /// returns `true`. The bounds are typically computed from a reduced
    /// (f32) coordinate store with a per-axis error slack, so they are
    /// cheap but **guaranteed to bracket the exact f64 value** — callers
    /// prune candidates whose bounds prove them non-optimal and confirm the
    /// survivors with [`Metric::distance`], keeping every downstream result
    /// bit-identical to a full exact pass.
    ///
    /// The default returns `false` (no screening available); callers must
    /// then fall back to exact distances for all candidates.
    fn screen_distances(
        &self,
        _q: PointId,
        _others: &[u32],
        _lo: &mut [f64],
        _hi: &mut [f64],
    ) -> bool {
        false
    }

    /// Diameter of the space (maximum pairwise distance). O(n²).
    fn diameter(&self) -> f64 {
        let n = self.len();
        let mut best = 0.0_f64;
        for a in 0..n {
            for b in (a + 1)..n {
                let d = self.distance(PointId(a as u32), PointId(b as u32));
                if d > best {
                    best = d;
                }
            }
        }
        best
    }
}

impl Metric for Box<dyn Metric> {
    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.as_ref().distance(a, b)
    }

    fn row(&self, q: PointId) -> Option<&[f64]> {
        self.as_ref().row(q)
    }

    fn fill_row(&self, q: PointId, out: &mut [f64]) {
        // Forward so a concrete override (Euclidean column streams) is one
        // virtual call per row, not one per entry.
        self.as_ref().fill_row(q, out)
    }

    fn coherent_order(&self) -> Option<Vec<u32>> {
        self.as_ref().coherent_order()
    }

    fn kd_coords(&self) -> Option<KdCoords> {
        self.as_ref().kd_coords()
    }

    fn screen_distances(&self, q: PointId, others: &[u32], lo: &mut [f64], hi: &mut [f64]) -> bool {
        self.as_ref().screen_distances(q, others, lo, hi)
    }
}

/// Iterator over the point ids `0..len` of a metric space.
#[derive(Debug, Clone)]
pub struct PointIter {
    next: u32,
    len: u32,
}

impl Iterator for PointIter {
    type Item = PointId;

    fn next(&mut self) -> Option<PointId> {
        if self.next < self.len {
            let p = PointId(self.next);
            self.next += 1;
            Some(p)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.len - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PointIter {}

/// Checks that `v` is a finite, non-negative coordinate/weight. `what`
/// names the value in the error message (`format_args!("d[{a},{b}]")`).
/// The check itself is inline compares; the message is built only when it
/// fails, in the cold [`invalid_value`], so a constructor that checks
/// every entry of a large input (a graph closure checks `n²/2` path sums)
/// pays neither a call nor string formatting for it.
#[inline]
pub(crate) fn check_finite_nonneg(v: f64, what: fmt::Arguments<'_>) -> Result<(), MetricError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(invalid_value(v, what))
    }
}

/// Checks that `v` is a finite coordinate (may be negative, e.g. line
/// positions). Inline, with the message built only on failure, as in
/// [`check_finite_nonneg`].
#[inline]
pub(crate) fn check_finite(v: f64, what: fmt::Arguments<'_>) -> Result<(), MetricError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(invalid_value(v, what))
    }
}

/// The error for a value that failed [`check_finite`] or
/// [`check_finite_nonneg`]: `"{what} = {v} is not finite"`, or
/// `"… is negative"` for a finite `v`.
#[cold]
#[inline(never)]
fn invalid_value(v: f64, what: fmt::Arguments<'_>) -> MetricError {
    let why = if v.is_finite() {
        "is negative"
    } else {
        "is not finite"
    };
    MetricError::InvalidValue(format!("{what} = {v} {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineMetric;

    #[test]
    fn point_iter_yields_all_points() {
        let m = LineMetric::new(vec![0.0, 1.0, 5.0]).unwrap();
        let pts: Vec<u32> = m.points().map(|p| p.0).collect();
        assert_eq!(pts, vec![0, 1, 2]);
        assert_eq!(m.points().len(), 3);
    }

    #[test]
    fn nearest_among_breaks_ties_to_earliest() {
        let m = LineMetric::new(vec![0.0, 2.0, -2.0]).unwrap();
        // Both candidates at distance 2 from point 0; earliest (p1) wins.
        let (p, d) = m
            .nearest_among(PointId(0), &[PointId(1), PointId(2)])
            .unwrap();
        assert_eq!(p, PointId(1));
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_among_empty_candidates_is_none() {
        let m = LineMetric::new(vec![0.0]).unwrap();
        assert!(m.nearest_among(PointId(0), &[]).is_none());
    }

    #[test]
    fn diameter_of_line() {
        let m = LineMetric::new(vec![-1.0, 4.0, 2.0]).unwrap();
        assert!((m.diameter() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn boxed_metric_delegates() {
        let m: Box<dyn Metric> = Box::new(LineMetric::new(vec![0.0, 3.0]).unwrap());
        assert_eq!(m.len(), 2);
        assert!((m.distance(PointId(0), PointId(1)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_impls() {
        assert_eq!(PointId(7).to_string(), "p7");
        let e = MetricError::PointOutOfRange { point: 9, len: 3 };
        assert!(e.to_string().contains("out of range"));
    }

    /// The validation labels are formatted only when a check fails; these
    /// pin the text each constructor reports for a bad value.
    #[test]
    fn invalid_values_are_reported_by_name() {
        use crate::dense::DenseMetric;
        use crate::euclidean::{EuclideanMetric, Norm};
        use crate::graph::Graph;
        use crate::tree::TreeMetric;
        fn text<T: fmt::Debug>(r: Result<T, MetricError>) -> String {
            r.unwrap_err().to_string()
        }
        let mut rows = vec![vec![0.0, 1.0]; 5];
        rows[3][1] = f64::NAN;
        assert_eq!(
            text(EuclideanMetric::new(&rows, Norm::L2)),
            "invalid numeric value: point[3][1] = NaN is not finite"
        );
        assert_eq!(
            text(LineMetric::new(vec![0.0, 1.0, f64::INFINITY])),
            "invalid numeric value: position[2] = inf is not finite"
        );
        assert_eq!(
            text(LineMetric::uniform(4, f64::NAN)),
            "invalid numeric value: span = NaN is not finite"
        );
        assert_eq!(
            text(Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, -1.0)])),
            "invalid numeric value: weight(1,2) = -1 is negative"
        );
        assert_eq!(
            text(TreeMetric::new(&[
                None,
                Some((0, 1.0)),
                Some((1, f64::NEG_INFINITY))
            ])),
            "invalid numeric value: weight(2) = -inf is not finite"
        );
        let mut d = vec![0.0; 9];
        d[5] = -2.5;
        assert_eq!(
            text(DenseMetric::new_unchecked(d, 3)),
            "invalid numeric value: d[1,2] = -2.5 is negative"
        );
        assert_eq!(
            text(DenseMetric::uniform(3, f64::NAN)),
            "invalid numeric value: gap = NaN is not finite"
        );
    }
}
