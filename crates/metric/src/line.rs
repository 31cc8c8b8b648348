//! Points on the real line.
//!
//! The paper's lower bounds (Theorem 2 on a single point, Corollary 3 on a
//! line) use exactly this class of metrics, so line metrics are the primary
//! adversarial substrate.

use crate::{check_finite, KdCoords, Metric, MetricError, PointId};

/// A finite metric of points on ℝ with `d(a, b) = |x_a − x_b|`.
#[derive(Debug, Clone)]
pub struct LineMetric {
    positions: Vec<f64>,
    /// Point ids sorted by position; used by [`LineMetric::nearest_sorted`].
    by_position: Vec<u32>,
}

impl LineMetric {
    /// Builds a line metric from point positions (any order, duplicates
    /// allowed). Rejects a non-finite position, and positions whose span
    /// `max − min` overflows, which would make some distance infinite.
    pub fn new(positions: Vec<f64>) -> Result<Self, MetricError> {
        if positions.is_empty() {
            return Err(MetricError::Empty);
        }
        for (i, &x) in positions.iter().enumerate() {
            check_finite(x, format_args!("position[{i}]"))?;
        }
        let mut by_position: Vec<u32> = (0..positions.len() as u32).collect();
        by_position.sort_by(|&a, &b| {
            positions[a as usize]
                .partial_cmp(&positions[b as usize])
                .expect("positions are finite")
                .then(a.cmp(&b))
        });
        // Every distance rounds to at most the span.
        let (lo, hi) = (by_position[0], by_position[by_position.len() - 1]);
        check_finite(
            positions[hi as usize] - positions[lo as usize],
            format_args!("position[{hi}] − position[{lo}]"),
        )?;
        Ok(Self {
            positions,
            by_position,
        })
    }

    /// `n` points evenly spaced on `[0, span]`.
    pub fn uniform(n: usize, span: f64) -> Result<Self, MetricError> {
        if n == 0 {
            return Err(MetricError::Empty);
        }
        check_finite(span, format_args!("span"))?;
        if span < 0.0 {
            return Err(MetricError::InvalidValue(format!(
                "span = {span} is negative"
            )));
        }
        let step = if n > 1 { span / (n as f64 - 1.0) } else { 0.0 };
        Self::new((0..n).map(|i| i as f64 * step).collect())
    }

    /// A single point at the origin (the Theorem 2 lower-bound space).
    pub fn single_point() -> Self {
        Self::new(vec![0.0]).expect("one finite point is always valid")
    }

    /// The position of a point.
    pub fn position(&self, p: PointId) -> f64 {
        self.positions[p.index()]
    }

    /// All positions, in point-id order.
    pub fn positions(&self) -> &[f64] {
        &self.positions
    }

    /// Nearest point of the whole space to coordinate `x`, via binary search
    /// on the sorted order — O(log n) instead of the trait's linear scan.
    pub fn nearest_to_coord(&self, x: f64) -> (PointId, f64) {
        debug_assert!(!self.by_position.is_empty());
        let idx = self
            .by_position
            .partition_point(|&p| self.positions[p as usize] < x);
        let mut best = (PointId(self.by_position[0]), f64::INFINITY);
        for cand in [idx.wrapping_sub(1), idx] {
            if let Some(&p) = self.by_position.get(cand) {
                let d = (self.positions[p as usize] - x).abs();
                if d < best.1 || (d == best.1 && p < best.0 .0) {
                    best = (PointId(p), d);
                }
            }
        }
        best
    }
}

impl Metric for LineMetric {
    fn len(&self) -> usize {
        self.positions.len()
    }

    #[inline]
    fn distance(&self, a: PointId, b: PointId) -> f64 {
        (self.positions[a.index()] - self.positions[b.index()]).abs()
    }

    /// Position order (already maintained for [`LineMetric::nearest_to_coord`]):
    /// consecutive ranks are metric neighbors, the best possible 1-D order.
    fn coherent_order(&self) -> Option<Vec<u32>> {
        Some(self.by_position.clone())
    }

    /// The positions as a 1-D embedding. Isometric when the one-axis L2
    /// fold `√(fl(r·r))` of every difference `r = fl(x_a − x_b)` is `|r|`,
    /// which round-to-nearest IEEE arithmetic guarantees whenever `fl(r·r)`
    /// neither overflows nor leaves the normal range. Two guards ensure
    /// both: every `|x| < 1e150` (so `r² < 4e300`), and every nonzero gap
    /// between adjacent sorted positions is at least `2⁻⁵¹¹` (so
    /// `r² ≥ 2⁻¹⁰²²`, the smallest normal double): a computed difference
    /// of two positions is at least the computed gap of any adjacent pair
    /// between them, as subtraction rounds monotonically. Below the gap
    /// bound the square goes subnormal and the fold drifts — `[0, 1.6e-162]`
    /// folds to `2.2e-162`.
    fn kd_coords(&self) -> Option<KdCoords> {
        let max_abs = self.positions.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let normal_gaps = self.by_position.windows(2).all(|w| {
            let gap = self.positions[w[1] as usize] - self.positions[w[0] as usize];
            gap == 0.0 || gap >= MIN_ISOMETRIC_GAP
        });
        Some(KdCoords {
            coords: self.positions.clone(),
            dim: 1,
            isometric: max_abs < 1.0e150 && normal_gaps,
        })
    }
}

/// `2⁻⁵¹¹`: the smallest nonzero gap between adjacent positions a
/// [`LineMetric`] embeds isometrically (its square, `2⁻¹⁰²²`, is the
/// smallest normal double).
const MIN_ISOMETRIC_GAP: f64 = f64::from_bits(512 << 52);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_absolute_differences() {
        let m = LineMetric::new(vec![1.0, -2.0, 4.5]).unwrap();
        assert_eq!(m.distance(PointId(0), PointId(1)), 3.0);
        assert_eq!(m.distance(PointId(1), PointId(2)), 6.5);
        assert_eq!(m.distance(PointId(2), PointId(2)), 0.0);
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert_eq!(LineMetric::new(vec![]).unwrap_err(), MetricError::Empty);
        assert!(matches!(
            LineMetric::new(vec![0.0, f64::NAN]),
            Err(MetricError::InvalidValue(_))
        ));
        assert!(matches!(
            LineMetric::new(vec![f64::INFINITY]),
            Err(MetricError::InvalidValue(_))
        ));
    }

    #[test]
    fn rejects_positions_whose_distance_overflows() {
        let err = LineMetric::new(vec![-1e308, 1e308]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid numeric value: position[1] − position[0] = inf is not finite"
        );
        let m = LineMetric::new(vec![-8e307, 8e307]).unwrap();
        assert!(m.distance(PointId(0), PointId(1)).is_finite());
    }

    #[test]
    fn uniform_spacing() {
        let m = LineMetric::uniform(5, 8.0).unwrap();
        assert_eq!(m.len(), 5);
        assert!((m.distance(PointId(0), PointId(4)) - 8.0).abs() < 1e-12);
        assert!((m.distance(PointId(0), PointId(1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_single_point_has_zero_span() {
        let m = LineMetric::uniform(1, 100.0).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.position(PointId(0)), 0.0);
    }

    #[test]
    fn single_point_space() {
        let m = LineMetric::single_point();
        assert_eq!(m.len(), 1);
        assert_eq!(m.distance(PointId(0), PointId(0)), 0.0);
    }

    #[test]
    fn nearest_to_coord_matches_linear_scan() {
        let m = LineMetric::new(vec![3.0, -1.0, 7.0, 3.0, 0.5]).unwrap();
        for &x in &[-5.0, -1.0, 0.0, 0.6, 2.9, 3.0, 3.1, 6.9, 7.0, 100.0] {
            let (p, d) = m.nearest_to_coord(x);
            // Linear reference: smallest distance, ties to smallest id.
            let mut best = (PointId(0), f64::INFINITY);
            for q in m.points() {
                let dd = (m.position(q) - x).abs();
                if dd < best.1 {
                    best = (q, dd);
                }
            }
            assert!((d - best.1).abs() < 1e-12, "x = {x}");
            assert!((m.position(p) - x).abs() <= best.1 + 1e-12, "x = {x}");
        }
    }

    #[test]
    fn duplicate_positions_are_allowed() {
        let m = LineMetric::new(vec![2.0, 2.0]).unwrap();
        assert_eq!(m.distance(PointId(0), PointId(1)), 0.0);
    }

    /// Whether the one-axis L2 fold over the embedding equals `distance`
    /// bitwise for every pair.
    fn fold_is_exact(m: &LineMetric) -> bool {
        let kd = m.kd_coords().expect("lines embed");
        let n = m.len();
        (0..n).all(|a| {
            (0..n).all(|b| {
                let r = kd.coords[a] - kd.coords[b];
                let fold = (0.0 + r * r).sqrt();
                fold.to_bits() == m.distance(PointId(a as u32), PointId(b as u32)).to_bits()
            })
        })
    }

    #[test]
    fn isometry_claim_holds_exactly_down_to_the_gap_bound() {
        // At the bound: tiny, duplicate, negative and large positions whose
        // nonzero adjacent gaps are all at least 2^-511.
        let g = MIN_ISOMETRIC_GAP;
        let at_bound = LineMetric::new(vec![
            0.0,
            g,
            g,
            -g,
            2.0 * g,
            1.0,
            1.0 + f64::EPSILON,
            -3.5e149,
            9.0e149,
        ])
        .unwrap();
        assert!(at_bound.kd_coords().unwrap().isometric);
        assert!(fold_is_exact(&at_bound));
        // Below it the square goes subnormal: the fold of [0, 1.6e-162]
        // is 2.2e-162, so the embedding must not claim isometry.
        let below = LineMetric::new(vec![0.0, 1.6e-162]).unwrap();
        assert!(!below.kd_coords().unwrap().isometric);
        assert!(!fold_is_exact(&below));
        let just_below = LineMetric::new(vec![5.0, 0.0, g * (1.0 - f64::EPSILON)]).unwrap();
        assert!(!just_below.kd_coords().unwrap().isometric);
        // And the magnitude guard still holds against overflowing squares.
        let huge = LineMetric::new(vec![0.0, 1.0e150]).unwrap();
        assert!(!huge.kd_coords().unwrap().isometric);
    }
}
