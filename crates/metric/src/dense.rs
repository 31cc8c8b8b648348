//! Explicit distance-matrix metrics.
//!
//! `DenseMetric` is both a general-purpose metric (any finite metric can be
//! expressed this way) and the materialized form other metrics can be
//! converted into when O(1) lookups matter more than memory
//! (see [`DenseMetric::from_metric`]).

use crate::{check_finite_nonneg, Metric, MetricError, PointId};

/// A finite metric given by an `n × n` distance matrix (row-major).
#[derive(Debug, Clone)]
pub struct DenseMetric {
    d: Vec<f64>,
    n: usize,
}

impl DenseMetric {
    /// Builds from a full row-major matrix and validates all metric axioms
    /// exactly (O(n³) triangle check — intended for moderate n).
    pub fn new(matrix: Vec<f64>, n: usize) -> Result<Self, MetricError> {
        let m = Self::new_unchecked(matrix, n)?;
        m.validate()?;
        Ok(m)
    }

    /// Builds without the O(n³) triangle check; still validates shape,
    /// finiteness, non-negativity, symmetry and zero diagonal. Every `−0.0`
    /// entry becomes `+0.0`, so the `==` symmetry check leaves the matrix
    /// bitwise symmetric and row `q` ([`Metric::row`]) is bitwise column
    /// `q`.
    pub fn new_unchecked(mut matrix: Vec<f64>, n: usize) -> Result<Self, MetricError> {
        if n == 0 {
            return Err(MetricError::Empty);
        }
        if matrix.len() != n * n {
            return Err(MetricError::Malformed(format!(
                "matrix has {} entries, expected {}",
                matrix.len(),
                n * n
            )));
        }
        for (i, v) in matrix.iter_mut().enumerate() {
            check_finite_nonneg(*v, format_args!("d[{},{}]", i / n, i % n))?;
            if *v == 0.0 {
                *v = 0.0;
            }
        }
        let m = Self { d: matrix, n };
        for a in 0..n {
            if m.d[a * n + a] != 0.0 {
                return Err(MetricError::AxiomViolation(format!(
                    "d({a},{a}) = {} must be 0",
                    m.d[a * n + a]
                )));
            }
            for b in (a + 1)..n {
                if m.d[a * n + b] != m.d[b * n + a] {
                    return Err(MetricError::AxiomViolation(format!(
                        "asymmetry: d({a},{b}) = {} but d({b},{a}) = {}",
                        m.d[a * n + b],
                        m.d[b * n + a]
                    )));
                }
            }
        }
        Ok(m)
    }

    /// Validates the triangle inequality exactly, with a small relative slack
    /// for floating-point noise.
    pub fn validate(&self) -> Result<(), MetricError> {
        let n = self.n;
        for a in 0..n {
            for b in 0..n {
                let dab = self.d[a * n + b];
                for c in 0..n {
                    let via = self.d[a * n + c] + self.d[c * n + b];
                    if dab > via * (1.0 + 1e-9) + 1e-12 {
                        return Err(MetricError::AxiomViolation(format!(
                            "triangle: d({a},{b}) = {dab} > d({a},{c}) + d({c},{b}) = {via}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Materializes any metric into a dense matrix (O(n²) queries).
    pub fn from_metric(m: &dyn Metric) -> Result<Self, MetricError> {
        let n = m.len();
        if n == 0 {
            return Err(MetricError::Empty);
        }
        let mut d = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                d[a * n + b] = m.distance(PointId(a as u32), PointId(b as u32));
            }
        }
        Self::new_unchecked(d, n)
    }

    /// The uniform metric: every pair of distinct points at distance `gap`.
    pub fn uniform(n: usize, gap: f64) -> Result<Self, MetricError> {
        check_finite_nonneg(gap, format_args!("gap"))?;
        if n == 0 {
            return Err(MetricError::Empty);
        }
        let mut d = vec![gap; n * n];
        for a in 0..n {
            d[a * n + a] = 0.0;
        }
        Self::new_unchecked(d, n)
    }
}

impl Metric for DenseMetric {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.d[a.index() * self.n + b.index()]
    }

    fn row(&self, q: PointId) -> Option<&[f64]> {
        // Every constructor checks exact symmetry, so row q is column q.
        let start = q.index() * self.n;
        Some(&self.d[start..start + self.n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineMetric;

    #[test]
    fn valid_triangle_metric_accepted() {
        // Points 0-1-2 on a path with weights 1 and 2.
        let m = DenseMetric::new(vec![0.0, 1.0, 3.0, 1.0, 0.0, 2.0, 3.0, 2.0, 0.0], 3).unwrap();
        assert_eq!(m.distance(PointId(0), PointId(2)), 3.0);
    }

    #[test]
    fn triangle_violation_rejected() {
        // d(0,2) = 10 > d(0,1) + d(1,2) = 3.
        let err =
            DenseMetric::new(vec![0.0, 1.0, 10.0, 1.0, 0.0, 2.0, 10.0, 2.0, 0.0], 3).unwrap_err();
        assert!(matches!(err, MetricError::AxiomViolation(_)));
    }

    #[test]
    fn asymmetry_rejected() {
        let err = DenseMetric::new_unchecked(vec![0.0, 1.0, 2.0, 0.0], 2).unwrap_err();
        assert!(matches!(err, MetricError::AxiomViolation(_)));
    }

    #[test]
    fn signed_zeros_are_normalized_so_rows_are_columns() {
        // `-0.0 == +0.0`, so the symmetry check accepts this matrix; the
        // stored row 1 must still read `d(0, 1)`'s bits at index 0.
        let m = DenseMetric::new_unchecked(vec![0.0, 0.0, -0.0, 0.0], 2).unwrap();
        let d01 = m.distance(PointId(0), PointId(1)).to_bits();
        assert_eq!(m.row(PointId(1)).unwrap()[0].to_bits(), d01);
        assert_eq!(m.distance(PointId(1), PointId(0)).to_bits(), d01);
        let mut filled = [f64::NAN; 2];
        m.fill_row(PointId(1), &mut filled);
        assert_eq!(filled[0].to_bits(), d01);
    }

    #[test]
    fn nonzero_diagonal_rejected() {
        let err = DenseMetric::new_unchecked(vec![1.0, 1.0, 1.0, 0.0], 2).unwrap_err();
        assert!(matches!(err, MetricError::AxiomViolation(_)));
    }

    #[test]
    fn negative_distance_rejected() {
        let err = DenseMetric::new_unchecked(vec![0.0, -1.0, -1.0, 0.0], 2).unwrap_err();
        assert!(matches!(err, MetricError::InvalidValue(_)));
    }

    #[test]
    fn wrong_shape_rejected() {
        let err = DenseMetric::new_unchecked(vec![0.0; 5], 2).unwrap_err();
        assert!(matches!(err, MetricError::Malformed(_)));
    }

    #[test]
    fn from_metric_round_trips_a_line() {
        let line = LineMetric::new(vec![0.0, 2.0, 7.0]).unwrap();
        let dense = DenseMetric::from_metric(&line).unwrap();
        for a in line.points() {
            for b in line.points() {
                assert_eq!(line.distance(a, b), dense.distance(a, b));
            }
        }
        dense.validate().unwrap();
    }

    #[test]
    fn uniform_metric() {
        let m = DenseMetric::uniform(4, 3.0).unwrap();
        m.validate().unwrap();
        assert_eq!(m.distance(PointId(1), PointId(3)), 3.0);
        assert_eq!(m.distance(PointId(2), PointId(2)), 0.0);
    }
}
