//! Spatial generators: where points live and where requests appear.

use omfl_metric::euclidean::EuclideanMetric;
use omfl_metric::graph::{Graph, GraphMetric};
use omfl_metric::line::LineMetric;
use omfl_metric::{Metric, MetricError};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// `n` points uniform on `[0, span]` (sorted, so point ids are spatial).
pub fn random_line<R: Rng>(
    n: usize,
    span: f64,
    rng: &mut R,
) -> Result<Arc<dyn Metric>, MetricError> {
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * span).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok(Arc::new(LineMetric::new(xs)?))
}

/// `clusters` Gaussian-ish clusters of `per_cluster` points each in the
/// unit square scaled by `span`; cluster centres uniform, offsets
/// triangular-distributed with width `spread`.
pub fn clustered_plane<R: Rng>(
    clusters: usize,
    per_cluster: usize,
    span: f64,
    spread: f64,
    rng: &mut R,
) -> Result<Arc<dyn Metric>, MetricError> {
    let mut pts = Vec::with_capacity(clusters * per_cluster);
    for _ in 0..clusters {
        let cx = rng.gen::<f64>() * span;
        let cy = rng.gen::<f64>() * span;
        for _ in 0..per_cluster {
            // Triangular offset: sum of two uniforms, centered.
            let dx = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * spread;
            let dy = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * spread;
            pts.push((cx + dx, cy + dy));
        }
    }
    Ok(Arc::new(EuclideanMetric::plane(&pts)?))
}

/// A `w × h` Euclidean grid with the given spacing — the regular data-center
/// / city-block topology (point id = row-major cell index).
pub fn grid_plane(w: usize, h: usize, spacing: f64) -> Result<Arc<dyn Metric>, MetricError> {
    let mut pts = Vec::with_capacity(w * h);
    for r in 0..h {
        for c in 0..w {
            pts.push((c as f64 * spacing, r as f64 * spacing));
        }
    }
    Ok(Arc::new(EuclideanMetric::plane(&pts)?))
}

/// A connected random network: a uniform spanning chain (shuffled order)
/// plus `extra_edges` random chords; edge weights uniform in
/// `[0.5, 1.5) · base_weight`. This is the "network infrastructure" of the
/// paper's motivating scenario.
pub fn random_network<R: Rng>(
    nodes: usize,
    extra_edges: usize,
    base_weight: f64,
    rng: &mut R,
) -> Result<Arc<dyn Metric>, MetricError> {
    if nodes == 0 {
        return Err(MetricError::Empty);
    }
    let mut order: Vec<u32> = (0..nodes as u32).collect();
    // Fisher–Yates with the caller's RNG for reproducibility.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(nodes - 1 + extra_edges);
    for w in order.windows(2) {
        edges.push((w[0], w[1], (0.5 + rng.gen::<f64>()) * base_weight));
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra_edges && guard < extra_edges * 20 + 16 {
        guard += 1;
        let a = rng.gen_range(0..nodes as u32);
        let b = rng.gen_range(0..nodes as u32);
        if a != b {
            edges.push((a, b, (0.5 + rng.gen::<f64>()) * base_weight));
            added += 1;
        }
    }
    let g = Graph::from_edges(nodes, &edges)?;
    Ok(Arc::new(GraphMetric::new(&g)?))
}

/// Like [`clustered_plane`], but point ids are **scattered**: the generated
/// points are shuffled before the metric is built, so consecutive ids land
/// in unrelated clusters. Returns the metric plus the cluster membership
/// (`clusters[c]` lists the shuffled ids of cluster `c`, in generation
/// order) so request streams can still target clusters.
///
/// This is the adversarial substrate for id-order spatial indexes: any
/// structure that buckets by raw point id sees every bucket straddle every
/// cluster, so only genuinely distance-aware bucketing (relabeling) gets
/// traction.
#[allow(clippy::type_complexity)]
pub fn scattered_clustered_plane<R: Rng>(
    clusters: usize,
    per_cluster: usize,
    span: f64,
    spread: f64,
    rng: &mut R,
) -> Result<(Arc<dyn Metric>, Vec<Vec<u32>>), MetricError> {
    let n = clusters * per_cluster;
    let mut pts = Vec::with_capacity(n);
    for _ in 0..clusters {
        let cx = rng.gen::<f64>() * span;
        let cy = rng.gen::<f64>() * span;
        for _ in 0..per_cluster {
            let dx = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * spread;
            let dy = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * spread;
            pts.push((cx + dx, cy + dy));
        }
    }
    // Shuffle generation order → point id.
    let mut id_of: Vec<u32> = (0..n as u32).collect();
    id_of.shuffle(rng);
    let mut shuffled = vec![(0.0, 0.0); n];
    let mut membership = vec![Vec::with_capacity(per_cluster); clusters];
    for (gen_idx, &(x, y)) in pts.iter().enumerate() {
        let id = id_of[gen_idx];
        shuffled[id as usize] = (x, y);
        membership[gen_idx / per_cluster].push(id);
    }
    Ok((Arc::new(EuclideanMetric::plane(&shuffled)?), membership))
}

/// Samples request locations: `n` point ids, either uniform over the space
/// or biased toward `hotspots` (Zipf over a random permutation of points).
///
/// The Zipf branch evaluates one `powf` per point, into a weight table
/// that the normaliser and every draw's inverse-CDF walk then read: each
/// draw subtracts the weights in rank order from a uniform fraction of
/// their sum until it reaches zero.
pub fn sample_locations<R: Rng>(
    num_points: usize,
    n: usize,
    hotspot_alpha: f64,
    rng: &mut R,
) -> Vec<u32> {
    if hotspot_alpha <= 0.0 {
        return (0..n)
            .map(|_| rng.gen_range(0..num_points as u32))
            .collect();
    }
    // Zipf over a shuffled identity so hotspots are arbitrary points.
    let mut perm: Vec<u32> = (0..num_points as u32).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let weight: Vec<f64> = (1..=num_points)
        .map(|i| (i as f64).powf(-hotspot_alpha))
        .collect();
    let z: f64 = weight.iter().sum();
    (0..n)
        .map(|_| {
            let mut u = rng.gen::<f64>() * z;
            for (&w, &p) in weight.iter().zip(&perm) {
                u -= w;
                if u <= 0.0 {
                    return p;
                }
            }
            perm[num_points - 1]
        })
        .collect()
}

/// Locations for a *drifting* hotspot: request `i` is drawn near an anchor
/// that moves linearly across the point-id range over the sequence, with a
/// triangular spread of relative width `width` (fraction of the id range).
///
/// On metrics whose point ids are spatially ordered (sorted lines, grids,
/// dyadic lines) this models a demand distribution whose mode migrates —
/// the non-stationary regime where early facility commitments go stale.
pub fn sample_locations_drift<R: Rng>(
    num_points: usize,
    n: usize,
    width: f64,
    rng: &mut R,
) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    let top = (num_points - 1) as f64;
    (0..n)
        .map(|i| {
            let anchor = if n <= 1 {
                0.0
            } else {
                top * i as f64 / (n - 1) as f64
            };
            // Triangular offset: sum of two uniforms, centered.
            let off = (rng.gen::<f64>() + rng.gen::<f64>() - 1.0) * width * num_points as f64;
            (anchor + off).round().clamp(0.0, top) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omfl_metric::validate::check_axioms_sampled;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_line_is_sorted_and_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_line(50, 100.0, &mut rng).unwrap();
        assert_eq!(m.len(), 50);
        check_axioms_sampled(m.as_ref(), 2_000, 9).unwrap();
    }

    #[test]
    fn clustered_plane_has_expected_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = clustered_plane(4, 10, 100.0, 2.0, &mut rng).unwrap();
        assert_eq!(m.len(), 40);
        check_axioms_sampled(m.as_ref(), 2_000, 9).unwrap();
    }

    #[test]
    fn random_network_is_connected_metric() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = random_network(30, 20, 1.0, &mut rng).unwrap();
        assert_eq!(m.len(), 30);
        check_axioms_sampled(m.as_ref(), 2_000, 9).unwrap();
    }

    #[test]
    fn random_network_single_node() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = random_network(1, 0, 1.0, &mut rng).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn locations_in_range_and_hotspots_bias() {
        let mut rng = StdRng::seed_from_u64(5);
        let uniform = sample_locations(100, 500, 0.0, &mut rng);
        assert!(uniform.iter().all(|&p| p < 100));
        let hot = sample_locations(100, 500, 1.5, &mut rng);
        assert!(hot.iter().all(|&p| p < 100));
        // Hotspot sampling concentrates: the most common point should
        // appear much more often than 1% of the time.
        let mut counts = [0u32; 100];
        for &p in &hot {
            counts[p as usize] += 1;
        }
        let max = counts.iter().max().copied().unwrap();
        assert!(
            max >= 25,
            "hotspot concentration too weak: max count {max}/500"
        );
    }

    #[test]
    fn grid_plane_is_a_valid_metric() {
        let m = grid_plane(4, 3, 2.0).unwrap();
        assert_eq!(m.len(), 12);
        // Row-major ids: neighbours in a row are `spacing` apart.
        use omfl_metric::PointId;
        assert!((m.distance(PointId(0), PointId(1)) - 2.0).abs() < 1e-12);
        assert!((m.distance(PointId(0), PointId(4)) - 2.0).abs() < 1e-12);
        check_axioms_sampled(m.as_ref(), 1_000, 9).unwrap();
    }

    #[test]
    fn drift_locations_migrate_across_the_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let locs = sample_locations_drift(100, 400, 0.05, &mut rng);
        assert!(locs.iter().all(|&p| p < 100));
        // The first quarter of the stream should live near the low ids and
        // the last quarter near the high ids.
        let head: f64 = locs[..100].iter().map(|&p| p as f64).sum::<f64>() / 100.0;
        let tail: f64 = locs[300..].iter().map(|&p| p as f64).sum::<f64>() / 100.0;
        assert!(
            head < 35.0 && tail > 65.0,
            "drift not visible: head mean {head}, tail mean {tail}"
        );
    }

    #[test]
    fn drift_and_zipf_over_no_points_and_no_requests_are_empty() {
        let mut rng = StdRng::seed_from_u64(8);
        assert!(sample_locations_drift(0, 0, 0.1, &mut rng).is_empty());
        assert!(sample_locations(0, 0, 0.0, &mut rng).is_empty());
        assert!(sample_locations(0, 0, 1.0, &mut rng).is_empty());
    }

    /// The Zipf branch of [`sample_locations`] as it was before the weight
    /// table: one `powf` per visited rank of every draw.
    fn zipf_per_draw_powf<R: Rng>(
        num_points: usize,
        n: usize,
        alpha: f64,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..num_points as u32).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let z: f64 = (1..=num_points).map(|i| (i as f64).powf(-alpha)).sum();
        (0..n)
            .map(|_| {
                let mut u = rng.gen::<f64>() * z;
                for (i, &p) in perm.iter().enumerate() {
                    u -= ((i + 1) as f64).powf(-alpha);
                    if u <= 0.0 {
                        return p;
                    }
                }
                perm[num_points - 1]
            })
            .collect()
    }

    #[test]
    fn zipf_sampler_matches_the_per_draw_powf_walk() {
        for alpha in [0.3, 0.5, 1.0, 1.1, 2.0] {
            for (num_points, draws) in [
                (0, 0),
                (7, 0),
                (1, 500),
                (2, 500),
                (7, 500),
                (100, 500),
                (4096, 500),
                (16384, 500),
            ] {
                for seed in 0..20u64 {
                    let mut got_rng = StdRng::seed_from_u64(seed);
                    let mut want_rng = StdRng::seed_from_u64(seed);
                    let got = sample_locations(num_points, draws, alpha, &mut got_rng);
                    let want = zipf_per_draw_powf(num_points, draws, alpha, &mut want_rng);
                    let case =
                        format!("alpha {alpha}, {num_points} points, {draws} draws, seed {seed}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(
                        got_rng.gen::<u64>(),
                        want_rng.gen::<u64>(),
                        "RNG state, {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = {
            let mut rng = StdRng::seed_from_u64(7);
            sample_locations(50, 100, 1.0, &mut rng)
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(7);
            sample_locations(50, 100, 1.0, &mut rng)
        };
        assert_eq!(a, b);
    }
}
