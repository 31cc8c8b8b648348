//! Shortest-path metrics on weighted trees.
//!
//! Tree metrics matter for OMFLP because hierarchical facility cost models
//! (Svitkina–Tardos, discussed in the paper's related work) and many network
//! topologies are trees. Distances are answered in O(log n)-ish time via
//! binary-lifting LCA over root distances, without materializing the O(n²)
//! matrix.

use crate::{check_finite, check_finite_nonneg, Metric, MetricError, PointId};

/// A rooted weighted tree with distances `d(a,b) = depth(a) + depth(b) −
/// 2·depth(lca(a,b))`.
#[derive(Debug, Clone)]
pub struct TreeMetric {
    parent: Vec<Vec<u32>>, // parent[k][v] = 2^k-th ancestor of v
    depth_hops: Vec<u32>,  // depth in edges
    depth_w: Vec<f64>,     // weighted distance from root
    /// DFS preorder from the root (subtrees contiguous), recorded during
    /// construction for [`Metric::coherent_order`].
    preorder: Vec<u32>,
    n: usize,
}

impl TreeMetric {
    /// Builds from `parents[v] = Some((parent, weight))` for every non-root
    /// node; exactly one node must be the root (`None`). Rejects weights
    /// whose root distances reach a depth `D` with `2·D` not finite, which
    /// would make some distance infinite.
    pub fn new(parents: &[Option<(u32, f64)>]) -> Result<Self, MetricError> {
        let n = parents.len();
        if n == 0 {
            return Err(MetricError::Empty);
        }
        let mut root = None;
        for (v, p) in parents.iter().enumerate() {
            match p {
                None => {
                    if root.replace(v as u32).is_some() {
                        return Err(MetricError::Malformed("multiple roots".into()));
                    }
                }
                Some((pv, w)) => {
                    if *pv as usize >= n {
                        return Err(MetricError::PointOutOfRange { point: *pv, len: n });
                    }
                    if *pv as usize == v {
                        return Err(MetricError::Malformed(format!(
                            "node {v} is its own parent"
                        )));
                    }
                    check_finite_nonneg(*w, format_args!("weight({v})"))?;
                }
            }
        }
        let root = root.ok_or_else(|| MetricError::Malformed("no root".into()))?;

        // Topological order from the root; detects cycles / disconnection.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, p) in parents.iter().enumerate() {
            if let Some((pv, _)) = p {
                children[*pv as usize].push(v as u32);
            }
        }
        let mut depth_hops = vec![u32::MAX; n];
        let mut depth_w = vec![0.0; n];
        let mut stack = vec![root];
        depth_hops[root as usize] = 0;
        let mut seen = 1usize;
        let mut preorder = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            preorder.push(u);
            for &c in &children[u as usize] {
                if depth_hops[c as usize] != u32::MAX {
                    return Err(MetricError::Malformed(format!("cycle through node {c}")));
                }
                depth_hops[c as usize] = depth_hops[u as usize] + 1;
                let w = parents[c as usize].expect("non-root has parent").1;
                depth_w[c as usize] = depth_w[u as usize] + w;
                stack.push(c);
                seen += 1;
            }
        }
        if seen != n {
            return Err(MetricError::Malformed(
                "tree is disconnected (some nodes unreachable from the root)".into(),
            ));
        }
        // Every `depth(a) + depth(b)` term rounds to at most twice the
        // largest depth.
        let deepest = (0..n)
            .max_by(|&a, &b| depth_w[a].total_cmp(&depth_w[b]))
            .unwrap_or(0);
        check_finite(2.0 * depth_w[deepest], format_args!("2·depth({deepest})"))?;

        // Binary lifting table.
        let max_depth = depth_hops.iter().copied().max().unwrap_or(0);
        let levels = (32 - max_depth.leading_zeros()).max(1) as usize;
        let mut parent_tbl = vec![vec![root; n]; levels];
        for (v, par) in parents.iter().enumerate() {
            parent_tbl[0][v] = match par {
                Some((p, _)) => *p,
                None => root,
            };
        }
        for k in 1..levels {
            for v in 0..n {
                let half = parent_tbl[k - 1][v];
                parent_tbl[k][v] = parent_tbl[k - 1][half as usize];
            }
        }
        Ok(Self {
            parent: parent_tbl,
            depth_hops,
            depth_w,
            preorder,
            n,
        })
    }

    /// A path (caterpillar spine) of `n` nodes with the given edge weights
    /// (`weights.len() == n − 1`).
    pub fn path(weights: &[f64]) -> Result<Self, MetricError> {
        let n = weights.len() + 1;
        let mut parents = vec![None; n];
        for (i, &w) in weights.iter().enumerate() {
            parents[i + 1] = Some((i as u32, w));
        }
        Self::new(&parents)
    }

    /// A complete binary tree of the given number of nodes, unit weights,
    /// node 0 as root.
    pub fn complete_binary(n: usize) -> Result<Self, MetricError> {
        let mut parents = vec![None; n.max(1)];
        for (v, p) in parents.iter_mut().enumerate().skip(1) {
            *p = Some((((v - 1) / 2) as u32, 1.0));
        }
        Self::new(&parents)
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: PointId, b: PointId) -> PointId {
        let (mut u, mut v) = (a.0, b.0);
        if self.depth_hops[u as usize] < self.depth_hops[v as usize] {
            std::mem::swap(&mut u, &mut v);
        }
        // Lift u to v's depth.
        let mut diff = self.depth_hops[u as usize] - self.depth_hops[v as usize];
        let mut k = 0;
        while diff > 0 {
            if diff & 1 == 1 {
                u = self.parent[k][u as usize];
            }
            diff >>= 1;
            k += 1;
        }
        if u == v {
            return PointId(u);
        }
        for k in (0..self.parent.len()).rev() {
            if self.parent[k][u as usize] != self.parent[k][v as usize] {
                u = self.parent[k][u as usize];
                v = self.parent[k][v as usize];
            }
        }
        PointId(self.parent[0][u as usize])
    }
}

impl Metric for TreeMetric {
    fn len(&self) -> usize {
        self.n
    }

    fn distance(&self, a: PointId, b: PointId) -> f64 {
        let l = self.lca(a, b);
        self.depth_w[a.index()] + self.depth_w[b.index()] - 2.0 * self.depth_w[l.index()]
    }

    /// DFS preorder: a subtree occupies a contiguous run, so runs of the
    /// order stay within few tree edges of each other.
    fn coherent_order(&self) -> Option<Vec<u32>> {
        Some(self.preorder.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_distances() {
        let m = TreeMetric::path(&[1.0, 2.0, 4.0]).unwrap();
        assert!((m.distance(PointId(0), PointId(3)) - 7.0).abs() < 1e-12);
        assert!((m.distance(PointId(1), PointId(3)) - 6.0).abs() < 1e-12);
        assert_eq!(m.distance(PointId(2), PointId(2)), 0.0);
    }

    #[test]
    fn lca_in_binary_tree() {
        //        0
        //      1   2
        //    3  4 5  6
        let m = TreeMetric::complete_binary(7).unwrap();
        assert_eq!(m.lca(PointId(3), PointId(4)), PointId(1));
        assert_eq!(m.lca(PointId(3), PointId(6)), PointId(0));
        assert_eq!(m.lca(PointId(5), PointId(2)), PointId(2));
        assert!((m.distance(PointId(3), PointId(4)) - 2.0).abs() < 1e-12);
        assert!((m.distance(PointId(3), PointId(6)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn matches_graph_metric_on_same_tree() {
        let parents = vec![
            None,
            Some((0, 1.5)),
            Some((0, 2.0)),
            Some((1, 0.5)),
            Some((1, 3.0)),
            Some((2, 1.0)),
        ];
        let tm = TreeMetric::new(&parents).unwrap();
        let edges: Vec<(u32, u32, f64)> = parents
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|(pv, w)| (v as u32, pv, w)))
            .collect();
        let gm = crate::graph::GraphMetric::from_edges(6, &edges).unwrap();
        for a in tm.points() {
            for b in tm.points() {
                assert!(
                    (tm.distance(a, b) - gm.distance(a, b)).abs() < 1e-9,
                    "mismatch at ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn rejects_multiple_roots_no_root_cycle() {
        assert!(matches!(
            TreeMetric::new(&[None, None]),
            Err(MetricError::Malformed(_))
        ));
        assert!(matches!(
            TreeMetric::new(&[Some((1, 1.0)), Some((0, 1.0))]),
            Err(MetricError::Malformed(_))
        ));
        // Cycle among non-roots: 1 -> 2 -> 1, root 0 separate.
        assert!(matches!(
            TreeMetric::new(&[None, Some((2, 1.0)), Some((1, 1.0))]),
            Err(MetricError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_depths_whose_distances_overflow() {
        let err = TreeMetric::new(&[None, Some((0, 1e308)), Some((0, 1e308))]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid numeric value: 2·depth(2) = inf is not finite"
        );
        let m = TreeMetric::new(&[None, Some((0, 8e307)), Some((0, 8e307))]).unwrap();
        assert!(m.distance(PointId(1), PointId(2)).is_finite());
    }

    #[test]
    fn single_node_tree() {
        let m = TreeMetric::new(&[None]).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.distance(PointId(0), PointId(0)), 0.0);
    }
}
