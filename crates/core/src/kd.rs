//! A deterministic kd-tree over a metric's coordinate embedding.
//!
//! Built from [`omfl_metric::KdCoords`], this serves the opening-target
//! index's **ball ingest** only: true nearest-neighbor balls for the block
//! layout. The windowed grouping it replaces (`BALL_WINDOW`) could only
//! pick ball members from the next 256 points of the coherent order, so a
//! seed whose real neighbors sat beyond the window got a needlessly fat
//! covering radius. [`KdTree::nearest_alive`] finds the exact `k` nearest
//! *unassigned* points under a total `(distance, seed-rank)` order, so the
//! ingest result is deterministic — a pure function of the coordinates and
//! the seed order, independent of traversal. The tree lives only while
//! `SpatialLayout::from_order` builds the layout: once the balls are
//! grouped and the layout has copied its coordinates, it is dropped.
//!
//! Each internal node splits its points at the median of its widest
//! bounding-box axis under the total order `(coordinate, point id)`. The
//! median is found by selection, not by sorting the node, so a level costs
//! linear time and the build `O(n log n)`. Because ids break every tie, the
//! split is the one a full sort would make: each node's point set, range
//! and box, and so every leaf's membership, are pure functions of the
//! coordinates. Only the order of the points inside a leaf is left to the
//! selection, and no result reads it: [`KdTree::nearest_alive`] returns the
//! top-k under `(distance, seed-rank)`, a total order because seed ranks
//! are distinct, whatever order it meets the points in.
//!
//! Distances here are the ascending-axis L2 fold over the embedding — the
//! exact fold `EuclideanMetric::distance` performs, so for `isometric`
//! embeddings the tree's distances are bit-identical to the metric's.
//! Non-isometric embeddings may only be used where any deterministic
//! partition is acceptable (ball ingest), never for distance values.

/// Leaf bucket size: small enough to keep box bounds tight, large enough
/// that the per-node overhead stays negligible.
const LEAF: usize = 16;

const NO_NODE: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    /// `idx[lo..hi]` are the points under this node.
    lo: u32,
    hi: u32,
    /// Children (`NO_NODE` for leaves).
    left: u32,
    right: u32,
    parent: u32,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct KdTree {
    dim: usize,
    /// Row-major embedding, `n * dim`.
    coords: Vec<f64>,
    nodes: Vec<Node>,
    /// Point ids, permuted so every node owns a contiguous range.
    idx: Vec<u32>,
    /// Per-node axis-aligned bounding box: `[node * 2dim .. +dim]` the low
    /// corner, then the high corner.
    bbox: Vec<f64>,
    /// Point id → leaf node (for the alive-count walk).
    leaf_of: Vec<u32>,
    /// Per-node count of not-yet-deactivated points (ingest bookkeeping;
    /// starts at the subtree size, monotonically decreases).
    alive: Vec<u32>,
}

impl KdTree {
    /// Builds the tree in `O(n log n)`. `coords` is row-major with `dim`
    /// axes per point. Deterministic: the split axis is the widest
    /// bounding-box extent (lowest axis on ties), and the left child takes
    /// the `⌊len/2⌋` smallest points under `(coordinate, point id)`,
    /// selected rather than sorted (see the module docs).
    pub(crate) fn build(coords: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0 && !coords.is_empty() && coords.len().is_multiple_of(dim));
        let n = coords.len() / dim;
        let mut tree = Self {
            dim,
            coords,
            nodes: Vec::new(),
            idx: (0..n as u32).collect(),
            bbox: Vec::new(),
            leaf_of: vec![NO_NODE; n],
            alive: Vec::new(),
        };
        tree.split_range(0, n, NO_NODE);
        for (node, meta) in tree.nodes.iter().enumerate() {
            if meta.left == NO_NODE {
                for &p in &tree.idx[meta.lo as usize..meta.hi as usize] {
                    tree.leaf_of[p as usize] = node as u32;
                }
            }
        }
        tree
    }

    /// The embedding row of point `p`.
    #[inline]
    pub(crate) fn point(&self, p: u32) -> &[f64] {
        let base = p as usize * self.dim;
        &self.coords[base..base + self.dim]
    }

    /// Ascending-axis L2 fold — the `EuclideanMetric::distance` operation
    /// sequence, hence bit-identical to it on isometric embeddings.
    #[inline]
    fn dist(&self, q: &[f64], p: u32) -> f64 {
        let row = self.point(p);
        let mut acc = 0.0f64;
        for (a, b) in q.iter().zip(row) {
            let d = a - b;
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Recursively builds the node over `idx[lo..hi]`; returns its index.
    fn split_range(&mut self, lo: usize, hi: usize, parent: u32) -> u32 {
        let node = self.nodes.len() as u32;
        self.nodes.push(Node {
            lo: lo as u32,
            hi: hi as u32,
            left: NO_NODE,
            right: NO_NODE,
            parent,
        });
        self.alive.push((hi - lo) as u32);
        // Bounding box over the range.
        let base = self.bbox.len();
        self.bbox
            .extend(std::iter::repeat_n(f64::INFINITY, self.dim));
        self.bbox
            .extend(std::iter::repeat_n(f64::NEG_INFINITY, self.dim));
        for &p in &self.idx[lo..hi] {
            for axis in 0..self.dim {
                let c = self.coords[p as usize * self.dim + axis];
                let lo_slot = &mut self.bbox[base + axis];
                *lo_slot = lo_slot.min(c);
                let hi_slot = &mut self.bbox[base + self.dim + axis];
                *hi_slot = hi_slot.max(c);
            }
        }
        if hi - lo > LEAF {
            // Widest extent wins; ties break to the lowest axis, so the
            // structure is a pure function of the coordinates.
            let mut axis = 0;
            let mut widest = f64::NEG_INFINITY;
            for a in 0..self.dim {
                let w = self.bbox[base + self.dim + a] - self.bbox[base + a];
                if w > widest {
                    widest = w;
                    axis = a;
                }
            }
            let dim = self.dim;
            let coords = &self.coords;
            let mid = lo + (hi - lo) / 2;
            self.idx[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
                coords[a as usize * dim + axis]
                    .partial_cmp(&coords[b as usize * dim + axis])
                    .expect("finite coordinates")
                    .then(a.cmp(&b))
            });
            let left = self.split_range(lo, mid, node);
            let right = self.split_range(mid, hi, node);
            self.nodes[node as usize].left = left;
            self.nodes[node as usize].right = right;
        }
        node
    }

    /// Lower bound on the distance from `q` to any point in `node`'s box
    /// (same fold shape as [`KdTree::dist`], so it never exceeds any member
    /// distance by more than the shared rounding — compared strictly, see
    /// the call sites).
    #[inline]
    fn box_dist(&self, node: u32, q: &[f64]) -> f64 {
        let base = node as usize * 2 * self.dim;
        let mut acc = 0.0f64;
        for (axis, &c) in q.iter().enumerate() {
            let lo = self.bbox[base + axis];
            let hi = self.bbox[base + self.dim + axis];
            let d = if c < lo {
                lo - c
            } else if c > hi {
                c - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Marks `p` assigned: decrements alive counts on its leaf-to-root path.
    pub(crate) fn deactivate(&mut self, p: u32) {
        let mut node = self.leaf_of[p as usize];
        while node != NO_NODE {
            debug_assert!(self.alive[node as usize] > 0);
            self.alive[node as usize] -= 1;
            node = self.nodes[node as usize].parent;
        }
    }

    /// The `k` alive points nearest to `q` under the total order
    /// `(distance, rank[p])` — an exact top-k, independent of traversal
    /// order: a subtree is pruned only when its box bound *strictly*
    /// exceeds the current k-th distance, which proves every point in it
    /// strictly worse. Fewer than `k` alive points returns all of them.
    /// Results land in `out`, sorted ascending by the order key.
    pub(crate) fn nearest_alive(
        &self,
        q: &[f64],
        k: usize,
        rank: &[u32],
        out: &mut Vec<(f64, u32, u32)>,
    ) {
        out.clear();
        if k == 0 || self.nodes.is_empty() {
            return;
        }
        self.knn_node(0, q, k, rank, out);
    }

    fn knn_node(
        &self,
        node: u32,
        q: &[f64],
        k: usize,
        rank: &[u32],
        out: &mut Vec<(f64, u32, u32)>,
    ) {
        let meta = &self.nodes[node as usize];
        if self.alive[node as usize] == 0 {
            return;
        }
        if out.len() == k && self.box_dist(node, q) > out[k - 1].0 {
            return;
        }
        if meta.left == NO_NODE {
            for &p in &self.idx[meta.lo as usize..meta.hi as usize] {
                if rank[p as usize] == u32::MAX {
                    continue; // assigned (rank doubles as the alive flag)
                }
                let d = self.dist(q, p);
                let key = (d, rank[p as usize], p);
                if out.len() == k {
                    let worst = (out[k - 1].0, out[k - 1].1);
                    if (key.0, key.1) >= worst {
                        continue;
                    }
                    out.pop();
                }
                let at = out.partition_point(|e| (e.0, e.1) < (key.0, key.1));
                out.insert(at, key);
            }
            return;
        }
        // Nearer child first: pure pruning heuristic, the (dist, rank)
        // top-k is traversal-invariant.
        let (l, r) = (meta.left, meta.right);
        let (dl, dr) = (self.box_dist(l, q), self.box_dist(r, q));
        let (first, second) = if dl <= dr { (l, r) } else { (r, l) };
        self.knn_node(first, q, k, rank, out);
        self.knn_node(second, q, k, rank, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, dim: usize, salt: u64) -> Vec<f64> {
        let mut st = 0x0DD5EED ^ salt;
        (0..n * dim)
            .map(|_| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                ((st % 10000) as f64 - 5000.0) * 0.01
            })
            .collect()
    }

    fn brute_knn(
        coords: &[f64],
        dim: usize,
        q: &[f64],
        k: usize,
        rank: &[u32],
    ) -> Vec<(f64, u32, u32)> {
        let n = coords.len() / dim;
        let mut all: Vec<(f64, u32, u32)> = (0..n as u32)
            .filter(|&p| rank[p as usize] != u32::MAX)
            .map(|p| {
                let mut acc = 0.0f64;
                for axis in 0..dim {
                    let d = q[axis] - coords[p as usize * dim + axis];
                    acc += d * d;
                }
                (acc.sqrt(), rank[p as usize], p)
            })
            .collect();
        all.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force_under_deletions() {
        for dim in [1usize, 2, 3] {
            let coords = cloud(230, dim, dim as u64);
            let mut tree = KdTree::build(coords.clone(), dim);
            // Ranks: a fixed shuffle of 0..n, u32::MAX marks deleted.
            let n = 230u32;
            let mut rank: Vec<u32> = (0..n).map(|p| (p * 73) % n).collect();
            for probe in 0..24u32 {
                let q: Vec<f64> = tree.point((probe * 9) % n).to_vec();
                let mut got = Vec::new();
                tree.nearest_alive(&q, 7, &rank, &mut got);
                let want = brute_knn(&coords, dim, &q, 7, &rank);
                assert_eq!(got, want, "dim {dim}, probe {probe}");
                // Delete the found points, as the ball ingest does.
                for &(_, _, p) in &got {
                    rank[p as usize] = u32::MAX;
                    tree.deactivate(p);
                }
            }
        }
    }

    /// Pins the partition a full sort of every node produces: each box is
    /// the exact bounding box of its node's points, and each internal node
    /// splits on its widest box extent (lowest axis on ties), handing the
    /// `⌊len/2⌋` smallest points under `(coordinate, id)` to its left
    /// child. Ids make that order total, so these facts fix every node's
    /// point set, whatever the build leaves inside the leaves.
    #[test]
    fn every_split_takes_the_median_of_the_widest_axis() {
        let mut clouds = Vec::new();
        for dim in 1..=3usize {
            clouds.push((dim, cloud(700, dim, 40 + dim as u64)));
            // Rounded onto a coarse lattice, many points coincide.
            let coarse = cloud(333, dim, 50 + dim as u64)
                .into_iter()
                .map(|c| (c / 10.0).round())
                .collect();
            clouds.push((dim, coarse));
        }
        clouds.push((2, vec![2.5; 2 * 90]));
        for (dim, coords) in clouds {
            let n = coords.len() / dim;
            let tree = KdTree::build(coords.clone(), dim);
            let mut seen = vec![false; n];
            for (node, meta) in tree.nodes.iter().enumerate() {
                let (lo, hi) = (meta.lo as usize, meta.hi as usize);
                let pts = &tree.idx[lo..hi];
                let bbox = &tree.bbox[node * 2 * dim..(node + 1) * 2 * dim];
                for axis in 0..dim {
                    let values = pts.iter().map(|&p| coords[p as usize * dim + axis]);
                    let low = values.clone().fold(f64::INFINITY, f64::min);
                    let high = values.fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!((bbox[axis], bbox[dim + axis]), (low, high), "node {node}");
                }
                if meta.left == NO_NODE {
                    assert!(pts.len() <= LEAF, "node {node}");
                    for &p in pts {
                        assert!(!seen[p as usize], "point {p} in two leaves");
                        seen[p as usize] = true;
                        assert_eq!(tree.leaf_of[p as usize], node as u32);
                    }
                    continue;
                }
                assert!(pts.len() > LEAF, "node {node}");
                let extent = |a: usize| bbox[dim + a] - bbox[a];
                let axis = (0..dim).fold(0, |w, a| if extent(a) > extent(w) { a } else { w });
                let key = |p: u32| (coords[p as usize * dim + axis], p);
                let mid = lo + pts.len() / 2;
                let (left, right) = (
                    &tree.nodes[meta.left as usize],
                    &tree.nodes[meta.right as usize],
                );
                assert_eq!(
                    (left.lo as usize, left.hi as usize),
                    (lo, mid),
                    "node {node}"
                );
                assert_eq!(
                    (right.lo as usize, right.hi as usize),
                    (mid, hi),
                    "node {node}"
                );
                assert_eq!((left.parent, right.parent), (node as u32, node as u32));
                let by_key = |a: &u32, b: &u32| key(*a).partial_cmp(&key(*b)).unwrap();
                let mut sorted = pts.to_vec();
                sorted.sort_by(by_key);
                let mut got_left = tree.idx[lo..mid].to_vec();
                got_left.sort_by(by_key);
                assert_eq!(got_left, sorted[..mid - lo], "node {node}");
                let last_left = key(sorted[mid - lo - 1]);
                assert!(
                    tree.idx[mid..hi].iter().all(|&p| key(p) > last_left),
                    "node {node}: a right-child point precedes a left-child point"
                );
            }
            assert!(seen.iter().all(|&s| s), "every point sits in a leaf");
        }
    }

    #[test]
    fn build_handles_duplicates_and_tiny_inputs() {
        // All-coincident points must still split (ids break ties).
        let coords = vec![1.0; 40 * 2];
        let tree = KdTree::build(coords, 2);
        let rank = vec![0u32; 40];
        let mut got = Vec::new();
        tree.nearest_alive(&[1.0, 1.0], 40, &rank, &mut got);
        assert_eq!(got.len(), 40);
        let one = KdTree::build(vec![3.5], 1);
        let rank = vec![0u32];
        let mut out = Vec::new();
        one.nearest_alive(&[0.0], 4, &rank, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2, 0);
    }
}
