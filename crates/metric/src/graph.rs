//! Shortest-path metrics over weighted undirected graphs.
//!
//! This is the substrate for the paper's motivating scenario: "a provider of
//! services in a network infrastructure" (§1). Points are network nodes and
//! the metric is the shortest-path closure, computed once at construction
//! via Dijkstra from every node (CSR adjacency, one indexed 4-ary heap with
//! decrease-key shared by all sources, each source's labels written straight
//! into its row of the closure).

use crate::{check_finite, check_finite_nonneg, Metric, MetricError, PointId};

/// A weighted undirected graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Neighbor node ids.
    targets: Vec<u32>,
    /// Edge weights, parallel to `targets`.
    weights: Vec<f64>,
    n: usize,
}

impl Graph {
    /// Builds a graph from an undirected edge list `(u, v, w)`.
    ///
    /// Self-loops are rejected; parallel edges are allowed (the lighter one
    /// wins implicitly during shortest-path computation).
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Result<Self, MetricError> {
        if n == 0 {
            return Err(MetricError::Empty);
        }
        let mut degree = vec![0u32; n];
        for &(u, v, w) in edges {
            for x in [u, v] {
                if x as usize >= n {
                    return Err(MetricError::PointOutOfRange { point: x, len: n });
                }
            }
            if u == v {
                return Err(MetricError::Malformed(format!("self-loop at node {u}")));
            }
            check_finite_nonneg(w, format_args!("weight({u},{v})"))?;
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let m2 = edges.len() * 2;
        let mut targets = vec![0u32; m2];
        let mut weights = vec![0.0f64; m2];
        let mut cursor = offsets.clone();
        for &(u, v, w) in edges {
            for (a, b) in [(u, v), (v, u)] {
                let slot = cursor[a as usize] as usize;
                targets[slot] = b;
                weights[slot] = w;
                cursor[a as usize] += 1;
            }
        }
        Ok(Self {
            offsets,
            targets,
            weights,
            n,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// The smallest node with no path from node 0, if any: one traversal
    /// of the edges, so path sums (which may overflow) play no part.
    fn first_unreachable(&self) -> Option<u32> {
        let mut reached = vec![false; self.n];
        reached[0] = true;
        let mut stack = vec![0u32];
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !reached[v as usize] {
                    reached[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        reached.iter().position(|&r| !r).map(|t| t as u32)
    }

    /// Single-source shortest paths (Dijkstra). `f64::INFINITY` marks
    /// unreachable nodes.
    pub fn dijkstra(&self, source: u32) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; self.n];
        self.dijkstra_into(source, &mut dist, &mut DijkstraHeap::new(self.n));
        dist
    }

    /// Dijkstra from `source` into `row` (length `n`), which it overwrites.
    /// `heap` must be empty, and is empty again on return, so one heap
    /// serves every source of a closure.
    ///
    /// Weights are finite and non-negative, so every label is a sum
    /// `≥ +0.0` (a `-0.0` weight adds to `+0.0`) and its bit pattern
    /// orders like its value. Each node is queued at most once and a
    /// shorter label lowers its key in place. Whatever the pop order among
    /// equal keys, each node ends with the least left-to-right
    /// floating-point sum over its paths from `source`.
    fn dijkstra_into(&self, source: u32, row: &mut [f64], heap: &mut DijkstraHeap) {
        row.fill(f64::INFINITY);
        row[source as usize] = 0.0;
        heap.push_or_decrease(source, 0.0f64.to_bits());
        while let Some((key, u)) = heap.pop() {
            let d = f64::from_bits(key);
            for (v, w) in self.neighbors(u) {
                let nd = d + w;
                if nd < row[v as usize] {
                    row[v as usize] = nd;
                    heap.push_or_decrease(v, nd.to_bits());
                }
            }
        }
    }
}

/// Marks a node that is not in a [`DijkstraHeap`].
const NOT_QUEUED: u32 = u32::MAX;

/// An indexed 4-ary min-heap of `(key, node)` with decrease-key. A key is
/// a non-negative label's `f64` bits, so keys compare as `u64`.
struct DijkstraHeap {
    /// The queued `(key, node)` pairs in heap order.
    entries: Vec<(u64, u32)>,
    /// `slot[v]`: the position of node `v` in `entries`, or [`NOT_QUEUED`].
    slot: Vec<u32>,
}

impl DijkstraHeap {
    fn new(n: usize) -> Self {
        Self {
            entries: Vec::with_capacity(n),
            slot: vec![NOT_QUEUED; n],
        }
    }

    /// Queues `node` with `key`, or lowers its key if it is queued; `key`
    /// is never above a queued node's current key.
    fn push_or_decrease(&mut self, node: u32, key: u64) {
        let mut i = self.slot[node as usize] as usize;
        if i == NOT_QUEUED as usize {
            i = self.entries.len();
            self.entries.push((key, node));
        }
        while i > 0 {
            let parent = (i - 1) / 4;
            let above = self.entries[parent];
            if above.0 <= key {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, (key, node));
    }

    /// Removes and returns a least-key entry.
    fn pop(&mut self) -> Option<(u64, u32)> {
        let top = *self.entries.first()?;
        self.slot[top.1 as usize] = NOT_QUEUED;
        let last = self.entries.pop()?;
        let len = self.entries.len();
        if len == 0 {
            return Some(top);
        }
        // Sift `last` down from the root. The smallest child key stays in
        // a local, not re-read from `entries` at each comparison.
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let (mut best, mut best_key) = (first, self.entries[first].0);
            for c in first + 1..(first + 4).min(len) {
                let k = self.entries[c].0;
                if k < best_key {
                    (best, best_key) = (c, k);
                }
            }
            if last.0 <= best_key {
                break;
            }
            self.place(i, self.entries[best]);
            i = best;
        }
        self.place(i, last);
        Some(top)
    }

    /// Writes `entry` at position `i` and records the node's slot.
    fn place(&mut self, i: usize, entry: (u64, u32)) {
        self.entries[i] = entry;
        self.slot[entry.1 as usize] = i as u32;
    }
}

/// The shortest-path metric of a connected weighted graph.
///
/// All-pairs distances are materialized at construction, giving O(1)
/// queries thereafter: `n` Dijkstra runs, O(n·m·log n) time, each writing
/// its labels straight into its row of the `n²` closure through one
/// indexed heap, with no allocation per source. Construction is nearly
/// all of the set-up of a graph workload (about 1.5 s for 4,096 nodes on
/// one core of a 2-vCPU VM), and every later read is a lookup.
#[derive(Debug, Clone)]
pub struct GraphMetric {
    apsp: Vec<f64>,
    n: usize,
    /// Greedy nearest-neighbor chain over the closure (see
    /// [`Metric::coherent_order`]); precomputed here because consumers ask
    /// per engine construction and the `O(n²)` walk belongs with the other
    /// one-time closure work, not on any measured path.
    coherent: Vec<u32>,
}

impl GraphMetric {
    /// Computes the metric closure of `graph`. Fails with
    /// [`MetricError::Disconnected`] (from node 0 to the smallest node it
    /// cannot reach) if the graph is disconnected, and with
    /// [`MetricError::InvalidValue`] (the first pair in row order) if a
    /// shortest-path sum overflows to infinity.
    ///
    /// The closure is **exactly symmetrized**: per-source Dijkstra sums can
    /// disagree between directions in the last ulp (float addition is not
    /// associative along reversed paths), so the upper triangle is copied
    /// over the lower one. The result is still a shortest-path metric to
    /// the same accuracy, is bitwise symmetric — `d(a, b) == d(b, a)`
    /// exactly — and makes a distance *row* equal a distance *column*, so
    /// [`Metric::row`] can lend contiguous memory instead of a
    /// cache-hostile strided gather.
    ///
    /// Every entry is a function of the graph alone, not of the search's
    /// order: with non-negative weights, Dijkstra gives each node the least
    /// left-to-right floating-point sum over its paths from the source,
    /// whichever heap it uses and however it breaks ties. So the closure
    /// (and the error it reports) is bit for bit that of any exact
    /// Dijkstra, which the tests check against the plain binary-heap
    /// search.
    pub fn new(graph: &Graph) -> Result<Self, MetricError> {
        let n = graph.node_count();
        if let Some(to) = graph.first_unreachable() {
            return Err(MetricError::Disconnected { from: 0, to });
        }
        let mut apsp = vec![0.0; n * n];
        let mut heap = DijkstraHeap::new(n);
        for (s, row) in apsp.chunks_exact_mut(n).enumerate() {
            graph.dijkstra_into(s as u32, row, &mut heap);
            // The upper triangle is what the symmetrized closure keeps.
            for (t, &d) in row.iter().enumerate().skip(s + 1) {
                check_finite(d, format_args!("distance({s},{t})"))?;
            }
        }
        Self::mirror_upper(&mut apsp, n);
        let coherent = Self::nearest_neighbor_chain(&apsp, n);
        Ok(Self { apsp, n, coherent })
    }

    /// Copies the upper triangle of the row-major `n × n` matrix over the
    /// lower one in `TILE × TILE` tiles, so the rows read and the columns
    /// written both stay in cache.
    fn mirror_upper(apsp: &mut [f64], n: usize) {
        const TILE: usize = 64;
        for s0 in (0..n).step_by(TILE) {
            for t0 in (s0..n).step_by(TILE) {
                for s in s0..(s0 + TILE).min(n) {
                    for t in t0.max(s + 1)..(t0 + TILE).min(n) {
                        apsp[t * n + s] = apsp[s * n + t];
                    }
                }
            }
        }
    }

    /// Greedy nearest-neighbor chain from node 0: repeatedly append the
    /// unvisited node closest to the last one (ties to the smallest id).
    /// Consecutive ranks are then short hops, so fixed-size runs of the
    /// order have small covering radii — the property block-partitioned
    /// indexes exploit. Deterministic by construction.
    fn nearest_neighbor_chain(apsp: &[f64], n: usize) -> Vec<u32> {
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut cur = 0usize;
        visited[0] = true;
        order.push(0u32);
        for _ in 1..n {
            let row = &apsp[cur * n..(cur + 1) * n];
            let mut best = usize::MAX;
            let mut bd = f64::INFINITY;
            for (t, (&d, &v)) in row.iter().zip(&visited).enumerate() {
                if !v && d < bd {
                    bd = d;
                    best = t;
                }
            }
            visited[best] = true;
            order.push(best as u32);
            cur = best;
        }
        order
    }

    /// Convenience: build straight from an edge list.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Result<Self, MetricError> {
        Self::new(&Graph::from_edges(n, edges)?)
    }

    /// A cycle of `n` nodes with unit edges.
    pub fn ring(n: usize) -> Result<Self, MetricError> {
        if n == 0 {
            return Err(MetricError::Empty);
        }
        if n == 1 {
            return Self::from_edges(1, &[]);
        }
        let mut edges = Vec::with_capacity(n);
        for i in 0..n as u32 {
            edges.push((i, (i + 1) % n as u32, 1.0));
        }
        Self::from_edges(n, &edges)
    }

    /// A star: node 0 is the hub, spokes have the given weight.
    pub fn star(n_leaves: usize, spoke: f64) -> Result<Self, MetricError> {
        let n = n_leaves + 1;
        let edges: Vec<(u32, u32, f64)> = (1..n as u32).map(|i| (0, i, spoke)).collect();
        Self::from_edges(n, &edges)
    }
}

impl Metric for GraphMetric {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn distance(&self, a: PointId, b: PointId) -> f64 {
        self.apsp[a.index() * self.n + b.index()]
    }

    fn row(&self, q: PointId) -> Option<&[f64]> {
        // The closure is exactly symmetric by construction, so the
        // contiguous row q IS the column q.
        let start = q.index() * self.n;
        Some(&self.apsp[start..start + self.n])
    }

    fn coherent_order(&self) -> Option<Vec<u32>> {
        Some(self.coherent.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dijkstra_on_path_graph() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]).unwrap();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 7.0]);
    }

    #[test]
    fn dijkstra_prefers_lighter_parallel_edge() {
        let g = Graph::from_edges(2, &[(0, 1, 5.0), (0, 1, 2.0)]).unwrap();
        assert_eq!(g.dijkstra(0)[1], 2.0);
    }

    #[test]
    fn shortcut_beats_long_path() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.5)]).unwrap();
        let m = GraphMetric::new(&g).unwrap();
        assert!((m.distance(PointId(0), PointId(3)) - 1.5).abs() < 1e-12);
        assert!((m.distance(PointId(0), PointId(2)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_rejected() {
        // The error names node 0 and the smallest node it cannot reach.
        let err = GraphMetric::from_edges(3, &[(0, 1, 1.0)]).unwrap_err();
        assert_eq!(err, MetricError::Disconnected { from: 0, to: 2 });
        let err = GraphMetric::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "graph is disconnected: no path from 0 to 2"
        );
        let err = GraphMetric::from_edges(3, &[(1, 2, 1.0)]).unwrap_err();
        assert_eq!(err, MetricError::Disconnected { from: 0, to: 1 });
    }

    #[test]
    fn overflowing_path_sums_are_not_reported_as_disconnection() {
        // Both graphs are connected; their closures hold a path sum that
        // overflows to infinity.
        let err = GraphMetric::star(2, 1e308).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid numeric value: distance(1,2) = inf is not finite"
        );
        let err = GraphMetric::from_edges(3, &[(0, 1, 1e308), (1, 2, 1e308)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid numeric value: distance(0,2) = inf is not finite"
        );
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(2, &[(0, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, MetricError::Malformed(_)));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = Graph::from_edges(2, &[(0, 5, 1.0)]).unwrap_err();
        assert!(matches!(err, MetricError::PointOutOfRange { .. }));
    }

    #[test]
    fn negative_weight_rejected() {
        let err = Graph::from_edges(2, &[(0, 1, -1.0)]).unwrap_err();
        assert!(matches!(err, MetricError::InvalidValue(_)));
    }

    #[test]
    fn ring_distances_wrap_around() {
        let m = GraphMetric::ring(6).unwrap();
        assert!((m.distance(PointId(0), PointId(3)) - 3.0).abs() < 1e-12);
        assert!((m.distance(PointId(0), PointId(5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_distances() {
        let m = GraphMetric::star(3, 2.0).unwrap();
        assert!((m.distance(PointId(0), PointId(1)) - 2.0).abs() < 1e-12);
        assert!((m.distance(PointId(1), PointId(2)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_ring() {
        let m = GraphMetric::ring(1).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn coherent_order_walks_the_ring_in_sequence() {
        let m = GraphMetric::ring(8).unwrap();
        let order = m.coherent_order().unwrap();
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<u32>>(), "must be a permutation");
        // On a unit ring the greedy chain from 0 hugs neighbors: every hop
        // has distance 1 (ties to the smaller id pick 1, 2, 3, ...).
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// The reference search the indexed heap must match bit for bit: a
    /// fresh `BinaryHeap` per source, with lazy deletion of stale entries.
    fn reference_dijkstra(g: &Graph, source: u32) -> Vec<f64> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;
        #[derive(PartialEq)]
        struct Entry {
            dist: f64,
            node: u32,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .expect("distances are not NaN")
                    .then(other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut dist = vec![f64::INFINITY; g.n];
        dist[source as usize] = 0.0;
        let mut heap = BinaryHeap::with_capacity(g.n);
        heap.push(Entry {
            dist: 0.0,
            node: source,
        });
        while let Some(Entry { dist: d, node: u }) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in g.neighbors(u) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Entry { dist: nd, node: v });
                }
            }
        }
        dist
    }

    /// The reference closure: [`reference_dijkstra`] per source, the
    /// row-order finite check over the upper triangle, a strided mirror.
    fn reference_closure(g: &Graph) -> Result<Vec<f64>, MetricError> {
        let n = g.n;
        let mut apsp = vec![0.0; n * n];
        for s in 0..n {
            let dist = reference_dijkstra(g, s as u32);
            for (t, &d) in dist.iter().enumerate().skip(s + 1) {
                check_finite(d, format_args!("distance({s},{t})"))?;
            }
            apsp[s * n..(s + 1) * n].copy_from_slice(&dist);
        }
        for s in 0..n {
            for t in (s + 1)..n {
                apsp[t * n + s] = apsp[s * n + t];
            }
        }
        Ok(apsp)
    }

    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A connected graph of 1 to 300 nodes: a random spanning tree, random
    /// chords and repeated tree edges (parallel edges), weighted by one of
    /// five families picked by `seed % 5`: uniform in [0.5, 1.5), small
    /// integers with zeros and ties, 1 plus ulp-scale noise, 1e300 to
    /// 1e308 scale (where path sums overflow), and mostly zero.
    fn random_graph(seed: u64) -> Graph {
        let mut rng = SplitMix(seed);
        let n = 1 + rng.below(300);
        let scale = [1e300, 1e305, 1e307, 1e308][rng.below(4)];
        let weight = |rng: &mut SplitMix| match seed % 5 {
            0 => 0.5 + rng.unit(),
            1 => rng.below(4) as f64,
            2 => 1.0 + rng.below(8) as f64 * f64::EPSILON,
            3 => (0.5 + rng.unit()) * scale,
            _ if rng.below(8) == 0 => rng.unit(),
            _ => 0.0,
        };
        let mut edges = Vec::new();
        for v in 1..n as u32 {
            let u = rng.below(v as usize) as u32;
            edges.push((u, v, weight(&mut rng)));
            if rng.below(8) == 0 {
                edges.push((v, u, weight(&mut rng)));
            }
        }
        for _ in 0..rng.below(2 * n) {
            let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
            if u != v {
                edges.push((u, v, weight(&mut rng)));
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn closure_matches_the_binary_heap_reference_bit_for_bit() {
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let (mut built, mut overflowed) = (0, 0);
        for seed in 0..200u64 {
            let g = random_graph(seed);
            let n = g.node_count();
            match (GraphMetric::new(&g), reference_closure(&g)) {
                (Ok(m), Ok(want)) => {
                    for (s, (row, want)) in m.apsp.chunks(n).zip(want.chunks(n)).enumerate() {
                        assert_eq!(bits(row), bits(want), "seed {seed}, row {s}");
                    }
                    built += 1;
                }
                (Err(err), Err(want)) => {
                    // The same variant, carrying the same text.
                    assert_eq!(err, want, "seed {seed}");
                    overflowed += 1;
                }
                (got, want) => panic!(
                    "seed {seed}: built {:?}, reference {:?}",
                    got.map(|_| ()),
                    want.map(|_| ())
                ),
            }
            for s in [0, n / 3, n - 1] {
                let s = s as u32;
                assert_eq!(
                    bits(&g.dijkstra(s)),
                    bits(&reference_dijkstra(&g, s)),
                    "seed {seed}, source {s}"
                );
            }
        }
        // Both outcomes are exercised.
        assert!(
            built >= 150 && overflowed >= 10,
            "{built} built, {overflowed} overflowed"
        );
    }

    #[test]
    fn metric_closure_satisfies_triangle() {
        let m = GraphMetric::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 3.0),
                (2, 3, 1.0),
                (3, 4, 2.0),
                (4, 0, 2.5),
                (1, 3, 1.2),
            ],
        )
        .unwrap();
        let dense = crate::dense::DenseMetric::from_metric(&m).unwrap();
        dense.validate().unwrap();
    }
}
