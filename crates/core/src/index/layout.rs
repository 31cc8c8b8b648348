//! The block layout: a spatially coherent relabeling with per-block summaries.

use super::{dist_lower_bound, HUGE_BLOCK, HUGE_METRIC_MIN_POINTS, TARGET_BLOCK};
use crate::instance::Instance;
use crate::kd::KdTree;
use crate::CoreError;
use omfl_metric::{simd, PointId};
use std::ops::Range;

/// The block relabeling plus per-block location summaries.
///
/// `perm[pos]` is the original id at relabeled position `pos`; blocks are
/// contiguous runs of positions. Summaries hold each block's medoid
/// representative, covering radius, and minimum original id (the tie-skip
/// certificate). `radius = ∞` (the no-metric fallback) makes every
/// distance bound collapse to zero — pure distance-free pruning, the exact
/// pre-relabeling behavior.
#[derive(Debug, Clone)]
pub(crate) struct SpatialLayout {
    /// Relabeled position → original point id.
    pub(super) perm: Vec<u32>,
    /// Original point id → relabeled position (inverse of `perm`).
    pub(super) pos: Vec<u32>,
    /// Whether the medoid/radius summaries were computed from a metric.
    /// `false` is the no-metric fallback: distance bounds are identically
    /// zero and queries run the plain distance-free in-order scan (the
    /// exact pre-relabeling behavior).
    pub(super) bounded: bool,
    /// Locations per block of THIS layout ([`TARGET_BLOCK`] except for
    /// huge kd-ingested point sets, which use [`HUGE_BLOCK`]).
    pub(super) block: usize,
    /// Per-block representative (original id) — the block medoid.
    pub(super) rep: Vec<u32>,
    /// Covering radius `max_{m ∈ block} d(rep, m)`.
    pub(super) radius: Vec<f64>,
    /// Smallest original id in the block (exact-tie skip certificate).
    pub(super) min_id: Vec<u32>,
    /// Axes of the coordinate copies below: the embedding's dimension when
    /// it is isometric (`KdCoords::isometric` — the licence for computing
    /// distances from coordinates, not just partitioning by them), 0
    /// otherwise.
    dim: usize,
    /// The points' coordinates in layout order, column-major:
    /// `cols[axis·|M| + pos]` is axis `axis` of point `perm[pos]`, so each
    /// block's members are one contiguous run per axis. Empty when `dim`
    /// is 0.
    cols: Vec<f64>,
    /// The block representatives' coordinates in block order,
    /// column-major: `rep_cols[axis·nblocks + b]`. Empty when `dim` is 0.
    rep_cols: Vec<f64>,
}

impl SpatialLayout {
    /// Identity relabeling with distance bounds disabled.
    pub(super) fn identity(points: usize) -> Self {
        let nblocks = points.div_ceil(TARGET_BLOCK);
        Self {
            perm: (0..points as u32).collect(),
            pos: (0..points as u32).collect(),
            bounded: false,
            block: TARGET_BLOCK,
            rep: (0..nblocks).map(|b| (b * TARGET_BLOCK) as u32).collect(),
            radius: vec![f64::INFINITY; nblocks],
            min_id: (0..nblocks).map(|b| (b * TARGET_BLOCK) as u32).collect(),
            dim: 0,
            cols: Vec::new(),
            rep_cols: Vec::new(),
        }
    }

    /// Whether distances come from the layout-ordered coordinates (an
    /// isometric kd embedding) rather than pointwise metric calls.
    #[inline]
    pub(super) fn isometric(&self) -> bool {
        self.dim > 0
    }

    /// `out[b] = d(rep_b, q)` for every block `b`, in block order — the
    /// input of [`OpeningTargetIndex::prepare_query_at`],
    /// [`Self::blocks_below`] and the facility-cache refresh.
    ///
    /// With an isometric embedding this is one contiguous pass per axis
    /// over the representatives' coordinates
    /// ([`omfl_metric::simd::accumulate_squared`], then
    /// [`omfl_metric::simd::sqrt_in_place`]): per block the accumulator
    /// starts at 0 and folds the axes in ascending order, the fold the
    /// isometry contract equates with [`omfl_metric::Metric::distance`]
    /// bit for bit. Otherwise every entry is an [`Instance::distance`]
    /// call. The values are the same either way.
    pub(crate) fn rep_distances(&self, inst: &Instance, q: PointId, out: &mut Vec<f64>) {
        out.clear();
        if !self.isometric() {
            out.extend(self.rep.iter().map(|&r| inst.distance(PointId(r), q)));
            return;
        }
        let nblocks = self.rep.len();
        out.resize(nblocks, 0.0);
        for axis in 0..self.dim {
            let col = &self.rep_cols[axis * nblocks..(axis + 1) * nblocks];
            simd::accumulate_squared(out, col, self.coord(q, axis));
        }
        simd::sqrt_in_place(out);
    }

    /// `d(p, q)` for block `b`'s members `p`, in [`Self::members`] order:
    /// one contiguous pass per axis over the block's run of the
    /// layout-ordered coordinates, or pointwise [`Instance::distance`]
    /// calls without an isometric embedding — bit-identical either way
    /// (see [`Self::rep_distances`]). Returns the filled prefix of `out`.
    pub(crate) fn member_distances<'o>(
        &self,
        inst: &Instance,
        b: usize,
        q: PointId,
        out: &'o mut [f64; HUGE_BLOCK],
    ) -> &'o [f64] {
        let slots = self.slots(b);
        let out = &mut out[..slots.len()];
        if !self.isometric() {
            for (d, &p) in out.iter_mut().zip(&self.perm[slots]) {
                *d = inst.distance(PointId(p), q);
            }
            return out;
        }
        out.fill(0.0);
        let n = self.perm.len();
        for axis in 0..self.dim {
            let col = &self.cols[axis * n + slots.start..axis * n + slots.end];
            simd::accumulate_squared(out, col, self.coord(q, axis));
        }
        simd::sqrt_in_place(out);
        out
    }

    /// Axis `axis` of point `q` (original id), from the layout-ordered copy.
    #[inline]
    fn coord(&self, q: PointId, axis: usize) -> f64 {
        self.cols[axis * self.perm.len() + self.pos[q.index()] as usize]
    }

    /// Number of prune blocks under this layout's block size.
    #[inline]
    pub(crate) fn nblocks(&self) -> usize {
        self.perm.len().div_ceil(self.block)
    }

    /// Original ids of block `b`'s members.
    #[inline]
    pub(crate) fn members(&self, b: usize) -> &[u32] {
        &self.perm[self.slots(b)]
    }

    /// The layout positions of block `b`'s members: one contiguous run.
    #[inline]
    pub(crate) fn slots(&self, b: usize) -> Range<usize> {
        let start = b * self.block;
        start..(start + self.block).min(self.perm.len())
    }

    /// The block holding original id `p`. Block sizes are powers of two,
    /// so the division is a shift.
    #[inline]
    pub(crate) fn block_of(&self, p: usize) -> usize {
        debug_assert!(self.block.is_power_of_two());
        self.pos[p] as usize >> self.block.trailing_zeros()
    }

    /// The certified lower bound on `d(p, q)` over block `b`'s members,
    /// from `q`'s representative distances ([`Self::rep_distances`]).
    #[inline]
    pub(crate) fn block_dlb(&self, b: usize, rep_d: &[f64]) -> f64 {
        dist_lower_bound(rep_d[b], self.radius[b])
    }

    /// The blocks whose lower bound on `d(·, q)` is below `reach`,
    /// ascending, from `q`'s representative distances.
    pub(crate) fn blocks_below(&self, rep_d: &[f64], reach: f64, out: &mut Vec<u32>) {
        out.clear();
        for b in 0..self.nblocks() {
            if self.block_dlb(b, rep_d) < reach {
                out.push(b as u32);
            }
        }
    }

    /// Refines `seed_order` into distance balls and computes the per-block
    /// summaries from the instance metric.
    ///
    /// A raw coherent order is a *chain*: consecutive hops are short, but a
    /// fixed-size run of a chain can snake across a region far wider than a
    /// ball of the same cardinality (on small-world graph closures the
    /// chain-run radius matches the whole metric's distance scale, which
    /// makes radius bounds inert). So blocks are rebuilt as greedy balls —
    /// two ingest paths, selected by the metric:
    ///
    /// * **kd ingest** (metrics offering [`omfl_metric::Metric::kd_coords`]):
    ///   the next unassigned point of `seed_order` seeds a block and takes
    ///   its `block − 1` *true* nearest unassigned points from
    ///   [`KdTree::nearest_alive`], under the `(distance, seed-rank)`
    ///   total order. The partition is a pure function of the coordinates
    ///   and the seed order. Any deterministic partition is engine-safe
    ///   (the relabeling proptests drive arbitrary ones), so the kd fold
    ///   need not match the metric's distances here.
    /// * **windowed ingest** (fallback): [`Self::group_into_balls`], which
    ///   can only pick members from the next [`BALL_WINDOW`] points of the
    ///   order — cheap, but a seed whose real neighbors sit beyond the
    ///   window gets a needlessly fat radius.
    ///
    /// Each block then records its medoid (the member minimizing its
    /// maximum in-block distance, first winner on ties) and the covering
    /// radius the medoid realizes — always confirmed with *exact* metric
    /// distances. Metrics offering certified f32 screening brackets
    /// ([`omfl_metric::Metric::screen_distances`]) get the O(block²) medoid
    /// pass narrowed first: a candidate whose screened eccentricity lower
    /// bound exceeds some candidate's upper bound can be neither the
    /// winner nor an earlier tie of the winner, so pruning it cannot
    /// change the first-wins outcome. From [`HUGE_METRIC_MIN_POINTS`] up
    /// the summaries run in parallel shards of blocks
    /// ([`Self::summarize_blocks`]).
    ///
    /// `seed_order` must be a permutation of the point ids: callers
    /// validate caller-supplied orders ([`check_relabeling`]); a metric's
    /// own [`omfl_metric::Metric::coherent_order`] is one by contract.
    pub(super) fn from_order(inst: &Instance, seed_order: Vec<u32>) -> Self {
        let points = inst.num_points();
        debug_assert!(check_relabeling(&seed_order, points).is_ok());
        let metric = inst.metric();
        let mut kd = None;
        let mut dim = 0;
        if let Some(view) = metric.kd_coords() {
            if view.dim > 0 && view.coords.len() == points * view.dim {
                if view.isometric {
                    dim = view.dim;
                }
                kd = Some(KdTree::build(view.coords, view.dim));
            }
        }
        let block = if kd.is_some() && points >= HUGE_METRIC_MIN_POINTS {
            HUGE_BLOCK
        } else {
            TARGET_BLOCK
        };
        let order = match kd.as_mut() {
            Some(tree) => Self::group_into_kd_balls(tree, &seed_order, block),
            None => Self::group_into_balls(inst, &seed_order, block),
        };
        let mut pos = vec![0u32; points];
        for (i, &p) in order.iter().enumerate() {
            pos[p as usize] = i as u32;
        }
        let nblocks = points.div_ceil(block);
        // A block's summary depends on its members alone and lands in its
        // own slot, so the layout is the same at every thread count.
        let threads = if points >= HUGE_METRIC_MIN_POINTS {
            omfl_par::default_threads()
        } else {
            1
        };
        let shards: Vec<usize> = (0..nblocks).step_by(SUMMARY_SHARD_BLOCKS).collect();
        let summaries = omfl_par::parallel_map(&shards, threads, |_, &first| {
            let blocks = first..(first + SUMMARY_SHARD_BLOCKS).min(nblocks);
            Self::summarize_blocks(inst, &order, block, blocks)
        });
        let mut rep = Vec::with_capacity(nblocks);
        let mut radius = Vec::with_capacity(nblocks);
        let mut min_id = Vec::with_capacity(nblocks);
        for (r, rad, id) in summaries.into_iter().flatten() {
            rep.push(r);
            radius.push(rad);
            min_id.push(id);
        }
        let (cols, rep_cols) = match &kd {
            Some(tree) if dim > 0 => (
                transpose_rows(tree, dim, &order),
                transpose_rows(tree, dim, &rep),
            ),
            _ => (Vec::new(), Vec::new()),
        };
        Self {
            perm: order,
            pos,
            bounded: true,
            block,
            rep,
            radius,
            min_id,
            dim,
            cols,
            rep_cols,
        }
    }

    /// `(medoid, covering radius, minimum id)` of each block in `blocks`,
    /// whose members are the runs of `block` positions of `order` (see
    /// [`Self::from_order`] for the medoid rule and the screening).
    fn summarize_blocks(
        inst: &Instance,
        order: &[u32],
        block: usize,
        blocks: Range<usize>,
    ) -> Vec<(u32, f64, u32)> {
        let metric = inst.metric();
        let mut lo = vec![0.0f64; block];
        let mut hi = vec![0.0f64; block];
        let mut maxlo = vec![0.0f64; block];
        let mut maxhi = vec![0.0f64; block];
        let mut out = Vec::with_capacity(blocks.len());
        for bi in blocks {
            let start = bi * block;
            let members = &order[start..(start + block).min(order.len())];
            let n = members.len();
            // Screened path: certified brackets on every pairwise distance
            // give per-candidate eccentricity brackets `maxlo ≤ far(c) ≤
            // maxhi`. Candidates with `maxlo > min_c maxhi` satisfy
            // `far(c) > min far` strictly, so dropping them preserves both
            // the minimum and the first-wins tie among the survivors.
            let screened = n > 2
                && members.iter().enumerate().all(|(ci, &c)| {
                    if !metric.screen_distances(PointId(c), members, &mut lo[..n], &mut hi[..n]) {
                        return false;
                    }
                    maxlo[ci] = lo[..n].iter().fold(0.0f64, |m, &d| m.max(d));
                    maxhi[ci] = hi[..n].iter().fold(0.0f64, |m, &d| m.max(d));
                    true
                });
            let min_hi = if screened {
                maxhi[..n].iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                f64::INFINITY
            };
            let mut best_rep = members[0];
            let mut best_rad = f64::INFINITY;
            for (ci, &c) in members.iter().enumerate() {
                if screened && maxlo[ci] > min_hi {
                    continue;
                }
                let mut far = 0.0f64;
                for &m in members {
                    let d = inst.distance(PointId(m), PointId(c));
                    if d > far {
                        far = d;
                    }
                }
                if far < best_rad {
                    best_rad = far;
                    best_rep = c;
                }
            }
            let min_id = members.iter().copied().min().expect("non-empty block");
            out.push((best_rep, best_rad, min_id));
        }
        out
    }

    /// The kd ball partition: exact nearest-unassigned-neighbor balls over
    /// the coordinate embedding, deterministic under the
    /// `(distance, seed-rank)` total order. `O(|M| log |M|)`-ish distance
    /// folds instead of the window path's `O(|M| · BALL_WINDOW)` metric
    /// calls — and the balls are true balls, so covering radii are as
    /// tight as the block size allows.
    fn group_into_kd_balls(tree: &mut KdTree, seed_order: &[u32], block: usize) -> Vec<u32> {
        let n = seed_order.len();
        // rank[p] = seed-order position; u32::MAX doubles as "assigned".
        let mut rank = vec![0u32; n];
        for (i, &p) in seed_order.iter().enumerate() {
            rank[p as usize] = i as u32;
        }
        let mut out = Vec::with_capacity(n);
        let mut nn: Vec<(f64, u32, u32)> = Vec::with_capacity(block);
        let mut q: Vec<f64> = Vec::new();
        for &seed in seed_order {
            if rank[seed as usize] == u32::MAX {
                continue;
            }
            out.push(seed);
            rank[seed as usize] = u32::MAX;
            tree.deactivate(seed);
            q.clear();
            q.extend_from_slice(tree.point(seed));
            tree.nearest_alive(&q, block - 1, &rank, &mut nn);
            for &(_, _, p) in nn.iter() {
                out.push(p);
                rank[p as usize] = u32::MAX;
                tree.deactivate(p);
            }
        }
        out
    }

    /// The windowed greedy ball partition (fallback when the metric offers
    /// no coordinate embedding): repeatedly seed a block with the first
    /// remaining point of the seed order and fill it with the `block − 1`
    /// nearest points among the next [`BALL_WINDOW`] remaining ones (ties
    /// by remaining rank). Only the final block can be short. The output is
    /// the block-major relabeling.
    ///
    /// Cost: `O(|M| · BALL_WINDOW / block)` distance reads and
    /// `O(|M| · BALL_WINDOW / block)` bookkeeping, window-local —
    /// every pick lives inside the candidate window, so only the window's
    /// *unpicked* entries are moved (order preserved) to sit ahead of the
    /// untouched tail, and no already-assigned stretch is ever re-walked.
    /// This runs inside the engine constructor, which the benchmarks
    /// time, so the bound is load-bearing, not cosmetic.
    fn group_into_balls(inst: &Instance, seed_order: &[u32], block: usize) -> Vec<u32> {
        let n = seed_order.len();
        let mut rem = seed_order.to_vec();
        let mut out = Vec::with_capacity(n);
        let mut cand: Vec<(f64, u32)> = Vec::with_capacity(BALL_WINDOW);
        let mut picked: Vec<u32> = Vec::with_capacity(block);
        let mut unpicked: Vec<u32> = Vec::with_capacity(BALL_WINDOW);
        let mut start = 0usize;
        while start < n {
            let seed = rem[start];
            out.push(seed);
            let window = (n - start - 1).min(BALL_WINDOW);
            cand.clear();
            for i in 0..window {
                let p = rem[start + 1 + i];
                cand.push((inst.distance(PointId(p), PointId(seed)), i as u32));
            }
            cand.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("distances are finite")
                    .then(a.1.cmp(&b.1))
            });
            picked.clear();
            picked.extend(cand.iter().take(block - 1).map(|&(_, i)| i));
            picked.sort_unstable();
            unpicked.clear();
            let mut pk = 0usize;
            for i in 0..window {
                if pk < picked.len() && picked[pk] as usize == i {
                    out.push(rem[start + 1 + i]);
                    pk += 1;
                } else {
                    unpicked.push(rem[start + 1 + i]);
                }
            }
            // The consumed prefix (seed + picks) drops out; the unpicked
            // window entries slide up against the untouched tail, order
            // preserved, to form the head of the next iteration's list.
            start += 1 + picked.len();
            rem[start..start + unpicked.len()].copy_from_slice(&unpicked);
        }
        out
    }
}

/// Blocks per task of [`SpatialLayout::from_order`]'s summary pass (on
/// many threads from [`HUGE_METRIC_MIN_POINTS`] up). Blocks differ in how
/// many medoid candidates survive screening, so tasks are kept small: the
/// pool claims runs of tasks that shrink to one task at a time as the pass
/// drains, which evens the threads' loads out at the end. Each task still
/// amortizes its four scratch rows over 64 blocks.
const SUMMARY_SHARD_BLOCKS: usize = 64;

/// How far ahead of a block seed the ball partition looks for members (in
/// unassigned points of the seed order). Wide enough that the coherent
/// order's locality puts the true near neighbors inside the window, narrow
/// enough that layout construction stays `O(|M| · BALL_WINDOW)`.
const BALL_WINDOW: usize = 256;

/// The embedding rows of `ids`, column-major in the given order:
/// `out[axis·ids.len() + i]` is axis `axis` of point `ids[i]`.
fn transpose_rows(tree: &KdTree, dim: usize, ids: &[u32]) -> Vec<f64> {
    let n = ids.len();
    let mut out = vec![0.0; dim * n];
    for (i, &p) in ids.iter().enumerate() {
        for (axis, &c) in tree.point(p).iter().enumerate() {
            out[axis * n + i] = c;
        }
    }
    out
}

/// Checks that a caller-supplied relabeling is a permutation of the
/// `points` point ids.
pub(super) fn check_relabeling(order: &[u32], points: usize) -> Result<(), CoreError> {
    if order.len() != points {
        return Err(CoreError::BadInstance(format!(
            "relabeling has {} entries for {points} points",
            order.len()
        )));
    }
    let mut seen = vec![false; points];
    for &p in order {
        let Some(slot) = seen.get_mut(p as usize) else {
            return Err(CoreError::BadInstance(format!(
                "relabeling names point {p}, out of range for {points} points"
            )));
        };
        if *slot {
            return Err(CoreError::BadInstance(format!(
                "relabeling repeats point {p}"
            )));
        }
        *slot = true;
    }
    Ok(())
}
