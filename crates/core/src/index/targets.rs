//! Incremental t3/t4 opening targets over the block layout.

use super::layout::check_relabeling;
use super::{dist_lower_bound, run_shards, SpatialLayout, HUGE_BLOCK, SCAN_SHARD_BLOCKS};
use crate::instance::Instance;
use crate::CoreError;
use omfl_commodity::CommodityId;
use omfl_metric::PointId;
use omfl_par::{ScatterWriter, ShardWriter, TaskPool};
use std::sync::Arc;

/// Incremental maintenance of the PD opening targets — the per-arrival
/// t3/t4 argmins `min_m (f_m − B_m)⁺ + d(m, r)` — via a bucketed
/// lower-bound prune list.
///
/// The PD event loop needs, per arrival at `r`, the cheapest *temporary
/// small* opening for each demanded commodity (t3, one argmin per `e` over
/// `(f^e_m − B[m][e])⁺ + d(m, r)`) and the cheapest *large* opening (t4,
/// over `(f^S_m − B̂[m])⁺ + d(m, r)`). Recomputing them by full scan is
/// `O(k·|M|)` per arrival — the dominant cost once the nearest-facility
/// caches ([`FacilityIndex`](super::FacilityIndex)) made everything else `O(1)`.
///
/// # The structure
///
/// Locations are partitioned into fixed blocks of [`TARGET_BLOCK`](super::TARGET_BLOCK)
/// **positions of a spatially coherent relabeling**: at construction the
/// index asks the metric for a [`omfl_metric::Metric::coherent_order`]
/// (position order on lines, a Z-order curve on Euclidean point sets, a
/// nearest-neighbor chain on graph closures, DFS preorder on trees;
/// identity when the metric offers none) and lays its blocks over that
/// permutation. The relabeling lives entirely inside the index — every
/// argument and every returned location is an *original* point id, so
/// nothing engine-visible changes. Per commodity (plus one slot for t4)
/// the index maintains, per block, a **certified lower bound** on the
/// *distance-free* part of the key:
///
/// ```text
/// blockmin[e][b] ≤ min_{m ∈ block b} (f^e_m − B[m][e])⁺     (the invariant)
/// ```
///
/// On top of that, each block carries a **location summary**: a
/// representative member `rep_b` (the block medoid) and a covering radius
/// `radius_b = max_{m ∈ b} d(rep_b, m)`. For a query at `r` the triangle
/// inequality gives `d(m, r) ≥ d(rep_b, r) − radius_b` for every member,
/// so the per-query block bound tightens to
///
/// ```text
/// bound_b(r) = blockmin[e][b] + max(0, d(rep_b, r) − radius_b − slack)
/// ```
///
/// — distance-aware: blocks far from the query are pruned even when their
/// distance-free keys are tiny (the cold-query regime where the id-order
/// index scanned 60–75% of blocks). The caller supplies `d(rep_b, r)` for
/// every block once per query ([`Self::prepare_query_at`]): on the
/// engine's block-pass path from one representative pass of the layout
/// (contiguous over the representatives' coordinates under an isometric
/// embedding), on its row path read from the query's stored distance row
/// (representatives are real points). The scans then read
/// `d(m, r)` from the same source ([`QueryDistances`]): one layout pass
/// per scanned block, or the full row. The spatial coherence of
/// the relabeling is what keeps `radius_b` small enough for the bound to
/// bite; correctness never depends on it. The `slack` term
/// ([`RADIUS_BOUND_SLACK`](super::RADIUS_BOUND_SLACK), relative) budgets for metrics whose computed
/// distances violate the triangle inequality by float rounding (path sums,
/// rounded norms) — metrics opt into this machinery via `coherent_order`,
/// whose contract caps violations at a few ulps, orders of magnitude below
/// the slack.
///
/// A query walks blocks in relabeled order keeping the running
/// lexicographic best `(value, original id)` and skips every block that
/// provably cannot improve it: `bound_b > best` means every key in the
/// block strictly exceeds the best; `bound_b == best` still skips when the
/// block's smallest original id exceeds the incumbent's (an exact tie
/// loses the full scan's first-minimum rule to the smaller id). Surviving
/// blocks are scanned with the verbatim key arithmetic, so the returned
/// `(value, location)` is bit-identical to the full ascending-id
/// strict-`<` scan — `tests/tests/index_bounds.rs` locksteps this at every
/// arrival against that verbatim scan over the bids of a `NaivePd` run,
/// and a proptest drives *random* relabelings through whole engine runs.
///
/// # Maintenance under the PD budget dynamics
///
/// The primal-dual process moves budgets in two directions with very
/// different frequencies (paper §3):
///
/// * **Bumps** (every freeze): `B` grows, keys *fall*. The freeze walk
///   ([`Self::freeze_reinvest`]) raises the bids and min-folds the new
///   distance-free key of exactly the locations that moved into their
///   block bound — `blockmin = min(blockmin, new)`, `O(1)` per moved
///   budget, and the invariant is restored immediately.
/// * **Shrinks** (only when a facility opens, rare): `B` falls, keys
///   *rise*. A stale-low `blockmin` stays a valid lower bound — pruning
///   merely gets weaker, never wrong — so correctness needs no action at
///   all. To keep the prune tight the engine's cap-shrink pass marks the
///   block of every location whose bid it lowered, and the pass ends by
///   recomputing exactly those blocks (`rebuild_small_blocks` /
///   `rebuild_large_blocks`), on both serve paths. So every bound is always
///   an exact block minimum, at every size: bumps min-fold exactly and each
///   shrink rebuilds every block that holds a lowered bid, so an untouched
///   block already holds what a whole-row rebuild would write
///   (`tests/tests/index_bounds.rs` checks this after every arrival).
///
/// Memory: `(|S| + 1) · ⌈|M| / TARGET_BLOCK⌉` bound floats plus the
/// permutation and per-block summaries — with the block size of
/// [`TARGET_BLOCK`](super::TARGET_BLOCK) = 16, about `1/16`th of the bid matrix the engine
/// already holds, plus a handful of `O(|M|)` id arrays.
#[derive(Debug, Clone)]
pub struct OpeningTargetIndex {
    /// Per-commodity block bounds, flat `e · nblocks + b`.
    pub(super) small: Vec<f64>,
    /// t4 block bounds.
    pub(super) large: Vec<f64>,
    pub(super) nblocks: usize,
    /// Block layout: the relabeling and the per-block location summaries.
    /// Shared (via [`Self::layout_handle`]) with the engine's
    /// [`PastIndex`] so both prune with the same radius bounds.
    pub(super) layout: Arc<SpatialLayout>,
    /// Worker pool for the sharded scans; `None` runs them sequentially.
    /// Results AND stats are bit-identical either way — the pool only
    /// changes who executes each shard.
    pool: Option<Arc<TaskPool>>,
    /// Blocks per scan shard (defaults to [`SCAN_SHARD_BLOCKS`]; test
    /// hook [`Self::set_scan_shard_blocks`] overrides it).
    shard_blocks: usize,
    /// Original id of the prepared query point, when the caller knows it
    /// (debug builds check that [`Self::freeze_reinvest`] walks the
    /// arrival the bounds were prepared for).
    query_point: Option<PointId>,
    /// Reusable per-query buffers of the argmins (avoid allocations per
    /// call): the distance-aware block bounds, and with two or more
    /// shards each shard's minimum-bound block and its
    /// `(best, best id, skipped, scanned)`.
    bound_scratch: Vec<f64>,
    shard_first: Vec<(f64, u32)>,
    shard_best: Vec<(f64, u32, u64, u64)>,
    /// Per-block distance lower bounds for the *prepared* query row (see
    /// [`Self::prepare_query_at`]): `dlb[b] ≤ min_{m ∈ b} d(m, r)`. Computed
    /// once per arrival and shared by every t3/t4 argmin and the freeze
    /// walk narrowing of that arrival.
    dlb: Vec<f64>,
    /// Scratch for the representative distances
    /// [`Self::prepare_query_row`] gathers from a full row.
    rep_scratch: Vec<f64>,
    /// The prepared representative distances (debug builds): catches
    /// callers querying with a distance row of another query point.
    #[cfg(debug_assertions)]
    query_reps: Vec<f64>,
    /// Blocks pruned / scanned across all queries (diagnostics; the
    /// lockstep tests assert pruning actually engages).
    skipped: u64,
    scanned: u64,
}

/// Where the t3/t4 argmins of a prepared query read `d(m, r)`: both
/// sources give the metric's values bit for bit, so the answers and the
/// skip/scan statistics do not depend on the choice.
#[derive(Clone, Copy)]
pub enum QueryDistances<'a> {
    /// The query's full distance row, `row[p] = d(p, r)` by original id:
    /// the engine's source when the metric lends its stored rows.
    Row(&'a [f64]),
    /// One pass of the layout over each scanned block's members from the
    /// query point `r` (contiguous coordinate folds under an isometric
    /// embedding, metric calls otherwise): the engine's source for every
    /// other metric, at every size, where no row is read.
    Layout(&'a Instance, PointId),
}

/// `(f − b)⁺` — the distance-free part of an opening-target key.
#[inline]
fn opening_key(f: f64, b: f64) -> f64 {
    (f - b).max(0.0)
}

/// The exact minimum opening key over block `bi`'s members.
#[inline]
fn block_min(layout: &SpatialLayout, f_row: &[f64], b_row: &[f64], bi: usize) -> f64 {
    let mut min = f64::INFINITY;
    for &p in layout.members(bi) {
        let p = p as usize;
        let v = opening_key(f_row[p], b_row[p]);
        if v < min {
            min = v;
        }
    }
    min
}

fn block_bounds(layout: &SpatialLayout, f_row: &[f64], b_row: &[f64], out: &mut [f64]) {
    for (bi, slot) in out.iter_mut().enumerate() {
        *slot = block_min(layout, f_row, b_row, bi);
    }
}

/// Adds block `b` to a touched-block set: one bit per block, so the set
/// holds each block at most once.
#[inline]
pub(crate) fn mark_block(touched: &mut [u64], b: usize) {
    touched[b / 64] |= 1 << (b % 64);
}

/// [`block_bounds`] for the blocks of the `touched` set only, which it
/// empties, so the cost scales with the blocks marked.
fn rebuild_blocks(
    layout: &SpatialLayout,
    f_row: &[f64],
    b_row: &[f64],
    out: &mut [f64],
    touched: &mut [u64],
) {
    for (w, word) in touched.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let b = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out[b] = block_min(layout, f_row, b_row, b);
        }
    }
}

impl OpeningTargetIndex {
    /// Bounds for an engine whose budgets are all zero, laid over the
    /// identity relabeling with distance bounds disabled (no metric in
    /// sight): pure distance-free pruning. `f_small` is commodity-major
    /// (`e·|M| + p`), `f_full` per point — the engine's own layouts.
    pub fn new(points: usize, services: usize, f_small: &[f64], f_full: &[f64]) -> Self {
        Self::with_layout(SpatialLayout::identity(points), services, f_small, f_full)
    }

    /// The engine-facing constructor: blocks laid over the metric's
    /// [`omfl_metric::Metric::coherent_order`] with medoid/radius summaries
    /// (distance-aware pruning), or the identity fallback when the metric
    /// offers no order. Metrics with a coordinate embedding get kd ball
    /// ingest (plus [`HUGE_BLOCK`] blocks at huge `|M|`); the rest keep the
    /// windowed ingest.
    pub fn for_instance(inst: &Instance, f_small: &[f64], f_full: &[f64]) -> Self {
        match inst.metric().coherent_order() {
            Some(order) => Self::with_layout(
                SpatialLayout::from_order(inst, order),
                inst.num_commodities(),
                f_small,
                f_full,
            ),
            None => Self::new(inst.num_points(), inst.num_commodities(), f_small, f_full),
        }
    }

    /// Blocks laid over an explicit relabeling `order` (position → original
    /// id), with per-block medoid/radius summaries computed from the
    /// instance metric. Exposed beyond [`Self::for_instance`] so the test
    /// suites can drive *arbitrary* permutations — the answers must be
    /// bit-identical under every one of them.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadInstance`] when `order` is not a permutation of the
    /// instance's point ids: a wrong length, a repeated id, or an id out
    /// of range.
    pub fn with_order(
        inst: &Instance,
        f_small: &[f64],
        f_full: &[f64],
        order: Vec<u32>,
    ) -> Result<Self, CoreError> {
        check_relabeling(&order, inst.num_points())?;
        Ok(Self::with_layout(
            SpatialLayout::from_order(inst, order),
            inst.num_commodities(),
            f_small,
            f_full,
        ))
    }

    fn with_layout(
        layout: SpatialLayout,
        services: usize,
        f_small: &[f64],
        f_full: &[f64],
    ) -> Self {
        let points = layout.perm.len();
        let nblocks = layout.nblocks();
        let zeros = vec![0.0; points];
        let mut small = vec![f64::INFINITY; services * nblocks];
        for e in 0..services {
            block_bounds(
                &layout,
                &f_small[e * points..(e + 1) * points],
                &zeros,
                &mut small[e * nblocks..(e + 1) * nblocks],
            );
        }
        let mut large = vec![f64::INFINITY; nblocks];
        block_bounds(&layout, f_full, &zeros, &mut large);
        Self {
            small,
            large,
            nblocks,
            layout: Arc::new(layout),
            pool: None,
            shard_blocks: SCAN_SHARD_BLOCKS,
            query_point: None,
            bound_scratch: Vec::with_capacity(nblocks),
            shard_first: Vec::new(),
            shard_best: Vec::new(),
            dlb: vec![0.0; nblocks],
            rep_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            query_reps: Vec::new(),
            skipped: 0,
            scanned: 0,
        }
    }

    /// A shared handle to the block layout, for the engine's
    /// [`PastIndex`](super::PastIndex) and facility-cache refresh.
    pub(crate) fn layout_handle(&self) -> Arc<SpatialLayout> {
        Arc::clone(&self.layout)
    }

    /// Installs (or removes) the worker pool behind the sharded scans and
    /// the freeze walk. Purely an execution choice: results and skip/scan
    /// statistics are bit-identical with any pool, including none.
    pub fn set_scan_pool(&mut self, pool: Option<Arc<TaskPool>>) {
        self.pool = pool;
    }

    /// The worker pool and blocks per shard of the sharded scans, which
    /// the engine's facility-cache refresh shares.
    pub(crate) fn scan_shards(&self) -> (Option<&TaskPool>, usize) {
        (self.pool.as_deref(), self.shard_blocks)
    }

    /// Overrides the blocks-per-shard granularity (test/diagnostic hook).
    /// Changes the skip/scan *statistics* — the shard partition decides
    /// which skips are attempted — but never a returned answer.
    pub fn set_scan_shard_blocks(&mut self, blocks: usize) {
        assert!(blocks > 0, "shards must hold at least one block");
        self.shard_blocks = blocks;
    }

    /// The block partition as original-id member lists, in relabeled block
    /// order (diagnostics and the ingest-equivalence tests).
    pub fn block_partition(&self) -> Vec<Vec<u32>> {
        (0..self.nblocks)
            .map(|bi| self.layout.members(bi).to_vec())
            .collect()
    }

    /// Per-block `(medoid, covering radius, min original id)` summaries
    /// (diagnostics and the ingest-equivalence tests).
    pub fn block_summaries(&self) -> Vec<(u32, f64, u32)> {
        (0..self.nblocks)
            .map(|bi| {
                (
                    self.layout.rep[bi],
                    self.layout.radius[bi],
                    self.layout.min_id[bi],
                )
            })
            .collect()
    }

    /// Checks a query's distances against the prepared query (debug
    /// builds): a row must hold the prepared representative distances, and
    /// a layout query must name the prepared point.
    #[cfg(debug_assertions)]
    fn assert_prepared(&self, dist: QueryDistances<'_>) {
        assert_eq!(
            self.query_reps.len(),
            self.nblocks,
            "query before prepare_query_at"
        );
        match dist {
            QueryDistances::Row(row) => {
                for (&r, &d) in self.layout.rep.iter().zip(&self.query_reps) {
                    assert_eq!(
                        row[r as usize].to_bits(),
                        d.to_bits(),
                        "query with a distance row that prepare_query_at never saw"
                    );
                }
            }
            QueryDistances::Layout(_, q) => assert_eq!(
                self.query_point,
                Some(q),
                "layout query at a point prepare_query_at never saw"
            ),
        }
    }

    /// Installs the arrival's full distance row (`dist_row[p] = d(p, r)`):
    /// [`Self::prepare_query_at`] over the representative entries the row
    /// holds, for the query point `at` when the caller knows it.
    pub(crate) fn prepare_query_row(&mut self, at: Option<PointId>, dist_row: &[f64]) {
        let mut reps = std::mem::take(&mut self.rep_scratch);
        reps.clear();
        reps.extend(self.layout.rep.iter().map(|&r| dist_row[r as usize]));
        self.prepare_query_at(at, &reps);
        self.rep_scratch = reps;
    }

    /// Installs the arrival's query from its representative distances
    /// (`rep_d[b] = d(rep_b, r)`, block order, e.g. from one
    /// representative pass of the layout): computes the per-block distance
    /// lower bounds `max(0, d(rep_b, r) − radius_b − slack)` once, to be
    /// shared by every [`Self::small_target`] /
    /// [`Self::large_target`] call and the freeze walk
    /// ([`Self::freeze_reinvest`]) of the arrival. Must be called whenever
    /// the query changes (debug builds check the argmins' distances
    /// against it); the bounds are pure functions of the values. The
    /// freeze walk and argmins reading [`QueryDistances::Layout`] need the
    /// query's original point id `at`; argmins over a row do not.
    pub fn prepare_query_at(&mut self, at: Option<PointId>, rep_d: &[f64]) {
        debug_assert_eq!(rep_d.len(), self.nblocks, "one distance per block");
        self.query_point = at;
        self.dlb.clear();
        if self.layout.bounded {
            let bounds = rep_d.iter().zip(&self.layout.radius);
            self.dlb
                .extend(bounds.map(|(&d, &r)| dist_lower_bound(d, r)));
        } else {
            self.dlb.resize(self.nblocks, 0.0);
        }
        #[cfg(debug_assertions)]
        {
            self.query_reps.clear();
            self.query_reps.extend_from_slice(rep_d);
        }
    }

    /// The freeze walk: reinvests a served request's caps into the bid
    /// matrices and folds the moved keys into the block bounds, sharded
    /// over the worker pool with the same pure-function-of-`nblocks`
    /// partition as the t3/t4 scans.
    ///
    /// Bit-identical at any thread count, none included, because every
    /// write is keyed by block membership: a point lives in exactly one
    /// block and a block in exactly one shard, so each `b_small[e·m + p]` /
    /// `b_large[p]` slot takes its single `+= (cap − d)` from one shard,
    /// and each block-bound slot min-folds only its own block's keys
    /// (min-folds commute — the fold is order-free). The update set is
    /// exactly `{p : d(p, r) < cap}` however it is narrowed.
    ///
    /// Each visited block first gets a lower bound `lo ≤ d(p, r)` per
    /// member. With a `full_row` from the caller (verbatim backend values)
    /// the bound is the exact distance. Otherwise the block is screened
    /// once through the metric's certified f32 brackets
    /// ([`omfl_metric::Metric::screen_distances`]), and a survivor (bound
    /// under some cap) gets one exact `d(p, r)` confirmation, reused across
    /// every cap of the request. A `lo ≥ cap` skip is exact: it implies
    /// `d ≥ cap`, and the walk adds nothing at `d ≥ cap`. Blocks whose
    /// prepared distance lower bound already meets every cap are skipped
    /// whole.
    #[allow(clippy::too_many_arguments)]
    pub fn freeze_reinvest(
        &mut self,
        inst: &Instance,
        loc: PointId,
        full_row: Option<&[f64]>,
        members: &[CommodityId],
        caps: &[f64],
        cap_total: f64,
        b_small: &mut [f64],
        b_large: &mut [f64],
        f_small: &[f64],
        f_full: &[f64],
    ) {
        debug_assert_eq!(
            self.query_point,
            Some(loc),
            "freeze walks the bounds prepared for this arrival's query row"
        );
        let max_cap = caps.iter().fold(cap_total, |a, &c| a.max(c));
        if max_cap <= 0.0 {
            return;
        }
        let m = self.layout.perm.len();
        let nblocks = self.nblocks;
        let shard_blocks = self.shard_blocks;
        let nshards = nblocks.div_ceil(shard_blocks);
        let layout = &self.layout;
        let dlb: &[f64] = &self.dlb;
        let metric = inst.metric();
        assert!(layout.block <= HUGE_BLOCK, "block-sized buffers and masks");
        let bs_w = ScatterWriter::new(b_small);
        let bl_w = ScatterWriter::new(b_large);
        let ss_w = ScatterWriter::new(&mut self.small);
        let sl_w = ScatterWriter::new(&mut self.large);
        let body = |s: usize| {
            let lo_b = s * shard_blocks;
            let hi_b = (lo_b + shard_blocks).min(nblocks);
            // Per member of the current block: a certified lower bound on
            // `d(p, r)`, and the exact distance, computed lazily once and
            // reused across every cap of the request (NaN = not yet).
            let mut lo = [0.0f64; HUGE_BLOCK];
            let mut hi = [0.0f64; HUGE_BLOCK];
            let mut dex = [f64::NAN; HUGE_BLOCK];
            for (bi, &dlb_bi) in dlb.iter().enumerate().take(hi_b).skip(lo_b) {
                if dlb_bi >= max_cap {
                    continue;
                }
                let mems = layout.members(bi);
                let n = mems.len();
                match full_row {
                    // A full row makes the bound exact.
                    Some(row) => {
                        for ((l, d), &p) in lo.iter_mut().zip(dex.iter_mut()).zip(mems) {
                            *d = row[p as usize];
                            *l = *d;
                        }
                    }
                    None => {
                        dex[..n].fill(f64::NAN);
                        if !metric.screen_distances(loc, mems, &mut lo[..n], &mut hi[..n]) {
                            lo[..n].fill(0.0);
                        }
                    }
                }
                // The members whose lower bound lies under `cap`, one bit
                // each: a branch-free pass, since few members pass.
                let under = |cap: f64| -> u64 {
                    let mut mask = 0u64;
                    for (j, &l) in lo[..n].iter().enumerate() {
                        mask |= u64::from(l < cap) << j;
                    }
                    mask
                };
                let mut exact = |j: usize| -> f64 {
                    if dex[j].is_nan() {
                        dex[j] = inst.distance(PointId(mems[j]), loc);
                    }
                    dex[j]
                };
                for (&e, &cap) in members.iter().zip(caps) {
                    if cap <= 0.0 || dlb_bi >= cap {
                        continue;
                    }
                    let mut mask = under(cap);
                    while mask != 0 {
                        let j = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let p = mems[j];
                        let d = exact(j);
                        if d < cap {
                            let pi = e.index() * m + p as usize;
                            // Safety: slot `e·m + p` / bound `e·nblocks +
                            // bi` belong to this shard alone — `p` is in
                            // block `bi`, owned by shard `s`.
                            let b = unsafe { bs_w.slot(pi) };
                            *b += cap - d;
                            let key = (f_small[pi] - *b).max(0.0);
                            let bound = unsafe { ss_w.slot(e.index() * nblocks + bi) };
                            if key < *bound {
                                *bound = key;
                            }
                        }
                    }
                }
                if cap_total > 0.0 && dlb_bi < cap_total {
                    let mut mask = under(cap_total);
                    while mask != 0 {
                        let j = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        let p = mems[j];
                        let d = exact(j);
                        if d < cap_total {
                            let pi = p as usize;
                            // Safety: same block-ownership argument.
                            let b = unsafe { bl_w.slot(pi) };
                            *b += cap_total - d;
                            let key = (f_full[pi] - *b).max(0.0);
                            let bound = unsafe { sl_w.slot(bi) };
                            if key < *bound {
                                *bound = key;
                            }
                        }
                    }
                }
            }
        };
        run_shards(self.pool.as_deref(), nshards, &body);
    }

    /// The t3 argmin for commodity `e` of the prepared query, reading
    /// `d(m, r)` from `dist`: bit-identical to the full strict-`<` scan,
    /// skipping blocks whose distance-aware bound cannot improve the
    /// running best.
    pub fn small_target(
        &mut self,
        e: CommodityId,
        f_row: &[f64],
        b_row: &[f64],
        dist: QueryDistances<'_>,
    ) -> (f64, PointId) {
        self.pruned_scan(Some(e), f_row, b_row, dist)
    }

    /// The t4 argmin (see [`Self::small_target`]).
    pub fn large_target(
        &mut self,
        f_full: &[f64],
        b_large: &[f64],
        dist: QueryDistances<'_>,
    ) -> (f64, PointId) {
        self.pruned_scan(None, f_full, b_large, dist)
    }

    /// The argmin over commodity `e`'s bounds, or the t4 bounds for `None`.
    fn pruned_scan(
        &mut self,
        e: Option<CommodityId>,
        f_row: &[f64],
        b_row: &[f64],
        dist: QueryDistances<'_>,
    ) -> (f64, PointId) {
        #[cfg(debug_assertions)]
        self.assert_prepared(dist);
        let nblocks = self.nblocks;
        let Self {
            small,
            large,
            layout,
            pool,
            shard_blocks,
            bound_scratch,
            shard_first,
            shard_best,
            dlb,
            skipped,
            scanned,
            ..
        } = self;
        let bounds: &[f64] = match e {
            Some(e) => &small[e.index() * nblocks..(e.index() + 1) * nblocks],
            None => large,
        };
        let (layout, dlb, pool, shard_blocks) =
            (&**layout, &dlb[..], pool.as_deref(), *shard_blocks);
        let m = f_row.len();
        let block = layout.block;
        let mut best = f64::INFINITY;
        let mut best_id = u32::MAX;
        // The block scan tracks the lexicographic (value, original id)
        // minimum — exactly what the ascending-id strict-`<` full scan
        // returns, computed with the identical float expression. A row is
        // read in place; a layout query reads the block's member
        // distances, in member order, through one pass into `buf`.
        let scan_block =
            |bi: usize, best: &mut f64, best_id: &mut u32, buf: &mut [f64; HUGE_BLOCK]| {
                let start = bi * block;
                let end = (start + block).min(m);
                match dist {
                    QueryDistances::Row(dist_row) => {
                        for &p in &layout.perm[start..end] {
                            let pi = p as usize;
                            let v = opening_key(f_row[pi], b_row[pi]) + dist_row[pi];
                            if v < *best || (v == *best && p < *best_id) {
                                *best = v;
                                *best_id = p;
                            }
                        }
                    }
                    QueryDistances::Layout(inst, q) => {
                        let dists = layout.member_distances(inst, bi, q, buf);
                        for (&p, &d) in layout.members(bi).iter().zip(dists) {
                            let pi = p as usize;
                            let v = opening_key(f_row[pi], b_row[pi]) + d;
                            if v < *best || (v == *best && p < *best_id) {
                                *best = v;
                                *best_id = p;
                            }
                        }
                    }
                }
            };
        let mut buf = [0.0; HUGE_BLOCK];
        if !layout.bounded {
            // No-metric fallback (identity layout): distance bounds are
            // inert and ids ascend across blocks, so the in-order sweep
            // with the distance-free skip is both the fastest and the
            // exact one (a later equal value can never displace the
            // incumbent, so the lexicographic tracking is the strict-`<`
            // scan's).
            for (bi, &bound) in bounds.iter().enumerate() {
                if bound > best || (bound == best && layout.min_id[bi] > best_id) {
                    *skipped += 1;
                    continue;
                }
                *scanned += 1;
                scan_block(bi, &mut best, &mut best_id, &mut buf);
            }
            return (best, PointId(if best_id == u32::MAX { 0 } else { best_id }));
        }

        // Radius-bounded layout. The block scan tracks the lexicographic
        // minimum, so blocks may be visited in ANY order, and the skip
        // test stays conservative at every intermediate
        // `best`. That freedom is worth a lot twice over: scanning the
        // minimum-bound block FIRST drops `best` to (almost always) the
        // true optimum immediately, and the remaining sweep can then be
        // *sharded* — each shard sweeps its own block range seeded from
        // that incumbent, and a lexicographic merge of the shard bests
        // recovers the global answer. A shard skipping a block its local
        // best certifies out is sound because the local best is always an
        // *achieved* candidate: anything in the block is lex-≥ it, hence
        // lex-≥ the global minimum, which is therefore never lost.
        let nshards = nblocks.div_ceil(shard_blocks);
        let query_bounds = bound_scratch;
        query_bounds.clear();

        if nshards <= 1 {
            // Single shard: the plain two-pass scan (the sharded path
            // below degenerates to exactly this sequence — kept inline to
            // spare small instances the shard bookkeeping).
            let mut first = 0usize;
            let mut first_bound = f64::INFINITY;
            for (bi, &bmin) in bounds.iter().enumerate() {
                let bound = bmin + dlb[bi];
                if bound < first_bound {
                    first_bound = bound;
                    first = bi;
                }
                query_bounds.push(bound);
            }
            scan_block(first, &mut best, &mut best_id, &mut buf);
            *scanned += 1;
            // Sweep the rest, skipping every block whose bound says it
            // cannot improve the incumbent. Every key in a block is ≥ its
            // bound (budget invariant plus the triangle inequality on the
            // block summary). Strictly above the best: nothing can win.
            // Exactly at the best: only a smaller original id could win an
            // exact tie, and min_id certifies none exists in the block.
            for (bi, &bound) in query_bounds.iter().enumerate() {
                if bi == first {
                    continue;
                }
                if bound > best || (bound == best && layout.min_id[bi] > best_id) {
                    *skipped += 1;
                    continue;
                }
                *scanned += 1;
                scan_block(bi, &mut best, &mut best_id, &mut buf);
            }
            return (best, PointId(if best_id == u32::MAX { 0 } else { best_id }));
        }

        // Sharded sweep. The shard partition is a pure function of the
        // block count and `shard_blocks` — NEVER of the pool — so the
        // skip/scan statistics are identical whether the shards run on a
        // pool or sequentially right here, and identical across machines.
        query_bounds.resize(nblocks, 0.0);
        // Phase A: materialize the per-block bounds and find each shard's
        // minimum-bound block (ties: lowest index).
        shard_first.clear();
        shard_first.resize(nshards, (f64::INFINITY, u32::MAX));
        {
            let qb = ShardWriter::new(query_bounds, shard_blocks);
            let sf = ShardWriter::new(shard_first, 1);
            let body = |s: usize| {
                let lo = s * shard_blocks;
                // Safety: shard `s` writes only its own chunks.
                let chunk = unsafe { qb.chunk(s) };
                let mut fb = f64::INFINITY;
                let mut fi = lo as u32;
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let bi = lo + j;
                    let bound = bounds[bi] + dlb[bi];
                    *slot = bound;
                    if bound < fb {
                        fb = bound;
                        fi = bi as u32;
                    }
                }
                unsafe { sf.chunk(s)[0] = (fb, fi) };
            };
            run_shards(pool, nshards, &body);
        }
        // Ascending strict-`<` merge: the lowest-index block of the global
        // minimum bound, exactly as the sequential pass picks it.
        let (mut first_bound, mut first) = (f64::INFINITY, 0usize);
        for &(fb, fi) in shard_first.iter() {
            if fb < first_bound {
                first_bound = fb;
                first = fi as usize;
            }
        }
        // Phase B: scan the global minimum-bound block — the incumbent
        // every shard seeds from.
        scan_block(first, &mut best, &mut best_id, &mut buf);
        *scanned += 1;
        // Phase C: per-shard in-order sweeps with per-shard local bests
        // and counters.
        shard_best.clear();
        shard_best.resize(nshards, (best, best_id, 0, 0));
        {
            let sb = ShardWriter::new(shard_best, 1);
            let qb: &[f64] = query_bounds;
            let body = |s: usize| {
                let lo = s * shard_blocks;
                let hi = (lo + shard_blocks).min(nblocks);
                let mut b = best;
                let mut bid = best_id;
                let (mut sk, mut sc) = (0u64, 0u64);
                let mut buf = [0.0; HUGE_BLOCK];
                for (bi, &bound) in qb.iter().enumerate().take(hi).skip(lo) {
                    if bi == first {
                        continue;
                    }
                    if bound > b || (bound == b && layout.min_id[bi] > bid) {
                        sk += 1;
                        continue;
                    }
                    sc += 1;
                    scan_block(bi, &mut b, &mut bid, &mut buf);
                }
                unsafe { sb.chunk(s)[0] = (b, bid, sk, sc) };
            };
            run_shards(pool, nshards, &body);
        }
        // Phase D: lexicographic merge (each shard best is an achieved
        // candidate or the phase-B incumbent) plus the stats fold.
        for &(v, id, sk, sc) in shard_best.iter() {
            if v < best || (v == best && id < best_id) {
                best = v;
                best_id = id;
            }
            *skipped += sk;
            *scanned += sc;
        }
        (best, PointId(if best_id == u32::MAX { 0 } else { best_id }))
    }

    /// Recomputes `e`'s bounds over the blocks of a cap-shrink pass's
    /// `touched` set ([`mark_block`]) from the current rows, and empties
    /// the set. The shrink lowered budgets (keys rose) in those blocks
    /// alone, and every other bound is already an exact block minimum
    /// (see the type docs), so the row ends as a whole-row rebuild would
    /// leave it.
    pub(crate) fn rebuild_small_blocks(
        &mut self,
        e: CommodityId,
        f_row: &[f64],
        b_row: &[f64],
        touched: &mut [u64],
    ) {
        let bounds = &mut self.small[e.index() * self.nblocks..(e.index() + 1) * self.nblocks];
        rebuild_blocks(&self.layout, f_row, b_row, bounds, touched);
    }

    /// [`Self::rebuild_small_blocks`] for the t4 bounds.
    pub(crate) fn rebuild_large_blocks(
        &mut self,
        f_full: &[f64],
        b_large: &[f64],
        touched: &mut [u64],
    ) {
        rebuild_blocks(&self.layout, f_full, b_large, &mut self.large, touched);
    }

    /// The block bounds of commodity `e`'s row, or the t4 bounds for
    /// `None`, in block order ([`Self::block_partition`]). Each is the
    /// exact minimum of `(f − B)⁺` over its block between arrivals.
    pub fn bounds(&self, e: Option<CommodityId>) -> &[f64] {
        match e {
            Some(e) => &self.small[e.index() * self.nblocks..(e.index() + 1) * self.nblocks],
            None => &self.large,
        }
    }

    /// The block layout, for the engine's block passes and shrink kernel.
    pub(crate) fn layout(&self) -> &SpatialLayout {
        &self.layout
    }

    /// `(blocks pruned, blocks scanned)` across all queries so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.skipped, self.scanned)
    }
}

/// The whole-row rebuilds: the reference the index tests drive the prune
/// against. The engine rebuilds only the blocks its shrinks touched.
#[cfg(test)]
impl OpeningTargetIndex {
    /// Recomputes all of `e`'s block bounds from the current rows.
    pub(super) fn rebuild_small(&mut self, e: CommodityId, f_row: &[f64], b_row: &[f64]) {
        block_bounds(
            &self.layout,
            f_row,
            b_row,
            &mut self.small[e.index() * self.nblocks..(e.index() + 1) * self.nblocks],
        );
    }

    /// Recomputes all t4 block bounds (see [`Self::rebuild_small`]).
    pub(super) fn rebuild_large(&mut self, f_full: &[f64], b_large: &[f64]) {
        block_bounds(&self.layout, f_full, b_large, &mut self.large);
    }
}
