//! PD-OMFLP — the deterministic primal–dual online algorithm (Algorithm 1,
//! paper §3), `O(√|S|·log n)`-competitive.
//!
//! # How the continuous process is simulated
//!
//! On arrival of request `r`, the paper raises all unserved dual variables
//! `a_{re}` simultaneously until one of four constraint families becomes
//! tight:
//!
//! 1. `a_{re} = d(F(e), r)` — connect `e` to the nearest open facility
//!    offering `e`;
//! 2. `Σ_{e∈sr} a_{re} = d(F̂, r)` — connect the whole request to the nearest
//!    open *large* facility;
//! 3. `(a_{re} − d(m,r))⁺ + B[m][e] = f^{e}_m` — open a *temporary* small
//!    facility for `e` at `m`;
//! 4. `(Σ_e a_{re} − d(m,r))⁺ + B̂[m] = f^{S}_m` — open a large facility at
//!    `m` and serve everything there.
//!
//! `B[m][e] = Σ_j (min{a_{je}, d(F(e), j)} − d(m,j))⁺` and
//! `B̂[m] = Σ_j (min{Σ_e a_{je}, d(F̂, j)} − d(m,j))⁺` are the *reinvested
//! bids* of earlier requests. During a single arrival no open-facility set
//! changes (temporary facilities do not count as open; a large opening ends
//! the arrival), so every target above is a constant computed once per
//! arrival and the continuous race reduces to a discrete event loop.
//!
//! Between arrivals the bid caps `c_{je} = min(a_{je}, d(F(e), j))` only
//! shrink (facilities are never closed), so `B`/`B̂` are maintained
//! incrementally: additions when a request's duals freeze, subtractions when
//! a newly opened facility lowers a cap.
//!
//! Tie-breaking is deterministic and documented: large-connect before
//! large-open before small-connect before small-open; among commodities,
//! ascending id; among locations, ascending point id (via strict `<` when
//! scanning minima).
//!
//! # The incremental index layer
//!
//! The serve hot path is built on [`crate::index`]:
//!
//! * `d(F(e), r)` / `d(F̂, r)` come from a [`FacilityIndex`] — per-point
//!   nearest-open-facility caches refreshed *once per opening* instead of
//!   scanned per request (openings are rare; requests are not). On the
//!   row path the refresh walks the opening's stored row; on the
//!   block-pass path the caches are stored in layout order and the
//!   refresh visits only the blocks whose certified distance lower bound
//!   undercuts their largest cached distance, reading each block's member
//!   distances in one pass and updating its contiguous run of the caches;
//! * the t3/t4 opening targets come from an [`OpeningTargetIndex`] — a
//!   bucketed lower-bound prune list over the monotone distance-free keys
//!   `(f − B)⁺`, with blocks laid over a spatially coherent relabeling and
//!   tightened per query by medoid/covering-radius distance bounds, so the
//!   per-arrival argmins skip every block of locations certified unable to
//!   beat the running best instead of scanning all of `|M|` per demanded
//!   commodity (see that type's docs for the invariants and why shrink
//!   staleness is sound). The same per-arrival block bounds
//!   ([`OpeningTargetIndex::prepare_query_at`]) narrow the freeze walk's
//!   bid reinvestment to the blocks that can hold `d < cap`;
//! * the cap-shrink passes after an opening consult a [`PastIndex`] —
//!   past requests bucketed by location with per-bucket cap bounds — so the
//!   walk is over locations, not over the whole request history. On the
//!   row path each shrinking request's stored row is walked in id order
//!   by one kernel that skips every chunk of entries with no `d < old`; on
//!   the block-pass path the distances are read only over the blocks
//!   whose lower bound is below the old cap, however many they are. On
//!   both paths the shrinks mark every block they lowered, and the bound
//!   rebuild that follows recomputes only the marked blocks.
//!
//! # Where the distances come from
//!
//! The engine picks its distance source once, at construction, from the
//! metric. A metric that stores its closure lends its rows
//! ([`omfl_metric::Metric::row`]: graphs, dense matrices), and the **row
//! path** reads them in place: the t3/t4 argmins, the facility-cache
//! refresh, the cap shrinks and the freeze walk each read the stored row
//! of the point at hand. Every other metric takes the **block-pass path**,
//! at every size, and no row is read or filled: each arrival and each
//! opening pass reads `d(rep_b, ·)` for every block in one representative
//! pass (an opening at the arrival's location reuses the arrival's), the
//! t3/t4 argmins, the refresh and the cap shrinks read each block they
//! visit through one pass over its members (`SpatialLayout::rep_distances`
//! and `member_distances`; [`QueryDistances::Layout`]), and the freeze
//! walk screens its distances through the metric's certified f32 brackets
//! and confirms survivors with exact calls. When the metric embeds
//! isometrically (`KdCoords::isometric`: L2 Euclidean, and lines within
//! their magnitude and gap guards) the passes are contiguous SIMD folds
//! over coordinates stored in layout order, bit-identical to the metric's
//! own calls; otherwise they are those calls. A metric with no coherent
//! order gets the identity layout, whose distance bounds are all zero, so
//! its passes prune by bid keys alone. Single distances, such as a cap
//! shrink's `d(at, r)`, are metric calls on both paths.
//!
//! All structures reproduce the retired linear scans **bit for bit**: cache
//! updates use the same `distance(query, location)` call and strict-`<`
//! tie-breaking as the scans, shrink candidates are applied in the exact
//! `(past index, slot)` order the history walk used, and pruned blocks are
//! exactly those that provably cannot change the scan result — so every
//! float in `B`, `B̂`, the caps and the outcomes is identical. The
//! pre-index path survives as `naive::NaivePd` (feature `naive-ref`), the
//! one frozen reference engine: `tests/tests/differential.rs` asserts the
//! equivalence across the whole scenario catalog, the lockstep suites
//! (`tests/tests/index_bounds.rs`, `tests/tests/partial_rows.rs`) replay
//! against it arrival by arrival, and the `BENCH_pd.json` PD cells
//! cross-check every timed run against it.

use crate::algorithm::{OnlineAlgorithm, ServeOutcome};
use crate::index::{
    mark_block, FacilityIndex, OpeningTargetIndex, PastIndex, QueryDistances, SpatialLayout,
    HUGE_BLOCK, HUGE_METRIC_MIN_POINTS,
};
use crate::instance::Instance;
use crate::request::Request;
use crate::solution::{FacilityId, Solution};
use crate::{harmonic, CoreError, EPS};
use omfl_commodity::{CommodityId, CommoditySet};
use omfl_metric::PointId;
use omfl_par::TaskPool;
use std::sync::Arc;

/// One opening target: `(value, realizing location)`.
pub type OpeningTarget = (f64, PointId);

/// Frozen per-request state kept for bid reinvestment.
#[derive(Debug, Clone)]
pub struct PastRequest {
    /// Where the request appeared.
    pub location: PointId,
    /// The demanded commodities, ascending.
    pub commodities: Vec<CommodityId>,
    /// Frozen dual values `a_{re}`, parallel to `commodities`.
    pub duals: Vec<f64>,
    /// Current caps `c_{re} = min(a_{re}, d(F(e), r))`, parallel to
    /// `commodities`; shrink when new facilities open.
    pub caps: Vec<f64>,
    /// Current cap `ĉ_r = min(Σ_e a_{re}, d(F̂, r))`.
    pub cap_total: f64,
}

impl PastRequest {
    /// `Σ_e a_{re}` — the request's total dual investment.
    pub fn dual_sum(&self) -> f64 {
        self.duals.iter().sum()
    }
}

/// The deterministic primal–dual algorithm PD-OMFLP.
pub struct PdOmflp<'a> {
    inst: &'a Instance,
    sol: Solution,
    past: Vec<PastRequest>,
    /// Nearest-open-facility caches, refreshed once per opening.
    index: FacilityIndex,
    /// Past requests bucketed by location for the cap-shrink passes.
    past_index: PastIndex,
    /// `B[m][e]`, flat `e * |M| + m` (commodity-major: the t3 scan, the
    /// freeze additions and the cap-shrink subtractions all walk `m` for a
    /// fixed `e`, so this layout keeps the hot loops on contiguous memory).
    b_small: Vec<f64>,
    /// `B̂[m]`.
    b_large: Vec<f64>,
    /// Cached `f^{e}_m`, flat `e * |M| + m` (commodity-major, like `b_small`).
    f_small: Vec<f64>,
    /// Cached `f^{S}_m`.
    f_full: Vec<f64>,
    /// Whether the metric lends its stored rows ([`omfl_metric::Metric::row`]),
    /// read once at construction: the row path when set, the block-pass
    /// path otherwise (see the module docs).
    stored_rows: bool,
    /// Scratch for one point's representative distances on the
    /// block-pass path (see [`SpatialLayout::rep_distances`]).
    rep_scratch: Vec<f64>,
    /// The last block-pass arrival's representative distances, kept apart
    /// from `rep_scratch` so that openings at its location reuse them.
    /// They depend only on the location and the layout, which never
    /// changes after construction, so the location tag keeps the reuse
    /// exact.
    arrival_rep: Vec<f64>,
    /// The location `arrival_rep` belongs to.
    arrival_rep_at: Option<PointId>,
    /// Scratch for the blocks a coverage-bounded opening pass keeps: the
    /// facility-cache refresh's, or a cap-shrink pass's.
    blocks_scratch: Vec<u32>,
    /// The blocks each bid row's shrink walks marked during one opening,
    /// every block holding a lowered bid among them ([`Self::shrink_rows`]),
    /// one bit per block ([`mark_block`]), per commodity plus one trailing
    /// row for `B̂`: the bound rebuild recomputes exactly these blocks and
    /// empties the sets.
    touched: Vec<Vec<u64>>,
    /// Incremental t3/t4 maintenance. Its layout holds every point's
    /// coordinates in layout order when the metric embeds isometrically,
    /// which is where the block-pass path's representative and block
    /// distances come from.
    targets: OpeningTargetIndex,
    /// The t3 targets `(value, location)` of the last non-fast-path arrival.
    last_t3: Vec<(f64, PointId)>,
    /// The t4 target of the last non-fast-path arrival.
    last_t4: (f64, PointId),
    /// Whether the last arrival computed targets (false on the zero-distance
    /// large fast path).
    last_targets_valid: bool,
    /// Reusable per-arrival buffers (see [`ServeScratch`]).
    scratch: ServeScratch,
    /// Running `Σ_r Σ_e a_{re}` for the Corollary 8 check.
    dual_sum: f64,
    /// The first cached facility cost the race cannot run on (NaN,
    /// negative or infinite); [`OnlineAlgorithm::serve`] returns it before
    /// it touches any state.
    bad_cost: Option<CoreError>,
}

/// The stored distance row `d(·, q)` of a metric that lends its rows,
/// read in place. By [`omfl_metric::Metric::row`]'s all-or-none rule a
/// metric that lent one row at construction lends every row.
///
/// A free function rather than a method so callers can keep disjoint
/// borrows of the other engine fields (bid rows, target index) alive while
/// holding the row.
fn stored_row(inst: &Instance, q: PointId) -> &[f64] {
    inst.metric()
        .row(q)
        .expect("a metric lends all its rows or none")
}

/// The cap-shrink subtraction at one location after a cap fell from `old`
/// to `dj`: `B −= (old − d)⁺ − (dj − d)⁺` with `d = dpj`. The delta
/// vanishes exactly when `d ≥ old` (as `dj < old`), so skipping those
/// entries is bit-exact.
#[inline]
fn shrink_bid(b: &mut f64, dpj: f64, old: f64, dj: f64) {
    if dpj < old {
        *b -= (old - dpj).max(0.0) - (dj - dpj).max(0.0);
    }
}

/// Row entries [`shrink_row`] tests with one branch-free compare, one bit
/// of a `u64` mask each.
const SHRINK_CHUNK: usize = 32;

/// [`shrink_bid`] over a whole bid row in id order, `drow[p] = d(p, loc)`,
/// marking the layout block of every entry it lowers in `touched` (see
/// [`mark_block`]). Few entries have `d < old` (0.64% of those a
/// `pd-4k-graph` pass compares), so each chunk of [`SHRINK_CHUNK`] entries
/// gets one branch-free compare into a bit mask, and only the entries
/// whose bits are set take the arithmetic; the row ends bit-identical to
/// a plain walk.
fn shrink_row(
    b_row: &mut [f64],
    drow: &[f64],
    old: f64,
    dj: f64,
    layout: &SpatialLayout,
    touched: &mut [u64],
) {
    let mut chunk = |start: usize, b: &mut [f64], d: &[f64; SHRINK_CHUNK]| {
        let mut below = 0u64;
        for (j, &dp) in d.iter().enumerate() {
            below |= u64::from(dp < old) << j;
        }
        while below != 0 {
            let j = below.trailing_zeros() as usize;
            below &= below - 1;
            shrink_bid(&mut b[j], d[j], old, dj);
            mark_block(touched, layout.block_of(start + j));
        }
    };
    let mut bs = b_row.chunks_exact_mut(SHRINK_CHUNK);
    let mut ds = drow.chunks_exact(SHRINK_CHUNK);
    for (c, (b, d)) in (&mut bs).zip(&mut ds).enumerate() {
        chunk(c * SHRINK_CHUNK, b, d.try_into().expect("a whole chunk"));
    }
    // The tail, padded with distances that no cap exceeds.
    let tail = ds.remainder();
    let mut d = [f64::INFINITY; SHRINK_CHUNK];
    d[..tail.len()].copy_from_slice(tail);
    chunk(drow.len() - tail.len(), bs.into_remainder(), &d);
}

/// Bid row `f` of a cap-shrink pass: commodity `f`'s `B` row, or `B̂` for
/// `f = |S|`.
#[inline]
fn bid_row<'b>(b_small: &'b mut [f64], b_large: &'b mut [f64], f: usize) -> &'b mut [f64] {
    let m = b_large.len();
    if f * m == b_small.len() {
        b_large
    } else {
        &mut b_small[f * m..(f + 1) * m]
    }
}

/// Per-member outcome inside one arrival.
#[derive(Clone, Copy, Debug)]
enum MemberServe {
    /// Connected to an existing facility (constraint 1).
    Existing(FacilityId),
    /// Temporary small facility at this location (constraint 3).
    Temp(PointId),
}

/// Per-arrival working memory, reused across requests.
///
/// With the index layer in place, a serve on a quiet arrival (no openings)
/// does only `O(k + |M|)` arithmetic — at that scale the eight `Vec`
/// allocations the old serve made per request were a measurable fraction of
/// the hot path. The buffers are cleared and refilled per arrival; the
/// values flowing through them are identical to the allocate-per-request
/// version (the differential suite checks this, like everything else here).
#[derive(Debug, Default)]
struct ServeScratch {
    /// Demanded commodities, ascending.
    members: Vec<CommodityId>,
    /// Constraint-1 targets `t1[i] = d(F(e_i), r)`.
    t1: Vec<f64>,
    /// The facility realizing `t1[i]`.
    t1_fac: Vec<Option<FacilityId>>,
    /// Constraint-3 targets (cheapest temp-open for `e_i`).
    t3: Vec<f64>,
    /// The location realizing `t3[i]`.
    t3_loc: Vec<PointId>,
    /// Dual values `a_{re}` being raised.
    a: Vec<f64>,
    /// Per-member serve decision.
    outcome: Vec<Option<MemberServe>>,
    /// Facilities the request connects to (small mode).
    fids: Vec<FacilityId>,
}

impl<'a> PdOmflp<'a> {
    /// Creates the algorithm over an instance, with the incremental t3/t4
    /// opening-target index engaged, and picks the distance source once:
    /// the metric's stored rows when it lends them
    /// ([`omfl_metric::Metric::row`]), layout block passes otherwise (see
    /// the module docs and [`Self::partial_rows_active`]).
    /// Precomputes the per-location small and large facility costs
    /// (`O(|M|·|S|)` memory — the same order as the bid matrix the analysis
    /// requires). No distance row is filled, now or later.
    ///
    /// A NaN, negative or infinite facility cost does not stop
    /// construction: every [`OnlineAlgorithm::serve`] then returns it as a
    /// [`CoreError::BadInstance`] naming its location and commodity.
    pub fn new(inst: &'a Instance) -> Self {
        let m = inst.num_points();
        let (f_small, f_full, bad_cost) = inst.facility_costs(|p, e| e * m + p);
        let targets = OpeningTargetIndex::for_instance(inst, &f_small, &f_full);
        Self::with_parts(inst, f_small, f_full, bad_cost, targets)
    }

    /// [`PdOmflp::new`] with the opening-target index laid over an
    /// **explicit** relabeling `order` instead of the metric's coherent
    /// order. The relabeling is internal to the index, so every engine
    /// outcome must be bit-identical to [`PdOmflp::new`] under *any*
    /// permutation — the property the relabeling proptest in
    /// `tests/tests/index_bounds.rs` drives through whole runs.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadInstance`] when `order` is not a permutation of the
    /// instance's point ids (see [`OpeningTargetIndex::with_order`]).
    pub fn with_target_order(inst: &'a Instance, order: Vec<u32>) -> Result<Self, CoreError> {
        let m = inst.num_points();
        let (f_small, f_full, bad_cost) = inst.facility_costs(|p, e| e * m + p);
        let targets = OpeningTargetIndex::with_order(inst, &f_small, &f_full, order)?;
        Ok(Self::with_parts(inst, f_small, f_full, bad_cost, targets))
    }

    /// Test/bench hook: forces the worker pool of the sharded scans and
    /// freeze walk (`threads ≤ 1` removes it) and the blocks-per-shard
    /// granularity, regardless of instance size. Answers are bit-identical
    /// under every configuration; shard size also changes which skips are
    /// *attempted* (the stats), the pool never changes anything observable.
    pub fn configure_parallel_scans(&mut self, threads: usize, shard_blocks: usize) {
        self.targets.set_scan_pool(if threads > 1 {
            Some(Arc::new(TaskPool::new(threads)))
        } else {
            None
        });
        self.targets.set_scan_shard_blocks(shard_blocks);
    }

    /// Assembles an engine around its opening-target index.
    fn with_parts(
        inst: &'a Instance,
        f_small: Vec<f64>,
        f_full: Vec<f64>,
        bad_cost: Option<CoreError>,
        mut targets: OpeningTargetIndex,
    ) -> Self {
        let m = inst.num_points();
        let s = inst.num_commodities();
        // Share the target index's spatial layout with the shrink walk (and,
        // on the block-pass path, the facility caches) so both can skip
        // whole blocks, and fan the per-arrival block scans out over a
        // worker pool once they are long enough to amortize it. All are
        // engine-invisible: results and skip/scan statistics stay
        // bit-identical.
        let past_index = PastIndex::new(targets.layout_handle(), s);
        let stored_rows = inst.metric().row(PointId(0)).is_some();
        let index = if stored_rows {
            FacilityIndex::new(m, s)
        } else {
            // The caches keep block maxima exactly where the bounded
            // refresh reads them.
            FacilityIndex::with_layout(m, s, targets.layout_handle())
        };
        let touched_words = targets.layout().nblocks().div_ceil(64);
        let threads = omfl_par::default_threads();
        if m >= HUGE_METRIC_MIN_POINTS && threads > 1 {
            targets.set_scan_pool(Some(Arc::new(TaskPool::new(threads))));
        }
        Self {
            inst,
            sol: Solution::new(),
            past: Vec::new(),
            index,
            past_index,
            b_small: vec![0.0; m * s],
            b_large: vec![0.0; m],
            f_small,
            f_full,
            stored_rows,
            rep_scratch: Vec::new(),
            arrival_rep: Vec::new(),
            arrival_rep_at: None,
            blocks_scratch: Vec::new(),
            touched: vec![vec![0; touched_words]; s + 1],
            targets,
            last_t3: Vec::new(),
            last_t4: (f64::INFINITY, PointId(0)),
            last_targets_valid: false,
            scratch: ServeScratch::default(),
            dual_sum: 0.0,
            bad_cost,
        }
    }

    /// Folds a fresh opening into the facility index. On the row path it
    /// walks `at`'s stored row. On the block-pass path `at`'s
    /// representative distances (the arrival's, when it opens there; else
    /// one representative pass) pick the blocks whose lower bound on
    /// `d(·, at)` undercuts their largest cached distance, and the bounded
    /// refresh reads only those blocks, however many there are. Values are
    /// identical either way.
    fn note_opening(&mut self, e: Option<CommodityId>, at: PointId, fid: FacilityId) {
        if self.stored_rows {
            self.index.note_opening(e, stored_row(self.inst, at), fid);
            return;
        }
        let layout = self.targets.layout();
        let (mut rep_d, blocks) = (&self.arrival_rep, &mut self.blocks_scratch);
        if self.arrival_rep_at != Some(at) {
            layout.rep_distances(self.inst, at, &mut self.rep_scratch);
            rep_d = &self.rep_scratch;
        }
        let maxima = self.index.block_maxima(e);
        layout.blocks_where(rep_d, |b, dlb| dlb < maxima[b], blocks);
        self.index
            .note_opening_in_blocks(self.inst, e, at, blocks, fid);
    }

    /// The instance the algorithm runs on.
    pub fn instance(&self) -> &Instance {
        self.inst
    }

    /// Frozen dual state of all served requests (for the validator and the
    /// dual lower bound).
    pub fn past_requests(&self) -> &[PastRequest] {
        &self.past
    }

    /// `Σ_r Σ_e a_{re}` over all served requests.
    pub fn dual_sum(&self) -> f64 {
        self.dual_sum
    }

    /// The incrementally maintained bid matrices `(B, B̂)` — `B[m][e]` flat
    /// at `e·|M| + m` (commodity-major), `B̂[m]` per point. Exposed for
    /// invariant tests: both
    /// must stay non-negative (up to float noise) and below `f^{e}_m` /
    /// `f^{S}_m`; the independent recomputation lives in
    /// [`crate::validate::check_bid_feasibility`].
    pub fn bids(&self) -> (&[f64], &[f64]) {
        (&self.b_small, &self.b_large)
    }

    /// The dual-feasibility lower bound on OPT from Corollary 17: the duals
    /// scaled by `γ = 1 / (5 √|S| H_n)` are dual-feasible, so
    /// `γ · Σ a ≤ OPT`.
    pub fn scaled_dual_lower_bound(&self) -> f64 {
        let n = self.past.len();
        if n == 0 {
            return 0.0;
        }
        let gamma = 1.0 / (5.0 * (self.inst.num_commodities() as f64).sqrt() * harmonic(n));
        gamma * self.dual_sum
    }

    /// The facility index (for diagnostics and the refresh-boundary tests).
    pub fn facility_index(&self) -> &FacilityIndex {
        &self.index
    }

    /// The opening-target index, whose block bounds the exact-bound tests
    /// check against [`Self::bids`] after every arrival.
    pub fn opening_targets(&self) -> &OpeningTargetIndex {
        &self.targets
    }

    /// The t3/t4 opening targets the last arrival raced against:
    /// per-member `(value, location)` t3 pairs (parallel to the request's
    /// ascending commodities) and the t4 pair. `None` when the last arrival
    /// took the zero-distance large fast path (no targets are computed
    /// there — the race ends at delta 0 before any target is read).
    ///
    /// This is the lockstep hook for `tests/tests/index_bounds.rs`: the
    /// recorded targets must equal verbatim strict-`<` scans over the bids
    /// of a `naive::NaivePd` run, taken just before each arrival, bit for
    /// bit.
    pub fn last_opening_targets(&self) -> Option<(&[OpeningTarget], OpeningTarget)> {
        if self.last_targets_valid {
            Some((&self.last_t3, self.last_t4))
        } else {
            None
        }
    }

    /// `(blocks pruned, blocks scanned)` across the opening-target index's
    /// queries. Always `Some`: every engine keeps the index.
    pub fn opening_target_stats(&self) -> Option<(u64, u64)> {
        Some(self.targets.stats())
    }

    /// `(blocks skipped, blocks scanned)` by the past-index shrink walks.
    pub fn past_index_stats(&self) -> (u64, u64) {
        self.past_index.stats()
    }

    /// Always `None`: the engine keeps no row cache. It stays because the
    /// benchmark's counter table reads it; ROADMAP direction 1(a) retires
    /// it with the other per-structure accessors.
    pub fn distance_cache_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// Always `None`: no row is ever filled, partially or whole. It stays
    /// because the benchmark's counter table reads it; ROADMAP direction
    /// 1(a) retires it with the other per-structure accessors.
    pub fn row_fallback_promotions(&self) -> Option<u64> {
        None
    }

    /// Whether arrivals are served on the block-pass path, which the
    /// engine takes whenever the metric lends no stored rows
    /// ([`omfl_metric::Metric::row`]), at every size: the t3/t4 argmins,
    /// the facility-cache refresh and the cap shrinks read block passes of
    /// the layout, and the freeze walk screens its distances. Fixed at
    /// construction.
    pub fn partial_rows_active(&self) -> bool {
        !self.stored_rows
    }

    /// Nearest open facility offering commodity `e` (small-for-`e` or large)
    /// — an `O(1)` cache lookup, tie-identical to the retired linear scan.
    fn nearest_offering(&self, e: CommodityId, from: PointId) -> Option<(FacilityId, f64)> {
        self.index.nearest_offering(e, from)
    }

    /// Nearest open large facility — an `O(1)` cache lookup.
    fn nearest_large(&self, from: PointId) -> Option<(FacilityId, f64)> {
        self.index.nearest_large(from)
    }

    /// Applies cap shrinkage for past requests after a *small* facility for
    /// `e` opened at `at`.
    ///
    /// The [`PastIndex`] narrows the walk to members whose location-bucket
    /// cap bound exceeds the new distance; candidates come back in the
    /// ascending `(past index, slot)` order the full history walk used, so
    /// the `B` updates happen in the identical floating-point order.
    ///
    /// The shrinks mark the blocks whose bids they lowered
    /// ([`Self::shrink_rows`]), and the rebuild recomputes only those
    /// blocks.
    fn post_open_small(&mut self, e: CommodityId, at: PointId) {
        let m = self.inst.num_points();
        for (pi, slot) in self.past_index.small_shrink_candidates(self.inst, e, at) {
            let pr = &mut self.past[pi as usize];
            let dj = self.inst.distance(at, pr.location);
            let old = pr.caps[slot as usize];
            if dj < old {
                pr.caps[slot as usize] = dj;
                let loc = pr.location;
                self.shrink_rows(loc, dj, &[(e.index(), old)]);
            }
        }
        // `B[·][e]` shrank in the marked blocks, whose bounds went stale
        // low (still sound); rebuilding them restores exact minima.
        let (f_row, b_row) = (
            &self.f_small[e.index() * m..(e.index() + 1) * m],
            &self.b_small[e.index() * m..(e.index() + 1) * m],
        );
        let touched = &mut self.touched[e.index()];
        self.targets.rebuild_small_blocks(e, f_row, b_row, touched);
    }

    /// Applies cap shrinkage after a *large* facility opened at `at`:
    /// it joins `F̂` and every `F(e)`. Same bucketed narrowing as
    /// [`Self::post_open_small`], walking candidate requests in ascending
    /// past order; each request shrinks every family whose cap the opening
    /// lowers in one [`Self::shrink_rows`] read.
    fn post_open_large(&mut self, at: PointId) {
        let m = self.inst.num_points();
        let s = self.inst.num_commodities();
        let mut families = Vec::new();
        for pi in self.past_index.large_shrink_candidates(self.inst, at) {
            let pr = &mut self.past[pi as usize];
            let dj = self.inst.distance(at, pr.location);
            families.clear();
            // Large-facility cap.
            if dj < pr.cap_total {
                families.push((s, pr.cap_total));
                pr.cap_total = dj;
            }
            // Per-commodity caps (a large facility offers every commodity).
            for (&e, cap) in pr.commodities.iter().zip(pr.caps.iter_mut()) {
                if dj < *cap {
                    families.push((e.index(), *cap));
                    *cap = dj;
                }
            }
            if !families.is_empty() {
                let loc = pr.location;
                self.shrink_rows(loc, dj, &families);
            }
        }
        // Budgets shrank in the marked blocks: stale-low bounds stay sound,
        // and rebuilding each row's marked blocks restores exact minima.
        let (t, touched) = (&mut self.targets, &mut self.touched);
        t.rebuild_large_blocks(&self.f_full, &self.b_large, &mut touched[s]);
        for (e, touched) in touched[..s].iter_mut().enumerate() {
            let (f_row, b_row) = (
                &self.f_small[e * m..(e + 1) * m],
                &self.b_small[e * m..(e + 1) * m],
            );
            t.rebuild_small_blocks(CommodityId(e as u16), f_row, b_row, touched);
        }
    }

    /// The cap-shrink subtractions of one past request at `loc` whose caps
    /// fell to `dj`: for each `(f, old)` of `families`, bid row `f` (a
    /// commodity's `B` row, or `B̂` at `f = |S|`) takes [`shrink_bid`] at
    /// every location, and row `f`'s `touched` set gains every block whose
    /// bids it lowered, for the bound rebuild.
    ///
    /// On the row path each family is one [`shrink_row`] walk over `loc`'s
    /// stored row. On the block-pass path the pass visits only the blocks
    /// whose lower bound on `d(·, loc)` is below the largest old cap,
    /// however many they are — no other block holds a `d < old` for any
    /// family. Each kept block's member distances come from one layout
    /// pass and feed every family whose own old cap clears the block's
    /// bound, which marks the block. Every bid slot still takes one
    /// subtraction per family, so the rows end bit-identical to per-family
    /// walks.
    fn shrink_rows(&mut self, loc: PointId, dj: f64, families: &[(usize, f64)]) {
        let (b_small, b_large) = (&mut self.b_small, &mut self.b_large);
        let layout = self.targets.layout();
        if self.stored_rows {
            let drow = stored_row(self.inst, loc);
            for &(f, old) in families {
                let b_row = bid_row(b_small, b_large, f);
                shrink_row(b_row, drow, old, dj, layout, &mut self.touched[f]);
            }
            return;
        }
        let reach = families.iter().fold(0.0f64, |r, &(_, old)| r.max(old));
        let (rep_d, blocks) = (&mut self.rep_scratch, &mut self.blocks_scratch);
        layout.rep_distances(self.inst, loc, rep_d);
        layout.blocks_where(rep_d, |_, dlb| dlb < reach, blocks);
        let mut buf = [0.0; HUGE_BLOCK];
        for &b in blocks.iter() {
            let bi = b as usize;
            let dlb = layout.block_dlb(bi, rep_d);
            let dists = layout.member_distances(self.inst, bi, loc, &mut buf);
            for &(f, old) in families {
                if dlb < old {
                    let row = bid_row(b_small, b_large, f);
                    for (&p, &d) in layout.members(bi).iter().zip(dists) {
                        shrink_bid(&mut row[p as usize], d, old, dj);
                    }
                    mark_block(&mut self.touched[f], bi);
                }
            }
        }
    }

    /// Freezes the served request's duals into the bid matrices.
    ///
    /// Only members with a positive cap touch the bid rows, and an addition
    /// `(cap − d)⁺` is non-zero exactly for locations with `d < cap` — so
    /// the incremental path skips the zero terms bit-exactly (`x + 0.0 == x`
    /// for every value `B` can take: additions of positive terms and exact
    /// cancellations never produce `-0.0`) and logs precisely the locations
    /// whose budgets moved as the opening-target repair set.
    fn freeze(&mut self, request: &Request, members: &[CommodityId], duals: &[f64]) {
        let loc = request.location();
        let pi = self.past.len() as u32;
        let mut caps = Vec::with_capacity(members.len());
        for (&e, &a) in members.iter().zip(duals) {
            let d_fe = self
                .nearest_offering(e, loc)
                .map(|(_, d)| d)
                .unwrap_or(f64::INFINITY);
            caps.push(a.min(d_fe));
        }
        let total: f64 = duals.iter().sum();
        let d_fhat = self
            .nearest_large(loc)
            .map(|(_, d)| d)
            .unwrap_or(f64::INFINITY);
        let cap_total = total.min(d_fhat);
        if caps.iter().any(|&c| c > 0.0) || cap_total > 0.0 {
            // The fast path and zero-dual arrivals never reach this row
            // borrow — their caps are all zero.
            self.freeze_bids(loc, members, &caps, cap_total);
        }
        self.dual_sum += total;
        self.past_index
            .push_request(pi, loc, members, &caps, cap_total);
        self.past.push(PastRequest {
            location: loc,
            commodities: members.to_vec(),
            duals: duals.to_vec(),
            caps,
            cap_total,
        });
    }

    /// The bid-reinvestment additions of [`Self::freeze`], split out so the
    /// distance row is borrowed only when some cap is positive.
    ///
    /// One walk on both paths, [`OpeningTargetIndex::freeze_reinvest`]:
    /// sharded over the worker pool when one is installed, and bit-identical
    /// whatever feeds it its distances. On the row path it reads the
    /// arrival's stored row; on the block-pass path
    /// ([`Self::partial_rows_active`]) the metric's certified f32 screening
    /// brackets, confirmed by exact calls.
    fn freeze_bids(&mut self, loc: PointId, members: &[CommodityId], caps: &[f64], cap_total: f64) {
        let full_row = self.stored_rows.then(|| stored_row(self.inst, loc));
        self.targets.freeze_reinvest(
            self.inst,
            loc,
            full_row,
            members,
            caps,
            cap_total,
            &mut self.b_small,
            &mut self.b_large,
            &self.f_small,
            &self.f_full,
        );
    }
}

/// `a` is tight against target `t` (reached within tolerance).
#[inline]
fn tight(value: f64, target: f64) -> bool {
    value >= target - EPS * (1.0 + target.abs())
}

impl OnlineAlgorithm for PdOmflp<'_> {
    fn serve(&mut self, request: &Request) -> Result<ServeOutcome, CoreError> {
        if let Some(bad) = &self.bad_cost {
            return Err(bad.clone());
        }
        request.validate(self.inst)?;
        let loc = request.location();
        let mpts = self.inst.num_points();

        // Per-arrival buffers are reused across requests (the scratch is
        // moved out so the borrow checker lets the helpers take &mut self).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.members.clear();
        scratch.members.extend(request.demand().iter());
        let k = scratch.members.len();

        // Fast path: a large facility at distance zero. The continuous
        // process then ends before any dual grows — the first event fires at
        // delta = 0 and large-connect has top priority — so every target
        // computed below would be discarded unread. Serving directly is
        // bit-identical (duals all zero, caps all zero, no bid updates) and
        // skips the O(|M|) per-arrival work entirely; on hotspot-style
        // workloads this is the majority of arrivals once a large opens.
        if k > 0 {
            if let Some((fid, d)) = self.index.nearest_large(loc) {
                if d == 0.0 {
                    self.last_targets_valid = false;
                    scratch.a.clear();
                    scratch.a.resize(k, 0.0);
                    scratch.fids.clear();
                    scratch.fids.push(fid);
                    let start_con = self.sol.construction_cost();
                    let assignment = self.sol.assign(self.inst, request.clone(), &scratch.fids);
                    let connection_cost = assignment.connection_cost;
                    let assigned_to = assignment.facilities.clone();
                    self.freeze(request, &scratch.members, &scratch.a);
                    self.scratch = scratch;
                    return Ok(ServeOutcome {
                        opened: Vec::new(),
                        assigned_to,
                        connection_cost,
                        construction_cost: self.sol.construction_cost() - start_con,
                        served_by_large: true,
                    });
                }
            }
        }

        // The arrival's distances d(m, r) for the t3/t4 argmins. On the
        // row path the metric's stored row is read in place. On the
        // block-pass path one representative pass of the layout gives the
        // per-block bounds, and the argmins read each block they scan
        // through one layout pass, so no row is read. The values are the
        // metric's either way, so targets, statistics and all downstream
        // state are the same.
        let inst = self.inst;
        let dists = if self.stored_rows {
            let row = stored_row(inst, loc);
            // One pass of per-block distance bounds for this arrival,
            // shared by every t3/t4 argmin below and the freeze walk.
            self.targets.prepare_query_row(Some(loc), row);
            QueryDistances::Row(row)
        } else {
            let t = &mut self.targets;
            // One pass of per-block distance bounds for this arrival,
            // shared by every t3/t4 argmin below and the freeze walk.
            t.layout().rep_distances(inst, loc, &mut self.arrival_rep);
            self.arrival_rep_at = Some(loc);
            t.prepare_query_at(Some(loc), &self.arrival_rep);
            QueryDistances::Layout(inst, loc)
        };

        // Per-commodity targets t1 (connect) / t3 (temp open) and joint
        // targets t2 (connect large) / t4 (open large). All constant during
        // the arrival (see module docs). t3/t4 come from the opening-target
        // index's block-pruned scans.
        scratch.t1.clear();
        scratch.t1.resize(k, f64::INFINITY);
        scratch.t1_fac.clear();
        scratch.t1_fac.resize(k, None);
        scratch.t3.clear();
        scratch.t3.resize(k, f64::INFINITY);
        scratch.t3_loc.clear();
        scratch.t3_loc.resize(k, PointId(0));
        for (i, &e) in scratch.members.iter().enumerate() {
            if let Some((fid, d)) = self.index.nearest_offering(e, loc) {
                scratch.t1[i] = d;
                scratch.t1_fac[i] = Some(fid);
            }
            let f_row = &self.f_small[e.index() * mpts..(e.index() + 1) * mpts];
            let b_row = &self.b_small[e.index() * mpts..(e.index() + 1) * mpts];
            let (best, best_m) = self.targets.small_target(e, f_row, b_row, dists);
            scratch.t3[i] = best;
            scratch.t3_loc[i] = best_m;
        }
        let (t4, t4_loc) = self
            .targets
            .large_target(&self.f_full, &self.b_large, dists);
        let (t2, t2_fac) = match self.index.nearest_large(loc) {
            Some((fid, d)) => (d, Some(fid)),
            None => (f64::INFINITY, None),
        };

        // Record the race targets for the lockstep tests.
        self.last_t3.clear();
        self.last_t3.extend(
            scratch
                .t3
                .iter()
                .zip(&scratch.t3_loc)
                .map(|(&v, &p)| (v, p)),
        );
        self.last_t4 = (t4, t4_loc);
        self.last_targets_valid = true;

        // Event loop: raise unserved duals simultaneously. Unserved members
        // are visited in ascending index order, exactly like the collected
        // index list the pre-scratch version allocated per iteration.
        scratch.a.clear();
        scratch.a.resize(k, 0.0);
        scratch.outcome.clear();
        scratch.outcome.resize(k, None);
        let (t1, t1_fac) = (&scratch.t1, &scratch.t1_fac);
        let (t3, t3_loc) = (&scratch.t3, &scratch.t3_loc);
        let (a, outcome) = (&mut scratch.a, &mut scratch.outcome);
        let mut total: f64 = 0.0; // Σ_e a_{re}, frozen + growing
        let mut large_mode: Option<(Option<FacilityId>, PointId, bool)> = None; // (existing, open-at, is_open)
        loop {
            let u = outcome.iter().filter(|o| o.is_none()).count();
            if u == 0 {
                break;
            }
            // Next event distance.
            let mut delta = f64::INFINITY;
            for i in 0..k {
                if outcome[i].is_none() {
                    delta = delta.min(t1[i] - a[i]).min(t3[i] - a[i]);
                }
            }
            delta = delta
                .min((t2 - total) / u as f64)
                .min((t4 - total) / u as f64);
            debug_assert!(delta.is_finite(), "t3/t4 are always finite");
            let delta = delta.max(0.0);
            for i in 0..k {
                if outcome[i].is_none() {
                    a[i] += delta;
                }
            }
            total += delta * u as f64;

            // Priority: large-connect, large-open, small-connect, small-open.
            if tight(total, t2) {
                large_mode = Some((t2_fac, PointId(0), false));
                break;
            }
            if tight(total, t4) {
                large_mode = Some((None, t4_loc, true));
                break;
            }
            let mut progressed = false;
            for i in 0..k {
                if outcome[i].is_none() && tight(a[i], t1[i]) {
                    outcome[i] = Some(MemberServe::Existing(
                        t1_fac[i].expect("finite t1 implies a facility"),
                    ));
                    progressed = true;
                }
            }
            for i in 0..k {
                if outcome[i].is_none() && tight(a[i], t3[i]) {
                    outcome[i] = Some(MemberServe::Temp(t3_loc[i]));
                    progressed = true;
                }
            }
            debug_assert!(progressed, "event loop must make progress each iteration");
            if !progressed {
                // Defensive: force the cheapest pending target to fire so a
                // floating-point corner cannot hang the loop.
                let i = (0..k)
                    .filter(|&i| outcome[i].is_none())
                    .min_by(|&x, &y| {
                        let vx = t1[x].min(t3[x]) - a[x];
                        let vy = t1[y].min(t3[y]) - a[y];
                        vx.partial_cmp(&vy).expect("finite")
                    })
                    .expect("unserved non-empty");
                outcome[i] = Some(if t1[i] <= t3[i] {
                    MemberServe::Existing(t1_fac[i].expect("finite t1"))
                } else {
                    MemberServe::Temp(t3_loc[i])
                });
            }
        }

        // Realize the outcome.
        let start_con = self.sol.construction_cost();
        let mut opened = Vec::new();
        scratch.fids.clear();
        let (assigned, served_by_large): (&[FacilityId], bool) = match large_mode {
            Some((Some(fid), _, false)) => {
                scratch.fids.push(fid);
                (&scratch.fids, true)
            }
            Some((_, at, true)) => {
                let fid =
                    self.sol
                        .open_facility(self.inst, at, CommoditySet::full(self.inst.universe()));
                self.note_opening(None, at, fid);
                opened.push(fid);
                self.post_open_large(at);
                scratch.fids.push(fid);
                (&scratch.fids, true)
            }
            Some((None, _, false)) => unreachable!("large-connect requires a facility"),
            None => {
                // Small mode: open all temporary facilities, collect targets.
                for (i, &e) in scratch.members.iter().enumerate() {
                    match scratch.outcome[i].expect("all members served") {
                        MemberServe::Existing(fid) => scratch.fids.push(fid),
                        MemberServe::Temp(at) => {
                            let config = CommoditySet::singleton(self.inst.universe(), e)
                                .map_err(CoreError::Commodity)?;
                            let fid = self.sol.open_facility(self.inst, at, config);
                            self.note_opening(Some(e), at, fid);
                            opened.push(fid);
                            self.post_open_small(e, at);
                            scratch.fids.push(fid);
                        }
                    }
                }
                (&scratch.fids, false)
            }
        };
        let assignment = self.sol.assign(self.inst, request.clone(), assigned);
        let connection_cost = assignment.connection_cost;
        let assigned_to = assignment.facilities.clone();

        // Freeze duals into the bid matrices (after openings, so caps see
        // the new facility sets).
        self.freeze(request, &scratch.members, &scratch.a);

        self.scratch = scratch;
        Ok(ServeOutcome {
            opened,
            assigned_to,
            connection_cost,
            construction_cost: self.sol.construction_cost() - start_con,
            served_by_large,
        })
    }

    fn solution(&self) -> &Solution {
        &self.sol
    }

    fn name(&self) -> &'static str {
        "pd-omflp"
    }

    /// The generic counters plus the PD-specific duals: the accumulated
    /// dual sum and the Corollary 17 lower bound on OPT — the fields the
    /// serve layer's live bound checks read off the snapshot handle.
    fn snapshot(&self) -> crate::algorithm::EngineSnapshot {
        let mut snap = crate::algorithm::EngineSnapshot::from_solution(&self.sol);
        snap.dual_sum = self.dual_sum;
        snap.dual_lower_bound = self.scaled_dual_lower_bound();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_online_verified;
    use omfl_commodity::cost::CostModel;
    use omfl_metric::line::LineMetric;

    fn single_point_inst(s: u16) -> Instance {
        Instance::new(
            Box::new(LineMetric::single_point()),
            s,
            CostModel::ceil_sqrt(s),
        )
        .unwrap()
    }

    fn req(inst: &Instance, loc: u32, ids: &[u16]) -> Request {
        Request::new(
            PointId(loc),
            CommoditySet::from_ids(inst.universe(), ids).unwrap(),
        )
    }

    #[test]
    fn first_request_opens_small_facility() {
        let inst = single_point_inst(16);
        let mut alg = PdOmflp::new(&inst);
        let out = alg.serve(&req(&inst, 0, &[3])).unwrap();
        assert_eq!(out.opened.len(), 1);
        assert!(!out.served_by_large);
        assert_eq!(alg.solution().num_small_facilities(), 1);
        // Small facility cost under ceil-sqrt is 1; zero distance.
        assert!((alg.solution().total_cost() - 1.0).abs() < 1e-9);
        // The dual reached f^{e}_m = 1.
        assert!((alg.past_requests()[0].duals[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theorem2_gadget_switches_to_large_facility() {
        // |S| = 16, sqrt = 4, g(σ) = ceil(|σ|/4): distinct singleton requests
        // on one point. PD opens small facilities until the accumulated bids
        // pay for the large facility (f^S = 4), then switches; afterwards
        // everything is served for free.
        let inst = single_point_inst(16);
        let mut alg = PdOmflp::new(&inst);
        for e in 0..16u16 {
            alg.serve(&req(&inst, 0, &[e])).unwrap();
        }
        alg.solution().verify(&inst).unwrap();
        assert_eq!(
            alg.solution().num_large_facilities(),
            1,
            "exactly one large facility must open"
        );
        let smalls = alg.solution().num_small_facilities();
        assert!(
            (3..=5).contains(&smalls),
            "≈√S small facilities before the switch, got {smalls}"
        );
        // Total cost ≈ smalls·1 + 4; OPT for all of S is 4 ⇒ ratio O(1)·√S-ish.
        let cost = alg.solution().total_cost();
        assert!(cost <= 10.0, "cost {cost} should be ≈ √S + f^S");
    }

    #[test]
    fn served_by_large_after_large_exists() {
        let inst = single_point_inst(16);
        let mut alg = PdOmflp::new(&inst);
        for e in 0..16u16 {
            alg.serve(&req(&inst, 0, &[e])).unwrap();
        }
        // A fresh request is served by the (distance 0) large facility with
        // zero dual growth.
        let out = alg.serve(&req(&inst, 0, &[0, 5, 9])).unwrap();
        assert!(out.served_by_large);
        assert!(out.opened.is_empty());
        assert_eq!(out.connection_cost, 0.0);
    }

    #[test]
    fn connect_to_existing_small_facility_when_close() {
        // Two points at distance 0.1; singleton cost is 5. The second
        // request should connect (paying 0.1) rather than open (paying 5).
        let inst = Instance::new(
            Box::new(LineMetric::new(vec![0.0, 0.1]).unwrap()),
            4,
            CostModel::power(4, 1.0, 5.0),
        )
        .unwrap();
        let mut alg = PdOmflp::new(&inst);
        alg.serve(&req(&inst, 0, &[2])).unwrap();
        let before = alg.solution().facilities().len();
        let out = alg.serve(&req(&inst, 1, &[2])).unwrap();
        assert_eq!(alg.solution().facilities().len(), before, "no new facility");
        assert!((out.connection_cost - 0.1).abs() < 1e-9);
    }

    #[test]
    fn multi_commodity_request_is_fully_covered() {
        let inst = Instance::new(
            Box::new(LineMetric::new(vec![0.0, 2.0, 5.0]).unwrap()),
            6,
            CostModel::power(6, 1.0, 1.5),
        )
        .unwrap();
        let reqs = vec![
            req(&inst, 0, &[0, 1]),
            req(&inst, 1, &[1, 2, 3]),
            req(&inst, 2, &[0, 4, 5]),
            req(&inst, 1, &[0, 1, 2, 3, 4, 5]),
        ];
        let mut alg = PdOmflp::new(&inst);
        run_online_verified(&mut alg, &inst, &reqs).unwrap();
        assert_eq!(alg.solution().num_requests(), 4);
    }

    #[test]
    fn corollary8_cost_at_most_three_dual_sums() {
        let inst = Instance::new(
            Box::new(LineMetric::uniform(8, 10.0).unwrap()),
            8,
            CostModel::power(8, 1.0, 2.0),
        )
        .unwrap();
        let mut alg = PdOmflp::new(&inst);
        let mut reqs = Vec::new();
        for i in 0..20u32 {
            let loc = (i * 3) % 8;
            let ids = [(i % 8) as u16, ((i * 5 + 1) % 8) as u16];
            reqs.push(req(&inst, loc, &ids));
        }
        run_online_verified(&mut alg, &inst, &reqs).unwrap();
        let cost = alg.solution().total_cost();
        assert!(
            cost <= 3.0 * alg.dual_sum() + 1e-6,
            "Corollary 8 violated: cost {cost} > 3·Σa = {}",
            3.0 * alg.dual_sum()
        );
    }

    #[test]
    fn dual_lower_bound_is_positive_and_below_cost() {
        let inst = single_point_inst(16);
        let mut alg = PdOmflp::new(&inst);
        for e in 0..8u16 {
            alg.serve(&req(&inst, 0, &[e])).unwrap();
        }
        let lb = alg.scaled_dual_lower_bound();
        assert!(lb > 0.0);
        assert!(lb <= alg.solution().total_cost() + 1e-9);
    }

    /// The blocks a touched-block set holds, ascending.
    fn marked_blocks(touched: &[u64]) -> Vec<usize> {
        let bits = touched.len() * 64;
        (0..bits)
            .filter(|&b| touched[b / 64] >> (b % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn shrink_kernel_matches_the_scalar_walk_and_marks_exactly_the_lowered_blocks() {
        // Cap pairs `(old, dj)`, ordinary, huge, subnormal and down to 0.
        let caps = [(3.0, 1.25), (1e300, 4e299), (2e-323, 5e-324), (1.0, 0.0)];
        let mut st = 0x5EED_CAFEu64;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        // Lengths around multiples of the chunk width and of the block size.
        for n in [1usize, 5, 16, 31, 32, 33, 64, 71, 203] {
            // Ids scattered along the line, so the layout's blocks are not
            // runs of ids.
            let positions = (0..n).map(|p| ((p * 37) % n) as f64).collect();
            let inst = Instance::new(
                Box::new(LineMetric::new(positions).unwrap()),
                2,
                CostModel::power(2, 1.0, 1.0),
            )
            .unwrap();
            let zeros = vec![0.0; 2 * n];
            let targets = OpeningTargetIndex::for_instance(&inst, &zeros, &zeros[..n]);
            let layout = targets.layout();
            if n > 16 {
                assert!(
                    (0..n).any(|p| layout.block_of(p) != p / 16),
                    "n = {n}: the layout must not be the identity"
                );
            }
            for (old, dj) in caps {
                let specials = [
                    old,
                    dj,
                    0.0,
                    5e-324,
                    f64::MIN_POSITIVE / 2.0,
                    f64::from_bits(old.to_bits() - 1),
                    f64::from_bits(old.to_bits() + 1),
                    f64::from_bits(dj.to_bits() + 1),
                    1e300,
                    2.0 * old,
                ];
                let mut drow: Vec<f64> = (0..n)
                    .map(|_| match next() % 4 {
                        0 => specials[(next() % specials.len() as u64) as usize],
                        _ => old * 2.0 * ((next() % 1000) as f64 / 1000.0),
                    })
                    .collect();
                // The tail entry always lowers its bid, and the first block
                // ties `old` everywhere, so it must stay unmarked.
                drow[n - 1] = 0.0;
                let first = layout.block_of(0);
                if layout.members(first).iter().all(|&p| p as usize != n - 1) {
                    for &p in layout.members(first) {
                        drow[p as usize] = old;
                    }
                }
                let bids = [0.0, -0.0, 5e-324, 1.0, 7.5, 1e300, 3.0e-310];
                let b0: Vec<f64> = (0..n)
                    .map(|_| bids[(next() % bids.len() as u64) as usize])
                    .collect();
                let mut want = b0.clone();
                for (b, &d) in want.iter_mut().zip(&drow) {
                    shrink_bid(b, d, old, dj);
                }
                let mut got = b0;
                let mut touched = vec![0u64; layout.nblocks().div_ceil(64)];
                shrink_row(&mut got, &drow, old, dj, layout, &mut touched);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}, caps ({old}, {dj})");
                let mut lowered: Vec<usize> = (0..n)
                    .filter(|&p| drow[p] < old)
                    .map(|p| layout.block_of(p))
                    .collect();
                lowered.sort_unstable();
                lowered.dedup();
                assert_eq!(
                    marked_blocks(&touched),
                    lowered,
                    "n = {n}, caps ({old}, {dj}): marked blocks"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let inst = Instance::new(
            Box::new(LineMetric::uniform(5, 4.0).unwrap()),
            5,
            CostModel::power(5, 1.0, 1.0),
        )
        .unwrap();
        let reqs: Vec<Request> = (0..12u32)
            .map(|i| req(&inst, i % 5, &[(i % 5) as u16, ((i + 2) % 5) as u16]))
            .collect();
        let run = |_| {
            let mut alg = PdOmflp::new(&inst);
            for r in &reqs {
                alg.serve(r).unwrap();
            }
            (
                alg.solution().total_cost(),
                alg.solution().facilities().len(),
                alg.dual_sum(),
            )
        };
        assert_eq!(run(0), run(1));
    }
}
