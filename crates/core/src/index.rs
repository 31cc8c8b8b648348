//! Incremental nearest-open-facility indexing — the serve-path hot layer.
//!
//! Every online engine in this workspace repeatedly asks the same two
//! questions per arrival: "what is the nearest open facility offering
//! commodity `e`?" and "what is the nearest open *large* facility?". The
//! naive answer scans every open facility per query, so a request stream of
//! length `n` pays `O(n · |F|)` distance evaluations — quadratic once `|F|`
//! grows with `n` (cf. the incremental potential maintenance in
//! Fotakis-style online facility location implementations).
//!
//! [`FacilityIndex`] inverts the maintenance: facilities open rarely, so on
//! each opening we refresh a per-point cache of `(nearest facility,
//! distance)` once and every subsequent query is `O(1)`. The refresh is
//! `O(|M|)` over a full distance row; with the engine's block layout
//! attached it visits only the blocks whose certified distance lower bound
//! undercuts their largest cached distance — an opening can only lower
//! caches near the new facility.
//!
//! # Bit-identical tie-breaking (the index invariant)
//!
//! The linear scans this index replaces resolve distance ties by *scan
//! order*: small facilities offering `e` in opening order, then large
//! facilities in opening order, keeping the first minimum (strict `<` to
//! replace). The cache reproduces that exactly:
//!
//! * updates apply openings in opening order and replace only on a strictly
//!   smaller distance, so within each class the earliest-opened minimum wins;
//! * small and large caches are kept separate and combined at query time
//!   with `small wins ties`, mirroring the smalls-then-larges scan order;
//! * cached distances are produced by the *same* `distance(query, location)`
//!   call the scan would make, so the floats are identical, not just close.
//!
//! The differential suite (`tests/tests/differential.rs`) pins this down by
//! comparing the indexed PD against the retained linear-scan reference
//! engine bit for bit.

use crate::instance::Instance;
use crate::kd::KdTree;
use crate::solution::FacilityId;
use crate::CoreError;
use omfl_commodity::CommodityId;
use omfl_metric::{simd, PointId};
use omfl_par::{ScatterWriter, ShardWriter, TaskPool};
use std::sync::Arc;

const NO_FACILITY: u32 = u32::MAX;

/// Per-point nearest-open-facility caches, maintained on facility openings.
///
/// Memory is `O(|M|·|S|)` — the same order as the PD bid matrix the analysis
/// already requires.
#[derive(Debug, Clone)]
pub struct FacilityIndex {
    points: usize,
    /// `|S|`: the number of small caches.
    services: usize,
    /// `d(F(e) ∩ smalls, p)`, flat `e·|M| + p` (commodity-major: opening
    /// updates walk every `p` for one `e`, so this keeps them on contiguous
    /// memory; queries are single lookups either way). `INFINITY` when
    /// empty.
    small_d: Vec<f64>,
    /// Matching facility ids, flat `e·|M| + p`; `NO_FACILITY` when empty.
    small_f: Vec<u32>,
    /// `d(F̂, p)`; `INFINITY` when empty.
    large_d: Vec<f64>,
    /// Matching facility ids; `NO_FACILITY` when empty.
    large_f: Vec<u32>,
    /// Openings folded in so far (for diagnostics and refresh-boundary tests).
    openings: usize,
    /// Block layout shared with the engine's [`OpeningTargetIndex`] (when
    /// one is active): lets [`Self::note_opening_in_blocks`] skip every
    /// block an opening provably cannot reach.
    layout: Option<Arc<SpatialLayout>>,
    /// Per-block upper bound on the cached distances, flat `e·nblocks + b`
    /// for the small caches and `|S|·nblocks + b` for the large one.
    /// Starts at `∞`; only the bounded refresh lowers it, recomputing
    /// exactly the blocks it visits — caches only fall, so the bound is
    /// never stale low.
    block_max: Vec<f64>,
}

impl FacilityIndex {
    /// An empty index over `points × services`.
    pub fn new(points: usize, services: usize) -> Self {
        Self {
            points,
            services,
            small_d: vec![f64::INFINITY; points * services],
            small_f: vec![NO_FACILITY; points * services],
            large_d: vec![f64::INFINITY; points],
            large_f: vec![NO_FACILITY; points],
            openings: 0,
            layout: None,
            block_max: Vec::new(),
        }
    }

    /// Adopts the opening-target index's block layout for the bounded
    /// refresh, as [`PastIndex::attach_layout`] does for the shrink walks.
    /// The per-block maxima start at `∞`, so the first opening of each
    /// cache visits every block.
    pub(crate) fn attach_layout(&mut self, layout: Arc<SpatialLayout>) {
        self.block_max = vec![f64::INFINITY; (self.services + 1) * layout.nblocks()];
        self.layout = Some(layout);
    }

    /// Range of the maxima row of the cache an opening of `e` (small) or
    /// `None` (large) refreshes; empty without an attached layout.
    fn maxima_range(&self, e: Option<CommodityId>) -> std::ops::Range<usize> {
        let nblocks = self.layout.as_ref().map_or(0, |l| l.nblocks());
        let row = e.map_or(self.services, |e| e.index());
        row * nblocks..(row + 1) * nblocks
    }

    /// The per-block maxima of the cache an opening of `e` (small) or
    /// `None` (large) refreshes; empty without an attached layout.
    pub(crate) fn block_maxima(&self, e: Option<CommodityId>) -> &[f64] {
        &self.block_max[self.maxima_range(e)]
    }

    /// The cache an opening of `e` (small) or `None` (large) refreshes,
    /// with its per-block maxima and the attached layout.
    #[allow(clippy::type_complexity)]
    fn refresh_parts(
        &mut self,
        e: Option<CommodityId>,
    ) -> (&mut [f64], &mut [u32], &mut [f64], &SpatialLayout) {
        let range = self.maxima_range(e);
        let layout = self
            .layout
            .as_deref()
            .expect("bounded refresh needs a layout");
        let (cache_d, cache_f) = match e {
            Some(e) => {
                let base = e.index() * self.points;
                (
                    &mut self.small_d[base..base + self.points],
                    &mut self.small_f[base..base + self.points],
                )
            }
            None => (&mut self.large_d[..], &mut self.large_f[..]),
        };
        (cache_d, cache_f, &mut self.block_max[range], layout)
    }

    /// The bounded refresh: folds an opening at `at` (small for `e`, or
    /// large for `None`) into the cache over `blocks` only, with the same
    /// strict-`<` update as [`Self::note_small_opening_with_row`], then
    /// recomputes those blocks' maxima exactly. `blocks` must hold every
    /// block whose certified lower bound on `d(·, at)` is below its
    /// maximum: a skipped block has `d(p, at) ≥ max ≥ cached[p]` for every
    /// member, so the update could not fire there. Each block's distances
    /// come from one [`SpatialLayout::member_distances`] pass.
    pub(crate) fn note_opening_in_blocks(
        &mut self,
        inst: &Instance,
        e: Option<CommodityId>,
        at: PointId,
        blocks: &[u32],
        fid: FacilityId,
    ) {
        let (cache_d, cache_f, maxima, layout) = self.refresh_parts(e);
        let mut buf = [0.0; HUGE_BLOCK];
        for &b in blocks {
            let b = b as usize;
            let dists = layout.member_distances(inst, b, at, &mut buf);
            let mut max = 0.0f64;
            for (&p, &d) in layout.members(b).iter().zip(dists) {
                let p = p as usize;
                if d < cache_d[p] {
                    cache_d[p] = d;
                    cache_f[p] = fid.0;
                }
                if cache_d[p] > max {
                    max = cache_d[p];
                }
            }
            maxima[b] = max;
        }
        self.openings += 1;
    }

    /// The wide-coverage fallback of [`Self::note_opening_in_blocks`]: the
    /// full row `row[p] = d(p, at)` walked contiguously, every maximum
    /// recomputed through the layout's positions.
    pub(crate) fn note_opening_full_row(
        &mut self,
        e: Option<CommodityId>,
        row: &[f64],
        fid: FacilityId,
    ) {
        let (cache_d, cache_f, maxima, layout) = self.refresh_parts(e);
        // Block sizes are powers of two: a shift, not a division, per
        // point of the whole row.
        debug_assert!(layout.block.is_power_of_two());
        let shift = layout.block.trailing_zeros();
        maxima.fill(0.0);
        let cache = cache_d.iter_mut().zip(cache_f.iter_mut());
        for (((sd, sf), &d), &pos) in cache.zip(row).zip(&layout.pos) {
            if d < *sd {
                *sd = d;
                *sf = fid.0;
            }
            let b = (pos >> shift) as usize;
            if *sd > maxima[b] {
                maxima[b] = *sd;
            }
        }
        self.openings += 1;
    }

    /// An empty index sized for an instance.
    pub fn for_instance(inst: &Instance) -> Self {
        Self::new(inst.num_points(), inst.num_commodities())
    }

    /// Number of openings folded into the caches so far.
    pub fn openings(&self) -> usize {
        self.openings
    }

    /// Folds a newly opened *small* facility for `e` at `at` into the cache:
    /// `O(|M|)` distance evaluations, once per opening.
    pub fn note_small_opening(
        &mut self,
        inst: &Instance,
        e: CommodityId,
        at: PointId,
        fid: FacilityId,
    ) {
        let base = e.index() * self.points;
        for p in 0..self.points {
            // Same argument order as the scan it replaces: d(query, location).
            let d = inst.distance(PointId(p as u32), at);
            let idx = base + p;
            if d < self.small_d[idx] {
                self.small_d[idx] = d;
                self.small_f[idx] = fid.0;
            }
        }
        self.openings += 1;
    }

    /// Folds a newly opened *large* facility at `at` into the cache.
    pub fn note_large_opening(&mut self, inst: &Instance, at: PointId, fid: FacilityId) {
        for p in 0..self.points {
            let d = inst.distance(PointId(p as u32), at);
            if d < self.large_d[p] {
                self.large_d[p] = d;
                self.large_f[p] = fid.0;
            }
        }
        self.openings += 1;
    }

    /// [`Self::note_small_opening`] with the opening location's distance
    /// row supplied by the caller (`row[p] = d(p, at)`, e.g. from a
    /// [`omfl_metric::blocked::BlockedRowCache`]). The row values must be
    /// the verbatim metric results — then this is bit-identical to the
    /// per-call variant, minus the `O(|M|)` pointer-chasing.
    pub fn note_small_opening_with_row(&mut self, row: &[f64], e: CommodityId, fid: FacilityId) {
        let base = e.index() * self.points;
        let (d_row, f_row) = (
            &mut self.small_d[base..base + row.len()],
            &mut self.small_f[base..base + row.len()],
        );
        for ((sd, sf), &d) in d_row.iter_mut().zip(f_row.iter_mut()).zip(row) {
            if d < *sd {
                *sd = d;
                *sf = fid.0;
            }
        }
        self.openings += 1;
    }

    /// [`Self::note_large_opening`] with a caller-supplied distance row.
    pub fn note_large_opening_with_row(&mut self, row: &[f64], fid: FacilityId) {
        for (p, &d) in row.iter().enumerate() {
            if d < self.large_d[p] {
                self.large_d[p] = d;
                self.large_f[p] = fid.0;
            }
        }
        self.openings += 1;
    }

    /// Nearest open facility offering `e` (small-for-`e` or large), `O(1)`.
    ///
    /// Ties between a small and a large facility go to the small one — the
    /// scan order of the linear search this replaces.
    #[inline]
    pub fn nearest_offering(&self, e: CommodityId, from: PointId) -> Option<(FacilityId, f64)> {
        let idx = e.index() * self.points + from.index();
        let (sd, ld) = (self.small_d[idx], self.large_d[from.index()]);
        if sd.is_infinite() && ld.is_infinite() {
            return None;
        }
        if sd <= ld {
            Some((FacilityId(self.small_f[idx]), sd))
        } else {
            Some((FacilityId(self.large_f[from.index()]), ld))
        }
    }

    /// Nearest open *large* facility, `O(1)`.
    #[inline]
    pub fn nearest_large(&self, from: PointId) -> Option<(FacilityId, f64)> {
        let d = self.large_d[from.index()];
        if d.is_infinite() {
            None
        } else {
            Some((FacilityId(self.large_f[from.index()]), d))
        }
    }

    /// Nearest open small facility offering `e` (larges excluded), `O(1)`.
    #[inline]
    pub fn nearest_small(&self, e: CommodityId, from: PointId) -> Option<(FacilityId, f64)> {
        let idx = e.index() * self.points + from.index();
        let d = self.small_d[idx];
        if d.is_infinite() {
            None
        } else {
            Some((FacilityId(self.small_f[idx]), d))
        }
    }
}

/// Location-bucketed view of frozen per-request state, used by the PD
/// engine's cap-shrink passes.
///
/// `post_open_small` / `post_open_large` must decide, per past request,
/// whether a new facility lowered its bid cap. Requests sharing a location
/// share that decision's distance, and caps only ever shrink — so per
/// `(location, commodity)` bucket we keep the member list plus an upper
/// bound on the members' caps. A whole bucket is skipped in `O(1)` when
/// `d(new facility, location)` is at least the bound, turning the
/// per-opening walk from `O(history)` into `O(|M| + actually-shrinking)`.
///
/// Bounds are allowed to go stale *high* (a skipped shrink elsewhere never
/// lowers them); they are never stale low, so skipping is always sound.
#[derive(Debug, Clone, Default)]
pub struct PastIndex {
    points: usize,
    services: usize,
    /// Members demanding `e` located at `ℓ`, flat `e·|M| + ℓ`
    /// (commodity-major: the candidate filter walks every `ℓ` for one `e`),
    /// in `(past index, slot)` push order (ascending — freeze appends).
    by_loc_e: Vec<Vec<(u32, u16)>>,
    /// Upper bound on `caps[slot]` over the matching bucket.
    max_cap_e: Vec<f64>,
    /// Past-request indices located at `ℓ`, ascending.
    by_loc: Vec<Vec<u32>>,
    /// Upper bound on `max(cap_total, caps[..])` over requests at `ℓ`.
    max_cap_any: Vec<f64>,
    /// Block layout shared with the engine's [`OpeningTargetIndex`] (when
    /// one is active): lets the shrink walks skip whole blocks whose
    /// distance lower bound already exceeds every cap bound inside.
    layout: Option<Arc<SpatialLayout>>,
    /// Per block: locations in the block holding any past entries
    /// (first-touch append order; the bucket-level decisions below are
    /// order-independent, and the output is sorted).
    block_locs: Vec<Vec<u32>>,
    /// Whether a location already sits in its block's `block_locs` list.
    loc_listed: Vec<bool>,
    /// Per-block upper bound on `max_cap_e` over the block's buckets, flat
    /// `e·nblocks + b`. Monotone-up on push; recomputed exactly for blocks
    /// the shrink walk clamps. Never stale low, so skipping is sound.
    block_cap_e: Vec<f64>,
    /// Per-block upper bound on `max_cap_any`.
    block_cap_any: Vec<f64>,
    /// Upper bound on `cap_total` alone over requests at `ℓ` — the
    /// component of `max_cap_any` that only *large* openings shrink, kept
    /// separately so the cross-family clamp passes can recompute
    /// `max_cap_any` from parts without engine data.
    max_cap_total: Vec<f64>,
    /// Commodities with a non-empty bucket at `ℓ` (first-touch order):
    /// lets a large opening clamp every per-commodity bound at a visited
    /// location without scanning the full service universe.
    commodities_at: Vec<Vec<u32>>,
    /// Blocks retired without per-location distance reads by the
    /// layout-pruned shrink walks.
    blocks_skipped: u64,
    /// Blocks the layout-pruned shrink walks actually scanned.
    blocks_scanned: u64,
}

impl PastIndex {
    /// An empty past-request index over `points × services`.
    pub fn new(points: usize, services: usize) -> Self {
        Self {
            points,
            services,
            by_loc_e: vec![Vec::new(); points * services],
            max_cap_e: vec![0.0; points * services],
            by_loc: vec![Vec::new(); points],
            max_cap_any: vec![0.0; points],
            layout: None,
            block_locs: Vec::new(),
            loc_listed: Vec::new(),
            block_cap_e: Vec::new(),
            block_cap_any: Vec::new(),
            max_cap_total: vec![0.0; points],
            commodities_at: vec![Vec::new(); points],
            blocks_skipped: 0,
            blocks_scanned: 0,
        }
    }

    /// `(blocks skipped, blocks scanned)` by the layout-pruned shrink walks
    /// since construction. Pure observability — the counters never feed
    /// back into candidate selection. Both stay 0 without an attached
    /// layout.
    pub fn stats(&self) -> (u64, u64) {
        (self.blocks_skipped, self.blocks_scanned)
    }

    /// Adopts the opening-target index's block layout so the shrink walks
    /// can skip whole blocks by the same radius bounds the argmin scans
    /// use. Must be installed before the first [`Self::push_request`]; the
    /// candidate lists (content *and* order) are identical with or without
    /// a layout — only the number of distance evaluations changes.
    pub(crate) fn attach_layout(&mut self, layout: Arc<SpatialLayout>) {
        debug_assert!(
            self.by_loc.iter().all(Vec::is_empty),
            "attach_layout must precede the first push_request"
        );
        let nblocks = layout.nblocks();
        self.block_locs = vec![Vec::new(); nblocks];
        self.loc_listed = vec![false; self.points];
        self.block_cap_e = vec![0.0; self.services * nblocks];
        self.block_cap_any = vec![0.0; nblocks];
        self.layout = Some(layout);
    }

    /// Registers a freshly frozen request: its location, per-slot
    /// commodities and caps, and the total cap.
    pub fn push_request(
        &mut self,
        pi: u32,
        loc: PointId,
        commodities: &[CommodityId],
        caps: &[f64],
        cap_total: f64,
    ) {
        let l = loc.index();
        let block = self
            .layout
            .as_ref()
            .map(|lay| lay.pos[l] as usize / lay.block);
        let nblocks = self.block_cap_any.len();
        if cap_total > self.max_cap_total[l] {
            self.max_cap_total[l] = cap_total;
        }
        let mut any = cap_total;
        for (slot, (&e, &cap)) in commodities.iter().zip(caps).enumerate() {
            let idx = e.index() * self.points + l;
            if self.by_loc_e[idx].is_empty() {
                self.commodities_at[l].push(e.index() as u32);
            }
            self.by_loc_e[idx].push((pi, slot as u16));
            if cap > self.max_cap_e[idx] {
                self.max_cap_e[idx] = cap;
            }
            if let Some(b) = block {
                let bidx = e.index() * nblocks + b;
                if cap > self.block_cap_e[bidx] {
                    self.block_cap_e[bidx] = cap;
                }
            }
            if cap > any {
                any = cap;
            }
        }
        self.by_loc[l].push(pi);
        if any > self.max_cap_any[l] {
            self.max_cap_any[l] = any;
        }
        if let Some(b) = block {
            if !self.loc_listed[l] {
                self.loc_listed[l] = true;
                self.block_locs[b].push(l as u32);
            }
            if any > self.block_cap_any[b] {
                self.block_cap_any[b] = any;
            }
        }
    }

    /// Candidate `(past index, slot)` members whose commodity-`e` cap *may*
    /// shrink when a small facility for `e` opens at `at` — every member at
    /// a location whose cap bound exceeds `d(at, location)`. Returned sorted
    /// ascending, i.e. the exact order the linear history walk would visit
    /// them in. Buckets that qualify have their bound clamped to the new
    /// distance (all surviving caps are at most that).
    ///
    /// With an attached layout the walk goes block by block: a block whose
    /// certified distance lower bound (`d(at, rep) − radius`, slack
    /// included) is at least its cap bound cannot contain a qualifying
    /// bucket — `d(at, ℓ) ≥ dlb ≥ block cap ≥ bucket cap` for every `ℓ`
    /// in it — so one distance read retires the whole block. Visited
    /// blocks that clamp any bucket get their cap bound recomputed
    /// exactly, keeping future skips tight.
    ///
    /// Clamping a commodity bucket also re-tightens the location's
    /// *any*-cap bound from its parts (`max_cap_total` ∨ the per-commodity
    /// bounds present at the location): without this cross-family clamp a
    /// stream of small openings would leave `max_cap_any` — and hence the
    /// large walk's block bounds — permanently stale-high. The caller
    /// contract (the PD engine's `post_open_small`) is that every returned
    /// member with `d(at, ℓ) < cap` has its cap shrunk to that distance
    /// before bounds are read again.
    pub fn small_shrink_candidates(
        &mut self,
        inst: &Instance,
        e: CommodityId,
        at: PointId,
    ) -> Vec<(u32, u16)> {
        let base = e.index() * self.points;
        let mut out = Vec::new();
        if let Some(layout) = self.layout.clone() {
            let nblocks = self.block_cap_any.len();
            let cap_base = e.index() * nblocks;
            for b in 0..nblocks {
                let bcap = self.block_cap_e[cap_base + b];
                if bcap <= 0.0 || self.block_locs[b].is_empty() {
                    self.blocks_skipped += 1;
                    continue;
                }
                let d_rep = inst.distance(at, PointId(layout.rep[b]));
                if dist_lower_bound(d_rep, layout.radius[b]) >= bcap {
                    self.blocks_skipped += 1;
                    continue;
                }
                self.blocks_scanned += 1;
                let mut touched = false;
                let mut any_touched = false;
                for i in 0..self.block_locs[b].len() {
                    let l = self.block_locs[b][i];
                    let idx = base + l as usize;
                    if self.by_loc_e[idx].is_empty() {
                        continue;
                    }
                    let dj = inst.distance(at, PointId(l));
                    if dj < self.max_cap_e[idx] {
                        out.extend_from_slice(&self.by_loc_e[idx]);
                        self.max_cap_e[idx] = dj;
                        touched = true;
                        any_touched |= self.retighten_any(l as usize);
                    }
                }
                if touched {
                    let mut cap = 0.0f64;
                    for &l in &self.block_locs[b] {
                        cap = cap.max(self.max_cap_e[base + l as usize]);
                    }
                    self.block_cap_e[cap_base + b] = cap;
                }
                if any_touched {
                    let mut cap = 0.0f64;
                    for &l in &self.block_locs[b] {
                        cap = cap.max(self.max_cap_any[l as usize]);
                    }
                    self.block_cap_any[b] = cap;
                }
            }
            out.sort_unstable();
            return out;
        }
        for l in 0..self.by_loc.len() {
            let idx = base + l;
            if self.by_loc_e[idx].is_empty() {
                continue;
            }
            let dj = inst.distance(at, PointId(l as u32));
            if dj < self.max_cap_e[idx] {
                out.extend_from_slice(&self.by_loc_e[idx]);
                self.max_cap_e[idx] = dj;
                self.retighten_any(l);
            }
        }
        out.sort_unstable();
        out
    }

    /// Recomputes the location's any-cap bound from its parts after a
    /// per-commodity bound clamped. `max(max_cap_total, per-commodity
    /// bounds at ℓ)` dominates every member's `max(cap_total, caps[..])`,
    /// so the result is a sound upper bound; it is applied only when it
    /// tightens (the stored bound may already be lower from a large-walk
    /// clamp). Returns whether the stored bound changed.
    fn retighten_any(&mut self, l: usize) -> bool {
        let mut any = self.max_cap_total[l];
        for &e2 in &self.commodities_at[l] {
            any = any.max(self.max_cap_e[e2 as usize * self.points + l]);
        }
        if any < self.max_cap_any[l] {
            self.max_cap_any[l] = any;
            true
        } else {
            false
        }
    }

    /// Candidate past-request indices for a *large* opening at `at` (any cap
    /// at the location may shrink). Sorted ascending — the history-walk
    /// order. Qualifying buckets have their bound clamped to `d(at, ℓ)`.
    /// Block skipping as in [`Self::small_shrink_candidates`].
    ///
    /// A large opening shrinks *every* cap at a qualifying location to at
    /// most `d(at, ℓ)` (the caller walks all members there and clamps both
    /// `cap_total` and each per-commodity cap), so the pass also clamps
    /// `max_cap_total` and every per-commodity bound at the location —
    /// the cross-family clamp that keeps the small walks' block bounds
    /// from going permanently stale-high on shrink-heavy streams. Touched
    /// blocks get the affected `block_cap_e` rows recomputed exactly.
    pub fn large_shrink_candidates(&mut self, inst: &Instance, at: PointId) -> Vec<u32> {
        let mut out = Vec::new();
        let mut touched_e: Vec<u32> = Vec::new();
        if let Some(layout) = self.layout.clone() {
            let nblocks = self.block_cap_any.len();
            for b in 0..nblocks {
                let bcap = self.block_cap_any[b];
                if bcap <= 0.0 || self.block_locs[b].is_empty() {
                    self.blocks_skipped += 1;
                    continue;
                }
                let d_rep = inst.distance(at, PointId(layout.rep[b]));
                if dist_lower_bound(d_rep, layout.radius[b]) >= bcap {
                    self.blocks_skipped += 1;
                    continue;
                }
                self.blocks_scanned += 1;
                let mut touched = false;
                touched_e.clear();
                for i in 0..self.block_locs[b].len() {
                    let l = self.block_locs[b][i];
                    let li = l as usize;
                    if self.by_loc[li].is_empty() {
                        continue;
                    }
                    let dj = inst.distance(at, PointId(l));
                    if dj < self.max_cap_any[li] {
                        out.extend_from_slice(&self.by_loc[li]);
                        self.max_cap_any[li] = dj;
                        touched = true;
                        self.clamp_location_bounds(li, dj, Some(&mut touched_e));
                    }
                }
                if touched {
                    let mut cap = 0.0f64;
                    for &l in &self.block_locs[b] {
                        cap = cap.max(self.max_cap_any[l as usize]);
                    }
                    self.block_cap_any[b] = cap;
                }
                touched_e.sort_unstable();
                touched_e.dedup();
                for &e in &touched_e {
                    let cap_base = e as usize * nblocks;
                    let base = e as usize * self.points;
                    let mut cap = 0.0f64;
                    for &l in &self.block_locs[b] {
                        cap = cap.max(self.max_cap_e[base + l as usize]);
                    }
                    self.block_cap_e[cap_base + b] = cap;
                }
            }
            out.sort_unstable();
            return out;
        }
        for l in 0..self.by_loc.len() {
            if self.by_loc[l].is_empty() {
                continue;
            }
            let dj = inst.distance(at, PointId(l as u32));
            if dj < self.max_cap_any[l] {
                out.extend_from_slice(&self.by_loc[l]);
                self.max_cap_any[l] = dj;
                self.clamp_location_bounds(l, dj, None);
            }
        }
        out.sort_unstable();
        out
    }

    /// Clamps `max_cap_total` and every per-commodity bound at `ℓ` to `dj`
    /// after a large opening qualified the location: once the caller's
    /// shrink pass completes, no cap of any family there exceeds `dj`.
    /// Commodities whose bound actually tightened are appended to
    /// `touched_e` (when collecting for a block-row recompute).
    fn clamp_location_bounds(&mut self, l: usize, dj: f64, touched_e: Option<&mut Vec<u32>>) {
        if dj < self.max_cap_total[l] {
            self.max_cap_total[l] = dj;
        }
        let mut sink = touched_e;
        for i in 0..self.commodities_at[l].len() {
            let e = self.commodities_at[l][i];
            let idx = e as usize * self.points + l;
            if dj < self.max_cap_e[idx] {
                self.max_cap_e[idx] = dj;
                if let Some(sink) = sink.as_deref_mut() {
                    sink.push(e);
                }
            }
        }
    }
}

/// Incremental maintenance of the PD opening targets — the per-arrival
/// t3/t4 argmins `min_m (f_m − B_m)⁺ + d(m, r)` — via a bucketed
/// lower-bound prune list.
///
/// The PD event loop needs, per arrival at `r`, the cheapest *temporary
/// small* opening for each demanded commodity (t3, one argmin per `e` over
/// `(f^e_m − B[m][e])⁺ + d(m, r)`) and the cheapest *large* opening (t4,
/// over `(f^S_m − B̂[m])⁺ + d(m, r)`). Recomputing them by full scan is
/// `O(k·|M|)` per arrival — the dominant cost once the nearest-facility
/// caches ([`FacilityIndex`]) made everything else `O(1)`.
///
/// # The structure
///
/// Locations are partitioned into fixed blocks of [`TARGET_BLOCK`]
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
/// engine's partial-row path from one contiguous pass over the
/// representatives' coordinates, otherwise read from the query's full
/// distance row (representatives are real points). The spatial coherence of
/// the relabeling is what keeps `radius_b` small enough for the bound to
/// bite; correctness never depends on it. The `slack` term
/// ([`RADIUS_BOUND_SLACK`], relative) budgets for metrics whose computed
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
/// * **Bumps** (every freeze): `B` grows, keys *fall*. The engine calls
///   [`Self::note_small_bump`] / [`Self::note_large_bump`] with the new
///   distance-free key for exactly the locations that moved —
///   `blockmin = min(blockmin, new)`, `O(1)` per moved budget, and the
///   invariant is restored immediately.
/// * **Shrinks** (only when a facility opens, rare): `B` falls, keys
///   *rise*. A stale-low `blockmin` stays a valid lower bound — pruning
///   merely gets weaker, never wrong — so correctness needs no action at
///   all. To keep the prune tight the engine rebuilds the affected rows
///   after its cap-shrink pass: whole rows ([`Self::rebuild_small`] /
///   [`Self::rebuild_large`], `O(|M|)`) on the full-row path, and only the
///   blocks the shrink walks touched on the partial-row path
///   (`rebuild_small_blocks` / `rebuild_large_blocks`). There every bound
///   is always an exact block minimum — bumps min-fold exactly and each
///   shrink rebuilds every block it touched — so an untouched block
///   already holds what a full rebuild would write.
///
/// Memory: `(|S| + 1) · ⌈|M| / TARGET_BLOCK⌉` bound floats plus the
/// permutation and per-block summaries — with the block size of
/// [`TARGET_BLOCK`] = 16, about `1/16`th of the bid matrix the engine
/// already holds, plus a handful of `O(|M|)` id arrays.
#[derive(Debug, Clone)]
pub struct OpeningTargetIndex {
    /// Per-commodity block bounds, flat `e · nblocks + b`.
    small: Vec<f64>,
    /// t4 block bounds.
    large: Vec<f64>,
    nblocks: usize,
    /// Block layout: the relabeling and the per-block location summaries.
    /// Shared (via [`Self::layout_handle`]) with the engine's
    /// [`PastIndex`] so both prune with the same radius bounds.
    layout: Arc<SpatialLayout>,
    /// Worker pool for the sharded scans; `None` runs them sequentially.
    /// Results AND stats are bit-identical either way — the pool only
    /// changes who executes each shard.
    pool: Option<Arc<TaskPool>>,
    /// Blocks per scan shard (defaults to [`SCAN_SHARD_BLOCKS`]; test
    /// hook [`Self::set_scan_shard_blocks`] overrides it).
    shard_blocks: usize,
    /// Original id of the prepared query point, when the caller knows it
    /// (unlocks kd range narrowing in [`Self::budget_move_candidates`]).
    query_point: Option<PointId>,
    /// Reusable per-query buffer for the distance-aware block bounds
    /// (avoids an allocation per argmin).
    bound_scratch: Vec<f64>,
    /// Per-block distance lower bounds for the *prepared* query row (see
    /// [`Self::prepare_query`]): `dlb[b] ≤ min_{m ∈ b} d(m, r)`. Computed
    /// once per arrival and shared by every t3/t4 argmin and the freeze
    /// walk narrowing of that arrival.
    dlb: Vec<f64>,
    /// Per-block distance *upper* bounds for the prepared query row:
    /// `dub[b] ≥ max_{m ∈ b} d(m, r)` (triangle bound through the block
    /// medoid, slack-inflated like [`dist_lower_bound`]). Only
    /// [`Self::query_scan_cover`] reads it — it caps the incumbent any
    /// pruned scan of this arrival can reach, which is what makes the
    /// partial-row coverage prediction sound.
    dub: Vec<f64>,
    /// Scratch for [`Self::query_scan_cover`]'s per-block marks.
    cover_marks: Vec<bool>,
    /// Scratch for the representative distances [`Self::prepare_query`]
    /// gathers from a full row.
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

/// Default locations per prune block of the [`OpeningTargetIndex`].
///
/// Smaller blocks mean tighter covering radii (the distance bound bites on
/// geometries whose ball-of-`TARGET_BLOCK` radius is well under the typical
/// query distance — on small-world graph closures 32-point balls were
/// already at the metric's distance scale) at the cost of one bound check
/// per block per query; 16 is where the large catalog families' skip rates
/// plateau without measurable bound-pass overhead.
///
/// Block size is a per-layout choice made at ingest (see
/// [`HUGE_BLOCK`]); this constant is the default for graph closures,
/// windowed fallbacks, and every point set below
/// [`HUGE_METRIC_MIN_POINTS`].
pub const TARGET_BLOCK: usize = 16;

/// Locations per prune block for *huge* kd-ingested Euclidean layouts
/// (`|M| ≥` [`HUGE_METRIC_MIN_POINTS`]). At that scale the per-query bound
/// pass itself (`O(nblocks)`) becomes the floor cost of an argmin; 4×
/// coarser blocks quarter it, and kd balls keep the covering radii tight
/// enough that the skip rate holds (a 64-ball of a dense grid is only ~2×
/// the radius of a 16-ball).
pub const HUGE_BLOCK: usize = 64;

/// The size policy: the point count from which a metric counts as huge.
/// It drives three decisions, all purely performance crossovers — either
/// side of it serves every arrival bit-identically:
///
/// * **Pool-sharded t3/t4 scans.** [`crate::pd::PdOmflp::new`] installs
///   the sharded-scan worker pool (when [`omfl_par::default_threads`]
///   reports more than one thread). Below it the per-arrival scans are
///   far too short for fan-out to pay; from it up each argmin spans
///   thousands of blocks and the shard sweeps parallelize cleanly. The
///   pool changes nothing observable, statistics included (the shard
///   partition is a pure function of the block count; see
///   [`SCAN_SHARD_BLOCKS`]).
/// * **Partial rows with coverage-bounded openings.** The engine fills
///   only the scan cover of each arrival's distance row, reads opening
///   and cap-shrink distances block by block, and reinvests bids through
///   the sharded screened freeze walk. Below it a full row fill is one
///   bulk [`omfl_metric::Metric::fill_row`] that the row cache keeps for
///   later arrivals, and the serial candidate-list freeze walk over it is
///   already cheap; from it up the `O(|M|)` fill itself dominates serve
///   time. `tests/tests/partial_rows.rs` pins engines to both paths and
///   serves one engine unforced at exactly this size.
/// * **64-point kd blocks.** A layout with kd ball ingest switches from
///   [`TARGET_BLOCK`] to [`HUGE_BLOCK`] points per block.
pub const HUGE_METRIC_MIN_POINTS: usize = 65536;

/// Blocks per shard of the sharded argmin scan (see
/// [`OpeningTargetIndex::small_target`]). The shard partition is a pure
/// function of the block count — never of the worker pool or thread count
/// — so the skip/scan statistics are machine-portable and the bench floors
/// on `block_skip_rate` stay meaningful. Below two shards' worth of blocks
/// the scan runs the plain two-pass loop.
pub const SCAN_SHARD_BLOCKS: usize = 128;

/// Relative slack subtracted from the per-block distance lower bound
/// `d(rep, r) − radius`, scaled by `d(rep, r) + radius`.
///
/// Exact arithmetic would allow slack 0: the triangle inequality makes the
/// bound sound as-is. Computed distances, however, can violate the triangle
/// inequality by accumulated rounding (a shortest-path sum of `k` edges
/// carries `O(k·ε)` relative error; a rounded L2 norm `O(dim·ε)`), and an
/// over-tight bound could prune a block holding a key one ulp under the
/// running best — changing the argmin and breaking bit-identity with the
/// full scan. `1e-9` exceeds those float error bounds by several orders of
/// magnitude (ε ≈ 2.2e-16) while costing a vanishing amount of pruning;
/// [`omfl_metric::Metric::coherent_order`]'s contract is what caps the
/// violation at float-rounding scale for every metric that opts in.
pub const RADIUS_BOUND_SLACK: f64 = 1e-9;

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
    perm: Vec<u32>,
    /// Original point id → relabeled position (inverse of `perm`).
    pos: Vec<u32>,
    /// `perm` is `0..n`: lets hot loops skip the gather. Independent of
    /// `bounded` — a sorted line's coherent order IS the identity, yet its
    /// radius bounds are real.
    identity: bool,
    /// Whether the medoid/radius summaries were computed from a metric.
    /// `false` is the no-metric fallback: distance bounds are identically
    /// zero and queries run the plain distance-free in-order scan (the
    /// exact pre-relabeling behavior).
    bounded: bool,
    /// Locations per block of THIS layout ([`TARGET_BLOCK`] except for
    /// huge kd-ingested point sets, which use [`HUGE_BLOCK`]).
    block: usize,
    /// Per-block representative (original id) — the block medoid.
    rep: Vec<u32>,
    /// Covering radius `max_{m ∈ block} d(rep, m)`.
    radius: Vec<f64>,
    /// Smallest original id in the block (exact-tie skip certificate).
    min_id: Vec<u32>,
    /// kd-tree over the metric's coordinate embedding, when it offers one
    /// ([`omfl_metric::Metric::kd_coords`]). Used for the ball ingest and,
    /// when the embedding is isometric, as a second pruning structure for
    /// the freeze walk's candidate range queries.
    kd: Option<KdTree>,
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
    fn identity(points: usize) -> Self {
        let nblocks = points.div_ceil(TARGET_BLOCK);
        Self {
            perm: (0..points as u32).collect(),
            pos: (0..points as u32).collect(),
            identity: true,
            bounded: false,
            block: TARGET_BLOCK,
            rep: (0..nblocks).map(|b| (b * TARGET_BLOCK) as u32).collect(),
            radius: vec![f64::INFINITY; nblocks],
            min_id: (0..nblocks).map(|b| (b * TARGET_BLOCK) as u32).collect(),
            kd: None,
            dim: 0,
            cols: Vec::new(),
            rep_cols: Vec::new(),
        }
    }

    /// Whether distances come from the layout-ordered coordinates (an
    /// isometric kd embedding) rather than pointwise metric calls.
    #[inline]
    fn isometric(&self) -> bool {
        self.dim > 0
    }

    /// `out[b] = d(rep_b, q)` for every block `b`, in block order — the
    /// input of [`OpeningTargetIndex::prepare_query_at`] and
    /// [`Self::blocks_where`].
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
        let members = self.members(b);
        let out = &mut out[..members.len()];
        if !self.isometric() {
            for (slot, &p) in out.iter_mut().zip(members) {
                *slot = inst.distance(PointId(p), q);
            }
            return out;
        }
        out.fill(0.0);
        let n = self.perm.len();
        let start = b * self.block;
        for axis in 0..self.dim {
            let col = &self.cols[axis * n + start..axis * n + start + members.len()];
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
        let start = b * self.block;
        &self.perm[start..(start + self.block).min(self.perm.len())]
    }

    /// The certified lower bound on `d(p, q)` over block `b`'s members,
    /// from `q`'s representative distances ([`Self::rep_distances`]).
    #[inline]
    pub(crate) fn block_dlb(&self, b: usize, rep_d: &[f64]) -> f64 {
        dist_lower_bound(rep_d[b], self.radius[b])
    }

    /// The blocks whose lower bound on `d(·, q)` passes `keep(b, dlb)`,
    /// ascending, from `q`'s representative distances.
    pub(crate) fn blocks_where(
        &self,
        rep_d: &[f64],
        mut keep: impl FnMut(usize, f64) -> bool,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for b in 0..self.nblocks() {
            if keep(b, self.block_dlb(b, rep_d)) {
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
    /// change the first-wins outcome.
    ///
    /// `seed_order` must be a permutation of the point ids: callers
    /// validate caller-supplied orders ([`check_relabeling`]); a metric's
    /// own [`omfl_metric::Metric::coherent_order`] is one by contract.
    fn from_order(inst: &Instance, seed_order: Vec<u32>) -> Self {
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
        let identity = order.iter().enumerate().all(|(i, &p)| i as u32 == p);
        let nblocks = points.div_ceil(block);
        let mut rep = Vec::with_capacity(nblocks);
        let mut radius = Vec::with_capacity(nblocks);
        let mut min_id = Vec::with_capacity(nblocks);
        let mut lo = vec![0.0f64; block];
        let mut hi = vec![0.0f64; block];
        let mut maxlo = vec![0.0f64; block];
        let mut maxhi = vec![0.0f64; block];
        for bi in 0..nblocks {
            let start = bi * block;
            let end = (start + block).min(points);
            let members = &order[start..end];
            let n = members.len();
            let mut best_rep = members[0];
            let mut best_rad = f64::INFINITY;
            // Screened path: certified brackets on every pairwise distance
            // give per-candidate eccentricity brackets `maxlo ≤ far(c) ≤
            // maxhi`. Candidates with `maxlo > min_c maxhi` satisfy
            // `far(c) > min far` strictly, so dropping them preserves both
            // the minimum and the first-wins tie among the survivors.
            let screened = n > 2 && {
                let mut ok = true;
                for (ci, &c) in members.iter().enumerate() {
                    if !metric.screen_distances(PointId(c), members, &mut lo[..n], &mut hi[..n]) {
                        ok = false;
                        break;
                    }
                    let (mut ml, mut mh) = (0.0f64, 0.0f64);
                    for i in 0..n {
                        ml = ml.max(lo[i]);
                        mh = mh.max(hi[i]);
                    }
                    maxlo[ci] = ml;
                    maxhi[ci] = mh;
                }
                ok
            };
            if screened {
                let min_hi = maxhi[..n].iter().copied().fold(f64::INFINITY, f64::min);
                for (ci, &c) in members.iter().enumerate() {
                    if maxlo[ci] > min_hi {
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
            } else {
                for &c in members {
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
            }
            rep.push(best_rep);
            radius.push(best_rad);
            min_id.push(members.iter().copied().min().expect("non-empty block"));
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
            identity,
            bounded: true,
            block,
            rep,
            radius,
            min_id,
            kd,
            dim,
            cols,
            rep_cols,
        }
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
fn check_relabeling(order: &[u32], points: usize) -> Result<(), CoreError> {
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

/// `(f − b)⁺` — the distance-free part of an opening-target key.
#[inline]
fn opening_key(f: f64, b: f64) -> f64 {
    (f - b).max(0.0)
}

/// The certified lower bound on `d(m, r)` over a block with representative
/// distance `d_rep = d(rep, r)` and covering radius `radius`, slack
/// included (see [`RADIUS_BOUND_SLACK`]). `radius = ∞` yields 0 — the
/// distance-free fallback.
#[inline]
fn dist_lower_bound(d_rep: f64, radius: f64) -> f64 {
    let raw = d_rep - radius;
    if raw <= 0.0 {
        return 0.0;
    }
    (raw - RADIUS_BOUND_SLACK * (d_rep + radius)).max(0.0)
}

/// The certified *upper* bound on `d(m, r)` over the same block: the
/// triangle bound `d(rep, r) + radius`, inflated by the relative slack so
/// the same rounding argument that keeps [`dist_lower_bound`] sound keeps
/// this one sound from above. `radius = ∞` yields ∞ — no information, the
/// distance-free fallback.
#[inline]
fn dist_upper_bound(d_rep: f64, radius: f64) -> f64 {
    (d_rep + radius) * (1.0 + RADIUS_BOUND_SLACK)
}

/// Share of all blocks above which a coverage-bounded read of a point's
/// distances — the opening location's facility-cache refresh, or a
/// cap-shrink walk — gives up its block list for one bulk
/// [`omfl_metric::Metric::fill_row`] and a contiguous walk of the whole
/// row. A kept point costs its lane of a per-block distance pass (a
/// pointwise call without an isometric embedding) plus a gathered walk
/// step; the share was set to 0.2 on a 1M-point Euclidean grid when kept
/// points still cost pointwise calls, and the break-even was not measured
/// again for the per-block passes. Wide passes are mostly each commodity's
/// first openings, while the cached nearest distances are still `∞`.
pub const WIDE_COVERAGE_SHARE: f64 = 0.2;

/// Whether a pass whose surviving blocks number `blocks` out of `nblocks`
/// takes the full-row fallback (see [`WIDE_COVERAGE_SHARE`]). Every
/// coverage consumer decides through this one helper.
#[inline]
pub(crate) fn wide_coverage(blocks: usize, nblocks: usize) -> bool {
    blocks as f64 > WIDE_COVERAGE_SHARE * nblocks as f64
}

/// Executes `body(0..nshards)` on the pool when one is installed, inline
/// otherwise. Each shard's work must be independent (ours are: disjoint
/// [`ShardWriter`] chunks over shared read-only inputs), which makes the
/// two execution modes indistinguishable — results and statistics alike.
fn run_shards(pool: Option<&TaskPool>, nshards: usize, body: &(dyn Fn(usize) + Sync)) {
    match pool {
        // The pool contains shard panics per task and reports them typed;
        // inside the engine a panicking scan shard means the arrival's
        // answer cannot be assembled, so re-raise as a single panic on the
        // serve path. The serve layer's per-tenant containment catches it
        // there — the pool itself (shared across tenants) stays usable.
        Some(p) => {
            if let Err(e) = p.run(nshards, body) {
                panic!("scan shard panicked: {e}");
            }
        }
        None => {
            for s in 0..nshards {
                body(s);
            }
        }
    }
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

/// [`block_bounds`] for the listed blocks only (sorted and deduplicated in
/// place), so the cost scales with the list.
fn rebuild_blocks(
    layout: &SpatialLayout,
    f_row: &[f64],
    b_row: &[f64],
    out: &mut [f64],
    blocks: &mut Vec<u32>,
) {
    blocks.sort_unstable();
    blocks.dedup();
    for &b in blocks.iter() {
        out[b as usize] = block_min(layout, f_row, b_row, b as usize);
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
            dlb: vec![0.0; nblocks],
            dub: vec![f64::INFINITY; nblocks],
            cover_marks: Vec::new(),
            rep_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            query_reps: Vec::new(),
            skipped: 0,
            scanned: 0,
        }
    }

    /// A shared handle to the block layout, for [`PastIndex::attach_layout`].
    pub(crate) fn layout_handle(&self) -> Arc<SpatialLayout> {
        Arc::clone(&self.layout)
    }

    /// Installs (or removes) the worker pool behind the sharded scans.
    /// Purely an execution choice: results and skip/scan statistics are
    /// bit-identical with any pool, including none.
    pub fn set_scan_pool(&mut self, pool: Option<Arc<TaskPool>>) {
        self.pool = pool;
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

    /// Checks a query row against the prepared representative distances
    /// (debug builds): every representative entry the row covers must hold
    /// the prepared value. A partial row's uncovered entries are NaN in
    /// debug builds and are skipped; the pruned scans' cover always holds
    /// the representative of the first block they scan.
    #[cfg(debug_assertions)]
    fn assert_prepared(&self, dist_row: &[f64]) {
        assert_eq!(
            self.query_reps.len(),
            self.nblocks,
            "query before prepare_query"
        );
        for (&r, &d) in self.layout.rep.iter().zip(&self.query_reps) {
            let v = dist_row[r as usize];
            assert!(
                v.is_nan() || v.to_bits() == d.to_bits(),
                "query with a distance row that prepare_query never saw"
            );
        }
    }

    /// Installs the arrival's full distance row (`dist_row[p] = d(p, r)`):
    /// [`Self::prepare_query_at`] over the representative entries the row
    /// holds, with no query point.
    pub fn prepare_query(&mut self, dist_row: &[f64]) {
        self.prepare_query_row(None, dist_row);
    }

    /// [`Self::prepare_query`] with the query point supplied.
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
    /// lower bounds `max(0, d(rep_b, r) − radius_b − slack)` and upper
    /// bounds once, to be shared by every [`Self::small_target`] /
    /// [`Self::large_target`] / [`Self::budget_move_candidates`] call and
    /// the freeze walk of the arrival. Must be called whenever the query
    /// changes (debug builds check the query rows against it); the bounds
    /// are pure functions of the values. The query's original point id,
    /// when supplied, unlocks kd range narrowing in
    /// [`Self::budget_move_candidates`].
    pub fn prepare_query_at(&mut self, at: Option<PointId>, rep_d: &[f64]) {
        debug_assert_eq!(rep_d.len(), self.nblocks, "one distance per block");
        self.query_point = at;
        self.dlb.clear();
        self.dub.clear();
        if self.layout.bounded {
            let bounds = rep_d.iter().zip(&self.layout.radius);
            self.dlb
                .extend(bounds.clone().map(|(&d, &r)| dist_lower_bound(d, r)));
            self.dub
                .extend(bounds.map(|(&d, &r)| dist_upper_bound(d, r)));
        } else {
            self.dlb.resize(self.nblocks, 0.0);
            self.dub.resize(self.nblocks, f64::INFINITY);
        }
        #[cfg(debug_assertions)]
        {
            self.query_reps.clear();
            self.query_reps.extend_from_slice(rep_d);
        }
    }

    /// Original ids whose distance to the prepared query row *could* be
    /// below `cap` — an exact superset of `{p : dist_row[p] < cap}`. The
    /// caller still applies its own `d < cap` test per candidate, so the
    /// filter only has to be sound, never tight; and the engine's
    /// reinvestment updates are per-point min-folds, so any candidate
    /// *order* is equivalent (the relabeling proptests drive this).
    ///
    /// Two filters, picked by what the layout knows:
    ///
    /// * **kd range query** (isometric embedding + known query point): the
    ///   tree's distances are bit-identical to the metric's, so every
    ///   point with `d < cap` lies within the slack-inflated radius — a
    ///   near-exact candidate set instead of whole blocks.
    /// * **block filter** (otherwise): drop every block whose certified
    ///   distance lower bound is at least `cap` (such a block cannot
    ///   contain a location with `d < cap`).
    pub fn budget_move_candidates(&self, _dist_row: &[f64], cap: f64, out: &mut Vec<u32>) {
        #[cfg(debug_assertions)]
        self.assert_prepared(_dist_row);
        out.clear();
        if self.layout.isometric() {
            if let (Some(kd), Some(at)) = (self.layout.kd.as_ref(), self.query_point) {
                let r = cap * (1.0 + RADIUS_BOUND_SLACK);
                kd.range(kd.point(at.0), r, out);
                return;
            }
        }
        for (bi, &dlb) in self.dlb.iter().enumerate() {
            if dlb < cap {
                out.extend_from_slice(self.layout.members(bi));
            }
        }
    }

    /// Whether this index can drive a *partial* distance row: prepared
    /// bounds plus [`Self::query_scan_cover`] predict every entry the
    /// arrival's pruned scans can touch. Requires real radius summaries —
    /// the no-metric fallback scans distance-free and may read anything.
    pub fn partial_rows_supported(&self) -> bool {
        self.layout.bounded
    }

    /// Predicts, from the prepared per-block bounds alone, every original
    /// id whose distance entry the arrival's t3/t4 pruned scans could read
    /// — the coverage a partial row needs so those scans are bit-identical
    /// to running them over a full row.
    ///
    /// For each scan (one per member commodity, plus t4): the scan first
    /// visits the minimum-bound block `first`, whose incumbent is at most
    /// `v̂ = bounds[first] + dub[first]` (the block minimum's witness sits
    /// within `dub[first]` of the query; float addition is monotonic, so
    /// the computed incumbent never exceeds the computed `v̂`). Every later
    /// block is scanned only while its bound is ≤ the current incumbent,
    /// which only falls from the phase-B value — so
    /// `{b : bounds[b] + dlb[b] ≤ v̂}` (which contains `first`) is a
    /// superset of the scanned set at ANY shard partition and thread
    /// count. The union of those supersets over all of the arrival's
    /// scans, expanded to block members, is the returned cover.
    ///
    /// Sound because t3/t4 run once per arrival, before any bump or
    /// rebuild moves the bounds (the engine's serve order); a cover
    /// computed from the same bounds the scans will read cannot go stale
    /// within the arrival. Consumers that outlive the arrival's scans
    /// (openings, cap shrinks) bound their own reads from a representative
    /// pass over the point they read instead.
    pub fn query_scan_cover(&mut self, members: &[CommodityId], out: &mut Vec<u32>) {
        out.clear();
        let nblocks = self.nblocks;
        let (small, large) = (&self.small, &self.large);
        let (dlb, dub): (&[f64], &[f64]) = (&self.dlb, &self.dub);
        let marks = &mut self.cover_marks;
        marks.clear();
        marks.resize(nblocks, false);
        let mut mark_scan = |bounds: &[f64]| {
            let (mut first_bound, mut first) = (f64::INFINITY, 0usize);
            for bi in 0..nblocks {
                let bound = bounds[bi] + dlb[bi];
                if bound < first_bound {
                    first_bound = bound;
                    first = bi;
                }
            }
            let vhat = bounds[first] + dub[first];
            for bi in 0..nblocks {
                if bounds[bi] + dlb[bi] <= vhat {
                    marks[bi] = true;
                }
            }
        };
        for &e in members {
            mark_scan(&small[e.index() * nblocks..(e.index() + 1) * nblocks]);
        }
        mark_scan(large);
        for (bi, &marked) in marks.iter().enumerate() {
            if marked {
                out.extend_from_slice(self.layout.members(bi));
            }
        }
    }

    /// The freeze walk: reinvests a served request's caps into the bid
    /// matrices and folds the moved keys into the block bounds, sharded
    /// over the worker pool with the same pure-function-of-`nblocks`
    /// partition as the t3/t4 scans.
    ///
    /// Bit-identical to the serial walk at any thread count because every
    /// write is keyed by block membership: a point lives in exactly one
    /// block and a block in exactly one shard, so each `b_small[e·m + p]` /
    /// `b_large[p]` slot takes its single `+= (cap − d)` from one shard,
    /// and each block-bound slot min-folds only its own block's keys
    /// (min-folds commute — the fold is order-free). The update set is
    /// exactly `{p : d(p, r) < cap}` however it is narrowed.
    ///
    /// Distances come from `full_row` when the caller has one (verbatim
    /// backend values); otherwise each block is screened once through the
    /// metric's certified f32 brackets ([`omfl_metric::Metric::screen_distances`])
    /// — a survivor (bracket low end under some cap) gets one exact
    /// `d(p, r)` confirmation, reused across every cap of the request. A
    /// certified `lo ≥ cap` skip is exact: it implies `d ≥ cap`, and the
    /// walk adds nothing at `d ≥ cap`. Blocks whose prepared distance
    /// lower bound already meets every cap are skipped whole.
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
        assert!(layout.block <= HUGE_BLOCK, "screen buffers are block-sized");
        let bs_w = ScatterWriter::new(b_small);
        let bl_w = ScatterWriter::new(b_large);
        let ss_w = ScatterWriter::new(&mut self.small);
        let sl_w = ScatterWriter::new(&mut self.large);
        let body = |s: usize| {
            let lo_b = s * shard_blocks;
            let hi_b = (lo_b + shard_blocks).min(nblocks);
            let mut lo = [0.0f64; HUGE_BLOCK];
            let mut hi = [0.0f64; HUGE_BLOCK];
            // Exact distances, computed lazily once per surviving point
            // and reused across every cap of the request (NaN = not yet).
            let mut dex = [f64::NAN; HUGE_BLOCK];
            for (bi, &dlb_bi) in dlb.iter().enumerate().take(hi_b).skip(lo_b) {
                if dlb_bi >= max_cap {
                    continue;
                }
                let mems = layout.members(bi);
                let n = mems.len();
                let screened = full_row.is_none()
                    && metric.screen_distances(loc, mems, &mut lo[..n], &mut hi[..n]);
                for d in dex[..n].iter_mut() {
                    *d = f64::NAN;
                }
                let dist_at = |j: usize, dex: &mut [f64; HUGE_BLOCK]| -> f64 {
                    match full_row {
                        Some(row) => row[mems[j] as usize],
                        None => {
                            if dex[j].is_nan() {
                                dex[j] = inst.distance(PointId(mems[j]), loc);
                            }
                            dex[j]
                        }
                    }
                };
                for (&e, &cap) in members.iter().zip(caps) {
                    if cap <= 0.0 || dlb_bi >= cap {
                        continue;
                    }
                    for (j, &p) in mems.iter().enumerate() {
                        if screened && lo[j] >= cap {
                            continue;
                        }
                        let d = dist_at(j, &mut dex);
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
                    for (j, &p) in mems.iter().enumerate() {
                        if screened && lo[j] >= cap_total {
                            continue;
                        }
                        let d = dist_at(j, &mut dex);
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

    /// The t3 argmin for commodity `e` from the query whose distance row is
    /// `dist_row` (`dist_row[p] = d(p, r)`, original ids): bit-identical to
    /// the full strict-`<` scan, skipping blocks whose distance-aware bound
    /// cannot improve the running best.
    pub fn small_target(
        &mut self,
        e: CommodityId,
        f_row: &[f64],
        b_row: &[f64],
        dist_row: &[f64],
    ) -> (f64, PointId) {
        #[cfg(debug_assertions)]
        self.assert_prepared(dist_row);
        let bounds = &self.small[e.index() * self.nblocks..(e.index() + 1) * self.nblocks];
        Self::pruned_scan(
            &self.layout,
            bounds,
            &self.dlb,
            f_row,
            b_row,
            dist_row,
            &mut self.bound_scratch,
            &mut self.skipped,
            &mut self.scanned,
            self.pool.as_deref(),
            self.shard_blocks,
        )
    }

    /// The t4 argmin (see [`Self::small_target`]).
    pub fn large_target(
        &mut self,
        f_full: &[f64],
        b_large: &[f64],
        dist_row: &[f64],
    ) -> (f64, PointId) {
        #[cfg(debug_assertions)]
        self.assert_prepared(dist_row);
        Self::pruned_scan(
            &self.layout,
            &self.large,
            &self.dlb,
            f_full,
            b_large,
            dist_row,
            &mut self.bound_scratch,
            &mut self.skipped,
            &mut self.scanned,
            self.pool.as_deref(),
            self.shard_blocks,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn pruned_scan(
        layout: &SpatialLayout,
        bounds: &[f64],
        dlb: &[f64],
        f_row: &[f64],
        b_row: &[f64],
        dist_row: &[f64],
        bound_scratch: &mut Vec<f64>,
        skipped: &mut u64,
        scanned: &mut u64,
        pool: Option<&TaskPool>,
        shard_blocks: usize,
    ) -> (f64, PointId) {
        let m = f_row.len();
        let block = layout.block;
        let mut best = f64::INFINITY;
        let mut best_id = u32::MAX;
        if !layout.bounded {
            // No-metric fallback (identity layout): distance bounds are
            // inert and ids ascend across blocks, so the verbatim in-order
            // strict-`<` scan with the distance-free skip is both the
            // fastest and the exact one (a later equal value can never
            // displace the incumbent).
            for (bi, &bound) in bounds.iter().enumerate() {
                if bound > best || (bound == best && layout.min_id[bi] > best_id) {
                    *skipped += 1;
                    continue;
                }
                *scanned += 1;
                let start = bi * block;
                let end = (start + block).min(m);
                for p in start..end {
                    let v = opening_key(f_row[p], b_row[p]) + dist_row[p];
                    if v < best {
                        best = v;
                        best_id = p as u32;
                    }
                }
            }
            return (best, PointId(if best_id == u32::MAX { 0 } else { best_id }));
        }

        // Radius-bounded layout. The block scan below tracks the
        // lexicographic (value, original id) minimum — exactly what the
        // ascending-id strict-`<` full scan returns, computed with the
        // identical float expression — so blocks may be visited in ANY
        // order, and the skip test stays conservative at every intermediate
        // `best`. That freedom is worth a lot twice over: scanning the
        // minimum-bound block FIRST drops `best` to (almost always) the
        // true optimum immediately, and the remaining sweep can then be
        // *sharded* — each shard sweeps its own block range seeded from
        // that incumbent, and a lexicographic merge of the shard bests
        // recovers the global answer. A shard skipping a block its local
        // best certifies out is sound because the local best is always an
        // *achieved* candidate: anything in the block is lex-≥ it, hence
        // lex-≥ the global minimum, which is therefore never lost.
        let scan_block = |bi: usize, best: &mut f64, best_id: &mut u32| {
            let start = bi * block;
            let end = (start + block).min(m);
            if layout.identity {
                // An identity ball partition (e.g. a sorted line): same
                // lexicographic tracking, no gather.
                for p in start..end {
                    let v = opening_key(f_row[p], b_row[p]) + dist_row[p];
                    if v < *best || (v == *best && (p as u32) < *best_id) {
                        *best = v;
                        *best_id = p as u32;
                    }
                }
            } else {
                for &p in &layout.perm[start..end] {
                    let pi = p as usize;
                    let v = opening_key(f_row[pi], b_row[pi]) + dist_row[pi];
                    if v < *best || (v == *best && p < *best_id) {
                        *best = v;
                        *best_id = p;
                    }
                }
            }
        };
        let nblocks = bounds.len();
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
            scan_block(first, &mut best, &mut best_id);
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
                scan_block(bi, &mut best, &mut best_id);
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
        let mut shard_first: Vec<(f64, u32)> = vec![(f64::INFINITY, u32::MAX); nshards];
        {
            let qb = ShardWriter::new(query_bounds, shard_blocks);
            let sf = ShardWriter::new(&mut shard_first, 1);
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
        for &(fb, fi) in &shard_first {
            if fb < first_bound {
                first_bound = fb;
                first = fi as usize;
            }
        }
        // Phase B: scan the global minimum-bound block — the incumbent
        // every shard seeds from.
        scan_block(first, &mut best, &mut best_id);
        *scanned += 1;
        // Phase C: per-shard in-order sweeps with per-shard local bests
        // and counters.
        let mut shard_best: Vec<(f64, u32, u64, u64)> = vec![(best, best_id, 0, 0); nshards];
        {
            let sb = ShardWriter::new(&mut shard_best, 1);
            let qb: &[f64] = query_bounds;
            let body = |s: usize| {
                let lo = s * shard_blocks;
                let hi = (lo + shard_blocks).min(nblocks);
                let mut b = best;
                let mut bid = best_id;
                let (mut sk, mut sc) = (0u64, 0u64);
                for (bi, &bound) in qb.iter().enumerate().take(hi).skip(lo) {
                    if bi == first {
                        continue;
                    }
                    if bound > b || (bound == b && layout.min_id[bi] > bid) {
                        sk += 1;
                        continue;
                    }
                    sc += 1;
                    scan_block(bi, &mut b, &mut bid);
                }
                unsafe { sb.chunk(s)[0] = (b, bid, sk, sc) };
            };
            run_shards(pool, nshards, &body);
        }
        // Phase D: lexicographic merge (each shard best is an achieved
        // candidate or the phase-B incumbent) plus the stats fold.
        for &(v, id, sk, sc) in &shard_best {
            if v < best || (v == best && id < best_id) {
                best = v;
                best_id = id;
            }
            *skipped += sk;
            *scanned += sc;
        }
        (best, PointId(if best_id == u32::MAX { 0 } else { best_id }))
    }

    /// `B[p][e]` grew (a freeze reinvested a bid there): the key fell to
    /// `key` — lower the block bound to match, `O(1)`.
    #[inline]
    pub fn note_small_bump(&mut self, e: CommodityId, p: PointId, key: f64) {
        let idx =
            e.index() * self.nblocks + self.layout.pos[p.index()] as usize / self.layout.block;
        if key < self.small[idx] {
            self.small[idx] = key;
        }
    }

    /// `B̂[p]` grew: the t4 key fell to `key`.
    #[inline]
    pub fn note_large_bump(&mut self, p: PointId, key: f64) {
        let idx = self.layout.pos[p.index()] as usize / self.layout.block;
        if key < self.large[idx] {
            self.large[idx] = key;
        }
    }

    /// Recomputes `e`'s block bounds from the current rows. Called after a
    /// cap-shrink pass lowered budgets (keys rose): the stale bounds were
    /// still sound, this restores tightness.
    pub fn rebuild_small(&mut self, e: CommodityId, f_row: &[f64], b_row: &[f64]) {
        block_bounds(
            &self.layout,
            f_row,
            b_row,
            &mut self.small[e.index() * self.nblocks..(e.index() + 1) * self.nblocks],
        );
    }

    /// Recomputes the t4 block bounds (see [`Self::rebuild_small`]).
    pub fn rebuild_large(&mut self, f_full: &[f64], b_large: &[f64]) {
        block_bounds(&self.layout, f_full, b_large, &mut self.large);
    }

    /// [`Self::rebuild_small`] over the blocks a shrink pass touched
    /// (deduplicated in place). Bit-identical to the full rebuild when
    /// every other bound is already an exact block minimum — the partial-row
    /// path's invariant: bumps min-fold exactly and each shrink rebuilds
    /// every block it touched, so an untouched block holds what a full
    /// rebuild would write.
    pub(crate) fn rebuild_small_blocks(
        &mut self,
        e: CommodityId,
        f_row: &[f64],
        b_row: &[f64],
        blocks: &mut Vec<u32>,
    ) {
        let bounds = &mut self.small[e.index() * self.nblocks..(e.index() + 1) * self.nblocks];
        rebuild_blocks(&self.layout, f_row, b_row, bounds, blocks);
    }

    /// [`Self::rebuild_large`] over the touched blocks (see
    /// [`Self::rebuild_small_blocks`]).
    pub(crate) fn rebuild_large_blocks(
        &mut self,
        f_full: &[f64],
        b_large: &[f64],
        blocks: &mut Vec<u32>,
    ) {
        rebuild_blocks(&self.layout, f_full, b_large, &mut self.large, blocks);
    }

    /// The block layout, for the engine's coverage-bounded row reads.
    pub(crate) fn layout(&self) -> &SpatialLayout {
        &self.layout
    }

    /// `(blocks pruned, blocks scanned)` across all queries so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.skipped, self.scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::Solution;
    use omfl_commodity::cost::CostModel;
    use omfl_commodity::CommoditySet;
    use omfl_metric::line::LineMetric;

    fn inst(positions: Vec<f64>, s: u16) -> Instance {
        Instance::new(
            Box::new(LineMetric::new(positions).unwrap()),
            s,
            CostModel::power(s, 1.0, 2.0),
        )
        .unwrap()
    }

    /// Reference linear scan with the exact tie-breaking the index must
    /// reproduce: smalls (opening order) then larges (opening order), first
    /// minimum wins.
    fn scan_nearest(
        inst: &Instance,
        sol: &Solution,
        smalls: &[FacilityId],
        larges: &[FacilityId],
        from: PointId,
    ) -> Option<(FacilityId, f64)> {
        let mut best: Option<(FacilityId, f64)> = None;
        for &fid in smalls.iter().chain(larges) {
            let d = inst.distance(from, sol.facilities()[fid.index()].location);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((fid, d)),
            }
        }
        best
    }

    #[test]
    fn empty_index_answers_none() {
        let inst = inst(vec![0.0, 1.0], 3);
        let idx = FacilityIndex::for_instance(&inst);
        assert!(idx.nearest_offering(CommodityId(0), PointId(0)).is_none());
        assert!(idx.nearest_large(PointId(1)).is_none());
        assert!(idx.nearest_small(CommodityId(2), PointId(0)).is_none());
        assert_eq!(idx.openings(), 0);
    }

    #[test]
    fn matches_linear_scan_including_ties() {
        // Facilities engineered so several are equidistant from the query
        // point; the index must pick the same winner as the scan.
        let inst = inst(vec![0.0, 1.0, 2.0, 3.0, 4.0], 2);
        let mut sol = Solution::new();
        let mut idx = FacilityIndex::for_instance(&inst);
        let u = inst.universe();
        let e = CommodityId(0);
        let mut smalls = Vec::new();
        let mut larges = Vec::new();

        // Two smalls equidistant from point 2 (at 1 and 3), then a large at
        // the same distance (at 3) — scan order says the first small wins.
        for &(p, large) in &[(1u32, false), (3, false), (3, true)] {
            let config = if large {
                CommoditySet::full(u)
            } else {
                CommoditySet::singleton(u, e).unwrap()
            };
            let fid = sol.open_facility(&inst, PointId(p), config);
            if large {
                idx.note_large_opening(&inst, PointId(p), fid);
                larges.push(fid);
            } else {
                idx.note_small_opening(&inst, e, PointId(p), fid);
                smalls.push(fid);
            }
            for q in 0..inst.num_points() as u32 {
                let want = scan_nearest(&inst, &sol, &smalls, &larges, PointId(q));
                let got = idx.nearest_offering(e, PointId(q));
                assert_eq!(
                    got.map(|(f, d)| (f, d.to_bits())),
                    want.map(|(f, d)| (f, d.to_bits())),
                    "query at {q} after opening at {p}"
                );
            }
        }
        assert_eq!(idx.openings(), 3);
    }

    #[test]
    fn large_openings_serve_every_commodity() {
        let inst = inst(vec![0.0, 5.0], 4);
        let mut sol = Solution::new();
        let mut idx = FacilityIndex::for_instance(&inst);
        let fid = sol.open_facility(&inst, PointId(1), CommoditySet::full(inst.universe()));
        idx.note_large_opening(&inst, PointId(1), fid);
        for e in 0..4u16 {
            let (f, d) = idx.nearest_offering(CommodityId(e), PointId(0)).unwrap();
            assert_eq!(f, fid);
            assert_eq!(d, 5.0);
        }
        assert_eq!(idx.nearest_large(PointId(1)).unwrap().1, 0.0);
        assert!(idx.nearest_small(CommodityId(0), PointId(0)).is_none());
    }

    /// A point cloud that stresses the coordinate fold: negative,
    /// 1e8-scale and duplicate coordinates.
    fn awkward_cloud(n: usize, dim: usize, salt: u64) -> Vec<Vec<f64>> {
        let mut st = 0xC10D ^ salt;
        let mut pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|_| {
                        let v = ((xorshift(&mut st) % 20000) as f64 - 10000.0) * 0.0137;
                        if i % 5 == 0 {
                            v * 1.0e8
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        for i in (7..n).step_by(7) {
            pts[i] = pts[i - 1].clone();
        }
        pts
    }

    #[test]
    fn layout_distance_passes_equal_metric_distances_bitwise() {
        // The representative pass and the per-block pass against
        // `Instance::distance`, for every query point and every block:
        // from the layout-ordered coordinates on L2 clouds (SIMD kernels
        // on and off), pointwise on the kd-partitioned but non-isometric
        // L1/L∞ clouds. 150 points make ten 16-point blocks, the last one
        // short, so every kernel tail runs.
        use omfl_metric::euclidean::{EuclideanMetric, Norm};
        use omfl_metric::simd::set_simd_enabled;
        let cases = [
            (2, Norm::L2, true),
            (3, Norm::L2, true),
            (2, Norm::L1, false),
            (3, Norm::LInf, false),
        ];
        for (dim, norm, isometric) in cases {
            let pts = awkward_cloud(150, dim, dim as u64);
            let metric = EuclideanMetric::new(&pts, norm).unwrap();
            let inst = Instance::new(Box::new(metric), 2, CostModel::power(2, 1.0, 2.0)).unwrap();
            let m = inst.num_points();
            let (f_small, f_full) = (vec![1.0; 2 * m], vec![2.0; m]);
            let layout = OpeningTargetIndex::for_instance(&inst, &f_small, &f_full).layout_handle();
            assert_eq!(layout.isometric(), isometric, "{norm:?} in {dim}-D");
            let mut rep_d = Vec::new();
            let mut buf = [0.0; HUGE_BLOCK];
            for simd in [true, false] {
                set_simd_enabled(simd);
                for q in (0..m as u32).map(PointId) {
                    layout.rep_distances(&inst, q, &mut rep_d);
                    assert_eq!(rep_d.len(), layout.nblocks());
                    for (b, &d) in rep_d.iter().enumerate() {
                        let want = inst.distance(PointId(layout.rep[b]), q);
                        assert_eq!(d.to_bits(), want.to_bits(), "{norm:?}: rep {b}, {q:?}");
                    }
                    for b in 0..layout.nblocks() {
                        let members = layout.members(b);
                        let dists = layout.member_distances(&inst, b, q, &mut buf);
                        assert_eq!(dists.len(), members.len());
                        for (&p, &d) in members.iter().zip(dists) {
                            let want = inst.distance(PointId(p), q);
                            assert_eq!(d.to_bits(), want.to_bits(), "{norm:?}: p{p}, {q:?}");
                        }
                    }
                }
            }
            set_simd_enabled(true);
        }
    }

    /// The engine's bounded refresh, replayed by hand: one representative
    /// pass picks the blocks whose lower bound undercuts their maximum,
    /// whose member distances the refresh reads block by block — or the
    /// full row when those blocks are wide. Returns whether the pass took
    /// the full-row fallback.
    fn bounded_opening(
        idx: &mut FacilityIndex,
        layout: &SpatialLayout,
        inst: &Instance,
        e: Option<CommodityId>,
        at: PointId,
        fid: FacilityId,
    ) -> bool {
        let mut rep_d = Vec::new();
        layout.rep_distances(inst, at, &mut rep_d);
        let maxima = idx.block_maxima(e).to_vec();
        let mut blocks = Vec::new();
        layout.blocks_where(&rep_d, |b, dlb| dlb < maxima[b], &mut blocks);
        let full = wide_coverage(blocks.len(), layout.nblocks());
        if full {
            let mut row = vec![0.0; inst.num_points()];
            inst.fill_row(at, &mut row);
            idx.note_opening_full_row(e, &row, fid);
        } else {
            idx.note_opening_in_blocks(inst, e, at, &blocks, fid);
        }
        full
    }

    #[test]
    fn bounded_refresh_matches_full_row_refresh_bit_for_bit() {
        // Repeated locations and exact ties (a coarse line, every position
        // shared by several ids), shuffled and coherent relabelings, and a
        // random mix of small and large openings: after every opening the
        // bounded index must answer every query exactly like the full-row
        // one, and every block maximum must dominate its members' caches.
        let (m, s) = (240usize, 3usize);
        let mut st = 0x5EEDu64;
        let positions: Vec<f64> = (0..m)
            .map(|_| (xorshift(&mut st) % 48) as f64 * 0.5)
            .collect();
        let inst = inst(positions, s as u16);
        let f_small = vec![1.0; m * s];
        let f_full = vec![3.0; m];
        let mut shuffled: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            let j = (xorshift(&mut st) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let layouts = [
            OpeningTargetIndex::for_instance(&inst, &f_small, &f_full).layout_handle(),
            OpeningTargetIndex::with_order(&inst, &f_small, &f_full, shuffled)
                .unwrap()
                .layout_handle(),
        ];
        let (mut narrow, mut wide) = (0, 0);
        for layout in layouts {
            let mut bounded = FacilityIndex::new(m, s);
            bounded.attach_layout(Arc::clone(&layout));
            let mut reference = FacilityIndex::new(m, s);
            for k in 0..160u32 {
                let at = PointId((xorshift(&mut st) % m as u64) as u32);
                let e = match xorshift(&mut st) % 5 {
                    0 => None,
                    c => Some(CommodityId((c % s as u64) as u16)),
                };
                let fid = FacilityId(k);
                let full_row: Vec<f64> = (0..m as u32)
                    .map(|p| inst.distance(PointId(p), at))
                    .collect();
                match e {
                    Some(e) => reference.note_small_opening_with_row(&full_row, e, fid),
                    None => reference.note_large_opening_with_row(&full_row, fid),
                }
                if bounded_opening(&mut bounded, &layout, &inst, e, at, fid) {
                    wide += 1;
                } else {
                    narrow += 1;
                }
                let bits = |r: Option<(FacilityId, f64)>| r.map(|(f, d)| (f, d.to_bits()));
                for p in (0..m as u32).map(PointId) {
                    for c in (0..s as u16).map(CommodityId) {
                        assert_eq!(
                            bits(bounded.nearest_offering(c, p)),
                            bits(reference.nearest_offering(c, p)),
                            "offering {c:?} at {p:?} after opening {k}"
                        );
                    }
                    assert_eq!(
                        bits(bounded.nearest_large(p)),
                        bits(reference.nearest_large(p)),
                        "large at {p:?} after opening {k}"
                    );
                }
                for row in (0..s as u16).map(|c| Some(CommodityId(c))).chain([None]) {
                    let maxima = bounded.block_maxima(row);
                    for (b, &max) in maxima.iter().enumerate() {
                        for &p in layout.members(b) {
                            let cached = match row {
                                Some(c) => bounded.small_d[c.index() * m + p as usize],
                                None => bounded.large_d[p as usize],
                            };
                            assert!(
                                max >= cached,
                                "block {b} maximum {max} below cache {cached} at {p}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            narrow > 0 && wide > 0,
            "{narrow} narrow, {wide} wide passes"
        );
    }

    #[test]
    fn past_index_buckets_skip_and_sort() {
        let inst = inst(vec![0.0, 10.0, 20.0], 2);
        let mut past = PastIndex::new(3, 2);
        let e = CommodityId(0);
        // Requests at points 0 and 2 with caps 4.0; request 1 interleaved at
        // point 2 so candidate order must be re-sorted.
        past.push_request(0, PointId(0), &[e], &[4.0], 4.0);
        past.push_request(1, PointId(2), &[e], &[4.0], 4.0);
        past.push_request(2, PointId(0), &[e], &[4.0], 4.0);

        // A facility at point 1 is 10 away from both buckets: no candidates.
        assert!(past
            .small_shrink_candidates(&inst, e, PointId(1))
            .is_empty());
        // A facility at point 0 shrinks the point-0 bucket only, in
        // ascending (pi, slot) order.
        let c = past.small_shrink_candidates(&inst, e, PointId(0));
        assert_eq!(c, vec![(0, 0), (2, 0)]);
        // The bucket bound was clamped: a second opening at the same point
        // finds nothing left to shrink.
        assert!(past
            .small_shrink_candidates(&inst, e, PointId(0))
            .is_empty());
        // Large candidates cover every member at a qualifying location.
        let l = past.large_shrink_candidates(&inst, PointId(2));
        assert_eq!(l, vec![1]);
    }

    #[test]
    fn past_index_block_pruning_matches_plain_walk() {
        // A layout-attached PastIndex must return exactly the same shrink
        // candidates — and clamp exactly the same bucket bounds — as the
        // plain bucket walk, under an adversarial interleaving of pushes
        // and (mutating) shrink queries over a shuffled relabeling.
        let (m, s) = (96usize, 2usize);
        let positions: Vec<f64> = (0..m).map(|p| (p as f64 * 7.3) % 50.0).collect();
        let inst = inst(positions, s as u16);
        let f_small = vec![1.0; m * s];
        let f_full = vec![3.0; m];
        let mut st = 0xFEEDu64;
        let mut order: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            let j = (xorshift(&mut st) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let idx = OpeningTargetIndex::with_order(&inst, &f_small, &f_full, order).unwrap();
        let mut pruned = PastIndex::new(m, s);
        pruned.attach_layout(idx.layout_handle());
        let mut plain = PastIndex::new(m, s);
        let e = CommodityId(1);
        for step in 0..400usize {
            let at = PointId((xorshift(&mut st) % m as u64) as u32);
            if step % 3 != 2 {
                let cap = 0.5 + ((xorshift(&mut st) % 16) as f64) * 0.5;
                let caps = [cap, cap * 0.75];
                let demands = [CommodityId(0), e];
                pruned.push_request(step as u32, at, &demands, &caps, cap);
                plain.push_request(step as u32, at, &demands, &caps, cap);
            } else {
                let got = pruned.small_shrink_candidates(&inst, e, at);
                let want = plain.small_shrink_candidates(&inst, e, at);
                assert_eq!(got, want, "small candidates diverged at step {step}");
                let got = pruned.large_shrink_candidates(&inst, at);
                let want = plain.large_shrink_candidates(&inst, at);
                assert_eq!(got, want, "large candidates diverged at step {step}");
            }
        }
    }

    #[test]
    fn past_index_block_bounds_recover_after_cross_family_shrinks() {
        // Six tight clusters (16 points, width 1.875) a thousand apart,
        // plus one probe point per cluster ~5 away; every cluster point
        // holds a past request with all caps 8. One *large* opening per
        // cluster shrinks every cap there to the intra-cluster distance
        // (≤ 1.875). Before the cross-family clamp, the *small* walk's
        // block bounds stayed at the stale-high 8 forever, so a probe at
        // distance ~4 (> true caps, < stale bound) kept scanning every
        // cluster block on every opening — this test pins the recovery:
        // all probe walks must skip all blocks without one location read.
        let (m, s) = (102usize, 1usize);
        let positions: Vec<f64> = (0..m)
            .map(|p| {
                if p < 96 {
                    (p / 16) as f64 * 1000.0 + (p % 16) as f64 * 0.125
                } else {
                    (p - 96) as f64 * 1000.0 + 5.0
                }
            })
            .collect();
        let inst = inst(positions, s as u16);
        let f_small = vec![1.0; m * s];
        let f_full = vec![3.0; m];
        let idx = OpeningTargetIndex::with_order(&inst, &f_small, &f_full, (0..m as u32).collect())
            .unwrap();
        let mut past = PastIndex::new(m, s);
        past.attach_layout(idx.layout_handle());
        let e = CommodityId(0);
        for p in 0..96u32 {
            past.push_request(p, PointId(p), &[e], &[8.0], 8.0);
        }
        // Shrink-heavy phase: a large opening at each cluster head clamps
        // every bound in the cluster (the caller contract shrinks the true
        // caps to the same distances).
        for c in 0..6u32 {
            let got = past.large_shrink_candidates(&inst, PointId(c * 16));
            assert_eq!(got.len(), 16, "cluster {c}: every member qualifies");
        }
        // Recovery: small-opening probes from ~4–5 away see distance lower
        // bounds above every recovered cap bound, so the walks retire all
        // blocks without any per-location distance reads.
        let (skipped0, scanned0) = past.stats();
        for c in 0..6u32 {
            let got = past.small_shrink_candidates(&inst, e, PointId(96 + c));
            assert!(
                got.is_empty(),
                "cluster {c}: no cap exceeds the probe distance"
            );
        }
        let (skipped, scanned) = past.stats();
        assert_eq!(scanned, scanned0, "stale-high bounds kept blocks scannable");
        assert!(skipped > skipped0);
        // And the small→large direction: small openings at the cluster
        // heads can only tighten further; large probes must skip too.
        for c in 0..6u32 {
            past.small_shrink_candidates(&inst, e, PointId(c * 16));
        }
        let (_, scanned1) = past.stats();
        for c in 0..6u32 {
            let got = past.large_shrink_candidates(&inst, PointId(96 + c));
            assert!(
                got.is_empty(),
                "cluster {c}: no any-cap exceeds the probe distance"
            );
        }
        let (_, scanned2) = past.stats();
        assert_eq!(
            scanned2, scanned1,
            "any-cap block bounds must have recovered"
        );
    }

    /// Reference scan with the PD tie-breaking: ascending location, strict
    /// `<`, i.e. the lexicographic min of `(value, location)`.
    fn scan_argmin(f_row: &[f64], b_row: &[f64], dist_row: &[f64]) -> (f64, u32) {
        let mut best = f64::INFINITY;
        let mut arg = 0u32;
        for p in 0..f_row.len() {
            let v = (f_row[p] - b_row[p]).max(0.0) + dist_row[p];
            if v < best {
                best = v;
                arg = p as u32;
            }
        }
        (best, arg)
    }

    /// Deterministic xorshift for the differential drive below (no rand dep
    /// in this crate).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn pruned_scan_matches_full_scan_under_pd_style_dynamics() {
        // Random bumps (budget increases, O(1) bound maintenance), rare
        // shrinks (budget decreases + rebuild), queries from random anchors
        // with heavy exact ties: every answer must equal the full scan bit
        // for bit, winner id included.
        let (m, s, queries) = (150usize, 3usize, 500usize);
        let e = CommodityId(1);
        // Location-independent costs: maximal tie pressure.
        let f_small = vec![2.0; m * s];
        let f_full = vec![5.0; m];
        let mut b_row = vec![0.0; m];
        let mut b_large = vec![0.0; m];
        let mut idx = OpeningTargetIndex::new(m, s, &f_small, &f_full);
        let f_row = &f_small[e.index() * m..(e.index() + 1) * m];
        let mut st = 0xC0FFEEu64;
        let mut dist_row = vec![0.0; m];
        for step in 0..queries {
            // A synthetic anchor: distances with many exact zeros and ties.
            let anchor = (xorshift(&mut st) % m as u64) as usize;
            for (p, d) in dist_row.iter_mut().enumerate() {
                *d = ((p.abs_diff(anchor)) % 7) as f64 * 0.5;
            }
            idx.prepare_query(&dist_row);
            let got = idx.small_target(e, f_row, &b_row, &dist_row);
            let want = scan_argmin(f_row, &b_row, &dist_row);
            assert_eq!(
                (got.0.to_bits(), got.1 .0),
                (want.0.to_bits(), want.1),
                "t3 diverged at step {step}"
            );
            let got4 = idx.large_target(&f_full, &b_large, &dist_row);
            let want4 = scan_argmin(&f_full, &b_large, &dist_row);
            assert_eq!(
                (got4.0.to_bits(), got4.1 .0),
                (want4.0.to_bits(), want4.1),
                "t4 diverged at step {step}"
            );
            // Mutate like the PD process: mostly bumps, occasional shrink.
            let p = (xorshift(&mut st) % m as u64) as usize;
            if step % 17 == 11 {
                b_row[p] = (b_row[p] - 1.0).max(0.0);
                b_large[p] = (b_large[p] - 2.0).max(0.0);
                idx.rebuild_small(e, f_row, &b_row);
                idx.rebuild_large(&f_full, &b_large);
            } else {
                let inc = 0.25 * ((xorshift(&mut st) % 8) as f64);
                b_row[p] += inc;
                idx.note_small_bump(e, PointId(p as u32), (f_row[p] - b_row[p]).max(0.0));
                b_large[p] += inc;
                idx.note_large_bump(PointId(p as u32), (f_full[p] - b_large[p]).max(0.0));
            }
        }
        let (skipped, scanned) = idx.stats();
        assert!(scanned > 0, "queries never scanned a block");
        assert!(skipped > 0, "the prune never engaged");
    }

    #[test]
    fn stale_low_bounds_after_unannounced_rises_stay_sound() {
        // A shrink without a rebuild leaves bounds stale LOW — pruning must
        // get weaker, never wrong.
        let m = TARGET_BLOCK * 3;
        let f_small = vec![4.0; m];
        let f_full = vec![9.0; m];
        let mut b_row = vec![0.0; m];
        let mut idx = OpeningTargetIndex::new(m, 1, &f_small, &f_full);
        let e = CommodityId(0);
        // Bump one location hard, then silently undo it (keys rise; no
        // rebuild call — the bound is now stale low).
        let hot = m - TARGET_BLOCK / 2;
        b_row[hot] = 3.75;
        idx.note_small_bump(e, PointId(hot as u32), (f_small[hot] - b_row[hot]).max(0.0));
        b_row[hot] = 0.0;
        let dist_row: Vec<f64> = (0..m).map(|p| p as f64 * 0.01).collect();
        idx.prepare_query(&dist_row);
        let got = idx.small_target(e, &f_small, &b_row, &dist_row);
        let want = scan_argmin(&f_small, &b_row, &dist_row);
        assert_eq!((got.0.to_bits(), got.1 .0), (want.0.to_bits(), want.1));
        // A rebuild restores tightness and the answer stays exact.
        idx.rebuild_small(e, &f_small, &b_row);
        let got = idx.small_target(e, &f_small, &b_row, &dist_row);
        assert_eq!((got.0.to_bits(), got.1 .0), (want.0.to_bits(), want.1));
    }

    #[test]
    fn relabeled_scan_matches_full_scan_under_pd_style_dynamics() {
        // A shuffled line metric (ids scattered over space, so the coherent
        // order is a genuine permutation) driven with bumps, shrinks and
        // rebuilds: the relabeled, radius-bounded index must equal the full
        // strict-`<` ascending-id scan bit for bit — winner id included —
        // at every step, with heavy exact ties in the mix.
        let m = 150usize;
        let mut positions = Vec::with_capacity(m);
        let mut st = 0xFEEDu64;
        for _ in 0..m {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Two far clusters plus ties: coarse values repeat.
            let cluster = if st & 4 == 0 { 0.0 } else { 1000.0 };
            positions.push(cluster + ((st >> 33) % 13) as f64);
        }
        let inst = Instance::new(
            Box::new(LineMetric::new(positions).unwrap()),
            3,
            CostModel::power(3, 1.0, 2.0),
        )
        .unwrap();
        assert_ne!(
            inst.metric().coherent_order().unwrap(),
            (0..m as u32).collect::<Vec<_>>(),
            "the shuffled line must relabel non-trivially"
        );
        let e = CommodityId(1);
        let s = 3usize;
        let f_small = vec![2.0; m * s];
        let f_full = vec![5.0; m];
        let mut b_row = vec![0.0; m];
        let mut b_large = vec![0.0; m];
        let mut idx = OpeningTargetIndex::for_instance(&inst, &f_small, &f_full);
        let f_row = &f_small[e.index() * m..(e.index() + 1) * m];
        let mut dist_row = vec![0.0; m];
        let mut st = 0xC0FFEEu64;
        for step in 0..400usize {
            let anchor = PointId((xorshift(&mut st) % m as u64) as u32);
            for (p, d) in dist_row.iter_mut().enumerate() {
                *d = inst.distance(PointId(p as u32), anchor);
            }
            idx.prepare_query(&dist_row);
            let got = idx.small_target(e, f_row, &b_row, &dist_row);
            let want = scan_argmin(f_row, &b_row, &dist_row);
            assert_eq!(
                (got.0.to_bits(), got.1 .0),
                (want.0.to_bits(), want.1),
                "t3 diverged at step {step}"
            );
            let got4 = idx.large_target(&f_full, &b_large, &dist_row);
            let want4 = scan_argmin(&f_full, &b_large, &dist_row);
            assert_eq!(
                (got4.0.to_bits(), got4.1 .0),
                (want4.0.to_bits(), want4.1),
                "t4 diverged at step {step}"
            );
            let p = (xorshift(&mut st) % m as u64) as usize;
            if step % 17 == 11 {
                b_row[p] = (b_row[p] - 1.0).max(0.0);
                b_large[p] = (b_large[p] - 2.0).max(0.0);
                idx.rebuild_small(e, f_row, &b_row);
                idx.rebuild_large(&f_full, &b_large);
            } else {
                let inc = 0.25 * ((xorshift(&mut st) % 8) as f64);
                b_row[p] += inc;
                idx.note_small_bump(e, PointId(p as u32), (f_row[p] - b_row[p]).max(0.0));
                b_large[p] += inc;
                idx.note_large_bump(PointId(p as u32), (f_full[p] - b_large[p]).max(0.0));
            }
        }
        let (skipped, scanned) = idx.stats();
        assert!(scanned > 0, "queries never scanned a block");
        assert!(skipped > 0, "the prune never engaged");
    }

    #[test]
    fn radius_bounds_prune_blocks_the_distance_free_bound_cannot() {
        // Two clusters 10_000 apart, point ids shuffled across them, and
        // distance-free keys *smaller* in the far cluster — the id-order
        // bound (blockmin alone) is below the best everywhere, so it prunes
        // nothing; only the radius bound certifies the far cluster out.
        let m = TARGET_BLOCK * 8;
        let mut positions = Vec::with_capacity(m);
        for p in 0..m {
            // Even ids near the origin, odd ids in the far cluster: every
            // id-order block would straddle both clusters, but the coherent
            // (position) order separates them.
            let base = if p % 2 == 0 { 0.0 } else { 10_000.0 };
            positions.push(base + (p / 2) as f64 * 0.25);
        }
        let inst = Instance::new(
            Box::new(LineMetric::new(positions.clone()).unwrap()),
            1,
            CostModel::power(1, 1.0, 2.0),
        )
        .unwrap();
        // Keys: 1.0 near the origin, 0.5 in the far cluster (cheaper, so
        // blockmin of far blocks undercuts every near key).
        let f_small: Vec<f64> = (0..m).map(|p| if p % 2 == 0 { 1.0 } else { 0.5 }).collect();
        let f_full = vec![9.0; m];
        let b = vec![0.0; m];
        let mut idx = OpeningTargetIndex::for_instance(&inst, &f_small, &f_full);
        // Query at the origin-cluster's first point.
        let mut dist_row = vec![0.0; m];
        for (p, d) in dist_row.iter_mut().enumerate() {
            *d = inst.distance(PointId(p as u32), PointId(0));
        }
        idx.prepare_query(&dist_row);
        let e = CommodityId(0);
        let got = idx.small_target(e, &f_small, &b, &dist_row);
        let want = scan_argmin(&f_small, &b, &dist_row);
        assert_eq!((got.0.to_bits(), got.1 .0), (want.0.to_bits(), want.1));
        assert_eq!(got.1, PointId(0), "the local key + zero distance wins");
        let (skipped, scanned) = idx.stats();
        // The far cluster fills half the blocks; the radius bound must
        // prune at least those (the distance-free part of their bound is
        // 0.5 < best = 1.0, so only the distance term can certify them).
        assert!(
            skipped >= (m / TARGET_BLOCK / 2) as u64,
            "radius bounds failed to prune the far cluster: {skipped} skipped, {scanned} scanned"
        );
    }

    #[test]
    fn arbitrary_relabelings_change_nothing_but_the_block_partition() {
        // A fixed scenario queried under several hand-rolled permutations:
        // every answer must match the identity index bit for bit.
        let m = 70usize;
        let inst = Instance::new(
            Box::new(LineMetric::uniform(m, 35.0).unwrap()),
            2,
            CostModel::power(2, 1.0, 2.0),
        )
        .unwrap();
        let s = 2usize;
        let mut st = 0xABCDu64;
        let f_small: Vec<f64> = (0..m * s)
            .map(|_| 1.0 + (xorshift(&mut st) % 5) as f64 * 0.5)
            .collect();
        let f_full: Vec<f64> = (0..m)
            .map(|_| 4.0 + (xorshift(&mut st) % 3) as f64)
            .collect();
        let b_small = vec![0.0; m * s];
        let b_large = vec![0.0; m];
        let reversed: Vec<u32> = (0..m as u32).rev().collect();
        let mut shuffled: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            let j = (xorshift(&mut st) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut base =
            OpeningTargetIndex::with_order(&inst, &f_small, &f_full, (0..m as u32).collect())
                .unwrap();
        for order in [reversed, shuffled] {
            let mut idx = OpeningTargetIndex::with_order(&inst, &f_small, &f_full, order).unwrap();
            for anchor in 0..m as u32 {
                let mut dist_row = vec![0.0; m];
                for (p, d) in dist_row.iter_mut().enumerate() {
                    *d = inst.distance(PointId(p as u32), PointId(anchor));
                }
                idx.prepare_query(&dist_row);
                base.prepare_query(&dist_row);
                for e in 0..s as u16 {
                    let e = CommodityId(e);
                    let f_row = &f_small[e.index() * m..(e.index() + 1) * m];
                    let b_row = &b_small[e.index() * m..(e.index() + 1) * m];
                    let got = idx.small_target(e, f_row, b_row, &dist_row);
                    let want = base.small_target(e, f_row, b_row, &dist_row);
                    assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
                }
                let got = idx.large_target(&f_full, &b_large, &dist_row);
                let want = base.large_target(&f_full, &b_large, &dist_row);
                assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
            }
        }
    }

    #[test]
    fn first_block_tie_wins_over_later_equal_blocks() {
        // Uniform keys at distance zero: every location ties exactly. The
        // pruned scan must return location 0 — the full scan's first
        // winner — and prune every later block (their bound equals the
        // best, and equal keys cannot strictly improve).
        let m = TARGET_BLOCK * 4;
        let f_small = vec![1.0; m];
        let f_full = vec![2.0; m];
        let b = vec![0.0; m];
        let dist = vec![0.0; m];
        let mut idx = OpeningTargetIndex::new(m, 1, &f_small, &f_full);
        idx.prepare_query(&dist);
        let (v, p) = idx.small_target(CommodityId(0), &f_small, &b, &dist);
        assert_eq!((v, p), (1.0, PointId(0)));
        let (skipped, scanned) = idx.stats();
        assert_eq!(scanned, 1, "only the first block needs scanning");
        assert_eq!(skipped, 3, "all later tying blocks must be pruned");
    }
}
