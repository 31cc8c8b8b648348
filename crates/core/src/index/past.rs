//! Location-bucketed past requests for the cap-shrink passes.

use super::{dist_lower_bound, SpatialLayout};
use crate::instance::Instance;
use omfl_commodity::CommodityId;
use omfl_metric::PointId;
use std::sync::Arc;

/// Location-bucketed view of frozen per-request state, used by the PD
/// engine's cap-shrink passes.
///
/// `post_open_small` / `post_open_large` must decide, per past request,
/// whether a new facility lowered its bid cap. Requests sharing a location
/// share that decision's distance, and caps only ever shrink — so per
/// `(location, commodity)` bucket we keep the member list plus an upper
/// bound on the members' caps. A whole bucket is skipped in `O(1)` when
/// `d(new facility, location)` is at least the bound, turning the
/// per-opening walk from `O(history)` into `O(locations with requests +
/// actually-shrinking)`.
///
/// Only locations holding past requests have state: a location opens a
/// *slot* on its first [`Self::push_request`], and every per-location and
/// per-`(location, commodity)` field is stored by slot, in first-touch
/// order. Memory is one zeroed `u32` per point (pages of untouched
/// locations are never written), `O(blocks · |S|)` block bounds, plus
/// `O(touched locations · |S|)`.
///
/// Bounds are allowed to go stale *high* (a skipped shrink elsewhere never
/// lowers them); they are never stale low, so skipping is always sound.
#[derive(Debug, Clone)]
pub struct PastIndex {
    services: usize,
    /// Per location: `0` before its first request, else `1 + slot`.
    pub(super) slot_of: Vec<u32>,
    /// The location of each slot.
    pub(super) slot_loc: Vec<u32>,
    /// Requests at the slot's location demanding `e`, flat `slot·|S| + e`,
    /// as `(past index, position in the request's demand list)` in push
    /// order (ascending — freeze appends).
    pub(super) by_loc_e: Vec<Vec<(u32, u16)>>,
    /// Upper bound on the members' `e` caps over the matching bucket.
    pub(super) max_cap_e: Vec<f64>,
    /// Past-request indices at the slot's location, ascending.
    pub(super) by_loc: Vec<Vec<u32>>,
    /// Upper bound on `max(cap_total, caps[..])` over requests at the slot.
    pub(super) max_cap_any: Vec<f64>,
    /// Block layout shared with the engine's
    /// [`OpeningTargetIndex`](super::OpeningTargetIndex): lets the shrink
    /// walks skip whole blocks whose distance lower bound already exceeds
    /// every cap bound inside.
    layout: Arc<SpatialLayout>,
    /// Per block: the slots of its locations (first-touch append order;
    /// the bucket-level decisions below are order-independent, and the
    /// output is sorted).
    pub(super) block_locs: Vec<Vec<u32>>,
    /// Per-block upper bound on `max_cap_e` over the block's buckets, flat
    /// `e·nblocks + b`. Monotone-up on push; recomputed exactly for blocks
    /// the shrink walk clamps. Never stale low, so skipping is sound.
    block_cap_e: Vec<f64>,
    /// Per-block upper bound on `max_cap_any`.
    block_cap_any: Vec<f64>,
    /// Upper bound on `cap_total` alone over requests at the slot — the
    /// component of `max_cap_any` that only *large* openings shrink, kept
    /// separately so the cross-family clamp passes can recompute
    /// `max_cap_any` from parts without engine data.
    pub(super) max_cap_total: Vec<f64>,
    /// Commodities with a non-empty bucket at the slot (first-touch order):
    /// lets a large opening clamp every per-commodity bound at a visited
    /// location without scanning the full service universe.
    pub(super) commodities_at: Vec<Vec<u32>>,
    /// Blocks retired without per-location distance reads by the
    /// layout-pruned shrink walks.
    blocks_skipped: u64,
    /// Blocks the layout-pruned shrink walks actually scanned.
    blocks_scanned: u64,
}

impl PastIndex {
    /// An empty past-request index over the layout's points and
    /// `services` commodities. The shrink walks skip whole blocks of the
    /// layout by the same radius bounds the argmin scans use; which layout
    /// it is changes only the number of distance evaluations, never a
    /// candidate list (content *and* order).
    pub(crate) fn new(layout: Arc<SpatialLayout>, services: usize) -> Self {
        let nblocks = layout.nblocks();
        Self {
            services,
            slot_of: vec![0; layout.perm.len()],
            slot_loc: Vec::new(),
            by_loc_e: Vec::new(),
            max_cap_e: Vec::new(),
            by_loc: Vec::new(),
            max_cap_any: Vec::new(),
            layout,
            block_locs: vec![Vec::new(); nblocks],
            block_cap_e: vec![0.0; services * nblocks],
            block_cap_any: vec![0.0; nblocks],
            max_cap_total: Vec::new(),
            commodities_at: Vec::new(),
            blocks_skipped: 0,
            blocks_scanned: 0,
        }
    }

    /// `(blocks skipped, blocks scanned)` by the layout-pruned shrink walks
    /// since construction. Pure observability — the counters never feed
    /// back into candidate selection.
    pub fn stats(&self) -> (u64, u64) {
        (self.blocks_skipped, self.blocks_scanned)
    }

    /// Registers a freshly frozen request: its location, its commodities
    /// and their caps, and the total cap.
    pub fn push_request(
        &mut self,
        pi: u32,
        loc: PointId,
        commodities: &[CommodityId],
        caps: &[f64],
        cap_total: f64,
    ) {
        let l = loc.index();
        let b = self.layout.pos[l] as usize / self.layout.block;
        if self.slot_of[l] == 0 {
            // The location's first request opens its slot.
            let n = self.slot_loc.len();
            self.slot_of[l] = n as u32 + 1;
            self.slot_loc.push(l as u32);
            self.by_loc_e.resize_with((n + 1) * self.services, Vec::new);
            self.max_cap_e.resize((n + 1) * self.services, 0.0);
            self.by_loc.push(Vec::new());
            self.max_cap_any.push(0.0);
            self.max_cap_total.push(0.0);
            self.commodities_at.push(Vec::new());
            self.block_locs[b].push(n as u32);
        }
        let slot = self.slot_of[l] as usize - 1;
        let nblocks = self.block_cap_any.len();
        if cap_total > self.max_cap_total[slot] {
            self.max_cap_total[slot] = cap_total;
        }
        let mut any = cap_total;
        for (k, (&e, &cap)) in commodities.iter().zip(caps).enumerate() {
            let idx = slot * self.services + e.index();
            if self.by_loc_e[idx].is_empty() {
                self.commodities_at[slot].push(e.index() as u32);
            }
            self.by_loc_e[idx].push((pi, k as u16));
            if cap > self.max_cap_e[idx] {
                self.max_cap_e[idx] = cap;
            }
            let bidx = e.index() * nblocks + b;
            if cap > self.block_cap_e[bidx] {
                self.block_cap_e[bidx] = cap;
            }
            if cap > any {
                any = cap;
            }
        }
        self.by_loc[slot].push(pi);
        if any > self.max_cap_any[slot] {
            self.max_cap_any[slot] = any;
        }
        if any > self.block_cap_any[b] {
            self.block_cap_any[b] = any;
        }
    }

    /// Candidate `(past index, demand position)` members whose
    /// commodity-`e` cap *may* shrink when a small facility for `e` opens
    /// at `at` — every member at a location whose cap bound exceeds
    /// `d(at, location)`. Returned sorted ascending, i.e. the exact order
    /// the linear history walk would visit them in. Buckets that qualify
    /// have their bound clamped to the new distance (all surviving caps
    /// are at most that).
    ///
    /// The walk goes block by block over the layout: a block whose
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
        let (s, e) = (self.services, e.index());
        let mut out = Vec::new();
        let layout = Arc::clone(&self.layout);
        let nblocks = self.block_cap_any.len();
        let cap_base = e * nblocks;
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
                let slot = self.block_locs[b][i] as usize;
                let idx = slot * s + e;
                if self.by_loc_e[idx].is_empty() {
                    continue;
                }
                let dj = inst.distance(at, PointId(self.slot_loc[slot]));
                if dj < self.max_cap_e[idx] {
                    out.extend_from_slice(&self.by_loc_e[idx]);
                    self.max_cap_e[idx] = dj;
                    touched = true;
                    any_touched |= self.retighten_any(slot);
                }
            }
            if touched {
                let mut cap = 0.0f64;
                for &slot in &self.block_locs[b] {
                    cap = cap.max(self.max_cap_e[slot as usize * s + e]);
                }
                self.block_cap_e[cap_base + b] = cap;
            }
            if any_touched {
                let mut cap = 0.0f64;
                for &slot in &self.block_locs[b] {
                    cap = cap.max(self.max_cap_any[slot as usize]);
                }
                self.block_cap_any[b] = cap;
            }
        }
        out.sort_unstable();
        out
    }

    /// Recomputes the slot's any-cap bound from its parts after a
    /// per-commodity bound clamped. `max(max_cap_total, per-commodity
    /// bounds at ℓ)` dominates every member's `max(cap_total, caps[..])`,
    /// so the result is a sound upper bound; it is applied only when it
    /// tightens (the stored bound may already be lower from a large-walk
    /// clamp). Returns whether the stored bound changed.
    fn retighten_any(&mut self, slot: usize) -> bool {
        let mut any = self.max_cap_total[slot];
        for &e2 in &self.commodities_at[slot] {
            any = any.max(self.max_cap_e[slot * self.services + e2 as usize]);
        }
        if any < self.max_cap_any[slot] {
            self.max_cap_any[slot] = any;
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
        let s = self.services;
        let mut out = Vec::new();
        let mut touched_e: Vec<u32> = Vec::new();
        let layout = Arc::clone(&self.layout);
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
                let slot = self.block_locs[b][i] as usize;
                let dj = inst.distance(at, PointId(self.slot_loc[slot]));
                if dj < self.max_cap_any[slot] {
                    out.extend_from_slice(&self.by_loc[slot]);
                    self.max_cap_any[slot] = dj;
                    touched = true;
                    self.clamp_location_bounds(slot, dj, &mut touched_e);
                }
            }
            if touched {
                let mut cap = 0.0f64;
                for &slot in &self.block_locs[b] {
                    cap = cap.max(self.max_cap_any[slot as usize]);
                }
                self.block_cap_any[b] = cap;
            }
            touched_e.sort_unstable();
            touched_e.dedup();
            for &e in &touched_e {
                let mut cap = 0.0f64;
                for &slot in &self.block_locs[b] {
                    cap = cap.max(self.max_cap_e[slot as usize * s + e as usize]);
                }
                self.block_cap_e[e as usize * nblocks + b] = cap;
            }
        }
        out.sort_unstable();
        out
    }

    /// Clamps `max_cap_total` and every per-commodity bound at the slot to
    /// `dj` after a large opening qualified its location: once the caller's
    /// shrink pass completes, no cap of any family there exceeds `dj`.
    /// Commodities whose bound actually tightened are appended to
    /// `touched_e`, for the block-row recompute.
    fn clamp_location_bounds(&mut self, slot: usize, dj: f64, touched_e: &mut Vec<u32>) {
        if dj < self.max_cap_total[slot] {
            self.max_cap_total[slot] = dj;
        }
        for i in 0..self.commodities_at[slot].len() {
            let e = self.commodities_at[slot][i];
            let idx = slot * self.services + e as usize;
            if dj < self.max_cap_e[idx] {
                self.max_cap_e[idx] = dj;
                touched_e.push(e);
            }
        }
    }
}

/// The layout-free walks over every slot: the reference the block-pruned
/// walks are checked against, candidates and bounds alike.
#[cfg(test)]
impl PastIndex {
    /// [`Self::small_shrink_candidates`] without block skipping.
    pub(super) fn plain_small_shrink_candidates(
        &mut self,
        inst: &Instance,
        e: CommodityId,
        at: PointId,
    ) -> Vec<(u32, u16)> {
        let (s, e) = (self.services, e.index());
        let mut out = Vec::new();
        for slot in 0..self.slot_loc.len() {
            let idx = slot * s + e;
            if self.by_loc_e[idx].is_empty() {
                continue;
            }
            let dj = inst.distance(at, PointId(self.slot_loc[slot]));
            if dj < self.max_cap_e[idx] {
                out.extend_from_slice(&self.by_loc_e[idx]);
                self.max_cap_e[idx] = dj;
                self.retighten_any(slot);
            }
        }
        out.sort_unstable();
        out
    }

    /// [`Self::large_shrink_candidates`] without block skipping.
    pub(super) fn plain_large_shrink_candidates(
        &mut self,
        inst: &Instance,
        at: PointId,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for slot in 0..self.slot_loc.len() {
            let dj = inst.distance(at, PointId(self.slot_loc[slot]));
            if dj < self.max_cap_any[slot] {
                out.extend_from_slice(&self.by_loc[slot]);
                self.max_cap_any[slot] = dj;
                self.clamp_location_bounds(slot, dj, &mut Vec::new());
            }
        }
        out.sort_unstable();
        out
    }
}
