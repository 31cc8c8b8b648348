//! Per-point nearest-open-facility caches.

use super::{run_shards, SpatialLayout, HUGE_BLOCK};
use crate::instance::Instance;
use crate::solution::FacilityId;
use omfl_commodity::CommodityId;
use omfl_metric::PointId;
use omfl_par::{ShardWriter, TaskPool};
use std::sync::Arc;

const NO_FACILITY: u32 = u32::MAX;

/// Per-point nearest-open-facility caches, maintained on facility openings.
///
/// Every cache is stored by **slot**: a point's layout position when a
/// block layout is installed (on the PD engine's block-pass path), its id
/// otherwise. Each block's members then hold one contiguous run of slots,
/// so the bounded refresh walks that run of the caches in the order the
/// block's distances come. Ids become slots only in the lookups
/// ([`Self::nearest_offering`], [`Self::nearest_large`]).
///
/// Memory is `O(|M|·|S|)` — the same order as the PD bid matrix the analysis
/// already requires.
#[derive(Debug, Clone)]
pub struct FacilityIndex {
    points: usize,
    /// `|S|`: the number of small caches.
    services: usize,
    /// `d(F(e) ∩ smalls, p)`, flat `e·|M| + slot(p)` (commodity-major:
    /// opening updates walk every slot for one `e`, so this keeps them on
    /// contiguous memory; queries are single lookups either way).
    /// `INFINITY` when empty.
    pub(super) small_d: Vec<f64>,
    /// Matching facility ids, flat `e·|M| + slot(p)`; `NO_FACILITY` when
    /// empty.
    small_f: Vec<u32>,
    /// `d(F̂, p)` by slot; `INFINITY` when empty.
    pub(super) large_d: Vec<f64>,
    /// Matching facility ids by slot; `NO_FACILITY` when empty.
    large_f: Vec<u32>,
    /// Openings folded in so far (for diagnostics and refresh-boundary tests).
    openings: usize,
    /// Block layout shared with the PD engine's
    /// [`OpeningTargetIndex`](super::OpeningTargetIndex) on its block-pass
    /// path: it orders the slots, and lets
    /// [`Self::note_opening_in_shards`] skip every block an opening
    /// provably cannot reach.
    layout: Option<Arc<SpatialLayout>>,
    /// Per-block upper bound on the cached distances, flat `e·nblocks + b`
    /// for the small caches and `|S|·nblocks + b` for the large one; empty
    /// without a layout. Starts at `∞`; each refresh recomputes exactly the
    /// blocks it visits — caches only fall, so the bound is never stale
    /// low.
    pub(super) block_max: Vec<f64>,
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

    /// An empty index over `points × services` whose caches are stored in
    /// `layout`'s order and refreshed through the blocks it walks. Fresh
    /// per-block maxima start at `∞`, so each cache's first opening visits
    /// every block.
    pub(crate) fn with_layout(points: usize, services: usize, layout: Arc<SpatialLayout>) -> Self {
        Self {
            block_max: vec![f64::INFINITY; (services + 1) * layout.nblocks()],
            layout: Some(layout),
            ..Self::new(points, services)
        }
    }

    /// Range of the maxima row of the cache an opening of `e` (small) or
    /// `None` (large) refreshes; empty without a layout.
    pub(super) fn maxima_range(&self, e: Option<CommodityId>) -> std::ops::Range<usize> {
        let nblocks = self.layout.as_ref().map_or(0, |l| l.nblocks());
        let row = e.map_or(self.services, |e| e.index());
        row * nblocks..(row + 1) * nblocks
    }

    /// The cache an opening of `e` (small) or `None` (large) refreshes,
    /// with its per-block maxima and the layout, if one is installed.
    #[allow(clippy::type_complexity)]
    fn refresh_parts(
        &mut self,
        e: Option<CommodityId>,
    ) -> (&mut [f64], &mut [u32], &mut [f64], Option<&SpatialLayout>) {
        let range = self.maxima_range(e);
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
        (
            cache_d,
            cache_f,
            &mut self.block_max[range],
            self.layout.as_deref(),
        )
    }

    /// Folds an opening at `at` (small for `e`, or large for `None`) into
    /// the cache of a layout-free index from its full distance row
    /// `row[p] = d(p, at)`, which must hold the verbatim metric values
    /// (e.g. from [`Instance::fill_row`]): the strict-`<` update over every
    /// point, in opening order. Slots are ids here, so the row and the
    /// cache walk together; an index with a layout refreshes through
    /// `note_opening_in_shards` instead.
    pub fn note_opening(&mut self, e: Option<CommodityId>, row: &[f64], fid: FacilityId) {
        assert_eq!(row.len(), self.points, "one distance per point");
        debug_assert!(self.layout.is_none(), "a full row is in id order");
        let (cache_d, cache_f, _, _) = self.refresh_parts(e);
        for ((sd, sf), &d) in cache_d.iter_mut().zip(cache_f.iter_mut()).zip(row) {
            if d < *sd {
                *sd = d;
                *sf = fid.0;
            }
        }
        self.openings += 1;
    }

    /// The bounded refresh: folds an opening at `at` (small for `e`, or
    /// large for `None`) into the cache of an index with a layout, from
    /// `at`'s representative distances `rep_d`
    /// ([`SpatialLayout::rep_distances`]), with the same strict-`<` update
    /// as [`Self::note_opening`].
    ///
    /// One pass over the blocks, in shards of `shard_blocks` contiguous
    /// blocks run on `pool` (inline, shard by shard, without one), the
    /// pair `shards` names. A shard
    /// tests each of its blocks and refreshes those whose certified lower
    /// bound on `d(·, at)` is below the block's maximum: a skipped block
    /// has `d(p, at) ≥ max ≥ cached[p]` for every member, so the update
    /// could not fire there. A kept block reads its member distances in
    /// one [`SpatialLayout::member_distances`] pass, updates its
    /// contiguous run of slots in that order, and recomputes its maximum
    /// in the same pass. Each shard writes only its own run of slots and
    /// its own maxima, so the caches end bit-identical at every shard size
    /// and on any pool, none included.
    pub(crate) fn note_opening_in_shards(
        &mut self,
        inst: &Instance,
        e: Option<CommodityId>,
        at: PointId,
        rep_d: &[f64],
        fid: FacilityId,
        (pool, shard_blocks): (Option<&TaskPool>, usize),
    ) {
        let (cache_d, cache_f, maxima, layout) = self.refresh_parts(e);
        let layout = layout.expect("bounded refresh needs a layout");
        // A shard's blocks hold one contiguous run of slots.
        let run = shard_blocks * layout.block;
        let run_d = ShardWriter::new(cache_d, run);
        let run_f = ShardWriter::new(cache_f, run);
        let run_max = ShardWriter::new(maxima, shard_blocks);
        let body = |s: usize| {
            // Safety: shard `s` touches only chunk `s` of each writer: the
            // slots and the maxima of its own blocks.
            let (cache_d, cache_f, maxima) =
                unsafe { (run_d.chunk(s), run_f.chunk(s), run_max.chunk(s)) };
            let mut buf = [0.0; HUGE_BLOCK];
            for (j, block_max) in maxima.iter_mut().enumerate() {
                let b = s * shard_blocks + j;
                if layout.block_dlb(b, rep_d) >= *block_max {
                    continue;
                }
                let dists = layout.member_distances(inst, b, at, &mut buf);
                let slots = j * layout.block..j * layout.block + dists.len();
                let run = cache_d[slots.clone()].iter_mut().zip(&mut cache_f[slots]);
                let mut max = 0.0f64;
                for ((sd, sf), &d) in run.zip(dists) {
                    if d < *sd {
                        *sd = d;
                        *sf = fid.0;
                    }
                    if *sd > max {
                        max = *sd;
                    }
                }
                *block_max = max;
            }
        };
        run_shards(pool, run_max.num_chunks(), &body);
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

    /// Nearest open facility offering `e` (small-for-`e` or large), `O(1)`.
    ///
    /// Ties between a small and a large facility go to the small one — the
    /// scan order of the linear search this replaces.
    #[inline]
    pub fn nearest_offering(&self, e: CommodityId, from: PointId) -> Option<(FacilityId, f64)> {
        let at = slot(self.layout.as_deref(), from.index());
        let idx = e.index() * self.points + at;
        let (sd, ld) = (self.small_d[idx], self.large_d[at]);
        if sd.is_infinite() && ld.is_infinite() {
            return None;
        }
        if sd <= ld {
            Some((FacilityId(self.small_f[idx]), sd))
        } else {
            Some((FacilityId(self.large_f[at]), ld))
        }
    }

    /// Nearest open *large* facility, `O(1)`.
    #[inline]
    pub fn nearest_large(&self, from: PointId) -> Option<(FacilityId, f64)> {
        let at = slot(self.layout.as_deref(), from.index());
        let d = self.large_d[at];
        if d.is_infinite() {
            None
        } else {
            Some((FacilityId(self.large_f[at]), d))
        }
    }
}

/// Point `p`'s cache slot under `layout`: its layout position, or its id
/// without a layout.
#[inline]
fn slot(layout: Option<&SpatialLayout>, p: usize) -> usize {
    layout.map_or(p, |l| l.pos[p] as usize)
}
