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
//! `O(|M|)` over a full distance row; on the PD engine's block-pass path
//! (every metric that lends no stored rows), with the block layout
//! installed, the caches are stored in layout order and the refresh visits
//! only the blocks whose certified distance lower bound undercuts their
//! largest cached distance (an opening can only lower caches near the new
//! facility), each one a contiguous run of the caches, in shards of
//! contiguous blocks on the engine's scan pool.
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
//! * cached distances are the *same* `distance(query, location)` values the
//!   scan would compute (a row from `Metric::fill_row` holds them verbatim),
//!   so the floats are identical, not just close.
//!
//! The differential suite (`tests/tests/differential.rs`) pins this down by
//! comparing the indexed PD against the retained linear-scan reference
//! engine bit for bit.

mod facility;
mod layout;
mod past;
mod targets;

pub use facility::FacilityIndex;
pub(crate) use layout::SpatialLayout;
pub use past::PastIndex;
pub(crate) use targets::mark_block;
pub use targets::{OpeningTargetIndex, QueryDistances};

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
/// * **Pool-sharded t3/t4 scans and refreshes.** [`crate::pd::PdOmflp::new`]
///   installs the sharded-scan worker pool, which the freeze walk and the
///   block-pass facility-cache refresh share (when
///   [`omfl_par::default_threads`] reports more than one thread). Below it
///   the per-arrival scans are far too short for fan-out to pay; from it
///   up each argmin and each refresh spans thousands of blocks and the
///   shard sweeps parallelize cleanly. The pool changes nothing
///   observable, statistics included (the shard partition is a pure
///   function of the block count; see [`SCAN_SHARD_BLOCKS`]).
/// * **64-point kd blocks.** A layout with kd ball ingest switches from
///   [`TARGET_BLOCK`] to [`HUGE_BLOCK`] points per block.
/// * **Parallel block summaries.** The layout computes its blocks'
///   medoids, covering radii and minimum ids in shards of blocks on
///   [`omfl_par::default_threads`] threads. Each block's summary depends
///   on its members alone and lands in its own slot, so the layout is the
///   same at every thread count.
///
/// It does not choose where the engine's distances come from: that is
/// the metric's stored rows when it lends them, and layout block passes
/// otherwise, at every size ([`crate::pd::PdOmflp::partial_rows_active`]).
/// `tests/tests/partial_rows.rs` serves one engine at exactly this size.
pub const HUGE_METRIC_MIN_POINTS: usize = 65536;

/// Blocks per shard of the sharded argmin scan (see
/// [`OpeningTargetIndex::small_target`]), the freeze walk and the
/// block-pass facility-cache refresh. The shard partition is a pure
/// function of the block count — never of the worker pool or thread count
/// — so the skip/scan statistics are machine-portable and the bench floors
/// on `block_skip_rate` stay meaningful. Below two shards' worth of blocks
/// the scan runs the plain two-pass loop.
pub const SCAN_SHARD_BLOCKS: usize = 128;

/// Executes `body(0..nshards)` on the pool when one is installed, inline
/// otherwise. Each shard's work must be independent (ours are: disjoint
/// [`omfl_par::ShardWriter`] chunks over shared read-only inputs), which
/// makes the two execution modes indistinguishable — results and
/// statistics alike. Inlined, so that without a pool the loop calls the
/// shard bodies directly: out of line, the one-thread t3/t4 argmins of
/// `pd-1m` ran 11% slower on a 2-vCPU VM.
#[inline]
fn run_shards(pool: Option<&omfl_par::TaskPool>, nshards: usize, body: &(dyn Fn(usize) + Sync)) {
    match pool {
        // The pool contains shard panics per task and reports them typed;
        // inside the engine a panicking shard means the arrival's answer
        // or refresh cannot be completed, so re-raise as a single panic on
        // the serve path. The serve layer's per-tenant containment catches
        // it there — the pool itself (shared across tenants) stays usable.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::solution::{FacilityId, Solution};
    use omfl_commodity::cost::CostModel;
    use omfl_commodity::{CommodityId, CommoditySet};
    use omfl_metric::line::LineMetric;
    use omfl_metric::{Metric, PointId};
    use omfl_par::TaskPool;
    use std::sync::Arc;

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

    /// Folds an opening at `at` into `idx` through its full distance row.
    fn note_opening(
        idx: &mut FacilityIndex,
        inst: &Instance,
        e: Option<CommodityId>,
        at: PointId,
        fid: FacilityId,
    ) {
        let mut row = vec![0.0; inst.num_points()];
        inst.fill_row(at, &mut row);
        idx.note_opening(e, &row, fid);
    }

    #[test]
    fn empty_index_answers_none() {
        let inst = inst(vec![0.0, 1.0], 3);
        let idx = FacilityIndex::for_instance(&inst);
        assert!(idx.nearest_offering(CommodityId(0), PointId(0)).is_none());
        assert!(idx.nearest_large(PointId(1)).is_none());
        // The small cache of commodity 2 at point 0: flat `e·|M| + p`.
        assert!(idx.small_d[2 * 2].is_infinite());
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
                note_opening(&mut idx, &inst, None, PointId(p), fid);
                larges.push(fid);
            } else {
                note_opening(&mut idx, &inst, Some(e), PointId(p), fid);
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
        note_opening(&mut idx, &inst, None, PointId(1), fid);
        for e in 0..4u16 {
            let (f, d) = idx.nearest_offering(CommodityId(e), PointId(0)).unwrap();
            assert_eq!(f, fid);
            assert_eq!(d, 5.0);
        }
        assert_eq!(idx.nearest_large(PointId(1)).unwrap().1, 0.0);
        assert!(idx.small_d[0].is_infinite(), "no small facility opened");
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

    /// The layout's representative pass and per-block pass against
    /// `Instance::distance`, bit for bit, for every query point and every
    /// block. `isometric` is whether the layout must read its distances
    /// from layout-ordered coordinates (otherwise they are pointwise metric
    /// calls). The t3/t4 argmins over seeded costs and bids must then
    /// answer alike from the query's `fill_row` row and from the layout
    /// passes, with equal statistics, on one shard and on several, and
    /// equal the full scan.
    fn assert_layout_passes_exact(metric: Box<dyn Metric>, isometric: bool, label: &str) {
        let inst = Instance::new(metric, 2, CostModel::power(2, 1.0, 2.0)).unwrap();
        let m = inst.num_points();
        let mut st = 0xB1D5 ^ m as u64;
        let mut draw = |scale: f64| scale * (xorshift(&mut st) % 8) as f64;
        let f_small: Vec<f64> = (0..2 * m).map(|_| 1.0 + draw(0.25)).collect();
        let f_full: Vec<f64> = (0..m).map(|_| 2.0 + draw(0.5)).collect();
        let b_small: Vec<f64> = f_small.iter().map(|&f| f * draw(0.125)).collect();
        let b_large: Vec<f64> = f_full.iter().map(|&f| f * draw(0.125)).collect();
        let mut by_row = OpeningTargetIndex::for_instance(&inst, &f_small, &f_full);
        let rows = |e: usize| (&f_small[e * m..(e + 1) * m], &b_small[e * m..(e + 1) * m]);
        for e in 0..2 {
            let (f_row, b_row) = rows(e);
            by_row.rebuild_small(CommodityId(e as u16), f_row, b_row);
        }
        by_row.rebuild_large(&f_full, &b_large);
        let mut by_layout = by_row.clone();
        let layout = by_row.layout_handle();
        assert_eq!(layout.isometric(), isometric, "{label}");
        let mut rep_d = Vec::new();
        let mut row = vec![0.0; m];
        let mut buf = [0.0; HUGE_BLOCK];
        let bits = |(v, p): (f64, PointId)| (v.to_bits(), p);
        let scan = |f_row: &[f64], b_row: &[f64], row: &[f64]| {
            let (v, p) = scan_argmin(f_row, b_row, row);
            (v.to_bits(), PointId(p))
        };
        for shard_blocks in [SCAN_SHARD_BLOCKS, 3] {
            by_row.set_scan_shard_blocks(shard_blocks);
            by_layout.set_scan_shard_blocks(shard_blocks);
            for q in (0..m as u32).map(PointId) {
                layout.rep_distances(&inst, q, &mut rep_d);
                assert_eq!(rep_d.len(), layout.nblocks());
                for (b, &d) in rep_d.iter().enumerate() {
                    let want = inst.distance(PointId(layout.rep[b]), q);
                    assert_eq!(d.to_bits(), want.to_bits(), "{label}: rep {b}, {q:?}");
                }
                for b in 0..layout.nblocks() {
                    let members = layout.members(b);
                    let dists = layout.member_distances(&inst, b, q, &mut buf);
                    assert_eq!(dists.len(), members.len());
                    for (&p, &d) in members.iter().zip(dists) {
                        let want = inst.distance(PointId(p), q);
                        assert_eq!(d.to_bits(), want.to_bits(), "{label}: p{p}, {q:?}");
                    }
                }
                inst.fill_row(q, &mut row);
                by_row.prepare_query_row(Some(q), &row);
                by_layout.prepare_query_at(Some(q), &rep_d);
                let (from_row, from_layout) =
                    (QueryDistances::Row(&row), QueryDistances::Layout(&inst, q));
                for e in 0..2 {
                    let (f_row, b_row) = rows(e);
                    let e = CommodityId(e as u16);
                    let want = bits(by_row.small_target(e, f_row, b_row, from_row));
                    let got = bits(by_layout.small_target(e, f_row, b_row, from_layout));
                    assert_eq!(got, want, "{label}: t3 {e:?} at {q:?}");
                    assert_eq!(want, scan(f_row, b_row, &row), "{label}: t3 {e:?} at {q:?}");
                }
                let want = bits(by_row.large_target(&f_full, &b_large, from_row));
                let got = bits(by_layout.large_target(&f_full, &b_large, from_layout));
                assert_eq!(got, want, "{label}: t4 at {q:?}");
                assert_eq!(want, scan(&f_full, &b_large, &row), "{label}: t4 at {q:?}");
                assert_eq!(by_layout.stats(), by_row.stats(), "{label}: stats at {q:?}");
            }
        }
        let (skipped, scanned) = by_row.stats();
        assert!(
            skipped > 0 && scanned > 0,
            "{label}: {skipped} skipped, {scanned} scanned"
        );
    }

    #[test]
    fn layout_distance_passes_equal_metric_distances_bitwise() {
        // The layout passes are the only distance source of the
        // block-pass argmins, refresh and shrink walks, so every metric
        // must pass:
        // from the layout-ordered coordinates on L2 clouds (bare, behind
        // `Box<dyn Metric>` and behind `SharedMetric`) and on lines inside
        // their isometry guards, pointwise on the kd-partitioned but
        // non-isometric L1/L∞ clouds, on lines past the magnitude and gap
        // guards, and on trees and graphs. 150 points make ten 16-point
        // blocks, the last one short, so every kernel tail runs.
        use crate::heavy::SharedMetric;
        use omfl_metric::euclidean::{EuclideanMetric, Norm};
        use omfl_metric::graph::GraphMetric;
        use omfl_metric::tree::TreeMetric;
        let n = 150;
        let cloud =
            |dim: usize, norm| EuclideanMetric::new(&awkward_cloud(n, dim, dim as u64), norm);
        for (dim, norm, isometric) in [
            (2, Norm::L2, true),
            (3, Norm::L2, true),
            (2, Norm::L1, false),
            (3, Norm::LInf, false),
        ] {
            let metric = Box::new(cloud(dim, norm).unwrap());
            assert_layout_passes_exact(metric, isometric, &format!("{norm:?} in {dim}-D"));
        }
        let boxed: Box<dyn Metric> = Box::new(cloud(3, Norm::L2).unwrap());
        assert_layout_passes_exact(Box::new(boxed), true, "L2 behind Box<dyn Metric>");
        let shared = SharedMetric(Arc::new(cloud(3, Norm::L2).unwrap()));
        assert_layout_passes_exact(Box::new(shared), true, "L2 behind SharedMetric");

        // Line positions at the cloud's scale have gaps of at least 0.0137
        // and magnitudes near 1e10; scaled up they pass 1e150, scaled down
        // their gaps fall below 2^-511 and the squares go subnormal.
        let positions = |scale: f64| -> Vec<f64> {
            let pts = awkward_cloud(n, 1, 9);
            pts.iter().map(|p| p[0] * scale).collect()
        };
        for (scale, isometric) in [(1.0, true), (1e142, false), (1e-160, false)] {
            let metric = Box::new(LineMetric::new(positions(scale)).unwrap());
            assert_layout_passes_exact(metric, isometric, &format!("line at scale {scale:e}"));
        }

        let mut st = 0x7EE5u64;
        let mut weight = || 0.125 + (xorshift(&mut st) % 97) as f64 * 0.375;
        let parents: Vec<Option<(u32, f64)>> = (0..n as u32)
            .map(|v| (v > 0).then(|| ((v * 7 + 3) % v.max(1), weight())))
            .collect();
        let tree = Box::new(TreeMetric::new(&parents).unwrap());
        assert_layout_passes_exact(tree, false, "tree");
        let mut edges: Vec<(u32, u32, f64)> = (1..n as u32).map(|v| (v - 1, v, weight())).collect();
        edges.extend((0..n as u32).map(|v| (v, (v * 37 + 11) % n as u32, weight())));
        edges.retain(|&(a, b, _)| a != b);
        let graph = Box::new(GraphMetric::from_edges(n, &edges).unwrap());
        assert_layout_passes_exact(graph, false, "graph");
    }

    /// The engine's bounded refresh, replayed by hand: one representative
    /// pass, then the sharded refresh on the `(pool, blocks per shard)`
    /// pair `shards` (inline without a pool). Returns the number of blocks
    /// whose lower bound undercut their maximum, the blocks the refresh
    /// reads, however many there are.
    fn bounded_opening(
        idx: &mut FacilityIndex,
        layout: &SpatialLayout,
        inst: &Instance,
        (e, at, fid): (Option<CommodityId>, PointId, FacilityId),
        shards: (Option<&TaskPool>, usize),
    ) -> usize {
        let mut rep_d = Vec::new();
        layout.rep_distances(inst, at, &mut rep_d);
        let maxima = &idx.block_max[idx.maxima_range(e)];
        let kept = (0..layout.nblocks())
            .filter(|&b| layout.block_dlb(b, &rep_d) < maxima[b])
            .count();
        idx.note_opening_in_shards(inst, e, at, &rep_d, fid, shards);
        kept
    }

    #[test]
    fn bounded_refresh_matches_full_row_refresh_bit_for_bit() {
        // Repeated locations and exact ties (a coarse line, every position
        // shared by several ids), shuffled and coherent relabelings, and a
        // random mix of small and large openings: after every opening the
        // bounded index, stored in layout order, must answer every query
        // exactly like a layout-free one refreshed through full rows, and
        // every block maximum must dominate its members' caches. The
        // bounded passes include ones over every block (first openings,
        // caches at ∞) and ones over few blocks. Each configuration of the
        // sharded refresh keeps an index of its own: no pool and pools of
        // 2 and 7 threads, at shards of 1 block, of 3 (the layout's 16
        // blocks leave a partial last shard, and 250 points a partial last
        // block) and of 128 (one shard, larger than the layout).
        let (m, s) = (250usize, 3usize);
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
        let pools = [None, Some(TaskPool::new(2)), Some(TaskPool::new(7))];
        let configs: Vec<(Option<&TaskPool>, usize)> = pools
            .iter()
            .flat_map(|pool| [1, 3, 128].map(|shard| (pool.as_ref(), shard)))
            .collect();
        let (mut every, mut few) = (0, 0);
        for layout in layouts {
            let nblocks = layout.nblocks();
            assert!(nblocks % 3 != 0 && nblocks < 128, "{nblocks} blocks");
            let mut bounded: Vec<FacilityIndex> = configs
                .iter()
                .map(|_| FacilityIndex::with_layout(m, s, Arc::clone(&layout)))
                .collect();
            let mut reference = FacilityIndex::new(m, s);
            for k in 0..160u32 {
                let at = PointId((xorshift(&mut st) % m as u64) as u32);
                let e = match xorshift(&mut st) % 5 {
                    0 => None,
                    c => Some(CommodityId((c % s as u64) as u16)),
                };
                let fid = FacilityId(k);
                note_opening(&mut reference, &inst, e, at, fid);
                let opening = (e, at, fid);
                let kept: Vec<usize> = bounded
                    .iter_mut()
                    .zip(&configs)
                    .map(|(idx, &config)| bounded_opening(idx, &layout, &inst, opening, config))
                    .collect();
                assert!(kept.iter().all(|&n| n == kept[0]), "kept {kept:?}");
                if kept[0] == nblocks {
                    every += 1;
                } else if kept[0] * 5 <= nblocks {
                    few += 1;
                }
                let bits = |r: Option<(FacilityId, f64)>| r.map(|(f, d)| (f, d.to_bits()));
                for (bounded, &(pool, shard)) in bounded.iter().zip(&configs) {
                    let threads = pool.map_or(1, TaskPool::threads);
                    for p in (0..m as u32).map(PointId) {
                        for c in (0..s as u16).map(CommodityId) {
                            assert_eq!(
                                bits(bounded.nearest_offering(c, p)),
                                bits(reference.nearest_offering(c, p)),
                                "offering {c:?} at {p:?} after opening {k}, {threads} threads, shards of {shard}"
                            );
                        }
                        assert_eq!(
                            bits(bounded.nearest_large(p)),
                            bits(reference.nearest_large(p)),
                            "large at {p:?} after opening {k}, {threads} threads, shards of {shard}"
                        );
                    }
                    for row in (0..s as u16).map(|c| Some(CommodityId(c))).chain([None]) {
                        let maxima = &bounded.block_max[bounded.maxima_range(row)];
                        for (b, &max) in maxima.iter().enumerate() {
                            for slot in layout.slots(b) {
                                let cached = match row {
                                    Some(c) => bounded.small_d[c.index() * m + slot],
                                    None => bounded.large_d[slot],
                                };
                                assert!(
                                    max >= cached,
                                    "block {b} maximum {max} below cache {cached} at slot {slot}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            every > 0 && few > 0,
            "{every} passes over every block, {few} over few"
        );
    }

    #[test]
    fn past_index_buckets_skip_and_sort() {
        let inst = inst(vec![0.0, 10.0, 20.0], 2);
        let mut past = PastIndex::new(Arc::new(SpatialLayout::identity(3)), 2);
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
        // A block-pruned PastIndex must return exactly the same shrink
        // candidates — and clamp exactly the same bucket bounds — as the
        // plain walk over every slot, under an adversarial interleaving of pushes
        // and (mutating) shrink queries over a shuffled relabeling. The
        // dense case pushes at every location; the sparse one pushes at
        // 40 of 4096, so most blocks hold no slot.
        for (m, span, sites) in [(96usize, 50.0, 96usize), (4096, 2000.0, 40)] {
            let s = 2usize;
            let positions: Vec<f64> = (0..m).map(|p| (p as f64 * 7.3) % span).collect();
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
            let mut pruned = PastIndex::new(idx.layout_handle(), s);
            let mut plain = PastIndex::new(Arc::new(SpatialLayout::identity(m)), s);
            let e = CommodityId(1);
            let mut walks = 0u64;
            for step in 0..400usize {
                let at = PointId((xorshift(&mut st) % m as u64) as u32);
                if step % 3 != 2 {
                    let cap = 0.5 + ((xorshift(&mut st) % 16) as f64) * 0.5;
                    let caps = [cap, cap * 0.75];
                    let demands = [CommodityId(0), e];
                    let site = PointId((at.index() % sites * m / sites) as u32);
                    pruned.push_request(step as u32, site, &demands, &caps, cap);
                    plain.push_request(step as u32, site, &demands, &caps, cap);
                } else {
                    let got = pruned.small_shrink_candidates(&inst, e, at);
                    let want = plain.plain_small_shrink_candidates(&inst, e, at);
                    assert_eq!(got, want, "{m}: small candidates diverged at step {step}");
                    let got = pruned.large_shrink_candidates(&inst, at);
                    let want = plain.plain_large_shrink_candidates(&inst, at);
                    assert_eq!(got, want, "{m}: large candidates diverged at step {step}");
                    walks += 2;
                }
            }
            assert_eq!(pruned.slot_loc, plain.slot_loc);
            assert_eq!(pruned.max_cap_e, plain.max_cap_e);
            assert_eq!(pruned.max_cap_any, plain.max_cap_any);
            assert_eq!(pruned.max_cap_total, plain.max_cap_total);
            let (skipped, scanned) = pruned.stats();
            assert!(
                scanned > 0 && skipped > 0,
                "{m}: {skipped} skipped, {scanned} scanned"
            );
            // Every walk accounts for every block, visited or not.
            let nblocks = pruned.block_locs.len() as u64;
            assert_eq!(skipped + scanned, nblocks * walks, "{m}: block count");
            let listed = pruned.block_locs.iter().filter(|b| !b.is_empty()).count();
            if sites < m {
                assert!(
                    pruned.slot_loc.len() <= sites && listed * 4 < pruned.block_locs.len(),
                    "{m}: {listed} of {} blocks hold a slot",
                    pruned.block_locs.len()
                );
            }
        }
    }

    #[test]
    fn past_index_opens_slots_only_at_touched_locations() {
        // A million-point index holds nothing but its zeroed slot table
        // and per-block bounds until the first request arrives.
        let big = PastIndex::new(Arc::new(SpatialLayout::identity(1 << 20)), 8);
        assert_eq!(big.slot_of.len(), 1 << 20);
        assert!(big.slot_loc.is_empty() && big.by_loc.is_empty());
        assert!(big.by_loc_e.is_empty() && big.max_cap_e.is_empty());
        assert!(big.max_cap_any.is_empty() && big.max_cap_total.is_empty());
        assert!(big.commodities_at.is_empty());
        assert!(big.block_locs.iter().all(Vec::is_empty));

        // Pushes at three distinct locations — one of them twice, one
        // request demanding two commodities — open three slots in
        // first-touch order, each with |S| buckets.
        let (m, s) = (64usize, 3usize);
        let inst = inst((0..m).map(|p| p as f64).collect(), s as u16);
        let f_small = vec![1.0; m * s];
        let f_full = vec![3.0; m];
        let layout = OpeningTargetIndex::for_instance(&inst, &f_small, &f_full).layout_handle();
        let mut past = PastIndex::new(Arc::clone(&layout), s);
        let (e0, e1, e2) = (CommodityId(0), CommodityId(1), CommodityId(2));
        past.push_request(0, PointId(40), &[e0], &[1.0], 1.0);
        past.push_request(1, PointId(7), &[e1, e2], &[1.0, 2.0], 2.0);
        past.push_request(2, PointId(40), &[e2], &[0.5], 0.5);
        past.push_request(3, PointId(13), &[e0], &[3.0], 3.0);
        assert_eq!(past.slot_loc, vec![40, 7, 13]);
        assert_eq!((past.by_loc_e.len(), past.max_cap_e.len()), (3 * s, 3 * s));
        assert_eq!(past.by_loc, vec![vec![0, 2], vec![1], vec![3]]);
        assert_eq!(past.commodities_at, vec![vec![0, 2], vec![1, 2], vec![0]]);
        assert_eq!(past.by_loc_e[s + 2], vec![(1, 1)]);
        for (l, &tag) in past.slot_of.iter().enumerate() {
            let want = past.slot_loc.iter().position(|&p| p as usize == l);
            assert_eq!(tag.checked_sub(1).map(|t| t as usize), want, "location {l}");
        }
        for (slot, &l) in past.slot_loc.iter().enumerate() {
            let home = layout.pos[l as usize] as usize / layout.block;
            for (b, list) in past.block_locs.iter().enumerate() {
                let n = list.iter().filter(|&&x| x as usize == slot).count();
                assert_eq!(n, usize::from(b == home), "slot {slot} in block {b}");
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
        let mut past = PastIndex::new(idx.layout_handle(), s);
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

    /// A bid at `p` grew, so its key fell to `key`: min-folds the key into
    /// its block bound (commodity `e`'s row, or the t4 row for `None`),
    /// the bound update [`OpeningTargetIndex::freeze_reinvest`] makes for
    /// every bid it raises.
    fn fold_bumped_key(idx: &mut OpeningTargetIndex, e: Option<CommodityId>, p: usize, key: f64) {
        let bi = idx.layout.block_of(p);
        let bound = match e {
            Some(e) => &mut idx.small[e.index() * idx.nblocks + bi],
            None => &mut idx.large[bi],
        };
        if key < *bound {
            *bound = key;
        }
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
            idx.prepare_query_row(None, &dist_row);
            let got = idx.small_target(e, f_row, &b_row, QueryDistances::Row(&dist_row));
            let want = scan_argmin(f_row, &b_row, &dist_row);
            assert_eq!(
                (got.0.to_bits(), got.1 .0),
                (want.0.to_bits(), want.1),
                "t3 diverged at step {step}"
            );
            let got4 = idx.large_target(&f_full, &b_large, QueryDistances::Row(&dist_row));
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
                fold_bumped_key(&mut idx, Some(e), p, (f_row[p] - b_row[p]).max(0.0));
                b_large[p] += inc;
                fold_bumped_key(&mut idx, None, p, (f_full[p] - b_large[p]).max(0.0));
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
        fold_bumped_key(&mut idx, Some(e), hot, (f_small[hot] - b_row[hot]).max(0.0));
        b_row[hot] = 0.0;
        let dist_row: Vec<f64> = (0..m).map(|p| p as f64 * 0.01).collect();
        idx.prepare_query_row(None, &dist_row);
        let got = idx.small_target(e, &f_small, &b_row, QueryDistances::Row(&dist_row));
        let want = scan_argmin(&f_small, &b_row, &dist_row);
        assert_eq!((got.0.to_bits(), got.1 .0), (want.0.to_bits(), want.1));
        // A rebuild restores tightness and the answer stays exact.
        idx.rebuild_small(e, &f_small, &b_row);
        let got = idx.small_target(e, &f_small, &b_row, QueryDistances::Row(&dist_row));
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
            idx.prepare_query_row(None, &dist_row);
            let got = idx.small_target(e, f_row, &b_row, QueryDistances::Row(&dist_row));
            let want = scan_argmin(f_row, &b_row, &dist_row);
            assert_eq!(
                (got.0.to_bits(), got.1 .0),
                (want.0.to_bits(), want.1),
                "t3 diverged at step {step}"
            );
            let got4 = idx.large_target(&f_full, &b_large, QueryDistances::Row(&dist_row));
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
                fold_bumped_key(&mut idx, Some(e), p, (f_row[p] - b_row[p]).max(0.0));
                b_large[p] += inc;
                fold_bumped_key(&mut idx, None, p, (f_full[p] - b_large[p]).max(0.0));
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
        idx.prepare_query_row(None, &dist_row);
        let e = CommodityId(0);
        let got = idx.small_target(e, &f_small, &b, QueryDistances::Row(&dist_row));
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
                idx.prepare_query_row(None, &dist_row);
                base.prepare_query_row(None, &dist_row);
                for e in 0..s as u16 {
                    let e = CommodityId(e);
                    let f_row = &f_small[e.index() * m..(e.index() + 1) * m];
                    let b_row = &b_small[e.index() * m..(e.index() + 1) * m];
                    let got = idx.small_target(e, f_row, b_row, QueryDistances::Row(&dist_row));
                    let want = base.small_target(e, f_row, b_row, QueryDistances::Row(&dist_row));
                    assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
                }
                let got = idx.large_target(&f_full, &b_large, QueryDistances::Row(&dist_row));
                let want = base.large_target(&f_full, &b_large, QueryDistances::Row(&dist_row));
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
        idx.prepare_query_row(None, &dist);
        let (v, p) = idx.small_target(CommodityId(0), &f_small, &b, QueryDistances::Row(&dist));
        assert_eq!((v, p), (1.0, PointId(0)));
        let (skipped, scanned) = idx.stats();
        assert_eq!(scanned, 1, "only the first block needs scanning");
        assert_eq!(skipped, 3, "all later tying blocks must be pruned");
    }
}
