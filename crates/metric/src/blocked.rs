//! Blocked distance caching: a fixed-budget LRU over whole metric rows.
//!
//! Metrics that store their closure (graphs, dense matrices) lend their
//! rows in place through [`crate::Metric::row`]; nothing here is needed for
//! them. The others compute each distance — Euclidean norms, line gaps,
//! tree paths — and a full `|M|²` matrix of them stops being affordable
//! around a few thousand points (2 GiB at 16384, 80 GiB at 100k).
//! [`BlockedRowCache`] keeps the *row* locality of such a matrix under a
//! fixed memory budget: distance rows (`d(·, q)` for one anchor point `q`,
//! contiguous in the other point) are materialized on first use via
//! [`crate::Metric::fill_row`] and recycled least-recently-used when the
//! budget is exhausted.
//!
//! Request streams with any locality — hotspots, bursts, drifting modes, the
//! Zipf location mixes of the workload catalog — touch a small working set
//! of anchor rows, so reads hit cached contiguous memory instead of paying a
//! virtual metric call per distance.
//!
//! # Bit-identity
//!
//! Cached entries are the **verbatim** results of the metric's own
//! `distance(PointId(p), q)` calls (that is the [`crate::Metric::fill_row`]
//! contract), and eviction plus recomputation reproduces them exactly
//! (metrics are pure functions of the point pair). Reading through the cache
//! is therefore bit-identical to calling the metric — the property the PD
//! engine's differential suite pins down.
//!
//! # Memory envelope
//!
//! `capacity_rows = clamp(budget_bytes / (8·|M|), 1, |M|)`, total cached
//! float storage at most `budget_bytes` (one row may exceed the budget on
//! purpose: caching degrades gracefully to "the most recent row" rather
//! than disabling itself). The map and stamps add `O(capacity_rows)` words.
//! The degenerate `|M| = 0` metric has no rows: capacity is 0 and reads
//! return the empty row instead of dividing by zero.

use std::collections::HashMap;

/// Default per-cache memory budget for cached rows: 64 MiB. At 4096 points
/// (32 KiB rows) that is a 2048-row working set — half the rows, recycled
/// LRU; at 100k points it holds an ~80-row working set.
pub const DEFAULT_ROW_CACHE_BYTES: usize = 64 << 20;

/// Fixed-budget LRU cache of metric distance rows (see module docs).
#[derive(Debug, Clone)]
pub struct BlockedRowCache {
    /// Points per row (`|M|`).
    points: usize,
    /// Maximum simultaneously cached rows.
    capacity: usize,
    /// Row storage, slot `i` at `i·points..(i+1)·points`; grown one slot at
    /// a time so an oversized budget never allocates up front.
    data: Vec<f64>,
    /// Anchor point of each occupied slot.
    slot_loc: Vec<u32>,
    /// LRU stamp of each occupied slot.
    slot_tick: Vec<u64>,
    /// Anchor point → slot.
    map: HashMap<u32, u32>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BlockedRowCache {
    /// A cache for rows of `points` entries under `budget_bytes` of row
    /// storage. At least one row is always cacheable — except in the
    /// degenerate zero-point metric, where there are no rows at all: the
    /// cache comes up with capacity 0 and every read returns the empty row
    /// (serve tenants may construct their engine before any location
    /// exists, and must not panic here).
    pub fn new(points: usize, budget_bytes: usize) -> Self {
        let capacity = if points == 0 {
            0
        } else {
            let row_bytes = points * std::mem::size_of::<f64>();
            (budget_bytes / row_bytes).clamp(1, points)
        };
        Self {
            points,
            capacity,
            data: Vec::new(),
            slot_loc: Vec::new(),
            slot_tick: Vec::new(),
            map: HashMap::with_capacity(capacity.min(4096)),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A cache with the [`DEFAULT_ROW_CACHE_BYTES`] budget.
    pub fn with_default_budget(points: usize) -> Self {
        Self::new(points, DEFAULT_ROW_CACHE_BYTES)
    }

    /// Points per row.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Maximum simultaneously cached rows under the budget.
    pub fn capacity_rows(&self) -> usize {
        self.capacity
    }

    /// Currently cached rows.
    pub fn cached_rows(&self) -> usize {
        self.slot_loc.len()
    }

    /// `(hits, misses, evictions)` since construction. A hit is a read of
    /// a cached row; a miss pays a fill.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// The cached row for anchor `loc`, if present — does not touch LRU
    /// state, so point probes between row fills stay cheap and pure.
    #[inline]
    pub fn cached_row(&self, loc: u32) -> Option<&[f64]> {
        self.map.get(&loc).map(|&slot| {
            let start = slot as usize * self.points;
            &self.data[start..start + self.points]
        })
    }

    /// Grow-or-evict slot acquisition for a missed anchor (`tick` already
    /// advanced, miss already counted). Returns the slot index; the caller
    /// fills the data.
    fn acquire_slot(&mut self, loc: u32) -> usize {
        let slot = if self.slot_loc.len() < self.capacity {
            // Grow a fresh slot.
            self.data.resize(self.data.len() + self.points, 0.0);
            self.slot_loc.push(loc);
            self.slot_tick.push(self.tick);
            self.slot_loc.len() - 1
        } else {
            // Evict the least recently used slot. The linear min-scan is
            // O(capacity_rows) per miss, but a miss already pays an
            // O(points) row fill and capacity_rows ≤ points, so the fill
            // dominates; an intrusive LRU list would only matter for tiny
            // rows.
            let victim = self
                .slot_tick
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i)
                .expect("capacity >= 1");
            self.evictions += 1;
            self.map.remove(&self.slot_loc[victim]);
            self.slot_loc[victim] = loc;
            self.slot_tick[victim] = self.tick;
            victim
        };
        self.map.insert(loc, slot as u32);
        slot
    }

    /// The row for anchor `loc`, filling it via `fill` on a miss (the
    /// callback receives the row buffer and must write every entry with the
    /// verbatim metric results). Returns the cached slice.
    pub fn row_with(&mut self, loc: u32, fill: impl FnOnce(&mut [f64])) -> &[f64] {
        if self.points == 0 {
            // Zero-point metric: the only row is the empty row, and caching
            // it would require a slot the capacity-0 cache does not have.
            return &[];
        }
        self.tick += 1;
        let slot = match self.map.get(&loc) {
            Some(&slot) => {
                let slot = slot as usize;
                self.hits += 1;
                self.slot_tick[slot] = self.tick;
                slot
            }
            None => {
                self.misses += 1;
                let slot = self.acquire_slot(loc);
                let start = slot * self.points;
                fill(&mut self.data[start..start + self.points]);
                slot
            }
        };
        let start = slot * self.points;
        &self.data[start..start + self.points]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineMetric;
    use crate::{Metric, PointId};

    fn fill_from(m: &LineMetric, q: u32) -> impl Fn(&mut [f64]) + '_ {
        move |out| m.fill_row(PointId(q), out)
    }

    #[test]
    fn capacity_respects_budget_and_floors_at_one_row() {
        let c = BlockedRowCache::new(1024, 1024 * 8 * 3);
        assert_eq!(c.capacity_rows(), 3);
        let c = BlockedRowCache::new(1024, 0);
        assert_eq!(c.capacity_rows(), 1);
        // Never more slots than rows exist.
        let c = BlockedRowCache::new(4, usize::MAX / 16);
        assert_eq!(c.capacity_rows(), 4);
    }

    #[test]
    fn zero_points_yields_an_empty_capacity_cache() {
        // Serve tenants can build their engine before any location exists;
        // the degenerate metric must not divide by zero or panic on reads.
        let mut c = BlockedRowCache::new(0, DEFAULT_ROW_CACHE_BYTES);
        assert_eq!(c.points(), 0);
        assert_eq!(c.capacity_rows(), 0);
        assert_eq!(c.cached_rows(), 0);
        assert!(c.cached_row(0).is_none());
        let row = c.row_with(0, |_| panic!("no row to fill"));
        assert!(row.is_empty());
        assert_eq!(c.stats(), (0, 0, 0));
    }

    #[test]
    fn rows_match_the_metric_bit_for_bit() {
        let m = LineMetric::new(vec![0.0, 1.5, 4.0, 9.5]).unwrap();
        let mut c = BlockedRowCache::new(4, 2 * 4 * 8);
        for q in [0u32, 3, 1, 3, 0] {
            let row = c.row_with(q, fill_from(&m, q)).to_vec();
            for (p, &d) in row.iter().enumerate() {
                assert_eq!(
                    d.to_bits(),
                    m.distance(PointId(p as u32), PointId(q)).to_bits(),
                    "row {q} entry {p}"
                );
            }
        }
    }

    #[test]
    fn lru_evicts_the_stalest_row() {
        let m = LineMetric::new(vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let mut c = BlockedRowCache::new(4, 2 * 4 * 8); // two slots
        c.row_with(0, fill_from(&m, 0));
        c.row_with(1, fill_from(&m, 1));
        c.row_with(0, fill_from(&m, 0)); // refresh 0 → 1 is now LRU
        c.row_with(2, fill_from(&m, 2)); // evicts 1
        assert!(c.cached_row(0).is_some());
        assert!(c.cached_row(1).is_none());
        assert!(c.cached_row(2).is_some());
        let (hits, misses, evictions) = c.stats();
        assert_eq!((hits, misses, evictions), (1, 3, 1));
    }

    #[test]
    fn refill_after_eviction_reproduces_the_row() {
        let m = LineMetric::new(vec![0.0, 2.0, 7.0]).unwrap();
        let mut c = BlockedRowCache::new(3, 8 * 3); // single slot
        let before = c.row_with(1, fill_from(&m, 1)).to_vec();
        c.row_with(2, fill_from(&m, 2)); // evicts row 1
        let after = c.row_with(1, fill_from(&m, 1)).to_vec();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&before), bits(&after));
    }
}
