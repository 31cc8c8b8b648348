//! The engine's work counters, read through `PdOmflp`'s public stat
//! accessors. This is the only file that knows those accessors: when the
//! engine exposes uniform counters instead, only [`EngineCounters::read`]
//! changes.

use omfl_core::pd::PdOmflp;

/// Cumulative engine counters at one instant (or a delta between two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    values: [u64; NAMES.len()],
}

/// Report names of the counters, in storage order.
pub const NAMES: [&str; 9] = [
    "core.index.target_blocks_skipped",
    "core.index.target_blocks_scanned",
    "core.index.shrink_blocks_skipped",
    "core.index.shrink_blocks_scanned",
    "core.index.facility_openings",
    "metric.blocked.hits",
    "metric.blocked.misses",
    "metric.blocked.evictions",
    "metric.blocked.promotions",
];

impl EngineCounters {
    /// Reads every counter from the engine. Counters an engine
    /// configuration does not keep (no target index, no row cache) read 0.
    pub fn read(pd: &PdOmflp<'_>) -> Self {
        let (t_skipped, t_scanned) = pd.opening_target_stats().unwrap_or((0, 0));
        let (s_skipped, s_scanned) = pd.past_index_stats();
        let (hits, misses, evictions) = pd.distance_cache_stats().unwrap_or((0, 0, 0));
        let promotions = pd.row_fallback_promotions().unwrap_or(0);
        let openings = pd.facility_index().openings() as u64;
        Self {
            values: [
                t_skipped, t_scanned, s_skipped, s_scanned, openings, hits, misses, evictions,
                promotions,
            ],
        }
    }

    /// Field-wise `self - before`.
    pub fn since(self, before: Self) -> Self {
        let mut values = self.values;
        for (v, b) in values.iter_mut().zip(before.values) {
            *v -= b;
        }
        Self { values }
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, other: Self) {
        for (v, o) in self.values.iter_mut().zip(other.values) {
            *v += o;
        }
    }

    /// `(name, value)` pairs in [`NAMES`] order.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        NAMES.iter().copied().zip(self.values.iter().copied())
    }

    /// The value of counter `name` (one of [`NAMES`]).
    pub fn get(&self, name: &str) -> u64 {
        let i = NAMES
            .iter()
            .position(|n| *n == name)
            .expect("known counter name");
        self.values[i]
    }
}
