//! Log-scale latency histogram for per-arrival serve times.
//!
//! Power-of-two nanosecond buckets: bucket `b` covers `[2^(b-1), 2^b)` ns
//! (bucket 0 is `0..1` ns; bucket 63 absorbs everything from `2^62` up, so
//! its reported bound is `u64::MAX` rather than `2^63` — the only bucket
//! whose upper edge is not a power of two, because samples up to
//! `u64::MAX` land in it). 64 buckets cover every representable `u64`
//! duration, recording is two instructions, and merging shard-local
//! histograms is a vector add — so the serve hot loop pays almost nothing
//! for p50/p99 output. Quantiles are reported as the upper bound of the
//! containing bucket, i.e. with a factor-2 resolution, which is plenty for
//! a latency cell whose interesting failures are order-of-magnitude
//! regressions.

const BUCKETS: usize = 64;

/// A fixed-size log2 histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
        }
    }

    /// Records one latency sample in nanoseconds. Counters saturate instead
    /// of wrapping: a histogram fed for years (or merged from hostile
    /// inputs) degrades to a pinned count, never to a debug-build overflow
    /// panic on the serve hot path.
    pub fn record(&mut self, ns: u64) {
        let b = (u64::BITS - ns.leading_zeros()) as usize; // 0 -> 0, 1 -> 1, ...
        let slot = &mut self.buckets[b.min(BUCKETS - 1)];
        *slot = slot.saturating_add(1);
        self.count = self.count.saturating_add(1);
    }

    /// Folds another histogram (e.g. a shard's) into this one. Saturating,
    /// like [`record`](Self::record).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound in nanoseconds
    /// of the bucket containing it; 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // The top bucket is saturated: `record` clamps every sample
                // with 63+ significant bits into it, so the only honest
                // upper bound is `u64::MAX` — `1 << 63` would sit *below* a
                // `u64::MAX` sample.
                return match b {
                    0 => 1,
                    63 => u64::MAX,
                    b => 1u64 << b,
                };
            }
        }
        u64::MAX
    }

    /// Median latency upper bound in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile latency upper bound in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
    }

    #[test]
    fn quantiles_bound_their_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64, 128) -> upper bound 128
        }
        h.record(1_000_000); // bucket upper bound 2^20
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50_ns(), 128);
        assert_eq!(h.quantile_ns(0.98), 128);
        assert_eq!(h.p99_ns(), 128, "the 99th of 100 samples is still fast");
        assert_eq!(h.quantile_ns(1.0), 1 << 20);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for (i, ns) in [0u64, 1, 7, 300, 5_000, u64::MAX].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*ns);
            whole.record(*ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_ns(q), whole.quantile_ns(q));
        }
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile_ns(0.0), 1);
        // The top bucket's bound must not undercut its own samples: a
        // `u64::MAX` latency needs a bound of `u64::MAX`, not `1 << 63`.
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn saturated_counters_pin_instead_of_wrapping() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        let mut b = a.clone();
        // Drive both to the brink by self-merging doublings, then collide.
        for _ in 0..63 {
            let snap = a.clone();
            a.merge(&snap);
        }
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.count(), u64::MAX, "count pins at the ceiling");
        assert_eq!(b.p50_ns(), 128, "quantiles stay sane at saturation");
        // Two buckets at 2^63 each: the quantile's running sum must pin
        // too, not overflow past the top sample's bucket.
        let mut two = LatencyHistogram::new();
        two.record(100);
        two.record(1_000_000);
        for _ in 0..63 {
            let snap = two.clone();
            two.merge(&snap);
        }
        assert_eq!(two.quantile_ns(1.0), 1 << 20, "the slowest sample's bucket");
    }

    #[test]
    fn top_bucket_bound_covers_its_whole_range() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64 << 62, (1 << 63) - 1, 1 << 63, u64::MAX] {
            h.record(ns);
            assert!(
                h.quantile_ns(1.0) >= ns,
                "quantile bound {} fell below recorded sample {ns}",
                h.quantile_ns(1.0)
            );
        }
    }
}
