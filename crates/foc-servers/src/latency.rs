//! Log-bucket latency histograms for farm-scale tail accounting.
//!
//! The farm keeps every per-request latency during a run (exact
//! p50/p99/p99.9 in `FarmStats` come from those vectors), but the tail
//! split between service time and restart overhead (the §4.3.2
//! process-management cost) needs a shape, not a list. [`LatencyHist`]
//! is the standard HdrHistogram-style compromise: power-of-two
//! buckets, O(1) recording, exact counts, quantiles resolved to bucket
//! upper bounds. Two readers depend on that shape: the farm test
//! `tail_attribution_splits_restart_overhead_from_service` holds each
//! run's histogram quantiles at or above the exact percentiles, and the
//! connection-level SLO ([`crate::conn::slo_within_basis_points`])
//! counts requests by bucket against the median. Everything is integer arithmetic, so histograms
//! participate in the farm's determinism contract (`Eq`, thread- and
//! slice-invariant).

/// Number of power-of-two buckets: bucket `b` covers `[2^(b-1), 2^b)`
/// virtual cycles (bucket 0 holds exact zeros), which spans the full
/// `u64` range.
pub const BUCKETS: usize = 65;

/// A log-bucket histogram of virtual-cycle values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; BUCKETS],
    count: u64,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
        }
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist::default()
    }

    /// Bucket index of a value.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (the value a quantile resolves
    /// to).
    #[inline]
    fn bucket_top(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, saturating at `u64::MAX`. Virtual-cycle
    /// sums at connection scale (100k+ streams merged into one
    /// histogram) can exceed `u64`; a saturated total reads as "at
    /// least this much" instead of wrapping to a silently small number.
    /// Counts and bucket shapes are unaffected by saturation.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds another histogram into this one. The value sum saturates
    /// like [`LatencyHist::record`]'s (see [`LatencyHist::total`]).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
    }

    /// The `num/den` quantile, resolved to its bucket's upper bound
    /// (e.g. `quantile(999, 1000)` for p99.9). Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile {num}/{den} out of range");
        if self.count == 0 {
            return 0;
        }
        // Rank of the quantile observation (1-based, ceiling), so
        // quantile(1, 1) is the max and quantile(1, 2) the median's
        // upper bucket. The product is taken in u128: `count * num`
        // overflows u64 once count exceeds `u64::MAX / num` — at
        // connection-scale counts p99.9's num = 999 reaches that — and
        // the wrapped rank silently selects a far-too-low bucket in
        // release builds. The quotient is `<= count`, so it fits u64.
        let rank =
            ((u128::from(self.count) * u128::from(num)).div_ceil(u128::from(den)) as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_top(b);
            }
        }
        Self::bucket_top(BUCKETS - 1)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (Self::bucket_top(b), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = LatencyHist::new();
        for v in [0, 1, 2, 3, 4, 1000, 1024, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.total(), 1 + 2 + 3 + 4 + 1000 + 1024 + (1u64 << 40));
        assert_eq!(h.nonzero_buckets().iter().map(|&(_, n)| n).sum::<u64>(), 8);
    }

    #[test]
    fn quantiles_resolve_to_bucket_tops() {
        let mut h = LatencyHist::new();
        // 99 fast requests (~100 cycles), one slow (~1M cycles).
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(1, 2), 127, "p50 in the [64,128) bucket");
        assert_eq!(h.quantile(99, 100), 127, "p99 rank 99 is still fast");
        assert_eq!(
            h.quantile(999, 1000),
            (1u64 << 20) - 1,
            "p99.9 is the outlier"
        );
        assert_eq!(h.quantile(1, 1), (1u64 << 20) - 1, "max");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHist::new();
        assert_eq!(h.quantile(1, 2), 0);
        assert_eq!(h.count(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        for v in [5u64, 900, 33] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 12_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn quantile_rank_survives_counts_past_the_u64_product_boundary() {
        // Regression: the rank used to be computed as `count * num` in
        // u64, overflowing once `count > u64::MAX / num` — for p99.9
        // (num = 999) that is ~1.8e16, reachable by merged
        // connection-scale histograms. Build such a count by repeated
        // self-merge doubling (60 doublings of one record = 2^60
        // observations, past the old boundary) and check the quantile
        // still resolves to the single populated bucket.
        let mut h = LatencyHist::new();
        h.record(100);
        for _ in 0..60 {
            let snapshot = h.clone();
            h.merge(&snapshot);
        }
        assert_eq!(h.count(), 1u64 << 60);
        assert!(h.count() > u64::MAX / 999, "count must cross the boundary");
        assert_eq!(h.quantile(999, 1000), 127, "p99.9 of an all-100 set");
        assert_eq!(h.quantile(1, 1), 127, "max is overflow-safe too");
        assert_eq!(h.quantile(1, 2), 127);
    }

    #[test]
    fn total_saturates_instead_of_wrapping() {
        // `record` saturation: two near-max values would wrap to a tiny
        // sum under unchecked +=.
        let mut h = LatencyHist::new();
        h.record(u64::MAX - 5);
        h.record(1000);
        assert_eq!(h.total(), u64::MAX, "record must saturate");
        assert_eq!(h.count(), 2, "saturation never loses observations");
        // `merge` saturation: folding two large-total histograms pins at
        // the ceiling instead of wrapping.
        let mut a = LatencyHist::new();
        a.record(u64::MAX - 1);
        let mut b = LatencyHist::new();
        b.record(u64::MAX - 2);
        a.merge(&b);
        assert_eq!(a.total(), u64::MAX, "merge must saturate");
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn zero_is_its_own_bucket() {
        let mut h = LatencyHist::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1)]);
    }
}
