//! Log-linear bucketed histogram for latency-style values.
//!
//! The histogram covers the value range `[1, u64::MAX]` with buckets that
//! are linear within each power-of-two band (`SUB_BUCKETS` linear buckets
//! per band). This is the same scheme HdrHistogram-style recorders use: a
//! bounded relative error (here ≤ 1/32 ≈ 3%) with O(1) record cost and no
//! allocation after construction.
//!
//! Values are untyped `u64`s; in this workspace they are almost always
//! nanoseconds of simulated device latency.

/// Number of linear sub-buckets per power-of-two band. Must be a power of
/// two. 32 gives ≤ ~3% relative quantile error, plenty for p99 shapes.
const SUB_BUCKETS: usize = 32;
const SUB_BUCKET_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Bands for values up to 2^63.
const BANDS: usize = 64;

/// A log-linear histogram with percentile queries.
///
/// # Examples
///
/// ```
/// use fdpcache_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((450..=560).contains(&p50), "p50 was {p50}");
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; BANDS * SUB_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Index of the bucket holding `value`. Values of 0 are clamped to 1.
    fn bucket_index(value: u64) -> usize {
        let v = value.max(1);
        let band = 63 - v.leading_zeros() as usize; // floor(log2(v))
        if band < SUB_BUCKET_BITS as usize {
            // Small values: one bucket per integer value.
            v as usize
        } else {
            let shift = band as u32 - SUB_BUCKET_BITS;
            let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
            (band - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS + sub
        }
    }

    /// Representative (lower-bound) value for bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            idx as u64
        } else {
            let band = idx / SUB_BUCKETS - 1 + SUB_BUCKET_BITS as usize;
            let sub = (idx % SUB_BUCKETS) as u64;
            let shift = band as u32 - SUB_BUCKET_BITS;
            ((1u64 << SUB_BUCKET_BITS) | sub) << shift
        }
    }

    /// Records a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at the given percentile (0.0–100.0).
    ///
    /// Returns the representative value of the bucket containing the
    /// requested rank; the exact `max()` is returned for p100. Returns 0
    /// for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median value (p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile value.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile value.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded values.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    /// Out-of-range and NaN ranks on an empty histogram read 0, and two
    /// samples rank onto themselves without extrapolating past `max()`.
    #[test]
    fn low_sample_percentiles_are_sane() {
        let h = Histogram::new();
        for p in [-1.0, 250.0, f64::NAN] {
            assert_eq!(h.percentile(p), 0, "empty histogram at {p}");
        }
        let mut h = Histogram::new();
        h.record(10);
        h.record(1_000);
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.percentile(50.0), 10);
        assert!(h.percentile(99.0) <= h.max());
        assert_eq!(h.percentile(100.0), 1_000);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn zero_is_clamped() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v.max(1));
        }
        // Values below SUB_BUCKETS each get their own bucket.
        assert_eq!(h.percentile(100.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = (p / 100.0 * 100_000.0) as u64;
            let got = h.percentile(p);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.04, "p{p}: got {got}, exact {exact}, err {err}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(99.0) >= u64::MAX / 2);
    }

    #[test]
    fn bucket_index_monotone_in_value() {
        let mut last = 0usize;
        for v in 1..100_000u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "bucket index regressed at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_value_lower_bounds_members() {
        for v in [1u64, 7, 31, 32, 33, 100, 1000, 123_456, 1 << 40] {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            // Representative is the bucket's lower bound: at or below v,
            // and within one sub-bucket width of it.
            assert!(rep <= v, "v={v} rep={rep}");
            let rel = (v as f64 - rep as f64) / v as f64;
            assert!(rel <= 1.0 / SUB_BUCKETS as f64 + f64::EPSILON, "v={v} rep={rep}");
        }
    }
}
