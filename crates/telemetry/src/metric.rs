//! The lock-free metric primitives: counters, gauges and log-bucket
//! histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically non-decreasing event counter.
///
/// All operations are relaxed atomics: recording never blocks, and a value
/// read in a later snapshot is always ≥ the value read in an earlier one.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level that can move both ways (queue depth, open
/// connections, cache entries).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n` (negative to subtract).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the level outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^3 = 8 log-linear sub-buckets per power of two,
/// bounding the relative quantisation error of percentile extraction at
/// ~1/8 ≈ 12%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// Buckets needed to cover the full `u64` range at [`SUB_BITS`] resolution:
/// the largest index is `(63 - SUB_BITS + 1) * SUB + (SUB - 1)`.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// Maps a value to its bucket index. Values below `SUB` get exact unit
/// buckets; above, the top `SUB_BITS` bits after the leading one select a
/// sub-bucket within the value's power-of-two octave.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
        (((exp - SUB_BITS + 1) as u64) << SUB_BITS) as usize + sub as usize
    }
}

/// The smallest value mapping to bucket `i` (the inverse of
/// [`bucket_index`]).
fn bucket_floor(i: usize) -> u64 {
    if i < SUB as usize {
        i as u64
    } else {
        let group = (i >> SUB_BITS) as u32;
        let sub = (i as u64) & (SUB - 1);
        (SUB + sub) << (group - 1)
    }
}

/// The largest value mapping to bucket `i` — the bucket's inclusive upper
/// bound, reported as `le` in snapshots.
fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1) - 1
    }
}

/// A fixed log-bucket histogram over `u64` values.
///
/// Values are unit-agnostic: the serving stack records latencies in
/// nanoseconds, batch sizes in requests and circuit sizes in nodes through
/// the same type. Recording is three relaxed atomic adds plus one atomic
/// max — no locks, no allocation — so histograms can sit on per-level
/// inference hot paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating above `u64::MAX` ns,
    /// i.e. ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of recorded values (sum of the bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Reads the bucket counts, sum and exact maximum into an immutable
    /// snapshot. The snapshot's `count` is derived from its own bucket
    /// counts, so a snapshot is always internally consistent: percentiles,
    /// totals and bucket counts describe the same set of observations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push(Bucket {
                    le: bucket_bound(i),
                    count: n,
                });
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty histogram bucket: `count` values ≤ `le` (and greater than
/// the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Number of values that landed in this bucket.
    pub count: u64,
}

/// An immutable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact largest recorded value.
    pub max: u64,
    /// Non-empty buckets in ascending `le` order.
    pub buckets: Vec<Bucket>,
}

impl HistogramSnapshot {
    /// Extracts the `p`-th percentile (`0.0 ..= 1.0`): the upper bound of
    /// the bucket holding the rank-`⌈p·count⌉` value, clamped to the exact
    /// maximum. By construction `percentile(a) <= percentile(b)` for
    /// `a <= b`, and `percentile(1.0) == max`. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= rank {
                return bucket.le.min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the recorded values (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Every bucket's floor and bound map back to that bucket, and the
        // value one past the bound starts the next bucket.
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1);
                assert!(bucket_bound(i) < bucket_bound(i + 1));
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for v in [100u64, 1_000, 65_537, 1 << 40, 987_654_321] {
            let i = bucket_index(v);
            let width = bucket_bound(i) - bucket_floor(i) + 1;
            assert!(
                (width as f64) <= (v as f64) / 8.0 + 1.0,
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn histogram_records_count_sum_max() {
        let h = Histogram::new();
        for v in [3u64, 5, 5, 1_000, 40_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 41_013);
        assert_eq!(snap.max, 40_000);
        assert_eq!(h.count(), 5);
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 5);
    }

    #[test]
    fn percentiles_are_monotone_and_end_at_exact_max() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 17);
        }
        let snap = h.snapshot();
        let p50 = snap.percentile(0.50);
        let p90 = snap.percentile(0.90);
        let p99 = snap.percentile(0.99);
        let p100 = snap.percentile(1.0);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p100);
        assert_eq!(p100, 17_000, "p100 is the exact maximum");
        // Quantisation error stays within one sub-bucket (~12.5%).
        assert!((p50 as f64 - 8_500.0).abs() / 8_500.0 < 0.13, "p50 = {p50}");
        assert!(
            (p99 as f64 - 16_830.0).abs() / 16_830.0 < 0.13,
            "p99 = {p99}"
        );
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 997));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        assert_eq!(h.snapshot().count, 80_000);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-5);
        assert_eq!(g.get(), -4);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn duration_recording_uses_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 3_000);
    }
}
