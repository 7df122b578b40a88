//! Reading the program's telemetry registry *as a delta over a phase*: the
//! registry is cumulative since server start, the benchmark wants what
//! happened between two snapshots.

use deepgate::telemetry::{HistogramSnapshot, Snapshot};

/// Two registry snapshots bracketing a phase.
pub struct Delta<'a> {
    /// Snapshot taken before the phase.
    pub before: &'a Snapshot,
    /// Snapshot taken after it.
    pub after: &'a Snapshot,
}

/// `(lower edge, upper edge, values recorded during the phase)`.
type PhaseBucket = (f64, f64, u64);

/// A series the benchmark wanted is gone from the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingSeries(pub String);

impl std::fmt::Display for MissingSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry series `{}` no longer exists", self.0)
    }
}

impl Delta<'_> {
    /// Increase of a counter over the phase.
    pub fn counter(&self, name: &str) -> Result<f64, MissingSeries> {
        match (
            self.before.counters.get(name),
            self.after.counters.get(name),
        ) {
            (Some(b), Some(a)) => Ok(a.saturating_sub(*b) as f64),
            _ => Err(MissingSeries(name.to_string())),
        }
    }

    /// Level of a gauge after the phase.
    pub fn gauge(&self, name: &str) -> Result<f64, MissingSeries> {
        self.after
            .gauges
            .get(name)
            .map(|v| *v as f64)
            .ok_or_else(|| MissingSeries(name.to_string()))
    }

    /// The values a histogram recorded during the phase, as `(lower bound,
    /// upper bound, count)` per bucket, plus their sum.
    fn histogram(&self, name: &str) -> Result<(Vec<PhaseBucket>, f64), MissingSeries> {
        let missing = || MissingSeries(name.to_string());
        let after = self.after.histograms.get(name).ok_or_else(missing)?;
        let empty = HistogramSnapshot::default();
        let before = self.before.histograms.get(name).unwrap_or(&empty);
        let buckets = after
            .buckets
            .iter()
            .filter_map(|bucket| {
                let earlier = before
                    .buckets
                    .iter()
                    .find(|b| b.le == bucket.le)
                    .map_or(0, |b| b.count);
                let count = bucket.count.saturating_sub(earlier);
                (count > 0).then(|| (bucket_floor(bucket.le), bucket.le as f64, count))
            })
            .collect();
        Ok((buckets, after.sum.saturating_sub(before.sum) as f64))
    }

    /// Sum of the values a histogram recorded during the phase.
    pub fn histogram_sum(&self, name: &str) -> Result<f64, MissingSeries> {
        self.histogram(name).map(|(_, sum)| sum)
    }

    /// Number of values a histogram recorded during the phase.
    pub fn histogram_count(&self, name: &str) -> Result<f64, MissingSeries> {
        self.histogram(name)
            .map(|(buckets, _)| buckets.iter().map(|b| b.2).sum::<u64>() as f64)
    }

    /// The `p`-quantile of the values a histogram recorded during the
    /// phase, interpolated linearly inside the bucket that holds it (the
    /// registry's own percentile returns the bucket's upper bound, which
    /// moves in 12 % steps). 0 when nothing was recorded.
    pub fn histogram_percentile(&self, name: &str, p: f64) -> Result<f64, MissingSeries> {
        let (buckets, _) = self.histogram(name)?;
        let total: u64 = buckets.iter().map(|b| b.2).sum();
        if total == 0 {
            return Ok(0.0);
        }
        let rank = p.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0.0;
        for (lo, hi, count) in &buckets {
            let count = *count as f64;
            if seen + count >= rank {
                return Ok(lo + (hi - lo) * ((rank - seen) / count).clamp(0.0, 1.0));
            }
            seen += count;
        }
        Ok(buckets.last().map_or(0.0, |b| b.1))
    }
}

/// Lower edge of the registry's log bucket whose inclusive upper bound is
/// `le`: eight sub-buckets per octave, unit buckets below 8 (the layout
/// `deepgate-telemetry` documents).
fn bucket_floor(le: u64) -> f64 {
    if le < 8 {
        return le as f64;
    }
    let next_floor = le as f64 + 1.0;
    let octave = (le as f64).log2().floor();
    next_floor - 2f64.powf(octave - 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate::telemetry::Registry;

    #[test]
    fn deltas_see_only_what_the_phase_recorded() {
        let registry = Registry::new();
        let counter = registry.counter("requests");
        let histogram = registry.histogram("latency_ns");
        counter.add(5);
        for _ in 0..100 {
            histogram.record(1_000_000);
        }
        let before = registry.snapshot();
        counter.add(7);
        for _ in 0..50 {
            histogram.record(1_000);
        }
        let after = registry.snapshot();
        let delta = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(delta.counter("requests"), Ok(7.0));
        assert_eq!(delta.histogram_count("latency_ns"), Ok(50.0));
        assert_eq!(delta.histogram_sum("latency_ns"), Ok(50_000.0));
        // The phase's median is near 1 µs, not near the earlier 1 ms.
        let p50 = delta
            .histogram_percentile("latency_ns", 0.5)
            .expect("series exists");
        assert!((900.0..=1_100.0).contains(&p50), "p50 {p50}");
        assert_eq!(
            delta.counter("gone"),
            Err(MissingSeries("gone".to_string()))
        );
        assert!(delta.histogram_percentile("gone", 0.5).is_err());
    }

    #[test]
    fn bucket_floor_inverts_the_registry_layout() {
        // 8 sub-buckets per octave: [8,8], [9,9] … [16,17], [18,19] …
        assert_eq!(bucket_floor(3), 3.0);
        assert_eq!(bucket_floor(8), 8.0);
        assert_eq!(bucket_floor(17), 16.0);
        assert_eq!(bucket_floor(1023), 960.0);
    }
}
