//! Lightweight service metrics: decision-latency histograms and
//! monotonically increasing event counters. Promoted out of
//! `serve::metrics` into the shared observability layer (the serve module
//! re-exports them unchanged).
//!
//! The serve layer's numeric *outputs* (width decisions, degraded events)
//! are deterministic and gated bitwise; its *metrics* measure the wall
//! clock and are therefore explicitly outside every identity gate. The
//! histogram keeps fixed log-spaced buckets (factor 2 per bucket, 1 µs
//! floor), so recording is a counter bump and quantile queries never
//! allocate.

/// Seconds spanned by the first histogram bucket (everything ≤ 1 µs).
const BASE_SECONDS: f64 = 1e-6;

/// Number of factor-2 buckets: `1 µs · 2^47` ≈ 1.6e8 s, far beyond any
/// decision latency; later samples land in the last (open-ended) bucket.
const BUCKETS: usize = 48;

/// A fixed-size log-spaced latency histogram (factor-2 buckets, 1 µs
/// floor) with exact count/sum/min/max side channels.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_seconds: f64,
    min_seconds: f64,
    max_seconds: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum_seconds: 0.0,
            min_seconds: f64::INFINITY,
            max_seconds: 0.0,
        }
    }

    /// The bucket index a latency falls into: bucket `i` holds samples in
    /// `(BASE·2^(i−1), BASE·2^i]` (bucket 0 holds everything ≤ `BASE`;
    /// [`record`](Self::record) sanitizes samples, so `seconds` is always
    /// finite and non-negative here).
    fn bucket(seconds: f64) -> usize {
        if seconds <= BASE_SECONDS {
            return 0;
        }
        let i = (seconds / BASE_SECONDS).log2().ceil() as usize;
        i.min(BUCKETS - 1)
    }

    /// A bucket's upper bound in seconds.
    fn bucket_upper(i: usize) -> f64 {
        BASE_SECONDS * (1u64 << i.min(52)) as f64
    }

    /// Records one latency sample. Non-finite or negative samples count
    /// into the first bucket (they indicate a clock anomaly, not a fast
    /// decision, but dropping them would skew the count).
    pub fn record(&mut self, seconds: f64) {
        let s = if seconds.is_finite() && seconds >= 0.0 {
            seconds
        } else {
            0.0
        };
        self.counts[Self::bucket(s)] += 1;
        self.count += 1;
        self.sum_seconds += s;
        self.min_seconds = self.min_seconds.min(s);
        self.max_seconds = self.max_seconds.max(s);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in seconds (0 when empty).
    #[must_use]
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_seconds / self.count as f64
        }
    }

    /// Smallest recorded sample in seconds (0 when empty).
    #[must_use]
    pub fn min_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_seconds
        }
    }

    /// Largest recorded sample in seconds (0 when empty).
    #[must_use]
    pub fn max_seconds(&self) -> f64 {
        self.max_seconds
    }

    /// The latency at quantile `q` ∈ [0, 1], linearly interpolated within
    /// the bucket holding the `⌈q·count⌉`-th smallest sample (a plain
    /// bucket upper bound would overestimate interior quantiles by up to
    /// the factor-2 bucket width), clamped to the exact observed
    /// [min, max] so single-sample histograms report the sample itself.
    /// Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if seen >= target {
                let lower = if i == 0 {
                    0.0
                } else {
                    Self::bucket_upper(i - 1)
                };
                let upper = Self::bucket_upper(i);
                // The target sample's rank within this bucket, as a
                // fraction of the bucket's population — samples assumed
                // uniform across the bucket.
                let frac = (target - before) as f64 / c as f64;
                let interpolated = lower + frac * (upper - lower);
                return interpolated.clamp(self.min_seconds, self.max_seconds);
            }
        }
        self.max_seconds
    }
}

/// Pool-wide serve counters: decision latency and work per served
/// decision, plus the pool's lifecycle counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolMetrics {
    /// Decision latency across all sessions.
    pub latency: LatencyHistogram,
    /// Sessions opened over the pool's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed by the caller.
    pub sessions_closed: u64,
    /// Sessions evicted after a failed segment run.
    pub sessions_failed: u64,
    /// Batches drained.
    pub batches: u64,
    /// Width decisions served across all sessions.
    pub decisions: u64,
    /// Modulation epochs across all served segments.
    pub epochs: u64,
    /// Optimizer objective evaluations across all served segments.
    pub evaluations: u64,
    /// Degraded-mode events recorded (session runs and pool lifecycle).
    pub degraded_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_an_empty_histogram_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean_seconds(), 0.0);
        assert_eq!(h.min_seconds(), 0.0);
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(3.7e-3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.0), 3.7e-3);
        assert_eq!(h.quantile(0.5), 3.7e-3);
        assert_eq!(h.quantile(0.99), 3.7e-3);
        assert_eq!(h.mean_seconds(), 3.7e-3);
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u32 {
            h.record(f64::from(i) * 1e-4); // 0.1 ms .. 10 ms
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        // The median sample is 5 ms; its factor-2 bucket tops out at 8.192 ms.
        assert!((4e-3..=9e-3).contains(&p50), "p50 {p50}");
        assert!(p99 <= h.max_seconds());
        assert!(h.min_seconds() == 1e-4);
    }

    #[test]
    fn interior_quantiles_interpolate_within_the_bucket() {
        // 100 uniform samples, 0.1 ms .. 10 ms: the true median is
        // (5.0 + 5.1)/2 = 5.05 ms. The raw bucket upper bound would say
        // 8.192 ms (a 62% overestimate); interpolation must land within
        // 15% of the truth.
        let mut h = LatencyHistogram::new();
        for i in 1..=100u32 {
            h.record(f64::from(i) * 1e-4);
        }
        let true_median = 5.05e-3;
        let p50 = h.quantile(0.5);
        let rel = (p50 - true_median).abs() / true_median;
        assert!(
            rel < 0.15,
            "p50 {p50} vs true median {true_median} (rel err {rel:.3})"
        );
        // The tail quantile interpolates too, and stays within its bucket.
        let p90 = h.quantile(0.9);
        let true_p90 = 9.0e-3;
        assert!(
            (p90 - true_p90).abs() / true_p90 < 0.15,
            "p90 {p90} vs {true_p90}"
        );
    }

    #[test]
    fn pathological_samples_count_without_poisoning_sums() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert!(h.mean_seconds().is_finite());
        assert_eq!(h.min_seconds(), 0.0);
    }
}
