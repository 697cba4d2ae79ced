//! Fixed-footprint latency histograms for the server host.
//!
//! Recording a sample must be allocation-free and O(1) — it sits on the
//! worker hot path next to the zero-alloc merge — and histograms from
//! many workers must merge exactly, so the host can report fleet-wide
//! percentiles without shipping raw samples around. A log-bucketed
//! histogram gives all of that: 16 sub-buckets per octave (~6% relative
//! resolution, exact below 32 ns) over the full `u64` nanosecond range in
//! a flat ~8 KiB table.

/// Sub-buckets per octave as a power of two: 2^4 = 16 buckets, so the
/// relative error of a reported percentile is at most 1/16 ≈ 6.25%.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` (= 32) get one bucket each (exact); above that
/// each octave `[2^e, 2^(e+1))` splits into `SUB` buckets. Octaves
/// `SUB_BITS..64` each contribute `SUB` buckets on top of the exact range.
const BUCKETS: usize = 2 * SUB + (64 - SUB_BITS as usize - 1) * SUB;

/// A mergeable log-bucketed histogram of `u64` nanosecond samples.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_index(nanos: u64) -> usize {
    if nanos < (2 * SUB) as u64 {
        nanos as usize
    } else {
        let exp = 63 - nanos.leading_zeros();
        let sub = ((nanos >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        // Octave SUB_BITS (values 16..32) starts at index 16 with sub
        // running 0..16, so the formula is continuous with the exact
        // range below it.
        (exp as usize - SUB_BITS as usize + 1) * SUB + sub
    }
}

/// A representative value (bucket midpoint) for percentile reporting.
fn bucket_value(index: usize) -> u64 {
    if index < 2 * SUB {
        index as u64
    } else {
        let octave = index / SUB - 1;
        let sub = (index % SUB) as u64;
        ((SUB as u64 + sub) << octave) + (1u64 << octave) / 2
    }
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample. O(1), allocation-free.
    #[inline]
    pub(crate) fn record(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum += nanos as u128;
        self.max = self.max.max(nanos);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`, in nanoseconds. Exact for
    /// samples below 32 ns, within ~6.25% above; `q = 1.0` reports the
    /// exact observed maximum.
    pub fn percentile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram in; merging is exact (same bucket edges
    /// everywhere), which is what lets per-worker histograms roll up into
    /// one fleet-wide distribution.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotonic_and_in_range() {
        let mut probes: Vec<u64> = (0..64)
            .flat_map(|shift| [0u64, 1, 7].map(|near| (1u64 << shift).saturating_add(near)))
            .collect();
        probes.sort_unstable();
        let mut last = 0;
        for v in probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(i >= last, "index not monotonic at {v}");
            last = i;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.percentile_nanos(1.0 / 32.0), 0);
        assert_eq!(h.percentile_nanos(0.5), 15);
        assert_eq!(h.percentile_nanos(1.0), 31);
    }

    #[test]
    fn large_values_within_relative_error() {
        for &v in &[100u64, 1_000, 123_456, 9_999_999, 1 << 40] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let got = h.percentile_nanos(0.5);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 16.0, "value {v} reported as {got} ({err})");
        }
    }

    #[test]
    fn percentiles_are_ordered_and_max_exact() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 37);
        }
        let p50 = h.percentile_nanos(0.5);
        let p99 = h.percentile_nanos(0.99);
        let p999 = h.percentile_nanos(0.999);
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= h.max_nanos());
        assert_eq!(h.max_nanos(), 370_000);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..5_000u64 {
            let v = i * i % 100_003;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_nanos(), all.max_nanos());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.percentile_nanos(q), all.percentile_nanos(q));
        }
    }
}
