//! Fixed log2-bucket histogram.
//!
//! Values land in 65 fixed buckets: bucket 0 holds zeros, bucket `i`
//! (1..=64) holds values in `[2^(i-1), 2^i)`. The bucket layout never
//! depends on the data, so merging two histograms is elementwise addition
//! — commutative and associative — which is what makes the merged
//! snapshot independent of worker count and merge order.

use crate::json::Value;

/// Number of buckets: one for zero plus one per power of two up to 2^63.
pub const BUCKETS: usize = 65;

/// Log2-bucket index of `v` (0 for 0, else `floor(log2(v)) + 1`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A histogram with fixed log2 buckets plus exact count/sum/min/max.
///
/// All fields are derived from the multiset of observed values, so any
/// partition of the observations across threads merges back to the same
/// histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of observed values (wrapping; practical series never wrap).
    pub sum: u64,
    /// Smallest observed value (u64::MAX when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Folds another histogram in (elementwise addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) of the observed values.
    ///
    /// # Interpolation contract
    ///
    /// Walks the buckets to the one holding the target rank
    /// `q × (count − 1)` and interpolates linearly within it: a bucket
    /// spanning `[lo, 2·lo)` that covers ranks `[seen, seen + c)`
    /// estimates `lo + ((rank − seen) / c) · lo`, i.e. the bucket's
    /// samples are assumed uniform over its span. The estimate is then
    /// clamped to the exact observed `[min, max]`, which pins the edge
    /// cases:
    ///
    /// - **empty** → `0.0` for every `q`;
    /// - **`q == 0` / `q == 1`** → exactly `min` / `max` (tracked
    ///   per-value, never interpolated), including after any [`merge`]
    ///   — the merged extremes are the min/max of the parts;
    /// - **all values equal** (`min == max`) → that value for every
    ///   `q`, since the clamp collapses the interpolation interval;
    /// - **single occupied bucket** → a value inside `[min, max]`,
    ///   never the bucket's theoretical `[lo, 2·lo)` overhang;
    /// - **zeros bucket** (bucket 0) → exactly `0.0`, no interpolation.
    ///
    /// The result is monotone in `q` and a pure function of the merged
    /// state `(buckets, min, max, count)`, so any shard/worker
    /// partition of the same observations yields the same value
    /// ([`merge`] invariance).
    ///
    /// [`merge`]: Histogram::merge
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1], got {q}");
        if self.count == 0 {
            return 0.0;
        }
        // The extremes are tracked exactly — don't interpolate them.
        if q == 0.0 {
            return self.min as f64;
        }
        if q == 1.0 {
            return self.max as f64;
        }
        let target = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            // Ranks [seen, seen + c) live in this bucket.
            if target < (seen + c) as f64 {
                if i == 0 {
                    return 0.0;
                }
                let lo = bucket_lo(i) as f64;
                let frac = (target - seen as f64) / c as f64;
                let est = lo + frac * lo; // bucket spans [lo, 2*lo)
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// The histogram as a JSON object. Only non-empty buckets are
    /// listed, as `[bucket_lo, count]` pairs in ascending bucket order.
    pub fn to_json(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Arr(vec![bucket_lo(i).into(), c.into()]))
            .collect::<Value>();
        Value::object()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", if self.count == 0 { 0 } else { self.min })
            .with("max", self.max)
            .with("buckets", buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert_eq!(bucket_of(bucket_lo(i)), i, "lower bound lands in its bucket");
        }
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let values: Vec<u64> = (0..1000).map(|i| i * i % 7919).collect();
        let mut whole = Histogram::default();
        for &v in &values {
            whole.observe(v);
        }
        // Any partition merges back to the same histogram.
        for split in [1, 3, 333, 999] {
            let (a, b) = values.split_at(split);
            let mut ha = Histogram::default();
            let mut hb = Histogram::default();
            a.iter().for_each(|&v| ha.observe(v));
            b.iter().for_each(|&v| hb.observe(v));
            ha.merge(&hb);
            assert_eq!(ha, whole);
            assert_eq!(ha.to_json(), whole.to_json());
        }
    }

    #[test]
    fn quantile_empty_and_extremes() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        let mut h = Histogram::default();
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(v);
        }
        // q=0 and q=1 clamp to the exact observed extremes.
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn quantile_single_value_is_exact() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(777);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777.0, "clamped to min==max at q={q}");
        }
    }

    #[test]
    fn quantile_zeros_bucket() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(0);
        }
        for _ in 0..10 {
            h.observe(1 << 20);
        }
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(0.95) >= (1 << 20) as f64);
    }

    #[test]
    fn quantile_tracks_uniform_ranks_within_bucket_error() {
        // 10_000 samples uniform over [0, 65536): a log2 histogram can be
        // off by at most one bucket width (2x), and interpolation should
        // do much better in the bulk.
        let mut h = Histogram::default();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            // xorshift — deterministic, spreads over [0, 65536).
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.observe(x % 65536);
        }
        for (q, expect) in [(0.5, 32768.0), (0.9, 58982.0), (0.99, 64881.0)] {
            let got = h.quantile(q);
            assert!(
                got > expect / 2.0 && got < expect * 2.0,
                "q={q}: got {got}, expected near {expect}"
            );
        }
        // Monotone in q.
        let qs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        for w in qs.windows(2) {
            assert!(h.quantile(w[0]) <= h.quantile(w[1]));
        }
    }

    #[test]
    fn quantile_is_merge_invariant() {
        let values: Vec<u64> = (0..5000).map(|i| (i * 2654435761u64) % 100_000).collect();
        let mut whole = Histogram::default();
        values.iter().for_each(|&v| whole.observe(v));
        let (a, b) = values.split_at(1234);
        let mut ha = Histogram::default();
        let mut hb = Histogram::default();
        a.iter().for_each(|&v| ha.observe(v));
        b.iter().for_each(|&v| hb.observe(v));
        ha.merge(&hb);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(ha.quantile(q), whole.quantile(q), "merge changes q={q}");
        }
    }

    #[test]
    fn quantile_extremes_are_exact_after_merge() {
        // Two disjoint shards: the merged q=0/q=1 must be the global
        // exact extremes, not either shard's, and not interpolated.
        let mut lo_shard = Histogram::default();
        for v in [3u64, 5, 900] {
            lo_shard.observe(v);
        }
        let mut hi_shard = Histogram::default();
        for v in [40_000u64, 70_000, 1_000_000] {
            hi_shard.observe(v);
        }
        let mut merged = lo_shard.clone();
        merged.merge(&hi_shard);
        assert_eq!(merged.quantile(0.0), 3.0);
        assert_eq!(merged.quantile(1.0), 1_000_000.0);
        // Merge order is immaterial.
        let mut flipped = hi_shard.clone();
        flipped.merge(&lo_shard);
        assert_eq!(flipped.quantile(0.0), 3.0);
        assert_eq!(flipped.quantile(1.0), 1_000_000.0);
        // Interior quantiles stay inside the observed range.
        for q in [0.1, 0.5, 0.9] {
            let v = merged.quantile(q);
            assert!((3.0..=1_000_000.0).contains(&v), "q={q} escaped range: {v}");
        }
    }

    #[test]
    fn quantile_single_bucket_stays_within_observed_range() {
        // Distinct values all landing in one bucket ([1024, 2048)): the
        // interpolated estimate must stay inside the exact [min, max],
        // not wander over the bucket's theoretical span, and must be
        // monotone in q.
        let mut h = Histogram::default();
        for v in 1100u64..1150 {
            h.observe(v);
        }
        assert_eq!(h.buckets.iter().filter(|&&c| c > 0).count(), 1);
        let qs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = h.quantile(q);
            assert!((1100.0..=1149.0).contains(&v), "q={q} escaped [min, max]: {v}");
            assert!(v >= prev, "not monotone at q={q}");
            prev = v;
        }
        assert_eq!(h.quantile(0.0), 1100.0);
        assert_eq!(h.quantile(1.0), 1149.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let _ = Histogram::default().quantile(1.5);
    }

    #[test]
    fn empty_histogram_renders_zero_min() {
        let h = Histogram::default();
        assert!(h.to_json().to_string().contains("\"min\": 0"));
        assert!(h.to_json().to_string().contains("\"buckets\": []"));
    }
}
