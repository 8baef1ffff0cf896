//! Log-bucketed histograms.
//!
//! One bucket per power of two: bucket 0 holds the value 0, bucket `i`
//! (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`. Recording is a
//! leading-zeros count plus two adds — cheap enough for the allocation
//! hot path — and the fixed bucket layout makes two histograms mergeable
//! and comparable without any rebinning.

/// Number of buckets: the zero bucket plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-layout log2 histogram with count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw per-bucket counts.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Non-empty `(bucket index, count)` pairs in ascending bucket order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Compact textual bucket encoding: `"i:count i:count …"` over the
    /// non-empty buckets, or `"-"` when empty. Round-trips through
    /// [`decode_buckets`].
    pub fn encode_buckets(&self) -> String {
        encode_buckets(&self.counts)
    }
}

/// Encodes sparse bucket counts as `"i:count i:count …"` (or `"-"`).
pub fn encode_buckets(counts: &[u64]) -> String {
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&format!("{i}:{c}"));
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// Parses the [`encode_buckets`] format back into `(index, count)` pairs.
pub fn decode_buckets(text: &str) -> Result<Vec<(usize, u64)>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for part in text.split(' ') {
        let (i, c) = part
            .split_once(':')
            .ok_or_else(|| format!("bad bucket entry {part:?}"))?;
        let i: usize = i.parse().map_err(|_| format!("bad bucket index {i:?}"))?;
        let c: u64 = c.parse().map_err(|_| format!("bad bucket count {c:?}"))?;
        out.push((i, c));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(1), 1);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(11), 2047);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn counts_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        for v in [0u64, 1, 3, 16, 16, 4096] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 4132);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 4096);
        let total: u64 = h.counts().iter().sum();
        assert_eq!(total, h.count(), "bucket counts sum to sample count");
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(7);
        b.record(7);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 114);
        assert_eq!(a.max(), 100);
        assert_eq!(a.counts()[Histogram::bucket_of(7)], 2);
    }

    #[test]
    fn merging_empty_histograms_keeps_them_empty() {
        // Merging an empty into an empty must not fabricate samples or
        // disturb the min/max sentinels.
        let mut m = Histogram::new();
        m.merge(&Histogram::new());
        assert!(m.is_empty());
        assert_eq!((m.min(), m.max()), (0, 0));
        // One sample after the empty merge behaves like a fresh record.
        m.record(42);
        assert_eq!((m.count(), m.min(), m.max()), (1, 42, 42));
    }

    #[test]
    fn bucket_encoding_round_trips() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(900);
        let enc = h.encode_buckets();
        assert_eq!(enc, "3:2 10:1");
        assert_eq!(decode_buckets(&enc).unwrap(), vec![(3, 2), (10, 1)]);
        assert_eq!(Histogram::new().encode_buckets(), "-");
        assert_eq!(decode_buckets("-").unwrap(), vec![]);
        assert!(decode_buckets("x").is_err());
        assert!(decode_buckets("1:b").is_err());
    }
}
