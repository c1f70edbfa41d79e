//! Order statistics and hashing shared by the driver, the replay and
//! the report.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of an ascending slice, or `None`
/// unless at least [`MIN_BEYOND`] samples lie strictly beyond its rank —
/// a tail estimated from fewer is one outlier, not a percentile.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    let rank = rank.clamp(1, sorted.len().max(1));
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of `quantiles` (given in descending order) that
/// [`percentile`] supports, with the quantile it settled on.
pub fn highest_supported(sorted: &[u64], quantiles: &[f64]) -> Option<(f64, u64)> {
    quantiles
        .iter()
        .find_map(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// Nanoseconds → microseconds with all digits.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of unsorted values; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the rule the acceptance pipeline applies to a run set. Needs
/// two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread every bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// 64-bit FNV-1a, fed incrementally: request-stream identity.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in, followed by a separator so that field
    /// boundaries count.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_honours_the_ten_samples_beyond_rule() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000: rank 990, ten samples beyond — just enough.
        assert_eq!(percentile(&v, 0.99), Some(990));
        // One sample fewer and the tail is no longer supported.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v, 0.5), Some(500));
        // p50 needs twenty samples.
        assert_eq!(percentile(&v[..20], 0.5), Some(10));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(
            highest_supported(&v, &[0.999, 0.99, 0.95]),
            Some((0.99, 990))
        );
        assert_eq!(highest_supported(&v[..5], &[0.99, 0.5]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_separates_fields() {
        let mut a = Fnv::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = Fnv::default();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.0, b.0);
    }
}
