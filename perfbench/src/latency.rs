//! Response-time percentiles from the engine's log₂ histogram.
//!
//! `Histogram::percentile` answers at bucket upper bounds, so two runs
//! whose true p99 differs by 40 % can read the same value, and a shift
//! across a bucket edge reads as a factor of 2. The benchmark recovers the
//! cumulative bucket counts through that same public query and
//! interpolates log-linearly inside the bucket. The result moves smoothly
//! with the data, but the histogram's resolution is still a factor of 2:
//! the interpolation assumes samples spread evenly in log-time inside
//! their bucket.

use wattdb_common::Histogram;

/// Buckets of the engine histogram: bucket 0 holds 0 µs, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i)` µs.
const BUCKETS: usize = 42;

/// Cumulative sample count through each bucket.
pub fn cumulative(h: &Histogram) -> Vec<u64> {
    let n = h.count();
    let mut cdf = vec![0u64; BUCKETS];
    if n == 0 {
        return cdf;
    }
    // The bucket holding the k-th smallest sample (k in 1..=n). Asking for
    // the percentile at rank k - ½ keeps `ceil` on the right rank despite
    // float rounding.
    let bucket_of_rank = |k: u64| -> usize {
        let us = h
            .percentile(100.0 * (k as f64 - 0.5) / n as f64)
            .as_micros();
        if us == 0 {
            0
        } else {
            us.trailing_zeros() as usize
        }
    };
    let mut lo = 0u64;
    for (i, slot) in cdf.iter_mut().enumerate() {
        // Largest rank whose bucket is ≤ i (ranks ≤ lo already are).
        let (mut a, mut b) = (lo, n);
        while a < b {
            let m = a + (b - a).div_ceil(2);
            if bucket_of_rank(m) <= i {
                a = m;
            } else {
                b = m - 1;
            }
        }
        *slot = a;
        lo = a;
    }
    cdf
}

/// The `q` quantile (in [0, 1]) in ms, interpolated log-linearly inside
/// its bucket; 0 for an empty histogram.
pub fn quantile_ms(cdf: &[u64], q: f64) -> f64 {
    let n = cdf.last().copied().unwrap_or(0);
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).max(f64::MIN_POSITIVE);
    let mut prev = 0u64;
    for (i, &c) in cdf.iter().enumerate() {
        if c > prev && c as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let frac = (rank - prev as f64) / (c - prev) as f64;
            let lower_us = (2f64).powi(i as i32 - 1);
            return lower_us * (2f64).powf(frac) / 1e3;
        }
        prev = c;
    }
    unreachable!("rank ≤ n always falls in a bucket")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::SimDuration;

    #[test]
    fn recovers_bucket_counts() {
        let mut h = Histogram::new();
        for us in [0, 1, 3, 3, 5, 700, 701, 1 << 20] {
            h.record(SimDuration::from_micros(us));
        }
        let cdf = cumulative(&h);
        assert_eq!(cdf[0], 1); // 0 µs
        assert_eq!(cdf[1], 2); // 1 µs
        assert_eq!(cdf[2], 4); // 3, 3
        assert_eq!(cdf[3], 5); // 5
        assert_eq!(cdf[10], 7); // 700, 701 in [512, 1024)
        assert_eq!(cdf[21], 8);
        assert_eq!(cdf[BUCKETS - 1], 8);
    }

    #[test]
    fn interpolates_inside_the_bucket() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(SimDuration::from_micros(1500)); // bucket [1024, 2048)
        }
        let cdf = cumulative(&h);
        let p50 = quantile_ms(&cdf, 0.5);
        assert!((p50 - 1.024 * 2f64.sqrt()).abs() < 1e-9, "{p50}");
        assert!((quantile_ms(&cdf, 1.0) - 2.048).abs() < 1e-9);
        // Never above the engine's own bucket-bound answer.
        assert!(p50 <= h.percentile(50.0).as_millis_f64());
    }
}
