//! Order statistics used by every report: nearest-rank percentiles, the
//! tail rule (the highest percentile that still has ten samples beyond
//! it), medians and means.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q * n)` (1-based). `q` is clamped to `[0, 1]`.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sort a copy of `values` ascending (NaN-free input assumed; a NaN sorts
/// last so it can never hide inside a percentile).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The percentile actually reported for a tail target: `target` when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still has that many samples beyond it. `None` when the
/// sample is too small to support any tail (`n <= TAIL_MIN_BEYOND`).
pub fn tail_quantile(n: usize, target: f64) -> Option<f64> {
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    // Beyond rank ceil(q n) lie n - ceil(q n) samples; that is at least
    // TAIL_MIN_BEYOND exactly when q <= (n - TAIL_MIN_BEYOND) / n.
    let supported = (n - TAIL_MIN_BEYOND) as f64 / n as f64;
    Some(target.min(supported))
}

/// A tail reading: the percentile used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile actually reported, in `(0, 1)`.
    pub q: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Tail reading of `values` for `target` under the ten-beyond rule.
pub fn tail(values: &[f64], target: f64) -> Option<Tail> {
    let q = tail_quantile(values.len(), target)?;
    let s = sorted(values);
    Some(Tail {
        q,
        value: percentile_sorted(&s, q),
        n: values.len(),
    })
}

/// Median: the mean of the two middle values for an even count, as
/// Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, 10 beyond — p99 itself is supported.
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        // 999 samples: p99 would leave 9 beyond, so the rule backs off.
        let q = tail_quantile(999, 0.99).unwrap();
        assert!(q < 0.99);
        assert_eq!(q, 989.0 / 999.0);
        assert_eq!(tail_quantile(10, 0.99), None);
        assert_eq!(tail_quantile(11, 0.5), Some(1.0 / 11.0));
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond_when_backing_off() {
        for n in [11usize, 57, 200, 999, 1000, 2500] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values, 0.99).unwrap();
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
            if n < 1000 {
                assert_eq!(beyond, TAIL_MIN_BEYOND, "n={n}: highest supported");
            } else {
                assert_eq!(t.q, 0.99);
            }
        }
    }

    #[test]
    fn tail_is_order_independent() {
        let a: Vec<f64> = (0..300).map(|i| ((i * 37) % 300) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| i as f64).collect();
        assert_eq!(tail(&a, 0.99), tail(&b, 0.99));
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
