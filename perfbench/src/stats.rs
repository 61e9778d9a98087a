//! Percentile and ratio math shared by every workload.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, so a p99 is only
//! claimed from 1000 or more samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `[0, 100]`:
/// the smallest value with at least `p`% of the samples at or below it.
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() || p.is_nan() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank (1-based) of percentile `p` among `n` samples; the
/// epsilon keeps float error in `p/100 * n` from bumping an exact rank.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median of unsorted `values` (mean of the two middle values for an
/// even count), `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A copy of `values` sorted ascending (`NaN`s last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// The highest of p99.9, p99, p95, p90 and p50 that leaves at least
/// [`TAIL_SAMPLES`] samples strictly beyond its rank out of `n`, or
/// `None` when even p50 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_SAMPLES)
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile [`tail_percentile`] allows, `NaN` if none.
    pub tail_p: f64,
    /// The p99, or the value at `tail_p` when the sample is too small
    /// to claim a p99 (`NaN` if not even p50 has ten beyond it).
    pub p99: f64,
}

impl Summary {
    /// Summarises `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        let tail_p = tail_percentile(sorted.len()).unwrap_or(f64::NAN);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_p,
            p99: percentile(&sorted, if tail_p > 99.0 { 99.0 } else { tail_p }),
        }
    }
}

/// `part / base`, or `0` when `base` is 0 (a ratio over nothing).
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank of p99 is 990, 10 beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 rank 990 leaves 9, so only p95 qualifies.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn summary_falls_back_to_the_supported_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.p99, 990.0);
        let small = Summary::of(&v[..500]);
        assert_eq!(small.tail_p, 95.0);
        assert_eq!(small.p99, 475.0);
        assert_eq!(
            Summary::of(&(1..=5000).map(f64::from).collect::<Vec<_>>()).p99,
            4950.0
        );
        assert!(Summary::of(&v[..19]).p99.is_nan());
    }

    #[test]
    fn ratio_over_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
