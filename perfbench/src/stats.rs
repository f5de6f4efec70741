//! Percentiles and averages over measured samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A latency distribution: the median, the highest percentile that still
/// has at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile (e.g. `99.0`), or 0 when there are fewer than
    /// twenty samples and no percentile has ten beyond it.
    pub tail_pct: f64,
    pub tail: f64,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks. 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Samples strictly above the `pct` percentile of `n` samples.
fn beyond(n: usize, pct: f64) -> usize {
    // Rounded to absorb float error in `n * (1 - pct/100)`.
    (n as f64 * (100.0 - pct) / 100.0 + 1e-9).floor() as usize
}

/// The highest candidate percentile with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(samples: &[f64]) -> Dist {
    let s = sorted(samples);
    let tail_pct = tail_percentile(s.len()).unwrap_or(0.0);
    Dist {
        n: s.len(),
        p50: quantile(&s, 0.5),
        tail_pct,
        tail: if tail_pct > 0.0 {
            quantile(&s, tail_pct / 100.0)
        } else {
            0.0
        },
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
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
    fn quantile_interpolates_between_ranks() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.125), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summarize_reports_median_tail_and_count() {
        let samples: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let d = summarize(&samples);
        assert_eq!(d.n, 100);
        assert_eq!(d.p50, 49.5);
        assert_eq!(d.tail_pct, 90.0);
        assert!((d.tail - 89.1).abs() < 1e-9, "{}", d.tail);
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.n, few.p50, few.tail_pct, few.tail), (3, 2.0, 0.0, 0.0));
    }

    #[test]
    fn ratio_of_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
