//! The percentile rule every timing in the benchmark is reported by: the
//! median, plus the highest percentile that still has at least ten samples
//! beyond it (so the tail figure is never a single outlier).

/// Samples that must lie strictly beyond the reported tail percentile.
const BEYOND_TAIL: usize = 10;

/// Median of `values` (mean of the two middle samples when the count is
/// even, as Python's `statistics.median`). Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median, gated tail and maximum of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// Percentile (0-100) the tail value sits at: the highest one with
    /// [`BEYOND_TAIL`] samples beyond it, never below the median.
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = median_sorted(&sorted);
    // sorted[n - 1 - BEYOND_TAIL] has exactly BEYOND_TAIL samples above it.
    let (tail_pct, tail) = match n.checked_sub(BEYOND_TAIL + 1) {
        Some(idx) if idx > n / 2 => (100.0 * (idx + 1) as f64 / n as f64, sorted[idx]),
        _ => (50.0, median),
    };
    Summary {
        samples: n,
        median,
        tail_pct,
        tail,
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, 990.0, "ten samples (991..=1000) lie beyond");
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn short_series_fall_back_to_the_median() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.tail_pct, s.tail), (50.0, s.median));
        // 40 samples: the 30th has ten beyond it, i.e. p75.
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.tail_pct, s.tail), (75.0, 30.0));
    }
}
