//! Order statistics over latency samples.

/// Linear-interpolated quantile of an ascending slice (`p` in `[0, 1]`).
#[must_use]
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Percentiles the tail metric may report, highest first. Each workload
/// names its own, which holds unless a run is so slow that fewer than
/// ten samples of a block lie beyond it; the tail then steps down to the
/// next percentile that has ten.
const TAIL_LADDER: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples of `n` beyond percentile `pct`.
#[must_use]
pub fn beyond(n: usize, pct: f64) -> usize {
    (n as f64 * (100.0 - pct) / 100.0).floor() as usize
}

/// The highest percentile of [`TAIL_LADDER`], at most `highest`, with
/// at least ten of `n` samples beyond it (p50 when none has).
#[must_use]
pub fn tail_percentile(n: usize, highest: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&pct| pct <= highest && beyond(n, pct) >= 10)
        .unwrap_or(50.0)
}

/// Geometric mean (1.0 for no samples).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of unsorted samples.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2000, 99.0), 99.0);
        assert_eq!(tail_percentile(2000, 95.0), 95.0);
        assert_eq!(tail_percentile(999, 99.0), 98.0);
        assert_eq!(tail_percentile(120, 99.0), 90.0);
        assert_eq!(tail_percentile(50, 99.0), 80.0);
        assert_eq!(tail_percentile(5, 99.0), 50.0);
        assert_eq!(beyond(120, 90.0), 12);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
