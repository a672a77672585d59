//! Exact order statistics over recorded samples.
//!
//! Every percentile the benchmark reports is computed from the full
//! sample set (nearest rank), never from bucketed histograms, and is
//! printed with its sample count.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorted samples with nearest-rank percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Sort `values` once for repeated percentile queries.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    /// Nearest-rank `p`-quantile (`p` in 0..=1); 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let n = self.sorted.len();
        let rank = (p.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as usize;
        self.sorted[rank.min(n) - 1]
    }

    /// The highest quantile that still has at least ten samples beyond
    /// it, `1 − 10/n`, or `None` with fewer than eleven samples.
    pub fn tail_quantile(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > 10).then(|| 1.0 - 10.0 / n as f64)
    }

    /// One human-readable line: count, p50, p99 and the deepest
    /// quantile with ten samples beyond it, scaled by `scale` into
    /// `unit`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let mut s = format!(
            "n={} p50={:.3}{unit} p99={:.3}{unit}",
            self.len(),
            self.percentile(0.50) as f64 * scale,
            self.percentile(0.99) as f64 * scale,
        );
        if let Some(q) = self.tail_quantile() {
            s.push_str(&format!(
                " p{:.3}={:.3}{unit} (deepest with >=10 samples beyond)",
                q * 100.0,
                self.percentile(q) as f64 * scale
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let s = Samples::new((1..=100).rev().collect());
        assert_eq!(s.percentile(0.5), 50);
        assert_eq!(s.percentile(0.99), 99);
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.tail_quantile(), Some(0.9));
        assert_eq!(Samples::new(vec![1; 10]).tail_quantile(), None);
    }
}
