//! Binned and empirical views of a sample.

/// An equal-width histogram over `[min, max]`.
///
/// # Example
///
/// ```
/// use commchar_stats::Histogram;
/// let h = Histogram::from_samples(&[1.0, 2.0, 2.5, 9.0], 4);
/// assert_eq!(h.bins(), 4);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins spanning the sample
    /// range. Degenerate samples (all equal) get a unit-width span.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `bins == 0`.
    pub fn from_samples(samples: &[f64], bins: usize) -> Histogram {
        assert!(!samples.is_empty(), "histogram needs at least one sample");
        assert!(bins > 0, "histogram needs at least one bin");
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let mut max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max <= min {
            max = min + 1.0;
        }
        let mut h = Histogram { min, max, counts: vec![0; bins], total: 0 };
        for &x in samples {
            h.add(x);
        }
        h
    }

    /// Adds a sample; values outside `[min, max]` clamp to the edge bins.
    pub fn add(&mut self, x: f64) {
        let w = self.bin_width();
        let idx = (((x - self.min) / w).floor() as i64).clamp(0, self.counts.len() as i64 - 1);
        self.counts[idx as usize] += 1;
        self.total += 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.counts.len() as f64
    }

    /// Center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.min + (i as f64 + 0.5) * self.bin_width()
    }

    /// Raw count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Empirical density of bin `i` (integrates to 1 over the span).
    pub fn density(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[i] as f64 / (self.total as f64 * self.bin_width())
    }

    /// Fraction of samples in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

/// Empirical CDF of a sample.
///
/// # Example
///
/// ```
/// use commchar_stats::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.eval(2.5), 0.5);
/// assert_eq!(e.eval(0.0), 0.0);
/// assert_eq!(e.eval(100.0), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF (sorts the sample).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        assert!(!samples.is_empty(), "ecdf needs at least one sample");
        assert!(samples.iter().all(|x| !x.is_nan()), "ecdf sample contains NaN");
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The sorted sample.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Sample quantile (nearest-rank), `q` in [0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_density() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = Histogram::from_samples(&samples, 10);
        assert_eq!(h.total(), 100);
        for i in 0..10 {
            assert_eq!(h.count(i), 10, "bin {i}");
        }
        // Density integrates to 1.
        let integral: f64 = (0..10).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_degenerate_sample() {
        let h = Histogram::from_samples(&[5.0, 5.0, 5.0], 4);
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(0), 3);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::from_samples(&[0.0, 10.0], 5);
        h.add(-100.0);
        h.add(100.0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(4), 2);
    }

    #[test]
    fn ecdf_step_values() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(e.eval(0.9), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.9) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_histogram_panics() {
        let _ = Histogram::from_samples(&[], 4);
    }
}
