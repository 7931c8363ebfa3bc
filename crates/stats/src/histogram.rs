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

/// A fixed-capacity streaming histogram over `u64` observations whose
/// memory never grows with the number of samples.
///
/// The bin count is fixed at construction; when an observation lands past
/// the last bin, the bin *width* doubles and adjacent bins are folded
/// together, so the histogram always covers `[0, bins × width)` in
/// O(bins) memory without knowing the maximum value up front. Widening
/// never loses counts — it only coarsens resolution, and every value ever
/// recorded maps to the same bin it would land in if re-recorded at the
/// final width (widths grow by exact doubling).
///
/// This is the accumulation structure behind streaming network statistics:
/// latency and inter-arrival distributions of multi-million-message runs
/// without retaining per-message records.
///
/// # Example
///
/// ```
/// use commchar_stats::StreamingHistogram;
/// let mut h = StreamingHistogram::new(8);
/// for v in 0..1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 1000);
/// assert_eq!(h.bins(), 8); // capacity unchanged; width widened instead
/// assert!(h.width() * 8 > 999);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingHistogram {
    width: u64,
    counts: Vec<u64>,
    total: u64,
}

impl StreamingHistogram {
    /// Creates a histogram with `bins` bins of initial width 1.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2`.
    pub fn new(bins: usize) -> StreamingHistogram {
        StreamingHistogram::with_width(bins, 1)
    }

    /// Creates a histogram with `bins` bins of the given initial width —
    /// use a coarser start when the expected magnitude is known, to avoid
    /// early widening churn.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` or `width == 0`.
    pub fn with_width(bins: usize, width: u64) -> StreamingHistogram {
        assert!(bins >= 2, "streaming histogram needs at least two bins");
        assert!(width > 0, "bin width must be positive");
        StreamingHistogram { width, counts: vec![0; bins], total: 0 }
    }

    /// Records one observation, widening bins as needed to keep it in
    /// range. O(1) amortized; a widening pass is O(bins).
    pub fn record(&mut self, value: u64) {
        while (value / self.width) as usize >= self.counts.len() {
            self.widen();
        }
        self.counts[(value / self.width) as usize] += 1;
        self.total += 1;
    }

    /// Doubles the bin width, folding pairs of adjacent bins.
    fn widen(&mut self) {
        let n = self.counts.len();
        for i in 0..n.div_ceil(2) {
            self.counts[i] =
                self.counts[2 * i] + if 2 * i + 1 < n { self.counts[2 * i + 1] } else { 0 };
        }
        for c in &mut self.counts[n.div_ceil(2)..] {
            *c = 0;
        }
        self.width *= 2;
    }

    /// Current bin width. Bin `i` covers `[i × width, (i+1) × width)`.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of bins (fixed at construction).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of observations in bin `i` (0 when empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// `(upper bound, count)` rows, matching the shape of
    /// `NetLog::latency_histogram` for side-by-side reporting.
    pub fn rows(&self) -> Vec<(u64, u64)> {
        self.counts.iter().enumerate().map(|(i, &c)| ((i as u64 + 1) * self.width, c)).collect()
    }

    /// Approximate quantile (`q` in [0, 1]) by linear interpolation inside
    /// the containing bin; the error is bounded by one bin width. Returns
    /// 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return 0.0;
        }
        let target = q * self.total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum as f64 + c as f64 >= target {
                let within = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return (i as f64 + within) * self.width as f64;
            }
            cum += c;
        }
        (self.counts.len() as u64 * self.width) as f64
    }

    /// Bytes of heap memory held — constant for the histogram's lifetime,
    /// regardless of how many observations were recorded.
    pub fn mem_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u64>()
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

    #[test]
    fn streaming_widens_without_losing_counts() {
        let mut h = StreamingHistogram::new(4);
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.width(), 1);
        h.record(4); // forces one widening: width 2, bins cover [0, 8)
        assert_eq!(h.width(), 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(0), 2); // 0, 1
        assert_eq!(h.count(1), 2); // 2, 3
        assert_eq!(h.count(2), 1); // 4
        h.record(1000); // jumps several widenings at once
        assert!(h.width() * h.bins() as u64 > 1000);
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts().iter().sum::<u64>(), 6);
    }

    #[test]
    fn streaming_matches_rebinned_batch() {
        // Recording values one at a time must give the same final counts
        // as binning them all at the final width in one pass.
        let values: Vec<u64> = (0..5000u64).map(|i| (i * i) % 777).collect();
        let mut h = StreamingHistogram::new(16);
        for &v in &values {
            h.record(v);
        }
        let w = h.width();
        let mut batch = [0u64; 16];
        for &v in &values {
            batch[(v / w) as usize] += 1;
        }
        assert_eq!(h.counts(), &batch[..]);
    }

    #[test]
    fn streaming_quantile_within_one_bin() {
        let mut h = StreamingHistogram::new(64);
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let w = h.width() as f64;
        assert!((h.quantile(0.5) - 5000.0).abs() <= w, "median {}", h.quantile(0.5));
        assert!((h.quantile(0.95) - 9500.0).abs() <= w, "p95 {}", h.quantile(0.95));
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn streaming_memory_is_constant() {
        let mut h = StreamingHistogram::new(32);
        let m0 = h.mem_bytes();
        for v in 0..100_000u64 {
            h.record(v * 31);
        }
        assert_eq!(h.mem_bytes(), m0);
    }

    #[test]
    fn streaming_rows_and_fractions() {
        let mut h = StreamingHistogram::with_width(4, 10);
        h.record(5);
        h.record(15);
        h.record(15);
        h.record(35);
        let rows = h.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], (10, 1));
        assert_eq!(rows[1], (20, 2));
        assert_eq!(rows[3], (40, 1));
        assert!((h.fraction(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two bins")]
    fn streaming_rejects_single_bin() {
        let _ = StreamingHistogram::new(1);
    }
}
