//! The online statistics accumulator behind the network logs.

/// Online mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use commchar_des::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 6.0] { s.record(x); }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/μ), or 0 if the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Smallest observation, or +∞ if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or −∞ if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [3.5, -1.0, 2.25, 8.0, 0.0, 4.0];
        let mut s = RunningStats::new();
        for &x in &data {
            s.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 8.0);
    }

    #[test]
    fn cv_of_constant_stream_is_zero() {
        let mut s = RunningStats::new();
        for _ in 0..5 {
            s.record(3.0);
        }
        assert!(s.cv().abs() < 1e-12);
    }
}
