//! Goodness-of-fit measures.

use crate::{Dist, Ecdf};

/// Kolmogorov–Smirnov statistic: `sup |F_emp − F_model|`.
///
/// # Example
///
/// ```
/// use commchar_stats::{gof, Dist, Ecdf};
/// let e = Ecdf::new(vec![0.1, 0.2, 0.3, 0.4]);
/// let d = gof::ks_statistic(&e, &Dist::uniform(0.0, 0.5));
/// assert!(d < 0.3);
/// ```
pub fn ks_statistic(ecdf: &Ecdf, dist: &Dist) -> f64 {
    let n = ecdf.len() as f64;
    let mut sup: f64 = 0.0;
    for (i, &x) in ecdf.sorted().iter().enumerate() {
        let f = dist.cdf(x);
        let above = ((i + 1) as f64 / n - f).abs();
        let below = (f - i as f64 / n).abs();
        sup = sup.max(above).max(below);
    }
    sup
}

/// [`ks_statistic`] over a value-deduplicated sample: `xs` holds the
/// distinct sorted values and `counts` their multiplicities (`total` is
/// the sample size). The model CDF is evaluated **once per distinct
/// value** instead of once per sample — on tick-quantized inter-arrival
/// gaps, where a few hundred distinct values cover tens of thousands of
/// samples, this is the difference between O(unique) and O(n) CDF sweeps.
///
/// For a run of `c` equal samples the empirical CDF steps from `cum/n`
/// to `(cum+c)/n`; the supremum over the run is attained at one of those
/// two rank extremes, so the grouped scan returns the exact statistic
/// (bit-identical to the per-sample loop). The scan stops as soon as the
/// running supremum reaches `bail_above` and returns it: the result is
/// exact below the bound, and otherwise a lower bound on the true
/// statistic — enough for a caller that only needs to know the model
/// cannot beat a current best.
///
/// # Panics
///
/// Panics if `xs` and `counts` have different lengths.
pub fn ks_statistic_grouped(
    xs: &[f64],
    counts: &[u64],
    total: u64,
    dist: &Dist,
    bail_above: f64,
) -> f64 {
    assert_eq!(xs.len(), counts.len(), "values and counts must pair up");
    let n = total as f64;
    let mut cum = 0u64;
    let mut sup: f64 = 0.0;
    for (&x, &c) in xs.iter().zip(counts) {
        let f = dist.cdf(x);
        let above = ((cum + c) as f64 / n - f).abs();
        let below = (f - cum as f64 / n).abs();
        sup = sup.max(above).max(below);
        if sup >= bail_above {
            return sup;
        }
        cum += c;
    }
    sup
}

/// [`r_squared_cdf`] over a value-deduplicated sample (`xs` distinct
/// sorted values, `counts` multiplicities, `total` the sample size),
/// evaluating the model CDF once per distinct value.
///
/// The per-sample regression targets are the ranks `k/n`; for a run of
/// `c` equal values occupying ranks `a+1 ..= a+c` the residual sum
/// collapses in closed form around the run's mean rank
/// `m = (2a + c + 1) / (2n)`:
///
/// ```text
/// Σ (k/n − f)²  =  c·(m − f)²  +  c(c² − 1) / (12 n²)
/// ```
///
/// and the total sum of squares is the constant `(n² − 1) / (12 n)`.
/// The grouped result can differ from the per-sample loop only by
/// floating-point rounding of the regrouped sums.
pub fn r_squared_cdf_grouped(xs: &[f64], counts: &[u64], total: u64, dist: &Dist) -> f64 {
    assert_eq!(xs.len(), counts.len(), "values and counts must pair up");
    let n = total as f64;
    let ss_tot = (n * n - 1.0) / (12.0 * n);
    let mut ss_res = 0.0;
    let mut cum = 0u64;
    for (&x, &c) in xs.iter().zip(counts) {
        let f = dist.cdf(x);
        let cf = c as f64;
        let m = (2.0 * cum as f64 + cf + 1.0) / (2.0 * n);
        ss_res += cf * (m - f) * (m - f) + cf * (cf * cf - 1.0) / (12.0 * n * n);
        cum += c;
    }
    if ss_tot == 0.0 {
        // n == 1: a single point, matching the per-sample degenerate branch.
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Coefficient of determination (R²) of the model CDF against the empirical
/// CDF, evaluated at every sample point — the regression quality measure
/// the paper reports for its fits. 1 is a perfect fit; can be negative for
/// models worse than a constant.
pub fn r_squared_cdf(ecdf: &Ecdf, dist: &Dist) -> f64 {
    let n = ecdf.len() as f64;
    let ys: Vec<f64> = (1..=ecdf.len()).map(|i| i as f64 / n).collect();
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (&x, &y) in ecdf.sorted().iter().zip(&ys) {
        let f = dist.cdf(x);
        ss_res += (y - f) * (y - f);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn ks_zero_for_own_quantiles() {
        // Sample at exact quantiles of the model -> tiny KS.
        let d = Dist::exponential(1.0);
        let samples: Vec<f64> = (1..100)
            .map(|i| {
                let q = i as f64 / 100.0;
                -(1.0 - q).ln()
            })
            .collect();
        let e = Ecdf::new(samples);
        assert!(ks_statistic(&e, &d) < 0.03);
    }

    #[test]
    fn ks_large_for_wrong_model() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        // A model concentrated far away.
        let d = Dist::normal(1000.0, 1.0);
        assert!(ks_statistic(&e, &d) > 0.9);
    }

    fn group(sorted: &[f64]) -> (Vec<f64>, Vec<u64>) {
        let mut xs: Vec<f64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for &x in sorted {
            match xs.last() {
                Some(&last) if last == x => *counts.last_mut().unwrap() += 1,
                _ => {
                    xs.push(x);
                    counts.push(1);
                }
            }
        }
        (xs, counts)
    }

    #[test]
    fn grouped_ks_matches_per_sample_exactly() {
        // Integer-rounded exponential draws: heavy duplication, the case
        // the grouped scan exists for. Must be bit-identical.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let d = Dist::exponential(0.25);
        let samples: Vec<f64> = (0..4000).map(|_| d.sample(&mut rng).round()).collect();
        let e = Ecdf::new(samples);
        let (xs, counts) = group(e.sorted());
        assert!(xs.len() < e.len() / 4, "expected heavy duplication");
        for model in [Dist::exponential(0.25), Dist::uniform(0.0, 30.0), Dist::normal(4.0, 4.0)] {
            let naive = ks_statistic(&e, &model);
            let grouped = ks_statistic_grouped(&xs, &counts, e.len() as u64, &model, f64::INFINITY);
            assert_eq!(naive, grouped, "model {model}");
        }
    }

    #[test]
    fn grouped_r2_matches_per_sample() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let d = Dist::gamma(2.0, 0.5);
        let samples: Vec<f64> = (0..3000).map(|_| (d.sample(&mut rng) * 2.0).round()).collect();
        let e = Ecdf::new(samples);
        let (xs, counts) = group(e.sorted());
        for model in [Dist::gamma(2.0, 0.5), Dist::exponential(0.25), Dist::uniform(0.0, 20.0)] {
            let naive = r_squared_cdf(&e, &model);
            let grouped = r_squared_cdf_grouped(&xs, &counts, e.len() as u64, &model);
            assert!((naive - grouped).abs() < 1e-9, "model {model}: {naive} vs {grouped}");
        }
        // Degenerate single-point sample hits the ss_tot == 0 branch the
        // same way in both forms.
        let one = Ecdf::new(vec![4.0]);
        let (oxs, ocs) = group(one.sorted());
        let m = Dist::exponential(1.0);
        assert_eq!(r_squared_cdf(&one, &m), r_squared_cdf_grouped(&oxs, &ocs, 1, &m));
    }

    #[test]
    fn r2_ranks_models() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let truth = Dist::exponential(0.2);
        let samples: Vec<f64> = (0..3000).map(|_| truth.sample(&mut rng)).collect();
        let e = Ecdf::new(samples);
        let good = r_squared_cdf(&e, &truth);
        let bad = r_squared_cdf(&e, &Dist::normal(100.0, 1.0));
        assert!(good > 0.99, "true model R² = {good}");
        assert!(bad < good);
    }
}
