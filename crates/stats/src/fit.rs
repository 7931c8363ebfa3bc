//! Fitting the candidate families to a sample and selecting the best model.
//!
//! The procedure mirrors the paper's SAS analysis: start each family from a
//! closed-form (MLE / method-of-moments) estimate, refine by non-linear
//! least squares on the empirical CDF with the multivariate secant method,
//! then rank the fitted models by goodness-of-fit.
//!
//! All per-sample preprocessing is hoisted into a [`FitContext`] built
//! **once** per sample set: one sort, one value-deduplication pass, one
//! moments sweep, one anchor extraction. Every candidate family then
//! borrows those views, so fitting ten families costs one sort instead of
//! ten and the KS / R² / EM sweeps run over the distinct values (with
//! multiplicities) instead of the raw samples — a large constant-factor win
//! on tick-quantized inter-arrival gaps where duplication is heavy.
//!
//! The preprocessed form is a [`GroupedSample`], which **merges exactly**
//! across data blocks: the streaming pipeline builds one grouped sample
//! per trace block, merges them in any grouping, and
//! [`FitContext::from_grouped`] yields the identical context (same
//! anchors, same moments, same fits, bit for bit) that [`FitContext::new`]
//! computes over the whole sample in memory.

use crate::gof::{ks_statistic_grouped, r_squared_cdf_grouped};
use crate::merge::GroupedSample;
use crate::secant::{minimize, SecantOptions};
use crate::{Dist, Family};

/// One fitted model with its goodness-of-fit scores.
#[derive(Clone, Debug)]
pub struct FitResult {
    /// The fitted distribution.
    pub dist: Dist,
    /// Kolmogorov–Smirnov statistic (lower is better).
    pub ks: f64,
    /// R² of the model CDF against the empirical CDF (higher is better).
    pub r2: f64,
    /// Sum of squared CDF residuals from the secant refinement.
    pub sse: f64,
}

/// Number of CDF anchor points used for the least-squares refinement.
const ANCHORS: usize = 64;

/// Ranking score: KS with a mild parsimony bias. A model is only preferred
/// over one with fewer parameters if it improves KS by more than 0.005 per
/// extra parameter, keeping "exponential" ahead of a hyperexponential that
/// degenerates to it, as in the paper's tables.
fn penalty(r: &FitResult) -> f64 {
    r.ks + param_penalty(&r.dist)
}

fn param_penalty(dist: &Dist) -> f64 {
    0.005 * (dist.params().len() as f64 - 1.0)
}

/// Summary statistics used by the initializers.
struct Moments {
    mean: f64,
    var: f64,
    cv2: f64,
    min: f64,
    max: f64,
    log_mean: f64,
    log_var: f64,
    has_nonpositive: bool,
}

/// Moments over a deduplicated sorted sample (values + multiplicities).
fn moments_grouped(xs: &[f64], counts: &[u64], total: u64) -> Moments {
    let n = total as f64;
    let mean = xs.iter().zip(counts).map(|(&x, &c)| c as f64 * x).sum::<f64>() / n;
    let var = if total < 2 {
        0.0
    } else {
        xs.iter().zip(counts).map(|(&x, &c)| c as f64 * (x - mean) * (x - mean)).sum::<f64>()
            / (n - 1.0)
    };
    let min = xs.first().copied().unwrap_or(f64::INFINITY);
    let max = xs.last().copied().unwrap_or(f64::NEG_INFINITY);
    let has_nonpositive = min <= 0.0;
    let mut log_n = 0u64;
    let mut log_sum = 0.0;
    for (&x, &c) in xs.iter().zip(counts) {
        if x > 0.0 {
            log_n += c;
            log_sum += c as f64 * x.ln();
        }
    }
    let (log_mean, log_var) = if log_n >= 2 {
        let lm = log_sum / log_n as f64;
        let lv = xs
            .iter()
            .zip(counts)
            .filter(|&(&x, _)| x > 0.0)
            .map(|(&x, &c)| {
                let l = x.ln();
                c as f64 * (l - lm) * (l - lm)
            })
            .sum::<f64>()
            / (log_n - 1) as f64;
        (lm, lv)
    } else {
        (0.0, 0.0)
    };
    Moments {
        mean,
        var,
        cv2: if mean != 0.0 { var / (mean * mean) } else { 0.0 },
        min,
        max,
        log_mean,
        log_var,
        has_nonpositive,
    }
}

/// Closed-form initial estimate for one family, or `None` when the family
/// cannot describe the sample (e.g. lognormal with non-positive values).
fn initial(family: Family, m: &Moments) -> Option<Dist> {
    match family {
        Family::Exponential => (m.mean > 0.0).then(|| Dist::exponential(1.0 / m.mean)),
        Family::HyperExp2 => {
            if m.mean <= 0.0 {
                return None;
            }
            // Balanced-means initializer; requires CV² > 1 to be meaningful,
            // but start slightly off-balance even at CV² ≤ 1 and let the
            // secant refinement decide.
            let cv2 = m.cv2.max(1.01);
            let p = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt()).clamp(0.02, 0.98);
            Some(Dist::hyper_exp2(p, 2.0 * p / m.mean, 2.0 * (1.0 - p) / m.mean))
        }
        Family::Erlang => {
            if m.mean <= 0.0 {
                return None;
            }
            let k = if m.cv2 > 0.0 { (1.0 / m.cv2).round().clamp(1.0, 64.0) as u32 } else { 1 };
            Some(Dist::erlang(k, k as f64 / m.mean))
        }
        Family::Gamma => {
            if m.mean <= 0.0 || m.var <= 0.0 {
                return None;
            }
            // Method of moments: shape = mean²/var, rate = mean/var.
            let shape = (m.mean * m.mean / m.var).clamp(0.05, 500.0);
            Some(Dist::gamma(shape, (m.mean / m.var).max(1e-12)))
        }
        Family::Pareto => {
            if m.min <= 0.0 {
                return None;
            }
            // MLE: x_m = min, α = n / Σ ln(x / x_m) — approximated from
            // the log moments (Σ ln x − n ln x_m).
            let alpha = if m.log_mean > m.min.ln() {
                (1.0 / (m.log_mean - m.min.ln())).clamp(0.05, 100.0)
            } else {
                2.0
            };
            Some(Dist::pareto(m.min, alpha))
        }
        Family::Weibull => {
            if m.mean <= 0.0 || m.has_nonpositive {
                return None;
            }
            // Moment-based shape approximation: CV ≈ shape^(-0.926) is a
            // serviceable starting point; scale from the mean.
            let cv = m.cv2.sqrt().max(1e-3);
            let shape = cv.powf(-1.0 / 0.926).clamp(0.1, 20.0);
            let scale = m.mean / crate::special::gamma_mean_factor(shape);
            Some(Dist::weibull(shape, scale.max(1e-12)))
        }
        Family::Lognormal => {
            if m.has_nonpositive || m.log_var <= 0.0 {
                return None;
            }
            Some(Dist::lognormal(m.log_mean, m.log_var.sqrt()))
        }
        Family::Normal => (m.var > 0.0).then(|| Dist::normal(m.mean, m.var.sqrt())),
        Family::Uniform => (m.max > m.min).then(|| Dist::uniform(m.min, m.max)),
        Family::Deterministic => Some(Dist::deterministic(m.mean)),
    }
}

/// Expectation-maximization refinement for the 2-phase hyperexponential:
/// a handful of EM sweeps from the moment initializer land close to the MLE
/// before the least-squares polish. Runs over the deduplicated values with
/// multiplicities — each distinct gap costs one density evaluation per
/// sweep no matter how many samples share it.
fn hyperexp_em_grouped(xs: &[f64], counts: &[u64], total: u64, init: Dist, iters: usize) -> Dist {
    let Dist::HyperExp2 { mut p, mut r1, mut r2 } = init else { return init };
    let n = total as f64;
    for _ in 0..iters {
        let mut sw = 0.0; // Σ w_i
        let mut swx = 0.0; // Σ w_i x_i
        let mut sux = 0.0; // Σ (1−w_i) x_i
        for (&x, &c) in xs.iter().zip(counts) {
            let x = x.max(0.0);
            let f1 = p * r1 * (-r1 * x).exp();
            let f2 = (1.0 - p) * r2 * (-r2 * x).exp();
            let w = if f1 + f2 > 0.0 { f1 / (f1 + f2) } else { 0.5 };
            let cf = c as f64;
            sw += cf * w;
            swx += cf * w * x;
            sux += cf * (1.0 - w) * x;
        }
        if sw < 1e-9 || sw > n - 1e-9 || swx <= 0.0 || sux <= 0.0 {
            break;
        }
        p = (sw / n).clamp(1e-4, 1.0 - 1e-4);
        r1 = sw / swx;
        r2 = (n - sw) / sux;
        if !(r1.is_finite() && r2.is_finite() && r1 > 0.0 && r2 > 0.0) {
            return init;
        }
    }
    Dist::HyperExp2 { p, r1, r2 }
}

/// Shared, immutable preprocessing for fitting one sample set.
///
/// Construction does all the per-sample work exactly once — sort,
/// deduplication into `(value, count)` runs, moment sweep, CDF anchor
/// extraction — and every candidate family then borrows these views.
/// Build one context and call [`FitContext::fit_best`] /
/// [`FitContext::fit_all`] instead of the free functions whenever the
/// sample set is used more than once.
///
/// The context is **mergeable at the sample layer**: build one
/// [`GroupedSample`] per data block, [`merge`](GroupedSample::merge) them
/// (exact, order-insensitive), and construct the context with
/// [`FitContext::from_grouped`]. The result is byte-identical to a
/// context built from the concatenated raw samples — the streaming
/// characterization pipeline rests on this.
pub struct FitContext {
    unique: Vec<f64>,
    counts: Vec<u64>,
    /// Inclusive cumulative counts per run — the grouped ECDF, enough to
    /// reproduce nearest-rank quantiles and `F(x)` evaluations exactly.
    cum: Vec<u64>,
    total: u64,
    moments: Moments,
    /// (x, F_emp(x)) anchor points for the least-squares refinement.
    anchors: Vec<(f64, f64)>,
}

impl FitContext {
    /// Preprocesses `samples` for repeated fitting.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot fit an empty sample");
        Self::from_grouped(&GroupedSample::from_samples(samples))
    }

    /// Builds the context from an already-grouped sample — the entry
    /// point of the streaming pipeline, where per-block grouped samples
    /// were merged instead of ever materializing the raw stream.
    ///
    /// For any grouping of the same multiset this produces exactly the
    /// context [`FitContext::new`] builds from the raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is empty.
    pub fn from_grouped(sample: &GroupedSample) -> Self {
        assert!(!sample.is_empty(), "cannot fit an empty sample");
        let unique = sample.values().to_vec();
        let counts = sample.counts().to_vec();
        let total = sample.total();
        let mut cum = Vec::with_capacity(counts.len());
        let mut running = 0u64;
        for &c in &counts {
            running += c;
            cum.push(running);
        }
        let moments = moments_grouped(&unique, &counts, total);
        let mut ctx = FitContext { unique, counts, cum, total, moments, anchors: Vec::new() };
        let m = ANCHORS.min(total as usize);
        ctx.anchors = (0..m)
            .map(|i| {
                let q = (i as f64 + 0.5) / m as f64;
                let x = ctx.quantile(q);
                (x, ctx.eval(x))
            })
            .collect();
        ctx
    }

    /// Nearest-rank sample quantile over the grouped runs — value-for-
    /// value what [`Ecdf::quantile`](crate::Ecdf::quantile) returns on the
    /// raw sorted sample.
    fn quantile(&self, q: f64) -> f64 {
        let n = self.total;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let j = self.cum.partition_point(|&c| c < rank);
        self.unique[j]
    }

    /// Fraction of samples ≤ `x` — bit-identical to
    /// [`Ecdf::eval`](crate::Ecdf::eval) on the raw sorted sample (the
    /// same integer count divided by the same integer total).
    fn eval(&self, x: f64) -> f64 {
        let j = self.unique.partition_point(|&v| v <= x);
        let le = if j == 0 { 0 } else { self.cum[j - 1] };
        le as f64 / self.total as f64
    }

    /// Number of samples behind this context.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True when the context holds no samples (never: construction panics
    /// on empty input; provided to satisfy the `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct sample values — the effective sweep length for
    /// the grouped KS / R² / EM passes.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// KS statistic of an atom at `v` against the sample: the generic
    /// formula assumes a continuous model CDF, so the Deterministic family
    /// is scored as max(frac strictly below, frac strictly above).
    fn ks_atom(&self, v: f64) -> f64 {
        let n = self.total as f64;
        let mut below = 0u64;
        let mut above = 0u64;
        for (&x, &c) in self.unique.iter().zip(&self.counts) {
            if x < v {
                below += c;
            } else if x > v {
                above += c;
            }
        }
        (below as f64 / n).max(above as f64 / n)
    }

    /// KS statistic for a fitted model, early-exiting once the running
    /// supremum reaches `bail_above` (pass `f64::INFINITY` for exact).
    fn ks(&self, dist: &Dist, bail_above: f64) -> f64 {
        if let Dist::Deterministic { v } = *dist {
            self.ks_atom(v)
        } else {
            ks_statistic_grouped(&self.unique, &self.counts, self.total, dist, bail_above)
        }
    }

    /// Initializes and secant-refines one family without scoring it.
    /// Returns `None` when the family is inapplicable to this sample.
    fn refine(&self, family: Family) -> Option<Dist> {
        let mut init = initial(family, &self.moments)?;
        if matches!(family, Family::HyperExp2) {
            init = hyperexp_em_grouped(&self.unique, &self.counts, self.total, init, 40);
        }
        let mut refined = if matches!(family, Family::Deterministic) {
            init
        } else {
            let template = init;
            let fit = minimize(
                &init.params(),
                self.anchors.len(),
                |p, out| {
                    let Some(d) = template.with_params(p) else { return false };
                    // The anchors are sorted quantiles, so a repeated value
                    // (heavy on tick-quantized gaps) sits next to its twin:
                    // evaluate the CDF once per distinct anchor.
                    let (mut last, mut cdf) = (None, 0.0);
                    for (r, &(x, y)) in out.iter_mut().zip(&self.anchors) {
                        if last != Some(x.to_bits()) {
                            (last, cdf) = (Some(x.to_bits()), d.cdf(x));
                        }
                        *r = cdf - y;
                    }
                    true
                },
                SecantOptions::default(),
            );
            match fit {
                Some(f) => template.with_params(&f.params).unwrap_or(template),
                None => template,
            }
        };
        // Erlang-1 *is* the exponential; report it under the simpler name.
        if let Dist::Erlang { k: 1, rate } = refined {
            refined = Dist::Exponential { rate };
        }
        Some(refined)
    }

    fn sse(&self, dist: &Dist) -> f64 {
        self.anchors.iter().map(|&(x, y)| (dist.cdf(x) - y).powi(2)).sum()
    }

    /// Fits one family: closed-form initializer plus multivariate secant
    /// refinement of the CDF least-squares problem, scored exactly.
    /// Returns `None` when the family is inapplicable.
    pub fn fit_family(&self, family: Family) -> Option<FitResult> {
        let refined = self.refine(family)?;
        let ks = self.ks(&refined, f64::INFINITY);
        let r2 = r_squared_cdf_grouped(&self.unique, &self.counts, self.total, &refined);
        Some(FitResult { sse: self.sse(&refined), dist: refined, ks, r2 })
    }

    /// Fits every applicable family and returns the results ranked
    /// best-first by the penalized KS score (see [`fit_all`]).
    pub fn fit_all(&self) -> Vec<FitResult> {
        let mut results: Vec<FitResult> =
            Family::all().iter().filter_map(|&f| self.fit_family(f)).collect();
        results.sort_by(|a, b| penalty(a).partial_cmp(&penalty(b)).unwrap());
        results
    }

    /// The best-ranked fit under the same penalized-KS ordering as
    /// [`FitContext::fit_all`], computed with early exits: each
    /// candidate's KS scan bails as soon as it can no longer beat the
    /// incumbent, and R² is evaluated only for the final winner.
    ///
    /// Returns `None` only when no family applies (cannot happen for
    /// non-empty samples, since deterministic always applies).
    pub fn fit_best(&self) -> Option<FitResult> {
        // Track the incumbent without r2; candidates replace it only on a
        // strictly better penalty, reproducing the first-minimum tie
        // semantics of the stable sort in `fit_all`.
        let mut best: Option<(Dist, f64, f64)> = None; // (dist, ks, penalized)
        for &family in Family::all() {
            let Some(refined) = self.refine(family) else { continue };
            let pp = param_penalty(&refined);
            let bail = match &best {
                // A candidate wins only if ks + pp < best_pen, i.e. its
                // KS stays under best_pen − pp; once the running supremum
                // reaches that, the exact value no longer matters.
                Some((_, _, best_pen)) => best_pen - pp,
                None => f64::INFINITY,
            };
            let ks = self.ks(&refined, bail);
            if ks < bail {
                // ks < bail ⇔ ks + pp < best_pen, and the scan completed
                // without bailing, so ks is exact.
                best = Some((refined, ks, ks + pp));
            }
        }
        let (dist, ks, _) = best?;
        let r2 = r_squared_cdf_grouped(&self.unique, &self.counts, self.total, &dist);
        Some(FitResult { sse: self.sse(&dist), dist, ks, r2 })
    }
}

/// Fits one family to the sample: closed-form initializer plus multivariate
/// secant refinement of the CDF least-squares problem. Returns `None` when
/// the family is inapplicable.
///
/// Convenience wrapper building a throwaway [`FitContext`]; prefer the
/// context when fitting the same sample more than once.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit_family(samples: &[f64], family: Family) -> Option<FitResult> {
    FitContext::new(samples).fit_family(family)
}

/// Fits every applicable family and returns the results ranked best-first.
///
/// Ranking is by the KS statistic with a mild parsimony bias: a model is
/// only preferred over one with fewer parameters if it improves KS by more
/// than 0.005 per extra parameter. This keeps "exponential" ahead of a
/// hyperexponential that degenerates to it, as in the paper's tables.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit_all(samples: &[f64]) -> Vec<FitResult> {
    FitContext::new(samples).fit_all()
}

/// The best-ranked fit, or `None` only for pathological inputs where no
/// family applies (cannot happen for non-empty samples, since
/// deterministic always applies).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit_best(samples: &[f64]) -> Option<FitResult> {
    FitContext::new(samples).fit_best()
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn samples_of(d: Dist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn recovers_exponential() {
        let s = samples_of(Dist::exponential(0.05), 4000, 1);
        let best = fit_best(&s).unwrap();
        assert_eq!(best.dist.family(), Family::Exponential, "got {}", best.dist);
        let Dist::Exponential { rate } = best.dist else { unreachable!() };
        assert!((rate - 0.05).abs() / 0.05 < 0.1, "rate {rate}");
        assert!(best.r2 > 0.99);
    }

    #[test]
    fn recovers_erlang() {
        let s = samples_of(Dist::erlang(4, 0.1), 4000, 2);
        let best = fit_best(&s).unwrap();
        // Erlang-4 has CV = 0.5; acceptable outcomes are erlang or a very
        // close weibull/lognormal — but the KS ranking should prefer erlang.
        assert_eq!(best.dist.family(), Family::Erlang, "got {}", best.dist);
    }

    #[test]
    fn recovers_hyperexponential() {
        let truth = Dist::hyper_exp2(0.15, 1.0, 0.01);
        let s = samples_of(truth, 6000, 3);
        let all = fit_all(&s);
        let best = &all[0];
        assert_eq!(best.dist.family(), Family::HyperExp2, "got {}", best.dist);
        assert!(best.ks < 0.03, "ks = {}", best.ks);
        // The plain exponential must fit clearly worse (CV >> 1).
        let exp = all.iter().find(|r| r.dist.family() == Family::Exponential).unwrap();
        assert!(exp.ks > 2.0 * best.ks);
    }

    #[test]
    fn recovers_uniform() {
        let s = samples_of(Dist::uniform(10.0, 20.0), 4000, 4);
        let best = fit_best(&s).unwrap();
        assert_eq!(best.dist.family(), Family::Uniform, "got {}", best.dist);
    }

    #[test]
    fn recovers_deterministic() {
        let s = vec![7.0; 500];
        let best = fit_best(&s).unwrap();
        assert_eq!(best.dist.family(), Family::Deterministic, "got {}", best.dist);
    }

    #[test]
    fn recovers_gamma() {
        // Non-integer shape so Erlang cannot match it exactly.
        let s = samples_of(Dist::gamma(2.6, 0.08), 6000, 21);
        let r = fit_family(&s, Family::Gamma).unwrap();
        let Dist::Gamma { shape, rate } = r.dist else { panic!("not gamma") };
        assert!((shape - 2.6).abs() < 0.3, "shape {shape}");
        assert!((rate - 0.08).abs() / 0.08 < 0.15, "rate {rate}");
        assert!(r.ks < 0.03, "ks {}", r.ks);
    }

    #[test]
    fn recovers_pareto() {
        let s = samples_of(Dist::pareto(5.0, 2.5), 6000, 22);
        let best = fit_best(&s).unwrap();
        assert_eq!(best.dist.family(), Family::Pareto, "got {}", best.dist);
        let Dist::Pareto { xm, alpha } = best.dist else { unreachable!() };
        assert!((xm - 5.0).abs() < 0.5, "xm {xm}");
        assert!((alpha - 2.5).abs() < 0.4, "alpha {alpha}");
    }

    #[test]
    fn recovers_normal() {
        let s = samples_of(Dist::normal(50.0, 5.0), 4000, 5);
        let best = fit_best(&s).unwrap();
        assert_eq!(best.dist.family(), Family::Normal, "got {}", best.dist);
    }

    #[test]
    fn recovers_lognormal() {
        let s = samples_of(Dist::lognormal(3.0, 1.0), 6000, 6);
        let best = fit_best(&s).unwrap();
        assert!(
            matches!(best.dist.family(), Family::Lognormal),
            "got {} (ks {})",
            best.dist,
            best.ks
        );
    }

    #[test]
    fn refinement_improves_or_preserves_sse() {
        let s = samples_of(Dist::weibull(2.0, 30.0), 3000, 7);
        let r = fit_family(&s, Family::Weibull).unwrap();
        assert!(r.ks < 0.05, "weibull fit ks = {}", r.ks);
    }

    #[test]
    fn nonpositive_samples_skip_positive_families() {
        let s = vec![-1.0, 0.0, 1.0, 2.0, 3.0];
        assert!(fit_family(&s, Family::Lognormal).is_none());
        assert!(fit_family(&s, Family::Weibull).is_none());
        assert!(fit_family(&s, Family::Normal).is_some());
    }

    #[test]
    fn fit_all_is_ranked() {
        let s = samples_of(Dist::exponential(1.0), 2000, 8);
        let all = fit_all(&s);
        assert!(all.len() >= 4);
        let penalty = |r: &FitResult| r.ks + 0.005 * (r.dist.params().len() as f64 - 1.0);
        for w in all.windows(2) {
            assert!(penalty(&w[0]) <= penalty(&w[1]) + 1e-12);
        }
    }

    #[test]
    fn fit_best_agrees_with_fit_all_front() {
        // The early-exit selection must land on the same model (and the
        // same exact scores) as ranking the exhaustive list — including
        // heavily duplicated integer-tick samples where the grouped
        // sweeps do the least work.
        let duplicated: Vec<f64> =
            samples_of(Dist::exponential(0.2), 3000, 11).iter().map(|x| x.round()).collect();
        let cases: [Vec<f64>; 4] = [
            samples_of(Dist::exponential(0.05), 2500, 9),
            samples_of(Dist::hyper_exp2(0.2, 1.0, 0.02), 2500, 10),
            duplicated,
            vec![3.0; 64],
        ];
        for s in &cases {
            let ctx = FitContext::new(s);
            let all = ctx.fit_all();
            let best = ctx.fit_best().unwrap();
            let front = &all[0];
            assert_eq!(best.dist, front.dist, "winner mismatch");
            assert_eq!(best.ks, front.ks, "ks mismatch for {}", best.dist);
            assert_eq!(best.r2, front.r2, "r2 mismatch for {}", best.dist);
            assert_eq!(best.sse, front.sse, "sse mismatch for {}", best.dist);
        }
    }

    #[test]
    fn from_grouped_merge_matches_batch_construction_exactly() {
        // Split a sample into uneven blocks, group each, merge in a
        // skewed order — the resulting fits must be bit-identical to the
        // whole-sample context. This is the contract the out-of-core
        // characterize pipeline rests on.
        let s: Vec<f64> =
            samples_of(Dist::exponential(0.2), 3000, 31).iter().map(|x| x.round()).collect();
        let whole = FitContext::new(&s);
        for &blocks in &[2usize, 7, 64] {
            let chunk = s.len().div_ceil(blocks);
            let groups: Vec<GroupedSample> =
                s.chunks(chunk).map(GroupedSample::from_samples).collect();
            // Fold right-to-left to exercise order-insensitivity.
            let mut merged = GroupedSample::new();
            for g in groups.iter().rev() {
                merged.merge(g);
            }
            let ctx = FitContext::from_grouped(&merged);
            assert_eq!(ctx.unique, whole.unique);
            assert_eq!(ctx.counts, whole.counts);
            assert_eq!(ctx.anchors, whole.anchors, "{blocks} blocks: anchors diverged");
            let (a, b) = (ctx.fit_best().unwrap(), whole.fit_best().unwrap());
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.ks, b.ks);
            assert_eq!(a.r2, b.r2);
            assert_eq!(a.sse, b.sse);
        }
    }

    #[test]
    fn context_reuse_matches_free_functions() {
        let s = samples_of(Dist::gamma(3.0, 0.5), 1500, 12);
        let ctx = FitContext::new(&s);
        assert!(ctx.unique_len() <= ctx.len());
        for &fam in Family::all() {
            let via_ctx = ctx.fit_family(fam);
            let via_free = fit_family(&s, fam);
            match (via_ctx, via_free) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.dist, b.dist);
                    assert_eq!(a.ks, b.ks);
                }
                (a, b) => panic!("applicability mismatch for {fam:?}: {a:?} vs {b:?}"),
            }
        }
    }
}
