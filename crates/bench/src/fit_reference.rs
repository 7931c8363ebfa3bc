//! The pre-`FitContext` characterization pipeline, retained verbatim as the
//! sequential baseline that `bench_fit` measures against.
//!
//! `commchar-stats` used to rebuild the empirical machinery from scratch for
//! every candidate family — `Ecdf::new` re-sorted the sample per family,
//! KS/R² swept every individual sample, the hyperexponential EM walked the
//! raw sample list, and `fit_all` scored all nine families before `fit_best`
//! took the front of the ranking. Likewise `characterize` walked the trace
//! once per view (aggregate gaps, per-source gaps, profile) and took spatial
//! counts and message lengths from the network log. This module reproduces
//! that pipeline exactly (same initializers, same anchor grid, same secant
//! refinement, same ranking rule) so the benchmark's "sequential" column is
//! the real historical cost, not a strawman — the same technique
//! `bench_flit` uses with its retained cycle-oracle router.
//!
//! Nothing here should be used outside the benchmark harness.

use commchar_core::{CommSignature, TemporalSig, VolumeSig, Workload};
use commchar_stats::fit::FitResult;
use commchar_stats::gof::{ks_statistic, r_squared_cdf};
use commchar_stats::secant::{minimize, SecantOptions};
use commchar_stats::spatial::{classify_with_count, normalize, SpatialFit};
use commchar_stats::{Dist, Ecdf, Family};
use commchar_trace::profile::{interarrival_aggregate, interarrival_by_source};
use commchar_traffic::LengthDist;

/// Number of CDF anchor points used for the least-squares refinement
/// (identical to the live pipeline).
const ANCHORS: usize = 64;

/// Minimum inter-send gaps from a source before its temporal fit is
/// attempted (identical to the live pipeline).
const MIN_SAMPLES: usize = 8;

fn anchors(ecdf: &Ecdf) -> Vec<(f64, f64)> {
    let n = ecdf.len();
    let m = ANCHORS.min(n);
    (0..m)
        .map(|i| {
            let q = (i as f64 + 0.5) / m as f64;
            let x = ecdf.quantile(q);
            (x, ecdf.eval(x))
        })
        .collect()
}

/// Summary statistics used by the initializers (per-sample sweeps, as the
/// old code computed them).
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

fn moments(samples: &[f64]) -> Moments {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() < 2 {
        0.0
    } else {
        samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    };
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let has_nonpositive = min <= 0.0;
    let logs: Vec<f64> = samples.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    let (log_mean, log_var) = if logs.len() >= 2 {
        let lm = logs.iter().sum::<f64>() / logs.len() as f64;
        let lv = logs.iter().map(|l| (l - lm) * (l - lm)).sum::<f64>() / (logs.len() - 1) as f64;
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

/// ln Γ(x): the same Lanczos (g = 7, n = 9) evaluation `commchar-stats`
/// uses internally, duplicated here because the crate only exports it
/// crate-privately and the old Weibull initializer needs Γ(1 + 1/shape).
fn ln_gamma(x: f64) -> f64 {
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Closed-form initial estimate for one family, or `None` when the family
/// cannot describe the sample.
fn initial(family: Family, m: &Moments) -> Option<Dist> {
    match family {
        Family::Exponential => (m.mean > 0.0).then(|| Dist::exponential(1.0 / m.mean)),
        Family::HyperExp2 => {
            if m.mean <= 0.0 {
                return None;
            }
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
            let shape = (m.mean * m.mean / m.var).clamp(0.05, 500.0);
            Some(Dist::gamma(shape, (m.mean / m.var).max(1e-12)))
        }
        Family::Pareto => {
            if m.min <= 0.0 {
                return None;
            }
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
            let cv = m.cv2.sqrt().max(1e-3);
            let shape = cv.powf(-1.0 / 0.926).clamp(0.1, 20.0);
            let scale = m.mean / ln_gamma(1.0 + 1.0 / shape).exp();
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

/// Expectation-maximization over the raw (ungrouped) sample list, as the
/// old pipeline ran it.
fn hyperexp_em(samples: &[f64], init: Dist, iters: usize) -> Dist {
    let Dist::HyperExp2 { mut p, mut r1, mut r2 } = init else { return init };
    for _ in 0..iters {
        let mut sw = 0.0;
        let mut swx = 0.0;
        let mut sux = 0.0;
        let n = samples.len() as f64;
        for &x in samples {
            let x = x.max(0.0);
            let f1 = p * r1 * (-r1 * x).exp();
            let f2 = (1.0 - p) * r2 * (-r2 * x).exp();
            let w = if f1 + f2 > 0.0 { f1 / (f1 + f2) } else { 0.5 };
            sw += w;
            swx += w * x;
            sux += (1.0 - w) * x;
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

/// Fits one family the old way: a fresh `Ecdf` (sort) per family, full
/// per-sample KS and R² sweeps, anchors recomputed from scratch.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit_family_reference(samples: &[f64], family: Family) -> Option<FitResult> {
    assert!(!samples.is_empty(), "cannot fit an empty sample");
    let ecdf = Ecdf::new(samples.to_vec());
    let m = moments(samples);
    let mut init = initial(family, &m)?;
    if matches!(family, Family::HyperExp2) {
        init = hyperexp_em(samples, init, 40);
    }
    let pts = anchors(&ecdf);

    let mut refined = if matches!(family, Family::Deterministic) {
        init
    } else {
        let template = init;
        let fit = minimize(
            &init.params(),
            pts.len(),
            |p, out| {
                let Some(d) = template.with_params(p) else { return false };
                for (r, &(x, y)) in out.iter_mut().zip(&pts) {
                    *r = d.cdf(x) - y;
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

    if let Dist::Erlang { k: 1, rate } = refined {
        refined = Dist::Exponential { rate };
    }

    let sse: f64 = pts.iter().map(|&(x, y)| (refined.cdf(x) - y).powi(2)).sum();
    let ks = if let Dist::Deterministic { v } = refined {
        let below = samples.iter().filter(|&&x| x < v).count() as f64 / samples.len() as f64;
        let above = samples.iter().filter(|&&x| x > v).count() as f64 / samples.len() as f64;
        below.max(above)
    } else {
        ks_statistic(&ecdf, &refined)
    };
    Some(FitResult { dist: refined, ks, r2: r_squared_cdf(&ecdf, &refined), sse })
}

/// Fits every applicable family (each with its own sort and full sweeps)
/// and ranks by penalized KS — the old `fit_all`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit_all_reference(samples: &[f64]) -> Vec<FitResult> {
    let mut results: Vec<FitResult> =
        Family::all().iter().filter_map(|&f| fit_family_reference(samples, f)).collect();
    let penalty = |r: &FitResult| r.ks + 0.005 * (r.dist.params().len() as f64 - 1.0);
    results.sort_by(|a, b| penalty(a).partial_cmp(&penalty(b)).unwrap());
    results
}

/// The best-ranked fit, via the full old ranking (no early exit).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fit_best_reference(samples: &[f64]) -> Option<FitResult> {
    fit_all_reference(samples).into_iter().next()
}

/// The old `characterize`: separate trace walks for the aggregate gaps,
/// the per-source gaps and the profile, spatial counts and message lengths
/// pulled from the network log, and every fit — the aggregate and one per
/// source — run sequentially through the per-family-re-sort pipeline
/// above.
///
/// Returns the signature and the per-source fits (None below 8 gaps).
/// The live pipeline keeps each source's gaps in `TemporalSig::per_source`
/// and fits them only on demand (`TemporalSig::source_fit`); the reference
/// fits them eagerly, so its signature's `per_source` is all `None`.
///
/// # Panics
///
/// Panics if the workload's trace is empty.
pub fn characterize_reference(w: &Workload) -> (CommSignature, Vec<Option<FitResult>>) {
    assert!(!w.trace.is_empty(), "cannot characterize an empty trace");
    let n = w.nprocs;

    let agg = interarrival_aggregate(&w.trace);
    let aggregate = fit_best_reference(&agg).expect("aggregate inter-arrival fit");
    let source_fits = interarrival_by_source(&w.trace)
        .into_iter()
        .map(|gaps| if gaps.len() >= MIN_SAMPLES { fit_best_reference(&gaps) } else { None })
        .collect();
    let burstiness = commchar_stats::burstiness::burstiness(&agg);

    let shape = w.mesh.shape;
    let dist_fn = move |a: usize, b: usize| {
        shape.hop_distance(commchar_mesh::NodeId(a as u16), commchar_mesh::NodeId(b as u16)) as f64
    };
    let counts = w.trace.spatial_counts();
    let spatial: Vec<Option<SpatialFit>> = (0..n)
        .map(|s| {
            let observed = normalize(&counts[s], s)?;
            let sent: u64 = counts[s].iter().sum();
            Some(classify_with_count(&observed, s, &dist_fn, Some(sent)))
        })
        .collect();

    let lengths_raw: Vec<u32> = w.trace.events().iter().map(|e| e.bytes).collect();
    let profile = commchar_trace::profile::profile(&w.trace);
    let volume = VolumeSig {
        messages: profile.messages,
        bytes: profile.bytes,
        mean_bytes: profile.mean_bytes,
        lengths: LengthDist::from_observed(&lengths_raw),
        per_source_msgs: profile.sources.iter().map(|s| s.messages).collect(),
    };

    (
        CommSignature {
            name: w.name.clone(),
            class: w.class,
            nprocs: n,
            temporal: TemporalSig { aggregate, per_source: vec![None; n], burstiness },
            spatial,
            volume,
            network: w.network.summary(),
            exec_ticks: w.exec_ticks,
        },
        source_fits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_fit_matches_the_live_pipeline_statistically() {
        // Heavily tick-quantized exponential-ish gaps: the worst case for
        // the old per-sample sweeps and the bread and butter of the new
        // grouped ones. The two pipelines differ only in summation order
        // and grouping, so the fitted model must agree to fine tolerance.
        let mut state = 9u64;
        let samples: Vec<f64> = (0..4000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (((state >> 16) % 97) + 1) as f64
            })
            .collect();
        let old = fit_best_reference(&samples).expect("reference fit");
        let new = commchar_stats::fit::fit_best(&samples).expect("live fit");
        assert_eq!(old.dist.family(), new.dist.family(), "{} vs {}", old.dist, new.dist);
        assert!((old.ks - new.ks).abs() < 1e-6, "ks {} vs {}", old.ks, new.ks);
        assert!((old.dist.mean() - new.dist.mean()).abs() / old.dist.mean() < 1e-6);
    }
}
