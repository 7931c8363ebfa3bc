//! Property-based tests for the statistics toolkit.

use commchar_stats::fit::{fit_best, fit_family, FitContext};
use commchar_stats::gof::{ks_statistic, r_squared_cdf};
use commchar_stats::linreg::fit_line;
use commchar_stats::merge::GroupedSample;
use commchar_stats::spatial::{classify, normalize, sample_destination, SpatialModel};
use commchar_stats::{Dist, Ecdf, Family, Histogram};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.001f64..2.0).prop_map(Dist::exponential),
        (0.05f64..0.95, 0.01f64..2.0, 0.01f64..2.0).prop_map(|(p, a, b)| Dist::hyper_exp2(p, a, b)),
        (1u32..8, 0.01f64..2.0).prop_map(|(k, r)| Dist::erlang(k, r)),
        (0.3f64..10.0, 0.01f64..2.0).prop_map(|(a, r)| Dist::gamma(a, r)),
        (0.5f64..4.0, 1.0f64..100.0).prop_map(|(s, c)| Dist::weibull(s, c)),
        (0.5f64..20.0, 2.5f64..8.0).prop_map(|(xm, a)| Dist::pareto(xm, a)),
        (-1.0f64..4.0, 0.1f64..1.5).prop_map(|(m, s)| Dist::lognormal(m, s)),
        (-50.0f64..50.0, 0.1f64..20.0).prop_map(|(m, s)| Dist::normal(m, s)),
        (-10.0f64..10.0, 0.1f64..100.0).prop_map(|(a, w)| Dist::uniform(a, a + w)),
    ]
}

proptest! {
    /// CDFs are monotone nondecreasing and bounded in [0, 1].
    #[test]
    fn cdf_is_monotone(d in arb_dist(), xs in prop::collection::vec(-200.0f64..500.0, 2..50)) {
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0f64;
        for &x in &xs {
            let c = d.cdf(x);
            prop_assert!((-1e-12..=1.0 + 1e-9).contains(&c), "{d}: cdf({x}) = {c}");
            prop_assert!(c >= prev - 1e-9, "{d}: cdf not monotone at {x}");
            prev = c;
        }
    }

    /// Sampling means converge to the analytic mean (law of large numbers
    /// with a generous tolerance).
    #[test]
    fn sample_mean_converges(d in arb_dist(), seed in 0u64..1_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let tol = 5.0 * (d.variance() / n as f64).sqrt() + 0.02 * d.mean().abs().max(1.0);
        prop_assert!((mean - d.mean()).abs() < tol, "{d}: {mean} vs {}", d.mean());
    }

    /// params/with_params round-trips preserve the distribution.
    #[test]
    fn params_roundtrip(d in arb_dist()) {
        let d2 = d.with_params(&d.params()).unwrap();
        prop_assert_eq!(d, d2);
    }

    /// KS between a distribution and its own large sample is small, and
    /// R² against its own sample is near 1.
    #[test]
    fn gof_recognizes_the_truth(d in arb_dist(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..3_000).map(|_| d.sample(&mut rng)).collect();
        let e = Ecdf::new(samples);
        prop_assert!(ks_statistic(&e, &d) < 0.05, "{d}");
        prop_assert!(r_squared_cdf(&e, &d) > 0.97, "{d}");
    }

    /// `fit_best` always returns a model whose KS is no worse than the
    /// plain exponential fit (model selection can only improve).
    #[test]
    fn fit_best_at_least_as_good_as_exponential(d in arb_dist(), seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..1_500).map(|_| d.sample(&mut rng).abs() + 1e-9).collect();
        let best = fit_best(&samples).unwrap();
        if let Some(exp) = fit_family(&samples, Family::Exponential) {
            prop_assert!(best.ks <= exp.ks + 0.02, "best {} ({}) vs exp {}", best.dist, best.ks, exp.ks);
        }
    }

    /// Histograms conserve mass and integrate to one.
    #[test]
    fn histogram_mass(xs in prop::collection::vec(-100.0f64..100.0, 1..400), bins in 1usize..40) {
        let h = Histogram::from_samples(&xs, bins);
        prop_assert_eq!(h.total(), xs.len() as u64);
        let integral: f64 = (0..h.bins()).map(|i| h.density(i) * h.bin_width()).sum();
        prop_assert!((integral - 1.0).abs() < 1e-9);
    }

    /// Spatial models predict probability vectors: nonnegative, zero at
    /// the source, summing to one.
    #[test]
    fn spatial_predictions_are_distributions(
        n in 3usize..20,
        src in 0usize..20,
        fav in 0usize..20,
        p_fav in 0.01f64..0.99,
        alpha in 0.0f64..5.0,
    ) {
        let src = src % n;
        let mut fav = fav % n;
        if fav == src {
            fav = (fav + 1) % n;
        }
        let d = |a: usize, b: usize| (a as f64 - b as f64).abs();
        for m in [
            SpatialModel::Uniform,
            SpatialModel::BimodalUniform { favorite: fav, p_fav },
            SpatialModel::LocalityDecay { alpha },
        ] {
            let p = m.predict(src, n, &d);
            prop_assert_eq!(p.len(), n);
            prop_assert_eq!(p[src], 0.0);
            prop_assert!(p.iter().all(|&x| x >= 0.0));
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{m}");
        }
    }

    /// Classification of noiseless generated spatial data recovers a model
    /// with near-zero SSE.
    #[test]
    fn classify_fits_generated_models(
        n in 4usize..16,
        src in 0usize..16,
        which in 0usize..3,
        p_fav in 0.3f64..0.9,
        alpha in 0.3f64..3.0,
    ) {
        let src = src % n;
        let d = |a: usize, b: usize| (a as f64 - b as f64).abs();
        let truth = match which {
            0 => SpatialModel::Uniform,
            1 => SpatialModel::BimodalUniform { favorite: (src + 1) % n, p_fav },
            _ => SpatialModel::LocalityDecay { alpha },
        };
        let probs = truth.predict(src, n, &d);
        let fit = classify(&probs, src, &d);
        prop_assert!(fit.sse < 1e-3, "truth {truth}, got {} (sse {})", fit.model, fit.sse);
    }

    /// normalize() produces a probability vector excluding the source.
    #[test]
    fn normalize_properties(counts in prop::collection::vec(0u64..100, 3..20), src in 0usize..20) {
        let src = src % counts.len();
        if let Some(p) = normalize(&counts, src) {
            prop_assert_eq!(p[src], 0.0);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        } else {
            let total: u64 = counts.iter().enumerate().filter(|&(j, _)| j != src).map(|(_, &c)| c).sum();
            prop_assert_eq!(total, 0);
        }
    }

    /// Destination sampling matches the vector's support.
    #[test]
    fn sampling_stays_on_support(raw in prop::collection::vec(0.0f64..1.0, 3..12), seed in 0u64..100) {
        let total: f64 = raw.iter().sum();
        prop_assume!(total > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let j = sample_destination(&raw, &mut rng);
            prop_assert!(raw[j] > 0.0, "sampled zero-probability destination {j}");
        }
    }

    /// Linear regression recovers exact lines.
    #[test]
    fn linreg_exact_on_lines(a in -10.0f64..10.0, b in -100.0f64..100.0, n in 3usize..50) {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, a * i as f64 + b)).collect();
        let fit = fit_line(&pts).unwrap();
        prop_assert!((fit.slope - a).abs() < 1e-7);
        prop_assert!((fit.intercept - b).abs() < 1e-6);
        prop_assert!(fit.r2 > 1.0 - 1e-9 || a == 0.0);
    }

    /// Grouped-sample merge is an exact multiset union: any chunking of a
    /// sample and any merge order (left fold, right fold, pairwise tree)
    /// reproduce the grouped whole exactly. Tick-quantized values force
    /// cross-chunk duplicate runs, the case where counts must add.
    #[test]
    fn grouped_merge_is_order_and_grouping_insensitive(
        ticks in prop::collection::vec(0u32..40, 1..200),
        cut in prop::collection::vec(1usize..20, 1..8),
    ) {
        let samples: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
        let whole = GroupedSample::from_samples(&samples);
        // Split into chunks with proptest-chosen irregular sizes.
        let mut chunks: Vec<GroupedSample> = Vec::new();
        let mut rest: &[f64] = &samples;
        for &c in &cut {
            if rest.is_empty() { break; }
            let c = c.min(rest.len());
            chunks.push(GroupedSample::from_samples(&rest[..c]));
            rest = &rest[c..];
        }
        if !rest.is_empty() {
            chunks.push(GroupedSample::from_samples(rest));
        }
        // Left fold.
        let mut left = GroupedSample::new();
        for c in &chunks {
            left.merge(c);
        }
        prop_assert_eq!(&left, &whole);
        // Right fold (reverse order — commutativity up to grouping).
        let mut right = GroupedSample::new();
        for c in chunks.iter().rev() {
            right.merge(c);
        }
        prop_assert_eq!(&right, &whole);
        // Pairwise tree (associativity).
        let mut level = chunks;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let mut m = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    m.merge(b);
                }
                next.push(m);
            }
            level = next;
        }
        prop_assert_eq!(&level[0], &whole);
    }

    /// Streamed-equals-batch at the fit layer: a `FitContext` built from
    /// merged per-block grouped samples produces *exactly* the same ranked
    /// fits as one built from the whole sample, for any block size and any
    /// of the nine families.
    #[test]
    fn streamed_fit_context_equals_batch(
        d in arb_dist(),
        seed in 0u64..200,
        block in 1usize..97,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Tick-quantize like a trace: nonnegative integer gaps.
        let samples: Vec<f64> =
            (0..600).map(|_| d.sample(&mut rng).abs().round().min(1e6)).collect();
        let batch = FitContext::new(&samples);
        let mut merged = GroupedSample::new();
        for chunk in samples.chunks(block) {
            merged.merge(&GroupedSample::from_samples(chunk));
        }
        let streamed = FitContext::from_grouped(&merged);
        prop_assert_eq!(streamed.len(), batch.len());
        prop_assert_eq!(streamed.unique_len(), batch.unique_len());
        let (sf, bf) = (streamed.fit_all(), batch.fit_all());
        prop_assert_eq!(sf.len(), bf.len());
        for (s, b) in sf.iter().zip(&bf) {
            prop_assert_eq!(&s.dist, &b.dist);
            prop_assert!(s.ks == b.ks || (s.ks.is_nan() && b.ks.is_nan()));
            prop_assert!(s.r2 == b.r2 || (s.r2.is_nan() && b.r2.is_nan()));
            prop_assert!(s.sse == b.sse || (s.sse.is_nan() && b.sse.is_nan()));
        }
    }
}
