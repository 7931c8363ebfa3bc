//! Spatial traffic models and their classification.
//!
//! The paper expresses each application's *spatial distribution* — the
//! fraction of messages a processor sends to every other processor — in
//! terms of simple models found by regression: **uniform** (every
//! destination equally likely), **bimodal uniform** (one "favorite"
//! processor plus a uniform remainder; observed for IS, Cholesky and the
//! broadcast-rooted MP codes), a **locality decay** where probability
//! falls off with mesh distance, and **nearest neighbour** (ghost-exchange
//! stencils). Classification is sampling-noise aware; see
//! [`classify_with_count`].

use rand::Rng;

/// A fitted spatial model for a single source processor.
#[derive(Clone, Debug, PartialEq)]
pub enum SpatialModel {
    /// Every other processor is an equally likely destination.
    Uniform,
    /// One favorite destination with probability `p_fav`; the remaining
    /// probability is spread uniformly over the other destinations.
    BimodalUniform {
        /// The favorite destination (node index).
        favorite: usize,
        /// Probability mass sent to the favorite.
        p_fav: f64,
    },
    /// Probability decays exponentially with distance: `P(d) ∝ exp(−α·d)`.
    LocalityDecay {
        /// Decay rate α ≥ 0 (α = 0 degenerates to uniform).
        alpha: f64,
    },
    /// All traffic goes to the source's nearest neighbours (minimum
    /// distance), equally — the ghost-exchange pattern of stencil codes
    /// like MG.
    NearestNeighbor,
}

impl SpatialModel {
    /// Short name for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            SpatialModel::Uniform => "uniform",
            SpatialModel::BimodalUniform { .. } => "bimodal-uniform",
            SpatialModel::LocalityDecay { .. } => "locality-decay",
            SpatialModel::NearestNeighbor => "nearest-neighbor",
        }
    }

    /// The model's predicted probability vector for a source `src` among
    /// `n` nodes, given a distance function (`dist(src, j)`).
    ///
    /// Entry `src` is always 0; the rest sums to 1.
    pub fn predict(&self, src: usize, n: usize, dist: &dyn Fn(usize, usize) -> f64) -> Vec<f64> {
        let mut p = vec![0.0; n];
        match *self {
            SpatialModel::Uniform => {
                let v = 1.0 / (n - 1) as f64;
                for (j, pj) in p.iter_mut().enumerate() {
                    if j != src {
                        *pj = v;
                    }
                }
            }
            SpatialModel::BimodalUniform { favorite, p_fav } => {
                let rest = if n > 2 { (1.0 - p_fav) / (n - 2) as f64 } else { 0.0 };
                for (j, pj) in p.iter_mut().enumerate() {
                    if j == src {
                        continue;
                    }
                    *pj = if j == favorite { p_fav } else { rest };
                }
            }
            SpatialModel::LocalityDecay { alpha } => {
                let mut total = 0.0;
                for (j, pj) in p.iter_mut().enumerate() {
                    if j != src {
                        *pj = (-alpha * dist(src, j)).exp();
                        total += *pj;
                    }
                }
                if total > 0.0 {
                    for pj in &mut p {
                        *pj /= total;
                    }
                }
            }
            SpatialModel::NearestNeighbor => {
                let dmin = (0..n)
                    .filter(|&j| j != src)
                    .map(|j| dist(src, j))
                    .fold(f64::INFINITY, f64::min);
                let nearest: Vec<usize> =
                    (0..n).filter(|&j| j != src && dist(src, j) <= dmin + 1e-9).collect();
                let v = 1.0 / nearest.len() as f64;
                for j in nearest {
                    p[j] = v;
                }
            }
        }
        p
    }
}

impl std::fmt::Display for SpatialModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SpatialModel::Uniform => write!(f, "uniform"),
            SpatialModel::BimodalUniform { favorite, p_fav } => {
                write!(f, "bimodal-uniform(fav=p{favorite}, p={p_fav:.3})")
            }
            SpatialModel::LocalityDecay { alpha } => write!(f, "locality-decay(α={alpha:.3})"),
            SpatialModel::NearestNeighbor => write!(f, "nearest-neighbor"),
        }
    }
}

/// The result of classifying one source's destination histogram.
#[derive(Clone, Debug)]
pub struct SpatialFit {
    /// The selected model.
    pub model: SpatialModel,
    /// Sum of squared errors of the model against the observed fractions.
    pub sse: f64,
    /// R² of the model against the observed fractions.
    pub r2: f64,
}

/// Normalizes a destination count vector into probabilities (entry `src`
/// forced to zero). Returns `None` if the source sent no messages.
pub fn normalize(counts: &[u64], src: usize) -> Option<Vec<f64>> {
    let total: u64 = counts.iter().enumerate().filter(|&(j, _)| j != src).map(|(_, &c)| c).sum();
    if total == 0 {
        return None;
    }
    Some(
        counts
            .iter()
            .enumerate()
            .map(|(j, &c)| if j == src { 0.0 } else { c as f64 / total as f64 })
            .collect(),
    )
}

fn sse(obs: &[f64], pred: &[f64]) -> f64 {
    obs.iter().zip(pred).map(|(o, p)| (o - p) * (o - p)).sum()
}

fn r2(obs: &[f64], pred: &[f64], src: usize) -> f64 {
    let n = obs.len();
    let mean: f64 = obs.iter().enumerate().filter(|&(j, _)| j != src).map(|(_, &o)| o).sum::<f64>()
        / (n - 1) as f64;
    let ss_tot: f64 = obs
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != src)
        .map(|(_, &o)| (o - mean) * (o - mean))
        .sum();
    let ss_res: f64 = obs
        .iter()
        .zip(pred)
        .enumerate()
        .filter(|&(j, _)| j != src)
        .map(|(_, (&o, &p))| (o - p) * (o - p))
        .sum();
    if ss_tot == 0.0 {
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// The SSE of [`SpatialModel::LocalityDecay`] against one source's
/// observed probabilities, for the pairs of decay rates the exponent
/// search tries. The source's distances are read once, and each rate
/// takes one `exp` and one division per *distinct* distance; the
/// normalizing total and the SSE are still summed over every destination
/// in destination order, exactly as [`SpatialModel::predict`] and `sse`
/// compute them, so every value is bit-identical to theirs.
struct DecaySse<'a> {
    probs: &'a [f64],
    src: usize,
    /// The distinct distances from the source, sorted.
    distinct: Vec<f64>,
    /// Per destination, the index of its distance in `distinct` (unused
    /// at `src`).
    class: Vec<usize>,
    /// Per distinct distance, its predicted probability at each rate of
    /// the last pair.
    decay: Vec<[f64; 2]>,
}

impl<'a> DecaySse<'a> {
    fn new(probs: &'a [f64], src: usize, dist: &dyn Fn(usize, usize) -> f64) -> Self {
        let d: Vec<f64> =
            (0..probs.len()).map(|j| if j == src { 0.0 } else { dist(src, j) }).collect();
        let mut distinct: Vec<f64> =
            d.iter().enumerate().filter(|&(j, _)| j != src).map(|(_, &x)| x).collect();
        distinct.sort_unstable_by(f64::total_cmp);
        distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let class =
            d.iter().map(|x| distinct.binary_search_by(|y| y.total_cmp(x)).unwrap_or(0)).collect();
        let decay = vec![[0.0; 2]; distinct.len()];
        DecaySse { probs, src, distinct, class, decay }
    }

    /// `sse(probs, &LocalityDecay { alpha }.predict(src, n, dist))` for
    /// both rates. The two sums are independent, so they share one pass
    /// over the destinations and the processor overlaps them.
    fn sse(&mut self, rates: [f64; 2]) -> [f64; 2] {
        for (e, &d) in self.decay.iter_mut().zip(&self.distinct) {
            *e = rates.map(|alpha| (-alpha * d).exp());
        }
        let mut total = [0.0f64; 2];
        for (j, &k) in self.class.iter().enumerate() {
            if j != self.src {
                total[0] += self.decay[k][0];
                total[1] += self.decay[k][1];
            }
        }
        for e in &mut self.decay {
            for (p, &t) in e.iter_mut().zip(&total) {
                if t > 0.0 {
                    *p /= t;
                }
            }
        }
        let mut sse = [0.0f64; 2];
        for (j, (&o, &k)) in self.probs.iter().zip(&self.class).enumerate() {
            let p = if j == self.src { [0.0; 2] } else { self.decay[k] };
            sse[0] += (o - p[0]) * (o - p[0]);
            sse[1] += (o - p[1]) * (o - p[1]);
        }
        sse
    }
}

/// Golden-section search for the minimum of `f` on α ∈ [0, 8]: 60 steps,
/// each evaluating both interior points (`f` takes them as a pair), and
/// the midpoint of the final bracket.
fn golden_section(mut f: impl FnMut([f64; 2]) -> [f64; 2]) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    for _ in 0..60 {
        let a = hi - phi * (hi - lo);
        let b = lo + phi * (hi - lo);
        let [fa, fb] = f([a, b]);
        if fa < fb {
            hi = b;
        } else {
            lo = a;
        }
    }
    0.5 * (lo + hi)
}

/// Fits the candidate spatial models to an observed probability vector and
/// returns the best by SSE, with a parsimony preference for `Uniform`
/// (chosen whenever it is within a small tolerance of the best, so a
/// bimodal model with a meaningless favorite does not win on noise).
///
/// `dist(src, j)` supplies the mesh distance used by the locality model.
/// Equivalent to [`classify_with_count`] without sampling-noise awareness.
/// With fewer than two candidate destinations (`probs.len() < 3`) every
/// model predicts the same vector, and the result is an exact `Uniform`.
pub fn classify(probs: &[f64], src: usize, dist: &dyn Fn(usize, usize) -> f64) -> SpatialFit {
    classify_with_count(probs, src, dist, None)
}

/// Like [`classify`], but `samples` (the number of messages behind the
/// observed probabilities) widens the uniform-preference tolerance to the
/// expected sampling-noise SSE — 3σ-scaled `Σ p(1−p)/m` — so finite observations of
/// genuinely uniform traffic are not misclassified as bimodal.
pub fn classify_with_count(
    probs: &[f64],
    src: usize,
    dist: &dyn Fn(usize, usize) -> f64,
    samples: Option<u64>,
) -> SpatialFit {
    let n = probs.len();
    if n < 3 {
        return SpatialFit { model: SpatialModel::Uniform, sse: 0.0, r2: 1.0 };
    }

    let mut candidates: Vec<SpatialModel> = vec![SpatialModel::Uniform];

    // Bimodal: favorite = argmax.
    let favorite = (0..n)
        .filter(|&j| j != src)
        .max_by(|&a, &b| probs[a].partial_cmp(&probs[b]).unwrap())
        .unwrap();
    candidates.push(SpatialModel::BimodalUniform { favorite, p_fav: probs[favorite] });

    // Locality decay: golden-section search on α ∈ [0, 8].
    let mut decay = DecaySse::new(probs, src, dist);
    let alpha = golden_section(|rates| decay.sse(rates));
    candidates.push(SpatialModel::LocalityDecay { alpha });
    candidates.push(SpatialModel::NearestNeighbor);

    let mut fits: Vec<SpatialFit> = candidates
        .into_iter()
        .map(|m| {
            let pred = m.predict(src, n, dist);
            SpatialFit { sse: sse(probs, &pred), r2: r2(probs, &pred, src), model: m }
        })
        .collect();
    // Equal-SSE ties go to the more structural model: a bimodal fit with
    // its favorite at the argmax can always match a point-mass pattern,
    // but "nearest neighbour" or "locality" explains *why* that
    // destination wins.
    let rank = |m: &SpatialModel| match m {
        SpatialModel::Uniform => 0,
        SpatialModel::NearestNeighbor => 1,
        SpatialModel::LocalityDecay { .. } => 2,
        SpatialModel::BimodalUniform { .. } => 3,
    };
    fits.sort_by(|a, b| a.sse.partial_cmp(&b.sse).unwrap());
    let best_sse = fits[0].sse;
    let winner = fits
        .iter()
        .filter(|f| f.sse <= best_sse + 1e-9)
        .min_by_key(|f| rank(&f.model))
        .cloned()
        .expect("at least one fit");
    fits.retain(|f| f.model != winner.model);
    fits.insert(0, winner);
    let noise_sse = samples
        .filter(|&m| m > 0)
        .map(|m| 3.0 * probs.iter().map(|&p| p * (1.0 - p)).sum::<f64>() / m as f64)
        .unwrap_or(0.0);
    let tolerance = 5e-4 + noise_sse;
    // A genuine favorite must survive the widened tolerance: uniform is
    // rejected outright when the peak destination is both statistically
    // significant (3σ of a finite-sample binomial cell) and practically
    // meaningful (at least 1.5× the uniform share — the paper's favorites
    // are 2× and more).
    let peak_is_noise = match samples.filter(|&m| m > 0) {
        None => true,
        Some(m) => {
            let p_u = 1.0 / (n - 1) as f64;
            let sigma = (p_u * (1.0 - p_u) / m as f64).sqrt();
            let peak = probs.iter().cloned().fold(0.0, f64::max);
            (peak - p_u).abs() <= 3.0 * sigma || peak < 1.5 * p_u
        }
    };
    if peak_is_noise {
        if let Some(uniform) = fits.iter().find(|f| f.model == SpatialModel::Uniform) {
            if uniform.sse <= best_sse + tolerance {
                return uniform.clone();
            }
        }
    }
    fits.into_iter().next().unwrap()
}

/// Samples a destination from a probability vector (entry `src` is 0).
///
/// # Panics
///
/// Panics if the vector has no positive mass.
pub fn sample_destination<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let total: f64 = probs.iter().sum();
    assert!(total > 0.0, "destination vector has no mass");
    let mut u = rng.gen::<f64>() * total;
    for (j, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 && p > 0.0 {
            return j;
        }
    }
    // Floating-point slack: return the last positive entry.
    probs.iter().rposition(|&p| p > 0.0).unwrap()
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn flat_dist(_: usize, _: usize) -> f64 {
        1.0
    }

    #[test]
    fn a_single_destination_is_exactly_uniform() {
        let fit = classify_with_count(&[0.0, 1.0], 0, &flat_dist, Some(40));
        assert_eq!(fit.model, SpatialModel::Uniform);
        assert_eq!(fit.sse, 0.0);
    }

    #[test]
    fn uniform_is_recognized() {
        let n = 8;
        let probs: Vec<f64> =
            (0..n).map(|j| if j == 2 { 0.0 } else { 1.0 / (n - 1) as f64 }).collect();
        let fit = classify(&probs, 2, &flat_dist);
        assert_eq!(fit.model, SpatialModel::Uniform);
        assert!(fit.sse < 1e-12);
    }

    #[test]
    fn favorite_processor_is_recognized() {
        let n = 8;
        let mut probs = vec![0.05; n];
        probs[0] = 0.0; // src
        probs[5] = 0.70;
        let fit = classify(&probs, 0, &flat_dist);
        match fit.model {
            SpatialModel::BimodalUniform { favorite, p_fav } => {
                assert_eq!(favorite, 5);
                assert!((p_fav - 0.70).abs() < 1e-12);
            }
            other => panic!("expected bimodal, got {other}"),
        }
    }

    #[test]
    fn locality_decay_is_recognized() {
        // 1-D line distances; α = 1 decay.
        let n = 8;
        let src = 0;
        let d = |a: usize, b: usize| (a as f64 - b as f64).abs();
        let truth = SpatialModel::LocalityDecay { alpha: 1.0 };
        let probs = truth.predict(src, n, &d);
        let fit = classify(&probs, src, &d);
        match fit.model {
            SpatialModel::LocalityDecay { alpha } => {
                assert!((alpha - 1.0).abs() < 0.05, "alpha = {alpha}");
            }
            other => panic!("expected locality decay, got {other}"),
        }
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn nearest_neighbor_is_recognized() {
        // 1-D line: source 3's nearest neighbours are 2 and 4.
        let n = 8;
        let d = |a: usize, b: usize| (a as f64 - b as f64).abs();
        let truth = SpatialModel::NearestNeighbor;
        let probs = truth.predict(3, n, &d);
        assert!((probs[2] - 0.5).abs() < 1e-12);
        assert!((probs[4] - 0.5).abs() < 1e-12);
        let fit = classify(&probs, 3, &d);
        assert_eq!(fit.model, SpatialModel::NearestNeighbor, "got {}", fit.model);
        assert!(fit.sse < 1e-9);
    }

    /// Mesh or torus hop distance on a `w × h` grid, nodes numbered
    /// row-major, as `commchar-mesh`'s `MeshShape::hop_distance` counts it.
    fn grid_dist(w: usize, h: usize, torus: bool) -> impl Fn(usize, usize) -> f64 {
        move |a, b| {
            let (dx, dy) = ((a % w).abs_diff(b % w), (a / w).abs_diff(b / w));
            let (dx, dy) = if torus { (dx.min(w - dx), dy.min(h - dy)) } else { (dx, dy) };
            (dx + dy) as f64
        }
    }

    #[test]
    fn the_decay_search_is_bit_identical_to_predict_and_sse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let shapes =
            [(3, 1), (2, 2), (4, 2), (3, 5), (4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (7, 9)];
        for (w, h) in shapes {
            let n = w * h;
            for torus in [false, true] {
                let dist = grid_dist(w, h, torus);
                for case in 0..6 {
                    let src = (rng.gen::<u64>() % n as u64) as usize;
                    // Dense, sparse (most destinations never hit) and
                    // distance-decaying histograms.
                    let counts: Vec<u64> = (0..n)
                        .map(|j| match case % 3 {
                            0 => rng.gen::<u64>() % 50,
                            1 if rng.gen_bool(0.8) => 0,
                            1 => 1 + rng.gen::<u64>() % 8,
                            _ => {
                                (400.0 * (-0.7 * dist(src, j)).exp()) as u64 + rng.gen::<u64>() % 3
                            }
                        })
                        .collect();
                    let Some(probs) = normalize(&counts, src) else { continue };
                    let reference = |alpha: f64| {
                        sse(&probs, &SpatialModel::LocalityDecay { alpha }.predict(src, n, &dist))
                    };
                    let mut fast = DecaySse::new(&probs, src, &dist);
                    for _ in 0..20 {
                        let rates = [8.0 * rng.gen::<f64>(), 8.0 * rng.gen::<f64>()];
                        assert_eq!(
                            fast.sse(rates).map(f64::to_bits),
                            rates.map(reference).map(f64::to_bits)
                        );
                    }
                    let ends = [0.0, 8.0];
                    assert_eq!(
                        fast.sse(ends).map(f64::to_bits),
                        ends.map(reference).map(f64::to_bits)
                    );
                    let searched = golden_section(|rates| fast.sse(rates));
                    let want = golden_section(|rates| rates.map(reference));
                    assert_eq!(searched.to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn normalize_excludes_source() {
        let counts = vec![10, 30, 60];
        let p = normalize(&counts, 0).unwrap();
        assert_eq!(p[0], 0.0);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((p[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!(normalize(&[5, 0, 0], 0).is_none());
    }

    #[test]
    fn predictions_sum_to_one() {
        let d = |a: usize, b: usize| (a as f64 - b as f64).abs();
        for model in [
            SpatialModel::Uniform,
            SpatialModel::BimodalUniform { favorite: 3, p_fav: 0.5 },
            SpatialModel::LocalityDecay { alpha: 0.7 },
            SpatialModel::NearestNeighbor,
        ] {
            let p = model.predict(1, 9, &d);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{model}");
            assert_eq!(p[1], 0.0, "{model}: src must get zero");
        }
    }

    #[test]
    fn sampling_respects_distribution() {
        let probs = vec![0.0, 0.25, 0.75];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut hits = [0usize; 3];
        for _ in 0..20_000 {
            hits[sample_destination(&probs, &mut rng)] += 1;
        }
        assert_eq!(hits[0], 0);
        let f1 = hits[1] as f64 / 20_000.0;
        assert!((f1 - 0.25).abs() < 0.02, "f1 = {f1}");
    }
}
