//! # commchar-traffic
//!
//! Synthetic traffic generation — the *payoff* of the characterization
//! methodology. The paper's thesis is that an application's communication
//! can be expressed with common distributions which "can be used in the
//! analysis of ICNs for developing realistic performance models"; this
//! crate turns a fitted [`TrafficModel`] (inter-arrival distribution ×
//! spatial distribution × message-length distribution, per source) back
//! into a message stream, and provides the classic synthetic patterns
//! (uniform/Poisson, transpose, bit-complement, hotspot) that network
//! papers of the era assumed — the baselines the methodology improves on.
//!
//! # Example
//!
//! ```
//! use commchar_traffic::{patterns, TrafficModel};
//!
//! let model = patterns::uniform_poisson(8, 0.001, 32);
//! let trace = model.generate(50_000, 42);
//! assert!(trace.len() > 10);
//! assert_eq!(trace.nodes(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod patterns;

use commchar_stats::spatial::sample_destination_of;
use commchar_stats::Dist;
use commchar_trace::{CommEvent, CommTrace, EventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A discrete message-length distribution (lengths in parallel programs
/// are multi-modal: control messages, cache blocks, bulk payloads).
#[derive(Clone, Debug, PartialEq)]
pub struct LengthDist {
    values: Vec<u32>,
    probs: Vec<f64>,
}

impl LengthDist {
    /// Builds from `(bytes, weight)` pairs; weights are normalized.
    ///
    /// # Panics
    ///
    /// Panics if no pair has positive weight.
    pub fn new(pairs: &[(u32, f64)]) -> Self {
        let total: f64 = pairs.iter().map(|p| p.1).sum();
        assert!(total > 0.0, "length distribution needs positive weight");
        LengthDist {
            values: pairs.iter().map(|p| p.0).collect(),
            probs: pairs.iter().map(|p| p.1 / total).collect(),
        }
    }

    /// A single fixed length.
    pub fn fixed(bytes: u32) -> Self {
        LengthDist { values: vec![bytes], probs: vec![1.0] }
    }

    /// Builds the empirical distribution of observed lengths.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty.
    pub fn from_observed(lengths: &[u32]) -> Self {
        assert!(!lengths.is_empty(), "no lengths observed");
        let mut counts = std::collections::BTreeMap::new();
        for &l in lengths {
            *counts.entry(l).or_insert(0u64) += 1;
        }
        Self::from_counts(&counts)
    }

    /// Builds the empirical distribution from pre-tallied length counts —
    /// the streaming form of [`from_observed`](Self::from_observed),
    /// producing bit-identical probabilities for the same multiset.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or sums to zero.
    pub fn from_counts(counts: &std::collections::BTreeMap<u32, u64>) -> Self {
        let n: u64 = counts.values().sum();
        assert!(n > 0, "no lengths observed");
        LengthDist {
            values: counts.keys().copied().collect(),
            probs: counts.values().map(|&c| c as f64 / n as f64).collect(),
        }
    }

    /// Mean length in bytes.
    pub fn mean(&self) -> f64 {
        self.values.iter().zip(&self.probs).map(|(&v, &p)| v as f64 * p).sum()
    }

    /// Iterates the `(bytes, probability)` support — used by the analytic
    /// model to compute service-time moments exactly.
    pub fn support(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.values.iter().copied().zip(self.probs.iter().copied())
    }

    /// Samples a length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let mut u = rng.gen::<f64>();
        for (&v, &p) in self.values.iter().zip(&self.probs) {
            u -= p;
            if u <= 0.0 {
                return v;
            }
        }
        *self.values.last().expect("non-empty by construction")
    }
}

/// The traffic model of one source processor.
#[derive(Clone, Debug)]
pub struct SourceModel {
    /// Message inter-generation time distribution (ticks).
    pub interarrival: Dist,
    /// Destination probabilities (entry = this source must be 0).
    pub spatial: Vec<f64>,
    /// Message length distribution.
    pub length: LengthDist,
}

/// A complete open-loop traffic model: one [`SourceModel`] per processor
/// (`None` for processors that never send).
#[derive(Clone, Debug)]
pub struct TrafficModel {
    sources: Vec<Option<SourceModel>>,
}

impl TrafficModel {
    /// Builds from per-source models.
    ///
    /// # Panics
    ///
    /// Panics if empty, or if any spatial vector length disagrees with the
    /// processor count or puts mass on its own source.
    pub fn new(sources: Vec<Option<SourceModel>>) -> Self {
        assert!(!sources.is_empty(), "traffic model needs at least one source");
        let n = sources.len();
        for (s, m) in sources.iter().enumerate() {
            if let Some(m) = m {
                assert_eq!(m.spatial.len(), n, "spatial vector length mismatch at source {s}");
                assert!(m.spatial[s] == 0.0, "source {s} has self-traffic mass");
                assert!(m.spatial.iter().sum::<f64>() > 0.0, "source {s} has no destinations");
            }
        }
        TrafficModel { sources }
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        self.sources.len()
    }

    /// Per-source models.
    pub fn sources(&self) -> &[Option<SourceModel>] {
        &self.sources
    }

    /// Generates an open-loop trace covering `duration` ticks with a seeded
    /// generator: per source, inter-arrival gaps from the fitted temporal
    /// distribution, destinations from the spatial distribution, lengths
    /// from the length distribution.
    pub fn generate(&self, duration: u64, seed: u64) -> CommTrace {
        let mut trace = CommTrace::new(self.nodes());
        let mut id = 0u64;
        self.each_event(duration, seed, |t, src, dst, bytes| {
            trace.push(CommEvent::new(id, t, src as u16, dst as u16, bytes, EventKind::Data));
            id += 1;
        });
        trace.sort();
        trace
    }

    /// The number of events [`generate`](TrafficModel::generate) makes for
    /// the same `duration` and `seed`, without building or sorting them:
    /// the same draws, counted.
    pub fn count(&self, duration: u64, seed: u64) -> u64 {
        let mut n = 0u64;
        self.each_event(duration, seed, |_, _, _, _| n += 1);
        n
    }

    /// The per-event loop behind [`generate`](TrafficModel::generate) and
    /// [`count`](TrafficModel::count): each source in turn draws gaps,
    /// destinations and lengths from its own seeded stream until its clock
    /// passes `duration`, calling `event(t, src, dst, bytes)` per message.
    fn each_event(&self, duration: u64, seed: u64, mut event: impl FnMut(u64, usize, usize, u32)) {
        for (s, model) in self.sources.iter().enumerate() {
            let Some(model) = model else { continue };
            let mut rng = StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E3779B97F4A7C15));
            // The destination total, summed once per source in the order
            // `sample_destination` sums it on every draw.
            let total: f64 = model.spatial.iter().sum();
            let mut t = 0.0f64;
            loop {
                let gap = model.interarrival.sample(&mut rng).max(0.0);
                t += gap;
                if t > duration as f64 {
                    break;
                }
                let dst = sample_destination_of(&model.spatial, total, &mut rng);
                let bytes = model.length.sample(&mut rng);
                event(t as u64, s, dst, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_dist_sampling() {
        let d = LengthDist::new(&[(8, 3.0), (40, 1.0)]);
        assert!((d.mean() - (8.0 * 0.75 + 40.0 * 0.25)).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(1);
        let mut small = 0;
        for _ in 0..10_000 {
            if d.sample(&mut rng) == 8 {
                small += 1;
            }
        }
        let f = small as f64 / 10_000.0;
        assert!((f - 0.75).abs() < 0.02, "got {f}");
    }

    #[test]
    fn from_observed_matches_frequencies() {
        let d = LengthDist::from_observed(&[8, 8, 8, 32]);
        assert_eq!(d.values, vec![8, 32]);
        assert!((d.mean() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn generation_respects_rate() {
        // Poisson at rate 1/100 ticks for 100k ticks → ~1000 messages.
        let model = TrafficModel::new(vec![
            Some(SourceModel {
                interarrival: Dist::exponential(0.01),
                spatial: vec![0.0, 1.0],
                length: LengthDist::fixed(16),
            }),
            None,
        ]);
        let trace = model.generate(100_000, 7);
        let n = trace.len() as f64;
        assert!((n - 1000.0).abs() < 150.0, "got {n} messages");
        assert!(trace.events().iter().all(|e| e.dst == 1));
    }

    #[test]
    fn generation_is_deterministic() {
        let model = TrafficModel::new(vec![
            Some(SourceModel {
                interarrival: Dist::exponential(0.02),
                spatial: vec![0.0, 0.5, 0.5],
                length: LengthDist::fixed(8),
            }),
            None,
            None,
        ]);
        let a = model.generate(50_000, 9);
        let b = model.generate(50_000, 9);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn self_traffic_rejected() {
        TrafficModel::new(vec![Some(SourceModel {
            interarrival: Dist::exponential(1.0),
            spatial: vec![1.0],
            length: LengthDist::fixed(8),
        })]);
    }
}
