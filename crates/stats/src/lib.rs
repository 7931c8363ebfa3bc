//! # commchar-stats
//!
//! The statistical-analysis substrate of the characterization methodology —
//! a from-scratch substitute for the SAS/STAT package the paper used.
//!
//! Provides:
//!
//! - [`Dist`] — the candidate distribution families the paper fits message
//!   inter-arrival times to (exponential, 2-phase hyperexponential, Erlang,
//!   gamma, Weibull, lognormal, Pareto, normal, uniform, deterministic),
//!   each with pdf, cdf, moments and seeded sampling.
//! - [`Histogram`] / [`Ecdf`] — binned and empirical views of a sample.
//! - Fitting: closed-form MLE / method-of-moments initializers per family
//!   ([`fit`]), refined by non-linear least squares using the
//!   **multivariate secant (Broyden) method** ([`secant`]) — the same
//!   iterative curve-fitting procedure the paper ran in SAS — and ranked
//!   model selection ([`fit::fit_best`]). Repeated fits over one sample
//!   share a [`fit::FitContext`] (one sort, one dedup, one moments pass).
//! - [`merge`] — mergeable grouped samples ([`merge::GroupedSample`]):
//!   sorted `(value, count)` runs whose multiset union is exact, so
//!   per-block partial samples built in parallel fold into the same
//!   `FitContext` the batch path builds — the substrate of out-of-core
//!   characterization.
//! - Goodness-of-fit ([`gof`]): Kolmogorov–Smirnov statistic and R²
//!   against the empirical CDF (the paper reports regression R²).
//! - [`spatial`] — spatial traffic models (uniform, bimodal-uniform /
//!   favorite-processor, locality decay) with classification by regression,
//!   reproducing the paper's spatial-distribution analysis.
//! - [`burstiness`] — CV², index of dispersion for intervals, and
//!   autocorrelation: the correlation structure a marginal fit cannot
//!   express (the paper's caveat about bursty applications).
//! - [`linreg`] — simple linear regression, used to validate the SP2
//!   software-overhead model `a·x + b`.
//!
//! # Example: recover an exponential from its samples
//!
//! ```
//! use commchar_stats::{fit, Dist};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let truth = Dist::exponential(0.05);
//! let samples: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
//! let best = fit::fit_best(&samples).expect("non-empty sample");
//! assert_eq!(best.dist.family_name(), "exponential");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod histogram;
mod special;

pub mod burstiness;
pub mod fit;
pub mod gof;
pub mod linreg;
pub mod merge;
pub mod secant;
pub mod spatial;

pub use dist::{Dist, Family};
pub use histogram::{Ecdf, Histogram};
