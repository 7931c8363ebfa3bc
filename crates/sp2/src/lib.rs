//! # commchar-sp2
//!
//! A message-passing runtime with the IBM SP2's validated communication
//! cost model — the *static strategy* substrate of the methodology.
//!
//! The paper ran its message-passing applications (3D-FFT and MG from the
//! NAS suite) on a real IBM SP2 and traced communication calls at the
//! application (MPI) level with an IBM utility; the traces were then fed to
//! the 2-D mesh simulator. This crate reproduces the tracing half:
//! applications written against [`Rank`] (send/recv plus the collectives
//! the NAS codes use) execute for real as coroutines that [`run_mp`] polls
//! on the caller's thread, while a per-rank logical clock advances by the
//! paper's measured SP2 software overhead — `4.63e-2·x + 73.42 µs` to
//! transfer `x` bytes — plus a simple wire model. Every point-to-point message is recorded as a
//! [`commchar_trace::CommEvent`], annotated with the id of the message the
//! sender most recently *received* so the causal replayer can preserve
//! happens-before order on the simulated mesh.
//!
//! Collectives decompose into point-to-point messages rooted at rank 0
//! (linear algorithms, as in the early MPL/MPI implementations), which is
//! exactly what makes p0 the "favorite" processor in the paper's spatial
//! distributions while the *volume* distribution stays uniform.
//!
//! # Example
//!
//! ```
//! use commchar_sp2::{run_mp, Sp2Config};
//!
//! let cfg = Sp2Config::new(4);
//! let out = run_mp(cfg, |mut rank| async move {
//!     let me = rank.rank() as f64;
//!     let sum = rank.reduce_sum(0, &[me]).await;
//!     let total = rank.bcast(0, if rank.rank() == 0 { sum } else { vec![] }).await;
//!     assert_eq!(total[0], 0.0 + 1.0 + 2.0 + 3.0);
//! });
//! assert!(out.trace.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod runtime;

pub use config::Sp2Config;
pub use runtime::{run_mp, MpRun, Rank};
