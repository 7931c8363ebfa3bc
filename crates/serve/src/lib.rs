//! `commchar-serve` — a framed-protocol characterization server with
//! concurrent online-fit sessions.
//!
//! The offline tools answer "what did this application's communication
//! look like?" after the fact; this crate answers it **while the trace
//! is still being produced**. A producer (an instrumented run, a
//! simulator shard, a trace replayer) opens a session over TCP, streams
//! CCTRACE1-encoded event blocks, and may poll at any time for the
//! current [`CommSignature`](commchar_core) report — the same report
//! `commchar characterize` prints, converging block by block as events
//! arrive. The final report returned by `CloseSession` is byte-identical
//! to the offline analysis of the same events, because both funnel into
//! [`commchar_core::analyze::try_analyze_extract`].
//!
//! Three pieces:
//!
//! - [`protocol`] — the CCSERVE1 wire format: length-prefixed,
//!   checksummed frames carrying typed commands/responses
//!   ([`Msg`]) and a typed failure taxonomy ([`ServeError`]). Frames
//!   reuse the `(length, FNV-1a checksum, payload)` discipline of
//!   CCTRACE1 blocks, and `TraceBlocks` payloads *are* CCTRACE1 block
//!   payloads — a packed trace file can be replayed to the server
//!   without re-encoding.
//! - [`server`] — [`Server`]: sessions multiplexed over a set of
//!   connection workers on scoped threads, each frame's blocks
//!   decoded before its reply under a per-frame bound with explicit
//!   [`Backpressure`](ServeError::Backpressure) refusals, idle-session
//!   eviction, and atomic [`ServerStats`] counters.
//! - [`client`] — [`ServeClient`]: a small blocking client used by the
//!   `commchar serve-feed` driver, the soak tests and the benches.
//!
//! Everything is `std`-only: no async runtime, no external networking
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::ServeClient;
pub use protocol::{Msg, ServeError, ServerStats, MAX_FRAME, PROTOCOL_VERSION};
pub use server::{ServeConfig, Server, ServerHandle};
