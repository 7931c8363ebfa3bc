//! # commchar-spasm
//!
//! An execution-driven CC-NUMA multiprocessor simulator — the *dynamic
//! strategy* of the HPCA'97 characterization methodology, standing in for
//! the SPASM simulator the paper ran its shared-memory applications on.
//!
//! Like SPASM, the simulator does not interpret instructions: application
//! code runs natively and only the "interesting" operations — shared
//! memory LOADs/STOREs and synchronization — trap into the simulation
//! engine. Here each simulated processor's program is a Rust future (an
//! `async` body), and every trap is an `.await` on a [`Ctx`] operation:
//! the trap leaves its request with the engine and suspends the body,
//! and the engine polls the body again once the access has completed in
//! simulated time. No OS thread runs per processor, so a trap costs a
//! function return rather than a thread switch. The engine simulates, per
//! access:
//!
//! - a private direct-mapped cache per processor,
//! - a full-map directory, invalidation-based MSI coherence protocol with
//!   sequential consistency (the processor blocks until its access
//!   completes), and
//! - every protocol message (request, data reply, invalidation, ack,
//!   recall, write-back) traveling through the 2-D wormhole mesh of
//!   [`commchar_mesh`], whose latency feeds back into simulated time — the
//!   closed loop between event generator and network simulator that
//!   distinguishes execution-driven from trace-driven simulation. The
//!   engine behind that loop is pluggable
//!   ([`commchar_mesh::NetEngine`]): the recurrence wormhole model by
//!   default, or the cycle-accurate flit router via
//!   [`MachineConfig::with_engine`].
//!
//! The run produces a [`SpasmRun`]: the [`commchar_trace::CommTrace`] of
//! injected messages, the network engine's sink (a
//! [`commchar_mesh::NetLog`] of every message, or the exact
//! [`commchar_mesh::NetTally`] summary), and summary counters — the raw material of the characterization pipeline.
//!
//! # Example
//!
//! ```
//! use commchar_mesh::NetLog;
//! use commchar_spasm::{run, MachineConfig};
//!
//! let cfg = MachineConfig::new(4);
//! let out = run(cfg, |m| m.alloc(64), |mut ctx, region| async move {
//!     let p = ctx.proc_id();
//!     ctx.write(region, p, p as u64).await;
//!     ctx.barrier(0).await;
//!     // Read a neighbour's slot: guaranteed visible after the barrier.
//!     let v = ctx.read(region, (p + 1) % ctx.nprocs()).await;
//!     assert_eq!(v, ((p + 1) % ctx.nprocs()) as u64);
//! }, NetLog::new());
//! assert!(!out.trace.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod config;
mod engine;
mod protocol;
mod shard;

pub use api::{Ctx, Region, Setup};
pub use config::{MachineConfig, Protocol};
pub use engine::{run, run_with, try_run_with, SpasmError, SpasmRun};
