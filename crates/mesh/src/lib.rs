//! # commchar-mesh
//!
//! A 2-D mesh, wormhole-routed interconnection network simulator — the
//! network substrate of the HPCA'97 communication-characterization
//! methodology. The paper's simulator was process-oriented (CSIM); this
//! crate provides two interchangeable models sharing one log schema:
//!
//! - [`OnlineWormhole`] — an event/recurrence wormhole model at channel
//!   granularity. Messages must be injected in nondecreasing time order and
//!   each [`OnlineWormhole::send`] immediately returns the delivery time,
//!   which is exactly what the execution-driven (closed-loop) simulator
//!   needs: the network's feedback steers application time.
//! - [`FlitLevel`] — a cycle-accurate router model (finite input buffers,
//!   round-robin switch allocation, wormhole flow control) used for
//!   cross-validation and ablation of the faster model. Its engine is
//!   event-driven (per-output request queues, hop cursors, a binary-heap
//!   event wheel) but cycle-identical to the retained cycle-loop oracle
//!   [`FlitCycleReference`], which pins its semantics via a randomized
//!   equivalence suite.
//!
//! Both models close the paper's Figure 1 feedback loop through the
//! [`NetEngine`] trait: [`OnlineWormhole`] natively, and [`FlitLevel`]
//! through its closed loop, which takes one message at a time and
//! advances the event wheel just far enough to report each delivery while
//! keeping the final log cycle-identical to a batch run. Drivers select
//! between them at runtime via [`EngineKind`].
//!
//! Every model delivers one [`MsgRecord`] per message — injection time,
//! delivery time, hop count and blocked (contention) time — into a
//! [`LogSink`]. A [`NetTally`] folds each record into the exact
//! [`NetSummary`] the characterization reads (mean, median and p95
//! latency, contention, hops, span, throughput) without keeping the
//! record, so its memory does not grow with the message count; a
//! [`NetLog`] keeps every record, for the checks where each message's
//! identity is the point.
//!
//! # Example
//!
//! ```
//! use commchar_mesh::{MeshConfig, NetMessage, NodeId, OnlineWormhole};
//! use commchar_des::SimTime;
//!
//! let cfg = MeshConfig::new(4, 2); // 4x2 mesh, 8 nodes
//! let mut net = OnlineWormhole::new(cfg);
//! let delivered = net.send(NetMessage {
//!     id: 0,
//!     src: NodeId(0),
//!     dst: NodeId(7),
//!     bytes: 40,
//!     inject: SimTime::ZERO,
//! });
//! assert!(delivered > SimTime::ZERO);
//! let log = net.into_log();
//! assert_eq!(log.records().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod flit;
mod flit_ref;
mod log;
mod sink;
mod topology;
mod wormhole;

pub use config::MeshConfig;
pub use engine::{EngineError, EngineKind, NetEngine};
pub use flit::{FlitLevel, FlitWork};
pub use flit_ref::FlitCycleReference;
pub use log::{MsgRecord, NetLog, NetSummary};
pub use sink::{LogSink, NetTally};
pub use topology::{
    ChannelId, Coord, MeshShape, NodeId, Routing, Topology, HOP_PORT_BITS, HOP_PORT_LOCAL,
    HOP_PORT_MASK,
};
pub use wormhole::OnlineWormhole;

use commchar_des::SimTime;

/// A message presented to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetMessage {
    /// Caller-chosen identifier, preserved in the log.
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node. Must differ from `src`.
    pub dst: NodeId,
    /// Payload length in bytes (headers are added by the model).
    pub bytes: u32,
    /// Time the message is handed to the source network interface.
    pub inject: SimTime,
}
