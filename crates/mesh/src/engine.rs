//! Pluggable closed-loop network engines — the feedback arrow of the
//! paper's Figure 1 as a trait.
//!
//! The methodology's execution-driven acquisition loop needs exactly one
//! thing from the network: *inject a message now, learn its delivery time
//! immediately*, so the network's latency can steer application time. The
//! paper hard-wired that loop to its single CSIM simulator; this crate
//! originally hard-wired it to [`OnlineWormhole`]. [`NetEngine`] names the
//! contract instead, so every driver (the shared-memory co-simulation, the
//! causal trace replayer, the suite runner, the CLI) is generic over which
//! network answers:
//!
//! - [`OnlineWormhole`] — the channel-granularity recurrence model. Its
//!   [`send`](OnlineWormhole::send) already *is* the closed loop; the trait
//!   impl is zero-cost delegation.
//! - [`FlitLevel`] — the cycle-accurate router. It is not causal (a later
//!   injection can change an earlier delivery), so its closed loop commits
//!   only cycles no future injection can perturb and speculates ahead for
//!   each answer: the best feedback given all traffic so far, while the
//!   **final log is cycle-identical to a batch run** over the same
//!   schedule, the property the equivalence suite pins.
//!
//! [`EngineKind`] is the runtime selector the CLI's `--engine` flag parses
//! into; drivers match on it to construct the engine they are generic over.

use commchar_des::SimTime;

use crate::sink::LogSink;
use crate::{FlitLevel, MeshConfig, NetMessage, OnlineWormhole, Routing, Topology};

/// An error surfaced by a closed-loop engine instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A message was injected earlier than a previously injected one.
    /// Closed-loop engines resolve contention in injection order, so a
    /// time-ordered feed is part of the contract; a violation means the
    /// trace (or the driver's event loop) is malformed.
    OutOfOrder {
        /// Id of the offending message.
        id: u64,
        /// Its injection time.
        inject: SimTime,
        /// The latest injection time seen before it.
        last: SimTime,
    },
    /// The router wedged: no event can ever fire again yet undelivered
    /// worms remain (a routing/allocation deadlock, or a guard-limit
    /// blowout on a pathological schedule). The report lists every
    /// undelivered worm with its progress so the workload is debuggable;
    /// in a sharded run the shards agree to stop and surface this error
    /// instead of aborting a worker thread.
    Wedged {
        /// Human-readable wedge report (undelivered worms and progress).
        report: String,
    },
    /// The flit-accurate router was configured with fewer virtual channels
    /// than its (topology × routing) pair needs for deadlock freedom: the
    /// torus dateline (escape) discipline and the adaptive XY/YX split
    /// each require their own virtual-channel class (see
    /// [`Routing::vc_classes`]). Raise `virtual_channels` — or build the
    /// configuration with [`MeshConfig::for_nodes_net`], which sizes the
    /// budget automatically.
    UnsupportedTopology {
        /// The configured topology.
        topology: Topology,
        /// The configured routing policy.
        routing: Routing,
        /// Virtual-channel classes the pair needs.
        needed: usize,
        /// Virtual channels actually configured.
        have: usize,
    },
}

impl EngineError {
    /// Validates that `cfg` carries enough virtual channels for the
    /// flit-accurate router's deadlock-freedom discipline.
    pub(crate) fn check_flit(cfg: &MeshConfig) -> Result<(), EngineError> {
        let needed = cfg.vc_classes();
        if cfg.virtual_channels < needed {
            return Err(EngineError::UnsupportedTopology {
                topology: cfg.shape.topology(),
                routing: cfg.routing,
                needed,
                have: cfg.virtual_channels,
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfOrder { id, inject, last } => write!(
                f,
                "messages must be injected in nondecreasing time order \
                 (message {id} at {inject:?} after {last:?})"
            ),
            EngineError::Wedged { report } => write!(f, "{report}"),
            EngineError::UnsupportedTopology { topology, routing, needed, have } => write!(
                f,
                "a {topology} with {routing} routing needs {needed} \
                 virtual-channel class(es) for deadlock freedom, but only \
                 {have} virtual channel(s) are configured — raise the \
                 virtual-channel count (MeshConfig::for_nodes_net sizes it \
                 automatically)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Which network engine closes the loop — the runtime selector behind the
/// CLI's `--engine recurrence|flit` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The channel-granularity recurrence model ([`OnlineWormhole`]) —
    /// fast, causal, the default and the historical behavior.
    #[default]
    Recurrence,
    /// The cycle-accurate flit router ([`FlitLevel`]) in its closed loop —
    /// slower, but the final log is cycle-identical to a batch run of the
    /// same model. Drivers take the shard count for its final drain
    /// (`--sim-jobs`) separately; the output is byte-identical for every
    /// value.
    FlitLevel,
}

impl EngineKind {
    /// The flit engine — what `--engine flit` parses to.
    pub fn flit() -> EngineKind {
        EngineKind::FlitLevel
    }

    /// The flag spelling of this kind (`"recurrence"` / `"flit"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Recurrence => "recurrence",
            EngineKind::FlitLevel => "flit",
        }
    }

    /// Parses a `--engine` flag value.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "recurrence" => Some(EngineKind::Recurrence),
            "flit" => Some(EngineKind::flit()),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A closed-loop network engine: inject one message at a time, in
/// nondecreasing injection order, and learn each delivery time
/// immediately — the feedback arrow from the network simulator to the
/// event generator in the paper's Figure 1.
///
/// Implementations log every delivered message into a [`LogSink`] and
/// hand it over (with per-channel utilization) at [`finish`](NetEngine::finish).
pub trait NetEngine {
    /// The sink accumulating this engine's records.
    type Sink: LogSink;

    /// The network configuration.
    fn config(&self) -> &MeshConfig;

    /// Injects a message and returns the delivery time of its tail flit
    /// at the destination network interface, or
    /// [`EngineError::OutOfOrder`] if `msg.inject` precedes a previously
    /// injected message.
    fn send(&mut self, msg: NetMessage) -> Result<SimTime, EngineError>;

    /// Finishes the simulation and returns the sink, with per-channel
    /// utilization over the observed span folded in.
    fn finish(self) -> Self::Sink;

    /// A lower bound on the delivery latency of any message between two
    /// distinct nodes: `send` never returns a delivery time earlier than
    /// `msg.inject + min_latency()`. Conservative-window parallel drivers
    /// use this as their lookahead — events less than `min_latency()` ahead
    /// of a shard's clock cannot be affected by messages other shards have
    /// not injected yet.
    ///
    /// The default is the zero-load latency of a minimal single-hop
    /// message, which neither the wormhole recurrence (its per-hop
    /// recurrence only ever *adds* waiting to the zero-load schedule) nor
    /// the cycle-accurate flit router (pinned to the same zero-load model
    /// at zero load, and contention only delays) can undercut.
    fn min_latency(&self) -> u64 {
        self.config().zero_load_latency(1, 1)
    }
}

impl<S: LogSink> NetEngine for OnlineWormhole<S> {
    type Sink = S;

    fn config(&self) -> &MeshConfig {
        OnlineWormhole::config(self)
    }

    fn send(&mut self, msg: NetMessage) -> Result<SimTime, EngineError> {
        self.try_send(msg)
    }

    fn finish(self) -> S {
        self.into_sink()
    }
}

impl<S: LogSink> NetEngine for FlitLevel<S> {
    type Sink = S;

    fn config(&self) -> &MeshConfig {
        FlitLevel::config(self)
    }

    fn send(&mut self, msg: NetMessage) -> Result<SimTime, EngineError> {
        self.try_send(msg)
    }

    fn finish(self) -> S {
        self.into_sink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn msg(id: u64, src: u16, dst: u16, bytes: u32, inject: u64) -> NetMessage {
        NetMessage {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            inject: SimTime::from_ticks(inject),
        }
    }

    #[test]
    fn engine_kind_round_trips_through_names() {
        for kind in [EngineKind::Recurrence, EngineKind::flit()] {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::parse("csim"), None);
        assert_eq!(EngineKind::default(), EngineKind::Recurrence);
    }

    #[test]
    fn out_of_order_is_an_error_not_a_panic() {
        let cfg = MeshConfig::new(2, 2);
        let mut flit = FlitLevel::new(cfg);
        flit.try_send(msg(0, 0, 1, 8, 100)).unwrap();
        let err = flit.try_send(msg(1, 1, 0, 8, 50)).unwrap_err();
        assert!(err.to_string().contains("nondecreasing"), "{err}");

        let mut rec = OnlineWormhole::new(cfg);
        rec.try_send(msg(0, 0, 1, 8, 100)).unwrap();
        let err = rec.try_send(msg(1, 1, 0, 8, 50)).unwrap_err();
        assert_eq!(
            err,
            EngineError::OutOfOrder {
                id: 1,
                inject: SimTime::from_ticks(50),
                last: SimTime::from_ticks(100),
            }
        );
    }

    #[test]
    fn trait_path_matches_inherent_wormhole_send() {
        let cfg = MeshConfig::new(4, 2);
        let mut direct = OnlineWormhole::new(cfg);
        let mut via_trait = OnlineWormhole::new(cfg);
        for i in 0..50u64 {
            let m = msg(i, (i % 8) as u16, ((i * 5 + 1) % 8) as u16, 16 + (i % 64) as u32, i * 4);
            if m.src != m.dst {
                let a = direct.send(m);
                let b = NetEngine::send(&mut via_trait, m).unwrap();
                assert_eq!(a, b);
            }
        }
        let a = direct.into_log();
        let b = NetEngine::finish(via_trait);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.utilization(), b.utilization());
    }

    #[test]
    fn incremental_flit_send_reports_plausible_latency() {
        let cfg = MeshConfig::new(4, 4);
        let mut flit = FlitLevel::new(cfg);
        let d = flit.try_send(msg(0, 0, 15, 32, 0)).unwrap();
        let hops = cfg.shape.hop_distance(NodeId(0), NodeId(15));
        assert_eq!(d.ticks(), cfg.zero_load_latency(32, hops));
        let log = flit.into_sink();
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records()[0].delivered, d.ticks());
    }
}
