//! Event-recurrence wormhole model with immediate feedback.

use commchar_des::SimTime;

use crate::log::ticks;
use crate::sink::LogSink;
use crate::{MeshConfig, MsgRecord, NetLog, NetMessage};

/// The channel-granularity wormhole model.
///
/// A message's header acquires the channels of its XY route in order; the
/// recurrence
///
/// ```text
/// h[0] = max(inject, free[c0])
/// h[i] = max(h[i-1] + hop_latency, free[ci])
/// ```
///
/// gives the header's entry time into each channel. Once the header reaches
/// the destination, the body streams behind at one flit per `link_delay`,
/// and each channel is released when the tail passes it. Channels stay held
/// while the header is blocked — the defining property of wormhole routing —
/// so one congested message backs up every channel of its partial path.
///
/// Messages must be injected in nondecreasing time order (asserted): the
/// model resolves contention in injection order, which is exact for the
/// execution-driven co-simulation (its event loop emits messages in global
/// time order) and a tight approximation for batch trace replay.
///
/// [`send`](OnlineWormhole::send) returns the delivery time immediately —
/// the "feedback arrow" from the network simulator to the event generator
/// in the paper's Figure 1.
///
/// The model is generic over its [`LogSink`]: with the default
/// [`NetLog`] every record is retained; with a [`NetTally`](crate::NetTally)
/// each record is folded into the exact summary and memory does not grow
/// with the number of messages simulated.
#[derive(Debug)]
pub struct OnlineWormhole<S: LogSink = NetLog> {
    cfg: MeshConfig,
    /// Per-channel time at which the channel is next free.
    free: Vec<u64>,
    /// Per-channel accumulated busy ticks (for utilization).
    busy: Vec<u64>,
    sink: S,
    last_inject: SimTime,
    first_inject: Option<u64>,
    last_delivery: u64,
}

impl OnlineWormhole {
    /// Creates an idle network logging into a [`NetLog`].
    pub fn new(cfg: MeshConfig) -> Self {
        OnlineWormhole::with_sink(cfg, NetLog::new())
    }

    /// Finishes the simulation and returns the network log, including
    /// per-channel utilization over the observed span.
    pub fn into_log(self) -> NetLog {
        self.into_sink()
    }

    /// Simulates `msgs` (any order; they are sorted by injection time) and
    /// returns the completed network log.
    pub fn simulate(&mut self, msgs: &[NetMessage]) -> NetLog {
        let mut sorted: Vec<NetMessage> = msgs.to_vec();
        sorted.sort_by_key(|m| (m.inject, m.id));
        for m in &sorted {
            self.send(*m);
        }
        std::mem::replace(self, OnlineWormhole::new(self.cfg)).into_log()
    }
}

impl<S: LogSink> OnlineWormhole<S> {
    /// Creates an idle network delivering records into `sink`.
    pub fn with_sink(cfg: MeshConfig, sink: S) -> Self {
        let slots = cfg.shape.channel_slots();
        OnlineWormhole {
            cfg,
            free: vec![0; slots],
            busy: vec![0; slots],
            sink,
            last_inject: SimTime::ZERO,
            first_inject: None,
            last_delivery: 0,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// The sink accumulating this network's records.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Injects a message and returns the delivery time of its tail flit at
    /// the destination network interface.
    ///
    /// # Panics
    ///
    /// Panics if `msg.inject` precedes a previously injected message (the
    /// model requires time-ordered injection) or if `src == dst`. Callers
    /// that want the ordering violation as a value rather than a panic —
    /// the [`NetEngine`](crate::NetEngine) trait path — use
    /// [`try_send`](OnlineWormhole::try_send).
    pub fn send(&mut self, msg: NetMessage) -> SimTime {
        debug_assert!(
            msg.inject >= self.last_inject,
            "messages must be injected in nondecreasing time order ({:?} after {:?})",
            msg.inject,
            self.last_inject
        );
        self.try_send(msg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`send`](OnlineWormhole::send): returns
    /// [`EngineError::OutOfOrder`](crate::EngineError::OutOfOrder) instead
    /// of panicking when `msg.inject` precedes a previously injected
    /// message, so a malformed trace surfaces as an error from the replay
    /// layer rather than a panic from deep inside the network model.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (no route to oneself).
    pub fn try_send(&mut self, msg: NetMessage) -> Result<SimTime, crate::EngineError> {
        if msg.inject < self.last_inject {
            return Err(crate::EngineError::OutOfOrder {
                id: msg.id,
                inject: msg.inject,
                last: self.last_inject,
            });
        }
        self.last_inject = msg.inject;
        let path = self.cfg.shape.route(msg.src, msg.dst, self.cfg.routing);
        let hop = self.cfg.hop_latency();
        let link = self.cfg.link_delay;
        let flits = self.cfg.flits_for(msg.bytes);

        // Header acquisition recurrence.
        let mut entry = Vec::with_capacity(path.len());
        let mut t = ticks(msg.inject);
        for (i, ch) in path.iter().enumerate() {
            let earliest = if i == 0 { t } else { t + hop };
            t = earliest.max(self.free[ch.0 as usize]);
            entry.push(t);
        }
        // Header reaches the destination NI one hop after entering the
        // ejection channel; the remaining flits drain behind it.
        let header_delivered = t + hop;
        let delivered = header_delivered + (flits - 1) * link;

        // Release channels as the tail passes them (pipelined drain).
        let k = path.len();
        for (i, ch) in path.iter().enumerate() {
            let release = delivered - (k - 1 - i) as u64 * link;
            let idx = ch.0 as usize;
            let release = release.max(entry[i]);
            self.busy[idx] += release - entry[i];
            self.free[idx] = release;
        }

        let hops = self.cfg.shape.hop_distance(msg.src, msg.dst);
        self.first_inject.get_or_insert(ticks(msg.inject));
        self.last_delivery = self.last_delivery.max(delivered);
        self.sink.record(MsgRecord {
            id: msg.id,
            src: msg.src,
            dst: msg.dst,
            bytes: msg.bytes,
            inject: ticks(msg.inject),
            delivered,
            hops,
            zero_load: self.cfg.zero_load_latency(msg.bytes, hops),
        });
        Ok(SimTime::from_ticks(delivered))
    }

    /// Finishes the simulation: hands per-channel utilization over the
    /// observed span to the sink and returns it.
    pub fn into_sink(mut self) -> S {
        let span = match self.first_inject {
            Some(first) if self.last_delivery > first => (self.last_delivery - first) as f64,
            _ => 0.0,
        };
        let util: Vec<(u32, f64)> = self
            .busy
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(i, &b)| (i as u32, if span > 0.0 { b as f64 / span } else { 0.0 }))
            .collect();
        self.sink.finish(util);
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use commchar_des::SimTime;

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
    fn zero_load_latency_matches_config() {
        let cfg = MeshConfig::new(4, 4);
        let mut net = OnlineWormhole::new(cfg);
        let d = net.send(msg(0, 0, 15, 32, 0));
        let hops = cfg.shape.hop_distance(NodeId(0), NodeId(15));
        assert_eq!(d.ticks(), cfg.zero_load_latency(32, hops));
        let log = net.into_log();
        assert_eq!(log.records()[0].blocked(), 0);
    }

    #[test]
    fn contention_delays_second_message() {
        let cfg = MeshConfig::new(4, 1);
        let mut net = OnlineWormhole::new(cfg);
        let d1 = net.send(msg(0, 0, 3, 64, 0));
        // Same route, same time: must wait for the first worm.
        let d2 = net.send(msg(1, 0, 3, 64, 0));
        assert!(d2 > d1);
        let log = net.into_log();
        assert!(log.records()[1].blocked() > 0);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let cfg = MeshConfig::new(4, 2);
        let mut net = OnlineWormhole::new(cfg);
        let d1 = net.send(msg(0, 0, 1, 16, 0));
        let d2 = net.send(msg(1, 6, 7, 16, 0));
        assert_eq!(d1.ticks(), d2.ticks());
        let log = net.into_log();
        assert_eq!(log.records()[0].blocked(), 0);
        assert_eq!(log.records()[1].blocked(), 0);
    }

    #[test]
    fn injection_channel_serializes_same_source() {
        let cfg = MeshConfig::new(4, 2);
        let mut net = OnlineWormhole::new(cfg);
        // Different destinations but same source NI.
        let d1 = net.send(msg(0, 0, 1, 16, 0));
        let d2 = net.send(msg(1, 0, 4, 16, 0));
        assert!(d2.ticks() > 0);
        let _ = d1;
        let log = net.into_log();
        assert!(log.records()[1].blocked() > 0, "second message should queue at the NI");
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_injection_panics() {
        let cfg = MeshConfig::new(2, 2);
        let mut net = OnlineWormhole::new(cfg);
        net.send(msg(0, 0, 1, 8, 100));
        net.send(msg(1, 1, 0, 8, 50));
    }

    #[test]
    fn batch_simulate_sorts_and_checks() {
        let cfg = MeshConfig::new(4, 2);
        let msgs = vec![msg(1, 1, 0, 8, 50), msg(0, 0, 1, 8, 0), msg(2, 3, 6, 24, 20)];
        let log = OnlineWormhole::new(cfg).simulate(&msgs);
        assert_eq!(log.records().len(), 3);
        log.check_invariants(cfg.shape).unwrap();
    }

    #[test]
    fn utilization_reported_for_used_channels() {
        let cfg = MeshConfig::new(2, 1);
        let mut net = OnlineWormhole::new(cfg);
        net.send(msg(0, 0, 1, 128, 0));
        let log = net.into_log();
        assert!(!log.utilization().is_empty());
        for &(_, u) in log.utilization() {
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn tally_sink_sees_what_the_log_sees() {
        let cfg = MeshConfig::new(4, 4);
        let mut batch = OnlineWormhole::new(cfg);
        let mut tally = OnlineWormhole::with_sink(cfg, crate::NetTally::new());
        for i in 0..200u64 {
            let m = msg(i, (i % 16) as u16, ((i * 7 + 1) % 16) as u16, 8 + (i % 100) as u32, i * 3);
            if m.src != m.dst {
                assert_eq!(batch.send(m), tally.send(m));
            }
        }
        let log = batch.into_log();
        let t = tally.into_sink();
        assert_eq!(log.utilization(), t.utilization());
        assert_eq!(format!("{:?}", log.summary()), format!("{:?}", t.summary()));
    }

    #[test]
    fn torus_wrap_shortens_the_route() {
        // Corner to corner on a 4×4: 6 mesh hops, but 2 torus hops via
        // the wraparound links — the closed-form model must price the
        // shorter route.
        let mesh = MeshConfig::new(4, 4);
        let torus = MeshConfig::new_torus(4, 4);
        let d_mesh = OnlineWormhole::new(mesh).send(msg(0, 0, 15, 32, 0));
        let d_torus = OnlineWormhole::new(torus).send(msg(0, 0, 15, 32, 0));
        assert_eq!(torus.shape.hop_distance(NodeId(0), NodeId(15)), 2);
        assert_eq!(d_torus.ticks(), torus.zero_load_latency(32, 2));
        assert!(d_torus < d_mesh);
    }

    #[test]
    fn adaptive_routing_is_latency_neutral_at_zero_load() {
        // The recurrence model has no contention here, and minimal-
        // adaptive routes have the same length as dimension-ordered ones.
        let xy = MeshConfig::new(4, 4);
        let ad = xy.with_routing(crate::Routing::Adaptive);
        for (s, d) in [(0u16, 15u16), (3, 12), (5, 10)] {
            let a = OnlineWormhole::new(xy).send(msg(0, s, d, 48, 0));
            let b = OnlineWormhole::new(ad).send(msg(0, s, d, 48, 0));
            assert_eq!(a, b, "{s}->{d}");
        }
    }

    #[test]
    fn wormhole_holds_partial_path() {
        // A blocked worm must delay traffic on its *upstream* channels.
        let cfg = MeshConfig::new(4, 1).with_buffer_flits(2);
        let mut net = OnlineWormhole::new(cfg);
        // Long message 0->3 occupies channels 0->1->2->3.
        net.send(msg(0, 0, 3, 512, 0));
        // Message 1->2 needs channel 1->2, held by the worm's body.
        let d = net.send(msg(1, 1, 2, 8, 1));
        let zero = cfg.zero_load_latency(8, 1);
        assert!(d.ticks() - 1 > zero, "blocked by the worm: {} vs {}", d.ticks() - 1, zero);
    }
}
