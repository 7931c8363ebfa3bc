//! The retained cycle-loop flit router — the validation oracle for the
//! event-driven [`FlitLevel`](crate::FlitLevel).
//!
//! This is the original cycle-accurate implementation: it ticks one cycle
//! at a time and rescans every node × port × virtual-channel buffer per
//! cycle. That makes it easy to audit against the router microarchitecture
//! (every cycle's full state is visited in a fixed order) and hopelessly
//! slow for long runs — which is exactly the division of labour: the
//! event-driven [`FlitLevel`](crate::FlitLevel) is the production model,
//! and this reference pins its semantics. The randomized equivalence
//! suite (`tests/equivalence.rs`) asserts the two produce byte-identical
//! [`NetLog`]s across mesh shapes, virtual-channel counts and seeds.
//!
//! Keep changes to this file semantic-free: any intentional change to the
//! router model must land in both implementations in the same commit, or
//! the equivalence suite fails.

use std::collections::VecDeque;

use crate::engine::EngineError;
use crate::topology::Dir;
use crate::{MeshConfig, MsgRecord, NetLog, NetMessage, NodeId, HOP_PORT_BITS, HOP_PORT_MASK};

const PORT_E: usize = 0;
const PORT_W: usize = 1;
const PORT_S: usize = 2;
const PORT_N: usize = 3;
const PORT_LOCAL: usize = 4; // injection (input) / ejection (output)
const NPORTS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Head,
    Body,
    Tail,
}

#[derive(Clone, Copy, Debug)]
struct Flit {
    worm: u32,
    kind: Kind,
    /// Earliest cycle this flit may move (router charge for heads).
    ready: u64,
}

#[derive(Debug)]
struct OutPort {
    /// Owner worm per virtual channel.
    owners: Vec<Option<u32>>,
    /// Physical-channel occupancy: one flit per `link_delay`.
    busy_until: u64,
    /// Round-robin pointer over candidate (input buffer) indices.
    rr: usize,
    /// Round-robin pointer for VC allocation.
    vc_rr: usize,
    busy_ticks: u64,
}

impl OutPort {
    fn new(vcs: usize) -> Self {
        OutPort { owners: vec![None; vcs], busy_until: 0, rr: 0, vc_rr: 0, busy_ticks: 0 }
    }

    /// The output VC owned by `worm`, if any.
    fn vc_of(&self, worm: u32) -> Option<usize> {
        self.owners.iter().position(|&o| o == Some(worm))
    }

    /// A free output VC for a head of virtual-channel class `class`,
    /// searched round-robin inside the class partition
    /// `[class·v/classes, (class+1)·v/classes)` — the dateline/escape
    /// discipline (see the event-driven engine's `free_vc`). With one
    /// class this is the whole VC range, the historical search.
    fn free_vc(&self, class: usize, classes: usize) -> Option<usize> {
        let v = self.owners.len();
        let (lo, hi) = (class * v / classes, (class + 1) * v / classes);
        let size = hi - lo;
        let start = lo + self.vc_rr % size;
        (0..size)
            .map(|i| {
                let vc = start + i;
                if vc >= hi {
                    vc - size
                } else {
                    vc
                }
            })
            .find(|&vc| self.owners[vc].is_none())
    }
}

#[derive(Debug)]
struct Worm {
    msg: NetMessage,
    /// `(node index, output port, VC class)` in visit order.
    route: Vec<(usize, usize, usize)>,
    flits: u64,
    delivered: Option<u64>,
}

/// The original cycle-loop router model, retained as the oracle for the
/// event-driven [`FlitLevel`](crate::FlitLevel). Identical router
/// microarchitecture, O(network) work per simulated cycle.
///
/// # Example
///
/// ```
/// use commchar_mesh::{FlitCycleReference, MeshConfig, NetMessage, NodeId};
/// use commchar_des::SimTime;
///
/// let msgs = vec![NetMessage {
///     id: 0, src: NodeId(0), dst: NodeId(3), bytes: 16, inject: SimTime::ZERO,
/// }];
/// let log = FlitCycleReference::new(MeshConfig::new(2, 2)).simulate(&msgs);
/// assert_eq!(log.records().len(), 1);
/// ```
#[derive(Debug)]
pub struct FlitCycleReference {
    cfg: MeshConfig,
}

impl FlitCycleReference {
    /// Creates a model with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration lacks the virtual channels its
    /// (topology × routing) pair needs for deadlock freedom — use
    /// [`FlitCycleReference::try_new`] for the typed error.
    pub fn new(cfg: MeshConfig) -> Self {
        match FlitCycleReference::try_new(cfg) {
            Ok(model) => model,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`new`](FlitCycleReference::new), surfacing an undersized
    /// virtual-channel budget as
    /// [`EngineError::UnsupportedTopology`] instead of a panic.
    pub fn try_new(cfg: MeshConfig) -> Result<Self, EngineError> {
        EngineError::check_flit(&cfg)?;
        Ok(FlitCycleReference { cfg })
    }

    /// Decodes the packed route bytes of [`MeshShape::route_hops`] into
    /// `(node, port, class)` triples — the same routes (and dateline/
    /// escape classes) the event-driven engine follows.
    fn build_route(&self, src: NodeId, dst: NodeId) -> Vec<(usize, usize, usize)> {
        let shape = self.cfg.shape;
        let hops = shape.route_hops(src, dst, self.cfg.routing);
        let mut route = Vec::with_capacity(hops.len());
        let mut node = src;
        for &h in &hops[..hops.len() - 1] {
            let port = (h & HOP_PORT_MASK) as usize;
            let class = (h >> HOP_PORT_BITS) as usize;
            route.push((node.index(), port, class));
            let dir = [Dir::East, Dir::West, Dir::South, Dir::North][port];
            node = shape.neighbour(node, dir).expect("route step off the grid");
        }
        debug_assert_eq!(node, dst, "route bytes did not land on the destination");
        route.push((dst.index(), PORT_LOCAL, 0));
        route
    }
}

/// Runtime state for one simulation run.
struct Sim<'a> {
    cfg: &'a MeshConfig,
    vcs: usize,
    worms: Vec<Worm>,
    /// Input buffers: `buffers[node][port * vcs + vc]`.
    buffers: Vec<Vec<VecDeque<Flit>>>,
    /// Output ports: `outputs[node][port]`.
    outputs: Vec<Vec<OutPort>>,
    /// Reserved (in-flight) slots per input buffer (same indexing).
    reserved: Vec<Vec<usize>>,
    /// Flits in flight on a channel: (arrival, node, buffer index, flit).
    in_flight: Vec<(u64, usize, usize, Flit)>,
    remaining: usize,
}

impl Sim<'_> {
    fn out_channel_id(&self, node: usize, port: usize) -> u32 {
        // Matches MeshShape channel numbering: dirs 0..3, ejection 5.
        if port == PORT_LOCAL {
            node as u32 * 6 + 5
        } else {
            node as u32 * 6 + port as u32
        }
    }

    /// The router and input port fed by `node`'s output `port`. The wrap
    /// arms only ever fire on a torus — a mesh route never walks off an
    /// edge.
    fn downstream(&self, node: usize, port: usize) -> (usize, usize) {
        let w = self.cfg.shape.width() as usize;
        let nodes = self.cfg.shape.nodes();
        match port {
            PORT_E => (if (node + 1).is_multiple_of(w) { node + 1 - w } else { node + 1 }, PORT_W),
            PORT_W => (if node.is_multiple_of(w) { node + w - 1 } else { node - 1 }, PORT_E),
            PORT_S => (if node + w >= nodes { node + w - nodes } else { node + w }, PORT_N),
            PORT_N => (if node < w { node + nodes - w } else { node - w }, PORT_S),
            _ => unreachable!("ejection has no downstream router"),
        }
    }

    /// Route lookup: (output port, VC class) used by `worm` at `node` —
    /// minimal routes are self-avoiding on both topologies, so the node
    /// lookup is unambiguous.
    fn out_port(&self, worm: u32, node: usize) -> (usize, usize) {
        self.worms[worm as usize]
            .route
            .iter()
            .find(|&&(n, _, _)| n == node)
            .map(|&(_, p, c)| (p, c))
            .expect("worm visited a node off its route")
    }

    fn step(&mut self, t: u64) -> bool {
        let mut moved = false;
        let vcs = self.vcs;
        let classes = self.cfg.vc_classes();

        // Phase 1: land in-flight flits whose channel traversal completed.
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= t {
                let (_, node, buf, mut flit) = self.in_flight.swap_remove(i);
                if flit.kind == Kind::Head {
                    flit.ready = t + self.cfg.router_delay;
                } else {
                    flit.ready = t;
                }
                self.reserved[node][buf] -= 1;
                self.buffers[node][buf].push_back(flit);
                moved = true;
            } else {
                i += 1;
            }
        }

        // Phase 2: switch + VC allocation, one flit per physical output.
        let nodes = self.cfg.shape.nodes();
        for node in 0..nodes {
            for out in 0..NPORTS {
                if self.outputs[node][out].busy_until > t {
                    continue;
                }
                // Candidate input buffers whose head flit requests `out`.
                let mut candidates: Vec<usize> = Vec::new();
                for buf in 0..NPORTS * vcs {
                    if let Some(f) = self.buffers[node][buf].front() {
                        if f.ready <= t && self.out_port(f.worm, node).0 == out {
                            candidates.push(buf);
                        }
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                // Select (buffer, output vc): body/tail flits use their
                // worm's owned VC; heads need a free VC (and downstream
                // space). Round-robin over candidates for fairness.
                let rr = self.outputs[node][out].rr;
                let ncand = candidates.len();
                let mut choice: Option<(usize, usize)> = None;
                for k in 0..ncand {
                    let buf = candidates[(rr + k) % ncand];
                    let f = *self.buffers[node][buf].front().unwrap();
                    let ovc = match f.kind {
                        Kind::Head => {
                            let class = self.out_port(f.worm, node).1;
                            match self.outputs[node][out].free_vc(class, classes) {
                                Some(vc) => vc,
                                None => continue,
                            }
                        }
                        _ => match self.outputs[node][out].vc_of(f.worm) {
                            Some(vc) => vc,
                            None => continue, // owner not established yet
                        },
                    };
                    // Capacity check downstream (ejection always sinks).
                    if out != PORT_LOCAL {
                        let (dn, dp) = self.downstream(node, out);
                        let dbuf = dp * vcs + ovc;
                        if self.buffers[dn][dbuf].len() + self.reserved[dn][dbuf]
                            >= self.cfg.buffer_flits
                        {
                            continue;
                        }
                    }
                    choice = Some((buf, ovc));
                    break;
                }
                let Some((buf, ovc)) = choice else { continue };
                // Move the flit.
                let flit = self.buffers[node][buf].pop_front().unwrap();
                let link = self.cfg.link_delay;
                let port_state = &mut self.outputs[node][out];
                port_state.busy_until = t + link;
                port_state.busy_ticks += link;
                port_state.rr = port_state.rr.wrapping_add(1);
                match flit.kind {
                    Kind::Head => {
                        port_state.owners[ovc] = Some(flit.worm);
                        port_state.vc_rr = (ovc + 1) % vcs;
                    }
                    Kind::Tail => port_state.owners[ovc] = None,
                    Kind::Body => {}
                }
                moved = true;
                if out == PORT_LOCAL {
                    if flit.kind == Kind::Tail {
                        let w = &mut self.worms[flit.worm as usize];
                        w.delivered = Some(t + link);
                        self.remaining -= 1;
                    }
                } else {
                    let (dn, dp) = self.downstream(node, out);
                    let dbuf = dp * vcs + ovc;
                    self.reserved[dn][dbuf] += 1;
                    self.in_flight.push((t + link, dn, dbuf, flit));
                }
            }
        }
        moved
    }

    /// Earliest future time anything can happen (for idle-time skipping).
    fn next_interesting(&self, t: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |cand: u64| {
            if cand > t {
                next = Some(next.map_or(cand, |n| n.min(cand)));
            }
        };
        for &(arr, _, _, _) in &self.in_flight {
            consider(arr);
        }
        for node in 0..self.cfg.shape.nodes() {
            for buf in 0..NPORTS * self.vcs {
                if let Some(f) = self.buffers[node][buf].front() {
                    consider(f.ready);
                    consider(self.outputs[node][self.out_port(f.worm, node).0].busy_until);
                }
            }
        }
        next
    }

    /// Human-readable account of every undelivered worm, for wedge panics:
    /// id, endpoints, flits still at the NI / in the network, and the
    /// furthest route position any of its flits reached.
    fn wedge_report(&self, pending: &[VecDeque<(u64, Flit)>], t: u64) -> String {
        let nworms = self.worms.len();
        let mut in_net = vec![0u64; nworms];
        let mut at_ni = vec![0u64; nworms];
        let mut far = vec![0usize; nworms];
        let mut note = |worm: u32, node: Option<usize>, counts: &mut [u64]| {
            counts[worm as usize] += 1;
            if let Some(node) = node {
                if let Some(pos) =
                    self.worms[worm as usize].route.iter().position(|&(n, _, _)| n == node)
                {
                    far[worm as usize] = far[worm as usize].max(pos);
                }
            }
        };
        for (node, bufs) in self.buffers.iter().enumerate() {
            for buf in bufs {
                for f in buf {
                    note(f.worm, Some(node), &mut in_net);
                }
            }
        }
        for &(_, node, _, f) in &self.in_flight {
            note(f.worm, Some(node), &mut in_net);
        }
        for queue in pending {
            for &(_, f) in queue {
                note(f.worm, None, &mut at_ni);
            }
        }
        let mut lines = vec![format!(
            "flit reference simulation wedged at t={t} with {} worms undelivered:",
            self.remaining
        )];
        let undelivered: Vec<usize> =
            (0..nworms).filter(|&w| self.worms[w].delivered.is_none()).collect();
        for &w in undelivered.iter().take(16) {
            let worm = &self.worms[w];
            lines.push(format!(
                "  worm {} ({}->{}): {} of {} flits still queued at NI, {} in network, \
                 furthest hop {}/{}",
                worm.msg.id,
                worm.msg.src.index(),
                worm.msg.dst.index(),
                at_ni[w],
                worm.flits,
                in_net[w],
                far[w],
                worm.route.len() - 1,
            ));
        }
        if undelivered.len() > 16 {
            lines.push(format!("  ... and {} more", undelivered.len() - 16));
        }
        lines.join("\n")
    }
}

impl FlitCycleReference {
    /// Simulates `msgs` (any order; they are sorted by injection time) and
    /// returns the completed network log.
    pub fn simulate(&mut self, msgs: &[NetMessage]) -> NetLog {
        let cfg = self.cfg;
        let vcs = cfg.virtual_channels;
        let nodes = cfg.shape.nodes();
        let mut sorted: Vec<NetMessage> = msgs.to_vec();
        sorted.sort_by_key(|m| (m.inject, m.id));

        let worms: Vec<Worm> = sorted
            .iter()
            .map(|m| Worm {
                msg: *m,
                route: self.build_route(m.src, m.dst),
                flits: cfg.flits_for(m.bytes),
                delivered: None,
            })
            .collect();

        let mut sim = Sim {
            cfg: &cfg,
            vcs,
            remaining: worms.len(),
            worms,
            buffers: vec![(0..NPORTS * vcs).map(|_| VecDeque::new()).collect(); nodes],
            outputs: (0..nodes).map(|_| (0..NPORTS).map(|_| OutPort::new(vcs)).collect()).collect(),
            reserved: vec![vec![0; NPORTS * vcs]; nodes],
            in_flight: Vec::new(),
        };

        // Per-node NI queues. Flits of one message stay contiguous (a worm
        // may never interleave with another in the injection buffer); the
        // head becomes available hop_latency after injection and the body
        // follows at one flit per link_delay. Messages enter injection
        // VC 0; VC spreading happens at the routers.
        let hop = cfg.hop_latency();
        let mut pending: Vec<VecDeque<(u64, Flit)>> = vec![VecDeque::new(); nodes];
        for (w, worm) in sim.worms.iter().enumerate() {
            let base = worm.msg.inject.ticks() + hop;
            let src = worm.msg.src.index();
            for j in 0..worm.flits {
                let kind = if j == 0 {
                    Kind::Head
                } else if j == worm.flits - 1 {
                    Kind::Tail
                } else {
                    Kind::Body
                };
                let avail = base + j * cfg.link_delay;
                let ready = if kind == Kind::Head { avail + cfg.router_delay } else { avail };
                pending[src].push_back((avail, Flit { worm: w as u32, kind, ready }));
            }
        }

        let mut t = sorted.first().map(|m| m.inject.ticks()).unwrap_or(0);
        let mut guard: u64 = 0;
        let guard_limit = 200_000_000;
        let inj_buf = PORT_LOCAL * vcs; // injection buffer, vc 0
        while sim.remaining > 0 {
            for (node, queue) in pending.iter_mut().enumerate() {
                while queue.front().is_some_and(|&(avail, _)| avail <= t) {
                    let (_, mut flit) = queue.pop_front().unwrap();
                    if flit.kind == Kind::Head {
                        // The router charge starts when the head actually
                        // reaches the router, which may be later than its
                        // nominal availability if it queued at the NI.
                        flit.ready = t + cfg.router_delay;
                    }
                    sim.buffers[node][inj_buf].push_back(flit);
                }
            }
            let moved = sim.step(t);
            guard += 1;
            assert!(
                guard < guard_limit,
                "flit reference simulation exceeded {guard_limit} steps\n{}",
                sim.wedge_report(&pending, t)
            );
            if moved {
                t += 1;
            } else {
                // Idle: skip to the next time anything can change.
                let mut next = sim.next_interesting(t);
                for queue in &pending {
                    if let Some(&(avail, _)) = queue.front() {
                        if avail > t {
                            next = Some(next.map_or(avail, |n| n.min(avail)));
                        }
                    }
                }
                match next {
                    Some(n) => t = n.max(t + 1),
                    None => panic!("{}", sim.wedge_report(&pending, t)),
                }
            }
        }

        let first = sorted.first().map(|m| m.inject.ticks()).unwrap_or(0);
        let mut last = first;
        let mut log = NetLog::new();
        for worm in &sim.worms {
            let delivered = worm.delivered.expect("all worms delivered");
            last = last.max(delivered);
            let hops = cfg.shape.hop_distance(worm.msg.src, worm.msg.dst);
            log.push(MsgRecord {
                id: worm.msg.id,
                src: worm.msg.src,
                dst: worm.msg.dst,
                bytes: worm.msg.bytes,
                inject: worm.msg.inject.ticks(),
                delivered,
                hops,
                zero_load: cfg.zero_load_latency(worm.msg.bytes, hops),
            });
        }
        let span = (last - first) as f64;
        let mut util = Vec::new();
        for node in 0..nodes {
            for port in 0..NPORTS {
                let busy = sim.outputs[node][port].busy_ticks;
                if busy > 0 && span > 0.0 {
                    util.push((sim.out_channel_id(node, port), busy as f64 / span));
                }
            }
        }
        log.set_utilization(util);
        log
    }
}

#[cfg(test)]
mod tests {
    use commchar_des::SimTime;

    use super::*;
    use crate::OnlineWormhole;

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
    fn reference_matches_online_at_zero_load() {
        let cfg = MeshConfig::new(4, 4);
        let m = vec![msg(0, 0, 15, 32, 0)];
        let flit = FlitCycleReference::new(cfg).simulate(&m);
        let online = OnlineWormhole::new(cfg).simulate(&m);
        assert_eq!(flit.records()[0].delivered, online.records()[0].delivered);
    }

    #[test]
    fn undersized_vc_budget_is_a_typed_error() {
        // A torus with the default single VC cannot host the dateline
        // escape class — the constructor reports it instead of panicking.
        let err = FlitCycleReference::try_new(MeshConfig::new_torus(4, 4)).unwrap_err();
        assert_eq!(
            err,
            EngineError::UnsupportedTopology {
                topology: crate::Topology::Torus,
                routing: crate::Routing::Dimension,
                needed: 2,
                have: 1,
            }
        );
        // With the class budget met the constructor accepts the torus.
        assert!(FlitCycleReference::try_new(MeshConfig::new_torus(4, 4).with_virtual_channels(2))
            .is_ok());
    }

    #[test]
    fn reference_matches_online_at_zero_load_on_torus() {
        let cfg = MeshConfig::new_torus(4, 4).with_virtual_channels(2);
        let m = vec![msg(0, 0, 15, 32, 0)];
        let flit = FlitCycleReference::new(cfg).simulate(&m);
        let online = OnlineWormhole::new(cfg).simulate(&m);
        assert_eq!(flit.records()[0].delivered, online.records()[0].delivered);
        assert_eq!(flit.records()[0].hops, 2, "opposite corners wrap to 2 hops");
    }
}
