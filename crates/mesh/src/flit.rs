//! Cycle-accurate flit-level wormhole router model with virtual channels,
//! driven by an event wheel instead of a per-cycle full-state scan.
//!
//! Routers have five input ports (one per neighbour plus injection), each
//! with `virtual_channels` finite FIFO buffers; five output ports (plus
//! ejection) whose virtual channels are owned by at most one worm each
//! while the physical channel accepts one flit per `link_delay` cycles;
//! round-robin switch and VC allocation; wormhole flow control. Header
//! flits pay a `router_delay` routing charge at every router; body flits
//! stream behind on the established path.
//!
//! # Event-driven microarchitecture
//!
//! The retained [`FlitCycleReference`](crate::FlitCycleReference) walks
//! every node × port × VC buffer every cycle. This model produces the
//! exact same cycle-by-cycle state evolution while only touching state
//! that has work:
//!
//! - **Hop cursors** — every flit carries the index of its current hop in
//!   its worm's precomputed route (stored in one flat arena, no per-worm
//!   allocation), so "which output does this flit want" is an O(1) array
//!   read instead of a linear route search per candidate per cycle.
//! - **Request queues** — each output port keeps a sorted list of input
//!   buffers whose *head* flit requests it, maintained when a flit becomes
//!   head-of-buffer (landing into an empty buffer, or exposed by a pop).
//!   A cycle's switch-allocation pass visits only outputs with registered
//!   requests, in the reference's node-major/port-minor order; stale
//!   entries are dropped lazily at visit time. New requests registered
//!   *behind* the sweep position join the same cycle, matching the
//!   reference's in-cycle sequential scan.
//! - **Event wheel** — a dirty bitset over output ports plus a
//!   power-of-two time ring replaces both the linear `in_flight` scan and
//!   the O(network) `next_interesting` sweep. Every enabling transition
//!   (a flit landing, a head-ready charge elapsing, a `busy_until`
//!   expiration, an NI injection becoming available, a buffer slot
//!   freeing) either sets the output's dirty bit for the current cycle or
//!   drops the output id into `ring[t & (wheel-1)]` for the cycle the
//!   condition holds; ring slots are promoted into the bitset at the top
//!   of each cycle and the bitset is swept in ascending output order —
//!   the reference's node-major/port-minor order. The ring only needs
//!   `max(link_delay, router_delay) + 2` slots because no enabling event
//!   schedules further ahead than that; arrivals and NI entry times
//!   beyond the horizon wait in a bucketed FIFO and a small heap. Extra
//!   visits are harmless (a visit where nothing can move changes no
//!   state — round-robin pointers and VC owners mutate only on actual
//!   moves), so the visit set only needs to be a *superset* of the
//!   reference's action times — that is what makes the two models
//!   cycle-identical by construction, and the randomized equivalence
//!   suite (`tests/equivalence.rs`) pins it across shapes, VC counts and
//!   seeds.
//! - **Flat storage** — input buffers live in one slab of power-of-two
//!   rings (`bhead`/`blen` arrays, no per-buffer `VecDeque`), request
//!   queues in one stride-indexed array, and the whole workspace is
//!   reused across `run` calls, so the hot loop allocates nothing.
//! - **NI runs** — a source's not-yet-injected traffic is one run per
//!   worm (worm, next flit, entry floor), not one queue entry per flit.
//!   Flit `j` of a worm enters at `max(floor, inject + hop_latency +
//!   j·link_delay)`, where `floor` is the entry time of the node's
//!   previous worm's tail. Within a worm that expression is already
//!   the running prefix max, so the run materializes exactly the
//!   `(entry, flit)` pair the per-flit queue used to store. Queueing a
//!   worm, skipping through it and snapshotting the queues cost
//!   O(worms), not O(flits).
//! - **Steady-stream skipping** — once a worm's head has ejected, its
//!   body streams through a fixed chain of outputs (NI → injection
//!   buffer → … → ejection), one flit per output per cycle, and
//!   stepping that cycle by cycle is the engine's main cost on long
//!   messages. A cycle is *clean* when it moves body flits only, every
//!   other ready candidate at a moving output is a head with no free VC
//!   in its class (it stays blocked, because owners change only on head
//!   and tail moves), and nothing else happens in it: no NI event, no
//!   head or tail landing. Cycle `t` is *steady* when it and cycle `t−1`
//!   are clean, its moves repeat cycle `t−1`'s exactly (same outputs,
//!   source buffers, VCs and worms), and the wheel holds no mark except
//!   the chain's own `t+1` wake-ups. The moves must also conserve flits
//!   per worm: every buffer a worm's move feeds is popped by that same
//!   worm in the same cycle, every popped network buffer is fed, and
//!   every popped injection buffer is refilled from its own worm's run.
//!   A buffer is fed through one output VC, which a worm owns from its
//!   head to its tail, so a buffer one worm both pops and feeds holds
//!   only that worm's body flits: each chain carries a single worm from
//!   its NI to ejection, and the worm's tail is still at its NI.
//!   (Matching buffers alone is not enough: a buffer can hold one
//!   worm's last flits and tail ahead of the next worm's head, popped by
//!   the first and fed by the second.) Then every buffer occupancy,
//!   owner, request queue and dirty bit after `t` equals its value after
//!   `t−1`. The only changes are counters and time stamps that advance
//!   by one per cycle. Nothing but the chain can wake an output, because
//!   every enabling transition schedules its own visit. So cycle `t+1`
//!   repeats `t`, and by induction so does every later cycle until a
//!   scheduled event intervenes. The engine therefore applies the next
//!   `Δ` cycles in one step: `rr += Δ`, `busy_ticks += Δ·link` and
//!   `busy_until += Δ` per moving output, `ejected += Δ` per streaming
//!   worm, each source run advances `Δ` flits, and the in-flight
//!   landings and ring marks shift by `Δ`. Buffered body flits keep
//!   their `ready` stamps: a body stamp is only compared with the clock,
//!   which has already passed it. `Δ` stops short of the
//!   earliest NI event, the closed loop's `Goal::Before` cut and each
//!   streaming worm's tail leaving its NI, so no tail, head or delivery
//!   ever falls inside a skip, and the skip lands in exactly the state
//!   `Δ` stepped cycles would reach. With `link_delay > 1` a stream
//!   moves every `link_delay` cycles and never repeats its previous
//!   cycle, so the skip never fires there. Sharded windows always step.
//!   The work counters ([`FlitWork`]) report stepped cycles, skipped
//!   cycles and skips, and the closed loop's sends and the speculations
//!   they discarded.
//!
//! With one virtual channel the model reduces to a plain wormhole router
//! and cross-validates the [`OnlineWormhole`](crate::OnlineWormhole)
//! recurrence; with more it quantifies the head-of-line blocking the
//! recurrence model's single-resource channels overstate (the
//! Kumar–Bhuyan question the paper cites). Throughput relative to the
//! reference is tracked in `BENCH_flit.json` (see `scripts/check.sh
//! --bench-smoke`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use commchar_des::SimTime;

use crate::engine::EngineError;
use crate::sink::LogSink;
use crate::{MeshConfig, MsgRecord, NetLog, NetMessage, HOP_PORT_BITS, HOP_PORT_MASK};

mod shard;

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
    /// Hop cursor: absolute index into the shared route arena of the hop
    /// this flit is currently at — `routes[hop]` is its requested output
    /// port (the flit's node is implicit in which buffer holds it).
    hop: u32,
}

#[derive(Clone, Copy, Debug)]
struct Worm {
    msg: NetMessage,
    /// Offset/length of this worm's route in the shared route arena.
    route_off: u32,
    route_len: u32,
    flits: u64,
    ejected: u64,
    /// Furthest arena index the head flit has reached (diagnostics).
    head_hop: u32,
    delivered: Option<u64>,
}

/// A flit in flight on a channel, due to land in `buf` of `node`.
#[derive(Clone, Copy, Debug)]
struct Landing {
    node: u32,
    buf: u32,
    flit: Flit,
}

/// One worm's not-yet-injected flits at its source network interface:
/// flits `next..flits` of `worm`, entering no earlier than `floor` (the
/// entry time of the node's previous flit). See [`ni_flit`].
#[derive(Clone, Copy, Debug)]
struct NiRun {
    worm: u32,
    next: u64,
    floor: u64,
}

/// Flit `run.next` of `worm` and its NI entry time: the cycle it enters
/// the reference's unbounded injection buffer, `max(floor, avail)` with
/// `avail = inject + hop_latency + j·link_delay`. Heads are charged
/// their router delay from the entry cycle; body and tail flits keep
/// their raw availability as `ready`.
fn ni_flit(cfg: &MeshConfig, worm: &Worm, run: &NiRun) -> (u64, Flit) {
    let j = run.next;
    let avail = worm.msg.inject.ticks() + cfg.hop_latency() + j * cfg.link_delay;
    let entry = run.floor.max(avail);
    let (kind, ready) = if j == 0 {
        (Kind::Head, entry + cfg.router_delay)
    } else if j + 1 == worm.flits {
        (Kind::Tail, avail)
    } else {
        (Kind::Body, avail)
    };
    (entry, Flit { worm: run.worm, kind, ready, hop: worm.route_off })
}

/// Downstream buffer of an ejecting [`Move`].
const EJECT: u32 = u32::MAX;

/// One flit move as the steady-stream detector records it: output,
/// popped buffer, downstream buffer (global slab indices, so the output
/// VC is part of it; [`EJECT`] for ejection) and worm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Move {
    out: u32,
    buf: u32,
    down: u32,
    worm: u32,
}

/// Deterministic work counters of the flit event loop: how many cycles it
/// processed one at a time, how many it applied in bulk through
/// steady-stream skips (see the module docs), and how the closed loop's
/// speculations fared. The counts depend only on the configuration and
/// the injection schedule, never on timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlitWork {
    /// Cycles processed one at a time (a sharded drain counts each
    /// shard's cycles).
    pub cycles_stepped: u64,
    /// Cycles applied in bulk by steady-stream skips.
    pub cycles_skipped: u64,
    /// Steady-stream skips taken.
    pub skips: u64,
    /// Messages injected through the closed loop
    /// ([`FlitLevel::try_send`]).
    pub closed_loop_sends: u64,
    /// Speculations a closed-loop send threw away because its horizon
    /// fell inside them: the committed state then steps those cycles
    /// again. A send whose predecessor's speculation stayed below its
    /// horizon promotes it instead.
    pub speculations_discarded: u64,
}

impl FlitWork {
    fn add(&mut self, other: FlitWork) {
        self.cycles_stepped += other.cycles_stepped;
        self.cycles_skipped += other.cycles_skipped;
        self.skips += other.skips;
        self.closed_loop_sends += other.closed_loop_sends;
        self.speculations_discarded += other.speculations_discarded;
    }
}

/// Reusable per-run state. Everything here is cleared (capacity kept) at
/// the start of each run, so repeated batches on one model reuse the worm
/// storage, route arena, buffers and event heaps without reallocating.
/// `Clone` exists for the closed loop ([`FlitLevel::try_send`]), whose
/// speculative state is a snapshot of the committed one.
#[derive(Clone, Debug, Default)]
struct Workspace {
    worms: Vec<Worm>,
    /// Flat route arena shared by all worms: the output port per hop (a
    /// flit's current node is implicit in which buffer holds it).
    routes: Vec<u8>,
    /// Input-buffer slab: buffer `b = node*NPORTS*vcs + port*vcs + vc`
    /// owns `cap` contiguous slots (a power of two) used as a ring —
    /// `slab[b*cap + ((bhead[b] + i) & (cap-1))]` is its `i`-th flit.
    /// One flat allocation replaces a `VecDeque` per buffer.
    slab: Vec<Flit>,
    /// Ring-start slot per buffer.
    bhead: Vec<u32>,
    /// Occupancy per buffer.
    blen: Vec<u32>,
    /// Reserved (in-flight) slots per input buffer (same indexing).
    reserved: Vec<u32>,
    /// Output VC owners, flat: `owners[(node*NPORTS + port) * vcs + vc]`.
    owners: Vec<Option<u32>>,
    /// Per output `node*NPORTS + port`:
    busy_until: Vec<u64>,
    busy_ticks: Vec<u64>,
    rr: Vec<usize>,
    vc_rr: Vec<usize>,
    /// Request queues, flat: output `o` owns `req[o*stride ..]` with
    /// `req_len[o]` live entries — sorted in-node input-buffer indices
    /// whose head flit requests it (may contain stale entries, dropped at
    /// visit). At most `stride` buffers exist per node, so the fixed
    /// stride can never overflow.
    req: Vec<u32>,
    /// Live request count per output. A queue holds up to `stride =
    /// 5·vcs` buffers, so the counter is as wide as a buffer index.
    req_len: Vec<u32>,
    /// Bitset of outputs to visit in the current cycle: the scan iterates
    /// its set bits ascending — exactly the reference's node-major/
    /// port-minor output order, restricted to outputs with a pending
    /// enabling event. Bits are cleared at visit.
    dirty: Vec<u64>,
    /// The event wheel: `ring[T % K]` holds the outputs to mark dirty at
    /// cycle `T`. Every wakeup is at most `K = max(link, router) + 2`
    /// cycles ahead (busy expiry, head router charge, next-cycle
    /// dependency marks), so a tiny ring replaces a priority queue.
    ring: Vec<Vec<u32>>,
    /// Flits crossing channels, bucketed by arrival time. Every forward
    /// at cycle `t` lands at `t + link_delay`, so arrival times are
    /// nondecreasing and a plain FIFO of buckets suffices — O(1) per
    /// flit, no heap.
    due: VecDeque<(u64, Vec<Landing>)>,
    /// Recycled landing buckets.
    spare: Vec<Vec<Landing>>,
    /// (front entry time, node) per NI queue awaiting injection room.
    ni_events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Latest entry time scheduled in `ni_events` per node (dedup).
    ni_sched: Vec<u64>,
    /// Per-node NI queues of not-yet-injected traffic, one run per worm
    /// in injection order (see [`NiRun`]).
    pending: Vec<VecDeque<NiRun>>,
    /// Scratch: ready candidates of the output being visited, with their
    /// head flit (copied once during validation).
    cand: Vec<(u32, Flit)>,
    /// Input port per in-node buffer index (`buf / vcs` as a lookup, so
    /// the per-move division by a runtime VC count disappears).
    port_of: Vec<u8>,
    /// The steady-stream detector's record: the moves of the cycle being
    /// processed, those of the last processed cycle, and that cycle if it
    /// was clean (see [`Engine::settle`]). Kept here, not in the engine,
    /// so a paused closed-loop state resumes with its history (and
    /// snapshots copy it).
    moves: Vec<Move>,
    prev_moves: Vec<Move>,
    prev_cycle: Option<u64>,
    /// Scratch: the (buffer, worm) pops of a candidate steady cycle.
    popped: Vec<(u32, u32)>,
}

/// Event-wheel slots for `cfg`: the horizon of the farthest wakeup an
/// enabling event can schedule, `max(link_delay, router_delay) + 2`,
/// rounded to a power of two so slot lookup is a mask, not a division.
fn wheel_slots(cfg: &MeshConfig) -> u64 {
    (cfg.link_delay.max(cfg.router_delay) + 2).next_power_of_two()
}

impl Workspace {
    /// Clears the workspace for a run on `cfg` (capacity kept).
    fn reset_for(&mut self, cfg: &MeshConfig) {
        let nodes = cfg.shape.nodes();
        let vcs = cfg.virtual_channels;
        let ring_slots = wheel_slots(cfg) as usize;
        let cap = cfg.buffer_flits.next_power_of_two();
        let nbuf = nodes * NPORTS * vcs;
        let nout = nodes * NPORTS;
        self.worms.clear();
        self.routes.clear();
        let filler = Flit { worm: 0, kind: Kind::Body, ready: 0, hop: 0 };
        self.slab.clear();
        self.slab.resize(nbuf * cap, filler);
        self.bhead.clear();
        self.bhead.resize(nbuf, 0);
        self.blen.clear();
        self.blen.resize(nbuf, 0);
        self.reserved.clear();
        self.reserved.resize(nbuf, 0);
        self.owners.clear();
        self.owners.resize(nout * vcs, None);
        self.busy_until.clear();
        self.busy_until.resize(nout, 0);
        self.busy_ticks.clear();
        self.busy_ticks.resize(nout, 0);
        self.rr.clear();
        self.rr.resize(nout, 0);
        self.vc_rr.clear();
        self.vc_rr.resize(nout, 0);
        self.req.clear();
        self.req.resize(nout * NPORTS * vcs, 0);
        self.req_len.clear();
        self.req_len.resize(nout, 0);
        self.dirty.clear();
        self.dirty.resize(nout.div_ceil(64), 0);
        for slot in &mut self.ring {
            slot.clear();
        }
        self.ring.resize_with(ring_slots, Vec::new);
        while let Some((_, mut bucket)) = self.due.pop_front() {
            bucket.clear();
            self.spare.push(bucket);
        }
        self.ni_events.clear();
        self.ni_sched.clear();
        self.ni_sched.resize(nodes, u64::MAX);
        for q in &mut self.pending {
            q.clear();
        }
        self.pending.resize_with(nodes, VecDeque::new);
        self.cand.clear();
        self.port_of.clear();
        self.port_of.extend((0..NPORTS * vcs).map(|b| (b / vcs) as u8));
        self.moves.clear();
        self.prev_moves.clear();
        self.prev_cycle = None;
    }

    /// Makes `self` a snapshot of `src`, reusing every allocation and
    /// skipping the parts that provably match — the speculative-state
    /// refresh of the closed-loop engine, which must not cost O(history)
    /// per message:
    ///
    /// - `routes` is an append-only arena, so only its new suffix is
    ///   copied;
    /// - worms below the `finalized` watermark (delivered in both states)
    ///   hold their final, state-independent values and are skipped; only
    ///   the mutable tail is refreshed;
    /// - everything else is mesh-sized, in-flight-sized or (the NI runs)
    ///   sized by the worms still queued, and is copied with `clone_from`
    ///   (capacity kept).
    ///
    /// `self` must be an earlier snapshot of the same run (or empty), so
    /// its arenas are prefixes of `src`'s.
    fn sync_from(&mut self, src: &Workspace, finalized: usize) {
        debug_assert!(self.routes.len() <= src.routes.len());
        debug_assert!(self.worms.len() <= src.worms.len());
        debug_assert!(finalized <= self.worms.len());
        self.routes.extend_from_slice(&src.routes[self.routes.len()..]);
        let known = self.worms.len();
        self.worms[finalized..].copy_from_slice(&src.worms[finalized..known]);
        self.worms.extend_from_slice(&src.worms[known..]);
        self.slab.clone_from(&src.slab);
        self.bhead.clone_from(&src.bhead);
        self.blen.clone_from(&src.blen);
        self.reserved.clone_from(&src.reserved);
        self.owners.clone_from(&src.owners);
        self.busy_until.clone_from(&src.busy_until);
        self.busy_ticks.clone_from(&src.busy_ticks);
        self.rr.clone_from(&src.rr);
        self.vc_rr.clone_from(&src.vc_rr);
        self.req.clone_from(&src.req);
        self.req_len.clone_from(&src.req_len);
        self.dirty.clone_from(&src.dirty);
        self.ring.clone_from(&src.ring);
        self.due.clone_from(&src.due);
        self.spare.clone_from(&src.spare);
        self.ni_events.clone_from(&src.ni_events);
        self.ni_sched.clone_from(&src.ni_sched);
        self.pending.clone_from(&src.pending);
        self.cand.clone_from(&src.cand);
        self.port_of.clone_from(&src.port_of);
        self.moves.clone_from(&src.moves);
        self.prev_moves.clone_from(&src.prev_moves);
        self.prev_cycle = src.prev_cycle;
    }
}

/// The cycle-accurate network model: event-driven, cycle-identical to
/// [`FlitCycleReference`](crate::FlitCycleReference) (see the module docs
/// for the microarchitecture).
///
/// A **batch** run ([`simulate`](FlitLevel::simulate),
/// [`run`](FlitLevel::run)) takes the whole schedule up front. A
/// **closed-loop** run takes one message at a time through
/// [`try_send`](FlitLevel::try_send) (the [`NetEngine`](crate::NetEngine)
/// contract) and reports each delivery at once; [`try_drain`](FlitLevel::try_drain)
/// or [`into_sink`](FlitLevel::into_sink) ends it. Both end in the same
/// drain, and the closed-loop log is identical to a batch run's over the
/// same injection schedule.
///
/// Like [`OnlineWormhole`](crate::OnlineWormhole), the model is generic
/// over its [`LogSink`]: the default [`NetLog`] retains every record; a
/// [`NetTally`](crate::NetTally) folds each delivery into the exact summary
/// instead.
///
/// # Committed and speculative state
///
/// The flit router is not causal the way the recurrence model is: a later
/// injection can retroactively change an earlier message's delivery
/// (round-robin allocation, buffer contention). So an exact synchronous
/// answer to "when will this message arrive" is impossible before the
/// future traffic is known. The closed loop keeps two copies of the loop
/// state:
///
/// - **committed** — has processed only cycles that are already *final*:
///   every cycle strictly below `inject + hop_latency` of the latest
///   injection (no future flit can enter a network interface earlier than
///   that, and injections are nondecreasing, so nothing can perturb those
///   cycles). The committed trajectory is therefore exactly the batch
///   trajectory, which is what makes the final log identical.
/// - **speculative** — a clone of the committed state run ahead far enough
///   to deliver the newest message, *assuming no further traffic*. Its
///   delivery cycle is the value [`try_send`](FlitLevel::try_send)
///   returns: the engine's best feedback given everything injected so far.
///
/// On the next send, the speculation is **promoted** to committed for free
/// when it never crossed the new safe horizon (the common case under
/// bursty traffic: speculation barely runs ahead), and discarded otherwise
/// — the committed state then re-advances, redoing only the cycles the
/// speculation guessed at. Either way no cycle is ever committed until it
/// is final. A batch run is the committed state alone, drained with every
/// worm queued.
///
/// # Example
///
/// ```
/// use commchar_mesh::{FlitLevel, MeshConfig, NetMessage, NodeId};
/// use commchar_des::SimTime;
///
/// let msgs = vec![NetMessage {
///     id: 0, src: NodeId(0), dst: NodeId(3), bytes: 16, inject: SimTime::ZERO,
/// }];
/// let log = FlitLevel::new(MeshConfig::new(2, 2)).simulate(&msgs);
/// assert_eq!(log.records().len(), 1);
///
/// // The same message through the closed loop.
/// let mut net = FlitLevel::new(MeshConfig::new(2, 2));
/// let delivered = net.try_send(msgs[0]).unwrap();
/// let closed = net.into_log();
/// assert_eq!(closed.records(), log.records());
/// assert_eq!(closed.records()[0].delivered, delivered.ticks());
/// ```
#[derive(Debug)]
pub struct FlitLevel<S: LogSink = NetLog> {
    cfg: MeshConfig,
    sink: S,
    /// The run's state, advanced through final cycles only.
    committed: LoopState,
    /// The speculation behind the last send's answer.
    spec: Option<LoopState>,
    /// Per-node prefix max of NI entry times: the floor of the node's
    /// next worm.
    entered: Vec<u64>,
    /// Latest injection of the open closed-loop run; `None` while no run
    /// is open.
    last_inject: Option<SimTime>,
    /// `--sim-jobs`: worker threads for the sharded drain. `1` runs the
    /// serial engine; the output is byte-identical for every value.
    sim_jobs: usize,
    /// Event-loop work accumulated across runs.
    work: FlitWork,
}

impl FlitLevel {
    /// Creates a model logging into a [`NetLog`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration lacks the virtual channels its
    /// (topology × routing) pair needs for deadlock freedom (the torus
    /// dateline escape classes, the adaptive XY/YX classes) — use
    /// [`FlitLevel::try_new`] for the typed error.
    pub fn new(cfg: MeshConfig) -> Self {
        FlitLevel::with_sink(cfg, NetLog::new())
    }

    /// [`new`](FlitLevel::new), surfacing an undersized virtual-channel
    /// budget as [`EngineError::UnsupportedTopology`] instead of a panic.
    pub fn try_new(cfg: MeshConfig) -> Result<Self, EngineError> {
        FlitLevel::try_with_sink(cfg, NetLog::new())
    }

    /// Finishes the simulation and returns the network log (see
    /// [`into_sink`](FlitLevel::into_sink)).
    pub fn into_log(self) -> NetLog {
        self.into_sink()
    }

    /// Simulates `msgs` (any order; they are sorted by injection time) and
    /// returns the completed network log. The model keeps its warmed-up
    /// workspace for the next batch.
    pub fn simulate(&mut self, msgs: &[NetMessage]) -> NetLog {
        self.run(msgs);
        std::mem::take(&mut self.sink)
    }
}

impl<S: LogSink> FlitLevel<S> {
    /// Creates a model delivering records into `sink`.
    ///
    /// # Panics
    ///
    /// Panics on an undersized virtual-channel budget (see
    /// [`FlitLevel::new`]).
    pub fn with_sink(cfg: MeshConfig, sink: S) -> Self {
        FlitLevel::try_with_sink(cfg, sink).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`with_sink`](FlitLevel::with_sink), surfacing an undersized
    /// virtual-channel budget as [`EngineError::UnsupportedTopology`]
    /// instead of a panic.
    pub fn try_with_sink(cfg: MeshConfig, sink: S) -> Result<Self, EngineError> {
        EngineError::check_flit(&cfg)?;
        Ok(FlitLevel {
            cfg,
            sink,
            committed: LoopState::empty(),
            spec: None,
            entered: Vec::new(),
            last_inject: None,
            sim_jobs: 1,
            work: FlitWork::default(),
        })
    }

    /// Sets the `--sim-jobs` worker count: `1` (the default) is the
    /// serial engine, `0` means one worker per hardware thread, `N > 1`
    /// partitions the mesh into row bands run by a conservative-window
    /// wavefront (see the `shard` module docs). Cycle-identical — the
    /// log and utilization are byte-identical for every value.
    ///
    /// Closed-loop sends are unaffected (each answer depends on all
    /// traffic so far); what parallelizes there is the closing drain of
    /// every still-in-flight worm, which dominates wall-clock on large
    /// meshes.
    pub fn with_sim_jobs(mut self, sim_jobs: usize) -> Self {
        self.sim_jobs = sim_jobs;
        self
    }

    /// The network configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// The sink accumulating this network's records. Records reach it
    /// when a run is drained — at the end of a batch run, or at
    /// [`try_drain`](FlitLevel::try_drain) of a closed-loop run — once
    /// delivery times are final.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Event-loop work accumulated over every run so far, speculation and
    /// final drains included.
    pub fn work(&self) -> FlitWork {
        self.work
    }

    /// Simulates one batch of messages (any order), feeding one record per
    /// message and then the batch's per-channel utilization into the
    /// sink. Each batch is a fresh run; an open closed-loop run is
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if the simulation wedges (a deadlocked configuration), with a
    /// per-worm account of what is still in flight — use
    /// [`try_run`](FlitLevel::try_run) for the typed error.
    pub fn run(&mut self, msgs: &[NetMessage]) {
        self.try_run(msgs).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`run`](FlitLevel::run), surfacing a wedge as
    /// [`EngineError::Wedged`] instead of a panic.
    pub fn try_run(&mut self, msgs: &[NetMessage]) -> Result<(), EngineError> {
        self.restart();
        // Sort indices, not messages: the caller's slice is never cloned.
        let mut order: Vec<u32> = (0..msgs.len() as u32).collect();
        order.sort_by_key(|&i| (msgs[i as usize].inject, msgs[i as usize].id));
        for i in order {
            self.add_worm(msgs[i as usize]);
        }
        self.close_run()
    }

    /// Injects a message into the closed-loop run (opening one if none is
    /// open) and returns the delivery cycle of its tail flit at the
    /// destination network interface, given all traffic injected so far.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfOrder`] if `msg.inject` precedes the run's
    /// previous injection; [`EngineError::Wedged`] if the router deadlocks
    /// before the answer exists.
    pub fn try_send(&mut self, msg: NetMessage) -> Result<SimTime, EngineError> {
        match self.last_inject {
            Some(last) if msg.inject < last => {
                return Err(EngineError::OutOfOrder { id: msg.id, inject: msg.inject, last });
            }
            Some(_) => {}
            None => self.restart(),
        }
        self.last_inject = Some(msg.inject);
        self.work.closed_loop_sends += 1;
        // Cycles strictly below the horizon can no longer change: this
        // message's first flit cannot enter an NI before it, and neither
        // can any later message's.
        let horizon = msg.inject.ticks() + self.cfg.hop_latency();
        let mut scratch = match self.spec.take() {
            // The speculation never processed a non-final cycle:
            // everything it did would have been redone identically, so it
            // *becomes* the committed state; the old committed state is
            // recycled as the next speculation's buffer.
            Some(spec) if spec.clock.is_none_or(|c| c < horizon) => {
                std::mem::replace(&mut self.committed, spec)
            }
            // Discarded speculation: its buffers are recycled.
            Some(spec) => {
                self.work.speculations_discarded += 1;
                spec
            }
            None => LoopState::empty(),
        };
        self.committed.advance(&self.cfg, Goal::Before(horizon), &mut self.work)?;
        // Committed deliveries are final — advance the watermark the
        // snapshot refresh skips below.
        while self.committed.finalized < self.committed.ws.worms.len()
            && self.committed.ws.worms[self.committed.finalized].delivered.is_some()
        {
            self.committed.finalized += 1;
        }
        let w = self.add_worm(msg);
        scratch.sync_from(&self.committed);
        scratch.advance(&self.cfg, Goal::Deliver(w), &mut self.work)?;
        let delivered = scratch.ws.worms[w as usize].delivered.expect("Deliver goal reached");
        self.spec = Some(scratch);
        Ok(SimTime::from_ticks(delivered))
    }

    /// Ends the open closed-loop run, if any, exactly as a batch run ends:
    /// drains every in-flight worm, then feeds the sink one record per
    /// message in injection order and the run's per-channel utilization.
    /// A no-op when no run is open.
    ///
    /// # Errors
    ///
    /// [`EngineError::Wedged`] if the drain deadlocks.
    pub fn try_drain(&mut self) -> Result<(), EngineError> {
        match self.last_inject.take() {
            Some(_) => self.close_run(),
            None => Ok(()),
        }
    }

    /// Finishes the simulation — drains an open closed-loop run (see
    /// [`try_drain`](FlitLevel::try_drain)) — and returns the sink.
    ///
    /// # Panics
    ///
    /// Panics if the drain wedges (the [`EngineError::Wedged`] display).
    pub fn into_sink(mut self) -> S {
        self.try_drain().unwrap_or_else(|e| panic!("{e}"));
        self.sink
    }

    /// Starts a new run: an idle network, no worms, no cycle processed.
    fn restart(&mut self) {
        self.committed.reset_for(&self.cfg);
        self.spec = None;
        self.entered.clear();
        self.entered.resize(self.cfg.shape.nodes(), 0);
        self.last_inject = None;
    }

    /// Builds the message's worm and queues it at its source NI, behind
    /// the node's earlier worms, in the committed state.
    ///
    /// The route is appended to the shared arena as packed bytes, `class
    /// << HOP_PORT_BITS | port` per inter-router hop and then an ejection
    /// byte: the class is the virtual-channel class the hop's head
    /// allocates from, so the torus dateline (escape) discipline and the
    /// adaptive XY/YX split live entirely in these bytes and the hot loop
    /// just masks and shifts.
    ///
    /// Flits of one message stay contiguous (a worm may never interleave
    /// with another in the injection buffer); the head becomes available
    /// `hop_latency` after injection and the body follows at one flit per
    /// `link_delay`. Entry times are the running prefix max per node — the
    /// cycle each flit enters the reference's (unbounded) injection buffer
    /// — and heads are charged their router delay from that cycle. This
    /// decouples the charge from our *capped* injection buffers: a flit may
    /// wait in its run past its entry time for a slot without perturbing
    /// any observable timing. Messages enter injection VC 0; VC spreading
    /// happens at the routers. In the closed loop entry times are always at
    /// or beyond the safe horizon, so queueing never touches a committed
    /// cycle.
    fn add_worm(&mut self, m: NetMessage) -> u32 {
        let cfg = self.cfg;
        let ws = &mut self.committed.ws;
        let w = ws.worms.len() as u32;
        let route_off = ws.routes.len() as u32;
        cfg.shape.route_hops_into(m.src, m.dst, cfg.routing, &mut ws.routes);
        let worm = Worm {
            msg: m,
            route_off,
            route_len: ws.routes.len() as u32 - route_off,
            flits: cfg.flits_for(m.bytes),
            ejected: 0,
            head_hop: route_off,
            delivered: None,
        };
        ws.worms.push(worm);
        let src = m.src.index();
        let run = NiRun { worm: w, next: 0, floor: self.entered[src] };
        if ws.pending[src].is_empty() {
            // Announce the queue front in the NI heap.
            let (entry, _) = ni_flit(&cfg, &worm, &run);
            ws.ni_events.push(Reverse((entry, src as u32)));
            ws.ni_sched[src] = entry;
        }
        ws.pending[src].push_back(run);
        // The entry time of the worm's tail: the next worm's floor.
        let tail = m.inject.ticks() + cfg.hop_latency() + (worm.flits - 1) * cfg.link_delay;
        self.entered[src] = run.floor.max(tail);
        self.committed.remaining += 1;
        w
    }

    /// Ends the run: promotes the speculation (with no further sends it is
    /// the true trajectory), drains every worm — on the sharded wavefront
    /// when `sim_jobs` asks for more than one shard, after splitting the
    /// committed mid-run state — and emits one record per message in
    /// injection order (what the reference produces and what per-source
    /// inter-arrival statistics expect), then the per-channel utilization
    /// over the run's span.
    fn close_run(&mut self) -> Result<(), EngineError> {
        if let Some(spec) = self.spec.take() {
            self.committed = spec;
        }
        let cfg = self.cfg;
        let st = &mut self.committed;
        let shards = shard::plan(self.sim_jobs, cfg.shape.height() as usize);
        if shards > 1 && st.remaining > 0 {
            let stepped = shard::drain_sharded(&cfg, &mut st.ws, st.clock, st.remaining, shards)?;
            self.work.cycles_stepped += stepped;
        } else {
            st.advance(&cfg, Goal::Drain, &mut self.work)?;
        }
        let mut first_inject: Option<u64> = None;
        let mut last_delivery = 0u64;
        for worm in &st.ws.worms {
            let delivered = worm.delivered.expect("all worms delivered");
            first_inject.get_or_insert(worm.msg.inject.ticks());
            last_delivery = last_delivery.max(delivered);
            let hops = cfg.shape.hop_distance(worm.msg.src, worm.msg.dst);
            self.sink.record(MsgRecord {
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
        let span = match first_inject {
            Some(first) if last_delivery > first => (last_delivery - first) as f64,
            _ => 0.0,
        };
        let mut util = Vec::new();
        for node in 0..cfg.shape.nodes() {
            for port in 0..NPORTS {
                let busy = st.ws.busy_ticks[node * NPORTS + port];
                if busy > 0 && span > 0.0 {
                    util.push((out_channel_id(node, port), busy as f64 / span));
                }
            }
        }
        self.sink.finish(util);
        Ok(())
    }
}

/// Matches MeshShape channel numbering: dirs 0..3, ejection 5.
fn out_channel_id(node: usize, port: usize) -> u32 {
    if port == PORT_LOCAL {
        node as u32 * 6 + 5
    } else {
        node as u32 * 6 + port as u32
    }
}

/// What [`Engine::advance`] runs the event loop toward.
#[derive(Clone, Copy, Debug)]
enum Goal {
    /// Run until every worm is delivered (the batch semantics).
    Drain,
    /// Run until worm `w` is delivered.
    Deliver(u32),
    /// Run every cycle strictly before the horizon, then stop. Cycles
    /// below the horizon are *final* for the closed-loop engine: no
    /// message injected from now on can put a flit into a network
    /// interface earlier than `inject + hop_latency`.
    Before(u64),
}

/// A boundary event crossing between adjacent shards, labeled with the
/// cycle at which the receiver must apply it (before scanning that cycle).
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A flit completing its channel traversal into a receiver-side input
    /// buffer — the cross-shard form of a [`Workspace::due`] entry.
    Landing(Landing),
    /// A receiver-side pop of input buffer `buf` (global index) that fed
    /// from the receiver's output `out`: the receiver decrements its
    /// `occ` capacity mirror for `buf` and marks `out` dirty — the
    /// cross-shard form of the feeder wakeup in
    /// [`Engine::move_flit`].
    Pop {
        /// Feeder output (global `node*NPORTS + port`) owned by the receiver.
        out: u32,
        /// The popped downstream buffer (global slab index).
        buf: u32,
    },
}

/// Per-shard engine extension: the node range this engine owns plus the
/// capacity mirrors and outboxes that stand in for directly touching a
/// neighbor shard's state. `None` on the serial path — every sharded
/// branch in the engine is one predictable `is_some` test.
#[derive(Debug, Default)]
struct ShardCtx {
    /// First owned node (row-contiguous band, row-major node ids).
    lo: usize,
    /// One past the last owned node.
    hi: usize,
    /// Mirror of `blen + reserved` for the *remote* downstream buffers of
    /// this shard's boundary outputs, indexed like `reserved` (global
    /// buffer index). `+1` at each boundary forward, `-1` on a received
    /// [`Ev::Pop`] — so the capacity check sees exactly what the serial
    /// engine would.
    occ: Vec<u32>,
    /// Owned input buffers fed by a remote shard: their `reserved` is
    /// authoritative on the *upstream* side (`occ`), so landings here
    /// skip the local `reserved` decrement.
    remote_fed: Vec<bool>,
    /// Events for the *predecessor* band (across this shard's north
    /// boundary), flushed at end of cycle. On a mesh that is always the
    /// lower-index neighbor; on a torus, shard 0's predecessor is the
    /// last shard via the wraparound links.
    out_lo: Vec<(u64, Ev)>,
    /// Events for the *successor* band (across the south boundary).
    out_hi: Vec<(u64, Ev)>,
}

impl ShardCtx {
    #[inline]
    fn is_remote(&self, node: usize) -> bool {
        node < self.lo || node >= self.hi
    }

    /// Outbox for the boundary crossed in direction `port`. Bands are
    /// whole rows, so every cross-shard link is vertical and the *port*
    /// names the edge unambiguously — north crosses to the predecessor
    /// band, south to the successor. (Classifying by node index would
    /// misroute torus wrap traffic: shard 0's north-wrap peer has the
    /// numerically highest ids but belongs to the predecessor edge.)
    #[inline]
    fn outbox(&mut self, port: usize) -> &mut Vec<(u64, Ev)> {
        debug_assert!(port == PORT_N || port == PORT_S, "cross-shard links are vertical");
        if port == PORT_N {
            &mut self.out_lo
        } else {
            &mut self.out_hi
        }
    }
}

/// One run of the event loop over a prepared workspace.
struct Engine<'a> {
    cfg: MeshConfig,
    vcs: usize,
    /// Buffers per node (`NPORTS * vcs`).
    stride: usize,
    /// Ring size: `max(link_delay, router_delay) + 2` rounded up to a
    /// power of two — every wakeup an enabling event can schedule lies
    /// within this horizon, and slot lookup is `& (wheel - 1)`.
    wheel: u64,
    /// Slab slots per buffer: `buffer_flits.next_power_of_two()`.
    cap: usize,
    ws: &'a mut Workspace,
    remaining: usize,
    /// Sharded-mode extension (`None` on the serial path).
    shard: Option<&'a mut ShardCtx>,
    /// Steady-stream skipping is on: the serial engine with
    /// `link_delay == 1` (a stream with a slower link never repeats its
    /// previous cycle, and sharded windows always step).
    detect: bool,
    /// The cycle being processed has had nothing but candidate steady
    /// moves so far (see [`settle`](Engine::settle)).
    clean: bool,
    /// Ring marks scheduled during the cycle being processed.
    marks: usize,
    /// Work done by this engine.
    work: FlitWork,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: MeshConfig,
        ws: &'a mut Workspace,
        remaining: usize,
        shard: Option<&'a mut ShardCtx>,
    ) -> Engine<'a> {
        let vcs = cfg.virtual_channels;
        Engine {
            cfg,
            vcs,
            stride: NPORTS * vcs,
            wheel: wheel_slots(&cfg),
            cap: cfg.buffer_flits.next_power_of_two(),
            ws,
            remaining,
            detect: shard.is_none() && cfg.link_delay == 1,
            shard,
            clean: false,
            marks: 0,
            work: FlitWork::default(),
        }
    }
}

impl Engine<'_> {
    /// Head flit of buffer `b`, if any (a copy — flits are small).
    #[inline]
    fn bfront(&self, b: usize) -> Option<Flit> {
        if self.ws.blen[b] == 0 {
            return None;
        }
        Some(self.ws.slab[b * self.cap + (self.ws.bhead[b] as usize & (self.cap - 1))])
    }

    /// Appends `f` to buffer `b` (capacity is the caller's invariant).
    #[inline]
    fn bpush(&mut self, b: usize, f: Flit) {
        debug_assert!((self.ws.blen[b] as usize) < self.cap);
        let i = (self.ws.bhead[b] + self.ws.blen[b]) as usize & (self.cap - 1);
        self.ws.slab[b * self.cap + i] = f;
        self.ws.blen[b] += 1;
    }

    /// Runs the event loop from `clock` (the last processed cycle, `None`
    /// before the first) until `goal` is met, and returns the new clock.
    ///
    /// The loop never stops *inside* a cycle — only between event times —
    /// so a paused engine resumes exactly where a straight-through run
    /// would be: `advance(Before(c))` then `advance(Drain)` is
    /// cycle-identical to `advance(Drain)` alone, provided any events
    /// added in between lie at or beyond `c`. That property is what lets
    /// the closed loop ([`FlitLevel::try_send`]) interleave out-of-band
    /// injections with simulation.
    ///
    /// # Errors
    ///
    /// [`EngineError::Wedged`] (with the human-readable report) if the
    /// goal is `Drain` or `Deliver` and the event queues run dry (or the
    /// step guard trips) first.
    fn advance(&mut self, mut clock: Option<u64>, goal: Goal) -> Result<Option<u64>, EngineError> {
        let mut guard: u64 = 0;
        let guard_limit = 200_000_000;
        loop {
            match goal {
                Goal::Drain if self.remaining == 0 => return Ok(clock),
                Goal::Deliver(w) if self.ws.worms[w as usize].delivered.is_some() => {
                    return Ok(clock);
                }
                _ => {}
            }
            let t = match clock {
                Some(c) => self.next_time(c),
                None => self.first_time(),
            };
            let t = match t {
                Some(t) => t,
                None if matches!(goal, Goal::Before(_)) => return Ok(clock),
                None => {
                    return Err(EngineError::Wedged {
                        report: self.wedge_report(clock.unwrap_or(0)),
                    });
                }
            };
            if let Goal::Before(cut) = goal {
                if t >= cut {
                    return Ok(clock);
                }
            }
            guard += 1;
            if guard >= guard_limit {
                return Err(EngineError::Wedged {
                    report: format!(
                        "flit simulation exceeded {guard_limit} steps\n{}",
                        self.wedge_report(t)
                    ),
                });
            }
            self.clean = true;
            self.marks = 0;
            self.drain_ni(t);
            self.land_arrivals(t);
            self.promote_ring(t);
            self.scan(t);
            self.work.cycles_stepped += 1;
            clock = Some(if self.detect { self.settle(t, goal) } else { t });
        }
    }

    /// Promotes cycle `t`'s scheduled ring wakeups to dirty bits — the
    /// step between landing arrivals and the allocation sweep.
    #[inline]
    fn promote_ring(&mut self, t: u64) {
        let slot = (t & (self.wheel - 1)) as usize;
        let Workspace { ring, dirty, .. } = &mut *self.ws;
        for o in ring[slot].drain(..) {
            dirty[o as usize / 64] |= 1 << (o % 64);
        }
    }

    /// Schedules output `o` for a visit at future cycle `at`.
    #[inline]
    fn mark_at(&mut self, at: u64, o: u32) {
        self.ws.ring[(at & (self.wheel - 1)) as usize].push(o);
        self.marks += 1;
    }

    /// Output port requested by `f` (O(1) via the hop cursor; the class
    /// bits above the port code are masked off).
    #[inline]
    fn flit_port(&self, f: &Flit) -> usize {
        (self.ws.routes[f.hop as usize] & HOP_PORT_MASK) as usize
    }

    /// Virtual-channel class of the hop `f` is at (the bits above the
    /// port code).
    #[inline]
    fn class_of(&self, f: &Flit) -> usize {
        (self.ws.routes[f.hop as usize] >> HOP_PORT_BITS) as usize
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

    /// Registers `flit` (the new head of `node`'s buffer `buf`) with the
    /// output it requests and marks that output dirty; returns the
    /// output's global index. If the flit is still paying its router
    /// charge, the output is also scheduled for a visit when the charge
    /// completes.
    fn register(&mut self, node: usize, buf: usize, flit: Flit, t: u64) -> u32 {
        let out = self.flit_port(&flit);
        let o = node * NPORTS + out;
        let base = o * self.stride;
        let len = self.ws.req_len[o] as usize;
        let buf = buf as u32;
        // Sorted insert by linear scan — queues hold at most `stride`
        // (tiny) entries, and the common case is "already present".
        let mut pos = len;
        let mut present = false;
        for i in 0..len {
            let cur = self.ws.req[base + i];
            if cur >= buf {
                present = cur == buf;
                pos = i;
                break;
            }
        }
        if !present {
            self.ws.req.copy_within(base + pos..base + len, base + pos + 1);
            self.ws.req[base + pos] = buf;
            self.ws.req_len[o] = (len + 1) as u32;
        }
        self.ws.dirty[o / 64] |= 1 << (o % 64);
        if flit.ready > t {
            self.mark_at(flit.ready, o as u32);
        }
        o as u32
    }

    /// Appends `flit` to an input buffer, registering a request if it
    /// became head-of-buffer.
    fn push_buffer(&mut self, node: usize, buf: usize, flit: Flit, t: u64) {
        let b = node * self.stride + buf;
        self.bpush(b, flit);
        if self.ws.blen[b] == 1 {
            self.register(node, buf, flit, t);
        }
    }

    /// Moves NI flits whose entry time has arrived into the injection
    /// buffers, as far as capacity allows. Flits held back by a full
    /// buffer are pulled in directly when a pop frees a slot
    /// ([`move_flit`](Engine::move_flit)); their observable timing (head
    /// router charge, head-of-buffer exposure) is fixed by the entry
    /// times [`ni_flit`] computes at queueing, not by when they
    /// physically occupy a slot here.
    fn drain_ni(&mut self, t: u64) {
        let inj_buf = PORT_LOCAL * self.vcs;
        while let Some(&Reverse((entry, node))) = self.ws.ni_events.peek() {
            if entry > t {
                break;
            }
            self.ws.ni_events.pop();
            self.clean = false;
            let node = node as usize;
            let b = node * self.stride + inj_buf;
            while (self.ws.blen[b] as usize) < self.cap {
                match self.ni_front(node) {
                    Some((e, flit)) if e <= t => {
                        self.ni_pop(node);
                        self.push_buffer(node, inj_buf, flit, t);
                    }
                    _ => break,
                }
            }
            if let Some((e, _)) = self.ni_front(node) {
                if e > t && self.ws.ni_sched[node] != e {
                    self.ws.ni_events.push(Reverse((e, node as u32)));
                    self.ws.ni_sched[node] = e;
                }
            }
        }
    }

    /// The next not-yet-injected flit at `node`'s NI, with its entry time.
    #[inline]
    fn ni_front(&self, node: usize) -> Option<(u64, Flit)> {
        let run = self.ws.pending[node].front()?;
        Some(ni_flit(&self.cfg, &self.ws.worms[run.worm as usize], run))
    }

    /// Consumes the flit [`ni_front`](Engine::ni_front) returned.
    #[inline]
    fn ni_pop(&mut self, node: usize) {
        let Workspace { pending, worms, .. } = &mut *self.ws;
        let queue = &mut pending[node];
        let run = queue.front_mut().expect("NI queue holds the popped flit");
        run.next += 1;
        if run.next == worms[run.worm as usize].flits {
            queue.pop_front();
        }
    }

    /// Lands flits whose channel traversal completed (the reference's
    /// phase 1). Returns whether anything landed.
    fn land_arrivals(&mut self, t: u64) -> bool {
        let mut landed = false;
        while let Some(&(at, _)) = self.ws.due.front() {
            if at > t {
                break;
            }
            let (_, mut bucket) = self.ws.due.pop_front().unwrap();
            for Landing { node, buf, mut flit } in bucket.drain(..) {
                let (node, buf) = (node as usize, buf as usize);
                flit.ready = if flit.kind == Kind::Head { t + self.cfg.router_delay } else { t };
                self.clean &= flit.kind == Kind::Body;
                let b = node * self.stride + buf;
                // Remote-fed buffers are accounted on the upstream side
                // (its `occ` mirror); the local `reserved` stays zero.
                if !self.shard.as_ref().is_some_and(|c| c.remote_fed[b]) {
                    self.ws.reserved[b] -= 1;
                }
                self.push_buffer(node, buf, flit, t);
            }
            self.ws.spare.push(bucket);
            landed = true;
        }
        landed
    }

    /// One cycle of switch + VC allocation over the outputs with work
    /// (the reference's phase 2). Returns whether any flit moved.
    ///
    /// The word is re-read after every visit, so a visit that sets a bit
    /// *ahead* of the scan position (a pop exposing a new head) joins this
    /// same cycle, while one at or behind it waits for the next — the
    /// in-cycle semantics of the reference's sequential pass.
    fn scan(&mut self, t: u64) -> bool {
        let mut moved = false;
        for wi in 0..self.ws.dirty.len() {
            let mut mask = !0u64;
            loop {
                let w = self.ws.dirty[wi] & mask;
                if w == 0 {
                    break;
                }
                let bit = w.trailing_zeros();
                moved |= self.visit_output(wi * 64 + bit as usize, t);
                mask = if bit == 63 { 0 } else { !((1u64 << (bit + 1)) - 1) };
            }
        }
        moved
    }

    /// Visits one output at cycle `t`: validates its request queue, runs
    /// the reference's round-robin selection over the ready candidates,
    /// and moves at most one flit. Visits are only triggered by enabling
    /// events, and a visit that moves nothing changes no model state, so
    /// extra visits are harmless — only a *missing* visit could diverge
    /// from the reference, and every enabling transition schedules one:
    /// - a flit becomes head-of-buffer or its router charge completes
    ///   ([`register`](Engine::register)),
    /// - the channel frees or a VC is released / an owner established
    ///   (the move that occupied it marks `busy_until`),
    /// - downstream capacity frees (the downstream pop marks the feeder).
    fn visit_output(&mut self, o: usize, t: u64) -> bool {
        self.ws.dirty[o / 64] &= !(1 << (o % 64));
        let rlen = self.ws.req_len[o] as usize;
        if rlen == 0 {
            return false;
        }
        if self.ws.busy_until[o] > t {
            return false; // the occupying move scheduled the expiry visit
        }
        let node = o / NPORTS;
        let out = o % NPORTS;
        let base = node * self.stride;
        let rbase = o * self.stride;
        let mut cand = std::mem::take(&mut self.ws.cand);
        cand.clear();
        // One pass: drop stale entries (buffers whose current head no
        // longer requests `o`) in place while collecting the ready
        // candidates with a copy of their head flit.
        let mut keep = 0;
        for i in 0..rlen {
            let buf = self.ws.req[rbase + i];
            if let Some(f) = self.bfront(base + buf as usize) {
                if (self.ws.routes[f.hop as usize] & HOP_PORT_MASK) as usize == out {
                    self.ws.req[rbase + keep] = buf;
                    keep += 1;
                    if f.ready <= t {
                        cand.push((buf, f));
                    }
                }
            }
        }
        self.ws.req_len[o] = keep as u32;

        // Select (buffer, output vc): body/tail flits use their worm's
        // owned VC; heads need a free VC (and downstream space).
        // Round-robin over candidates for fairness. The reduction of the
        // free-running round-robin counter costs one division, paid only
        // when there is an actual contest (`ncand > 1`).
        let mut choice: Option<(usize, usize, Flit)> = None;
        let ncand = cand.len();
        let start = if ncand > 1 { self.ws.rr[o] % ncand } else { 0 };
        for k in 0..ncand {
            let mut idx = start + k;
            if idx >= ncand {
                idx -= ncand;
            }
            let (buf, f) = cand[idx];
            let ovc = match f.kind {
                Kind::Head => match self.free_vc(o, self.class_of(&f)) {
                    Some(vc) => vc,
                    None => continue,
                },
                _ => match self.vc_of(o, f.worm) {
                    Some(vc) => vc,
                    None => continue, // owner not established yet
                },
            };
            // Capacity check downstream (ejection always sinks). A remote
            // downstream buffer is checked against this shard's `occ`
            // mirror, which tracks the same `blen + reserved` sum via
            // boundary forwards and received pop credits.
            if out != PORT_LOCAL {
                let (dn, dp) = self.downstream(node, out);
                let dbuf = dn * self.stride + dp * self.vcs + ovc;
                let occupancy = match &self.shard {
                    Some(ctx) if ctx.is_remote(dn) => ctx.occ[dbuf],
                    _ => self.ws.blen[dbuf] + self.ws.reserved[dbuf],
                };
                if occupancy as usize >= self.cfg.buffer_flits {
                    continue;
                }
            }
            choice = Some((buf as usize, ovc, f));
            break;
        }
        self.ws.cand = cand;
        match choice {
            Some((buf, ovc, f)) => {
                // A contested output's choice may rotate with `rr`, unless
                // every rival is a head with no free VC in its class: VC
                // owners change only on head and tail moves, and neither
                // happens in a steady stream.
                if ncand > 1 && self.clean {
                    self.clean = self.ws.cand.iter().all(|&(b, r)| {
                        b as usize == buf
                            || (r.kind == Kind::Head
                                && self.free_vc(o, self.class_of(&r)).is_none())
                    });
                }
                self.move_flit(o, buf, ovc, f, t);
                true
            }
            None => false,
        }
    }

    /// Moves `flit`, the (already validated) head of `buf`, through
    /// output `o` on VC `ovc`.
    fn move_flit(&mut self, o: usize, buf: usize, ovc: usize, flit: Flit, t: u64) {
        let node = o / NPORTS;
        let out = o % NPORTS;
        // Drop the head slot; `flit` is the copy the visit already took.
        let b = node * self.stride + buf;
        self.ws.bhead[b] = ((self.ws.bhead[b] as usize + 1) & (self.cap - 1)) as u32;
        self.ws.blen[b] -= 1;
        let link = self.cfg.link_delay;
        self.ws.busy_until[o] = t + link;
        self.ws.busy_ticks[o] += link;
        self.ws.rr[o] = self.ws.rr[o].wrapping_add(1);
        // Revisit when the channel frees: that is also when a released VC
        // or newly established owner becomes usable, and when the losing
        // candidates of this cycle's round-robin get their next shot.
        self.mark_at(t + link, o as u32);
        // The pop freed one slot in this input buffer: the upstream output
        // feeding it may have been capacity-blocked. Within the reference's
        // pass the freed slot is visible to outputs scanned later the same
        // cycle — the dirty bit joins this sweep if the feeder lies ahead
        // of `o`; at or behind, a next-cycle wakeup stands in for the
        // reference's rescan (all later enablings schedule their own).
        let in_port = self.ws.port_of[buf] as usize;
        if in_port != PORT_LOCAL {
            let (fnode, fport) = self.downstream(node, in_port);
            let f = (fnode * NPORTS + fport) as u32;
            let remote = self.shard.as_ref().is_some_and(|c| c.is_remote(fnode));
            if remote {
                // The feeder output lives in a neighbor shard: ship the
                // pop as a credit event instead of touching its state.
                // The *label* follows the serial sweep's numeric rule — a
                // numerically lower feeder index `f < o` gets a next-cycle
                // wakeup (label `t + 1`), a higher one same-cycle sweep
                // visibility (label `t`, applied before the receiver scans
                // `t`). The *mailbox* follows the edge (the input port),
                // which differs from the numeric order only on torus wrap
                // links, where it keeps label-`t` credits flowing from
                // numerically lower shards to higher ones.
                let popped = (node * self.stride + buf) as u32;
                let ctx = self.shard.as_mut().expect("checked above");
                let at = if fnode < ctx.lo { t + 1 } else { t };
                ctx.outbox(in_port).push((at, Ev::Pop { out: f, buf: popped }));
            } else {
                self.ws.dirty[f as usize / 64] |= 1 << (f % 64);
                if f as usize <= o {
                    self.mark_at(t + 1, f);
                }
            }
        } else {
            // Injection pop: pull the next NI flit into the freed slot if
            // its entry time has passed (the capped stand-in for the
            // reference's unbounded injection buffer).
            let b = node * self.stride + buf;
            match self.ni_front(node) {
                Some((e, nf)) if e <= t => {
                    self.ni_pop(node);
                    self.bpush(b, nf);
                }
                Some((e, _)) if self.ws.ni_sched[node] != e => {
                    self.ws.ni_events.push(Reverse((e, node as u32)));
                    self.ws.ni_sched[node] = e;
                    self.clean = false;
                }
                _ => self.clean = false,
            }
        }
        match flit.kind {
            Kind::Head => {
                self.ws.owners[o * self.vcs + ovc] = Some(flit.worm);
                self.ws.vc_rr[o] = if ovc + 1 == self.vcs { 0 } else { ovc + 1 };
            }
            Kind::Tail => self.ws.owners[o * self.vcs + ovc] = None,
            Kind::Body => {}
        }
        // The pop may expose a new head: register its request. If its
        // output lies ahead of the sweep position the scan's word re-read
        // picks it up this same cycle (as the reference's sequential pass
        // would); the ring mark covers the at-or-behind case next cycle.
        if let Some(next_head) = self.bfront(node * self.stride + buf) {
            let o2 = self.register(node, buf, next_head, t);
            if (o2 as usize) < o {
                self.mark_at(t + 1, o2);
            }
        }
        let down = if out == PORT_LOCAL {
            let worm = &mut self.ws.worms[flit.worm as usize];
            worm.ejected += 1;
            if flit.kind == Kind::Head {
                worm.head_hop = flit.hop;
            }
            if flit.kind == Kind::Tail {
                worm.delivered = Some(t + link);
                self.remaining -= 1;
            }
            EJECT
        } else {
            let (dn, dp) = self.downstream(node, out);
            let dbuf = dp * self.vcs + ovc;
            let mut forwarded = flit;
            forwarded.hop += 1;
            if forwarded.kind == Kind::Head {
                self.ws.worms[flit.worm as usize].head_hop = forwarded.hop;
            }
            let landing = Landing { node: dn as u32, buf: dbuf as u32, flit: forwarded };
            let at = t + link;
            let slot = dn * self.stride + dbuf;
            let remote = self.shard.as_ref().is_some_and(|c| c.is_remote(dn));
            if remote {
                // Boundary forward: reserve in the capacity mirror and
                // ship the landing to the owning shard (`link_delay >= 1`
                // keeps the label strictly ahead of the receiver's safe
                // horizon in both directions).
                let ctx = self.shard.as_mut().expect("checked above");
                ctx.occ[slot] += 1;
                ctx.outbox(out).push((at, Ev::Landing(landing)));
            } else {
                self.ws.reserved[slot] += 1;
                match self.ws.due.back_mut() {
                    Some(back) if back.0 == at => back.1.push(landing),
                    _ => {
                        debug_assert!(self.ws.due.back().is_none_or(|b| b.0 < at));
                        let mut bucket = self.ws.spare.pop().unwrap_or_default();
                        bucket.clear();
                        bucket.push(landing);
                        self.ws.due.push_back((at, bucket));
                    }
                }
            }
            slot as u32
        };
        if self.detect {
            // Only a clean cycle's moves are worth recording: an unclean
            // cycle can neither be steady nor precede a steady one.
            self.clean &= flit.kind == Kind::Body;
            if self.clean {
                let (out, buf) = (o as u32, (node * self.stride + buf) as u32);
                self.ws.moves.push(Move { out, buf, down, worm: flit.worm });
            }
        }
    }

    /// Ends cycle `t` for the steady-stream detector and returns the new
    /// clock: `t`, or `t + Δ` after a skip (see the module docs). The
    /// cycle is steady when it stayed clean (no NI event, body landings
    /// only, body moves only, each rivalled at its output only by heads
    /// with no free VC, every injection pop refilled from its own worm)
    /// and its moves repeat those of cycle `t − 1`, itself clean, exactly.
    /// An unclean cycle leaves no history, since its moves were recorded
    /// only up to the first unclean event.
    fn settle(&mut self, t: u64, goal: Goal) -> u64 {
        let ws = &*self.ws;
        let steady = self.clean
            && ws.prev_cycle.is_some_and(|p| p + 1 == t)
            && !ws.moves.is_empty()
            && ws.moves == ws.prev_moves;
        let delta = if steady { self.steady_span(t, goal) } else { 0 };
        if delta > 0 {
            self.skip(t, delta);
        }
        let ws = &mut *self.ws;
        std::mem::swap(&mut ws.moves, &mut ws.prev_moves);
        ws.moves.clear();
        ws.prev_cycle = self.clean.then_some(t + delta);
        t + delta
    }

    /// How many cycles after steady cycle `t` repeat it. Zero unless the
    /// wheel holds only this cycle's own `t + 1` wake-ups and the moves
    /// conserve flits per worm (every buffer a worm feeds is popped by
    /// that worm, every popped network buffer is fed), so each chain
    /// buffer holds body flits of one worm whose tail is still at its
    /// NI; otherwise bounded by the next NI event, the `Before` cut, and
    /// each streaming worm's tail, which must not leave its NI inside the
    /// span.
    fn steady_span(&mut self, t: u64, goal: Goal) -> u64 {
        let stride = self.stride;
        let ws = &mut *self.ws;
        let next_slot = ws.ring[((t + 1) & (self.wheel - 1)) as usize].len();
        if next_slot != self.marks || ws.ring.iter().map(Vec::len).sum::<usize>() != self.marks {
            return 0;
        }
        // With a one-cycle link every landing still in flight is one of
        // this cycle's forwards, due at `t + 1`.
        debug_assert!(ws.due.len() <= 1 && ws.due.front().is_none_or(|d| d.0 == t + 1));
        let mut popped = std::mem::take(&mut ws.popped);
        popped.clear();
        popped.extend(ws.moves.iter().map(|m| (m.buf, m.worm)));
        popped.sort_unstable();
        let mut span = u64::MAX;
        let (mut fed, mut net_pops) = (0usize, 0usize);
        for m in &ws.moves {
            if m.down != EJECT {
                fed += 1;
                if popped.binary_search(&(m.down, m.worm)).is_err() {
                    span = 0;
                }
            }
            if ws.port_of[m.buf as usize % stride] as usize == PORT_LOCAL {
                let left = match ws.pending[m.buf as usize / stride].front() {
                    Some(run) if run.worm == m.worm => {
                        (ws.worms[m.worm as usize].flits - 1).saturating_sub(run.next)
                    }
                    _ => 0,
                };
                span = span.min(left);
            } else {
                net_pops += 1;
            }
        }
        ws.popped = popped;
        if fed != net_pops {
            return 0;
        }
        if let Some(&Reverse((e, _))) = ws.ni_events.peek() {
            span = span.min(e.saturating_sub(t + 1));
        }
        if let Goal::Before(cut) = goal {
            span = span.min(cut.saturating_sub(t + 1));
        }
        span
    }

    /// Applies `delta` more repetitions of steady cycle `t` in one step,
    /// leaving exactly the state stepping through cycle `t + delta` would:
    /// per moving output `rr`, `busy_ticks` and `busy_until` advance;
    /// ejecting worms count `delta` more flits out and source runs `delta`
    /// more flits in; the in-flight landings and this cycle's `t + 1`
    /// wake-ups move `delta` cycles later. The flits held in each chain
    /// buffer or in flight are `delta` flits further down the same worm,
    /// all body flits, whose `ready` stamps are only compared with the
    /// clock (already passed, and a landing restamps), so they stay.
    fn skip(&mut self, t: u64, delta: u64) {
        let (link, stride, mask) = (self.cfg.link_delay, self.stride, self.wheel - 1);
        let Workspace {
            moves, rr, busy_ticks, busy_until, worms, pending, port_of, due, ring, ..
        } = &mut *self.ws;
        for m in moves.iter() {
            let o = m.out as usize;
            rr[o] = rr[o].wrapping_add(delta as usize);
            busy_ticks[o] += delta * link;
            busy_until[o] += delta;
            if m.down == EJECT {
                worms[m.worm as usize].ejected += delta;
            }
            let b = m.buf as usize;
            if port_of[b % stride] as usize == PORT_LOCAL {
                pending[b / stride].front_mut().expect("steady source has a run").next += delta;
            }
        }
        if let Some((at, _)) = due.front_mut() {
            *at += delta;
        }
        ring.swap(((t + 1) & mask) as usize, ((t + 1 + delta) & mask) as usize);
        self.work.cycles_skipped += delta;
        self.work.skips += 1;
    }

    /// A free output VC at `o` for a head of virtual-channel class
    /// `class`, searched round-robin inside the class partition
    /// `[class·v/n, (class+1)·v/n)` — heads may only allocate VCs of
    /// their route hop's class, which is what makes each class's channel
    /// dependencies acyclic (dateline escape on a torus, one dimension
    /// order per class under adaptive routing). With a single class the
    /// partition is the whole VC range and this reduces exactly to the
    /// historical search.
    fn free_vc(&self, o: usize, class: usize) -> Option<usize> {
        let v = self.vcs;
        let n = self.cfg.vc_classes();
        let (lo, hi) = (class * v / n, (class + 1) * v / n);
        let size = hi - lo;
        let start = lo + self.ws.vc_rr[o] % size;
        (0..size)
            .map(|i| {
                let vc = start + i;
                if vc >= hi {
                    vc - size
                } else {
                    vc
                }
            })
            .find(|&vc| self.ws.owners[o * v + vc].is_none())
    }

    /// The output VC at `o` owned by `worm`, if any.
    fn vc_of(&self, o: usize, worm: u32) -> Option<usize> {
        let v = self.vcs;
        (0..v).find(|&vc| self.ws.owners[o * v + vc] == Some(worm))
    }

    /// The first cycle with any work, before any cycle has been processed:
    /// nothing is in flight and the wheel is empty, so only the NI entry
    /// heap can hold events. (The batch loop formerly started at the first
    /// *injection* time; the cycles between injection and NI entry have no
    /// work, and a visit with no work changes no state, so starting at the
    /// first entry is cycle-identical.)
    fn first_time(&self) -> Option<u64> {
        debug_assert!(self.ws.due.is_empty(), "first_time called with flits in flight");
        self.ws.ni_events.peek().map(|&Reverse((e, _))| e)
    }

    /// Earliest future time with scheduled work: the nearest nonempty ring
    /// slot (all wakeups are at most `wheel` cycles out), the next flit
    /// arrival bucket, or the next NI availability.
    fn next_time(&self, t: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        for j in 1..=self.wheel {
            if !self.ws.ring[((t + j) & (self.wheel - 1)) as usize].is_empty() {
                next = Some(t + j);
                break;
            }
        }
        if let Some(&(at, _)) = self.ws.due.front() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        if let Some(&Reverse((avail, _))) = self.ws.ni_events.peek() {
            next = Some(next.map_or(avail, |n| n.min(avail)));
        }
        next
    }

    /// Human-readable account of every undelivered worm, for wedge panics.
    fn wedge_report(&self, t: u64) -> String {
        let mut lines = vec![format!(
            "flit simulation wedged at t={t} with {} worms undelivered:",
            self.remaining
        )];
        let undelivered: Vec<&Worm> =
            self.ws.worms.iter().filter(|w| w.delivered.is_none()).collect();
        for worm in undelivered.iter().take(16) {
            lines.push(format!(
                "  worm {} ({}->{}): {}/{} flits ejected, head at hop {}/{}",
                worm.msg.id,
                worm.msg.src.index(),
                worm.msg.dst.index(),
                worm.ejected,
                worm.flits,
                worm.head_hop - worm.route_off,
                worm.route_len - 1,
            ));
        }
        if undelivered.len() > 16 {
            lines.push(format!("  ... and {} more", undelivered.len() - 16));
        }
        lines.join("\n")
    }
}

/// One snapshot of the event loop: the workspace plus where the loop
/// stands in time. Cloning a `LoopState` is what makes speculation cheap —
/// every field of [`Workspace`] is a flat vector or small heap, so the
/// snapshot is a handful of memcpys sized by the mesh, not by history.
#[derive(Clone, Debug)]
struct LoopState {
    ws: Workspace,
    /// Last processed cycle (`None` before the first).
    clock: Option<u64>,
    remaining: usize,
    /// Count of leading worms whose values are final in this state: every
    /// worm below the watermark was delivered on a committed (or promoted)
    /// trajectory, so no later traffic can touch it. The snapshot refresh
    /// skips them — that is what keeps a send O(mesh + in-flight) instead
    /// of O(history).
    finalized: usize,
}

impl LoopState {
    /// An empty state, filled on first [`LoopState::reset_for`] or
    /// [`LoopState::sync_from`].
    fn empty() -> LoopState {
        LoopState { ws: Workspace::default(), clock: None, remaining: 0, finalized: 0 }
    }

    /// Clears the state for a new run on `cfg` (capacity kept).
    fn reset_for(&mut self, cfg: &MeshConfig) {
        self.ws.reset_for(cfg);
        self.clock = None;
        self.remaining = 0;
        self.finalized = 0;
    }

    /// Runs this state's event loop toward `goal`, adding its work to
    /// `work`.
    fn advance(
        &mut self,
        cfg: &MeshConfig,
        goal: Goal,
        work: &mut FlitWork,
    ) -> Result<(), EngineError> {
        let mut engine = Engine::new(*cfg, &mut self.ws, self.remaining, None);
        let clock = engine.advance(self.clock, goal);
        work.add(engine.work);
        self.clock = clock?;
        self.remaining = engine.remaining;
        Ok(())
    }

    /// Makes `self` a snapshot of `src`, reusing allocations (see
    /// [`Workspace::sync_from`]). `self` must be an earlier snapshot of
    /// the same run (or empty), so `self.finalized <= src.finalized`.
    fn sync_from(&mut self, src: &LoopState) {
        debug_assert!(self.finalized <= src.finalized);
        self.ws.sync_from(&src.ws, self.finalized);
        self.clock = src.clock;
        self.remaining = src.remaining;
        self.finalized = src.finalized;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, OnlineWormhole};

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
    fn zero_load_latency_matches_online_model() {
        let cfg = MeshConfig::new(4, 4);
        for (src, dst, bytes) in [(0u16, 15u16, 32u32), (3, 12, 8), (5, 6, 100)] {
            let m = vec![msg(0, src, dst, bytes, 0)];
            let flit = FlitLevel::new(cfg).simulate(&m);
            let online = OnlineWormhole::new(cfg).simulate(&m);
            assert_eq!(
                flit.records()[0].delivered,
                online.records()[0].delivered,
                "zero-load disagreement for {src}->{dst} ({bytes}B)"
            );
            assert_eq!(flit.records()[0].blocked(), 0);
        }
    }

    #[test]
    fn zero_load_unchanged_by_virtual_channels() {
        for vcs in [1, 2, 4] {
            let cfg = MeshConfig::new(4, 4).with_virtual_channels(vcs);
            let m = vec![msg(0, 0, 15, 64, 0)];
            let log = FlitLevel::new(cfg).simulate(&m);
            assert_eq!(log.records()[0].blocked(), 0, "vcs={vcs}");
        }
    }

    #[test]
    fn all_messages_delivered_under_contention() {
        for vcs in [1, 2] {
            let cfg = MeshConfig::new(4, 2).with_virtual_channels(vcs);
            let mut msgs = Vec::new();
            for i in 0..40u64 {
                msgs.push(msg(
                    i,
                    (i % 8) as u16,
                    ((i * 3 + 1) % 8) as u16,
                    16 + (i as u32 % 48),
                    i * 2,
                ));
            }
            let msgs: Vec<NetMessage> = msgs.into_iter().filter(|m| m.src != m.dst).collect();
            let log = FlitLevel::new(cfg).simulate(&msgs);
            assert_eq!(log.records().len(), msgs.len());
            log.check_invariants(cfg.shape).unwrap();
        }
    }

    #[test]
    fn hotspot_contention_is_visible() {
        let cfg = MeshConfig::new(4, 2);
        // Everyone hammers node 0 simultaneously.
        let msgs: Vec<NetMessage> = (1..8).map(|i| msg(i, i as u16, 0, 64, 0)).collect();
        let log = FlitLevel::new(cfg).simulate(&msgs);
        let blocked: u64 = log.records().iter().map(|r| r.blocked()).sum();
        assert!(blocked > 0, "hotspot must create contention");
    }

    #[test]
    fn virtual_channels_relieve_head_of_line_blocking() {
        // A long worm 0->3 blocks the row; a short message 1->2 arrives
        // once the worm firmly holds the channel. With 1 VC it must wait
        // for the worm's tail; with 4 VCs it interleaves on the physical
        // channel.
        let base = MeshConfig::new(4, 1).with_buffer_flits(2);
        let msgs = vec![msg(0, 0, 3, 512, 0), msg(1, 1, 2, 8, 20)];
        let lat = |vcs: usize| {
            let log = FlitLevel::new(base.with_virtual_channels(vcs)).simulate(&msgs);
            log.records().iter().find(|r| r.id == 1).unwrap().latency()
        };
        let one = lat(1);
        let four = lat(4);
        assert!(four < one, "VCs should cut the short message's latency: {four} vs {one}");
    }

    #[test]
    fn same_source_messages_serialize() {
        let cfg = MeshConfig::new(4, 1);
        let msgs = vec![msg(0, 0, 2, 64, 0), msg(1, 0, 3, 64, 0)];
        let log = FlitLevel::new(cfg).simulate(&msgs);
        let r0 = log.records().iter().find(|r| r.id == 0).unwrap();
        let r1 = log.records().iter().find(|r| r.id == 1).unwrap();
        assert!(r1.blocked() > 0 || r0.blocked() > 0);
    }

    #[test]
    fn utilization_bounded() {
        let cfg = MeshConfig::new(2, 2).with_virtual_channels(2);
        let msgs: Vec<NetMessage> = (0..20).map(|i| msg(i, 0, 3, 32, i * 5)).collect();
        let log = FlitLevel::new(cfg).simulate(&msgs);
        for &(_, u) in log.utilization() {
            assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u} out of range");
        }
    }

    #[test]
    fn repeated_batches_reuse_the_workspace() {
        let cfg = MeshConfig::new(4, 2).with_virtual_channels(2);
        let msgs: Vec<NetMessage> =
            (0..30).map(|i| msg(i, (i % 8) as u16, ((i * 5 + 2) % 8) as u16, 24, i * 3)).collect();
        let msgs: Vec<NetMessage> = msgs.into_iter().filter(|m| m.src != m.dst).collect();
        let mut model = FlitLevel::new(cfg);
        let a = model.simulate(&msgs);
        let once = model.work();
        let b = model.simulate(&msgs);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.utilization(), b.utilization());
        // The work counters run on across batches.
        assert!(once.cycles_stepped > 0);
        assert_eq!(model.work().cycles_stepped, 2 * once.cycles_stepped);
    }

    #[test]
    fn tally_sink_sees_what_the_log_sees() {
        let cfg = MeshConfig::new(4, 2).with_virtual_channels(2);
        let msgs: Vec<NetMessage> = (0..60u64)
            .map(|i| msg(i, (i % 8) as u16, ((i * 3 + 1) % 8) as u16, 8 + (i % 40) as u32, i * 4))
            .filter(|m| m.src != m.dst)
            .collect();
        let log = FlitLevel::new(cfg).simulate(&msgs);
        let mut tally = FlitLevel::with_sink(cfg, crate::NetTally::new());
        tally.run(&msgs);
        let t = tally.into_sink();
        assert_eq!(log.utilization(), t.utilization());
        assert_eq!(format!("{:?}", log.summary()), format!("{:?}", t.summary()));
    }
}
