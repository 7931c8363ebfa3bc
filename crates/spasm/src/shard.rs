//! Conservative-window sharded execution of the spasm machine.
//!
//! The machine (processor bodies, caches, the directory, and the event
//! calendar) is partitioned into source-contiguous shards, one scoped
//! thread per shard for the whole simulation
//! ([`commchar_pool::run_concurrent`]; a single shard runs inline on the
//! caller). A shard owns its processors' body futures and polls them
//! itself: a trap leaves its request in the processor's slot and
//! suspends, returning control to the shard loop, so a shared access
//! costs no thread switch. Each worker runs the serial
//! event loop inside a conservative time window `[T, T + L)` whose width
//! `L` is the network engine's minimum delivery latency
//! ([`NetEngine::min_latency`]): an event less than `L` ahead of the
//! window start cannot be affected by a message another shard has not
//! injected yet, so shards advance independently inside the window and
//! rendezvous only at its edge — the same fence/mailbox discipline as the
//! flit simulator's row-band shards (`commchar-mesh`'s `flit::shard`).
//!
//! At each window edge the coordinator (shard 0's worker) drains every
//! shard's outbox of deferred network sends, feeds them to the single
//! network engine in a canonical order, and routes each delivery into the
//! destination shard's `(time, key)`-ordered mailbox. The next window
//! start jumps to the globally earliest pending action, so idle gaps cost
//! one rendezvous instead of many empty windows.
//!
//! # Determinism
//!
//! The serial engine ordered simultaneous events by global insertion
//! order, which is meaningless once scheduling is distributed. Here every
//! action carries a canonical key `(class, site, seq)` — events before
//! processor requests, then by the emitting site and that site's own
//! emission counter — ordered by the shard's [`KeyedCalendar`], which
//! holds trapped requests and protocol events alike. Per-site counter
//! sequences depend only on that site's own action stream (every
//! cross-site interaction travels through the network or the
//! coordinator), so keys are identical for any shard count, and with them
//! the event order, the trace bytes, the network records, and every statistic.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use commchar_des::{KeyedCalendar, SimTime};
use commchar_mesh::{NetEngine, NetMessage, NodeId};
use commchar_trace::{CommEvent, CommTrace, EventKind};

use crate::api::{ProcRequest, Reply, Slot};
use crate::engine::SpasmError;
use crate::protocol::{Cache, DirState, LineState, Protocol};
use crate::MachineConfig;

/// Canonical tie-break key for simultaneous actions: `(class, site, seq)`.
/// Class 0 = protocol event, class 1 = processor request, preserving the
/// serial rule that an event at time `t` runs before a request at `t`.
/// The coordinator emits with the virtual site `nprocs`, ordering its
/// deliveries after same-time site-local events.
pub(crate) type Key = (u8, u32, u64);

const CLASS_EVENT: u8 = 0;
const CLASS_REQUEST: u8 = 1;

/// A processor's body: the future returned by the application closure,
/// polled by the shard that owns the processor.
pub(crate) type Body = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Everything a coherence transaction needs to travel between sites.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxnData {
    proc: u32,
    block: u64,
    addr: usize,
    write: bool,
    /// Write value (ignored for reads).
    value: u64,
    /// Requester already held the line Shared (upgrade: control reply).
    upgrade: bool,
}

/// Home-side state of the one in-flight transaction for a block.
#[derive(Debug)]
struct ActiveTxn {
    data: TxnData,
    acks_left: usize,
    /// Owner that was recalled for a read and stays a sharer.
    owner_kept: Option<usize>,
    /// MESI: the reply grants the line exclusively.
    exclusive: bool,
}

/// A protocol event, carrying everything its handler needs so no state is
/// shared across shards. Each variant is processed at exactly one `site`.
#[derive(Debug)]
pub(crate) enum Event {
    /// A coherence request (re)arrives at the home directory.
    HomeReq { data: TxnData },
    /// Recall (flush/downgrade) arrives at the current owner.
    Recall { block: u64, write: bool, owner: u32 },
    /// The recalled line's writeback arrives back at home.
    WbHome { block: u64 },
    /// An invalidation arrives at a sharer.
    Inval { block: u64, sharer: u32 },
    /// A sharer's invalidation ack arrives at home.
    AckHome { block: u64 },
    /// The home's reply is ready to leave for the requester (after the
    /// directory/memory latency): inject it into the network now.
    ReplySend { block: u64, bytes: u32, kind: EventKind },
    /// The reply reaches the requester: install the line and resume.
    ReplyArrive { data: TxnData, exclusive: bool },
    /// The reply has arrived remotely; release the per-block serialization
    /// at home and admit the next deferred request (home-side bookkeeping
    /// at the reply's delivery time — no network message, exactly as the
    /// serial engine released the block during `reply_arrive`).
    UnblockHome { block: u64 },
    /// A victim writeback arrives at the victim block's home.
    VictimWb { block: u64, proc: u32 },
    /// A processor's arrival notification reaches the barrier's home.
    BarArrive { id: u32 },
    /// The barrier release reaches a participant.
    BarRelease { proc: u32 },
    /// A lock request reaches the lock's home.
    LockReq { id: u32, proc: u32 },
    /// The lock grant reaches the new holder.
    LockGrant { proc: u32 },
    /// A lock release reaches the lock's home.
    LockRel { id: u32, proc: u32 },
}

/// What a shard's calendar holds: a protocol event (key class
/// `CLASS_EVENT`) or a processor's trapped request (`CLASS_REQUEST`).
enum Action {
    Event(Event),
    Request { proc: u32, req: ProcRequest },
}

impl Event {
    /// The site (processor/home node) whose shard processes this event.
    fn site(&self, nprocs: usize) -> usize {
        let home = |block: &u64| (*block % nprocs as u64) as usize;
        match self {
            Event::HomeReq { data } => home(&data.block),
            Event::Recall { owner, .. } => *owner as usize,
            Event::WbHome { block }
            | Event::AckHome { block }
            | Event::ReplySend { block, .. }
            | Event::UnblockHome { block }
            | Event::VictimWb { block, .. } => home(block),
            Event::Inval { sharer, .. } => *sharer as usize,
            Event::ReplyArrive { data, .. } => data.proc as usize,
            Event::BarArrive { id } | Event::LockReq { id, .. } | Event::LockRel { id, .. } => {
                (*id as usize) % nprocs
            }
            Event::BarRelease { proc } | Event::LockGrant { proc } => *proc as usize,
        }
    }
}

/// A network send recorded during a window and injected by the
/// coordinator at the window edge, in canonical `(t, key, idx)` order.
struct DeferredSend {
    t: u64,
    src: u32,
    dst: u32,
    bytes: u32,
    kind: EventKind,
    /// Key of the action that emitted this send.
    key: Key,
    /// Emission index within that action.
    idx: u32,
    /// Event delivered at the destination site at `delivered + extra`.
    cont: Event,
    extra: u64,
    /// For data/upgrade replies: release this block's home serialization
    /// at the delivery time.
    unblock: Option<u64>,
}

/// Where a processor is in its trap cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Resumed; its body runs at the next gather.
    Running,
    /// Its trapped request waits in the calendar.
    Pending,
    /// Its request is in progress; the reply has not come back yet.
    Blocked,
    Done,
}

#[derive(Debug, Default)]
struct LockSt {
    held: Option<usize>,
    waiters: VecDeque<usize>,
}

/// Per-shard statistics, merged into the final [`crate::SpasmRun`].
#[derive(Debug, Default, Clone, Copy)]
struct ShardStats {
    max_time: u64,
    reads: u64,
    writes: u64,
    hits: u64,
    misses: u64,
    barrier_episodes: u64,
    lock_grants: u64,
}

/// A shard's verdict at normal drain, returned by its worker.
struct ShardDone {
    stats: ShardStats,
    /// One status line per owned processor.
    report: String,
    all_done: bool,
}

const STOP_RUNNING: u8 = 0;
const STOP_DRAINED: u8 = 1;
const STOP_FAILED: u8 = 2;

/// Cross-shard rendezvous state: published fences, per-shard mailboxes
/// and outboxes, and the coordinator's window/stop broadcasts.
struct Shared {
    /// Current round, published by the coordinator (Release) after
    /// `window_start`/`stop` are written; workers acquire it to enter the
    /// round.
    round: AtomicU64,
    window_start: AtomicU64,
    stop: AtomicU8,
    /// Per-shard fence: the number of rounds this shard has completed
    /// (`round + 1` after finishing round `round`; `u64::MAX` once the
    /// worker exits, so nobody waits on a dead shard).
    fences: Vec<AtomicU64>,
    next_times: Vec<AtomicU64>,
    acted: Vec<AtomicU64>,
    /// Inbound cross-shard deliveries, `(time, key, event)`.
    mail: Vec<Mutex<Vec<(u64, Key, Event)>>>,
    outbox: Vec<Mutex<Vec<DeferredSend>>>,
    /// Set when any worker unwinds; everyone else bails at the next edge.
    abort: AtomicBool,
}

impl Shared {
    fn new(shards: usize) -> Self {
        Shared {
            round: AtomicU64::new(0),
            window_start: AtomicU64::new(0),
            stop: AtomicU8::new(STOP_RUNNING),
            fences: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            acted: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            mail: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            outbox: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            abort: AtomicBool::new(false),
        }
    }
}

/// Publishes an exit fence even on unwind, so a panicking worker never
/// leaves its neighbors spinning on a fence that will not move.
struct FenceGuard<'a> {
    shared: &'a Shared,
    shard: usize,
}

impl Drop for FenceGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.abort.store(true, Ordering::Relaxed);
        }
        self.shared.fences[self.shard].store(u64::MAX, Ordering::Release);
    }
}

fn spin_wait(mut probe: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !probe() {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The coordinator's exclusive state: the single network engine, the
/// trace, the canonical message/emission counters, and the engine-level
/// failure that stopped the run, if any. [`drive`] lends it to shard 0's
/// worker and reads the run's products from it once the workers return.
struct Coord<N: NetEngine> {
    net: N,
    trace: CommTrace,
    msg_seq: u64,
    /// Emission counter for the virtual coordinator site.
    seq: u64,
    lookahead: u64,
    failure: Option<SpasmError>,
}

impl<N: NetEngine> Coord<N> {
    fn new(net: N, nprocs: usize) -> Self {
        let lookahead = net.min_latency();
        assert!(lookahead >= 1, "network engine lookahead must be positive");
        Coord { net, trace: CommTrace::new(nprocs), msg_seq: 0, seq: 0, lookahead, failure: None }
    }
}

/// Source-contiguous partition of `nprocs` sites into `shards` chunks.
pub(crate) fn partition(nprocs: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = nprocs / shards;
    let rem = nprocs % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// One shard of the machine: the bodies and caches of its own processors
/// plus the directory, lock and barrier state of its own home sites,
/// advanced by a windowed copy of the serial event loop.
pub(crate) struct ShardCore<'m> {
    cfg: MachineConfig,
    shard: usize,
    /// Owned sites: `[lo, hi)`.
    lo: usize,
    hi: usize,
    mem: &'m [AtomicU64],
    caches: Vec<Cache>,
    dir: HashMap<u64, DirState>,
    active: HashMap<u64, ActiveTxn>,
    deferred: HashMap<u64, VecDeque<TxnData>>,
    locks: HashMap<u32, LockSt>,
    bars: HashMap<u32, usize>,
    cal: KeyedCalendar<Key, Action>,
    /// Per-owned-site emission counters (canonical key sequence).
    seqs: Vec<u64>,
    /// Owned processors' bodies; `None` once a body has returned.
    bodies: Vec<Option<Body>>,
    /// Owned processors' trap slots, shared with their [`crate::Ctx`]s.
    slots: Vec<Arc<Mutex<Slot>>>,
    /// Owned processors resumed since the last gather (local indices).
    runnable: Vec<usize>,
    resume_time: Vec<u64>,
    status: Vec<Status>,
    outgoing: Vec<DeferredSend>,
    /// Key of the action being processed and its emission count so far.
    cur_key: Key,
    cur_idx: u32,
    stats: ShardStats,
}

impl<'m> ShardCore<'m> {
    /// A shard owning sites `[lo, hi)`, whose processors run `procs`
    /// (one body and its trap slot per site, in site order).
    pub(crate) fn new(
        cfg: MachineConfig,
        shard: usize,
        (lo, hi): (usize, usize),
        mem: &'m [AtomicU64],
        procs: Vec<(Body, Arc<Mutex<Slot>>)>,
    ) -> Self {
        let n = hi - lo;
        debug_assert_eq!(procs.len(), n, "one body per owned processor");
        let (bodies, slots) = procs.into_iter().map(|(b, s)| (Some(b), s)).unzip();
        ShardCore {
            cfg,
            shard,
            lo,
            hi,
            mem,
            caches: (0..n).map(|_| Cache::new(cfg.cache_lines, cfg.associativity)).collect(),
            dir: HashMap::new(),
            active: HashMap::new(),
            deferred: HashMap::new(),
            locks: HashMap::new(),
            bars: HashMap::new(),
            cal: KeyedCalendar::new(),
            seqs: vec![0; n],
            bodies,
            slots,
            runnable: (0..n).collect(),
            resume_time: vec![0; n],
            status: vec![Status::Running; n],
            outgoing: Vec::new(),
            cur_key: (CLASS_EVENT, 0, 0),
            cur_idx: 0,
            stats: ShardStats::default(),
        }
    }

    fn block_of(&self, addr: usize) -> u64 {
        (addr / self.cfg.block_words()) as u64
    }

    fn home_of(&self, block: u64) -> usize {
        (block % self.cfg.nprocs as u64) as usize
    }

    fn next_seq(&mut self, site: usize) -> u64 {
        let s = &mut self.seqs[site - self.lo];
        let v = *s;
        *s += 1;
        v
    }

    /// Schedules a same-site event. Every cross-site interaction travels
    /// through the network (deferred sends), so local scheduling never
    /// crosses a shard boundary.
    fn schedule(&mut self, t: u64, ev: Event) {
        let site = ev.site(self.cfg.nprocs);
        debug_assert!(
            (self.lo..self.hi).contains(&site),
            "intra-window schedule crossed shards: {ev:?} at site {site}"
        );
        let key = (CLASS_EVENT, site as u32, self.next_seq(site));
        self.cal.schedule(SimTime::from_ticks(t), key, Action::Event(ev));
    }

    /// Records a cross-site protocol message for injection at the window
    /// edge; `cont` is delivered at the destination at
    /// `delivery + extra`.
    #[allow(clippy::too_many_arguments)]
    fn emit_msg(
        &mut self,
        t: u64,
        src: usize,
        dst: usize,
        bytes: u32,
        kind: EventKind,
        cont: Event,
        extra: u64,
        unblock: Option<u64>,
    ) {
        debug_assert_ne!(src, dst, "same-site traffic must not enter the network");
        let idx = self.cur_idx;
        self.cur_idx += 1;
        self.outgoing.push(DeferredSend {
            t,
            src: src as u32,
            dst: dst as u32,
            bytes,
            kind,
            key: self.cur_key,
            idx,
            cont,
            extra,
            unblock,
        });
    }

    /// Leaves `proc`'s reply in its slot; its body runs at the next
    /// gather.
    fn resume(&mut self, proc: usize, time: u64, value: u64) {
        let lp = proc - self.lo;
        self.slots[lp].lock().unwrap_or_else(|e| e.into_inner()).reply =
            Some(Reply { time, value });
        self.resume_time[lp] = time;
        self.stats.max_time = self.stats.max_time.max(time);
        self.status[lp] = Status::Running;
        self.runnable.push(lp);
    }

    /// One status line per owned processor — the same style of account the
    /// flit router's wedge report gives per undelivered worm.
    fn status_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (lp, s) in self.status.iter().enumerate() {
            let _ = write!(
                out,
                "\n  p{}: {s:?} (last resumed at t={})",
                self.lo + lp,
                self.resume_time[lp]
            );
        }
        out
    }

    /// Polls the body of every processor resumed since the last gather
    /// until it traps again or returns. A trapped request is stamped with
    /// its processor's own emission counter and scheduled under
    /// `(CLASS_REQUEST, proc, seq)`; a processor traps sequentially, so
    /// the stamp order per site is independent of the polling order.
    ///
    /// # Panics
    ///
    /// Propagates a body's panic with its own payload, and panics if a
    /// body suspends on a future that is not a [`crate::Ctx`] trap.
    fn gather(&mut self) {
        while let Some(lp) = self.runnable.pop() {
            let proc = self.lo + lp;
            let body = self.bodies[lp].as_mut().expect("a resumed processor has a body");
            match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
                Poll::Ready(()) => {
                    // Dropping the body drops its Ctx, which records the
                    // computation after the last trap.
                    self.bodies[lp] = None;
                    let t = self.resume_time[lp]
                        + self.slots[lp].lock().unwrap_or_else(|e| e.into_inner()).tail;
                    self.status[lp] = Status::Done;
                    self.stats.max_time = self.stats.max_time.max(t);
                }
                Poll::Pending => {
                    let trapped =
                        self.slots[lp].lock().unwrap_or_else(|e| e.into_inner()).request.take();
                    let (elapsed, req) = trapped.unwrap_or_else(|| {
                        panic!("p{proc}'s body awaited a future that is not a spasm Ctx trap")
                    });
                    let t = self.resume_time[lp] + elapsed;
                    let key = (CLASS_REQUEST, proc as u32, self.next_seq(proc));
                    let action = Action::Request { proc: proc as u32, req };
                    self.cal.schedule(SimTime::from_ticks(t), key, action);
                    self.status[lp] = Status::Pending;
                }
            }
        }
    }

    /// The earliest future action time after a drained window.
    fn next_time(&self) -> u64 {
        self.cal.peek_time().map_or(u64::MAX, SimTime::ticks)
    }

    /// Runs the serial loop inside the window `[start, end)`: gather
    /// requests, pick the canonically-least action strictly before `end`,
    /// process it, repeat. Returns the number of actions processed.
    fn run_window(&mut self, end: u64) -> u64 {
        let mut acted = 0u64;
        loop {
            self.gather();
            if self.cal.peek_time().is_none_or(|t| t.ticks() >= end) {
                break;
            }
            let (time, key, action) = self.cal.pop().expect("peeked action vanished");
            let t = time.ticks();
            self.cur_key = key;
            self.cur_idx = 0;
            match action {
                Action::Event(ev) => {
                    self.stats.max_time = self.stats.max_time.max(t);
                    self.process_event(t, ev);
                }
                Action::Request { proc, req } => self.process_request(proc as usize, t, req),
            }
            acted += 1;
        }
        acted
    }

    fn process_request(&mut self, p: usize, t: u64, req: ProcRequest) {
        self.status[p - self.lo] = Status::Blocked;
        match req {
            ProcRequest::Read { addr } => {
                self.stats.reads += 1;
                let block = self.block_of(addr);
                if self.caches[p - self.lo].lookup(block).is_some() {
                    self.stats.hits += 1;
                    let v = self.mem[addr].load(Ordering::Relaxed);
                    self.resume(p, t + self.cfg.hit_latency, v);
                } else {
                    self.stats.misses += 1;
                    self.start_txn(p, block, addr, false, false, 0, t);
                }
            }
            ProcRequest::Write { addr, value } => {
                self.stats.writes += 1;
                let block = self.block_of(addr);
                match self.caches[p - self.lo].lookup(block) {
                    Some(LineState::Modified) => {
                        self.stats.hits += 1;
                        self.mem[addr].store(value, Ordering::Relaxed);
                        self.resume(p, t + self.cfg.hit_latency, 0);
                    }
                    Some(LineState::Exclusive) => {
                        // MESI: silent Exclusive -> Modified promotion.
                        self.stats.hits += 1;
                        self.caches[p - self.lo].set_state(block, LineState::Modified);
                        self.mem[addr].store(value, Ordering::Relaxed);
                        self.resume(p, t + self.cfg.hit_latency, 0);
                    }
                    Some(LineState::Shared) => {
                        self.stats.misses += 1;
                        self.start_txn(p, block, addr, true, true, value, t);
                    }
                    None => {
                        self.stats.misses += 1;
                        self.start_txn(p, block, addr, true, false, value, t);
                    }
                }
            }
            ProcRequest::Barrier { id } => {
                let home = (id as usize) % self.cfg.nprocs;
                if p == home {
                    self.schedule(t + self.cfg.sync_latency, Event::BarArrive { id });
                } else {
                    let bytes = self.cfg.ctrl_bytes;
                    self.emit_msg(
                        t,
                        p,
                        home,
                        bytes,
                        EventKind::Sync,
                        Event::BarArrive { id },
                        0,
                        None,
                    );
                }
            }
            ProcRequest::Lock { id } => {
                let home = (id as usize) % self.cfg.nprocs;
                let ev = Event::LockReq { id, proc: p as u32 };
                if p == home {
                    self.schedule(t + self.cfg.sync_latency, ev);
                } else {
                    self.emit_msg(t, p, home, self.cfg.ctrl_bytes, EventKind::Sync, ev, 0, None);
                }
            }
            ProcRequest::Unlock { id } => {
                // Release is fire-and-forget from the processor's view.
                self.resume(p, t + 1, 0);
                let home = (id as usize) % self.cfg.nprocs;
                let ev = Event::LockRel { id, proc: p as u32 };
                if p == home {
                    self.schedule(t + self.cfg.sync_latency, ev);
                } else {
                    self.emit_msg(t, p, home, self.cfg.ctrl_bytes, EventKind::Sync, ev, 0, None);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn start_txn(
        &mut self,
        p: usize,
        block: u64,
        addr: usize,
        write: bool,
        upgrade: bool,
        value: u64,
        t: u64,
    ) {
        let data = TxnData { proc: p as u32, block, addr, write, value, upgrade };
        let home = self.home_of(block);
        if p == home {
            self.schedule(t + self.cfg.dir_latency, Event::HomeReq { data });
        } else {
            let bytes = self.cfg.ctrl_bytes;
            let extra = self.cfg.dir_latency;
            self.emit_msg(
                t,
                p,
                home,
                bytes,
                EventKind::Control,
                Event::HomeReq { data },
                extra,
                None,
            );
        }
    }

    fn process_event(&mut self, t: u64, ev: Event) {
        match ev {
            Event::HomeReq { data } => self.home_req(data, t),
            Event::Recall { block, write, owner } => {
                self.recall_at_owner(block, write, owner as usize, t)
            }
            Event::WbHome { block } => self.finish_home(block, t),
            Event::ReplySend { block, bytes, kind } => {
                let a = &self.active[&block];
                let cont = Event::ReplyArrive { data: a.data, exclusive: a.exclusive };
                let (home, proc) = (self.home_of(block), a.data.proc as usize);
                self.emit_msg(t, home, proc, bytes, kind, cont, 0, Some(block));
            }
            Event::Inval { block, sharer } => self.inval_at_sharer(block, sharer as usize, t),
            Event::AckHome { block } => {
                let a = self.active.get_mut(&block).expect("ack without active transaction");
                a.acks_left -= 1;
                if a.acks_left == 0 {
                    self.finish_home(block, t);
                }
            }
            Event::ReplyArrive { data, exclusive } => self.reply_arrive(data, exclusive, t),
            Event::UnblockHome { block } => self.unblock_home(block, t),
            Event::VictimWb { block, proc } => {
                if self.dir.get(&block) == Some(&DirState::Modified(proc as u16)) {
                    self.dir.insert(block, DirState::Uncached);
                }
            }
            Event::BarArrive { id } => {
                let count = self.bars.entry(id).or_insert(0);
                *count += 1;
                if *count == self.cfg.nprocs {
                    *count = 0;
                    self.stats.barrier_episodes += 1;
                    let home = (id as usize) % self.cfg.nprocs;
                    for q in 0..self.cfg.nprocs {
                        let ev = Event::BarRelease { proc: q as u32 };
                        if q == home {
                            self.schedule(t + self.cfg.sync_latency, ev);
                        } else {
                            let bytes = self.cfg.ctrl_bytes;
                            self.emit_msg(t, home, q, bytes, EventKind::Sync, ev, 0, None);
                        }
                    }
                }
            }
            Event::BarRelease { proc } => {
                self.resume(proc as usize, t + self.cfg.sync_latency, 0);
            }
            Event::LockReq { id, proc } => {
                let proc = proc as usize;
                let home = (id as usize) % self.cfg.nprocs;
                let st = self.locks.entry(id).or_default();
                if st.held.is_none() {
                    st.held = Some(proc);
                    self.stats.lock_grants += 1;
                    let ev = Event::LockGrant { proc: proc as u32 };
                    if proc == home {
                        self.schedule(t + self.cfg.sync_latency, ev);
                    } else {
                        let bytes = self.cfg.ctrl_bytes;
                        self.emit_msg(t, home, proc, bytes, EventKind::Sync, ev, 0, None);
                    }
                } else {
                    st.waiters.push_back(proc);
                }
            }
            Event::LockGrant { proc } => {
                self.resume(proc as usize, t + self.cfg.sync_latency, 0);
            }
            Event::LockRel { id, proc } => {
                let proc = proc as usize;
                let home = (id as usize) % self.cfg.nprocs;
                let st = self.locks.get_mut(&id).expect("release of unknown lock");
                assert_eq!(st.held, Some(proc), "lock {id} released by non-holder p{proc}");
                st.held = None;
                if let Some(q) = st.waiters.pop_front() {
                    st.held = Some(q);
                    self.stats.lock_grants += 1;
                    let ev = Event::LockGrant { proc: q as u32 };
                    if q == home {
                        self.schedule(t + self.cfg.sync_latency, ev);
                    } else {
                        let bytes = self.cfg.ctrl_bytes;
                        self.emit_msg(t, home, q, bytes, EventKind::Sync, ev, 0, None);
                    }
                }
            }
        }
    }

    /// A coherence request (re)arrives at the home directory.
    fn home_req(&mut self, data: TxnData, t: u64) {
        let block = data.block;
        if self.active.contains_key(&block) {
            self.deferred.entry(block).or_default().push_back(data);
            return;
        }
        let home = self.home_of(block);
        let dir = self.dir.get(&block).cloned().unwrap_or(DirState::Uncached);
        let mut txn = ActiveTxn { data, acks_left: 0, owner_kept: None, exclusive: false };
        match dir {
            DirState::Modified(owner) if owner as usize != data.proc as usize => {
                let owner = owner as usize;
                if !data.write {
                    txn.owner_kept = Some(owner);
                }
                self.active.insert(block, txn);
                let ev = Event::Recall { block, write: data.write, owner: owner as u32 };
                if home == owner {
                    self.schedule(t + self.cfg.dir_latency, ev);
                } else {
                    let bytes = self.cfg.ctrl_bytes;
                    self.emit_msg(t, home, owner, bytes, EventKind::Control, ev, 0, None);
                }
            }
            DirState::Shared(_) if data.write => {
                let others = dir.sharers_except(data.proc as usize);
                if others.is_empty() {
                    self.active.insert(block, txn);
                    self.finish_home(block, t);
                } else {
                    txn.acks_left = others.count();
                    self.active.insert(block, txn);
                    for q in others.iter() {
                        let ev = Event::Inval { block, sharer: q as u32 };
                        if q == home {
                            self.schedule(t + self.cfg.dir_latency, ev);
                        } else {
                            let bytes = self.cfg.ctrl_bytes;
                            self.emit_msg(t, home, q, bytes, EventKind::Control, ev, 0, None);
                        }
                    }
                }
            }
            _ => {
                self.active.insert(block, txn);
                self.finish_home(block, t);
            }
        }
    }

    /// The recall (flush/downgrade) arrives at the current owner.
    fn recall_at_owner(&mut self, block: u64, write: bool, owner: usize, t: u64) {
        if write {
            self.caches[owner - self.lo].invalidate(block);
        } else {
            self.caches[owner - self.lo].downgrade(block);
        }
        let home = self.home_of(block);
        let ev = Event::WbHome { block };
        if owner == home {
            self.schedule(t + self.cfg.dir_latency, ev);
        } else {
            let bytes = self.cfg.block_bytes;
            self.emit_msg(t, owner, home, bytes, EventKind::Data, ev, 0, None);
        }
    }

    /// An invalidation arrives at a sharer: drop the line, acknowledge to
    /// home.
    fn inval_at_sharer(&mut self, block: u64, sharer: usize, t: u64) {
        self.caches[sharer - self.lo].invalidate(block);
        let home = self.home_of(block);
        let ev = Event::AckHome { block };
        if sharer == home {
            self.schedule(t + self.cfg.dir_latency, ev);
        } else {
            let bytes = self.cfg.ctrl_bytes;
            self.emit_msg(t, sharer, home, bytes, EventKind::Control, ev, 0, None);
        }
    }

    /// All protocol preconditions satisfied: update the directory and send
    /// the reply to the requester.
    fn finish_home(&mut self, block: u64, t: u64) {
        let (data, owner_kept) = {
            let a = &self.active[&block];
            (a.data, a.owner_kept)
        };
        let home = self.home_of(block);
        let entry = self.dir.entry(block).or_insert(DirState::Uncached);
        if data.write {
            *entry = DirState::Modified(data.proc as u16);
        } else if self.cfg.protocol == Protocol::Mesi
            && owner_kept.is_none()
            && matches!(*entry, DirState::Uncached)
        {
            // MESI: a read miss to an uncached block is granted
            // exclusively, so a subsequent write by this processor hits.
            *entry = DirState::Modified(data.proc as u16);
            self.active.get_mut(&block).expect("active transaction").exclusive = true;
        } else {
            let mut st = match *entry {
                DirState::Modified(_) => DirState::Uncached, // recalled above
                ref other => other.clone(),
            };
            if let Some(owner) = owner_kept {
                st.add_sharer(owner);
            }
            st.add_sharer(data.proc as usize);
            *entry = st;
        }
        // Data fetch unless this was a pure upgrade.
        let (latency, bytes, kind) = if data.upgrade {
            (self.cfg.dir_latency, self.cfg.ctrl_bytes, EventKind::Control)
        } else {
            (self.cfg.mem_latency, self.cfg.block_bytes, EventKind::Data)
        };
        let inject = t + latency;
        if data.proc as usize == home {
            let exclusive = self.active[&block].exclusive;
            self.schedule(inject, Event::ReplyArrive { data, exclusive });
        } else {
            // The reply leaves at `inject > t`; other actions may be
            // processed in between, so route the send through a calendar
            // hop to keep network injections time-ordered.
            self.schedule(inject, Event::ReplySend { block, bytes, kind });
        }
    }

    /// The reply reaches the requester: install the line and resume.
    fn reply_arrive(&mut self, data: TxnData, exclusive: bool, t: u64) {
        let p = data.proc as usize;
        let state = if data.write {
            LineState::Modified
        } else if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        if let Some((vblock, vstate)) = self.caches[p - self.lo].insert(data.block, state) {
            if vstate == LineState::Modified {
                let vhome = self.home_of(vblock);
                let ev = Event::VictimWb { block: vblock, proc: p as u32 };
                if p == vhome {
                    self.schedule(t + self.cfg.dir_latency, ev);
                } else {
                    let bytes = self.cfg.block_bytes;
                    self.emit_msg(t, p, vhome, bytes, EventKind::Data, ev, 0, None);
                }
            }
            // Shared victims are dropped silently; stale directory entries
            // just cost a harmless extra invalidation later.
        }
        if data.write {
            self.mem[data.addr].store(data.value, Ordering::Relaxed);
        }
        let value = self.mem[data.addr].load(Ordering::Relaxed);
        self.resume(p, t + self.cfg.fill_latency, value);
        // A home-local reply releases the block inline, exactly as the
        // serial engine did inside `reply_arrive`; a remote reply's release
        // arrives as `UnblockHome` at the same delivery time.
        if p == self.home_of(data.block) {
            self.unblock_home(data.block, t);
        }
    }

    /// Releases the per-block serialization and admits the next deferred
    /// request for the block, if any.
    fn unblock_home(&mut self, block: u64, t: u64) {
        self.active.remove(&block);
        let next = self.deferred.get_mut(&block).and_then(|q| q.pop_front());
        if self.deferred.get(&block).is_some_and(|q| q.is_empty()) {
            self.deferred.remove(&block);
        }
        if let Some(data) = next {
            self.schedule(t, Event::HomeReq { data });
        }
    }
}

/// The coordinator's window-edge phase: inject every shard's deferred
/// sends in canonical order, route deliveries into destination mailboxes,
/// and broadcast the next window (or a stop).
fn coordinate<N: NetEngine>(
    co: &mut Coord<N>,
    shared: &Shared,
    shard_of: &[u32],
    round: u64,
) -> bool {
    let shards = shared.fences.len();
    for s in 0..shards {
        spin_wait(|| shared.fences[s].load(Ordering::Acquire) > round);
    }
    if shared.abort.load(Ordering::Relaxed) {
        shared.stop.store(STOP_FAILED, Ordering::Relaxed);
        shared.round.store(round + 1, Ordering::Release);
        return false;
    }
    let mut sends: Vec<DeferredSend> = Vec::new();
    for s in 0..shards {
        sends.append(&mut shared.outbox[s].lock().unwrap_or_else(|e| e.into_inner()));
    }
    // Canonical injection order: time, then the emitting action's key,
    // then the emission index — a pure function of simulation state, so
    // message ids, trace order and network contention are shard-invariant.
    sends.sort_unstable_by_key(|a| (a.t, a.key, a.idx));
    let acted: u64 = shared.acted.iter().map(|a| a.load(Ordering::Relaxed)).sum();
    let mut next = shared.next_times.iter().map(|a| a.load(Ordering::Relaxed)).min().unwrap();
    let had_sends = !sends.is_empty();
    let coord_site = shard_of.len() as u32;
    for d in sends {
        let id = co.msg_seq;
        co.msg_seq += 1;
        // Injections are nondecreasing across windows by construction; an
        // ordering error here is an engine bug, not bad input.
        let delivered = co
            .net
            .send(NetMessage {
                id,
                src: NodeId(d.src as u16),
                dst: NodeId(d.dst as u16),
                bytes: d.bytes,
                inject: SimTime::from_ticks(d.t),
            })
            .unwrap_or_else(|e| panic!("{e}"));
        let delivered = delivered.ticks();
        assert!(
            delivered >= d.t + co.lookahead,
            "network engine delivered below its min_latency lookahead \
             (inject {}, delivered {delivered}, lookahead {})",
            d.t,
            co.lookahead
        );
        co.trace.push(CommEvent::new(id, d.t, d.src as u16, d.dst as u16, d.bytes, d.kind));
        let ct = delivered + d.extra;
        let site = d.cont.site(shard_of.len());
        let key = (CLASS_EVENT, coord_site, co.seq);
        co.seq += 1;
        shared.mail[shard_of[site] as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((ct, key, d.cont));
        next = next.min(ct);
        if let Some(block) = d.unblock {
            let home = (block % shard_of.len() as u64) as usize;
            let key = (CLASS_EVENT, coord_site, co.seq);
            co.seq += 1;
            shared.mail[shard_of[home] as usize].lock().unwrap_or_else(|e| e.into_inner()).push((
                delivered,
                key,
                Event::UnblockHome { block },
            ));
            next = next.min(delivered);
        }
    }
    if next == u64::MAX {
        shared.stop.store(STOP_DRAINED, Ordering::Relaxed);
        shared.round.store(round + 1, Ordering::Release);
        return false;
    }
    if round > 0 && acted == 0 && !had_sends {
        // Nobody advanced and nothing is in flight, yet actions remain:
        // the conservative windows are wedged (an engine bug, reported in
        // the same cooperative style as the flit router's EngineError::Wedged).
        use std::fmt::Write;
        let mut report = String::from(
            "conservative windows wedged: no shard advanced; per-shard next action times:",
        );
        for (s, nt) in shared.next_times.iter().enumerate() {
            let _ = write!(report, "\n  shard {s}: t={}", nt.load(Ordering::Relaxed));
        }
        co.failure = Some(SpasmError::Wedged { report });
        shared.stop.store(STOP_FAILED, Ordering::Relaxed);
        shared.round.store(round + 1, Ordering::Release);
        return false;
    }
    shared.window_start.store(next, Ordering::Relaxed);
    shared.round.store(round + 1, Ordering::Release);
    true
}

/// The body of one shard worker. Shard 0's worker doubles as the
/// coordinator, owning the network engine and the trace. Returns the
/// shard's verdict if the run drained, `None` if it stopped on a failure.
fn run_worker<N: NetEngine>(
    mut core: ShardCore<'_>,
    shared: &Shared,
    mut coord: Option<&mut Coord<N>>,
    shard_of: &[u32],
    lookahead: u64,
) -> Option<ShardDone> {
    let guard = FenceGuard { shared, shard: core.shard };
    let mut round: u64 = 0;
    loop {
        spin_wait(|| {
            shared.round.load(Ordering::Acquire) == round || shared.abort.load(Ordering::Relaxed)
        });
        if shared.abort.load(Ordering::Relaxed)
            || shared.stop.load(Ordering::Relaxed) != STOP_RUNNING
        {
            break;
        }
        let start = shared.window_start.load(Ordering::Relaxed);
        // Round 0 is a sync-only probe window: it gathers the first
        // requests and reports the earliest action so the first real
        // window can start there instead of at zero.
        let end = if round == 0 { start } else { start + lookahead };
        {
            let mut mail = shared.mail[core.shard].lock().unwrap_or_else(|e| e.into_inner());
            for (t, key, ev) in mail.drain(..) {
                core.cal.schedule(SimTime::from_ticks(t), key, Action::Event(ev));
            }
        }
        core.cal.advance_to(SimTime::from_ticks(start));
        let acted = core.run_window(end);
        shared.acted[core.shard].store(acted, Ordering::Relaxed);
        shared.next_times[core.shard].store(core.next_time(), Ordering::Relaxed);
        if !core.outgoing.is_empty() {
            shared.outbox[core.shard]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut core.outgoing);
        }
        shared.fences[core.shard].store(round + 1, Ordering::Release);
        if let Some(co) = coord.as_deref_mut() {
            coordinate(co, shared, shard_of, round);
        }
        round += 1;
    }
    drop(guard);
    (shared.stop.load(Ordering::Relaxed) == STOP_DRAINED).then(|| ShardDone {
        stats: core.stats,
        report: core.status_report(),
        all_done: core.status.iter().all(|&s| s == Status::Done),
    })
}

/// The products of a drained sharded run, before assembly into
/// [`crate::SpasmRun`].
pub(crate) struct Drained<S> {
    pub trace: CommTrace,
    pub net: S,
    pub exec_cycles: u64,
    pub reads: u64,
    pub writes: u64,
    pub hits: u64,
    pub misses: u64,
    pub barriers: u64,
    pub locks: u64,
}

/// Drives `shards` workers over the partitioned machine and merges their
/// verdicts. Each shard runs on its own scoped thread for the whole
/// simulation, rendezvousing on fences rather than re-spawning; a single
/// shard runs the identical windowed loop inline.
pub(crate) fn drive<N>(
    cfg: MachineConfig,
    cores: Vec<ShardCore<'_>>,
    net: N,
) -> Result<Drained<N::Sink>, SpasmError>
where
    N: NetEngine + Send,
{
    let shared = Shared::new(cores.len());
    let mut shard_of = vec![0u32; cfg.nprocs];
    for (s, &(lo, hi)) in partition(cfg.nprocs, cores.len()).iter().enumerate() {
        shard_of[lo..hi].fill(s as u32);
    }
    let mut coord = Coord::new(net, cfg.nprocs);
    let lookahead = coord.lookahead;
    let mut lent = Some(&mut coord);
    let workers: Vec<_> = cores
        .into_iter()
        .map(|core| {
            let co = if core.shard == 0 { lent.take() } else { None };
            (core, co)
        })
        .collect();
    let verdicts = commchar_pool::run_concurrent(workers, |(core, co)| {
        run_worker(core, &shared, co, &shard_of, lookahead)
    });
    if let Some(err) = coord.failure {
        return Err(err);
    }
    let mut stats = ShardStats::default();
    let mut report = String::new();
    let mut all_done = true;
    for v in verdicts {
        let v = v.expect("drained shard left no verdict");
        stats.max_time = stats.max_time.max(v.stats.max_time);
        stats.reads += v.stats.reads;
        stats.writes += v.stats.writes;
        stats.hits += v.stats.hits;
        stats.misses += v.stats.misses;
        stats.barrier_episodes += v.stats.barrier_episodes;
        stats.lock_grants += v.stats.lock_grants;
        report.push_str(&v.report);
        all_done &= v.all_done;
    }
    if !all_done {
        return Err(SpasmError::Wedged {
            report: format!(
                "application deadlock: simulation drained with blocked processors\n\
                 processor status at failure:{report}"
            ),
        });
    }
    Ok(Drained {
        trace: coord.trace,
        net: coord.net.finish(),
        exec_cycles: stats.max_time,
        reads: stats.reads,
        writes: stats.writes,
        hits: stats.hits,
        misses: stats.misses,
        barriers: stats.barrier_episodes,
        locks: stats.lock_grants,
    })
}
