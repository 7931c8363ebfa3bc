//! Sharded wavefront drain: the flit event loop partitioned into
//! row-contiguous node bands, one scoped thread per band
//! ([`commchar_pool::run_concurrent`]), while staying
//! **cycle-identical** to the serial engine.
//!
//! # Why row bands, and why a wavefront
//!
//! Node ids are row-major and the serial allocation sweep visits outputs
//! in ascending global index, so every *same-cycle* cross-node dependency
//! flows from lower-indexed outputs to higher-indexed ones: a pop at
//! output `o` is visible within cycle `t` only to feeder outputs `> o`;
//! a feeder at or behind the sweep position is instead woken at `t + 1`
//! by an explicit ring mark. Partitioning the mesh into contiguous row
//! bands makes every cross-shard link a north/south link between
//! *adjacent* shards and aligns the dependency direction with the shard
//! order: within one cycle, information only ever flows from shard `s`
//! to shard `s + 1`.
//!
//! That yields the conservative time window. Each shard publishes a
//! monotone fence (`fence[s] = f` ⇒ shard `s` has fully processed every
//! cycle `< f` *and flushed its boundary events*); shard `s` may execute
//! cycle `t` once the left neighbor has finished `t` and the right
//! neighbor has finished `t - 1`:
//!
//! ```text
//! t <= horizon(s) = min(fence[s-1] - 1, fence[s+1])
//! ```
//!
//! The shard holding the globally minimal next event time always
//! satisfies its window, so the wavefront is deadlock-free; a shard with
//! nothing to do inside its window publishes the horizon as vacuously
//! done, which lets neighbors leapfrog past idle regions cycle-skipping
//! exactly like the serial event loop does.
//!
//! # Torus bands are a ring of shards
//!
//! On a torus the north/south wraparound links add one more boundary
//! edge, between the first and the last band, so the shard chain closes
//! into a ring: every shard has a cyclic predecessor and successor, and
//! with two shards the pair is connected by *two* distinct edges. The
//! mailboxes follow the edges (one per direction per edge), while the
//! event labels keep the serial sweep's *numeric* rule — a pop credit
//! travels at label `t` toward the numerically higher feeder and `t + 1`
//! toward the lower one, regardless of which edge carries it. In-cycle
//! information therefore still flows only from numerically lower shards
//! to higher ones (the wrap edge carries label-`t` credits from shard 0
//! to shard `K-1`, never the reverse), so the window generalizes without
//! becoming circular: a numerically lower cyclic neighbor must have
//! finished `t`, a higher one `t - 1`:
//!
//! ```text
//! horizon(s) = min over cyclic neighbors j of:
//!              fence[j] - 1   if j < s   (in-cycle sender)
//!              fence[j]       if j > s   (deferred sender)
//! ```
//!
//! # Boundary mailboxes
//!
//! All cross-shard effects travel as labeled events ([`Ev`]) through
//! per-edge mailboxes, drained into a per-shard heap and applied at the
//! start of the labeled cycle, before that cycle's phases run:
//!
//! - a **landing** (flit crossing a boundary link) is labeled
//!   `t + link_delay` — the label the serial `due` FIFO uses;
//! - a **pop credit** (downstream slot freed in a buffer the receiver
//!   feeds) is labeled `t` toward the higher shard (the serial sweep
//!   would see the freed slot later in the same cycle) and `t + 1`
//!   toward the lower shard (the serial engine defers exactly this case
//!   with a next-cycle ring mark).
//!
//! Because events are flushed before the fence moves and fences are read
//! before mailboxes are drained, every event labeled inside the window is
//! present before the cycle runs; `link_delay >= 1` keeps every label
//! strictly ahead of the receiver's horizon at send time. Capacity checks
//! against a remote downstream buffer read the shard's `occ` mirror
//! (`blen + reserved`, maintained by boundary forwards and pop credits),
//! so each allocation decision sees exactly the state the serial sweep
//! would have seen at that point of the cycle.
//!
//! # Termination and wedges
//!
//! A shared undelivered-worm counter ends the run. A shard with no local
//! and no inbound events declares itself dry; when every shard is dry
//! with all mailboxes empty while worms remain, the run is wedged —
//! surfaced as [`EngineError::Wedged`] from the orchestrator with the
//! serial per-worm report built over the merged shard states, never as a
//! worker-thread abort.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use super::{Engine, Ev, Kind, Landing, ShardCtx, Workspace, NPORTS};
use crate::engine::EngineError;
use crate::{MeshConfig, Topology};

/// Effective shard count for a `--sim-jobs` knob on a mesh with `rows`
/// rows: resolved against hardware parallelism (`0` = one per hardware
/// thread) and capped at the row count, since a shard must own at least
/// one full row. `1` means the serial engine.
pub(super) fn plan(sim_jobs: usize, rows: usize) -> usize {
    commchar_pool::resolve_jobs_for(sim_jobs, rows)
}

/// An inbound boundary event: `(cycle, receive sequence, event)`. Ordered
/// by cycle; the sequence only stabilizes the heap — same-cycle
/// application order is immaterial (credits are additive, dirty marks
/// idempotent, and one feeder link admits one landing per `link_delay`).
#[derive(Clone, Copy, Debug)]
struct InEv(u64, u64, Ev);

impl PartialEq for InEv {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl Eq for InEv {}
impl PartialOrd for InEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

/// One shard's private state: a full-size workspace clone restricted (by
/// the split fixups) to its node band, plus the engine's shard context
/// and the inbound-event heap.
struct ShardSlot {
    ws: Workspace,
    ctx: ShardCtx,
    /// Undelivered worms destined *inside* this shard's band.
    remaining: usize,
    inbox: BinaryHeap<Reverse<InEv>>,
    /// Last processed cycle (for the merged wedge report).
    clock: Option<u64>,
    /// Cycles this shard processed.
    stepped: u64,
}

/// State shared by the workers of one sharded drain.
struct Shared {
    cfg: MeshConfig,
    shards: usize,
    /// `fence[s]`: every cycle `< fence[s]` is fully processed by shard
    /// `s` and its boundary events are flushed. `u64::MAX` once exited.
    fences: Vec<AtomicU64>,
    /// Shards with no local and no inbound events (wedge detection).
    dry: Vec<AtomicBool>,
    /// Undelivered worms across all shards.
    remaining: AtomicUsize,
    wedged: AtomicBool,
    /// The wedge was a per-shard step-guard blowout, not an event drought.
    guard_tripped: AtomicBool,
    /// `mail_succ[s]`: events from shard `s` across its south boundary to
    /// its cyclic successor `(s + 1) % shards`. The last entry is used
    /// only on a torus (the south wrap edge back to shard 0).
    mail_succ: Vec<Mutex<Vec<(u64, Ev)>>>,
    /// `mail_pred[s]`: events from shard `s` across its north boundary to
    /// its cyclic predecessor; `mail_pred[0]` is the torus wrap edge.
    mail_pred: Vec<Mutex<Vec<(u64, Ev)>>>,
    /// The band ring closes (torus): the first and last shards are
    /// neighbors via the wraparound links.
    wrap: bool,
    /// The split clock: every shard resumes strictly after this cycle.
    clock0: Option<u64>,
}

/// Drains a prepared workspace to completion on `shards` threads (batch
/// start: `clock = None`; mid-run closed-loop state: the last committed
/// cycle), leaving merged per-worm deliveries and per-output busy ticks
/// in `ws` exactly as the serial drain would, and returns the cycles the
/// shards processed (summed). Each shard's slot goes to its thread by
/// value and comes back as the thread's result.
pub(super) fn drain_sharded(
    cfg: &MeshConfig,
    ws: &mut Workspace,
    clock: Option<u64>,
    remaining: usize,
    shards: usize,
) -> Result<u64, EngineError> {
    debug_assert!(shards >= 2);
    let rows = cfg.shape.height() as usize;
    let width = cfg.shape.width() as usize;
    let slots = (0..shards).map(|s| {
        let lo = s * rows / shards * width;
        let hi = (s + 1) * rows / shards * width;
        (s, split_shard(cfg, ws, lo, hi))
    });
    let shared = Shared {
        cfg: *cfg,
        shards,
        fences: (0..shards).map(|_| AtomicU64::new(clock.map_or(0, |c| c + 1))).collect(),
        dry: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        remaining: AtomicUsize::new(remaining),
        wedged: AtomicBool::new(false),
        guard_tripped: AtomicBool::new(false),
        mail_succ: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        mail_pred: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        wrap: cfg.shape.topology() == Topology::Torus,
        clock0: clock,
    };
    let slots = commchar_pool::run_concurrent(slots, |(s, slot)| run_shard(s, &shared, slot));

    let last_clock = slots.iter().filter_map(|s| s.clock).max().unwrap_or(0);
    merge_shards(ws, &slots);

    if shared.wedged.load(Ordering::Acquire) {
        let left = shared.remaining.load(Ordering::Acquire);
        let report = wedge_report_merged(cfg, ws, left, last_clock);
        let report = if shared.guard_tripped.load(Ordering::Acquire) {
            format!("flit simulation exceeded the per-shard step guard\n{report}")
        } else {
            report
        };
        return Err(EngineError::Wedged { report });
    }
    Ok(slots.iter().map(|s| s.stepped).sum())
}

/// Clones the prepared workspace for the band `[lo, hi)` and applies the
/// split fixups: non-local events dropped, remote-fed `reserved` moved to
/// the upstream `occ` mirror, the mirror seeded with the serial occupancy
/// of remote downstream buffers, and the local delivery count taken.
fn split_shard(cfg: &MeshConfig, ws: &Workspace, lo: usize, hi: usize) -> ShardSlot {
    let vcs = cfg.virtual_channels;
    let stride = NPORTS * vcs;
    let nodes = cfg.shape.nodes();
    let width = cfg.shape.width() as usize;
    let height = cfg.shape.height() as usize;
    let local = |n: usize| n >= lo && n < hi;

    let mut sw = ws.clone();
    let mut ctx = ShardCtx {
        lo,
        hi,
        occ: vec![0; nodes * stride],
        remote_fed: vec![false; nodes * stride],
        out_lo: Vec::new(),
        out_hi: Vec::new(),
    };

    // Neighbor in the direction of port `p`, if the link exists (mesh
    // edges have none; torus edges wrap). Input port `p` is *fed by* this
    // neighbor, and the output port `p` *feeds* it — same direction index
    // both ways. Wrapped east/west peers stay inside the row band and are
    // therefore always local; the vertical wrap links are the ones that
    // cross between the first and last shards.
    let wrap = cfg.shape.topology() == Topology::Torus;
    let neighbor = |node: usize, p: usize| -> Option<usize> {
        let (x, y) = (node % width, node / width);
        match p {
            super::PORT_E if x + 1 < width => Some(node + 1),
            super::PORT_E if wrap && width > 1 => Some(node + 1 - width),
            super::PORT_W if x > 0 => Some(node - 1),
            super::PORT_W if wrap && width > 1 => Some(node + width - 1),
            super::PORT_S if y + 1 < height => Some(node + width),
            super::PORT_S if wrap && height > 1 => Some(node + width - nodes),
            super::PORT_N if y > 0 => Some(node - width),
            super::PORT_N if wrap && height > 1 => Some(node + nodes - width),
            _ => None,
        }
    };

    for node in lo..hi {
        for port in [super::PORT_E, super::PORT_W, super::PORT_S, super::PORT_N] {
            let Some(peer) = neighbor(node, port) else { continue };
            if local(peer) {
                continue;
            }
            // Boundary input buffers are fed by the remote shard: their
            // in-flight accounting lives in the feeder's `occ` mirror.
            for vc in 0..vcs {
                let b = node * stride + port * vcs + vc;
                ctx.remote_fed[b] = true;
                sw.reserved[b] = 0;
            }
            // Boundary output toward the remote shard: seed the mirror
            // with the serial occupancy of its downstream buffers (the
            // downstream input port is the reverse direction).
            let rev = match port {
                super::PORT_E => super::PORT_W,
                super::PORT_W => super::PORT_E,
                super::PORT_S => super::PORT_N,
                _ => super::PORT_S,
            };
            for vc in 0..vcs {
                let dbuf = peer * stride + rev * vcs + vc;
                ctx.occ[dbuf] = ws.blen[dbuf] + ws.reserved[dbuf];
            }
        }
    }

    // In-flight landings: keep only those arriving inside the band.
    sw.due.clear();
    sw.spare.clear();
    for (at, bucket) in &ws.due {
        let mine: Vec<Landing> =
            bucket.iter().filter(|l| local(l.node as usize)).copied().collect();
        if !mine.is_empty() {
            sw.due.push_back((*at, mine));
        }
    }
    // Scheduled wakeups and dirty bits: local outputs only.
    for slot in &mut sw.ring {
        slot.retain(|&o| local(o as usize / NPORTS));
    }
    for node in (0..nodes).filter(|&n| !local(n)) {
        for p in 0..NPORTS {
            let o = node * NPORTS + p;
            sw.dirty[o / 64] &= !(1 << (o % 64));
        }
    }
    // NI state: local sources only.
    sw.ni_events.clear();
    for &Reverse((entry, n)) in ws.ni_events.iter() {
        if local(n as usize) {
            sw.ni_events.push(Reverse((entry, n)));
        }
    }
    for node in (0..nodes).filter(|&n| !local(n)) {
        sw.pending[node].clear();
        sw.ni_sched[node] = u64::MAX;
    }
    sw.cand.clear();

    let remaining =
        ws.worms.iter().filter(|w| w.delivered.is_none() && local(w.msg.dst.index())).count();
    ShardSlot { ws: sw, ctx, remaining, inbox: BinaryHeap::new(), clock: None, stepped: 0 }
}

/// Folds the shard results back into the caller's workspace: deliveries
/// (only the destination shard sets one), wedge diagnostics (forwarding
/// shards advance `head_hop`; only the destination ejects), and each
/// shard's own outputs' busy ticks.
fn merge_shards(ws: &mut Workspace, slots: &[ShardSlot]) {
    for slot in slots {
        for (dst, src) in ws.worms.iter_mut().zip(&slot.ws.worms) {
            if dst.delivered.is_none() {
                dst.delivered = src.delivered;
            }
            dst.ejected = dst.ejected.max(src.ejected);
            dst.head_hop = dst.head_hop.max(src.head_hop);
        }
        for o in slot.ctx.lo * NPORTS..slot.ctx.hi * NPORTS {
            ws.busy_ticks[o] = slot.ws.busy_ticks[o];
        }
    }
}

/// The serial engine's wedge report over the merged shard states.
fn wedge_report_merged(cfg: &MeshConfig, ws: &mut Workspace, remaining: usize, t: u64) -> String {
    Engine::new(*cfg, ws, remaining, None).wedge_report(t)
}

/// One shard's event loop: wavefront-synchronized cycles over the local
/// band, boundary events in and out, cooperative termination. Returns
/// the slot it advanced.
fn run_shard(s: usize, sh: &Shared, mut st: ShardSlot) -> ShardSlot {
    let cfg = sh.cfg;
    let guard_limit: u64 = 200_000_000;

    let mut clock = sh.clock0;
    let mut seq = 0u64;
    let mut guard = 0u64;
    let mut is_dry = false;
    let mut idle = 0u32;

    loop {
        if sh.wedged.load(Ordering::Acquire) || sh.remaining.load(Ordering::Acquire) == 0 {
            break;
        }
        // The window: a numerically lower cyclic neighbor must have
        // finished `t` (its pops travel at label `t`), a higher one
        // `t - 1` (its events are labeled `t + 1` or later). On a mesh
        // the neighbors are `s - 1` and `s + 1` where they exist; on a
        // torus the chain closes into a ring and the same numeric rule
        // applies to the wrap neighbor. Fences are read *before* draining
        // the mailboxes, so every event labeled within the window is
        // already present when its cycle runs.
        let pred = (s + sh.shards - 1) % sh.shards;
        let succ = (s + 1) % sh.shards;
        let fence = |j: usize| sh.fences[j].load(Ordering::Acquire);
        let horizon = if sh.wrap {
            let bound = |j: usize| {
                let f = fence(j);
                if j < s {
                    f.saturating_sub(1)
                } else {
                    f
                }
            };
            bound(pred).min(bound(succ))
        } else {
            let fl = if s == 0 { u64::MAX } else { fence(s - 1) };
            let fr = if s + 1 == sh.shards { u64::MAX } else { fence(s + 1) };
            fl.saturating_sub(1).min(fr)
        };

        let mut got = false;
        if sh.wrap || s > 0 {
            got |= drain_mailbox(&sh.mail_succ[pred], &mut st.inbox, &mut seq);
        }
        if sh.wrap || s + 1 < sh.shards {
            got |= drain_mailbox(&sh.mail_pred[succ], &mut st.inbox, &mut seq);
        }
        if got && is_dry {
            sh.dry[s].store(false, Ordering::Release);
            is_dry = false;
        }

        let mut engine = Engine::new(cfg, &mut st.ws, st.remaining, Some(&mut st.ctx));
        let next_local = match clock {
            Some(c) => engine.next_time(c),
            None => engine.first_time(),
        };
        let next_in = st.inbox.peek().map(|&Reverse(InEv(at, _, _))| at);
        let next = match (next_local, next_in) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };

        match next {
            Some(t) if t <= horizon => {
                if is_dry {
                    sh.dry[s].store(false, Ordering::Release);
                    is_dry = false;
                }
                guard += 1;
                if guard >= guard_limit {
                    sh.guard_tripped.store(true, Ordering::Release);
                    sh.wedged.store(true, Ordering::Release);
                    break;
                }
                // Apply inbound boundary events labeled for this cycle,
                // then run the serial per-cycle phases unchanged.
                while let Some(&Reverse(InEv(at, _, ev))) = st.inbox.peek() {
                    if at > t {
                        break;
                    }
                    debug_assert_eq!(at, t, "boundary event missed its cycle");
                    st.inbox.pop();
                    match ev {
                        Ev::Pop { out, buf } => {
                            let ctx = engine.shard.as_mut().expect("sharded engine");
                            ctx.occ[buf as usize] -= 1;
                            engine.ws.dirty[out as usize / 64] |= 1 << (out % 64);
                        }
                        Ev::Landing(Landing { node, buf, mut flit }) => {
                            flit.ready =
                                if flit.kind == Kind::Head { t + cfg.router_delay } else { t };
                            // The feeder's `occ` mirror holds the slot
                            // reservation — nothing to release locally.
                            engine.push_buffer(node as usize, buf as usize, flit, t);
                        }
                    }
                }
                engine.drain_ni(t);
                engine.land_arrivals(t);
                engine.promote_ring(t);
                engine.scan(t);
                st.stepped += 1;
                let delivered = st.remaining - engine.remaining;
                st.remaining = engine.remaining;
                clock = Some(t);
                st.clock = clock;
                // Flush boundary events *before* publishing the fence, so
                // a neighbor observing `fence > t` finds every event of
                // cycles `<= t` already in its mailbox.
                if !st.ctx.out_lo.is_empty() {
                    flush_mailbox(&sh.mail_pred[s], &mut st.ctx.out_lo);
                }
                if !st.ctx.out_hi.is_empty() {
                    flush_mailbox(&sh.mail_succ[s], &mut st.ctx.out_hi);
                }
                if delivered > 0 {
                    sh.remaining.fetch_sub(delivered, Ordering::AcqRel);
                }
                sh.fences[s].store(t + 1, Ordering::Release);
                idle = 0;
            }
            _ => {
                // No executable event in the window. Publish every cycle
                // up to the horizon as (vacuously) done so neighbors can
                // advance past this shard; local state is untouched
                // (`clock` stays at the last *processed* cycle — ring
                // wakeups stay within `wheel` of it).
                if horizon != u64::MAX {
                    let fence = horizon + 1;
                    if fence > sh.fences[s].load(Ordering::Relaxed) {
                        sh.fences[s].store(fence, Ordering::Release);
                    }
                }
                if next.is_none() {
                    // Nothing queued at any future time either: dry. When
                    // everyone is dry and no event is in flight while
                    // worms remain, the run is wedged.
                    if !is_dry {
                        sh.dry[s].store(true, Ordering::Release);
                        is_dry = true;
                    }
                    if sh.dry.iter().all(|d| d.load(Ordering::Acquire))
                        && all_mailboxes_empty(sh)
                        && sh.remaining.load(Ordering::Acquire) > 0
                    {
                        sh.wedged.store(true, Ordering::Release);
                        break;
                    }
                }
                idle += 1;
                if idle < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
    // Never leave a neighbor blocked on this shard's fence.
    sh.fences[s].store(u64::MAX, Ordering::Release);
    st.clock = clock;
    st
}

/// Moves all events from a mailbox into the receiver's heap.
fn drain_mailbox(
    mail: &Mutex<Vec<(u64, Ev)>>,
    inbox: &mut BinaryHeap<Reverse<InEv>>,
    seq: &mut u64,
) -> bool {
    let batch = {
        let mut m = mail.lock().unwrap_or_else(|e| e.into_inner());
        if m.is_empty() {
            return false;
        }
        std::mem::take(&mut *m)
    };
    for (at, ev) in batch {
        inbox.push(Reverse(InEv(at, *seq, ev)));
        *seq += 1;
    }
    true
}

/// Appends a shard's outbox to a neighbor's mailbox.
fn flush_mailbox(mail: &Mutex<Vec<(u64, Ev)>>, out: &mut Vec<(u64, Ev)>) {
    mail.lock().unwrap_or_else(|e| e.into_inner()).append(out);
}

fn all_mailboxes_empty(sh: &Shared) -> bool {
    sh.mail_succ
        .iter()
        .chain(sh.mail_pred.iter())
        .all(|m| m.lock().unwrap_or_else(|e| e.into_inner()).is_empty())
}
