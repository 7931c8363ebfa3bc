//! The rank coroutines and the loop that polls them, the point-to-point
//! layer, collectives and tracing.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use commchar_trace::{CommEvent, CommTrace, EventKind};

use crate::Sp2Config;

/// A message in flight between ranks.
#[derive(Clone, Debug)]
struct Packet {
    id: u64,
    src: usize,
    tag: u32,
    /// Arrival time at the destination (sender clock + overhead + wire).
    arrival: u64,
    data: Vec<f64>,
}

/// What the ranks of one run share. Every access borrows it for one
/// operation only, never across a body's code.
struct World {
    /// Per destination, the packets not yet received, in send order.
    mail: Vec<VecDeque<Packet>>,
    /// Per rank, the `(src, tag)` its suspended receive waits for.
    parked: Vec<Option<(usize, u32)>>,
    /// Ranks to poll next, in the order they became runnable.
    ready: VecDeque<usize>,
    events: Vec<CommEvent>,
    /// The latest final clock of a dropped [`Rank`].
    exec_ticks: u64,
}

/// The output of a message-passing run.
#[derive(Debug)]
pub struct MpRun {
    /// Application-level communication trace (with causal annotations).
    pub trace: CommTrace,
    /// Final logical clock of the slowest rank, in ticks.
    pub exec_ticks: u64,
    /// Number of ranks.
    pub nprocs: usize,
}

/// Per-rank execution context: point-to-point operations, collectives,
/// logical clock, and tracing.
///
/// Payloads are `f64` slices (the NAS kernels ship doubles); a message of
/// `k` values costs `8k` bytes in the model. A receive is an `async fn`
/// that suspends the rank until its message has been sent; a body may
/// await only receives (and the collectives built on them).
pub struct Rank {
    id: usize,
    n: usize,
    clock: u64,
    cfg: Sp2Config,
    seq: u64,
    last_recv: Option<u64>,
    world: Rc<RefCell<World>>,
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank").field("id", &self.id).field("clock", &self.clock).finish()
    }
}

impl Rank {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.id
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Accounts local computation time in microseconds.
    pub fn compute_us(&mut self, us: f64) {
        self.clock += self.cfg.us_to_ticks(us);
    }

    fn next_id(&mut self) -> u64 {
        let id = ((self.id as u64) << 40) | self.seq;
        self.seq += 1;
        id
    }

    /// Sends `data` to `dst` with a matching `tag`. Never blocks; the
    /// logical clock advances by the sender-side SP2 overhead.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or equals this rank.
    pub fn send(&mut self, dst: usize, data: &[f64], tag: u32) {
        assert!(dst < self.n, "rank {dst} out of range");
        assert_ne!(dst, self.id, "self-send is not allowed");
        let bytes = (data.len() * 8).max(8) as u32;
        let t_issue = self.clock;
        self.clock += self.cfg.send_ticks(bytes);
        let arrival = self.clock + self.cfg.wire_ticks(bytes);
        let id = self.next_id();
        let kind = if data.len() <= 2 { EventKind::Control } else { EventKind::Data };
        let mut ev = CommEvent::new(id, t_issue, self.id as u16, dst as u16, bytes, kind);
        if let Some(dep) = self.last_recv {
            ev = ev.after(dep);
        }
        let mut w = self.world.borrow_mut();
        w.events.push(ev);
        w.mail[dst].push_back(Packet { id, src: self.id, tag, arrival, data: data.to_vec() });
        if w.parked[dst] == Some((self.id, tag)) {
            w.parked[dst] = None;
            w.ready.push_back(dst);
        }
    }

    /// Receives the first message `src` sent with `tag`, suspending the
    /// rank until it has been sent. The logical clock advances to the
    /// message arrival plus the receiver-side overhead.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or equals this rank.
    pub async fn recv(&mut self, src: usize, tag: u32) -> Vec<f64> {
        assert!(src < self.n, "rank {src} out of range");
        assert_ne!(src, self.id, "self-receive is not allowed");
        let p = poll_fn(|_| self.take_or_park(src, tag)).await;
        let bytes = (p.data.len() * 8).max(8) as u32;
        self.clock = self.clock.max(p.arrival) + self.cfg.recv_ticks(bytes);
        self.last_recv = Some(p.id);
        p.data
    }

    /// Takes the first packet from `src` with `tag` out of this rank's
    /// mailbox, or parks the rank on `(src, tag)` until a send matches.
    fn take_or_park(&self, src: usize, tag: u32) -> Poll<Packet> {
        let mut w = self.world.borrow_mut();
        let mail = &mut w.mail[self.id];
        match mail.iter().position(|p| p.src == src && p.tag == tag) {
            Some(pos) => Poll::Ready(mail.remove(pos).expect("position is in range")),
            None => {
                w.parked[self.id] = Some((src, tag));
                Poll::Pending
            }
        }
    }

    /// Linear barrier rooted at rank 0: everyone reports to p0, p0 releases
    /// everyone — the flat algorithm of the period's MPL runtimes.
    pub async fn barrier(&mut self) {
        const TAG: u32 = u32::MAX - 1;
        if self.id == 0 {
            for q in 1..self.n {
                let _ = self.recv(q, TAG).await;
            }
            for q in 1..self.n {
                self.send(q, &[0.0], TAG);
            }
        } else {
            self.send(0, &[0.0], TAG);
            let _ = self.recv(0, TAG).await;
        }
    }

    /// Linear broadcast from `root`: the root sends to every other rank.
    /// Non-roots pass anything (typically `vec![]`) and receive the data.
    pub async fn bcast(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        const TAG: u32 = u32::MAX - 2;
        if self.id == root {
            for q in 0..self.n {
                if q != root {
                    self.send(q, &data, TAG);
                }
            }
            data
        } else {
            self.recv(root, TAG).await
        }
    }

    /// Binomial-tree broadcast from `root`: log₂(n) rounds; rank r (in
    /// root-relative numbering) receives from `r − 2^k` and forwards to
    /// `r + 2^k`. The modern algorithm — used by the collective-algorithm
    /// ablation to show how the spatial "favorite processor" signature
    /// depends on the library's implementation, not just the application.
    pub async fn bcast_tree(&mut self, root: usize, data: Vec<f64>) -> Vec<f64> {
        const TAG: u32 = u32::MAX - 6;
        let n = self.n;
        let rel = (self.id + n - root) % n;
        let mut data = data;
        if rel != 0 {
            // Receive from the parent: clear the lowest set bit.
            let parent_rel = rel & (rel - 1);
            let parent = (parent_rel + root) % n;
            data = self.recv(parent, TAG).await;
        }
        // Forward to children: set bits above the lowest set bit of rel.
        let lowest = if rel == 0 { n.next_power_of_two() } else { rel & rel.wrapping_neg() };
        let mut bit = 1;
        while bit < lowest && rel + bit < n {
            let child = (rel + bit + root) % n;
            self.send(child, &data, TAG);
            bit <<= 1;
        }
        data
    }

    /// Linear element-wise sum reduction to `root`. Every rank contributes
    /// a slice of equal length; the root returns the sums (others get their
    /// own contribution back).
    ///
    /// # Panics
    ///
    /// Panics (on the root) if contributions disagree in length.
    pub async fn reduce_sum(&mut self, root: usize, contrib: &[f64]) -> Vec<f64> {
        const TAG: u32 = u32::MAX - 3;
        if self.id == root {
            let mut acc = contrib.to_vec();
            for q in 0..self.n {
                if q == root {
                    continue;
                }
                let part = self.recv(q, TAG).await;
                assert_eq!(part.len(), acc.len(), "reduce contribution length mismatch");
                for (a, b) in acc.iter_mut().zip(&part) {
                    *a += b;
                }
            }
            acc
        } else {
            self.send(root, contrib, TAG);
            contrib.to_vec()
        }
    }

    /// Binomial-tree sum reduction to `root`: log₂(n) rounds; partial sums
    /// combine up the tree, spreading the receive load that the linear
    /// algorithm concentrates at the root.
    pub async fn reduce_sum_tree(&mut self, root: usize, contrib: &[f64]) -> Vec<f64> {
        const TAG: u32 = u32::MAX - 7;
        let n = self.n;
        let rel = (self.id + n - root) % n;
        let mut acc = contrib.to_vec();
        // Receive from children (mirror of bcast_tree's sends), largest
        // subtree first so child sends complete in tree order.
        let lowest = if rel == 0 { n.next_power_of_two() } else { rel & rel.wrapping_neg() };
        let mut bits = Vec::new();
        let mut bit = 1;
        while bit < lowest && rel + bit < n {
            bits.push(bit);
            bit <<= 1;
        }
        for &bit in bits.iter().rev() {
            let child = (rel + bit + root) % n;
            let part = self.recv(child, TAG).await;
            assert_eq!(part.len(), acc.len(), "reduce contribution length mismatch");
            for (a, b) in acc.iter_mut().zip(&part) {
                *a += b;
            }
        }
        if rel != 0 {
            let parent_rel = rel & (rel - 1);
            let parent = (parent_rel + root) % n;
            self.send(parent, &acc, TAG);
        }
        acc
    }

    /// All-reduce: reduce to rank 0, then broadcast — both rooted at p0,
    /// reinforcing the favorite-processor pattern the paper observes.
    pub async fn allreduce_sum(&mut self, contrib: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_sum(0, contrib).await;
        if self.id == 0 {
            self.bcast(0, reduced).await
        } else {
            self.bcast(0, Vec::new()).await
        }
    }

    /// Personalized all-to-all: `chunks[q]` goes to rank `q`; returns the
    /// chunks received (index = sender). Pairwise ring exchange.
    ///
    /// # Panics
    ///
    /// Panics if `chunks.len() != size()`.
    pub async fn alltoall(&mut self, chunks: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        const TAG: u32 = u32::MAX - 4;
        assert_eq!(chunks.len(), self.n, "need one chunk per rank");
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); self.n];
        out[self.id] = chunks[self.id].clone();
        for k in 1..self.n {
            let to = (self.id + k) % self.n;
            let from = (self.id + self.n - k) % self.n;
            self.send(to, &chunks[to], TAG);
            out[from] = self.recv(from, TAG).await;
        }
        out
    }
}

impl Drop for Rank {
    /// Records the rank's final clock.
    fn drop(&mut self) {
        let mut w = self.world.borrow_mut();
        w.exec_ticks = w.exec_ticks.max(self.clock);
    }
}

/// Runs `body` on every rank and collects the application-level trace.
///
/// Each rank's body is a coroutine polled on the caller's thread. A
/// receive with no matching message parks its rank; the send that matches
/// makes it runnable again. Every receive takes the first message sent
/// with its exact `(src, tag)`, so no clock, and no byte of the trace,
/// depends on the order in which ranks are polled.
///
/// # Panics
///
/// Propagates a body's panic with its own payload. Panics, naming every
/// parked rank and the `(src, tag)` it waits for, when each unfinished
/// rank waits for a message no rank can send any more; and, naming the
/// rank, when a body suspends on a future that is not a [`Rank::recv`].
pub fn run_mp<B, F>(cfg: Sp2Config, body: B) -> MpRun
where
    B: Fn(Rank) -> F,
    F: Future<Output = ()>,
{
    let n = cfg.nprocs;
    let world = Rc::new(RefCell::new(World {
        mail: vec![VecDeque::new(); n],
        parked: vec![None; n],
        ready: (0..n).collect(),
        events: Vec::new(),
        exec_ticks: 0,
    }));
    let mut bodies: Vec<Option<Pin<Box<F>>>> = (0..n)
        .map(|id| {
            let world = Rc::clone(&world);
            Some(Box::pin(body(Rank { id, n, clock: 0, cfg, seq: 0, last_recv: None, world })))
        })
        .collect();

    let mut unfinished = n;
    loop {
        let next = world.borrow_mut().ready.pop_front();
        let Some(id) = next else { break };
        let rank_body = bodies[id].as_mut().expect("a ready rank has a body");
        match rank_body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            // Dropping the body drops its Rank, which records its clock.
            Poll::Ready(()) => {
                bodies[id] = None;
                unfinished -= 1;
            }
            Poll::Pending => {
                let parked = world.borrow().parked[id].is_some();
                assert!(parked, "rank {id}'s body awaited a future that is not an sp2 receive");
            }
        }
    }
    if unfinished > 0 {
        let mut report = String::new();
        for (id, wait) in world.borrow().parked.iter().enumerate() {
            if let Some((src, tag)) = wait {
                let _ = write!(report, "\n  rank {id} waits on (src {src}, tag {tag})");
            }
        }
        panic!(
            "sp2 run deadlocked: each unfinished rank waits for a message nobody sends:{report}"
        );
    }

    let World { mut events, exec_ticks, .. } =
        Rc::into_inner(world).expect("every rank has been dropped").into_inner();
    events.sort_by_key(|e| (e.t, e.id));
    let mut trace = CommTrace::new(n);
    for e in events {
        trace.push(e);
    }
    trace.check().expect("runtime produced an inconsistent trace");
    MpRun { trace, exec_ticks, nprocs: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_clock_matches_model() {
        let cfg = Sp2Config::new(2);
        let out = run_mp(cfg, |mut r| async move {
            if r.rank() == 0 {
                r.send(1, &[1.0; 100], 7);
                let back = r.recv(1, 8).await;
                assert_eq!(back.len(), 100);
            } else {
                let data = r.recv(0, 7).await;
                r.send(0, &data, 8);
            }
        });
        assert_eq!(out.trace.len(), 2);
        let bytes = 800u32;
        let one_way = cfg.send_ticks(bytes) + cfg.wire_ticks(bytes) + cfg.recv_ticks(bytes);
        // Round trip ≈ 2 one-way transfers.
        assert_eq!(out.exec_ticks, 2 * one_way);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = run_mp(Sp2Config::new(2), |mut r| async move {
            if r.rank() == 0 {
                r.send(1, &[1.0], 1);
                r.send(1, &[2.0], 2);
            } else {
                // Receive in reverse tag order.
                let b = r.recv(0, 2).await;
                let a = r.recv(0, 1).await;
                assert_eq!((a[0], b[0]), (1.0, 2.0));
            }
        });
        assert_eq!(out.trace.len(), 2);
    }

    #[test]
    fn collectives_compute_correctly() {
        run_mp(Sp2Config::new(5), |mut r| async move {
            let me = r.rank() as f64;
            // reduce
            let sum = r.reduce_sum(0, &[me, 2.0 * me]).await;
            if r.rank() == 0 {
                assert_eq!(sum, vec![10.0, 20.0]);
            }
            // bcast
            let v = r.bcast(2, if r.rank() == 2 { vec![9.0] } else { vec![] }).await;
            assert_eq!(v, vec![9.0]);
            // allreduce
            let all = r.allreduce_sum(&[1.0]).await;
            assert_eq!(all, vec![5.0]);
            // barrier (smoke)
            r.barrier().await;
        });
    }

    #[test]
    fn alltoall_permutes_chunks() {
        run_mp(Sp2Config::new(4), |mut r| async move {
            let me = r.rank() as f64;
            let chunks: Vec<Vec<f64>> = (0..4).map(|q| vec![me * 10.0 + q as f64; 3]).collect();
            let got = r.alltoall(chunks).await;
            for (q, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &vec![q as f64 * 10.0 + me; 3], "from rank {q}");
            }
        });
    }

    #[test]
    fn tree_collectives_compute_correctly() {
        for n in [2usize, 3, 4, 5, 7, 8] {
            run_mp(Sp2Config::new(n), |mut r| async move {
                let me = r.rank() as f64;
                for root in 0..n.min(3) {
                    // Tree broadcast.
                    let v = r
                        .bcast_tree(
                            root,
                            if r.rank() == root { vec![root as f64, 9.0] } else { vec![] },
                        )
                        .await;
                    assert_eq!(v, vec![root as f64, 9.0], "bcast_tree root {root} rank {me}");
                    // Tree reduce.
                    let sum = r.reduce_sum_tree(root, &[me]).await;
                    if r.rank() == root {
                        let expect: f64 = (0..n).map(|q| q as f64).sum();
                        assert_eq!(sum, vec![expect], "reduce_sum_tree root {root}");
                    }
                }
            });
        }
    }

    #[test]
    fn tree_bcast_spreads_the_load() {
        // Linear bcast: root sends n−1 messages. Tree bcast: root sends
        // only ⌈log₂ n⌉.
        let count_root_sends = |tree: bool| {
            let out = run_mp(Sp2Config::new(8), |mut r| async move {
                for _ in 0..4 {
                    let data = if r.rank() == 0 { vec![1.0; 8] } else { vec![] };
                    if tree {
                        let _ = r.bcast_tree(0, data).await;
                    } else {
                        let _ = r.bcast(0, data).await;
                    }
                }
            });
            out.trace.events().iter().filter(|e| e.src == 0).count()
        };
        let linear = count_root_sends(false);
        let tree = count_root_sends(true);
        assert_eq!(linear, 4 * 7);
        assert_eq!(tree, 4 * 3, "root forwards to log2(8) children");
    }

    #[test]
    fn trace_records_dependencies() {
        let out = run_mp(Sp2Config::new(2), |mut r| async move {
            if r.rank() == 0 {
                r.send(1, &[1.0], 0);
            } else {
                let _ = r.recv(0, 0).await;
                r.send(0, &[2.0], 1); // causally after the receive
            }
        });
        let reply = out.trace.events().iter().find(|e| e.src == 1).unwrap();
        let first = out.trace.events().iter().find(|e| e.src == 0).unwrap();
        assert_eq!(reply.depends_on, Some(first.id));
    }

    #[test]
    fn deterministic_clocks() {
        let go = || {
            run_mp(Sp2Config::new(4), |mut r| async move {
                let contrib = vec![r.rank() as f64; 16];
                let _ = r.allreduce_sum(&contrib).await;
                r.barrier().await;
                let chunks: Vec<Vec<f64>> = (0..4).map(|q| vec![q as f64; 8]).collect();
                let _ = r.alltoall(chunks).await;
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.exec_ticks, b.exec_ticks);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn p0_is_the_collective_favorite() {
        // Many reduces: every rank's destination histogram should be
        // dominated by p0.
        let out = run_mp(Sp2Config::new(8), |mut r| async move {
            for _ in 0..20 {
                let _ = r.reduce_sum(0, &[1.0]).await;
            }
        });
        let p = commchar_trace::profile::profile(&out.trace);
        for s in &p.sources[1..] {
            assert_eq!(s.dest_counts[0], 20, "rank {} must send everything to p0", s.src);
        }
    }
}
