//! The execution-driven simulation front end: processor bodies, the
//! sharded event-loop engine, and run assembly.
//!
//! Each simulated processor's body is a future built by the application
//! closure. Every shared access is an `async` trap that leaves its request
//! in the processor's slot and suspends, and the shard owning the
//! processor polls the body again once it has simulated the access to
//! completion — no thread runs per processor, and a trap costs a return to
//! the shard loop rather than a thread handoff. The machine itself —
//! bodies, caches, directory, event calendar — is partitioned into
//! source-contiguous shards advanced in conservative time windows (see
//! [`crate::shard`]); a single shard degenerates to the classic serial
//! loop, and every shard count produces bit-identical results. Network
//! messages are injected in nondecreasing time order at window edges, as
//! the wormhole model requires.

use std::future::Future;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use commchar_mesh::{EngineKind, FlitLevel, LogSink, NetEngine, OnlineWormhole};

use crate::api::{Ctx, Setup};
use crate::shard::{self, Body, ShardCore};
use crate::MachineConfig;
use commchar_trace::CommTrace;

/// The output of an execution-driven run, with the network engine's sink
/// `S`.
#[derive(Debug)]
pub struct SpasmRun<S> {
    /// Every network message injected during the run (the communication
    /// trace the methodology analyzes).
    pub trace: CommTrace,
    /// The network engine's sink: each message's record in a
    /// [`NetLog`](commchar_mesh::NetLog), the exact summary in a
    /// [`NetTally`](commchar_mesh::NetTally).
    pub net: S,
    /// Total simulated execution time in cycles.
    pub exec_cycles: u64,
    /// Number of processors.
    pub nprocs: usize,
    /// Shared reads issued.
    pub reads: u64,
    /// Shared writes issued.
    pub writes: u64,
    /// Cache hits (reads + writes).
    pub hits: u64,
    /// Cache misses (including upgrades).
    pub misses: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Lock acquisitions granted.
    pub locks: u64,
}

impl<S> SpasmRun<S> {
    /// Miss ratio over all shared accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// An engine-level failure surfaced as a value instead of a bare panic,
/// carrying the same style of per-participant account as the flit
/// router's wedge report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpasmError {
    /// The simulation stopped making progress with work still pending:
    /// either the application deadlocked (every remaining processor is
    /// blocked on a reply that can never come) or the conservative
    /// windows wedged without any shard advancing — the cooperative
    /// analogue of the flit router's `EngineError::Wedged`.
    Wedged {
        /// A per-participant account of the stuck state.
        report: String,
    },
}

impl std::fmt::Display for SpasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpasmError::Wedged { report } => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SpasmError {}

/// Runs `body` on every simulated processor of a machine configured by
/// `cfg`, after `setup` has allocated and initialized shared memory.
///
/// `body` is called once per processor with its [`Ctx`] and a clone of
/// the value returned by `setup` (typically a tuple of
/// [`Region`](crate::Region)s plus problem parameters), and returns the
/// processor's program as a future — usually an `async move` block that
/// awaits the [`Ctx`] traps. The shard owning the processor polls that
/// future; it may await only [`Ctx`] operations.
///
/// The network engine closing the co-simulation loop is chosen by
/// `cfg.engine` and delivers each message into `sink`; see [`run_with`]
/// to supply the engine directly. The machine is
/// advanced by `cfg.sim_jobs` worker shards
/// ([`MachineConfig::with_sim_jobs`]); the shard count never changes the
/// results, only the wall-clock time.
///
/// # Panics
///
/// A panic inside a body unwinds to the caller with the body's own
/// payload. Also panics if the application deadlocks
/// ([`SpasmError::Wedged`]), if a body awaits a future that is not a
/// [`Ctx`] trap, or on protocol-level misuse (e.g. unlocking a lock the
/// caller does not hold).
pub fn run<R, S, B, F, L>(cfg: MachineConfig, setup: S, body: B, sink: L) -> SpasmRun<L>
where
    R: Clone,
    S: FnOnce(&mut Setup) -> R,
    B: Fn(Ctx, R) -> F,
    F: Future<Output = ()> + Send + 'static,
    L: LogSink + Send,
{
    match cfg.engine {
        EngineKind::Recurrence => {
            run_with(cfg, setup, body, OnlineWormhole::with_sink(cfg.mesh, sink))
        }
        EngineKind::FlitLevel => run_with(
            cfg,
            setup,
            body,
            FlitLevel::with_sink(cfg.mesh, sink).with_sim_jobs(cfg.sim_jobs),
        ),
    }
}

/// [`run`] with a caller-supplied network engine (any [`NetEngine`]).
///
/// # Panics
///
/// As [`run`].
pub fn run_with<R, S, B, F, N>(cfg: MachineConfig, setup: S, body: B, net: N) -> SpasmRun<N::Sink>
where
    R: Clone,
    S: FnOnce(&mut Setup) -> R,
    B: Fn(Ctx, R) -> F,
    F: Future<Output = ()> + Send + 'static,
    N: NetEngine + Send,
{
    try_run_with(cfg, setup, body, net).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_with`], but surfacing engine-level failures (application
/// deadlock, wedged windows) as a typed [`SpasmError`] instead of a
/// panic. Application panics inside `body` still propagate as panics.
pub fn try_run_with<R, S, B, F, N>(
    cfg: MachineConfig,
    setup: S,
    body: B,
    net: N,
) -> Result<SpasmRun<N::Sink>, SpasmError>
where
    R: Clone,
    S: FnOnce(&mut Setup) -> R,
    B: Fn(Ctx, R) -> F,
    F: Future<Output = ()> + Send + 'static,
    N: NetEngine + Send,
{
    let mut s = Setup { mem: Vec::new(), nprocs: cfg.nprocs };
    let shared = setup(&mut s);
    // Shared memory is atomics so shards on different threads can touch
    // it without locks; the coherence protocol itself serializes every
    // pair of conflicting accesses across window barriers, so Relaxed
    // ordering suffices.
    let mem: Vec<AtomicU64> = s.mem.into_iter().map(AtomicU64::new).collect();

    let shards = commchar_pool::resolve_jobs_for(cfg.sim_jobs, cfg.nprocs);
    let plan = shard::partition(cfg.nprocs, shards);

    let cores = plan
        .iter()
        .enumerate()
        .map(|(sid, &(lo, hi))| {
            let procs = (lo..hi)
                .map(|p| {
                    let slot = Arc::default();
                    let ctx = Ctx::new(p, cfg.nprocs, Arc::clone(&slot));
                    (Box::pin(body(ctx, shared.clone())) as Body, slot)
                })
                .collect();
            ShardCore::new(cfg, sid, (lo, hi), &mem, procs)
        })
        .collect();

    let d = shard::drive(cfg, cores, net)?;
    Ok(SpasmRun {
        trace: d.trace,
        net: d.net,
        exec_cycles: d.exec_cycles,
        nprocs: cfg.nprocs,
        reads: d.reads,
        writes: d.writes,
        hits: d.hits,
        misses: d.misses,
        barriers: d.barriers,
        locks: d.locks,
    })
}

#[cfg(test)]
mod tests {
    use commchar_mesh::NetLog;
    use commchar_trace::EventKind;

    use super::*;

    fn cfg(n: usize) -> MachineConfig {
        MachineConfig::new(n)
    }

    #[test]
    fn single_proc_no_network_traffic_except_home_misses() {
        // One processor: every block's home is itself, so no messages.
        let out = run(
            cfg(1),
            |m| m.alloc(128),
            |mut ctx, r| async move {
                for i in 0..128 {
                    ctx.write(r, i, i as u64).await;
                }
                for i in 0..128 {
                    assert_eq!(ctx.read(r, i).await, i as u64);
                }
            },
            NetLog::new(),
        );
        assert_eq!(out.trace.len(), 0);
        assert!(out.exec_cycles > 0);
        assert_eq!(out.reads, 128);
        assert_eq!(out.writes, 128);
    }

    #[test]
    fn values_flow_between_processors() {
        let out = run(
            cfg(4),
            |m| m.alloc(64),
            |mut ctx, r| async move {
                let p = ctx.proc_id();
                ctx.write(r, p * 4, (p * 100) as u64).await;
                ctx.barrier(0).await;
                for q in 0..ctx.nprocs() {
                    assert_eq!(ctx.read(r, q * 4).await, (q * 100) as u64);
                }
            },
            NetLog::new(),
        );
        assert!(!out.trace.is_empty(), "cross-processor traffic expected");
        assert_eq!(out.barriers, 1);
        out.net.check_invariants(cfg(4).mesh.shape).unwrap();
    }

    #[test]
    fn cache_hits_do_not_generate_traffic() {
        let out = run(
            cfg(2),
            |m| m.alloc(4),
            |mut ctx, r| async move {
                if ctx.proc_id() == 0 {
                    ctx.write(r, 0, 7).await;
                    for _ in 0..100 {
                        assert_eq!(ctx.read(r, 0).await, 7);
                    }
                }
            },
            NetLog::new(),
        );
        // p0's writes/reads to block 0 (home p0): no network messages, and
        // after the first write, all accesses hit.
        assert_eq!(out.trace.len(), 0);
        assert!(out.hits >= 100);
    }

    #[test]
    fn invalidation_protocol_counts() {
        // All procs read a block, then one writes it: expect an
        // invalidation round trip per sharer.
        let n = 4;
        let out = run(
            cfg(n),
            |m| m.alloc(4),
            |mut ctx, r| async move {
                ctx.read(r, 0).await;
                ctx.barrier(0).await;
                if ctx.proc_id() == 1 {
                    ctx.write(r, 0, 42).await;
                }
                ctx.barrier(1).await;
                assert_eq!(ctx.read(r, 0).await, 42);
            },
            NetLog::new(),
        );
        let ctrl = out.trace.events().iter().filter(|e| e.kind == EventKind::Control).count();
        assert!(ctrl >= 2 * (n - 2), "invalidations + acks expected, saw {ctrl} control msgs");
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        let n = 4;
        let iters = 25;
        let out = run(
            cfg(n),
            |m| m.alloc(4),
            move |mut ctx, r| async move {
                for _ in 0..iters {
                    ctx.lock(0).await;
                    let v = ctx.read(r, 0).await;
                    ctx.compute(3);
                    ctx.write(r, 0, v + 1).await;
                    ctx.unlock(0).await;
                }
            },
            NetLog::new(),
        );
        assert_eq!(out.locks, (n * iters) as u64);
        // Verify the final counter value via a fresh run reading it... we
        // can't read memory post-hoc here, so assert through a second phase
        // in another test below.
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn lock_protected_counter_is_exact() {
        let n = 4;
        let iters = 10;
        run(
            cfg(n),
            |m| m.alloc(4),
            move |mut ctx, r| async move {
                for _ in 0..iters {
                    ctx.lock(3).await;
                    let v = ctx.read(r, 0).await;
                    ctx.write(r, 0, v + 1).await;
                    ctx.unlock(3).await;
                }
                ctx.barrier(0).await;
                let total = ctx.read(r, 0).await;
                assert_eq!(total, (n * iters) as u64, "lost update under lock");
            },
            NetLog::new(),
        );
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn unlocking_unheld_lock_panics() {
        run(
            cfg(2),
            |m| m.alloc(1),
            |mut ctx, _| async move {
                if ctx.proc_id() == 0 {
                    ctx.lock(0).await;
                    ctx.unlock(0).await;
                } else {
                    ctx.compute(10_000);
                    ctx.unlock(0).await;
                }
            },
            NetLog::new(),
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let go = || {
            run(
                cfg(8),
                |m| m.alloc(256),
                |mut ctx, r| async move {
                    let p = ctx.proc_id();
                    for i in 0..32 {
                        ctx.write(r, (p * 32 + i) % 256, (p + i) as u64).await;
                        ctx.compute(2);
                    }
                    ctx.barrier(0).await;
                    let mut acc = 0u64;
                    for i in 0..64 {
                        acc = acc.wrapping_add(ctx.read(r, (p * 7 + i * 3) % 256).await);
                    }
                    ctx.write(r, p, acc).await;
                },
                NetLog::new(),
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn barrier_separates_phases() {
        // After a barrier, all prior writes are visible to all readers.
        run(
            cfg(8),
            |m| m.alloc(64),
            |mut ctx, r| async move {
                let p = ctx.proc_id();
                for round in 0..4u64 {
                    ctx.write(r, p, round * 10 + p as u64).await;
                    ctx.barrier(round as u32).await;
                    for q in 0..ctx.nprocs() {
                        assert_eq!(ctx.read(r, q).await, round * 10 + q as u64);
                    }
                    ctx.barrier(100 + round as u32).await;
                }
            },
            NetLog::new(),
        );
    }

    #[test]
    fn false_sharing_generates_invalidations() {
        // Two procs write adjacent words in the same 4-word block.
        let out = run(
            cfg(2),
            |m| m.alloc(4),
            |mut ctx, r| async move {
                let p = ctx.proc_id();
                for _ in 0..20 {
                    ctx.write(r, p, 1).await;
                }
            },
            NetLog::new(),
        );
        assert!(out.misses > 2, "ping-ponging block must miss repeatedly");
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn capacity_misses_with_tiny_cache() {
        let small = cfg(1).with_cache_lines(2);
        let out = run(
            small,
            |m| m.alloc(1024),
            |mut ctx, r| async move {
                for i in 0..256 {
                    ctx.read(r, i * 4).await; // distinct blocks
                }
                for i in 0..256 {
                    ctx.read(r, i * 4).await;
                }
            },
            NetLog::new(),
        );
        // Direct-mapped 2-line cache, 256 distinct blocks: everything
        // misses both passes.
        assert_eq!(out.misses, 512);
    }

    #[test]
    fn flit_engine_closes_the_loop() {
        // The cycle-accurate engine must drive the same co-simulation to
        // completion, deterministically, with a consistent trace/log pair.
        let go = || {
            run(
                cfg(4).with_engine(commchar_mesh::EngineKind::flit()),
                |m| m.alloc(64),
                |mut ctx, r| async move {
                    let p = ctx.proc_id();
                    ctx.write(r, p, p as u64).await;
                    ctx.barrier(0).await;
                    for q in 0..ctx.nprocs() {
                        assert_eq!(ctx.read(r, q).await, q as u64);
                    }
                },
                NetLog::new(),
            )
        };
        let a = go();
        assert_eq!(a.trace.len(), a.net.records().len());
        assert!(a.exec_cycles > 0);
        a.trace.check().unwrap();
        let b = go();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn engines_agree_on_the_message_population() {
        // Same program under both engines: the protocol traffic (what the
        // characterization measures) is identical; only latencies differ.
        async fn body(mut ctx: crate::Ctx, r: crate::Region) {
            let p = ctx.proc_id();
            ctx.write(r, p * 4, (p * 10) as u64).await;
            ctx.barrier(0).await;
            let _ = ctx.read(r, ((p + 1) % 4) * 4).await;
        }
        let rec = run(cfg(4), |m| m.alloc(64), body, NetLog::new());
        let flit = run(
            cfg(4).with_engine(commchar_mesh::EngineKind::flit()),
            |m| m.alloc(64),
            body,
            NetLog::new(),
        );
        assert_eq!(rec.reads, flit.reads);
        assert_eq!(rec.writes, flit.writes);
        assert_eq!(rec.barriers, flit.barriers);
        assert!(!flit.trace.is_empty());
    }

    #[test]
    fn netlog_and_trace_are_consistent() {
        let out = run(
            cfg(4),
            |m| m.alloc(64),
            |mut ctx, r| async move {
                let p = ctx.proc_id();
                ctx.write(r, p, p as u64).await;
                ctx.barrier(0).await;
                ctx.read(r, (p + 1) % 4).await;
            },
            NetLog::new(),
        );
        assert_eq!(out.trace.len(), out.net.records().len());
        out.trace.check().unwrap();
    }

    #[test]
    fn mesi_read_then_write_hits_silently() {
        // Private read-modify-write: under MESI the write after the read
        // miss is a hit; under MSI it is an upgrade miss.
        async fn body(mut ctx: crate::Ctx, r: crate::Region) {
            let p = ctx.proc_id();
            for i in 0..16 {
                let slot = p * 64 + i * 4; // distinct blocks, private
                let v = ctx.read(r, slot).await;
                ctx.write(r, slot, v + 1).await;
            }
        }
        let msi =
            run(cfg(2).with_protocol(crate::Protocol::Msi), |m| m.alloc(256), body, NetLog::new());
        let mesi =
            run(cfg(2).with_protocol(crate::Protocol::Mesi), |m| m.alloc(256), body, NetLog::new());
        assert!(
            mesi.misses < msi.misses,
            "MESI should remove upgrade misses: {} vs {}",
            mesi.misses,
            msi.misses
        );
        assert!(mesi.trace.len() < msi.trace.len(), "MESI should cut protocol traffic");
    }

    #[test]
    fn mesi_preserves_coherence_under_sharing() {
        // The MESI exclusive grant must not break invalidation coherence.
        run(
            cfg(4).with_protocol(crate::Protocol::Mesi),
            |m| m.alloc(16),
            |mut ctx, r| async move {
                let p = ctx.proc_id();
                for round in 0..3u64 {
                    if p == (round as usize) % 4 {
                        ctx.write(r, 0, round * 7 + 1).await;
                    }
                    ctx.barrier(round as u32).await;
                    assert_eq!(ctx.read(r, 0).await, round * 7 + 1);
                    ctx.barrier(10 + round as u32).await;
                }
            },
            NetLog::new(),
        );
    }

    #[test]
    fn associativity_reduces_conflict_misses() {
        // Two blocks mapping to the same direct-mapped set, accessed
        // alternately: 2-way associativity removes the thrashing.
        async fn body(mut ctx: crate::Ctx, r: crate::Region) {
            if ctx.proc_id() == 0 {
                for _ in 0..32 {
                    let _ = ctx.read(r, 0).await; // block 0
                    let _ = ctx.read(r, 16).await; // block 4 -> same set (4 lines)
                }
            }
        }
        let direct = run(
            cfg(1).with_cache_lines(4).with_associativity(1),
            |m| m.alloc(64),
            body,
            NetLog::new(),
        );
        let twoway = run(
            cfg(1).with_cache_lines(4).with_associativity(2),
            |m| m.alloc(64),
            body,
            NetLog::new(),
        );
        assert!(
            twoway.misses < direct.misses,
            "2-way should kill conflict misses: {} vs {}",
            twoway.misses,
            direct.misses
        );
    }
}
