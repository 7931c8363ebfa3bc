//! Property-based tests for the execution-driven CC-NUMA simulator:
//! sequential consistency, coherence, and synchronization invariants under
//! randomized workloads.

use commchar_mesh::NetLog;
use commchar_spasm::{run, MachineConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lock-protected counters never lose updates, for any (nprocs,
    /// iterations, padding) combination.
    #[test]
    fn lock_counter_is_exact(
        nprocs in 1usize..6,
        iters in 1usize..12,
        stride in 0usize..3,
    ) {
        run(
            MachineConfig::new(nprocs),
            move |m| (m.alloc(8), stride),
            move |mut ctx, (r, stride)| async move {
                for _ in 0..iters {
                    ctx.lock(0).await;
                    let v = ctx.read(r, stride).await;
                    ctx.write(r, stride, v + 1).await;
                    ctx.unlock(0).await;
                }
                ctx.barrier(0).await;
                let total = ctx.read(r, stride).await;
                assert_eq!(total as usize, nprocs * iters);
            },
            NetLog::new(),
        );
    }

    /// After a barrier, every processor observes every pre-barrier write
    /// (sequential consistency across the barrier).
    #[test]
    fn barrier_publishes_writes(nprocs in 2usize..6, rounds in 1usize..4) {
        run(
            MachineConfig::new(nprocs),
            |m| m.alloc(64),
            move |mut ctx, r| async move {
                let p = ctx.proc_id();
                for round in 0..rounds as u64 {
                    ctx.write(r, p, round * 1000 + p as u64).await;
                    ctx.barrier(round as u32).await;
                    for q in 0..ctx.nprocs() {
                        assert_eq!(ctx.read(r, q).await, round * 1000 + q as u64);
                    }
                    ctx.barrier(64 + round as u32).await;
                }
            },
            NetLog::new(),
        );
    }

    /// Random access patterns: the final memory image matches a sequential
    /// per-location last-writer analysis when writes are partitioned by
    /// processor (each proc owns disjoint slots).
    #[test]
    fn partitioned_writes_read_back(
        nprocs in 1usize..5,
        per_proc in 1usize..16,
        seed in 0u64..1000,
    ) {
        run(
            MachineConfig::new(nprocs).with_cache_lines(4), // force evictions
            move |m| (m.alloc(nprocs * per_proc), seed),
            move |mut ctx, (r, seed)| async move {
                let p = ctx.proc_id();
                // Deterministic per-proc values.
                for i in 0..per_proc {
                    let v = seed.wrapping_mul(31).wrapping_add((p * per_proc + i) as u64);
                    ctx.write(r, p * per_proc + i, v).await;
                }
                ctx.barrier(0).await;
                // Everyone validates everyone's region (through coherence).
                for q in 0..ctx.nprocs() {
                    for i in 0..per_proc {
                        let expect = seed.wrapping_mul(31).wrapping_add((q * per_proc + i) as u64);
                        assert_eq!(ctx.read(r, q * per_proc + i).await, expect);
                    }
                }
            },
            NetLog::new(),
        );
    }

    /// Trace/netlog consistency holds under random mixes of reads, writes
    /// and syncs, and the run is deterministic.
    #[test]
    fn random_mix_invariants(nprocs in 2usize..5, ops in 4usize..40, seed in 0u64..100) {
        let go = move || {
            run(
                MachineConfig::new(nprocs),
                move |m| (m.alloc(128), seed),
                move |mut ctx, (r, seed)| async move {
                    let p = ctx.proc_id();
                    let mut state = seed.wrapping_add(p as u64).wrapping_mul(6364136223846793005) | 1;
                    for _ in 0..ops {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let slot = (state >> 33) as usize % 128;
                        match (state >> 61) % 3 {
                            0 => {
                                let _ = ctx.read(r, slot).await;
                            }
                            1 => ctx.write(r, slot, state).await,
                            _ => {
                                ctx.lock((slot % 4) as u32).await;
                                let v = ctx.read(r, slot).await;
                                ctx.write(r, slot, v ^ state).await;
                                ctx.unlock((slot % 4) as u32).await;
                            }
                        }
                        ctx.compute(state % 17);
                    }
                    ctx.barrier(9).await;
                },
                NetLog::new(),
            )
        };
        let a = go();
        let b = go();
        prop_assert_eq!(a.trace.len(), a.net.records().len());
        a.trace.check().unwrap();
        a.net.check_invariants(MachineConfig::new(nprocs).mesh.shape).unwrap();
        prop_assert_eq!(a.exec_cycles, b.exec_cycles);
        prop_assert_eq!(a.trace.events(), b.trace.events());
        prop_assert_eq!(a.reads + a.writes, a.hits + a.misses);
    }
}
