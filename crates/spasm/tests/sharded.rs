//! Shard-count invariance of the conservative-window engine: for any
//! `sim_jobs`, a run must be *event-identical* to the serial (1-shard)
//! run — same trace events, same network records and utilization, same
//! statistics — because the windowed loop with canonical `(time, key)`
//! ordering IS the engine at every shard count.

use commchar_mesh::EngineKind;
use commchar_spasm::{run, try_run_with, Ctx, MachineConfig, Region, SpasmError, SpasmRun};
use proptest::prelude::*;

/// A seeded workload mixing reads, writes, locks, barriers and compute —
/// enough protocol variety (invalidations, recalls, upgrades, victim
/// writebacks with the small cache) to exercise every event path.
async fn seeded_body(mut ctx: Ctx, r: Region, seed: u64, ops: usize, slots: usize) {
    let p = ctx.proc_id();
    let mut state = seed.wrapping_add(p as u64).wrapping_mul(6364136223846793005) | 1;
    for _ in 0..ops {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let slot = (state >> 33) as usize % slots;
        match (state >> 61) % 4 {
            0 => {
                let _ = ctx.read(r, slot).await;
            }
            1 => ctx.write(r, slot, state).await,
            2 => {
                ctx.lock((slot % 4) as u32).await;
                let v = ctx.read(r, slot).await;
                ctx.write(r, slot, v ^ state).await;
                ctx.unlock((slot % 4) as u32).await;
            }
            _ => {
                let _ = ctx.read(r, slot).await;
                ctx.write(r, (slot + 1) % slots, state).await;
            }
        }
        ctx.compute(state % 13);
    }
    ctx.barrier(7).await;
    let _ = ctx.read(r, p % slots).await;
}

fn seeded_run(cfg: MachineConfig, seed: u64, ops: usize) -> SpasmRun {
    run(cfg, move |m| (m.alloc(96), seed), move |ctx, (r, seed)| seeded_body(ctx, r, seed, ops, 96))
}

/// Every observable of two runs, compared byte-for-byte.
fn assert_identical(a: &SpasmRun, b: &SpasmRun, what: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec_cycles");
    assert_eq!(a.trace.nodes(), b.trace.nodes(), "{what}: trace nodes");
    assert_eq!(a.trace.events(), b.trace.events(), "{what}: trace events");
    assert_eq!(a.netlog.records(), b.netlog.records(), "{what}: network records");
    assert_eq!(a.netlog.utilization(), b.netlog.utilization(), "{what}: utilization");
    assert_eq!(a.miss_ratio(), b.miss_ratio(), "{what}: miss ratio");
    assert_eq!(
        (a.reads, a.writes, a.hits, a.misses, a.barriers, a.locks),
        (b.reads, b.writes, b.hits, b.misses, b.barriers, b.locks),
        "{what}: counters"
    );
}

#[test]
fn shard_counts_are_event_identical_recurrence() {
    for seed in [1u64, 7, 42] {
        let serial = seeded_run(MachineConfig::new(8).with_cache_lines(16), seed, 48);
        for jobs in [2usize, 3, 4, 8] {
            let sharded = seeded_run(
                MachineConfig::new(8).with_cache_lines(16).with_sim_jobs(jobs),
                seed,
                48,
            );
            assert_identical(&serial, &sharded, &format!("seed {seed}, {jobs} shards"));
        }
    }
}

#[test]
fn shard_counts_are_event_identical_flit() {
    // The cycle-accurate flit engine behind the same windowed loop: the
    // lookahead comes from its pinned zero-load model.
    let cfg = |jobs| MachineConfig::new(4).with_engine(EngineKind::flit()).with_sim_jobs(jobs);
    let serial = seeded_run(cfg(1), 3, 24);
    for jobs in [2usize, 4] {
        let sharded = seeded_run(cfg(jobs), 3, 24);
        assert_identical(&serial, &sharded, &format!("flit, {jobs} shards"));
    }
}

#[test]
fn shard_counts_agree_under_mesi() {
    let cfg = |jobs| {
        MachineConfig::new(6)
            .with_protocol(commchar_spasm::Protocol::Mesi)
            .with_cache_lines(8)
            .with_sim_jobs(jobs)
    };
    let serial = seeded_run(cfg(1), 11, 40);
    for jobs in [2usize, 3, 6] {
        assert_identical(&serial, &seeded_run(cfg(jobs), 11, 40), &format!("mesi {jobs}"));
    }
}

#[test]
fn uneven_partitions_are_identical() {
    // 5 processors over 2..4 shards: every partition is uneven.
    let serial = seeded_run(MachineConfig::new(5), 19, 32);
    for jobs in 2usize..=4 {
        assert_identical(
            &serial,
            &seeded_run(MachineConfig::new(5).with_sim_jobs(jobs), 19, 32),
            &format!("5 procs, {jobs} shards"),
        );
    }
}

#[test]
fn more_shards_than_hardware_threads_is_fine() {
    // Shard count is a partitioning choice, not a host-core claim: 8
    // workers on any host must still drain and agree with serial.
    let serial = seeded_run(MachineConfig::new(8), 23, 20);
    let over = seeded_run(MachineConfig::new(8).with_sim_jobs(8), 23, 20);
    assert_identical(&serial, &over, "8 shards");
}

#[test]
fn sim_jobs_zero_resolves_to_host_parallelism() {
    let serial = seeded_run(MachineConfig::new(4), 29, 16);
    let auto = seeded_run(MachineConfig::new(4).with_sim_jobs(0), 29, 16);
    assert_identical(&serial, &auto, "auto shards");
}

#[test]
fn kilo_processor_machine_characterizes_sharded() {
    // The headline scale: 1024 processors, sharded. A nearest-neighbour
    // exchange plus a barrier — small per-proc work, big machine.
    let go = |jobs| {
        run(
            MachineConfig::new(1024).with_sim_jobs(jobs),
            |m| m.alloc(4096),
            |mut ctx, r| async move {
                let p = ctx.proc_id();
                ctx.write(r, p * 4, p as u64 + 1).await;
                ctx.barrier(0).await;
                let right = (p + 1) % ctx.nprocs();
                assert_eq!(ctx.read(r, right * 4).await, right as u64 + 1);
            },
        )
    };
    let sharded = go(4);
    assert_eq!(sharded.nprocs, 1024);
    assert_eq!(sharded.barriers, 1);
    assert_eq!(sharded.writes, 1024);
    assert!(!sharded.trace.is_empty());
    sharded.trace.check().unwrap();
    let serial = go(1);
    assert_identical(&serial, &sharded, "1024 procs");
}

#[test]
fn application_deadlock_is_a_typed_wedge() {
    // p1 waits on a barrier p0 never reaches (p0 exits immediately):
    // the drained machine reports a typed Wedged error instead of
    // blocking forever.
    let err = try_run_with(
        MachineConfig::new(2).with_sim_jobs(2),
        |m| m.alloc(1),
        |mut ctx: Ctx, _r: Region| async move {
            if ctx.proc_id() == 1 {
                ctx.barrier(0).await;
            }
        },
        commchar_mesh::OnlineWormhole::new(MachineConfig::new(2).mesh),
    )
    .unwrap_err();
    let SpasmError::Wedged { report } = err;
    assert!(report.contains("application deadlock"), "got: {report}");
    assert!(report.contains("p1"), "got: {report}");
}

#[test]
#[should_panic(expected = "application deadlock")]
fn run_panics_on_deadlock_like_the_serial_engine() {
    run(
        MachineConfig::new(2),
        |m| m.alloc(1),
        |mut ctx, _| async move {
            if ctx.proc_id() == 1 {
                ctx.barrier(0).await; // p0 exits without arriving: p1 waits forever
            }
        },
    );
}

#[test]
#[should_panic(expected = "non-holder")]
fn protocol_misuse_panics_through_the_sharded_path() {
    run(
        MachineConfig::new(4).with_sim_jobs(4),
        |m| m.alloc(1),
        |mut ctx, _| async move {
            if ctx.proc_id() == 0 {
                ctx.lock(2).await;
                ctx.unlock(2).await;
            } else if ctx.proc_id() == 3 {
                ctx.compute(5_000);
                ctx.unlock(2).await;
            }
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random workloads, machine shapes and shard counts, the sharded
    /// run is byte-identical to serial.
    #[test]
    fn sharding_never_changes_results(
        nprocs in 2usize..7,
        jobs in 2usize..5,
        ops in 4usize..32,
        seed in 0u64..500,
    ) {
        let serial = seeded_run(MachineConfig::new(nprocs).with_cache_lines(8), seed, ops);
        let sharded = seeded_run(
            MachineConfig::new(nprocs).with_cache_lines(8).with_sim_jobs(jobs),
            seed,
            ops,
        );
        prop_assert_eq!(serial.exec_cycles, sharded.exec_cycles);
        prop_assert_eq!(serial.trace.events(), sharded.trace.events());
        prop_assert_eq!(serial.netlog.records(), sharded.netlog.records());
        prop_assert_eq!(serial.netlog.utilization(), sharded.netlog.utilization());
        prop_assert_eq!(serial.misses, sharded.misses);
    }
}
