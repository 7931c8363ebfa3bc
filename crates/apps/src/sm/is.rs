//! Integer Sort: bucket-sort ranking, as in the NAS IS kernel the paper
//! ran under SPASM.
//!
//! The input list is equally partitioned; each processor counts its chunk
//! into *local* buckets (pure computation), then merges them into shared
//! global buckets under per-bucket locks. Processor 0 turns the counts
//! into rank offsets (a serial scan over shared data — this accumulation
//! at one processor is what produces the paper's bimodal-uniform /
//! favorite-processor spatial pattern), after which every processor ranks
//! and places its own keys.

use commchar_mesh::LogSink;
use commchar_spasm::{run as spasm_run, MachineConfig};

use crate::util::XorShift;
use crate::{AppClass, AppError, AppOutput, Scale};

pub(crate) fn sizes(scale: Scale) -> (usize, usize) {
    // (keys, key range)
    match scale {
        Scale::Tiny => (2_048, 64),
        Scale::Small => (8_192, 128),
        Scale::Full => (32_768, 512),
    }
}

/// The kernel's precondition: the keys split evenly over the processors.
pub(crate) fn check(nprocs: usize, nkeys: usize) -> Result<(), AppError> {
    AppError::divides("is", nprocs, "keys", nkeys)
}

/// Runs the kernel with explicit sizes on an explicitly configured
/// machine. The run internally asserts the output permutation is sorted;
/// `check` is the number of keys.
/// Each network message is delivered into `sink`.
///
/// # Panics
///
/// Panics unless the processor count divides `nkeys`.
pub fn run_sized_with<S: LogSink + Send>(
    cfg: MachineConfig,
    nkeys: usize,
    range: usize,
    sink: S,
) -> AppOutput<S> {
    let nprocs = cfg.nprocs;
    check(nprocs, nkeys).unwrap_or_else(|e| panic!("{e}"));

    let out = spasm_run(
        cfg,
        move |m| {
            let keys = m.alloc(nkeys);
            let buckets = m.alloc(range);
            let offsets = m.alloc(range);
            let sorted = m.alloc(nkeys);
            let mut rng = XorShift::new(1234);
            for i in 0..nkeys {
                m.init(keys, i, rng.below(range) as u64);
            }
            (keys, buckets, offsets, sorted, nkeys, range)
        },
        move |mut ctx, (keys, buckets, offsets, sorted, nkeys, range)| async move {
            let p = ctx.proc_id();
            let nprocs = ctx.nprocs();
            let chunk = nkeys / nprocs;

            // Phase 1: local counting (reads own chunk; private counts).
            let mut local = vec![0u64; range];
            for i in p * chunk..(p + 1) * chunk {
                let k = ctx.read(keys, i).await as usize;
                local[k] += 1;
                ctx.compute(2);
            }

            // Phase 2: merge into shared buckets under per-bucket locks.
            // Lock granularity: one lock per 16 buckets.
            for (b, &c) in local.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let lock_id = (b / 16) as u32;
                ctx.lock(lock_id).await;
                let cur = ctx.read(buckets, b).await;
                ctx.write(buckets, b, cur + c).await;
                ctx.unlock(lock_id).await;
            }
            ctx.barrier(800).await;

            // Phase 3: p0 computes exclusive prefix sums (the favorite
            // processor phase).
            if p == 0 {
                let mut acc = 0u64;
                for b in 0..range {
                    let c = ctx.read(buckets, b).await;
                    ctx.write(offsets, b, acc).await;
                    acc += c;
                    ctx.compute(1);
                }
                assert_eq!(acc as usize, nkeys, "bucket counts must cover all keys");
            }
            ctx.barrier(801).await;

            // Phase 4: place keys. Each processor re-counts its chunk
            // locally to compute stable within-bucket offsets, claiming a
            // slice per bucket under the bucket lock.
            let mut claim = vec![0u64; range];
            for (b, &c) in local.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let lock_id = (b / 16) as u32;
                ctx.lock(lock_id).await;
                let base = ctx.read(offsets, b).await;
                ctx.write(offsets, b, base + c).await;
                ctx.unlock(lock_id).await;
                claim[b] = base;
            }
            for i in p * chunk..(p + 1) * chunk {
                let k = ctx.read(keys, i).await as usize;
                let pos = claim[k];
                claim[k] += 1;
                ctx.write(sorted, pos as usize, k as u64).await;
                ctx.compute(2);
            }
            ctx.barrier(802).await;

            // Phase 5: p0 verifies sortedness inside the simulation.
            if p == 0 {
                let mut prev = 0u64;
                for i in 0..nkeys {
                    let v = ctx.read(sorted, i).await;
                    assert!(v >= prev, "IS output not sorted at {i}: {v} < {prev}");
                    prev = v;
                }
            }
            ctx.barrier(803).await;
        },
        sink,
    );

    AppOutput {
        name: "is",
        class: AppClass::SharedMemory,
        nprocs,
        trace: out.trace,
        netlog: Some(out.net),
        exec_ticks: out.exec_cycles,
        check: nkeys as f64,
    }
}

/// Runs at the default size for `scale` on a caller-configured machine
/// (e.g. with a different network engine or coherence protocol),
/// delivering each network message into `sink`.
pub fn run_cfg<S: LogSink + Send>(cfg: MachineConfig, scale: Scale, sink: S) -> AppOutput<S> {
    let (nkeys, range) = sizes(scale);
    run_sized_with(cfg, nkeys, range, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_mesh::NetTally;

    #[test]
    fn is_sorts_and_communicates() {
        let out = run_sized_with(MachineConfig::new(4), 512, 32, NetTally::new());
        assert!(!out.trace.is_empty());
        assert_eq!(out.check, 512.0);
    }

    #[test]
    fn is_works_on_two_procs() {
        let out = run_sized_with(MachineConfig::new(2), 128, 16, NetTally::new());
        assert_eq!(out.nprocs, 2);
    }
}
