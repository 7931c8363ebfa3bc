//! Banded sparse Cholesky factorization (SPLASH-style) on the CC-NUMA
//! simulator.
//!
//! Right-looking column factorization: the owner of column `j` performs
//! `cdiv(j)`; the following `cmod` updates of columns `j+1..j+band` are
//! grabbed from a lock-protected dynamic task counter — the shared work
//! queue that gives the application its data-dependent, lock-centric
//! traffic (the paper observes a favorite-processor pattern from exactly
//! this kind of shared structure). Sparsity in the generated band makes
//! the update work data-dependent.

use commchar_mesh::LogSink;
use commchar_spasm::{run as spasm_run, MachineConfig};

use crate::util::{band_cholesky_reference, gen_band_spd};
use crate::{AppClass, AppOutput, Scale};

fn sizes(scale: Scale) -> (usize, usize) {
    // (n, band)
    match scale {
        Scale::Tiny => (32, 6),
        Scale::Small => (96, 10),
        Scale::Full => (256, 16),
    }
}

const SEED: u64 = 99;
const SPARSITY: f64 = 0.35;

/// Runs the kernel with explicit sizes on an explicitly configured
/// machine. The run asserts the factor matches the sequential reference;
/// `check` is Σ|L| of the reference factor.
/// Each network message is delivered into `sink`.
///
/// # Panics
///
/// Panics if `band < 2` or `n < band`.
pub fn run_sized_with<S: LogSink + Send>(
    cfg: MachineConfig,
    n: usize,
    band: usize,
    sink: S,
) -> AppOutput<S> {
    let nprocs = cfg.nprocs;
    assert!(band >= 2 && n >= band, "degenerate band");
    let reference = band_cholesky_reference(&gen_band_spd(n, band, SPARSITY, SEED), n, band);
    let ref_sum: f64 = reference.iter().map(|v| v.abs()).sum();

    let out = spasm_run(
        cfg,
        move |m| {
            let a = gen_band_spd(n, band, SPARSITY, SEED);
            let l = m.alloc(n * band);
            for (i, &v) in a.iter().enumerate() {
                m.init_f64(l, i, v);
            }
            let task = m.alloc(1);
            (l, task, n, band)
        },
        move |mut ctx, (l, task, n, band)| async move {
            let p = ctx.proc_id();
            const QLOCK: u32 = 1000;
            for j in 0..n {
                // cdiv(j) by the column's owner.
                if j % ctx.nprocs() == p {
                    let diag = ctx.read_f64(l, j * band).await;
                    assert!(diag > 0.0, "lost positive definiteness at {j}");
                    let s = diag.sqrt();
                    ctx.write_f64(l, j * band, s).await;
                    for d in 1..band.min(n - j) {
                        let v = ctx.read_f64(l, j * band + d).await;
                        ctx.write_f64(l, j * band + d, v / s).await;
                        ctx.compute(4);
                    }
                    for d in band.min(n - j)..band {
                        ctx.write_f64(l, j * band + d, 0.0).await;
                    }
                    // Reset the task counter for the update phase.
                    ctx.write(task, 0, 0).await;
                }
                ctx.barrier((j % 64) as u32).await;

                // cmod updates: dynamic task queue over target columns
                // j+1 .. j+band-1.
                let ntasks = (band - 1).min(n - 1 - j);
                loop {
                    ctx.lock(QLOCK).await;
                    let t = ctx.read(task, 0).await;
                    ctx.write(task, 0, t + 1).await;
                    ctx.unlock(QLOCK).await;
                    let t = t as usize;
                    if t >= ntasks {
                        break;
                    }
                    let target = j + 1 + t; // column to update
                    let ljk = ctx.read_f64(l, j * band + (target - j)).await;
                    ctx.compute(2);
                    if ljk != 0.0 {
                        for d in 0..band - (target - j) {
                            if target + d >= n {
                                break;
                            }
                            let lv = ctx.read_f64(l, j * band + (target - j + d)).await;
                            let cur = ctx.read_f64(l, target * band + d).await;
                            ctx.write_f64(l, target * band + d, cur - ljk * lv).await;
                            ctx.compute(4);
                        }
                    }
                }
                ctx.barrier(64 + (j % 64) as u32).await;
            }

            // Verify against the sequential reference inside the run.
            if p == 0 {
                let expected =
                    band_cholesky_reference(&gen_band_spd(n, band, SPARSITY, SEED), n, band);
                let mut err: f64 = 0.0;
                for (i, &e) in expected.iter().enumerate() {
                    let got = ctx.read_f64(l, i).await;
                    err = err.max((got - e).abs());
                }
                assert!(err < 1e-8, "parallel Cholesky diverges from reference: {err}");
            }
            ctx.barrier(950).await;
        },
        sink,
    );

    AppOutput {
        name: "cholesky",
        class: AppClass::SharedMemory,
        nprocs,
        trace: out.trace,
        netlog: Some(out.net),
        exec_ticks: out.exec_cycles,
        check: ref_sum,
    }
}

/// Runs at the default size for `scale` on a caller-configured machine
/// (e.g. with a different network engine or coherence protocol),
/// delivering each network message into `sink`.
pub fn run_cfg<S: LogSink + Send>(cfg: MachineConfig, scale: Scale, sink: S) -> AppOutput<S> {
    let (n, band) = sizes(scale);
    run_sized_with(cfg, n, band, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_mesh::NetTally;

    #[test]
    fn cholesky_factors_correctly() {
        let out = run_sized_with(MachineConfig::new(4), 24, 5, NetTally::new());
        assert!(!out.trace.is_empty());
        assert!(out.check > 0.0);
    }

    #[test]
    fn cholesky_two_procs() {
        let out = run_sized_with(MachineConfig::new(2), 16, 4, NetTally::new());
        assert_eq!(out.nprocs, 2);
    }
}
