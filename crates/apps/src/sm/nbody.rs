//! Gravitational N-body on the CC-NUMA simulator.
//!
//! Bodies are statically partitioned. Each simulated time step has three
//! phases (as the paper describes): every processor reads all body
//! positions (the communication-heavy phase), accumulates forces for its
//! own bodies locally, then updates its bodies' positions and velocities.

use commchar_mesh::LogSink;
use commchar_spasm::{run as spasm_run, MachineConfig};

use crate::util::XorShift;
use crate::{AppClass, AppError, AppOutput, Scale};

pub(crate) fn sizes(scale: Scale) -> (usize, usize) {
    // (bodies, steps)
    match scale {
        Scale::Tiny => (48, 2),
        Scale::Small => (128, 3),
        Scale::Full => (384, 4),
    }
}

const G: f64 = 1.0e-2;
const DT: f64 = 1.0e-2;
const SOFTEN: f64 = 1.0e-2;
const SEED: u64 = 77;

/// Sequential reference of the same integrator, for the in-run check.
fn reference(n: usize, steps: usize) -> f64 {
    let mut rng = XorShift::new(SEED);
    let mut pos: Vec<[f64; 3]> =
        (0..n).map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64()]).collect();
    let mut vel = vec![[0.0f64; 3]; n];
    let mass: Vec<f64> = (0..n).map(|_| 0.5 + rng.next_f64()).collect();
    for _ in 0..steps {
        let snapshot = pos.clone();
        for i in 0..n {
            let mut f = [0.0f64; 3];
            for (j, pj) in snapshot.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = [pj[0] - snapshot[i][0], pj[1] - snapshot[i][1], pj[2] - snapshot[i][2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTEN;
                let w = G * mass[i] * mass[j] / (r2 * r2.sqrt());
                for k in 0..3 {
                    f[k] += w * d[k];
                }
            }
            for k in 0..3 {
                vel[i][k] += DT * f[k] / mass[i];
                pos[i][k] = snapshot[i][k] + DT * vel[i][k];
            }
        }
    }
    pos.iter().flat_map(|p| p.iter()).map(|v| v.abs()).sum()
}

/// The kernel's precondition: the bodies split evenly over the
/// processors.
pub(crate) fn check(nprocs: usize, n: usize) -> Result<(), AppError> {
    AppError::divides("nbody", nprocs, "bodies", n)
}

/// Runs the kernel with explicit sizes on an explicitly configured
/// machine. The run asserts final positions match the sequential
/// reference; `check` is that reference's Σ|pos|.
/// Each network message is delivered into `sink`.
///
/// # Panics
///
/// Panics unless the processor count divides the body count.
pub fn run_sized_with<S: LogSink + Send>(
    cfg: MachineConfig,
    n: usize,
    steps: usize,
    sink: S,
) -> AppOutput<S> {
    let nprocs = cfg.nprocs;
    check(nprocs, n).unwrap_or_else(|e| panic!("{e}"));
    let expected = reference(n, steps);

    let out = spasm_run(
        cfg,
        move |m| {
            // Layout: pos[3n], vel[3n], mass[n].
            let pos = m.alloc(3 * n);
            let vel = m.alloc(3 * n);
            let mass = m.alloc(n);
            let mut rng = XorShift::new(SEED);
            for i in 0..n {
                for k in 0..3 {
                    m.init_f64(pos, 3 * i + k, rng.next_f64());
                    m.init_f64(vel, 3 * i + k, 0.0);
                }
            }
            for i in 0..n {
                m.init_f64(mass, i, 0.5 + rng.next_f64());
            }
            (pos, vel, mass, n, steps)
        },
        move |mut ctx, (pos, vel, mass, n, steps)| async move {
            let p = ctx.proc_id();
            let nprocs = ctx.nprocs();
            let mine = n / nprocs;
            let lo = p * mine;
            let hi = lo + mine;
            for step in 0..steps {
                // Phase 1: snapshot all positions and masses (reads of
                // every other processor's data — the all-to-all phase).
                let mut snap = vec![0.0f64; 3 * n];
                let mut ms = vec![0.0f64; n];
                for i in 0..n {
                    for k in 0..3 {
                        snap[3 * i + k] = ctx.read_f64(pos, 3 * i + k).await;
                    }
                    ms[i] = ctx.read_f64(mass, i).await;
                }
                // Phase 2: local force accumulation.
                let mut forces = vec![[0.0f64; 3]; mine];
                for (fi, i) in (lo..hi).enumerate() {
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let d = [
                            snap[3 * j] - snap[3 * i],
                            snap[3 * j + 1] - snap[3 * i + 1],
                            snap[3 * j + 2] - snap[3 * i + 2],
                        ];
                        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTEN;
                        let w = G * ms[i] * ms[j] / (r2 * r2.sqrt());
                        for k in 0..3 {
                            forces[fi][k] += w * d[k];
                        }
                        ctx.compute(12);
                    }
                }
                ctx.barrier(700 + (step % 8) as u32).await;
                // Phase 3: update owned bodies.
                for (fi, i) in (lo..hi).enumerate() {
                    for k in 0..3 {
                        let v = ctx.read_f64(vel, 3 * i + k).await + DT * forces[fi][k] / ms[i];
                        ctx.write_f64(vel, 3 * i + k, v).await;
                        ctx.write_f64(pos, 3 * i + k, snap[3 * i + k] + DT * v).await;
                        ctx.compute(6);
                    }
                }
                ctx.barrier(710 + (step % 8) as u32).await;
            }
            // In-run verification against the sequential reference.
            if p == 0 {
                let mut sum = 0.0;
                for i in 0..3 * n {
                    sum += ctx.read_f64(pos, i).await.abs();
                }
                let expected = reference(n, steps);
                assert!(
                    (sum - expected).abs() < 1e-6 * expected.max(1.0),
                    "nbody diverged: {sum} vs {expected}"
                );
            }
            ctx.barrier(730).await;
        },
        sink,
    );

    AppOutput {
        name: "nbody",
        class: AppClass::SharedMemory,
        nprocs,
        trace: out.trace,
        netlog: Some(out.net),
        exec_ticks: out.exec_cycles,
        check: expected,
    }
}

/// Runs at the default size for `scale` on a caller-configured machine
/// (e.g. with a different network engine or coherence protocol),
/// delivering each network message into `sink`.
pub fn run_cfg<S: LogSink + Send>(cfg: MachineConfig, scale: Scale, sink: S) -> AppOutput<S> {
    let (n, steps) = sizes(scale);
    run_sized_with(cfg, n, steps, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_mesh::NetTally;

    #[test]
    fn nbody_matches_reference() {
        let out = run_sized_with(MachineConfig::new(4), 24, 2, NetTally::new());
        assert!(!out.trace.is_empty());
        assert!(out.check > 0.0);
    }

    #[test]
    fn nbody_single_step() {
        let out = run_sized_with(MachineConfig::new(2), 8, 1, NetTally::new());
        assert_eq!(out.nprocs, 2);
    }
}
