//! 1-D complex FFT on the CC-NUMA simulator.
//!
//! Each processor owns an equal slice of the data. Three phases, as in the
//! paper: the early butterfly stages are entirely local to a processor's
//! slice, the middle stages exchange data across slices (the all-to-all
//! phase), and the final stages are local again (the algorithm here runs
//! all stages over shared memory, so locality emerges naturally from the
//! stage stride: stages with span inside a slice touch only local blocks).

use commchar_mesh::LogSink;
use commchar_spasm::{run as spasm_run, Ctx, MachineConfig, Region};

use crate::{AppClass, AppError, AppOutput, Scale};

/// Problem size by scale.
pub(crate) fn points(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 256,
        Scale::Small => 1024,
        Scale::Full => 4096,
    }
}

/// The kernel's precondition on `nprocs` for an `n`-point transform: a
/// power of two, with every processor owning at least one of the `n/2`
/// butterflies of each stage.
pub(crate) fn check(nprocs: usize, n: usize) -> Result<(), AppError> {
    AppError::power_of_two("1d-fft", nprocs)?;
    AppError::divides("1d-fft", nprocs, "butterflies", n / 2)
}

/// Runs the kernel on an explicitly configured machine (processor count,
/// protocol, cache geometry, network parameters): a forward FFT of a
/// deterministic `n`-point signal.
/// Each network message is delivered into `sink`.
///
/// `check` is the total spectral magnitude Σ|X_k|² / n, which by Parseval
/// equals Σ|x_j|² and is validated in tests.
///
/// # Panics
///
/// Panics unless `n` is a power of two and the processor count meets
/// the kernel's precondition (a power of two, `2·nprocs ≤ n`).
pub fn run_sized_with<S: LogSink + Send>(cfg: MachineConfig, n: usize, sink: S) -> AppOutput<S> {
    let nprocs = cfg.nprocs;
    assert!(n.is_power_of_two(), "fft1d size must be a power of two");
    check(nprocs, n).unwrap_or_else(|e| panic!("{e}"));

    let out = spasm_run(
        cfg,
        move |m| {
            let re = m.alloc(n);
            let im = m.alloc(n);
            let chk = m.alloc(nprocs);
            // Deterministic input signal: a couple of tones.
            for j in 0..n {
                let x = j as f64 / n as f64;
                let v = (2.0 * std::f64::consts::PI * 3.0 * x).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * x).cos();
                m.init_f64(re, j, v);
                m.init_f64(im, j, 0.0);
            }
            (re, im, chk, n)
        },
        move |mut ctx, (re, im, chk, n)| async move {
            fft_parallel(&mut ctx, re, im, n).await;
            // Each processor accumulates |X|² over its slice.
            let p = ctx.proc_id();
            let chunk = n / ctx.nprocs();
            let mut acc = 0.0;
            for j in p * chunk..(p + 1) * chunk {
                let r = ctx.read_f64(re, j).await;
                let i = ctx.read_f64(im, j).await;
                acc += r * r + i * i;
                ctx.compute(4);
            }
            ctx.write_f64(chk, p, acc / n as f64).await;
            ctx.barrier(900).await;
            if p == 0 {
                // Parseval check inside the simulated run: Σ|X|²/n = Σ|x|².
                let mut total = 0.0;
                for q in 0..ctx.nprocs() {
                    total += ctx.read_f64(chk, q).await;
                }
                let expected: f64 = (0..n)
                    .map(|j| {
                        let x = j as f64 / n as f64;
                        let v = (2.0 * std::f64::consts::PI * 3.0 * x).sin()
                            + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * x).cos();
                        v * v
                    })
                    .sum();
                assert!(
                    (total - expected).abs() < 1e-6 * expected.max(1.0),
                    "parallel FFT violates Parseval: {total} vs {expected}"
                );
            }
        },
        sink,
    );

    // Parseval energy of the deterministic input — the run above asserts
    // the simulated computation matched it.
    let expected: f64 = (0..n)
        .map(|j| {
            let x = j as f64 / n as f64;
            let v = (2.0 * std::f64::consts::PI * 3.0 * x).sin()
                + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * x).cos();
            v * v
        })
        .sum();

    AppOutput {
        name: "1d-fft",
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
    run_sized_with(cfg, points(scale), sink)
}

/// The parallel FFT body: bit-reversal then staged butterflies, with a
/// barrier separating stages. Butterfly index space is split evenly.
async fn fft_parallel(ctx: &mut Ctx, re: Region, im: Region, n: usize) {
    let p = ctx.proc_id();
    let nprocs = ctx.nprocs();
    let bits = n.trailing_zeros();

    // Phase 0: bit-reversal permutation; each processor swaps pairs whose
    // smaller index falls in its slice.
    let chunk = n / nprocs;
    for i in p * chunk..(p + 1) * chunk {
        let j = ((i as u64).reverse_bits() >> (64 - bits)) as usize;
        if i < j {
            let (ar, ai) = (ctx.read_f64(re, i).await, ctx.read_f64(im, i).await);
            let (br, bi) = (ctx.read_f64(re, j).await, ctx.read_f64(im, j).await);
            ctx.write_f64(re, i, br).await;
            ctx.write_f64(im, i, bi).await;
            ctx.write_f64(re, j, ar).await;
            ctx.write_f64(im, j, ai).await;
        }
        ctx.compute(2);
    }
    ctx.barrier(901).await;

    // Butterfly stages.
    let half = n / 2;
    let per_proc = half / nprocs;
    let mut len = 2usize;
    let mut stage = 0u32;
    while len <= n {
        let ang0 = -2.0 * std::f64::consts::PI / len as f64;
        for b in p * per_proc..(p + 1) * per_proc {
            // Butterfly b: block = b / (len/2), offset k = b % (len/2).
            let hl = len / 2;
            let block = b / hl;
            let k = b % hl;
            let a = block * len + k;
            let t = a + hl;
            let ang = ang0 * k as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let (ar, ai) = (ctx.read_f64(re, a).await, ctx.read_f64(im, a).await);
            let (br, bi) = (ctx.read_f64(re, t).await, ctx.read_f64(im, t).await);
            let tr = br * wr - bi * wi;
            let ti = br * wi + bi * wr;
            ctx.write_f64(re, a, ar + tr).await;
            ctx.write_f64(im, a, ai + ti).await;
            ctx.write_f64(re, t, ar - tr).await;
            ctx.write_f64(im, t, ai - ti).await;
            ctx.compute(10);
        }
        ctx.barrier(910 + stage).await;
        len <<= 1;
        stage += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_mesh::NetTally;

    #[test]
    fn fft1d_runs_and_communicates() {
        let out = run_sized_with(MachineConfig::new(4), 64, NetTally::new());
        assert_eq!(out.name, "1d-fft");
        assert!(!out.trace.is_empty(), "staged FFT must communicate");
        assert!(out.exec_ticks > 0);
        out.trace.check().unwrap();
    }

    #[test]
    fn fft1d_numerics_verified_inside_run() {
        // The kernel asserts Parseval internally via the barrier-synced
        // check accumulation; a wrong butterfly would panic the comparison
        // below at Tiny scale.
        let out = run_sized_with(MachineConfig::new(2), 32, NetTally::new());
        assert!(out.check > 0.0);
    }
}
