//! NAS MG kernel: V-cycle multigrid Poisson solver on the SP2-modelled
//! runtime.
//!
//! The `m³` grid is distributed by z-planes; smoothing sweeps exchange
//! ghost planes with nearest neighbours (the locality-heavy pattern that
//! contrasts with 3D-FFT's all-to-all), restriction/prolongation stay
//! z-local by construction, and the residual norm is reduced to p0 each
//! cycle. Requires a power-of-two rank count, as the paper notes for MG.

use commchar_sp2::{run_mp as sp2_run, Rank, Sp2Config};

use crate::util::XorShift;
use crate::{AppClass, AppError, AppOutput, Scale};

pub(crate) fn grid(scale: Scale, nprocs: usize) -> usize {
    let base = match scale {
        Scale::Tiny => 8,
        Scale::Small => 16,
        Scale::Full => 32,
    };
    base.max(2 * nprocs)
}

const TAG_UP: u32 = 31;
const TAG_DOWN: u32 = 32;

/// A z-distributed grid level: `lz` owned planes of `m × m` points.
struct Level {
    m: usize,
    lz: usize,
    u: Vec<f64>,
    f: Vec<f64>,
}

impl Level {
    fn new(m: usize, lz: usize) -> Self {
        Level { m, lz, u: vec![0.0; lz * m * m], f: vec![0.0; lz * m * m] }
    }

    fn idx(&self, zl: usize, y: usize, x: usize) -> usize {
        (zl * self.m + y) * self.m + x
    }
}

/// Exchanges ghost planes for the values in `data` and returns
/// `(below, above)` ghost planes (zeros at the global boundaries).
async fn exchange_ghosts(r: &mut Rank, data: &[f64], m: usize, lz: usize) -> (Vec<f64>, Vec<f64>) {
    let p = r.size();
    let me = r.rank();
    let plane = m * m;
    let top: Vec<f64> = data[(lz - 1) * plane..lz * plane].to_vec();
    let bottom: Vec<f64> = data[0..plane].to_vec();
    let mut below = vec![0.0; plane];
    let mut above = vec![0.0; plane];
    // Even/odd phasing avoids send/recv cycles between neighbours.
    for phase in 0..2 {
        if me % 2 == phase {
            if me + 1 < p {
                r.send(me + 1, &top, TAG_UP);
                above = r.recv(me + 1, TAG_DOWN).await;
            }
            if me > 0 {
                r.send(me - 1, &bottom, TAG_DOWN);
                below = r.recv(me - 1, TAG_UP).await;
            }
        } else {
            if me > 0 {
                below = r.recv(me - 1, TAG_UP).await;
                r.send(me - 1, &bottom, TAG_DOWN);
            }
            if me + 1 < p {
                above = r.recv(me + 1, TAG_DOWN).await;
                r.send(me + 1, &top, TAG_UP);
            }
        }
    }
    (below, above)
}

/// One Jacobi sweep of `-∇²u = f` with unit spacing and zero Dirichlet
/// boundaries; ghost planes supply the cross-rank z-neighbours.
async fn smooth(r: &mut Rank, level: &mut Level) {
    let (below, above) = exchange_ghosts(r, &level.u, level.m, level.lz).await;
    let m = level.m;
    let plane = m * m;
    let mut next = level.u.clone();
    for zl in 0..level.lz {
        for y in 1..m - 1 {
            for x in 1..m - 1 {
                let i = level.idx(zl, y, x);
                let zm = if zl == 0 { below[y * m + x] } else { level.u[i - plane] };
                let zp = if zl == level.lz - 1 { above[y * m + x] } else { level.u[i + plane] };
                next[i] = (level.u[i - 1]
                    + level.u[i + 1]
                    + level.u[i - m]
                    + level.u[i + m]
                    + zm
                    + zp
                    + level.f[i])
                    / 6.0;
            }
        }
    }
    level.u = next;
    r.compute_us(level.lz as f64 * (m * m) as f64 * 0.02);
}

/// Residual `f + ∇²u` (for `-∇²u = f`).
async fn residual(r: &mut Rank, level: &Level) -> Vec<f64> {
    let (below, above) = exchange_ghosts(r, &level.u, level.m, level.lz).await;
    let m = level.m;
    let plane = m * m;
    let mut res = vec![0.0; level.u.len()];
    for zl in 0..level.lz {
        for y in 1..m - 1 {
            for x in 1..m - 1 {
                let i = level.idx(zl, y, x);
                let zm = if zl == 0 { below[y * m + x] } else { level.u[i - plane] };
                let zp = if zl == level.lz - 1 { above[y * m + x] } else { level.u[i + plane] };
                let lap =
                    level.u[i - 1] + level.u[i + 1] + level.u[i - m] + level.u[i + m] + zm + zp
                        - 6.0 * level.u[i];
                res[i] = level.f[i] + lap;
            }
        }
    }
    res
}

async fn norm2(r: &mut Rank, v: &[f64]) -> f64 {
    let local: f64 = v.iter().map(|x| x * x).sum();
    r.allreduce_sum(&[local]).await[0].sqrt()
}

/// The kernel's precondition: a power-of-two rank count, each rank
/// owning at least two of the `m` z-planes (whole plane pairs, so the
/// restriction stays z-local).
pub(crate) fn check(nprocs: usize, m: usize) -> Result<(), AppError> {
    AppError::power_of_two("mg", nprocs)?;
    AppError::divides("mg", nprocs, "z-plane pairs", m / 2)
}

/// Runs the kernel. The run asserts the V-cycles reduce the residual;
/// `check` is the final residual norm (must be finite and positive).
///
/// # Panics
///
/// Panics unless `nprocs` is a power of two and `m` is a power of two with
/// `m ≥ 2·nprocs`.
pub fn run_sized(nprocs: usize, m: usize, cycles: usize) -> AppOutput {
    assert!(m.is_power_of_two(), "grid must be a power of two");
    check(nprocs, m).unwrap_or_else(|e| panic!("{e}"));
    let cfg = Sp2Config::new(nprocs);

    let out = sp2_run(cfg, |mut r| async move {
        let p = r.size();
        let lz = m / p;
        // Finest level: random RHS, zero initial guess.
        let mut fine = Level::new(m, lz);
        let mut rng = XorShift::new(500 + r.rank() as u64);
        for zl in 0..lz {
            for y in 1..m - 1 {
                for x in 1..m - 1 {
                    let i = fine.idx(zl, y, x);
                    fine.f[i] = rng.next_f64() - 0.5;
                }
            }
        }
        let r0 = {
            let res = residual(&mut r, &fine).await;
            norm2(&mut r, &res).await
        };
        let mut last = f64::INFINITY;
        for _cycle in 0..cycles {
            v_cycle(&mut r, &mut fine).await;
            let res = residual(&mut r, &fine).await;
            last = norm2(&mut r, &res).await;
        }
        assert!(last < 0.8 * r0, "V-cycles failed to reduce the residual: {last} vs initial {r0}");
        // p0 broadcasts a "converged" token, closing the cycle the way the
        // NAS driver does.
        let _ = r.bcast(0, if r.rank() == 0 { vec![last] } else { vec![] }).await;
    });

    AppOutput {
        name: "mg",
        class: AppClass::MessagePassing,
        nprocs,
        trace: out.trace,
        netlog: None,
        exec_ticks: out.exec_ticks,
        check: m as f64,
    }
}

/// One V-cycle: smooth, restrict the residual, recurse (iteratively), and
/// apply piecewise-constant prolongation back up.
async fn v_cycle(r: &mut Rank, fine: &mut Level) {
    // Build the level hierarchy down to lz == 1 or m == 4.
    smooth(r, fine).await;
    smooth(r, fine).await;
    if fine.lz >= 2 && fine.m >= 8 {
        let res = residual(r, fine).await;
        // Restrict by injection to the coarse grid.
        let cm = fine.m / 2;
        let clz = fine.lz / 2;
        let mut coarse = Level::new(cm, clz);
        for zl in 0..clz {
            for y in 1..cm - 1 {
                for x in 1..cm - 1 {
                    let fi = fine.idx(2 * zl, 2 * y, 2 * x);
                    coarse.f[(zl * cm + y) * cm + x] = res[fi];
                }
            }
        }
        // A recursive async call needs its own allocation.
        Box::pin(v_cycle(r, &mut coarse)).await;
        // Prolongate (piecewise constant) and correct.
        for zl in 0..clz {
            for y in 1..cm - 1 {
                for x in 1..cm - 1 {
                    let c = coarse.u[(zl * cm + y) * cm + x];
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let fy = 2 * y + dy;
                                let fx = 2 * x + dx;
                                if fy < fine.m - 1 && fx < fine.m - 1 {
                                    let fi = fine.idx(2 * zl + dz, fy, fx);
                                    fine.u[fi] += c;
                                }
                            }
                        }
                    }
                }
            }
        }
        smooth(r, fine).await;
    } else {
        // Coarsest level: extra smoothing.
        for _ in 0..6 {
            smooth(r, fine).await;
        }
    }
}

/// Runs at the default size for `scale`.
pub fn run(nprocs: usize, scale: Scale) -> AppOutput {
    let cycles = match scale {
        Scale::Tiny => 2,
        Scale::Small => 4,
        Scale::Full => 6,
    };
    run_sized(nprocs, grid(scale, nprocs), cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mg_reduces_residual() {
        let out = run_sized(4, 8, 2);
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn mg_two_ranks() {
        let out = run_sized(2, 8, 2);
        assert_eq!(out.nprocs, 2);
    }
}
