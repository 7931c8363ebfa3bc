//! NAS 3D-FFT kernel on the SP2-modelled message-passing runtime.
//!
//! A 3-D complex array is distributed by z-planes. Each iteration: rank 0
//! broadcasts the iteration parameters (making p0 the message-count
//! favorite, as the paper reports), every rank FFTs its planes along x and
//! y, an all-to-all transpose redistributes the array into x-slabs, the z
//! FFT completes the transform, and a reduction to p0 checks the Parseval
//! invariant. The transpose dominates the byte volume, which is why the
//! paper's *volume* distribution is uniform while the count favors p0
//! (its Figure 9).

use commchar_sp2::{run_mp as sp2_run, Rank, Sp2Config};

use crate::util::{fft_inplace, XorShift};
use crate::{AppClass, AppError, AppOutput, Scale};

pub(crate) fn grid(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 8,
        Scale::Small => 16,
        Scale::Full => 32,
    }
}

/// Runs the kernel: `m³` grid, `iters` iterations, on `nprocs` ranks. The
/// run asserts Parseval on every iteration; `check` is the grid volume.
///
/// # Panics
///
/// Panics unless `m` is a power of two divisible by `nprocs`.
pub fn run_sized(nprocs: usize, m: usize, iters: usize) -> AppOutput {
    assert!(m.is_power_of_two(), "grid must be a power of two");
    check(nprocs, m).unwrap_or_else(|e| panic!("{e}"));
    let cfg = Sp2Config::new(nprocs);

    let out = sp2_run(cfg, |r| body(r, m, iters));

    AppOutput {
        name: "3d-fft",
        class: AppClass::MessagePassing,
        nprocs,
        trace: out.trace,
        netlog: None,
        exec_ticks: out.exec_ticks,
        check: m.pow(3) as f64,
    }
}

/// The kernel's precondition: the ranks split the `m` z-planes evenly.
pub(crate) fn check(nprocs: usize, m: usize) -> Result<(), AppError> {
    AppError::divides("3d-fft", nprocs, "z-planes", m)
}

async fn body(mut r: Rank, m: usize, iters: usize) {
    let p = r.size();
    let me = r.rank();
    let lz = m / p; // owned z-planes
    let lx = m / p; // owned x-columns after transpose

    for iter in 0..iters {
        // p0 broadcasts the iteration parameters.
        let params = r.bcast(0, if me == 0 { vec![iter as f64, 0.5] } else { vec![] }).await;
        let phase = params[1] + iter as f64;

        // Deterministic input for this iteration.
        let mut rng = XorShift::new(1000 + iter as u64 * 17 + me as u64);
        let vol = lz * m * m;
        let mut re = vec![0.0f64; vol];
        let mut im = vec![0.0f64; vol];
        for v in re.iter_mut().chain(im.iter_mut()) {
            *v = rng.next_f64() - phase / 10.0;
        }
        let local_energy: f64 = re.iter().zip(&im).map(|(a, b)| a * a + b * b).sum();
        let total_in = r.allreduce_sum(&[local_energy]).await[0];

        // FFT along x then y for each owned plane. Index: (zl*m + y)*m + x.
        let idx = |zl: usize, y: usize, x: usize| (zl * m + y) * m + x;
        let mut row_re = vec![0.0; m];
        let mut row_im = vec![0.0; m];
        for zl in 0..lz {
            for y in 0..m {
                for x in 0..m {
                    row_re[x] = re[idx(zl, y, x)];
                    row_im[x] = im[idx(zl, y, x)];
                }
                fft_inplace(&mut row_re, &mut row_im, false);
                for x in 0..m {
                    re[idx(zl, y, x)] = row_re[x];
                    im[idx(zl, y, x)] = row_im[x];
                }
            }
            for x in 0..m {
                for y in 0..m {
                    row_re[y] = re[idx(zl, y, x)];
                    row_im[y] = im[idx(zl, y, x)];
                }
                fft_inplace(&mut row_re, &mut row_im, false);
                for y in 0..m {
                    re[idx(zl, y, x)] = row_re[y];
                    im[idx(zl, y, x)] = row_im[y];
                }
            }
            r.compute_us(2.0 * m as f64 * m as f64 * 0.05);
        }

        // Transpose: send x-slab q of every owned plane to rank q.
        // Chunk layout: [zl][y][xl] pairs (re, im).
        let chunks: Vec<Vec<f64>> = (0..p)
            .map(|q| {
                let mut c = Vec::with_capacity(lz * m * lx * 2);
                for zl in 0..lz {
                    for y in 0..m {
                        for xl in 0..lx {
                            let x = q * lx + xl;
                            c.push(re[idx(zl, y, x)]);
                            c.push(im[idx(zl, y, x)]);
                        }
                    }
                }
                c
            })
            .collect();
        let got = r.alltoall(chunks).await;

        // Assemble (xl, y, z_global) and FFT along z.
        let zidx = |xl: usize, y: usize, z: usize| (xl * m + y) * m + z;
        let mut zre = vec![0.0f64; lx * m * m];
        let mut zim = vec![0.0f64; lx * m * m];
        for (q, chunk) in got.iter().enumerate() {
            let mut it = chunk.iter();
            for zl in 0..lz {
                for y in 0..m {
                    for xl in 0..lx {
                        let z = q * lz + zl;
                        zre[zidx(xl, y, z)] = *it.next().expect("chunk underrun");
                        zim[zidx(xl, y, z)] = *it.next().expect("chunk underrun");
                    }
                }
            }
        }
        let mut col_re = vec![0.0; m];
        let mut col_im = vec![0.0; m];
        for xl in 0..lx {
            for y in 0..m {
                col_re.copy_from_slice(&zre[zidx(xl, y, 0)..zidx(xl, y, 0) + m]);
                col_im.copy_from_slice(&zim[zidx(xl, y, 0)..zidx(xl, y, 0) + m]);
                fft_inplace(&mut col_re, &mut col_im, false);
                zre[zidx(xl, y, 0)..zidx(xl, y, 0) + m].copy_from_slice(&col_re);
                zim[zidx(xl, y, 0)..zidx(xl, y, 0) + m].copy_from_slice(&col_im);
            }
            r.compute_us(m as f64 * m as f64 * 0.05);
        }

        // Parseval: Σ|X|² = N · Σ|x|², reduced at p0 then broadcast.
        let out_energy: f64 = zre.iter().zip(&zim).map(|(a, b)| a * a + b * b).sum();
        let total_out = r.allreduce_sum(&[out_energy]).await[0];
        let n3 = (m * m * m) as f64;
        assert!(
            (total_out - n3 * total_in).abs() < 1e-6 * (n3 * total_in).max(1.0),
            "3D-FFT violates Parseval: {total_out} vs {}",
            n3 * total_in
        );
    }
}

/// Runs at the default size for `scale`.
pub fn run(nprocs: usize, scale: Scale) -> AppOutput {
    let iters = match scale {
        Scale::Tiny => 2,
        Scale::Small => 4,
        Scale::Full => 8,
    };
    run_sized(nprocs, grid(scale), iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft3d_parseval_holds() {
        let out = run_sized(4, 8, 2);
        assert!(!out.trace.is_empty());
        assert_eq!(out.check, 512.0);
    }

    #[test]
    fn fft3d_two_ranks() {
        let out = run_sized(2, 8, 2);
        assert_eq!(out.nprocs, 2);
    }
}
