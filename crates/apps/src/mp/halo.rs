//! 2-D periodic halo exchange kernel: Jacobi diffusion on a
//! block-decomposed doubly-periodic domain.
//!
//! Ranks form a `px × py` process grid (near-square factorization); each
//! owns an `m × m` tile and every iteration exchanges its four edge
//! strips with its north/south/east/west neighbours — **periodically**,
//! so the process grid is itself a torus. Mapped onto a torus network the
//! wraparound exchanges ride the wrap links; on a mesh the same logical
//! neighbour is a full network diameter away, which is precisely the
//! (topology × workload) contrast this kernel contributes to the suite.
//!
//! The update is conservative diffusion (`u += α · Σ(neighbour − u)`), so
//! the kernel self-checks by reducing the global sum each iteration and
//! asserting it never drifts from the initial mass.

use commchar_sp2::{run_mp as sp2_run, Rank, Sp2Config};

use crate::util::XorShift;
use crate::{AppClass, AppError, AppOutput, Scale};

const TAG_TO_SUCC: u32 = 51;
const TAG_TO_PRED: u32 = 52;

/// Near-square factorization `px × py = p` with `px ≤ py`.
fn process_grid(p: usize) -> (usize, usize) {
    let mut px = (p as f64).sqrt() as usize;
    while !p.is_multiple_of(px) {
        px -= 1;
    }
    (px, p / px)
}

/// Bidirectional exchange around a ring: sends `to_succ`/`to_pred` and
/// returns `(from_pred, from_succ)`. A ring of one wraps onto itself
/// without touching the network; distinct tags keep a ring of two (where
/// successor and predecessor coincide) unambiguous.
async fn ring_exchange(
    r: &mut Rank,
    succ: usize,
    pred: usize,
    to_succ: &[f64],
    to_pred: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    if succ == r.rank() {
        return (to_succ.to_vec(), to_pred.to_vec());
    }
    r.send(succ, to_succ, TAG_TO_SUCC);
    r.send(pred, to_pred, TAG_TO_PRED);
    let from_pred = r.recv(pred, TAG_TO_SUCC).await;
    let from_succ = r.recv(succ, TAG_TO_PRED).await;
    (from_pred, from_succ)
}

/// The kernel's precondition: an exchange needs at least two ranks.
pub(crate) fn check(nprocs: usize) -> Result<(), AppError> {
    AppError::at_least("halo", nprocs, 2)
}

/// Runs the kernel: `iters` diffusion steps on `m × m` tiles.
///
/// # Panics
///
/// Panics unless `nprocs ≥ 2` and `m ≥ 2`.
pub fn run_sized(nprocs: usize, m: usize, iters: usize) -> AppOutput {
    check(nprocs).unwrap_or_else(|e| panic!("{e}"));
    assert!(m >= 2, "tile must be at least 2×2");
    let cfg = Sp2Config::new(nprocs);

    let out = sp2_run(cfg, |mut r| async move {
        let p = r.size();
        let me = r.rank();
        let (px, py) = process_grid(p);
        let (gx, gy) = (me % px, me / px);
        let alpha = 0.125;

        let mut u: Vec<f64> = {
            let mut rng = XorShift::new(700 + me as u64);
            (0..m * m).map(|_| rng.next_f64()).collect()
        };
        let mass0 = {
            let local: f64 = u.iter().sum();
            r.allreduce_sum(&[local]).await[0]
        };

        for iter in 0..iters {
            // East/west neighbours along the row ring of the process
            // grid, then north/south along the column ring.
            let east = gy * px + (gx + 1) % px;
            let west = gy * px + (gx + px - 1) % px;
            let north = ((gy + py - 1) % py) * px + gx;
            let south = ((gy + 1) % py) * px + gx;

            let east_edge: Vec<f64> = (0..m).map(|y| u[y * m + (m - 1)]).collect();
            let west_edge: Vec<f64> = (0..m).map(|y| u[y * m]).collect();
            let (from_west, from_east) =
                ring_exchange(&mut r, east, west, &east_edge, &west_edge).await;
            let south_edge = u[(m - 1) * m..].to_vec();
            let north_edge = u[..m].to_vec();
            let (from_north, from_south) =
                ring_exchange(&mut r, south, north, &south_edge, &north_edge).await;

            let mut next = vec![0.0; m * m];
            for y in 0..m {
                for x in 0..m {
                    let c = u[y * m + x];
                    let e = if x + 1 < m { u[y * m + x + 1] } else { from_east[y] };
                    let w = if x > 0 { u[y * m + x - 1] } else { from_west[y] };
                    let s = if y + 1 < m { u[(y + 1) * m + x] } else { from_south[x] };
                    let n = if y > 0 { u[(y - 1) * m + x] } else { from_north[x] };
                    next[y * m + x] = c + alpha * (e + w + s + n - 4.0 * c);
                }
            }
            u = next;
            r.compute_us((m * m) as f64 * 0.02);

            let local: f64 = u.iter().sum();
            let mass = r.allreduce_sum(&[local]).await[0];
            assert!(
                (mass - mass0).abs() <= 1e-9 * mass0.abs().max(1.0),
                "iteration {iter}: diffusion lost mass: {mass} vs {mass0}"
            );
        }
        let _ = r.bcast(0, if me == 0 { vec![mass0] } else { vec![] }).await;
    });

    AppOutput {
        name: "halo",
        class: AppClass::MessagePassing,
        nprocs,
        trace: out.trace,
        netlog: None,
        exec_ticks: out.exec_ticks,
        check: m as f64,
    }
}

/// Runs at the default size for `scale`.
pub fn run(nprocs: usize, scale: Scale) -> AppOutput {
    let (m, iters) = match scale {
        Scale::Tiny => (4, 2),
        Scale::Small => (12, 4),
        Scale::Full => (24, 8),
    };
    run_sized(nprocs, m, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_conserves_mass() {
        let out = run_sized(4, 6, 3);
        assert!(!out.trace.is_empty());
        assert_eq!(out.nprocs, 4);
    }

    #[test]
    fn halo_on_a_non_square_rank_count() {
        let out = run_sized(6, 4, 2);
        assert_eq!(out.nprocs, 6);
    }

    #[test]
    fn halo_two_ranks() {
        // px = 1: the east/west ring wraps onto itself, only the
        // north/south ring touches the network.
        let out = run_sized(2, 4, 2);
        assert_eq!(out.nprocs, 2);
    }

    #[test]
    fn process_grid_is_a_near_square_factorization() {
        assert_eq!(process_grid(16), (4, 4));
        assert_eq!(process_grid(6), (2, 3));
        assert_eq!(process_grid(2), (1, 2));
        assert_eq!(process_grid(12), (3, 4));
    }
}
