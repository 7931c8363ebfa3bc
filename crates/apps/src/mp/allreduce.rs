//! Ring allreduce kernel: the bandwidth-optimal collective that powers
//! bulk reductions (and, decades later, data-parallel gradient exchange).
//!
//! Each rank contributes a vector of `p·k` elements. A **reduce-scatter**
//! phase runs `p − 1` steps around the rank ring — every step each rank
//! forwards one partially-reduced chunk to its successor and accumulates
//! the chunk arriving from its predecessor — after which rank `r` owns
//! the fully-reduced chunk `r + 1 (mod p)`. An **allgather** phase
//! circulates the finished chunks the same way for another `p − 1` steps.
//! All traffic is strictly nearest-neighbour on the rank ring: on a torus
//! network with a ring-friendly embedding every transfer crosses one wrap
//! or one adjacent link, which is exactly the locality contrast this
//! workload adds to the characterization suite next to the all-to-all of
//! 3D-FFT.
//!
//! The kernel self-checks: the expected global sum is built once from the
//! (deterministic) per-rank generators before the ranks start, and every
//! rank compares its final vector with it element-wise.

use commchar_sp2::{run_mp as sp2_run, Rank, Sp2Config};

use crate::util::XorShift;
use crate::{AppClass, AppError, AppOutput, Scale};

const TAG_RING: u32 = 41;

/// The deterministic contribution of `rank`: values in `[-0.5, 0.5)`.
fn contribution(rank: usize) -> impl Iterator<Item = f64> {
    let mut rng = XorShift::new(900 + rank as u64);
    std::iter::repeat_with(move || rng.next_f64() - 0.5)
}

/// One ring step: send `out` to the successor, receive the predecessor's
/// chunk. Sends are issued before the receive so the step pipelines
/// around the ring instead of serializing it.
async fn ring_step(r: &mut Rank, out: &[f64]) -> Vec<f64> {
    let p = r.size();
    let me = r.rank();
    let succ = (me + 1) % p;
    let pred = (me + p - 1) % p;
    r.send(succ, out, TAG_RING);
    r.recv(pred, TAG_RING).await
}

/// The kernel's precondition: a ring needs at least two ranks.
pub(crate) fn check(nprocs: usize) -> Result<(), AppError> {
    AppError::at_least("allreduce", nprocs, 2)
}

/// Runs the kernel: `rounds` ring allreduces over vectors of
/// `nprocs · chunk` elements each.
///
/// # Panics
///
/// Panics unless `nprocs ≥ 2` and `chunk ≥ 1`.
pub fn run_sized(nprocs: usize, chunk: usize, rounds: usize) -> AppOutput {
    check(nprocs).unwrap_or_else(|e| panic!("{e}"));
    assert!(chunk >= 1, "chunk must be nonempty");
    let cfg = Sp2Config::new(nprocs);
    let n = nprocs * chunk;
    // Built once and shared by every rank: a rebuild per rank would cost
    // O(P³·chunk) over the run.
    let mut expected = vec![0.0; n];
    for q in 0..nprocs {
        for (s, v) in expected.iter_mut().zip(contribution(q)) {
            *s += v;
        }
    }

    let expected = &expected;
    let out = sp2_run(cfg, |mut r| async move {
        let p = r.size();
        let me = r.rank();
        // Per-rank load imbalance: deterministic jitter on the local
        // accumulate/copy costs, so ranks drift out of lockstep the way
        // real reductions do (and the inter-send process has texture a
        // renewal fit can see, instead of a zero-or-barrier bimodal).
        let mut jitter = XorShift::new(77 + me as u64);
        // One vector per rank, refilled each round: every rank runs on one
        // thread, so vectors freed and reallocated each round would share
        // one fragmented heap that stays resident after the run.
        let mut vec = vec![0.0; n];
        for round in 0..rounds {
            for (x, v) in vec.iter_mut().zip(contribution(me)) {
                *x = v;
            }
            // Reduce-scatter: after step s the chunk this rank just
            // accumulated is the one it forwards at step s + 1.
            let chunk_at = |owner: usize, s: usize| (owner + p - s) % p;
            for s in 0..p - 1 {
                let c = chunk_at(me, s);
                let incoming = ring_step(&mut r, &vec[c * chunk..(c + 1) * chunk]).await;
                let c_in = chunk_at(me, s + 1);
                for (dst, v) in vec[c_in * chunk..(c_in + 1) * chunk].iter_mut().zip(incoming) {
                    *dst += v;
                }
                r.compute_us(chunk as f64 * (0.01 + 0.04 * jitter.next_f64()));
            }
            // Allgather: circulate the finished chunks; the chunk this
            // rank finished is `me + 1 (mod p)`.
            for s in 0..p - 1 {
                let c = (me + 1 + p - s) % p;
                let incoming = ring_step(&mut r, &vec[c * chunk..(c + 1) * chunk]).await;
                let c_in = (me + p - s) % p;
                vec[c_in * chunk..(c_in + 1) * chunk].copy_from_slice(&incoming);
                r.compute_us(chunk as f64 * (0.005 + 0.02 * jitter.next_f64()));
            }
            for (i, (got, want)) in vec.iter().zip(expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9 * p as f64,
                    "round {round}: element {i} diverged: {got} vs {want}"
                );
            }
        }
        // p0 confirms completion, closing the phase like the NAS drivers.
        let _ = r.bcast(0, if r.rank() == 0 { vec![1.0] } else { vec![] }).await;
    });

    AppOutput {
        name: "allreduce",
        class: AppClass::MessagePassing,
        nprocs,
        trace: out.trace,
        netlog: None,
        exec_ticks: out.exec_ticks,
        check: (nprocs * chunk) as f64,
    }
}

/// Runs at the default size for `scale`.
pub fn run(nprocs: usize, scale: Scale) -> AppOutput {
    let (chunk, rounds) = match scale {
        Scale::Tiny => (8, 2),
        Scale::Small => (64, 4),
        Scale::Full => (256, 8),
    };
    run_sized(nprocs, chunk, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_self_checks() {
        let out = run_sized(4, 8, 2);
        assert!(!out.trace.is_empty());
        assert_eq!(out.nprocs, 4);
    }

    #[test]
    fn allreduce_two_ranks() {
        let out = run_sized(2, 4, 1);
        assert_eq!(out.nprocs, 2);
    }

    #[test]
    fn allreduce_traffic_is_nearest_neighbour_on_the_ring() {
        let out = run_sized(4, 8, 1);
        let p = 4u16;
        // Every data message travels exactly one hop around the rank
        // ring (the closing broadcast from p0 is the only exception).
        for ev in out.trace.events() {
            let (s, d) = (ev.src, ev.dst);
            assert!(d == (s + 1) % p || s == 0, "non-ring message {s} -> {d}");
        }
    }
}
