//! Property-based tests for the message-passing runtime: collective
//! semantics, clock monotonicity, and trace well-formedness under random
//! communication schedules.

use commchar_sp2::{run_mp, Sp2Config};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// reduce-then-broadcast equals allreduce for random contributions.
    #[test]
    fn allreduce_sums_correctly(nprocs in 2usize..7, vals in prop::collection::vec(-100.0f64..100.0, 7), len in 1usize..5) {
        let vals = &vals;
        run_mp(Sp2Config::new(nprocs), |mut r| async move {
            let contrib: Vec<f64> = (0..len).map(|i| vals[r.rank() % 7] + i as f64).collect();
            let got = r.allreduce_sum(&contrib).await;
            let expect: Vec<f64> = (0..len)
                .map(|i| (0..nprocs).map(|q| vals[q % 7] + i as f64).sum())
                .collect();
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-9, "{g} vs {e}");
            }
        });
    }

    /// All-to-all delivers exactly the chunk each sender addressed to each
    /// receiver, for arbitrary chunk sizes.
    #[test]
    fn alltoall_is_a_personalized_exchange(nprocs in 2usize..7, chunk_len in 1usize..6) {
        run_mp(Sp2Config::new(nprocs), |mut r| async move {
            let me = r.rank();
            let chunks: Vec<Vec<f64>> = (0..nprocs)
                .map(|q| (0..chunk_len).map(|i| (me * 100 + q * 10 + i) as f64).collect())
                .collect();
            let got = r.alltoall(chunks).await;
            for (q, chunk) in got.iter().enumerate() {
                let expect: Vec<f64> =
                    (0..chunk_len).map(|i| (q * 100 + me * 10 + i) as f64).collect();
                assert_eq!(chunk, &expect, "from rank {q}");
            }
        });
    }

    /// The trace is well-formed and every dependency id refers to an
    /// earlier message, for random send/recv schedules.
    #[test]
    fn traces_are_well_formed(nprocs in 2usize..6, rounds in 1usize..6) {
        let out = run_mp(Sp2Config::new(nprocs), |mut r| async move {
            let me = r.rank();
            let n = r.size();
            for round in 0..rounds {
                // Ring exchange with payload depending on the round.
                let to = (me + 1) % n;
                let from = (me + n - 1) % n;
                r.send(to, &vec![round as f64; 1 + round], round as u32);
                let got = r.recv(from, round as u32).await;
                assert_eq!(got.len(), 1 + round);
                r.barrier().await;
            }
        });
        out.trace.check().unwrap();
        // Clocks advanced and the trace is non-trivial.
        prop_assert!(out.exec_ticks > 0);
        prop_assert!(out.trace.len() as usize >= nprocs * rounds);
    }

    /// Per-rank message ids are unique and timestamps per source are
    /// nondecreasing.
    #[test]
    fn per_source_timestamps_monotone(nprocs in 2usize..6, msgs in 1usize..10) {
        let out = run_mp(Sp2Config::new(nprocs), |mut r| async move {
            let me = r.rank();
            let n = r.size();
            if me == 0 {
                for i in 0..msgs {
                    for q in 1..n {
                        r.send(q, &[i as f64], i as u32);
                    }
                }
            } else {
                for i in 0..msgs {
                    let _ = r.recv(0, i as u32).await;
                }
            }
        });
        let mut per_src: std::collections::HashMap<u16, u64> = Default::default();
        let mut ids = std::collections::HashSet::new();
        for e in out.trace.events() {
            prop_assert!(ids.insert(e.id), "duplicate id {}", e.id);
            let last = per_src.entry(e.src).or_insert(0);
            prop_assert!(e.t >= *last, "source {} went back in time", e.src);
            *last = e.t;
        }
    }

    /// The SP2 cost model is affine: doubling payload bytes adds exactly
    /// the per-byte slope.
    #[test]
    fn cost_model_is_affine(bytes in 8u32..100_000) {
        let cfg = Sp2Config::new(2);
        let a = cfg.software_overhead_us(bytes);
        let b = cfg.software_overhead_us(bytes + 1000);
        prop_assert!((b - a - 1000.0 * cfg.per_byte_us).abs() < 1e-9);
    }
}
