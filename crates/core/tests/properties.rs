//! Property-based tests for the characterization pipeline, driven by
//! synthetic traffic with known ground truth.

use commchar_apps::AppClass;
use commchar_core::analyze::{try_analyze_blocks, try_analyze_trace};
use commchar_core::report::{analysis_report, signature_report};
use commchar_core::{characterize, synthesize, Workload};
use commchar_mesh::{EngineKind, MeshConfig};
use commchar_stats::spatial::SpatialModel;
use commchar_trace::replay::CausalReplayer;
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::writer::pack_trace_with_block_len;
use commchar_tracestore::TraceReader;
use commchar_traffic::patterns::{hotspot, uniform_poisson};
use proptest::collection::vec;
use proptest::prelude::*;

fn workload_from(model: &commchar_traffic::TrafficModel, duration: u64, seed: u64) -> Workload {
    let n = model.nodes();
    let mesh = MeshConfig::for_nodes(n);
    let trace = model.generate(duration, seed);
    let netlog = CausalReplayer::new(mesh).try_replay(&trace, EngineKind::Recurrence).unwrap();
    Workload {
        name: "synthetic".into(),
        class: AppClass::MessagePassing,
        nprocs: n,
        mesh,
        trace,
        netlog,
        exec_ticks: duration,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Characterizing uniform-Poisson traffic recovers: (a) an
    /// exponential-family temporal fit whose mean matches the configured
    /// rate, and (b) a uniform spatial classification.
    #[test]
    fn pipeline_recovers_uniform_poisson(seed in 0u64..200, n in 4usize..10) {
        let rate = 0.004;
        let model = uniform_poisson(n, rate, 32);
        let w = workload_from(&model, 200_000, seed);
        prop_assume!(w.trace.len() > 500);
        let sig = characterize(&w, 1).unwrap();

        // Temporal: aggregate rate = n * per-source rate.
        let mean = sig.temporal.aggregate.dist.mean();
        let expect = 1.0 / (rate * n as f64);
        prop_assert!((mean - expect).abs() / expect < 0.25, "mean {mean} vs {expect}");
        prop_assert!(sig.temporal.aggregate.r2 > 0.95);

        // Spatial: uniform everywhere.
        let uniform = sig
            .spatial
            .iter()
            .flatten()
            .filter(|s| s.fit.model == SpatialModel::Uniform)
            .count();
        prop_assert!(uniform * 3 >= n * 2, "only {uniform}/{n} classified uniform");

        // Burstiness: near-Poisson.
        prop_assert!((sig.temporal.burstiness.cv2 - 1.0).abs() < 0.4);
    }

    /// Characterizing hotspot traffic finds the favorite.
    #[test]
    fn pipeline_recovers_hotspot(seed in 0u64..200, hot in 0usize..8) {
        let n = 8;
        let hot = hot % n;
        let model = hotspot(n, hot, 0.6, 0.004, 32);
        let w = workload_from(&model, 150_000, seed);
        prop_assume!(w.trace.len() > 400);
        let sig = characterize(&w, 1).unwrap();
        let mut favored = 0;
        let mut classified = 0;
        for (s, sp) in sig.spatial.iter().enumerate() {
            if s == hot {
                continue;
            }
            if let Some(sp) = sp {
                classified += 1;
                if let SpatialModel::BimodalUniform { favorite, .. } = sp.fit.model {
                    if favorite == hot {
                        favored += 1;
                    }
                }
            }
        }
        prop_assert!(favored * 3 >= classified * 2, "{favored}/{classified} found the hotspot");
    }

    /// The parallel fit fan-out must be invisible: characterizing an
    /// arbitrary small trace with any worker count yields a signature
    /// identical to the sequential one field-for-field (Debug renders
    /// floats shortest-roundtrip, so the comparison is bitwise on every
    /// score and parameter) and an identical rendered report.
    #[test]
    fn parallel_characterize_is_identical_to_sequential(
        n in 3usize..8,
        jobs in 2usize..9,
        evs in vec((0u64..20_000, 0usize..64, 0usize..64, 1u32..512, 0u8..3), 3..150),
    ) {
        let mut trace = CommTrace::new(n);
        for (i, &(t, s, d, bytes, kind)) in evs.iter().enumerate() {
            let src = s % n;
            let dst = (src + 1 + d % (n - 1)) % n;
            let kind = match kind {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            trace.push(CommEvent::new(i as u64, t, src as u16, dst as u16, bytes, kind));
        }
        trace.sort();
        let mesh = MeshConfig::for_nodes(n);
        let netlog = CausalReplayer::new(mesh).try_replay(&trace, EngineKind::Recurrence).unwrap();
        let w = Workload {
            name: "prop".into(),
            class: AppClass::MessagePassing,
            nprocs: n,
            mesh,
            trace,
            netlog,
            exec_ticks: 20_000,
        };
        let seq = characterize(&w, 1).unwrap();
        let par = characterize(&w, jobs).unwrap();
        prop_assert_eq!(signature_report(&seq), signature_report(&par));
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    /// The out-of-core promise: analyzing a packed trace block by block —
    /// for *any* block length and any worker count on either pool — must
    /// render the exact same report, byte for byte, as analyzing the
    /// in-memory events in one piece, and the structured results must be
    /// bitwise identical (Debug prints floats shortest-roundtrip).
    #[test]
    fn streamed_analysis_is_byte_identical_to_batch(
        n in 3usize..8,
        jobs in 1usize..7,
        block_jobs in 0usize..5,
        block_len in 1usize..48,
        evs in vec((0u64..20_000, 0usize..64, 0usize..64, 1u32..512, 0u8..3), 8..150),
    ) {
        let mut trace = CommTrace::new(n);
        for (i, &(t, s, d, bytes, kind)) in evs.iter().enumerate() {
            let src = s % n;
            let dst = (src + 1 + d % (n - 1)) % n;
            let kind = match kind {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            trace.push(CommEvent::new(i as u64, t, src as u16, dst as u16, bytes, kind));
        }
        trace.sort();
        let shape = MeshConfig::for_nodes(n).shape;

        let batch = try_analyze_trace(&trace, shape, 1).unwrap();
        let packed = pack_trace_with_block_len(&trace, block_len);
        let reader = TraceReader::open(&packed).unwrap();
        let streamed = try_analyze_blocks(&reader, shape, jobs, block_jobs).unwrap();

        prop_assert_eq!(analysis_report(&batch, "t"), analysis_report(&streamed, "t"));
        prop_assert_eq!(format!("{batch:?}"), format!("{streamed:?}"));
    }

    /// Synthesis round-trip: fitting the synthetic traffic of a fitted
    /// model yields approximately the same aggregate rate (fixed point).
    #[test]
    fn synthesis_is_a_fixed_point_on_rate(seed in 0u64..100) {
        let model = uniform_poisson(6, 0.005, 16);
        let w = workload_from(&model, 120_000, seed);
        prop_assume!(w.trace.len() > 400);
        let sig = characterize(&w, 1).unwrap();
        let again = synthesize(&sig, w.mesh);
        let regen = again.generate(120_000, seed + 1);
        let r1 = w.trace.len() as f64;
        let r2 = regen.len() as f64;
        prop_assert!((r2 - r1).abs() / r1 < 0.3, "rates diverge: {r1} vs {r2}");
    }
}

/// With two bad blocks in a packed trace, the error named is the
/// earlier one in file order for any number of block workers, whichever
/// worker meets which block first: a corrupt block before an
/// out-of-order one, and an out-of-order block before a corrupt one.
#[test]
fn streamed_analysis_reports_the_first_bad_block() {
    use commchar_core::CharError;
    use commchar_tracestore::TraceWriter;
    let (nodes, block_len) = (4, 5);
    let event = |i: u64, t: u64| {
        CommEvent::new(i, t, (i % 4) as u16, ((i + 1) % 4) as u16, 8, EventKind::Data)
    };
    // Twelve blocks; block 6's times restart below block 5's, so the
    // stream is out of order between them.
    let events: Vec<CommEvent> =
        (0..60u64).map(|i| event(i, if (30..35).contains(&i) { i } else { i * 10 })).collect();
    let mut w = TraceWriter::with_block_len(Vec::new(), nodes, block_len).unwrap();
    for &e in &events {
        w.push(e).unwrap();
    }
    let packed = w.finish().unwrap();
    let reader = TraceReader::open(&packed).unwrap();
    // The header is 10 bytes; each block is an 8-byte frame header and
    // its payload. Flipping a payload byte breaks the block's checksum.
    let corrupt = |bytes: &mut Vec<u8>, block: usize| {
        let at = 10 + (0..block).map(|b| 8 + reader.block_payload_len(b)).sum::<usize>() + 8;
        bytes[at] ^= 0x55;
    };
    let shape = MeshConfig::for_nodes(nodes).shape;
    let mut early_corrupt = packed.clone();
    corrupt(&mut early_corrupt, 2);
    corrupt(&mut early_corrupt, 9);
    let mut late_corrupt = packed.clone();
    corrupt(&mut late_corrupt, 8);
    for block_jobs in 0..5 {
        let err =
            try_analyze_blocks(&TraceReader::open(&early_corrupt).unwrap(), shape, 1, block_jobs)
                .unwrap_err();
        assert!(
            matches!(&err, CharError::Store(msg) if msg.contains("block 2")),
            "{block_jobs} block workers: {err}"
        );
        let err =
            try_analyze_blocks(&TraceReader::open(&late_corrupt).unwrap(), shape, 1, block_jobs)
                .unwrap_err();
        assert!(
            matches!(err, CharError::Unsorted { prev: 290, at: 30 }),
            "{block_jobs} block workers: {err}"
        );
    }
}
