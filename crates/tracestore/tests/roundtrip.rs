//! Property-based round-trip suite: random event streams pack → unpack
//! identically through `TraceFile`'s event loop (for any block size and
//! worker count), and causal replay of a packed trace is record-identical
//! to replaying the source JSON-lines trace.

use commchar_mesh::{EngineKind, MeshConfig};
use commchar_trace::replay::CausalReplayer;
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::writer::pack_trace_with_block_len;
use commchar_tracestore::{
    load_trace, pack_trace, FileReader, PackedReader, TraceFile, TraceStoreError,
};
use proptest::prelude::*;

/// Random trace with random kinds, lengths and a valid dependency
/// structure (dependencies strictly precede their dependents in `(t, id)`
/// order, as `CommTrace::check` requires).
fn arb_trace(nodes: usize, max: usize) -> impl Strategy<Value = CommTrace> {
    prop::collection::vec(
        (
            0..nodes as u16,
            0..nodes as u16,
            1u32..100_000,
            0u64..1_000_000,
            0u8..3,
            prop::option::of(0usize..max),
        ),
        1..max,
    )
    .prop_map(move |raw| {
        let mut trace = CommTrace::new(nodes);
        let mut id = 0u64;
        let mut times: Vec<(u64, u64)> = Vec::new();
        for (s, d, bytes, t, kind, dep) in raw {
            if s == d {
                continue;
            }
            let kind = match kind {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            // Sparse ids exercise the delta coder's sign handling.
            let sparse_id = id * 3 + (t % 2);
            let mut e = CommEvent::new(sparse_id, t, s, d, bytes, kind);
            if let Some(dep) = dep {
                if let Some(&(dep_t, dep_id)) = times.get(dep % times.len().max(1)) {
                    if (dep_t, dep_id) < (t, sparse_id) {
                        e = e.after(dep_id);
                    }
                }
            }
            trace.push(e);
            times.push((t, sparse_id));
            id += 1;
        }
        trace
    })
}

/// `packed` read whole through the packed variant of a [`TraceFile`] on
/// `jobs` workers.
fn unpack(packed: &[u8], jobs: usize) -> Result<CommTrace, TraceStoreError> {
    TraceFile::Packed(PackedReader::from_bytes(packed)?).into_trace(jobs)
}

proptest! {
    /// Pack → unpack returns exactly the input events, nodes and order.
    #[test]
    fn pack_unpack_is_identity(trace in arb_trace(16, 200)) {
        let packed = pack_trace(&trace);
        let back = load_trace(&packed).unwrap();
        prop_assert_eq!(back.nodes(), trace.nodes());
        prop_assert_eq!(back.events(), trace.events());
        // And packing the unpacked trace reproduces the same bytes.
        prop_assert_eq!(pack_trace(&back), packed);
    }

    /// Block size never changes the decoded stream, only the framing.
    #[test]
    fn block_size_is_invisible(trace in arb_trace(8, 120), block_len in 1usize..64) {
        let packed = pack_trace_with_block_len(&trace, block_len);
        let reader = PackedReader::from_bytes(&packed).unwrap();
        prop_assert_eq!(reader.len(), trace.len() as u64);
        prop_assert_eq!(reader.block_count(), trace.len().div_ceil(block_len));
        let back = TraceFile::Packed(reader).into_trace(1).unwrap();
        prop_assert_eq!(back.events(), trace.events());
    }

    /// Parallel decode equals sequential decode for any worker count.
    #[test]
    fn parallel_decode_matches_sequential(trace in arb_trace(8, 150), jobs in 1usize..6) {
        let packed = pack_trace_with_block_len(&trace, 16);
        let seq = unpack(&packed, 1).unwrap();
        let par = unpack(&packed, jobs).unwrap();
        prop_assert_eq!(seq.events(), par.events());
        prop_assert_eq!(par.events(), trace.events());
    }

    /// Causal replay over the packed trace produces a `NetLog` identical
    /// to replaying the source JSON-lines trace — the packed store is a
    /// drop-in substrate for the static strategy.
    #[test]
    fn replay_packed_equals_replay_jsonl(trace in arb_trace(8, 80)) {
        prop_assume!(!trace.is_empty());
        let from_jsonl = load_trace(trace.to_jsonl().as_bytes()).unwrap();
        let from_packed = load_trace(&pack_trace(&trace)).unwrap();
        let cfg = MeshConfig::for_nodes(8);
        let rep = CausalReplayer::new(cfg);
        let log_jsonl = rep.try_replay(&from_jsonl, EngineKind::Recurrence).unwrap();
        let log_packed = rep.try_replay(&from_packed, EngineKind::Recurrence).unwrap();
        prop_assert_eq!(log_jsonl.records(), log_packed.records());
    }

    /// The file-backed reader agrees with the in-memory reader block by
    /// block: same index, same per-block decode.
    #[test]
    fn file_reader_matches_slice_reader(trace in arb_trace(8, 120), block_len in 1usize..48, seed in 0u64..u64::MAX) {
        let packed = pack_trace_with_block_len(&trace, block_len);
        let path = std::env::temp_dir().join(format!("commchar-filereader-{seed:x}.cct"));
        std::fs::write(&path, &packed).unwrap();
        let mem = PackedReader::from_bytes(&packed).unwrap();
        let file = FileReader::open(&path).unwrap();
        prop_assert_eq!(file.nodes(), mem.nodes());
        prop_assert_eq!(file.len(), mem.len());
        prop_assert_eq!(file.block_count(), mem.block_count());
        for b in 0..mem.block_count() {
            prop_assert_eq!(file.block_records(b), mem.block_records(b));
            prop_assert_eq!(file.block_payload_len(b), mem.block_payload_len(b));
            prop_assert_eq!(file.decode_events(b).unwrap(), mem.decode_events(b).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }
}
