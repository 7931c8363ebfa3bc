//! Corrupt-input hardening: every malformed-file shape must surface as a
//! typed [`TraceStoreError`] — never a panic — and the file-backed reader
//! must return the same error as the in-memory one.

use std::sync::atomic::{AtomicUsize, Ordering};

use commchar_mesh::{MeshConfig, NetMessage, NodeId, OnlineWormhole};
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::{
    load_trace, pack_netlog, pack_trace, unpack_netlog, unpack_trace, unpack_trace_parallel,
    FileReader, TraceReader, TraceStoreError, FOOTER_MAGIC, MAGIC,
};

fn sample_trace() -> CommTrace {
    let mut tr = CommTrace::new(8);
    let mut id = 0u64;
    for t in 0..300u64 {
        let src = (t % 8) as u16;
        let dst = ((t * 3 + 1) % 8) as u16;
        if src != dst {
            let kind = match t % 3 {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            let mut e = CommEvent::new(id, t * 11, src, dst, 8 + (t % 120) as u32, kind);
            if id > 8 && t % 4 == 0 {
                e = e.after(id - 8);
            }
            tr.push(e);
            id += 1;
        }
    }
    tr
}

/// [`unpack_trace_parallel`] through the file-backed reader: the bytes go
/// to a temporary file, which is opened, decoded whole and removed.
fn unpack_from_disk(bytes: &[u8], jobs: usize) -> Result<CommTrace, TraceStoreError> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "commchar-corrupt-{}-{}.cct",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let result = FileReader::open(&path).and_then(|r| r.read_trace_parallel(jobs));
    std::fs::remove_file(&path).unwrap();
    result
}

/// Asserts that the in-memory and the file-backed reader reject `bytes`
/// with the same error, and returns it.
fn same_error_both_ways(bytes: &[u8], jobs: usize) -> TraceStoreError {
    let mem = unpack_trace_parallel(bytes, jobs).expect_err("corrupt input decoded in memory");
    let file = unpack_from_disk(bytes, jobs).expect_err("corrupt input decoded from disk");
    assert_eq!(format!("{file:?}"), format!("{mem:?}"), "the two readers disagree");
    mem
}

#[test]
fn truncated_file_at_every_prefix_is_a_typed_error() {
    let packed = pack_trace(&sample_trace());
    for cut in 0..packed.len() {
        match same_error_both_ways(&packed[..cut], 1) {
            TraceStoreError::Truncated { .. }
            | TraceStoreError::BadMagic { .. }
            | TraceStoreError::VarintOverflow { .. }
            | TraceStoreError::ChecksumMismatch { .. }
            | TraceStoreError::Corrupt(_) => {}
            other => panic!("cut at {cut}: unexpected error class {other}"),
        }
    }
}

#[test]
fn a_cut_off_file_names_the_footer_magic() {
    // The cut keeps the leading CCTRACE1 header intact, so the magic that
    // fails the check is the trailing CCTFOOT1.
    let packed = pack_trace(&sample_trace());
    let err = same_error_both_ways(&packed[..40], 1);
    assert!(err.to_string().contains("expected CCTFOOT1"), "{err}");
    assert!(
        matches!(err, TraceStoreError::BadMagic { expected, .. } if expected == FOOTER_MAGIC),
        "{err:?}"
    );
}

#[test]
fn bad_magic_is_reported_with_the_found_bytes() {
    let mut packed = pack_trace(&sample_trace());
    packed[0] = b'X';
    match unpack_trace(&packed) {
        Err(TraceStoreError::BadMagic { found, .. }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A damaged trailing magic is also a BadMagic, not a silent misparse.
    let mut packed = pack_trace(&sample_trace());
    let last = packed.len() - 1;
    packed[last] ^= 0xff;
    assert!(matches!(unpack_trace(&packed), Err(TraceStoreError::BadMagic { .. })));
}

#[test]
fn checksum_mismatch_names_the_block() {
    let trace = sample_trace();
    let packed = commchar_tracestore::writer::pack_trace_with_block_len(&trace, 64);
    let reader = TraceReader::open(&packed).unwrap();
    assert!(reader.block_count() > 2, "need several blocks for this test");
    // Flip one payload byte in the middle of the file: the block headers
    // start right after the file header, so pick a byte inside block 1's
    // payload by corrupting past the first block.
    let mut corrupt = packed.clone();
    let mid = packed.len() / 2;
    corrupt[mid] ^= 0x55;
    match same_error_both_ways(&corrupt, 1) {
        TraceStoreError::ChecksumMismatch { block, stored, computed } => {
            assert!(block < reader.block_count());
            assert_ne!(stored, computed);
        }
        // Flipping a byte inside a varint column can also trip the
        // structural validators first if it lands in a block header.
        TraceStoreError::Corrupt(_) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn out_of_range_varint_is_typed() {
    // Hand-build a file whose node-count varint never terminates: magic,
    // kind byte, then 11 continuation bytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(1);
    bytes.extend_from_slice(&[0x80; 10]);
    bytes.push(0x01);
    // Enough trailer that the header parse is what fails.
    bytes.extend_from_slice(&[0u8; 4]);
    bytes.extend_from_slice(&FOOTER_MAGIC);
    match unpack_trace(&bytes) {
        Err(TraceStoreError::VarintOverflow { context }) => assert_eq!(context, "node count"),
        other => panic!("expected VarintOverflow, got {other:?}"),
    }
}

#[test]
fn footer_lies_are_structural_errors() {
    let packed = commchar_tracestore::writer::pack_trace_with_block_len(&sample_trace(), 50);
    // Corrupt the footer length field (4 bytes before the footer magic).
    let mut corrupt = packed.clone();
    let len_at = packed.len() - FOOTER_MAGIC.len() - 4;
    corrupt[len_at] = corrupt[len_at].wrapping_add(1);
    assert!(unpack_trace(&corrupt).is_err());
    // An absurd footer length cannot panic either.
    let mut corrupt = packed.clone();
    corrupt[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(unpack_trace(&corrupt).is_err());
}

#[test]
fn parallel_decode_reports_corruption_too() {
    let packed = commchar_tracestore::writer::pack_trace_with_block_len(&sample_trace(), 32);
    let mut corrupt = packed.clone();
    let mid = packed.len() / 2;
    corrupt[mid] ^= 0xff;
    same_error_both_ways(&corrupt, 4);
    assert!(unpack_trace_parallel(&packed, 4).is_ok());
    assert!(unpack_from_disk(&packed, 4).is_ok());
}

#[test]
fn wrong_stream_kind_is_rejected() {
    let trace = sample_trace();
    let msgs: Vec<NetMessage> = trace
        .events()
        .iter()
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: commchar_des::SimTime::from_ticks(e.t),
        })
        .collect();
    let log = OnlineWormhole::new(MeshConfig::for_nodes(8)).simulate(&msgs);
    let packed_log = pack_netlog(&log);
    // Events API over a netlog stream (and vice versa) errors cleanly.
    assert!(matches!(unpack_trace(&packed_log), Err(TraceStoreError::Corrupt(_))));
    let packed_trace = pack_trace(&trace);
    assert!(matches!(unpack_netlog(&packed_trace), Err(TraceStoreError::Corrupt(_))));
    // And the netlog round-trips faithfully through its own API.
    let back = unpack_netlog(&packed_log).unwrap();
    assert_eq!(back.records(), log.records());
    assert_eq!(back.utilization(), log.utilization());
}

#[test]
fn semantic_corruption_is_caught_by_trace_check() {
    // A packed file can be structurally perfect yet describe an invalid
    // trace (duplicate ids). Build one through the writer directly.
    let mut w = commchar_tracestore::TraceWriter::new(Vec::new(), 4).unwrap();
    w.push(CommEvent::new(7, 0, 0, 1, 8, EventKind::Data)).unwrap();
    w.push(CommEvent::new(7, 5, 1, 2, 8, EventKind::Data)).unwrap();
    let bytes = w.finish().unwrap();
    match load_trace(&bytes) {
        Err(TraceStoreError::Corrupt(msg)) => assert!(msg.contains("duplicate"), "{msg}"),
        other => panic!("expected Corrupt(duplicate id), got {other:?}"),
    }
}
