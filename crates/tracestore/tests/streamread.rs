//! [`StreamBlockReader`]: sequential block iteration over a non-seekable
//! CCTRACE1 stream must yield exactly the blocks the footer-indexed
//! reader sees, end cleanly at the footer, and surface corruption as
//! typed errors — the contract `serve-feed --trace -` leans on.

use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::writer::pack_trace_with_block_len;
use commchar_tracestore::{
    decode_event_block, pack_trace, PackedReader, StreamBlockReader, TraceStoreError,
};

fn sample_trace(events: u64) -> CommTrace {
    let mut tr = CommTrace::new(6);
    for t in 0..events {
        let src = (t % 6) as u16;
        let dst = ((t * 5 + 1) % 6) as u16;
        if src != dst {
            let kind = match t % 3 {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            tr.push(CommEvent::new(t, t * 7, src, dst, 16 + (t % 50) as u32, kind));
        }
    }
    tr
}

#[test]
fn stream_blocks_match_the_indexed_reader() {
    let tr = sample_trace(500);
    let packed = pack_trace_with_block_len(&tr, 37);
    let indexed = PackedReader::from_bytes(&packed).unwrap();
    let mut stream = StreamBlockReader::new(&packed[..]).unwrap();
    assert_eq!(stream.nodes(), 6);
    let mut all = Vec::new();
    let mut blocks = 0usize;
    while let Some(payload) = stream.next_block().unwrap() {
        all.extend(decode_event_block(&payload, stream.nodes()).unwrap());
        blocks += 1;
    }
    assert_eq!(blocks, indexed.block_count());
    assert_eq!(stream.blocks_read(), blocks);
    assert_eq!(all, tr.events());
    // Once the footer is reached, further calls keep returning None.
    assert!(stream.next_block().unwrap().is_none());
}

#[test]
fn empty_trace_streams_zero_blocks() {
    let packed = pack_trace(&CommTrace::new(4));
    let mut stream = StreamBlockReader::new(&packed[..]).unwrap();
    assert_eq!(stream.nodes(), 4);
    assert!(stream.next_block().unwrap().is_none());
    assert_eq!(stream.blocks_read(), 0);
}

#[test]
fn header_errors_are_typed() {
    assert!(matches!(
        StreamBlockReader::new(&b"NOTATRC1"[..]).unwrap_err(),
        TraceStoreError::BadMagic { .. }
    ));
    assert!(matches!(
        StreamBlockReader::new(&b"CC"[..]).unwrap_err(),
        TraceStoreError::BadMagic { .. }
    ));
    // Valid magic, a stream-kind code other than 1 (events).
    for kind in [2, 9] {
        let bytes = [&b"CCTRACE1"[..], &[kind, 4]].concat();
        assert!(matches!(
            StreamBlockReader::new(&bytes[..]).unwrap_err(),
            TraceStoreError::BadStreamKind(k) if k == kind
        ));
    }
}

#[test]
fn truncation_without_a_footer_is_typed() {
    let packed = pack_trace_with_block_len(&sample_trace(200), 16);
    // Cut mid-way through the block run: the stream ends with no valid
    // footer region, so the reader reports truncation, not a clean end.
    let cut = &packed[..packed.len() / 2];
    let mut stream = StreamBlockReader::new(cut).unwrap();
    let err = loop {
        match stream.next_block() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("truncated stream ended cleanly"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, TraceStoreError::Truncated { .. }), "{err}");
}

#[test]
fn midstream_corruption_is_a_checksum_mismatch_not_an_early_end() {
    let tr = sample_trace(400);
    let mut packed = pack_trace_with_block_len(&tr, 25);
    // Flip one payload byte in the second block: frame 1 starts after the
    // header (8 magic + 1 kind + 1 nodes varint) and frame 0.
    let header_end = 10;
    let b0_len =
        u32::from_le_bytes(packed[header_end..header_end + 4].try_into().unwrap()) as usize;
    let corrupt_at = header_end + 8 + b0_len + 8 + 3;
    packed[corrupt_at] ^= 0xff;
    let mut stream = StreamBlockReader::new(&packed[..]).unwrap();
    assert!(stream.next_block().unwrap().is_some(), "block 0 is intact");
    // The trailing *real* footer must not let the corrupt block pass as a
    // clean end-of-stream: the footer-length consistency check fails.
    let err = stream.next_block().unwrap_err();
    assert!(matches!(err, TraceStoreError::ChecksumMismatch { block: 1, .. }), "{err}");
}

/// `VmPeak` of this process in KiB, from `/proc/self/status`; `None`
/// where `/proc` is absent.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmPeak:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// A frame header claiming 4 GiB, followed by 10 bytes and the end of the
/// stream, is a truncated payload, and reading it maps no more than the
/// bytes that arrived: the length is untrusted until they do.
#[test]
fn a_forged_block_length_reserves_nothing() {
    // The 10-byte header of an empty 4-node stream, then the forged frame.
    let mut bytes = pack_trace(&CommTrace::new(4));
    bytes.truncate(10);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&[7u8; 10]);
    let before = vm_peak_kib();
    let mut stream = StreamBlockReader::new(&bytes[..]).unwrap();
    let err = stream.next_block().unwrap_err();
    assert!(
        matches!(
            err,
            TraceStoreError::Truncated {
                context: "block payload",
                needed: 4_294_967_295,
                have: 10
            }
        ),
        "{err:?}"
    );
    if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
        assert!(after - before < 1 << 20, "VmPeak rose {} KiB", after - before);
    }
}
