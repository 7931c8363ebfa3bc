//! Corrupt-input hardening: every malformed-file shape must surface as a
//! typed [`TraceStoreError`] — never a panic — and a packed trace read
//! whole through [`TraceFile`]'s one event loop must fail the same way
//! from memory and from disk (opened by [`FileReader::open`]), on any
//! number of workers.

use std::sync::atomic::{AtomicUsize, Ordering};

use commchar_core::analyze::try_analyze_blocks;
use commchar_core::CharError;
use commchar_mesh::MeshConfig;
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::writer::pack_trace_with_block_len;
use commchar_tracestore::{
    load_trace, pack_trace, FileReader, PackedReader, TraceFile, TraceStoreError, FOOTER_MAGIC,
    MAGIC,
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

/// Runs `f` on the path of a temporary file holding `bytes`, then
/// removes the file.
fn on_disk<T>(bytes: &[u8], f: impl FnOnce(&std::path::Path) -> T) -> T {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "commchar-corrupt-{}-{}.cct",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let result = f(&path);
    std::fs::remove_file(&path).unwrap();
    result
}

/// `bytes` read whole as a packed trace, without sniffing the format:
/// the packed variant of a [`TraceFile`] over memory, on `jobs` workers.
fn packed_in_memory(bytes: &[u8], jobs: usize) -> Result<CommTrace, TraceStoreError> {
    TraceFile::Packed(PackedReader::from_bytes(bytes)?).into_trace(jobs)
}

/// The same read through the packed variant over the file at `path`.
fn packed_from_disk(path: &std::path::Path, jobs: usize) -> Result<CommTrace, TraceStoreError> {
    TraceFile::Packed(FileReader::open(path)?).into_trace(jobs)
}

/// Worker counts every corrupt file is read at.
const JOBS: [usize; 3] = [1, 2, 4];

/// Asserts that `bytes`, read whole as a packed trace from memory and
/// from disk at every count in [`JOBS`], fail with one error, and
/// returns it.
fn same_error_both_ways(bytes: &[u8]) -> TraceStoreError {
    let mem = packed_in_memory(bytes, 1).expect_err("corrupt input decoded in memory");
    on_disk(bytes, |path| {
        for jobs in JOBS {
            let file = packed_from_disk(path, jobs).expect_err("corrupt input decoded from disk");
            assert_eq!(format!("{file:?}"), format!("{mem:?}"), "disk at {jobs} workers");
            let again = packed_in_memory(bytes, jobs).expect_err("corrupt input decoded");
            assert_eq!(format!("{again:?}"), format!("{mem:?}"), "memory at {jobs} workers");
        }
    });
    mem
}

#[test]
fn truncated_file_at_every_prefix_is_a_typed_error() {
    let packed = pack_with_blocks(64);
    for cut in 0..packed.len() {
        match same_error_both_ways(&packed[..cut]) {
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
    let err = same_error_both_ways(&packed[..40]);
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
    match same_error_both_ways(&packed) {
        TraceStoreError::BadMagic { found, .. } => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A damaged trailing magic is also a BadMagic, not a silent misparse.
    let mut packed = pack_trace(&sample_trace());
    let last = packed.len() - 1;
    packed[last] ^= 0xff;
    assert!(matches!(same_error_both_ways(&packed), TraceStoreError::BadMagic { .. }));
}

#[test]
fn checksum_mismatch_names_the_block() {
    let packed = pack_with_blocks(64);
    let reader = PackedReader::from_bytes(&packed).unwrap();
    assert!(reader.block_count() > 2, "need several blocks for this test");
    // Flip one payload byte in the middle of the file: the block headers
    // start right after the file header, so pick a byte inside block 1's
    // payload by corrupting past the first block.
    let mut corrupt = packed.clone();
    let mid = packed.len() / 2;
    corrupt[mid] ^= 0x55;
    match same_error_both_ways(&corrupt) {
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
    match same_error_both_ways(&bytes) {
        TraceStoreError::VarintOverflow { context } => assert_eq!(context, "node count"),
        other => panic!("expected VarintOverflow, got {other:?}"),
    }
}

#[test]
fn footer_lies_are_structural_errors() {
    let packed = pack_with_blocks(50);
    // Corrupt the footer length field (4 bytes before the footer magic).
    let mut corrupt = packed.clone();
    let len_at = packed.len() - FOOTER_MAGIC.len() - 4;
    corrupt[len_at] = corrupt[len_at].wrapping_add(1);
    same_error_both_ways(&corrupt);
    // An absurd footer length cannot panic either.
    let mut corrupt = packed.clone();
    corrupt[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    same_error_both_ways(&corrupt);
}

#[test]
fn parallel_decode_reports_corruption_too() {
    let packed = pack_with_blocks(32);
    let layout = Layout::of(&packed);
    assert!(layout.blocks.len() > 6, "need several blocks for this test");
    // Flip a payload byte in blocks 2 and 5: whichever worker decodes
    // first, the error is block 2's.
    let mut corrupt = packed.clone();
    for b in [2, 5] {
        corrupt[layout.blocks[b].0 + 8] ^= 0xff;
    }
    for jobs in [1, 2, 3, 4, 8] {
        let err = packed_in_memory(&corrupt, jobs).unwrap_err();
        assert!(matches!(err, TraceStoreError::ChecksumMismatch { block: 2, .. }), "{err:?}");
    }
    assert!(matches!(same_error_both_ways(&corrupt), TraceStoreError::ChecksumMismatch { .. }));
    for jobs in JOBS {
        assert!(packed_in_memory(&packed, jobs).is_ok());
        assert!(on_disk(&packed, |path| packed_from_disk(path, jobs)).is_ok());
    }
}

#[test]
fn wrong_stream_kind_is_rejected() {
    // The byte after the magic must be 1 (events). With and without
    // blocks, both readers name any other value.
    for trace in [sample_trace(), CommTrace::new(8)] {
        for kind in [0u8, 2, 9, 0xff] {
            let mut packed = pack_trace(&trace);
            packed[MAGIC.len()] = kind;
            let err = same_error_both_ways(&packed);
            assert!(matches!(err, TraceStoreError::BadStreamKind(k) if k == kind), "{err:?}");
            assert_eq!(err.to_string(), format!("unknown stream kind {kind}"));
        }
    }
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

/// The sample trace packed `block_len` events to a block.
fn pack_with_blocks(block_len: usize) -> Vec<u8> {
    pack_trace_with_block_len(&sample_trace(), block_len)
}

/// Appends `v` as a LEB128 varint, as the format writes its counts.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint at `*at`, moving past it.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Where a well-formed packed file keeps its parts, read by hand so that
/// a test can patch them one at a time.
#[derive(Debug)]
struct Layout {
    /// The file's bytes.
    bytes: Vec<u8>,
    /// Where the node-count varint starts, and where the blocks start.
    nodes_at: usize,
    header_end: usize,
    /// Each block's frame offset, payload length and record count.
    blocks: Vec<(usize, usize, u64)>,
    /// Where the footer payload starts: the end of the last block.
    footer_start: usize,
}

impl Layout {
    fn of(bytes: &[u8]) -> Layout {
        let nodes_at = MAGIC.len() + 1;
        let mut at = nodes_at;
        get_varint(bytes, &mut at);
        let header_end = at;
        let len_at = bytes.len() - FOOTER_MAGIC.len() - 4;
        let footer_len = u32::from_le_bytes(bytes[len_at..len_at + 4].try_into().unwrap());
        let footer_start = len_at - footer_len as usize;
        let mut at = footer_start;
        let mut offset = header_end;
        let blocks = (0..get_varint(bytes, &mut at))
            .map(|_| {
                let payload = get_varint(bytes, &mut at) as usize;
                let block = (offset, payload, get_varint(bytes, &mut at));
                offset += 8 + payload;
                block
            })
            .collect();
        Layout { bytes: bytes.to_vec(), nodes_at, header_end, blocks, footer_start }
    }

    /// The file with the footer rebuilt: `count` blocks listed, the
    /// entries `blocks`, then `extra` bytes, and the footer length that
    /// covers them all.
    fn with_footer(&self, count: u64, blocks: &[(usize, usize, u64)], extra: &[u8]) -> Vec<u8> {
        let mut out = self.bytes[..self.footer_start].to_vec();
        put_varint(&mut out, count);
        for &(_, payload, records) in blocks {
            put_varint(&mut out, payload as u64);
            put_varint(&mut out, records);
        }
        out.extend_from_slice(extra);
        let footer_len = (out.len() - self.footer_start) as u32;
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(&FOOTER_MAGIC);
        out
    }
}

/// One hand-patched file per structural message of the packed reader,
/// each read three ways: by `load_trace`, from disk through
/// `TraceFile::open` at 1 and 3 workers, and by `try_analyze_blocks` over
/// the reader from memory and the one `FileReader::open` gives, which
/// fails either at open or, for a block, as `CharError::Store`. All of
/// them give the same text.
#[test]
fn every_structural_error_reads_the_same_three_ways() {
    let base = Layout::of(&pack_with_blocks(64));
    assert!(base.blocks.len() >= 4, "need several blocks for this table");
    let n = base.blocks.len() as u64;
    let (b1_at, b1_len, b1_count) = base.blocks[1];
    let last_frame = 8 + base.blocks.last().unwrap().1;
    let len_at = base.bytes.len() - FOOTER_MAGIC.len() - 4;

    let mut zero_nodes = base.bytes.clone();
    zero_nodes[base.nodes_at] = 0;
    let mut overlap = base.bytes.clone();
    let overlapping = (len_at - base.header_end + 1) as u32;
    overlap[len_at..len_at + 4].copy_from_slice(&overlapping.to_le_bytes());
    let too_many = base.with_footer(base.footer_start as u64 + 1, &[], &[]);
    let mut long_block = base.blocks.clone();
    long_block[1].1 += base.footer_start;
    let past_footer = base.with_footer(n, &long_block, &[]);
    let unindexed = base.with_footer(n - 1, &base.blocks[..base.blocks.len() - 1], &[]);
    let trailing = base.with_footer(n, &base.blocks, &[0, 0, 0]);
    let mut frame_len = base.bytes.clone();
    frame_len[b1_at..b1_at + 4].copy_from_slice(&(b1_len as u32 + 1).to_le_bytes());
    let mut miscounted = base.blocks.clone();
    miscounted[1].2 += 1;
    let miscounted = base.with_footer(n, &miscounted, &[]);

    let cases: Vec<(Vec<u8>, String, bool)> = vec![
        (zero_nodes, "header declares zero nodes".into(), true),
        (overlap, format!("footer length {overlapping} overlaps the header"), true),
        (
            too_many,
            format!(
                "footer claims {} blocks in a {}-byte file",
                base.footer_start + 1,
                base.footer_start
            ),
            true,
        ),
        (past_footer, "block 1 extends past the footer".into(), true),
        (
            unindexed,
            format!("{last_frame} unindexed bytes between the last block and the footer"),
            true,
        ),
        (trailing, "3 trailing bytes in the footer".into(), true),
        (
            frame_len,
            format!(
                "block 1 header length {} disagrees with the footer index ({b1_len} bytes)",
                b1_len + 1
            ),
            false,
        ),
        (
            miscounted,
            format!("block 1 decoded {b1_count} records but the index promised {}", b1_count + 1),
            false,
        ),
    ];
    let shape = MeshConfig::for_nodes(8).shape;
    for (bytes, msg, at_open) in cases {
        let want = format!("corrupt trace store: {msg}");
        assert_eq!(load_trace(&bytes).unwrap_err().to_string(), want);
        let analyzed = |opened: Result<PackedReader, TraceStoreError>, from: &str| match opened {
            Err(e) => {
                assert!(at_open, "{msg}: failed at open from {from}");
                assert_eq!(e.to_string(), want, "from {from}");
            }
            Ok(reader) => {
                assert!(!at_open, "{msg}: opened from {from}");
                for block_jobs in [1, 3] {
                    match try_analyze_blocks(&reader, shape, 1, block_jobs) {
                        Err(CharError::Store(e)) => {
                            assert_eq!(e, want, "from {from}, {block_jobs} workers")
                        }
                        other => panic!("{msg}: expected CharError::Store, got {other:?}"),
                    }
                }
            }
        };
        analyzed(PackedReader::from_bytes(&bytes), "memory");
        on_disk(&bytes, |path| {
            for jobs in [1, 3] {
                let err = TraceFile::open(path).and_then(|f| f.into_trace(jobs)).unwrap_err();
                assert_eq!(err.to_string(), want, "{jobs} workers");
            }
            analyzed(FileReader::open(path), "disk");
        });
    }
}
