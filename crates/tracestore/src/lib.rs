//! # commchar-tracestore
//!
//! A blocked, columnar, binary on-disk format for [`CommTrace`] events and
//! [`NetLog`](commchar_mesh::NetLog) records — the data-loading layer of
//! the characterization methodology once traces reach the "millions of
//! messages" scale where JSON-lines parse time and file size dominate the
//! whole pipeline.
//!
//! ## File layout
//!
//! ```text
//! [ magic "CCTRACE1" ][ u8 stream kind ][ varint nodes ]
//! [ block ]*
//! [ footer payload ][ u32le footer length ][ magic "CCTFOOT1" ]
//! ```
//!
//! Each block is `[u32le payload length][u32le FNV-1a checksum][payload]`;
//! the payload stores up to `block_len` records as *columns* (all ids,
//! then all times, …), each column delta- and/or LEB128-varint encoded,
//! with a small dictionary + bit-packed indices for event kinds and a
//! presence bitmap for causal dependencies (see [`columns`] for the exact
//! encodings). The footer lists every block's payload length and record
//! count, so a reader can locate all blocks without scanning the file,
//! decode them **in parallel** across worker threads
//! ([`PackedReader::read_trace_parallel`]), or stream records in order with
//! one-block memory ([`PackedReader::for_each_event`]). One reader type
//! serves both homes of the bytes: [`TraceReader`] borrows each block from
//! memory, [`FileReader`] reads each block from disk with one positioned
//! read and keeps only the index in memory (the out-of-core path).
//!
//! Corrupt input never panics: truncation, a bad magic, a checksum
//! mismatch and an over-long varint each surface as a typed
//! [`TraceStoreError`].
//!
//! ## Example
//!
//! ```
//! use commchar_trace::{CommEvent, CommTrace, EventKind};
//!
//! let mut tr = CommTrace::new(4);
//! tr.push(CommEvent::new(0, 10, 0, 1, 64, EventKind::Data));
//! tr.push(CommEvent::new(1, 25, 1, 2, 8, EventKind::Control).after(0));
//! let packed = commchar_tracestore::pack_trace(&tr);
//! assert!(commchar_tracestore::is_packed(&packed));
//! let back = commchar_tracestore::unpack_trace(&packed).unwrap();
//! assert_eq!(back.events(), tr.events());
//! // `load_trace` sniffs the format: packed bytes and JSON-lines both work.
//! let again = commchar_tracestore::load_trace(tr.to_jsonl().as_bytes()).unwrap();
//! assert_eq!(again.events(), tr.events());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod reader;
mod varint;
pub mod writer;

use commchar_trace::{CommEvent, CommTrace};

pub use reader::{
    unpack_netlog, unpack_trace, unpack_trace_parallel, FileReader, PackedBytes, PackedReader,
    StreamBlockReader, TraceReader,
};
pub use writer::{pack_netlog, pack_trace, NetLogWriter, TraceWriter, DEFAULT_BLOCK_LEN};

/// Leading file magic (the trailing byte doubles as the format version).
pub const MAGIC: [u8; 8] = *b"CCTRACE1";

/// Trailing footer magic; the 4 bytes before it hold the footer length.
pub const FOOTER_MAGIC: [u8; 8] = *b"CCTFOOT1";

/// What a packed file contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// [`commchar_trace::CommEvent`] records (a `CommTrace`).
    Events,
    /// [`commchar_mesh::MsgRecord`] records (a `NetLog`).
    NetLog,
}

impl StreamKind {
    pub(crate) fn code(self) -> u8 {
        match self {
            StreamKind::Events => 1,
            StreamKind::NetLog => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Result<Self, TraceStoreError> {
        match code {
            1 => Ok(StreamKind::Events),
            2 => Ok(StreamKind::NetLog),
            other => Err(TraceStoreError::BadStreamKind(other)),
        }
    }

    /// Lowercase label (`events` / `netlog`).
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Events => "events",
            StreamKind::NetLog => "netlog",
        }
    }
}

/// Typed decode/IO failure. Every corrupt-input shape maps to a variant —
/// the reader never panics on untrusted bytes.
#[derive(Debug)]
pub enum TraceStoreError {
    /// The input ended before `needed` bytes of `context` were available.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading or trailing magic bytes did not match.
    BadMagic {
        /// The bytes found where a magic was expected (possibly short).
        found: Vec<u8>,
        /// The magic that was checked: [`MAGIC`] at the start of a stream,
        /// [`FOOTER_MAGIC`] at the end of a file.
        expected: [u8; 8],
    },
    /// The header declares a stream kind this version does not know.
    BadStreamKind(u8),
    /// A block's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Zero-based block number.
        block: usize,
        /// Checksum stored in the block header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A varint ran past the 10-byte limit for 64-bit values (or past the
    /// end of its column) while reading `context`.
    VarintOverflow {
        /// What was being decoded when the varint overflowed.
        context: &'static str,
    },
    /// An event stream's header declares more processors than
    /// [`MAX_NODES`](commchar_trace::MAX_NODES).
    TooManyNodes {
        /// The declared node count.
        nodes: u64,
    },
    /// Structurally valid bytes describing an impossible trace (footer
    /// inconsistency, out-of-range endpoint, unknown kind code, …).
    Corrupt(String),
    /// The input sniffed as JSON-lines and the JSON-lines parser rejected
    /// it (message includes the offending line number and an excerpt).
    Jsonl(String),
    /// An I/O error from the underlying writer.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStoreError::Truncated { context, needed, have } => {
                write!(f, "truncated input: {context} needs {needed} bytes, have {have}")
            }
            TraceStoreError::BadMagic { found, expected } => write!(
                f,
                "bad magic {found:02x?} (expected {} {expected:02x?})",
                String::from_utf8_lossy(expected)
            ),
            TraceStoreError::BadStreamKind(code) => write!(f, "unknown stream kind {code}"),
            TraceStoreError::ChecksumMismatch { block, stored, computed } => write!(
                f,
                "checksum mismatch in block {block}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            TraceStoreError::VarintOverflow { context } => {
                write!(f, "varint out of range while decoding {context}")
            }
            TraceStoreError::TooManyNodes { nodes } => write!(
                f,
                "header declares {nodes} nodes, above the {}-node limit",
                commchar_trace::MAX_NODES
            ),
            TraceStoreError::Corrupt(msg) => write!(f, "corrupt trace store: {msg}"),
            TraceStoreError::Jsonl(msg) => write!(f, "JSON-lines trace: {msg}"),
            TraceStoreError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TraceStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceStoreError {
    fn from(e: std::io::Error) -> Self {
        TraceStoreError::Io(e)
    }
}

/// Whether `bytes` begin with the packed-trace magic.
pub fn is_packed(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Loads a [`CommTrace`] from either on-disk format, sniffed by magic
/// bytes: packed input decodes through the block reader (in parallel when
/// more than one worker is available), anything else is treated as the
/// JSON-lines format of [`CommTrace::from_jsonl`].
///
/// # Errors
///
/// Returns a [`TraceStoreError`] describing the first problem found in
/// whichever format was detected.
pub fn load_trace(bytes: &[u8]) -> Result<CommTrace, TraceStoreError> {
    if is_packed(bytes) {
        return unpack_trace_parallel(bytes, 0);
    }
    let text = std::str::from_utf8(bytes).map_err(|e| {
        let line = 1 + bytes[..e.valid_up_to()].iter().filter(|&&b| b == b'\n').count();
        TraceStoreError::Jsonl(format!("input is neither packed nor UTF-8: {e} (line {line})"))
    })?;
    CommTrace::from_jsonl(text).map_err(TraceStoreError::Jsonl)
}

/// Encodes one run of events as a standalone CCTRACE1 block payload — the
/// exact bytes a [`TraceWriter`] would put inside one block frame, without
/// the file header/footer. This is the unit the `commchar-serve` protocol
/// ships in its `TraceBlocks` frames, so a served stream and a packed file
/// share one column codec.
pub fn encode_event_block(events: &[CommEvent]) -> Vec<u8> {
    columns::encode_events(events)
}

/// Decodes one standalone CCTRACE1 block payload (the inverse of
/// [`encode_event_block`]); `nodes` bounds endpoint validation exactly as
/// the file reader does.
///
/// # Errors
///
/// A typed [`TraceStoreError`] on any corrupt-payload shape — truncation,
/// varint overflow, out-of-range endpoints, bad kind codes.
pub fn decode_event_block(payload: &[u8], nodes: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
    columns::decode_events(payload, nodes)
}

/// FNV-1a 32-bit checksum over a byte slice — the per-block checksum of
/// the file format, shared by the `commchar-serve` frame protocol.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_trace::{CommEvent, EventKind};

    #[test]
    fn sniffing_dispatches_on_magic() {
        let mut tr = CommTrace::new(3);
        tr.push(CommEvent::new(0, 5, 0, 2, 16, EventKind::Sync));
        let packed = pack_trace(&tr);
        assert!(is_packed(&packed));
        assert!(!is_packed(tr.to_jsonl().as_bytes()));
        assert_eq!(load_trace(&packed).unwrap().events(), tr.events());
        assert_eq!(load_trace(tr.to_jsonl().as_bytes()).unwrap().events(), tr.events());
    }

    #[test]
    fn load_rejects_garbage_with_typed_errors() {
        // Non-UTF8, non-magic bytes.
        let err = load_trace(&[0xff, 0xfe, 0x00, 0x01]).unwrap_err();
        assert!(matches!(err, TraceStoreError::Jsonl(_)), "{err}");
        // A stray non-UTF-8 byte deep in a JSON-lines trace: the error
        // names its line (blank lines count).
        let input = b"{\"nodes\":2}\n\n{\"id\":0,\"t\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"d\xe1ta\"}\n";
        let err = load_trace(input).unwrap_err().to_string();
        assert!(err.contains("neither packed nor UTF-8") && err.ends_with("(line 3)"), "{err}");
        // UTF-8 but not a trace.
        let err = load_trace(b"hello world\n").unwrap_err();
        assert!(matches!(err, TraceStoreError::Jsonl(_)), "{err}");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceStoreError::ChecksumMismatch { block: 3, stored: 1, computed: 2 };
        assert!(e.to_string().contains("block 3"));
        let e = TraceStoreError::Truncated { context: "footer", needed: 12, have: 4 };
        assert!(e.to_string().contains("footer"));
        let e = TraceStoreError::VarintOverflow { context: "event time" };
        assert!(e.to_string().contains("event time"));
    }
}
