//! # commchar-tracestore
//!
//! A blocked, columnar, binary on-disk format for [`CommTrace`] events —
//! the data-loading layer of the characterization methodology once traces
//! reach the "millions of messages" scale where JSON-lines parse time and
//! file size dominate the whole pipeline.
//!
//! ## File layout
//!
//! ```text
//! [ magic "CCTRACE1" ][ u8 stream kind: 1 = events ][ varint nodes ]
//! [ block ]*
//! [ footer payload ][ u32le footer length ][ magic "CCTFOOT1" ]
//! ```
//!
//! Each block is `[u32le payload length][u32le FNV-1a checksum][payload]`;
//! the payload stores up to `block_len` events as *columns* (all ids,
//! then all times, …), each column delta- and/or LEB128-varint encoded,
//! with a small dictionary + bit-packed indices for event kinds and a
//! presence bitmap for causal dependencies (see [`columns`] for the exact
//! encodings). The footer lists every block's payload length and event
//! count, so a reader can locate all blocks without scanning the file,
//! decode them **in parallel** across worker threads
//! ([`PackedReader::read_trace_parallel`]), or stream records in order with
//! one-block memory ([`PackedReader::for_each_event`]). One reader type
//! serves both homes of the bytes: [`TraceReader`] borrows each block from
//! memory, [`FileReader`] reads each block from disk with one positioned
//! read and keeps only the index in memory (the out-of-core path).
//!
//! Corrupt input never panics: truncation, a bad magic, a stream kind
//! other than 1, a checksum mismatch and an over-long varint each surface
//! as a typed [`TraceStoreError`].
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

use std::cell::RefCell;
use std::fs::File;
use std::io::{Chain, Cursor, Read};
use std::path::Path;

use commchar_trace::{CommEvent, CommTrace, JsonlChunk, JsonlError, JsonlReader, TraceChecker};

pub use reader::{
    unpack_trace, unpack_trace_parallel, FileReader, PackedBytes, PackedReader, PackedSource,
    StreamBlockReader, TraceReader,
};
pub use writer::{pack_trace, TraceWriter, DEFAULT_BLOCK_LEN};

/// Leading file magic (the trailing byte doubles as the format version).
pub const MAGIC: [u8; 8] = *b"CCTRACE1";

/// Trailing footer magic; the 4 bytes before it hold the footer length.
pub const FOOTER_MAGIC: [u8; 8] = *b"CCTFOOT1";

/// The header's stream-kind byte: a CCTRACE1 stream holds
/// [`CommEvent`]s. Any other value is [`TraceStoreError::BadStreamKind`].
pub(crate) const EVENTS_KIND: u8 = 1;

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
    /// The header's stream-kind byte is not 1 (events).
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
    /// A block payload or the footer is too long for the `u32le` length
    /// field the format gives it.
    TooLarge {
        /// What was being written: `"block payload"` or `"footer"`.
        what: &'static str,
        /// Its length in bytes.
        bytes: usize,
    },
    /// An I/O error from the underlying reader or writer.
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
            TraceStoreError::TooLarge { what, bytes } => write!(
                f,
                "{what} of {bytes} bytes does not fit its u32 length field (at most {})",
                u32::MAX
            ),
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

impl From<JsonlError> for TraceStoreError {
    fn from(e: JsonlError) -> Self {
        match e {
            JsonlError::Io(e) => TraceStoreError::Io(e),
            JsonlError::NotUtf8 { detail, line } => TraceStoreError::Jsonl(format!(
                "input is neither packed nor UTF-8: {detail} (line {line})"
            )),
            JsonlError::Invalid(msg) => TraceStoreError::Jsonl(msg),
        }
    }
}

/// Whether `bytes` begin with the packed-trace magic.
pub fn is_packed(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Loads a [`CommTrace`] from either on-disk format, sniffed by magic
/// bytes: packed input decodes through the block reader (in parallel when
/// more than one worker is available), anything else is treated as the
/// JSON-lines format of [`CommTrace::from_jsonl`]. [`TraceFile`] reads
/// the same formats from disk without holding the trace.
///
/// # Errors
///
/// Returns a [`TraceStoreError`] describing the first problem found in
/// whichever format was detected.
pub fn load_trace(bytes: &[u8]) -> Result<CommTrace, TraceStoreError> {
    if is_packed(bytes) {
        return unpack_trace_parallel(bytes, 0);
    }
    Ok(CommTrace::read_jsonl(bytes)?)
}

/// What a [`TraceFile`] reads JSON-lines from: the bytes read to sniff
/// the format, then the rest of the file.
pub type JsonlSource = Chain<Cursor<Vec<u8>>, File>;

/// A trace file opened for one streaming pass, in either format sniffed by
/// magic bytes: the out-of-core counterpart of [`load_trace`]. A packed
/// regular file is read one block at a time through a [`PackedReader`],
/// JSON-lines one [`JsonlChunk`] of whole lines at a time through a
/// [`JsonlReader`], and [`for_each_event`](Self::for_each_event) checks
/// the trace as it streams. Packed input that is not a regular file (a
/// pipe) cannot be read at offsets, so it is read whole into memory
/// first; the packed format is the compact one.
#[derive(Debug)]
pub enum TraceFile {
    /// A CCTRACE1 event stream, its header and footer index read.
    Packed(PackedReader<PackedSource>),
    /// A JSON-lines trace, its header line read.
    Jsonl(JsonlReader<JsonlSource>),
}

impl TraceFile {
    /// Opens `path` and reads its header (for a packed file, also the
    /// footer index).
    ///
    /// # Errors
    ///
    /// I/O failures, and the errors [`load_trace`] gives for a bad header,
    /// stream kind or footer index.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceStoreError> {
        let mut file = File::open(path)?;
        // A pipe may hand over the magic in pieces: read until it is whole.
        let mut head = Vec::with_capacity(MAGIC.len());
        (&mut file).take(MAGIC.len() as u64).read_to_end(&mut head)?;
        if !is_packed(&head) {
            return Ok(TraceFile::Jsonl(JsonlReader::new(Cursor::new(head).chain(file))?));
        }
        let source = if file.metadata()?.is_file() {
            PackedSource::File(file)
        } else {
            file.read_to_end(&mut head)?;
            PackedSource::Memory(head)
        };
        Ok(TraceFile::Packed(PackedReader::new(source)?))
    }

    /// Processor count from the header.
    pub fn nodes(&self) -> usize {
        match self {
            TraceFile::Packed(r) => r.nodes(),
            TraceFile::Jsonl(r) => r.nodes(),
        }
    }

    /// Streams every event to `f` in file order, then checks the trace
    /// invariants over all of them. A broken invariant fails only after
    /// the last event, so a caller that must produce nothing for an
    /// invalid trace commits its output once this returns `Ok`.
    ///
    /// `jobs` workers (`0` = one per hardware thread) decode the blocks or
    /// parse the chunks, as
    /// [`for_each_event_unchecked`](Self::for_each_event_unchecked) says;
    /// the events, the checker's input and the error are the same for any
    /// `jobs`.
    ///
    /// # Errors
    ///
    /// `f`'s first error, else the error [`load_trace`] gives for the
    /// same file.
    pub fn for_each_event<E: From<TraceStoreError>>(
        self,
        jobs: usize,
        mut f: impl FnMut(CommEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        let packed = matches!(self, TraceFile::Packed(_));
        let mut checker = TraceChecker::default();
        self.for_each_event_unchecked(jobs, |e| {
            checker.push(&e);
            f(e)
        })?;
        checker.finish_on(commchar_pool::resolve_jobs(jobs)).map_err(|msg| {
            if packed {
                TraceStoreError::Corrupt(msg)
            } else {
                TraceStoreError::Jsonl(msg)
            }
        })?;
        Ok(())
    }

    /// Streams every event to `f` in file order, checking each line or
    /// block as it is read but not the trace invariants
    /// [`for_each_event`](Self::for_each_event) adds: for a second pass
    /// over a file that has already been checked.
    ///
    /// The calling thread reads the input and calls `f`; `jobs` workers
    /// (`0` = one per hardware thread, `1` = none: the calling thread does
    /// it all) decode the packed blocks or parse the JSON-lines chunks on
    /// a [`run_ordered`](commchar_pool::run_ordered) pipeline, which hands
    /// them back in file order and holds at most two per worker. Chunk
    /// buffers are reused, so memory stays at that window. A worker's
    /// thread starts with the first chunk or block queued for it, so an
    /// input of `n` chunks starts at most `n` threads whatever `jobs` is.
    ///
    /// # Errors
    ///
    /// `f`'s first error, else the first bad line or block: the first in
    /// file order, for any `jobs`.
    pub fn for_each_event_unchecked<E: From<TraceStoreError>>(
        self,
        jobs: usize,
        mut f: impl FnMut(CommEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut failed = None;
        let mut each = |e| f(e).map_err(|e| failed = Some(e));
        match self.each_event(jobs, &mut each) {
            Ok(()) => Ok(()),
            Err(Halt::Input(e)) => Err(e.into()),
            Err(Halt::Caller) => Err(failed.expect("the caller's error is kept")),
        }
    }

    /// The one event loop behind both `for_each_event` forms, monomorphic
    /// so every caller shares one copy of the pipeline.
    fn each_event(
        self,
        jobs: usize,
        f: &mut dyn FnMut(CommEvent) -> Result<(), ()>,
    ) -> Result<(), Halt> {
        match self {
            TraceFile::Packed(reader) => {
                let workers = commchar_pool::resolve_jobs_for(jobs, reader.block_count());
                commchar_pool::run_ordered(
                    vec![(); workers],
                    0..reader.block_count(),
                    |(), block| reader.decode_events(block),
                    |events| -> Result<(), Halt> {
                        events?.into_iter().try_for_each(|e| f(e).map_err(|()| Halt::Caller))
                    },
                )?;
            }
            TraceFile::Jsonl(mut reader) => {
                let nodes = reader.nodes();
                // Spent chunk and event buffers, back from `f`'s side.
                let spent = RefCell::new(Vec::new());
                let chunks = std::iter::from_fn(|| {
                    let (buf, events) = spent.borrow_mut().pop().unwrap_or_default();
                    Some((reader.next_chunk(buf).transpose()?, events))
                });
                commchar_pool::run_ordered(
                    vec![(); commchar_pool::resolve_jobs(jobs)],
                    chunks,
                    |(), (chunk, mut events): (Result<JsonlChunk, _>, Vec<CommEvent>)| {
                        let chunk = chunk?;
                        let parsed = chunk.parse(nodes, &mut events);
                        Ok::<_, JsonlError>((chunk.into_buffer(), events, parsed))
                    },
                    |parsed| -> Result<(), Halt> {
                        let (buf, mut events, parsed) = parsed?;
                        events.drain(..).try_for_each(|e| f(e).map_err(|()| Halt::Caller))?;
                        parsed?;
                        spent.borrow_mut().push((buf, events));
                        Ok(())
                    },
                )?;
            }
        }
        Ok(())
    }
}

/// Why [`TraceFile::each_event`] stopped early.
enum Halt {
    /// The caller's `f` failed; its error is the caller's to keep.
    Caller,
    /// The input is bad.
    Input(TraceStoreError),
}

impl<E: Into<TraceStoreError>> From<E> for Halt {
    fn from(e: E) -> Self {
        Halt::Input(e.into())
    }
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

    /// The unchecked pass reads what the checked one reads, and fails on
    /// a bad line as it does, but not on a broken trace invariant.
    #[test]
    fn unchecked_pass_skips_only_the_invariants() {
        let path = std::env::temp_dir().join(format!("commchar-tracefile-{}", std::process::id()));
        let events = |unchecked: bool| {
            let (mut got, src) = (Vec::new(), TraceFile::open(&path)?);
            let push = |e| {
                got.push(e);
                Ok::<_, TraceStoreError>(())
            };
            if unchecked {
                src.for_each_event_unchecked(1, push)?;
            } else {
                src.for_each_event(1, push)?;
            }
            Ok::<_, TraceStoreError>(got)
        };
        let mut tr = CommTrace::new(2);
        tr.push(CommEvent::new(4, 1, 0, 1, 8, EventKind::Data));
        tr.push(CommEvent::new(4, 2, 1, 0, 8, EventKind::Data));
        for bytes in [tr.to_jsonl().into_bytes(), pack_trace(&tr)] {
            std::fs::write(&path, bytes).unwrap();
            let err = events(false).unwrap_err().to_string();
            assert!(err.contains("duplicate event id 4"), "{err}");
            assert_eq!(events(true).unwrap(), tr.events());
        }
        std::fs::write(&path, "{\"nodes\":2}\nnot json\n").unwrap();
        assert_eq!(events(true).unwrap_err().to_string(), events(false).unwrap_err().to_string());
        std::fs::remove_file(&path).unwrap();
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
