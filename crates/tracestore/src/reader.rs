//! Block readers. [`PackedReader`] is the seekable one: footer index,
//! checksum verification, and sequential / streaming / parallel decode,
//! over in-memory bytes ([`TraceReader`]) or an open file
//! ([`FileReader`]). [`StreamBlockReader`] walks the block frames of a
//! non-seekable stream instead.

use std::borrow::Cow;
use std::io::Read;

use commchar_trace::{CommEvent, CommTrace};

use crate::varint::Cursor;
use crate::{columns, fnv1a, TraceStoreError, EVENTS_KIND, FOOTER_MAGIC, MAGIC};

/// One block's location, from the footer index.
#[derive(Clone, Copy, Debug)]
struct BlockMeta {
    /// Absolute offset of the block's 8-byte header.
    offset: usize,
    /// Payload bytes (excluding the 8-byte header).
    payload_len: usize,
    /// Records in the block.
    count: usize,
}

/// Parses the leading magic + header from a stream's first bytes (any
/// prefix of at least [`HEADER_PREFIX`] bytes, or the whole stream if it
/// is shorter). Returns `(nodes, header_end)`.
fn parse_header(head: &[u8]) -> Result<(usize, usize), TraceStoreError> {
    if head.len() < MAGIC.len() || head[..MAGIC.len()] != MAGIC {
        let found = head[..head.len().min(MAGIC.len())].to_vec();
        return Err(TraceStoreError::BadMagic { found, expected: MAGIC });
    }
    let mut header = Cursor::new(&head[MAGIC.len()..]);
    let kind = header.byte("stream kind")?;
    if kind != EVENTS_KIND {
        return Err(TraceStoreError::BadStreamKind(kind));
    }
    let nodes = header.varint("node count")?;
    // At least one node and at most `MAX_NODES`, checked before any
    // consumer sizes per-node state by it.
    if nodes == 0 {
        return Err(TraceStoreError::Corrupt("header declares zero nodes".into()));
    }
    if nodes > commchar_trace::MAX_NODES as u64 {
        return Err(TraceStoreError::TooManyNodes { nodes });
    }
    Ok((nodes as usize, MAGIC.len() + header.pos()))
}

/// Longest possible header: magic + kind byte + 10-byte varint.
const HEADER_PREFIX: usize = MAGIC.len() + 1 + 10;

/// Validates the footer trailer (`trailer` = the last
/// `min(file_len, 12)` bytes: `[u32le len][footer magic]`) and returns
/// the footer payload's byte range `footer_start..len_at`.
fn locate_footer(
    file_len: usize,
    header_end: usize,
    trailer: &[u8],
) -> Result<(usize, usize), TraceStoreError> {
    let tail = FOOTER_MAGIC.len() + 4;
    if file_len < header_end + tail {
        return Err(TraceStoreError::Truncated {
            context: "footer trailer",
            needed: header_end + tail,
            have: file_len,
        });
    }
    let magic = &trailer[trailer.len() - FOOTER_MAGIC.len()..];
    if magic != FOOTER_MAGIC {
        return Err(TraceStoreError::BadMagic { found: magic.to_vec(), expected: FOOTER_MAGIC });
    }
    let len_bytes = &trailer[trailer.len() - tail..trailer.len() - FOOTER_MAGIC.len()];
    let footer_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let len_at = file_len - tail;
    let footer_start = len_at.checked_sub(footer_len).ok_or(TraceStoreError::Truncated {
        context: "footer payload",
        needed: footer_len + tail,
        have: file_len,
    })?;
    if footer_start < header_end {
        return Err(TraceStoreError::Corrupt(format!(
            "footer length {footer_len} overlaps the header"
        )));
    }
    Ok((footer_start, len_at))
}

/// Parses the footer payload (`bytes[footer_start..len_at]`) into the
/// block index and the total record count.
fn parse_footer(
    footer_bytes: &[u8],
    header_end: usize,
    footer_start: usize,
) -> Result<(Vec<BlockMeta>, u64), TraceStoreError> {
    let mut footer = Cursor::new(footer_bytes);
    let block_count = footer.varint("footer block count")? as usize;
    if block_count > footer_start {
        // Each block needs ≥8 bytes of file, so this count is a lie.
        return Err(TraceStoreError::Corrupt(format!(
            "footer claims {block_count} blocks in a {footer_start}-byte file"
        )));
    }
    let mut blocks = Vec::with_capacity(block_count);
    let mut offset = header_end;
    let mut records = 0u64;
    for i in 0..block_count {
        let payload_len = footer.varint("footer block length")? as usize;
        let count = footer.varint("footer block record count")? as usize;
        let end = offset.checked_add(8 + payload_len).filter(|&e| e <= footer_start).ok_or_else(
            || TraceStoreError::Corrupt(format!("block {i} extends past the footer")),
        )?;
        blocks.push(BlockMeta { offset, payload_len, count });
        records += count as u64;
        offset = end;
    }
    if offset != footer_start {
        return Err(TraceStoreError::Corrupt(format!(
            "{} unindexed bytes between the last block and the footer",
            footer_start - offset
        )));
    }

    if footer.remaining() != 0 {
        return Err(TraceStoreError::Corrupt(format!(
            "{} trailing bytes in the footer",
            footer.remaining()
        )));
    }
    Ok((blocks, records))
}

/// Verifies one block frame (`[u32le len][u32le fnv][payload]`) against
/// the footer index and its checksum, returning the payload slice.
fn verify_block(frame: &[u8], block: usize, payload_len: usize) -> Result<&[u8], TraceStoreError> {
    let stored_len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
    if stored_len != payload_len {
        return Err(TraceStoreError::Corrupt(format!(
            "block {block} header length {stored_len} disagrees with the footer index \
             ({payload_len} bytes)"
        )));
    }
    let stored = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    let payload = &frame[8..8 + payload_len];
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(TraceStoreError::ChecksumMismatch { block, stored, computed });
    }
    Ok(payload)
}

/// Where a [`PackedReader`]'s bytes live: borrowed memory (`&[u8]`) or an
/// open [`File`](std::fs::File). Every read is positioned, so concurrent
/// block decodes from a worker pool share no cursor.
pub trait PackedBytes: Sync {
    /// Total length in bytes.
    ///
    /// # Errors
    ///
    /// I/O failures of a file-backed source.
    fn byte_len(&self) -> Result<u64, TraceStoreError>;

    /// The `len` bytes at `offset` (a range inside
    /// [`byte_len`](Self::byte_len)).
    ///
    /// # Errors
    ///
    /// I/O failures of a file-backed source.
    fn bytes_at(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, TraceStoreError>;
}

/// In memory, every read borrows a slice and copies nothing.
impl PackedBytes for &[u8] {
    fn byte_len(&self) -> Result<u64, TraceStoreError> {
        Ok(self.len() as u64)
    }

    fn bytes_at(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, TraceStoreError> {
        Ok(Cow::Borrowed(&self[offset..offset + len]))
    }
}

/// On disk, every read is one positioned read (`pread` on Unix), so the
/// file must be a regular one: a pipe or a device has no length to find
/// the footer by and cannot be read at an offset.
impl PackedBytes for std::fs::File {
    fn byte_len(&self) -> Result<u64, TraceStoreError> {
        let meta = self.metadata()?;
        if !meta.is_file() {
            return Err(TraceStoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "a packed trace is read at offsets, so it must be a regular file",
            )));
        }
        Ok(meta.len())
    }

    fn bytes_at(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, TraceStoreError> {
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(self, &mut buf, offset as u64)?;
        #[cfg(not(unix))]
        {
            // Fallback positioned read via seek. One process-wide lock
            // keeps concurrent decodes from interleaving a seek and its
            // read; every holder re-seeks, so a poisoned lock is safe.
            use std::io::{Seek, SeekFrom};
            static SEEK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let _held = SEEK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut file = self;
            file.seek(SeekFrom::Start(offset as u64))?;
            file.read_exact(&mut buf)?;
        }
        Ok(Cow::Owned(buf))
    }
}

/// The bytes of a packed trace opened by path: a regular file is read at
/// offsets, one block at a time; anything else — a pipe, a terminal —
/// cannot be, so it is read whole into memory when opened.
#[derive(Debug)]
pub enum PackedSource {
    /// A regular file.
    File(std::fs::File),
    /// A stream, read to its end.
    Memory(Vec<u8>),
}

impl PackedBytes for PackedSource {
    fn byte_len(&self) -> Result<u64, TraceStoreError> {
        match self {
            PackedSource::File(file) => file.byte_len(),
            PackedSource::Memory(bytes) => Ok(bytes.len() as u64),
        }
    }

    fn bytes_at(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, TraceStoreError> {
        match self {
            PackedSource::File(file) => file.bytes_at(offset, len),
            PackedSource::Memory(bytes) => Ok(Cow::Borrowed(&bytes[offset..offset + len])),
        }
    }
}

/// A packed trace opened for seekable reading, over in-memory bytes
/// ([`TraceReader`]) or an open file ([`FileReader`]).
///
/// Opening parses the magic, header and footer index only. Each block is
/// fetched, checksum-verified and decoded on demand, so a reader can seek
/// to any block without touching the others. A file-backed reader holds
/// nothing but the index in memory, which is what lets
/// `characterize --stream` process a multi-GB packed trace in constant
/// memory.
#[derive(Debug)]
pub struct PackedReader<B> {
    bytes: B,
    len: usize,
    nodes: usize,
    blocks: Vec<BlockMeta>,
    records: u64,
}

/// A [`PackedReader`] over in-memory bytes: blocks are borrowed slices.
pub type TraceReader<'a> = PackedReader<&'a [u8]>;

/// A [`PackedReader`] over a file: each block is read from disk with one
/// positioned read when it is decoded.
pub type FileReader = PackedReader<std::fs::File>;

impl<'a> TraceReader<'a> {
    /// Parses the file structure (header + footer index) without decoding
    /// any block.
    ///
    /// # Errors
    ///
    /// Any structural problem — short file, bad magic at either end, a
    /// footer that does not tile the block region — yields a typed
    /// [`TraceStoreError`].
    pub fn open(bytes: &'a [u8]) -> Result<Self, TraceStoreError> {
        Self::new(bytes)
    }
}

impl FileReader {
    /// Opens a packed file and parses its structure (header + footer
    /// index) without reading any block payload.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`TraceStoreError::Io`]; any structural
    /// problem yields the same typed errors as [`TraceReader::open`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, TraceStoreError> {
        Self::new(std::fs::File::open(path)?)
    }
}

impl<B: PackedBytes> PackedReader<B> {
    /// Parses the header and footer index through positioned reads.
    pub(crate) fn new(bytes: B) -> Result<Self, TraceStoreError> {
        let len = usize::try_from(bytes.byte_len()?)
            .map_err(|_| TraceStoreError::Corrupt("file exceeds the address space".into()))?;
        let (nodes, header_end) = parse_header(&bytes.bytes_at(0, HEADER_PREFIX.min(len))?)?;
        let tail = (FOOTER_MAGIC.len() + 4).min(len);
        let (footer_start, len_at) =
            locate_footer(len, header_end, &bytes.bytes_at(len - tail, tail)?)?;
        let footer = bytes.bytes_at(footer_start, len_at - footer_start)?;
        let (blocks, records) = parse_footer(&footer, header_end, footer_start)?;
        Ok(PackedReader { bytes, len, nodes, blocks, records })
    }

    /// Processor count from the header.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Length of the whole stream in bytes, header and footer included.
    pub fn byte_len(&self) -> u64 {
        self.len as u64
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total records across all blocks, from the index alone.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the stream holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Records in one block, from the index alone (no decode).
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    pub fn block_records(&self, block: usize) -> usize {
        self.blocks[block].count
    }

    /// One block's encoded payload size in bytes, from the index alone.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    pub fn block_payload_len(&self, block: usize) -> usize {
        self.blocks[block].payload_len
    }

    /// Decodes one block of events (checksum-verified, its event count
    /// checked against the index).
    ///
    /// # Errors
    ///
    /// Fails on an I/O error, a checksum mismatch, or any decode error
    /// inside the block.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    pub fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
        let meta = self.blocks[block];
        let frame = self.bytes.bytes_at(meta.offset, 8 + meta.payload_len)?;
        let payload = verify_block(&frame, block, meta.payload_len)?;
        let events = columns::decode_events(payload, self.nodes)?;
        if events.len() != meta.count {
            return Err(TraceStoreError::Corrupt(format!(
                "block {block} decoded {} records but the index promised {}",
                events.len(),
                meta.count
            )));
        }
        Ok(events)
    }

    /// Streams every event to `f` in file order with one-block memory.
    ///
    /// # Errors
    ///
    /// Stops at the first decode error or the first error `f` returns.
    pub fn for_each_event<E: From<TraceStoreError>>(
        &self,
        mut f: impl FnMut(CommEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        for block in 0..self.blocks.len() {
            for e in self.decode_events(block)? {
                f(e)?;
            }
        }
        Ok(())
    }

    /// Decodes the whole stream into a validated [`CommTrace`]
    /// sequentially.
    ///
    /// # Errors
    ///
    /// Fails on any block decode error, or if the assembled trace
    /// violates [`CommTrace::check`] (duplicate ids, dangling or
    /// non-causal dependencies).
    pub fn read_trace(&self) -> Result<CommTrace, TraceStoreError> {
        let mut trace = CommTrace::new(self.nodes);
        self.for_each_event(|e| {
            trace.push(e);
            Ok::<_, TraceStoreError>(())
        })?;
        trace.check().map_err(TraceStoreError::Corrupt)?;
        Ok(trace)
    }

    /// Decodes the whole stream into a validated [`CommTrace`], fanning
    /// blocks out over `jobs` worker threads (`0` = one per hardware
    /// thread) via [`commchar_pool::run_indexed`]. Decoded blocks come
    /// back in file order regardless of worker count, so the assembled
    /// trace is identical to [`read_trace`](Self::read_trace).
    ///
    /// # Errors
    ///
    /// The first failing block (in file order) determines the error.
    pub fn read_trace_parallel(&self, jobs: usize) -> Result<CommTrace, TraceStoreError> {
        if commchar_pool::resolve_jobs(jobs).min(self.blocks.len()) <= 1 {
            return self.read_trace();
        }
        let decoded =
            commchar_pool::run_indexed(jobs, self.blocks.len(), |i| self.decode_events(i));
        let mut trace = CommTrace::new(self.nodes);
        for block in decoded {
            for e in block? {
                trace.push(e);
            }
        }
        trace.check().map_err(TraceStoreError::Corrupt)?;
        Ok(trace)
    }
}

/// One-shot sequential unpack of a packed [`CommTrace`].
///
/// # Errors
///
/// Any structural or per-block decode failure.
pub fn unpack_trace(bytes: &[u8]) -> Result<CommTrace, TraceStoreError> {
    TraceReader::open(bytes)?.read_trace()
}

/// One-shot parallel unpack of a packed [`CommTrace`] (`jobs` worker
/// threads, `0` = one per hardware thread).
///
/// # Errors
///
/// Any structural or per-block decode failure.
pub fn unpack_trace_parallel(bytes: &[u8], jobs: usize) -> Result<CommTrace, TraceStoreError> {
    TraceReader::open(bytes)?.read_trace_parallel(jobs)
}

/// An incremental reader over a *non-seekable* CCTRACE1 byte stream — a
/// pipe, a socket, stdin. Parses the header eagerly, then yields each
/// checksum-verified block payload as it arrives, holding one block in
/// memory at a time. This is what lets a live producer pipe a packed
/// stream into a consumer (`commchar serve-feed --trace -`) while the
/// file is still being written at the far end.
///
/// The seekable [`PackedReader`] locates blocks through the trailing
/// footer index, which a stream cannot reach first. Block frames are self-describing
/// (`[u32le len][u32le fnv][payload]`), so this reader instead walks them
/// sequentially and detects the end of the block run structurally: when a
/// candidate frame fails its checksum or runs past end-of-stream, the
/// remaining bytes are required to be a well-formed footer region
/// (`[payload][u32le len][CCTFOOT1]` with a consistent length); if they
/// are, the stream is cleanly finished, otherwise the original error
/// stands. A corrupt mid-stream block therefore still surfaces as a
/// [`TraceStoreError::ChecksumMismatch`] — the trailing real footer makes
/// the length check fail — it is never silently swallowed as an early
/// end.
#[derive(Debug)]
pub struct StreamBlockReader<R: Read> {
    src: R,
    nodes: usize,
    blocks: usize,
    done: bool,
}

impl<R: Read> StreamBlockReader<R> {
    /// Opens the stream: reads and validates the magic + header.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError`] on I/O failure, a bad magic, a stream kind
    /// other than 1, or a malformed or out-of-range node count.
    pub fn new(mut src: R) -> Result<Self, TraceStoreError> {
        let mut head = Vec::with_capacity(HEADER_PREFIX);
        (&mut src).take(MAGIC.len() as u64 + 1).read_to_end(&mut head)?;
        // The node-count varint follows byte by byte up to its last (high
        // bit clear) byte: a stream cannot over-read and push back.
        if head.len() == MAGIC.len() + 1 {
            while head.len() < HEADER_PREFIX {
                if (&mut src).take(1).read_to_end(&mut head)? == 0
                    || head[head.len() - 1] & 0x80 == 0
                {
                    break;
                }
            }
        }
        let (nodes, _) = parse_header(&head)?;
        Ok(StreamBlockReader { src, nodes, blocks: 0, done: false })
    }

    /// Processor count from the header.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Blocks yielded so far.
    pub fn blocks_read(&self) -> usize {
        self.blocks
    }

    /// Resolves an end-of-blocks candidate: `consumed` holds every byte
    /// read past the last good block. Returns `Ok(None)` if the rest of
    /// the stream is exactly a footer region (payload, a `u32le` length
    /// covering all of it, the trailing magic), otherwise `err`.
    fn finish_or(
        &mut self,
        mut consumed: Vec<u8>,
        err: TraceStoreError,
    ) -> Result<Option<Vec<u8>>, TraceStoreError> {
        self.src.read_to_end(&mut consumed)?;
        let trailer = &consumed[consumed.len().saturating_sub(FOOTER_MAGIC.len() + 4)..];
        if let Ok((0, _)) = locate_footer(consumed.len(), 0, trailer) {
            self.done = true;
            return Ok(None);
        }
        Err(err)
    }

    /// Yields the next checksum-verified block payload, or `Ok(None)` once
    /// the stream reaches its footer.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError`] on I/O failure, a mid-stream checksum mismatch,
    /// or a stream that ends without a valid footer region.
    pub fn next_block(&mut self) -> Result<Option<Vec<u8>>, TraceStoreError> {
        if self.done {
            return Ok(None);
        }
        let block = self.blocks;
        let mut frame = [0u8; 8];
        let mut got = 0;
        while got < frame.len() {
            match self.src.read(&mut frame[got..]) {
                Ok(0) => {
                    return self.finish_or(
                        frame[..got].to_vec(),
                        TraceStoreError::Truncated {
                            context: "block frame header",
                            needed: 8,
                            have: got,
                        },
                    );
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceStoreError::Io(e)),
            }
        }
        let payload_len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        let mut payload = vec![0u8; payload_len];
        let mut have = 0;
        while have < payload_len {
            match self.src.read(&mut payload[have..]) {
                Ok(0) => {
                    let mut consumed = frame.to_vec();
                    consumed.extend_from_slice(&payload[..have]);
                    return self.finish_or(
                        consumed,
                        TraceStoreError::Truncated {
                            context: "block payload",
                            needed: payload_len,
                            have,
                        },
                    );
                }
                Ok(n) => have += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceStoreError::Io(e)),
            }
        }
        let computed = fnv1a(&payload);
        if computed != stored {
            let mut consumed = frame.to_vec();
            consumed.extend_from_slice(&payload);
            return self.finish_or(
                consumed,
                TraceStoreError::ChecksumMismatch { block, stored, computed },
            );
        }
        self.blocks += 1;
        Ok(Some(payload))
    }
}
