//! Seekable block readers: footer index, checksum verification, and
//! sequential / streaming / parallel decode — over in-memory bytes
//! ([`TraceReader`]) or directly against a file ([`FileReader`]), unified
//! by the [`BlockSource`] trait for out-of-core consumers.

use commchar_mesh::{MsgRecord, NetLog};
use commchar_trace::{CommEvent, CommTrace};

use crate::varint::Cursor;
use crate::{columns, fnv1a, StreamKind, TraceStoreError, FOOTER_MAGIC, MAGIC};

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

/// Parses the leading magic + header from the file's first bytes (the
/// whole file, or any prefix of at least [`HEADER_PREFIX`] bytes).
/// Returns `(kind, nodes, header_end)`.
fn parse_header(head: &[u8]) -> Result<(StreamKind, usize, usize), TraceStoreError> {
    if head.len() < MAGIC.len() {
        return Err(TraceStoreError::BadMagic { found: head.to_vec() });
    }
    if head[..MAGIC.len()] != MAGIC {
        return Err(TraceStoreError::BadMagic { found: head[..MAGIC.len()].to_vec() });
    }
    let mut header = Cursor::new(&head[MAGIC.len()..]);
    let kind = StreamKind::from_code(header.byte("stream kind")?)?;
    let nodes = check_nodes(kind, header.varint("node count")?)?;
    Ok((kind, nodes, MAGIC.len() + header.pos()))
}

/// Validates a header's node count: an event stream needs at least one
/// node and at most [`MAX_NODES`](commchar_trace::MAX_NODES), checked
/// before any consumer sizes per-node state by it. (A record stream's
/// count is advisory.)
fn check_nodes(kind: StreamKind, nodes: u64) -> Result<usize, TraceStoreError> {
    if kind == StreamKind::Events {
        if nodes == 0 {
            return Err(TraceStoreError::Corrupt("header declares zero nodes".into()));
        }
        if nodes > commchar_trace::MAX_NODES as u64 {
            return Err(TraceStoreError::TooManyNodes { nodes });
        }
    }
    Ok(nodes as usize)
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
        return Err(TraceStoreError::BadMagic { found: magic.to_vec() });
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

/// What the footer decodes to: the block index, total record count, and
/// any netlog utilization trailer (`(channel, fraction)` pairs).
type ParsedFooter = (Vec<BlockMeta>, u64, Vec<(u32, f64)>);

/// Parses the footer payload (`bytes[footer_start..len_at]`) into the
/// block index, total record count, and any netlog utilization trailer.
fn parse_footer(
    kind: StreamKind,
    footer_bytes: &[u8],
    header_end: usize,
    footer_start: usize,
) -> Result<ParsedFooter, TraceStoreError> {
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

    // NetLog streams carry a utilization trailer after the index.
    let utilization = if kind == StreamKind::NetLog {
        let n = footer.varint("utilization count")? as usize;
        if n > footer.remaining() {
            return Err(TraceStoreError::Corrupt(format!(
                "utilization trailer claims {n} entries in {} bytes",
                footer.remaining()
            )));
        }
        let mut util = Vec::with_capacity(n);
        for _ in 0..n {
            let chan = footer.varint("utilization channel")?;
            if chan > u32::MAX as u64 {
                return Err(TraceStoreError::Corrupt(format!("channel id {chan} exceeds u32")));
            }
            let bits = footer.bytes(8, "utilization fraction")?;
            util.push((
                chan as u32,
                f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8 bytes"))),
            ));
        }
        util
    } else {
        Vec::new()
    };
    if footer.remaining() != 0 {
        return Err(TraceStoreError::Corrupt(format!(
            "{} trailing bytes in the footer",
            footer.remaining()
        )));
    }
    Ok((blocks, records, utilization))
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

/// A packed trace file opened for reading.
///
/// Opening parses the magic, header and footer index only; block payloads
/// are decoded on demand, so a reader over a memory-mapped or fully-read
/// file can seek to any block without touching the others.
#[derive(Debug)]
pub struct TraceReader<'a> {
    bytes: &'a [u8],
    kind: StreamKind,
    nodes: usize,
    blocks: Vec<BlockMeta>,
    records: u64,
    utilization: Vec<(u32, f64)>,
}

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
        let (kind, nodes, header_end) = parse_header(bytes)?;
        let trailer_at = bytes.len().saturating_sub(FOOTER_MAGIC.len() + 4);
        let (footer_start, len_at) = locate_footer(bytes.len(), header_end, &bytes[trailer_at..])?;
        let (blocks, records, utilization) =
            parse_footer(kind, &bytes[footer_start..len_at], header_end, footer_start)?;
        Ok(TraceReader { bytes, kind, nodes, blocks, records, utilization })
    }

    /// What the stream contains.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Processor count from the header (0 for a netlog of unknown mesh).
    pub fn nodes(&self) -> usize {
        self.nodes
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

    /// Per-channel utilization from a netlog stream's footer.
    pub fn utilization(&self) -> &[(u32, f64)] {
        &self.utilization
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

    /// Verifies one block's checksum and returns its payload.
    fn payload(&self, block: usize) -> Result<&'a [u8], TraceStoreError> {
        let meta = self.blocks[block];
        verify_block(
            &self.bytes[meta.offset..meta.offset + 8 + meta.payload_len],
            block,
            meta.payload_len,
        )
    }

    fn expect_kind(&self, kind: StreamKind) -> Result<(), TraceStoreError> {
        if self.kind != kind {
            return Err(TraceStoreError::Corrupt(format!(
                "stream holds {} records, expected {}",
                self.kind.name(),
                kind.name()
            )));
        }
        Ok(())
    }

    /// Decodes one block of events (checksum-verified).
    ///
    /// # Errors
    ///
    /// Fails on a checksum mismatch, a non-event stream, or any decode
    /// error inside the block.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    pub fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
        self.expect_kind(StreamKind::Events)?;
        let events = columns::decode_events(self.payload(block)?, self.nodes)?;
        if events.len() != self.blocks[block].count {
            return Err(TraceStoreError::Corrupt(format!(
                "block {block} decoded {} events but the index promised {}",
                events.len(),
                self.blocks[block].count
            )));
        }
        Ok(events)
    }

    /// Decodes one block of netlog records (checksum-verified).
    ///
    /// # Errors
    ///
    /// Fails on a checksum mismatch, a non-netlog stream, or any decode
    /// error inside the block.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    pub fn decode_records(&self, block: usize) -> Result<Vec<MsgRecord>, TraceStoreError> {
        self.expect_kind(StreamKind::NetLog)?;
        let records = columns::decode_records(self.payload(block)?)?;
        if records.len() != self.blocks[block].count {
            return Err(TraceStoreError::Corrupt(format!(
                "block {block} decoded {} records but the index promised {}",
                records.len(),
                self.blocks[block].count
            )));
        }
        Ok(records)
    }

    /// Streams every event in file order with one-block memory.
    ///
    /// # Errors
    ///
    /// Stops at the first decode error.
    pub fn for_each_event(&self, mut f: impl FnMut(CommEvent)) -> Result<(), TraceStoreError> {
        for block in 0..self.blocks.len() {
            for e in self.decode_events(block)? {
                f(e);
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
        self.expect_kind(StreamKind::Events)?;
        let mut trace = CommTrace::new(self.nodes);
        self.for_each_event(|e| trace.push(e))?;
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
        self.expect_kind(StreamKind::Events)?;
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

    /// Decodes the whole stream into a [`NetLog`] (records in file order,
    /// utilization restored from the footer).
    ///
    /// # Errors
    ///
    /// Fails on any block decode error or a non-netlog stream.
    pub fn read_netlog(&self) -> Result<NetLog, TraceStoreError> {
        self.expect_kind(StreamKind::NetLog)?;
        let mut log = NetLog::new();
        for block in 0..self.blocks.len() {
            for r in self.decode_records(block)? {
                log.push(r);
            }
        }
        log.set_utilization(self.utilization.clone());
        Ok(log)
    }
}

/// A packed trace file opened for **out-of-core** reading: only the
/// header and footer index are held in memory, and each block is read
/// from disk (and decoded) on demand.
///
/// This is what lets `characterize --stream` process a multi-GB packed
/// trace in constant memory — a [`TraceReader`] needs the whole file as
/// one in-memory slice. Reads are positioned (`pread`-style on Unix), so
/// concurrent block decodes from a worker pool need no shared cursor.
#[derive(Debug)]
pub struct FileReader {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<std::fs::File>,
    kind: StreamKind,
    nodes: usize,
    blocks: Vec<BlockMeta>,
    records: u64,
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
        let file = std::fs::File::open(path)?;
        let file_len = usize::try_from(file.metadata()?.len())
            .map_err(|_| TraceStoreError::Corrupt("file exceeds the address space".into()))?;
        let mut head = vec![0u8; HEADER_PREFIX.min(file_len)];
        read_at(&file, 0, &mut head)?;
        let (kind, nodes, header_end) = parse_header(&head)?;
        let tail = FOOTER_MAGIC.len() + 4;
        let mut trailer = vec![0u8; tail.min(file_len)];
        read_at(&file, (file_len - trailer.len()) as u64, &mut trailer)?;
        let (footer_start, len_at) = locate_footer(file_len, header_end, &trailer)?;
        let mut footer = vec![0u8; len_at - footer_start];
        read_at(&file, footer_start as u64, &mut footer)?;
        let (blocks, records, _) = parse_footer(kind, &footer, header_end, footer_start)?;
        Ok(FileReader {
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file),
            kind,
            nodes,
            blocks,
            records,
        })
    }

    /// What the stream contains.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Processor count from the header.
    pub fn nodes(&self) -> usize {
        self.nodes
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

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), TraceStoreError> {
        #[cfg(unix)]
        {
            read_at(&self.file, offset, buf)
        }
        #[cfg(not(unix))]
        {
            read_at(&self.file.lock().expect("file lock poisoned"), offset, buf)
        }
    }

    /// Reads one block from disk, verifies its checksum, and decodes its
    /// events.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a checksum mismatch, a non-event stream, or
    /// any decode error inside the block.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    pub fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
        if self.kind != StreamKind::Events {
            return Err(TraceStoreError::Corrupt(format!(
                "stream holds {} records, expected events",
                self.kind.name()
            )));
        }
        let meta = self.blocks[block];
        let mut frame = vec![0u8; 8 + meta.payload_len];
        self.read_at(meta.offset as u64, &mut frame)?;
        let payload = verify_block(&frame, block, meta.payload_len)?;
        let events = columns::decode_events(payload, self.nodes)?;
        if events.len() != meta.count {
            return Err(TraceStoreError::Corrupt(format!(
                "block {block} decoded {} events but the index promised {}",
                events.len(),
                meta.count
            )));
        }
        Ok(events)
    }
}

/// Positioned read that does not disturb any shared cursor (Unix `pread`).
#[cfg(unix)]
fn read_at(file: &std::fs::File, offset: u64, buf: &mut [u8]) -> Result<(), TraceStoreError> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset).map_err(TraceStoreError::Io)
}

/// Fallback positioned read via seek — callers serialize access.
#[cfg(not(unix))]
fn read_at(mut file: &std::fs::File, offset: u64, buf: &mut [u8]) -> Result<(), TraceStoreError> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset)).map_err(TraceStoreError::Io)?;
    file.read_exact(buf).map_err(TraceStoreError::Io)
}

/// Block-granular access to a packed **event** stream, whether the bytes
/// are all in memory ([`TraceReader`]) or read from disk on demand
/// ([`FileReader`]).
///
/// This is the feed of the streaming characterization pipeline: a generic
/// driver walks `0..block_count()`, decodes blocks (possibly in parallel —
/// implementations are [`Sync`]), and folds per-block partials without
/// ever holding the whole event list.
pub trait BlockSource: Sync {
    /// Processor count from the header.
    fn nodes(&self) -> usize;
    /// Number of blocks.
    fn block_count(&self) -> usize;
    /// Total records across all blocks, from the index alone.
    fn len(&self) -> u64;
    /// Whether the stream holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Records in one block, from the index alone (no decode).
    fn block_records(&self, block: usize) -> usize;
    /// Decodes one block of events (checksum-verified).
    ///
    /// # Errors
    ///
    /// Implementations fail on corrupt blocks, non-event streams, and —
    /// for file-backed sources — I/O errors.
    fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError>;
}

impl BlockSource for TraceReader<'_> {
    fn nodes(&self) -> usize {
        TraceReader::nodes(self)
    }
    fn block_count(&self) -> usize {
        TraceReader::block_count(self)
    }
    fn len(&self) -> u64 {
        TraceReader::len(self)
    }
    fn block_records(&self, block: usize) -> usize {
        TraceReader::block_records(self, block)
    }
    fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
        TraceReader::decode_events(self, block)
    }
}

impl BlockSource for FileReader {
    fn nodes(&self) -> usize {
        FileReader::nodes(self)
    }
    fn block_count(&self) -> usize {
        FileReader::block_count(self)
    }
    fn len(&self) -> u64 {
        FileReader::len(self)
    }
    fn block_records(&self, block: usize) -> usize {
        FileReader::block_records(self, block)
    }
    fn decode_events(&self, block: usize) -> Result<Vec<CommEvent>, TraceStoreError> {
        FileReader::decode_events(self, block)
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

/// One-shot unpack of a packed [`NetLog`].
///
/// # Errors
///
/// Any structural or per-block decode failure.
pub fn unpack_netlog(bytes: &[u8]) -> Result<NetLog, TraceStoreError> {
    TraceReader::open(bytes)?.read_netlog()
}

/// An incremental reader over a *non-seekable* CCTRACE1 byte stream — a
/// pipe, a socket, stdin. Parses the header eagerly, then yields each
/// checksum-verified block payload as it arrives, holding one block in
/// memory at a time. This is what lets a live producer pipe a packed
/// stream into a consumer (`commchar serve-feed --trace -`) while the
/// file is still being written at the far end.
///
/// The seekable readers locate blocks through the trailing footer index,
/// which a stream cannot reach first. Block frames are self-describing
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
pub struct StreamBlockReader<R: std::io::Read> {
    src: R,
    kind: StreamKind,
    nodes: usize,
    blocks: usize,
    done: bool,
}

impl<R: std::io::Read> StreamBlockReader<R> {
    /// Opens the stream: reads and validates the magic + header.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError`] on I/O failure, a bad magic, an unknown stream
    /// kind, or a malformed or out-of-range node count.
    pub fn new(mut src: R) -> Result<Self, TraceStoreError> {
        let mut head = [0u8; 9]; // magic + kind byte
        src.read_exact(&mut head).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => TraceStoreError::BadMagic { found: Vec::new() },
            _ => TraceStoreError::Io(e),
        })?;
        if head[..MAGIC.len()] != MAGIC {
            return Err(TraceStoreError::BadMagic { found: head[..MAGIC.len()].to_vec() });
        }
        let kind = StreamKind::from_code(head[MAGIC.len()])?;
        // The node count is an LEB128 varint, read byte-at-a-time (the
        // stream cannot over-read and push back).
        let mut nodes: u64 = 0;
        let mut shift = 0u32;
        loop {
            let mut b = [0u8; 1];
            src.read_exact(&mut b)?;
            if shift >= 64 || (shift == 63 && b[0] > 1) {
                return Err(TraceStoreError::VarintOverflow { context: "node count" });
            }
            nodes |= ((b[0] & 0x7f) as u64) << shift;
            if b[0] & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let nodes = check_nodes(kind, nodes)?;
        Ok(StreamBlockReader { src, kind, nodes, blocks: 0, done: false })
    }

    /// Stream kind from the header.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Processor count from the header.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Blocks yielded so far.
    pub fn blocks_read(&self) -> usize {
        self.blocks
    }

    /// Reads everything remaining on the stream.
    fn drain(&mut self, into: &mut Vec<u8>) -> Result<(), TraceStoreError> {
        self.src.read_to_end(into)?;
        Ok(())
    }

    /// Checks that `tail` is a complete footer region: payload, a `u32le`
    /// length that matches the payload, and the trailing magic.
    fn is_footer_region(tail: &[u8]) -> bool {
        let trailer = FOOTER_MAGIC.len() + 4;
        if tail.len() < trailer || tail[tail.len() - FOOTER_MAGIC.len()..] != FOOTER_MAGIC {
            return false;
        }
        let len_at = tail.len() - trailer;
        let stored = &tail[len_at..len_at + 4];
        u32::from_le_bytes(stored.try_into().expect("4 bytes")) as usize == len_at
    }

    /// Resolves an end-of-blocks candidate: `consumed` holds every byte
    /// read past the last good block. Returns `Ok(None)` if the remainder
    /// of the stream forms a valid footer region, otherwise `err`.
    fn finish_or(
        &mut self,
        mut consumed: Vec<u8>,
        err: TraceStoreError,
    ) -> Result<Option<Vec<u8>>, TraceStoreError> {
        self.drain(&mut consumed)?;
        if Self::is_footer_region(&consumed) {
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
