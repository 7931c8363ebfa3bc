//! Block readers. [`PackedReader`] is the seekable one: footer index,
//! checksum verification and one-block decode, over a regular file read
//! at offsets or bytes in memory, opened by path
//! ([`FileReader::open`]) or from a slice
//! ([`PackedReader::from_bytes`]); a whole trace is read block by block
//! through [`TraceFile`](crate::TraceFile)'s event loop.
//! [`StreamBlockReader`] walks the block frames of a non-seekable stream
//! instead.

use std::borrow::Cow;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use commchar_trace::CommEvent;

use crate::varint::Cursor;
use crate::{columns, fnv1a, is_packed, TraceStoreError, EVENTS_KIND, FOOTER_MAGIC, MAGIC};

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

/// Where a [`PackedReader`]'s bytes live: a regular file, read at offsets
/// one block at a time, or bytes in memory (a caller's slice, or a pipe
/// read whole). Every read is positioned, so concurrent block decodes
/// share no cursor.
#[derive(Debug)]
enum PackedSource<'a> {
    /// A regular file.
    File(File),
    /// Bytes in memory.
    Memory(Cow<'a, [u8]>),
}

impl PackedSource<'_> {
    /// Total length in bytes.
    fn byte_len(&self) -> Result<u64, TraceStoreError> {
        match self {
            PackedSource::File(file) => Ok(file.metadata()?.len()),
            PackedSource::Memory(bytes) => Ok(bytes.len() as u64),
        }
    }

    /// The `len` bytes at `offset` (a range inside
    /// [`byte_len`](Self::byte_len)): one positioned read (`pread` on
    /// Unix) from a file.
    fn bytes_at(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>, TraceStoreError> {
        let file = match self {
            PackedSource::File(file) => file,
            PackedSource::Memory(bytes) => return Ok(Cow::Borrowed(&bytes[offset..offset + len])),
        };
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(file, &mut buf, offset as u64)?;
        #[cfg(not(unix))]
        {
            // Fallback positioned read via seek. One process-wide lock
            // keeps concurrent decodes from interleaving a seek and its
            // read; every holder re-seeks, so a poisoned lock is safe.
            use std::io::{Seek, SeekFrom};
            static SEEK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let _held = SEEK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut file = file;
            file.seek(SeekFrom::Start(offset as u64))?;
            file.read_exact(&mut buf)?;
        }
        Ok(Cow::Owned(buf))
    }
}

/// A packed trace opened for seekable reading: from a path
/// ([`open`](FileReader::open)) or from bytes in memory
/// ([`from_bytes`](Self::from_bytes)).
///
/// Opening parses the magic, header and footer index only. Each block is
/// fetched, checksum-verified and decoded on demand, so a reader can seek
/// to any block without touching the others. A reader over a regular file
/// holds nothing but the index in memory, which is what lets
/// `characterize --stream` process a multi-GB packed trace in constant
/// memory.
#[derive(Debug)]
pub struct PackedReader<'a> {
    source: PackedSource<'a>,
    len: usize,
    nodes: usize,
    blocks: Vec<BlockMeta>,
    records: u64,
}

/// A [`PackedReader`] opened by path, owning its bytes.
pub type FileReader = PackedReader<'static>;

impl FileReader {
    /// Opens the packed trace at `path` and parses its header and footer
    /// index, reading no block payload. A regular file is read at offsets,
    /// anything else (a pipe) whole first.
    ///
    /// # Errors
    ///
    /// I/O failures as [`TraceStoreError::Io`], input that is not packed as
    /// a [`TraceStoreError::BadMagic`] naming its first bytes, and the
    /// structural errors [`from_bytes`](Self::from_bytes) gives.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceStoreError> {
        Self::open_sniffed(path.as_ref())?
            .map_err(|(found, _)| TraceStoreError::BadMagic { found, expected: MAGIC })
    }

    /// The one rule for opening a trace by path, behind [`open`](Self::open)
    /// and [`TraceFile::open`](crate::TraceFile::open): packed input is
    /// opened as a reader, and anything else handed back as the bytes read
    /// to sniff it and the file behind them.
    pub(crate) fn open_sniffed(
        path: &Path,
    ) -> Result<Result<Self, (Vec<u8>, File)>, TraceStoreError> {
        let mut file = File::open(path)?;
        // A pipe may hand over the magic in pieces: read until it is whole.
        let mut head = Vec::with_capacity(MAGIC.len());
        (&mut file).take(MAGIC.len() as u64).read_to_end(&mut head)?;
        if !is_packed(&head) {
            return Ok(Err((head, file)));
        }
        let source = if file.metadata()?.is_file() {
            PackedSource::File(file)
        } else {
            file.read_to_end(&mut head)?;
            PackedSource::Memory(head.into())
        };
        Self::new(source).map(Ok)
    }
}

impl<'a> PackedReader<'a> {
    /// Parses the structure (header and footer index) of the packed trace
    /// in `bytes` without decoding any block; blocks are borrowed slices.
    ///
    /// # Errors
    ///
    /// Any structural problem — short file, bad magic at either end, a
    /// stream kind other than 1, a footer that does not tile the block
    /// region — as a typed [`TraceStoreError`].
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, TraceStoreError> {
        Self::new(PackedSource::Memory(Cow::Borrowed(bytes)))
    }

    /// Parses the header and footer index through positioned reads.
    fn new(source: PackedSource<'a>) -> Result<Self, TraceStoreError> {
        let len = usize::try_from(source.byte_len()?)
            .map_err(|_| TraceStoreError::Corrupt("file exceeds the address space".into()))?;
        let (nodes, header_end) = parse_header(&source.bytes_at(0, HEADER_PREFIX.min(len))?)?;
        let tail = (FOOTER_MAGIC.len() + 4).min(len);
        let (footer_start, len_at) =
            locate_footer(len, header_end, &source.bytes_at(len - tail, tail)?)?;
        let footer = source.bytes_at(footer_start, len_at - footer_start)?;
        let (blocks, records) = parse_footer(&footer, header_end, footer_start)?;
        Ok(PackedReader { source, len, nodes, blocks, records })
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
        let frame = self.source.bytes_at(meta.offset, 8 + meta.payload_len)?;
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
        // The length is untrusted until the bytes arrive, so memory grows
        // with the bytes read, never with the length claimed.
        let mut payload = Vec::new();
        (&mut self.src).take(payload_len as u64).read_to_end(&mut payload)?;
        if payload.len() < payload_len {
            let have = payload.len();
            let mut consumed = frame.to_vec();
            consumed.append(&mut payload);
            return self.finish_or(
                consumed,
                TraceStoreError::Truncated { context: "block payload", needed: payload_len, have },
            );
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
