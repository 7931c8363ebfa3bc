//! Blocked streaming writers and the one-shot `pack_*` helpers.

use std::io::Write;

use commchar_mesh::{MsgRecord, NetLog};
use commchar_trace::{CommEvent, CommTrace};

use crate::{columns, fnv1a, varint, StreamKind, TraceStoreError, FOOTER_MAGIC, MAGIC};

/// Records per block unless overridden: large enough that per-block
/// framing (8 bytes + footer entry) is noise, small enough that dozens of
/// blocks exist to decode in parallel and block-at-a-time streaming stays
/// cheap on memory.
pub const DEFAULT_BLOCK_LEN: usize = 4096;

/// Shared framing logic: magic + header up front, `(payload len, count)`
/// accounting per block, footer + trailer at the end.
#[derive(Debug)]
struct Framer<W: Write> {
    out: W,
    index: Vec<(u64, u64)>, // (payload bytes, record count) per block
}

impl<W: Write> Framer<W> {
    fn new(mut out: W, kind: StreamKind, nodes: usize) -> Result<Self, TraceStoreError> {
        out.write_all(&MAGIC)?;
        out.write_all(&[kind.code()])?;
        let mut header = Vec::new();
        varint::put(&mut header, nodes as u64);
        out.write_all(&header)?;
        Ok(Framer { out, index: Vec::new() })
    }

    fn write_block(&mut self, payload: &[u8], count: usize) -> Result<(), TraceStoreError> {
        self.out.write_all(&u32_len("block payload", payload.len())?)?;
        self.out.write_all(&fnv1a(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.index.push((payload.len() as u64, count as u64));
        Ok(())
    }

    /// Writes the footer (block index + `extra` trailer bytes), its
    /// length, and the trailing magic, then hands back the sink.
    fn finish(mut self, extra: &[u8]) -> Result<W, TraceStoreError> {
        let mut footer = Vec::new();
        varint::put(&mut footer, self.index.len() as u64);
        for &(len, count) in &self.index {
            varint::put(&mut footer, len);
            varint::put(&mut footer, count);
        }
        footer.extend_from_slice(extra);
        let len = u32_len("footer", footer.len())?;
        self.out.write_all(&footer)?;
        self.out.write_all(&len)?;
        self.out.write_all(&FOOTER_MAGIC)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// `len` as the `u32le` length field in front of a block payload or
/// behind the footer.
fn u32_len(what: &'static str, len: usize) -> Result<[u8; 4], TraceStoreError> {
    u32::try_from(len)
        .map(u32::to_le_bytes)
        .map_err(|_| TraceStoreError::TooLarge { what, bytes: len })
}

/// Streaming writer for [`CommEvent`] streams: push events as they are
/// generated (a profiler sink), blocks are encoded and written every
/// [`DEFAULT_BLOCK_LEN`] events, and [`finish`](TraceWriter::finish)
/// seals the file with the block-index footer.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    framer: Framer<W>,
    nodes: usize,
    block_len: usize,
    pending: Vec<CommEvent>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a packed event stream over `nodes` processors on `out`.
    ///
    /// # Errors
    ///
    /// Fails if `nodes == 0` or on an I/O error writing the header.
    pub fn new(out: W, nodes: usize) -> Result<Self, TraceStoreError> {
        Self::with_block_len(out, nodes, DEFAULT_BLOCK_LEN)
    }

    /// Like [`new`](Self::new) with an explicit block size (records per
    /// block). Any size is accepted: memory for a block is reserved as it
    /// fills, at most [`DEFAULT_BLOCK_LEN`] records up front.
    ///
    /// # Errors
    ///
    /// Fails if `nodes == 0`, `block_len == 0`, or on an I/O error.
    pub fn with_block_len(out: W, nodes: usize, block_len: usize) -> Result<Self, TraceStoreError> {
        if nodes == 0 {
            return Err(TraceStoreError::Corrupt("trace needs at least one node".into()));
        }
        if block_len == 0 {
            return Err(TraceStoreError::Corrupt("block length must be positive".into()));
        }
        let framer = Framer::new(out, StreamKind::Events, nodes)?;
        let pending = Vec::with_capacity(block_len.min(DEFAULT_BLOCK_LEN));
        Ok(TraceWriter { framer, nodes, block_len, pending })
    }

    /// Appends one event, flushing a full block if due.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints and self-messages (the same
    /// invariants [`CommTrace::push`] asserts, as typed errors), and
    /// propagates I/O failures and a block payload of 4 GiB or more.
    pub fn push(&mut self, ev: CommEvent) -> Result<(), TraceStoreError> {
        if ev.src as usize >= self.nodes || ev.dst as usize >= self.nodes {
            return Err(TraceStoreError::Corrupt(format!(
                "event {} endpoint out of range for {} nodes",
                ev.id, self.nodes
            )));
        }
        if ev.src == ev.dst {
            return Err(TraceStoreError::Corrupt(format!("event {} is a self-message", ev.id)));
        }
        self.pending.push(ev);
        if self.pending.len() >= self.block_len {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceStoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let payload = columns::encode_events(&self.pending);
        self.framer.write_block(&payload, self.pending.len())?;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial block and writes the footer, returning
    /// the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and a block payload or footer of 4 GiB or
    /// more.
    pub fn finish(mut self) -> Result<W, TraceStoreError> {
        self.flush_block()?;
        self.framer.finish(&[])
    }
}

/// Streaming writer for [`MsgRecord`] streams (a packed [`NetLog`]).
#[derive(Debug)]
pub struct NetLogWriter<W: Write> {
    framer: Framer<W>,
    block_len: usize,
    pending: Vec<MsgRecord>,
    utilization: Vec<(u32, f64)>,
}

impl<W: Write> NetLogWriter<W> {
    /// Starts a packed record stream on `out`. `nodes` is advisory (the
    /// node count of the mesh that produced the log; 0 if unknown).
    ///
    /// # Errors
    ///
    /// Fails on an I/O error writing the header.
    pub fn new(out: W, nodes: usize) -> Result<Self, TraceStoreError> {
        let framer = Framer::new(out, StreamKind::NetLog, nodes)?;
        Ok(NetLogWriter {
            framer,
            block_len: DEFAULT_BLOCK_LEN,
            pending: Vec::new(),
            utilization: Vec::new(),
        })
    }

    /// Appends one record, flushing a full block if due.
    ///
    /// # Errors
    ///
    /// Rejects records delivered before injection; propagates I/O errors.
    pub fn push(&mut self, rec: MsgRecord) -> Result<(), TraceStoreError> {
        if rec.delivered < rec.inject {
            return Err(TraceStoreError::Corrupt(format!(
                "record {} delivered before injection",
                rec.id
            )));
        }
        self.pending.push(rec);
        if self.pending.len() >= self.block_len {
            let payload = columns::encode_records(&self.pending);
            self.framer.write_block(&payload, self.pending.len())?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Attaches per-channel utilization figures, stored in the footer.
    pub fn set_utilization(&mut self, util: Vec<(u32, f64)>) {
        self.utilization = util;
    }

    /// Flushes the final partial block and writes the footer (including
    /// the utilization trailer), returning the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<W, TraceStoreError> {
        if !self.pending.is_empty() {
            let payload = columns::encode_records(&self.pending);
            self.framer.write_block(&payload, self.pending.len())?;
            self.pending.clear();
        }
        let mut extra = Vec::new();
        varint::put(&mut extra, self.utilization.len() as u64);
        for &(chan, frac) in &self.utilization {
            varint::put(&mut extra, chan as u64);
            extra.extend_from_slice(&frac.to_bits().to_le_bytes());
        }
        self.framer.finish(&extra)
    }
}

/// Packs a whole [`CommTrace`] into bytes.
pub fn pack_trace(trace: &CommTrace) -> Vec<u8> {
    pack_trace_with_block_len(trace, DEFAULT_BLOCK_LEN)
}

/// [`pack_trace`] with an explicit block size (tests and benchmarks).
///
/// # Panics
///
/// Panics if `block_len == 0`, or if one block's payload reaches 4 GiB,
/// which takes some hundred million events in one block.
pub fn pack_trace_with_block_len(trace: &CommTrace, block_len: usize) -> Vec<u8> {
    const VEC: &str = "a Vec sink fails only for a zero block length or a 4 GiB block";
    let mut w = TraceWriter::with_block_len(Vec::new(), trace.nodes(), block_len).expect(VEC);
    for &e in trace.events() {
        w.push(e).expect("trace invariants already hold");
    }
    w.finish().expect(VEC)
}

/// Packs a whole [`NetLog`] into bytes. The mesh node count is inferred
/// as one past the largest endpoint (0 for an empty log).
pub fn pack_netlog(log: &NetLog) -> Vec<u8> {
    let nodes =
        log.records().iter().map(|r| r.src.index().max(r.dst.index()) + 1).max().unwrap_or(0);
    let mut w = NetLogWriter::new(Vec::new(), nodes).expect("Vec sink cannot fail");
    for &r in log.records() {
        w.push(r).expect("log invariants already hold");
    }
    w.set_utilization(log.utilization().to_vec());
    w.finish().expect("Vec sink cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_trace::EventKind;

    #[test]
    fn writer_rejects_invalid_events_without_panicking() {
        let mut w = TraceWriter::new(Vec::new(), 4).unwrap();
        let bad_dst = CommEvent::new(0, 0, 0, 9, 8, EventKind::Data);
        assert!(matches!(w.push(bad_dst), Err(TraceStoreError::Corrupt(_))));
        let self_msg = CommEvent::new(0, 0, 2, 2, 8, EventKind::Data);
        assert!(matches!(w.push(self_msg), Err(TraceStoreError::Corrupt(_))));
        assert!(TraceWriter::new(Vec::new(), 0).is_err());
        assert!(TraceWriter::with_block_len(Vec::new(), 4, 0).is_err());
    }

    #[test]
    fn io_errors_surface() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = TraceWriter::new(Broken, 2).err().expect("header write must fail");
        assert!(matches!(err, TraceStoreError::Io(_)), "{err}");
    }

    #[test]
    fn any_block_len_packs_without_reserving_it() {
        let mut trace = CommTrace::new(4);
        for i in 0..10 {
            trace.push(CommEvent::new(i, i, 0, 1 + (i % 3) as u16, 8, EventKind::Data));
        }
        let mut w = TraceWriter::with_block_len(Vec::new(), 4, usize::MAX).unwrap();
        for &e in trace.events() {
            w.push(e).unwrap();
        }
        // One block holds every event: the same bytes as a block length of
        // exactly the trace's length.
        assert_eq!(w.finish().unwrap(), pack_trace_with_block_len(&trace, trace.len()));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn lengths_past_u32_are_typed_errors() {
        let max = u32::MAX as usize;
        assert_eq!(u32_len("block payload", max).unwrap(), u32::MAX.to_le_bytes());
        match u32_len("block payload", max + 1) {
            Err(TraceStoreError::TooLarge { what: "block payload", bytes }) => {
                assert_eq!(bytes, max + 1)
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_trace_packs_to_header_and_footer_only() {
        let packed = pack_trace(&CommTrace::new(3));
        // magic + kind + nodes varint + footer("0 blocks") + len + magic.
        assert!(packed.len() < 32, "unexpected size {}", packed.len());
    }
}
