//! The CCSERVE1 wire protocol: length-prefixed, checksummed frames
//! carrying typed commands, responses and errors.
//!
//! ## Frame layout
//!
//! ```text
//! [ u32le payload length ][ u32le FNV-1a checksum of payload ][ payload ]
//! ```
//!
//! — the same `(length, checksum, payload)` framing a CCTRACE1 block uses
//! on disk, so the two formats corrupt (and are validated) the same way.
//! The payload begins with a one-byte opcode followed by fixed-width
//! little-endian fields; variable-length fields (block payloads, report
//! text) are `u32le` length-prefixed byte strings. A frame longer than
//! the negotiated maximum is rejected *from its header alone*
//! ([`ServeError::Oversize`]) so a malicious length can never force an
//! allocation.
//!
//! [`decode_frame`] is incremental: fed a prefix of a byte stream it
//! returns `Ok(None)` ("need more bytes") until one whole frame is
//! buffered, which is what lets the server multiplex many connections
//! over a few worker threads without blocking on any one socket.
//!
//! Every malformed-input shape decodes to a typed [`ServeError`] — the
//! codec never panics on untrusted bytes, mirroring
//! [`commchar_tracestore::TraceStoreError`]'s taxonomy.

use commchar_tracestore::fnv1a;

/// Leading magic of the [`Msg::Hello`] body: the protocol's name. Its
/// revision is the [`PROTOCOL_VERSION`] field that follows.
pub const HELLO_MAGIC: [u8; 8] = *b"CCSERVE1";

/// Protocol revision negotiated by `Hello`/`HelloOk`. Revision 2 dropped
/// the always-zero `buffered` fields of `BlocksAck` and `Backpressure`,
/// so a revision-1 peer is refused with [`ServeError::BadVersion`]
/// rather than misreading their frames.
pub const PROTOCOL_VERSION: u32 = 2;

/// Cap on one frame's payload bytes (16 MiB): far above any sane block
/// batch, far below an allocation attack. Every server enforces it and
/// advertises it in `HelloOk`.
pub const MAX_FRAME: u32 = 16 << 20;

/// Typed failure taxonomy of the serve protocol — every way a frame, a
/// command or a session can go wrong, encodable on the wire so clients
/// receive the *same* typed error the server classified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The payload ended before `needed` bytes of `context` were read.
    Truncated {
        /// What was being decoded when the payload ran out.
        context: String,
        /// Bytes the decoder needed.
        needed: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// A frame header declares a payload longer than the negotiated cap.
    Oversize {
        /// Declared payload length.
        len: u64,
        /// Negotiated maximum.
        max: u64,
    },
    /// A frame's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The `Hello` body did not start with [`HELLO_MAGIC`].
    BadMagic {
        /// The bytes found where the magic was expected.
        found: Vec<u8>,
    },
    /// The payload's opcode byte is not one this version knows.
    BadOpcode(u8),
    /// Client and server disagree on [`PROTOCOL_VERSION`].
    BadVersion {
        /// Version the client offered.
        client: u32,
        /// Version the server speaks.
        server: u32,
    },
    /// Structurally valid frame describing an impossible command (zero
    /// nodes, an unknown error code, …).
    Malformed {
        /// What was wrong.
        context: String,
    },
    /// A command addressed a session id that is not open (never opened,
    /// already closed, or evicted).
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// A `TraceBlocks` frame carried more block payload than the
    /// server's per-frame bound; nothing was applied, and the client
    /// resends the blocks in smaller frames.
    Backpressure {
        /// The session the frame was for.
        session: u64,
        /// The per-frame bound, bytes.
        capacity: u64,
    },
    /// The session was poisoned by an earlier streaming error (unsorted
    /// events, an undecodable block) and can only be closed.
    SessionFailed {
        /// The poisoned session.
        session: u64,
        /// The first error that poisoned it, rendered.
        reason: String,
    },
    /// A streamed block's events were out of time order (within the block
    /// or against the session's already-absorbed prefix).
    Unsorted {
        /// The later timestamp seen first.
        prev: u64,
        /// The earlier timestamp that arrived after it.
        at: u64,
    },
    /// A `TraceBlocks` block payload failed to decode.
    Store {
        /// The decode error, rendered.
        reason: String,
    },
    /// A poll arrived before the session had two aggregate inter-arrival
    /// gaps — nothing can be fitted yet.
    Degenerate {
        /// Gaps observed so far (0 or 1).
        gaps: u64,
    },
    /// The server is shutting down and accepts no further commands.
    ShuttingDown,
    /// An I/O failure, rendered (client-side wrapper; also returned by a
    /// server that failed to read a block from its own buffers).
    Io {
        /// The I/O error, rendered.
        context: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Truncated { context, needed, have } => {
                write!(f, "truncated frame: {context} needs {needed} bytes, have {have}")
            }
            ServeError::Oversize { len, max } => {
                write!(f, "oversize frame: payload of {len} bytes exceeds the {max}-byte cap")
            }
            ServeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ServeError::BadMagic { found } => {
                write!(f, "bad hello magic {found:02x?} (expected {HELLO_MAGIC:02x?})")
            }
            ServeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ServeError::BadVersion { client, server } => {
                write!(f, "protocol version mismatch: client {client}, server {server}")
            }
            ServeError::Malformed { context } => write!(f, "malformed command: {context}"),
            ServeError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServeError::Backpressure { session, capacity } => write!(
                f,
                "session {session} backpressure: frame over the {capacity}-byte block payload bound"
            ),
            ServeError::SessionFailed { session, reason } => {
                write!(f, "session {session} failed: {reason}")
            }
            ServeError::Unsorted { prev, at } => {
                write!(f, "events out of time order: t={at} after t={prev}")
            }
            ServeError::Store { reason } => write!(f, "block undecodable: {reason}"),
            ServeError::Degenerate { gaps } => {
                write!(f, "too few samples: {gaps} inter-arrival gap(s), need at least 2")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Io { context } => write!(f, "I/O error: {context}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io { context: e.to_string() }
    }
}

/// Server-wide counters reported by [`Msg::Stats`] — the operational
/// dashboard of a long-running characterization service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently open.
    pub sessions_open: u64,
    /// Sessions opened since startup.
    pub sessions_opened: u64,
    /// Sessions closed by their client.
    pub sessions_closed: u64,
    /// Sessions evicted for idleness.
    pub evictions: u64,
    /// Frames decoded successfully.
    pub frames: u64,
    /// Frames rejected by the codec (checksum, oversize, opcode, …).
    pub frame_errors: u64,
    /// Events absorbed into session accumulators.
    pub events: u64,
    /// Block payload bytes accepted.
    pub bytes: u64,
    /// Mid-stream and closing polls answered with a report.
    pub polls: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

/// One protocol message — commands (client → server) and responses
/// (server → client) share the frame format, so both directions decode
/// through the same [`decode_frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// First command on every connection: magic + version handshake.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Opens a characterization session over `nodes` processors.
    OpenSession {
        /// Processor count of the stream (bounds endpoint validation;
        /// the server refuses 0 and anything above
        /// [`MAX_NODES`](commchar_trace::MAX_NODES)).
        nodes: u32,
    },
    /// Appends CCTRACE1-encoded event blocks to a session, in time order.
    TraceBlocks {
        /// Target session.
        session: u64,
        /// Standalone block payloads
        /// ([`commchar_tracestore::encode_event_block`]), each sorted by
        /// time and starting no earlier than the previous block ended.
        blocks: Vec<Vec<u8>>,
    },
    /// Requests a live report of the session's converging signature.
    Poll {
        /// Target session.
        session: u64,
    },
    /// Closes a session, returning its final report.
    CloseSession {
        /// Target session.
        session: u64,
    },
    /// Requests the server-wide [`ServerStats`] counters.
    Stats,
    /// Asks the server to shut down cleanly (drains, then exits).
    Shutdown,
    /// Handshake accepted; carries the server's limits.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Largest accepted frame payload, bytes.
        max_frame: u32,
        /// Largest total block payload of one `TraceBlocks` frame, bytes.
        session_buffer: u64,
    },
    /// A session was opened.
    SessionOpened {
        /// The new session's id.
        session: u64,
    },
    /// A frame's blocks were decoded and absorbed.
    BlocksAck {
        /// The session acknowledged.
        session: u64,
        /// Events absorbed into the accumulator so far.
        events: u64,
    },
    /// A live or final characterization report.
    Report {
        /// The session reported on.
        session: u64,
        /// Events the report covers.
        events: u64,
        /// True for a `CloseSession` final report.
        is_final: bool,
        /// The rendered analysis report (byte-identical to offline
        /// `characterize` on the same events).
        text: String,
    },
    /// The server-wide counters.
    StatsReport(ServerStats),
    /// Clean-shutdown acknowledgement (the connection closes after).
    ShutdownOk,
    /// A typed failure answering the offending command.
    Error(ServeError),
}

// Opcodes. Commands are low, responses high, errors 0xEE.
const OP_HELLO: u8 = 0x01;
const OP_OPEN: u8 = 0x02;
const OP_BLOCKS: u8 = 0x03;
const OP_POLL: u8 = 0x04;
const OP_CLOSE: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_HELLO_OK: u8 = 0x81;
const OP_OPENED: u8 = 0x82;
const OP_ACK: u8 = 0x83;
const OP_REPORT: u8 = 0x84;
const OP_STATS_REPORT: u8 = 0x85;
const OP_SHUTDOWN_OK: u8 = 0x86;
const OP_ERROR: u8 = 0xEE;

// Error codes within an OP_ERROR payload.
const E_TRUNCATED: u8 = 1;
const E_OVERSIZE: u8 = 2;
const E_CHECKSUM: u8 = 3;
const E_MAGIC: u8 = 4;
const E_OPCODE: u8 = 5;
const E_VERSION: u8 = 6;
const E_MALFORMED: u8 = 7;
const E_UNKNOWN_SESSION: u8 = 8;
const E_BACKPRESSURE: u8 = 9;
const E_SESSION_FAILED: u8 = 10;
const E_UNSORTED: u8 = 11;
const E_STORE: u8 = 12;
const E_DEGENERATE: u8 = 13;
const E_SHUTTING_DOWN: u8 = 14;
const E_IO: u8 = 15;

/// Bounded little-endian reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], ServeError> {
        if self.buf.len() - self.pos < n {
            return Err(ServeError::Truncated {
                context: context.to_string(),
                needed: n as u64,
                have: (self.buf.len() - self.pos) as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &str) -> Result<u8, ServeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &str) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    /// A `u32le`-length-prefixed byte string; the declared length is
    /// checked against the remaining payload before any allocation.
    fn bytes(&mut self, context: &str) -> Result<Vec<u8>, ServeError> {
        let n = self.u32(context)? as usize;
        Ok(self.take(n, context)?.to_vec())
    }

    fn string(&mut self, context: &str) -> Result<String, ServeError> {
        String::from_utf8(self.bytes(context)?)
            .map_err(|_| ServeError::Malformed { context: format!("{context}: not UTF-8") })
    }

    fn finish(self, context: &str) -> Result<(), ServeError> {
        if self.pos != self.buf.len() {
            return Err(ServeError::Malformed {
                context: format!("{context}: {} trailing bytes", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_error(out: &mut Vec<u8>, e: &ServeError) {
    match e {
        ServeError::Truncated { context, needed, have } => {
            out.push(E_TRUNCATED);
            put_bytes(out, context.as_bytes());
            out.extend_from_slice(&needed.to_le_bytes());
            out.extend_from_slice(&have.to_le_bytes());
        }
        ServeError::Oversize { len, max } => {
            out.push(E_OVERSIZE);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
        }
        ServeError::ChecksumMismatch { stored, computed } => {
            out.push(E_CHECKSUM);
            out.extend_from_slice(&stored.to_le_bytes());
            out.extend_from_slice(&computed.to_le_bytes());
        }
        ServeError::BadMagic { found } => {
            out.push(E_MAGIC);
            put_bytes(out, found);
        }
        ServeError::BadOpcode(op) => {
            out.push(E_OPCODE);
            out.push(*op);
        }
        ServeError::BadVersion { client, server } => {
            out.push(E_VERSION);
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&server.to_le_bytes());
        }
        ServeError::Malformed { context } => {
            out.push(E_MALFORMED);
            put_bytes(out, context.as_bytes());
        }
        ServeError::UnknownSession { session } => {
            out.push(E_UNKNOWN_SESSION);
            out.extend_from_slice(&session.to_le_bytes());
        }
        ServeError::Backpressure { session, capacity } => {
            out.push(E_BACKPRESSURE);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&capacity.to_le_bytes());
        }
        ServeError::SessionFailed { session, reason } => {
            out.push(E_SESSION_FAILED);
            out.extend_from_slice(&session.to_le_bytes());
            put_bytes(out, reason.as_bytes());
        }
        ServeError::Unsorted { prev, at } => {
            out.push(E_UNSORTED);
            out.extend_from_slice(&prev.to_le_bytes());
            out.extend_from_slice(&at.to_le_bytes());
        }
        ServeError::Store { reason } => {
            out.push(E_STORE);
            put_bytes(out, reason.as_bytes());
        }
        ServeError::Degenerate { gaps } => {
            out.push(E_DEGENERATE);
            out.extend_from_slice(&gaps.to_le_bytes());
        }
        ServeError::ShuttingDown => out.push(E_SHUTTING_DOWN),
        ServeError::Io { context } => {
            out.push(E_IO);
            put_bytes(out, context.as_bytes());
        }
    }
}

fn decode_error(cur: &mut Cursor<'_>) -> Result<ServeError, ServeError> {
    Ok(match cur.u8("error code")? {
        E_TRUNCATED => ServeError::Truncated {
            context: cur.string("truncated context")?,
            needed: cur.u64("truncated needed")?,
            have: cur.u64("truncated have")?,
        },
        E_OVERSIZE => {
            ServeError::Oversize { len: cur.u64("oversize len")?, max: cur.u64("oversize max")? }
        }
        E_CHECKSUM => ServeError::ChecksumMismatch {
            stored: cur.u32("checksum stored")?,
            computed: cur.u32("checksum computed")?,
        },
        E_MAGIC => ServeError::BadMagic { found: cur.bytes("magic found")? },
        E_OPCODE => ServeError::BadOpcode(cur.u8("opcode")?),
        E_VERSION => ServeError::BadVersion {
            client: cur.u32("version client")?,
            server: cur.u32("version server")?,
        },
        E_MALFORMED => ServeError::Malformed { context: cur.string("malformed context")? },
        E_UNKNOWN_SESSION => ServeError::UnknownSession { session: cur.u64("session id")? },
        E_BACKPRESSURE => ServeError::Backpressure {
            session: cur.u64("session id")?,
            capacity: cur.u64("buffer capacity")?,
        },
        E_SESSION_FAILED => ServeError::SessionFailed {
            session: cur.u64("session id")?,
            reason: cur.string("failure reason")?,
        },
        E_UNSORTED => {
            ServeError::Unsorted { prev: cur.u64("unsorted prev")?, at: cur.u64("unsorted at")? }
        }
        E_STORE => ServeError::Store { reason: cur.string("store reason")? },
        E_DEGENERATE => ServeError::Degenerate { gaps: cur.u64("gap count")? },
        E_SHUTTING_DOWN => ServeError::ShuttingDown,
        E_IO => ServeError::Io { context: cur.string("io context")? },
        other => {
            return Err(ServeError::Malformed { context: format!("unknown error code {other}") })
        }
    })
}

fn encode_stats(out: &mut Vec<u8>, s: &ServerStats) {
    for v in [
        s.sessions_open,
        s.sessions_opened,
        s.sessions_closed,
        s.evictions,
        s.frames,
        s.frame_errors,
        s.events,
        s.bytes,
        s.polls,
        s.uptime_ms,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_stats(cur: &mut Cursor<'_>) -> Result<ServerStats, ServeError> {
    Ok(ServerStats {
        sessions_open: cur.u64("stats sessions_open")?,
        sessions_opened: cur.u64("stats sessions_opened")?,
        sessions_closed: cur.u64("stats sessions_closed")?,
        evictions: cur.u64("stats evictions")?,
        frames: cur.u64("stats frames")?,
        frame_errors: cur.u64("stats frame_errors")?,
        events: cur.u64("stats events")?,
        bytes: cur.u64("stats bytes")?,
        polls: cur.u64("stats polls")?,
        uptime_ms: cur.u64("stats uptime_ms")?,
    })
}

/// Encodes one message as a frame payload (no length/checksum header).
pub fn encode_payload(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Msg::Hello { version } => {
            out.push(OP_HELLO);
            out.extend_from_slice(&HELLO_MAGIC);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Msg::OpenSession { nodes } => {
            out.push(OP_OPEN);
            out.extend_from_slice(&nodes.to_le_bytes());
        }
        Msg::TraceBlocks { session, blocks } => {
            out.push(OP_BLOCKS);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
            for b in blocks {
                put_bytes(&mut out, b);
            }
        }
        Msg::Poll { session } => {
            out.push(OP_POLL);
            out.extend_from_slice(&session.to_le_bytes());
        }
        Msg::CloseSession { session } => {
            out.push(OP_CLOSE);
            out.extend_from_slice(&session.to_le_bytes());
        }
        Msg::Stats => out.push(OP_STATS),
        Msg::Shutdown => out.push(OP_SHUTDOWN),
        Msg::HelloOk { version, max_frame, session_buffer } => {
            out.push(OP_HELLO_OK);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&max_frame.to_le_bytes());
            out.extend_from_slice(&session_buffer.to_le_bytes());
        }
        Msg::SessionOpened { session } => {
            out.push(OP_OPENED);
            out.extend_from_slice(&session.to_le_bytes());
        }
        Msg::BlocksAck { session, events } => {
            out.push(OP_ACK);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&events.to_le_bytes());
        }
        Msg::Report { session, events, is_final, text } => {
            out.push(OP_REPORT);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&events.to_le_bytes());
            out.push(u8::from(*is_final));
            put_bytes(&mut out, text.as_bytes());
        }
        Msg::StatsReport(s) => {
            out.push(OP_STATS_REPORT);
            encode_stats(&mut out, s);
        }
        Msg::ShutdownOk => out.push(OP_SHUTDOWN_OK),
        Msg::Error(e) => {
            out.push(OP_ERROR);
            encode_error(&mut out, e);
        }
    }
    out
}

/// Decodes one frame payload (the inverse of [`encode_payload`]).
///
/// # Errors
///
/// A typed [`ServeError`] on any malformed shape: unknown opcode, short
/// fields, non-UTF-8 text, trailing bytes.
pub fn decode_payload(payload: &[u8]) -> Result<Msg, ServeError> {
    let mut cur = Cursor::new(payload);
    let op = cur.u8("opcode")?;
    let msg = match op {
        OP_HELLO => {
            let magic = cur.take(HELLO_MAGIC.len(), "hello magic")?;
            if magic != HELLO_MAGIC {
                return Err(ServeError::BadMagic { found: magic.to_vec() });
            }
            Msg::Hello { version: cur.u32("hello version")? }
        }
        OP_OPEN => Msg::OpenSession { nodes: cur.u32("node count")? },
        OP_BLOCKS => {
            let session = cur.u64("session id")?;
            let n = cur.u32("block count")? as usize;
            // Each block costs ≥ 4 header bytes, so an absurd count is
            // caught before any allocation.
            if n > payload.len() {
                return Err(ServeError::Malformed {
                    context: format!("{n} blocks claimed in a {}-byte payload", payload.len()),
                });
            }
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(cur.bytes("block payload")?);
            }
            Msg::TraceBlocks { session, blocks }
        }
        OP_POLL => Msg::Poll { session: cur.u64("session id")? },
        OP_CLOSE => Msg::CloseSession { session: cur.u64("session id")? },
        OP_STATS => Msg::Stats,
        OP_SHUTDOWN => Msg::Shutdown,
        OP_HELLO_OK => Msg::HelloOk {
            version: cur.u32("hello version")?,
            max_frame: cur.u32("max frame")?,
            session_buffer: cur.u64("session buffer")?,
        },
        OP_OPENED => Msg::SessionOpened { session: cur.u64("session id")? },
        OP_ACK => {
            Msg::BlocksAck { session: cur.u64("session id")?, events: cur.u64("event count")? }
        }
        OP_REPORT => Msg::Report {
            session: cur.u64("session id")?,
            events: cur.u64("event count")?,
            is_final: match cur.u8("final flag")? {
                0 => false,
                1 => true,
                other => {
                    return Err(ServeError::Malformed {
                        context: format!("final flag {other} is not 0/1"),
                    })
                }
            },
            text: cur.string("report text")?,
        },
        OP_STATS_REPORT => Msg::StatsReport(decode_stats(&mut cur)?),
        OP_SHUTDOWN_OK => Msg::ShutdownOk,
        OP_ERROR => Msg::Error(decode_error(&mut cur)?),
        other => return Err(ServeError::BadOpcode(other)),
    };
    cur.finish("frame payload")?;
    Ok(msg)
}

/// Encodes one message as a complete wire frame (header + payload).
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let payload = encode_payload(msg);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Incrementally decodes the first frame of `buf`.
///
/// Returns `Ok(None)` while the buffer holds less than one whole frame
/// (read more bytes and retry), or `Ok(Some((msg, consumed)))` once a
/// frame is complete — the caller drains `consumed` bytes and loops.
///
/// # Errors
///
/// A typed [`ServeError`] for every unrecoverable shape: a declared
/// length over `max_frame` ([`ServeError::Oversize`], detected from the
/// header alone), a checksum mismatch, or any payload-level decode
/// failure. After an error the stream is desynchronized and the
/// connection should be closed — the length prefix cannot be trusted to
/// resynchronize.
pub fn decode_frame(buf: &[u8], max_frame: u32) -> Result<Option<(Msg, usize)>, ServeError> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    if len > max_frame as usize {
        return Err(ServeError::Oversize { len: len as u64, max: max_frame as u64 });
    }
    if buf.len() < 8 + len {
        return Ok(None);
    }
    let stored = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let payload = &buf[8..8 + len];
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(ServeError::ChecksumMismatch { stored, computed });
    }
    Ok(Some((decode_payload(payload)?, 8 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let msg = Msg::TraceBlocks { session: 7, blocks: vec![vec![1, 2, 3], vec![], vec![9]] };
        let frame = encode_frame(&msg);
        let (back, consumed) = decode_frame(&frame, MAX_FRAME).unwrap().unwrap();
        assert_eq!(back, msg);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn partial_frames_ask_for_more() {
        let frame = encode_frame(&Msg::Stats);
        for cut in 0..frame.len() {
            assert!(matches!(decode_frame(&frame[..cut], MAX_FRAME), Ok(None)));
        }
    }

    #[test]
    fn oversize_is_rejected_from_the_header() {
        let mut frame = encode_frame(&Msg::Stats);
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&frame, MAX_FRAME), Err(ServeError::Oversize { .. })));
    }

    #[test]
    fn checksum_flip_is_typed() {
        let mut frame = encode_frame(&Msg::Poll { session: 3 });
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&frame, MAX_FRAME),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_hello_magic_is_typed() {
        let mut payload = encode_payload(&Msg::Hello { version: PROTOCOL_VERSION });
        payload[1] = b'X';
        match decode_payload(&payload) {
            Err(ServeError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
}
