//! A small blocking client for the CCSERVE1 protocol.
//!
//! Strictly request/response: every call writes one command frame and
//! blocks until the matching response frame arrives. Server-reported
//! failures surface as the typed [`ServeError`] carried by the error
//! frame, so callers see the same taxonomy on both ends of the wire.

use std::io::{Read, Write};
use std::net::TcpStream;

use commchar_trace::CommEvent;
use commchar_tracestore::encode_event_block;

use crate::protocol::{
    decode_frame, encode_frame, Msg, ServeError, ServerStats, MAX_FRAME, PROTOCOL_VERSION,
};

/// A connected, greeted CCSERVE1 client.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: u32,
    /// Server-advertised per-frame block payload bound, bytes.
    session_buffer: u64,
}

impl ServeClient {
    /// Connects to `addr` and performs the `Hello` handshake.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect failure, [`ServeError::BadVersion`]
    /// on a protocol-version mismatch, or any frame-decode error.
    pub fn connect(addr: &str) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client =
            ServeClient { stream, buf: Vec::new(), max_frame: MAX_FRAME, session_buffer: u64::MAX };
        match client.call(&Msg::Hello { version: PROTOCOL_VERSION })? {
            Msg::HelloOk { max_frame, session_buffer, .. } => {
                client.max_frame = max_frame;
                client.session_buffer = session_buffer;
                Ok(client)
            }
            other => Err(unexpected(other)),
        }
    }

    /// The server-advertised bound on one frame's total block payload,
    /// bytes.
    pub fn session_buffer(&self) -> u64 {
        self.session_buffer
    }

    /// Opens a characterization session over `nodes` processors and
    /// returns its id.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's typed refusal.
    pub fn open_session(&mut self, nodes: u32) -> Result<u64, ServeError> {
        match self.call(&Msg::OpenSession { nodes })? {
            Msg::SessionOpened { session } => Ok(session),
            other => Err(unexpected(other)),
        }
    }

    /// Sends pre-encoded CCTRACE1 block payloads in one frame. Returns the
    /// number of events the session has absorbed so far; the server
    /// decodes each frame before replying.
    ///
    /// # Errors
    ///
    /// Transport errors, [`ServeError::Backpressure`] when the frame's
    /// payloads exceed the server's per-frame bound (nothing was applied —
    /// resend in smaller frames), or [`ServeError::SessionFailed`] once a
    /// session is poisoned.
    pub fn send_blocks(&mut self, session: u64, blocks: Vec<Vec<u8>>) -> Result<u64, ServeError> {
        match self.call(&Msg::TraceBlocks { session, blocks })? {
            Msg::BlocksAck { events, .. } => Ok(events),
            other => Err(unexpected(other)),
        }
    }

    /// Encodes `events` as one CCTRACE1 block payload and sends it.
    /// The events must be in nondecreasing time order, at or after every
    /// previously sent event (the same contract as the packed format).
    ///
    /// # Errors
    ///
    /// As [`send_blocks`](Self::send_blocks).
    pub fn send_events(&mut self, session: u64, events: &[CommEvent]) -> Result<u64, ServeError> {
        self.send_blocks(session, vec![encode_event_block(events)])
    }

    /// Polls the live report: `(events_absorbed, report_text)`.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's typed refusal (e.g.
    /// [`ServeError::Degenerate`] before two inter-arrival gaps exist).
    pub fn poll(&mut self, session: u64) -> Result<(u64, String), ServeError> {
        match self.call(&Msg::Poll { session })? {
            Msg::Report { events, text, is_final: false, .. } => Ok((events, text)),
            other => Err(unexpected(other)),
        }
    }

    /// Closes the session and returns the final `(events, report_text)` —
    /// byte-identical to offline `characterize` on the same events.
    ///
    /// # Errors
    ///
    /// As [`poll`](Self::poll); the session is gone afterwards either way.
    pub fn close_session(&mut self, session: u64) -> Result<(u64, String), ServeError> {
        match self.call(&Msg::CloseSession { session })? {
            Msg::Report { events, text, is_final: true, .. } => Ok((events, text)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server counters.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        match self.call(&Msg::Stats)? {
            Msg::StatsReport(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down; consumes the client (the server
    /// closes the connection after acknowledging).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn shutdown_server(mut self) -> Result<(), ServeError> {
        match self.call(&Msg::Shutdown)? {
            Msg::ShutdownOk => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// One request/response round-trip. Error frames become `Err`.
    fn call(&mut self, msg: &Msg) -> Result<Msg, ServeError> {
        self.stream
            .write_all(&encode_frame(msg))
            .map_err(|e| ServeError::Io { context: format!("writing command frame: {e}") })?;
        loop {
            if let Some((msg, consumed)) = decode_frame(&self.buf, self.max_frame)? {
                self.buf.drain(..consumed);
                return match msg {
                    Msg::Error(e) => Err(e),
                    other => Ok(other),
                };
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ServeError::Truncated {
                        context: "response frame: connection closed".to_string(),
                        needed: 8,
                        have: self.buf.len() as u64,
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(ServeError::Io { context: format!("reading response frame: {e}") })
                }
            }
        }
    }
}

fn unexpected(msg: Msg) -> ServeError {
    ServeError::Malformed { context: format!("unexpected response: {msg:?}") }
}
