//! Loopback session tests: a real server on an ephemeral port, a real
//! client over TCP. Pins the headline guarantee — the final served
//! report is **byte-identical** to the offline analysis of the same
//! events — plus the protocol edges: mid-stream polling, backpressure,
//! session poisoning, idle eviction, the stats counters and bad frames
//! inside live sessions.

use std::time::Duration;

use commchar_core::analyze::try_analyze_trace;
use commchar_core::report::analysis_report;
use commchar_mesh::MeshConfig;
use commchar_serve::protocol::{decode_frame, encode_frame, Msg, MAX_FRAME};
use commchar_serve::{ServeClient, ServeConfig, ServeError, Server};
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::encode_event_block;

/// A synthetic multi-node trace with mixed kinds and sizes — enough
/// events for non-degenerate per-source samples.
fn sample_trace(nodes: usize, events: usize) -> CommTrace {
    let mut tr = CommTrace::new(nodes);
    let mut id = 0u64;
    let mut t = 0u64;
    while (id as usize) < events {
        let src = (id % nodes as u64) as u16;
        let dst = ((id * 5 + 3) % nodes as u64) as u16;
        t += 3 + (id * 7) % 23;
        if src != dst {
            let kind = match id % 3 {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            tr.push(CommEvent::new(id, t, src, dst, 16 + (id % 512) as u32, kind));
        }
        id += 1;
    }
    tr
}

fn offline_report(trace: &CommTrace) -> String {
    let shape = MeshConfig::for_nodes(trace.nodes()).shape;
    let a = try_analyze_trace(trace, shape, 1).expect("analyzable sample");
    analysis_report(&a, "trace")
}

fn spawn_server(cfg: ServeConfig) -> (commchar_serve::ServerHandle, String) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

fn small_cfg() -> ServeConfig {
    // A handful of workers keeps the loopback tests snappy under `cargo
    // test`'s own parallelism.
    ServeConfig { workers: 2, ..ServeConfig::default() }
}

#[test]
fn final_report_is_byte_identical_to_offline() {
    let trace = sample_trace(8, 400);
    let offline = offline_report(&trace);
    let (handle, addr) = spawn_server(small_cfg());

    let mut client = ServeClient::connect(&addr).unwrap();
    let session = client.open_session(8).unwrap();
    // Deliberately awkward block sizes, several blocks per frame.
    let blocks: Vec<Vec<u8>> = trace.events().chunks(17).map(encode_event_block).collect();
    for pair in blocks.chunks(2) {
        let events = client.send_blocks(session, pair.to_vec()).unwrap();
        assert!(events as usize <= trace.len());
    }
    let (events, served) = client.close_session(session).unwrap();
    assert_eq!(events as usize, trace.len());
    assert_eq!(served, offline, "served final report must equal the offline analysis");
    handle.shutdown();
}

#[test]
fn midstream_polls_converge_to_the_final_report() {
    let trace = sample_trace(6, 300);
    let offline = offline_report(&trace);
    let (handle, addr) = spawn_server(small_cfg());

    let mut client = ServeClient::connect(&addr).unwrap();
    let session = client.open_session(6).unwrap();
    let half = trace.len() / 2;
    client.send_events(session, &trace.events()[..half]).unwrap();
    let (seen, live) = client.poll(session).unwrap();
    assert_eq!(seen as usize, half);
    assert!(live.contains("temporal attribute"), "live report is a real report:\n{live}");
    // The live report covers a prefix, so it may differ from the final —
    // but the *final* one must land exactly on the offline text.
    client.send_events(session, &trace.events()[half..]).unwrap();
    let (_, polled_full) = client.poll(session).unwrap();
    assert_eq!(polled_full, offline, "a poll after all events equals the offline analysis");
    let (_, final_report) = client.close_session(session).unwrap();
    assert_eq!(final_report, offline);
    handle.shutdown();
}

#[test]
fn concurrent_sessions_are_isolated() {
    let a = sample_trace(4, 200);
    let b = sample_trace(9, 250);
    let (handle, addr) = spawn_server(small_cfg());

    let mut client = ServeClient::connect(&addr).unwrap();
    let sa = client.open_session(4).unwrap();
    let sb = client.open_session(9).unwrap();
    assert_ne!(sa, sb);
    // Interleave the two streams over one connection.
    let ca: Vec<&[CommEvent]> = a.events().chunks(40).collect();
    let cb: Vec<&[CommEvent]> = b.events().chunks(40).collect();
    for i in 0..ca.len().max(cb.len()) {
        if let Some(chunk) = ca.get(i) {
            client.send_events(sa, chunk).unwrap();
        }
        if let Some(chunk) = cb.get(i) {
            client.send_events(sb, chunk).unwrap();
        }
    }
    let (na, ra) = client.close_session(sa).unwrap();
    let (nb, rb) = client.close_session(sb).unwrap();
    assert_eq!(na as usize, a.len());
    assert_eq!(nb as usize, b.len());
    assert_eq!(ra, offline_report(&a));
    assert_eq!(rb, offline_report(&b));
    handle.shutdown();
}

#[test]
fn backpressure_is_a_typed_refusal_and_applies_nothing() {
    // A tiny inbox forces the refusal deterministically.
    let cfg = ServeConfig { workers: 1, session_buffer: 64, ..ServeConfig::default() };
    let (handle, addr) = spawn_server(cfg);
    let trace = sample_trace(4, 120);

    let mut client = ServeClient::connect(&addr).unwrap();
    assert_eq!(client.session_buffer(), 64, "HelloOk advertises the cap");
    let session = client.open_session(4).unwrap();
    let big = encode_event_block(trace.events());
    assert!(big.len() > 64);
    match client.send_blocks(session, vec![big]) {
        Err(ServeError::Backpressure { session: s, capacity }) => {
            assert_eq!(s, session);
            assert_eq!(capacity, 64);
        }
        other => panic!("expected Backpressure, got {other:?}"),
    }
    // Nothing was applied: small blocks that fit still stream fine and
    // the final report covers exactly what was accepted.
    for chunk in trace.events().chunks(4) {
        client.send_events(session, chunk).unwrap();
    }
    let (events, report) = client.close_session(session).unwrap();
    assert_eq!(events as usize, trace.len());
    assert_eq!(report, offline_report(&trace));
    handle.shutdown();
}

#[test]
fn unsorted_blocks_poison_the_session_with_a_typed_error() {
    let (handle, addr) = spawn_server(small_cfg());
    let mut client = ServeClient::connect(&addr).unwrap();
    let session = client.open_session(4).unwrap();
    let fwd = [
        CommEvent::new(0, 100, 0, 1, 8, EventKind::Data),
        CommEvent::new(1, 200, 1, 2, 8, EventKind::Data),
    ];
    client.send_events(session, &fwd).unwrap();
    // This block starts before the absorbed prefix ended: out of order.
    let back = [CommEvent::new(2, 50, 2, 3, 8, EventKind::Data)];
    match client.send_events(session, &back) {
        Err(ServeError::SessionFailed { session: s, reason }) => {
            assert_eq!(s, session);
            assert!(reason.contains("out of time order"), "reason: {reason}");
        }
        other => panic!("expected SessionFailed, got {other:?}"),
    }
    // Poisoned: every later command reports the same failure class.
    assert!(matches!(client.poll(session), Err(ServeError::SessionFailed { .. })));
    assert!(matches!(client.send_events(session, &fwd), Err(ServeError::SessionFailed { .. })));
    handle.shutdown();
}

#[test]
fn degenerate_polls_and_unknown_sessions_are_typed() {
    let (handle, addr) = spawn_server(small_cfg());
    let mut client = ServeClient::connect(&addr).unwrap();
    let session = client.open_session(4).unwrap();
    // No events yet: zero gaps.
    match client.poll(session) {
        Err(ServeError::Degenerate { gaps: 0 }) => {}
        other => panic!("expected Degenerate(0), got {other:?}"),
    }
    assert!(matches!(client.poll(session + 999), Err(ServeError::UnknownSession { .. })));
    // Closing a degenerate session still removes it.
    assert!(matches!(client.close_session(session), Err(ServeError::Degenerate { .. })));
    assert!(matches!(client.poll(session), Err(ServeError::UnknownSession { .. })));
    handle.shutdown();
}

#[test]
fn idle_sessions_are_evicted_active_ones_are_not() {
    let cfg = ServeConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let (handle, addr) = spawn_server(cfg);
    let trace = sample_trace(4, 60);

    let mut client = ServeClient::connect(&addr).unwrap();
    let idle = client.open_session(4).unwrap();
    let active = client.open_session(4).unwrap();
    client.send_events(active, trace.events()).unwrap();
    // Keep `active` warm past several timeout windows; never touch `idle`.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(60));
        client.poll(active).unwrap();
    }
    match client.poll(idle) {
        Err(ServeError::UnknownSession { session }) => assert_eq!(session, idle),
        other => panic!("idle session should be evicted, got {other:?}"),
    }
    let (events, report) = client.close_session(active).unwrap();
    assert_eq!(events as usize, trace.len());
    assert_eq!(report, offline_report(&trace));
    let stats = client.stats().unwrap();
    assert_eq!(stats.evictions, 1, "exactly the idle session was evicted");
    handle.shutdown();
}

#[test]
fn a_huge_idle_timeout_never_evicts() {
    // The smallest whole-second timeout whose milliseconds overflow a
    // u64 (`serve --idle-timeout 18446744073709552`): it must mean
    // "never evict", not wrap to 384 ms.
    let cfg = ServeConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(18_446_744_073_709_552),
        ..ServeConfig::default()
    };
    let (handle, addr) = spawn_server(cfg);
    let trace = sample_trace(4, 60);
    let mut client = ServeClient::connect(&addr).unwrap();
    let session = client.open_session(4).unwrap();
    client.send_events(session, trace.events()).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    client.poll(session).expect("an idle session under a huge timeout still answers");
    assert_eq!(client.stats().unwrap().evictions, 0);
    handle.shutdown();
}

#[test]
fn stats_count_the_traffic() {
    let (handle, addr) = spawn_server(small_cfg());
    let trace = sample_trace(5, 100);
    let mut client = ServeClient::connect(&addr).unwrap();
    let session = client.open_session(5).unwrap();
    client.send_events(session, trace.events()).unwrap();
    client.poll(session).unwrap();
    client.close_session(session).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.sessions_open, 0);
    assert_eq!(stats.events as usize, trace.len());
    assert_eq!(stats.polls, 2, "one mid-stream poll + one closing report");
    assert!(stats.bytes > 0);
    // Hello + open + blocks + poll + close + this stats command.
    assert!(stats.frames >= 6, "frames: {}", stats.frames);
    assert_eq!(stats.frame_errors, 0);
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.events, stats.events);
}

#[test]
fn handshake_is_enforced_and_version_checked() {
    use commchar_serve::protocol::{decode_frame, encode_frame, Msg, MAX_FRAME};
    use std::io::{Read, Write};

    let (handle, addr) = spawn_server(small_cfg());
    // Raw socket: a command before Hello is refused and the connection
    // closed.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(&encode_frame(&Msg::Stats)).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if decode_frame(&buf, MAX_FRAME).unwrap().is_some() {
                    break;
                }
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    let (msg, _) = decode_frame(&buf, MAX_FRAME).unwrap().unwrap();
    match msg {
        Msg::Error(ServeError::Malformed { context }) => {
            assert!(context.contains("Hello"), "context: {context}")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // A wrong version is a typed BadVersion: a revision-1 peer, whose
    // acks and backpressure errors carried a `buffered` field, is refused.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(&encode_frame(&Msg::Hello { version: 1 })).unwrap();
    let mut buf = Vec::new();
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if decode_frame(&buf, MAX_FRAME).unwrap().is_some() {
                    break;
                }
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    let (msg, _) = decode_frame(&buf, MAX_FRAME).unwrap().unwrap();
    assert_eq!(
        msg,
        Msg::Error(ServeError::BadVersion { client: 1, server: commchar_serve::PROTOCOL_VERSION })
    );
    handle.shutdown();
}

#[test]
fn corrupt_frames_are_answered_typed_and_the_connection_closed() {
    use commchar_serve::protocol::{decode_frame, encode_frame, Msg, MAX_FRAME};
    use std::io::{Read, Write};

    let (handle, addr) = spawn_server(small_cfg());
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let mut frame = encode_frame(&Msg::Hello { version: commchar_serve::PROTOCOL_VERSION });
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    raw.write_all(&frame).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    // The server answers with the typed checksum error, then closes: the
    // read loop must reach EOF.
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
    let (msg, _) = decode_frame(&buf, MAX_FRAME).unwrap().unwrap();
    assert!(matches!(msg, Msg::Error(ServeError::ChecksumMismatch { .. })), "got {msg:?}");
    let stats = handle.shutdown();
    assert_eq!(stats.frame_errors, 1);
}

/// A raw connection past its handshake, with one session open, for
/// sending frames no client would.
struct RawSession {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
    session: u64,
}

impl RawSession {
    fn open(addr: &str, nodes: u32) -> RawSession {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        // A server that neither answers nor closes fails the test, not hangs it.
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut raw = RawSession { stream, buf: Vec::new(), session: 0 };
        let hello = Msg::Hello { version: commchar_serve::PROTOCOL_VERSION };
        assert!(matches!(raw.call(&hello), Some(Msg::HelloOk { .. })));
        match raw.call(&Msg::OpenSession { nodes }) {
            Some(Msg::SessionOpened { session }) => raw.session = session,
            other => panic!("expected SessionOpened, got {other:?}"),
        }
        raw
    }

    fn send(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.stream.write_all(bytes).unwrap();
    }

    /// The next reply, or `None` once the server has closed the
    /// connection cleanly, with no partial frame left.
    fn reply(&mut self) -> Option<Msg> {
        use std::io::Read;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((msg, used)) = decode_frame(&self.buf, MAX_FRAME).unwrap() {
                self.buf.drain(..used);
                return Some(msg);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    assert!(self.buf.is_empty(), "{} bytes of a cut reply", self.buf.len());
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    /// The reply to `msg`, sent as a well-formed frame.
    fn call(&mut self, msg: &Msg) -> Option<Msg> {
        self.send(&encode_frame(msg));
        self.reply()
    }
}

/// Bad frames inside live sessions, one per connection. A frame that
/// desynchronizes the stream (flipped checksum, oversize header, unknown
/// opcode) is answered with its typed error and the connection closed; a
/// frame cut short is closed cleanly; a well-framed block that does not
/// decode, or names a node outside its session, poisons the session, which
/// then answers `SessionFailed` to Poll and Close. A well-formed session on
/// another connection meanwhile ends on the offline report.
#[test]
fn corrupt_frames_inside_live_sessions_are_answered_typed() {
    use commchar_tracestore::{decode_event_block, fnv1a};

    let (handle, addr) = spawn_server(small_cfg());
    let trace = sample_trace(6, 300);
    let blocks: Vec<Vec<u8>> = trace.events().chunks(23).map(encode_event_block).collect();
    let (first, rest) = blocks.split_at(blocks.len() / 2);
    let mut good = ServeClient::connect(&addr).unwrap();
    let good_session = good.open_session(6).unwrap();
    good.send_blocks(good_session, first.to_vec()).unwrap();

    let blocks_frame =
        |session| encode_frame(&Msg::TraceBlocks { session, blocks: vec![first[0].clone()] });
    // Frames that desynchronize the stream: a typed error, then the close.
    let mut raw = RawSession::open(&addr, 6);
    let mut flipped = blocks_frame(raw.session);
    flipped[4] ^= 0x01;
    raw.send(&flipped);
    match raw.reply() {
        Some(Msg::Error(ServeError::ChecksumMismatch { stored, computed })) => {
            assert_eq!(stored ^ computed, 0x01, "one flipped checksum bit")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_eq!(raw.reply(), None);

    let mut raw = RawSession::open(&addr, 6);
    raw.send(&[(MAX_FRAME + 1).to_le_bytes(), [0; 4]].concat());
    let oversize = ServeError::Oversize { len: u64::from(MAX_FRAME) + 1, max: MAX_FRAME.into() };
    assert_eq!(raw.reply(), Some(Msg::Error(oversize)));
    assert_eq!(raw.reply(), None);

    let mut raw = RawSession::open(&addr, 6);
    let payload = [0x42u8];
    raw.send(&[&1u32.to_le_bytes()[..], &fnv1a(&payload).to_le_bytes(), &payload].concat());
    assert_eq!(raw.reply(), Some(Msg::Error(ServeError::BadOpcode(0x42))));
    assert_eq!(raw.reply(), None);

    // A frame cut short, then the end of the client's stream: no reply.
    let mut raw = RawSession::open(&addr, 6);
    let whole = blocks_frame(raw.session);
    raw.send(&whole[..whole.len() / 2]);
    raw.stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(raw.reply(), None);

    // Well-framed blocks that poison their session: garbage, and an event
    // whose destination lies outside a 4-node session.
    let outside = encode_event_block(&[CommEvent::new(0, 10, 0, 5, 8, EventKind::Data)]);
    for (nodes, block) in [(6, vec![0xff; 16]), (4, outside)] {
        let mut raw = RawSession::open(&addr, nodes);
        let session = raw.session;
        let reason = decode_event_block(&block, nodes as usize).unwrap_err();
        let failed = Some(Msg::Error(ServeError::SessionFailed {
            session,
            reason: format!("block undecodable: {reason}"),
        }));
        assert_eq!(raw.call(&Msg::TraceBlocks { session, blocks: vec![block] }), failed);
        assert_eq!(raw.call(&Msg::Poll { session }), failed);
        assert_eq!(raw.call(&Msg::CloseSession { session }), failed);
    }

    good.send_blocks(good_session, rest.to_vec()).unwrap();
    let (events, report) = good.close_session(good_session).unwrap();
    assert_eq!(events as usize, trace.len());
    assert_eq!(report, offline_report(&trace));
    assert_eq!(handle.shutdown().frame_errors, 3);
}
