//! The characterization server: session state, connection multiplexing
//! and the command state machine.
//!
//! ## Architecture
//!
//! One nonblocking acceptor + `workers` connection workers that live for
//! the whole [`Server::run`], one scoped thread each
//! ([`commchar_pool::run_concurrent`]; a single worker runs inline on the
//! serving thread). Each worker owns a private set of connections (new
//! sockets are claimed from a shared queue), sweeps them with
//! nonblocking reads, parses complete frames via [`decode_frame`] and
//! answers in place — so hundreds of idle-ish clients multiplex over a
//! handful of threads with no thread-per-connection explosion. Worker 0
//! additionally accepts new connections and runs the idle-session
//! eviction sweep.
//!
//! A worker whose sweep moved bytes re-sweeps at once, yielding the CPU
//! between sweeps, for a short hot window (`HOT_WINDOW`, 250 µs): a
//! closed-loop client's next request usually lands within it and is
//! answered without a sleep in the way. Past the window an idle worker
//! sleeps `IDLE_SLEEP` (200 µs) between sweeps, so a quiet server costs
//! no more than a sleeping one.
//!
//! ## Session state machine
//!
//! ```text
//! OpenSession ──▶ OPEN ──TraceBlocks──▶ OPEN (absorb, ack)
//!                  │  ╲──Poll──────────▶ OPEN (live report)
//!                  │  ╲──bad block─────▶ FAILED (poisoned, typed reason)
//!                  │  ╲──idle > limit──▶ evicted (UnknownSession after)
//!                  └──CloseSession─────▶ closed (final report)
//! ```
//!
//! Each open session owns the streaming-extraction state of the offline
//! pipeline — a [`StreamAccum`] folding CCTRACE1 block payloads exactly
//! as `characterize --stream` folds file blocks — so a `Poll` snapshots
//! the accumulator and funnels it through
//! [`commchar_core::analyze::try_analyze_extract`], the *same* fit path
//! the offline drivers use. The final `CloseSession` report is therefore
//! byte-identical to offline `characterize --no-replay` on the same
//! events (pinned by tests and the `check.sh` serve smoke).
//!
//! ## Backpressure and eviction
//!
//! A `TraceBlocks` frame's block payloads are decoded and folded into the
//! session before the frame is acknowledged, so no block waits between
//! frames. A frame whose payloads together exceed
//! [`ServeConfig::session_buffer`] is refused with a typed
//! [`ServeError::Backpressure`] frame (nothing is applied — the client
//! resends in smaller frames). Sessions idle longer than
//! [`ServeConfig::idle_timeout`] are evicted by the housekeeping sweep
//! and count into [`ServerStats::evictions`].

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use commchar_core::analyze::try_analyze_extract;
use commchar_core::report::analysis_report;
use commchar_core::CharError;
use commchar_mesh::{MeshConfig, MeshShape};
use commchar_trace::profile::{SegmentExtract, StreamAccum, UnsortedError};
use commchar_tracestore::decode_event_block;

use crate::protocol::{
    decode_frame, encode_frame, Msg, ServeError, ServerStats, MAX_FRAME, PROTOCOL_VERSION,
};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Connection worker threads (`0` = one per hardware thread).
    pub workers: usize,
    /// Worker fan-out for the per-source spatial classifications answering
    /// one poll (the report fits only the aggregate inter-arrival sample).
    /// The default of 1 keeps a poll on its connection worker; raise it
    /// when few sessions poll traces over many sources.
    pub fit_jobs: usize,
    /// Largest total block payload one `TraceBlocks` frame may carry,
    /// bytes — the backpressure bound.
    pub session_buffer: u64,
    /// Idle time after which a session is evicted.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            fit_jobs: 1,
            // 64 MiB: above `MAX_FRAME`, so by default only the frame
            // limit applies.
            session_buffer: 64 << 20,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// Server-wide atomic counters (snapshotted into [`ServerStats`]).
#[derive(Debug, Default)]
struct Counters {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    evictions: AtomicU64,
    frames: AtomicU64,
    frame_errors: AtomicU64,
    events: AtomicU64,
    bytes: AtomicU64,
    polls: AtomicU64,
}

/// One live session: the online twin of the offline streaming pipeline.
#[derive(Debug)]
struct Session {
    nodes: usize,
    shape: MeshShape,
    /// Last-activity clock, milliseconds since server start (atomic so
    /// the eviction sweep can scan without taking session locks).
    last_ms: AtomicU64,
    inner: Mutex<SessionInner>,
}

#[derive(Debug)]
struct SessionInner {
    /// The streaming accumulator — identical state to the offline
    /// `--stream` pass after the same blocks.
    accum: StreamAccum,
    /// Events absorbed.
    events: u64,
    /// First streaming error, if any: the session is poisoned and every
    /// later command answers `SessionFailed`.
    failed: Option<ServeError>,
}

#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
    start: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            sessions_open: self.sessions.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: c.sessions_closed.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            frame_errors: c.frame_errors.load(Ordering::Relaxed),
            events: c.events.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            polls: c.polls.load(Ordering::Relaxed),
            uptime_ms: self.now_ms(),
        }
    }
}

fn char_error(session: u64, e: CharError) -> ServeError {
    match e {
        CharError::EmptyTrace => ServeError::Degenerate { gaps: 0 },
        CharError::DegenerateTemporal { gaps } => ServeError::Degenerate { gaps: gaps as u64 },
        CharError::Unsorted { prev, at } => ServeError::Unsorted { prev, at },
        CharError::Store(reason) => {
            ServeError::SessionFailed { session, reason: format!("store: {reason}") }
        }
    }
}

impl Session {
    /// Decodes one frame's block payloads and folds them into the
    /// accumulator, in order. The first failure stops the fold; the
    /// caller poisons the session with it.
    fn absorb(
        &self,
        inner: &mut SessionInner,
        blocks: &[Vec<u8>],
        counters: &Counters,
    ) -> Result<(), ServeError> {
        let unsorted = |e: UnsortedError| ServeError::Unsorted { prev: e.prev, at: e.at };
        for payload in blocks {
            let events = decode_event_block(payload, self.nodes)
                .map_err(|e| ServeError::Store { reason: e.to_string() })?;
            let seg = SegmentExtract::from_events(self.nodes, &events).map_err(unsorted)?;
            inner.accum.absorb(&seg).map_err(unsorted)?;
            inner.events += events.len() as u64;
            counters.events.fetch_add(events.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Snapshots the accumulator and runs the shared offline fit path.
    fn report(&self, id: u64, inner: &SessionInner, fit_jobs: usize) -> Result<String, ServeError> {
        if let Some(e) = &inner.failed {
            return Err(ServeError::SessionFailed { session: id, reason: e.to_string() });
        }
        let x = inner.accum.clone().finish();
        let analysis =
            try_analyze_extract(x, self.shape, fit_jobs).map_err(|e| char_error(id, e))?;
        Ok(analysis_report(&analysis, "trace"))
    }
}

/// Per-connection protocol state.
struct Conn {
    stream: TcpStream,
    /// Unparsed received bytes (at most one partial frame after a sweep).
    buf: Vec<u8>,
    /// Whether the `Hello` handshake completed.
    greeted: bool,
    dead: bool,
}

/// What handling one message asks of the connection loop.
struct Outcome {
    reply: Msg,
    close: bool,
    shutdown: bool,
}

impl Outcome {
    fn reply(reply: Msg) -> Self {
        Outcome { reply, close: false, shutdown: false }
    }
}

fn handle_msg(shared: &Shared, conn: &mut Conn, msg: Msg) -> Outcome {
    if shared.shutdown.load(Ordering::Relaxed) {
        return Outcome {
            reply: Msg::Error(ServeError::ShuttingDown),
            close: true,
            shutdown: false,
        };
    }
    if !conn.greeted {
        return match msg {
            Msg::Hello { version } if version == PROTOCOL_VERSION => {
                conn.greeted = true;
                Outcome::reply(Msg::HelloOk {
                    version: PROTOCOL_VERSION,
                    max_frame: MAX_FRAME,
                    session_buffer: shared.cfg.session_buffer,
                })
            }
            Msg::Hello { version } => Outcome {
                reply: Msg::Error(ServeError::BadVersion {
                    client: version,
                    server: PROTOCOL_VERSION,
                }),
                close: true,
                shutdown: false,
            },
            _ => Outcome {
                reply: Msg::Error(ServeError::Malformed {
                    context: "expected Hello as the first command".to_string(),
                }),
                close: true,
                shutdown: false,
            },
        };
    }
    match msg {
        Msg::Hello { .. } => Outcome::reply(Msg::Error(ServeError::Malformed {
            context: "duplicate Hello".to_string(),
        })),
        Msg::OpenSession { nodes } => {
            if nodes == 0 || nodes as usize > commchar_trace::MAX_NODES {
                return Outcome::reply(Msg::Error(ServeError::Malformed {
                    context: format!("cannot open a session over {nodes} nodes"),
                }));
            }
            let id = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let session = Arc::new(Session {
                nodes: nodes as usize,
                shape: MeshConfig::for_nodes(nodes as usize).shape,
                last_ms: AtomicU64::new(shared.now_ms()),
                inner: Mutex::new(SessionInner {
                    accum: StreamAccum::new(nodes as usize),
                    events: 0,
                    failed: None,
                }),
            });
            shared.sessions.lock().unwrap_or_else(|e| e.into_inner()).insert(id, session);
            shared.counters.sessions_opened.fetch_add(1, Ordering::Relaxed);
            Outcome::reply(Msg::SessionOpened { session: id })
        }
        Msg::TraceBlocks { session: id, blocks } => {
            let Some(session) = lookup(shared, id) else {
                return Outcome::reply(Msg::Error(ServeError::UnknownSession { session: id }));
            };
            session.last_ms.store(shared.now_ms(), Ordering::Relaxed);
            let mut inner = session.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = &inner.failed {
                return Outcome::reply(Msg::Error(ServeError::SessionFailed {
                    session: id,
                    reason: e.to_string(),
                }));
            }
            let incoming: u64 = blocks.iter().map(|b| b.len() as u64).sum();
            if incoming > shared.cfg.session_buffer {
                return Outcome::reply(Msg::Error(ServeError::Backpressure {
                    session: id,
                    capacity: shared.cfg.session_buffer,
                }));
            }
            shared.counters.bytes.fetch_add(incoming, Ordering::Relaxed);
            if let Err(e) = session.absorb(&mut inner, &blocks, &shared.counters) {
                let reason = e.to_string();
                inner.failed = Some(e);
                return Outcome::reply(Msg::Error(ServeError::SessionFailed {
                    session: id,
                    reason,
                }));
            }
            Outcome::reply(Msg::BlocksAck { session: id, events: inner.events })
        }
        Msg::Poll { session: id } => {
            let Some(session) = lookup(shared, id) else {
                return Outcome::reply(Msg::Error(ServeError::UnknownSession { session: id }));
            };
            session.last_ms.store(shared.now_ms(), Ordering::Relaxed);
            let inner = session.inner.lock().unwrap_or_else(|e| e.into_inner());
            match session.report(id, &inner, shared.cfg.fit_jobs) {
                Ok(text) => {
                    shared.counters.polls.fetch_add(1, Ordering::Relaxed);
                    Outcome::reply(Msg::Report {
                        session: id,
                        events: inner.events,
                        is_final: false,
                        text,
                    })
                }
                Err(e) => Outcome::reply(Msg::Error(e)),
            }
        }
        Msg::CloseSession { session: id } => {
            let Some(session) =
                shared.sessions.lock().unwrap_or_else(|e| e.into_inner()).remove(&id)
            else {
                return Outcome::reply(Msg::Error(ServeError::UnknownSession { session: id }));
            };
            shared.counters.sessions_closed.fetch_add(1, Ordering::Relaxed);
            let inner = session.inner.lock().unwrap_or_else(|e| e.into_inner());
            match session.report(id, &inner, shared.cfg.fit_jobs) {
                Ok(text) => {
                    shared.counters.polls.fetch_add(1, Ordering::Relaxed);
                    Outcome::reply(Msg::Report {
                        session: id,
                        events: inner.events,
                        is_final: true,
                        text,
                    })
                }
                // The session is gone either way — a degenerate close
                // reports the typed error instead of a fabricated report.
                Err(e) => Outcome::reply(Msg::Error(e)),
            }
        }
        Msg::Stats => Outcome::reply(Msg::StatsReport(shared.stats())),
        Msg::Shutdown => Outcome { reply: Msg::ShutdownOk, close: true, shutdown: true },
        // Response opcodes arriving as commands are a client bug.
        other => Outcome::reply(Msg::Error(ServeError::Malformed {
            context: format!("response opcode sent as a command: {other:?}"),
        })),
    }
}

fn lookup(shared: &Shared, id: u64) -> Option<Arc<Session>> {
    shared.sessions.lock().unwrap_or_else(|e| e.into_inner()).get(&id).cloned()
}

/// Writes a whole frame to a nonblocking socket, retrying `WouldBlock`
/// with short sleeps up to a 10-second stall deadline.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let mut written = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while written < frame.len() {
        match stream.write(&frame[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Per-sweep read budget per connection: enough to drain a burst, small
/// enough that one firehose client cannot starve its worker's siblings.
const READ_BUDGET: usize = 1 << 20;

/// Sweeps one connection: drain readable bytes, parse and answer every
/// complete frame. Returns true if any byte moved (progress).
fn sweep_conn(shared: &Shared, conn: &mut Conn) -> bool {
    let mut progress = false;
    let mut chunk = [0u8; 64 * 1024];
    let mut read = 0;
    while read < READ_BUDGET {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                read += n;
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    let mut pos = 0;
    loop {
        match decode_frame(&conn.buf[pos..], MAX_FRAME) {
            Ok(None) => break,
            Ok(Some((msg, consumed))) => {
                pos += consumed;
                progress = true;
                shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                let out = handle_msg(shared, conn, msg);
                if write_frame(&mut conn.stream, &encode_frame(&out.reply)).is_err() {
                    conn.dead = true;
                }
                if out.shutdown {
                    shared.shutdown.store(true, Ordering::Relaxed);
                }
                if out.close {
                    conn.dead = true;
                }
                if conn.dead {
                    break;
                }
            }
            Err(e) => {
                // The byte stream is desynchronized: answer with the
                // typed error and close.
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut conn.stream, &encode_frame(&Msg::Error(e)));
                conn.dead = true;
                break;
            }
        }
    }
    if pos > 0 {
        conn.buf.drain(..pos);
    }
    progress
}

/// How often worker 0 scans for idle sessions.
const EVICT_SWEEP_EVERY: Duration = Duration::from_millis(25);

/// After a sweep that moved bytes, a worker keeps re-sweeping (yielding
/// the CPU between sweeps) for this long before it sleeps: a closed-loop
/// client's next frame lands tens of microseconds after the reply, well
/// before a sleep would end.
const HOT_WINDOW: Duration = Duration::from_micros(250);

/// Pause between sweeps once a worker has seen no progress for
/// `HOT_WINDOW`.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// A bound characterization server. [`run`](Server::run) blocks the
/// calling thread; [`spawn`](Server::spawn) runs it on a background
/// thread and hands back a [`ServerHandle`] for tests and embedders.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                cfg,
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
                start: Instant::now(),
            }),
        })
    }

    /// The bound address (reports the ephemeral port after `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `Shutdown` command arrives (or
    /// [`ServerHandle::shutdown`] is called on a spawned server), then
    /// returns the final counters.
    ///
    /// Connection work is multiplexed over [`ServeConfig::workers`]
    /// scoped threads that live until shutdown (one worker runs on the
    /// calling thread).
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot be switched to nonblocking mode.
    pub fn run(self) -> ServerStats {
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        let workers = commchar_pool::resolve_jobs(self.shared.cfg.workers);
        let pending = Mutex::new(VecDeque::new());
        commchar_pool::run_concurrent(0..workers, |w| {
            worker_loop(w, &self.shared, &self.listener, &pending)
        });
        self.shared.stats()
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, shared, thread }
    }
}

fn worker_loop(
    index: usize,
    shared: &Shared,
    listener: &TcpListener,
    pending: &Mutex<VecDeque<TcpStream>>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut last_evict = Instant::now();
    // End of the re-sweep window opened by the last productive sweep.
    let mut hot_until: Option<Instant> = None;
    loop {
        let mut progress = false;
        if index == 0 {
            // Accept duty: claim every waiting socket this sweep.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        pending.lock().unwrap_or_else(|e| e.into_inner()).push_back(stream);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            // Housekeeping: evict idle sessions.
            if last_evict.elapsed() >= EVICT_SWEEP_EVERY {
                last_evict = Instant::now();
                let now = shared.now_ms();
                let mut sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
                let before = sessions.len();
                sessions.retain(|_, s| {
                    let idle = now.saturating_sub(s.last_ms.load(Ordering::Relaxed));
                    Duration::from_millis(idle) <= shared.cfg.idle_timeout
                });
                let evicted = (before - sessions.len()) as u64;
                if evicted > 0 {
                    shared.counters.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
            }
        }
        // Claim one pending connection per sweep: busy workers claim
        // less often, so load balances itself.
        if let Some(stream) = pending.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
            conns.push(Conn { stream, buf: Vec::new(), greeted: false, dead: false });
            progress = true;
        }
        for conn in &mut conns {
            progress |= sweep_conn(shared, conn);
        }
        conns.retain(|c| !c.dead);
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if progress {
            hot_until = Some(Instant::now() + HOT_WINDOW);
        } else if hot_until.is_some_and(|t| Instant::now() < t) {
            std::thread::yield_now();
        } else {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Handle to a server spawned on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<ServerStats>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the server counters (without a round-trip).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Flags shutdown and joins the server thread, returning the final
    /// counters.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the server thread.
    pub fn shutdown(self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.thread.join().expect("server thread panicked")
    }
}
