//! Soak test: hundreds of concurrent clients against one server —
//! interleaved sessions, randomly sized writes, mid-stream polls — then
//! a clean shutdown. Asserts the server's three load-bearing promises
//! under real concurrency:
//!
//! 1. every client's final report is byte-identical to the offline
//!    analysis of its own events (no cross-session bleed),
//! 2. no active session is ever evicted,
//! 3. shutdown is clean and the counters reconcile exactly.

use std::time::Duration;

use commchar_core::analyze::try_analyze_trace;
use commchar_core::report::analysis_report;
use commchar_mesh::MeshConfig;
use commchar_serve::{ServeClient, ServeConfig, Server};
use commchar_trace::{CommEvent, CommTrace, EventKind};

/// Concurrent client sessions (the acceptance floor is 200).
const CLIENTS: usize = 200;

/// Tiny deterministic generator so every client gets a distinct,
/// reproducible trace and write pattern.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A per-client trace: distinct node count, kinds, sizes and spacing.
fn client_trace(seed: u64) -> CommTrace {
    let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
    let nodes = 4 + (seed % 5) as usize; // 4..=8 nodes
    let events = 80 + rng.below(160) as usize;
    let mut tr = CommTrace::new(nodes);
    let mut t = 0u64;
    let mut id = 0u64;
    while (id as usize) < events {
        t += 1 + rng.below(40);
        let src = rng.below(nodes as u64) as u16;
        let dst = rng.below(nodes as u64) as u16;
        if src != dst {
            let kind = match rng.below(3) {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            tr.push(CommEvent::new(id, t, src, dst, 8 + rng.below(2048) as u32, kind));
        }
        id += 1;
    }
    tr
}

fn offline_report(trace: &CommTrace) -> String {
    let shape = MeshConfig::for_nodes(trace.nodes()).shape;
    let a = try_analyze_trace(trace, shape, 1).expect("soak traces are analyzable");
    analysis_report(&a, "trace")
}

#[test]
fn soak_hundreds_of_concurrent_sessions() {
    let cfg = ServeConfig {
        // Long enough that an *active* session can never trip it, short
        // enough that a stuck sweep would show up as a failure here.
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let trace = client_trace(i as u64 + 1);
            let expected = offline_report(&trace);
            let mut rng = Lcg(0xfeed ^ (i as u64) << 3 | 1);
            let mut client = ServeClient::connect(&addr).expect("connect");
            // Half the clients run two interleaved sessions on one
            // connection; the trailing session streams a clone stream.
            let session = client.open_session(trace.nodes() as u32).expect("open");
            let twin =
                (i % 2 == 0).then(|| client.open_session(trace.nodes() as u32).expect("open twin"));
            let mut sent = 0usize;
            let mut blocks = 0u64;
            while sent < trace.len() {
                // Randomly sized writes: 1..=37-event blocks.
                let n = (1 + rng.below(37) as usize).min(trace.len() - sent);
                let chunk = &trace.events()[sent..sent + n];
                let seen = client.send_events(session, chunk).expect("send");
                assert!(seen as usize >= sent + n);
                if let Some(twin) = twin {
                    client.send_events(twin, chunk).expect("send twin");
                }
                sent += n;
                blocks += 1;
                // Mid-stream polls on a subset of blocks: reports may be
                // degenerate early on, which is a typed non-failure.
                if blocks.is_multiple_of(7) {
                    match client.poll(session) {
                        Ok((seen, text)) => {
                            assert_eq!(seen as usize, sent);
                            assert!(text.contains("temporal attribute"));
                        }
                        Err(commchar_serve::ServeError::Degenerate { .. }) => {}
                        Err(e) => panic!("mid-stream poll failed: {e}"),
                    }
                }
            }
            let (events, report) = client.close_session(session).expect("close");
            assert_eq!(events as usize, trace.len(), "client {i} event count");
            assert_eq!(report, expected, "client {i} final report differs from offline");
            if let Some(twin) = twin {
                let (_, twin_report) = client.close_session(twin).expect("close twin");
                assert_eq!(twin_report, expected, "client {i} twin session diverged");
            }
            trace.len() as u64 * if twin.is_some() { 2 } else { 1 }
        }));
    }
    let mut expected_events = 0u64;
    for t in threads {
        expected_events += t.join().expect("client thread panicked");
    }

    let stats = handle.stats();
    let opened = CLIENTS as u64 + CLIENTS.div_ceil(2) as u64;
    assert_eq!(stats.sessions_opened, opened);
    assert_eq!(stats.sessions_closed, opened, "every session closed by its client");
    assert_eq!(stats.sessions_open, 0);
    assert_eq!(stats.evictions, 0, "no active session may be evicted");
    assert_eq!(stats.frame_errors, 0);
    assert_eq!(stats.events, expected_events, "server absorbed exactly the events sent");

    // Clean shutdown: the connection workers return and join without panics,
    // and the final snapshot still reconciles.
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.events, expected_events);
    assert_eq!(final_stats.evictions, 0);
}
