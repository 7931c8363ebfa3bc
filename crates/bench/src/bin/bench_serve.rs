//! Characterization-server bench: concurrent sessions streaming CCTRACE1
//! blocks over loopback TCP, with mid-stream polls — the `commchar serve`
//! ingest path end to end (framing, checksums, session digestion, online
//! fits).
//!
//! The served final report is cross-checked for byte identity against
//! the offline analysis first (throughput is never bought with
//! divergence), then the full fleet is timed and the headline
//! sessions × events/s figure written to `BENCH_serve.json` at the repo
//! root together with the host core count and git revision. The ingest
//! floor is asserted only on hosts with at least four cores; smaller
//! machines still run the identity check, record the measured rate and
//! list the floor as not asserted, with the reason.
//! `--quick` runs a smaller fleet (the `scripts/check.sh --bench-smoke`
//! mode).

use std::time::Instant;

use commchar_bench::{Bench, Floor, Lcg, Obj};
use commchar_core::analyze::try_analyze_trace;
use commchar_core::report::analysis_report;
use commchar_mesh::MeshConfig;
use commchar_serve::{ServeClient, ServeConfig, Server};
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::encode_event_block;

/// Events per wire block (the packed format's default block length).
const BLOCK_LEN: usize = 4096;

/// Aggregate ingest floor, events/second, asserted from four host cores.
/// Measured rates on a 4-core host are an order of magnitude above it;
/// it catches an accidental serialization, not normal jitter.
const INGEST_FLOOR: Floor = Floor::at_least("events_per_sec", 250_000.0).needs_cores(4);

/// One session's trace: `nodes` endpoints, mixed kinds and sizes.
fn session_trace(seed: u64, nodes: usize, events: usize) -> CommTrace {
    let mut rng = Lcg::new(seed);
    let mut tr = CommTrace::new(nodes);
    let mut t = 0u64;
    let mut id = 0u64;
    while (id as usize) < events {
        t += 1 + rng.below(17);
        let (src, dst) = rng.pair(nodes);
        let kind = match rng.below(3) {
            0 => EventKind::Control,
            1 => EventKind::Data,
            _ => EventKind::Sync,
        };
        tr.push(CommEvent::new(id, t, src, dst, 8 + rng.below(1024) as u32, kind));
        id += 1;
    }
    tr
}

fn offline_report(trace: &CommTrace) -> String {
    let shape = MeshConfig::for_nodes(trace.nodes()).shape;
    let a = try_analyze_trace(trace, shape, 1).expect("bench trace is analyzable");
    analysis_report(&a, "trace")
}

/// Streams one trace through one session; returns events fed.
fn drive_session(addr: &str, trace: &CommTrace, polls: bool) -> u64 {
    let mut client = ServeClient::connect(addr).expect("connect");
    let session = client.open_session(trace.nodes() as u32).expect("open");
    let blocks: Vec<Vec<u8>> = trace.events().chunks(BLOCK_LEN).map(encode_event_block).collect();
    let n_blocks = blocks.len();
    for (i, block) in blocks.into_iter().enumerate() {
        client.send_blocks(session, vec![block]).expect("send");
        // One mid-stream poll halfway: the live-report path stays in the
        // timed loop without dominating it.
        if polls && n_blocks > 1 && i == n_blocks / 2 {
            client.poll(session).expect("poll");
        }
    }
    let (events, _report) = client.close_session(session).expect("close");
    events
}

fn main() {
    let mut bench = Bench::from_env("serve_session_throughput");
    let (quick, host_cores) = (bench.quick(), bench.host_cores());
    let sessions = if quick { 8 } else { 32 };
    let events_per_session = if quick { 25_000 } else { 100_000 };

    println!("characterization server: {sessions} concurrent sessions over loopback TCP");
    println!(
        "host cores: {host_cores}, {events_per_session} events/session, {BLOCK_LEN}-event blocks"
    );

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    // Identity first: a served session's final report must be
    // byte-identical to the offline analysis of the same events.
    let probe = session_trace(7, 8, 20_000);
    let mut client = ServeClient::connect(&addr).expect("connect");
    let session = client.open_session(probe.nodes() as u32).expect("open");
    for chunk in probe.events().chunks(BLOCK_LEN) {
        client.send_blocks(session, vec![encode_event_block(chunk)]).expect("send");
    }
    let (_, served) = client.close_session(session).expect("close");
    assert_eq!(served, offline_report(&probe), "served report diverged from offline analysis");
    println!("identity: served final report byte-identical to offline ({} events)", probe.len());

    // Timed fleet: one thread per session, each with its own trace.
    let traces: Vec<CommTrace> = (0..sessions)
        .map(|i| session_trace(100 + i as u64, 4 + i % 13, events_per_session))
        .collect();
    let start = Instant::now();
    let threads: Vec<_> = traces
        .iter()
        .map(|trace| {
            let addr = addr.clone();
            let trace = trace.clone();
            std::thread::spawn(move || drive_session(&addr, &trace, true))
        })
        .collect();
    let total_events: u64 = threads.into_iter().map(|t| t.join().expect("session thread")).sum();
    let secs = start.elapsed().as_secs_f64();
    let rate = total_events as f64 / secs;

    let stats = handle.shutdown();
    assert_eq!(stats.evictions, 0, "bench sessions must never be evicted");
    assert_eq!(stats.frame_errors, 0);

    println!("{:<10} {:>14} {:>10} {:>16}", "sessions", "total events", "seconds", "events/s");
    println!("{sessions:<10} {total_events:>14} {secs:>10.3} {rate:>16.0}");

    bench.fields(
        Obj::new()
            .int("sessions", sessions as u64)
            .int("events_per_session", events_per_session as u64)
            .int("block_len", BLOCK_LEN as u64)
            .int("total_events", total_events)
            .num("seconds", secs, 3)
            .num("events_per_sec", rate, 0),
    );
    bench.check(&INGEST_FLOOR, rate);
    bench.finish("BENCH_serve.json");
}
