//! Trace-store bench: packed columnar format vs JSON-lines, on fixed
//! seeded workloads.
//!
//! Each workload's trace is serialized both ways; the packed file is read
//! back through `TraceFile`'s event loop (on one worker and on one per
//! hardware thread) and cross-checked for event identity against the
//! JSON-lines parse, so the throughput numbers are never bought with
//! divergence. The packed decode is timed through `load_trace`, the
//! JSON-lines parse through `CommTrace::from_jsonl`. Size ratio and
//! decode rates are printed and written to `BENCH_trace.json` at the repo
//! root — the perf-trajectory file future changes compare against — with
//! the host's cores, the git revision and the floors.
//!
//! Three floors are asserted on `synthetic_large`: the packed file is at
//! least 5× smaller, the packed decode reaches 3× the JSON-lines rate
//! this file recorded before the single-pass JSON-lines parser
//! (1,141,070 events/s), and the JSON-lines parse reaches 1.5 M events/s.
//! The decode floors are absolute rates, not a ratio of the two paths, so
//! a faster JSON-lines parser cannot trip the packed floor.
//!
//! `--quick` runs smaller traces (the `scripts/check.sh --bench-smoke`
//! mode) and times the unasserted workloads once; the default, and the
//! asserted workload in either mode, keep the best of three.

use commchar_apps::{AppId, Scale};
use commchar_bench::{time_best, Bench, Floor, Lcg, Obj};
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::{load_trace, pack_trace, TraceFile};

/// The workload the floors are asserted on.
const HEADLINE: &str = "synthetic_large";
/// The headline's floors: its JSON-lines / packed size ratio; its
/// parallel packed decode rate in events/s, 3× the JSON-lines rate
/// recorded before the single-pass parser (what the earlier
/// `decode_speedup >= 3` floor demanded then); and its JSON-lines parse
/// rate in events/s.
const HEADLINE_FLOORS: [Floor; 3] = [
    Floor::at_least("synthetic_large.size_ratio", 5.0),
    Floor::at_least("synthetic_large.packed_events_per_sec", 3.0 * 1_141_070.5),
    Floor::at_least("synthetic_large.jsonl_events_per_sec", 1_500_000.0),
];

/// A synthetic trace in the shape the profilers emit: mostly-monotone
/// timestamps, sparse ids, mixed kinds, and a causal dependency on a
/// recent message about a third of the time.
fn synthetic(seed: u64, nodes: usize, count: usize) -> CommTrace {
    let mut rng = Lcg::new(seed);
    let mut trace = CommTrace::new(nodes);
    let mut t = 0u64;
    let mut prev_id = 0u64;
    for i in 0..count as u64 {
        let (src, dst) = rng.pair(nodes);
        t += rng.below(7);
        let kind = match rng.below(10) {
            0..=4 => EventKind::Data,
            5..=7 => EventKind::Control,
            _ => EventKind::Sync,
        };
        let id = i * 3 + (t & 1);
        let mut ev = CommEvent::new(id, t, src, dst, 8 + rng.below(4096) as u32, kind);
        if i > 0 && rng.below(3) == 0 {
            ev = ev.after(prev_id);
        }
        trace.push(ev);
        prev_id = id;
    }
    trace
}

struct Workload {
    name: &'static str,
    trace: CommTrace,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let scale = if quick { 1 } else { 4 };
    vec![
        // The headline workload: a profiler-shaped synthetic trace large
        // enough that parse cost dominates. The packed decode wins on two
        // axes — 5x fewer bytes to touch, and a columnar varint scan
        // instead of tokenizing text — and the block layout lets worker
        // threads decode independent blocks concurrently.
        Workload { name: HEADLINE, trace: synthetic(42, 64, 50_000 * scale) },
        Workload { name: "synthetic_16n", trace: synthetic(7, 16, 10_000 * scale) },
        Workload {
            name: "app_3d-fft",
            trace: commchar_bench::workload(AppId::Fft3d, 8, Scale::Small).trace,
        },
        Workload {
            name: "app_cholesky",
            trace: commchar_bench::workload(AppId::Cholesky, 8, Scale::Small).trace,
        },
    ]
}

fn main() {
    let mut bench = Bench::from_env("trace_store");
    let mut rows = Vec::new();

    println!("trace store: packed columnar format vs JSON-lines");
    println!(
        "{:<16} {:>8} {:>11} {:>11} {:>7} {:>12} {:>12} {:>8}",
        "workload",
        "events",
        "jsonl B",
        "packed B",
        "ratio",
        "jsonl ev/s",
        "packed ev/s",
        "speedup"
    );
    for w in workloads(bench.quick()) {
        let jsonl = w.trace.to_jsonl();
        let packed = pack_trace(&w.trace);

        // Cross-check first: identical events or the numbers are
        // meaningless. A one-worker and an all-worker read must both
        // reproduce the JSON-lines parse exactly.
        let from_jsonl = CommTrace::from_jsonl(&jsonl).expect("jsonl parse");
        let sequential = TraceFile::from_bytes(&packed)
            .and_then(|f| f.into_trace(1))
            .expect("one-worker unpack");
        let parallel = load_trace(&packed).expect("parallel unpack");
        assert_eq!(from_jsonl.events(), sequential.events(), "{}: events diverged", w.name);
        assert_eq!(from_jsonl.events(), parallel.events(), "{}: parallel diverged", w.name);
        assert_eq!(from_jsonl.nodes(), sequential.nodes(), "{}: nodes diverged", w.name);

        let floors: &[Floor] = if w.name == HEADLINE { &HEADLINE_FLOORS } else { &[] };
        let iters = bench.iters(floors);
        let t_jsonl = time_best(iters, || {
            let t = CommTrace::from_jsonl(&jsonl).expect("jsonl parse");
            assert_eq!(t.len(), w.trace.len());
        });
        let t_packed = time_best(iters, || {
            let t = load_trace(&packed).expect("parallel unpack");
            assert_eq!(t.len(), w.trace.len());
        });
        let n = w.trace.len() as f64;
        let (jsonl_rate, packed_rate) = (n / t_jsonl, n / t_packed);
        let ratio = jsonl.len() as f64 / packed.len() as f64;
        let speedup = t_jsonl / t_packed;
        println!(
            "{:<16} {:>8} {:>11} {:>11} {:>6.1}x {:>12.0} {:>12.0} {:>7.1}x",
            w.name,
            w.trace.len(),
            jsonl.len(),
            packed.len(),
            ratio,
            jsonl_rate,
            packed_rate,
            speedup
        );
        // The headline's measurements, in `HEADLINE_FLOORS` order.
        for (floor, measured) in floors.iter().zip([ratio, packed_rate, jsonl_rate]) {
            bench.check(floor, measured);
        }
        rows.push(
            Obj::new()
                .str("name", w.name)
                .int("events", w.trace.len() as u64)
                .int("jsonl_bytes", jsonl.len() as u64)
                .int("packed_bytes", packed.len() as u64)
                .num("size_ratio", ratio, 2)
                .num("jsonl_events_per_sec", jsonl_rate, 1)
                .num("packed_events_per_sec", packed_rate, 1)
                .num("decode_speedup", speedup, 2),
        );
    }
    bench.rows("workloads", rows);
    bench.finish("BENCH_trace.json");
}
