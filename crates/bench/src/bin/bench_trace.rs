//! Trace-store bench: packed columnar format vs JSON-lines, on fixed
//! seeded workloads.
//!
//! Each workload's trace is serialized both ways; the packed file is
//! unpacked (sequentially and with the parallel block decoder) and
//! cross-checked for event identity against the JSON-lines parse, so the
//! throughput numbers are never bought with divergence. Size ratio and
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

use std::fmt::Write as _;

use commchar_apps::{AppId, Scale};
use commchar_bench::{git_rev, host_cores, time_best, timing_iters};
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::{pack_trace, unpack_trace, unpack_trace_parallel};

/// The workload the floors are asserted on.
const HEADLINE: &str = "synthetic_large";
/// Floor on the headline's JSON-lines / packed size ratio.
const SIZE_RATIO_FLOOR: f64 = 5.0;
/// Floor on the headline's parallel packed decode rate, events/s: 3× the
/// JSON-lines rate recorded before the single-pass parser, which is what
/// the earlier `decode_speedup >= 3` floor demanded then.
const PACKED_EVENTS_PER_SEC_FLOOR: f64 = 3.0 * 1_141_070.5;
/// Floor on the headline's JSON-lines parse rate, events/s.
const JSONL_EVENTS_PER_SEC_FLOOR: f64 = 1_500_000.0;

/// Deterministic 64-bit LCG so workloads are fixed across runs/machines.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A synthetic trace in the shape the profilers emit: mostly-monotone
/// timestamps, sparse ids, mixed kinds, and a causal dependency on a
/// recent message about a third of the time.
fn synthetic(seed: u64, nodes: usize, count: usize) -> CommTrace {
    let mut rng = Lcg::new(seed);
    let mut trace = CommTrace::new(nodes);
    let mut t = 0u64;
    let mut prev_id = 0u64;
    for i in 0..count as u64 {
        let src = rng.below(nodes as u64) as u16;
        let mut dst = rng.below(nodes as u64) as u16;
        if dst == src {
            dst = (dst + 1) % nodes as u16;
        }
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

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
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
    for w in workloads(quick) {
        let jsonl = w.trace.to_jsonl();
        let packed = pack_trace(&w.trace);

        // Cross-check first: identical events or the numbers are
        // meaningless. Both the sequential and the parallel decoder must
        // reproduce the JSON-lines parse exactly.
        let from_jsonl = CommTrace::from_jsonl(&jsonl).expect("jsonl parse");
        let sequential = unpack_trace(&packed).expect("sequential unpack");
        let parallel = unpack_trace_parallel(&packed, 0).expect("parallel unpack");
        assert_eq!(from_jsonl.events(), sequential.events(), "{}: events diverged", w.name);
        assert_eq!(from_jsonl.events(), parallel.events(), "{}: parallel diverged", w.name);
        assert_eq!(from_jsonl.nodes(), sequential.nodes(), "{}: nodes diverged", w.name);

        let iters = timing_iters(quick, w.name == HEADLINE);
        let t_jsonl = time_best(iters, || {
            let t = CommTrace::from_jsonl(&jsonl).expect("jsonl parse");
            assert_eq!(t.len(), w.trace.len());
        });
        let t_packed = time_best(iters, || {
            let t = unpack_trace_parallel(&packed, 0).expect("parallel unpack");
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
        rows.push((
            w.name,
            w.trace.len(),
            jsonl.len(),
            packed.len(),
            ratio,
            jsonl_rate,
            packed_rate,
            speedup,
        ));
    }

    // Hand-rolled JSON (serde is stripped from the offline build).
    let mut json = String::from("{\n  \"bench\": \"trace_store\",\n  \"mode\": ");
    let _ = writeln!(json, "\"{}\",", if quick { "quick" } else { "full" });
    let _ = writeln!(json, "  \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(
        json,
        "  \"floor\": {{\"workload\": \"{HEADLINE}\", \"size_ratio\": {SIZE_RATIO_FLOOR:.1}, \
         \"packed_events_per_sec\": {PACKED_EVENTS_PER_SEC_FLOOR:.1}, \
         \"jsonl_events_per_sec\": {JSONL_EVENTS_PER_SEC_FLOOR:.1}}},"
    );
    json.push_str("  \"floor_asserted\": true,\n  \"workloads\": [\n");
    for (i, (name, events, jsonl_b, packed_b, ratio, jsonl_rate, packed_rate, speedup)) in
        rows.iter().enumerate()
    {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"events\": {events}, \
             \"jsonl_bytes\": {jsonl_b}, \"packed_bytes\": {packed_b}, \
             \"size_ratio\": {ratio:.2}, \
             \"jsonl_events_per_sec\": {jsonl_rate:.1}, \
             \"packed_events_per_sec\": {packed_rate:.1}, \
             \"decode_speedup\": {speedup:.2}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_trace.json";
    std::fs::write(path, &json).expect("write BENCH_trace.json");
    println!("wrote {path}");

    let &(_, _, _, _, ratio, jsonl_rate, packed_rate, _) =
        rows.iter().find(|r| r.0 == HEADLINE).expect("headline workload");
    assert!(
        ratio >= SIZE_RATIO_FLOOR,
        "{HEADLINE} size ratio {ratio:.2}x below the {SIZE_RATIO_FLOOR}x acceptance floor"
    );
    assert!(
        packed_rate >= PACKED_EVENTS_PER_SEC_FLOOR,
        "{HEADLINE} packed decode {packed_rate:.0} events/s below the \
         {PACKED_EVENTS_PER_SEC_FLOOR:.0} acceptance floor"
    );
    assert!(
        jsonl_rate >= JSONL_EVENTS_PER_SEC_FLOOR,
        "{HEADLINE} JSON-lines parse {jsonl_rate:.0} events/s below the \
         {JSONL_EVENTS_PER_SEC_FLOOR:.0} acceptance floor"
    );
}
