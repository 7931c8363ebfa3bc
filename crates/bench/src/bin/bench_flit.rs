//! Flit-router throughput bench: event-driven `FlitLevel` vs the
//! retained cycle-loop `FlitCycleReference`, on fixed seeded workloads.
//!
//! Each workload is simulated by both models; the logs are cross-checked
//! for byte identity (so the speedup is never bought with divergence) and
//! the msgs/sec of each engine plus the ratio are printed and written to
//! `BENCH_flit.json` at the repo root — the perf-trajectory file future
//! changes compare against. Each row also records the event loop's
//! deterministic work counters (cycles stepped one at a time, cycles
//! covered by steady-stream skips, skips taken). `--quick` runs smaller
//! workloads (the `scripts/check.sh --bench-smoke` mode) and times the
//! unasserted ones once; the default, and the asserted workloads in either
//! mode, keep the best of three.

use std::fmt::Write as _;

use commchar_bench::{git_rev, host_cores, long_worms, time_best, timing_iters};
use commchar_des::SimTime;
use commchar_mesh::{
    FlitCycleReference, FlitLevel, FlitWork, MeshConfig, NetMessage, NodeId, Routing, Topology,
};

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

struct Workload {
    name: &'static str,
    cfg: MeshConfig,
    msgs: Vec<NetMessage>,
}

fn uniform(seed: u64, nodes: usize, count: usize, spread: u64, max_bytes: u64) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut t = 0u64;
    let mut msgs = Vec::with_capacity(count);
    for id in 0..count as u64 {
        let src = rng.below(nodes as u64) as u16;
        let mut dst = rng.below(nodes as u64) as u16;
        if dst == src {
            dst = (dst + 1) % nodes as u16;
        }
        t += rng.below(spread);
        msgs.push(NetMessage {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes: 1 + rng.below(max_bytes) as u32,
            inject: SimTime::from_ticks(t),
        });
    }
    msgs
}

/// Bursty traffic in the style the paper emphasizes: periodic bursts of
/// large worms, with every third message of a burst aimed at a hotspot
/// node so the bursts interfere instead of draining independently.
fn bursts(
    seed: u64,
    nburst: usize,
    per: usize,
    gap: u64,
    min_b: u64,
    max_b: u64,
) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut msgs = Vec::with_capacity(nburst * per);
    let mut t = 0u64;
    let mut id = 0u64;
    for _ in 0..nburst {
        for k in 0..per {
            let src = rng.below(64) as u16;
            let mut dst = if k % 3 == 2 { 27 } else { rng.below(64) as u16 };
            if dst == src {
                dst = (dst + 1) % 64;
            }
            msgs.push(NetMessage {
                id,
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: (min_b + rng.below(max_b - min_b)) as u32,
                inject: SimTime::from_ticks(t),
            });
            id += 1;
        }
        t += gap;
    }
    msgs.retain(|m| m.src != m.dst);
    msgs
}

/// Host cores from which the torus speedup floor is asserted: tiny CI
/// runners time-slice the single-threaded bench enough that ratios below
/// the floor are scheduler noise, not a regression.
const TORUS_FLOOR_CORES: usize = 4;

fn workloads(quick: bool) -> Vec<Workload> {
    let scale = if quick { 1 } else { 2 };
    vec![
        // The headline workload: an 8×8 mesh with 4 virtual channels under
        // sustained contention — bursts of 256–512-byte worms every 2000
        // cycles with a hotspot overlay (mean blocked time ≈ 280 cycles).
        // The contrast with the vc=1 row below is structural: the
        // reference rescans every buffer in the machine each cycle, so its
        // cost grows with the VC count, while the event-driven engine only
        // touches outputs whose request state actually changed.
        Workload {
            name: "8x8_contention",
            cfg: MeshConfig::new(8, 8).with_virtual_channels(4),
            msgs: bursts(42, 40 * scale, 15, 2000, 256, 512),
        },
        Workload {
            name: "8x8_bursty_vc1",
            cfg: MeshConfig::new(8, 8),
            msgs: bursts(42, 40 * scale, 15, 2000, 256, 512),
        },
        // Torus headline: the same burst traffic on an 8×8 torus under
        // minimal-adaptive routing, so wraparound routes and the
        // dateline/escape-VC discipline (4 VC classes) sit on the bench's
        // hot path and their cost shows up in the trajectory file.
        Workload {
            name: "8x8_torus_contention",
            cfg: MeshConfig::for_nodes_net(64, Topology::Torus, Routing::Adaptive),
            msgs: bursts(42, 40 * scale, 15, 2000, 256, 512),
        },
        Workload {
            name: "4x4_uniform",
            cfg: MeshConfig::new(4, 4),
            msgs: uniform(7, 16, 1000 * scale, 4, 48),
        },
        Workload {
            name: "8x8_vc4_uniform",
            cfg: MeshConfig::new(8, 8).with_virtual_channels(4),
            msgs: uniform(11, 64, 1200 * scale, 5, 96),
        },
        // Long messages, the shape of a full-scale mg trace: the event
        // loop skips each worm's steady body streaming, so its cost
        // follows the events per message, not the flits.
        Workload {
            name: "4x4_long_worms",
            cfg: MeshConfig::new(4, 4),
            msgs: long_worms(13, 16, 40 * scale, 1500),
        },
    ]
}

/// One workload's measurements.
struct Row {
    name: &'static str,
    msgs: usize,
    vcs: usize,
    mean_blocked: f64,
    event_rate: f64,
    ref_rate: f64,
    speedup: f64,
    work: FlitWork,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let host_cores = host_cores();
    let mut rows = Vec::new();

    println!("flit router throughput: event-driven vs cycle-loop reference");
    println!(
        "{:<20} {:>6} {:>4} {:>9} {:>14} {:>14} {:>8} {:>10} {:>11} {:>6}",
        "workload",
        "msgs",
        "vcs",
        "blocked",
        "event msg/s",
        "ref msg/s",
        "speedup",
        "stepped",
        "skipped",
        "skips"
    );
    for w in workloads(quick) {
        // Cross-check first: identical logs or the numbers are meaningless.
        let mut fast_model = FlitLevel::new(w.cfg);
        let fast_log = fast_model.simulate(&w.msgs);
        let work = fast_model.work();
        let ref_log = FlitCycleReference::new(w.cfg).simulate(&w.msgs);
        assert_eq!(fast_log.records(), ref_log.records(), "{}: records diverged", w.name);
        assert_eq!(fast_log.utilization(), ref_log.utilization(), "{}: util diverged", w.name);
        let blocked: u64 = fast_log.records().iter().map(|r| r.blocked()).sum();
        let mean_blocked = blocked as f64 / fast_log.records().len() as f64;

        let asserted = w.name == "8x8_contention"
            || (w.name == "8x8_torus_contention" && host_cores >= TORUS_FLOOR_CORES);
        let iters = timing_iters(quick, asserted);
        let mut fast = FlitLevel::new(w.cfg);
        let t_fast = time_best(iters, || {
            let log = fast.simulate(&w.msgs);
            assert_eq!(log.records().len(), w.msgs.len());
        });
        let t_ref = time_best(iters, || {
            let log = FlitCycleReference::new(w.cfg).simulate(&w.msgs);
            assert_eq!(log.records().len(), w.msgs.len());
        });
        let n = w.msgs.len() as f64;
        let (event_rate, ref_rate) = (n / t_fast, n / t_ref);
        let speedup = t_ref / t_fast;
        println!(
            "{:<20} {:>6} {:>4} {:>9.1} {:>14.0} {:>14.0} {:>7.1}x {:>10} {:>11} {:>6}",
            w.name,
            w.msgs.len(),
            w.cfg.virtual_channels,
            mean_blocked,
            event_rate,
            ref_rate,
            speedup,
            work.cycles_stepped,
            work.cycles_skipped,
            work.skips
        );
        rows.push(Row {
            name: w.name,
            msgs: w.msgs.len(),
            vcs: w.cfg.virtual_channels,
            mean_blocked,
            event_rate,
            ref_rate,
            speedup,
            work,
        });
    }

    // Hand-rolled JSON (serde is stripped from the offline build). The
    // host core count and git revision make a stale trajectory file
    // self-describing about the machine and tree that produced it.
    let mut json = String::from("{\n  \"bench\": \"flit_router_throughput\",\n  \"mode\": ");
    let _ = writeln!(json, "\"{}\",", if quick { "quick" } else { "full" });
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"messages\": {}, \"vcs\": {}, \
             \"mean_blocked_cycles\": {:.1}, \"event_msgs_per_sec\": {:.1}, \
             \"reference_msgs_per_sec\": {:.1}, \"speedup\": {:.2}, \
             \"cycles_stepped\": {}, \"cycles_skipped\": {}, \"skips\": {}}}{}",
            r.name,
            r.msgs,
            r.vcs,
            r.mean_blocked,
            r.event_rate,
            r.ref_rate,
            r.speedup,
            r.work.cycles_stepped,
            r.work.cycles_skipped,
            r.work.skips,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_flit.json";
    std::fs::write(path, &json).expect("write BENCH_flit.json");
    println!("wrote {path}");

    let headline = rows.iter().find(|r| r.name == "8x8_contention").expect("headline workload");
    assert!(
        headline.speedup >= 5.0,
        "8x8_contention speedup {:.2}x below the 5x acceptance floor",
        headline.speedup
    );
    let torus = rows.iter().find(|r| r.name == "8x8_torus_contention").expect("torus workload");
    if host_cores >= TORUS_FLOOR_CORES {
        assert!(
            torus.speedup >= 4.0,
            "8x8_torus_contention speedup {:.2}x below the 4x acceptance floor",
            torus.speedup
        );
    }
}
