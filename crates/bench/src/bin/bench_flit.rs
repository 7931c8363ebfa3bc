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
//! mode, keep the best of three per engine, timing the two engines in
//! turn.

use commchar_bench::{long_worms, time_best_in_turns, uniform, Bench, Floor, Lcg, Obj};
use commchar_des::SimTime;
use commchar_mesh::{
    FlitCycleReference, FlitLevel, MeshConfig, NetMessage, NodeId, Routing, Topology,
};

struct Workload {
    name: &'static str,
    cfg: MeshConfig,
    msgs: Vec<NetMessage>,
    /// The floor on the workload's speedup, if one is asserted.
    floor: Option<Floor>,
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

/// The headline's floor: the event-driven engine at least 5× the
/// reference.
const CONTENTION_FLOOR: Floor = Floor::at_least("8x8_contention.speedup", 5.0);

/// The torus headline's floor, asserted from four host cores: tiny CI
/// runners time-slice the single-threaded bench enough that ratios below
/// it are scheduler noise, not a regression.
const TORUS_FLOOR: Floor = Floor::at_least("8x8_torus_contention.speedup", 4.0).needs_cores(4);

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
            floor: Some(CONTENTION_FLOOR),
        },
        Workload {
            name: "8x8_bursty_vc1",
            cfg: MeshConfig::new(8, 8),
            msgs: bursts(42, 40 * scale, 15, 2000, 256, 512),
            floor: None,
        },
        // Torus headline: the same burst traffic on an 8×8 torus under
        // minimal-adaptive routing, so wraparound routes and the
        // dateline/escape-VC discipline (4 VC classes) sit on the bench's
        // hot path and their cost shows up in the trajectory file.
        Workload {
            name: "8x8_torus_contention",
            cfg: MeshConfig::for_nodes_net(64, Topology::Torus, Routing::Adaptive),
            msgs: bursts(42, 40 * scale, 15, 2000, 256, 512),
            floor: Some(TORUS_FLOOR),
        },
        Workload {
            name: "4x4_uniform",
            cfg: MeshConfig::new(4, 4),
            msgs: uniform(7, 16, 1000 * scale, 4, 48),
            floor: None,
        },
        Workload {
            name: "8x8_vc4_uniform",
            cfg: MeshConfig::new(8, 8).with_virtual_channels(4),
            msgs: uniform(11, 64, 1200 * scale, 5, 96),
            floor: None,
        },
        // Long messages, the shape of a full-scale mg trace: the event
        // loop skips each worm's steady body streaming, so its cost
        // follows the events per message, not the flits.
        Workload {
            name: "4x4_long_worms",
            cfg: MeshConfig::new(4, 4),
            msgs: long_worms(13, 16, 40 * scale, 1500),
            floor: None,
        },
    ]
}

fn main() {
    let mut bench = Bench::from_env("flit_router_throughput");
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
    for w in workloads(bench.quick()) {
        // Cross-check first: identical logs or the numbers are meaningless.
        let mut fast_model = FlitLevel::new(w.cfg);
        let fast_log = fast_model.simulate(&w.msgs);
        let work = fast_model.work();
        let ref_log = FlitCycleReference::new(w.cfg).simulate(&w.msgs);
        assert_eq!(fast_log.records(), ref_log.records(), "{}: records diverged", w.name);
        assert_eq!(fast_log.utilization(), ref_log.utilization(), "{}: util diverged", w.name);
        let blocked: u64 = fast_log.records().iter().map(|r| r.blocked()).sum();
        let mean_blocked = blocked as f64 / fast_log.records().len() as f64;

        let mut fast = FlitLevel::new(w.cfg);
        let (t_fast, t_ref) = time_best_in_turns(
            bench.iters(w.floor.as_slice()),
            || {
                let log = fast.simulate(&w.msgs);
                assert_eq!(log.records().len(), w.msgs.len());
            },
            || {
                let log = FlitCycleReference::new(w.cfg).simulate(&w.msgs);
                assert_eq!(log.records().len(), w.msgs.len());
            },
        );
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
        if let Some(floor) = &w.floor {
            bench.check(floor, speedup);
        }
        rows.push(
            Obj::new()
                .str("name", w.name)
                .int("messages", w.msgs.len() as u64)
                .int("vcs", w.cfg.virtual_channels as u64)
                .num("mean_blocked_cycles", mean_blocked, 1)
                .num("event_msgs_per_sec", event_rate, 1)
                .num("reference_msgs_per_sec", ref_rate, 1)
                .num("speedup", speedup, 2)
                .int("cycles_stepped", work.cycles_stepped)
                .int("cycles_skipped", work.cycles_skipped)
                .int("skips", work.skips),
        );
    }
    bench.rows("workloads", rows);
    bench.finish("BENCH_flit.json");
}
