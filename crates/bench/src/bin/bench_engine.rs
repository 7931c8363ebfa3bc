//! Closed-loop engine bench: the pluggable `NetEngine` implementations
//! compared head to head.
//!
//! Two sections:
//!
//! 1. **Fidelity** — each application is acquired end to end under both
//!    engines (recurrence in the loop vs the cycle-accurate flit router in
//!    the loop) and the latency and signature deltas are recorded: this is
//!    the cost, in distortion, of the fast model.
//! 2. **Throughput** — a closed-loop `FlitLevel` run (one `send` at a
//!    time, committed/speculative dual state) against a batch
//!    `FlitLevel::simulate` on the same injection schedule. The logs are
//!    cross-checked for byte identity first, and the closed-loop overhead
//!    ratio is asserted ≤ 3× — the price of per-send feedback must stay
//!    bounded. A second schedule of long worms (2–8 KB messages, the
//!    shape of a full-scale mg trace) times the same pair where the
//!    event loop skips steady body streaming; its ratio is recorded, not
//!    asserted.
//!
//! Results go to stdout and `BENCH_engine.json` at the repo root, with
//! the host's cores, the git revision and the closed-loop run's work
//! counters. `--quick` runs smaller workloads (the `scripts/check.sh
//! --bench-smoke` mode) and times the long-worm section once; the
//! asserted section keeps the best of three in either mode.

use std::fmt::Write as _;

use commchar_apps::{AppId, Scale};
use commchar_bench::{git_rev, host_cores, long_worms, time_best, timing_iters};
use commchar_core::{acquire, characterize, RunSpec};
use commchar_des::SimTime;
use commchar_mesh::{EngineKind, FlitLevel, FlitWork, MeshConfig, NetEngine, NetMessage, NodeId};

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

/// Uniform random traffic with nondecreasing injection times — the
/// schedule shape every closed-loop driver produces.
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

/// One closed-loop schedule timed against its batch run.
struct Throughput {
    name: &'static str,
    cfg: MeshConfig,
    messages: usize,
    batch_rate: f64,
    inc_rate: f64,
    overhead: f64,
    work: FlitWork,
}

/// Cross-checks a closed-loop run against a batch run on `msgs`, then
/// times both (best of `iters`).
fn throughput(name: &'static str, cfg: MeshConfig, msgs: &[NetMessage], iters: u32) -> Throughput {
    let batch_log = FlitLevel::new(cfg).simulate(msgs);
    let mut inc = FlitLevel::new(cfg);
    for m in msgs {
        inc.send(*m).expect("nondecreasing schedule");
    }
    inc.try_drain().expect("closed loop drains");
    let work = inc.work();
    let inc_log = inc.into_log();
    assert_eq!(batch_log.records(), inc_log.records(), "{name}: incremental flit diverged");
    assert_eq!(batch_log.utilization(), inc_log.utilization(), "{name}: utilization diverged");

    let t_batch = time_best(iters, || {
        let log = FlitLevel::new(cfg).simulate(msgs);
        assert_eq!(log.records().len(), msgs.len());
    });
    let t_inc = time_best(iters, || {
        let mut engine = FlitLevel::new(cfg);
        for m in msgs {
            engine.send(*m).expect("nondecreasing schedule");
        }
        assert_eq!(engine.finish().records().len(), msgs.len());
    });
    let n = msgs.len() as f64;
    Throughput {
        name,
        cfg,
        messages: msgs.len(),
        batch_rate: n / t_batch,
        inc_rate: n / t_inc,
        overhead: t_inc / t_batch,
        work,
    }
}

struct AppRow {
    app: &'static str,
    rec_mean: f64,
    flit_mean: f64,
    rec_p95: f64,
    flit_p95: f64,
    rec_exec: u64,
    flit_exec: u64,
    rec_dist: String,
    flit_dist: String,
}

fn fidelity(scale: Scale) -> Vec<AppRow> {
    let mut rows = Vec::new();
    for app in [AppId::Is, AppId::Nbody, AppId::Fft3d] {
        let run = |engine| acquire(&RunSpec { engine, ..RunSpec::new(app, 8, scale, 42) }).unwrap();
        let (rec, flit) = (run(EngineKind::Recurrence), run(EngineKind::flit()));
        let (rs, fs) = (rec.netlog.summary(), flit.netlog.summary());
        let rec_sig = characterize(&rec, 1).unwrap();
        let flit_sig = characterize(&flit, 1).unwrap();
        rows.push(AppRow {
            app: app.name(),
            rec_mean: rs.mean_latency,
            flit_mean: fs.mean_latency,
            rec_p95: rs.p95_latency,
            flit_p95: fs.p95_latency,
            rec_exec: rec.exec_ticks,
            flit_exec: flit.exec_ticks,
            rec_dist: rec_sig.temporal.aggregate.dist.to_string(),
            flit_dist: flit_sig.temporal.aggregate.dist.to_string(),
        });
    }
    rows
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::Tiny } else { Scale::Small };

    println!("closed-loop engine comparison: recurrence vs cycle-accurate flit\n");
    println!("fidelity (engine in the loop, 8 processors, {} scale):", scale.name());
    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>8} {:>12} {:>12}  fit",
        "app", "rec mean", "flit mean", "rec p95", "flit p95", "rec exec", "flit exec"
    );
    let rows = fidelity(scale);
    for r in &rows {
        let fit = if r.rec_dist == r.flit_dist {
            r.rec_dist.clone()
        } else {
            format!("{} -> {}", r.rec_dist, r.flit_dist)
        };
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>8.0} {:>8.0} {:>12} {:>12}  {}",
            r.app, r.rec_mean, r.flit_mean, r.rec_p95, r.flit_p95, r.rec_exec, r.flit_exec, fit
        );
    }

    // Throughput: incremental (per-send feedback) vs batch on the same
    // schedule. Identity first — the overhead ratio is meaningless if the
    // incremental path diverged. The injection spacing (mean global gap
    // ~24 ticks vs ~40-tick mean latency) matches what closed-loop drivers
    // actually produce — processors block on deliveries, so injection rate
    // tracks latency. Exact per-send feedback re-simulates the in-flight
    // window, so an open-loop-dense schedule would inflate the overhead
    // without resembling any closed-loop use.
    let cfg = MeshConfig::new(8, 8).with_virtual_channels(2);
    let msgs = uniform(42, 64, if quick { 1500 } else { 6000 }, 48, 96);
    let long = long_worms(7, 16, if quick { 40 } else { 120 }, 1500);
    // Only the first section's overhead is asserted.
    let sections = [
        throughput("uniform_8x8_vc2", cfg, &msgs, timing_iters(quick, true)),
        throughput("long_worms_4x4", MeshConfig::new(4, 4), &long, timing_iters(quick, false)),
    ];
    println!();
    for t in &sections {
        let (w, h, vcs) = (t.cfg.shape.width(), t.cfg.shape.height(), t.cfg.virtual_channels);
        println!("throughput {} ({} msgs, {w}x{h} mesh, {vcs} vcs):", t.name, t.messages);
        println!("  batch (open loop)        : {:>12.0} msgs/sec", t.batch_rate);
        println!("  incremental (closed loop): {:>12.0} msgs/sec", t.inc_rate);
        println!("  closed-loop overhead     : {:.2}x", t.overhead);
        println!(
            "  incremental work         : {} cycles stepped, {} skipped in {} skips",
            t.work.cycles_stepped, t.work.cycles_skipped, t.work.skips
        );
    }

    // Hand-rolled JSON (serde is stripped from the offline build).
    let path = "BENCH_engine.json";
    let mut json = String::from("{\n  \"bench\": \"engine_comparison\",\n  \"mode\": ");
    let _ = writeln!(json, "\"{}\",", if quick { "quick" } else { "full" });
    let _ = writeln!(json, "  \"host_cores\": {},", host_cores());
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    json.push_str("  \"apps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"recurrence_mean_latency\": {:.2}, \
             \"flit_mean_latency\": {:.2}, \"recurrence_p95\": {:.1}, \"flit_p95\": {:.1}, \
             \"recurrence_exec_ticks\": {}, \"flit_exec_ticks\": {}, \
             \"recurrence_fit\": \"{}\", \"flit_fit\": \"{}\"}}{}",
            r.app,
            r.rec_mean,
            r.flit_mean,
            r.rec_p95,
            r.flit_p95,
            r.rec_exec,
            r.flit_exec,
            r.rec_dist,
            r.flit_dist,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"closed_loop\": [\n");
    for (i, t) in sections.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"messages\": {}, \"batch_msgs_per_sec\": {:.1}, \
             \"incremental_msgs_per_sec\": {:.1}, \"overhead\": {:.3}, \
             \"cycles_stepped\": {}, \"cycles_skipped\": {}, \"skips\": {}}}{}",
            t.name,
            t.messages,
            t.batch_rate,
            t.inc_rate,
            t.overhead,
            t.work.cycles_stepped,
            t.work.cycles_skipped,
            t.work.skips,
            if i + 1 < sections.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}");

    let overhead = sections[0].overhead;
    assert!(
        overhead <= 3.0,
        "closed-loop flit overhead {overhead:.2}x exceeds the 3x acceptance floor"
    );
}
