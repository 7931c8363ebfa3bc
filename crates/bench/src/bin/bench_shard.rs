//! Sharded-simulator bench: the conservative-window engines (`--sim-jobs
//! N`) vs their serial event loops, in both places the workspace shards —
//! the flit mesh router (32×32, all 1024 sources injecting contended
//! bursts) and the execution-driven spasm machine (a 1024-processor
//! shared-memory kernel characterized end-to-end).
//!
//! Each sharded run is cross-checked for byte identity against the serial
//! one first (the speedup is never bought with divergence), then both are
//! timed and the ratios written to `BENCH_shard.json` at the repo root
//! together with the host core count and git revision — so a stale
//! trajectory file is self-describing about the machine that produced it.
//! The ≥2x speedup floors are asserted only on hosts with at least four
//! cores; on smaller machines the bench still runs the identity checks
//! and records the measured ratios (the `floors` list marks them
//! `floor_asserted: false`, with the skip reason), but a speedup
//! assertion would only be measuring the scheduler. `--quick` runs a shorter workload (the
//! `scripts/check.sh --bench-smoke` mode), timed once unless the floors
//! are asserted, in which case it keeps the best of three like a full run.

use commchar_apps::{AppId, Scale};
use commchar_bench::{time_best, Bench, Floor, Lcg, Obj};
use commchar_core::{acquire, characterize, RunSpec};
use commchar_des::SimTime;
use commchar_mesh::{
    EngineKind, FlitLevel, MeshConfig, NetLog, NetMessage, NodeId, Routing, Topology,
};

const WIDTH: u16 = 32;
const HEIGHT: u16 = 32;
const NODES: u64 = (WIDTH as u64) * (HEIGHT as u64);

/// The flit section's speedup floor, asserted from four host cores.
const FLIT_FLOOR: Floor = Floor::at_least("flit_shard_speedup.speedup", 2.0).needs_cores(4);
/// The spasm section's speedup floor, asserted from four host cores.
const SPASM_FLOOR: Floor = Floor::at_least("spasm_shard_speedup.speedup", 2.0).needs_cores(4);

/// Contended 1024-source workload: every node injects in each burst wave,
/// with a quarter of the traffic aimed at a small hotspot band in the
/// middle rows so worms interfere across shard boundaries instead of
/// draining row-locally.
fn contended(seed: u64, waves: usize, gap: u64, min_b: u64, max_b: u64) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut msgs = Vec::with_capacity(waves * NODES as usize);
    let mut t = 0u64;
    let mut id = 0u64;
    for _ in 0..waves {
        for src in 0..NODES {
            let mut dst = if rng.below(4) == 0 {
                // Hotspot band: eight nodes around the mesh center.
                NODES / 2 - 4 + rng.below(8)
            } else {
                rng.below(NODES)
            };
            if dst == src {
                dst = (dst + 1) % NODES;
            }
            msgs.push(NetMessage {
                id,
                src: NodeId(src as u16),
                dst: NodeId(dst as u16),
                bytes: (min_b + rng.below(max_b - min_b)) as u32,
                inject: SimTime::from_ticks(t + rng.below(gap / 2)),
            });
            id += 1;
        }
        t += gap;
    }
    msgs
}

/// One section's measurements, rendered into the shared JSON document.
struct Section {
    name: &'static str,
    workload: String,
    messages: usize,
    sim_jobs: usize,
    serial_rate: f64,
    sharded_rate: f64,
    speedup: f64,
}

impl Section {
    fn print(&self) {
        println!(
            "{:<22} {:>9} {:>5} {:>14.0} {:>14.0} {:>7.2}x",
            self.name,
            self.messages,
            self.sim_jobs,
            self.serial_rate,
            self.sharded_rate,
            self.speedup
        );
    }

    fn json(&self) -> Obj {
        Obj::new()
            .str("workload", &self.workload)
            .int("messages", self.messages as u64)
            .int("sim_jobs", self.sim_jobs as u64)
            .num("serial_msgs_per_sec", self.serial_rate, 1)
            .num("sharded_msgs_per_sec", self.sharded_rate, 1)
            .num("speedup", self.speedup, 2)
    }
}

/// The flit-router half: a 32×32 mesh draining contended bursts, the
/// sharded wavefront vs the serial cycle loop.
fn bench_flit(bench: &Bench, jobs: usize) -> Section {
    let (quick, iters) = (bench.quick(), bench.iters(&[FLIT_FLOOR]));
    let cfg = MeshConfig::new(WIDTH, HEIGHT).with_virtual_channels(2);
    let waves = if quick { 2 } else { 6 };
    let msgs = contended(42, waves, 400, 64, 256);

    // Cross-check first: the sharded engine must be cycle-identical at
    // every shard count before any timing is worth reporting.
    let serial_log = FlitLevel::new(cfg).simulate(&msgs);
    let check_jobs: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    for &n in check_jobs {
        let sharded_log = FlitLevel::new(cfg).with_sim_jobs(n).simulate(&msgs);
        assert_eq!(
            sharded_log.records(),
            serial_log.records(),
            "sim-jobs {n}: records diverged from serial"
        );
        assert_eq!(
            sharded_log.utilization(),
            serial_log.utilization(),
            "sim-jobs {n}: utilization diverged from serial"
        );
        println!("identity: flit --sim-jobs {n} byte-identical to serial ({} records)", msgs.len());
    }

    let mut serial = FlitLevel::new(cfg);
    let t_serial = time_best(iters, || {
        let log = serial.simulate(&msgs);
        assert_eq!(log.records().len(), msgs.len());
    });
    let mut sharded = FlitLevel::new(cfg).with_sim_jobs(jobs);
    let t_sharded = time_best(iters, || {
        let log = sharded.simulate(&msgs);
        assert_eq!(log.records().len(), msgs.len());
    });

    let n = msgs.len() as f64;
    Section {
        name: "flit_shard_speedup",
        workload: format!("{WIDTH}x{HEIGHT} mesh, {NODES} sources"),
        messages: msgs.len(),
        sim_jobs: jobs,
        serial_rate: n / t_serial,
        sharded_rate: n / t_sharded,
        speedup: t_serial / t_sharded,
    }
}

/// The spasm half: a 1024-processor shared-memory kernel acquired through
/// the execution-driven simulator, sharded vs serial, then characterized
/// end-to-end to prove the whole pipeline holds at that scale.
fn bench_spasm(bench: &Bench, jobs: usize) -> Section {
    let (quick, iters) = (bench.quick(), bench.iters(&[SPASM_FLOOR]));
    // 1d-fft at full scale is the only sm kernel sized for 1024
    // processors (4096 points ≥ 2p); the three barrier-fenced phases and
    // the all-to-all exchange give the shards real cross-boundary
    // traffic.
    let (app, procs, scale) = (AppId::Fft1d, 1024, Scale::Full);
    let run = |sim_jobs| acquire(&RunSpec { sim_jobs, ..RunSpec::new(app, procs, scale, 42) });
    let run = |sim_jobs| run(sim_jobs).unwrap_or_else(|e| panic!("{e}"));

    // Identity first, on the full acquisition output with every network
    // record kept: trace bytes, records and execution time must all
    // survive sharding.
    let mesh = MeshConfig::for_nodes_net(procs, Topology::Mesh, Routing::Dimension);
    let records = |sim_jobs| app.run_net(procs, scale, EngineKind::Recurrence, sim_jobs, mesh);
    let serial = records(1);
    let check_jobs: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    for &n in check_jobs {
        let out = records(n);
        assert_eq!(out.exec_ticks, serial.exec_ticks, "sim-jobs {n}: exec time diverged");
        assert_eq!(
            out.trace.events(),
            serial.trace.events(),
            "sim-jobs {n}: trace diverged from serial"
        );
        assert_eq!(
            out.netlog.as_ref().map(NetLog::records),
            serial.netlog.as_ref().map(NetLog::records),
            "sim-jobs {n}: network records diverged from serial"
        );
        println!(
            "identity: spasm --sim-jobs {n} event-identical to serial ({} messages)",
            out.trace.len()
        );
    }
    let serial_w = run(1);

    let t_serial = time_best(iters, || {
        let w = run(1);
        assert_eq!(w.trace.len(), serial_w.trace.len());
    });
    let t_sharded = time_best(iters, || {
        let w = run(jobs);
        assert_eq!(w.trace.len(), serial_w.trace.len());
    });

    // End-to-end: the acquired kilo-processor workload must characterize.
    let sig = characterize(&serial_w, 1).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "characterized {} at {procs} procs: {} messages, {} fitted sources",
        app.name(),
        serial_w.trace.len(),
        sig.temporal.per_source.iter().flatten().count()
    );

    let n = serial_w.trace.len() as f64;
    Section {
        name: "spasm_shard_speedup",
        workload: format!("{} @ {} procs, {} scale", app.name(), procs, scale.name()),
        messages: serial_w.trace.len(),
        sim_jobs: jobs,
        serial_rate: n / t_serial,
        sharded_rate: n / t_sharded,
        speedup: t_serial / t_sharded,
    }
}

fn main() {
    let mut bench = Bench::from_env("shard_speedup");
    let host_cores = bench.host_cores();
    // Time with one shard per core (capped: past 8 the windows thin out
    // on these workloads), but never fewer than 2 so the sharded path is
    // exercised even on single-core hosts.
    let jobs = host_cores.clamp(2, 8);

    println!("sharded simulators: flit mesh router + spasm CC-NUMA machine");
    println!("host cores: {host_cores}, timing --sim-jobs {jobs} vs serial");

    let flit = bench_flit(&bench, jobs);
    let spasm = bench_spasm(&bench, jobs);

    println!(
        "{:<22} {:>9} {:>5} {:>14} {:>14} {:>8}",
        "section", "messages", "jobs", "serial msg/s", "sharded msg/s", "speedup"
    );
    for (section, floor) in [(&flit, &FLIT_FLOOR), (&spasm, &SPASM_FLOOR)] {
        section.print();
        bench.fields(Obj::new().obj(section.name, &section.json()));
        bench.check(floor, section.speedup);
    }
    bench.finish("BENCH_shard.json");
}
