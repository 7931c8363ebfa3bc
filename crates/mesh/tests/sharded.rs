//! Equivalence suite for the sharded wavefront engine: `--sim-jobs N`
//! must be **cycle-identical** to the serial event loop — byte-identical
//! records and per-channel utilization for every shard count, every
//! shape, every VC count, every seed.
//!
//! The serial `FlitLevel` is itself pinned against the retained
//! cycle-loop oracle in `equivalence.rs`, so pinning the sharded engine
//! against the serial one transitively pins it against the reference.
//! Seed-driven sweeps cover the structured corners (shard counts of 1,
//! odd counts, one per row, and more shards than rows); a proptest sweeps
//! randomized shapes × VCs × workloads × shard counts on top. Long-worm
//! inputs (1–8 KB messages) pin the serial engine's steady-stream skips
//! against the shards, which always step cycle by cycle.

use commchar_des::SimTime;
use commchar_mesh::{EngineError, FlitLevel, MeshConfig, NetMessage, NodeId, Routing};
use proptest::prelude::*;

/// A torus config with exactly the minimum VC budget for its routing
/// policy — the tightest (most deadlock-prone) legal configuration.
fn torus_cfg(w: u16, h: u16, routing: Routing) -> MeshConfig {
    let cfg = MeshConfig::new_torus(w, h).with_routing(routing);
    let vcs = cfg.vc_classes().max(cfg.virtual_channels);
    cfg.with_virtual_channels(vcs)
}

/// Deterministic 64-bit LCG (MMIX constants) — no external RNG crates.
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

/// Uniform-random workload: `count` messages, random pairs, sizes and a
/// bursty injection process that keeps the network contended.
fn workload(seed: u64, nodes: usize, count: usize, spread: u64, max_bytes: u64) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut msgs = Vec::with_capacity(count);
    let mut t = 0u64;
    for id in 0..count as u64 {
        let src = rng.below(nodes as u64) as u16;
        let mut dst = rng.below(nodes as u64) as u16;
        if dst == src {
            dst = (dst + 1) % nodes as u16;
        }
        // Bursts: ~1 in 4 messages shares its predecessor's inject time.
        if rng.below(4) != 0 {
            t += rng.below(spread);
        }
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

/// Hotspot overlay: the last quarter of the messages all target one node.
fn hotspot(mut msgs: Vec<NetMessage>, nodes: usize) -> Vec<NetMessage> {
    let start = msgs.len() - msgs.len() / 4;
    for m in &mut msgs[start..] {
        m.dst = NodeId((nodes / 2) as u16);
        if m.src == m.dst {
            m.src = NodeId(0);
        }
    }
    msgs.retain(|m| m.src != m.dst);
    msgs
}

/// Runs `msgs` serially and at each shard count, asserting byte-identical
/// logs (every record, every utilization figure).
fn assert_sharded_identical(cfg: MeshConfig, msgs: &[NetMessage], jobs: &[usize], label: &str) {
    let serial = FlitLevel::new(cfg).simulate(msgs);
    for &n in jobs {
        let sharded = FlitLevel::new(cfg).with_sim_jobs(n).simulate(msgs);
        assert_eq!(
            sharded.records().len(),
            serial.records().len(),
            "{label} jobs={n}: record count diverged"
        );
        for (a, b) in sharded.records().iter().zip(serial.records()) {
            assert_eq!(a, b, "{label} jobs={n}: record diverged (id {})", b.id);
        }
        assert_eq!(
            sharded.utilization(),
            serial.utilization(),
            "{label} jobs={n}: utilization diverged"
        );
    }
}

#[test]
fn sharded_matches_serial_across_shapes_vcs_and_seeds() {
    // (width, height, messages, spread, max bytes): short messages under
    // contention, then long worms.
    let inputs = [
        (4u16, 4u16, 120, 6, 96),
        (8, 2, 120, 6, 96),
        (2, 8, 120, 6, 96),
        (8, 8, 120, 6, 96),
        (4, 4, 8, 900, 8192),
    ];
    for &(w, h, count, spread, max_bytes) in &inputs {
        for &vcs in &[1usize, 2, 4] {
            for seed in 0..3u64 {
                let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
                let nodes = (w * h) as usize;
                let msgs = workload(seed * 31 + vcs as u64, nodes, count, spread, max_bytes);
                // 1 (serial fallback), 2, an odd count, one per row, and
                // more shards than rows (capped by the planner).
                let rows = h as usize;
                let jobs = [1usize, 2, 3, rows, rows + 3];
                assert_sharded_identical(cfg, &msgs, &jobs, &format!("{w}x{h} vcs={vcs} s={seed}"));
            }
        }
    }
}

#[test]
fn sharded_matches_serial_under_hotspot_contention() {
    for &vcs in &[1usize, 2] {
        let cfg = MeshConfig::new(6, 6).with_virtual_channels(vcs);
        let msgs = hotspot(workload(7 + vcs as u64, 36, 200, 4, 64), 36);
        assert_sharded_identical(cfg, &msgs, &[2, 4, 6, 9], &format!("hotspot vcs={vcs}"));
    }
}

#[test]
fn sharded_matches_serial_on_nondefault_router_parameters() {
    let cfg = MeshConfig::new(4, 6)
        .with_virtual_channels(2)
        .with_buffer_flits(4)
        .with_link_delay(2)
        .with_router_delay(3)
        .with_flit_bytes(4);
    let msgs = workload(99, 24, 150, 5, 128);
    assert_sharded_identical(cfg, &msgs, &[2, 3, 6, 8], "nondefault cfg");

    for &(link, router, buffers) in &[(2u64, 0u64, 4usize), (1, 5, 8), (1, 0, 4)] {
        let cfg = MeshConfig::new(4, 4)
            .with_virtual_channels(2)
            .with_link_delay(link)
            .with_router_delay(router)
            .with_buffer_flits(buffers);
        let msgs = workload(7 + link + router, 16, 6, 700, 2048);
        let label = format!("long worms link={link} router={router}");
        assert_sharded_identical(cfg, &msgs, &[2, 3], &label);
    }

    // A worm's tail with the next worm right behind it in one buffer (the
    // `equivalence.rs` input turned to run north through a 1×4 column, so
    // the row-band shards split its chain): the serial run's skip must
    // stop at P's tail, which the always-stepping shards never skip.
    let behind =
        [(1u16, 256u32, 0u64), (3, 64, 0), (2, 2048, 20)].map(|(src, bytes, at)| NetMessage {
            id: src as u64,
            src: NodeId(src),
            dst: NodeId(0),
            bytes,
            inject: SimTime::from_ticks(at),
        });
    for buffers in [4usize, 8] {
        let cfg = MeshConfig::new(1, 4).with_buffer_flits(buffers);
        assert_sharded_identical(cfg, &behind, &[2, 4], &format!("worm behind a tail b={buffers}"));
    }
}

/// One sharded model simulating batch after batch: each drain starts
/// its shard threads afresh from the model's state and must stay
/// byte-identical to the serial model's every time.
#[test]
fn sharded_model_stays_identical_across_batches() {
    let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
    let msgs = workload(5, 16, 80, 6, 64);
    let mut serial = FlitLevel::new(cfg);
    let mut sharded = FlitLevel::new(cfg).with_sim_jobs(4);
    for round in 0..3 {
        let a = serial.simulate(&msgs);
        let b = sharded.simulate(&msgs);
        assert_eq!(a.records(), b.records(), "round {round}: records diverged");
        assert_eq!(a.utilization(), b.utilization(), "round {round}: utilization diverged");
    }
}

/// The closed-loop engine: `--sim-jobs` must not perturb the per-send
/// feedback (delivery times reported while the loop is still running) —
/// only the final drain is sharded — and the drained log must stay
/// byte-identical to the serial engine's.
#[test]
fn closed_loop_per_send_feedback_is_sim_jobs_invariant() {
    let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
    let msgs = workload(11, 16, 100, 8, 64);
    let mut sorted = msgs.clone();
    sorted.sort_by_key(|m| (m.inject, m.id));

    let mut serial = FlitLevel::new(cfg);
    let mut sharded = FlitLevel::new(cfg).with_sim_jobs(4);
    for m in &sorted {
        let a = serial.try_send(*m).expect("serial send");
        let b = sharded.try_send(*m).expect("sharded send");
        assert_eq!(a, b, "per-send delivery diverged for id {}", m.id);
    }
    let a = serial.into_sink();
    let b = sharded.into_sink();
    assert_eq!(a.records(), b.records(), "drained records diverged");
    assert_eq!(a.utilization(), b.utilization(), "drained utilization diverged");
}

/// The torus wrap links make the shard chain a ring: the first and last
/// bands exchange boundary traffic directly. Every shard count must stay
/// byte-identical to the serial drain, under both routing policies —
/// including two shards (the pair is then connected by *two* edges) and
/// one shard per row.
#[test]
fn sharded_matches_serial_on_torus_across_routings_and_jobs() {
    for routing in [Routing::Dimension, Routing::Adaptive] {
        for &(w, h) in &[(4u16, 4u16), (6, 5), (8, 8)] {
            let cfg = torus_cfg(w, h, routing);
            let nodes = (w * h) as usize;
            for seed in 0..2u64 {
                let msgs = workload(seed * 43 + w as u64, nodes, 120, 6, 96);
                let rows = h as usize;
                let jobs = [1usize, 2, 3, rows, rows + 3];
                let label = format!("torus {w}x{h} {routing} s={seed}");
                assert_sharded_identical(cfg, &msgs, &jobs, &label);
            }
            if (w, h) == (4, 4) {
                let msgs = workload(w as u64, nodes, 8, 600, 4096);
                let label = format!("torus {w}x{h} {routing} long worms");
                assert_sharded_identical(cfg, &msgs, &[2, 4], &label);
            }
        }
    }
}

/// Deadlock-freedom soak: heavily contended torus traffic (hotspot
/// overlay, minimum VC budget, deep bursts) must drain to completion on
/// both routing policies at every shard count — a cyclic channel
/// dependency or a wavefront stall on the wrap edge would surface here
/// as a `Wedged` panic or a hang.
#[test]
fn contended_torus_traffic_drains_without_wedging() {
    for routing in [Routing::Dimension, Routing::Adaptive] {
        let cfg = torus_cfg(6, 6, routing);
        let msgs = hotspot(workload(13, 36, 240, 3, 96), 36);
        assert_sharded_identical(cfg, &msgs, &[2, 3, 6, 9], &format!("torus soak {routing}"));
    }
}

/// A wedge must surface as a typed error whose display carries the
/// human-readable report verbatim.
#[test]
fn wedged_error_displays_its_report() {
    let e = EngineError::Wedged { report: "flit simulation wedged at t=9".into() };
    assert_eq!(e.to_string(), "flit simulation wedged at t=9");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized pin: any shape, VC count, workload and shard count —
    /// the sharded engine's log is byte-identical to the serial one's.
    #[test]
    fn sharded_engine_is_cycle_identical(
        w in 2u16..7,
        h in 2u16..7,
        vcs in 1usize..4,
        jobs in 1usize..10,
        seed in 0u64..1u64 << 32,
    ) {
        let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
        let nodes = (w * h) as usize;
        let msgs = workload(seed, nodes, 60, 7, 80);
        let serial = FlitLevel::new(cfg).simulate(&msgs);
        let sharded = FlitLevel::new(cfg).with_sim_jobs(jobs).simulate(&msgs);
        prop_assert_eq!(serial.records(), sharded.records());
        prop_assert_eq!(serial.utilization(), sharded.utilization());
    }

    /// The same randomized pin on a torus, over both routing policies and
    /// a VC budget at or above the class minimum. Shapes down to 2×2
    /// exercise the degenerate double-edge wrap links.
    #[test]
    fn sharded_torus_engine_is_cycle_identical(
        w in 2u16..7,
        h in 2u16..7,
        adaptive in 0u8..2,
        extra_vcs in 0usize..3,
        jobs in 1usize..10,
        seed in 0u64..1u64 << 32,
    ) {
        let routing = if adaptive == 1 { Routing::Adaptive } else { Routing::Dimension };
        let base = torus_cfg(w, h, routing);
        let cfg = base.with_virtual_channels(base.virtual_channels + extra_vcs);
        let nodes = (w * h) as usize;
        let msgs = workload(seed, nodes, 60, 7, 80);
        let serial = FlitLevel::new(cfg).simulate(&msgs);
        let sharded = FlitLevel::new(cfg).with_sim_jobs(jobs).simulate(&msgs);
        prop_assert_eq!(serial.records(), sharded.records());
        prop_assert_eq!(serial.utilization(), sharded.utilization());
    }
}
