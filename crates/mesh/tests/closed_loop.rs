//! Randomized equivalence suite: a closed-loop [`FlitLevel`] run (one
//! send at a time) must produce a final log cycle-identical to a batch
//! [`FlitLevel`] run over the same injection schedule.
//!
//! This is the correctness pin for the committed/speculative design: the
//! incremental engine may only ever commit cycles no future injection can
//! perturb, so however its speculation is promoted or discarded along the
//! way, the drained log — every record and every per-channel utilization
//! figure — must match the batch simulation byte for byte. Seed-driven
//! workloads sweep mesh shapes × virtual-channel counts × traffic
//! patterns, the same harness style that pins the batch router against
//! its retained oracle in `equivalence.rs`. Long-worm inputs (1–8 KB
//! messages) make both engines skip steady body streaming, the batch run
//! over the whole schedule and the closed loop inside its committed and
//! speculative advances, which stop at every send's horizon.

use commchar_des::SimTime;
use commchar_mesh::{
    EngineError, FlitLevel, FlitWork, MeshConfig, NetEngine, NetMessage, NodeId, OnlineWormhole,
    Routing, Topology,
};

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

/// Feeds `msgs` one at a time through the closed-loop engine (sorted by
/// injection time, the trait's contract) and asserts the drained log is
/// byte-identical to a batch simulation of the same slice.
fn assert_closed_loop_identical(cfg: MeshConfig, msgs: &[NetMessage], label: &str) {
    let batch = FlitLevel::new(cfg).simulate(msgs);

    let mut sorted: Vec<NetMessage> = msgs.to_vec();
    sorted.sort_by_key(|m| (m.inject, m.id));
    let mut engine = FlitLevel::new(cfg);
    for &m in &sorted {
        let d = engine.send(m).unwrap_or_else(|e| panic!("{label}: {e}"));
        // The per-send feedback is speculative, but never earlier than the
        // uncontended bound and never later than the final answer can
        // improve on: sanity-check it is a plausible delivery time.
        assert!(d.ticks() > m.inject.ticks(), "{label}: delivery precedes injection (id {})", m.id);
    }
    let log = engine.finish();

    assert_eq!(log.records().len(), batch.records().len(), "{label}: record count diverged");
    for (a, b) in log.records().iter().zip(batch.records()) {
        assert_eq!(a, b, "{label}: record diverged (id {})", b.id);
    }
    assert_eq!(log.utilization(), batch.utilization(), "{label}: utilization diverged");
}

#[test]
fn closed_loop_matches_batch_across_shapes_and_vcs() {
    // (width, height, messages, spread, max bytes): short messages under
    // contention, then long worms.
    let inputs = [
        (4u16, 4u16, 120, 6, 96),
        (8, 2, 120, 6, 96),
        (8, 8, 120, 6, 96),
        (4, 4, 16, 900, 8192),
        (8, 8, 40, 300, 2048),
    ];
    for &(w, h, count, spread, max_bytes) in &inputs {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2, 4] {
            for seed in 0..3u64 {
                let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
                let msgs = workload(seed * 31 + vcs as u64, nodes, count, spread, max_bytes);
                let label = format!("{w}x{h} vcs={vcs} seed={seed} max={max_bytes}B");
                assert_closed_loop_identical(cfg, &msgs, &label);
            }
        }
    }
}

#[test]
fn closed_loop_matches_batch_across_topologies_and_routings() {
    // The speculation/commit machinery must be oblivious to the routing
    // policy and the wraparound links: every (topology × routing) cell,
    // at the minimum legal VC budget and with headroom.
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let base = MeshConfig::for_nodes_net(16, topology, routing);
            for &vcs in &[base.vc_classes(), base.vc_classes() * 2] {
                let cfg = base.with_virtual_channels(vcs);
                for &(count, spread, max_bytes) in &[(120, 6, 96), (12, 600, 4096)] {
                    let msgs = workload(23 + vcs as u64, 16, count, spread, max_bytes);
                    let label = format!("{topology} {routing} vcs={vcs} max={max_bytes}B");
                    assert_closed_loop_identical(cfg, &msgs, &label);
                }
            }
        }
    }
}

#[test]
fn closed_loop_matches_batch_under_hotspot() {
    for &(w, h) in &[(4u16, 4u16), (8, 8)] {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2] {
            let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
            let msgs = hotspot(workload(7 + vcs as u64, nodes, 160, 4, 64), nodes);
            assert_closed_loop_identical(cfg, &msgs, &format!("hotspot {w}x{h} vcs={vcs}"));
        }
    }
}

#[test]
fn closed_loop_matches_batch_with_nondefault_router_parameters() {
    let cfg = MeshConfig::new(8, 2)
        .with_virtual_channels(2)
        .with_buffer_flits(4)
        .with_router_delay(0)
        .with_link_delay(2);
    let msgs = workload(99, 16, 140, 5, 80);
    assert_closed_loop_identical(cfg, &msgs, "8x2 deep-buffer slow-link");

    let cfg = MeshConfig::new(4, 4).with_buffer_flits(8).with_router_delay(5);
    let msgs = workload(123, 16, 100, 3, 48);
    assert_closed_loop_identical(cfg, &msgs, "4x4 slow-router");

    for &(link, router, buffers) in
        &[(2u64, 0u64, 4usize), (1, 5, 8), (1, 0, 4), (2, 5, 8), (1, 5, 2)]
    {
        let cfg = MeshConfig::new(4, 4)
            .with_virtual_channels(2)
            .with_link_delay(link)
            .with_router_delay(router)
            .with_buffer_flits(buffers);
        let msgs = workload(7 + link + router, 16, 12, 700, 4096);
        assert_closed_loop_identical(
            cfg,
            &msgs,
            &format!("long worms link={link} router={router}"),
        );
    }

    // A worm's tail with the next worm right behind it in one buffer (see
    // the same input in `equivalence.rs`): P streams out of a backlog
    // while A feeds the buffer P pops.
    let behind =
        [(1u16, 256u32, 0u64), (3, 64, 0), (2, 2048, 20)].map(|(src, bytes, at)| NetMessage {
            id: src as u64,
            src: NodeId(src),
            dst: NodeId(0),
            bytes,
            inject: SimTime::from_ticks(at),
        });
    for buffers in [4usize, 8] {
        let cfg = MeshConfig::new(4, 1).with_buffer_flits(buffers);
        assert_closed_loop_identical(
            cfg,
            &behind,
            &format!("worm behind a tail buffers={buffers}"),
        );
    }
}

#[test]
fn closed_loop_matches_batch_on_simultaneous_injections() {
    // Every node fires at t=0 toward a shuffled partner — maximal
    // speculation churn, since no send's horizon ever passes another's.
    for &vcs in &[1usize, 2, 4] {
        let cfg = MeshConfig::new(4, 4).with_virtual_channels(vcs);
        let mut rng = Lcg::new(5 + vcs as u64);
        let msgs: Vec<NetMessage> = (0..16u64)
            .map(|i| NetMessage {
                id: i,
                src: NodeId(i as u16),
                dst: NodeId(((i + 1 + rng.below(14)) % 16) as u16),
                bytes: 8 + rng.below(56) as u32,
                inject: SimTime::ZERO,
            })
            .filter(|m| m.src != m.dst)
            .collect();
        assert_closed_loop_identical(cfg, &msgs, &format!("simultaneous vcs={vcs}"));
    }
}

#[test]
fn closed_loop_matches_batch_on_widely_spaced_traffic() {
    // Large gaps between injections: every speculation gets promoted (it
    // finishes well before the next horizon), exercising the cheap path.
    let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
    let mut msgs = workload(41, 16, 60, 3, 64);
    for (i, m) in msgs.iter_mut().enumerate() {
        m.inject = SimTime::from_ticks(i as u64 * 10_000);
    }
    assert_closed_loop_identical(cfg, &msgs, "widely-spaced");
}

#[test]
fn closed_loop_engines_agree_on_the_contract() {
    // The two NetEngine implementations answer the same feed without
    // error and report the same message population (latencies differ —
    // that delta is exactly what exp_engine_fidelity measures).
    let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
    let mut msgs = workload(17, 16, 80, 8, 64);
    msgs.sort_by_key(|m| (m.inject, m.id));
    let mut rec = OnlineWormhole::new(cfg);
    let mut flit = FlitLevel::new(cfg);
    for &m in &msgs {
        rec.send(m);
        flit.send(m).unwrap();
    }
    let a = NetEngine::finish(rec);
    let b = flit.finish();
    assert_eq!(a.records().len(), b.records().len());
    for (ra, rb) in a.records().iter().zip(b.records()) {
        assert_eq!(
            (ra.id, ra.src, ra.dst, ra.bytes, ra.inject),
            (rb.id, rb.src, rb.dst, rb.bytes, rb.inject)
        );
    }
}

#[test]
fn out_of_order_feed_surfaces_as_typed_error() {
    let cfg = MeshConfig::new(4, 4);
    let mut engine = FlitLevel::new(cfg);
    engine
        .send(NetMessage {
            id: 0,
            src: NodeId(0),
            dst: NodeId(5),
            bytes: 16,
            inject: SimTime::from_ticks(100),
        })
        .unwrap();
    let err = engine
        .send(NetMessage {
            id: 1,
            src: NodeId(1),
            dst: NodeId(2),
            bytes: 16,
            inject: SimTime::from_ticks(40),
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::OutOfOrder { id: 1, .. }), "{err}");
}

/// One model runs batch and closed loop in turn: a batch run discards an
/// open closed-loop run, a send after a batch opens a fresh run, and a
/// drain with no open run emits nothing.
#[test]
fn batch_and_closed_loop_runs_share_one_model() {
    let cfg = MeshConfig::new(4, 2).with_virtual_channels(2);
    let mut msgs = workload(13, 8, 30, 6, 48);
    msgs.sort_by_key(|m| (m.inject, m.id));
    let mut model = FlitLevel::new(cfg);
    model.try_send(msgs[0]).unwrap();
    let batch = model.simulate(&msgs);
    assert_eq!(batch.records().len(), msgs.len());
    for &m in &msgs {
        model.try_send(m).unwrap();
    }
    model.try_drain().unwrap();
    let work = model.work();
    model.try_drain().unwrap();
    assert_eq!(model.work(), work);
    let closed = model.into_log();
    assert_eq!(closed.records(), batch.records());
    assert_eq!(closed.utilization(), batch.utilization());
}

/// The work counters are deterministic: two runs of one schedule report
/// the same stepped cycles, skipped cycles and skips, batch and closed
/// loop alike. On long worms the event loop covers most cycles by
/// skipping: fewer than 10% of them are stepped one at a time.
#[test]
fn work_counters_repeat_and_long_worms_mostly_skip() {
    let cfg = MeshConfig::new(4, 4);
    let mut msgs = workload(3, 16, 40, 5000, 8192);
    msgs.sort_by_key(|m| (m.inject, m.id));
    let batch = || {
        let mut model = FlitLevel::new(cfg);
        model.run(&msgs);
        model.work()
    };
    let closed = || {
        let mut engine = FlitLevel::new(cfg);
        for &m in &msgs {
            engine.send(m).unwrap();
        }
        engine.try_drain().unwrap();
        engine.work()
    };
    let stepped_share =
        |w: FlitWork| w.cycles_stepped as f64 / (w.cycles_stepped + w.cycles_skipped) as f64;
    for (label, run) in [("batch", &batch as &dyn Fn() -> FlitWork), ("closed loop", &closed)] {
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{label}: work counters differ between runs");
        assert!(a.skips > 0, "{label}: no steady-stream skip on long worms: {a:?}");
        assert!(stepped_share(a) < 0.10, "{label}: {a:?} steps too many cycles");
    }
}

/// The closed loop counts its sends and the speculations they discard.
/// A dependent chain, each message injected when the previous one is
/// delivered, finds every speculation below its horizon and discards
/// none. `k` sends at one tick each land inside the speculation the send
/// before them ran to its delivery, so all but the first discard one. A
/// batch run makes no closed-loop send.
#[test]
fn closed_loop_counts_sends_and_discarded_speculations() {
    let cfg = MeshConfig::new(4, 4);
    let msg = |id: u64, src: u16, dst: u16, inject: u64| NetMessage {
        id,
        src: NodeId(src),
        dst: NodeId(dst),
        bytes: 64,
        inject: SimTime::from_ticks(inject),
    };

    let mut chain = FlitLevel::new(cfg);
    let mut at = 0;
    for i in 0..12u64 {
        let (src, dst) = ((i * 5 % 16) as u16, ((i * 5 + 5) % 16) as u16);
        at = chain.try_send(msg(i, src, dst, at)).unwrap().ticks();
    }
    chain.try_drain().unwrap();
    let work = chain.work();
    assert_eq!((work.closed_loop_sends, work.speculations_discarded), (12, 0), "{work:?}");

    for k in [1u64, 2, 5, 9] {
        let mut burst = FlitLevel::new(cfg);
        for i in 0..k {
            burst.try_send(msg(i, i as u16, 15 - i as u16, 100)).unwrap();
        }
        burst.try_drain().unwrap();
        let work = burst.work();
        assert_eq!(work.closed_loop_sends, k, "{k} sends: {work:?}");
        assert_eq!(work.speculations_discarded, k - 1, "{k} sends: {work:?}");
    }

    let mut batch = FlitLevel::new(cfg);
    batch.run(&[msg(0, 0, 15, 0), msg(1, 3, 12, 0)]);
    let work = batch.work();
    assert_eq!((work.closed_loop_sends, work.speculations_discarded), (0, 0), "{work:?}");
}
