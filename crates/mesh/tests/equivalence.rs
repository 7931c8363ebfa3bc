//! Randomized equivalence suite: the event-driven [`FlitLevel`] must be
//! cycle-identical to the retained cycle-loop [`FlitCycleReference`].
//!
//! Seed-driven workloads sweep mesh shapes × virtual-channel counts ×
//! traffic patterns and assert byte-identical `NetLog`s — every record
//! (delivered time, and therefore blocked cycles) and every per-channel
//! utilization figure. Any divergence in switch allocation order, VC
//! assignment, buffer backpressure or idle-time skipping shows up here as
//! a concrete record diff.
//!
//! Every suite also carries long-worm inputs (1–8 KB messages, hundreds
//! to thousands of flits per worm), where the event loop skips steady
//! body streaming instead of stepping it: the reference steps every
//! cycle, so any skip that lands in a different state shows up here.
//! Inputs with interleaved virtual channels or `link_delay` 2 cover the
//! cases where the skip must not fire.

use commchar_des::SimTime;
use commchar_mesh::{
    EngineError, FlitCycleReference, FlitLevel, MeshConfig, NetMessage, NodeId, Routing, Topology,
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

fn assert_identical(cfg: MeshConfig, msgs: &[NetMessage], label: &str) {
    let fast = FlitLevel::new(cfg).simulate(msgs);
    let reference = FlitCycleReference::new(cfg).simulate(msgs);
    assert_eq!(fast.records().len(), reference.records().len(), "{label}: record count diverged");
    for (a, b) in fast.records().iter().zip(reference.records()) {
        assert_eq!(a, b, "{label}: record diverged (id {})", b.id);
    }
    assert_eq!(fast.utilization(), reference.utilization(), "{label}: utilization diverged");
}

#[test]
fn event_driven_matches_reference_across_shapes_and_vcs() {
    // (width, height, messages, spread, max bytes): short messages under
    // contention, then long worms on the smaller shapes.
    let inputs =
        [(4u16, 4u16, 120, 6, 96), (8, 2, 120, 6, 96), (8, 8, 120, 6, 96), (4, 4, 10, 900, 8192)];
    for &(w, h, count, spread, max_bytes) in &inputs {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2, 4] {
            for seed in 0..3u64 {
                let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
                let msgs = workload(seed * 31 + vcs as u64, nodes, count, spread, max_bytes);
                let label = format!("{w}x{h} vcs={vcs} seed={seed} max={max_bytes}B");
                assert_identical(cfg, &msgs, &label);
            }
        }
    }
}

#[test]
fn event_driven_matches_reference_under_hotspot() {
    for &(w, h) in &[(4u16, 4u16), (8, 8)] {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2] {
            let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
            let msgs = hotspot(workload(7 + vcs as u64, nodes, 160, 4, 64), nodes);
            assert_identical(cfg, &msgs, &format!("hotspot {w}x{h} vcs={vcs}"));
        }
    }
}

#[test]
fn event_driven_matches_reference_with_nondefault_router_parameters() {
    // Deeper buffers, slower links, instant routing decisions: exercises
    // the busy_until wheel and the head-ready charge paths differently.
    let cfg = MeshConfig::new(8, 2)
        .with_virtual_channels(2)
        .with_buffer_flits(4)
        .with_router_delay(0)
        .with_link_delay(2);
    let msgs = workload(99, 16, 140, 5, 80);
    assert_identical(cfg, &msgs, "8x2 deep-buffer slow-link");

    let cfg = MeshConfig::new(4, 4).with_buffer_flits(8).with_router_delay(5);
    let msgs = workload(123, 16, 100, 3, 48);
    assert_identical(cfg, &msgs, "4x4 slow-router");

    // Long worms on the same non-default routers: a two-cycle link (the
    // stream repeats every other cycle, so no skip), instant and slow
    // routing decisions, deeper buffers. A slow router with shallow
    // buffers lets a new head sit out its charge while another worm
    // streams, so a skip must stop for the charge's wake-up.
    for &(link, router, buffers) in
        &[(2u64, 0u64, 4usize), (1, 5, 8), (1, 0, 4), (2, 5, 8), (1, 5, 2)]
    {
        let cfg = MeshConfig::new(4, 4)
            .with_virtual_channels(2)
            .with_link_delay(link)
            .with_router_delay(router)
            .with_buffer_flits(buffers);
        let msgs = workload(7 + link + router, 16, 8, 700, 4096);
        assert_identical(cfg, &msgs, &format!("long worms link={link} router={router}"));
    }

    // A worm's tail with the next worm right behind it in one buffer:
    // R (1→0) blocks P (3→0) at node 1, so P's flits back up behind it;
    // A (2→0) waits at node 2 for P's VC and follows P's tail into node
    // 1's east buffer, which P pops while A feeds it. P's stream through
    // node 1 repeats cycle after cycle, but must not be skipped past its
    // tail.
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
        assert_identical(cfg, &behind, &format!("worm behind a tail buffers={buffers}"));
    }
}

#[test]
fn event_driven_matches_reference_on_simultaneous_injections() {
    // Every node fires at t=0 toward a shuffled partner — maximal tie
    // breaking stress for the round-robin allocators.
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
        assert_identical(cfg, &msgs, &format!("simultaneous vcs={vcs}"));
    }
}

#[test]
fn event_driven_matches_reference_across_topologies_and_routings() {
    // The full (topology × routing) matrix, sized so every VC-class
    // budget is covered at its minimum and with headroom.
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let base = MeshConfig::for_nodes_net(16, topology, routing);
            for &vcs in &[base.vc_classes(), base.vc_classes() * 2] {
                let cfg = base.with_virtual_channels(vcs);
                for &(count, spread, max_bytes) in &[(120, 6, 96), (8, 600, 4096)] {
                    for seed in 0..2u64 {
                        let msgs = workload(seed * 17 + vcs as u64, 16, count, spread, max_bytes);
                        let label =
                            format!("{topology} {routing} vcs={vcs} seed={seed} max={max_bytes}B");
                        assert_identical(cfg, &msgs, &label);
                    }
                }
            }
        }
    }
}

#[test]
fn event_driven_matches_reference_under_torus_hotspot() {
    for routing in [Routing::Dimension, Routing::Adaptive] {
        let cfg = MeshConfig::for_nodes_net(36, Topology::Torus, routing);
        let msgs = hotspot(workload(11, 36, 160, 4, 64), 36);
        assert_identical(cfg, &msgs, &format!("torus hotspot {routing}"));
    }
}

#[test]
fn undersized_vc_budget_is_a_typed_error_not_a_panic() {
    // A torus needs an escape-VC class per dateline state; adaptive
    // routing doubles the budget. Both shortfalls surface as the typed
    // `UnsupportedTopology` error rather than a constructor panic.
    let err = FlitLevel::try_new(MeshConfig::new_torus(4, 4)).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::UnsupportedTopology {
                topology: Topology::Torus,
                routing: Routing::Dimension,
                needed: 2,
                have: 1,
            }
        ),
        "unexpected error: {err}"
    );

    let cfg = MeshConfig::new_torus(4, 4).with_routing(Routing::Adaptive).with_virtual_channels(2);
    let err = FlitLevel::try_new(cfg).unwrap_err();
    assert!(
        matches!(err, EngineError::UnsupportedTopology { needed: 4, have: 2, .. }),
        "unexpected error: {err}"
    );
    assert!(FlitLevel::try_new(cfg.with_virtual_channels(4)).is_ok());
}

/// Regression: an output's request queue holds up to `5·vcs` input
/// buffers. With 128 VCs, 288 worms converging on node 144 of a 17×17
/// mesh queue more than 255 requesters at its ejection port, which an
/// 8-bit counter wrapped to 0 — a false `Wedged` at t=1545 with 256
/// worms undelivered. The cycle-loop reference delivers all 288.
#[test]
fn wide_vc_hotspot_delivers_every_message() {
    let cfg = MeshConfig::new(17, 17).with_virtual_channels(128);
    let msgs: Vec<NetMessage> = (0..289u16)
        .filter(|&n| n != 144)
        .map(|n| NetMessage {
            id: n as u64,
            src: NodeId(n),
            dst: NodeId(144),
            bytes: 64,
            inject: SimTime::ZERO,
        })
        .collect();
    let mut model = FlitLevel::new(cfg);
    model.try_run(&msgs).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(model.sink().records().len(), 288);
}
