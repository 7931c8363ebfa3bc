//! Property-based tests for the mesh network models.

use commchar_des::SimTime;
use commchar_mesh::{
    FlitLevel, MeshConfig, MeshShape, NetMessage, NodeId, OnlineWormhole, Routing, Topology,
};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = MeshShape> {
    (1u16..8, 1u16..8).prop_map(|(w, h)| MeshShape::new(w, h))
}

/// A shape of either topology plus either routing policy, as two coin
/// flips alongside the dimensions.
fn arb_net() -> impl Strategy<Value = (MeshShape, Routing)> {
    (1u16..8, 1u16..8, 0u8..2, 0u8..2).prop_map(|(w, h, torus, adaptive)| {
        let shape = if torus == 1 { MeshShape::new_torus(w, h) } else { MeshShape::new(w, h) };
        let routing = if adaptive == 1 { Routing::Adaptive } else { Routing::Dimension };
        (shape, routing)
    })
}

/// Random message batches on a shape (self-messages filtered out).
fn arb_msgs(nodes: usize, max: usize) -> impl Strategy<Value = Vec<NetMessage>> {
    prop::collection::vec((0..nodes as u16, 0..nodes as u16, 1u32..200, 0u64..20_000), 1..max)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .filter(|(_, (s, d, _, _))| s != d)
                .map(|(i, (s, d, bytes, t))| NetMessage {
                    id: i as u64,
                    src: NodeId(s),
                    dst: NodeId(d),
                    bytes,
                    inject: SimTime::from_ticks(t),
                })
                .collect()
        })
}

proptest! {
    /// Every XY route starts at the source's injection channel, ends at
    /// the destination's ejection channel, and has length = distance + 2.
    #[test]
    fn xy_routes_are_well_formed(shape in arb_shape(), a in 0u16..64, b in 0u16..64) {
        let n = shape.nodes() as u16;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        prop_assume!(src != dst);
        let path = shape.xy_route(src, dst);
        prop_assert_eq!(path[0], shape.injection(src));
        prop_assert_eq!(*path.last().unwrap(), shape.ejection(dst));
        prop_assert_eq!(path.len() as u32, shape.hop_distance(src, dst) + 2);
        // No channel repeats (minimal routes are simple paths).
        let mut seen = std::collections::HashSet::new();
        for c in &path {
            prop_assert!(seen.insert(*c), "repeated channel in route");
        }
    }

    /// Route/distance invariants over the full (topology × routing)
    /// matrix: wrap-aware `hop_distance` and every routing policy agree
    /// on route length (`distance + 2`, counting injection + ejection),
    /// endpoints are correct, and routes are simple paths — i.e. the
    /// adaptive policy stays *minimal* on both topologies.
    #[test]
    fn routes_are_minimal_on_both_topologies(
        net in arb_net(),
        a in 0u16..64,
        b in 0u16..64,
    ) {
        let (shape, routing) = net;
        let n = shape.nodes() as u16;
        let (src, dst) = (NodeId(a % n), NodeId(b % n));
        prop_assume!(src != dst);
        let path = shape.route(src, dst, routing);
        prop_assert_eq!(path[0], shape.injection(src));
        prop_assert_eq!(*path.last().unwrap(), shape.ejection(dst));
        prop_assert_eq!(path.len() as u32, shape.hop_distance(src, dst) + 2);
        let mut seen = std::collections::HashSet::new();
        for c in &path {
            prop_assert!(seen.insert(*c), "repeated channel in route");
        }
        // The torus never routes the long way: distance is bounded by
        // half the ring in each dimension.
        if shape.topology() == Topology::Mesh {
            prop_assert_eq!(path.len(), shape.xy_route(src, dst).len());
        } else {
            let bound = shape.width() as u32 / 2 + shape.height() as u32 / 2;
            prop_assert!(shape.hop_distance(src, dst) <= bound);
        }
    }

    /// The online model delivers every message, never faster than the
    /// zero-load bound, and in-order per (src, dst) pair.
    #[test]
    fn online_model_invariants(msgs in arb_msgs(12, 60)) {
        prop_assume!(!msgs.is_empty());
        let cfg = MeshConfig::for_nodes(12);
        let log = OnlineWormhole::new(cfg).simulate(&msgs);
        prop_assert_eq!(log.records().len(), msgs.len());
        log.check_invariants(cfg.shape).unwrap();
        // FIFO per source-destination pair: injection order = delivery order.
        let mut per_pair: std::collections::HashMap<(u16, u16), Vec<(u64, u64)>> = Default::default();
        for r in log.records() {
            per_pair.entry((r.src.0, r.dst.0)).or_default().push((r.inject, r.delivered));
        }
        for seq in per_pair.values_mut() {
            seq.sort();
            for w in seq.windows(2) {
                prop_assert!(w[1].1 >= w[0].1, "pair overtaking: {w:?}");
            }
        }
    }

    /// The flit-level model also delivers everything and respects the
    /// zero-load bound.
    #[test]
    fn flit_model_invariants(msgs in arb_msgs(8, 25)) {
        prop_assume!(!msgs.is_empty());
        let cfg = MeshConfig::for_nodes(8);
        let log = FlitLevel::new(cfg).simulate(&msgs);
        prop_assert_eq!(log.records().len(), msgs.len());
        log.check_invariants(cfg.shape).unwrap();
    }

    /// For a single message, both models agree exactly (zero-load
    /// construction equivalence).
    #[test]
    fn models_agree_at_zero_load(
        shape in (2u16..6, 2u16..6),
        src in 0u16..36,
        dst in 0u16..36,
        bytes in 1u32..300,
    ) {
        let cfg = MeshConfig::new(shape.0, shape.1);
        let n = cfg.shape.nodes() as u16;
        let (src, dst) = (src % n, dst % n);
        prop_assume!(src != dst);
        let msgs = vec![NetMessage {
            id: 0,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            inject: SimTime::from_ticks(5),
        }];
        let online = OnlineWormhole::new(cfg).simulate(&msgs);
        let flit = FlitLevel::new(cfg).simulate(&msgs);
        prop_assert_eq!(online.records()[0].delivered, flit.records()[0].delivered);
        prop_assert_eq!(online.records()[0].latency(), cfg.zero_load_latency(bytes, online.records()[0].hops));
    }

    /// Batch simulation is permutation-invariant: shuffling the input
    /// message list does not change any record (models sort internally).
    #[test]
    fn simulate_is_order_insensitive(msgs in arb_msgs(9, 40), seed in 0u64..1000) {
        prop_assume!(msgs.len() > 1);
        let cfg = MeshConfig::for_nodes(9);
        let a = OnlineWormhole::new(cfg).simulate(&msgs);
        let mut shuffled = msgs.clone();
        // Deterministic Fisher-Yates with a tiny LCG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let b = OnlineWormhole::new(cfg).simulate(&shuffled);
        let mut ra = a.into_records();
        let mut rb = b.into_records();
        ra.sort_by_key(|r| r.id);
        rb.sort_by_key(|r| r.id);
        prop_assert_eq!(ra, rb);
    }

    /// Zero-load latency is monotone in both payload size and distance.
    #[test]
    fn zero_load_monotone(bytes in 0u32..1000, hops in 1u32..10) {
        let cfg = MeshConfig::new(8, 8);
        prop_assert!(cfg.zero_load_latency(bytes + 2, hops) >= cfg.zero_load_latency(bytes, hops));
        prop_assert!(cfg.zero_load_latency(bytes, hops + 1) > cfg.zero_load_latency(bytes, hops));
    }
}
