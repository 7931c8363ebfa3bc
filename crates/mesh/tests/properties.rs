//! Property-based tests for the mesh network models.

use commchar_des::{RunningStats, SimTime};
use commchar_mesh::{
    ChannelId, FlitLevel, LogSink, MeshConfig, MeshShape, MsgRecord, NetLog, NetMessage,
    NetSummary, NetTally, NodeId, OnlineWormhole, Routing, Topology,
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

/// The summary as it was computed from a retained record log before the
/// summary sink: Welford moments over the records in order, and median and
/// p95 picked from the sorted latencies at rank ⌈q·n⌉ (clamped to 1..=n).
/// Kept as the reference [`NetTally`] must reproduce bit for bit.
fn reference_summary(records: &[MsgRecord]) -> NetSummary {
    let mut lat = RunningStats::new();
    let mut blk = RunningStats::new();
    let mut hops = RunningStats::new();
    let mut first = u64::MAX;
    let mut last = 0u64;
    let mut total_bytes = 0u64;
    for r in records {
        lat.record(r.latency() as f64);
        blk.record(r.blocked() as f64);
        hops.record(r.hops as f64);
        first = first.min(r.inject);
        last = last.max(r.delivered);
        total_bytes += r.bytes as u64;
    }
    let span = if records.is_empty() { 0 } else { last - first };
    let mut latencies: Vec<u64> = records.iter().map(|r| r.latency()).collect();
    latencies.sort_unstable();
    let pick = |q: f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
            latencies[idx - 1] as f64
        }
    };
    NetSummary {
        messages: records.len() as u64,
        mean_latency: lat.mean(),
        median_latency: pick(0.5),
        p95_latency: pick(0.95),
        mean_blocked: blk.mean(),
        mean_hops: hops.mean(),
        span,
        throughput: if span == 0 { 0.0 } else { total_bytes as f64 / span as f64 },
    }
}

/// Every field of a summary, each `f64` as its bits.
fn summary_bits(s: &NetSummary) -> [u64; 8] {
    [
        s.messages,
        s.mean_latency.to_bits(),
        s.median_latency.to_bits(),
        s.p95_latency.to_bits(),
        s.mean_blocked.to_bits(),
        s.mean_hops.to_bits(),
        s.span,
        s.throughput.to_bits(),
    ]
}

/// Checks that a [`NetTally`] fed `records` in order, and a [`NetLog`]
/// holding them, both summarize them bit for bit as the reference does.
fn assert_tally_matches(records: &[MsgRecord]) -> [u64; 8] {
    let mut tally = NetTally::new();
    for &r in records {
        tally.record(r);
    }
    let want = summary_bits(&reference_summary(records));
    assert_eq!(summary_bits(&tally.summary()), want, "tally vs reference");
    let log: NetLog = records.iter().copied().collect();
    assert_eq!(summary_bits(&log.summary()), want, "log vs reference");
    want
}

/// A record with the given source, injection and latency.
fn rec(id: u64, src: u16, inject: u64, latency: u64) -> MsgRecord {
    MsgRecord {
        id,
        src: NodeId(src),
        dst: NodeId(src + 1),
        bytes: 8 + (id % 5) as u32 * 8,
        inject,
        delivered: inject + latency,
        hops: 1 + (id % 3) as u32,
        zero_load: latency.min(7),
    }
}

/// Random record streams, possibly empty, delivered in any order: a few
/// sources, and latencies drawn either from a narrow range (so equal
/// values form runs) or a wide one.
fn arb_records(max: usize) -> impl Strategy<Value = Vec<MsgRecord>> {
    let fields = (0u16..6, 0u64..10_000, 0u64..40, 0u32..300, 0u32..9, 0u64..30);
    (prop::collection::vec(fields, 0..max), 0u8..2).prop_map(|(raw, wide)| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (src, inject, lat, bytes, hops, zero_load))| {
                let latency = if wide == 1 { lat * 7_919 + (i as u64 % 13) } else { lat };
                MsgRecord {
                    id: i as u64,
                    src: NodeId(src),
                    dst: NodeId(src + 1),
                    bytes,
                    inject,
                    delivered: inject + latency,
                    hops,
                    zero_load,
                }
            })
            .collect()
    })
}

#[test]
fn tally_summary_edge_cases_match_the_reference() {
    // Empty: everything zero.
    assert_eq!(assert_tally_matches(&[]), summary_bits(&NetLog::new().summary()));
    assert_eq!(NetTally::new().summary().median_latency, 0.0);
    // One record.
    let one = [rec(0, 0, 5, 12)];
    assert_tally_matches(&one);
    assert_eq!(NetTally::new().summary().span, 0);
    // All-equal latencies: median and p95 are that latency.
    let equal: Vec<MsgRecord> = (0..37).map(|i| rec(i, (i % 3) as u16, i * 4, 9)).collect();
    let bits = assert_tally_matches(&equal);
    assert_eq!((f64::from_bits(bits[2]), f64::from_bits(bits[3])), (9.0, 9.0));
    // ⌈q·n⌉ on a run boundary: ten records, five at latency 2 then five
    // at 8, so the median's rank 5 is the last of the first run.
    let runs: Vec<MsgRecord> =
        (0..10).map(|i| rec(i, 0, i * 3, if i % 2 == 0 { 2 } else { 8 })).collect();
    let bits = assert_tally_matches(&runs);
    assert_eq!((f64::from_bits(bits[2]), f64::from_bits(bits[3])), (2.0, 8.0));
    // And p95's rank 19 of 20 as the last of a run of nineteen.
    let tail: Vec<MsgRecord> =
        (0..20).map(|i| rec(i, 1, 100 - i, if i == 7 { 50 } else { 3 })).collect();
    let bits = assert_tally_matches(&tail);
    assert_eq!((f64::from_bits(bits[2]), f64::from_bits(bits[3])), (3.0, 3.0));
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

    /// The recurrence takes a record's `hops` from its route's length and
    /// its `zero_load` from the flits it has already sized. Both equal what
    /// `hop_distance` and `zero_load_latency` compute afresh, on
    /// either topology under either routing, on square and non-square
    /// shapes. The reusable `route_into` appends exactly what `route`
    /// returns, after whatever the buffer already holds.
    #[test]
    fn recurrence_records_carry_the_derived_fields(net in arb_net(), raw in arb_msgs(64, 40)) {
        let (shape, routing) = net;
        let n = shape.nodes() as u16;
        let msgs: Vec<NetMessage> = raw
            .into_iter()
            .map(|m| NetMessage { src: NodeId(m.src.0 % n), dst: NodeId(m.dst.0 % n), ..m })
            .filter(|m| m.src != m.dst)
            .collect();
        prop_assume!(!msgs.is_empty());
        let cfg = MeshConfig { shape, ..MeshConfig::new(1, 1) }.with_routing(routing);
        let log = OnlineWormhole::new(cfg).simulate(&msgs);
        prop_assert_eq!(log.records().len(), msgs.len());
        for r in log.records() {
            prop_assert_eq!(r.hops, shape.hop_distance(r.src, r.dst));
            prop_assert_eq!(r.zero_load, cfg.zero_load_latency(r.bytes, r.hops));
        }
        let mut buf = vec![ChannelId(u32::MAX)];
        for m in &msgs {
            buf.truncate(1);
            shape.route_into(m.src, m.dst, routing, &mut buf);
            prop_assert_eq!(buf[0], ChannelId(u32::MAX));
            prop_assert_eq!(&buf[1..], &shape.route(m.src, m.dst, routing)[..]);
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

    /// The summary sink's summary equals the sort-based reference over any
    /// record stream, every `f64` bit for bit.
    #[test]
    fn tally_summary_equals_the_sorted_reference(records in arb_records(300)) {
        assert_tally_matches(&records);
    }
}
