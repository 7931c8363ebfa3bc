//! Integration: the fast recurrence network model and the cycle-accurate
//! flit model must agree at light load and rank workloads identically.

use commchar::mesh::{FlitLevel, MeshConfig, NetMessage, NodeId, OnlineWormhole};
use commchar::traffic::patterns::{hotspot, uniform_poisson};
use commchar_des::SimTime;

fn to_msgs(trace: &commchar::trace::CommTrace) -> Vec<NetMessage> {
    trace
        .events()
        .iter()
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: SimTime::from_ticks(e.t),
        })
        .collect()
}

#[test]
fn models_agree_at_light_load() {
    let mesh = MeshConfig::for_nodes(16);
    let trace = uniform_poisson(16, 0.0004, 32).generate(80_000, 9);
    let msgs = to_msgs(&trace);
    let online = OnlineWormhole::new(mesh).simulate(&msgs).summary();
    let flit = FlitLevel::new(mesh).simulate(&msgs).summary();
    let rel = (online.mean_latency - flit.mean_latency).abs() / flit.mean_latency;
    assert!(rel < 0.05, "models diverge at light load: {rel:.3}");
}

#[test]
fn models_rank_loads_identically() {
    let mesh = MeshConfig::for_nodes(8);
    let mut online_lat = Vec::new();
    let mut flit_lat = Vec::new();
    for rate in [0.0005, 0.002, 0.004] {
        let msgs = to_msgs(&uniform_poisson(8, rate, 32).generate(50_000, 4));
        online_lat.push(OnlineWormhole::new(mesh).simulate(&msgs).summary().mean_latency);
        flit_lat.push(FlitLevel::new(mesh).simulate(&msgs).summary().mean_latency);
    }
    assert!(online_lat.windows(2).all(|w| w[1] >= w[0]), "online: {online_lat:?}");
    assert!(flit_lat.windows(2).all(|w| w[1] >= w[0]), "flit: {flit_lat:?}");
}

#[test]
fn hotspot_contends_more_than_uniform_in_both_models() {
    let mesh = MeshConfig::for_nodes(16);
    let uni = to_msgs(&uniform_poisson(16, 0.003, 32).generate(50_000, 6));
    let hot = to_msgs(&hotspot(16, 0, 0.6, 0.003, 32).generate(50_000, 6));
    for (name, model) in [("online", 0), ("flit", 1)] {
        let (u, h) = if model == 0 {
            (
                OnlineWormhole::new(mesh).simulate(&uni).summary(),
                OnlineWormhole::new(mesh).simulate(&hot).summary(),
            )
        } else {
            (
                FlitLevel::new(mesh).simulate(&uni).summary(),
                FlitLevel::new(mesh).simulate(&hot).summary(),
            )
        };
        assert!(
            h.mean_blocked > u.mean_blocked,
            "{name}: hotspot should block more ({} vs {})",
            h.mean_blocked,
            u.mean_blocked
        );
    }
}

#[test]
fn flit_model_conserves_messages_on_app_trace() {
    let out = commchar_apps::AppId::Fft3d.run_net(
        4,
        commchar_apps::Scale::Tiny,
        Default::default(),
        1,
        MeshConfig::for_nodes(4),
    );
    let mesh = MeshConfig::for_nodes(4);
    let msgs = to_msgs(&out.trace);
    let log = FlitLevel::new(mesh).simulate(&msgs);
    assert_eq!(log.records().len(), msgs.len());
    log.check_invariants(mesh.shape).unwrap();
}
