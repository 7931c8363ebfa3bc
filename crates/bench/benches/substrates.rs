//! Criterion benches over the substrate hot paths: the two network
//! models, the distribution fitter, the execution-driven simulator, the
//! message-passing runtime and the causal replayer.

use commchar_apps::{AppId, Scale};
use commchar_mesh::{
    EngineKind, FlitCycleReference, FlitLevel, MeshConfig, MeshModel, NetMessage, NodeId,
    OnlineWormhole, StreamingLog,
};
use commchar_stats::fit::fit_best;
use commchar_stats::Dist;
use commchar_trace::replay::CausalReplayer;
use commchar_traffic::patterns::uniform_poisson;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;

fn msgs_for(n: usize, count: usize) -> Vec<NetMessage> {
    let model = uniform_poisson(n, 0.002, 32);
    let trace = model.generate((count as f64 / (0.002 * n as f64)) as u64, 3);
    trace
        .events()
        .iter()
        .take(count)
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: commchar_des::SimTime::from_ticks(e.t),
        })
        .collect()
}

fn bench_mesh(c: &mut Criterion) {
    let mesh = MeshConfig::for_nodes(16);
    let msgs = msgs_for(16, 5_000);
    c.bench_function("mesh/online_wormhole_5k_msgs", |b| {
        b.iter(|| OnlineWormhole::new(mesh).simulate(black_box(&msgs)))
    });
    let small = msgs_for(16, 500);
    c.bench_function("mesh/flit_level_500_msgs", |b| {
        b.iter(|| FlitLevel::new(mesh).simulate(black_box(&small)))
    });
    // The retained cycle-loop oracle, same workload — keeps the
    // event-driven speedup visible in the criterion history alongside
    // the BENCH_flit.json trajectory.
    c.bench_function("mesh/flit_reference_500_msgs", |b| {
        b.iter(|| FlitCycleReference::new(mesh).simulate(black_box(&small)))
    });
    // Same recurrence model, but folding into the constant-memory sink
    // instead of retaining every record.
    c.bench_function("mesh/streaming_wormhole_5k_msgs", |b| {
        b.iter(|| {
            let mut net = OnlineWormhole::<StreamingLog>::streaming(mesh);
            for m in black_box(&msgs) {
                net.send(*m);
            }
            net.into_sink().summary()
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let d = Dist::hyper_exp2(0.2, 0.5, 0.02);
    let samples: Vec<f64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
    c.bench_function("stats/fit_best_5k_samples", |b| b.iter(|| fit_best(black_box(&samples))));
}

fn bench_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulators");
    group.sample_size(10);
    let run = |app: AppId| {
        app.run_net(4, Scale::Tiny, EngineKind::Recurrence, 1, MeshConfig::for_nodes(4))
    };
    group.bench_function("spasm/is_tiny_4p", |b| b.iter(|| run(AppId::Is)));
    group.bench_function("sp2/fft3d_tiny_4p", |b| b.iter(|| run(AppId::Fft3d)));
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mesh = MeshConfig::for_nodes(4);
    let out = AppId::Fft3d.run_net(4, Scale::Tiny, EngineKind::Recurrence, 1, mesh);
    c.bench_function("trace/causal_replay_fft3d", |b| {
        b.iter(|| {
            CausalReplayer::new(mesh).try_replay(black_box(&out.trace), EngineKind::Recurrence)
        })
    });
}

fn bench_variants(c: &mut Criterion) {
    // Torus routing on the recurrence model.
    let torus = MeshConfig::torus_for_nodes(16);
    let msgs = msgs_for(16, 2_000);
    c.bench_function("mesh/online_torus_2k_msgs", |b| {
        b.iter(|| OnlineWormhole::new(torus).simulate(black_box(&msgs)))
    });
    // Virtual channels on the flit model.
    let vc = MeshConfig::for_nodes(16).with_virtual_channels(4);
    let small = msgs_for(16, 300);
    c.bench_function("mesh/flit_4vc_300_msgs", |b| {
        b.iter(|| commchar_mesh::FlitLevel::new(vc).simulate(black_box(&small)))
    });
    // Analytic prediction throughput.
    let model = uniform_poisson(16, 0.002, 32);
    let analytic = commchar_analytic::AnalyticModel::new(MeshConfig::for_nodes(16));
    c.bench_function("analytic/predict_16_nodes", |b| {
        b.iter(|| analytic.predict(black_box(&model)))
    });
    // MESI protocol run.
    let mut group = c.benchmark_group("simulators");
    group.sample_size(10);
    group.bench_function("spasm/is_tiny_4p_mesi", |b| {
        b.iter(|| {
            let cfg =
                commchar_spasm::MachineConfig::new(4).with_protocol(commchar_spasm::Protocol::Mesi);
            commchar_apps::sm::is::run_sized_with(cfg, 512, 32)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mesh, bench_stats, bench_simulators, bench_replay, bench_variants);
criterion_main!(benches);
