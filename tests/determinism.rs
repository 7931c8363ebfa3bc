//! Integration: simulations are bit-deterministic across runs, regardless
//! of host thread scheduling, and the shared-memory runs are pinned to
//! golden values so a rewrite of the simulator cannot move one event.

use commchar::core::{acquire, characterize, RunSpec};
use commchar::mesh::{EngineKind, NetLog, Routing, Topology};
use commchar::sp2::{run_mp, Sp2Config};
use commchar::tracestore::{fnv1a, pack_trace};
use commchar_apps::{AppId, Scale};

/// FNV-1a over every field of every record of `log`, in log order, then
/// every `(channel, fraction bits)` utilization pair, each little-endian.
fn netlog_digest(log: &NetLog) -> u32 {
    let mut bytes = Vec::new();
    for r in log.records() {
        bytes.extend_from_slice(&r.id.to_le_bytes());
        bytes.extend_from_slice(&r.src.0.to_le_bytes());
        bytes.extend_from_slice(&r.dst.0.to_le_bytes());
        bytes.extend_from_slice(&r.bytes.to_le_bytes());
        bytes.extend_from_slice(&r.inject.to_le_bytes());
        bytes.extend_from_slice(&r.delivered.to_le_bytes());
        bytes.extend_from_slice(&r.hops.to_le_bytes());
        bytes.extend_from_slice(&r.zero_load.to_le_bytes());
    }
    for &(chan, frac) in log.utilization() {
        bytes.extend_from_slice(&chan.to_le_bytes());
        bytes.extend_from_slice(&frac.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// `(exec ticks, messages, fnv1a(pack_trace), netlog_digest)` of an
/// acquired workload.
fn fingerprint(spec: &RunSpec) -> (u64, usize, u32, u32) {
    let w = acquire(spec).unwrap();
    (w.exec_ticks, w.trace.len(), fnv1a(&pack_trace(&w.trace)), netlog_digest(&w.netlog))
}

#[test]
fn shared_memory_runs_match_golden_values() {
    // Each shared-memory app at 8 processors, tiny scale: once on the
    // default machine (mesh, recurrence engine, serial simulator) and once
    // on a flit-level torus advanced by two simulator shards.
    let golden = [
        (
            AppId::Fft1d,
            (38809, 4286, 0xf2cc7deb, 0x6cf85cb8),
            (32513, 4250, 0x533ed0c4, 0x7c67019c),
        ),
        (
            AppId::Is,
            (239029, 12971, 0x8ac22a20, 0x4b7cf4e0),
            (223222, 13000, 0xc11bd799, 0xa364ed28),
        ),
        (
            AppId::Cholesky,
            (123430, 6506, 0xe643bda4, 0xc77deafc),
            (110164, 6526, 0x21722bf7, 0x017a48d4),
        ),
        (
            AppId::Nbody,
            (31982, 2604, 0x07f535df, 0xfc429472),
            (24538, 2604, 0x6431bf69, 0x8af9a706),
        ),
        (
            AppId::Maxflow,
            (126811, 9724, 0xf21ebb8c, 0x834713da),
            (117853, 9822, 0x95c5f56a, 0x5a0554c0),
        ),
    ];
    for (app, recurrence, flit_torus) in golden {
        let spec = RunSpec::new(app, 8, Scale::Tiny, 42);
        assert_eq!(fingerprint(&spec), recurrence, "{app}: recurrence, mesh, serial");
        let sharded = RunSpec {
            engine: EngineKind::FlitLevel,
            sim_jobs: 2,
            ..spec.with_net(Topology::Torus, Routing::Dimension)
        };
        assert_eq!(fingerprint(&sharded), flit_torus, "{app}: flit, torus, 2 shards");
    }
}

#[test]
fn static_strategy_flit_runs_match_golden_values() {
    // The static strategy through the cycle-accurate flit engine: sp2
    // acquisition, then causal replay through `FlitLevel`'s closed loop.
    // Once on a serial mesh and once on a torus whose final drain runs on
    // two shards. Long messages make the engine skip steady worm
    // streaming, so these pin the skip end to end.
    let golden = [
        (
            AppId::Mg,
            8,
            Scale::Tiny,
            (2870922, 805, 0x473b2a64, 0xd3db56b5),
            (2870922, 805, 0x473b2a64, 0xac5d8657),
        ),
        (
            AppId::Allreduce,
            8,
            Scale::Small,
            (659347, 455, 0xff1bdec5, 0x82368c1a),
            (659347, 455, 0xff1bdec5, 0xc438abe0),
        ),
        (
            AppId::Fft3d,
            16,
            Scale::Small,
            (1710850, 1260, 0xb0753b13, 0x29598cf4),
            (1710850, 1260, 0xb0753b13, 0x1be03272),
        ),
        (
            AppId::Halo,
            8,
            Scale::Tiny,
            (256524, 113, 0xddcc77af, 0xb3dd760a),
            (256524, 113, 0xddcc77af, 0x37eab7ce),
        ),
    ];
    for (app, procs, scale, mesh, torus) in golden {
        let spec = RunSpec { engine: EngineKind::FlitLevel, ..RunSpec::new(app, procs, scale, 42) };
        assert_eq!(fingerprint(&spec), mesh, "{app}: flit, mesh, serial");
        let sharded = RunSpec { sim_jobs: 2, ..spec.with_net(Topology::Torus, Routing::Dimension) };
        assert_eq!(fingerprint(&sharded), torus, "{app}: flit, torus, 2 shards");
    }
}

#[test]
fn sp2_collectives_match_golden_values() {
    // Every collective of the sp2 runtime, rooted at 0 and at 2, on an odd
    // and a power-of-two rank count: `(exec ticks, messages,
    // fnv1a(pack_trace))` pins each message's clock, size and causal
    // dependency.
    let golden = [(5, (213928, 68, 0x3c1f3abe)), (8, (326501, 140, 0xf1d1939a))];
    for (nprocs, want) in golden {
        let out = run_mp(Sp2Config::new(nprocs), |mut r| async move {
            let me = r.rank() as f64;
            r.compute_us(3.0 * me);
            for root in [0, 2] {
                let data = if r.rank() == root { vec![me, 1.0, 2.0] } else { vec![] };
                let v = r.bcast(root, data.clone()).await;
                let w = r.bcast_tree(root, data).await;
                let _ = r.reduce_sum(root, &[me + v[0], w[1]]).await;
                let _ = r.reduce_sum_tree(root, &[me, v[2], w[0]]).await;
            }
            let _ = r.allreduce_sum(&[me; 4]).await;
            let chunks = (0..r.size()).map(|q| vec![me + q as f64; 1 + q % 3]).collect();
            let _ = r.alltoall(chunks).await;
            r.barrier().await;
        });
        let got = (out.exec_ticks, out.trace.len(), fnv1a(&pack_trace(&out.trace)));
        assert_eq!(got, want, "{nprocs} ranks");
    }
}

#[test]
fn shared_memory_runs_are_deterministic() {
    for &app in &[AppId::Is, AppId::Cholesky, AppId::Maxflow] {
        let a = acquire(&RunSpec::new(app, 4, Scale::Tiny, 42)).unwrap();
        let b = acquire(&RunSpec::new(app, 4, Scale::Tiny, 42)).unwrap();
        assert_eq!(a.exec_ticks, b.exec_ticks, "{app}: exec time differs");
        assert_eq!(a.trace.len(), b.trace.len(), "{app}: trace length differs");
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y, "{app}: trace event differs");
        }
        for (x, y) in a.netlog.records().iter().zip(b.netlog.records()) {
            assert_eq!(x, y, "{app}: network record differs");
        }
    }
}

#[test]
fn message_passing_runs_are_deterministic() {
    for &app in &[AppId::Fft3d, AppId::Mg] {
        let a = acquire(&RunSpec::new(app, 4, Scale::Tiny, 42)).unwrap();
        let b = acquire(&RunSpec::new(app, 4, Scale::Tiny, 42)).unwrap();
        assert_eq!(a.exec_ticks, b.exec_ticks, "{app}: exec time differs");
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y, "{app}: trace event differs");
        }
    }
}

#[test]
fn characterization_is_deterministic() {
    let w = acquire(&RunSpec::new(AppId::Is, 4, Scale::Tiny, 42)).unwrap();
    let s1 = characterize(&w, 1).unwrap();
    let s2 = characterize(&w, 1).unwrap();
    assert_eq!(s1.temporal.aggregate.dist, s2.temporal.aggregate.dist);
    assert_eq!(s1.volume.messages, s2.volume.messages);
    for (a, b) in s1.spatial.iter().zip(&s2.spatial) {
        match (a, b) {
            (Some(x), Some(y)) => assert_eq!(x.fit.model, y.fit.model),
            (None, None) => {}
            _ => panic!("spatial presence differs"),
        }
    }
}
