//! Integration: simulations are bit-deterministic across runs, regardless
//! of host thread scheduling, and the shared-memory runs are pinned to
//! golden values so a rewrite of the simulator cannot move one event.

use commchar::core::{acquire, characterize, RunSpec};
use commchar::mesh::{EngineKind, Routing, Topology};
use commchar::sp2::{run_mp, Sp2Config};
use commchar::tracestore::{fnv1a, pack_netlog, pack_trace};
use commchar_apps::{AppId, Scale};

/// `(exec ticks, messages, fnv1a(pack_trace), fnv1a(pack_netlog))` of an
/// acquired workload.
fn fingerprint(spec: &RunSpec) -> (u64, usize, u32, u32) {
    let w = acquire(spec).unwrap();
    (w.exec_ticks, w.trace.len(), fnv1a(&pack_trace(&w.trace)), fnv1a(&pack_netlog(&w.netlog)))
}

#[test]
fn shared_memory_runs_match_golden_values() {
    // Each shared-memory app at 8 processors, tiny scale: once on the
    // default machine (mesh, recurrence engine, serial simulator) and once
    // on a flit-level torus advanced by two simulator shards.
    let golden = [
        (
            AppId::Fft1d,
            (38809, 4286, 0xf2cc7deb, 0x6a3157b3),
            (32513, 4250, 0x533ed0c4, 0x40b08db2),
        ),
        (
            AppId::Is,
            (239029, 12971, 0x8ac22a20, 0xab7a04c7),
            (223222, 13000, 0xc11bd799, 0x2a910d51),
        ),
        (
            AppId::Cholesky,
            (123430, 6506, 0xe643bda4, 0xa1145736),
            (110164, 6526, 0x21722bf7, 0x2bf9b3d5),
        ),
        (
            AppId::Nbody,
            (31982, 2604, 0x07f535df, 0x816ef37a),
            (24538, 2604, 0x6431bf69, 0x23b0d26b),
        ),
        (
            AppId::Maxflow,
            (126811, 9724, 0xf21ebb8c, 0x1e1132aa),
            (117853, 9822, 0x95c5f56a, 0xd3d8ac81),
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
            (2870922, 805, 0x473b2a64, 0x283f9263),
            (2870922, 805, 0x473b2a64, 0x3f5d6fcd),
        ),
        (
            AppId::Allreduce,
            8,
            Scale::Small,
            (659347, 455, 0xff1bdec5, 0x79c4001e),
            (659347, 455, 0xff1bdec5, 0x53720937),
        ),
        (
            AppId::Fft3d,
            16,
            Scale::Small,
            (1710850, 1260, 0xb0753b13, 0xd7a9821c),
            (1710850, 1260, 0xb0753b13, 0x7096e7b5),
        ),
        (
            AppId::Halo,
            8,
            Scale::Tiny,
            (256524, 113, 0xddcc77af, 0x587347a6),
            (256524, 113, 0xddcc77af, 0xa682ad0a),
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
