//! Integration: simulations are bit-deterministic across runs, regardless
//! of host thread scheduling.

use commchar::core::{acquire, characterize, RunSpec};
use commchar_apps::{AppId, Scale};

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
