//! Integration: the full characterization pipeline over every application
//! at tiny scale.

mod common;

use commchar::core::{acquire, characterize, synthesize, RunSpec};
use commchar::stats::spatial::normalize;
use commchar_apps::{AppClass, AppId, Scale};

#[test]
fn every_application_characterizes() {
    for &app in AppId::all() {
        let spec = RunSpec::new(app, 4, Scale::Tiny, 42);
        let w = acquire(&spec).unwrap();
        assert!(!w.trace.is_empty(), "{app}: empty trace");
        let (_, log) = common::acquire_records(&spec);
        assert_eq!(
            w.trace.len(),
            log.records().len(),
            "{app}: every traced message must appear in the network log"
        );
        assert_eq!(w.network.messages(), log.records().len() as u64, "{app}: tally count");
        log.check_invariants(w.mesh.shape).unwrap_or_else(|e| panic!("{app}: {e}"));
        w.trace.check().unwrap_or_else(|e| panic!("{app}: {e}"));

        let sig = characterize(&w, 1).unwrap();
        assert_eq!(sig.nprocs, 4);
        assert!(sig.volume.messages > 0);
        assert!(
            sig.temporal.aggregate.r2 > 0.3,
            "{app}: aggregate temporal fit is useless (R² = {})",
            sig.temporal.aggregate.r2
        );
        // A source has a spatial fit exactly when it sent, and its
        // destination probabilities are a distribution.
        let counts = w.trace.spatial_counts();
        for (s, sp) in sig.spatial.iter().enumerate() {
            let observed = normalize(&counts[s], s);
            assert_eq!(sp.is_some(), observed.is_some(), "{app}: p{s} has a fit iff it sent");
            if let Some(p) = observed {
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{app}: p{s} not normalized");
            }
        }
        // Network numbers are sane.
        assert!(sig.network.mean_latency > 0.0, "{app}: zero latency");
        assert!(sig.network.mean_hops >= 1.0, "{app}: hops below 1");
    }
}

#[test]
fn strategies_match_their_classes() {
    let sm = acquire(&RunSpec::new(AppId::Fft1d, 4, Scale::Tiny, 42)).unwrap();
    assert_eq!(sm.class, AppClass::SharedMemory);
    let mp = acquire(&RunSpec::new(AppId::Mg, 4, Scale::Tiny, 42)).unwrap();
    assert_eq!(mp.class, AppClass::MessagePassing);
}

#[test]
fn synthesis_round_trip_all_apps() {
    for &app in AppId::all() {
        let w = acquire(&RunSpec::new(app, 4, Scale::Tiny, 42)).unwrap();
        let sig = characterize(&w, 1).unwrap();
        let model = synthesize(&sig, w.mesh);
        let span = w.network.span().max(1000);
        let synth = model.generate(span, 3);
        assert!(!synth.is_empty(), "{app}: fitted model generated nothing");
        synth.check().unwrap();
        // The synthetic mean length should be close to the observed mean
        // (lengths are drawn from the empirical distribution).
        let obs = sig.volume.mean_bytes;
        let got: f64 =
            synth.events().iter().map(|e| e.bytes as f64).sum::<f64>() / synth.len() as f64;
        assert!(
            (got - obs).abs() / obs < 0.35,
            "{app}: synthetic mean length {got} vs observed {obs}"
        );
    }
}

#[test]
fn scaling_processors_scales_traffic() {
    let w4 = acquire(&RunSpec::new(AppId::Nbody, 4, Scale::Tiny, 42)).unwrap();
    let w8 = acquire(&RunSpec::new(AppId::Nbody, 8, Scale::Tiny, 42)).unwrap();
    // More processors, same problem: more cross-processor traffic.
    assert!(
        w8.trace.len() > w4.trace.len(),
        "8p should communicate more than 4p ({} vs {})",
        w8.trace.len(),
        w4.trace.len()
    );
}
