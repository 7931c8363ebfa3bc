//! Integration: the paper's headline qualitative findings must hold in
//! the reproduction.

use commchar::core::{acquire, characterize, RunSpec};
use commchar::stats::spatial::{normalize, SpatialModel};
use commchar_apps::{AppId, Scale};

/// IS has a favorite processor: the paper reports a bimodal-uniform
/// spatial distribution ("one processor gets the maximum number of
/// messages and the rest get equal numbers").
#[test]
fn is_has_favorite_processor_pattern() {
    let w = acquire(&RunSpec::new(AppId::Is, 8, Scale::Tiny, 42)).unwrap();
    let sig = characterize(&w, 1).unwrap();
    let bimodal = sig
        .spatial
        .iter()
        .flatten()
        .filter(|s| matches!(s.model, SpatialModel::BimodalUniform { .. }))
        .count();
    assert!(bimodal >= 4, "IS should classify mostly bimodal-uniform, got {bimodal}/8");
}

/// 1D-FFT's exchange phase spreads traffic: near-uniform spatial pattern.
#[test]
fn fft1d_is_spatially_spread() {
    let w = acquire(&RunSpec::new(AppId::Fft1d, 8, Scale::Tiny, 42)).unwrap();
    let counts = w.trace.spatial_counts();
    for (s, row) in counts.iter().enumerate() {
        let Some(observed) = normalize(row, s) else { continue };
        let peak = observed.iter().cloned().fold(0.0, f64::max);
        assert!(peak < 0.5, "a single destination dominates 1D-FFT: {peak}");
    }
}

/// 3D-FFT: p0 is the message-count favorite (it roots collectives) but
/// the volume distribution stays uniform — the paper's Figure 9.
#[test]
fn fft3d_count_favorite_volume_uniform() {
    let w = acquire(&RunSpec::new(AppId::Fft3d, 8, Scale::Tiny, 42)).unwrap();
    let n = w.nprocs;
    let counts = w.trace.spatial_counts();
    let bytes = w.trace.volume_bytes();
    let total_msgs: u64 = counts.iter().flatten().sum();
    let total_bytes: u64 = bytes.iter().flatten().sum();
    let m0: u64 = (0..n).map(|s| counts[s][0]).sum();
    let b0: u64 = (0..n).map(|s| bytes[s][0]).sum();
    let mf = m0 as f64 / total_msgs as f64;
    let bf = b0 as f64 / total_bytes as f64;
    let uniform = 1.0 / n as f64;
    assert!(mf > 1.4 * uniform, "p0 should be the count favorite ({mf:.3} vs {uniform:.3})");
    assert!(
        (bf - uniform).abs() < 0.35 * uniform,
        "volume should stay near-uniform ({bf:.3} vs {uniform:.3})"
    );
}

/// MG's ghost exchanges make its traffic local: mean hop distance should
/// be well below 3D-FFT's all-to-all.
#[test]
fn mg_is_more_local_than_fft3d() {
    let mg = acquire(&RunSpec::new(AppId::Mg, 8, Scale::Tiny, 42)).unwrap();
    let fft = acquire(&RunSpec::new(AppId::Fft3d, 8, Scale::Tiny, 42)).unwrap();
    let mg_hops = mg.network.summary().mean_hops;
    let fft_hops = fft.network.summary().mean_hops;
    assert!(
        mg_hops < fft_hops,
        "MG ({mg_hops:.2} hops) should be more local than 3D-FFT ({fft_hops:.2})"
    );
}

/// Shared-memory messages are bimodal in size (control vs cache block),
/// as protocol traffic always is.
#[test]
fn sm_lengths_are_bimodal() {
    let w = acquire(&RunSpec::new(AppId::Cholesky, 4, Scale::Tiny, 42)).unwrap();
    let mut lengths: Vec<u32> = w.trace.events().iter().map(|e| e.bytes).collect();
    lengths.sort_unstable();
    lengths.dedup();
    assert!(lengths.len() <= 3, "protocol traffic has few distinct sizes: {lengths:?}");
    assert!(lengths.contains(&8), "control messages (8B) expected");
    assert!(lengths.contains(&32), "data blocks (32B) expected");
}

/// The aggregate inter-arrival distribution of the shared-memory codes is
/// well described by an exponential-family fit, the paper's central
/// temporal result.
#[test]
fn sm_interarrivals_fit_exponential_family() {
    for &app in &[AppId::Fft1d, AppId::Is, AppId::Maxflow] {
        let w = acquire(&RunSpec::new(app, 8, Scale::Tiny, 42)).unwrap();
        let sig = characterize(&w, 1).unwrap();
        let fam = sig.temporal.aggregate.dist.family_name();
        assert!(
            matches!(
                fam,
                "exponential" | "hyperexponential" | "erlang" | "gamma" | "weibull" | "lognormal"
            ),
            "{app}: unexpected family {fam}"
        );
        assert!(sig.temporal.aggregate.r2 > 0.9, "{app}: R² = {}", sig.temporal.aggregate.r2);
    }
}
