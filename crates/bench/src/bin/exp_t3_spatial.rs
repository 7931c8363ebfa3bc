//! Experiment T3 — the spatial-attribute classification table: per
//! application, the consensus spatial model across sources (uniform /
//! bimodal-uniform "favorite processor" / locality decay), with the mean
//! fit quality — the paper's central spatial finding.

use commchar_bench::{run_suite, ExpOptions};
use commchar_core::report::{spatial_consensus, table};
use commchar_stats::spatial::{normalize, SpatialFit};

fn main() {
    let opts = ExpOptions::from_env();
    println!(
        "T3: spatial distribution classification ({} processors, {:?})\n",
        opts.procs, opts.scale
    );
    let rows: Vec<Vec<String>> = run_suite(opts)
        .iter()
        .map(|(w, sig)| {
            let fits: Vec<&SpatialFit> = sig.spatial.iter().flatten().collect();
            let mean_sse = fits.iter().map(|s| s.sse).sum::<f64>() / fits.len().max(1) as f64;
            // Favourite concentration: mean max destination probability.
            let counts = w.trace.spatial_counts();
            let peaks: Vec<f64> = (0..sig.nprocs)
                .filter_map(|s| normalize(&counts[s], s))
                .map(|p| p.iter().cloned().fold(0.0, f64::max))
                .collect();
            let mean_peak = peaks.iter().sum::<f64>() / peaks.len().max(1) as f64;
            vec![
                sig.name.clone(),
                sig.class.name().to_string(),
                spatial_consensus(&sig.spatial),
                format!("{:.5}", mean_sse),
                format!("{:.3}", mean_peak),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["application", "class", "spatial model", "mean SSE", "mean peak P(dst)"], &rows)
    );
}
