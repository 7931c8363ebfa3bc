//! Experiment A3 (ablation) — the favorite-processor pattern is a
//! property of the *collective algorithm*, not only of the application:
//! the paper's 3D-FFT shows p0 as the message-count favorite because the
//! era's linear (root-direct) broadcasts/reductions concentrate traffic at
//! the root. Replacing them with binomial trees spreads the load. This
//! experiment runs the same collective schedule both ways and compares
//! the spatial signature.

use commchar_core::report::table;
use commchar_mesh::{EngineKind, MeshConfig, NetTally};
use commchar_sp2::{run_mp, Sp2Config};
use commchar_stats::spatial::{classify, normalize};
use commchar_trace::replay::CausalReplayer;

fn spatial_peak(nprocs: usize, tree: bool) -> (f64, String, f64) {
    let out = run_mp(Sp2Config::new(nprocs), |mut r| async move {
        for _ in 0..20 {
            let data = if r.rank() == 0 { vec![1.0; 16] } else { vec![] };
            let v = if tree { r.bcast_tree(0, data).await } else { r.bcast(0, data).await };
            let contrib = vec![v[0] + r.rank() as f64];
            let _ = if tree {
                r.reduce_sum_tree(0, &contrib).await
            } else {
                r.reduce_sum(0, &contrib).await
            };
        }
    });
    let mesh = MeshConfig::for_nodes(nprocs);
    let tally = CausalReplayer::new(mesh)
        .try_replay_into(&out.trace, EngineKind::Recurrence, 1, NetTally::new())
        .unwrap();
    let counts = out.trace.spatial_counts();
    // Fraction of all messages destined to p0, and the consensus model of
    // a representative non-root source.
    let total: u64 = counts.iter().flatten().sum();
    let to_p0: u64 = (0..nprocs).map(|s| counts[s][0]).sum();
    let shape = mesh.shape;
    let dist_fn = |a: usize, b: usize| {
        shape.hop_distance(commchar_mesh::NodeId(a as u16), commchar_mesh::NodeId(b as u16)) as f64
    };
    let src = nprocs - 1;
    let (model, lat) = match normalize(&counts[src], src) {
        Some(p) => (classify(&p, src, &dist_fn).model.to_string(), tally.summary().mean_latency),
        None => ("no traffic".to_string(), tally.summary().mean_latency),
    };
    (to_p0 as f64 / total as f64, model, lat)
}

fn main() {
    println!("A3: collective algorithm ablation (favorite-processor provenance)\n");
    let mut rows = Vec::new();
    for nprocs in [8usize, 16] {
        for (name, tree) in [("linear (MPL-era)", false), ("binomial tree", true)] {
            let (frac, model, lat) = spatial_peak(nprocs, tree);
            rows.push(vec![
                nprocs.to_string(),
                name.to_string(),
                format!("{:.3}", frac),
                format!("{:.3}", 1.0 / nprocs as f64),
                model,
                format!("{lat:.1}"),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &[
                "procs",
                "algorithm",
                "P(dst=p0)",
                "uniform share",
                "p(n-1) spatial model",
                "mean lat"
            ],
            &rows
        )
    );
    println!("(linear collectives concentrate traffic at the root — the paper's Figure 9");
    println!(" favorite; binomial trees redistribute it, changing the spatial signature)");
}
