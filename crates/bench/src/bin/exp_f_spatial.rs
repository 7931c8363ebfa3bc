//! Experiment F-SPAT — the per-processor spatial distribution figures:
//! for each application, the fraction of messages processor p0 and p1 send
//! to every other processor (the paper plots exactly these bar charts),
//! with the fitted model's prediction alongside.

use commchar_bench::{run_suite, ExpOptions};
use commchar_core::report::table;
use commchar_stats::spatial::normalize;

fn main() {
    let opts = ExpOptions::from_env();
    println!(
        "F-SPAT: spatial message distribution for p0/p1 ({} processors, {:?})",
        opts.procs, opts.scale
    );
    for (w, sig) in run_suite(opts) {
        println!("\n--- {} ---", sig.name);
        let counts = w.trace.spatial_counts();
        for src in [0usize, 1] {
            let (Some(sp), Some(observed)) = (&sig.spatial[src], normalize(&counts[src], src))
            else {
                println!("p{src}: sent no messages");
                continue;
            };
            let shape = w.mesh.shape;
            let dist_fn = |a: usize, b: usize| {
                shape.hop_distance(commchar_mesh::NodeId(a as u16), commchar_mesh::NodeId(b as u16))
                    as f64
            };
            let pred = sp.model.predict(src, sig.nprocs, &dist_fn);
            let rows: Vec<Vec<String>> = (0..sig.nprocs)
                .map(|d| {
                    vec![format!("p{d}"), format!("{:.4}", observed[d]), format!("{:.4}", pred[d])]
                })
                .collect();
            println!("p{src} -> model {} (SSE {:.5})", sp.model, sp.sse);
            println!("{}", table(&["dest", "observed", "model"], &rows));
        }
    }
}
