//! Experiment A7 — the methodology's end product: feed the fitted
//! distributions into an *analytical* network model (per-channel M/G/1
//! queues over XY routes, the Adve–Vernon/Kim–Das style of analysis the
//! paper cites as the consumer of its characterization) and compare its
//! latency predictions against wormhole simulation — first on controlled
//! synthetic loads, then on the fitted application models.

use commchar_analytic::AnalyticModel;
use commchar_bench::{run_suite, to_msgs, ExpOptions};
use commchar_core::report::table;
use commchar_core::synthesize;
use commchar_mesh::{MeshConfig, OnlineWormhole};
use commchar_traffic::patterns::uniform_poisson;

fn simulate(model: &commchar_traffic::TrafficModel, mesh: MeshConfig, span: u64) -> f64 {
    let trace = model.generate(span, 31);
    let msgs = to_msgs(&trace);
    OnlineWormhole::new(mesh).simulate(&msgs).summary().mean_latency
}

fn main() {
    let opts = ExpOptions::from_env();
    println!("A7: analytic M/G/1 mesh model vs wormhole simulation\n");

    // Load sweep on uniform Poisson traffic: where does the analysis hold?
    let mesh = MeshConfig::for_nodes(16);
    let analytic = AnalyticModel::new(mesh);
    println!("load sweep (uniform Poisson, 16 nodes, 32B):");
    let mut rows = Vec::new();
    for rate in [0.0002, 0.0005, 0.001, 0.002, 0.004] {
        let model = uniform_poisson(16, rate, 32);
        let a = analytic.predict(&model);
        let s = simulate(&model, mesh, 120_000);
        rows.push(vec![
            format!("{rate}"),
            format!("{:.3}", a.max_channel_util),
            format!("{:.1}", a.mean_latency),
            format!("{s:.1}"),
            format!("{:.1}%", 100.0 * (a.mean_latency - s).abs() / s),
        ]);
    }
    println!("{}", table(&["rate/node", "max ρ", "analytic lat", "simulated lat", "error"], &rows));

    // Application models: predict each app's latency without simulating it.
    println!("\nfitted application models ({} processors, {:?}):", opts.procs, opts.scale);
    let mut rows = Vec::new();
    for (w, sig) in run_suite(opts) {
        let model = synthesize(&sig, w.mesh);
        let a = AnalyticModel::new(w.mesh).predict(&model);
        let s = simulate(&model, w.mesh, w.network.span().max(1));
        rows.push(vec![
            sig.name.clone(),
            format!("{:.3}", a.max_channel_util),
            if a.saturated { "saturated".into() } else { format!("{:.1}", a.mean_latency) },
            format!("{s:.1}"),
            if a.saturated {
                "-".into()
            } else {
                format!("{:.1}%", 100.0 * (a.mean_latency - s).abs() / s)
            },
        ]);
    }
    println!(
        "{}",
        table(&["application", "max ρ", "analytic lat", "simulated lat", "error"], &rows)
    );
    println!("(independent per-channel M/G/1 queues track simulation closely while the");
    println!(" bottleneck utilization stays moderate and drift apart as wormhole blocking");
    println!(" correlates channels near saturation — the standard regime of validity for");
    println!(" this class of model, now driven end-to-end by fitted application traffic)");
}
