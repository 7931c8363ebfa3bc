//! Experiment V1 — the methodology's payoff claim: traffic generated from
//! the fitted distributions reproduces the application's network behaviour
//! far better than the literature's uniform-Poisson assumption. For each
//! application we replay (a) the original trace, (b) a synthetic trace
//! from the fitted model, and (c) a rate-matched uniform-Poisson stream
//! through the same mesh, and compare latency and contention.

use commchar_bench::{run_suite, to_msgs, ExpOptions};
use commchar_core::report::table;
use commchar_core::{synthesize, synthesize_phased};
use commchar_mesh::OnlineWormhole;
use commchar_trace::CommTrace;
use commchar_traffic::patterns::uniform_poisson;

fn replay_open_loop(
    trace: &CommTrace,
    mesh: commchar_mesh::MeshConfig,
) -> commchar_mesh::NetSummary {
    OnlineWormhole::new(mesh).simulate(&to_msgs(trace)).summary()
}

fn main() {
    let opts = ExpOptions::from_env();
    println!(
        "V1: original vs fitted-model vs uniform-Poisson traffic ({} processors, {:?})\n",
        opts.procs, opts.scale
    );
    let mut rows = Vec::new();
    for (w, sig) in run_suite(opts) {
        let span = w.network.span().max(1);
        let orig = replay_open_loop(&w.trace, w.mesh);

        let model = synthesize(&sig, w.mesh);
        let synth_trace = model.generate(span, 2024);
        let synth = replay_open_loop(&synth_trace, w.mesh);

        // Phase-aware model (8 windows): captures burst structure.
        let phased_trace = synthesize_phased(&w, &sig, 8, 2024);
        let phased = replay_open_loop(&phased_trace, w.mesh);

        // Rate- and size-matched uniform Poisson baseline.
        let rate = w.trace.len() as f64 / span as f64 / w.nprocs as f64;
        let uni_model =
            uniform_poisson(w.nprocs, rate.max(1e-9), sig.volume.mean_bytes.max(1.0) as u32);
        let uni = replay_open_loop(&uni_model.generate(span, 77), w.mesh);

        let err = |x: f64| {
            if orig.mean_latency == 0.0 {
                0.0
            } else {
                100.0 * (x - orig.mean_latency).abs() / orig.mean_latency
            }
        };
        rows.push(vec![
            sig.name.clone(),
            format!("{:.1}", orig.mean_latency),
            format!("{:.1}", synth.mean_latency),
            format!("{:.1}", phased.mean_latency),
            format!("{:.1}", uni.mean_latency),
            format!("{:.1}%", err(synth.mean_latency)),
            format!("{:.1}%", err(phased.mean_latency)),
            format!("{:.1}%", err(uni.mean_latency)),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "application",
                "original",
                "fitted",
                "phased",
                "uniform",
                "fit err",
                "phase err",
                "unif err"
            ],
            &rows
        )
    );
    println!("(mean latencies in ticks; err = |model − original| / original. The phased");
    println!(" model re-fits per execution window and recovers the rate envelope, which");
    println!(" helps the lock/queue-driven codes; Nbody stays hard for every open-loop");
    println!(" model because its contention comes from *cross-source synchronization* —");
    println!(" all processors bursting together after each barrier — which no");
    println!(" independent per-source renewal process can align. The paper raises the");
    println!(" same caveat about capturing temporal behaviour with distributions alone.)");
}
