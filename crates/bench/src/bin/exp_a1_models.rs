//! Experiment A1 (ablation) — cross-validation of the two network models:
//! the channel-recurrence OnlineWormhole against the cycle-accurate
//! FlitLevel router model, on synthetic patterns across load levels.

use commchar_bench::to_msgs;
use commchar_core::report::table;
use commchar_mesh::{FlitCycleReference, FlitLevel, MeshConfig, OnlineWormhole};
use commchar_traffic::patterns::{bit_complement, hotspot, transpose, uniform_poisson};

fn main() {
    println!("A1: OnlineWormhole vs FlitLevel model agreement\n");
    let n = 16;
    let mesh = MeshConfig::for_nodes(n);
    let mut rows = Vec::new();
    for (name, rate) in [("light", 0.0005), ("medium", 0.002), ("heavy", 0.006)] {
        for (pat, model) in [
            ("uniform", uniform_poisson(n, rate, 32)),
            ("transpose", transpose(n, rate, 32)),
            ("bit-compl", bit_complement(n, rate, 32)),
            ("hotspot", hotspot(n, 0, 0.3, rate, 32)),
        ] {
            let trace = model.generate(60_000, 5);
            let msgs = to_msgs(&trace);
            let online = OnlineWormhole::new(mesh).simulate(&msgs).summary();
            let flit_log = FlitLevel::new(mesh).simulate(&msgs);
            // The event-driven router must be cycle-identical to the
            // retained cycle-loop reference on every workload it reports.
            let ref_log = FlitCycleReference::new(mesh).simulate(&msgs);
            assert_eq!(
                flit_log.records(),
                ref_log.records(),
                "{pat}/{name}: event-driven router diverged from the cycle-loop reference"
            );
            let flit = flit_log.summary();
            let rel = if flit.mean_latency > 0.0 {
                100.0 * (online.mean_latency - flit.mean_latency).abs() / flit.mean_latency
            } else {
                0.0
            };
            rows.push(vec![
                pat.to_string(),
                name.to_string(),
                format!("{}", msgs.len()),
                format!("{:.1}", online.mean_latency),
                format!("{:.1}", flit.mean_latency),
                format!("{rel:.1}%"),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["pattern", "load", "msgs", "online latency", "flit latency", "relative diff"],
            &rows
        )
    );
    println!("(the fast recurrence model should track the cycle-accurate router closely at");
    println!(" light/medium load and remain rank-order correct when saturated)");
}
