//! Experiment A5 — the closed loop matters: the methodological core of
//! execution-driven simulation (the "two arrows" between the network
//! simulator and the event generator in the paper's Figure 1). Because
//! network latency feeds back into application progress, slowing the
//! network must *reshape* the generated traffic — stretch execution,
//! lower the message generation rate, and shift the fitted inter-arrival
//! distribution. A trace-driven (open-loop) run cannot show this: its
//! trace is fixed.

use commchar_apps::sm;
use commchar_core::report::table;
use commchar_mesh::NetTally;
use commchar_spasm::MachineConfig;
use commchar_stats::fit::fit_best;
use commchar_trace::profile::interarrival_aggregate;

fn main() {
    println!("A5: closed-loop network feedback on the generated traffic\n");
    let mut rows = Vec::new();
    for link_delay in [1u64, 4, 16] {
        let base = MachineConfig::new(8);
        let cfg = base.with_mesh(base.mesh.with_link_delay(link_delay));
        let out = sm::is::run_sized_with(cfg, 4096, 64, NetTally::new());
        let gaps = interarrival_aggregate(&out.trace);
        let fit = fit_best(&gaps).expect("fit");
        rows.push(vec![
            format!("{link_delay}x"),
            out.exec_ticks.to_string(),
            out.trace.len().to_string(),
            format!("{:.5}", out.trace.len() as f64 / out.exec_ticks as f64),
            format!("{}", fit.dist),
        ]);
    }
    println!(
        "{}",
        table(&["link delay", "exec cycles", "messages", "msgs/cycle", "inter-arrival fit"], &rows)
    );
    println!("(same program, same inputs: a slower network stretches execution and");
    println!(" dilates the inter-arrival distribution — feedback a static trace misses,");
    println!(" which is why the dynamic strategy exists)");
}
