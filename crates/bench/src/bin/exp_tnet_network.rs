//! Experiment T-NET — per-application network behaviour: mean latency,
//! contention (blocked time), hop count, throughput and the hottest
//! channels, as logged by the 2-D mesh wormhole simulator.

use commchar_bench::{run_suite, ExpOptions};
use commchar_core::report::table;

fn main() {
    let opts = ExpOptions::from_env();
    println!(
        "T-NET: network behaviour per application ({} processors, {:?})\n",
        opts.procs, opts.scale
    );
    let mut rows = Vec::new();
    let mut hot = Vec::new();
    let mut hists = Vec::new();
    for (w, sig) in run_suite(opts) {
        let hist: Vec<String> = w
            .network
            .latency_histogram(6)
            .into_iter()
            .map(|(bound, count)| format!("≤{bound}:{count}"))
            .collect();
        hists.push(vec![sig.name.clone(), hist.join("  ")]);
        let s = &sig.network;
        rows.push(vec![
            sig.name.clone(),
            format!("{}", s.messages),
            format!("{:.1}", s.mean_latency),
            format!("{:.1}", s.mean_blocked),
            format!("{:.2}", s.mean_hops),
            format!("{:.4}", s.throughput),
        ]);
        let mut util: Vec<(u32, f64)> = w.network.utilization().to_vec();
        util.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top: Vec<String> =
            util.iter().take(3).map(|(c, u)| format!("ch{c}:{:.1}%", 100.0 * u)).collect();
        hot.push(vec![sig.name.clone(), top.join("  ")]);
    }
    println!(
        "{}",
        table(
            &["application", "msgs", "mean latency", "mean blocked", "mean hops", "bytes/tick"],
            &rows
        )
    );
    println!("hottest channels:\n{}", table(&["application", "top-3 channel utilization"], &hot));
    println!("latency distributions (count per latency bin):");
    println!("{}", table(&["application", "histogram (≤bound:count)"], &hists));
}
