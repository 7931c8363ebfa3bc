//! Experiment A2 (ablation) — virtual channels on the flit-accurate
//! router: the Kumar–Bhuyan question the paper cites (their ICS'96 study
//! evaluated VCs for CC-NUMA traffic with an execution-driven simulator).
//! We drive the router with application-derived and synthetic traffic at
//! increasing VC counts and report the latency relief.

use commchar_apps::AppId;
use commchar_bench::{run_and_characterize, to_msgs, ExpOptions};
use commchar_core::report::table;
use commchar_mesh::{FlitLevel, NetTally};
use commchar_traffic::patterns::hotspot;

fn main() {
    let opts = ExpOptions::from_env();
    println!("A2: virtual-channel ablation on the flit-accurate router\n");
    let mut rows = Vec::new();

    // Synthetic hotspot at saturating load — where head-of-line blocking
    // dominates — plus bursty long-message traffic.
    let hot = hotspot(opts.procs, 0, 0.6, 0.01, 128);
    let hot_msgs = to_msgs(&hot.generate(40_000, 3));

    // Application traffic: the densest shared-memory trace.
    let (w, _) = run_and_characterize(AppId::Fft1d, opts);
    let app_msgs = to_msgs(&w.trace);

    for (name, msgs) in [("hotspot(0.6) heavy", &hot_msgs), ("1d-fft trace", &app_msgs)] {
        for vcs in [1usize, 2, 4, 8] {
            let cfg = w.mesh.with_virtual_channels(vcs);
            // The cycle-accurate router folds each record into the summary
            // sink instead of buffering a NetLog.
            let mut model = FlitLevel::with_sink(cfg, NetTally::new());
            model.run(msgs);
            let tally = model.sink();
            rows.push(vec![
                name.to_string(),
                vcs.to_string(),
                format!("{:.1}", tally.latency().mean()),
                format!("{:.0}", tally.latency().max()),
                format!("{}", tally.span()),
            ]);
        }
    }
    println!("{}", table(&["workload", "VCs", "mean latency", "max latency", "span"], &rows));
    println!("(one flit per link cycle per physical channel: VCs share the wire, so they");
    println!(" raise *mean* latency slightly through interleaving while cutting worst-case");
    println!(" head-of-line blocking and total span under saturation — the mixed");
    println!(" result Kumar & Bhuyan report for CC-NUMA traffic)");
}
