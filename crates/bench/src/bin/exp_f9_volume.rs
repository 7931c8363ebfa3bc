//! Experiment F9 — the paper's Figure 9 for 3D-FFT: processor p0 is the
//! *message-count* favorite (it roots every broadcast/reduce), yet the
//! *volume* (bytes) distribution across processors is uniform because the
//! all-to-all transpose dominates the byte traffic. The experiment prints
//! both distributions per destination so the divergence is visible.

use commchar_apps::AppId;
use commchar_bench::{run_and_characterize, ExpOptions};
use commchar_core::report::table;

fn main() {
    let opts = ExpOptions::from_env();
    println!("F9: 3D-FFT message count vs volume distribution ({} ranks)\n", opts.procs);
    let (w, sig) = run_and_characterize(AppId::Fft3d, opts);
    let n = sig.nprocs;
    let counts = w.trace.spatial_counts();
    let bytes = w.trace.volume_bytes();
    let total_msgs: u64 = counts.iter().flatten().sum();
    let total_bytes: u64 = bytes.iter().flatten().sum();

    // Per-destination totals (fraction of all messages / bytes *received*).
    let rows: Vec<Vec<String>> = (0..n)
        .map(|d| {
            let m: u64 = (0..n).map(|s| counts[s][d]).sum();
            let b: u64 = (0..n).map(|s| bytes[s][d]).sum();
            vec![
                format!("p{d}"),
                format!("{:.4}", m as f64 / total_msgs as f64),
                format!("{:.4}", b as f64 / total_bytes as f64),
            ]
        })
        .collect();
    println!("{}", table(&["processor", "message fraction", "volume fraction"], &rows));

    let m0: u64 = (0..n).map(|s| counts[s][0]).sum();
    let b0: u64 = (0..n).map(|s| bytes[s][0]).sum();
    println!(
        "p0 receives {:.1}% of messages (uniform would be {:.1}%) but only {:.1}% of bytes —",
        100.0 * m0 as f64 / total_msgs as f64,
        100.0 / n as f64,
        100.0 * b0 as f64 / total_bytes as f64,
    );
    println!("the paper's count-favorite / volume-uniform split for 3D-FFT.");
}
