//! Experiment T-SP2 — validation of the SP2 communication-software
//! overhead model: ping-pong measurements across message sizes are
//! regressed to recover `overhead(x) = a·x + b` and compared with the
//! paper's measured `a = 4.63e-2 µs/byte, b = 73.42 µs`.

use commchar_core::report::table;
use commchar_sp2::{run_mp, Sp2Config};
use commchar_stats::linreg::fit_line;

fn main() {
    println!("T-SP2: software overhead regression (ping-pong sweep)\n");
    let cfg = Sp2Config::new(2);
    let sizes: Vec<usize> = vec![8, 64, 256, 1024, 4096, 16384, 65536];
    let rounds = 10u64;

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &bytes in &sizes {
        let words = bytes / 8;
        let out = run_mp(cfg, |mut r| async move {
            let data = vec![1.0f64; words];
            for _ in 0..10 {
                if r.rank() == 0 {
                    r.send(1, &data, 1);
                    let _ = r.recv(1, 2).await;
                } else {
                    let d = r.recv(0, 1).await;
                    r.send(0, &d, 2);
                }
            }
        });
        // One-way transfer time per message, minus the wire component,
        // leaves the software overhead.
        let one_way_ticks = out.exec_ticks as f64 / (2 * rounds) as f64;
        let one_way_us = one_way_ticks / cfg.ticks_per_us;
        let wire_us = cfg.wire_ticks(bytes as u32) as f64 / cfg.ticks_per_us;
        let sw_us = one_way_us - wire_us;
        points.push((bytes as f64, sw_us));
        rows.push(vec![
            bytes.to_string(),
            format!("{one_way_us:.2}"),
            format!("{sw_us:.2}"),
            format!("{:.2}", cfg.software_overhead_us(bytes as u32)),
        ]);
    }
    println!("{}", table(&["bytes", "one-way µs", "sw overhead µs", "paper model µs"], &rows));

    let fit = fit_line(&points).expect("regression");
    println!(
        "regression: overhead(x) = {:.4e}·x + {:.2} µs  (R² = {:.6})",
        fit.slope, fit.intercept, fit.r2
    );
    println!("paper:      overhead(x) = 4.6300e-2·x + 73.42 µs");
    let slope_err = (fit.slope - 4.63e-2).abs() / 4.63e-2;
    let icept_err = (fit.intercept - 73.42).abs() / 73.42;
    println!(
        "relative error: slope {:.2}%, intercept {:.2}%",
        100.0 * slope_err,
        100.0 * icept_err
    );
}
