//! Quickstart: characterize one application's communication in ~10 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use commchar::core::{acquire, characterize, RunSpec};
use commchar_apps::{AppId, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Acquire: run Integer Sort on 8 simulated processors, with the
    //    2-D wormhole mesh in the loop.
    let workload = acquire(&RunSpec::new(AppId::Is, 8, Scale::Small, 42))?;
    println!(
        "ran {} on {} processors: {} messages over {} cycles",
        workload.name,
        workload.nprocs,
        workload.trace.len(),
        workload.exec_ticks
    );

    // 2. Analyze: fit the three communication attributes.
    let sig = characterize(&workload, 1)?;
    println!(
        "\ntemporal:  inter-arrival ~ {} (R² = {:.4})",
        sig.temporal.aggregate.dist, sig.temporal.aggregate.r2
    );
    println!("spatial:   {}", commchar::core::report::spatial_consensus(&sig.spatial));
    println!(
        "volume:    {} messages, mean {:.1} bytes",
        sig.volume.messages, sig.volume.mean_bytes
    );
    println!(
        "network:   mean latency {:.1} cycles ({:.1} blocked by contention)",
        sig.network.mean_latency, sig.network.mean_blocked
    );

    // 3. Synthesize: a reusable open-loop traffic model.
    let model = commchar::core::synthesize(&sig, workload.mesh);
    let synthetic = model.generate(workload.network.span(), 42);
    println!(
        "\nsynthetic trace from the fitted model: {} messages (original {})",
        synthetic.len(),
        workload.trace.len()
    );
    Ok(())
}
