//! Characterize the full seven-application suite and print the paper-style
//! summary: one line per application with its temporal fit and spatial
//! classification.
//!
//! ```text
//! cargo run --release --example characterize_suite
//! ```

use commchar::core::report::{spatial_consensus, table};
use commchar::core::{acquire, characterize, RunSpec};
use commchar_apps::{AppId, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let procs = 8;
    println!("communication characterization of the application suite ({procs} processors)\n");
    let mut rows = Vec::new();
    for &app in AppId::all() {
        let w = acquire(&RunSpec::new(app, procs, Scale::Small, 42))?;
        let sig = characterize(&w, 1)?;
        rows.push(vec![
            sig.name.clone(),
            sig.class.name().to_string(),
            format!("{}", sig.volume.messages),
            format!("{}", sig.temporal.aggregate.dist),
            format!("{:.3}", sig.temporal.aggregate.r2),
            spatial_consensus(&sig.spatial),
        ]);
    }
    println!(
        "{}",
        table(&["application", "class", "msgs", "inter-arrival fit", "R²", "spatial model"], &rows)
    );
    Ok(())
}
