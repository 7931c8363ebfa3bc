//! Close the paper's loop analytically: characterize an application once,
//! then *compute* (not simulate) its network latency across a family of
//! candidate machines with the M/G/1 analytical model — and check the
//! prediction against simulation at the operating point.
//!
//! ```text
//! cargo run --release --example analytic_study
//! ```

use commchar::analytic::AnalyticModel;
use commchar::core::{acquire, characterize, synthesize, RunSpec};
use commchar::mesh::{NetMessage, NodeId, OnlineWormhole};
use commchar_apps::{AppId, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = acquire(&RunSpec::new(AppId::Maxflow, 8, Scale::Small, 42))?;
    let sig = characterize(&w, 1)?;
    let model = synthesize(&sig, w.mesh);
    println!(
        "characterized {}: {} + {}\n",
        w.name,
        sig.temporal.aggregate.dist,
        commchar::core::report::spatial_consensus(&sig.spatial)
    );

    // Analytic sweep over channel widths — no simulation needed.
    println!("{:<16} {:>10} {:>16}", "channel width", "max ρ", "analytic latency");
    println!("{}", "-".repeat(46));
    for flit_bytes in [1u32, 2, 4, 8] {
        let mesh = w.mesh.with_flit_bytes(flit_bytes);
        let report = AnalyticModel::new(mesh).predict(&model);
        let lat = if report.saturated {
            "saturated".to_string()
        } else {
            format!("{:.1}", report.mean_latency)
        };
        println!(
            "{:<16} {:>10.3} {:>16}",
            format!("{flit_bytes} B/flit"),
            report.max_channel_util,
            lat
        );
    }

    // Sanity-check the default design point against simulation.
    let analytic = AnalyticModel::new(w.mesh).predict(&model);
    let trace = model.generate(w.network.span().max(1), 3);
    let msgs: Vec<NetMessage> = trace
        .events()
        .iter()
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: commchar_des::SimTime::from_ticks(e.t),
        })
        .collect();
    let simulated = OnlineWormhole::new(w.mesh).simulate(&msgs).summary().mean_latency;
    println!(
        "\nat the default design point: analytic {:.1} vs simulated {:.1} ({:.1}% apart)",
        analytic.mean_latency,
        simulated,
        100.0 * (analytic.mean_latency - simulated).abs() / simulated
    );
    Ok(())
}
