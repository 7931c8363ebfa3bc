//! A network-design study driven by a characterized workload — the
//! methodology's intended downstream use: once an application's
//! communication is captured as a traffic model, candidate network designs
//! can be compared *without re-running the application*.
//!
//! Here: sweep channel width (flit size) and virtual channels for the
//! Cholesky workload's fitted model, on both network models.
//!
//! ```text
//! cargo run --release --example network_design
//! ```

use commchar::core::{acquire, characterize, synthesize, RunSpec};
use commchar::mesh::{FlitLevel, NetMessage, NodeId, OnlineWormhole};
use commchar_apps::{AppId, Scale};
use commchar_des::SimTime;

fn to_msgs(trace: &commchar::trace::CommTrace) -> Vec<NetMessage> {
    trace
        .events()
        .iter()
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: SimTime::from_ticks(e.t),
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Characterize once...
    let w = acquire(&RunSpec::new(AppId::Cholesky, 8, Scale::Small, 42))?;
    let sig = characterize(&w, 1)?;
    let model = synthesize(&sig, w.mesh);
    let span = w.network.span();
    let msgs = to_msgs(&model.generate(span, 7));
    println!(
        "workload: {} fitted as {} + {}\n",
        w.name,
        sig.temporal.aggregate.dist,
        commchar::core::report::spatial_consensus(&sig.spatial)
    );

    // ...then sweep designs using only the model.
    println!("{:<24} {:>14} {:>14}", "design", "mean latency", "p95 latency");
    println!("{}", "-".repeat(56));
    for flit_bytes in [1u32, 2, 4] {
        let cfg = w.mesh.with_flit_bytes(flit_bytes);
        let s = OnlineWormhole::new(cfg).simulate(&msgs).summary();
        println!(
            "{:<24} {:>14.1} {:>14.1}",
            format!("{}B channels", flit_bytes),
            s.mean_latency,
            s.p95_latency
        );
    }
    for vcs in [1usize, 2, 4] {
        let cfg = w.mesh.with_virtual_channels(vcs);
        let s = FlitLevel::new(cfg).simulate(&msgs).summary();
        println!(
            "{:<24} {:>14.1} {:>14.1}",
            format!("{} virtual channel(s)", vcs),
            s.mean_latency,
            s.p95_latency
        );
    }
    println!("\n(wider channels shrink every worm; virtual channels trade a little mean");
    println!(" latency for tail latency — decisions now possible without the application)");
    Ok(())
}
