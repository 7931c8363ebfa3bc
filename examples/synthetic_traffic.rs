//! Use a fitted communication signature to drive a network study: compare
//! mesh latency under (a) the application's own trace, (b) the fitted
//! model's synthetic traffic, and (c) the classic uniform-Poisson
//! assumption — the paper's motivating comparison.
//!
//! ```text
//! cargo run --release --example synthetic_traffic
//! ```

use commchar::core::{acquire, characterize, synthesize, RunSpec};
use commchar::mesh::{NetMessage, NodeId, OnlineWormhole};
use commchar::traffic::patterns::uniform_poisson;
use commchar_apps::{AppId, Scale};
use commchar_des::SimTime;

fn replay(trace: &commchar::trace::CommTrace, mesh: commchar::mesh::MeshConfig) -> f64 {
    let msgs: Vec<NetMessage> = trace
        .events()
        .iter()
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: SimTime::from_ticks(e.t),
        })
        .collect();
    OnlineWormhole::new(mesh).simulate(&msgs).summary().mean_latency
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = AppId::Cholesky;
    let w = acquire(&RunSpec::new(app, 8, Scale::Small, 42))?;
    let sig = characterize(&w, 1)?;
    let span = w.network.span().max(1);

    let original = replay(&w.trace, w.mesh);

    let fitted = synthesize(&sig, w.mesh);
    let model_lat = replay(&fitted.generate(span, 1), w.mesh);

    let rate = w.trace.len() as f64 / span as f64 / w.nprocs as f64;
    let uniform = uniform_poisson(w.nprocs, rate, sig.volume.mean_bytes as u32);
    let uniform_lat = replay(&uniform.generate(span, 2), w.mesh);

    println!("{} on an 8-node mesh:", w.name);
    println!("  original trace          mean latency {original:>8.1} cycles");
    println!("  fitted-model traffic    mean latency {model_lat:>8.1} cycles");
    println!("  uniform-Poisson traffic mean latency {uniform_lat:>8.1} cycles");
    let em = 100.0 * (model_lat - original).abs() / original;
    let eu = 100.0 * (uniform_lat - original).abs() / original;
    println!("\nfitted model error {em:.1}% vs uniform assumption error {eu:.1}% —");
    println!("the characterized workload is the realistic ICN driver the paper argues for.");
    Ok(())
}
