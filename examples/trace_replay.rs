//! The static strategy in isolation: trace a message-passing run on the
//! SP2-modelled runtime, then feed it to the mesh simulator twice — once
//! causally (the paper's "intelligent" feeding) and once naively — to see
//! the trace-driven pitfall the causal replayer removes.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use commchar::mesh::{EngineKind, MeshConfig, NetTally};
use commchar::trace::replay::CausalReplayer;
use commchar_apps::{AppId, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Trace 3D-FFT at the application (MPI) level.
    let mesh = MeshConfig::for_nodes(8);
    let out = AppId::Fft3d.run_net(8, Scale::Small, EngineKind::Recurrence, 1, mesh);
    println!(
        "traced {} on the SP2 model: {} messages, {} ticks\n",
        out.name,
        out.trace.len(),
        out.exec_ticks
    );

    let rep = CausalReplayer::new(mesh);
    let causal_log = rep.try_replay(&out.trace, EngineKind::Recurrence)?;

    let causal = causal_log.summary();
    let naive = rep.replay_naive(&out.trace, NetTally::new()).summary();

    println!(
        "causal replay:  mean latency {:.1}, mean blocked {:.1}",
        causal.mean_latency, causal.mean_blocked
    );
    println!(
        "naive replay:   mean latency {:.1}, mean blocked {:.1}",
        naive.mean_latency, naive.mean_blocked
    );

    // Causality check: in the causal replay no dependent message is
    // injected before its dependency is delivered.
    let by_id: std::collections::HashMap<u64, &commchar::mesh::MsgRecord> =
        causal_log.records().iter().map(|r| (r.id, r)).collect();
    let mut violations = 0;
    for e in out.trace.events() {
        if let Some(dep) = e.depends_on {
            let rec = by_id[&e.id];
            let dep_rec = by_id[&dep];
            if rec.inject < dep_rec.delivered {
                violations += 1;
            }
        }
    }
    println!("\ncausality violations in the causal replay: {violations} (must be 0)");
    assert_eq!(violations, 0);
    Ok(())
}
