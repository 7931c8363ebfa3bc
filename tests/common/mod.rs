//! Helpers shared by the integration tests.

use commchar::core::RunSpec;
use commchar::mesh::{MeshConfig, NetLog};
use commchar::trace::replay::CausalReplayer;
use commchar_apps::AppOutput;

/// `spec`'s acquisition through the record path: the application run with
/// a [`NetLog`] in its execution loop (dynamic strategy), or its trace
/// causally replayed into one (static strategy). These are the records
/// `acquire` folds into its summary without keeping them.
pub fn acquire_records(spec: &RunSpec) -> (AppOutput, NetLog) {
    let mesh = MeshConfig::for_nodes_net(spec.procs, spec.topology, spec.routing);
    let mut out = spec.app.run_net(spec.procs, spec.scale, spec.engine, spec.sim_jobs, mesh);
    let log = out.netlog.take().unwrap_or_else(|| {
        CausalReplayer::new(mesh)
            .try_replay_into(&out.trace, spec.engine, spec.sim_jobs, NetLog::new())
            .unwrap()
    });
    (out, log)
}
