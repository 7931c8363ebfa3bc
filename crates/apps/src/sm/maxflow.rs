//! Goldberg push–relabel maximum flow on the CC-NUMA simulator
//! (Anderson–Setubal-style parallelization, the paper's reference \[26\]).
//!
//! Active vertices live in a shared FIFO work queue under a queue lock;
//! pushes take the two endpoint vertex locks in ascending order;
//! relabeling takes the vertex's own lock. The dynamic queue and the
//! data-dependent discharge pattern give this kernel the most irregular
//! traffic of the suite.

use commchar_mesh::LogSink;
use commchar_spasm::{run as spasm_run, MachineConfig};

use crate::util::{gen_layered_graph, max_flow_reference};
use crate::{AppClass, AppOutput, Scale};

fn sizes(scale: Scale) -> (usize, usize) {
    // (layers, width)
    match scale {
        Scale::Tiny => (3, 3),
        Scale::Small => (4, 5),
        Scale::Full => (6, 8),
    }
}

const SEED: u64 = 4242;
const QLOCK: u32 = 1999;
const VLOCK: u32 = 2000;

/// Runs the kernel on a generated layered network, on an explicitly
/// configured machine. The run asserts the computed flow equals the
/// sequential Edmonds–Karp reference; `check` is that reference value.
/// Each network message is delivered into `sink`.
pub fn run_sized_with<S: LogSink + Send>(
    cfg: MachineConfig,
    layers: usize,
    width: usize,
    sink: S,
) -> AppOutput<S> {
    let nprocs = cfg.nprocs;
    let (n, edge_list) = gen_layered_graph(layers, width, SEED);
    let expected = max_flow_reference(n, &edge_list);

    let out = spasm_run(
        cfg,
        move |m| {
            let (n, edge_list) = gen_layered_graph(layers, width, SEED);
            // Residual edge pairs: logical edge k -> ids 2k (fwd), 2k+1 (bwd).
            let ne = edge_list.len();
            // Build adjacency.
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (k, &(u, v, _)) in edge_list.iter().enumerate() {
                adj[u].push(2 * k);
                adj[v].push(2 * k + 1);
            }
            let off = m.alloc(n + 1);
            let adj_r = m.alloc(adj.iter().map(|a| a.len()).sum());
            let eto = m.alloc(2 * ne);
            let res = m.alloc(2 * ne);
            let h = m.alloc(n);
            let ex = m.alloc(n);
            let queue = m.alloc(n + 4);
            let inq = m.alloc(n);
            // qmeta: [head, tail, in_flight, done]
            let qmeta = m.alloc(4);

            let mut pos = 0usize;
            for (u, list) in adj.iter().enumerate() {
                m.init(off, u, pos as u64);
                for &e in list {
                    m.init(adj_r, pos, e as u64);
                    pos += 1;
                }
            }
            m.init(off, n, pos as u64);
            for (k, &(u, v, c)) in edge_list.iter().enumerate() {
                m.init(eto, 2 * k, v as u64);
                m.init(eto, 2 * k + 1, u as u64);
                m.init(res, 2 * k, c);
                m.init(res, 2 * k + 1, 0);
            }
            // Preflow: saturate source edges; enqueue initial actives.
            m.init(h, 0, n as u64);
            let mut tail = 0u64;
            for (k, &(u, v, c)) in edge_list.iter().enumerate() {
                if u == 0 {
                    m.init(res, 2 * k, 0);
                    m.init(res, 2 * k + 1, c);
                    m.init(ex, v, c);
                    if v != n - 1 {
                        m.init(queue, tail as usize, v as u64);
                        m.init(inq, v, 1);
                        tail += 1;
                    }
                }
            }
            m.init(qmeta, 0, 0); // head
            m.init(qmeta, 1, tail); // tail
            m.init(qmeta, 2, 0); // in_flight
            m.init(qmeta, 3, 0); // done
            (off, adj_r, eto, res, h, ex, queue, inq, qmeta, n)
        },
        move |mut ctx, (off, adj_r, eto, res, h, ex, queue, inq, qmeta, n)| async move {
            let qcap = (n + 4) as u64;
            let sink = (n - 1) as u64;
            let hmax = 2 * n as u64 + 1;
            loop {
                // Acquire work.
                ctx.lock(QLOCK).await;
                if ctx.read(qmeta, 3).await == 1 {
                    ctx.unlock(QLOCK).await;
                    break;
                }
                let head = ctx.read(qmeta, 0).await;
                let tail = ctx.read(qmeta, 1).await;
                let u = if head < tail {
                    let u = ctx.read(queue, (head % qcap) as usize).await;
                    ctx.write(qmeta, 0, head + 1).await;
                    ctx.write(inq, u as usize, 0).await;
                    let fl = ctx.read(qmeta, 2).await;
                    ctx.write(qmeta, 2, fl + 1).await;
                    Some(u)
                } else if ctx.read(qmeta, 2).await == 0 {
                    ctx.write(qmeta, 3, 1).await;
                    None
                } else {
                    None
                };
                ctx.unlock(QLOCK).await;
                let Some(u) = u else {
                    // Either done (flag now set) or others still working.
                    ctx.compute(200);
                    continue;
                };

                discharge(&mut ctx, u as usize, off, adj_r, eto, res, h, ex, inq, queue, qmeta, n)
                    .await;

                // Re-queue if still active, and retire from in_flight.
                ctx.lock(QLOCK).await;
                let still = ctx.read(ex, u as usize).await > 0
                    && ctx.read(h, u as usize).await < hmax
                    && u != sink
                    && u != 0;
                if still && ctx.read(inq, u as usize).await == 0 {
                    let tail = ctx.read(qmeta, 1).await;
                    ctx.write(queue, (tail % qcap) as usize, u).await;
                    ctx.write(qmeta, 1, tail + 1).await;
                    ctx.write(inq, u as usize, 1).await;
                }
                let fl = ctx.read(qmeta, 2).await;
                ctx.write(qmeta, 2, fl - 1).await;
                ctx.unlock(QLOCK).await;
            }

            ctx.barrier(600).await;
            if ctx.proc_id() == 0 {
                let got = ctx.read(ex, n - 1).await;
                let (gn, gedges) = gen_layered_graph(layers, width, SEED);
                let expected = max_flow_reference(gn, &gedges);
                assert_eq!(got, expected, "push-relabel flow disagrees with reference");
            }
            ctx.barrier(601).await;
        },
        sink,
    );

    AppOutput {
        name: "maxflow",
        class: AppClass::SharedMemory,
        nprocs,
        trace: out.trace,
        netlog: Some(out.net),
        exec_ticks: out.exec_cycles,
        check: expected as f64,
    }
}

/// One discharge of vertex `u`: push along admissible edges, then relabel.
#[allow(clippy::too_many_arguments)]
async fn discharge(
    ctx: &mut commchar_spasm::Ctx,
    u: usize,
    off: commchar_spasm::Region,
    adj_r: commchar_spasm::Region,
    eto: commchar_spasm::Region,
    res: commchar_spasm::Region,
    h: commchar_spasm::Region,
    ex: commchar_spasm::Region,
    inq: commchar_spasm::Region,
    queue: commchar_spasm::Region,
    qmeta: commchar_spasm::Region,
    n: usize,
) {
    let qcap = (n + 4) as u64;
    let start = ctx.read(off, u).await as usize;
    let end = ctx.read(off, u + 1).await as usize;
    let hmax = 2 * n as u64 + 1;

    for round in 0..2 * n {
        let _ = round;
        // Push phase.
        let mut pushed_any = false;
        for ei in start..end {
            let e = ctx.read(adj_r, ei).await as usize;
            let v = ctx.read(eto, e).await as usize;
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            ctx.lock(VLOCK + a as u32).await;
            ctx.lock(VLOCK + b as u32).await;
            let r = ctx.read(res, e).await;
            let hu = ctx.read(h, u).await;
            let hv = ctx.read(h, v).await;
            let exu = ctx.read(ex, u).await;
            let mut became_active = false;
            if r > 0 && hu == hv + 1 && exu > 0 {
                let delta = exu.min(r);
                ctx.write(res, e, r - delta).await;
                let rb = ctx.read(res, e ^ 1).await;
                ctx.write(res, e ^ 1, rb + delta).await;
                ctx.write(ex, u, exu - delta).await;
                let exv = ctx.read(ex, v).await;
                ctx.write(ex, v, exv + delta).await;
                became_active = exv == 0 && v != 0 && v != n - 1;
                pushed_any = true;
            }
            ctx.unlock(VLOCK + b as u32).await;
            ctx.unlock(VLOCK + a as u32).await;
            if became_active {
                ctx.lock(QLOCK).await;
                if ctx.read(inq, v).await == 0 && ctx.read(h, v).await < hmax {
                    let tail = ctx.read(qmeta, 1).await;
                    ctx.write(queue, (tail % qcap) as usize, v as u64).await;
                    ctx.write(qmeta, 1, tail + 1).await;
                    ctx.write(inq, v, 1).await;
                }
                ctx.unlock(QLOCK).await;
            }
            ctx.compute(4);
        }
        if ctx.read(ex, u).await == 0 {
            return;
        }
        // Relabel phase.
        ctx.lock(VLOCK + u as u32).await;
        let mut min_h = u64::MAX;
        for ei in start..end {
            let e = ctx.read(adj_r, ei).await as usize;
            if ctx.read(res, e).await > 0 {
                let v = ctx.read(eto, e).await as usize;
                min_h = min_h.min(ctx.read(h, v).await);
            }
            ctx.compute(2);
        }
        let give_up = if min_h == u64::MAX {
            true
        } else {
            let new_h = min_h + 1;
            ctx.write(h, u, new_h).await;
            new_h >= hmax
        };
        ctx.unlock(VLOCK + u as u32).await;
        if give_up {
            return;
        }
        let _ = pushed_any;
    }
}

/// Runs at the default size for `scale` on a caller-configured machine
/// (e.g. with a different network engine or coherence protocol),
/// delivering each network message into `sink`.
pub fn run_cfg<S: LogSink + Send>(cfg: MachineConfig, scale: Scale, sink: S) -> AppOutput<S> {
    let (layers, width) = sizes(scale);
    run_sized_with(cfg, layers, width, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar_mesh::NetTally;

    #[test]
    fn maxflow_matches_reference() {
        let out = run_sized_with(MachineConfig::new(4), 3, 3, NetTally::new());
        assert!(out.check > 0.0);
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn maxflow_two_procs_small() {
        let out = run_sized_with(MachineConfig::new(2), 2, 2, NetTally::new());
        assert_eq!(out.nprocs, 2);
    }
}
