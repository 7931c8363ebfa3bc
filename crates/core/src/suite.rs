//! Parallel execution of the characterization suite.
//!
//! A suite is a matrix of cells — (application × processor count × scale ×
//! seed), each a [`RunSpec`](crate::RunSpec) that also carries its network,
//! engine and simulator shards — each of which runs a full acquire →
//! analyze → validate pipeline ([`acquire`] + [`characterize`] + a
//! synthetic-generation check). Cells are independent, so the [`SuiteRunner`] fans them out over the
//! workspace's shared work-claiming pool ([`commchar_pool::run_indexed`];
//! scoped threads, no dependencies, no unsafe), handing any spare worker
//! budget down to each cell's per-source spatial classification fan-out.
//!
//! Determinism: each cell is seeded and self-contained, and results are
//! written into per-cell slots, so the report lists cells in input order
//! regardless of worker count or completion order. Running with `--jobs 8`
//! produces a byte-identical report to `--jobs 1`; only wall-clock timing
//! (reported separately) differs.

use std::time::{Duration, Instant};

use commchar_apps::{AppId, Scale};

use crate::{acquire, characterize, synthesize, CommSignature, RunError};

/// One cell of the suite matrix: a full run description.
pub use crate::RunSpec as SuiteCell;

/// The full cross product of applications × processor counts × scales,
/// all at one seed, on the default network (mesh, dimension-order) and
/// engine (recurrence, serial simulator) — the standard suite matrix.
/// Retarget individual cells with [`SuiteCell::with_net`] to add
/// topology/routing contrast rows.
pub fn cell_matrix(apps: &[AppId], procs: &[usize], scales: &[Scale], seed: u64) -> Vec<SuiteCell> {
    let mut cells = Vec::with_capacity(apps.len() * procs.len() * scales.len());
    for &app in apps {
        for &p in procs {
            for &scale in scales {
                cells.push(SuiteCell::new(app, p, scale, seed));
            }
        }
    }
    cells
}

/// The outcome of one suite cell.
#[derive(Debug)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: SuiteCell,
    /// The full communication signature.
    pub signature: CommSignature,
    /// Messages in the acquired trace.
    pub messages: u64,
    /// Simulated execution time of the acquisition run.
    pub exec_ticks: u64,
    /// Synthetic-validation rate ratio: messages generated by the fitted
    /// model over the run's span, divided by the observed message count.
    /// Near 1.0 means the fitted temporal model reproduces the rate.
    pub synth_ratio: f64,
    /// Wall-clock time this cell took (acquire + analyze + validate).
    pub wall: Duration,
    /// Acquisition throughput: trace messages per wall-clock second.
    pub msgs_per_sec: f64,
}

/// A completed suite run: per-cell results in input order, plus timing.
#[derive(Debug)]
pub struct SuiteReport {
    /// One result per input cell, in input order.
    pub cells: Vec<CellResult>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time for the whole suite.
    pub wall: Duration,
}

impl SuiteReport {
    /// Total messages across all cells.
    pub fn total_messages(&self) -> u64 {
        self.cells.iter().map(|c| c.messages).sum()
    }

    /// Aggregate throughput: total messages over suite wall-clock.
    pub fn msgs_per_sec(&self) -> f64 {
        self.total_messages() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs suite cells across a bounded pool of scoped worker threads.
#[derive(Clone, Copy, Debug)]
pub struct SuiteRunner {
    jobs: usize,
}

impl SuiteRunner {
    /// Creates a runner with the given worker count; `0` means one worker
    /// per available hardware thread. Each cell carries its own engine
    /// and simulator shards.
    pub fn new(jobs: usize) -> SuiteRunner {
        SuiteRunner { jobs: commchar_pool::resolve_jobs(jobs) }
    }

    /// The worker count this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every cell and returns results in input order.
    ///
    /// Cells fan out over [`commchar_pool::run_indexed`]: a shared-cursor
    /// work-claiming pool whose results come back in input order, so the
    /// report's ordering — and therefore its rendered bytes — do not
    /// depend on the worker count.
    ///
    /// The two parallelism levels compose without oversubscription: with
    /// fewer cells than `--jobs` workers, the spare share of the budget
    /// goes to each cell's [`characterize`], which fits the aggregate and
    /// fans the per-source spatial classifications out
    /// (`fit_jobs = jobs / cell workers`); with enough cells to occupy
    /// every worker, each cell runs sequentially. The per-source
    /// inter-arrival fits are made by each cell's [`synthesize`], on the
    /// cell's own worker.
    ///
    /// # Errors
    ///
    /// The first failing cell's [`RunError`], in input order — the same
    /// error for any worker count (a failing cell fails the suite rather
    /// than silently dropping a row).
    pub fn run(&self, cells: Vec<SuiteCell>) -> Result<SuiteReport, RunError> {
        let started = Instant::now();
        let workers = self.jobs.min(cells.len()).max(1);
        let fit_jobs = (self.jobs / workers).max(1);
        let results =
            commchar_pool::run_indexed(workers, cells.len(), |i| run_cell(cells[i], fit_jobs));
        let cells = results.into_iter().collect::<Result<_, _>>()?;
        Ok(SuiteReport { cells, jobs: workers, wall: started.elapsed() })
    }
}

/// Runs one cell end to end: acquire, characterize (fanning the
/// per-source spatial classifications over `fit_jobs` threads), and
/// validate the fit by synthesizing (which fits each source) and counting
/// the synthetic traffic it generates over the run's span.
fn run_cell(cell: SuiteCell, fit_jobs: usize) -> Result<CellResult, RunError> {
    let started = Instant::now();
    let w = acquire(&cell)?;
    let signature = characterize(&w, fit_jobs)?;
    let (messages, span, mesh, exec_ticks) =
        (w.trace.len() as u64, w.network.span().max(1), w.mesh, w.exec_ticks);
    // The acquired trace goes before synthesis, so a cell holds at most
    // one trace; the synthetic stream is counted, never built.
    drop(w);
    let synth = synthesize(&signature, mesh).count(span, cell.seed);
    let synth_ratio = synth as f64 / messages.max(1) as f64;
    let wall = started.elapsed();
    Ok(CellResult {
        cell,
        messages,
        exec_ticks,
        synth_ratio,
        msgs_per_sec: messages as f64 / wall.as_secs_f64().max(1e-9),
        wall,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::suite_table;
    use commchar_mesh::{EngineKind, Routing, Topology};

    fn tiny_cells() -> Vec<SuiteCell> {
        cell_matrix(&[AppId::Is, AppId::Nbody, AppId::Fft3d], &[4], &[Scale::Tiny], 42)
    }

    #[test]
    fn matrix_is_the_cross_product() {
        let cells = cell_matrix(&[AppId::Is, AppId::Mg], &[4, 8], &[Scale::Tiny, Scale::Small], 7);
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().all(|c| c.seed == 7));
    }

    #[test]
    fn results_come_back_in_input_order() {
        let cells = tiny_cells();
        let report = SuiteRunner::new(2).run(cells.clone()).unwrap();
        assert_eq!(report.cells.len(), cells.len());
        for (r, c) in report.cells.iter().zip(&cells) {
            assert_eq!(r.cell, *c);
            assert!(r.messages > 0);
            assert!(r.msgs_per_sec > 0.0);
            assert!(r.synth_ratio > 0.0);
        }
        assert!(report.total_messages() > 0);
    }

    #[test]
    fn parallel_and_serial_reports_are_identical() {
        // The acceptance bar for the runner: the deterministic report is
        // byte-identical whatever the worker count.
        let serial = SuiteRunner::new(1).run(tiny_cells()).unwrap();
        let parallel = SuiteRunner::new(8).run(tiny_cells()).unwrap();
        assert_eq!(serial.jobs, 1);
        assert!(parallel.jobs > 1);
        assert_eq!(suite_table(&serial), suite_table(&parallel));
    }

    #[test]
    fn flit_engine_suite_runs_end_to_end() {
        // One dynamic-strategy and one static-strategy cell, both acquired
        // through the cycle-accurate engine.
        let cells = cell_matrix(&[AppId::Is, AppId::Fft3d], &[4], &[Scale::Tiny], 42)
            .into_iter()
            .map(|c| SuiteCell { engine: EngineKind::flit(), ..c })
            .collect();
        let report = SuiteRunner::new(2).run(cells).unwrap();
        assert_eq!(report.cells.len(), 2);
        for r in &report.cells {
            assert!(r.messages > 0);
            assert!(r.synth_ratio > 0.0);
        }
    }

    #[test]
    fn sharded_simulation_leaves_the_report_unchanged() {
        // `--sim-jobs` parallelizes inside each dynamic-strategy cell;
        // the rendered report must not depend on it.
        let serial = SuiteRunner::new(1).run(tiny_cells()).unwrap();
        let sharded = tiny_cells().into_iter().map(|c| SuiteCell { sim_jobs: 4, ..c }).collect();
        let sharded = SuiteRunner::new(1).run(sharded).unwrap();
        assert_eq!(suite_table(&serial), suite_table(&sharded));
    }

    #[test]
    fn net_contrast_cells_flow_into_the_table() {
        // Retargeted cells run the same workload on a different network
        // and surface as distinct topology/routing rows in the table.
        let base = cell_matrix(&[AppId::Allreduce], &[4], &[Scale::Tiny], 7);
        let mut cells = base.clone();
        cells.push(base[0].with_net(Topology::Torus, Routing::Dimension));
        cells.push(base[0].with_net(Topology::Torus, Routing::Adaptive));
        let report = SuiteRunner::new(2).run(cells).unwrap();
        assert_eq!(report.cells.len(), 3);
        let table = suite_table(&report);
        assert!(table.contains("torus"), "missing torus row:\n{table}");
        assert!(table.contains("adaptive"), "missing adaptive row:\n{table}");
        // Same trace either way (static acquisition is network-free).
        assert_eq!(report.cells[0].messages, report.cells[1].messages);
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert!(SuiteRunner::new(0).jobs() >= 1);
        assert_eq!(SuiteRunner::new(3).jobs(), 3);
    }
}
