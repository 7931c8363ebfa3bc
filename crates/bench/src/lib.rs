//! # commchar-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` §5 for the experiment index) plus shared helpers, and
//! `bench_*` binaries that time the substrate hot paths.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p commchar-bench --bin exp_t2_temporal
//! ```
//!
//! Every binary accepts `--procs <n>` and `--scale tiny|small|full`
//! (defaults: 8 processors, small scale).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit_reference;

use commchar_apps::{AppId, Scale};
use commchar_core::suite::{cell_matrix, SuiteReport, SuiteRunner};
use commchar_core::{acquire, characterize, CommSignature, RunSpec, Workload};
use commchar_des::SimTime;
use commchar_mesh::{NetMessage, NodeId};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Processor count.
    pub procs: usize,
    /// Problem scale.
    pub scale: Scale,
    /// Worker threads for suite-wide experiments (0 = one per hardware
    /// thread). Single-application experiments ignore this.
    pub jobs: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { procs: 8, scale: Scale::Small, jobs: 0 }
    }
}

impl ExpOptions {
    /// Parses `--procs N`, `--scale tiny|small|full` and `--jobs N` from
    /// `args`.
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments (these are developer tools).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut opts = ExpOptions::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--procs" => {
                    opts.procs = args
                        .next()
                        .expect("--procs needs a value")
                        .parse()
                        .expect("--procs needs an integer");
                }
                "--scale" => {
                    opts.scale = match args.next().expect("--scale needs a value").as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "full" => Scale::Full,
                        other => panic!("unknown scale {other:?}"),
                    };
                }
                "--jobs" => {
                    opts.jobs = args
                        .next()
                        .expect("--jobs needs a value")
                        .parse()
                        .expect("--jobs needs an integer");
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        opts
    }

    /// Parses from the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }
}

/// Acquires one application's workload on the default network and engine,
/// panicking on a bad processor count (these are developer tools).
pub fn workload(app: AppId, procs: usize, scale: Scale) -> Workload {
    acquire(&RunSpec::new(app, procs, scale, 42)).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs and characterizes one application, panicking on failure.
pub fn run_and_characterize(app: AppId, opts: ExpOptions) -> (Workload, CommSignature) {
    let w = workload(app, opts.procs, opts.scale);
    let sig = characterize(&w, 1).unwrap_or_else(|e| panic!("{e}"));
    (w, sig)
}

/// Runs the full suite at the given options, returning signatures in the
/// paper's presentation order.
///
/// Experiments that need the raw [`Workload`] (traces, network logs) use
/// this serial path; those that only need signatures and throughput
/// figures should prefer [`run_suite_report`], which fans the cells out
/// across `opts.jobs` worker threads.
pub fn run_suite(opts: ExpOptions) -> Vec<(Workload, CommSignature)> {
    AppId::all().iter().map(|&app| run_and_characterize(app, opts)).collect()
}

/// Runs the full suite through the parallel [`SuiteRunner`], returning the
/// deterministic [`SuiteReport`] (signatures in input order regardless of
/// worker interleaving, plus per-cell wall-clock and messages/sec),
/// panicking with the first failing cell's error.
pub fn run_suite_report(opts: ExpOptions, seed: u64) -> SuiteReport {
    let cells = cell_matrix(AppId::all(), &[opts.procs], &[opts.scale], seed);
    SuiteRunner::new(opts.jobs).run(cells).unwrap_or_else(|e| panic!("{e}"))
}

/// Short git revision of the tree a BENCH file was produced from, with a
/// `-dirty` suffix when tracked files differ from it (`"unknown"` outside
/// a git checkout), so a stale file names its source.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads of the host a BENCH file was produced on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Timing repetitions for one bench row: a full run keeps the best of
/// three everywhere, and a `--quick` run times a row once unless a floor
/// asserts on it — that row keeps the best of three, so one descheduled
/// run on a busy host cannot trip the floor.
pub fn timing_iters(quick: bool, asserted: bool) -> u32 {
    if quick && !asserted {
        1
    } else {
        3
    }
}

/// Best-of-`iters` wall-clock seconds for one closure.
pub fn time_best<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Long worms: `count` messages of 2–8 KB (1,000–4,000 two-byte flits)
/// between random distinct nodes, injected `gap` cycles apart on average,
/// so a few stream at once and sometimes share a link — the message shape
/// of a full-scale mg trace. Fixed by `seed` (a 64-bit LCG), so every run
/// and machine times the same schedule.
pub fn long_worms(seed: u64, nodes: usize, count: usize, gap: u64) -> Vec<NetMessage> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut below = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 16) % n
    };
    let mut t = 0u64;
    (0..count as u64)
        .map(|id| {
            let src = below(nodes as u64) as u16;
            let dst = (src + 1 + below(nodes as u64 - 1) as u16) % nodes as u16;
            t += below(2 * gap);
            NetMessage {
                id,
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: 2048 + below(6144) as u32,
                inject: SimTime::from_ticks(t),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_parsing() {
        let o =
            ExpOptions::parse(["--procs", "4", "--scale", "tiny"].iter().map(|s| s.to_string()));
        assert_eq!(o.procs, 4);
        assert_eq!(o.scale, Scale::Tiny);
        let d = ExpOptions::parse(std::iter::empty());
        assert_eq!(d.procs, 8);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_argument_rejected() {
        ExpOptions::parse(["--bogus"].iter().map(|s| s.to_string()));
    }

    #[test]
    fn jobs_option_parses() {
        let o = ExpOptions::parse(["--jobs", "3"].iter().map(|s| s.to_string()));
        assert_eq!(o.jobs, 3);
    }

    #[test]
    fn suite_report_covers_every_app_in_order() {
        let opts = ExpOptions { procs: 4, scale: Scale::Tiny, jobs: 2 };
        let report = run_suite_report(opts, 7);
        assert_eq!(report.cells.len(), AppId::all().len());
        for (cell, &app) in report.cells.iter().zip(AppId::all()) {
            assert_eq!(cell.cell.app, app);
            assert!(cell.messages > 0);
        }
        assert!(report.total_messages() > 0);
    }
}
