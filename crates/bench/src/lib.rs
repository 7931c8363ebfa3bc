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

use std::fmt::Write as _;

use commchar_apps::{AppId, Scale};
use commchar_core::suite::{cell_matrix, SuiteReport, SuiteRunner};
use commchar_core::{acquire, characterize, CommSignature, RunSpec, Workload};
use commchar_des::SimTime;
use commchar_mesh::{NetMessage, NodeId};
use commchar_trace::{CommEvent, CommTrace};

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

/// A trace's events as network messages injected at their trace times:
/// the open-loop schedule the experiments replay.
pub fn to_msgs(trace: &CommTrace) -> Vec<NetMessage> {
    let msg = |e: &CommEvent| NetMessage {
        id: e.id,
        src: NodeId(e.src),
        dst: NodeId(e.dst),
        bytes: e.bytes,
        inject: SimTime::from_ticks(e.t),
    };
    trace.events().iter().map(msg).collect()
}

/// Deterministic 64-bit LCG that draws every bench workload, so a seed
/// fixes the same workload on every run and machine.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// The next draw, reduced to `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 16) % n
    }

    /// A source and a destination among `nodes`, drawn in that order; a
    /// destination drawn equal to the source moves to the next node.
    pub fn pair(&mut self, nodes: usize) -> (u16, u16) {
        let src = self.below(nodes as u64) as u16;
        let dst = self.below(nodes as u64) as u16;
        (src, if dst == src { (dst + 1) % nodes as u16 } else { dst })
    }
}

/// Short git revision of the tree a BENCH file was produced from, with a
/// `-dirty` suffix when tracked files differ from it (`"unknown"` outside
/// a git checkout), so a stale file names its source. A file written
/// before its own commit names the parent as `<rev>-dirty`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads of the host a BENCH file was produced on.
fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
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

/// Uniform random traffic: `count` messages of 1–`max_bytes` bytes
/// between random distinct nodes, injected up to `spread` cycles apart in
/// nondecreasing order — the schedule shape every closed-loop driver
/// produces.
pub fn uniform(
    seed: u64,
    nodes: usize,
    count: usize,
    spread: u64,
    max_bytes: u64,
) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut t = 0u64;
    let mut msgs = Vec::with_capacity(count);
    for id in 0..count as u64 {
        let (src, dst) = rng.pair(nodes);
        t += rng.below(spread);
        msgs.push(NetMessage {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes: 1 + rng.below(max_bytes) as u32,
            inject: SimTime::from_ticks(t),
        });
    }
    msgs
}

/// Long worms: `count` messages of 2–8 KB (1,000–4,000 two-byte flits)
/// between random distinct nodes, injected `gap` cycles apart on average,
/// so a few stream at once and sometimes share a link — the message shape
/// of a full-scale mg trace. Fixed by `seed` through [`Lcg`], so every run
/// and machine times the same schedule.
pub fn long_worms(seed: u64, nodes: usize, count: usize, gap: u64) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut t = 0u64;
    (0..count as u64)
        .map(|id| {
            let src = rng.below(nodes as u64) as u16;
            let dst = (src + 1 + rng.below(nodes as u64 - 1) as u16) % nodes as u16;
            t += rng.below(2 * gap);
            NetMessage {
                id,
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: 2048 + rng.below(6144) as u32,
                inject: SimTime::from_ticks(t),
            }
        })
        .collect()
}

/// Which side of its bound a [`Floor`]'s measurement must stay on.
#[derive(Clone, Copy, Debug)]
enum Direction {
    /// At least the bound: a rate, a speedup, a size ratio.
    AtLeast,
    /// At most the bound: an overhead, a memory ceiling.
    AtMost,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::AtLeast => "at_least",
            Direction::AtMost => "at_most",
        }
    }
}

/// One acceptance floor of a bench: the measurement it bounds, the bound
/// and its direction, and the host cores it needs. On a host with fewer
/// cores the floor is recorded but not asserted: a parallel speedup
/// there measures the scheduler, not the code.
#[derive(Clone, Copy, Debug)]
pub struct Floor {
    /// The measurement, named by the BENCH key it is recorded under
    /// (`"8x8_contention.speedup"`).
    name: &'static str,
    bound: f64,
    direction: Direction,
    /// Host cores the floor needs to be asserted.
    min_cores: usize,
}

impl Floor {
    /// A floor the measurement must reach, asserted on any host.
    pub const fn at_least(name: &'static str, bound: f64) -> Self {
        Floor { name, bound, direction: Direction::AtLeast, min_cores: 1 }
    }

    /// A ceiling the measurement must not pass, asserted on any host.
    pub const fn at_most(name: &'static str, bound: f64) -> Self {
        Floor { name, bound, direction: Direction::AtMost, min_cores: 1 }
    }

    /// The same floor, asserted only on hosts with at least `min_cores`
    /// cores.
    pub const fn needs_cores(self, min_cores: usize) -> Self {
        Floor { min_cores, ..self }
    }

    fn holds(&self, measured: f64) -> bool {
        match self.direction {
            Direction::AtLeast => measured >= self.bound,
            Direction::AtMost => measured <= self.bound,
        }
    }
}

/// A floor as one run recorded it.
#[derive(Clone, Debug)]
struct Checked {
    floor: Floor,
    measured: Option<f64>,
    skip_reason: Option<String>,
}

/// `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number to at most three decimals (`null` when it is not
/// finite): the precision of a floor and of its measurement.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        ((x * 1e3).round() / 1e3).to_string()
    } else {
        "null".to_string()
    }
}

/// One JSON object of a BENCH file: its keys in the order they were
/// added, each value rendered as it is added.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a string.
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        self.0.push((key, json_str(value)));
        self
    }

    /// Adds an integer.
    pub fn int(mut self, key: &'static str, value: u64) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// Adds a number printed with `decimals` places (`null` when it is
    /// not finite).
    pub fn num(mut self, key: &'static str, value: f64, decimals: usize) -> Self {
        let v = if value.is_finite() { format!("{value:.decimals$}") } else { "null".into() };
        self.0.push((key, v));
        self
    }

    /// Adds a nested object, rendered on one line.
    pub fn obj(mut self, key: &'static str, value: &Obj) -> Self {
        self.0.push((key, value.render()));
        self
    }

    fn render(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A list of objects, one per line.
fn json_rows(rows: impl IntoIterator<Item = Obj>) -> String {
    let rows: Vec<String> = rows.into_iter().map(|r| format!("    {}", r.render())).collect();
    if rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// One bench run and the `BENCH_*.json` file it writes: the shared header
/// (`bench`, `mode`, `host_cores`, `git_rev`), the bench's own fields and
/// rows, then a `floors` list with every [`Floor`] the run checked. Each
/// floor records its `name`, `measured` value, `direction`, `floor`
/// bound, whether it was asserted (`floor_asserted`) and, if not, why
/// (`floor_skip_reason`). [`finish`](Self::finish) asserts the floors
/// only after the file is written, so a failing floor never loses the
/// numbers.
#[derive(Debug)]
pub struct Bench {
    name: &'static str,
    quick: bool,
    host_cores: usize,
    body: Obj,
    floors: Vec<Checked>,
}

impl Bench {
    /// The bench `name` as this process runs it: `--quick` read from its
    /// arguments, on this host's cores.
    pub fn from_env(name: &'static str) -> Self {
        Bench::new(name, std::env::args().any(|a| a == "--quick"), host_cores())
    }

    /// The bench `name` in quick or full mode on a host with `host_cores`
    /// hardware threads.
    pub fn new(name: &'static str, quick: bool, host_cores: usize) -> Self {
        Bench { name, quick, host_cores, body: Obj::new(), floors: Vec::new() }
    }

    /// Whether this is a `--quick` run (the `scripts/check.sh
    /// --bench-smoke` mode).
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Hardware threads of the host.
    pub fn host_cores(&self) -> usize {
        self.host_cores
    }

    /// Why `floor` is recorded but not asserted on this host, if it is not.
    fn skip_reason(&self, floor: &Floor) -> Option<String> {
        (self.host_cores < floor.min_cores)
            .then(|| format!("host_cores {} < {}", self.host_cores, floor.min_cores))
    }

    /// Timing repetitions for a measurement that `floors` guard (none for
    /// an unguarded one): a full run keeps the best of three everywhere,
    /// and a quick run times once unless one of `floors` is asserted on
    /// this host. Then it keeps the best of three too, so one descheduled
    /// run on a busy host cannot trip the floor.
    pub fn iters(&self, floors: &[Floor]) -> u32 {
        let asserted = floors.iter().any(|f| self.skip_reason(f).is_none());
        if self.quick && !asserted {
            1
        } else {
            3
        }
    }

    /// Adds top-level fields, after the header and any added before.
    pub fn fields(&mut self, fields: Obj) {
        self.body.0.extend(fields.0);
    }

    /// Adds a top-level list of rows, one object per line.
    pub fn rows(&mut self, key: &'static str, rows: impl IntoIterator<Item = Obj>) {
        self.body.0.push((key, json_rows(rows)));
    }

    /// Records `floor` with the value measured against it.
    pub fn check(&mut self, floor: &Floor, measured: f64) {
        let skip_reason = self.skip_reason(floor);
        self.floors.push(Checked { floor: *floor, measured: Some(measured), skip_reason });
    }

    /// Records `floor` as not measured on this host, for `reason`.
    pub fn unmeasured(&mut self, floor: &Floor, reason: &str) {
        let skip_reason = Some(reason.to_string());
        self.floors.push(Checked { floor: *floor, measured: None, skip_reason });
    }

    /// The file's text, naming `git_rev` as its source.
    fn render(&self, git_rev: &str) -> String {
        let mode = if self.quick { "quick" } else { "full" };
        let mut top = Obj::new()
            .str("bench", self.name)
            .str("mode", mode)
            .int("host_cores", self.host_cores as u64)
            .str("git_rev", git_rev);
        top.0.extend(self.body.0.iter().cloned());
        let floors = self.floors.iter().map(|c| {
            let text = |s: Option<&str>| s.map_or_else(|| "null".to_string(), json_str);
            Obj(vec![
                ("name", json_str(c.floor.name)),
                ("measured", c.measured.map_or_else(|| "null".to_string(), json_num)),
                ("direction", json_str(c.floor.direction.name())),
                ("floor", json_num(c.floor.bound)),
                ("floor_asserted", c.skip_reason.is_none().to_string()),
                ("floor_skip_reason", text(c.skip_reason.as_deref())),
            ])
        });
        top.0.push(("floors", json_rows(floors)));
        let lines: Vec<String> =
            top.0.iter().map(|(k, v)| format!("  {}: {v}", json_str(k))).collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Writes the file to `path`, then asserts every floor this host can
    /// assert.
    ///
    /// # Panics
    ///
    /// If the file cannot be written, or, once it is, in one message
    /// naming every asserted floor that failed.
    pub fn finish(self, path: &str) {
        std::fs::write(path, self.render(&git_rev()))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
        let mut failed = Vec::new();
        for c in &self.floors {
            let f = &c.floor;
            match (&c.skip_reason, c.measured) {
                (Some(reason), _) => println!("floor {} not asserted: {reason}", f.name),
                (None, Some(m)) if !f.holds(m) => failed.push(format!(
                    "{} = {} (floor: {} {})",
                    f.name,
                    json_num(m),
                    f.direction.name(),
                    json_num(f.bound)
                )),
                _ => {}
            }
        }
        assert!(failed.is_empty(), "{} failed floor(s): {}", failed.len(), failed.join("; "));
    }
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
    fn floors_decide_timing_iters() {
        let quick = Bench::new("t", true, 2);
        assert_eq!(quick.iters(&[]), 1);
        assert_eq!(quick.iters(&[Floor::at_least("x", 1.0).needs_cores(4)]), 1);
        assert_eq!(quick.iters(&[Floor::at_most("x", 1.0)]), 3);
        assert_eq!(Bench::new("t", false, 2).iters(&[]), 3);
    }

    /// Failing floors still write the file, after which one panic names
    /// each asserted floor that failed, and no other.
    #[test]
    fn failed_floors_are_named_after_the_file_is_written() {
        let path =
            std::env::temp_dir().join(format!("commchar-floors-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp dir").to_string();
        let mut bench = Bench::new("floor_test", true, 2);
        bench.rows("workloads", [Obj::new().str("name", "a\"b").num("speedup", 1.234, 2)]);
        bench.check(&Floor::at_least("a.speedup", 5.0), 1.234);
        bench.check(&Floor::at_most("a.overhead", 3.0), 3.5);
        bench.check(&Floor::at_least("a.rate", 1.0), 2.0);
        bench.check(&Floor::at_least("a.parallel", 2.0).needs_cores(4), 0.5);
        bench.unmeasured(&Floor::at_most("a.rss", 1.0), "no VmHWM");
        let finish = std::panic::AssertUnwindSafe(|| bench.finish(&path));
        let panic = std::panic::catch_unwind(finish).expect_err("two floors failed");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        let text = std::fs::read_to_string(&path).expect("the file was written first");
        let _ = std::fs::remove_file(&path);
        assert!(msg.starts_with("2 failed floor(s): "), "{msg}");
        assert!(msg.contains("a.speedup = 1.234 (floor: at_least 5)"), "{msg}");
        assert!(msg.contains("a.overhead = 3.5 (floor: at_most 3)"), "{msg}");
        assert!(!msg.contains("a.rate") && !msg.contains("a.parallel"), "{msg}");
        let keys: Vec<&str> =
            text.lines().filter_map(|l| l.strip_prefix("  \"")?.split('"').next()).collect();
        assert_eq!(keys, ["bench", "mode", "host_cores", "git_rev", "workloads", "floors"]);
        for row in [
            r#"{"name": "a\"b", "speedup": 1.23}"#,
            r#"{"name": "a.speedup", "measured": 1.234, "direction": "at_least", "floor": 5, "floor_asserted": true, "floor_skip_reason": null}"#,
            r#"{"name": "a.parallel", "measured": 0.5, "direction": "at_least", "floor": 2, "floor_asserted": false, "floor_skip_reason": "host_cores 2 < 4"}"#,
            r#"{"name": "a.rss", "measured": null, "direction": "at_most", "floor": 1, "floor_asserted": false, "floor_skip_reason": "no VmHWM"}"#,
        ] {
            assert!(text.contains(row), "{row} missing from:\n{text}");
        }
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
