//! The four workloads. Each has a set-up (inputs and references, repeated
//! and timed), an end-to-end pass through the `commchar` CLI, and checks
//! on every pass's output; the traced twin of each pass is in
//! [`crate::traced`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use commchar::apps::AppId;
use commchar::core::analyze::try_analyze_trace;
use commchar::core::report::analysis_report;
use commchar::mesh::MeshConfig;
use commchar::serve::{ServeClient, ServeError};
use commchar::trace::{CommEvent, CommTrace};
use commchar::tracestore::{encode_event_block, load_trace};

use crate::json::Json;
use crate::proc::{self, digest, Outcome, Pin};
use crate::Tally;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `commchar suite` over every application at 16 processors.
    Suite,
    /// Static strategy replayed through the flit engine.
    FlitReplay,
    /// Pack a large trace, then analyze it out-of-core.
    TraceStream,
    /// Sessions streamed through the characterization server.
    ServeMix,
}

impl Kind {
    /// Every workload, in the order a full run goes through them.
    pub const ALL: [Kind; 4] = [Kind::Suite, Kind::FlitReplay, Kind::TraceStream, Kind::ServeMix];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Suite => "suite",
            Kind::FlitReplay => "flit-replay",
            Kind::TraceStream => "trace-stream",
            Kind::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// CPUs the workload's processes may use: one (pinned, because the
    /// simulators' thread handoffs are noisy when they migrate) or two.
    pub fn cpus(self) -> usize {
        match self {
            Kind::Suite | Kind::FlitReplay => 1,
            Kind::TraceStream | Kind::ServeMix => 2,
        }
    }

    /// A fresh runner for this workload.
    pub fn bench(self) -> Box<dyn Bench> {
        match self {
            Kind::Suite => Box::new(Suite::default()),
            Kind::FlitReplay => Box::new(FlitReplay::default()),
            Kind::TraceStream => Box::new(TraceStream::default()),
            Kind::ServeMix => Box::new(ServeMix::default()),
        }
    }
}

/// What a workload's steps share: the CLI binary, a scratch directory,
/// the seed, pinning and the run's deadline.
#[derive(Debug)]
pub struct Env {
    /// The built `commchar` binary.
    pub bin: PathBuf,
    /// This workload's scratch directory.
    pub dir: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Pinning for the workload's passes.
    pub pin: Pin,
    /// Pinning for set-up runs: always one CPU where `taskset` works, so
    /// the simulations that make inputs do not migrate (their timing
    /// swings several-fold when they do).
    pub setup_pin: Pin,
    /// Children still running at this instant are killed.
    pub deadline: Instant,
}

impl Env {
    /// Runs `commchar <args>` as a pass does, under the workload's pinning.
    pub fn cli(&self, args: &[&str]) -> Outcome {
        self.run(&self.pin, args)
    }

    /// Runs `commchar <args>` as a set-up step.
    pub fn setup_cli(&self, args: &[&str]) -> Outcome {
        self.run(&self.setup_pin, args)
    }

    fn run(&self, pin: &Pin, args: &[&str]) -> Outcome {
        let mut cmd = pin.command(&self.bin);
        cmd.args(args);
        proc::run(cmd, &self.dir, self.deadline)
    }

    /// A path in the scratch directory, as a CLI argument.
    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

/// One end-to-end pass as the user sees it.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds.
    pub wall_s: f64,
    /// Trace events the pass processed.
    pub events: u64,
    /// Peak resident memory of the program, KiB.
    pub peak_rss_kb: u64,
    /// Digest of the pass's output; every pass must match the warm-up.
    pub digest: String,
    /// Round-trip samples (ms) by family: `request`, `report`.
    pub latency_ms: Vec<(&'static str, Vec<f64>)>,
}

/// A workload's steps. `setup` builds everything afresh each time it is
/// called; `reset` undoes what must not outlive a set-up (a server).
pub trait Bench {
    /// Builds inputs and references.
    fn setup(&mut self, env: &Env, tally: &mut Tally);
    /// Releases set-up resources before the next set-up or at the end.
    fn reset(&mut self, _env: &Env, _tally: &mut Tally) {}
    /// One end-to-end pass with its output checks; `None` if it failed.
    fn pass(&mut self, env: &Env, tally: &mut Tally) -> Option<Pass>;
    /// Extra arguments for the traced child.
    fn child_args(&self, env: &Env) -> Vec<String>;
    /// Checks a traced pass's outputs against the end-to-end ones
    /// (`reference` is the warm-up pass's digest).
    fn check_traced(&self, report: &Json, reference: &str, tally: &mut Tally);
}

fn tally_cli(tally: &mut Tally, o: &Outcome, what: &str) -> bool {
    tally.check(o.ok, || format!("{what}: {}", o.why()))
}

/// `(messages, ticks)` from `ran <app> on N processors: M messages, T ticks`.
pub fn ran_counts(text: &str) -> Option<(u64, u64)> {
    let tail = text.split(": ").nth(1)?;
    let mut words = tail.split_whitespace();
    let msgs = words.next()?.parse().ok()?;
    let ticks = words.nth(1)?.parse().ok()?;
    Some((msgs, ticks))
}

/// The `msgs` column of a suite table, in row order.
pub fn table_msgs(table: &str) -> Vec<u64> {
    table.lines().skip(2).filter_map(|row| row.split_whitespace().nth(6)?.parse().ok()).collect()
}

/// SplitMix64: a tiny seeded generator, so inputs depend on `--seed` only.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// --- suite ---------------------------------------------------------------

const FULL16: [&str; 4] = ["--procs", "16", "--scale", "full"];

/// Static-strategy applications of the suite: their message counts are
/// checked against a plain `commchar run` made in set-up.
const MP_APPS: [&str; 4] = ["3d-fft", "mg", "allreduce", "halo"];

/// Cells in the suite table: 9 applications plus 6 contrast rows.
const SUITE_CELLS: usize = 15;

#[derive(Debug, Default)]
struct Suite {
    mp_msgs: BTreeMap<String, u64>,
    table_msgs: Vec<u64>,
}

impl Bench for Suite {
    fn setup(&mut self, env: &Env, tally: &mut Tally) {
        self.mp_msgs.clear();
        for app in MP_APPS {
            let o = env.setup_cli(&[&["run", app][..], &FULL16].concat());
            if tally_cli(tally, &o, &format!("run {app}")) {
                match ran_counts(&o.text()) {
                    Some((msgs, _)) => {
                        self.mp_msgs.insert(app.to_string(), msgs);
                    }
                    None => tally.fail(format!("run {app}: unparseable output")),
                }
            }
        }
    }

    fn pass(&mut self, env: &Env, tally: &mut Tally) -> Option<Pass> {
        let seed = env.seed.to_string();
        let o = env.cli(&[&["suite"][..], &FULL16, &["--jobs", "1", "--seed", &seed]].concat());
        if !tally_cli(tally, &o, "suite") {
            return None;
        }
        let text = o.text();
        let msgs = table_msgs(&text);
        tally.check(msgs.len() == SUITE_CELLS, || format!("suite table has {} rows", msgs.len()));
        for row in text.lines().skip(2) {
            let cols: Vec<&str> = row.split_whitespace().collect();
            if let (Some(app), Some(got)) = (cols.first(), cols.get(6)) {
                if let Some(want) = self.mp_msgs.get(*app) {
                    tally.check(got.parse() == Ok(*want), || {
                        format!("suite {app}: {got} msgs, run says {want}")
                    });
                }
            }
        }
        self.table_msgs = msgs;
        Some(Pass {
            wall_s: o.wall_s,
            events: self.table_msgs.iter().sum(),
            peak_rss_kb: o.peak_rss_kb,
            digest: digest(&o.stdout),
            latency_ms: Vec::new(),
        })
    }

    fn child_args(&self, _env: &Env) -> Vec<String> {
        Vec::new()
    }

    fn check_traced(&self, report: &Json, reference: &str, tally: &mut Tally) {
        let cells: Vec<u64> = report
            .get("cell_msgs")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|v| v.as_f64().map(|x| x as u64))
            .collect();
        tally.check(cells == self.table_msgs, || {
            format!(
                "traced per-cell messages {cells:?} differ from the table's {:?}",
                self.table_msgs
            )
        });
        check_digest(report, "table", reference, tally);
    }
}

fn check_digest(report: &Json, key: &str, want: &str, tally: &mut Tally) {
    let got = report.get("digests").and_then(|d| d.get(key)).and_then(Json::as_str).unwrap_or("");
    tally.check(got == want, || format!("traced {key} digest {got} differs from {want}"));
}

// --- flit-replay -----------------------------------------------------------

/// Where a characterize report's network section starts; everything
/// before it is a property of the trace alone.
const NETWORK_SECTION: &str = "network behaviour";

#[derive(Debug, Default)]
struct FlitReplay {
    msgs: u64,
    ticks: u64,
    trace_part: String,
}

impl Bench for FlitReplay {
    fn setup(&mut self, env: &Env, tally: &mut Tally) {
        let o = env.setup_cli(&[&["run", "mg"][..], &FULL16].concat());
        if tally_cli(tally, &o, "run mg") {
            let (msgs, ticks) = ran_counts(&o.text()).unwrap_or_default();
            (self.msgs, self.ticks) = (msgs, ticks);
        }
        // The recurrence engine's report: the trace attributes must not
        // depend on the engine the trace is replayed through.
        let seed = env.seed.to_string();
        let o = env.setup_cli(
            &[&["characterize", "mg"][..], &FULL16, &["--jobs", "1", "--seed", &seed]].concat(),
        );
        if tally_cli(tally, &o, "characterize mg (recurrence)") {
            let text = o.text();
            self.trace_part = text.split(NETWORK_SECTION).next().unwrap_or("").to_string();
        }
    }

    fn pass(&mut self, env: &Env, tally: &mut Tally) -> Option<Pass> {
        let seed = env.seed.to_string();
        let args = [
            &["characterize", "mg"][..],
            &FULL16,
            &["--engine", "flit", "--jobs", "1", "--seed", &seed],
        ];
        let o = env.cli(&args.concat());
        if !tally_cli(tally, &o, "characterize mg --engine flit") {
            return None;
        }
        let text = o.text();
        tally.check(text.split(NETWORK_SECTION).next() == Some(self.trace_part.as_str()), || {
            "flit report's trace attributes differ from the recurrence engine's".to_string()
        });
        tally.check(text.contains(NETWORK_SECTION), || {
            "flit report has no network section".to_string()
        });
        tally.check(text.contains(&format!("exec ticks  : {}\n", self.ticks)), || {
            format!("flit report's exec ticks differ from run mg's {}", self.ticks)
        });
        tally.check(text.contains(&format!("  {} messages,", self.msgs)), || {
            format!("flit report's message count differs from run mg's {}", self.msgs)
        });
        Some(Pass {
            wall_s: o.wall_s,
            events: self.msgs,
            peak_rss_kb: o.peak_rss_kb,
            digest: digest(&o.stdout),
            latency_ms: Vec::new(),
        })
    }

    fn child_args(&self, _env: &Env) -> Vec<String> {
        Vec::new()
    }

    fn check_traced(&self, report: &Json, reference: &str, tally: &mut Tally) {
        check_digest(report, "report", reference, tally);
    }
}

// --- trace-stream ----------------------------------------------------------

/// The tiled input trace, in the workload's scratch directory.
pub const BIG_JSONL: &str = "big.jsonl";

/// Copies of the base trace laid end to end in time.
const TILES: u64 = 4;

/// `tiles` copies of `base` laid end to end in time, each after an idle
/// gap drawn from `seed` (up to an eighth of the base span). Ids and
/// dependencies are shifted per copy so they stay unique and causal; the
/// result is time-sorted, as out-of-core analysis needs.
pub fn tile(base: &CommTrace, tiles: u64, seed: u64) -> CommTrace {
    let first = base.events().iter().map(|e| e.t).min().unwrap_or(0);
    let last = base.events().iter().map(|e| e.t).max().unwrap_or(0);
    let span = last - first + 1;
    let stride = base.events().iter().map(|e| e.id).max().unwrap_or(0) + 1;
    let mut rng = Rng::new(seed);
    let mut out = CommTrace::new(base.nodes());
    let mut offset = 0;
    for k in 0..tiles {
        if k > 0 {
            offset += span + 1 + rng.below((span / 8).max(1));
        }
        for e in base.events() {
            out.push(CommEvent {
                id: e.id + k * stride,
                t: e.t - first + offset,
                depends_on: e.depends_on.map(|d| d + k * stride),
                ..*e
            });
        }
    }
    out.sort();
    out
}

#[derive(Debug, Default)]
struct TraceStream {
    reference: String,
    events: u64,
    packed: String,
}

impl Bench for TraceStream {
    fn setup(&mut self, env: &Env, tally: &mut Tally) {
        let base = env.path("allreduce128.cct");
        let args =
            ["run", "allreduce", "--procs", "128", "--scale", "full", "--packed", "--out", &base];
        if !tally_cli(tally, &env.setup_cli(&args), "run allreduce --procs 128") {
            return;
        }
        // The `--no-replay` reference is that command's analysis
        // (`try_analyze_trace` + `analysis_report`) run here on the tiled
        // events themselves, so it also vouches for the pass's JSONL parse.
        let tiled = std::fs::read(&base)
            .map_err(|e| e.to_string())
            .and_then(|bytes| load_trace(&bytes).map_err(|e| e.to_string()))
            .map(|t| tile(&t, TILES, env.seed))
            .and_then(|t| {
                // Flushed here so the kernel's delayed writeback of ~100 MB
                // does not land in the middle of the timed passes.
                std::fs::File::create(env.path(BIG_JSONL))
                    .and_then(|mut f| {
                        f.write_all(t.to_jsonl().as_bytes())?;
                        f.sync_all()
                    })
                    .map_err(|e| e.to_string())?;
                let shape = MeshConfig::for_nodes(t.nodes()).shape;
                let a = try_analyze_trace(&t, shape, 2).map_err(|e| e.to_string())?;
                Ok((t.len() as u64, digest(analysis_report(&a, "trace").as_bytes())))
            });
        match tiled {
            Ok((events, reference)) => {
                tally.ok();
                (self.events, self.reference) = (events, reference);
            }
            Err(e) => tally.fail(format!("tiling {base}: {e}")),
        }
    }

    fn pass(&mut self, env: &Env, tally: &mut Tally) -> Option<Pass> {
        let (big, cct) = (env.path(BIG_JSONL), env.path("big.cct"));
        let pack = env.cli(&["trace", "pack", &big, "--out", &cct]);
        if !tally_cli(tally, &pack, "trace pack") {
            return None;
        }
        let stream = env.cli(&[
            "characterize",
            "--trace",
            &cct,
            "--stream",
            "--jobs",
            "2",
            "--block-jobs",
            "2",
        ]);
        if !tally_cli(tally, &stream, "characterize --stream") {
            return None;
        }
        let report = digest(&stream.stdout);
        tally.check(report == self.reference, || {
            "--stream report differs from --no-replay".to_string()
        });
        self.packed = digest(&std::fs::read(&cct).unwrap_or_default());
        Some(Pass {
            wall_s: pack.wall_s + stream.wall_s,
            events: self.events,
            peak_rss_kb: pack.peak_rss_kb.max(stream.peak_rss_kb),
            digest: format!("{}-{report}", self.packed),
            latency_ms: Vec::new(),
        })
    }

    fn child_args(&self, env: &Env) -> Vec<String> {
        vec!["--work".to_string(), env.dir.to_string_lossy().into_owned()]
    }

    fn check_traced(&self, report: &Json, _reference: &str, tally: &mut Tally) {
        check_digest(report, "packed", &self.packed, tally);
        check_digest(report, "report", &self.reference, tally);
    }
}

// --- serve-mix -------------------------------------------------------------

/// Rounds over the trace set per pass.
pub const SERVE_ROUNDS: u64 = 4;

/// Events per `TraceBlocks` frame.
const FRAME_EVENTS: usize = 1000;

/// Backpressure refusals retried per frame before the session is given up.
const MAX_RETRIES: u32 = 1000;

/// One trace of the serve mix, ready to send.
#[derive(Debug)]
pub struct ServeTrace {
    /// Application the trace came from.
    pub name: String,
    /// Processors.
    pub nodes: u32,
    /// Events in time order, as they go on the wire.
    pub events: Vec<CommEvent>,
    /// Pre-encoded `TraceBlocks` payloads of [`FRAME_EVENTS`] events.
    pub frames: Vec<Vec<u8>>,
    /// Offline `characterize --trace X --no-replay` output.
    pub reference: String,
}

impl ServeTrace {
    /// The events as a trace.
    pub fn trace(&self) -> CommTrace {
        let mut t = CommTrace::new(self.nodes as usize);
        t.extend(self.events.iter().copied());
        t
    }
}

fn serve_files(dir: &Path, app: &str) -> (PathBuf, PathBuf) {
    (dir.join(format!("serve-{app}.cct")), dir.join(format!("serve-{app}.ref.txt")))
}

/// Loads the serve-mix traces and their references from `dir`.
pub fn load_serve_traces(dir: &Path) -> Result<Vec<ServeTrace>, String> {
    AppId::all()
        .iter()
        .map(|app| {
            let (cct, reference) = serve_files(dir, app.name());
            let bytes = std::fs::read(&cct).map_err(|e| format!("{}: {e}", cct.display()))?;
            let trace = load_trace(&bytes).map_err(|e| e.to_string())?;
            // The wire wants time order; sort a copy as `serve-feed` does.
            let mut events = trace.events().to_vec();
            events.sort_by_key(|e| e.t);
            Ok(ServeTrace {
                name: app.name().to_string(),
                nodes: trace.nodes() as u32,
                frames: events.chunks(FRAME_EVENTS).map(encode_event_block).collect(),
                events,
                reference: std::fs::read_to_string(&reference).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Session order for one round: a seeded shuffle of `0..n`.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// A client request kind, as reported to a session's observer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// `OpenSession`.
    Open,
    /// One `TraceBlocks` frame.
    Blocks,
    /// The mid-stream `Poll`.
    Poll,
    /// `CloseSession`.
    Close,
    /// A `Backpressure` refusal that will be retried.
    Retry,
}

/// Streams one trace as a session: open, frames with one `Poll` halfway,
/// close. Every request is one op in `tally`; error frames and refusals
/// fail it. `on` sees each round trip's start and end. Returns the final
/// report, which must equal the offline reference.
pub fn session(
    client: &mut ServeClient,
    t: &ServeTrace,
    tally: &mut Tally,
    on: &mut dyn FnMut(Req, Instant, Instant),
) -> Option<String> {
    let what = |e: ServeError| format!("serve {}: {e}", t.name);
    let a = Instant::now();
    let id = match client.open_session(t.nodes) {
        Ok(id) => id,
        Err(e) => {
            tally.fail(what(e));
            return None;
        }
    };
    on(Req::Open, a, Instant::now());
    tally.ok();
    let poll_after = (t.frames.len().max(1) - 1) / 2;
    for (k, frame) in t.frames.iter().enumerate() {
        let mut retries = 0;
        loop {
            let blocks = vec![frame.clone()];
            let a = Instant::now();
            match client.send_blocks(id, blocks) {
                Ok(_) => {
                    on(Req::Blocks, a, Instant::now());
                    tally.ok();
                    break;
                }
                Err(e @ ServeError::Backpressure { .. }) if retries < MAX_RETRIES => {
                    on(Req::Retry, a, Instant::now());
                    tally.fail(what(e));
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    tally.fail(what(e));
                    let _ = client.close_session(id);
                    return None;
                }
            }
        }
        if k == poll_after {
            let a = Instant::now();
            match client.poll(id) {
                Ok((_, text)) => {
                    on(Req::Poll, a, Instant::now());
                    tally
                        .check(!text.is_empty(), || format!("serve {}: empty poll report", t.name));
                }
                Err(e) => tally.fail(what(e)),
            }
        }
    }
    let a = Instant::now();
    match client.close_session(id) {
        Ok((events, text)) => {
            on(Req::Close, a, Instant::now());
            tally.check(events == t.events.len() as u64, || {
                format!("serve {}: server absorbed {events} of {} events", t.name, t.events.len())
            });
            tally.check(text == t.reference, || {
                format!("serve {}: final report differs from offline", t.name)
            });
            Some(text)
        }
        Err(e) => {
            tally.fail(what(e));
            None
        }
    }
}

/// A running `commchar serve`; killed if dropped without a shutdown.
#[derive(Debug)]
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(env: &Env) -> Result<Server, String> {
        let log = env.dir.join("serve.stdout");
        let out = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        let mut cmd: Command = env.pin.command(&env.bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--serve-workers", "1", "--jobs", "1"]);
        cmd.stdin(Stdio::null()).stdout(out).stderr(Stdio::null());
        let child = cmd.spawn().map_err(|e| format!("spawning serve: {e}"))?;
        let mut server = Server { child, addr: String::new() };
        let give_up = Instant::now() + Duration::from_secs(20);
        while Instant::now() < give_up {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| l.strip_prefix("listening on ")) {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited early: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("serve did not report its address".to_string())
    }

    /// Asks the server to exit and reaps it, killing it if it lingers.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = ServeClient::connect(&self.addr).and_then(ServeClient::shutdown_server);
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (asked, _) => Err(format!("serve shutdown: {asked:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("serve ignored Shutdown; killed".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        proc::stop(&mut self.child);
    }
}

#[derive(Debug, Default)]
struct ServeMix {
    traces: Vec<ServeTrace>,
    server: Option<Server>,
}

impl Bench for ServeMix {
    fn setup(&mut self, env: &Env, tally: &mut Tally) {
        for app in AppId::all() {
            let (cct, reference) = serve_files(&env.dir, app.name());
            let cct = cct.to_string_lossy().into_owned();
            let o = env.setup_cli(&[
                "run",
                app.name(),
                "--procs",
                "16",
                "--scale",
                "small",
                "--packed",
                "--out",
                &cct,
            ]);
            if !tally_cli(tally, &o, &format!("run {app} --packed")) {
                return;
            }
            let o = env.setup_cli(&["characterize", "--trace", &cct, "--no-replay", "--jobs", "1"]);
            if !tally_cli(tally, &o, &format!("characterize {app} --no-replay")) {
                return;
            }
            let written =
                std::fs::File::create(&reference).and_then(|mut f| f.write_all(&o.stdout));
            if let Err(e) = written {
                return tally.fail(format!("{}: {e}", reference.display()));
            }
        }
        match load_serve_traces(&env.dir) {
            Ok(traces) => self.traces = traces,
            Err(e) => return tally.fail(e),
        }
        match Server::start(env) {
            Ok(s) => {
                tally.ok();
                self.server = Some(s);
            }
            Err(e) => tally.fail(e),
        }
    }

    fn reset(&mut self, _env: &Env, tally: &mut Tally) {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown() {
                tally.fail(e);
            }
        }
    }

    fn pass(&mut self, env: &Env, tally: &mut Tally) -> Option<Pass> {
        let server = self.server.as_ref()?;
        let mut client = match ServeClient::connect(&server.addr) {
            Ok(c) => c,
            Err(e) => {
                tally.fail(format!("connect: {e}"));
                return None;
            }
        };
        let (mut request, mut report) = (Vec::new(), Vec::new());
        let mut reports = String::new();
        let started = Instant::now();
        for round in 0..SERVE_ROUNDS {
            for idx in round_order(env.seed, round, self.traces.len()) {
                let mut on = |req: Req, a: Instant, b: Instant| {
                    let ms = (b - a).as_secs_f64() * 1e3;
                    match req {
                        Req::Blocks => request.push(ms),
                        Req::Poll | Req::Close => report.push(ms),
                        Req::Open | Req::Retry => {}
                    }
                };
                reports +=
                    &session(&mut client, &self.traces[idx], tally, &mut on).unwrap_or_default();
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let events: u64 = self.traces.iter().map(|t| t.events.len() as u64).sum();
        Some(Pass {
            wall_s,
            events: events * SERVE_ROUNDS,
            peak_rss_kb: proc::peak_rss_kb(server.child.id()).unwrap_or(0),
            digest: digest(reports.as_bytes()),
            latency_ms: vec![("request", request), ("report", report)],
        })
    }

    fn child_args(&self, env: &Env) -> Vec<String> {
        let addr = self.server.as_ref().map_or(String::new(), |s| s.addr.clone());
        vec![
            "--work".to_string(),
            env.dir.to_string_lossy().into_owned(),
            "--addr".to_string(),
            addr,
        ]
    }

    fn check_traced(&self, _report: &Json, _reference: &str, _tally: &mut Tally) {
        // The traced child checks every final report against its offline
        // reference itself; its failures arrive in its tally.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commchar::trace::EventKind;

    #[test]
    fn tiling_keeps_work_and_order_and_moves_only_gaps() {
        let mut base = CommTrace::new(4);
        base.push(CommEvent::new(0, 10, 0, 1, 8, EventKind::Data));
        base.push(CommEvent::new(1, 25, 1, 2, 8, EventKind::Data).after(0));
        base.push(CommEvent::new(2, 40, 2, 3, 16, EventKind::Control));
        let a = tile(&base, 4, 7);
        assert_eq!(a.len(), 12);
        a.check().unwrap();
        assert!(a.events().windows(2).all(|w| w[0].t <= w[1].t));
        // Same seed, same input; another seed moves only the idle gaps.
        assert_eq!(a.events(), tile(&base, 4, 7).events());
        let b = tile(&base, 4, 8);
        assert_eq!(b.len(), a.len());
        assert_eq!(a.events()[..3], b.events()[..3]);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn cli_outputs_parse() {
        assert_eq!(
            ran_counts("ran mg on 16 processors: 4965 messages, 21265947 ticks\n"),
            Some((4965, 21265947))
        );
        let table = "application  class  procs  scale  topology  routing  msgs  fit\n----\n\
                     is  shared-memory  16  full  mesh  dimension  212308  exponential(λ=0.16)\n\
                     mg  message-passing  16  full  mesh  dimension  4965  normal(μ=1, σ=2)\n";
        assert_eq!(table_msgs(table), vec![212308, 4965]);
        let order = round_order(42, 1, 9);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_eq!(order, round_order(42, 1, 9));
        assert_ne!(order, round_order(42, 2, 9));
    }
}
