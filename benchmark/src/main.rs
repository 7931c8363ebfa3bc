//! `benchmark` — the repository benchmark for the commchar pipeline.
//!
//! End-to-end passes drive the built `commchar` binary through its stable
//! CLI flags (or, for `serve-mix`, its CCSERVE1 protocol) and time what a
//! user waits for. With `--trace 1`, traced passes alternate with them:
//! each repeats the workload in a child process that calls the library's
//! public layer functions in the CLI's order and times every call from
//! outside, giving per-layer host time and deterministic work counters.
//! Every output is checked. See README.md for the catalogue.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--out results.json] [--spans spans.json]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare old.json new.json
//! ```

mod json;
mod proc;
mod results;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use proc::Pin;
use results::{
    Metric, Results, WorkloadResult, DRIVER_E2E, DRIVER_LAYER, END_TO_END, LATENCIES, PER_LAYER,
};
use workloads::{Env, Kind, Pass};

const USAGE: &str =
    "usage: benchmark [--workload suite|flit-replay|trace-stream|serve-mix] [--seed N]
                 [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
       benchmark --compare OLD.json NEW.json";

/// Wall-clock budget of one workload's run: set-up, warm-up and passes.
/// Children still running at its end are killed and counted as failed.
const WORKLOAD_BUDGET: Duration = Duration::from_secs(170);

/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more (up to
/// [`SETUP_MAX_REPS`]) until [`SETUP_SECONDS`] have accumulated, so a
/// set-up of a few process spawns still gets a steady median (`setup_s`).
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 20;
const SETUP_SECONDS: f64 = 1.0;

/// Failure reasons kept per workload.
const MAX_NOTES: usize = 20;

/// Operations attempted and failed — CLI runs, protocol requests and
/// output checks — with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first [`MAX_NOTES`] failure reasons.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts a successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(why);
        }
    }

    /// Counts one operation, failed unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
        ok
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    child: Option<Kind>,
    work: PathBuf,
    addr: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 20,
        trace: false,
        out: None,
        spans: None,
        compare: None,
        child: None,
        work: PathBuf::new(),
        addr: String::new(),
    };
    let mut it = argv.iter();
    let kind = |v: &str| Kind::parse(v).ok_or(format!("unknown workload {v:?}"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number =
            |v: String| v.parse::<u64>().map_err(|_| format!("{flag} needs a whole number"));
        match flag.as_str() {
            "--workload" => a.workload = Some(kind(&value()?)?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--spans" => a.spans = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            "--child" => a.child = Some(kind(&value()?)?),
            "--work" => a.work = value()?.into(),
            "--addr" => a.addr = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((old, new)) = &args.compare {
        compare_mode(old, new)
    } else if let Some(kind) = args.child {
        let child = traced::ChildArgs { seed: args.seed, work: &args.work, addr: &args.addr };
        println!("{}", traced::run(kind, &child));
        Ok(ExitCode::SUCCESS)
    } else {
        run_mode(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

fn compare_mode(old: &Path, new: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Results::from_json(&Json::parse(&text)?).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, regressed) = results::compare(&read(old)?, &read(new)?);
    print!("{table}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// The repository this benchmark belongs to: the parent of its package.
fn repo_root() -> Result<PathBuf, String> {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().ok_or("benchmark package has no parent")?;
    if !root.join("Cargo.toml").is_file() || !root.join("src/main.rs").is_file() {
        return Err(format!("no commchar sources at {}", root.display()));
    }
    Ok(root.to_path_buf())
}

/// Builds the `commchar` binary into this benchmark's target directory,
/// so it lands beside the benchmark's own release build.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let target =
        exe.parent().and_then(Path::parent).ok_or("benchmark binary has no target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "commchar", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    let bin = target.join("release").join("commchar");
    if !status.success() || !bin.is_file() {
        return Err(format!("building commchar failed ({status})"));
    }
    Ok(bin)
}

/// The checked-out revision, read from `.git` without running git.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".to_string() };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    read(git.join(name))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_mode(args: &Args) -> Result<ExitCode, String> {
    let root = repo_root()?;
    let bin = build_cli(&root)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = root.join(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let mut spans = Vec::new();
    let workloads =
        kinds.iter().map(|&kind| run_workload(kind, &bin, &exe, &work, args, &mut spans)).collect();
    let results = Results {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev: git_rev(&root),
        seed: args.seed,
        mode: if args.trace { "trace" } else { "e2e" }.to_string(),
        seconds: args.seconds,
        workloads,
    };
    for w in &results.workloads {
        print_workload(w);
    }
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{}\n", results.to_json()))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    if args.trace {
        let path = args.spans.clone().unwrap_or_else(|| work.join("spans.json"));
        std::fs::write(&path, format!("{}\n", Json::Arr(spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!("{}", result_line(&results, args.trace));
    Ok(ExitCode::SUCCESS)
}

/// One workload: set-ups, a warm-up pass, then timed passes (alternating
/// with traced passes under `--trace 1`) until `--seconds` have passed.
fn run_workload(
    kind: Kind,
    bin: &Path,
    exe: &Path,
    work: &Path,
    args: &Args,
    spans: &mut Vec<Json>,
) -> WorkloadResult {
    let started = Instant::now();
    let mut tally = Tally::default();
    let pin = Pin::probe(kind.cpus());
    let dir = work.join(kind.name());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        tally.fail(format!("{}: {e}", dir.display()));
    }
    let env = Env {
        bin: bin.to_path_buf(),
        dir,
        seed: args.seed,
        pin,
        setup_pin: Pin::probe(1),
        deadline: started + WORKLOAD_BUDGET,
    };
    let mut bench = kind.bench();

    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < SETUP_MAX_REPS)
    {
        if !setup_s.is_empty() {
            bench.reset(&env, &mut tally);
        }
        let t0 = Instant::now();
        bench.setup(&env, &mut tally);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut reference = bench.pass(&env, &mut tally).map(|warm| warm.digest);
    let mut passes: Vec<Pass> = Vec::new();
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let measuring = Instant::now();
    let mut attempts = 0;
    while attempts == 0 || measuring.elapsed().as_secs_f64() < args.seconds as f64 {
        attempts += 1;
        if Instant::now() >= env.deadline {
            tally.fail("run deadline reached before --seconds of passes".to_string());
            break;
        }
        if let Some(p) = bench.pass(&env, &mut tally) {
            let want = reference.get_or_insert_with(|| p.digest.clone());
            tally.check(p.digest == *want, || {
                format!("pass digest {} differs from the warm-up's {want}", p.digest)
            });
            passes.push(p);
        }
        if args.trace {
            if let Some(report) = traced_pass(kind, &env, exe, bench.child_args(&env), &mut tally) {
                bench.check_traced(&report, reference.as_deref().unwrap_or(""), &mut tally);
                for s in report.get("spans").map(Json::as_array).unwrap_or_default() {
                    let mut tagged =
                        Json::obj().with("workload", kind.name()).with("pass", layers.len());
                    for (k, v) in s.fields() {
                        tagged = tagged.with(k, v.clone());
                    }
                    spans.push(tagged);
                }
                layers.push(traced::layer_metrics(kind, &report));
            }
        }
    }
    bench.reset(&env, &mut tally);

    let mut metrics = end_to_end_metrics(&passes, setup_s);
    if args.trace {
        metrics.extend(layer_metrics(&layers, &passes));
    }
    metrics.push(Metric::new(
        "failed_frac",
        vec![tally.failed as f64 / tally.attempted.max(1) as f64],
    ));
    let order = |m: &Metric| {
        END_TO_END.iter().chain(PER_LAYER).position(|s| s.name == m.name).unwrap_or(usize::MAX)
    };
    metrics.sort_by_key(order);
    WorkloadResult {
        name: kind.name().to_string(),
        cpus: env.pin.cpus,
        pinned: env.pin.pinned,
        pin_skip_reason: env.pin.skip_reason.clone(),
        reps: passes.len(),
        traced_reps: layers.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        digest: reference.unwrap_or_default(),
        metrics,
    }
}

/// One traced pass in a child process, pinned like the CLI. Returns the
/// child's report with its operations folded into `tally`.
fn traced_pass(
    kind: Kind,
    env: &Env,
    exe: &Path,
    extra: Vec<String>,
    tally: &mut Tally,
) -> Option<Json> {
    let mut cmd = env.pin.command(exe);
    cmd.args(["--child", kind.name(), "--seed", &env.seed.to_string()]).args(extra);
    let o = proc::run(cmd, &env.dir, env.deadline);
    if !tally.check(o.ok, || format!("traced pass: {}", o.why())) {
        return None;
    }
    let report = match Json::parse(o.text().trim()) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(format!("traced pass report: {e}"));
            return None;
        }
    };
    let count = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    tally.attempted += count("attempted");
    tally.failed += count("failed");
    for note in report.get("notes").map(Json::as_array).unwrap_or_default() {
        if tally.notes.len() < MAX_NOTES {
            tally.notes.push(note.as_str().unwrap_or("").to_string());
        }
    }
    Some(report)
}

/// The end-to-end metrics of the timed passes. A tail percentile with
/// fewer than [`stats::MIN_BEYOND`] samples beyond it is left out.
fn end_to_end_metrics(passes: &[Pass], setup_s: Vec<f64>) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let mut metrics = vec![
        Metric::new("wall_s", per_pass(&|p| p.wall_s)),
        Metric::new("events_per_s", per_pass(&|p| p.events as f64 / p.wall_s.max(1e-9))),
        Metric::new("setup_s", setup_s),
        Metric::new("peak_rss_mb", per_pass(&|p| p.peak_rss_kb as f64 / 1024.0)),
    ];
    for (family, percentiles) in LATENCIES {
        let samples: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.latency_ms
                    .iter()
                    .filter(|(f, _)| f == family)
                    .flat_map(|(_, v)| v.iter().copied())
            })
            .collect();
        if samples.is_empty() {
            continue;
        }
        for &(p, name) in *percentiles {
            match stats::percentile(&samples, p) {
                Some(v) => metrics.push(Metric {
                    name: name.to_string(),
                    values: vec![v],
                    n: samples.len(),
                }),
                None => eprintln!(
                    "benchmark: {name} left out: fewer than {} of {} samples beyond p{p}",
                    stats::MIN_BEYOND,
                    samples.len()
                ),
            }
        }
    }
    metrics
}

/// Per-layer metrics: each one's values across traced passes, plus the
/// tracing overhead against the end-to-end median.
fn layer_metrics(layers: &[BTreeMap<String, f64>], passes: &[Pass]) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for m in layers {
        for (k, v) in m {
            by_name.entry(k).or_default().push(*v);
        }
    }
    let mut metrics: Vec<Metric> = by_name.into_iter().map(|(k, v)| Metric::new(k, v)).collect();
    let traced = stats::median(
        &layers.iter().filter_map(|m| m.get("pass.traced_s").copied()).collect::<Vec<_>>(),
    );
    let e2e = stats::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    if traced.is_finite() && e2e > 0.0 {
        metrics.push(Metric::new("trace.overhead_frac", vec![traced / e2e - 1.0]));
    }
    metrics
}

fn print_workload(w: &WorkloadResult) {
    let pin = match (&w.pin_skip_reason, w.pinned) {
        (Some(why), _) => format!("unpinned ({why})"),
        (None, true) => "pinned to cpu 0".to_string(),
        (None, false) => "unpinned".to_string(),
    };
    println!(
        "== {}: {} cpu(s), {pin}, {} timed passes, {} traced",
        w.name, w.cpus, w.reps, w.traced_reps
    );
    for m in &w.metrics {
        let unit = results::spec(&m.name).map_or("", |s| s.unit);
        let s = m.summary();
        println!(
            "{:<13} {:<28} {:>18.6} {:<8} n={} q1={:.6} q3={:.6}",
            w.name, m.name, s.median, unit, s.n, s.q1, s.q3
        );
    }
    println!("{:<13} output digest {}", w.name, w.digest);
    println!("{:<13} ops {} attempted, {} failed", w.name, w.attempted, w.failed);
    for note in &w.notes {
        println!("{:<13} FAILED {note}", w.name);
    }
}

/// The closing one-line result: every end-to-end metric (or, traced,
/// every per-layer metric) `BENCHMARK.json` lists, as medians.
fn result_line(results: &Results, trace: bool) -> Json {
    let specs = if trace { &PER_LAYER[..DRIVER_LAYER] } else { &END_TO_END[..DRIVER_E2E] };
    let single = results.workloads.len() == 1;
    let mut metrics = Json::obj();
    let mut complete = true;
    for w in &results.workloads {
        for spec in specs {
            let value = match w.metric(spec.name) {
                Some(m) => m.summary().median,
                None => {
                    complete = false;
                    0.0
                }
            };
            let key =
                if single { spec.name.to_string() } else { format!("{}/{}", w.name, spec.name) };
            metrics = metrics.with(&key, Json::obj().with("value", value).with("unit", spec.unit));
        }
    }
    let attempted: u64 = results.workloads.iter().map(|w| w.attempted).sum();
    let failed: u64 = results.workloads.iter().map(|w| w.failed).sum();
    Json::obj()
        .with("correct", complete && failed == 0 && attempted > 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-mix --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some(Kind::ServeMix), 7, 10, true));
        assert!(parse_args(&argv("--trace spans.json")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        let c = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn failed_ops_are_counted_and_noted() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "digest differs".to_string()));
        for i in 0..30 {
            t.fail(format!("refusal {i}"));
        }
        assert_eq!((t.attempted, t.failed), (32, 31));
        assert_eq!(t.notes.len(), MAX_NOTES);
        assert_eq!(t.notes[0], "digest differs");
    }

    #[test]
    fn the_result_line_has_every_listed_metric() {
        let w = WorkloadResult {
            name: "suite".to_string(),
            cpus: 1,
            pinned: true,
            pin_skip_reason: None,
            reps: 1,
            traced_reps: 0,
            attempted: 3,
            failed: 0,
            notes: vec![],
            digest: String::new(),
            metrics: END_TO_END[..DRIVER_E2E]
                .iter()
                .map(|s| Metric::new(s.name, vec![1.25]))
                .collect(),
        };
        let r = Results {
            host_cores: 2,
            git_rev: "x".to_string(),
            seed: 1,
            mode: "e2e".to_string(),
            seconds: 1,
            workloads: vec![w],
        };
        let line = result_line(&r, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let keys: Vec<&str> =
            line.get("metrics").unwrap().fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["wall_s", "setup_s", "peak_rss_mb"]);
        // Traced, the missing per-layer times make the result incomplete.
        assert_eq!(result_line(&r, true).get("correct"), Some(&Json::Bool(false)));
    }
}
