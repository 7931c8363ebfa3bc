//! The traced run: one pass of a workload repeated in-process, calling
//! each layer's public functions in the order the CLI does and timing
//! every call from outside. Nothing inside the program is instrumented.
//!
//! The parent runs each traced pass as a child process of its own
//! (`benchmark --child <workload> …`, pinned like the CLI), which prints
//! one JSON report — spans, work counters, output digests and its
//! attempted/failed operations — and exits. [`layer_metrics`] turns such
//! a report into the per-layer metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use commchar::apps::{AppClass, AppId, Scale};
use commchar::core::analyze::{try_analyze_extract, TraceAnalysis};
use commchar::core::report::{analysis_report, signature_report, suite_table};
use commchar::core::suite::{cell_matrix, CellResult, SuiteCell, SuiteReport};
use commchar::core::{synthesize, CommSignature};
use commchar::mesh::{EngineKind, MeshConfig, MeshShape, NetLog, Routing, Topology};
use commchar::serve::ServeClient;
use commchar::trace::profile::{SegmentExtract, StreamAccum, StreamExtract};
use commchar::trace::replay::CausalReplayer;
use commchar::trace::CommTrace;
use commchar::tracestore::{load_trace, pack_trace, FileReader};

use crate::json::Json;
use crate::proc::digest;
use crate::stats::{self_times, Span};
use crate::workloads::{self, Kind, Req};
use crate::Tally;

/// In-memory span recorder: a flat list plus the stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder started.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span inside the innermost open one and returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent: None });
        let id = self.spans.len() - 1;
        self.spans[id].parent = self.open.last().copied();
        self.open.push(id);
        id
    }

    /// Closes span `id`, and any spans still open inside it (left open
    /// by a caught panic).
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span timed elsewhere (a worker thread, a callback) as a
    /// child of the innermost open span.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
    }
}

/// Deterministic work counters, summed over a pass.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Where a traced pass finds its inputs.
#[derive(Debug)]
pub struct ChildArgs<'a> {
    /// Workload seed.
    pub seed: u64,
    /// The workload's scratch directory (set-up outputs live there).
    pub work: &'a Path,
    /// Server address (serve-mix).
    pub addr: &'a str,
}

/// Runs one traced pass of `kind` and returns its JSON report.
pub fn run(kind: Kind, args: &ChildArgs<'_>) -> Json {
    let mut rec = Recorder::default();
    let mut c = Counters::default();
    let mut tally = Tally::default();
    let mut digests: Vec<(&str, String)> = Vec::new();
    let mut cell_msgs: Vec<Json> = Vec::new();
    match kind {
        Kind::Suite => {
            let pass = rec.enter("pass");
            let cells = suite_cells(args.seed);
            let results = run_cells(&mut rec, &mut c, &mut tally, &cells);
            let table = rec.time("core.report", || {
                suite_table(&SuiteReport { cells: results, jobs: 1, wall: Default::default() })
            });
            rec.exit(pass);
            cell_msgs = crate::workloads::table_msgs(&table).into_iter().map(Json::from).collect();
            digests.push(("table", digest(table.as_bytes())));
        }
        Kind::FlitReplay => {
            let pass = rec.enter("pass");
            let report = flit_replay(&mut rec, &mut c);
            rec.exit(pass);
            match report {
                Ok(text) => {
                    tally.ok();
                    digests.push(("report", digest(text.as_bytes())));
                }
                Err(e) => tally.fail(format!("traced flit-replay: {e}")),
            }
        }
        Kind::TraceStream => match trace_stream(&mut rec, &mut c, args.work) {
            Ok((packed, report)) => {
                tally.ok();
                digests.push(("packed", digest(&packed)));
                digests.push(("report", digest(report.as_bytes())));
            }
            Err(e) => tally.fail(format!("traced trace-stream: {e}")),
        },
        Kind::ServeMix => {
            if let Err(e) = serve_mix(&mut rec, &mut c, &mut tally, args) {
                tally.fail(format!("traced serve-mix: {e}"));
            }
        }
    }
    let spans: Vec<Json> = rec
        .spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name.as_str())
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent)
        })
        .collect();
    let mut counters = Json::obj();
    for (k, v) in &c.0 {
        counters = counters.with(k, *v);
    }
    let mut dj = Json::obj();
    for (k, v) in digests {
        dj = dj.with(k, v);
    }
    Json::obj()
        .with("spans", spans)
        .with("counters", counters)
        .with("digests", dj)
        .with("cell_msgs", cell_msgs)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("notes", tally.notes.into_iter().map(Json::from).collect::<Vec<_>>())
}

/// The suite's cells exactly as `commchar suite --procs 16 --scale full`
/// builds them on the default network: every application, then the
/// (topology × routing) contrast rows for the collective-shaped workloads.
fn suite_cells(seed: u64) -> Vec<SuiteCell> {
    let mut cells = cell_matrix(AppId::all(), &[16], &[Scale::Full], seed);
    for app in [AppId::Allreduce, AppId::Halo] {
        let base = cell_matrix(&[app], &[16], &[Scale::Full], seed)[0];
        for topology in [Topology::Mesh, Topology::Torus] {
            for routing in [Routing::Dimension, Routing::Adaptive] {
                if (topology, routing) != (Topology::Mesh, Routing::Dimension) {
                    cells.push(base.with_net(topology, routing));
                }
            }
        }
    }
    cells
}

/// Runs suite cells in order, each as one operation: a cell that errors
/// or panics counts as one failed op and the rest still run.
fn run_cells(
    rec: &mut Recorder,
    c: &mut Counters,
    tally: &mut Tally,
    cells: &[SuiteCell],
) -> Vec<CellResult> {
    let mut results = Vec::with_capacity(cells.len());
    for &cell in cells {
        let id = rec.enter("cell");
        let outcome = catch_unwind(AssertUnwindSafe(|| run_cell(rec, c, cell)));
        rec.exit(id);
        let what = || format!("cell {} p{} {}", cell.app, cell.procs, cell.scale.name());
        match outcome {
            Ok(Ok(r)) => {
                tally.ok();
                results.push(r);
            }
            Ok(Err(e)) => tally.fail(format!("{}: {e}", what())),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                tally.fail(format!("{} panicked: {msg}", what()));
            }
        }
    }
    results
}

/// One suite cell: acquire (and replay, for the static strategy),
/// analyze, synthesize — the CLI's `run_cell` with the recurrence engine.
fn run_cell(rec: &mut Recorder, c: &mut Counters, cell: SuiteCell) -> Result<CellResult, String> {
    let started = Instant::now();
    let engine = EngineKind::Recurrence;
    let mesh = MeshConfig::for_nodes_net(cell.procs, cell.topology, cell.routing);
    let dynamic = cell.app.class() == AppClass::SharedMemory;
    let layer = if dynamic { "spasm.run" } else { "sp2.run" };
    let out = rec.time(layer, || cell.app.run_net(cell.procs, cell.scale, engine, 1, mesh));
    let netlog = match out.netlog {
        Some(log) => log,
        None => replay(rec, c, mesh, &out.trace, engine)?,
    };
    let a = analyze(rec, c, &out.trace, mesh.shape, 1)?;
    let network = netlog.summary();
    let span = network.span.max(1);
    let signature = CommSignature {
        name: out.name.to_string(),
        class: out.class,
        nprocs: cell.procs,
        temporal: a.temporal,
        spatial: a.spatial,
        volume: a.volume,
        network,
        exec_ticks: out.exec_ticks,
    };
    let synth =
        rec.time("traffic.synth", || synthesize(&signature, mesh).generate(span, cell.seed));
    let messages = out.trace.len() as u64;
    if dynamic {
        c.add("spasm.messages", messages as f64);
        c.add("spasm.exec_ticks", out.exec_ticks as f64);
    } else {
        c.add("sp2.messages", messages as f64);
    }
    c.add("traffic.synth_events", synth.len() as f64);
    let wall = started.elapsed();
    Ok(CellResult {
        cell,
        messages,
        exec_ticks: out.exec_ticks,
        synth_ratio: synth.len() as f64 / messages.max(1) as f64,
        msgs_per_sec: messages as f64 / wall.as_secs_f64().max(1e-9),
        wall,
        signature,
    })
}

/// Causal replay of a static-strategy trace, with its network counters.
fn replay(
    rec: &mut Recorder,
    c: &mut Counters,
    mesh: MeshConfig,
    trace: &CommTrace,
    engine: EngineKind,
) -> Result<NetLog, String> {
    let log = rec
        .time("trace.replay", || CausalReplayer::new(mesh).try_replay(trace, engine))
        .map_err(|e| e.to_string())?;
    let s = log.summary();
    c.add("mesh.flits", log.records().iter().map(|r| mesh.flits_for(r.bytes) as f64).sum());
    c.add("mesh.replayed", s.messages as f64);
    c.add("mesh.latency_sum", s.mean_latency * s.messages as f64);
    c.add("mesh.span_ticks", s.span as f64);
    Ok(log)
}

/// The in-memory analysis front end, as `try_analyze_trace` runs it:
/// time-sort a copy if needed, extract one segment, fold it.
fn extract(trace: &CommTrace) -> Result<StreamExtract, String> {
    if trace.is_empty() {
        return Err("cannot characterize an empty trace".to_string());
    }
    let events = trace.events();
    let sorted_copy;
    let events = if events.windows(2).all(|w| w[0].t <= w[1].t) {
        events
    } else {
        sorted_copy = {
            let mut v = events.to_vec();
            v.sort_by_key(|e| e.t);
            v
        };
        &sorted_copy
    };
    let seg = SegmentExtract::from_events(trace.nodes(), events).map_err(|e| e.to_string())?;
    let mut accum = StreamAccum::new(trace.nodes());
    accum.absorb(&seg).map_err(|e| e.to_string())?;
    Ok(accum.finish())
}

/// Extract + fit of an in-memory trace.
fn analyze(
    rec: &mut Recorder,
    c: &mut Counters,
    trace: &CommTrace,
    shape: MeshShape,
    jobs: usize,
) -> Result<TraceAnalysis, String> {
    let x = rec.time("trace.extract", || extract(trace))?;
    c.add("events", trace.len() as f64);
    fit(rec, c, x, shape, jobs)
}

/// The shared fit back half, counting its work: gap runs (distinct gap
/// values) over the aggregate and every source that got a fit.
fn fit(
    rec: &mut Recorder,
    c: &mut Counters,
    x: StreamExtract,
    shape: MeshShape,
    jobs: usize,
) -> Result<TraceAnalysis, String> {
    let source_runs: Vec<usize> = x.per_source.iter().map(|g| g.distinct_len()).collect();
    let aggregate_runs = x.aggregate.distinct_len();
    let a =
        rec.time("core.fit", || try_analyze_extract(x, shape, jobs)).map_err(|e| e.to_string())?;
    let fitted: Vec<usize> = a
        .temporal
        .per_source
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_some())
        .map(|(s, _)| s)
        .collect();
    c.add("stats.fit_sources", fitted.len() as f64);
    c.add(
        "stats.gap_runs",
        (aggregate_runs + fitted.iter().map(|&s| source_runs[s]).sum::<usize>()) as f64,
    );
    Ok(a)
}

/// `commchar characterize mg --procs 16 --scale full --engine flit --jobs 1`.
fn flit_replay(rec: &mut Recorder, c: &mut Counters) -> Result<String, String> {
    let engine = EngineKind::flit();
    let mesh = MeshConfig::for_nodes_net(16, Topology::Mesh, Routing::Dimension);
    let out = rec.time("sp2.run", || AppId::Mg.run_net(16, Scale::Full, engine, 1, mesh));
    c.add("sp2.messages", out.trace.len() as f64);
    let netlog = replay(rec, c, mesh, &out.trace, engine)?;
    let a = analyze(rec, c, &out.trace, mesh.shape, 1)?;
    let signature = CommSignature {
        name: out.name.to_string(),
        class: out.class,
        nprocs: 16,
        temporal: a.temporal,
        spatial: a.spatial,
        volume: a.volume,
        network: netlog.summary(),
        exec_ticks: out.exec_ticks,
    };
    Ok(rec.time("core.report", || signature_report(&signature)))
}

/// Blocks per decode worker per round in core's `try_analyze_blocks`
/// (private there, so repeated here).
const CHUNK_PER_JOB: usize = 4;

/// `trace pack big.jsonl --out …` then `characterize --trace … --stream
/// --jobs 2 --block-jobs 2`, in one process. Returns the packed bytes and
/// the report.
fn trace_stream(
    rec: &mut Recorder,
    c: &mut Counters,
    work: &Path,
) -> Result<(Vec<u8>, String), String> {
    let jsonl = work.join(workloads::BIG_JSONL);
    let packed_path = work.join("big.traced.cct");
    let pass = rec.enter("pass");

    let pack = rec.enter("pack");
    let input = rec.time("io.read", || std::fs::read(&jsonl)).map_err(|e| e.to_string())?;
    let trace = rec.time("trace.jsonl_parse", || load_trace(&input)).map_err(|e| e.to_string())?;
    let packed = rec.time("tracestore.encode", || pack_trace(&trace));
    rec.time("io.write", || std::fs::write(&packed_path, &packed)).map_err(|e| e.to_string())?;
    drop(trace);
    drop(input);
    rec.exit(pack);

    let stream = rec.enter("stream");
    let reader = rec
        .time("tracestore.decode", || FileReader::open(&packed_path))
        .map_err(|e| e.to_string())?;
    let nodes = reader.nodes();
    let shape = MeshConfig::for_nodes(nodes).shape;
    // Blocks decode and condense on two workers, `block_jobs ×
    // CHUNK_PER_JOB` per round, folded in file order — the schedule of
    // `try_analyze_blocks`.
    let (block_jobs, fit_jobs) = (2, 2);
    let chunk = commchar_pool::resolve_jobs(block_jobs) * CHUNK_PER_JOB;
    let mut accum = StreamAccum::new(nodes);
    let mut base = 0;
    while base < reader.block_count() {
        let n = chunk.min(reader.block_count() - base);
        let partials = commchar_pool::run_indexed(block_jobs, n, |i| {
            let t0 = Instant::now();
            let events = reader.decode_events(base + i).map_err(|e| e.to_string());
            let t1 = Instant::now();
            let seg = events
                .and_then(|ev| SegmentExtract::from_events(nodes, &ev).map_err(|e| e.to_string()));
            (seg, t0, t1, Instant::now())
        });
        for (seg, t0, t1, t2) in partials {
            rec.add("tracestore.decode", t0, t1);
            rec.add("trace.extract", t1, t2);
            let seg = seg?;
            rec.time("trace.extract", || accum.absorb(&seg)).map_err(|e| e.to_string())?;
        }
        base += n;
    }
    let x = rec.time("trace.extract", || accum.finish());
    c.add("events", reader.len() as f64);
    let a = fit(rec, c, x, shape, fit_jobs)?;
    let report = rec.time("core.report", || analysis_report(&a, "trace"));
    rec.exit(stream);
    rec.exit(pass);

    c.add("tracestore.blocks", reader.block_count() as f64);
    c.add("tracestore.packed_bytes", packed.len() as f64);
    Ok((packed, report))
}

/// The serve-mix pass as a client of the running server, then the same
/// traces analyzed offline, so report round trips can be set against the
/// fit they wait for.
fn serve_mix(
    rec: &mut Recorder,
    c: &mut Counters,
    tally: &mut Tally,
    args: &ChildArgs<'_>,
) -> Result<(), String> {
    let traces = rec.time("setup.load", || workloads::load_serve_traces(args.work))?;
    let mut client = ServeClient::connect(args.addr).map_err(|e| e.to_string())?;
    let before = client.stats().map_err(|e| e.to_string())?;
    let mut close_rtt = vec![0.0; traces.len()];
    let pass = rec.enter("pass");
    for round in 0..workloads::SERVE_ROUNDS {
        let r = rec.enter("round");
        for idx in workloads::round_order(args.seed, round, traces.len()) {
            let s = rec.enter("session");
            let mut on = |req: Req, a: Instant, b: Instant| {
                let name = match req {
                    Req::Open => "serve.open",
                    Req::Blocks => "serve.blocks",
                    Req::Poll => "serve.poll",
                    Req::Close => {
                        close_rtt[idx] += (b - a).as_secs_f64();
                        "serve.close"
                    }
                    Req::Retry => {
                        c.add("serve.backpressure_retries", 1.0);
                        return;
                    }
                };
                rec.add(name, a, b);
            };
            workloads::session(&mut client, &traces[idx], tally, &mut on);
            rec.exit(s);
        }
        rec.exit(r);
    }
    rec.exit(pass);
    let after = client.stats().map_err(|e| e.to_string())?;
    drop(client);
    for (name, a, b) in [
        ("serve.frames", after.frames, before.frames),
        ("serve.events", after.events, before.events),
        ("serve.bytes", after.bytes, before.bytes),
        ("serve.polls", after.polls, before.polls),
        ("serve.frame_errors", after.frame_errors, before.frame_errors),
        ("serve.sessions_opened", after.sessions_opened, before.sessions_opened),
    ] {
        c.add(name, a.saturating_sub(b) as f64);
    }

    // Offline: what the server's Close has to compute, timed here.
    let mut overhead_ms = Vec::new();
    for (t, close) in traces.iter().zip(&close_rtt) {
        let trace = t.trace();
        let shape = MeshConfig::for_nodes(trace.nodes()).shape;
        let fit_before = rec.spans.len();
        let a = analyze(rec, c, &trace, shape, 1)?;
        let report = rec.time("core.report", || analysis_report(&a, "trace"));
        tally.check(report == t.reference, || format!("offline report differs for {}", t.name));
        let offline: f64 = rec.spans[fit_before..]
            .iter()
            .filter(|s| s.name == "core.fit" || s.name == "core.report")
            .map(Span::secs)
            .sum();
        let mean_close = close / workloads::SERVE_ROUNDS as f64;
        overhead_ms.push((mean_close - offline) * 1e3);
    }
    c.add(
        "serve.report_overhead_ms",
        overhead_ms.iter().sum::<f64>() / overhead_ms.len().max(1) as f64,
    );
    Ok(())
}

/// Structural spans: their self time is work no layer span covers.
const STRUCTURE: [&str; 6] = ["pass", "cell", "round", "session", "pack", "stream"];

/// Per-layer metrics of one traced pass (see README.md for the
/// catalogue). `_s` values are host seconds summed over the layer's
/// spans; counters are deterministic work counts.
pub fn layer_metrics(kind: Kind, report: &Json) -> BTreeMap<String, f64> {
    let spans: Vec<Span> = report
        .get("spans")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|s| Span {
            name: s.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
            start_ns: s.get("start_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            end_ns: s.get("end_ns").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
        })
        .collect();
    let mut c = Counters::default();
    for (k, v) in report.get("counters").map(Json::fields).unwrap_or_default() {
        if let Some(v) = v.as_f64() {
            c.add(k, v);
        }
    }
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &spans {
        *busy.entry(s.name.as_str()).or_insert(0.0) += s.secs();
    }
    let b = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let self_s = self_times(&spans);
    let other: f64 = spans
        .iter()
        .zip(&self_s)
        .filter(|(s, _)| STRUCTURE.contains(&s.name.as_str()))
        .map(|(_, t)| t)
        .sum();

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("pass.traced_s", spans.iter().filter(|s| s.name == "pass").map(Span::secs).sum());
    put("pass.other_s", other);
    for layer in [
        "spasm.run",
        "sp2.run",
        "trace.replay",
        "trace.jsonl_parse",
        "trace.extract",
        "tracestore.encode",
        "tracestore.decode",
        "core.fit",
        "core.report",
        "traffic.synth",
    ] {
        if busy.contains_key(layer) {
            put(&format!("{layer}_s"), b(layer));
        }
    }
    for (layer, metric) in [
        ("serve.blocks", "serve.blocks_rtt_s"),
        ("serve.poll", "serve.poll_rtt_s"),
        ("serve.close", "serve.close_rtt_s"),
    ] {
        if busy.contains_key(layer) {
            put(metric, b(layer));
        }
    }
    put(
        "stage.input_s",
        match kind {
            Kind::Suite => b("spasm.run") + b("sp2.run") + b("trace.replay"),
            Kind::FlitReplay => b("sp2.run") + b("trace.replay"),
            Kind::TraceStream => {
                b("trace.jsonl_parse") + b("tracestore.encode") + b("tracestore.decode")
            }
            Kind::ServeMix => b("serve.blocks"),
        },
    );
    for (k, v) in &c.0 {
        if !matches!(k.as_str(), "mesh.replayed" | "mesh.latency_sum") {
            put(k, *v);
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    put("trace.extract_events_per_s", ratio(c.get("events"), b("trace.extract")));
    put("core.fit_s_per_krun", ratio(b("core.fit"), c.get("stats.gap_runs") / 1e3));
    if c.get("spasm.messages") > 0.0 {
        put("spasm.msgs_per_s", ratio(c.get("spasm.messages"), b("spasm.run")));
    }
    if c.get("mesh.replayed") > 0.0 {
        put("mesh.mean_latency_ticks", ratio(c.get("mesh.latency_sum"), c.get("mesh.replayed")));
        put("mesh.replay_flits_per_s", ratio(c.get("mesh.flits"), b("trace.replay")));
    }
    if c.get("tracestore.packed_bytes") > 0.0 {
        put("tracestore.bytes_per_event", ratio(c.get("tracestore.packed_bytes"), c.get("events")));
    }
    if c.get("traffic.synth_events") > 0.0 {
        put("traffic.synth_ratio", ratio(c.get("traffic.synth_events"), c.get("events")));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_cell_is_one_failed_op_and_the_pass_goes_on() {
        // `3d-fft` at 64 ranks panics inside the kernel ("ranks must evenly
        // divide z-planes"); the next cell must still run.
        let bad = cell_matrix(&[AppId::Fft3d], &[64], &[Scale::Tiny], 1)[0];
        let good = cell_matrix(&[AppId::Halo], &[4], &[Scale::Tiny], 1)[0];
        let (mut rec, mut c, mut tally) =
            (Recorder::default(), Counters::default(), Tally::default());
        let results = run_cells(&mut rec, &mut c, &mut tally, &[bad, good]);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(
            tally.notes[0].contains("3d-fft p64") && tally.notes[0].contains("z-planes"),
            "{:?}",
            tally.notes
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].cell.app, AppId::Halo);
        assert!(c.get("sp2.messages") > 0.0);
        // Every span the panic left open was closed with its cell.
        assert!(rec.open.is_empty());
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn layer_metrics_split_a_pass_into_layers_and_other() {
        let span = |name: &str, start: u64, end: u64, parent: Option<usize>| {
            Json::obj()
                .with("name", name)
                .with("start_ns", start)
                .with("end_ns", end)
                .with("parent", parent)
        };
        let report = Json::obj()
            .with(
                "spans",
                vec![
                    span("pass", 0, 1_000_000, None),
                    span("cell", 0, 900_000, Some(0)),
                    span("spasm.run", 0, 600_000, Some(1)),
                    span("trace.extract", 600_000, 700_000, Some(1)),
                    span("core.fit", 700_000, 800_000, Some(1)),
                    span("core.report", 900_000, 950_000, Some(0)),
                ],
            )
            .with("counters", Json::obj().with("events", 1000.0).with("stats.gap_runs", 500.0));
        let m = layer_metrics(Kind::Suite, &report);
        let close = |k: &str, v: f64| assert!((m[k] - v).abs() < 1e-12, "{k} = {} not {v}", m[k]);
        close("pass.traced_s", 1e-3);
        // pass self 50 µs + cell self 100 µs.
        close("pass.other_s", 150e-6);
        close("stage.input_s", 600e-6);
        close("trace.extract_events_per_s", 1000.0 / 100e-6);
        close("core.fit_s_per_krun", 100e-6 / 0.5);
        assert!(!m.contains_key("trace.replay_s"));
    }
}
