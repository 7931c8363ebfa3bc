//! The `commchar` command-line tool: run applications, characterize
//! workloads, save/load traces, generate synthetic traffic and replay it.
//!
//! All command functions return the report text so they can be tested; the
//! binary (`src/main.rs`) only parses arguments and prints.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};

use commchar_apps::{AppId, Scale};
use commchar_core::analyze::{try_analyze_blocks, try_analyze_trace};
use commchar_core::report::{analysis_report, network_line, suite_table, suite_timing};
use commchar_core::suite::SuiteRunner;
use commchar_core::{acquire, characterize, synthesize, RunError, RunSpec, Workload};
use commchar_mesh::{EngineKind, MeshConfig, NetTally, Routing, Topology};
use commchar_serve::{ServeClient, ServeError};
use commchar_trace::replay::CausalReplayer;
use commchar_trace::{CommEvent, CommTrace, JsonlWriter};
use commchar_tracestore::{
    encode_event_block, FileReader, PackedReader, StreamBlockReader, TraceFile, TraceStoreError,
    TraceWriter, DEFAULT_BLOCK_LEN,
};

/// Error type for CLI operations.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        CliError(e.to_string())
    }
}

impl From<TraceStoreError> for CliError {
    fn from(e: TraceStoreError) -> Self {
        CliError(e.to_string())
    }
}

/// Writes `bytes` to stdout and flushes them. A stdout whose reader has
/// gone is an error here, where `print!` would panic.
///
/// # Errors
///
/// `writing stdout: …` with the I/O error.
pub fn write_stdout(bytes: &[u8]) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(bytes)
        .and_then(|()| stdout.flush())
        .map_err(|e| CliError(format!("writing stdout: {e}")))
}

/// Writes `text` to `out` all or nothing, as `trace pack` writes, or to
/// stdout through [`write_stdout`].
///
/// # Errors
///
/// A failure writing `out` (which leaves an existing `out` as it was) or
/// stdout.
pub fn emit(text: &str, out: Option<&str>) -> Result<(), CliError> {
    match out {
        Some(path) => replace_file(path, |w| {
            w.write_all(text.as_bytes()).map_err(|e| CliError(format!("writing {path}: {e}")))
        }),
        None => write_stdout(text.as_bytes()),
    }
}

/// Writes `text` to stderr, ignoring a failed write: a diagnostic whose
/// reader has gone is lost, where `eprint!` would panic.
pub fn write_stderr(text: &str) {
    let _ = std::io::stderr().lock().write_all(text.as_bytes());
}

/// Parses an application name (see [`AppId::name`]).
///
/// # Errors
///
/// Returns an error naming the valid applications otherwise.
pub fn parse_app(name: &str) -> Result<AppId, CliError> {
    AppId::all().iter().copied().find(|a| a.name() == name).ok_or_else(|| {
        let names: Vec<&str> = AppId::all().iter().map(|a| a.name()).collect();
        CliError(format!("unknown application {name:?}; expected one of {names:?}"))
    })
}

/// Parses a scale name (`tiny|small|full`).
///
/// # Errors
///
/// Returns an error naming the valid scales otherwise.
pub fn parse_scale(s: &str) -> Result<Scale, CliError> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(CliError(format!("unknown scale {other:?} (tiny|small|full)"))),
    }
}

/// Parses an engine name (`recurrence|flit`).
///
/// # Errors
///
/// Returns an error naming the valid engines otherwise.
pub fn parse_engine(s: &str) -> Result<EngineKind, CliError> {
    EngineKind::parse(s).ok_or_else(|| CliError(format!("unknown engine {s:?} (recurrence|flit)")))
}

/// Parses a topology name (`mesh|torus`).
///
/// # Errors
///
/// Returns an error naming the valid topologies otherwise.
pub fn parse_topology(s: &str) -> Result<Topology, CliError> {
    Topology::parse(s).ok_or_else(|| CliError(format!("unknown topology {s:?} (mesh|torus)")))
}

/// Parses a routing-policy name (`dimension|adaptive`).
///
/// # Errors
///
/// Returns an error naming the valid policies otherwise.
pub fn parse_routing(s: &str) -> Result<Routing, CliError> {
    Routing::parse(s).ok_or_else(|| CliError(format!("unknown routing {s:?} (dimension|adaptive)")))
}

/// Renders a workload signature as the standard report, fanning the
/// per-source spatial classifications over `jobs` worker threads (`0` =
/// one per hardware thread; the report is byte-identical for any value).
/// The report prints the aggregate inter-arrival fit only, so no source
/// is fitted.
///
/// # Errors
///
/// A [`CliError`] (instead of a panic) when the trace is empty or has too
/// few inter-arrival gaps to fit — see [`commchar_core::CharError`].
pub fn report_signature(w: &Workload, jobs: usize) -> Result<String, CliError> {
    let sig = characterize(w, jobs).map_err(|e| CliError(e.to_string()))?;
    Ok(commchar_core::report::signature_report(&sig))
}

/// `commchar run <app>`: run the application `spec` describes and return
/// (report, trace).
pub fn cmd_run(spec: RunSpec) -> Result<(String, CommTrace), CliError> {
    let w = acquire(&spec)?;
    let report = format!(
        "ran {} on {} processors: {} messages, {} ticks\n",
        w.name,
        w.nprocs,
        w.trace.len(),
        w.exec_ticks
    );
    Ok((report, w.trace))
}

/// `commchar characterize <app> [--jobs N]`: full signature report for an
/// application. `jobs` parallelizes the per-source spatial
/// classifications; the report text does not depend on it.
pub fn cmd_characterize_app(spec: RunSpec, jobs: usize) -> Result<String, CliError> {
    report_signature(&acquire(&spec)?, jobs)
}

/// `commchar characterize --trace FILE [--jobs N]`: signature report for
/// a saved trace (replayed causally through a fitted-size network of
/// `spec`'s topology, routing policy and engine; the rest of `spec` is
/// unused). Accepts either trace format, sniffed by magic bytes. `jobs`
/// workers read the file through [`TraceFile`] and classify the sources'
/// spatial distributions; the report text does not depend on it.
pub fn cmd_characterize_trace(path: &str, jobs: usize, spec: RunSpec) -> Result<String, CliError> {
    let trace = load_trace_file(path, jobs)?;
    let (mesh, network) = replay(&trace, spec)?;
    let w = Workload {
        name: "trace".to_string(),
        class: commchar_apps::AppClass::MessagePassing,
        nprocs: trace.nodes(),
        mesh,
        trace,
        exec_ticks: network.span(),
        network,
    };
    report_signature(&w, jobs)
}

/// `commchar characterize --trace FILE --no-replay [--jobs N]`: trace-only
/// analysis report — the temporal / spatial / volume attributes without
/// the network-behaviour section (no causal replay is run). Accepts
/// either trace format, sniffed by magic bytes, read through [`TraceFile`]
/// on `jobs` workers. This is the in-memory twin of
/// [`cmd_characterize_stream`]; for the same valid events the two render
/// byte-identical text, which is what the streaming smoke test in
/// `scripts/check.sh` diffs.
pub fn cmd_characterize_trace_only(path: &str, jobs: usize) -> Result<String, CliError> {
    let trace = load_trace_file(path, jobs)?;
    let shape = MeshConfig::for_nodes(trace.nodes()).shape;
    let a = try_analyze_trace(&trace, shape, jobs).map_err(|e| CliError(e.to_string()))?;
    Ok(analysis_report(&a, "trace"))
}

/// `commchar characterize --trace FILE --stream [--jobs N] [--block-jobs
/// N]`: out-of-core analysis of a *packed* trace file. Each of
/// `block_jobs` workers reads, condenses and folds blocks into its own
/// tally while this thread stitches the blocks in file order, so memory
/// stays bounded by the tallies and a few blocks per worker — the trace
/// is never materialized, unless it comes from a pipe, which is read
/// whole first. Each block is checked (checksum, decode, node range, time
/// order), but not the trace-wide invariants
/// [`cmd_characterize_trace_only`] checks, unique ids and known earlier
/// dependencies, which would need 16 bytes per event. For a valid trace
/// the report is byte-identical to [`cmd_characterize_trace_only`] on the
/// same events (and, like it, omits the network-behaviour section, which
/// would need an O(events) replay).
pub fn cmd_characterize_stream(
    path: &str,
    jobs: usize,
    block_jobs: usize,
) -> Result<String, CliError> {
    let reader = FileReader::open(path).map_err(reading(path))?;
    let shape = MeshConfig::for_nodes(reader.nodes()).shape;
    let a = try_analyze_blocks(&reader, shape, jobs, block_jobs)
        .map_err(|e| CliError(e.to_string()))?;
    Ok(analysis_report(&a, "trace"))
}

/// `commchar generate <app>`: fit an application and produce a synthetic
/// trace of the same span, seeded by `spec.seed`. The acquired workload
/// is dropped before the synthetic trace is generated, so one trace is
/// held at a time.
pub fn cmd_generate_trace(spec: RunSpec) -> Result<CommTrace, CliError> {
    let w = acquire(&spec)?;
    let sig = characterize(&w, 1).map_err(RunError::from)?;
    let (span, mesh) = (w.network.span().max(1), w.mesh);
    drop(w);
    Ok(synthesize(&sig, mesh).generate(span, spec.seed))
}

/// Causally replays `trace` through a network sized for it with `spec`'s
/// topology, routing policy, engine and simulator shards, folding every
/// delivered message into a [`NetTally`].
fn replay(trace: &CommTrace, spec: RunSpec) -> Result<(MeshConfig, NetTally), CliError> {
    let mesh = MeshConfig::for_nodes_net(trace.nodes(), spec.topology, spec.routing);
    let tally = CausalReplayer::new(mesh)
        .try_replay_into(trace, spec.engine, spec.sim_jobs, NetTally::new())
        .map_err(|e| CliError(e.to_string()))?;
    Ok((mesh, tally))
}

/// `commchar replay --trace FILE [--jobs N]`: causal replay through the
/// chosen engine beside the naive comparison, which always uses the
/// recurrence model as the fixed open-loop baseline. Each run's summary
/// prints as the network-behaviour line of `characterize --trace`
/// ([`network_line`]), then the causal run's per-source injection
/// inter-arrival moments. Neither run keeps a per-message record; the
/// trace is loaded whole and the replayer keeps state for every event.
/// Accepts either trace format, sniffed by magic bytes, read through
/// [`TraceFile`] on `jobs` workers.
pub fn cmd_replay(path: &str, jobs: usize, spec: RunSpec) -> Result<String, CliError> {
    let trace = load_trace_file(path, jobs)?;
    let (mesh, causal) = replay(&trace, spec)?;
    let naive = CausalReplayer::new(mesh).replay_naive(&trace, NetTally::new()).summary();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} messages on a {} -node {}{}",
        causal.messages(),
        trace.nodes(),
        spec.topology.name(),
        if spec.engine == EngineKind::FlitLevel { " (flit engine)" } else { "" }
    );
    let _ = writeln!(out, "causal: {}", network_line(&causal.summary()));
    let _ = writeln!(out, "naive : {}", network_line(&naive));
    let gaps = causal.interarrival();
    let _ = writeln!(out, "inter-arrival: mean {:.1}, cv {:.2}", gaps.mean(), gaps.cv());
    Ok(out)
}

/// Writes `path` all or nothing: `write` fills a temporary file beside
/// it, which replaces `path` only once `write` and the final flush have
/// succeeded. On failure the temporary file is removed, so no new file
/// appears and an existing `path` is left as it was; `path` may also be
/// a file `write` is reading, which stays open. The directory holding
/// `path` must therefore be writable. A replaced file keeps its
/// permissions, and on Unix its owner and group where the user may set
/// them (otherwise the new file is the user's). A symbolic link is
/// followed, and the file it names is replaced. A `path` that exists but
/// is not a regular file — a device such as `/dev/null`, a pipe — cannot
/// be replaced, so `write` writes straight into it. Nothing is synced to
/// disk: this guards against a failed command, not a crashed machine.
///
/// # Errors
///
/// `write`'s error, or an I/O failure creating, flushing or renaming the
/// file, named as a failure writing `path`.
fn replace_file(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let failed = |e: std::io::Error| CliError(format!("writing {path}: {e}"));
    let (target, old) = match std::fs::metadata(path) {
        Ok(meta) if !meta.is_file() => {
            let mut out = BufWriter::new(File::create(path).map_err(failed)?);
            write(&mut out)?;
            return out.flush().map_err(failed);
        }
        Ok(meta) => (std::fs::canonicalize(path).map_err(failed)?, Some(meta)),
        Err(_) => (std::path::PathBuf::from(path), None),
    };
    let mut tmp = target.clone().into_os_string();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let mut out = BufWriter::new(File::create(&tmp).map_err(failed)?);
    let result = write(&mut out).and_then(|()| {
        let file = out.into_inner().map_err(|e| failed(e.into_error()))?;
        if let Some(meta) = old {
            // Best effort: only root may give a file to another user.
            #[cfg(unix)]
            {
                use std::os::unix::fs::MetadataExt;
                let _ = std::os::unix::fs::fchown(&file, Some(meta.uid()), Some(meta.gid()));
            }
            file.set_permissions(meta.permissions()).map_err(failed)?;
        }
        drop(file);
        std::fs::rename(&tmp, &target).map_err(failed)
    });
    if result.is_err() {
        // The error at hand is the one to report.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Names `path` in an I/O error reading it.
fn reading(path: &str) -> impl Fn(TraceStoreError) -> CliError + '_ {
    move |e| match e {
        TraceStoreError::Io(e) => CliError(format!("reading {path}: {e}")),
        e => e.into(),
    }
}

/// Opens a trace file for one streaming pass, naming `path` in an I/O
/// error.
fn open_trace(path: &str) -> Result<TraceFile<'static>, CliError> {
    TraceFile::open(path).map_err(reading(path))
}

/// Reads the trace file at `path` whole: [`TraceFile`]'s event loop on
/// `jobs` workers (`0` = one per hardware thread), which parse the
/// JSON-lines chunks or decode the blocks while this thread checks the
/// events in file order, as `trace pack` reads. The file itself is never
/// held, and the trace and the error are the same for any `jobs`: the
/// ones [`load_trace`](commchar_tracestore::load_trace) gives for the
/// same bytes.
fn load_trace_file(path: &str, jobs: usize) -> Result<CommTrace, CliError> {
    Ok(open_trace(path)?.into_trace(jobs)?)
}

/// The events per block a `--block-len` value asks for: `0` means the
/// packed format's default, [`DEFAULT_BLOCK_LEN`], for `trace pack`,
/// `--packed` output and `serve-feed` alike.
fn events_per_block(block_len: usize) -> usize {
    if block_len == 0 {
        DEFAULT_BLOCK_LEN
    } else {
        block_len
    }
}

/// Names `path` in an error writing it.
fn writing<E: Into<TraceStoreError>>(path: &str) -> impl Fn(E) -> CliError + '_ {
    move |e| match e.into() {
        // The bare OS error, as every other failed write names it.
        TraceStoreError::Io(e) => CliError(format!("writing {path}: {e}")),
        e => CliError(format!("writing {path}: {e}")),
    }
}

/// `commchar trace pack FILE --out OUT [--block-len N] [--jobs N]`:
/// convert a trace (either format) to the packed columnar binary format,
/// `block_len` events per block (`0` = the format default). The input
/// streams through a [`TraceFile`] into a [`TraceWriter`]: `jobs` workers
/// (`0` = one per hardware thread) parse the JSON-lines chunks or decode
/// the blocks, and this thread checks and writes the events in input
/// order, so memory holds a few chunks or blocks per worker and the trace
/// checker's lists, never the trace, and the output is the same for any
/// `jobs`. The output goes to a temporary file beside `out` and replaces
/// it only once the whole input has checked out: a failed pack leaves no
/// new file and an existing `out` as it was, and `out` may be the input
/// itself.
///
/// # Errors
///
/// The input's first error, as [`load_trace`](commchar_tracestore::load_trace) names it, or a
/// failure writing `out`.
pub fn cmd_trace_pack(
    input: &str,
    out: &str,
    block_len: usize,
    jobs: usize,
) -> Result<(), CliError> {
    let src = open_trace(input)?;
    replace_file(out, |sink| {
        let mut w = TraceWriter::with_block_len(sink, src.nodes(), events_per_block(block_len))
            .map_err(writing(out))?;
        src.for_each_event(jobs, |e| w.push(e).map_err(writing(out)))?;
        w.finish().map_err(writing(out))?;
        Ok(())
    })
}

/// `run` and `generate`'s `--out OUT`: writes `trace` to `out` all or
/// nothing, as `trace pack` writes — packed with `block_len` events per
/// block (`0` = the format default), or as JSON-lines.
///
/// # Errors
///
/// A failure writing `out`, which leaves an existing `out` as it was.
pub fn save_trace(
    trace: &CommTrace,
    out: &str,
    packed: bool,
    block_len: usize,
) -> Result<(), CliError> {
    replace_file(out, |sink| write_trace(trace, sink, out, packed, block_len))
}

/// `generate` without `--out`: writes `trace` to stdout as JSON-lines, a
/// buffer at a time, without building the whole text in memory.
///
/// # Errors
///
/// `writing stdout: …` with the I/O error.
pub fn print_trace(trace: &CommTrace) -> Result<(), CliError> {
    write_trace(trace, &mut BufWriter::new(std::io::stdout().lock()), "stdout", false, 0)
}

/// Writes `trace` to `sink` — packed with `block_len` events per block
/// (`0` = the format default), or as JSON-lines — naming `name` in an
/// error.
fn write_trace(
    trace: &CommTrace,
    sink: &mut impl Write,
    name: &str,
    packed: bool,
    block_len: usize,
) -> Result<(), CliError> {
    if packed {
        let mut w = TraceWriter::with_block_len(sink, trace.nodes(), events_per_block(block_len))
            .map_err(writing(name))?;
        trace.events().iter().try_for_each(|&e| w.push(e)).map_err(writing(name))?;
        w.finish().map_err(writing(name))?;
    } else {
        let mut w = JsonlWriter::new(sink, trace.nodes()).map_err(writing(name))?;
        trace.events().iter().try_for_each(|e| w.push(e)).map_err(writing(name))?;
        w.finish().map_err(writing(name))?;
    }
    Ok(())
}

/// `commchar trace cat FILE [--out OUT] [--jobs N]`: print a trace
/// (either format) as JSON-lines — the inverse of `trace pack`, reading
/// on `jobs` workers as it does — to `out`, all or nothing as `trace
/// pack` writes it, or to stdout. Stdout cannot be taken back,
/// so an invalid trace must print nothing there: a regular file is
/// checked in a first pass and written in a second, which skips the
/// trace invariants the first has checked, and anything else (a pipe,
/// read once) is written to memory and printed once it has checked out.
///
/// # Errors
///
/// The input's first error, as [`load_trace`](commchar_tracestore::load_trace) names it, or a
/// failure writing the output.
pub fn cmd_trace_cat(input: &str, out: Option<&str>, jobs: usize) -> Result<(), CliError> {
    let cat = |sink: &mut dyn Write, name: &str, prechecked: bool| {
        let src = open_trace(input)?;
        let failed = |e: std::io::Error| CliError(format!("writing {name}: {e}"));
        let mut w = JsonlWriter::new(sink, src.nodes()).map_err(failed)?;
        let push = |e: CommEvent| w.push(&e).map_err(failed);
        if prechecked {
            src.for_each_event_unchecked(jobs, push)?;
        } else {
            src.for_each_event(jobs, push)?;
        }
        w.finish().map_err(failed)?;
        Ok(())
    };
    if let Some(path) = out {
        return replace_file(path, |w| cat(w, path, false));
    }
    let meta = std::fs::metadata(input).map_err(|e| CliError(format!("reading {input}: {e}")))?;
    if meta.is_file() {
        open_trace(input)?.for_each_event(jobs, |_| Ok::<_, CliError>(()))?;
        return cat(&mut BufWriter::new(std::io::stdout().lock()), "stdout", true);
    }
    let mut text = Vec::new();
    cat(&mut text, "stdout", false)?;
    write_stdout(&text)
}

/// A sink that only counts the bytes written to it.
#[derive(Debug, Default)]
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Blocks listed individually by `trace stat` before it switches to the
/// min/max/mean summary line (a multi-GB trace has millions of blocks).
const STAT_BLOCKS_LISTED: usize = 16;

/// `trace stat`'s lines about a packed file's block index.
fn block_stats(reader: &PackedReader) -> String {
    let mut out = String::new();
    let nb = reader.block_count();
    let _ = writeln!(out, "blocks      : {nb}");
    for b in 0..nb.min(STAT_BLOCKS_LISTED) {
        let _ = writeln!(
            out,
            "  block {b:>4}: {:>8} events, {:>10} payload bytes",
            reader.block_records(b),
            reader.block_payload_len(b)
        );
    }
    if nb > STAT_BLOCKS_LISTED {
        let _ = writeln!(out, "  … {} more blocks", nb - STAT_BLOCKS_LISTED);
    }
    if nb > 0 {
        let (mut min_e, mut max_e, mut payload) = (usize::MAX, 0usize, 0u64);
        for b in 0..nb {
            let c = reader.block_records(b);
            min_e = min_e.min(c);
            max_e = max_e.max(c);
            payload += reader.block_payload_len(b) as u64;
        }
        let _ = writeln!(
            out,
            "  per block : {min_e}..={max_e} events, mean {:.1} payload bytes",
            payload as f64 / nb as f64
        );
    }
    out
}

/// `commchar trace stat <file>`: summarize a trace file — format, nodes,
/// event and kind counts, time span, and the packed-vs-JSONL size ratio.
/// For packed input the block index is broken out too: per-block event
/// counts and payload (decoded) byte sizes, individually for the first
/// sixteen blocks and as a min/max/mean summary overall. One streaming
/// pass does it all: the JSON-lines size is counted as `trace cat` would
/// write each event, and for JSON-lines input the packed size as
/// `trace pack` would write it, read on `jobs` workers as `trace pack`
/// reads.
///
/// # Errors
///
/// The input's first error, as [`load_trace`](commchar_tracestore::load_trace) names it.
pub fn cmd_trace_stat(input: &str, jobs: usize) -> Result<String, CliError> {
    let src = open_trace(input)?;
    let nodes = src.nodes();
    let (format, blocks, file_len, mut packed) = match &src {
        TraceFile::Packed(r) => ("packed (CCTRACE1)", block_stats(r), r.byte_len(), None),
        TraceFile::Jsonl(_) => {
            ("jsonl", String::new(), 0, Some(TraceWriter::new(ByteCount(0), nodes)?))
        }
    };
    let mut jsonl = JsonlWriter::new(ByteCount(0), nodes).map_err(TraceStoreError::from)?;
    let (mut events, mut kinds, mut span) = (0usize, [0usize; 3], (u64::MAX, 0u64));
    src.for_each_event(jobs, |e| {
        events += 1;
        kinds[e.kind as usize] += 1;
        span = (span.0.min(e.t), span.1.max(e.t));
        jsonl.push(&e)?;
        match &mut packed {
            Some(w) => w.push(e),
            None => Ok(()),
        }
    })?;
    let jsonl_len = jsonl.finish().map_err(TraceStoreError::from)?.0;
    let packed_len = match packed {
        Some(w) => w.finish()?.0,
        None => file_len,
    };
    let mut out = String::new();
    let _ = writeln!(out, "format      : {format}");
    let _ = writeln!(out, "nodes       : {nodes}");
    let _ = writeln!(out, "events      : {events}");
    let _ =
        writeln!(out, "kinds       : {} control, {} data, {} sync", kinds[0], kinds[1], kinds[2]);
    if events > 0 {
        let _ = writeln!(out, "span        : ticks {} ..= {}", span.0, span.1);
    }
    out.push_str(&blocks);
    let _ = writeln!(out, "jsonl bytes : {jsonl_len}");
    let _ = writeln!(out, "packed bytes: {packed_len}");
    if packed_len > 0 {
        let _ = writeln!(out, "ratio       : {:.2}x", jsonl_len as f64 / packed_len as f64);
    }
    Ok(out)
}

/// `commchar serve-feed --trace FILE --addr HOST:PORT [--block-len N]
/// [--poll-every N] [--shutdown]`: the client driver — replays the saved
/// trace at `path` (either format) through a running characterization
/// server as CCTRACE1 block frames of `block_len` events (`0` = the
/// packed format's default)
/// and returns `(final_report, status)`. The final report is the
/// server's `CloseSession` response, byte-identical to `characterize
/// --trace FILE --no-replay` on the same events (the `check.sh` serve
/// smoke diffs exactly that). `poll_every > 0` also polls a live report
/// every that many blocks — exercising mid-stream convergence — and
/// `shutdown` asks the server to exit afterwards. The status line
/// (block/poll counts) belongs on stderr.
///
/// The file is read on the calling thread. The wire wants time order,
/// and nothing goes out before the trace has checked out as
/// [`load_trace`](commchar_tracestore::load_trace) checks it. A regular
/// file is checked, and its time order found, in a first pass; in order,
/// it streams in a second pass one block at a time, the rule `trace cat`
/// follows for stdout. Out-of-order input, or a pipe (read once), is read
/// whole through [`TraceFile`] and stable-sorted by time, as the offline
/// driver sorts it.
///
/// # Errors
///
/// The file's first error, as
/// [`load_trace`](commchar_tracestore::load_trace) names it, or any
/// server/connection failure.
pub fn cmd_serve_feed(
    addr: &str,
    path: &str,
    block_len: usize,
    poll_every: usize,
    shutdown: bool,
) -> Result<(String, String), CliError> {
    let block_len = events_per_block(block_len);
    let meta = std::fs::metadata(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    if meta.is_file() {
        let src = open_trace(path)?;
        let nodes = src.nodes();
        let (mut last, mut in_order) = (0, true);
        src.for_each_event(1, |e| {
            in_order &= e.t >= last;
            last = e.t;
            Ok::<_, CliError>(())
        })?;
        if in_order {
            return feed(addr, nodes, "the trace", poll_every, shutdown, |send| {
                let mut chunk = Vec::new();
                open_trace(path)?.for_each_event_unchecked(1, |e| {
                    chunk.push(e);
                    if chunk.len() < block_len {
                        return Ok(());
                    }
                    let block = encode_event_block(&chunk);
                    chunk.clear();
                    send(block)
                })?;
                if chunk.is_empty() {
                    Ok(())
                } else {
                    send(encode_event_block(&chunk))
                }
            });
        }
    }
    let trace = load_trace_file(path, 1)?;
    let nodes = trace.nodes();
    let mut events = trace.into_events();
    if !events.is_sorted_by_key(|e| e.t) {
        events.sort_by_key(|e| e.t);
    }
    feed(addr, nodes, "the trace", poll_every, shutdown, |send| {
        events.chunks(block_len).try_for_each(|chunk| send(encode_event_block(chunk)))
    })
}

/// `commchar serve-feed --trace - [--addr HOST:PORT] [--poll-every N]
/// [--shutdown]`: the streaming variant of [`cmd_serve_feed`] — reads a
/// packed CCTRACE1 event stream from `input` *incrementally* and forwards
/// each block frame to the server as it arrives, one block in memory at a
/// time, so a live producer can pipe into a serving session while still
/// writing. The producer's block framing is preserved verbatim on the
/// wire (the file and wire formats share one block codec), so
/// `--block-len` does not apply here.
///
/// # Errors
///
/// A [`CliError`] for a malformed header (a stream kind other than 1
/// included), a mid-stream checksum mismatch, a truncated pipe, or any
/// server/connection failure.
pub fn cmd_serve_feed_stream(
    addr: &str,
    input: impl std::io::Read,
    poll_every: usize,
    shutdown: bool,
) -> Result<(String, String), CliError> {
    let mut reader = StreamBlockReader::new(input)?;
    let nodes = reader.nodes();
    feed(addr, nodes, "stdin", poll_every, shutdown, |send| {
        while let Some(block) = reader.next_block()? {
            send(block)?;
        }
        Ok(())
    })
}

/// A `serve-feed` block sink: sends one block payload in its own frame.
type SendBlock<'a> = dyn FnMut(Vec<u8>) -> Result<(), CliError> + 'a;

/// The `serve-feed` session loop behind every block source: open a
/// session over `nodes`, let `blocks` send each block payload, poll every
/// `poll_every` blocks, close, optionally shut the server down, and return
/// `(final_report, status)`; `from` names the source in the status line.
fn feed(
    addr: &str,
    nodes: usize,
    from: &str,
    poll_every: usize,
    shutdown: bool,
    blocks: impl FnOnce(&mut SendBlock<'_>) -> Result<(), CliError>,
) -> Result<(String, String), CliError> {
    let to_cli = |e: ServeError| CliError(format!("serve-feed: {e}"));
    let mut client = ServeClient::connect(addr).map_err(to_cli)?;
    let session = client.open_session(nodes as u32).map_err(to_cli)?;
    let (mut sent, mut polls) = (0usize, 0usize);
    blocks(&mut |payload| {
        client.send_blocks(session, vec![payload]).map_err(to_cli)?;
        sent += 1;
        if poll_every > 0 && sent.is_multiple_of(poll_every) {
            client.poll(session).map_err(to_cli)?;
            polls += 1;
        }
        Ok(())
    })?;
    let (seen, report) = client.close_session(session).map_err(to_cli)?;
    if shutdown {
        client.shutdown_server().map_err(to_cli)?;
    }
    let status = format!(
        "streamed {sent} blocks from {from} to {addr} (session {session}, {polls} mid-stream \
         polls{}); server absorbed {seen} events\n",
        if shutdown { ", then shutdown" } else { "" },
    );
    Ok((report, status))
}

/// `commchar suite [--jobs N]`: the one-line-per-application summary, run
/// across a pool of worker threads. Returns `(table, timing)`: the table
/// is deterministic (byte-identical for any worker count, so it can be
/// diffed across runs); the timing text carries the wall-clock and
/// messages/sec figures and belongs on stderr. Any worker budget left
/// over by the cell fan-out flows down to each cell's per-source spatial
/// classifications (see [`SuiteRunner::run`]).
///
/// Every application runs on the network selected by
/// `--topology`/`--routing`; the collective-shaped workloads (allreduce,
/// halo) additionally run on every *other* (topology × routing) pair, so
/// the table always carries the network-contrast rows — the same
/// known-shape traffic characterized across dimension-ordered and
/// minimal-adaptive routing on both the mesh and the wraparound torus.
/// Every cell takes `spec`'s procs, scale, seed, engine and simulator
/// shards; `spec.app` is unused.
///
/// # Errors
///
/// The first failing cell's error, in table order (for any `jobs`).
pub fn cmd_suite(spec: RunSpec, jobs: usize) -> Result<(String, String), CliError> {
    let cell = |app| RunSpec { app, ..spec };
    let mut cells: Vec<RunSpec> = AppId::all().iter().map(|&app| cell(app)).collect();
    for app in [AppId::Allreduce, AppId::Halo] {
        for topology in [Topology::Mesh, Topology::Torus] {
            for routing in [Routing::Dimension, Routing::Adaptive] {
                if (topology, routing) != (spec.topology, spec.routing) {
                    cells.push(cell(app).with_net(topology, routing));
                }
            }
        }
    }
    let report = SuiteRunner::new(jobs).run(cells)?;
    Ok((suite_table(&report), suite_timing(&report)))
}

/// Usage text.
pub fn usage() -> String {
    "commchar — communication characterization toolkit (HPCA'97 methodology)

USAGE:
    commchar <command> [options]

COMMANDS:
    run <app> [--out FILE]        run an application, optionally saving its trace
    characterize <app>            run and print the full communication signature
    characterize --trace FILE     characterize a saved trace (causal mesh replay)
                                  (both forms accept --jobs for parallel spatial
                                  classification, and --trace also for parallel
                                  reading)
    characterize --trace FILE --no-replay
                                  trace-only report: temporal/spatial/volume, no
                                  network section (skips the causal replay)
    characterize --trace FILE --stream
                                  same report, computed block-by-block from a
                                  packed file in constant memory (out-of-core;
                                  a pipe is read whole first, as every command
                                  reads a packed pipe; accepts --block-jobs for
                                  parallel decoding and folding)
    generate <app> [--out FILE]   emit a synthetic trace from the fitted model
    replay --trace FILE           replay a saved trace causally and naively:
                                  each run's network line (latency mean,
                                  median and p95, blocked time, hops,
                                  throughput), then the causal run's
                                  per-source inter-arrival mean and cv
                                  (accepts --jobs for parallel reading)
    suite                         characterize every application in parallel, plus
                                  (topology × routing) contrast rows for the
                                  collective-shaped workloads (allreduce, halo)
                                  (run/characterize/replay/suite accept --engine,
                                  --topology and --routing)
    trace pack FILE --out FILE    convert a trace to the packed binary format
                                  (--block-len sets events per block; pack, cat
                                  and stat accept --jobs for parallel reading)
    trace cat FILE                print a trace (either format) as JSON-lines
    trace stat FILE               summarize a trace file (format, sizes, ratio,
                                  per-block event counts and payload bytes)
    serve [--addr HOST:PORT]      run the characterization server (CCSERVE1):
                                  clients stream trace blocks over TCP and poll
                                  live converging signature reports; prints
                                  \"listening on ADDR\" then serves until a
                                  Shutdown frame arrives
    serve-feed --trace FILE       replay a saved trace through a running server
                                  and print the final report (byte-identical to
                                  characterize --trace FILE --no-replay);
                                  --poll-every N polls mid-stream every N
                                  blocks, --shutdown stops the server after
    serve-feed --trace -          stream packed (CCTRACE1) blocks from stdin
                                  instead, one block in memory at a time, so a
                                  live producer can pipe into the session

OPTIONS:
    --procs N       processor count (default 8)
    --scale S       tiny | small | full (default small)
    --seed N        generation seed (default 42)
    --jobs N        worker threads for suite cells and per-source spatial
                    classification, and for reading a trace file
                    (characterize --trace, replay, trace pack / cat / stat),
                    whose workers parse JSON-lines chunks or decode blocks
                    while one thread checks and writes in input order; 0 =
                    one per hardware thread (default 0), 1 = no extra
                    thread. Output is byte-identical for any value; only
                    wall-clock changes.
    --engine E      closed-loop network engine: recurrence (channel-recurrence
                    wormhole model, default) or flit (cycle-accurate flit-level
                    router run incrementally). The recurrence default keeps
                    output byte-identical to earlier releases.
    --topology T    network topology: mesh (default) or torus. The torus adds
                    wraparound links in both dimensions; the flit engine
                    crosses its datelines on escape virtual channels, and the
                    VC budget is raised automatically to the deadlock-freedom
                    minimum of the (topology × routing) pair.
    --routing R     route computation: dimension (dimension-ordered XY,
                    default) or adaptive (minimal-adaptive: a deterministic
                    per-pair choice between the XY and YX minimal orders,
                    each running in its own virtual-channel class).
    --sim-jobs N    worker threads for the simulators themselves, on any
                    engine. Shared-memory apps (run/characterize/suite)
                    shard the execution-driven CC-NUMA simulator into
                    source-contiguous processor bands run as a
                    conservative-window wavefront; with --engine flit the
                    mesh router is additionally partitioned into row bands
                    the same way. 1 = serial (default), 0 = one per
                    hardware thread. Event-identical: output is
                    byte-identical for any value.
    --stream        characterize a packed trace block-by-block (bounded
                    memory; checks each block, not unique ids or
                    dependencies across the trace)
    --no-replay     characterize without the network-behaviour section
    --block-jobs N  worker threads under --stream, each decoding blocks and
                    folding their order-free statistics into its own tally
                    while one thread stitches the blocks in file order; 0 =
                    one per hardware thread (default 0), 1 = no extra thread.
                    Byte-identical for any value.
    --block-len N   events per block for trace pack / --packed output
                    (default 4096)
    --packed        write run/generate trace output in the packed binary format
    --out FILE      write trace output to FILE instead of stdout. run, generate,
                    trace pack and trace cat write it all or nothing, through a
                    temporary file beside FILE, so FILE's directory must be
                    writable; a failed write leaves an existing FILE as it was.
    --addr A        serve / serve-feed: address to bind / connect to
                    (default 127.0.0.1:7411; serve accepts :0 for an
                    ephemeral port and prints the bound address)
    --serve-workers N
                    serve: connection worker threads; 0 = one per hardware
                    thread (default 0)
    --session-buffer N
                    serve: largest total block payload of one frame, bytes;
                    a larger frame is answered with a Backpressure frame
                    (default 64 MiB)
    --idle-timeout N
                    serve: evict sessions idle longer than N seconds
                    (default 300)
    --poll-every N  serve-feed: poll a live report every N blocks (default
                    0 = only the final CloseSession report)
    --shutdown      serve-feed: send a Shutdown frame after closing

The suite table and the characterize reports are deterministic: any --jobs
value produces byte-identical stdout; wall-clock and messages/sec figures
go to stderr.

Trace files may be JSON-lines or the packed columnar format (CCTRACE1);
every command that reads a trace sniffs the format from the magic bytes,
and reads a packed trace from a pipe whole first.

APPLICATIONS:
    1d-fft is cholesky nbody maxflow 3d-fft mg allreduce halo
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-scale run of `app` on 4 processors with seed 1, on the
    /// default network and engine.
    fn tiny(app: AppId) -> RunSpec {
        RunSpec::new(app, 4, Scale::Tiny, 1)
    }

    /// Flags for the trace commands (the application is unused there).
    fn net(topology: Topology, routing: Routing, engine: EngineKind) -> RunSpec {
        RunSpec { engine, ..tiny(AppId::Is).with_net(topology, routing) }
    }

    const REC: EngineKind = EngineKind::Recurrence;
    const MESH: Topology = Topology::Mesh;
    const DIM: Routing = Routing::Dimension;

    /// A scratch file path unique to this test process and `name`.
    fn scratch(name: &str) -> String {
        let file = format!("commchar-cli-{}-{name}", std::process::id());
        std::env::temp_dir().join(file).to_string_lossy().into_owned()
    }

    /// Writes `bytes` to the scratch file `name`, returning its path.
    fn scratch_file(name: &str, bytes: &[u8]) -> String {
        let path = scratch(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// `f` run on the path of the scratch file `name`, which holds `bytes`
    /// until `f` returns.
    fn with_file<T>(name: &str, bytes: &[u8], f: impl FnOnce(&str) -> T) -> T {
        let path = scratch_file(name, bytes);
        let result = f(&path);
        std::fs::remove_file(&path).unwrap();
        result
    }

    /// A trace file's bytes, the file then removed.
    fn take(path: &str) -> Vec<u8> {
        let bytes = std::fs::read(path).unwrap();
        std::fs::remove_file(path).unwrap();
        bytes
    }

    /// `trace pack` from bytes to bytes, through scratch files `name.*`.
    fn pack(name: &str, input: &[u8], block_len: usize) -> Vec<u8> {
        let (src, out) =
            (scratch_file(&format!("{name}.in"), input), scratch(&format!("{name}.cct")));
        cmd_trace_pack(&src, &out, block_len, 0).unwrap();
        std::fs::remove_file(&src).unwrap();
        take(&out)
    }

    /// `trace cat` from bytes, through scratch files `name.*`.
    fn cat(name: &str, input: &[u8]) -> Result<Vec<u8>, CliError> {
        let (src, out) =
            (scratch_file(&format!("{name}.in"), input), scratch(&format!("{name}.jsonl")));
        let result = cmd_trace_cat(&src, Some(&out), 0);
        std::fs::remove_file(&src).unwrap();
        result.map(|()| take(&out))
    }

    /// `trace stat` of bytes, through the scratch file `name`.
    fn stat(name: &str, input: &[u8]) -> String {
        let src = scratch_file(name, input);
        let text = cmd_trace_stat(&src, 0).unwrap();
        std::fs::remove_file(&src).unwrap();
        text
    }

    #[test]
    fn run_and_characterize_app() {
        let (report, trace) = cmd_run(tiny(AppId::Is)).unwrap();
        assert!(report.contains("ran is on 4 processors"));
        assert!(!trace.is_empty());
        let sig = cmd_characterize_app(tiny(AppId::Is), 1).unwrap();
        assert!(sig.contains("temporal attribute"));
        assert!(sig.contains("spatial attribute"));
        assert!(sig.contains("volume attribute"));
    }

    #[test]
    fn sim_jobs_does_not_change_dynamic_strategy_output() {
        // The sharded execution-driven simulator must be invisible in the
        // CLI's output: same run report, same trace, same signature.
        let sharded = |spec| RunSpec { sim_jobs: 4, ..spec };
        let (rep_s, tr_s) = cmd_run(tiny(AppId::Is)).unwrap();
        let (rep_p, tr_p) = cmd_run(sharded(tiny(AppId::Is))).unwrap();
        assert_eq!(rep_s, rep_p);
        assert_eq!(tr_s.to_jsonl(), tr_p.to_jsonl(), "trace must not depend on --sim-jobs");
        assert_eq!(
            cmd_characterize_app(tiny(AppId::Maxflow), 1).unwrap(),
            cmd_characterize_app(sharded(tiny(AppId::Maxflow)), 1).unwrap(),
            "characterize report must not depend on --sim-jobs"
        );
    }

    #[test]
    fn characterize_jobs_does_not_change_the_report() {
        let serial = cmd_characterize_app(tiny(AppId::Is), 1).unwrap();
        let parallel = cmd_characterize_app(tiny(AppId::Is), 4).unwrap();
        assert_eq!(serial, parallel, "characterize report must not depend on --jobs");
    }

    #[test]
    fn degenerate_trace_is_a_cli_error_not_a_panic() {
        // Two events -> one inter-arrival gap: too few to fit.
        let mut tr = CommTrace::new(4);
        tr.push(commchar_trace::CommEvent::new(0, 0, 0, 1, 8, commchar_trace::EventKind::Data));
        tr.push(commchar_trace::CommEvent::new(1, 9, 0, 1, 8, commchar_trace::EventKind::Data));
        let err = with_file("degenerate.jsonl", tr.to_jsonl().as_bytes(), |path| {
            cmd_characterize_trace(path, 1, net(MESH, DIM, REC))
        })
        .unwrap_err();
        assert!(err.0.contains("degenerate"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_app_is_an_error() {
        assert!(parse_app("linpack").is_err());
        assert_eq!(parse_app("3d-fft").unwrap(), AppId::Fft3d);
        assert!(parse_scale("huge").is_err());
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
    }

    #[test]
    fn trace_roundtrip_through_cli() {
        let (_, trace) = cmd_run(tiny(AppId::Fft3d)).unwrap();
        let rec = net(MESH, DIM, REC);
        let (report, replay) = with_file("roundtrip-cli.jsonl", trace.to_jsonl().as_bytes(), |p| {
            (cmd_characterize_trace(p, 2, rec).unwrap(), cmd_replay(p, 2, rec).unwrap())
        });
        assert!(report.contains("processors  : 4"));
        assert!(replay.contains("causal:"));
        assert!(replay.contains("naive :"));
    }

    #[test]
    fn trace_commands_roundtrip_both_formats() {
        let (_, trace) = cmd_run(tiny(AppId::Fft3d)).unwrap();
        let jsonl = trace.to_jsonl();
        let packed = pack("roundtrip", jsonl.as_bytes(), 0);
        assert!(packed.len() < jsonl.len());
        // cat inverts pack; packing the packed file is a no-op.
        assert_eq!(cat("roundtrip", &packed).unwrap(), jsonl.as_bytes());
        assert_eq!(pack("repack", &packed, 0), packed);
        // every trace-consuming command accepts the packed form too, and
        // reads either one alike on any number of workers.
        let rec = net(MESH, DIM, REC);
        let reports = |bytes: &[u8], jobs| {
            with_file("both-formats", bytes, |path| {
                [
                    cmd_characterize_trace(path, jobs, rec).unwrap(),
                    cmd_characterize_trace_only(path, jobs).unwrap(),
                    cmd_replay(path, jobs, rec).unwrap(),
                ]
            })
        };
        let from_jsonl = reports(jsonl.as_bytes(), 1);
        for jobs in [1, 3] {
            assert_eq!(reports(jsonl.as_bytes(), jobs), from_jsonl);
            assert_eq!(reports(&packed, jobs), from_jsonl);
        }
    }

    #[test]
    fn trace_stat_reports_both_formats() {
        let (_, trace) = cmd_run(tiny(AppId::Nbody)).unwrap();
        let jsonl = trace.to_jsonl();
        let packed = pack("stat", jsonl.as_bytes(), 0);
        let s_jsonl = stat("stat.jsonl", jsonl.as_bytes());
        assert!(s_jsonl.contains("format      : jsonl"));
        assert!(s_jsonl.contains("ratio"));
        let s_packed = stat("stat.cct", &packed);
        assert!(s_packed.contains("format      : packed (CCTRACE1)"));
        assert!(s_packed.contains("blocks      :"));
        assert!(s_packed.contains(&format!("events      : {}", trace.len())));
    }

    #[test]
    fn trace_stat_breaks_out_blocks() {
        let (_, trace) = cmd_run(tiny(AppId::Nbody)).unwrap();
        let n = trace.len();
        assert!(n > 40, "need a multi-block trace, got {n} events");
        // Small blocks force more than STAT_BLOCKS_LISTED of them.
        let packed = pack("blocks", trace.to_jsonl().as_bytes(), 2);
        let s = stat("blocks.cct", &packed);
        assert!(s.contains(&format!("blocks      : {}", n.div_ceil(2))));
        assert!(s.contains("block    0:        2 events,"), "missing per-block row:\n{s}");
        assert!(s.contains("more blocks"), "missing overflow line:\n{s}");
        assert!(s.contains("per block : 1..=2 events") || s.contains("per block : 2..=2 events"));
    }

    #[test]
    fn stream_and_no_replay_reports_are_identical() {
        let (_, trace) = cmd_run(tiny(AppId::Fft3d)).unwrap();
        let packed = pack("stream", trace.to_jsonl().as_bytes(), 37);
        let (batch, streamed) = with_file("stream.cct", &packed, |path| {
            (cmd_characterize_trace_only(path, 1).unwrap(), cmd_characterize_stream(path, 3, 2))
        });
        assert!(batch.contains("temporal attribute"));
        assert!(batch.contains("spatial attribute"));
        assert!(batch.contains("volume attribute"));
        assert!(!batch.contains("network behaviour"));
        assert_eq!(batch, streamed.unwrap());
    }

    #[test]
    fn trace_commands_reject_garbage_with_typed_errors() {
        let err = cat("garbage", b"CCTRACE1\xffgarbage").unwrap_err();
        assert!(err.0.contains("stream kind"), "unexpected error: {err}");
        let err = with_file("garbage.jsonl", b"not json at all", |path| {
            cmd_replay(path, 0, net(MESH, DIM, REC)).unwrap_err()
        });
        assert!(err.0.contains("line 1"), "unexpected error: {err}");
        // Every packed reader names a stream kind other than 1 (events),
        // 2 included. The feeds fail before connecting.
        let mut tr = CommTrace::new(4);
        tr.push(CommEvent::new(0, 5, 0, 1, 8, commchar_trace::EventKind::Data));
        let mut other = commchar_tracestore::pack_trace(&tr);
        other[commchar_tracestore::MAGIC.len()] = 2;
        let path = scratch_file("kind2.cct", &other);
        let want = "unknown stream kind 2";
        assert_eq!(cmd_characterize_stream(&path, 1, 1).unwrap_err().0, want);
        assert_eq!(cmd_serve_feed("127.0.0.1:1", &path, 0, 0, false).unwrap_err().0, want);
        assert_eq!(cmd_serve_feed_stream("127.0.0.1:1", &other[..], 0, false).unwrap_err().0, want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generate_produces_parseable_trace() {
        let jsonl =
            cmd_generate_trace(RunSpec { seed: 9, ..tiny(AppId::Nbody) }).unwrap().to_jsonl();
        let parsed = CommTrace::from_jsonl(&jsonl).unwrap();
        assert!(!parsed.is_empty());
        assert_eq!(parsed.nodes(), 4);
    }

    #[test]
    fn suite_runs_all_apps_and_is_deterministic_across_jobs() {
        let (table, timing) = cmd_suite(tiny(AppId::Is), 4).unwrap();
        for a in AppId::all() {
            assert!(table.contains(a.name()), "suite table missing {a:?}");
        }
        assert!(table.contains("synth ratio"));
        assert!(timing.contains("worker"));
        // The collective workloads also run on every non-default
        // (topology × routing) pair — the network-contrast rows.
        assert!(table.contains("torus"), "missing torus contrast rows:\n{table}");
        assert!(table.contains("adaptive"), "missing adaptive contrast rows:\n{table}");
        let (serial_table, _) = cmd_suite(tiny(AppId::Is), 1).unwrap();
        assert_eq!(table, serial_table, "suite table must not depend on --jobs");
    }

    #[test]
    fn torus_and_adaptive_flow_through_the_cli() {
        let torus = net(Topology::Torus, Routing::Adaptive, EngineKind::flit());
        // Acquisition end-to-end on the torus with the adaptive policy,
        // for both strategies, through the cycle-accurate engine.
        let (report, trace) = cmd_run(RunSpec { app: AppId::Allreduce, ..torus }).unwrap();
        assert!(report.contains("ran allreduce on 4 processors"));
        let sig = cmd_characterize_app(torus, 1).unwrap();
        assert!(sig.contains("network behaviour"));
        // Replay names the topology in its header, on either engine.
        let [out, rec] = with_file("torus.jsonl", trace.to_jsonl().as_bytes(), |path| {
            [torus, net(Topology::Torus, DIM, REC)].map(|spec| cmd_replay(path, 1, spec).unwrap())
        });
        assert!(out.contains("-node torus"), "replay header: {out}");
        assert!(rec.contains("-node torus"), "recurrence replay header: {rec}");
    }

    #[test]
    fn topology_and_routing_names_parse_and_reject() {
        assert_eq!(parse_topology("torus").unwrap(), Topology::Torus);
        assert_eq!(parse_topology("mesh").unwrap(), Topology::Mesh);
        assert!(parse_topology("hypercube").is_err());
        assert_eq!(parse_routing("adaptive").unwrap(), Routing::Adaptive);
        assert_eq!(parse_routing("dimension").unwrap(), Routing::Dimension);
        assert!(parse_routing("fully-adaptive").is_err());
    }

    #[test]
    fn replay_prints_the_report_network_line() {
        let torus = net(Topology::Torus, Routing::Adaptive, EngineKind::flit());
        for spec in [net(MESH, DIM, REC), torus] {
            let (_, trace) = cmd_run(RunSpec { app: AppId::Allreduce, ..spec }).unwrap();
            let (replay, report) = with_file("net-line.jsonl", trace.to_jsonl().as_bytes(), |p| {
                (cmd_replay(p, 1, spec).unwrap(), cmd_characterize_trace(p, 1, spec).unwrap())
            });
            // The causal line is the report's network line, median and all;
            // the naive baseline and the inter-arrival moments follow.
            let network = report.lines().skip_while(|&l| l != "network behaviour").nth(1);
            let causal = network.and_then(|l| l.strip_prefix("  ")).map(|l| format!("causal: {l}"));
            let lines: Vec<&str> = replay.lines().collect();
            assert_eq!(lines.len(), 4, "{replay}");
            assert_eq!(Some(lines[1]), causal.as_deref(), "{spec:?}");
            assert!(lines[1].contains("(median "), "{replay}");
            assert!(lines[2].starts_with("naive : mean latency ") && lines[2].contains("(median "));
            assert!(lines[3].starts_with("inter-arrival: mean ") && lines[3].contains(", cv "));
        }
    }

    #[test]
    fn flit_engine_runs_every_command_surface() {
        let flit = net(MESH, DIM, EngineKind::flit());
        // run: closed-loop acquisition through the cycle-accurate router.
        let (report, trace) = cmd_run(flit).unwrap();
        assert!(report.contains("ran is on 4 processors"));
        assert!(!trace.is_empty());
        // characterize: full signature on a flit-acquired workload.
        let sig = cmd_characterize_app(flit, 1).unwrap();
        assert!(sig.contains("temporal attribute"));
        // replay: the header names the engine; the recurrence header does not.
        let [out, rec] = with_file("flit.jsonl", trace.to_jsonl().as_bytes(), |path| {
            [flit, net(MESH, DIM, REC)].map(|spec| cmd_replay(path, 1, spec).unwrap())
        });
        assert!(out.contains("(flit engine)"));
        assert!(!rec.contains("flit"));
    }

    #[test]
    fn engine_names_parse_and_reject() {
        assert_eq!(parse_engine("recurrence").unwrap(), EngineKind::Recurrence);
        assert_eq!(parse_engine("flit").unwrap(), EngineKind::flit());
        assert!(parse_engine("csim").is_err());
    }

    #[test]
    fn serve_feed_report_matches_offline_characterize() {
        let server = commchar_serve::Server::bind(
            "127.0.0.1:0",
            commchar_serve::ServeConfig { workers: 2, ..Default::default() },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let (_, trace) = cmd_run(tiny(AppId::Fft3d)).unwrap();
        // The same events in reverse time order: the feed must sort them
        // as the offline driver does.
        let mut reversed = CommTrace::new(trace.nodes());
        reversed.extend(trace.events().iter().rev().copied());
        // Tiny blocks + mid-stream polls + a protocol shutdown at the end.
        for (name, tr, shutdown) in [("reversed", &reversed, false), ("in-order", &trace, true)] {
            let path = scratch_file(&format!("feed-{name}.jsonl"), tr.to_jsonl().as_bytes());
            let offline = cmd_characterize_trace_only(&path, 1).unwrap();
            let (report, status) = cmd_serve_feed(&addr, &path, 7, 2, shutdown).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(report, offline, "{name}: served report must equal offline --no-replay");
            let blocks = format!("streamed {} blocks", tr.len().div_ceil(7));
            assert!(status.starts_with(&blocks), "{name}: {status}");
            assert!(status.contains("mid-stream polls"), "status: {status}");
            assert_eq!(status.contains("then shutdown"), shutdown, "status: {status}");
        }
        handle.shutdown();
    }

    #[test]
    fn serve_feed_streams_packed_blocks_from_a_reader() {
        let server = commchar_serve::Server::bind(
            "127.0.0.1:0",
            commchar_serve::ServeConfig { workers: 2, ..Default::default() },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let (_, trace) = cmd_run(tiny(AppId::Fft3d)).unwrap();
        let offline = with_file("feed-stream.jsonl", trace.to_jsonl().as_bytes(), |path| {
            cmd_characterize_trace_only(path, 1).unwrap()
        });
        // Pipe-style input: the packed bytes arrive through an io::Read,
        // tiny blocks force a multi-block stream with mid-stream polls.
        let packed = commchar_tracestore::writer::pack_trace_with_block_len(&trace, 11);
        let (report, status) = cmd_serve_feed_stream(&addr, &packed[..], 3, true).unwrap();
        assert_eq!(report, offline, "streamed final report must equal offline --no-replay");
        assert!(status.contains("streamed"), "status: {status}");
        assert!(status.contains("mid-stream polls"), "status: {status}");
        handle.shutdown();
    }

    #[test]
    fn serve_feed_stream_rejects_non_packed_input() {
        // JSON-lines cannot be streamed block-wise; the magic check fires
        // before any connection is attempted.
        let err =
            cmd_serve_feed_stream("127.0.0.1:1", &b"{\"nodes\":4}\n"[..], 0, false).unwrap_err();
        assert!(err.0.contains("bad magic"), "unexpected error: {err}");
    }

    #[test]
    fn serve_feed_surfaces_connection_errors_typed() {
        // Nothing listens on a fresh ephemeral port once the listener drops.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let path = scratch_file("feed-no-server.jsonl", b"{\"nodes\":4}\n");
        let err = cmd_serve_feed(&addr, &path, 0, 0, false).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.0.contains("serve-feed:"), "unexpected error: {err}");
    }

    #[test]
    fn usage_mentions_every_app() {
        let u = usage();
        for a in AppId::all() {
            assert!(u.contains(a.name()), "usage missing {a}");
        }
    }
}
