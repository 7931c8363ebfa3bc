//! Characterization bench: the shared-context fitting pipeline (grouped
//! sweeps, early-exit ranking, single trace pass, parallel fan-out) vs the
//! retained reference implementation of the old per-family-re-sort
//! pipeline ([`commchar_bench::fit_reference`]).
//!
//! Each workload is characterized three ways — the old sequential pipeline,
//! the new pipeline at `--jobs 1` and the new pipeline at `--jobs 4` — and
//! cross-checked before anything is timed: the two new runs must render
//! byte-identical signature reports and bitwise-identical per-source fits
//! (the determinism contract), and both must agree with the reference
//! statistically (same chosen family, KS and mean to fine tolerance; the
//! pipelines differ only in summation order). The reference fits every
//! source inside `characterize`, the new pipeline only on demand
//! ([`TemporalSig::source_fit`](commchar_core::TemporalSig::source_fit)),
//! so each new run is timed as `characterize` plus every source's fit on
//! the same `--jobs` workers: both columns do the same work.
//! Wall-clock and speedups go to stdout and `BENCH_fit.json` at the repo
//! root. `--quick` runs smaller workloads (the `scripts/check.sh
//! --bench-smoke` mode) and times the unasserted ones once; the default,
//! and the asserted workload in either mode, keep the best of three.
//!
//! The bench also exercises the out-of-core path: after an in-process
//! byte-identity check (streamed analysis report == batch report), it
//! re-executes itself as a `--stream-child` subprocess that writes a
//! packed synthetic trace to disk with [`TraceWriter`] (never holding the
//! events), stream-characterizes it with [`FileReader`] +
//! [`try_analyze_blocks`], and reports its own peak RSS from
//! `/proc/self/status` (`VmHWM`). The parent records both figures in
//! `BENCH_fit.json` and checks them against an RSS ceiling and an
//! events/sec floor, asserted with the speedup floor once the file is
//! written. The default (full) mode streams a multi-GB trace; `--quick` a
//! few-hundred-MB one.

use std::time::Instant;

use commchar_apps::{AppId, Scale};
use commchar_bench::fit_reference::characterize_reference;
use commchar_bench::{time_best, Bench, Floor, Lcg, Obj};
use commchar_core::analyze::{try_analyze_blocks, try_analyze_trace};
use commchar_core::report::{analysis_report, signature_report};
use commchar_core::{characterize, CommSignature, Workload};
use commchar_mesh::{EngineKind, MeshConfig, NetTally};
use commchar_stats::fit::FitResult;
use commchar_trace::replay::CausalReplayer;
use commchar_trace::{CommEvent, CommTrace, EventKind};
use commchar_tracestore::writer::{pack_trace_with_block_len, TraceWriter};
use commchar_tracestore::{FileReader, PackedReader};

/// A synthetic multi-source workload with tick-quantized inter-arrival
/// gaps — the shape real traces have (timestamps are integer cycles), and
/// the case where the old pipeline's per-sample sweeps hurt most: the
/// aggregate gap sample collapses to a few dozen unique values that the
/// grouped sweeps walk in one pass.
fn synthetic(seed: u64, nodes: usize, count: usize) -> Workload {
    let mut rng = Lcg::new(seed);
    let mut trace = CommTrace::new(nodes);
    let mut t = 0u64;
    for i in 0..count as u64 {
        trace.push(synth_event(&mut rng, i, &mut t, nodes));
    }
    let mesh = MeshConfig::for_nodes(nodes);
    let network = CausalReplayer::new(mesh)
        .try_replay_into(&trace, EngineKind::Recurrence, 1, NetTally::new())
        .unwrap();
    Workload {
        name: format!("synthetic_{nodes}src"),
        class: commchar_apps::AppClass::MessagePassing,
        nprocs: nodes,
        mesh,
        trace,
        network,
        exec_ticks: t,
    }
}

/// The workload the characterize speedup floor is asserted on.
const HEADLINE: &str = "synthetic_64src";
/// The headline's floor: the new pipeline at `--jobs 4` at least 2× the
/// reference.
const SPEEDUP_FLOOR: Floor = Floor::at_least("synthetic_64src.speedup", 2.0);

fn workloads(quick: bool) -> Vec<(&'static str, Workload)> {
    let scale = if quick { 1 } else { 4 };
    vec![
        // The headline workload: enough sources that the per-source fit
        // fan-out has real work, enough events that the aggregate fit's
        // sort/sweep cost dominates under the old pipeline.
        (HEADLINE, synthetic(42, 64, 100_000 * scale)),
        ("synthetic_256src", synthetic(7, 256, 60_000 * scale)),
        ("app_3d-fft", commchar_bench::workload(AppId::Fft3d, 8, Scale::Small)),
        ("app_cholesky", commchar_bench::workload(AppId::Cholesky, 8, Scale::Small)),
    ]
}

/// The new pipeline's full temporal work: `characterize` on `jobs`
/// workers, then every source's inter-arrival fit on as many — what the
/// reference does inside its `characterize`.
fn characterize_with_source_fits(
    w: &Workload,
    jobs: usize,
) -> (CommSignature, Vec<Option<FitResult>>) {
    let sig = characterize(w, jobs).unwrap();
    let fits = commchar_pool::run_indexed(jobs, sig.nprocs, |s| sig.temporal.source_fit(s));
    (sig, fits)
}

/// The old and new pipelines compute the same statistics with different
/// summation orders (grouped vs per-sample), so fitted models must agree
/// to fine float tolerance — exact bit equality is not owed, divergence
/// beyond rounding noise is a bug.
fn cross_check(
    name: &str,
    (reference, ref_fits): &(CommSignature, Vec<Option<FitResult>>),
    (new, new_fits): &(CommSignature, Vec<Option<FitResult>>),
) {
    // When both pipelines pick the same family the scores must agree to
    // rounding noise; when tiny rounding differences tip the secant
    // refinement into a different local optimum the winning family can
    // flip between two near-tied candidates, and then the check is that
    // the tie really was near: the penalized-KS ranking keys must be
    // within 0.01 of each other.
    let check_fit =
        |who: &str, r: &commchar_stats::fit::FitResult, n: &commchar_stats::fit::FitResult| {
            let penalty = |f: &commchar_stats::fit::FitResult| {
                f.ks + 0.005 * (f.dist.params().len() as f64 - 1.0)
            };
            if r.dist.family() == n.dist.family() {
                assert!((r.ks - n.ks).abs() < 1e-3, "{name}: {who} KS {} vs {}", r.ks, n.ks);
                assert!(
                    (r.dist.mean() - n.dist.mean()).abs() <= 0.02 * r.dist.mean().abs().max(1.0),
                    "{name}: {who} mean {} vs {}",
                    r.dist.mean(),
                    n.dist.mean()
                );
            } else {
                assert!(
                (penalty(r) - penalty(n)).abs() < 0.01,
                "{name}: {who} winners diverged beyond a near-tie: {} (KS {:.4}) vs {} (KS {:.4})",
                r.dist,
                r.ks,
                n.dist,
                n.ks
            );
            }
        };
    check_fit("aggregate", &reference.temporal.aggregate, &new.temporal.aggregate);
    assert_eq!(ref_fits.len(), new_fits.len(), "{name}: per-source fit count");
    for (s, (r, n)) in ref_fits.iter().zip(new_fits).enumerate() {
        match (r, n) {
            (None, None) => {}
            (Some(r), Some(n)) => check_fit(&format!("p{s}"), r, n),
            _ => panic!("{name}: p{s} fit present in one pipeline only"),
        }
    }
    // Spatial and volume attributes come from the network log in the old
    // pipeline and from the trace in the new one; the 1:1 trace↔log
    // invariant makes them identical, so these sections must match to the
    // report's full printed precision.
    let (ref_rep, new_rep) = (signature_report(reference), signature_report(new));
    let tail = |rep: &str| {
        let at = rep.find("spatial attribute").expect("report has a spatial section");
        rep[at..].to_string()
    };
    assert_eq!(tail(&ref_rep), tail(&new_rep), "{name}: spatial/volume sections diverged");
}

/// One synthetic event in the streaming workload — the same shape
/// [`synthetic`] builds, factored out so the on-disk generator and any
/// in-memory checks draw from one definition.
fn synth_event(rng: &mut Lcg, i: u64, t: &mut u64, nodes: usize) -> CommEvent {
    let (src, dst) = rng.pair(nodes);
    *t += rng.below(8);
    let kind = match rng.below(10) {
        0..=4 => EventKind::Data,
        5..=7 => EventKind::Control,
        _ => EventKind::Sync,
    };
    CommEvent::new(i, *t, src, dst, 8 + rng.below(4096) as u32, kind)
}

/// Writes `count` synthetic events straight to a packed file through
/// [`TraceWriter`] — constant memory on the producer side too, so the
/// subprocess peak RSS measures the pipeline, not the generator.
fn write_synthetic_stream(path: &std::path::Path, seed: u64, nodes: usize, count: u64) {
    let file = std::fs::File::create(path).expect("create stream trace file");
    let mut w = TraceWriter::new(std::io::BufWriter::new(file), nodes).expect("trace writer");
    let mut rng = Lcg::new(seed);
    let mut t = 0u64;
    for i in 0..count {
        w.push(synth_event(&mut rng, i, &mut t, nodes)).expect("push event");
    }
    use std::io::Write as _;
    w.finish().expect("finish packed stream").flush().expect("flush stream trace file");
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`; `0` where the file or field is unavailable (the
/// caller skips the ceiling assertion then).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Subprocess body for `--stream-child COUNT PATH`: generate a packed
/// trace on disk, stream-characterize it, and print a single
/// machine-readable line (`events=.. wall=.. rss=.. family=..`). Runs in
/// its own process so `VmHWM` reflects only this pipeline.
fn stream_child(count: u64, path: &std::path::Path) {
    const NODES: usize = 64;
    write_synthetic_stream(path, 99, NODES, count);
    let reader = FileReader::open(path).expect("open packed stream");
    assert_eq!(reader.len(), count);
    let shape = MeshConfig::for_nodes(NODES).shape;
    let start = Instant::now();
    let analysis = try_analyze_blocks(&reader, shape, 0, 0).expect("stream characterize");
    let wall = start.elapsed().as_secs_f64();
    println!(
        "events={count} wall={wall:.6} rss={} family={}",
        peak_rss_bytes(),
        analysis.temporal.aggregate.dist.family_name()
    );
}

/// Ceiling on the stream child's peak RSS, in bytes. The full-mode
/// trace decodes to ~10 GB of in-memory events, so staying under this
/// bound is only possible if the pipeline really is out-of-core.
const STREAM_RSS_CEILING: Floor = Floor::at_most("streaming.peak_rss_bytes", (256u64 << 20) as f64);

/// Floor on streamed characterization throughput, events/s.
const STREAM_RATE_FLOOR: Floor = Floor::at_least("streaming.events_per_sec", 1_000_000.0);

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--stream-child") {
        let count: u64 = argv[i + 1].parse().expect("--stream-child COUNT PATH");
        stream_child(count, std::path::Path::new(&argv[i + 2]));
        return;
    }
    let mut bench = Bench::from_env("characterize_fit");
    let mut rows = Vec::new();

    println!("characterization: shared-context fitting vs per-family re-sort reference");
    println!(
        "{:<16} {:>8} {:>7} {:>10} {:>10} {:>10} {:>8}",
        "workload", "events", "sources", "ref s", "jobs=1 s", "jobs=4 s", "speedup"
    );
    for (name, w) in workloads(bench.quick()) {
        // Cross-check first: identical reports between worker counts, and
        // reference agreement, or the numbers are meaningless.
        let reference = characterize_reference(&w);
        let seq = characterize_with_source_fits(&w, 1);
        let par = characterize_with_source_fits(&w, 4);
        assert_eq!(
            signature_report(&seq.0),
            signature_report(&par.0),
            "{name}: jobs=1 and jobs=4 reports diverged"
        );
        assert_eq!(format!("{seq:?}"), format!("{par:?}"), "{name}: signatures or fits diverged");
        cross_check(name, &reference, &seq);

        let floors: &[Floor] = if name == HEADLINE { &[SPEEDUP_FLOOR] } else { &[] };
        let iters = bench.iters(floors);
        let t_ref = time_best(iters, || {
            let (_, fits) = characterize_reference(&w);
            assert_eq!(fits.len(), w.nprocs);
        });
        let t_seq = time_best(iters, || {
            let (_, fits) = characterize_with_source_fits(&w, 1);
            assert_eq!(fits.len(), w.nprocs);
        });
        let t_par = time_best(iters, || {
            let (_, fits) = characterize_with_source_fits(&w, 4);
            assert_eq!(fits.len(), w.nprocs);
        });
        let speedup = t_ref / t_par;
        println!(
            "{:<16} {:>8} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>7.1}x",
            name,
            w.trace.len(),
            w.nprocs,
            t_ref,
            t_seq,
            t_par,
            speedup
        );
        for floor in floors {
            bench.check(floor, speedup);
        }
        rows.push(
            Obj::new()
                .str("name", name)
                .int("events", w.trace.len() as u64)
                .int("sources", w.nprocs as u64)
                .num("reference_sec", t_ref, 6)
                .num("jobs1_sec", t_seq, 6)
                .num("jobs4_sec", t_par, 6)
                .num("speedup", speedup, 2),
        );
    }
    bench.rows("workloads", rows);

    // ---- out-of-core streaming section --------------------------------
    // In-process byte-identity first: streaming a packed copy of a trace
    // must render exactly the batch analysis of the same events.
    let ident = synthetic(3, 16, 40_000);
    let shape = ident.mesh.shape;
    let batch = try_analyze_trace(&ident.trace, shape, 1).expect("batch analysis");
    let packed = pack_trace_with_block_len(&ident.trace, 101);
    let reader = PackedReader::from_bytes(&packed).expect("open packed trace");
    let streamed = try_analyze_blocks(&reader, shape, 4, 3).expect("streamed analysis");
    assert_eq!(
        analysis_report(&batch, "bench"),
        analysis_report(&streamed, "bench"),
        "streamed analysis diverged from batch"
    );
    println!("stream identity : streamed == batch report ({} events)", ident.trace.len());

    // Then the out-of-core run proper, in a subprocess so VmHWM measures
    // only the write-then-stream pipeline.
    let stream_events: u64 = if bench.quick() { 8_000_000 } else { 320_000_000 };
    let tmp =
        std::env::temp_dir().join(format!("commchar-bench-stream-{}.cct", std::process::id()));
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(&exe)
        .arg("--stream-child")
        .arg(stream_events.to_string())
        .arg(&tmp)
        .output()
        .expect("spawn stream child");
    let file_bytes = std::fs::metadata(&tmp).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&tmp);
    assert!(out.status.success(), "stream child failed: {}", String::from_utf8_lossy(&out.stderr));
    let line = String::from_utf8_lossy(&out.stdout);
    let field = |k: &str| -> f64 {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{k}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("stream child output missing {k}=: {line}"))
    };
    let wall = field("wall");
    let rss = field("rss") as u64;
    let events_per_sec = stream_events as f64 / wall;
    println!(
        "stream child    : {stream_events} events ({:.1} MB packed) in {wall:.2} s — \
         {:.2}M events/s, peak RSS {:.1} MB",
        file_bytes as f64 / 1e6,
        events_per_sec / 1e6,
        rss as f64 / 1e6
    );
    let streaming = Obj::new()
        .int("events", stream_events)
        .int("packed_bytes", file_bytes)
        .num("wall_sec", wall, 6)
        .num("events_per_sec", events_per_sec, 0)
        .int("peak_rss_bytes", rss);
    bench.fields(Obj::new().obj("streaming", &streaming));
    bench.check(&STREAM_RATE_FLOOR, events_per_sec);
    if rss > 0 {
        bench.check(&STREAM_RSS_CEILING, rss as f64);
    } else {
        bench.unmeasured(&STREAM_RSS_CEILING, "VmHWM unavailable in /proc/self/status");
    }
    bench.finish("BENCH_fit.json");
}
