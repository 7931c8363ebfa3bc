//! Trace-only analysis drivers: one shared fit path behind both the
//! in-memory (batch) and block-streaming (out-of-core) forms of
//! `characterize`.
//!
//! Both drivers funnel into the same [`StreamExtract`]-consuming core, so
//! a streamed analysis is **byte-identical** to the batch analysis of the
//! same events:
//!
//! - [`try_analyze_trace`] — wraps an in-memory [`CommTrace`] as one
//!   segment (sorting a copy of the events first if the trace is not in
//!   time order).
//! - [`try_analyze_blocks`] — walks a [`PackedReader`] (over a regular
//!   file or bytes in memory) on an ordered pipeline: each worker decodes a
//!   block, condenses it into a [`SegmentExtract`] and folds the
//!   order-free part into its own [`BlockTally`], while the calling
//!   thread stitches the blocks' seams in file order. Memory is per
//!   worker (its tally plus a window of two blocks), never the trace
//!   length.
//!
//! The result carries the paper's three trace attributes (temporal,
//! spatial, volume) but no network-behaviour section: computing network
//! latencies requires a causal replay, which is inherently O(events) in
//! memory, so the streaming path reports what one pass can know.

use commchar_mesh::MeshShape;
use commchar_stats::fit::FitContext;
use commchar_stats::spatial::{classify_with_count, normalize, SpatialFit};
use commchar_trace::profile::{
    BlockTally, SegmentExtract, SegmentSeam, StreamAccum, StreamExtract, UnsortedError,
};
use commchar_trace::CommTrace;
use commchar_tracestore::PackedReader;
use commchar_traffic::LengthDist;

use crate::{CharError, TemporalSig, VolumeSig, MIN_SAMPLES};

/// The trace-derived portion of a communication signature: the paper's
/// temporal, spatial and volume attributes, without the network-behaviour
/// summary (which needs a replay, not a trace pass).
#[derive(Debug)]
pub struct TraceAnalysis {
    /// Processor count the trace was recorded over.
    pub nodes: usize,
    /// Temporal attribute (aggregate fit, per-source gaps, burstiness).
    pub temporal: TemporalSig,
    /// Spatial attribute: each source's fitted destination model (None
    /// when the source sent nothing).
    pub spatial: Vec<Option<SpatialFit>>,
    /// Volume attribute.
    pub volume: VolumeSig,
}

/// Analyzes an in-memory trace. Events are viewed as a single segment
/// (sorted by time first, copying, if the trace is out of order) and fed
/// through exactly the code path [`try_analyze_blocks`] uses — which is
/// what makes streamed-equals-batch hold to the byte.
///
/// # Errors
///
/// [`CharError`] on an empty or temporally degenerate trace.
pub fn try_analyze_trace(
    trace: &CommTrace,
    shape: MeshShape,
    jobs: usize,
) -> Result<TraceAnalysis, CharError> {
    if trace.is_empty() {
        return Err(CharError::EmptyTrace);
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
    let seg = SegmentExtract::from_events(trace.nodes(), events).expect("events are sorted");
    let mut accum = StreamAccum::new(trace.nodes());
    accum.absorb(&seg).expect("a single segment is in order");
    try_analyze_extract(accum.finish(), shape, jobs)
}

/// Analyzes a packed event stream block by block in constant memory.
///
/// The calling thread hands block numbers in file order to
/// [`resolve_jobs`](commchar_pool::resolve_jobs)`(block_jobs)` workers
/// (`0` = one per hardware thread) through
/// [`run_ordered`](commchar_pool::run_ordered). Each worker decodes a
/// block, extracts it, and folds its order-free statistics (counters,
/// destination counts, gap runs) into its own [`BlockTally`]; the calling
/// thread [`stitch`](StreamAccum::stitch)es each block's seam (boundary
/// gaps, the ordered aggregate gaps for burstiness) in file order, then
/// merges the tallies once. Memory is per worker — its tally plus the
/// pipeline's window of two blocks per worker — never the trace length.
/// One worker runs inline on the calling thread. After the single pass,
/// the spatial classifications fan out across `jobs` workers exactly as
/// in [`try_analyze_trace`].
///
/// # Errors
///
/// The first failing block in file order, whatever the worker count:
///
/// - [`CharError::EmptyTrace`] / [`CharError::DegenerateTemporal`] as in
///   the batch path.
/// - [`CharError::Unsorted`] if the stream is not in time order (the
///   boundary-gap stitching requires it; packed traces written by this
///   workspace are sorted).
/// - [`CharError::Store`] for any decode/IO failure inside a block.
pub fn try_analyze_blocks(
    reader: &PackedReader,
    shape: MeshShape,
    jobs: usize,
    block_jobs: usize,
) -> Result<TraceAnalysis, CharError> {
    if reader.is_empty() {
        return Err(CharError::EmptyTrace);
    }
    let nodes = reader.nodes();
    let unsorted = |e: UnsortedError| CharError::Unsorted { prev: e.prev, at: e.at };
    let workers = commchar_pool::resolve_jobs_for(block_jobs, reader.block_count());
    let mut accum = StreamAccum::new(nodes);
    let tallies = commchar_pool::run_ordered(
        vec![BlockTally::new(nodes); workers],
        0..reader.block_count(),
        |tally, block| {
            let events =
                reader.decode_events(block).map_err(|e| CharError::Store(e.to_string()))?;
            Ok(tally.absorb(SegmentExtract::from_events(nodes, &events).map_err(unsorted)?))
        },
        |seam: Result<SegmentSeam, CharError>| accum.stitch(&seam?).map_err(unsorted),
    )?;
    for tally in tallies {
        accum.merge(tally);
    }
    try_analyze_extract(accum.finish(), shape, jobs)
}

/// The shared back half: grouped gap runs → aggregate fit → parallel
/// spatial classification → volume attribute.
///
/// Public because it is also the **online** funnel: a live producer that
/// owns a [`StreamAccum`] (the `commchar-serve` session state, an engine
/// feeding characterization mid-run) snapshots its accumulator, finishes
/// it, and calls this — landing in exactly the fit path both offline
/// drivers use, which is what makes a polled live report byte-identical
/// to the offline analysis of the same events.
///
/// Only the aggregate inter-arrival sample is fitted: reports print no
/// other fit. Each source's grouped gaps move into
/// [`TemporalSig::per_source`] (`None` below 8 gaps) for
/// [`TemporalSig::source_fit`]. The per-source spatial classifications
/// are independent, so they run on at most `jobs` workers (`0` = one per
/// hardware thread) and come back in source order.
///
/// # Errors
///
/// [`CharError::DegenerateTemporal`] when fewer than two aggregate
/// inter-arrival gaps have been observed.
pub fn try_analyze_extract(
    x: StreamExtract,
    shape: MeshShape,
    jobs: usize,
) -> Result<TraceAnalysis, CharError> {
    let gaps = x.aggregate.total();
    if gaps < 2 {
        return Err(CharError::DegenerateTemporal { gaps: gaps as usize });
    }
    let StreamExtract { profile, per_source, aggregate, burstiness, length_counts } = x;

    // Temporal: the aggregate fit; the sources' samples are kept whole.
    let aggregate =
        FitContext::from_grouped(&aggregate).fit_best().expect("≥ 2 samples always admit a fit");
    let per_source =
        per_source.into_iter().map(|g| (g.total() >= MIN_SAMPLES as u64).then_some(g)).collect();

    // Spatial: per-source destination histograms (the profile's
    // destination-count rows), classified by regression against
    // uniform / bimodal-uniform / locality-decay, claimed by whichever
    // worker is free and returned in source order. Only the fit is kept:
    // each normalized row is dropped on its worker.
    let dist_fn = move |a: usize, b: usize| {
        shape.hop_distance(commchar_mesh::NodeId(a as u16), commchar_mesh::NodeId(b as u16)) as f64
    };
    let nodes = profile.sources.len();
    let spatial: Vec<Option<SpatialFit>> = commchar_pool::run_indexed(jobs, nodes, |s| {
        let counts = &profile.sources[s].dest_counts;
        let observed = normalize(counts, s)?;
        let sent: u64 = counts.iter().sum();
        Some(classify_with_count(&observed, s, &dist_fn, Some(sent)))
    });

    // Volume.
    let volume = VolumeSig {
        messages: profile.messages,
        bytes: profile.bytes,
        mean_bytes: profile.mean_bytes,
        lengths: LengthDist::from_counts(&length_counts),
        per_source_msgs: profile.sources.iter().map(|s| s.messages).collect(),
    };

    Ok(TraceAnalysis {
        nodes,
        temporal: TemporalSig { aggregate, per_source, burstiness },
        spatial,
        volume,
    })
}
