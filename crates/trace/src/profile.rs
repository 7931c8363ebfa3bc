//! Trace profiling: per-source workload summaries.
//!
//! [`profile`], [`interarrival_by_source`] and [`interarrival_aggregate`]
//! are plain passes over an in-memory [`CommTrace`]. The analysis pipeline
//! streams instead: [`SegmentExtract::from_events`] condenses one
//! time-sorted block of events into a partial no larger than the block
//! (grouped gap runs, integer counters), and [`StreamAccum`] folds the
//! partials in time order, stitching the boundary gaps between
//! consecutive blocks. The result ([`StreamExtract`]) represents exactly
//! the same gap multisets and profile integers as the plain passes,
//! without ever materializing the event stream.
//!
//! A parallel pass splits each partial in two: the worker that extracted
//! it folds the order-free part (counters, gap runs) into its own
//! [`BlockTally`], and the thread that sees the blocks in order
//! [`stitch`](StreamAccum::stitch)es the [`SegmentSeam`] (boundary gaps,
//! the ordered aggregate gaps for burstiness), then
//! [`merge`](StreamAccum::merge)s the tallies once at the end.

use std::collections::{BTreeMap, HashMap};

use commchar_stats::burstiness::{BurstAccum, Burstiness};
use commchar_stats::merge::GroupedSample;

use crate::{CommEvent, CommTrace, EventKind};

/// Per-source profile of a trace.
#[derive(Clone, Debug)]
pub struct SourceProfile {
    /// Source processor.
    pub src: u16,
    /// Messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Mean inter-send gap (think time) in ticks.
    pub mean_gap: f64,
    /// Destination message counts (index = destination).
    pub dest_counts: Vec<u64>,
    /// Destination byte counts (index = destination).
    pub dest_bytes: Vec<u64>,
}

/// Whole-trace profile.
#[derive(Clone, Debug)]
pub struct TraceProfile {
    /// One entry per source processor.
    pub sources: Vec<SourceProfile>,
    /// Total messages.
    pub messages: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Mean message length in bytes.
    pub mean_bytes: f64,
    /// Span between first and last generation time.
    pub span: u64,
    /// Message counts by kind (control, data, sync).
    pub kind_counts: [u64; 3],
}

/// Events were not in nondecreasing time order where the streaming
/// pipeline requires them sorted (within a block, or across blocks fed to
/// [`StreamAccum::absorb`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsortedError {
    /// The later timestamp seen first.
    pub prev: u64,
    /// The earlier timestamp that arrived after it.
    pub at: u64,
}

impl std::fmt::Display for UnsortedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "events out of time order: t={} after t={}", self.at, self.prev)
    }
}

impl std::error::Error for UnsortedError {}

/// Messages and payload bytes per (source, destination) pair seen: a
/// block costs what its events touch, where a `nodes × nodes` matrix (one
/// of 4096 nodes is 256 MiB) would dwarf them.
#[derive(Clone, Debug, Default)]
struct PairCounts(HashMap<(u16, u16), [u64; 2]>);

impl PairCounts {
    /// The pairs of a matrix `src * nodes + dst` that saw a message.
    fn from_matrix(nodes: usize, cells: Vec<[u64; 2]>) -> Self {
        let pair = |i: usize| ((i / nodes) as u16, (i % nodes) as u16);
        PairCounts(
            cells
                .into_iter()
                .enumerate()
                .filter(|(_, c)| c[0] > 0)
                .map(|(i, c)| (pair(i), c))
                .collect(),
        )
    }

    fn add(&mut self, pair: (u16, u16), [msgs, bytes]: [u64; 2]) {
        let cell = self.0.entry(pair).or_default();
        cell[0] += msgs;
        cell[1] += bytes;
    }

    fn merge(&mut self, other: &PairCounts) {
        for (&pair, &cell) in &other.0 {
            self.add(pair, cell);
        }
    }

    /// The destination message and byte rows, one pair of rows per source.
    fn into_rows(self, nodes: usize) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut rows = vec![(vec![0; nodes], vec![0; nodes]); nodes];
        for ((src, dst), [msgs, bytes]) in self.0 {
            rows[src as usize].0[dst as usize] = msgs;
            rows[src as usize].1[dst as usize] = bytes;
        }
        rows
    }
}

/// The integer counters of a set of events: plain sums, so the counts of
/// disjoint sets add up to the counts of their union.
#[derive(Clone, Debug)]
struct Counts {
    nodes: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
    pairs: PairCounts,
    total_bytes: u64,
    kind_counts: [u64; 3],
    length_counts: BTreeMap<u32, u64>,
}

impl Counts {
    fn new(nodes: usize) -> Self {
        Counts {
            nodes,
            msgs: vec![0; nodes],
            bytes: vec![0; nodes],
            pairs: PairCounts::default(),
            total_bytes: 0,
            kind_counts: [0; 3],
            length_counts: BTreeMap::new(),
        }
    }

    /// Counts `e`, all but its pair, which the caller tallies.
    fn add(&mut self, e: &CommEvent) {
        let s = e.src as usize;
        self.msgs[s] += 1;
        self.bytes[s] += e.bytes as u64;
        self.total_bytes += e.bytes as u64;
        *self.length_counts.entry(e.bytes).or_insert(0) += 1;
        self.kind_counts[kind_slot(e.kind)] += 1;
    }

    fn merge(&mut self, other: &Counts) {
        for s in 0..self.nodes {
            self.msgs[s] += other.msgs[s];
            self.bytes[s] += other.bytes[s];
        }
        self.pairs.merge(&other.pairs);
        self.total_bytes += other.total_bytes;
        for k in 0..3 {
            self.kind_counts[k] += other.kind_counts[k];
        }
        for (&len, &c) in &other.length_counts {
            *self.length_counts.entry(len).or_insert(0) += c;
        }
    }
}

/// Partial extraction of one time-sorted block of events, as large as
/// its events plus a few words per node: per-source counters,
/// destination counts for the pairs seen, grouped gap runs, and the
/// block's ordered [`SegmentSeam`].
/// Built independently per block — in parallel, if the caller wants —
/// and folded in time order by [`StreamAccum::absorb`], or split by
/// [`BlockTally::absorb`] into the order-free part a worker keeps and the
/// seam the in-order fold needs.
#[derive(Clone, Debug)]
pub struct SegmentExtract {
    counts: Counts,
    /// Per-source gaps internal to the block, grouped.
    src_gaps: Vec<GroupedSample>,
    /// The block's aggregate gaps, grouped.
    agg_grouped: GroupedSample,
    seam: SegmentSeam,
}

/// The ordered part of one block's extraction: what only a fold that
/// sees the blocks in time order can use. That is the block's span, each
/// source's first and last send (for the boundary gaps to the blocks
/// around it), and the block's aggregate gaps in time order (the
/// burstiness accumulator needs the order; the fit only needs the runs).
#[derive(Clone, Debug)]
pub struct SegmentSeam {
    nodes: usize,
    span: Option<(u64, u64)>,
    /// Per-source (first, last) send times; `None` when the source is
    /// silent in this block.
    src_span: Vec<Option<(u64, u64)>>,
    agg_gaps: Vec<f64>,
}

impl SegmentExtract {
    /// Extracts one block. `events` must be sorted by time (nondecreasing)
    /// — packed CCTRACE1 traces are — or an [`UnsortedError`] is returned.
    ///
    /// # Panics
    ///
    /// Panics if an event's endpoints are out of range for `nodes`.
    pub fn from_events(nodes: usize, events: &[CommEvent]) -> Result<Self, UnsortedError> {
        let mut counts = Counts::new(nodes);
        // A block with at least as many events as a `nodes × nodes`
        // matrix has cells tallies its pairs there, an index per event
        // instead of a hash (`suite`'s one-segment extraction took 0.19 s
        // hashing every event, 0.15 s with the matrix), at no more memory
        // than its events.
        let mut matrix = (nodes * nodes <= events.len()).then(|| vec![[0u64; 2]; nodes * nodes]);
        let mut src_gaps = vec![GroupedSample::new(); nodes];
        let mut seam = SegmentSeam {
            nodes,
            span: None,
            src_span: vec![None; nodes],
            agg_gaps: Vec::with_capacity(events.len().saturating_sub(1)),
        };
        for e in events {
            if let Some((_, p)) = seam.span {
                if e.t < p {
                    return Err(UnsortedError { prev: p, at: e.t });
                }
                seam.agg_gaps.push((e.t - p) as f64);
            }
            seam.span = Some(seam.span.map_or((e.t, e.t), |(first, _)| (first, e.t)));
            let s = e.src as usize;
            seam.src_span[s] = Some(match seam.src_span[s] {
                Some((first, p)) => {
                    src_gaps[s].insert((e.t - p) as f64, 1);
                    (first, e.t)
                }
                None => (e.t, e.t),
            });
            counts.add(e);
            let counted = [1, u64::from(e.bytes)];
            match &mut matrix {
                Some(cells) => {
                    let cell = &mut cells[s * nodes + e.dst as usize];
                    cell[0] += counted[0];
                    cell[1] += counted[1];
                }
                None => counts.pairs.add((e.src, e.dst), counted),
            }
        }
        if let Some(cells) = matrix {
            counts.pairs = PairCounts::from_matrix(nodes, cells);
        }
        let agg_grouped = GroupedSample::from_samples(&seam.agg_gaps);
        Ok(SegmentExtract { counts, src_gaps, agg_grouped, seam })
    }

    /// Events in the block.
    pub fn messages(&self) -> u64 {
        self.counts.msgs.iter().sum()
    }
}

/// Gap runs folded binary-counter style, by size: a stack of merged
/// samples, each under half the runs of the one below it. A new sample
/// goes on top and merges down while it is at least half the size of the
/// one below, so a run is copied O(log samples) times instead of once for
/// every later sample, and the stack holds under twice the runs of its
/// largest level.
#[derive(Clone, Debug, Default)]
struct RunLevels(Vec<GroupedSample>);

impl RunLevels {
    fn push(&mut self, mut carry: GroupedSample) {
        if carry.is_empty() {
            return;
        }
        while let Some(below) = self.0.last() {
            if 2 * carry.distinct_len() < below.distinct_len() {
                break;
            }
            carry.merge(&self.0.pop().expect("just seen"));
        }
        self.0.push(carry);
    }

    fn merge_into(self, out: &mut GroupedSample) {
        for level in &self.0 {
            out.merge(level);
        }
    }
}

/// The order-free statistics of the blocks one worker has folded: the
/// integer counters, and the per-source and aggregate gap runs internal
/// to each block, merged binary-counter style. Workers fold blocks in
/// whatever order they get them; [`StreamAccum::merge`] adds each
/// worker's tally once the in-order pass is done, exactly, because the
/// counters are sums and [`GroupedSample`] merges are exact. Memory is
/// O(distinct gap values × log blocks + the pairs seen), independent of
/// trace length.
#[derive(Clone, Debug)]
pub struct BlockTally {
    counts: Counts,
    src_gaps: Vec<RunLevels>,
    aggregate: RunLevels,
}

impl BlockTally {
    /// An empty tally over `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        BlockTally {
            counts: Counts::new(nodes),
            src_gaps: vec![RunLevels::default(); nodes],
            aggregate: RunLevels::default(),
        }
    }

    /// Folds a block's order-free statistics in and returns its seam, for
    /// [`StreamAccum::stitch`] on the thread that sees the blocks in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the segment was extracted for a different node count.
    pub fn absorb(&mut self, seg: SegmentExtract) -> SegmentSeam {
        assert_eq!(seg.seam.nodes, self.counts.nodes, "segment node count mismatch");
        self.counts.merge(&seg.counts);
        for (levels, gaps) in self.src_gaps.iter_mut().zip(seg.src_gaps) {
            levels.push(gaps);
        }
        self.aggregate.push(seg.agg_grouped);
        seg.seam
    }
}

/// Everything the constant-memory pass yields for the characterization
/// pipeline: the profile, the temporal samples as grouped runs, and an
/// already-finished burstiness summary.
#[derive(Clone, Debug)]
pub struct StreamExtract {
    /// The whole-trace profile, identical to [`profile`]'s output over the
    /// same events.
    pub profile: TraceProfile,
    /// Per-source inter-send gap runs: exactly the multiset of
    /// [`interarrival_by_source`], grouped.
    pub per_source: Vec<GroupedSample>,
    /// Aggregate inter-arrival gap runs: exactly the multiset of
    /// [`interarrival_aggregate`], grouped.
    pub aggregate: GroupedSample,
    /// Burstiness of the aggregate gap sequence, accumulated in time order
    /// — bit-identical to `burstiness(&interarrival_aggregate(trace))`.
    pub burstiness: Burstiness,
    /// Message length → occurrence count over the whole trace.
    pub length_counts: BTreeMap<u32, u64>,
}

/// Folds [`SegmentExtract`]s in time order into one [`StreamExtract`],
/// inserting the boundary gaps (last event of the absorbed prefix to first
/// event of the next block, aggregate and per-source) that no single block
/// can see. Memory is O(distinct gap values + the pairs seen), independent
/// of trace length — communication traces are tick-quantized, so the
/// distinct-gap count saturates.
///
/// A parallel pass splits the fold: workers fold each block's order-free
/// part into a [`BlockTally`], the accumulator [`stitch`](Self::stitch)es
/// the seams in time order, then [`merge`](Self::merge)s the tallies.
#[derive(Clone, Debug)]
pub struct StreamAccum {
    counts: Counts,
    src_span: Vec<Option<(u64, u64)>>,
    src_gaps: Vec<GroupedSample>,
    aggregate: GroupedSample,
    burst: BurstAccum,
    span: Option<(u64, u64)>,
}

impl StreamAccum {
    /// Starts an empty accumulator over `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        StreamAccum {
            counts: Counts::new(nodes),
            src_span: vec![None; nodes],
            src_gaps: vec![GroupedSample::new(); nodes],
            aggregate: GroupedSample::new(),
            burst: BurstAccum::new(),
            span: None,
        }
    }

    /// Folds the next block in. Blocks must arrive in trace order: the
    /// block's first event may not precede the last event already
    /// absorbed.
    ///
    /// # Panics
    ///
    /// Panics if the segment was extracted for a different node count.
    pub fn absorb(&mut self, seg: &SegmentExtract) -> Result<(), UnsortedError> {
        self.stitch(&seg.seam)?;
        self.counts.merge(&seg.counts);
        self.aggregate.merge(&seg.agg_grouped);
        for (mine, gaps) in self.src_gaps.iter_mut().zip(&seg.src_gaps) {
            mine.merge(gaps);
        }
        Ok(())
    }

    /// Folds the next block's seam in: the boundary gaps between the
    /// absorbed prefix and the block, and the block's aggregate gaps in
    /// time order. Blocks must arrive in trace order, as for
    /// [`absorb`](Self::absorb); on an error nothing is folded.
    ///
    /// # Panics
    ///
    /// Panics if the seam was extracted for a different node count.
    pub fn stitch(&mut self, seam: &SegmentSeam) -> Result<(), UnsortedError> {
        assert_eq!(seam.nodes, self.counts.nodes, "segment node count mismatch");
        let Some((seg_first, seg_last)) = seam.span else { return Ok(()) };
        if let Some((_, last)) = self.span {
            if seg_first < last {
                return Err(UnsortedError { prev: last, at: seg_first });
            }
            // The aggregate boundary gap precedes the block's internal
            // gaps in time order.
            let boundary = (seg_first - last) as f64;
            self.burst.push(boundary);
            self.aggregate.insert(boundary, 1);
        }
        for &g in &seam.agg_gaps {
            self.burst.push(g);
        }
        for (s, span) in seam.src_span.iter().enumerate() {
            let Some((first, last)) = *span else { continue };
            self.src_span[s] = Some(match self.src_span[s] {
                // Global time order makes `first >= prev_last` here.
                Some((global_first, prev_last)) => {
                    self.src_gaps[s].insert((first - prev_last) as f64, 1);
                    (global_first, last)
                }
                None => (first, last),
            });
        }
        self.span = Some(match self.span {
            Some((first, _)) => (first, seg_last),
            None => (seg_first, seg_last),
        });
        Ok(())
    }

    /// Adds a worker's [`BlockTally`]: the order-free statistics of
    /// blocks whose seams have been [`stitch`](Self::stitch)ed.
    ///
    /// # Panics
    ///
    /// Panics if the tally is over a different node count.
    pub fn merge(&mut self, tally: BlockTally) {
        assert_eq!(tally.counts.nodes, self.counts.nodes, "tally node count mismatch");
        self.counts.merge(&tally.counts);
        for (mine, levels) in self.src_gaps.iter_mut().zip(tally.src_gaps) {
            levels.merge_into(mine);
        }
        tally.aggregate.merge_into(&mut self.aggregate);
    }

    /// Completes the pass. The profile is identical to [`profile`]'s
    /// output over the same events (per-source mean gaps telescope:
    /// `(last − first) / (messages − 1)` equals the sum of the gaps, in
    /// exact u64 arithmetic).
    pub fn finish(self) -> StreamExtract {
        let Counts { nodes, msgs, bytes, pairs, total_bytes, kind_counts, length_counts } =
            self.counts;
        let sources = pairs
            .into_rows(nodes)
            .into_iter()
            .enumerate()
            .map(|(s, (dest_counts, dest_bytes))| SourceProfile {
                src: s as u16,
                messages: msgs[s],
                bytes: bytes[s],
                mean_gap: match self.src_span[s] {
                    Some((first, last)) if msgs[s] >= 2 => {
                        (last - first) as f64 / (msgs[s] - 1) as f64
                    }
                    _ => 0.0,
                },
                dest_counts,
                dest_bytes,
            })
            .collect();
        let messages: u64 = msgs.iter().sum();
        let profile = TraceProfile {
            sources,
            messages,
            bytes: total_bytes,
            mean_bytes: if messages == 0 { 0.0 } else { total_bytes as f64 / messages as f64 },
            span: self.span.map_or(0, |(first, last)| last - first),
            kind_counts,
        };
        StreamExtract {
            profile,
            per_source: self.src_gaps,
            aggregate: self.aggregate,
            burstiness: self.burst.finish(),
            length_counts,
        }
    }
}

/// Computes the profile of a trace.
///
/// # Example
///
/// ```
/// use commchar_trace::{profile::profile, CommEvent, CommTrace, EventKind};
/// let mut tr = CommTrace::new(2);
/// tr.push(CommEvent::new(0, 0, 0, 1, 10, EventKind::Data));
/// tr.push(CommEvent::new(1, 100, 0, 1, 30, EventKind::Data));
/// let p = profile(&tr);
/// assert_eq!(p.messages, 2);
/// assert_eq!(p.sources[0].mean_gap, 100.0);
/// ```
pub fn profile(trace: &CommTrace) -> TraceProfile {
    let nodes = trace.nodes();
    let mut sources: Vec<SourceProfile> = (0..nodes)
        .map(|s| SourceProfile {
            src: s as u16,
            messages: 0,
            bytes: 0,
            mean_gap: 0.0,
            dest_counts: vec![0; nodes],
            dest_bytes: vec![0; nodes],
        })
        .collect();
    // Each source's earliest and latest send: the gaps between its sorted
    // sends telescope, so their mean is `(last − first) / (messages − 1)`.
    let mut first = vec![u64::MAX; nodes];
    let mut last = vec![0u64; nodes];
    let mut bytes = 0u64;
    let mut kind_counts = [0u64; 3];
    for e in trace.events() {
        let s = e.src as usize;
        let src = &mut sources[s];
        src.messages += 1;
        src.bytes += e.bytes as u64;
        src.dest_counts[e.dst as usize] += 1;
        src.dest_bytes[e.dst as usize] += e.bytes as u64;
        first[s] = first[s].min(e.t);
        last[s] = last[s].max(e.t);
        bytes += e.bytes as u64;
        kind_counts[kind_slot(e.kind)] += 1;
    }
    for (s, src) in sources.iter_mut().enumerate() {
        if src.messages >= 2 {
            src.mean_gap = (last[s] - first[s]) as f64 / (src.messages - 1) as f64;
        }
    }
    let messages = trace.len() as u64;
    let span = match (first.iter().min(), last.iter().max()) {
        (Some(&lo), Some(&hi)) if messages > 0 => hi - lo,
        _ => 0,
    };
    TraceProfile {
        sources,
        messages,
        bytes,
        mean_bytes: if messages == 0 { 0.0 } else { bytes as f64 / messages as f64 },
        span,
        kind_counts,
    }
}

/// Index of `kind` in [`TraceProfile::kind_counts`].
fn kind_slot(kind: EventKind) -> usize {
    match kind {
        EventKind::Control => 0,
        EventKind::Data => 1,
        EventKind::Sync => 2,
    }
}

/// Per-source inter-arrival (inter-send) gaps — the temporal attribute's
/// raw sample, by source.
pub fn interarrival_by_source(trace: &CommTrace) -> Vec<Vec<f64>> {
    let n = trace.nodes();
    let mut times: Vec<Vec<u64>> = vec![Vec::new(); n];
    for e in trace.events() {
        times[e.src as usize].push(e.t);
    }
    times
        .into_iter()
        .map(|mut ts| {
            ts.sort_unstable();
            ts.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
        })
        .collect()
}

/// Aggregate inter-arrival gaps across all sources (messages entering the
/// network anywhere) — the paper's network-wide message generation view.
pub fn interarrival_aggregate(trace: &CommTrace) -> Vec<f64> {
    let mut ts: Vec<u64> = trace.events().iter().map(|e| e.t).collect();
    ts.sort_unstable();
    ts.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommEvent;

    fn trace() -> CommTrace {
        let mut tr = CommTrace::new(3);
        tr.push(CommEvent::new(0, 0, 0, 1, 8, EventKind::Control));
        tr.push(CommEvent::new(1, 10, 0, 2, 40, EventKind::Data));
        tr.push(CommEvent::new(2, 30, 0, 1, 8, EventKind::Sync));
        tr.push(CommEvent::new(3, 5, 1, 0, 16, EventKind::Data));
        tr
    }

    #[test]
    fn profile_counts() {
        let p = profile(&trace());
        assert_eq!(p.messages, 4);
        assert_eq!(p.bytes, 72);
        assert_eq!(p.kind_counts, [1, 2, 1]);
        assert_eq!(p.span, 30);
        assert_eq!(p.sources[0].messages, 3);
        assert_eq!(p.sources[0].dest_counts, vec![0, 2, 1]);
        assert_eq!(p.sources[1].dest_bytes, vec![16, 0, 0]);
        assert_eq!(p.sources[2].messages, 0);
    }

    #[test]
    fn gaps() {
        let p = profile(&trace());
        assert!((p.sources[0].mean_gap - 15.0).abs() < 1e-12);
        let by_src = interarrival_by_source(&trace());
        assert_eq!(by_src[0], vec![10.0, 20.0]);
        assert!(by_src[1].is_empty());
        let agg = interarrival_aggregate(&trace());
        assert_eq!(agg, vec![5.0, 5.0, 20.0]);
    }

    #[test]
    fn empty_trace_profile() {
        let p = profile(&CommTrace::new(2));
        assert_eq!(p.messages, 0);
        assert_eq!(p.span, 0);
        assert_eq!(p.mean_bytes, 0.0);
    }

    /// A deterministically scrambled-but-sortable trace with several
    /// sources, duplicate timestamps and silent-source stretches.
    fn sorted_trace(n_events: u64) -> CommTrace {
        let mut tr = CommTrace::new(4);
        let mut t = 0u64;
        for i in 0..n_events {
            t += (i * i + 3) % 7; // includes zero increments
            let src = ((i * 5 + 1) % 4) as u16;
            let dst = (src + 1 + (i % 3) as u16) % 4;
            let kind = match i % 3 {
                0 => EventKind::Control,
                1 => EventKind::Data,
                _ => EventKind::Sync,
            };
            tr.push(CommEvent::new(i, t, src, dst, 8 + (i % 5) as u32 * 16, kind));
        }
        tr
    }

    /// The blocks of `block` events folded by [`StreamAccum::absorb`]
    /// (`workers == 0`), or dealt round-robin to `workers` tallies whose
    /// seams are stitched in order and which are merged at the end.
    fn stream_over_blocks(tr: &CommTrace, block: usize, workers: usize) -> StreamExtract {
        let mut acc = StreamAccum::new(tr.nodes());
        let mut tallies = vec![BlockTally::new(tr.nodes()); workers];
        for (i, chunk) in tr.events().chunks(block.max(1)).enumerate() {
            let seg = SegmentExtract::from_events(tr.nodes(), chunk).unwrap();
            match tallies.len() {
                0 => acc.absorb(&seg).unwrap(),
                n => acc.stitch(&tallies[i % n].absorb(seg)).unwrap(),
            }
        }
        for t in tallies {
            acc.merge(t);
        }
        acc.finish()
    }

    #[test]
    fn streamed_extraction_equals_batch_for_any_block_size() {
        let tr = sorted_trace(257);
        let per_source = interarrival_by_source(&tr);
        let aggregate = interarrival_aggregate(&tr);
        let batch = profile(&tr);
        for (block, workers) in
            [1, 2, 3, 7, 64, 1000].into_iter().flat_map(|b| (0..4).map(move |w| (b, w)))
        {
            let st = stream_over_blocks(&tr, block, workers);
            // Gap multisets are exactly the batch samples, grouped.
            for (s, gaps) in per_source.iter().enumerate() {
                assert_eq!(
                    st.per_source[s],
                    GroupedSample::from_samples(gaps),
                    "src {s}, {block}-event blocks, {workers} tallies"
                );
            }
            assert_eq!(st.aggregate, GroupedSample::from_samples(&aggregate));
            // Profile integers and telescoped mean gaps are identical.
            assert_eq!(st.profile.messages, batch.messages);
            assert_eq!(st.profile.bytes, batch.bytes);
            assert_eq!(st.profile.span, batch.span);
            assert_eq!(st.profile.kind_counts, batch.kind_counts);
            assert_eq!(st.profile.mean_bytes, batch.mean_bytes);
            for (sp, bp) in st.profile.sources.iter().zip(&batch.sources) {
                assert_eq!(sp.messages, bp.messages);
                assert_eq!(sp.dest_counts, bp.dest_counts);
                assert_eq!(sp.dest_bytes, bp.dest_bytes);
                assert_eq!(sp.mean_gap, bp.mean_gap, "src {}", sp.src);
            }
            // Burstiness is fed the identical ordered sequence.
            let b = commchar_stats::burstiness::burstiness(&aggregate);
            assert!(st.burstiness.cv2 == b.cv2);
            assert!(
                st.burstiness.idi8 == b.idi8 || (st.burstiness.idi8.is_nan() && b.idi8.is_nan())
            );
            assert!(
                st.burstiness.rho1 == b.rho1 || (st.burstiness.rho1.is_nan() && b.rho1.is_nan())
            );
            // Length counts match the observed lengths.
            let mut want = BTreeMap::new();
            for e in tr.events() {
                *want.entry(e.bytes).or_insert(0u64) += 1;
            }
            assert_eq!(st.length_counts, want);
        }
    }

    #[test]
    fn unsorted_input_is_a_typed_error() {
        let events = [
            CommEvent::new(0, 10, 0, 1, 8, EventKind::Data),
            CommEvent::new(1, 4, 0, 1, 8, EventKind::Data),
        ];
        let err = SegmentExtract::from_events(2, &events).unwrap_err();
        assert_eq!(err, UnsortedError { prev: 10, at: 4 });

        let early = SegmentExtract::from_events(2, &events[1..]).unwrap();
        let late = SegmentExtract::from_events(2, &events[..1]).unwrap();
        let mut acc = StreamAccum::new(2);
        acc.absorb(&late).unwrap();
        assert_eq!(acc.absorb(&early).unwrap_err(), UnsortedError { prev: 10, at: 4 });
    }

    /// Destination counts kept per pair seen add up to the batch
    /// profile's rows on a trace wider than a block touches.
    #[test]
    fn wide_traces_count_destinations_per_pair() {
        let nodes = 300;
        let mut tr = CommTrace::new(nodes);
        for i in 0..2000u64 {
            let src = (i * 7 % nodes as u64) as u16;
            let dst = ((i * 13 + 1) % nodes as u64) as u16;
            if src != dst {
                tr.push(CommEvent::new(i, i / 3, src, dst, 8 + (i % 9) as u32, EventKind::Data));
            }
        }
        let batch = profile(&tr);
        for workers in [0, 1, 3] {
            let st = stream_over_blocks(&tr, 97, workers);
            for (sp, bp) in st.profile.sources.iter().zip(&batch.sources) {
                assert_eq!(sp.dest_counts, bp.dest_counts, "src {}", sp.src);
                assert_eq!(sp.dest_bytes, bp.dest_bytes, "src {}", sp.src);
            }
        }
    }

    #[test]
    fn runs_fold_binary_counter_style() {
        let mut levels = RunLevels::default();
        for i in 0..11 {
            levels.push(GroupedSample::from_samples(&[f64::from(i)]));
            levels.push(GroupedSample::new());
        }
        // Eleven distinct one-run samples: each level holds under half
        // the runs of the one below it.
        let runs: Vec<usize> = levels.0.iter().map(GroupedSample::distinct_len).collect();
        assert_eq!(runs, vec![8, 3]);
        // A sample of repeated values merges down into the level it
        // overlaps instead of stacking.
        levels.push(GroupedSample::from_samples(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]));
        let runs: Vec<usize> = levels.0.iter().map(GroupedSample::distinct_len).collect();
        assert_eq!(runs, vec![11]);
        let mut all = GroupedSample::new();
        levels.merge_into(&mut all);
        let want: Vec<f64> = (0..11).chain(0..6).map(f64::from).collect();
        assert_eq!(all, GroupedSample::from_samples(&want));
    }

    #[test]
    fn empty_segments_are_identity() {
        let mut acc = StreamAccum::new(3);
        acc.absorb(&SegmentExtract::from_events(3, &[]).unwrap()).unwrap();
        let st = acc.finish();
        assert_eq!(st.profile.messages, 0);
        assert_eq!(st.profile.span, 0);
        assert!(st.aggregate.is_empty());
    }
}
