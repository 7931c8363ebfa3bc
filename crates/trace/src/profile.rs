//! Trace profiling: per-source workload summaries.
//!
//! [`profile`], [`interarrival_by_source`] and [`interarrival_aggregate`]
//! are plain passes over an in-memory [`CommTrace`]. The analysis pipeline
//! streams instead: [`SegmentExtract::from_events`] condenses one
//! time-sorted block of events into a constant-size partial (grouped gap
//! runs, integer counters), and [`StreamAccum`] folds the partials in time
//! order, stitching the boundary gaps between consecutive blocks. The
//! result ([`StreamExtract`]) represents exactly the same gap multisets and
//! profile integers as the plain passes, without ever materializing the
//! event stream.

use std::collections::BTreeMap;

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

/// Constant-size partial extraction of one time-sorted block of events:
/// per-source counters, grouped gap runs, and the block's ordered
/// aggregate gaps (bounded by the block length). Built independently per
/// block — in parallel, if the caller wants — and folded in time order by
/// [`StreamAccum::absorb`].
#[derive(Clone, Debug)]
pub struct SegmentExtract {
    nodes: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
    dest_counts: Vec<Vec<u64>>,
    dest_bytes: Vec<Vec<u64>>,
    /// Per-source (first, last) send times; `None` when the source is
    /// silent in this block.
    src_span: Vec<Option<(u64, u64)>>,
    src_gaps: Vec<GroupedSample>,
    /// Aggregate gaps internal to the block, in time order (the burstiness
    /// accumulator needs the order; the fit only needs the runs).
    agg_gaps: Vec<f64>,
    agg_grouped: GroupedSample,
    span: Option<(u64, u64)>,
    total_bytes: u64,
    kind_counts: [u64; 3],
    length_counts: BTreeMap<u32, u64>,
}

impl SegmentExtract {
    /// Extracts one block. `events` must be sorted by time (nondecreasing)
    /// — packed CCTRACE1 traces are — or an [`UnsortedError`] is returned.
    ///
    /// # Panics
    ///
    /// Panics if an event's endpoints are out of range for `nodes`.
    pub fn from_events(nodes: usize, events: &[CommEvent]) -> Result<Self, UnsortedError> {
        let mut seg = SegmentExtract {
            nodes,
            msgs: vec![0; nodes],
            bytes: vec![0; nodes],
            dest_counts: vec![vec![0; nodes]; nodes],
            dest_bytes: vec![vec![0; nodes]; nodes],
            src_span: vec![None; nodes],
            src_gaps: vec![GroupedSample::new(); nodes],
            agg_gaps: Vec::new(),
            agg_grouped: GroupedSample::new(),
            span: None,
            total_bytes: 0,
            kind_counts: [0; 3],
            length_counts: BTreeMap::new(),
        };
        let mut prev_by_src: Vec<Option<u64>> = vec![None; nodes];
        let mut prev: Option<u64> = None;
        for e in events {
            if let Some(p) = prev {
                if e.t < p {
                    return Err(UnsortedError { prev: p, at: e.t });
                }
                seg.agg_gaps.push((e.t - p) as f64);
            }
            prev = Some(e.t);
            let s = e.src as usize;
            if let Some(p) = prev_by_src[s] {
                seg.src_gaps[s].insert((e.t - p) as f64, 1);
            }
            prev_by_src[s] = Some(e.t);
            seg.msgs[s] += 1;
            seg.bytes[s] += e.bytes as u64;
            seg.dest_counts[s][e.dst as usize] += 1;
            seg.dest_bytes[s][e.dst as usize] += e.bytes as u64;
            seg.src_span[s] = Some(seg.src_span[s].map_or((e.t, e.t), |(first, _)| (first, e.t)));
            seg.span = Some(seg.span.map_or((e.t, e.t), |(first, _)| (first, e.t)));
            seg.total_bytes += e.bytes as u64;
            *seg.length_counts.entry(e.bytes).or_insert(0) += 1;
            seg.kind_counts[kind_slot(e.kind)] += 1;
        }
        seg.agg_grouped = GroupedSample::from_samples(&seg.agg_gaps);
        Ok(seg)
    }

    /// Events in the block.
    pub fn messages(&self) -> u64 {
        self.msgs.iter().sum()
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
/// can see. Memory is O(distinct gap values + nodes²), independent of
/// trace length — communication traces are tick-quantized, so the
/// distinct-gap count saturates.
#[derive(Clone, Debug)]
pub struct StreamAccum {
    nodes: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
    dest_counts: Vec<Vec<u64>>,
    dest_bytes: Vec<Vec<u64>>,
    src_span: Vec<Option<(u64, u64)>>,
    src_gaps: Vec<GroupedSample>,
    aggregate: GroupedSample,
    burst: BurstAccum,
    span: Option<(u64, u64)>,
    total_bytes: u64,
    kind_counts: [u64; 3],
    length_counts: BTreeMap<u32, u64>,
}

impl StreamAccum {
    /// Starts an empty accumulator over `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        StreamAccum {
            nodes,
            msgs: vec![0; nodes],
            bytes: vec![0; nodes],
            dest_counts: vec![vec![0; nodes]; nodes],
            dest_bytes: vec![vec![0; nodes]; nodes],
            src_span: vec![None; nodes],
            src_gaps: vec![GroupedSample::new(); nodes],
            aggregate: GroupedSample::new(),
            burst: BurstAccum::new(),
            span: None,
            total_bytes: 0,
            kind_counts: [0; 3],
            length_counts: BTreeMap::new(),
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
        assert_eq!(seg.nodes, self.nodes, "segment node count mismatch");
        let Some((seg_first, seg_last)) = seg.span else { return Ok(()) };
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
        for &g in &seg.agg_gaps {
            self.burst.push(g);
        }
        self.aggregate.merge(&seg.agg_grouped);
        for s in 0..self.nodes {
            let Some((first, last)) = seg.src_span[s] else { continue };
            self.src_span[s] = Some(match self.src_span[s] {
                // Global time order makes `first >= prev_last` here.
                Some((global_first, prev_last)) => {
                    self.src_gaps[s].insert((first - prev_last) as f64, 1);
                    (global_first, last)
                }
                None => (first, last),
            });
            self.src_gaps[s].merge(&seg.src_gaps[s]);
            self.msgs[s] += seg.msgs[s];
            self.bytes[s] += seg.bytes[s];
            for d in 0..self.nodes {
                self.dest_counts[s][d] += seg.dest_counts[s][d];
                self.dest_bytes[s][d] += seg.dest_bytes[s][d];
            }
        }
        self.span = Some(match self.span {
            Some((first, _)) => (first, seg_last),
            None => (seg_first, seg_last),
        });
        self.total_bytes += seg.total_bytes;
        for k in 0..3 {
            self.kind_counts[k] += seg.kind_counts[k];
        }
        for (&len, &c) in &seg.length_counts {
            *self.length_counts.entry(len).or_insert(0) += c;
        }
        Ok(())
    }

    /// Completes the pass. The profile is identical to [`profile`]'s
    /// output over the same events (per-source mean gaps telescope:
    /// `(last − first) / (messages − 1)` equals the sum of the gaps, in
    /// exact u64 arithmetic).
    pub fn finish(self) -> StreamExtract {
        let sources = (0..self.nodes)
            .map(|s| SourceProfile {
                src: s as u16,
                messages: self.msgs[s],
                bytes: self.bytes[s],
                mean_gap: match self.src_span[s] {
                    Some((first, last)) if self.msgs[s] >= 2 => {
                        (last - first) as f64 / (self.msgs[s] - 1) as f64
                    }
                    _ => 0.0,
                },
                dest_counts: self.dest_counts[s].clone(),
                dest_bytes: self.dest_bytes[s].clone(),
            })
            .collect();
        let messages: u64 = self.msgs.iter().sum();
        let profile = TraceProfile {
            sources,
            messages,
            bytes: self.total_bytes,
            mean_bytes: if messages == 0 { 0.0 } else { self.total_bytes as f64 / messages as f64 },
            span: self.span.map_or(0, |(first, last)| last - first),
            kind_counts: self.kind_counts,
        };
        StreamExtract {
            profile,
            per_source: self.src_gaps,
            aggregate: self.aggregate,
            burstiness: self.burst.finish(),
            length_counts: self.length_counts,
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

    fn stream_over_blocks(tr: &CommTrace, block: usize) -> StreamExtract {
        let mut acc = StreamAccum::new(tr.nodes());
        for chunk in tr.events().chunks(block.max(1)) {
            let seg = SegmentExtract::from_events(tr.nodes(), chunk).unwrap();
            acc.absorb(&seg).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn streamed_extraction_equals_batch_for_any_block_size() {
        let tr = sorted_trace(257);
        let per_source = interarrival_by_source(&tr);
        let aggregate = interarrival_aggregate(&tr);
        let batch = profile(&tr);
        for block in [1, 2, 3, 7, 64, 1000] {
            let st = stream_over_blocks(&tr, block);
            // Gap multisets are exactly the batch samples, grouped.
            for (s, gaps) in per_source.iter().enumerate() {
                assert_eq!(st.per_source[s], GroupedSample::from_samples(gaps), "src {s}");
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
