//! Streaming consumption of network activity.
//!
//! The network models historically produced a [`NetLog`] — one retained
//! [`MsgRecord`] per message. That is the right representation for the
//! characterization pipeline (distribution fitting needs the raw sample),
//! but it makes memory grow linearly with traffic, which rules out
//! long-horizon runs. The [`LogSink`] trait decouples the wormhole model
//! from what happens to each delivered message:
//!
//! - [`NetLog`] implements [`LogSink`] by retaining every record (the
//!   default, fully backward compatible), and
//! - [`StreamingLog`] folds each record into online moments
//!   ([`RunningStats`]), an auto-widening latency histogram, and per-pair
//!   traffic matrices — O(bins + P²) memory, independent of message count.

use commchar_des::RunningStats;
use commchar_stats::StreamingHistogram;

use crate::log::{MsgRecord, NetLog, NetSummary};

/// A consumer of completed message records, fed by a network model as
/// each message is delivered.
///
/// `finish` is called exactly once, when the model is torn down, with the
/// per-channel utilization it observed.
pub trait LogSink {
    /// Consumes one delivered message.
    fn record(&mut self, rec: MsgRecord);

    /// Receives the per-channel utilization `(channel id, fraction)` at
    /// end of simulation.
    fn finish(&mut self, utilization: Vec<(u32, f64)>);
}

impl LogSink for NetLog {
    fn record(&mut self, rec: MsgRecord) {
        self.push(rec);
    }

    fn finish(&mut self, utilization: Vec<(u32, f64)>) {
        self.set_utilization(utilization);
    }
}

/// Bin count of the streaming latency histogram.
const LATENCY_BINS: usize = 64;

/// Online network statistics in O(bins + P²) memory.
///
/// Each delivered message updates Welford accumulators (latency, blocked
/// time, payload, hops, inter-arrival), a latency [`StreamingHistogram`],
/// and P×P message/byte matrices.
/// Nothing is retained per message, so a run of 10 million messages holds
/// exactly as much memory as a run of ten — see
/// [`approx_mem_bytes`](StreamingLog::approx_mem_bytes).
///
/// The moment accumulators see values in the same order a [`NetLog`]
/// would record them, so means and variances agree with log-derived
/// statistics to floating-point accuracy; median and p95 come from the
/// histogram and are exact to within one bin width.
///
/// # Example
///
/// ```
/// use commchar_des::SimTime;
/// use commchar_mesh::{MeshConfig, NetMessage, NodeId, OnlineWormhole, StreamingLog};
///
/// let cfg = MeshConfig::new(4, 2);
/// let mut net = OnlineWormhole::with_sink(cfg, StreamingLog::new(cfg.shape.nodes()));
/// net.send(NetMessage {
///     id: 0,
///     src: NodeId(0),
///     dst: NodeId(7),
///     bytes: 40,
///     inject: SimTime::ZERO,
/// });
/// let stream = net.into_sink();
/// assert_eq!(stream.messages(), 1);
/// assert!(stream.summary().mean_latency > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingLog {
    nodes: usize,
    latency: RunningStats,
    blocked: RunningStats,
    bytes: RunningStats,
    hops: RunningStats,
    interarrival: RunningStats,
    latency_hist: StreamingHistogram,
    /// Per-source previous injection time (inter-arrival state).
    last_inject: Vec<Option<u64>>,
    /// Row-major P×P message counts (`src × nodes + dst`).
    msg_counts: Vec<u64>,
    /// Row-major P×P payload byte totals.
    byte_counts: Vec<u64>,
    total_bytes: u64,
    first_inject: Option<u64>,
    last_delivery: u64,
    utilization: Vec<(u32, f64)>,
}

impl StreamingLog {
    /// Creates an empty accumulator for a `nodes`-processor network, with
    /// a 64-bin latency histogram.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> StreamingLog {
        assert!(nodes > 0, "streaming log needs at least one node");
        StreamingLog {
            nodes,
            latency: RunningStats::new(),
            blocked: RunningStats::new(),
            bytes: RunningStats::new(),
            hops: RunningStats::new(),
            interarrival: RunningStats::new(),
            latency_hist: StreamingHistogram::new(LATENCY_BINS),
            last_inject: vec![None; nodes],
            msg_counts: vec![0; nodes * nodes],
            byte_counts: vec![0; nodes * nodes],
            total_bytes: 0,
            first_inject: None,
            last_delivery: 0,
            utilization: Vec::new(),
        }
    }

    /// Node count the accumulator was sized for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Messages folded in so far.
    pub fn messages(&self) -> u64 {
        self.latency.count()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Online latency moments (mean/variance/min/max in ticks).
    pub fn latency(&self) -> &RunningStats {
        &self.latency
    }

    /// Online blocked-time (contention) moments.
    pub fn blocked(&self) -> &RunningStats {
        &self.blocked
    }

    /// Online payload-length moments (bytes).
    pub fn bytes(&self) -> &RunningStats {
        &self.bytes
    }

    /// Online hop-count moments.
    pub fn hops(&self) -> &RunningStats {
        &self.hops
    }

    /// Online per-source inter-arrival moments (ticks between consecutive
    /// injections from the same source).
    pub fn interarrival(&self) -> &RunningStats {
        &self.interarrival
    }

    /// The auto-widening latency histogram.
    pub fn latency_histogram(&self) -> &StreamingHistogram {
        &self.latency_hist
    }

    /// `counts[src][dst]` message counts — same shape as
    /// [`NetLog::spatial_counts`].
    pub fn spatial_counts(&self) -> Vec<Vec<u64>> {
        self.msg_counts.chunks(self.nodes).map(|row| row.to_vec()).collect()
    }

    /// `bytes[src][dst]` payload totals — same shape as
    /// [`NetLog::volume_bytes`].
    pub fn volume_bytes(&self) -> Vec<Vec<u64>> {
        self.byte_counts.chunks(self.nodes).map(|row| row.to_vec()).collect()
    }

    /// Simulated span: last delivery − first injection (ticks).
    pub fn span(&self) -> u64 {
        match self.first_inject {
            Some(first) => self.last_delivery.saturating_sub(first),
            None => 0,
        }
    }

    /// Per-channel utilization, available after the model calls
    /// [`LogSink::finish`].
    pub fn utilization(&self) -> &[(u32, f64)] {
        &self.utilization
    }

    /// Aggregate summary in the same shape a [`NetLog`] produces. Means
    /// are exact (same accumulation the batch path uses); median and p95
    /// are histogram approximations, exact to within one bin width.
    pub fn summary(&self) -> NetSummary {
        let span = self.span();
        NetSummary {
            messages: self.messages(),
            mean_latency: self.latency.mean(),
            median_latency: self.latency_hist.quantile(0.5),
            p95_latency: self.latency_hist.quantile(0.95),
            mean_blocked: self.blocked.mean(),
            mean_bytes: self.bytes.mean(),
            mean_hops: self.hops.mean(),
            span,
            throughput: if span == 0 { 0.0 } else { self.total_bytes as f64 / span as f64 },
        }
    }

    /// Heap bytes held by the accumulator's growable structures. Constant
    /// for the accumulator's lifetime — O(bins + P²), never a function of
    /// how many messages were recorded (the property the streaming path
    /// exists to provide; asserted by tests at the 10M-message scale).
    pub fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.latency_hist.mem_bytes()
            + self.last_inject.capacity() * size_of::<Option<u64>>()
            + self.msg_counts.capacity() * size_of::<u64>()
            + self.byte_counts.capacity() * size_of::<u64>()
            + self.utilization.capacity() * size_of::<(u32, f64)>()
    }
}

impl LogSink for StreamingLog {
    fn record(&mut self, rec: MsgRecord) {
        let s = rec.src.index();
        let d = rec.dst.index();
        assert!(s < self.nodes && d < self.nodes, "record outside the configured node range");
        let latency = rec.latency();
        self.latency.record(latency as f64);
        self.blocked.record(rec.blocked() as f64);
        self.bytes.record(rec.bytes as f64);
        self.hops.record(rec.hops as f64);
        self.latency_hist.record(latency);
        if let Some(prev) = self.last_inject[s] {
            let gap = rec.inject.saturating_sub(prev);
            self.interarrival.record(gap as f64);
        }
        self.last_inject[s] = Some(rec.inject);
        self.msg_counts[s * self.nodes + d] += 1;
        self.byte_counts[s * self.nodes + d] += rec.bytes as u64;
        self.total_bytes += rec.bytes as u64;
        self.first_inject = Some(self.first_inject.map_or(rec.inject, |f| f.min(rec.inject)));
        self.last_delivery = self.last_delivery.max(rec.delivered);
    }

    fn finish(&mut self, utilization: Vec<(u32, f64)>) {
        self.utilization = utilization;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn rec(id: u64, src: u16, dst: u16, bytes: u32, inject: u64, delivered: u64) -> MsgRecord {
        MsgRecord {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            inject,
            delivered,
            hops: 1,
            zero_load: 5,
        }
    }

    #[test]
    fn netlog_sink_is_push() {
        let mut log = NetLog::new();
        LogSink::record(&mut log, rec(0, 0, 1, 16, 0, 10));
        LogSink::finish(&mut log, vec![(0, 0.5)]);
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.utilization(), &[(0, 0.5)]);
    }

    #[test]
    fn streaming_summary_matches_netlog_on_identical_records() {
        let records: Vec<MsgRecord> = (0..500u64)
            .map(|i| {
                rec(
                    i,
                    (i % 4) as u16,
                    ((i + 1) % 4) as u16,
                    8 + (i % 64) as u32,
                    i * 3,
                    i * 3 + 10 + i % 7,
                )
            })
            .collect();
        let mut log = NetLog::new();
        let mut stream = StreamingLog::new(4);
        for r in &records {
            log.push(*r);
            stream.record(*r);
        }
        let a = log.summary();
        let b = stream.summary();
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.span, b.span);
        assert!((a.mean_latency - b.mean_latency).abs() < 1e-9);
        assert!((a.mean_blocked - b.mean_blocked).abs() < 1e-9);
        assert!((a.mean_bytes - b.mean_bytes).abs() < 1e-9);
        assert!((a.mean_hops - b.mean_hops).abs() < 1e-9);
        assert!((a.throughput - b.throughput).abs() < 1e-12);
        // Quantiles are histogram approximations: within one bin width.
        let w = stream.latency_histogram().width() as f64;
        assert!((a.median_latency - b.median_latency).abs() <= w);
        assert!((a.p95_latency - b.p95_latency).abs() <= w);
    }

    #[test]
    fn streaming_matrices_match_netlog_views() {
        let records = [
            rec(0, 0, 1, 10, 0, 10),
            rec(1, 0, 1, 30, 5, 25),
            rec(2, 1, 0, 8, 6, 30),
            rec(3, 2, 3, 100, 9, 40),
        ];
        let mut log = NetLog::new();
        let mut stream = StreamingLog::new(4);
        for r in &records {
            log.push(*r);
            stream.record(*r);
        }
        assert_eq!(stream.spatial_counts(), log.spatial_counts(4));
        assert_eq!(stream.volume_bytes(), log.volume_bytes(4));
        assert_eq!(stream.total_bytes(), 148);
    }

    #[test]
    fn streaming_interarrival_is_per_source() {
        let mut stream = StreamingLog::new(2);
        // Source 0 injects at 0, 10, 30; source 1 at 5.
        stream.record(rec(0, 0, 1, 8, 0, 9));
        stream.record(rec(1, 1, 0, 8, 5, 14));
        stream.record(rec(2, 0, 1, 8, 10, 19));
        stream.record(rec(3, 0, 1, 8, 30, 39));
        // Gaps: 10 − 0 and 30 − 10, both from source 0 only.
        assert_eq!(stream.interarrival().count(), 2);
        assert!((stream.interarrival().mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_memory_is_independent_of_message_count() {
        let mut stream = StreamingLog::new(8);
        for i in 0..1000u64 {
            stream.record(rec(i, (i % 8) as u16, ((i + 3) % 8) as u16, 64, i * 5, i * 5 + 20));
        }
        let early = stream.approx_mem_bytes();
        for i in 1000..100_000u64 {
            stream.record(rec(i, (i % 8) as u16, ((i + 3) % 8) as u16, 64, i * 5, i * 5 + 20));
        }
        assert_eq!(stream.approx_mem_bytes(), early);
        assert_eq!(stream.messages(), 100_000);
    }

    #[test]
    fn empty_streaming_summary_is_zeroed() {
        let s = StreamingLog::new(4).summary();
        assert_eq!(s.messages, 0);
        assert_eq!(s.span, 0);
        assert_eq!(s.throughput, 0.0);
        assert_eq!(s.median_latency, 0.0);
    }
}
