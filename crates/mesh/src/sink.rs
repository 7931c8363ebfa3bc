//! What a network model does with each delivered message.
//!
//! The [`LogSink`] trait decouples the network models from what happens
//! to each delivered message:
//!
//! - [`NetLog`] implements [`LogSink`] by retaining every record, for the
//!   checks where per-message identity is the point (serial vs sharded,
//!   flit vs its cycle oracle, the determinism goldens), and
//! - [`NetTally`] folds each record into the exact [`NetSummary`] the
//!   characterization reads — Welford moments, a count per distinct
//!   latency, per-source injection gaps — in memory that grows with the
//!   distinct latencies and the sources, never with the message count.

use commchar_des::{FixedMap, RunningStats};

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

/// The exact network summary, folded one delivered message at a time.
///
/// Latency, blocked time and hops feed Welford accumulators in
/// delivery order — the order a [`NetLog`] keeps its records in — and each
/// distinct latency keeps a count, from which median and p95 are the exact
/// order statistics a sorted latency vector gives. [`NetLog::summary`]
/// folds its records through this sink, so a summary is computed one way
/// only. Nothing is kept per message: memory grows with the distinct
/// latencies and the sources, not with the message count.
///
/// # Example
///
/// ```
/// use commchar_des::SimTime;
/// use commchar_mesh::{MeshConfig, NetMessage, NetTally, NodeId, OnlineWormhole};
///
/// let cfg = MeshConfig::new(4, 2);
/// let mut net = OnlineWormhole::with_sink(cfg, NetTally::new());
/// net.send(NetMessage {
///     id: 0,
///     src: NodeId(0),
///     dst: NodeId(7),
///     bytes: 40,
///     inject: SimTime::ZERO,
/// });
/// let tally = net.into_sink();
/// assert_eq!(tally.messages(), 1);
/// assert_eq!(tally.summary().median_latency, tally.summary().mean_latency);
/// ```
#[derive(Clone, Debug)]
pub struct NetTally {
    latency: RunningStats,
    blocked: RunningStats,
    hops: RunningStats,
    /// Messages per distinct latency (ticks).
    latencies: FixedMap<u64, u64>,
    /// Gaps between consecutive injections from the same source.
    interarrival: RunningStats,
    /// Each source's latest injection, indexed by source node.
    last_inject: Vec<Option<u64>>,
    first_inject: Option<u64>,
    last_delivery: u64,
    total_bytes: u64,
    utilization: Vec<(u32, f64)>,
}

impl Default for NetTally {
    fn default() -> Self {
        NetTally::new()
    }
}

impl NetTally {
    /// Creates an empty tally.
    pub fn new() -> NetTally {
        NetTally {
            latency: RunningStats::new(),
            blocked: RunningStats::new(),
            hops: RunningStats::new(),
            latencies: FixedMap::default(),
            interarrival: RunningStats::new(),
            last_inject: Vec::new(),
            first_inject: None,
            last_delivery: 0,
            total_bytes: 0,
            utilization: Vec::new(),
        }
    }

    /// Messages folded in so far.
    pub fn messages(&self) -> u64 {
        self.latency.count()
    }

    /// Latency moments (mean/variance/min/max in ticks).
    pub fn latency(&self) -> &RunningStats {
        &self.latency
    }

    /// Moments of the gaps between consecutive injections from the same
    /// source (ticks).
    pub fn interarrival(&self) -> &RunningStats {
        &self.interarrival
    }

    /// Simulated span: last delivery − first injection (ticks; 0 when
    /// empty).
    pub fn span(&self) -> u64 {
        self.first_inject.map_or(0, |first| self.last_delivery - first)
    }

    /// Per-channel utilization, available after the model calls
    /// [`LogSink::finish`].
    pub fn utilization(&self) -> &[(u32, f64)] {
        &self.utilization
    }

    /// Latency histogram as `(upper bound, count)` rows over `bins`
    /// equal-width bins from 0 to the largest latency — the
    /// latency-distribution figures of network evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn latency_histogram(&self, bins: usize) -> Vec<(u64, u64)> {
        assert!(bins > 0, "need at least one bin");
        let Some(&max) = self.latencies.keys().max() else { return Vec::new() };
        let width = max.max(1).div_ceil(bins as u64).max(1);
        let mut counts = vec![0u64; bins];
        for (&latency, &c) in &self.latencies {
            counts[((latency / width) as usize).min(bins - 1)] += c;
        }
        counts.into_iter().enumerate().map(|(i, c)| ((i as u64 + 1) * width, c)).collect()
    }

    /// The aggregate summary. Median and p95 are the latencies of rank
    /// ⌈q·n⌉ (clamped to 1..=n) in increasing order, exactly as picked
    /// from a sorted vector of every latency.
    pub fn summary(&self) -> NetSummary {
        let n = self.messages();
        let mut sorted: Vec<(u64, u64)> = self.latencies.iter().map(|(&l, &c)| (l, c)).collect();
        sorted.sort_unstable();
        let pick = |q: f64| -> f64 {
            if n == 0 {
                return 0.0;
            }
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let mut seen = 0u64;
            for &(latency, c) in &sorted {
                seen += c;
                if seen >= rank {
                    return latency as f64;
                }
            }
            unreachable!("the latency counts sum to the message count")
        };
        let span = self.span();
        NetSummary {
            messages: n,
            mean_latency: self.latency.mean(),
            median_latency: pick(0.5),
            p95_latency: pick(0.95),
            mean_blocked: self.blocked.mean(),
            mean_hops: self.hops.mean(),
            span,
            throughput: if span == 0 { 0.0 } else { self.total_bytes as f64 / span as f64 },
        }
    }
}

impl LogSink for NetTally {
    fn record(&mut self, rec: MsgRecord) {
        let latency = rec.latency();
        self.latency.record(latency as f64);
        self.blocked.record(rec.blocked() as f64);
        self.hops.record(rec.hops as f64);
        *self.latencies.entry(latency).or_insert(0) += 1;
        let s = rec.src.index();
        if s >= self.last_inject.len() {
            self.last_inject.resize(s + 1, None);
        }
        if let Some(prev) = self.last_inject[s] {
            self.interarrival.record(rec.inject.saturating_sub(prev) as f64);
        }
        self.last_inject[s] = Some(rec.inject);
        self.first_inject = Some(self.first_inject.map_or(rec.inject, |f| f.min(rec.inject)));
        self.last_delivery = self.last_delivery.max(rec.delivered);
        self.total_bytes += rec.bytes as u64;
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
    fn tally_interarrival_is_per_source() {
        let mut tally = NetTally::new();
        // Source 0 injects at 0, 10, 30; source 3 at 5.
        tally.record(rec(0, 0, 1, 8, 0, 9));
        tally.record(rec(1, 3, 0, 8, 5, 14));
        tally.record(rec(2, 0, 1, 8, 10, 19));
        tally.record(rec(3, 0, 1, 8, 30, 39));
        // Gaps: 10 − 0 and 30 − 10, both from source 0 only.
        assert_eq!(tally.interarrival().count(), 2);
        assert_eq!(tally.interarrival().mean(), 15.0);
        assert_eq!(tally.span(), 39);
    }

    #[test]
    fn latency_histogram_covers_everything() {
        let tally = (1..=100u64).fold(NetTally::new(), |mut t, i| {
            t.record(rec(i, 0, 1, 8, 0, i));
            t
        });
        let hist = tally.latency_histogram(10);
        assert_eq!(hist.len(), 10);
        assert_eq!(hist[0], (10, 9));
        assert_eq!(hist[9], (100, 11));
        let total: u64 = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 100);
        assert!(hist.windows(2).all(|w| w[1].0 > w[0].0));
        assert!(NetTally::new().latency_histogram(4).is_empty());
    }

    #[test]
    fn a_million_records_over_a_fixed_latency_range_keep_the_map_bounded() {
        let mut tally = NetTally::new();
        for i in 0..1_000_000u64 {
            let src = (i % 16) as u16;
            let inject = i * 3 + (i % 5) * 11;
            tally.record(rec(i, src, (src + 1) % 16, 8, inject, inject + 20 + i % 97));
        }
        assert_eq!(tally.messages(), 1_000_000);
        assert_eq!(tally.latencies.len(), 97);
        assert_eq!(tally.last_inject.len(), 16);
        assert_eq!(tally.interarrival().count(), 1_000_000 - 16);
    }
}
