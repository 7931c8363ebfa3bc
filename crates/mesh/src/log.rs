//! The network activity log — the methodology's raw observable.

use commchar_des::SimTime;

use crate::{LogSink, MeshShape, NetTally, NodeId};

/// One completed message, as recorded by a network model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRecord {
    /// Caller-supplied message id.
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload bytes.
    pub bytes: u32,
    /// Injection time (ticks).
    pub inject: u64,
    /// Delivery time of the tail flit at the destination NI (ticks).
    pub delivered: u64,
    /// Inter-router hops traversed.
    pub hops: u32,
    /// Contention-free latency for this size and distance (ticks).
    pub zero_load: u64,
}

impl MsgRecord {
    /// Total network latency (injection to tail delivery).
    pub fn latency(&self) -> u64 {
        self.delivered - self.inject
    }

    /// Time lost to contention (latency above the contention-free bound).
    pub fn blocked(&self) -> u64 {
        self.latency().saturating_sub(self.zero_load)
    }
}

/// Aggregate statistics over a network run, as a [`NetTally`] folds them.
#[derive(Clone, Debug)]
pub struct NetSummary {
    /// Number of messages.
    pub messages: u64,
    /// Mean network latency (ticks).
    pub mean_latency: f64,
    /// Median network latency (ticks).
    pub median_latency: f64,
    /// 95th-percentile network latency (ticks).
    pub p95_latency: f64,
    /// Mean contention (blocked) time per message (ticks).
    pub mean_blocked: f64,
    /// Mean hop count.
    pub mean_hops: f64,
    /// Total simulated span: last delivery − first injection (ticks).
    pub span: u64,
    /// Aggregate injected throughput over the span (bytes/tick).
    pub throughput: f64,
}

/// The log of all network activity from one simulation.
///
/// Records are kept in delivery order as produced by the model. The
/// pipeline reads only the [`summary`](NetLog::summary), which a
/// [`NetTally`] folds without keeping the records; a log is for checks
/// where each message's identity is the point.
///
/// # Example
///
/// ```
/// use commchar_mesh::{MeshConfig, NetMessage, NodeId, OnlineWormhole};
/// use commchar_des::SimTime;
///
/// let msgs = vec![
///     NetMessage { id: 0, src: NodeId(0), dst: NodeId(1), bytes: 8, inject: SimTime::ZERO },
///     NetMessage { id: 1, src: NodeId(0), dst: NodeId(3), bytes: 8, inject: SimTime::from_ticks(5) },
/// ];
/// let log = OnlineWormhole::new(MeshConfig::new(2, 2)).simulate(&msgs);
/// assert_eq!(log.summary().messages, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NetLog {
    records: Vec<MsgRecord>,
    utilization: Vec<(u32, f64)>,
}

impl NetLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        NetLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: MsgRecord) {
        debug_assert!(rec.delivered >= rec.inject);
        self.records.push(rec);
    }

    /// Attaches per-channel utilization figures `(channel id, fraction)`.
    pub fn set_utilization(&mut self, util: Vec<(u32, f64)>) {
        self.utilization = util;
    }

    /// Per-channel utilization, if the model recorded it.
    pub fn utilization(&self) -> &[(u32, f64)] {
        &self.utilization
    }

    /// All records.
    pub fn records(&self) -> &[MsgRecord] {
        &self.records
    }

    /// Consumes the log, returning the records.
    pub fn into_records(self) -> Vec<MsgRecord> {
        self.records
    }

    /// Aggregate summary statistics: the records folded, in log order,
    /// through a [`NetTally`], the one place a summary is computed.
    pub fn summary(&self) -> NetSummary {
        let mut tally = NetTally::new();
        for &r in &self.records {
            tally.record(r);
        }
        tally.summary()
    }

    /// Validates internal consistency against a mesh shape (used by tests
    /// and by the replayer): all node ids in range, delivery ≥ injection,
    /// latency ≥ zero-load bound.
    pub fn check_invariants(&self, shape: MeshShape) -> Result<(), String> {
        for r in &self.records {
            if r.src.index() >= shape.nodes() || r.dst.index() >= shape.nodes() {
                return Err(format!("record {} has out-of-range node", r.id));
            }
            if r.delivered < r.inject {
                return Err(format!("record {} delivered before injection", r.id));
            }
            if r.latency() < r.zero_load {
                return Err(format!(
                    "record {} beats the zero-load bound: {} < {}",
                    r.id,
                    r.latency(),
                    r.zero_load
                ));
            }
        }
        Ok(())
    }
}

impl FromIterator<MsgRecord> for NetLog {
    fn from_iter<I: IntoIterator<Item = MsgRecord>>(iter: I) -> Self {
        NetLog { records: iter.into_iter().collect(), utilization: Vec::new() }
    }
}

impl Extend<MsgRecord> for NetLog {
    fn extend<I: IntoIterator<Item = MsgRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

/// Helper to convert a `SimTime` when building records.
pub(crate) fn ticks(t: SimTime) -> u64 {
    t.ticks()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn latency_and_blocked() {
        let r = rec(0, 0, 1, 16, 10, 25);
        assert_eq!(r.latency(), 15);
        assert_eq!(r.blocked(), 10);
        let fast = rec(1, 0, 1, 16, 10, 15);
        assert_eq!(fast.blocked(), 0);
    }

    #[test]
    fn summary_aggregates() {
        let log: NetLog =
            vec![rec(0, 0, 1, 10, 0, 10), rec(1, 1, 0, 30, 5, 25)].into_iter().collect();
        let s = log.summary();
        assert_eq!(s.messages, 2);
        assert_eq!(s.mean_latency, 15.0);
        assert_eq!(s.span, 25);
        assert!((s.throughput - 40.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn invariants_catch_bad_records() {
        let shape = MeshShape::new(2, 1);
        let ok: NetLog = vec![rec(0, 0, 1, 4, 0, 10)].into_iter().collect();
        assert!(ok.check_invariants(shape).is_ok());
        let bad: NetLog = vec![rec(1, 0, 1, 4, 0, 3)].into_iter().collect();
        assert!(bad.check_invariants(shape).is_err()); // beats zero-load 5
        let out: NetLog = vec![rec(2, 0, 9, 4, 0, 10)].into_iter().collect();
        assert!(out.check_invariants(shape).is_err());
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = NetLog::new().summary();
        assert_eq!(s.messages, 0);
        assert_eq!(s.span, 0);
        assert_eq!(s.throughput, 0.0);
        assert_eq!(s.median_latency, 0.0);
        assert_eq!(s.p95_latency, 0.0);
    }

    #[test]
    fn latency_percentiles() {
        // Latencies 1..=100.
        let log: NetLog = (1..=100u64).map(|i| rec(i, 0, 1, 8, 0, i)).collect();
        let s = log.summary();
        assert_eq!(s.median_latency, 50.0);
        assert_eq!(s.p95_latency, 95.0);
        assert_eq!(s.mean_latency, 50.5);
    }
}
