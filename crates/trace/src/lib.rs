//! # commchar-trace
//!
//! Communication traces: the exchange format between the workload
//! generators (execution-driven SPASM runs, MPI-level SP2 traces, synthetic
//! generators) and the network simulator / statistical analysis.
//!
//! A [`CommTrace`] is an ordered list of [`CommEvent`]s — *(time, source,
//! destination, length, kind)* plus an optional causal dependency on an
//! earlier message, which is what lets the trace-driven (static) strategy
//! avoid the classic pitfalls of naive trace replay: a message that the
//! original execution only sent after receiving another message is never
//! injected before that message's (simulated) delivery. See
//! [`replay::CausalReplayer`].
//!
//! The [`profile`] module computes per-source workload summaries (message
//! counts, think times, destination histograms) used by the report tables.
//!
//! # Example
//!
//! ```
//! use commchar_trace::{CommEvent, CommTrace, EventKind};
//!
//! let mut trace = CommTrace::new(4);
//! trace.push(CommEvent::new(0, 100, 0, 1, 32, EventKind::Data));
//! trace.push(CommEvent::new(1, 250, 1, 2, 8, EventKind::Control));
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.events()[0].bytes, 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod replay;

/// The largest processor (node) count the toolkit accepts from outside
/// the program: JSON-lines and CCTRACE1 headers, CCSERVE1 sessions,
/// simulated machines and application runs. Per-source analysis keeps
/// dense `nodes × nodes` destination matrices, so a node count is bounded
/// before anything is allocated by it.
pub const MAX_NODES: usize = 4096;

/// Classification of a communication event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Protocol control traffic (requests, invalidations, acks) — small.
    Control,
    /// Data transfer (cache blocks, MPI payloads).
    Data,
    /// Synchronization traffic (locks, barriers).
    Sync,
}

impl EventKind {
    /// Lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Control => "control",
            EventKind::Data => "data",
            EventKind::Sync => "sync",
        }
    }
}

/// One communication event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommEvent {
    /// Unique message id within the trace.
    pub id: u64,
    /// Generation time in ticks (cycles for dynamic traces, µs-scale ticks
    /// for SP2 traces).
    pub t: u64,
    /// Source processor.
    pub src: u16,
    /// Destination processor.
    pub dst: u16,
    /// Message length in bytes.
    pub bytes: u32,
    /// Traffic class.
    pub kind: EventKind,
    /// Id of a message that causally precedes this one (it had to be
    /// *received* by `src` before this send could happen).
    pub depends_on: Option<u64>,
}

impl CommEvent {
    /// Creates an event without a causal dependency.
    pub fn new(id: u64, t: u64, src: u16, dst: u16, bytes: u32, kind: EventKind) -> Self {
        CommEvent { id, t, src, dst, bytes, kind, depends_on: None }
    }

    /// Sets the causal dependency (builder style).
    #[must_use]
    pub fn after(mut self, dep: u64) -> Self {
        self.depends_on = Some(dep);
        self
    }
}

/// An ordered communication trace over `nodes` processors.
#[derive(Clone, Debug)]
pub struct CommTrace {
    nodes: usize,
    events: Vec<CommEvent>,
}

impl CommTrace {
    /// Creates an empty trace for `nodes` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "trace needs at least one node");
        CommTrace { nodes, events: Vec::new() }
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination is out of range, or if source
    /// equals destination (self-messages never reach the network).
    pub fn push(&mut self, ev: CommEvent) {
        assert!((ev.src as usize) < self.nodes, "source {} out of range", ev.src);
        assert!((ev.dst as usize) < self.nodes, "destination {} out of range", ev.dst);
        assert_ne!(ev.src, ev.dst, "self-message in trace");
        self.events.push(ev);
    }

    /// The events, in insertion order.
    pub fn events(&self) -> &[CommEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sorts events by `(t, id)` — canonical order for replay.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.t, e.id));
    }

    /// Events from one source, in trace order.
    pub fn from_source(&self, src: u16) -> impl Iterator<Item = &CommEvent> + '_ {
        self.events.iter().filter(move |e| e.src == src)
    }

    /// Serializes to JSON-lines (one event per line, header first).
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{{\"nodes\":{}}}\n", self.nodes);
        for e in &self.events {
            out.push_str(&serde_json::ser_event(e));
            out.push('\n');
        }
        out
    }

    /// Parses the JSON-lines format produced by [`CommTrace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, naming its
    /// 1-based line number and quoting a truncated excerpt of the payload
    /// — so a single corrupt line in a gigabyte trace is locatable, and
    /// distinguishable from a format bug.
    pub fn from_jsonl(s: &str) -> Result<CommTrace, String> {
        // Line numbers count every physical line; blank lines are
        // skipped for parsing but still advance the count.
        let mut lines = s.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (header_no, header) = lines.next().ok_or("empty input: no header line")?;
        let nodes = serde_json::field_u64(header, "nodes").ok_or_else(|| {
            format!(
                "line {}: bad header, expected {{\"nodes\":N}} ({})",
                header_no + 1,
                excerpt(header)
            )
        })?;
        if nodes == 0 {
            return Err(format!("line {}: header declares zero nodes", header_no + 1));
        }
        if nodes > MAX_NODES as u64 {
            return Err(format!(
                "line {}: header declares {nodes} nodes, above the {MAX_NODES}-node limit",
                header_no + 1
            ));
        }
        let nodes = nodes as usize;
        let mut trace = CommTrace::new(nodes);
        for (i, line) in lines {
            let ev = serde_json::parse_event(line)
                .ok_or_else(|| format!("line {}: unparseable event ({})", i + 1, excerpt(line)))?;
            if (ev.src as usize) >= nodes || (ev.dst as usize) >= nodes || ev.src == ev.dst {
                return Err(format!(
                    "line {}: endpoints invalid for {nodes} nodes ({})",
                    i + 1,
                    excerpt(line)
                ));
            }
            trace.push(ev);
        }
        trace.check()?;
        Ok(trace)
    }

    /// Validates trace invariants: ids unique, and every dependency
    /// references a known message that strictly precedes the dependent
    /// event in `(t, id)` order. The ordering rule is what a real
    /// execution guarantees (a message must be *sent* before it can be
    /// received, and only then can a dependent send happen), and it is
    /// exactly the acyclicity condition the causal replayer needs to make
    /// progress.
    pub fn check(&self) -> Result<(), String> {
        let mut times = std::collections::HashMap::with_capacity(self.events.len());
        for e in &self.events {
            if times.insert(e.id, e.t).is_some() {
                return Err(format!("duplicate event id {}", e.id));
            }
        }
        for e in &self.events {
            if let Some(dep) = e.depends_on {
                match times.get(&dep) {
                    None => return Err(format!("event {} depends on unknown id {dep}", e.id)),
                    Some(&dep_t) => {
                        if (dep_t, dep) >= (e.t, e.id) {
                            return Err(format!(
                                "event {} at t={} depends on id {dep} at t={dep_t}, which does \
                                 not precede it",
                                e.id, e.t
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Extend<CommEvent> for CommTrace {
    fn extend<I: IntoIterator<Item = CommEvent>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

/// Truncated, quoted payload excerpt for error messages: at most 60
/// characters of the offending line, with an ellipsis when cut.
fn excerpt(line: &str) -> String {
    const MAX: usize = 60;
    let mut cut = line.len().min(MAX);
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    if cut < line.len() {
        format!("{:?}…", &line[..cut])
    } else {
        format!("{line:?}")
    }
}

// A tiny hand-rolled JSON codec: the trace format is a flat object per
// line, simple enough that pulling in serde_json (unavailable in the
// offline build environment) is unnecessary.
mod serde_json {
    use super::{CommEvent, EventKind};

    pub(crate) fn ser_event(e: &CommEvent) -> String {
        match e.depends_on {
            Some(d) => format!(
                "{{\"id\":{},\"t\":{},\"src\":{},\"dst\":{},\"bytes\":{},\"kind\":\"{}\",\"dep\":{}}}",
                e.id, e.t, e.src, e.dst, e.bytes, e.kind.name(), d
            ),
            None => format!(
                "{{\"id\":{},\"t\":{},\"src\":{},\"dst\":{},\"bytes\":{},\"kind\":\"{}\"}}",
                e.id, e.t, e.src, e.dst, e.bytes, e.kind.name()
            ),
        }
    }

    /// Extracts a numeric field `"name":123` from a flat JSON object line.
    pub(crate) fn field_u64(line: &str, name: &str) -> Option<u64> {
        let key = format!("\"{name}\":");
        let start = line.find(&key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        rest[..end].trim().parse().ok()
    }

    fn field_str<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        let key = format!("\"{name}\":\"");
        let start = line.find(&key)? + key.len();
        let rest = &line[start..];
        let end = rest.find('"')?;
        Some(&rest[..end])
    }

    pub(crate) fn parse_event(line: &str) -> Option<CommEvent> {
        let kind = match field_str(line, "kind")? {
            "control" => EventKind::Control,
            "data" => EventKind::Data,
            "sync" => EventKind::Sync,
            _ => return None,
        };
        let mut ev = CommEvent::new(
            field_u64(line, "id")?,
            field_u64(line, "t")?,
            field_u64(line, "src")? as u16,
            field_u64(line, "dst")? as u16,
            field_u64(line, "bytes")? as u32,
            kind,
        );
        if line.contains("\"dep\":") {
            ev = ev.after(field_u64(line, "dep")?);
        }
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, t: u64, src: u16, dst: u16) -> CommEvent {
        CommEvent::new(id, t, src, dst, 8, EventKind::Control)
    }

    #[test]
    fn push_and_query() {
        let mut tr = CommTrace::new(4);
        tr.push(ev(0, 10, 0, 1));
        tr.push(ev(1, 5, 1, 2));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.from_source(1).count(), 1);
        tr.sort();
        assert_eq!(tr.events()[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "self-message")]
    fn self_message_rejected() {
        let mut tr = CommTrace::new(4);
        tr.push(ev(0, 0, 2, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut tr = CommTrace::new(2);
        tr.push(ev(0, 0, 0, 5));
    }

    #[test]
    fn check_catches_bad_deps() {
        let mut tr = CommTrace::new(4);
        tr.push(ev(0, 0, 0, 1));
        tr.push(ev(1, 5, 1, 2).after(0));
        assert!(tr.check().is_ok());
        tr.push(ev(2, 6, 1, 2).after(99));
        assert!(tr.check().is_err());
        let mut dup = CommTrace::new(4);
        dup.push(ev(7, 0, 0, 1));
        dup.push(ev(7, 1, 1, 0));
        assert!(dup.check().is_err());
    }

    #[test]
    fn jsonl_roundtrip_shape() {
        let mut tr = CommTrace::new(3);
        tr.push(ev(0, 1, 0, 1));
        tr.push(ev(1, 2, 1, 2).after(0));
        let s = tr.to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"nodes\":3"));
        assert!(lines[2].contains("\"dep\":0"));
    }

    #[test]
    fn jsonl_roundtrip_parses_back() {
        let mut tr = CommTrace::new(5);
        tr.push(CommEvent::new(0, 10, 0, 1, 64, EventKind::Data));
        tr.push(CommEvent::new(1, 20, 1, 4, 8, EventKind::Control).after(0));
        tr.push(CommEvent::new(2, 30, 2, 3, 8, EventKind::Sync));
        let parsed = CommTrace::from_jsonl(&tr.to_jsonl()).unwrap();
        assert_eq!(parsed.nodes(), 5);
        assert_eq!(parsed.events(), tr.events());
    }

    #[test]
    fn jsonl_errors_name_line_and_excerpt() {
        // A long corrupt line in the middle: the error must carry the
        // 1-based physical line number and a truncated excerpt.
        let long = format!("{{\"id\":2,\"t\":3,{}}}", "x".repeat(500));
        let input = format!(
            "{{\"nodes\":4}}\n{{\"id\":0,\"t\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}}\n\n{long}\n"
        );
        let err = CommTrace::from_jsonl(&input).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        assert!(err.contains('…'), "excerpt not truncated: {err}");
        assert!(err.len() < 160, "error should not embed the whole payload: {err}");
        // Bad header errors carry the line number too.
        let err = CommTrace::from_jsonl("{\"sodes\":4}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // Out-of-range endpoints name the line and the node bound.
        let bad =
            "{\"nodes\":2}\n{\"id\":0,\"t\":1,\"src\":0,\"dst\":7,\"bytes\":8,\"kind\":\"data\"}\n";
        let err = CommTrace::from_jsonl(bad).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("2 nodes"), "{err}");
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(CommTrace::from_jsonl("").is_err());
        assert!(CommTrace::from_jsonl("{\"nodes\":0}\n").is_err());
        assert!(CommTrace::from_jsonl("{\"nodes\":2}\nnot-json\n").is_err());
        // Bad endpoints.
        let bad =
            "{\"nodes\":2}\n{\"id\":0,\"t\":1,\"src\":0,\"dst\":7,\"bytes\":8,\"kind\":\"data\"}\n";
        assert!(CommTrace::from_jsonl(bad).is_err());
        // Dependency ordering violation caught by check().
        let cyc = "{\"nodes\":2}\n{\"id\":0,\"t\":5,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\",\"dep\":1}\n{\"id\":1,\"t\":9,\"src\":1,\"dst\":0,\"bytes\":8,\"kind\":\"data\"}\n";
        assert!(CommTrace::from_jsonl(cyc).is_err());
    }
}
