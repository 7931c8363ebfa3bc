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

mod jsonl;
pub mod profile;
pub mod replay;

pub use jsonl::{JsonlChunk, JsonlError, JsonlReader, JsonlWriter, CHUNK_BYTES};

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

    /// Serializes to JSON-lines (one event per line, header first); see
    /// [`JsonlWriter`] for the streaming form.
    pub fn to_jsonl(&self) -> String {
        const VEC: &str = "writing to a Vec cannot fail";
        let mut w = JsonlWriter::new(Vec::new(), self.nodes).expect(VEC);
        for e in &self.events {
            w.push(e).expect(VEC);
        }
        String::from_utf8(w.finish().expect(VEC)).expect("JSON-lines output is ASCII")
    }

    /// Parses the JSON-lines format produced by [`CommTrace::to_jsonl`].
    ///
    /// The first non-blank line is the header `{"nodes":N}`; every later
    /// non-blank line is one event object with the keys `id`, `t`, `src`,
    /// `dst`, `bytes` (unsigned decimal integers that must fit the field:
    /// `u64`, `u64`, `u16`, `u16`, `u32`), `kind` (`"control"`, `"data"`
    /// or `"sync"`) and an optional `dep` (`u64`). Each line is one flat
    /// JSON object, read in a single forward pass:
    ///
    /// - keys may come in any order, each known key at most once, with
    ///   JSON whitespace around any token (so CRLF line endings parse);
    /// - unknown keys are skipped when their value is a scalar (string,
    ///   number, `true`, `false`, `null`), and rejected when it is an
    ///   object or array;
    /// - keys and the `kind` string are matched literally, without
    ///   decoding escapes;
    /// - integers are digits only, so a sign, fraction, exponent, or a
    ///   value that overflows its field is an error, as is anything after
    ///   the closing brace.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, naming its
    /// 1-based line number, what was wrong, and a truncated excerpt of the
    /// payload — so a single corrupt line in a gigabyte trace is
    /// locatable, and distinguishable from a format bug. A well-formed
    /// trace that breaks an invariant fails with [`check`](Self::check)'s
    /// message.
    pub fn from_jsonl(s: &str) -> Result<CommTrace, String> {
        Self::read_jsonl(s.as_bytes()).map_err(|e| e.to_string())
    }

    /// [`from_jsonl`](Self::from_jsonl) over any buffered source, which
    /// may hold bytes that are not UTF-8: it runs one [`JsonlReader`] to
    /// the end, then [`check`](Self::check)s the trace.
    ///
    /// # Errors
    ///
    /// The reader's first error, else the check's as
    /// [`JsonlError::Invalid`].
    pub fn read_jsonl(src: impl std::io::Read) -> Result<CommTrace, JsonlError> {
        let mut reader = JsonlReader::new(src)?;
        let mut trace = CommTrace::new(reader.nodes());
        while let Some(ev) = reader.next_event()? {
            trace.push(ev);
        }
        trace.check().map_err(JsonlError::Invalid)?;
        Ok(trace)
    }

    /// Validates trace invariants: ids unique, and every dependency
    /// references a known message that strictly precedes the dependent
    /// event in `(t, id)` order. The ordering rule is what a real
    /// execution guarantees (a message must be *sent* before it can be
    /// received, and only then can a dependent send happen), and it is
    /// exactly the acyclicity condition the causal replayer needs to make
    /// progress.
    ///
    /// This runs one [`TraceChecker`] over the events. When a trace breaks
    /// the rules more than once, a repeated id is reported before any
    /// dependency error; the repeated id named is the smallest, and the
    /// dependency error named is the first in `(dep, t, id)` order, which
    /// need not be the first in trace order.
    ///
    /// # Errors
    ///
    /// A description of the broken invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut checker = TraceChecker::default();
        for e in &self.events {
            checker.push(e);
        }
        checker.finish()
    }
}

impl Extend<CommEvent> for CommTrace {
    fn extend<I: IntoIterator<Item = CommEvent>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

/// The trace invariants [`CommTrace::check`] states, checked over events
/// fed one at a time: [`push`](Self::push) every event, then
/// [`finish`](Self::finish). It keeps `(id, t)` for each event and
/// `(dep, t, id)` for each dependency — 16 bytes per event plus 24 per
/// dependency — and sorts both lists once at the end, so a streamed trace
/// is checked without holding its events or a hash table of their ids.
#[derive(Clone, Debug, Default)]
pub struct TraceChecker {
    /// `(id, t)` per event.
    ids: Vec<(u64, u64)>,
    /// `(dep, t, id)` per event with a dependency.
    deps: Vec<(u64, u64, u64)>,
}

impl TraceChecker {
    /// Records one event.
    pub fn push(&mut self, e: &CommEvent) {
        self.ids.push((e.id, e.t));
        if let Some(dep) = e.depends_on {
            self.deps.push((dep, e.t, e.id));
        }
    }

    /// Checks every event pushed, in one sort-merge pass on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// The broken invariant, chosen as [`CommTrace::check`] describes.
    pub fn finish(self) -> Result<(), String> {
        self.finish_on(1)
    }

    /// [`finish`](Self::finish), sorting the id and the dependency lists
    /// at the same time, on a second thread, when `threads` is at least
    /// 2: for a streamed trace command, which has the cores to spare.
    /// [`CommTrace::check`] starts no thread: it also runs inside
    /// simulations.
    ///
    /// # Errors
    ///
    /// The broken invariant, chosen as [`CommTrace::check`] describes.
    pub fn finish_on(mut self, threads: usize) -> Result<(), String> {
        let Self { ids, deps } = &mut self;
        let mut sort_deps = || deps.sort_unstable_by_key(|&(dep, ..)| dep);
        if threads > 1 {
            std::thread::scope(|scope| {
                scope.spawn(sort_deps);
                ids.sort_unstable_by_key(|&(id, _)| id);
            });
        } else {
            ids.sort_unstable_by_key(|&(id, _)| id);
            sort_deps();
        }
        if let Some(w) = self.ids.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("duplicate event id {}", w[0].0));
        }
        let mut ids = self.ids.iter().peekable();
        for run in self.deps.chunk_by(|a, b| a.0 == b.0) {
            let dep = run[0].0;
            while ids.next_if(|&&(i, _)| i < dep).is_some() {}
            let dep_t = ids.peek().filter(|&&&(i, _)| i == dep).map(|&&(_, t)| t);
            // Of the events depending on `dep` that break a rule, the
            // first in `(t, id)` order.
            let broken = run
                .iter()
                .filter(|&&(_, t, id)| dep_t.is_none_or(|dep_t| (dep_t, dep) >= (t, id)))
                .min_by_key(|&&(_, t, id)| (t, id));
            if let Some(&(_, t, id)) = broken {
                return Err(match dep_t {
                    None => format!("event {id} depends on unknown id {dep}"),
                    Some(dep_t) => format!(
                        "event {id} at t={t} depends on id {dep} at t={dep_t}, which does not \
                         precede it"
                    ),
                });
            }
        }
        Ok(())
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
