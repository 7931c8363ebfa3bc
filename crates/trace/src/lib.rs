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
            out.push_str(&jsonl::ser_event(e));
            out.push('\n');
        }
        out
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
    /// locatable, and distinguishable from a format bug.
    pub fn from_jsonl(s: &str) -> Result<CommTrace, String> {
        // Line numbers count every physical line; blank lines are
        // skipped for parsing but still advance the count.
        let mut lines = s.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (header_no, header) = lines.next().ok_or("empty input: no header line")?;
        let nodes = jsonl::parse_header(header).map_err(|why| {
            format!(
                "line {}: bad header, expected {{\"nodes\":N}}: {} ({})",
                header_no + 1,
                why.describe(header),
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
            let ev = jsonl::parse_event(line).map_err(|why| {
                format!(
                    "line {}: unparseable event: {} ({})",
                    i + 1,
                    why.describe(line),
                    excerpt(line)
                )
            })?;
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

// A tiny hand-rolled JSON-lines codec: the trace format is a flat object
// per line, simple enough that pulling in serde_json (unavailable in the
// offline build environment) is unnecessary. A line is read in one forward
// pass over its bytes; [`CommTrace::from_jsonl`] states the grammar.
mod jsonl {
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

    /// Parses the `{"nodes":N}` header line.
    pub(crate) fn parse_header(line: &str) -> Result<u64, Bad> {
        let mut c = Cursor::open(line)?;
        let mut nodes = None;
        while let Some(key) = c.next_key()? {
            match key {
                b"nodes" => set_once(&mut nodes, c.uint()?, "nodes")?,
                _ => c.skip_scalar()?,
            }
        }
        nodes.ok_or(Bad::Missing("nodes"))
    }

    /// Parses one event line.
    pub(crate) fn parse_event(line: &str) -> Result<CommEvent, Bad> {
        let mut c = Cursor::open(line)?;
        let (mut id, mut t, mut src, mut dst, mut bytes, mut dep, mut kind) =
            (None, None, None, None, None, None, None);
        while let Some(key) = c.next_key()? {
            match key {
                b"id" => set_once(&mut id, c.uint()?, "id")?,
                b"t" => set_once(&mut t, c.uint()?, "t")?,
                b"src" => set_once(&mut src, c.uint()?, "src")?,
                b"dst" => set_once(&mut dst, c.uint()?, "dst")?,
                b"bytes" => set_once(&mut bytes, c.uint()?, "bytes")?,
                b"dep" => set_once(&mut dep, c.uint()?, "dep")?,
                b"kind" => {
                    c.skip_ws();
                    let at = c.pos;
                    let k = match c.string()? {
                        b"control" => EventKind::Control,
                        b"data" => EventKind::Data,
                        b"sync" => EventKind::Sync,
                        _ => return Err(Bad::UnknownKind(at, c.pos)),
                    };
                    set_once(&mut kind, k, "kind")?;
                }
                _ => c.skip_scalar()?,
            }
        }
        let mut ev = CommEvent::new(
            field(id, "id")?,
            field(t, "t")?,
            field(src, "src")?,
            field(dst, "dst")?,
            field(bytes, "bytes")?,
            kind.ok_or(Bad::Missing("kind"))?,
        );
        ev.depends_on = dep;
        Ok(ev)
    }

    /// Why a line failed to parse. It is built without allocating, so the
    /// happy path stays cheap, and is rendered against its line by
    /// [`Bad::describe`]. Byte offsets are 0-based.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Bad {
        /// The byte at the offset does not start the wanted token, or the
        /// line ends there.
        Expected(&'static str, usize),
        /// The integer starting at the offset overflows `u64`.
        Overflow(usize),
        /// A known key appears more than once.
        Repeated(&'static str),
        /// A required key is absent.
        Missing(&'static str),
        /// A key's value does not fit its field's type.
        OutOfRange(&'static str, &'static str),
        /// The `kind` string between the offsets names no [`EventKind`].
        UnknownKind(usize, usize),
    }

    impl Bad {
        /// What went wrong in `line`, for an error message.
        pub(crate) fn describe(self, line: &str) -> String {
            match self {
                Bad::Expected(wanted, at) => match line.get(at..).and_then(|s| s.chars().next()) {
                    Some(found) => format!("expected {wanted} at byte {}, found {found:?}", at + 1),
                    None => format!("line ends where {wanted} was expected"),
                },
                Bad::Overflow(at) => format!("integer at byte {} overflows u64", at + 1),
                Bad::Repeated(key) => format!("repeated key \"{key}\""),
                Bad::Missing(key) => format!("missing key \"{key}\""),
                Bad::OutOfRange(key, ty) => format!("\"{key}\" value does not fit {ty}"),
                Bad::UnknownKind(from, to) => {
                    format!("unknown kind {}", line.get(from..to).unwrap_or("?"))
                }
            }
        }
    }

    /// Stores a key's value, rejecting a second occurrence of the key.
    fn set_once<T>(slot: &mut Option<T>, value: T, key: &'static str) -> Result<(), Bad> {
        match slot.replace(value) {
            Some(_) => Err(Bad::Repeated(key)),
            None => Ok(()),
        }
    }

    /// A required key's value, narrowed to its field's type.
    fn field<T: TryFrom<u64>>(value: Option<u64>, key: &'static str) -> Result<T, Bad> {
        let v = value.ok_or(Bad::Missing(key))?;
        T::try_from(v).map_err(|_| Bad::OutOfRange(key, std::any::type_name::<T>()))
    }

    /// A forward cursor over one line holding a single flat JSON object.
    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// No key has been read yet.
        first: bool,
    }

    impl<'a> Cursor<'a> {
        /// Opens the object that must span `line`.
        fn open(line: &'a str) -> Result<Self, Bad> {
            let mut c = Cursor { bytes: line.as_bytes(), pos: 0, first: true };
            c.expect(b'{', "'{'")?;
            Ok(c)
        }

        /// The next key, with its `:` consumed so the caller reads the
        /// value next; `None` at the closing brace, once only whitespace
        /// follows it.
        fn next_key(&mut self) -> Result<Option<&'a [u8]>, Bad> {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.skip_ws();
                if self.pos < self.bytes.len() {
                    return Err(Bad::Expected("the end of the line", self.pos));
                }
                return Ok(None);
            }
            if self.first {
                self.first = false;
            } else {
                self.expect(b',', "',' or '}'")?;
            }
            let key = self.string()?;
            self.expect(b':', "':'")?;
            Ok(Some(key))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.peek() {
                self.pos += 1;
            }
        }

        /// Consumes `byte` after optional whitespace; `wanted` names it
        /// in the error.
        fn expect(&mut self, byte: u8, wanted: &'static str) -> Result<(), Bad> {
            self.skip_ws();
            if self.peek() != Some(byte) {
                return Err(Bad::Expected(wanted, self.pos));
            }
            self.pos += 1;
            Ok(())
        }

        /// A string's raw contents, between its quotes; escapes are
        /// stepped over, not decoded.
        fn string(&mut self) -> Result<&'a [u8], Bad> {
            self.expect(b'"', "a string")?;
            let start = self.pos;
            loop {
                match self.peek() {
                    None => return Err(Bad::Expected("a closing '\"'", self.bytes.len())),
                    Some(b'"') => break,
                    Some(b'\\') => self.pos += 2,
                    Some(_) => self.pos += 1,
                }
            }
            self.pos += 1;
            Ok(&self.bytes[start..self.pos - 1])
        }

        /// An unsigned decimal integer, rejecting `u64` overflow.
        fn uint(&mut self) -> Result<u64, Bad> {
            self.skip_ws();
            let start = self.pos;
            let mut v = 0u64;
            while let Some(d @ b'0'..=b'9') = self.peek() {
                v = v
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(d - b'0')))
                    .ok_or(Bad::Overflow(start))?;
                self.pos += 1;
            }
            if self.pos == start {
                return Err(Bad::Expected("an unsigned integer", start));
            }
            Ok(v)
        }

        /// Steps over one scalar value: a string, a number, `true`, `false`
        /// or `null`.
        fn skip_scalar(&mut self) -> Result<(), Bad> {
            self.skip_ws();
            if self.peek() == Some(b'"') {
                return self.string().map(drop);
            }
            let start = self.pos;
            while let Some(b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'+' | b'-' | b'.') =
                self.peek()
            {
                self.pos += 1;
            }
            let token = &self.bytes[start..self.pos];
            if matches!(token, b"true" | b"false" | b"null") || is_number(token) {
                Ok(())
            } else {
                Err(Bad::Expected("a scalar value", start))
            }
        }
    }

    /// Whether `t` is a JSON number (leading zeros allowed, as in integer
    /// fields).
    fn is_number(t: &[u8]) -> bool {
        let digits = |t: &[u8]| t.iter().take_while(|b| b.is_ascii_digit()).count();
        let t = t.strip_prefix(b"-").unwrap_or(t);
        let mut n = digits(t);
        if n == 0 {
            return false;
        }
        let mut rest = &t[n..];
        if let Some(frac) = rest.strip_prefix(b".") {
            n = digits(frac);
            rest = &frac[n..];
            if n == 0 {
                return false;
            }
        }
        if let Some(exp) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
            let exp = exp.strip_prefix(b"+").or_else(|| exp.strip_prefix(b"-")).unwrap_or(exp);
            n = digits(exp);
            rest = &exp[n..];
            if n == 0 {
                return false;
            }
        }
        rest.is_empty()
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
