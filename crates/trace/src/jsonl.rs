//! The JSON-lines trace format, read a chunk of whole lines at a time and
//! written one line at a time.
//!
//! A tiny hand-rolled codec: the format is a flat object per line, simple
//! enough that pulling in serde_json (unavailable in the offline build
//! environment) is unnecessary. A line is read in one forward pass over
//! its bytes; [`CommTrace::from_jsonl`](crate::CommTrace::from_jsonl)
//! states the grammar.
//! [`JsonlReader`] is the only parser: `from_jsonl`, `load_trace` in
//! `commchar-tracestore` and the streamed `trace pack|cat|stat` all run
//! it, the last on several threads, one [`JsonlChunk`] each.

use std::io::{self, BufRead, Read, Write};

use crate::{CommEvent, EventKind, MAX_NODES};

/// Why a JSON-lines trace could not be read.
#[derive(Debug)]
pub enum JsonlError {
    /// Reading the source failed.
    Io(io::Error),
    /// A line is not UTF-8.
    NotUtf8 {
        /// What [`std::str::Utf8Error`] says about it, its byte index
        /// counted from the start of the input.
        detail: String,
        /// The line's 1-based number.
        line: usize,
    },
    /// The text is not a valid trace: the first malformed line (its
    /// 1-based number, what was wrong, and a truncated excerpt) or the
    /// broken invariant [`CommTrace::check`](crate::CommTrace::check)
    /// names.
    Invalid(String),
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "I/O error: {e}"),
            JsonlError::NotUtf8 { detail, line } => write!(f, "not UTF-8: {detail} (line {line})"),
            JsonlError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JsonlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JsonlError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JsonlError {
    fn from(e: io::Error) -> Self {
        JsonlError::Io(e)
    }
}

/// Most bytes a [`JsonlChunk`] holds, unless a single line is longer.
pub const CHUNK_BYTES: usize = 64 << 10;

/// A run of whole lines of a JSON-lines trace, cut from the input by
/// [`JsonlReader::next_chunk`] and parsed on its own by
/// [`parse`](Self::parse) — on any thread, since it knows the number of
/// its first line and the input offset of its first byte, which its
/// errors name.
#[derive(Debug)]
pub struct JsonlChunk {
    text: Vec<u8>,
    /// Lines before the chunk.
    line: usize,
    /// Lines in the chunk.
    line_count: usize,
    /// Input bytes before the chunk.
    offset: usize,
}

impl JsonlChunk {
    /// Parses the chunk's event lines for a trace over `nodes`
    /// processors, appending each event to `out`, up to the first bad
    /// line.
    ///
    /// # Errors
    ///
    /// The chunk's first bad line: one that is not UTF-8, a malformed
    /// event line, or endpoints that are out of range or equal. The
    /// events before it are in `out`.
    pub fn parse(&self, nodes: usize, out: &mut Vec<CommEvent>) -> Result<(), JsonlError> {
        out.reserve_exact(self.line_count);
        for line in self.lines() {
            let (no, line, _) = line?;
            out.push(parse_event_line(no, line, nodes).map_err(JsonlError::Invalid)?);
        }
        Ok(())
    }

    /// Hands the chunk's buffer back, for the next chunk to reuse.
    pub fn into_buffer(self) -> Vec<u8> {
        self.text
    }

    /// The chunk's non-blank lines in order, each with its number and
    /// the chunk offset where it ends, line ending stripped as
    /// [`str::lines`] strips it; the first line that is not UTF-8 ends
    /// them with its error.
    fn lines(&self) -> Lines<'_> {
        let (text, bad) = match std::str::from_utf8(&self.text) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = std::str::from_utf8(&self.text[..e.valid_up_to()]);
                (valid.expect("valid up to there"), Some(e))
            }
        };
        Lines { text, pos: 0, line: self.line, offset: self.offset, bad, done: false }
    }
}

/// Iterator behind [`JsonlChunk::lines`]: `text` is the chunk's UTF-8
/// prefix, and `bad` the error of the byte after it, if any.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
    /// The number of the line last read.
    line: usize,
    /// Input bytes before the chunk.
    offset: usize,
    bad: Option<std::str::Utf8Error>,
    done: bool,
}

impl<'a> Iterator for Lines<'a> {
    type Item = Result<(usize, &'a str, usize), JsonlError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let rest = &self.text[self.pos..];
            // `skip_until` finds the line end with the platform's memchr.
            let len = rest.as_bytes().skip_until(b'\n').expect("a slice reads without error");
            let line = match rest.as_bytes().get(len.wrapping_sub(1)) {
                Some(b'\n') => &rest[..len],
                _ => {
                    // The rest holds no line ending: it is the start of
                    // the line the bad byte sits on, or the input's last
                    // line, or nothing.
                    self.done = true;
                    if let Some(e) = self.bad.take() {
                        self.line += 1;
                        return Some(Err(not_utf8(e, self.offset, self.line)));
                    }
                    if rest.is_empty() {
                        return None;
                    }
                    rest
                }
            };
            self.pos += line.len();
            self.line += 1;
            if !line.trim().is_empty() {
                let text =
                    line.strip_suffix('\n').map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
                return Some(Ok((self.line, text, self.pos)));
            }
        }
        None
    }
}

/// The error for line `line`, which is not UTF-8: the text of a
/// [`std::str::Utf8Error`] over the whole input, from one over a chunk
/// that starts `offset` bytes in.
fn not_utf8(e: std::str::Utf8Error, offset: usize, line: usize) -> JsonlError {
    let at = offset + e.valid_up_to();
    let detail = match e.error_len() {
        Some(len) => format!("invalid utf-8 sequence of {len} bytes from index {at}"),
        None => format!("incomplete utf-8 byte sequence from index {at}"),
    };
    JsonlError::NotUtf8 { detail, line }
}

/// Reads a JSON-lines trace: [`new`](Self::new) reads the header, then
/// either [`next_event`](Self::next_event) yields one event at a time or
/// [`next_chunk`](Self::next_chunk) cuts the rest into [`JsonlChunk`]s
/// for the caller to parse, in parallel if it likes. Both cut the input
/// the same way and parse a chunk's lines with the same code, so memory
/// holds one chunk of at most [`CHUNK_BYTES`] (or one longer line).
///
/// Line numbers count every physical line; blank lines (whitespace only)
/// are skipped but still counted. The reader checks each line on its own
/// (syntax, field ranges, endpoints against the header's node count);
/// the trace-wide invariants are [`TraceChecker`](crate::TraceChecker)'s.
/// The first bad line is the one reported, whether it is not UTF-8 or
/// malformed.
#[derive(Debug)]
pub struct JsonlReader<R> {
    src: R,
    nodes: usize,
    /// Input read past the last whole line: the start of the next chunk.
    carry: Vec<u8>,
    /// Lines before the next chunk.
    line: usize,
    /// Input bytes before the next chunk.
    offset: usize,
    /// The rest of the chunk the header was read from.
    after_header: Option<JsonlChunk>,
    /// [`next_event`](Self::next_event)'s chunk: its events, how many
    /// have been handed out, the error after them, and its buffer.
    events: Vec<CommEvent>,
    taken: usize,
    error: Option<JsonlError>,
    buffer: Vec<u8>,
}

impl<R: Read> JsonlReader<R> {
    /// Reads up to and including the `{"nodes":N}` header line.
    ///
    /// # Errors
    ///
    /// I/O failures, a line that is not UTF-8, an input without a header,
    /// and a malformed header or a node count outside `1..=MAX_NODES`.
    pub fn new(src: R) -> Result<Self, JsonlError> {
        let mut r = JsonlReader {
            src,
            nodes: 0,
            carry: Vec::new(),
            line: 0,
            offset: 0,
            after_header: None,
            events: Vec::new(),
            taken: 0,
            error: None,
            buffer: Vec::new(),
        };
        loop {
            let Some(mut chunk) = r.next_chunk(Vec::new())? else {
                return Err(JsonlError::Invalid("empty input: no header line".to_string()));
            };
            let Some(header) = chunk.lines().next() else { continue };
            let (no, header, end) = header?;
            r.nodes = parse_header_line(no, header).map_err(JsonlError::Invalid)?;
            chunk.text.drain(..end);
            chunk.line_count -= no - chunk.line;
            (chunk.line, chunk.offset) = (no, chunk.offset + end);
            r.after_header = Some(chunk);
            return Ok(r);
        }
    }

    /// Processor count from the header.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The next event, or `None` at the end of the input.
    ///
    /// # Errors
    ///
    /// I/O failures, a line that is not UTF-8, a malformed event line, or
    /// endpoints that are out of range or equal.
    pub fn next_event(&mut self) -> Result<Option<CommEvent>, JsonlError> {
        loop {
            if let Some(&e) = self.events.get(self.taken) {
                self.taken += 1;
                return Ok(Some(e));
            }
            if let Some(e) = self.error.take() {
                return Err(e);
            }
            let buffer = std::mem::take(&mut self.buffer);
            let Some(chunk) = self.next_chunk(buffer)? else {
                return Ok(None);
            };
            self.events.clear();
            self.taken = 0;
            self.error = chunk.parse(self.nodes, &mut self.events).err();
            self.buffer = chunk.into_buffer();
        }
    }

    /// Cuts the next chunk of whole lines, at most [`CHUNK_BYTES`] unless
    /// one line is longer, into `buf` (cleared first; pass a spent
    /// chunk's [`into_buffer`](JsonlChunk::into_buffer) to reuse it), or
    /// `None` at the end of the input.
    ///
    /// # Errors
    ///
    /// I/O failures of the source.
    pub fn next_chunk(&mut self, mut buf: Vec<u8>) -> Result<Option<JsonlChunk>, JsonlError> {
        if let Some(chunk) = self.after_header.take().filter(|c| !c.text.is_empty()) {
            return Ok(Some(chunk));
        }
        buf.clear();
        buf.append(&mut self.carry);
        // The carry is part of a line, so it holds no line ending.
        let mut searched = buf.len();
        loop {
            let want = if buf.len() < CHUNK_BYTES { CHUNK_BYTES - buf.len() } else { CHUNK_BYTES };
            buf.reserve_exact(want);
            let got = (&mut self.src).take(want as u64).read_to_end(&mut buf)?;
            let eof = got < want;
            if let Some(i) = buf[searched..].iter().rposition(|&b| b == b'\n') {
                if !eof {
                    self.carry.extend_from_slice(&buf[searched + i + 1..]);
                    buf.truncate(searched + i + 1);
                }
                break;
            }
            if eof {
                break;
            }
            // One line longer than a chunk: read on to its end.
            searched = buf.len();
        }
        if buf.is_empty() {
            return Ok(None);
        }
        let line_count = count_endings(&buf) + usize::from(!buf.ends_with(b"\n"));
        let chunk = JsonlChunk { line: self.line, line_count, offset: self.offset, text: buf };
        self.line += line_count;
        self.offset += chunk.text.len();
        Ok(Some(chunk))
    }
}

/// The line endings in `text`. Counting into a byte per 255-byte run
/// lets the compiler count many bytes per instruction; a plain
/// `filter().count()` took as long as reading the input.
fn count_endings(text: &[u8]) -> usize {
    text.chunks(255)
        .map(|run| run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')))
        .map(usize::from)
        .sum()
}

/// Validates the header line numbered `no`, returning the node count.
fn parse_header_line(no: usize, header: &str) -> Result<usize, String> {
    let nodes = parse_header(header).map_err(|why| {
        format!(
            "line {no}: bad header, expected {{\"nodes\":N}}: {} ({})",
            why.describe(header),
            excerpt(header)
        )
    })?;
    if nodes == 0 {
        return Err(format!("line {no}: header declares zero nodes"));
    }
    if nodes > MAX_NODES as u64 {
        return Err(format!(
            "line {no}: header declares {nodes} nodes, above the {MAX_NODES}-node limit"
        ));
    }
    Ok(nodes as usize)
}

/// Parses the event line numbered `no` of a trace over `nodes` processors.
fn parse_event_line(no: usize, line: &str, nodes: usize) -> Result<CommEvent, String> {
    let ev = parse_event(line).map_err(|why| {
        format!("line {no}: unparseable event: {} ({})", why.describe(line), excerpt(line))
    })?;
    if (ev.src as usize) >= nodes || (ev.dst as usize) >= nodes || ev.src == ev.dst {
        return Err(format!("line {no}: endpoints invalid for {nodes} nodes ({})", excerpt(line)));
    }
    Ok(ev)
}

/// Writes a trace as JSON-lines one event at a time: the streaming form
/// of [`CommTrace::to_jsonl`](crate::CommTrace::to_jsonl), byte for byte. Each line is one small
/// write, so give it a buffered sink.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
}

impl<W: Write> JsonlWriter<W> {
    /// Writes the header line of a trace over `nodes` processors.
    ///
    /// # Errors
    ///
    /// I/O failures of the sink.
    pub fn new(mut out: W, nodes: usize) -> io::Result<Self> {
        writeln!(out, "{{\"nodes\":{nodes}}}")?;
        Ok(JsonlWriter { out })
    }

    /// Writes one event line.
    ///
    /// # Errors
    ///
    /// I/O failures of the sink.
    pub fn push(&mut self, e: &CommEvent) -> io::Result<()> {
        write!(
            self.out,
            "{{\"id\":{},\"t\":{},\"src\":{},\"dst\":{},\"bytes\":{},\"kind\":\"{}\"",
            e.id,
            e.t,
            e.src,
            e.dst,
            e.bytes,
            e.kind.name()
        )?;
        if let Some(dep) = e.depends_on {
            write!(self.out, ",\"dep\":{dep}")?;
        }
        self.out.write_all(b"}\n")
    }

    /// Flushes the sink and hands it back.
    ///
    /// # Errors
    ///
    /// I/O failures of the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
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

/// Parses the `{"nodes":N}` header line.
fn parse_header(line: &str) -> Result<u64, Bad> {
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
fn parse_event(line: &str) -> Result<CommEvent, Bad> {
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
enum Bad {
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
    fn describe(self, line: &str) -> String {
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
        while let Some(b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'+' | b'-' | b'.') = self.peek() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommTrace;

    /// The reader's UTF-8 error is what `std::str::from_utf8` says about
    /// the whole input, on the line the bad byte sits on — for a bad
    /// byte mid-line, one cut off at the end of the input, and one in the
    /// header.
    #[test]
    fn not_utf8_matches_the_whole_input_error() {
        let cases: [&[u8]; 3] = [
            b"{\"nodes\":2}\n\n{\"id\":0,\"t\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"d\xe1ta\"}\n",
            b"{\"nodes\":2}\n{\"id\":0,\"t\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}\xe2\x82",
            b"\xff{\"nodes\":2}\n",
        ];
        for input in cases {
            let whole = std::str::from_utf8(input).unwrap_err();
            let line = 1 + input[..whole.valid_up_to()].iter().filter(|&&b| b == b'\n').count();
            let err = CommTrace::read_jsonl(input).unwrap_err();
            match err {
                JsonlError::NotUtf8 { detail, line: at } => {
                    assert_eq!(detail, whole.to_string());
                    assert_eq!(at, line);
                }
                other => panic!("{input:?}: expected NotUtf8, got {other}"),
            }
        }
    }

    #[test]
    fn writer_spells_the_canonical_lines() {
        let mut w = JsonlWriter::new(Vec::new(), 3).unwrap();
        w.push(&CommEvent::new(0, 1, 0, 1, 8, EventKind::Data)).unwrap();
        w.push(&CommEvent::new(u64::MAX, 2, 1, 2, u32::MAX, EventKind::Sync).after(0)).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(
            text,
            "{\"nodes\":3}\n\
             {\"id\":0,\"t\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}\n\
             {\"id\":18446744073709551615,\"t\":2,\"src\":1,\"dst\":2,\"bytes\":4294967295,\
             \"kind\":\"sync\",\"dep\":0}\n"
        );
    }
}
