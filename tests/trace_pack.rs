//! `trace pack` and `trace cat` stream their input, and must still behave
//! as if they had loaded it whole with `load_trace`: the same error text
//! for every bad input (and then no output file), the same bytes for
//! every good one, whatever the line endings or whether the input is a
//! file or a pipe, and a re-pack in place. `characterize --trace` and
//! `replay`, which read a file whole through the same loop, fail with the
//! same text, and `run --out` and `generate --out` write as `trace pack`
//! does.

#[path = "../crates/trace/tests/common/mod.rs"]
mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use commchar::apps::{AppId, Scale};
use commchar::cli::{
    cmd_characterize_stream, cmd_characterize_trace, cmd_characterize_trace_only, cmd_replay,
    cmd_trace_cat, cmd_trace_pack, cmd_trace_stat, save_trace,
};
use commchar::core::RunSpec;
use commchar::trace::{CommEvent, CommTrace, EventKind};
use commchar::tracestore::writer::pack_trace_with_block_len;
use commchar::tracestore::{load_trace, TraceWriter, FOOTER_MAGIC, MAGIC};

/// A scratch file path unique to this test process.
fn scratch(ext: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("commchar-trace-pack-{}-{n}.{ext}", std::process::id());
    std::env::temp_dir().join(name).to_string_lossy().into_owned()
}

fn exists(path: &str) -> bool {
    std::path::Path::new(path).exists()
}

/// Reads and removes a file.
fn take(path: &str) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    std::fs::remove_file(path).unwrap();
    bytes
}

/// What `load_trace` makes of `input`: the packed bytes at `block_len`
/// (`0` = the default) and the JSON-lines text, or the error text.
fn expected(input: &[u8], block_len: usize) -> Result<(Vec<u8>, Vec<u8>), String> {
    let trace = load_trace(input).map_err(|e| e.to_string())?;
    let block_len = if block_len == 0 { 4096 } else { block_len };
    Ok((pack_trace_with_block_len(&trace, block_len), trace.to_jsonl().into_bytes()))
}

/// Runs `trace pack` and `trace cat` with `jobs` workers on `input` from
/// a file and returns what they wrote, asserting that a failure wrote no
/// output file, and that `characterize --trace` (with and without
/// `--no-replay`) and `replay` fail with the same text.
fn streamed_on(input: &[u8], block_len: usize, jobs: usize) -> Result<(Vec<u8>, Vec<u8>), String> {
    let (src, packed, text) = (scratch("in"), scratch("cct"), scratch("jsonl"));
    std::fs::write(&src, input).unwrap();
    let pack = cmd_trace_pack(&src, &packed, block_len, jobs);
    let cat = cmd_trace_cat(&src, Some(&text), jobs);
    let spec = RunSpec::new(AppId::Is, 4, Scale::Tiny, 1);
    let readers = || {
        [
            cmd_characterize_trace(&src, jobs, spec),
            cmd_characterize_trace_only(&src, jobs),
            cmd_replay(&src, jobs, spec),
        ]
    };
    let result = match (pack, cat) {
        (Ok(()), Ok(())) => Ok((take(&packed), take(&text))),
        (Err(p), Err(c)) => {
            assert_eq!(p.0, c.0, "pack and cat disagree on {input:?}");
            assert!(!exists(&packed) && !exists(&text), "a failed command wrote output");
            for read in readers() {
                assert_eq!(read.map_err(|e| e.0).unwrap_err(), p.0, "on {input:?}");
            }
            Err(p.0)
        }
        (p, c) => panic!("pack {p:?} but cat {c:?} on {input:?}"),
    };
    std::fs::remove_file(&src).unwrap();
    result
}

/// [`streamed_on`] with two workers.
fn streamed(input: &[u8], block_len: usize) -> Result<(Vec<u8>, Vec<u8>), String> {
    streamed_on(input, block_len, 2)
}

/// Asserts that the streamed commands agree with `load_trace` on `input`,
/// reading on the calling thread and on three workers.
fn assert_streams_as_loaded(what: &str, input: &[u8], block_len: usize) {
    for jobs in [1, 3] {
        assert_eq!(streamed_on(input, block_len, jobs), expected(input, block_len), "{what}");
    }
}

/// A trace with dependencies, every kind and several blocks' worth of
/// events.
fn sample() -> CommTrace {
    let mut tr = CommTrace::new(8);
    for id in 0..300u64 {
        let (src, dst) = ((id % 8) as u16, ((id * 3 + 1) % 8) as u16);
        if src == dst {
            continue;
        }
        let kind = [EventKind::Control, EventKind::Data, EventKind::Sync][(id % 3) as usize];
        let mut e = CommEvent::new(id, id * 11, src, dst, 8 + (id % 120) as u32, kind);
        if id > 8 && id % 4 == 0 {
            e = e.after(id - 8);
        }
        tr.push(e);
    }
    tr
}

/// `events` packed through the writer, which checks endpoints only.
fn packed(nodes: usize, events: &[CommEvent], block_len: usize) -> Vec<u8> {
    let mut w = TraceWriter::with_block_len(Vec::new(), nodes, block_len).unwrap();
    for &e in events {
        w.push(e).unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn good_traces_stream_to_the_loaded_bytes() {
    let jsonl = sample().to_jsonl();
    let cct = pack_trace_with_block_len(&sample(), 7);
    for block_len in [0, 7, 1, usize::MAX] {
        assert_streams_as_loaded("jsonl", jsonl.as_bytes(), block_len);
        assert_streams_as_loaded("packed", &cct, block_len);
    }
    assert_streams_as_loaded("empty trace", b"{\"nodes\":3}\n", 0);
}

#[test]
fn jsonl_rejects_fail_as_load_trace_does() {
    for (what, input, line, _) in common::jsonl_rejects() {
        for jobs in [1, 2, 3] {
            let err = streamed_on(input.as_bytes(), 0, jobs).expect_err(what);
            assert!(err.contains(&format!("line {line}: ")), "{what}, {jobs} jobs: {err}");
        }
        assert_streams_as_loaded(what, input.as_bytes(), 0);
    }
}

/// One event line; `pad` bytes of an unknown key's string value let a
/// test put a line end where it wants it.
fn event_line(e: &CommEvent, pad: usize) -> String {
    let mut one = CommTrace::new(8);
    one.push(*e);
    let text = one.to_jsonl();
    let line = text.lines().nth(1).expect("one event line");
    format!("{},\"pad\":\"{}\"}}\n", &line[..line.len() - 1], "x".repeat(pad))
}

/// A JSON-lines trace of several chunks with `special` placed last in the
/// first chunk (its line ending its last byte) or first in the second:
/// the input, the events its other lines hold (those before `special`,
/// then those after), and `special`'s line number and input offset.
fn with_line_at_chunk_edge(special: &[u8], last: bool) -> (Vec<u8>, Vec<CommEvent>, usize, usize) {
    let chunk = commchar::trace::CHUNK_BYTES;
    let event = |i: u64| {
        let kind = [EventKind::Control, EventKind::Data, EventKind::Sync][(i % 3) as usize];
        let e = CommEvent::new(i, i * 3, (i % 8) as u16, ((i + 3) % 8) as u16, 8 + i as u32, kind);
        if i > 4 && i.is_multiple_of(5) {
            e.after(i - 4)
        } else {
            e
        }
    };
    let start = if last { chunk - special.len() } else { chunk };
    let mut input = b"{\"nodes\":8}\n".to_vec();
    let mut events = Vec::new();
    while start - input.len() > 400 {
        events.push(event(events.len() as u64));
        input.extend_from_slice(event_line(events.last().unwrap(), 40).as_bytes());
    }
    events.push(event(events.len() as u64));
    let pad = start - input.len() - event_line(events.last().unwrap(), 0).len();
    input.extend_from_slice(event_line(events.last().unwrap(), pad).as_bytes());
    assert_eq!(input.len(), start);
    let line = 1 + input.iter().filter(|&&b| b == b'\n').count();
    input.extend_from_slice(special);
    while input.len() < 2 * chunk + chunk / 2 {
        events.push(event(events.len() as u64));
        input.extend_from_slice(event_line(events.last().unwrap(), 40).as_bytes());
    }
    (input, events, line, start)
}

/// `trace pack` of a file spanning several chunks writes the same bytes
/// for any worker count, as do `trace cat` and `trace stat`.
#[test]
fn pack_cat_and_stat_are_the_same_for_any_jobs() {
    let (input, events, ..) = with_line_at_chunk_edge(b"\n", false);
    let mut trace = CommTrace::new(8);
    trace.extend(events.iter().copied());
    let want = (pack_trace_with_block_len(&trace, 4096), trace.to_jsonl().into_bytes());
    let src = scratch("jsonl");
    std::fs::write(&src, &input).unwrap();
    let stat = cmd_trace_stat(&src, 1).unwrap();
    for jobs in [1, 2, 3] {
        assert_eq!(streamed_on(&input, 0, jobs).as_ref(), Ok(&want), "{jobs} jobs");
        assert_eq!(cmd_trace_stat(&src, jobs).unwrap(), stat, "{jobs} jobs");
    }
    std::fs::remove_file(&src).unwrap();
    assert!(stat.contains(&format!("events      : {}\n", events.len())), "{stat}");
}

/// Lines at the edges of a chunk read as anywhere else, for any worker
/// count: a CRLF line and a blank line pack as the events around them,
/// and a malformed line and one that is not UTF-8 fail with the error
/// naming their line number and byte offset, leaving `--out` as it was.
#[test]
fn lines_at_chunk_edges_read_as_anywhere_else() {
    let crlf = |id: u64| {
        let e = CommEvent::new(id, 5, 1, 2, 64, EventKind::Data);
        (event_line(&e, 0).replace('\n', "\r\n"), e)
    };
    for last in [true, false] {
        let edge = if last { "last" } else { "first" };
        let (line, event) = crlf(1 << 40);
        let fine: [(&str, &[u8], Option<CommEvent>); 3] = [
            ("CRLF", line.as_bytes(), Some(event)),
            ("blank", b"\n", None),
            ("whitespace", b" \t\r\n", None),
        ];
        for (what, special, event) in fine {
            let (input, mut events, line, _) = with_line_at_chunk_edge(special, last);
            let mut trace = CommTrace::new(8);
            let after = events.split_off(line - 2);
            trace.extend(events.into_iter().chain(event).chain(after));
            let want = (pack_trace_with_block_len(&trace, 4096), trace.to_jsonl().into_bytes());
            for jobs in [1, 2, 3] {
                let got = streamed_on(&input, 0, jobs);
                assert_eq!(got.as_ref(), Ok(&want), "{what} {edge} in a chunk, {jobs} jobs");
            }
        }
        let bad: [(&str, &[u8]); 3] = [
            ("malformed", b"{\"id\":3,nope}\n"),
            ("non-UTF-8 first byte", b"\xff{\"id\":3}\n"),
            ("non-UTF-8 last byte", b"{\"id\":3}\xe2\n"),
        ];
        for (what, special) in bad {
            let (input, _, line, offset) = with_line_at_chunk_edge(special, last);
            let want = match std::str::from_utf8(&input) {
                Err(e) => {
                    let at = e.valid_up_to();
                    assert!((offset..offset + special.len()).contains(&at), "{what}");
                    format!(
                        "JSON-lines trace: input is neither packed nor UTF-8: {e} (line {line})"
                    )
                }
                Ok(_) => format!(
                    "JSON-lines trace: line {line}: unparseable event: expected a string at byte \
                     9, found 'n' (\"{{\\\"id\\\":3,nope}}\")"
                ),
            };
            let (src, out) = (scratch("jsonl"), scratch("cct"));
            std::fs::write(&src, &input).unwrap();
            std::fs::write(&out, b"earlier output").unwrap();
            for jobs in [1, 2, 3] {
                let err = cmd_trace_pack(&src, &out, 0, jobs).unwrap_err();
                assert_eq!(err.0, want, "{what} {edge} in a chunk, {jobs} jobs");
                assert_eq!(std::fs::read(&out).unwrap(), b"earlier output");
            }
            assert_eq!(streamed(&input, 0), Err(want));
            std::fs::remove_file(&src).unwrap();
            std::fs::remove_file(&out).unwrap();
        }
    }
}

#[test]
fn broken_invariants_fail_as_load_trace_does() {
    let ev = |id, t, dep: Option<u64>| {
        let e = CommEvent::new(id, t, 0, 1, 8, EventKind::Data);
        dep.map_or(e, |d| e.after(d))
    };
    let cases: [(&str, Vec<CommEvent>, &str); 4] = [
        ("duplicate id", vec![ev(7, 0, None), ev(7, 5, None)], "duplicate event id 7"),
        ("unknown dependency", vec![ev(0, 0, None), ev(1, 5, Some(9))], "unknown id 9"),
        ("later dependency", vec![ev(0, 5, Some(1)), ev(1, 9, None)], "does not precede"),
        ("equal dependency", vec![ev(3, 5, Some(3)), ev(1, 9, None)], "does not precede"),
    ];
    for (what, events, phrase) in cases {
        let mut trace = CommTrace::new(2);
        trace.extend(events.iter().copied());
        let err = streamed(trace.to_jsonl().as_bytes(), 0).expect_err(what);
        assert!(err.starts_with("JSON-lines trace: ") && err.contains(phrase), "{what}: {err}");
        assert_streams_as_loaded(what, trace.to_jsonl().as_bytes(), 0);
        let err = streamed(&packed(2, &events, 1), 0).expect_err(what);
        assert!(err.starts_with("corrupt trace store: ") && err.contains(phrase), "{what}: {err}");
        assert_streams_as_loaded(what, &packed(2, &events, 1), 0);
    }
    // A byte that is not UTF-8 on line 3 is named as such; after a
    // malformed line 2, the malformed line is, as the first bad line.
    let event = b"{\"id\":0,\"t\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"d\xe1ta\"}\n";
    let not_utf8 = [&b"{\"nodes\":2}\n\n"[..], event].concat();
    let err = streamed(&not_utf8, 0).unwrap_err();
    assert!(err.contains("neither packed nor UTF-8") && err.ends_with("(line 3)"), "{err}");
    assert_streams_as_loaded("not UTF-8", &not_utf8, 0);
    let both = [&b"{\"nodes\":2}\nnot json\n"[..], event].concat();
    let err = streamed(&both, 0).unwrap_err();
    assert!(err.starts_with("JSON-lines trace: line 2: unparseable event"), "{err}");
    assert_streams_as_loaded("malformed, then not UTF-8", &both, 0);
}

#[test]
fn corrupt_packed_files_fail_as_load_trace_does() {
    let good = pack_trace_with_block_len(&sample(), 64);
    for cut in 0..good.len() {
        assert_streams_as_loaded(&format!("cut at {cut}"), &good[..cut], 0);
    }
    for at in 0..good.len() {
        let mut flipped = good.clone();
        flipped[at] ^= 0x55;
        assert_streams_as_loaded(&format!("flip at {at}"), &flipped, 0);
    }
    // A node count whose varint never ends.
    let mut endless = MAGIC.to_vec();
    endless.push(1);
    endless.extend_from_slice(&[0x80; 11]);
    endless.extend_from_slice(&[0u8; 4]);
    endless.extend_from_slice(&FOOTER_MAGIC);
    assert_streams_as_loaded("endless varint", &endless, 0);
    // An absurd footer length.
    let mut lie = good.clone();
    let len_at = lie.len() - FOOTER_MAGIC.len() - 4;
    lie[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_streams_as_loaded("footer length", &lie, 0);
    // A stream-kind byte other than 1 (events), 2 included, with and
    // without blocks. `trace stat` names it too.
    for trace in [sample(), CommTrace::new(8)] {
        for kind in [0u8, 2, 9] {
            let mut other = pack_trace_with_block_len(&trace, 64);
            other[MAGIC.len()] = kind;
            assert_eq!(streamed(&other, 0), Err(format!("unknown stream kind {kind}")));
            assert_streams_as_loaded("stream kind", &other, 0);
            let src = scratch("cct");
            std::fs::write(&src, &other).unwrap();
            assert_eq!(
                cmd_trace_stat(&src, 0).unwrap_err().0,
                format!("unknown stream kind {kind}")
            );
            std::fs::remove_file(&src).unwrap();
        }
    }
}

#[test]
fn line_endings_and_blank_lines_pack_to_the_same_bytes() {
    let plain = sample().to_jsonl();
    let want = streamed(plain.as_bytes(), 0).unwrap();
    let variants = [
        ("CRLF", plain.replace('\n', "\r\n")),
        ("blank lines", format!("\n \t\n{}\n\n", plain.replace('\n', "\n\n  \n"))),
        ("no final newline", plain.trim_end_matches('\n').to_string()),
    ];
    for (what, input) in variants {
        assert_eq!(streamed(input.as_bytes(), 0).as_ref(), Ok(&want), "{what}");
    }
}

#[test]
fn a_pack_failing_on_its_last_line_leaves_the_output_alone() {
    let mut input = sample().to_jsonl();
    input.push_str("{\"id\":5,\"t\":99999,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}\n");
    let (src, out) = (scratch("jsonl"), scratch("cct"));
    std::fs::write(&src, &input).unwrap();
    let err = cmd_trace_pack(&src, &out, 0, 0).unwrap_err();
    assert!(err.0.contains("duplicate event id 5"), "{err}");
    assert!(!exists(&out), "a failed pack created its output");
    std::fs::write(&out, b"earlier output").unwrap();
    cmd_trace_pack(&src, &out, 0, 0).unwrap_err();
    assert_eq!(take(&out), b"earlier output");
    // Nothing is left beside the output either.
    let dir = std::path::Path::new(&out).parent().unwrap();
    let stem = std::path::Path::new(&out).file_name().unwrap().to_string_lossy().into_owned();
    let stray = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().starts_with(&stem));
    assert!(!stray, "a failed pack left a temporary file beside {out}");
    std::fs::remove_file(&src).unwrap();
}

/// `run --out` and `generate --out` write through the same temporary
/// file: the bytes `pack_trace` and `to_jsonl` give, over a new file and
/// over an existing one.
#[test]
fn a_saved_trace_is_what_pack_and_to_jsonl_give() {
    let path = scratch("out");
    for (packed, block_len, want) in [
        (true, 0, pack_trace_with_block_len(&sample(), 4096)),
        (true, 7, pack_trace_with_block_len(&sample(), 7)),
        (false, 7, sample().to_jsonl().into_bytes()),
    ] {
        save_trace(&sample(), &path, packed, block_len).unwrap();
        assert_eq!(take(&path), want, "packed {packed}, block length {block_len}");
        std::fs::write(&path, b"earlier output").unwrap();
        save_trace(&sample(), &path, packed, block_len).unwrap();
        assert_eq!(take(&path), want, "over an existing file");
    }
}

#[test]
fn a_packed_file_repacks_in_place() {
    let path = scratch("cct");
    std::fs::write(&path, pack_trace_with_block_len(&sample(), 7)).unwrap();
    cmd_trace_pack(&path, &path, 7, 0).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), pack_trace_with_block_len(&sample(), 7));
    cmd_trace_pack(&path, &path, 0, 0).unwrap();
    assert_eq!(take(&path), pack_trace_with_block_len(&sample(), 4096));
}

#[cfg(unix)]
#[test]
fn a_symlinked_output_keeps_its_link() {
    let (src, target, link) = (scratch("jsonl"), scratch("cct"), scratch("link"));
    std::fs::write(&src, sample().to_jsonl()).unwrap();
    std::fs::write(&target, b"earlier output").unwrap();
    std::os::unix::fs::symlink(&target, &link).unwrap();
    cmd_trace_pack(&src, &link, 0, 0).unwrap();
    assert!(std::fs::symlink_metadata(&link).unwrap().file_type().is_symlink());
    assert_eq!(take(&target), pack_trace_with_block_len(&sample(), 4096));
    std::fs::remove_file(&link).unwrap();
    std::fs::remove_file(&src).unwrap();
}

/// An output that is not a regular file (here a pipe, as `/dev/stdout`
/// or `/dev/null` would be) is written into, never renamed over.
#[cfg(target_os = "linux")]
#[test]
fn a_pipe_output_is_written_into() {
    use std::io::Read;
    use std::os::fd::AsRawFd;
    let src = scratch("jsonl");
    std::fs::write(&src, sample().to_jsonl()).unwrap();
    let (mut reader, writer) = std::io::pipe().unwrap();
    let out = format!("/proc/self/fd/{}", writer.as_raw_fd());
    cmd_trace_pack(&src, &out, 0, 0).unwrap();
    drop(writer);
    let mut got = Vec::new();
    reader.read_to_end(&mut got).unwrap();
    assert_eq!(got, pack_trace_with_block_len(&sample(), 4096));
    std::fs::remove_file(&src).unwrap();
}

/// An output file that is replaced keeps its permissions.
#[cfg(unix)]
#[test]
fn a_replaced_output_keeps_its_mode() {
    use std::os::unix::fs::PermissionsExt;
    let (src, out) = (scratch("jsonl"), scratch("cct"));
    std::fs::write(&src, sample().to_jsonl()).unwrap();
    std::fs::write(&out, b"earlier output").unwrap();
    std::fs::set_permissions(&out, std::fs::Permissions::from_mode(0o600)).unwrap();
    cmd_trace_pack(&src, &out, 0, 0).unwrap();
    let mode = std::fs::metadata(&out).unwrap().permissions().mode();
    assert_eq!(mode & 0o777, 0o600);
    assert_eq!(take(&out), pack_trace_with_block_len(&sample(), 4096));
    std::fs::remove_file(&src).unwrap();
}

/// Runs `run` on a path naming a pipe that holds `input` (small enough
/// to fit the pipe's buffer).
#[cfg(target_os = "linux")]
fn piped<T>(input: &[u8], run: impl FnOnce(&str) -> T) -> T {
    use std::io::Write;
    use std::os::fd::AsRawFd;
    let (reader, mut writer) = std::io::pipe().unwrap();
    writer.write_all(input).unwrap();
    drop(writer);
    run(&format!("/proc/self/fd/{}", reader.as_raw_fd()))
}

/// Input from a pipe works in both formats and gives what the same bytes
/// in a file give: JSON-lines streams in, and packed input, which cannot
/// be read at offsets, is read whole first — `characterize --stream`'s
/// too, which reports on good packed input and fails on anything else
/// with the file's error text.
#[cfg(target_os = "linux")]
#[test]
fn a_pipe_input_reads_as_a_file_does() {
    let jsonl = sample().to_jsonl();
    let cct = pack_trace_with_block_len(&sample(), 7);
    let mut flipped = cct.clone();
    flipped[40] ^= 0x55;
    assert!(expected(&flipped, 0).is_err());
    let mut dup = jsonl.clone();
    dup.push_str("{\"id\":5,\"t\":99999,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}\n");
    for input in [jsonl.as_bytes(), &cct, &flipped, dup.as_bytes()] {
        let (packed, text) = (scratch("cct"), scratch("jsonl"));
        let pack = piped(input, |src| cmd_trace_pack(src, &packed, 0, 0));
        let cat = piped(input, |src| cmd_trace_cat(src, Some(&text), 0));
        let got = match (pack, cat) {
            (Ok(()), Ok(())) => Ok((take(&packed), take(&text))),
            (Err(p), Err(c)) => {
                assert_eq!(p.0, c.0);
                assert!(!exists(&packed) && !exists(&text), "a failed command wrote output");
                Err(p.0)
            }
            (p, c) => panic!("pack {p:?} but cat {c:?}"),
        };
        assert_eq!(got, expected(input, 0));
        let file = scratch("in");
        std::fs::write(&file, input).unwrap();
        let stat = piped(input, |src| cmd_trace_stat(src, 0)).map_err(|e| e.0);
        assert_eq!(stat, cmd_trace_stat(&file, 0).map_err(|e| e.0));
        let stream = piped(input, |src| cmd_characterize_stream(src, 0, 2)).map_err(|e| e.0);
        assert_eq!(stream, cmd_characterize_stream(&file, 0, 2).map_err(|e| e.0));
        assert_eq!(stream.is_ok(), input == cct.as_slice(), "{stream:?}");
        if input.starts_with(b"{") {
            assert!(stream.unwrap_err().starts_with("bad magic [7b, 22,"));
        }
        std::fs::remove_file(&file).unwrap();
    }
}

/// `trace cat` to stdout prints a valid trace whole, from a file or a
/// pipe, and nothing at all for an invalid one.
#[cfg(unix)]
#[test]
fn cat_to_stdout_prints_all_or_nothing() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let cat = |input: &[u8], from_pipe: bool| {
        let file = scratch("in");
        std::fs::write(&file, input).unwrap();
        let path = if from_pipe { "/dev/stdin" } else { file.as_str() };
        let mut child = Command::new(env!("CARGO_BIN_EXE_commchar"))
            .args(["trace", "cat", path])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdin = child.stdin.take().unwrap();
        let fed = if from_pipe { input.to_vec() } else { Vec::new() };
        let feeder = std::thread::spawn(move || stdin.write_all(&fed));
        let out = child.wait_with_output().unwrap();
        feeder.join().unwrap().unwrap();
        std::fs::remove_file(&file).unwrap();
        (out.status.code(), out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let jsonl = sample().to_jsonl();
    let mut dup = jsonl.clone();
    dup.push_str("{\"id\":5,\"t\":99999,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}\n");
    for from_pipe in [false, true] {
        for input in [jsonl.as_bytes(), &pack_trace_with_block_len(&sample(), 7)] {
            let (code, stdout, stderr) = cat(input, from_pipe);
            assert_eq!((code, stderr.as_str()), (Some(0), ""));
            assert_eq!(stdout, jsonl.as_bytes());
        }
        let (code, stdout, stderr) = cat(dup.as_bytes(), from_pipe);
        assert_eq!(code, Some(1));
        assert!(stdout.is_empty(), "an invalid trace printed {} bytes", stdout.len());
        assert!(
            stderr.starts_with("error: ") && stderr.contains("duplicate event id 5"),
            "{stderr}"
        );
    }
}
