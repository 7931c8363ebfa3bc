//! `trace pack` and `trace cat` stream their input, and must still behave
//! as if they had loaded it whole with `load_trace`: the same error text
//! for every bad input (and then no output file), the same bytes for
//! every good one, whatever the line endings or whether the input is a
//! file or a pipe, and a re-pack in place.

#[path = "../crates/trace/tests/common/mod.rs"]
mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use commchar::cli::{cmd_trace_cat, cmd_trace_pack, cmd_trace_stat};
use commchar::mesh::{MeshConfig, NetMessage, NodeId, OnlineWormhole};
use commchar::trace::{CommEvent, CommTrace, EventKind};
use commchar::tracestore::writer::pack_trace_with_block_len;
use commchar::tracestore::{load_trace, pack_netlog, TraceWriter, FOOTER_MAGIC, MAGIC};

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

/// Runs `trace pack` and `trace cat` on `input` from a file and returns
/// what they wrote, asserting that a failure wrote no output file.
fn streamed(input: &[u8], block_len: usize) -> Result<(Vec<u8>, Vec<u8>), String> {
    let (src, packed, text) = (scratch("in"), scratch("cct"), scratch("jsonl"));
    std::fs::write(&src, input).unwrap();
    let pack = cmd_trace_pack(&src, &packed, block_len);
    let cat = cmd_trace_cat(&src, Some(&text));
    std::fs::remove_file(&src).unwrap();
    match (pack, cat) {
        (Ok(()), Ok(())) => Ok((take(&packed), take(&text))),
        (Err(p), Err(c)) => {
            assert_eq!(p.0, c.0, "pack and cat disagree on {input:?}");
            assert!(!exists(&packed) && !exists(&text), "a failed command wrote output");
            Err(p.0)
        }
        (p, c) => panic!("pack {p:?} but cat {c:?} on {input:?}"),
    }
}

/// Asserts that the streamed commands agree with `load_trace` on `input`.
fn assert_streams_as_loaded(what: &str, input: &[u8], block_len: usize) {
    assert_eq!(streamed(input, block_len), expected(input, block_len), "{what}");
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
        let err = streamed(input.as_bytes(), 0).expect_err(what);
        assert!(err.contains(&format!("line {line}: ")), "{what}: {err}");
        assert_streams_as_loaded(what, input.as_bytes(), 0);
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
    // A netlog stream where events are expected, with and without blocks.
    let msgs: Vec<NetMessage> = sample()
        .events()
        .iter()
        .map(|e| NetMessage {
            id: e.id,
            src: NodeId(e.src),
            dst: NodeId(e.dst),
            bytes: e.bytes,
            inject: commchar::des::SimTime::from_ticks(e.t),
        })
        .collect();
    for msgs in [&msgs[..], &[]] {
        let log = OnlineWormhole::new(MeshConfig::for_nodes(8)).simulate(msgs);
        let err = streamed(&pack_netlog(&log), 0).unwrap_err();
        assert!(err.contains("expected events"), "{err}");
        assert_streams_as_loaded("netlog", &pack_netlog(&log), 0);
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
    let err = cmd_trace_pack(&src, &out, 0).unwrap_err();
    assert!(err.0.contains("duplicate event id 5"), "{err}");
    assert!(!exists(&out), "a failed pack created its output");
    std::fs::write(&out, b"earlier output").unwrap();
    cmd_trace_pack(&src, &out, 0).unwrap_err();
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

#[test]
fn a_packed_file_repacks_in_place() {
    let path = scratch("cct");
    std::fs::write(&path, pack_trace_with_block_len(&sample(), 7)).unwrap();
    cmd_trace_pack(&path, &path, 7).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), pack_trace_with_block_len(&sample(), 7));
    cmd_trace_pack(&path, &path, 0).unwrap();
    assert_eq!(take(&path), pack_trace_with_block_len(&sample(), 4096));
}

#[cfg(unix)]
#[test]
fn a_symlinked_output_keeps_its_link() {
    let (src, target, link) = (scratch("jsonl"), scratch("cct"), scratch("link"));
    std::fs::write(&src, sample().to_jsonl()).unwrap();
    std::fs::write(&target, b"earlier output").unwrap();
    std::os::unix::fs::symlink(&target, &link).unwrap();
    cmd_trace_pack(&src, &link, 0).unwrap();
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
    cmd_trace_pack(&src, &out, 0).unwrap();
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
    cmd_trace_pack(&src, &out, 0).unwrap();
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
/// be read at offsets, is read whole first.
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
        let pack = piped(input, |src| cmd_trace_pack(src, &packed, 0));
        let cat = piped(input, |src| cmd_trace_cat(src, Some(&text)));
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
        let stat = piped(input, cmd_trace_stat).map_err(|e| e.0);
        assert_eq!(stat, cmd_trace_stat(&file).map_err(|e| e.0));
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
