//! The JSON-lines parser: round trips at the field extremes, the inputs it
//! accepts, and the malformed inputs it must reject with an error naming
//! the line — never a panic. (Non-UTF-8 input never reaches
//! `CommTrace::from_jsonl`, which takes `&str`; `load_trace` in
//! `commchar-tracestore` rejects it.)

mod common;

use commchar_trace::{CommEvent, CommTrace, EventKind, MAX_NODES};
use proptest::prelude::*;

/// A `u64` biased towards the extremes of its range.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), Just(u64::MAX - 1), 0..=u64::MAX, 0u64..1000]
}

/// A trace over `nodes` processors whose ids, times, lengths and
/// dependencies sit at the edges of their types: events are sorted into
/// `(t, id)` order with duplicate ids dropped, and a dependency points at
/// an earlier event, so the trace passes `CommTrace::check`.
fn edge_trace() -> impl Strategy<Value = CommTrace> {
    let event = (
        edge_u64(),
        edge_u64(),
        0..MAX_NODES as u16,
        0..MAX_NODES as u16,
        prop_oneof![Just(0u32), Just(u32::MAX), 0..=u32::MAX],
        0u8..3,
        prop::option::of(0usize..64),
    );
    let nodes = prop_oneof![Just(MAX_NODES), Just(2usize), 2..MAX_NODES];
    (nodes, prop::collection::vec(event, 0..40)).prop_map(|(nodes, mut raw)| {
        raw.sort_by_key(|&(id, t, ..)| (t, id));
        let n = nodes as u16;
        let mut trace = CommTrace::new(nodes);
        let mut ids = std::collections::HashSet::new();
        let mut pushed = Vec::new();
        for (id, t, s, d, bytes, kind, dep) in raw {
            if !ids.insert(id) {
                continue;
            }
            // Endpoints folded into range, pinned to the top node some of
            // the time, and forced distinct.
            let src = if s % 5 == 0 { n - 1 } else { s % n };
            let mut dst = d % n;
            if dst == src {
                dst = (src + 1) % n;
            }
            let kind = [EventKind::Control, EventKind::Data, EventKind::Sync][usize::from(kind)];
            let mut ev = CommEvent::new(id, t, src, dst, bytes, kind);
            if let Some(dep) = dep.filter(|_| !pushed.is_empty()) {
                ev = ev.after(pushed[dep % pushed.len()]);
            }
            trace.push(ev);
            pushed.push(id);
        }
        trace
    })
}

proptest! {
    /// `from_jsonl(to_jsonl(t))` is `t` at the edges of every field:
    /// `u64::MAX` ids, times and dependencies, `u32::MAX` lengths, and
    /// up to `MAX_NODES` processors with endpoints up to 4095.
    #[test]
    fn roundtrip_at_field_extremes(trace in edge_trace()) {
        prop_assert!(trace.check().is_ok());
        let parsed = CommTrace::from_jsonl(&trace.to_jsonl()).unwrap();
        prop_assert_eq!(parsed.nodes(), trace.nodes());
        prop_assert_eq!(parsed.events(), trace.events());
    }
}

#[test]
fn roundtrip_of_the_largest_values() {
    let mut trace = CommTrace::new(MAX_NODES);
    trace.push(CommEvent::new(u64::MAX, 0, 4095, 4094, u32::MAX, EventKind::Control));
    trace.push(CommEvent::new(0, u64::MAX, 0, 4095, 0, EventKind::Sync).after(u64::MAX));
    let parsed = CommTrace::from_jsonl(&trace.to_jsonl()).unwrap();
    assert_eq!(parsed.nodes(), MAX_NODES);
    assert_eq!(parsed.events(), trace.events());
}

/// The events every accept-table input spells out.
fn expected() -> Vec<CommEvent> {
    vec![
        CommEvent::new(0, 1, 0, 1, 64, EventKind::Data),
        CommEvent::new(1, 9, 1, 0, 8, EventKind::Sync).after(0),
    ]
}

#[test]
fn accepts_json_that_to_jsonl_would_not_write() {
    let first = r#"{"id":0,"t":1,"src":0,"dst":1,"bytes":64,"kind":"data"}"#;
    let second = r#"{"id":1,"t":9,"src":1,"dst":0,"bytes":8,"kind":"sync","dep":0}"#;
    let table: [(&str, String); 7] = [
        ("canonical", format!("{{\"nodes\":2}}\n{first}\n{second}\n")),
        (
            "permuted key order",
            format!(
                "{{\"nodes\":2}}\n{first}\n{}\n",
                r#"{"dep":0,"kind":"sync","bytes":8,"dst":0,"src":1,"t":9,"id":1}"#
            ),
        ),
        (
            "whitespace around tokens",
            format!(
                "  {{ \"nodes\" : 2 }}\n{first}\n{}\n",
                "\t{ \"id\" : 1 ,\"t\":\t9 , \"src\" :1, \"dst\": 0 , \"bytes\" : 8 , \
                 \"kind\" : \"sync\" , \"dep\" : 0 }  "
            ),
        ),
        ("CRLF line endings", format!("{{\"nodes\":2}}\r\n{first}\r\n{second}\r\n")),
        ("no final newline", format!("{{\"nodes\":2}}\n{first}\n{second}")),
        (
            "unknown scalar keys",
            format!(
                "{}\n{}\n{second}\n",
                r#"{"nodes":2,"tool":"sp2 \"v1\"","ranks":2}"#,
                r#"{"id":0,"note":"a,b}c","t":1,"src":0,"ok":true,"dst":1,"x":null,"bytes":64,"w":-1.5e-3,"kind":"data","v":01}"#
            ),
        ),
        ("blank lines", format!("\n  \n{{\"nodes\":2}}\n\n{first}\n \t \n\n{second}\n\n")),
    ];
    for (what, input) in &table {
        let trace = CommTrace::from_jsonl(input).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(trace.nodes(), 2, "{what}");
        assert_eq!(trace.events(), expected(), "{what}");
    }
}

#[test]
fn rejects_malformed_lines_naming_the_line() {
    for (what, input, line, phrase) in common::jsonl_rejects() {
        let err = match CommTrace::from_jsonl(&input) {
            Ok(_) => panic!("{what}: accepted {input:?}"),
            Err(e) => e,
        };
        assert!(err.starts_with(&format!("line {line}: ")), "{what}: {err}");
        assert!(err.contains(phrase), "{what}: {err:?} lacks {phrase:?}");
    }
}
