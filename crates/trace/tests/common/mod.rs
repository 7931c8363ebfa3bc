//! The JSON-lines reject table: malformed inputs, each with the line its
//! error must name and a phrase the error must contain. `jsonl.rs` runs
//! it through `CommTrace::from_jsonl`, and the root package's
//! `trace_pack.rs` through `trace pack`, `characterize --trace` and
//! `replay`, which must fail the same way.

/// `(what, input, the line the error must name, a phrase it must
/// contain)` for every reject row.
pub fn jsonl_rejects() -> Vec<(&'static str, String, usize, &'static str)> {
    const HEADER: &str = "{\"nodes\":4}\n";
    let ok = r#"{"id":0,"t":1,"src":0,"dst":1,"bytes":8,"kind":"data"}"#;
    vec![
        ("truncated line", format!("{HEADER}{ok}\n{{\"id\":1,\"t\":2,\"src\":0,\"d"), 3, "closing"),
        ("truncated value", format!("{HEADER}{}\n", &ok[..ok.len() - 1]), 2, "line ends"),
        ("truncated header", "{\"nodes\":4\n".into(), 1, "line ends"),
        ("missing key", format!("{HEADER}{}\n", ok.replace("\"bytes\":8,", "")), 2, "\"bytes\""),
        ("missing header key", "{\"sodes\":4}\n".into(), 1, "\"nodes\""),
        ("empty object", format!("{HEADER}{{}}\n"), 2, "missing key"),
        ("repeated key", format!("{HEADER}{}\n", ok.replace("}", ",\"src\":2}")), 2, "repeated"),
        ("repeated header key", "{\"nodes\":4,\"nodes\":4}\n".into(), 1, "repeated"),
        (
            "u64 overflow",
            format!("{HEADER}{}\n", ok.replace("\"id\":0", "\"id\":18446744073709551616")),
            2,
            "overflows",
        ),
        ("header overflow", "{\"nodes\":99999999999999999999}\n".into(), 1, "overflows"),
        (
            "negative value",
            format!("{HEADER}{}\n", ok.replace("\"t\":1", "\"t\":-1")),
            2,
            "integer",
        ),
        ("fractional value", format!("{HEADER}{}\n", ok.replace(":8,", ":8.5,")), 2, "'.'"),
        ("exponent", format!("{HEADER}{}\n", ok.replace(":8,", ":8e2,")), 2, "'e'"),
        ("fractional header", "{\"nodes\":4.0}\n".into(), 1, "'.'"),
        ("quoted integer", format!("{HEADER}{}\n", ok.replace(":8,", ":\"8\",")), 2, "integer"),
        // `src` 65537 once wrapped to 1 and `bytes` 4294967304 to 8, so
        // this line parsed as a valid 1 → 0 message of 8 bytes.
        (
            "wrapped src",
            format!(
                "{HEADER}{}\n",
                r#"{"id":0,"t":1,"src":65537,"dst":0,"bytes":4294967304,"kind":"data"}"#
            ),
            2,
            "\"src\" value does not fit u16",
        ),
        ("wrapped bytes", format!("{HEADER}{}\n", ok.replace(":8,", ":4294967304,")), 2, "u32"),
        (
            "nested object",
            format!("{HEADER}{}\n", ok.replace("}", ",\"meta\":{\"a\":1}}")),
            2,
            "scalar",
        ),
        ("nested array", format!("{HEADER}{}\n", ok.replace("}", ",\"hops\":[1,2]}")), 2, "scalar"),
        (
            "nested known key",
            format!("{HEADER}{}\n", ok.replace("\"t\":1", "\"t\":[1]")),
            2,
            "integer",
        ),
        ("bad literal", format!("{HEADER}{}\n", ok.replace("}", ",\"ok\":tru}")), 2, "scalar"),
        ("trailing garbage", format!("{HEADER}{ok}x\n"), 2, "end of the line"),
        ("two objects", format!("{HEADER}{ok} {ok}\n"), 2, "end of the line"),
        ("trailing comma", format!("{HEADER}{}\n", ok.replace("}", ",}")), 2, "a string"),
        ("header garbage", "{\"nodes\":4}}\n".into(), 1, "end of the line"),
        ("unknown kind", format!("{HEADER}{}\n", ok.replace("data", "telepathy")), 2, "telepathy"),
        ("not an object", format!("{HEADER}[{ok}]\n"), 2, "'{'"),
        (
            "non-ASCII digit",
            format!("{HEADER}{}\n", ok.replace("\"t\":1", "\"t\":\u{663}")),
            2,
            "integer",
        ),
        ("after blank lines", format!("\n{HEADER}\n\n{ok}\n\n{ok}x\n"), 7, "end of the line"),
    ]
}
