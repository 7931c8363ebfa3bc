//! Plain-text table rendering for the experiment regenerators.

use commchar_mesh::NetSummary;
use commchar_stats::spatial::SpatialFit;

use crate::analyze::TraceAnalysis;
use crate::suite::SuiteReport;
use crate::{CommSignature, TemporalSig, VolumeSig};

/// Renders a fixed-width table: header row plus data rows.
///
/// # Example
///
/// ```
/// use commchar_core::report::table;
/// let s = table(
///     &["app", "msgs"],
///     &[vec!["is".into(), "35143".into()]],
/// );
/// assert!(s.contains("app"));
/// assert!(s.contains("is"));
/// ```
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!("{cell:<width$}  ", width = w));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One-line temporal summary for a signature: family, parameters, R², KS.
pub fn temporal_row(sig: &CommSignature) -> Vec<String> {
    let fit = &sig.temporal.aggregate;
    vec![
        sig.name.clone(),
        sig.class.name().to_string(),
        sig.nprocs.to_string(),
        fit.dist.family_name().to_string(),
        fit.dist.describe(),
        format!("{:.4}", fit.r2),
        format!("{:.4}", fit.ks),
    ]
}

/// Majority spatial classification across sources, e.g. `bimodal-uniform
/// (6/8 sources)` — pass a signature's or analysis's `spatial` field.
pub fn spatial_consensus(spatial: &[Option<SpatialFit>]) -> String {
    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let mut total = 0;
    for sp in spatial.iter().flatten() {
        *counts.entry(sp.model.name()).or_insert(0) += 1;
        total += 1;
    }
    match counts.iter().max_by_key(|&(_, &c)| c) {
        Some((name, c)) => format!("{name} ({c}/{total} sources)"),
        None => "no traffic".to_string(),
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The deterministic suite table: one row per cell, in input order, with
/// no timing columns — byte-identical however many workers ran the suite.
pub fn suite_table(report: &SuiteReport) -> String {
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|r| {
            let sig = &r.signature;
            vec![
                sig.name.clone(),
                sig.class.name().to_string(),
                r.cell.procs.to_string(),
                r.cell.scale.name().to_string(),
                r.cell.topology.name().to_string(),
                r.cell.routing.name().to_string(),
                r.messages.to_string(),
                format!("{}", sig.temporal.aggregate.dist),
                spatial_consensus(&sig.spatial),
                format!("{:.2}", r.synth_ratio),
            ]
        })
        .collect();
    table(
        &[
            "application",
            "class",
            "procs",
            "scale",
            "topology",
            "routing",
            "msgs",
            "inter-arrival fit",
            "spatial model",
            "synth ratio",
        ],
        &rows,
    )
}

/// Per-cell and aggregate timing for a suite run. Wall-clock figures vary
/// run to run, so this is kept out of [`suite_table`] (the CLI sends it
/// to stderr).
pub fn suite_timing(report: &SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in &report.cells {
        let _ = writeln!(
            out,
            "{:>10} p{:<3} {:>6}: {:>8.3} s wall, {:>12.0} msgs/sec",
            r.signature.name,
            r.cell.procs,
            r.cell.scale.name(),
            r.wall.as_secs_f64(),
            r.msgs_per_sec,
        );
    }
    let _ = writeln!(
        out,
        "suite: {} cells on {} worker(s) in {:.3} s ({:.0} msgs/sec aggregate)",
        report.cells.len(),
        report.jobs,
        report.wall.as_secs_f64(),
        report.msgs_per_sec(),
    );
    out
}

/// Writes the temporal-attribute section shared by [`signature_report`]
/// and [`analysis_report`].
fn temporal_section(out: &mut String, temporal: &TemporalSig) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "temporal attribute");
    let _ = writeln!(
        out,
        "  inter-arrival ~ {}   (R² = {:.4}, KS = {:.4})",
        temporal.aggregate.dist, temporal.aggregate.r2, temporal.aggregate.ks
    );
    let b = temporal.burstiness;
    let _ = writeln!(
        out,
        "  burstiness: CV² = {:.2}, IDI(8) = {:.2}, ρ₁ = {:.2}",
        b.cv2, b.idi8, b.rho1
    );
}

/// Writes the spatial-attribute section shared by [`signature_report`]
/// and [`analysis_report`].
fn spatial_section(out: &mut String, spatial: &[Option<SpatialFit>]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "spatial attribute");
    let _ = writeln!(out, "  consensus: {}", spatial_consensus(spatial));
    let mut rows = Vec::new();
    for (s, sp) in spatial.iter().enumerate() {
        if let Some(sp) = sp {
            rows.push(vec![format!("p{s}"), sp.model.to_string(), format!("{:.5}", sp.sse)]);
        }
    }
    let _ = writeln!(out, "{}", table(&["source", "model", "SSE"], &rows));
}

/// Writes the volume-attribute section shared by [`signature_report`]
/// and [`analysis_report`].
fn volume_section(out: &mut String, volume: &VolumeSig) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "volume attribute");
    let _ = writeln!(
        out,
        "  {} messages, {} bytes total, mean {:.1} bytes",
        volume.messages, volume.bytes, volume.mean_bytes
    );
}

/// Renders the full multi-section signature report (temporal, spatial,
/// volume, network) — the standard human-readable view used by the CLI.
pub fn signature_report(sig: &CommSignature) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "application : {} ({})", sig.name, sig.class.name());
    let _ = writeln!(out, "processors  : {}", sig.nprocs);
    let _ = writeln!(out, "exec ticks  : {}", sig.exec_ticks);
    let _ = writeln!(out);
    temporal_section(&mut out, &sig.temporal);
    let _ = writeln!(out);
    spatial_section(&mut out, &sig.spatial);
    volume_section(&mut out, &sig.volume);
    let _ = writeln!(out);
    let _ = writeln!(out, "network behaviour");
    let _ = writeln!(out, "  {}", network_line(&sig.network));
    out
}

/// The network-behaviour line of [`signature_report`], without its
/// indent: mean, median and p95 latency, mean blocked time, mean hops
/// and throughput. `replay` prints it for the causal and the naive run.
pub fn network_line(n: &NetSummary) -> String {
    format!(
        "mean latency {:.1} (median {:.0}, p95 {:.0}), blocked {:.1}, {:.2} hops, {:.4} bytes/tick",
        n.mean_latency, n.median_latency, n.p95_latency, n.mean_blocked, n.mean_hops, n.throughput
    )
}

/// Renders the trace-only analysis report: the same temporal / spatial /
/// volume sections as [`signature_report`], with no network-behaviour
/// section (a trace pass cannot know latencies — that takes a replay).
/// Both characterize drivers emit this identical text for the same
/// events, which is what the streaming smoke test diffs.
pub fn analysis_report(a: &TraceAnalysis, name: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "trace       : {name}");
    let _ = writeln!(out, "processors  : {}", a.nodes);
    let _ = writeln!(out);
    temporal_section(&mut out, &a.temporal);
    let _ = writeln!(out);
    spatial_section(&mut out, &a.spatial);
    volume_section(&mut out, &a.volume);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s =
            table(&["a", "bbbb"], &[vec!["xxxx".into(), "y".into()], vec!["z".into(), "w".into()]]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.1234), "12.3%");
    }
}
