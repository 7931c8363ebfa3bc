//! The metric catalogue, the one results schema every run writes, and
//! `--compare` over two results files.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{verdict, Summary, Verdict};

/// What a metric measures and how it is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether lower values are better.
    pub lower_better: bool,
    /// End-to-end metrics carry the share of the old median by which the
    /// new one may worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// Absolute slack added to the bound (`setup_s`: 0.05 s).
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower_better: bool, bound: f64) -> Spec {
    Spec { name, unit, lower_better, bound: Some(bound), floor: 0.0 }
}

const fn layer(name: &'static str, unit: &'static str, lower_better: bool) -> Spec {
    Spec { name, unit, lower_better, bound: None, floor: 0.0 }
}

/// End-to-end metrics, measured with tracing off. The first three are
/// defined and non-zero for every workload and are the ones
/// `BENCHMARK.json` lists. `events_per_s` is each workload's fixed event
/// count over `wall_s`, the same measurement, so it is not listed twice;
/// `failed_frac` is 0 on a good run and the latencies exist for
/// `serve-mix` only.
pub const END_TO_END: &[Spec] = &[
    e2e("wall_s", "s", true, 0.25),
    Spec { floor: 0.05, ..e2e("setup_s", "s", true, 0.25) },
    e2e("peak_rss_mb", "MiB", true, 0.10),
    e2e("events_per_s", "1/s", false, 0.25),
    e2e("failed_frac", "frac", true, 0.0),
    e2e("request_p50_ms", "ms", true, 0.10),
    e2e("request_p99_ms", "ms", true, 0.15),
    e2e("report_p50_ms", "ms", true, 0.10),
    e2e("report_p95_ms", "ms", true, 0.15),
];

/// Percentiles reported per latency family, with the metric names.
pub const LATENCIES: &[(&str, &[(f64, &str)])] = &[
    ("request", &[(50.0, "request_p50_ms"), (99.0, "request_p99_ms")]),
    ("report", &[(50.0, "report_p50_ms"), (95.0, "report_p95_ms")]),
];

/// Per-layer metrics from the traced run. The first twelve are defined
/// and non-zero for every workload and are the ones `BENCHMARK.json`
/// lists; the rest appear only where their layer runs.
pub const PER_LAYER: &[Spec] = &[
    layer("stage.input_s", "s", true),
    layer("trace.extract_s", "s", true),
    layer("core.fit_s", "s", true),
    layer("core.report_s", "s", true),
    layer("pass.other_s", "s", true),
    layer("pass.traced_s", "s", true),
    layer("trace.overhead_frac", "frac", true),
    layer("trace.extract_events_per_s", "1/s", false),
    layer("core.fit_s_per_krun", "s", true),
    layer("events", "count", false),
    layer("stats.gap_runs", "count", true),
    layer("stats.fit_sources", "count", false),
    // Where the layer runs.
    layer("spasm.run_s", "s", true),
    layer("spasm.messages", "count", false),
    layer("spasm.exec_ticks", "ticks", true),
    layer("spasm.msgs_per_s", "1/s", false),
    layer("sp2.run_s", "s", true),
    layer("sp2.messages", "count", false),
    layer("trace.replay_s", "s", true),
    layer("mesh.flits", "count", false),
    layer("mesh.mean_latency_ticks", "ticks", true),
    layer("mesh.span_ticks", "ticks", true),
    layer("mesh.replay_flits_per_s", "1/s", false),
    layer("trace.jsonl_parse_s", "s", true),
    layer("tracestore.encode_s", "s", true),
    layer("tracestore.decode_s", "s", true),
    layer("tracestore.blocks", "count", false),
    layer("tracestore.packed_bytes", "B", true),
    layer("tracestore.bytes_per_event", "B/event", true),
    layer("traffic.synth_s", "s", true),
    layer("traffic.synth_events", "count", false),
    layer("traffic.synth_ratio", "ratio", false),
    layer("serve.frames", "count", false),
    layer("serve.events", "count", false),
    layer("serve.bytes", "B", false),
    layer("serve.polls", "count", false),
    layer("serve.frame_errors", "count", true),
    layer("serve.sessions_opened", "count", false),
    layer("serve.blocks_rtt_s", "s", true),
    layer("serve.poll_rtt_s", "s", true),
    layer("serve.close_rtt_s", "s", true),
    layer("serve.backpressure_retries", "count", true),
    layer("serve.report_overhead_ms", "ms", true),
];

/// End-to-end metrics `BENCHMARK.json` lists (non-zero for every workload).
pub const DRIVER_E2E: usize = 3;

/// Per-layer metrics `BENCHMARK.json` lists (non-zero for every workload).
pub const DRIVER_LAYER: usize = 12;

/// The spec for `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// One metric's samples. `n` is the sample count behind them (for a tail
/// percentile that is the request count, not the one value).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`spec`]).
    pub name: String,
    /// Samples.
    pub values: Vec<f64>,
    /// Samples behind the values.
    pub n: usize,
}

impl Metric {
    /// A metric over `values`, one sample each.
    pub fn new(name: &str, values: Vec<f64>) -> Metric {
        Metric { name: name.to_string(), n: values.len(), values }
    }

    /// Median and quartiles of the values, with `n` as stated.
    pub fn summary(&self) -> Summary {
        Summary { n: self.n, ..Summary::of(&self.values) }
    }
}

/// One workload's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// CPUs its processes may use.
    pub cpus: usize,
    /// Whether its one-CPU children were pinned.
    pub pinned: bool,
    /// Why a one-CPU workload ran unpinned.
    pub pin_skip_reason: Option<String>,
    /// Timed end-to-end passes (after the warm-up).
    pub reps: usize,
    /// Traced passes.
    pub traced_reps: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failure reasons.
    pub notes: Vec<String>,
    /// FNV-1a digest of the warm-up pass's output, so a change can show
    /// its outputs are unchanged.
    pub digest: String,
    /// Metrics, end-to-end first.
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Failed operations ÷ attempted operations, over the whole run.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A whole results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    /// Hardware threads of the host.
    pub host_cores: usize,
    /// Revision measured ("unknown" outside a git checkout).
    pub git_rev: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// `e2e` or `trace`.
    pub mode: String,
    /// Measuring time per workload.
    pub seconds: u64,
    /// Per-workload outcomes.
    pub workloads: Vec<WorkloadResult>,
}

fn metric_json(m: &Metric) -> Json {
    let spec = spec(&m.name);
    let s = m.summary();
    Json::obj()
        .with("name", m.name.as_str())
        .with("scope", if spec.is_some_and(|s| s.bound.is_some()) { "e2e" } else { "layer" })
        .with("unit", spec.map_or("", |s| s.unit))
        .with("direction", if spec.is_none_or(|s| s.lower_better) { "lower" } else { "higher" })
        .with("bound", spec.and_then(|s| s.bound))
        .with("n", s.n)
        .with("median", s.median)
        .with("q1", s.q1)
        .with("q3", s.q3)
        .with("values", m.values.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>())
}

impl Results {
    /// The results as the shared JSON schema.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Json::obj()
                    .with("name", w.name.as_str())
                    .with("cpus", w.cpus)
                    .with("pinned", w.pinned)
                    .with("pin_skip_reason", w.pin_skip_reason.clone())
                    .with("reps", w.reps)
                    .with("traced_reps", w.traced_reps)
                    .with("attempted", w.attempted)
                    .with("failed", w.failed)
                    .with(
                        "notes",
                        w.notes.iter().map(|n| Json::from(n.as_str())).collect::<Vec<_>>(),
                    )
                    .with("digest", w.digest.as_str())
                    .with("metrics", w.metrics.iter().map(metric_json).collect::<Vec<_>>())
            })
            .collect::<Vec<_>>();
        Json::obj()
            .with("schema", "commchar-benchmark/1")
            .with("host_cores", self.host_cores)
            .with("git_rev", self.git_rev.as_str())
            .with("seed", self.seed)
            .with("mode", self.mode.as_str())
            .with("seconds", self.seconds)
            .with("workloads", workloads)
    }

    /// Reads a results file written by [`Results::to_json`].
    pub fn from_json(j: &Json) -> Result<Results, String> {
        let num = |v: &Json, k: &str| {
            v.get(k).and_then(Json::as_f64).ok_or(format!("missing number {k:?}"))
        };
        let text = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let workloads = j
            .get("workloads")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|w| {
                let metrics = w
                    .get("metrics")
                    .map(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .map(|m| {
                        Ok(Metric {
                            name: text(m, "name").ok_or("metric without a name")?,
                            values: m
                                .get("values")
                                .map(Json::as_array)
                                .unwrap_or_default()
                                .iter()
                                .filter_map(Json::as_f64)
                                .collect(),
                            n: num(m, "n")? as usize,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(WorkloadResult {
                    name: text(w, "name").ok_or("workload without a name")?,
                    cpus: num(w, "cpus")? as usize,
                    pinned: w.get("pinned") == Some(&Json::Bool(true)),
                    pin_skip_reason: text(w, "pin_skip_reason"),
                    reps: num(w, "reps")? as usize,
                    traced_reps: num(w, "traced_reps")? as usize,
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    notes: w
                        .get("notes")
                        .map(Json::as_array)
                        .unwrap_or_default()
                        .iter()
                        .filter_map(|n| n.as_str().map(str::to_string))
                        .collect(),
                    digest: text(w, "digest").unwrap_or_default(),
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Results {
            host_cores: num(j, "host_cores")? as usize,
            git_rev: text(j, "git_rev").unwrap_or_else(|| "unknown".to_string()),
            seed: num(j, "seed")? as u64,
            mode: text(j, "mode").unwrap_or_default(),
            seconds: num(j, "seconds")? as u64,
            workloads,
        })
    }
}

/// Compares two results files, workload by workload and metric by
/// metric. Returns the printed table and whether any end-to-end metric
/// got worse. `failed_frac` is judged on the workloads' attempted and
/// failed totals, and any increase is worse.
pub fn compare(old: &Results, new: &Results) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<13} {:<28} {:>14} {:>25} {:>14} {:>25} {:>8}  verdict",
        "workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "change"
    );
    for ow in &old.workloads {
        let Some(nw) = new.workloads.iter().find(|w| w.name == ow.name) else {
            let _ = writeln!(out, "{:<13} missing from the new results", ow.name);
            regressed = true;
            continue;
        };
        for om in &ow.metrics {
            let Some(nm) = nw.metric(&om.name) else { continue };
            let (o, n) = if om.name == "failed_frac" {
                (Summary::of(&[ow.failed_frac()]), Summary::of(&[nw.failed_frac()]))
            } else {
                (om.summary(), nm.summary())
            };
            let spec = spec(&om.name);
            let label = match spec.and_then(|s| s.bound.map(|b| (s, b))) {
                Some((s, bound)) => {
                    let v = verdict(&o, &n, s.lower_better, bound, s.floor);
                    regressed |= v == Verdict::Worse;
                    v.name()
                }
                None => "(layer)",
            };
            let change =
                if o.median != 0.0 { (n.median - o.median) / o.median.abs() * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<13} {:<28} {:>14.6} {:>25} {:>14.6} {:>25} {:>+7.1}%  {label}",
                ow.name,
                om.name,
                o.median,
                format!("{:.6}..{:.6}", o.q1, o.q3),
                n.median,
                format!("{:.6}..{:.6}", n.q1, n.q3),
                change,
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        Results {
            host_cores: 2,
            git_rev: "0123abc".to_string(),
            seed: 42,
            mode: "e2e".to_string(),
            seconds: 15,
            workloads: vec![WorkloadResult {
                name: "suite".to_string(),
                cpus: 1,
                pinned: false,
                pin_skip_reason: Some("taskset: not found".to_string()),
                reps: 3,
                traced_reps: 0,
                attempted: 19,
                failed: 0,
                notes: vec![],
                digest: "85944171f73967e8".to_string(),
                metrics: vec![
                    Metric::new("wall_s", vec![4.0123456789, 4.1, 3.99]),
                    Metric::new("failed_frac", vec![0.0]),
                    Metric { name: "request_p99_ms".to_string(), values: vec![0.91], n: 5232 },
                    Metric::new("spasm.run_s", vec![3.8]),
                ],
            }],
        }
    }

    #[test]
    fn results_round_trip_through_json_text() {
        let r = sample();
        let text = r.to_json().to_string();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Every metric records its unit, direction, bound and quartiles.
        let j = Json::parse(&text).unwrap();
        let m = &j.get("workloads").unwrap().as_array()[0].get("metrics").unwrap().as_array()[0];
        for key in ["unit", "direction", "bound", "n", "median", "q1", "q3"] {
            assert!(m.get(key).is_some(), "metric lacks {key}");
        }
        assert_eq!(m.get("bound"), Some(&Json::Num(0.25)));
    }

    #[test]
    fn compare_flags_worse_end_to_end_metrics() {
        let old = sample();
        let (table, regressed) = compare(&old, &old);
        assert!(!regressed, "{table}");
        assert!(table.contains("same") && table.contains("(layer)"));
        let mut slow = sample();
        slow.workloads[0].metrics[0] = Metric::new("wall_s", vec![5.6, 5.7, 5.8]);
        let (table, regressed) = compare(&old, &slow);
        assert!(regressed && table.contains("worse"), "{table}");
        // Per-layer changes never fail a comparison.
        let mut layer = sample();
        layer.workloads[0].metrics[3] = Metric::new("spasm.run_s", vec![9.0]);
        assert!(!compare(&old, &layer).1);
    }

    #[test]
    fn failures_are_judged_on_the_totals() {
        let old = sample();
        // One failed op out of 19, while the failed_frac values still
        // read 0: the totals decide, so the comparison fails.
        let mut failing = sample();
        failing.workloads[0].failed = 1;
        let (table, regressed) = compare(&old, &failing);
        assert!(regressed, "{table}");
        assert!(table.lines().any(|l| l.contains("failed_frac") && l.ends_with("worse")));
        // Fewer failures than before is better, not a regression.
        let (table, regressed) = compare(&failing, &old);
        assert!(!regressed, "{table}");
        assert!(table.lines().any(|l| l.contains("failed_frac") && l.ends_with("better")));
    }

    #[test]
    fn benchmark_json_lists_the_shared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            j.get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::as_f64))
                })
                .collect()
        };
        let expect = |specs: &[Spec]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|s| {
                    let better = if s.lower_better { "lower" } else { "higher" };
                    (s.name.to_string(), s.unit.to_string(), better.to_string(), s.bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END[..DRIVER_E2E]));
        assert_eq!(
            listed("per_layer"),
            expect(&PER_LAYER[..DRIVER_LAYER])
                .into_iter()
                .map(|(a, b, c, _)| (a, b, c, None))
                .collect::<Vec<_>>()
        );
        let workloads: Vec<&str> = j
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::Kind::ALL.map(|k| k.name()));
    }
}
