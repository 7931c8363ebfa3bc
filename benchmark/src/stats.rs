//! Sample statistics and verdicts: medians, quartiles, nearest-rank tail
//! percentiles, bound verdicts for `--compare`, and span self times.

/// A percentile is only reported when at least this many samples lie
/// beyond it; fewer make the tail a handful of anecdotes.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default, "exclusive"), so the
/// spreads printed here are the ones a Python reader recomputes. One
/// sample gives that sample for both.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let (n, m) = (4, ld + 1);
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            (q(1), q(3))
        }
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`): the smallest sample
/// with at least `p`% of the samples at or below it. `None` unless at
/// least [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    if rank > v.len() || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Count, median and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary { n: xs.len(), median: median(xs), q1, q3 }
    }
}

/// Outcome of comparing one metric across two result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Either side's quartile spread exceeds the bound, so a change of
    /// the bound's size could be noise.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for a metric where `lower_is_better` says
/// which way is good. The tolerance is `bound` times a median, or the
/// absolute `floor` if that is larger; with both zero ("any increase")
/// the medians are compared exactly.
pub fn verdict(
    old: &Summary,
    new: &Summary,
    lower_is_better: bool,
    bound: f64,
    floor: f64,
) -> Verdict {
    let tolerance = |s: &Summary| (bound * s.median.abs()).max(floor);
    let tol = tolerance(old);
    if tol > 0.0 && (old.q3 - old.q1 > tol || new.q3 - new.q1 > tolerance(new)) {
        return Verdict::Unresolved;
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (new.median - old.median);
    if worse_by > tol {
        Verdict::Worse
    } else if worse_by < -tol {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One timed region. `parent` indexes the enclosing span in the same list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer or structure name, e.g. `spasm.run` or `cell`.
    pub name: String,
    /// Start, nanoseconds since the recording began.
    pub start_ns: u64,
    /// End, nanoseconds since the recording began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Self time of every span, in seconds: its duration minus the part of
/// its interval that its children cover. Children that overlap (worker
/// threads) are counted once, as the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.secs() - covered as f64 * 1e-9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p95 of 100 samples leaves 5 beyond it: refused.
        assert_eq!(percentile(&xs, 95.0), None);
        assert_eq!(percentile(&xs, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big, 99.9), None);
        // Order does not matter; ranks round up.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 10.0), None);
        let mut shuffled: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        shuffled.swap(0, 7);
        assert_eq!(percentile(&shuffled, 50.0), Some(10.0));
    }

    #[test]
    fn verdicts_respect_bound_direction_and_spread() {
        let s = |median: f64, q1: f64, q3: f64| Summary { n: 10, median, q1, q3 };
        let old = s(2.0, 1.98, 2.02);
        assert_eq!(verdict(&old, &s(2.1, 2.08, 2.12), true, 0.10, 0.0), Verdict::Same);
        assert_eq!(verdict(&old, &s(2.3, 2.28, 2.32), true, 0.10, 0.0), Verdict::Worse);
        assert_eq!(verdict(&old, &s(1.7, 1.68, 1.72), true, 0.10, 0.0), Verdict::Better);
        // Higher-is-better flips the sign.
        assert_eq!(verdict(&old, &s(2.3, 2.28, 2.32), false, 0.10, 0.0), Verdict::Better);
        // A noisy side cannot resolve a bound-sized change.
        assert_eq!(verdict(&old, &s(2.3, 1.9, 2.6), true, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&s(2.0, 1.5, 2.5), &old, true, 0.10, 0.0), Verdict::Unresolved);
        // An absolute floor widens a small bound: 0.12 s → 0.15 s is within
        // 0.05 s although it is 25% worse.
        let quick = s(0.12, 0.11, 0.13);
        assert_eq!(verdict(&quick, &s(0.15, 0.14, 0.16), true, 0.10, 0.05), Verdict::Same);
        assert_eq!(verdict(&quick, &s(0.15, 0.14, 0.16), true, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&quick, &s(0.25, 0.24, 0.26), true, 0.10, 0.05), Verdict::Worse);
        // A zero bound flags any increase, even from zero.
        let zero = s(0.0, 0.0, 0.0);
        assert_eq!(verdict(&zero, &zero, true, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(&zero, &s(0.01, 0.0, 0.02), true, 0.0, 0.0), Verdict::Worse);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name: &str, start_ns, end_ns, parent| Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            span("pass", 0, 1000, None),
            span("cell", 100, 600, Some(0)),
            span("spasm.run", 100, 300, Some(1)),
            span("core.fit", 350, 450, Some(1)),
            // Two overlapping worker spans count once: 700..900.
            span("tracestore.decode", 700, 850, Some(0)),
            span("trace.extract", 750, 900, Some(0)),
            // A child running past its parent is clipped to it.
            span("core.report", 950, 1200, Some(0)),
        ];
        let st = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as i64;
        assert_eq!(ns(st[0]), 1000 - 500 - 200 - 50);
        assert_eq!(ns(st[1]), 500 - 200 - 100);
        assert_eq!(ns(st[2]), 200);
        assert_eq!(ns(st[6]), 250);
    }
}
