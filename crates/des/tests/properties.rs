//! Property-based tests for the DES kernel.

use commchar_des::{KeyedCalendar, RunningStats, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events scheduled in reverse order pop out in `(time, key)` order,
    /// each at its own timestamp, and none is lost.
    #[test]
    fn keyed_calendar_pops_in_time_key_order(
        events in prop::collection::vec((0u64..1000, 0u32..50), 1..200),
    ) {
        let mut cal = KeyedCalendar::new();
        for &(t, k) in events.iter().rev() {
            cal.schedule(SimTime::from_ticks(t), k, t);
        }
        let mut popped = Vec::with_capacity(events.len());
        while let Some((at, k, t)) = cal.pop() {
            prop_assert_eq!(at.ticks(), t);
            prop_assert_eq!(cal.now(), at);
            popped.push((t, k));
        }
        let mut want = events.clone();
        want.sort_unstable();
        prop_assert_eq!(popped, want);
    }

    /// Welford statistics agree with the two-pass formulas.
    #[test]
    fn running_stats_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..500)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }
}
