//! Property-based tests for traces, profiling and causal replay.

use commchar_mesh::{EngineKind, MeshConfig, NetLog};
use commchar_trace::profile::{interarrival_aggregate, interarrival_by_source, profile};
use commchar_trace::replay::CausalReplayer;
use commchar_trace::{CommEvent, CommTrace, EventKind};
use proptest::prelude::*;
use std::collections::HashMap;

/// Random trace with a random dependency structure. Dependencies are only
/// attached when the dependency strictly precedes the dependent event in
/// `(t, id)` order — the validity rule real executions guarantee and
/// `CommTrace::check` enforces.
fn arb_trace(nodes: usize, max: usize) -> impl Strategy<Value = CommTrace> {
    prop::collection::vec(
        (0..nodes as u16, 0..nodes as u16, 1u32..100, 0u64..50_000, prop::option::of(0usize..max)),
        1..max,
    )
    .prop_map(move |raw| {
        let mut trace = CommTrace::new(nodes);
        let mut id = 0u64;
        let mut times: Vec<(u64, u64)> = Vec::new(); // (t, id) per pushed event
        for (s, d, bytes, t, dep) in raw {
            if s == d {
                continue;
            }
            let mut e = CommEvent::new(id, t, s, d, bytes, EventKind::Data);
            if let Some(dep) = dep {
                if let Some(&(dep_t, dep_id)) = times.get(dep % times.len().max(1)) {
                    if (dep_t, dep_id) < (t, id) {
                        e = e.after(dep_id);
                    }
                }
            }
            trace.push(e);
            times.push((t, id));
            id += 1;
        }
        trace
    })
}

/// `CommTrace::check` as it was written with a hash map of ids: the
/// reference the sort-merge checker is held to.
fn reference_check(trace: &CommTrace) -> Result<(), String> {
    let mut times = HashMap::with_capacity(trace.len());
    for e in trace.events() {
        if times.insert(e.id, e.t).is_some() {
            return Err(format!("duplicate event id {}", e.id));
        }
    }
    for e in trace.events() {
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

/// How many times `trace` breaks a rule: once per repeat of an id, and
/// once per dependency that is unknown or does not precede its event
/// (judged against the first event holding the id).
fn defects(trace: &CommTrace) -> usize {
    let mut times = HashMap::new();
    let mut count = 0;
    for e in trace.events() {
        match times.entry(e.id) {
            std::collections::hash_map::Entry::Occupied(_) => count += 1,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(e.t);
            }
        }
    }
    for e in trace.events() {
        if let Some(dep) = e.depends_on {
            match times.get(&dep) {
                Some(&dep_t) if (dep_t, dep) < (e.t, e.id) => {}
                _ => count += 1,
            }
        }
    }
    count
}

/// A valid [`arb_trace`] with up to three defects injected: an id
/// repeated, a dependency on an id no event has, or a dependency on an
/// event at an equal or later `(t, id)` (itself included).
fn defective_trace() -> impl Strategy<Value = CommTrace> {
    let defect = (0u8..3, 0usize..1000, 0usize..1000);
    (arb_trace(6, 40), prop::collection::vec(defect, 0..4)).prop_map(|(trace, defects)| {
        let mut events = trace.events().to_vec();
        for (kind, a, b) in defects {
            if events.is_empty() {
                break;
            }
            let (i, j) = (a % events.len(), b % events.len());
            match kind {
                0 => events[j].id = events[i].id,
                1 => events[j].depends_on = Some(1_000_000 + a as u64),
                _ => {
                    let key = |k: usize| (events[k].t, events[k].id);
                    let (later, dependent) = if key(i) >= key(j) { (i, j) } else { (j, i) };
                    events[dependent].depends_on = Some(events[later].id);
                }
            }
        }
        let mut out = CommTrace::new(trace.nodes());
        out.extend(events);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The sort-merge `CommTrace::check` accepts and rejects exactly what
    /// the hash-map reference does, with the same message when the trace
    /// breaks one rule once (with several defects the two may name
    /// different ones).
    #[test]
    fn check_agrees_with_the_hash_map_reference(trace in defective_trace()) {
        let (got, want) = (trace.check(), reference_check(&trace));
        prop_assert_eq!(got.is_ok(), want.is_ok(), "{:?} vs {:?}", got, want);
        if defects(&trace) == 1 {
            prop_assert_eq!(got, want);
        }
    }
}

proptest! {
    /// Profile totals equal direct sums.
    #[test]
    fn profile_conserves_counts(trace in arb_trace(8, 100)) {
        prop_assume!(!trace.is_empty());
        let p = profile(&trace);
        prop_assert_eq!(p.messages, trace.len() as u64);
        let bytes: u64 = trace.events().iter().map(|e| e.bytes as u64).sum();
        prop_assert_eq!(p.bytes, bytes);
        let per_source: u64 = p.sources.iter().map(|s| s.messages).sum();
        prop_assert_eq!(per_source, p.messages);
        for s in &p.sources {
            prop_assert_eq!(s.dest_counts.iter().sum::<u64>(), s.messages, "src {}", s.src);
        }
    }

    /// Inter-arrival gaps are nonnegative and count = msgs − active sources.
    #[test]
    fn interarrival_counts(trace in arb_trace(6, 80)) {
        prop_assume!(!trace.is_empty());
        let by_src = interarrival_by_source(&trace);
        let agg = interarrival_aggregate(&trace);
        prop_assert!(agg.iter().all(|&g| g >= 0.0));
        prop_assert_eq!(agg.len(), trace.len().saturating_sub(1));
        let active = by_src.iter().filter(|g| !g.is_empty()).count()
            + by_src.iter().filter(|g| g.is_empty()).count();
        prop_assert_eq!(active, 6);
        for gaps in &by_src {
            prop_assert!(gaps.iter().all(|&g| g >= 0.0));
        }
    }

    /// Causal replay delivers every event exactly once, injects
    /// per-source in trace order, and never violates a dependency.
    #[test]
    fn causal_replay_preserves_happens_before(trace in arb_trace(8, 60)) {
        prop_assume!(!trace.is_empty());
        let cfg = MeshConfig::for_nodes(8);
        let log = CausalReplayer::new(cfg).try_replay(&trace, EngineKind::Recurrence).unwrap();
        prop_assert_eq!(log.records().len(), trace.len());
        log.check_invariants(cfg.shape).unwrap();

        let by_id: HashMap<u64, (u64, u64)> =
            log.records().iter().map(|r| (r.id, (r.inject, r.delivered))).collect();
        for e in trace.events() {
            if let Some(dep) = e.depends_on {
                let (inject, _) = by_id[&e.id];
                let (_, dep_delivered) = by_id[&dep];
                prop_assert!(
                    inject >= dep_delivered,
                    "event {} injected at {inject} before dep {dep} delivered at {dep_delivered}",
                    e.id
                );
            }
        }

        // Per-source order preserved.
        let mut order: HashMap<u16, Vec<u64>> = HashMap::new();
        let mut events: Vec<_> = trace.events().to_vec();
        events.sort_by_key(|e| (e.t, e.id));
        for e in &events {
            order.entry(e.src).or_default().push(e.id);
        }
        for (src, ids) in order {
            let mut injects: Vec<u64> = ids.iter().map(|id| by_id[id].0).collect();
            let sorted = {
                let mut s = injects.clone();
                s.sort_unstable();
                s
            };
            prop_assert_eq!(&injects, &sorted, "source {} reordered its sends", src);
            injects.clear();
        }
    }

    /// Naive replay keeps the original timestamps verbatim.
    #[test]
    fn naive_replay_is_verbatim(trace in arb_trace(6, 40)) {
        prop_assume!(!trace.is_empty());
        let cfg = MeshConfig::for_nodes(6);
        let log = CausalReplayer::new(cfg).replay_naive(&trace, NetLog::new());
        let by_id: HashMap<u64, u64> = log.records().iter().map(|r| (r.id, r.inject)).collect();
        for e in trace.events() {
            prop_assert_eq!(by_id[&e.id], e.t);
        }
    }

    /// Replay is deterministic.
    #[test]
    fn replay_is_deterministic(trace in arb_trace(5, 40)) {
        prop_assume!(!trace.is_empty());
        let cfg = MeshConfig::for_nodes(5);
        let rep = CausalReplayer::new(cfg);
        let a = rep.try_replay(&trace, EngineKind::Recurrence).unwrap();
        let b = rep.try_replay(&trace, EngineKind::Recurrence).unwrap();
        prop_assert_eq!(a.records(), b.records());
    }
}
