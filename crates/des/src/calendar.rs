//! The event calendar.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A pending event in a [`KeyedCalendar`].
struct KeyedEntry<K, E> {
    time: SimTime,
    key: K,
    event: E,
}

impl<K: Ord, E> PartialEq for KeyedEntry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<K: Ord, E> Eq for KeyedEntry<K, E> {}
impl<K: Ord, E> PartialOrd for KeyedEntry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, E> Ord for KeyedEntry<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inversion: the smallest (time, key) pops first.
        (&other.time, &other.key).cmp(&(&self.time, &self.key))
    }
}

/// A calendar ordered by `(time, key)` rather than `(time, insertion order)`.
///
/// Partitioned (sharded) simulations cannot break ties by insertion
/// sequence: the interleaving of `schedule` calls across shards depends on
/// how the event space was partitioned, so insertion order is not stable
/// under re-sharding. A `KeyedCalendar` instead breaks timestamp ties with a
/// caller-supplied key that is derived from simulation state alone (e.g.
/// `(event class, emitting site, per-site sequence)`), making the pop order
/// identical for any partitioning of the same logical event set.
///
/// Each shard owns one `KeyedCalendar`, whose clock ([`now`](Self::now)) is
/// that shard's local virtual time; [`advance_to`](Self::advance_to) moves
/// the clock to the start of a conservative time window without popping.
///
/// # Example
///
/// ```
/// use commchar_des::{KeyedCalendar, SimTime};
///
/// let mut cal = KeyedCalendar::new();
/// cal.schedule(SimTime::from_ticks(5), 2u32, 'b');
/// cal.schedule(SimTime::from_ticks(5), 1u32, 'a');
/// cal.schedule(SimTime::from_ticks(1), 9u32, 'z');
/// let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, _, e)| e)).collect();
/// assert_eq!(order, vec!['z', 'a', 'b']);
/// ```
pub struct KeyedCalendar<K: Ord, E> {
    heap: BinaryHeap<KeyedEntry<K, E>>,
    now: SimTime,
}

impl<K: Ord, E> KeyedCalendar<K, E> {
    /// Creates an empty calendar positioned at `SimTime::ZERO`.
    pub fn new() -> Self {
        KeyedCalendar { heap: BinaryHeap::new(), now: SimTime::ZERO }
    }

    /// Schedules `event` at absolute time `at`, tie-broken by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the calendar clock — scheduling into
    /// the past would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, key: K, event: E) {
        assert!(at >= self.now, "scheduled event at {at:?} before current time {:?}", self.now);
        self.heap.push(KeyedEntry { time: at, key, event });
    }

    /// Removes and returns the earliest `(time, key, event)`, advancing the
    /// calendar clock.
    pub fn pop(&mut self) -> Option<(SimTime, K, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.key, entry.event))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Advances the clock to `to` without popping — used by windowed shards
    /// entering a new conservative time window.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past, or if an event earlier than `to` is
    /// still pending (the window would have skipped it).
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "window start {to:?} before current time {:?}", self.now);
        if let Some(t) = self.peek_time() {
            assert!(t >= to, "window start {to:?} would skip pending event at {t:?}");
        }
        self.now = to;
    }

    /// The calendar clock: the later of the last popped event time and the
    /// last window start passed to [`advance_to`](Self::advance_to).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<K: Ord, E> Default for KeyedCalendar<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, E> std::fmt::Debug for KeyedCalendar<K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedCalendar")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_calendar_orders_by_key_not_insertion() {
        let mut cal = KeyedCalendar::new();
        // Insert equal-time events with keys in descending order; pops must
        // come back in ascending key order regardless.
        for k in (0u32..50).rev() {
            cal.schedule(SimTime::from_ticks(9), k, k);
        }
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_calendar_pop_is_partition_invariant() {
        // The sharding contract: merging two disjoint schedules of the same
        // logical events yields the same pop order as scheduling them all in
        // one calendar, for any interleaving of the schedule calls.
        let events: Vec<(u64, (u8, u32))> =
            vec![(5, (0, 2)), (5, (1, 0)), (3, (1, 7)), (5, (0, 1)), (3, (0, 9))];
        let mut whole = KeyedCalendar::new();
        for &(t, k) in &events {
            whole.schedule(SimTime::from_ticks(t), k, k);
        }
        let mut interleaved = KeyedCalendar::new();
        for &(t, k) in events.iter().rev() {
            interleaved.schedule(SimTime::from_ticks(t), k, k);
        }
        let a: Vec<_> = std::iter::from_fn(|| whole.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| interleaved.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_calendar_drains_peeks_and_clocks() {
        // A shard whose window holds no events must observe a clean drain:
        // pop and peek yield None, and the clock is untouched.
        let mut cal: KeyedCalendar<u32, char> = KeyedCalendar::new();
        assert!(cal.is_empty());
        assert_eq!(cal.len(), 0);
        assert_eq!(cal.peek_time(), None);
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.now(), SimTime::ZERO);
        // Reading the next time does not consume the event.
        cal.schedule(SimTime::from_ticks(9), 0, 'b');
        cal.schedule(SimTime::from_ticks(4), 0, 'a');
        assert_eq!(cal.peek_time(), Some(SimTime::from_ticks(4)));
        assert_eq!(cal.len(), 2);
        assert!(!cal.is_empty());
        // The clock follows pops.
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_ticks(4));
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_ticks(9));
        // Draining an emptied calendar behaves the same way, and it accepts
        // new events at or after the drained clock.
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.now(), SimTime::from_ticks(9));
        cal.schedule(SimTime::from_ticks(9), 1, 'c');
        assert_eq!(cal.pop(), Some((SimTime::from_ticks(9), 1, 'c')));
    }

    #[test]
    fn keyed_calendar_advance_to_sets_window_clock() {
        let mut cal: KeyedCalendar<u32, ()> = KeyedCalendar::new();
        cal.advance_to(SimTime::from_ticks(10));
        assert_eq!(cal.now(), SimTime::from_ticks(10));
        // Scheduling before the window start is now a causality violation.
        cal.schedule(SimTime::from_ticks(10), 0, ());
        assert_eq!(cal.pop(), Some((SimTime::from_ticks(10), 0, ())));
    }

    #[test]
    #[should_panic(expected = "would skip pending event")]
    fn keyed_calendar_advance_past_pending_event_panics() {
        let mut cal = KeyedCalendar::new();
        cal.schedule(SimTime::from_ticks(4), 0u32, ());
        cal.advance_to(SimTime::from_ticks(5));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn keyed_calendar_scheduling_into_past_panics() {
        let mut cal = KeyedCalendar::new();
        cal.schedule(SimTime::from_ticks(10), 0u32, ());
        cal.pop();
        cal.schedule(SimTime::from_ticks(5), 1u32, ());
    }
}
