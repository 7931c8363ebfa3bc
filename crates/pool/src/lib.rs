//! # commchar-pool
//!
//! The two helpers every parallel stage of the workspace runs on, both
//! on `std::thread::scope` — no dependencies, no unsafe, no thread
//! outlives the call:
//!
//! - [`run_concurrent`] runs one closure per item, all at the same time,
//!   each on its own scoped thread, and returns the results in item
//!   order. It carries work whose items must progress together: the
//!   simulation shards of the sharded flit drain (`commchar-mesh`) and
//!   the sharded spasm machine (`commchar-spasm`), which rendezvous on
//!   each other's fences, and the connection workers of the
//!   characterization server (`commchar-serve`).
//! - [`run_indexed`] is the work-claiming fan-out over independent
//!   index-addressed work: suite cells (`commchar-core::suite`),
//!   packed-trace block decode (`commchar-tracestore`), and per-source
//!   distribution fitting (`commchar-core::characterize`). Its workers
//!   are [`run_concurrent`] items that claim indices `0..count` from a
//!   shared atomic cursor (whichever worker is free takes the next item
//!   — cheap work stealing that tolerates wildly uneven item costs), so
//!   the returned `Vec` is in input order **regardless of worker count
//!   or completion order** — callers get determinism for free.
//!
//! Both run a single item (one worker) inline on the calling thread, so
//! the sequential path is exactly the parallel path minus threads, and
//! both rethrow a panic with its own payload.
//!
//! # Example
//!
//! ```
//! let squares = commchar_pool::run_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! let lens = commchar_pool::run_concurrent(["a", "bb", "ccc"], str::len);
//! assert_eq!(lens, vec![1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `--jobs` knob: `0` means one worker per available hardware
/// thread, anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Resolves a `--jobs` knob against an item count: the result never
/// exceeds `items` (no point spawning workers with nothing to claim) and
/// is always at least 1 so it can be used directly as a divisor or
/// worker count.
pub fn resolve_jobs_for(jobs: usize, items: usize) -> usize {
    resolve_jobs(jobs).min(items).max(1)
}

/// Runs `f(item)` for every item at the same time, each on its own
/// scoped thread, and returns the results in item order. A single item
/// runs inline on the calling thread.
///
/// Every item is running before any is waited for, so items may wait on
/// each other (a barrier, a fence, a mailbox): this is the helper for
/// work that must progress together, not for fanning out independent
/// work over a bounded worker count (see [`run_indexed`]).
///
/// # Panics
///
/// Rethrows the payload of the lowest-indexed item that panicked,
/// unchanged, once every thread has been joined.
pub fn run_concurrent<I, T, F>(items: impl IntoIterator<Item = I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let mut items: Vec<I> = items.into_iter().collect();
    if items.len() <= 1 {
        return items.pop().map(f).into_iter().collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.into_iter().map(|item| scope.spawn(move || f(item))).collect();
        // Join every thread explicitly, in item order: the scope's
        // implicit join would replace a payload with its own generic
        // message, and the first failure in item order is the one
        // rethrown whatever order the threads failed in.
        let mut results = Vec::with_capacity(handles.len());
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(t) => results.push(t),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        results
    })
}

/// Runs `f(0), f(1), …, f(count - 1)` across at most `jobs` worker
/// threads (`0` = one per hardware thread) and returns the results in
/// index order.
///
/// The workers are [`run_concurrent`] items claiming indices from a
/// shared atomic cursor; result ordering never depends on the worker
/// count, so output built from the returned `Vec` is byte-identical for
/// any `jobs` value as long as `f` itself is deterministic per index.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` (a panicking item fails
/// the whole fan-out rather than silently dropping a slot).
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_jobs(jobs).min(count);
    let next = AtomicUsize::new(0);
    let claimed = run_concurrent(0..workers, |_| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return mine;
            }
            mine.push((i, f(i)));
        }
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, t) in claimed.into_iter().flatten() {
        slots[i] = Some(t);
    }
    slots.into_iter().map(|t| t.expect("the cursor hands out every index once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        // Uneven per-item cost: later items finish first on any pool, but
        // the output order must still be the input order.
        let out = run_indexed(4, 32, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = run_indexed(1, 100, |i| i as u64 * i as u64 % 97);
        let par = run_indexed(8, 100, |i| i as u64 * i as u64 % 97);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_count_is_empty() {
        let out: Vec<u32> = run_indexed(4, 0, |_| unreachable!("no items to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_resolves_to_hardware_threads() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
        let out = run_indexed(0, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = run_indexed(2, 8, |i| {
            assert!(i != 5, "boom");
            i
        });
    }

    #[test]
    fn resolve_jobs_for_caps_at_item_count() {
        // `0` resolves to hardware threads but never exceeds the items.
        assert_eq!(resolve_jobs_for(0, 2), resolve_jobs(0).min(2));
        assert_eq!(resolve_jobs_for(16, 3), 3);
        assert_eq!(resolve_jobs_for(2, 100), 2);
        // Degenerate inputs still give a usable worker count.
        assert_eq!(resolve_jobs_for(0, 0), 1);
        assert_eq!(resolve_jobs_for(4, 1), 1);
    }

    #[test]
    fn run_concurrent_runs_every_item_at_once() {
        // Every item waits until all of them have arrived, so the call
        // returns only if all the items run at the same time.
        let barrier = std::sync::Barrier::new(5);
        let out = run_concurrent(0..5, |i| {
            barrier.wait();
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn run_concurrent_returns_results_in_item_order() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        // Item i waits until item i + 1 has returned and so dropped its
        // sender: the items finish last to first, and the results still
        // come back first to last. The last item's sender is dropped here.
        let (mut txs, rxs): (Vec<Sender<()>>, Vec<Receiver<()>>) =
            (0..4).map(|_| channel()).unzip();
        txs.pop();
        let releases = std::iter::once(None).chain(txs.into_iter().map(Some));
        let out =
            run_concurrent(rxs.into_iter().zip(releases).enumerate(), |(i, (wait, _release))| {
                let _ = wait.recv();
                i * i
            });
        assert_eq!(out, vec![0, 1, 4, 9]);
        // One item runs inline on the caller; none runs nothing.
        let caller = std::thread::current().id();
        assert_eq!(run_concurrent([()], |()| std::thread::current().id()), vec![caller]);
        let none: Vec<()> = run_concurrent(Vec::<u8>::new(), |_| unreachable!("no items"));
        assert!(none.is_empty());
    }

    #[test]
    fn run_concurrent_rethrows_the_lowest_indexed_panic() {
        use std::sync::Mutex;
        // Item 3 panics first; item 1 panics only once item 3's unwind
        // has dropped the sender. The caller still gets item 1's payload.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(Some(tx)), Mutex::new(rx));
        let payload = std::panic::catch_unwind(|| {
            run_concurrent(0..4, |i| match i {
                1 => {
                    let _ = rx.lock().unwrap().recv();
                    panic!("item 1");
                }
                3 => {
                    let _sender = tx.lock().unwrap().take();
                    panic!("item 3");
                }
                _ => {}
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 1"));
    }
}
