//! # commchar-pool
//!
//! The helpers every parallel stage of the workspace runs on, all on
//! `std::thread::scope` — no dependencies, no unsafe, no thread outlives
//! the call:
//!
//! - [`run_concurrent`] runs one closure per item, all at the same time,
//!   each on its own scoped thread, and returns the results in item
//!   order. It carries work whose items must progress together: the
//!   simulation shards of the sharded flit drain (`commchar-mesh`) and
//!   the sharded spasm machine (`commchar-spasm`), which rendezvous on
//!   each other's fences, and the connection workers of the
//!   characterization server (`commchar-serve`).
//! - [`run_indexed`] is the work-claiming fan-out over independent
//!   index-addressed work: suite cells (`commchar-core::suite`), whole
//!   packed-trace decode (`commchar-tracestore`), and per-source
//!   distribution fitting (`commchar-core::characterize`). Its workers
//!   are [`run_concurrent`] items that claim indices `0..count` from a
//!   shared atomic cursor (whichever worker is free takes the next item
//!   — cheap work stealing that tolerates wildly uneven item costs), so
//!   the returned `Vec` is in input order **regardless of worker count
//!   or completion order** — callers get determinism for free.
//! - [`run_ordered`] is the ordered pipeline over a stream too long to
//!   hold: the calling thread pulls items one at a time, workers that
//!   each keep their own state process them, and the results reach the
//!   calling thread in item order with at most two items per worker in
//!   flight; a worker's thread starts with the first item queued for it.
//!   It carries the out-of-core passes: `characterize --stream`'s
//!   block decode and fold (`commchar-core::analyze`) and the trace
//!   commands' JSON-lines parse and block decode
//!   (`commchar-tracestore::TraceFile`).
//!
//! All three run a single item (one worker) inline on the calling
//! thread, so the sequential path is exactly the parallel path minus
//! threads, and all rethrow a panic with its own payload.
//!
//! # Example
//!
//! ```
//! let squares = commchar_pool::run_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! let lens = commchar_pool::run_concurrent(["a", "bb", "ccc"], str::len);
//! assert_eq!(lens, vec![1, 2, 3]);
//! // Two workers, each summing what it saw; the results arrive in order.
//! let mut seen = Vec::new();
//! let sums = commchar_pool::run_ordered(
//!     vec![0u64; 2],
//!     1..=6u64,
//!     |sum, x| {
//!         *sum += x;
//!         x * 10
//!     },
//!     |y| {
//!         seen.push(y);
//!         Ok::<_, ()>(())
//!     },
//! )
//! .unwrap();
//! assert_eq!(seen, vec![10, 20, 30, 40, 50, 60]);
//! assert_eq!(sums.iter().sum::<u64>(), 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// Items in flight per [`run_ordered`] worker: enough that a worker
/// finds its next item queued while the calling thread consumes, few
/// enough that the items and results held stay a small constant.
const ITEMS_PER_WORKER: usize = 2;

/// Runs `work` over a stream of items on one worker per state in
/// `states`, and hands each result to `consume` on the calling thread,
/// in item order. Returns the workers' states, in the order given.
///
/// The calling thread pulls the items as it goes, never more than two
/// per worker ahead of the last result consumed, so
/// the items, results and reorder buffer held at any time are bounded by
/// that window whatever the stream's length. A worker takes the next
/// queued item whenever it is free and folds into its own state as it
/// likes; which worker saw which item varies from run to run, so callers
/// whose output must not vary keep order-free statistics in the states
/// and the ordered part in `consume`. One state runs everything inline on
/// the calling thread, starting no thread; otherwise a worker's thread
/// starts when an item is queued for it, so a stream of `n` items starts
/// at most `n` threads however many states it is given, and the states of
/// workers that never started come back untouched.
///
/// # Errors
///
/// `consume`'s first error, in item order. The calling thread then pulls
/// no more items, and the workers stop at the item they are on.
///
/// # Panics
///
/// Panics if `states` is empty. A panic in `work` is rethrown with its
/// own payload when its item's turn comes, unless an earlier item's
/// result stopped the run first: the panic rethrown is the first in item
/// order.
pub fn run_ordered<I, S, T, E>(
    mut states: Vec<S>,
    items: impl IntoIterator<Item = I>,
    work: impl Fn(&mut S, I) -> T + Sync,
    mut consume: impl FnMut(T) -> Result<(), E>,
) -> Result<Vec<S>, E>
where
    I: Send,
    S: Send,
    T: Send,
{
    assert!(!states.is_empty(), "run_ordered needs at least one worker state");
    let mut items = items.into_iter();
    if let [state] = &mut states[..] {
        for item in items {
            consume(work(state, item))?;
        }
        return Ok(states);
    }
    let window = ITEMS_PER_WORKER * states.len();
    let pipe = Pipe {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            results: Vec::new(),
            closed: false,
            idle_workers: 0,
            caller_waits: false,
        }),
        to_workers: Condvar::new(),
        to_caller: Condvar::new(),
    };
    let (pipe, work) = (&pipe, &work);
    std::thread::scope(|scope| {
        let start = |mut state| {
            scope.spawn(move || {
                while let Some((i, item)) = pipe.next_item() {
                    // A panicking item ends its worker: the state may be
                    // half updated, and the run fails at that item.
                    let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, item)));
                    let panicked = result.is_err();
                    pipe.put_result(i, result);
                    if panicked {
                        break;
                    }
                }
                state
            })
        };
        let (mut unstarted, mut workers) = (states.into_iter(), Vec::new());
        // Closes the queue however this thread leaves the loop, an
        // unwinding `items` or `consume` included, so the workers end
        // before the scope joins them.
        let close = CloseOnDrop(pipe);
        // `pending[k]` holds the result of item `next + k` once it is in.
        let (mut sent, mut next) = (0, 0);
        let mut pending = VecDeque::new();
        let outcome = 'run: loop {
            while sent - next < window {
                let Some(item) = items.next() else { break };
                pipe.put_item(sent, item);
                sent += 1;
                // A worker starts with the first item queued for it, so
                // a stream shorter than `states` starts a thread per item.
                workers.extend(unstarted.next().map(start));
            }
            if next == sent {
                break Ok(());
            }
            // Every item below the first that panicked was taken by a
            // worker that answers it, so the next result always comes.
            for (i, result) in pipe.wait_results() {
                let k = i - next;
                if pending.len() <= k {
                    pending.resize_with(k + 1, || None);
                }
                pending[k] = Some(result);
            }
            while let Some(Some(result)) = pending.front_mut().map(Option::take) {
                pending.pop_front();
                next += 1;
                match result {
                    Ok(t) => {
                        if let Err(e) = consume(t) {
                            break 'run Err(Ok(e));
                        }
                    }
                    Err(payload) => break 'run Err(Err(payload)),
                }
            }
        };
        drop(close);
        let mut states: Vec<S> = workers
            .into_iter()
            .map(|h| h.join().expect("a worker catches its items' panics"))
            .collect();
        states.extend(unstarted);
        match outcome {
            Ok(()) => Ok(states),
            Err(Ok(e)) => Err(e),
            Err(Err(payload)) => resume_unwind(payload),
        }
    })
}

/// [`run_ordered`]'s queues: items from the calling thread to the
/// workers, results back.
struct Pipe<I, T> {
    queue: Mutex<Queue<I, T>>,
    /// An item is queued, or the queue is closed.
    to_workers: Condvar,
    /// A result is in.
    to_caller: Condvar,
}

struct Queue<I, T> {
    items: VecDeque<(usize, I)>,
    results: Vec<(usize, std::thread::Result<T>)>,
    /// The run is over: workers take no more items.
    closed: bool,
    /// Workers waiting for an item, and whether the calling thread waits
    /// for a result: a signal nobody waits for is a wasted wake-up.
    idle_workers: usize,
    caller_waits: bool,
}

impl<I, T> Pipe<I, T> {
    fn lock(&self) -> MutexGuard<'_, Queue<I, T>> {
        // No thread panics holding the lock (no caller code runs under
        // it), and each update leaves the queue whole.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // The signals go out once the lock is released, so the woken thread
    // does not wake only to wait for it.
    fn put_item(&self, i: usize, item: I) {
        let mut queue = self.lock();
        queue.items.push_back((i, item));
        let idle = queue.idle_workers > 0;
        drop(queue);
        if idle {
            self.to_workers.notify_one();
        }
    }

    /// A worker's next item, or `None` once the queue is closed.
    fn next_item(&self) -> Option<(usize, I)> {
        let mut queue = self.lock();
        loop {
            if queue.closed {
                return None;
            }
            if let Some(item) = queue.items.pop_front() {
                return Some(item);
            }
            queue.idle_workers += 1;
            queue = self.to_workers.wait(queue).unwrap_or_else(PoisonError::into_inner);
            queue.idle_workers -= 1;
        }
    }

    fn put_result(&self, i: usize, result: std::thread::Result<T>) {
        let mut queue = self.lock();
        queue.results.push((i, result));
        let waits = queue.caller_waits;
        drop(queue);
        if waits {
            self.to_caller.notify_one();
        }
    }

    /// The results that are in, waiting for at least one.
    fn wait_results(&self) -> Vec<(usize, std::thread::Result<T>)> {
        let mut queue = self.lock();
        while queue.results.is_empty() {
            queue.caller_waits = true;
            queue = self.to_caller.wait(queue).unwrap_or_else(PoisonError::into_inner);
            queue.caller_waits = false;
        }
        std::mem::take(&mut queue.results)
    }
}

/// Closes a [`Pipe`] when dropped and wakes every worker to see it.
struct CloseOnDrop<'a, I, T>(&'a Pipe<I, T>);

impl<I, T> Drop for CloseOnDrop<'_, I, T> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.to_workers.notify_all();
    }
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

    #[test]
    fn run_ordered_consumes_results_in_item_order() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        // Item i waits until item i + 1 has been worked on and so dropped
        // its sender: with three workers and a window of six, items 0..3
        // finish last to first, and `consume` still sees them first to
        // last. The workers' states come back in the order given.
        let (mut txs, rxs): (Vec<Sender<()>>, Vec<Receiver<()>>) =
            (0..3).map(|_| channel()).unzip();
        txs.remove(0);
        let links: Vec<_> = rxs
            .into_iter()
            .map(Some)
            .zip(txs.into_iter().map(Some).chain([None]))
            .chain((3..40).map(|_| (None, None)))
            .collect();
        let mut seen = Vec::new();
        let states = run_ordered(
            vec![(0, 0u64), (1, 0), (2, 0)],
            links.into_iter().enumerate(),
            |(_, sum), (i, (wait, release))| {
                if let Some(wait) = wait {
                    let _ = wait.recv();
                }
                drop(release);
                *sum += i as u64;
                i * i
            },
            |sq| {
                seen.push(sq);
                Ok::<_, ()>(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..40).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(states.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(states.iter().map(|s| s.1).sum::<u64>(), (0..40).sum());
    }

    #[test]
    fn run_ordered_keeps_at_most_the_window_in_flight() {
        use std::cell::Cell;
        for workers in [1, 2, 3] {
            // Items pulled but not yet consumed, as the calling thread
            // sees them: never more than two per worker (one inline).
            let (pulled, consumed, most) = (Cell::new(0), Cell::new(0), Cell::new(0));
            let items = (0..200).inspect(|_| {
                pulled.set(pulled.get() + 1);
                most.set(most.get().max(pulled.get() - consumed.get()));
            });
            run_ordered(
                vec![(); workers],
                items,
                |(), i| i,
                |_| {
                    consumed.set(consumed.get() + 1);
                    Ok::<_, ()>(())
                },
            )
            .unwrap();
            assert_eq!(consumed.get(), 200);
            let window = if workers == 1 { 1 } else { ITEMS_PER_WORKER * workers };
            assert!(most.get() <= window, "{workers} workers: {} in flight", most.get());
        }
    }

    #[test]
    fn run_ordered_stops_at_the_first_consumer_error() {
        use std::cell::Cell;
        use std::sync::atomic::AtomicBool;
        for workers in [1, 2, 4] {
            // Items after 5 wait until `consume` has failed on item 5:
            // the workers are on one such item each when the run stops.
            let (pulled, failed) = (Cell::new(0), AtomicBool::new(false));
            let (worked, worked_late) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let items = (0..10_000).inspect(|_| pulled.set(pulled.get() + 1));
            let err = run_ordered(
                vec![(); workers],
                items,
                |(), i| {
                    worked.fetch_add(1, Ordering::SeqCst);
                    if i > 5 {
                        while !failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        worked_late.fetch_add(1, Ordering::SeqCst);
                    }
                    i
                },
                |i| {
                    if i == 5 || i == 7 {
                        failed.store(true, Ordering::SeqCst);
                        return Err(i);
                    }
                    Ok(())
                },
            )
            .unwrap_err();
            assert_eq!(err, 5, "the first error in item order wins");
            // No item is pulled once the error is in, and the queued items
            // are dropped: only the items the workers were on finish.
            let window = ITEMS_PER_WORKER * workers;
            assert!(pulled.get() <= 6 + window, "{workers} workers pulled {}", pulled.get());
            assert!(worked.load(Ordering::SeqCst) <= pulled.get());
            let late = worked_late.load(Ordering::SeqCst);
            assert!(late <= workers, "{workers} workers finished {late} items after the error");
        }
    }

    #[test]
    fn run_ordered_rethrows_the_first_panic_in_item_order() {
        // Item 3 panics first; item 1 panics only once item 3's unwind
        // has dropped the sender. The caller gets item 1's payload.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(Some(tx)), Mutex::new(rx));
        let payload = std::panic::catch_unwind(|| {
            run_ordered(
                vec![(); 3],
                0..8,
                |(), i| match i {
                    1 => {
                        let _ = rx.lock().unwrap().recv();
                        panic!("item 1");
                    }
                    3 => {
                        let _sender = tx.lock().unwrap().take();
                        panic!("item 3");
                    }
                    _ => i,
                },
                |_| Ok::<_, ()>(()),
            )
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 1"));
        // A consumer error before the panicking item wins over it.
        let first = run_ordered(
            vec![(); 2],
            0..8,
            |(), i| {
                assert!(i != 4, "item 4");
                i
            },
            |i| if i == 2 { Err(i) } else { Ok(()) },
        );
        assert_eq!(first.unwrap_err(), 2);
    }

    #[test]
    fn run_ordered_with_one_worker_starts_no_thread() {
        let caller = std::thread::current().id();
        let mut threads = Vec::new();
        let states = run_ordered(
            vec![0usize],
            0..5,
            |n, _| {
                *n += 1;
                std::thread::current().id()
            },
            |id| {
                threads.push(id);
                Ok::<_, ()>(())
            },
        )
        .unwrap();
        assert_eq!(states, vec![5]);
        assert_eq!(threads, vec![caller; 5]);
        // No items: the states come back untouched.
        let none =
            run_ordered(vec![7, 8], std::iter::empty::<u8>(), |_, _| (), |()| Ok::<_, ()>(()));
        assert_eq!(none.unwrap(), vec![7, 8]);
    }
}
