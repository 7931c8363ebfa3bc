//! # commchar-pool
//!
//! The one work-claiming fan-out primitive used everywhere the workspace
//! parallelizes independent index-addressed work: suite cells
//! (`commchar-core::suite`), packed-trace block decode
//! (`commchar-tracestore`), and per-source distribution fitting
//! (`commchar-core::characterize`).
//!
//! The scheme is deliberately tiny — scoped threads, no dependencies, no
//! unsafe:
//!
//! - workers claim indices `0..count` from a shared atomic cursor
//!   (whichever worker is free takes the next item — cheap work stealing
//!   that tolerates wildly uneven item costs);
//! - each result is written to its input-indexed slot, so the returned
//!   `Vec` is in input order **regardless of worker count or completion
//!   order** — callers get determinism for free;
//! - `jobs <= 1` (or a single item) short-circuits to a plain sequential
//!   loop on the calling thread, so the sequential path is exactly the
//!   parallel path minus threads.
//!
//! # Example
//!
//! ```
//! let squares = commchar_pool::run_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// Runs `f(0), f(1), …, f(count - 1)` across at most `jobs` scoped worker
/// threads (`0` = one per hardware thread) and returns the results in
/// index order.
///
/// Work distribution is a shared atomic cursor; result ordering never
/// depends on the worker count, so output built from the returned `Vec`
/// is byte-identical for any `jobs` value as long as `f` itself is
/// deterministic per index.
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
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = f(i);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload surfaces verbatim
        // (the scope's implicit join would replace it with its own
        // generic message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("scope joined, so every slot is filled")
        })
        .collect()
}

/// A dispatched unit of work: boxed so a [`Team`]'s long-lived workers
/// can run arbitrary closures without borrowing from the caller's stack.
pub type Job = Box<dyn FnOnce() + Send>;

struct TeamState {
    /// Monotonic dispatch counter; bumping it wakes workers.
    epoch: u64,
    /// One slot per worker, filled at dispatch, taken by the worker.
    jobs: Vec<Option<Job>>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// First panic payload captured this epoch, rethrown by [`Team::run`].
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct TeamShared {
    state: Mutex<TeamState>,
    /// Signaled when a new epoch's jobs are posted (or on shutdown).
    work_ready: Condvar,
    /// Signaled by the last worker to finish an epoch.
    work_done: Condvar,
}

/// A long-lived worker team with barrier rendezvous, for callers that
/// dispatch the *same* set of workers many times in a row (e.g. one
/// simulation shard per worker, re-dispatched per drain) and cannot
/// afford a thread spawn per round.
///
/// Unlike [`run_indexed`] — which is fork-join and claims indices from a
/// cursor — a `Team` assigns exactly one [`Job`] per worker per
/// [`run`](Team::run) call and blocks the caller until every worker has
/// finished. Jobs are `'static` closures; share state with the caller
/// through `Arc`s captured at dispatch time.
///
/// A panic inside any job is caught on the worker (keeping the
/// rendezvous alive so sibling workers and the team itself stay usable)
/// and rethrown verbatim from `run` on the calling thread.
pub struct Team {
    shared: Arc<TeamShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Team {
    /// Spawns a team of exactly `workers.max(1)` threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(TeamShared {
            state: Mutex::new(TeamState {
                epoch: 0,
                jobs: (0..workers).map(|_| None).collect(),
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker(i, &shared))
            })
            .collect();
        Team { shared, handles }
    }

    /// Number of worker threads in the team.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    fn worker(index: usize, shared: &TeamShared) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                while !state.shutdown && state.epoch == seen {
                    state = shared.work_ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                if state.shutdown {
                    return;
                }
                seen = state.epoch;
                state.jobs[index].take()
            };
            let panicked =
                job.and_then(|job| std::panic::catch_unwind(AssertUnwindSafe(job)).err());
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(payload) = panicked {
                state.panic.get_or_insert(payload);
            }
            state.remaining -= 1;
            if state.remaining == 0 {
                shared.work_done.notify_all();
            }
        }
    }

    /// Dispatches one job per worker and blocks until all have finished.
    ///
    /// Fewer jobs than workers is allowed (the surplus workers just
    /// rendezvous); more jobs than workers is a caller bug and panics.
    ///
    /// # Panics
    ///
    /// Rethrows the first panic captured from any job, after the
    /// barrier — the team itself remains usable afterwards.
    pub fn run(&self, jobs: Vec<Job>) {
        let workers = self.workers();
        assert!(
            jobs.len() <= workers,
            "dispatched {} jobs to a team of {} workers",
            jobs.len(),
            workers
        );
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(state.remaining, 0, "run() while an epoch is in flight");
        let mut it = jobs.into_iter();
        for slot in state.jobs.iter_mut() {
            *slot = it.next();
        }
        state.epoch += 1;
        state.remaining = workers;
        self.shared.work_ready.notify_all();
        while state.remaining > 0 {
            state = self.shared.work_done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team").field("workers", &self.workers()).finish()
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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
    fn team_runs_jobs_across_epochs() {
        use std::sync::atomic::AtomicU64;
        let team = Team::new(3);
        let total = Arc::new(AtomicU64::new(0));
        for round in 0..5u64 {
            let jobs: Vec<Job> = (0..3u64)
                .map(|i| {
                    let total = Arc::clone(&total);
                    Box::new(move || {
                        total.fetch_add(round * 10 + i, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            team.run(jobs);
        }
        // sum over rounds of (30*round + 3) = 30*10 + 15
        assert_eq!(total.load(Ordering::Relaxed), 315);
    }

    #[test]
    fn team_allows_fewer_jobs_than_workers() {
        let team = Team::new(4);
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        team.run(vec![Box::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn team_survives_a_panicking_job() {
        let team = Team::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(vec![Box::new(|| panic!("job blew up"))]);
        }));
        assert!(caught.is_err());
        // The team is still usable after the rethrow.
        let ok = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&ok);
        team.run(vec![Box::new(move || {
            o.store(7, Ordering::Relaxed);
        })]);
        assert_eq!(ok.load(Ordering::Relaxed), 7);
    }
}
