//! `run_ordered` starts a worker's thread only when an item is queued for
//! it. The check counts the process's threads, so it has this test binary
//! to itself: no other test's threads come and go while it counts.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};

/// The process's thread count, as Linux reports it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads line");
    line.trim().parse().expect("a thread count")
}

/// Three items over 64 worker states start at most three threads, and the
/// other states come back untouched, in the order given.
#[test]
fn a_short_stream_starts_a_thread_per_item_at_most() {
    let before = threads();
    let most = AtomicUsize::new(0);
    let states = commchar_pool::run_ordered(
        (0..64).map(|s| (s, 0)).collect(),
        0..3,
        |(_, seen), _| {
            *seen += 1;
            most.fetch_max(threads(), Ordering::SeqCst);
        },
        |()| Ok::<_, ()>(()),
    )
    .unwrap();
    let most = most.into_inner();
    assert!(most <= before + 3, "{before} threads before, {most} while running 3 items");
    assert_eq!(states.iter().map(|s| s.0).collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
    assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 3);
    assert!(states[3..].iter().all(|s| s.1 == 0));
}
