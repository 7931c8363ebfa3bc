//! # commchar-des
//!
//! A small, deterministic discrete-event simulation (DES) kernel, standing in
//! for the CSIM package the original paper built its network simulator on.
//!
//! The kernel provides:
//!
//! - [`SimTime`] — integer simulated time (ticks).
//! - [`KeyedCalendar`] — an event calendar ordered by `(time, key)` for
//!   partitioned simulations, where insertion order is not stable under
//!   re-sharding; each shard's calendar doubles as its local clock.
//! - [`RunningStats`] — an online mean/variance/min/max accumulator used by
//!   the network logs.
//! - [`FixedMap`] — a `HashMap` under a fixed multiplicative hasher, for
//!   maps keyed by integers the simulation itself produces.
//!
//! # Example
//!
//! ```
//! use commchar_des::{KeyedCalendar, SimTime};
//!
//! let mut cal: KeyedCalendar<u32, &'static str> = KeyedCalendar::new();
//! cal.schedule(SimTime::from_ticks(10), 0, "b");
//! cal.schedule(SimTime::from_ticks(5), 0, "a");
//! let (t, _, ev) = cal.pop().unwrap();
//! assert_eq!((t.ticks(), ev), (5, "a"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod hash;
mod stats;
mod time;

pub use calendar::KeyedCalendar;
pub use hash::{FixedHasher, FixedMap};
pub use stats::RunningStats;
pub use time::SimTime;
