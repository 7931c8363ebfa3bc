//! Simulated time.

use std::fmt;

/// An absolute instant of simulated time, in integer *ticks*.
///
/// The interpretation of a tick is chosen by the layer above: the
/// execution-driven simulator uses processor cycles, the trace-driven
/// replayer uses sub-microsecond ticks. Integer time keeps simulations
/// exactly deterministic and free of floating-point drift.
///
/// # Example
///
/// ```
/// use commchar_des::SimTime;
/// let t = SimTime::from_ticks(42);
/// assert_eq!(t.ticks(), 42);
/// assert_eq!(t.max(SimTime::ZERO), t);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ticks` ticks after the origin.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the number of ticks since the origin.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_ticks(7)), "7");
        assert_eq!(format!("{:?}", SimTime::from_ticks(7)), "t7");
    }
}
