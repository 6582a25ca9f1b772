//! Simulation clock types.
//!
//! The simulator uses an integer clock with one-second resolution, which is
//! the resolution of the job traces the paper evaluates on (SWF traces and
//! Cobalt logs both record seconds). Integer time keeps the event queue
//! ordering exact — no floating-point comparison pitfalls — and makes
//! simulations bit-reproducible across platforms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// One second, the base unit of [`SimDuration`].
pub const SECOND: SimDuration = SimDuration(1);
/// Sixty seconds.
pub const MINUTE: SimDuration = SimDuration(60);
/// Sixty minutes.
pub const HOUR: SimDuration = SimDuration(3_600);
/// Twenty-four hours.
pub const DAY: SimDuration = SimDuration(86_400);

/// An absolute instant on the simulation clock, in seconds since the start
/// of the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulation time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant; useful as an "infinitely far away"
    /// sentinel for reservations.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a count of whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// The number of whole seconds since the epoch.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future (callers comparing submit/start timestamps from traces may
    /// legitimately see equal instants).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Absolute distance between two instants.
    #[inline]
    pub fn abs_diff(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.abs_diff(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600)
    }

    /// Construct from whole days.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// Length in whole seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Length in fractional minutes.
    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// Scale by a non-negative factor, rounding to the nearest second.
    /// Panics in debug builds if `factor` is negative or non-finite.
    #[inline]
    pub fn scale(self, factor: f64) -> SimDuration {
        debug_assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Difference between instants; saturates at zero like
    /// [`SimTime::saturating_since`].
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    /// Renders as `DdHHhMMmSSs`, omitting leading zero components,
    /// e.g. `2d03h00m05s`, `47m12s`, `8s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        let days = total / 86_400;
        let hours = (total % 86_400) / 3_600;
        let mins = (total % 3_600) / 60;
        let secs = total % 60;
        if days > 0 {
            write!(f, "{days}d{hours:02}h{mins:02}m{secs:02}s")
        } else if hours > 0 {
            write!(f, "{hours}h{mins:02}m{secs:02}s")
        } else if mins > 0 {
            write!(f, "{mins}m{secs:02}s")
        } else {
            write!(f, "{secs}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(40);
        assert_eq!((t + d).as_secs(), 140);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(50);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = SimTime::from_secs(7);
        let b = SimTime::from_secs(19);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(b), SimDuration(12));
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_mins(20).as_secs(), 1200);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_days(30).as_secs(), 2_592_000);
        assert_eq!(MINUTE.as_secs(), 60);
        assert_eq!(HOUR.as_secs(), 3600);
        assert_eq!(DAY.as_secs(), 86_400);
        assert_eq!(SECOND.as_secs(), 1);
    }

    #[test]
    fn scaling_rounds_to_nearest_second() {
        assert_eq!(SimDuration::from_secs(10).scale(1.26).as_secs(), 13);
        assert_eq!(SimDuration::from_secs(10).scale(0.0).as_secs(), 0);
        assert_eq!(SimDuration::from_secs(3).scale(0.5).as_secs(), 2); // 1.5 rounds half away from zero
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(8).to_string(), "8s");
        assert_eq!(SimDuration::from_secs(2832).to_string(), "47m12s");
        assert_eq!(
            SimDuration::from_secs(2 * 86_400 + 3 * 3_600 + 5).to_string(),
            "2d03h00m05s"
        );
        assert_eq!(SimTime::from_secs(61).to_string(), "t+1m01s");
    }

    #[test]
    fn fractional_views() {
        assert_eq!(SimDuration::from_secs(90).as_mins_f64(), 1.5);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [MINUTE, HOUR, SECOND].into_iter().sum();
        assert_eq!(total.as_secs(), 3661);
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimTime::MAX + HOUR, SimTime::MAX);
        assert_eq!(SimDuration::MAX + HOUR, SimDuration::MAX);
    }
}
