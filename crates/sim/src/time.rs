//! Virtual simulation time.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since simulation start.
///
/// `SimTime` wraps a finite, non-negative `f64` and therefore implements
/// `Ord`: [`crate::ServerPool`] keeps its servers' next-free times in a
/// min-heap, which needs a total order.
///
/// # Example
///
/// ```
/// use ipso_sim::SimTime;
///
/// let t = SimTime::ZERO + 2.5;
/// assert_eq!(t.as_secs(), 2.5);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite — virtual time never
    /// runs backwards and a NaN clock would poison the event order.
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "simulation time must be finite and >= 0"
        );
        SimTime(secs)
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: construction guarantees finite values.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is always finite")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;

    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + 1.5 + 2.5;
        assert_eq!(t.as_secs(), 4.0);
        assert_eq!(t - SimTime::from_secs(1.0), 3.0);
        let mut u = SimTime::ZERO;
        u += 2.0;
        assert_eq!(u.as_secs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_secs(1.25).to_string(), "1.250000s");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
