//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span (or instant on the monotone clock) of simulated time, in
/// nanoseconds. `f64` keeps arithmetic simple; at nanosecond granularity it
/// stays exact far beyond any experiment length in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// From nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> SimTime {
        debug_assert!(
            ns >= 0.0 && ns.is_finite(),
            "negative or non-finite time: {ns}"
        );
        SimTime(ns)
    }

    /// From microseconds.
    #[inline]
    pub fn from_us(us: f64) -> SimTime {
        SimTime::from_ns(us * 1e3)
    }

    /// From milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> SimTime {
        SimTime::from_ns(ms * 1e6)
    }

    /// As nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0
    }

    /// As milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 / 1e6
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Ratio of two spans (`self / other`), for normalized-time figures.
    #[inline]
    pub fn ratio(self, other: SimTime) -> f64 {
        self.0 / other.0
    }

    /// Difference clamped at zero. Unlike `Sub`, makes no monotonicity
    /// claim — for differencing snapshot pairs whose order the caller does
    /// not control.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for SimTime {
    /// Pretty-prints with an auto-selected unit (`ns`, `µs`, `ms`, `s`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1e3 {
            write!(f, "{ns:.0}ns")
        } else if ns < 1e6 {
            write!(f, "{:.2}µs", ns / 1e3)
        } else if ns < 1e9 {
            write!(f, "{:.3}ms", ns / 1e6)
        } else {
            write!(f, "{:.4}s", ns / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_conversions() {
        let t = SimTime::from_us(2.0) + SimTime::from_ns(500.0);
        assert!((t.as_ns() - 2500.0).abs() < 1e-9);
        assert!((t.as_ms() - 0.0025).abs() < 1e-12);
        let d = SimTime::from_ms(3.0) - SimTime::from_ms(1.0);
        assert!((d.as_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimTime::from_ns(12.0).to_string(), "12ns");
        assert_eq!(SimTime::from_us(3.5).to_string(), "3.50µs");
        assert_eq!(SimTime::from_ms(7.25).to_string(), "7.250ms");
        assert_eq!(SimTime::from_ns(2.5e9).to_string(), "2.5000s");
    }

    #[test]
    fn sum_and_ratio() {
        let total: SimTime = [SimTime::from_ns(1.0), SimTime::from_ns(2.0)]
            .into_iter()
            .sum();
        assert_eq!(total.as_ns(), 3.0);
        assert!((SimTime::from_us(2.0).ratio(SimTime::from_us(1.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_picks_larger() {
        assert_eq!(
            SimTime::from_ns(5.0).max(SimTime::from_ns(3.0)).as_ns(),
            5.0
        );
    }
}
