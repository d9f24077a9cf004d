//! Simulation unit types.
//!
//! Thin newtypes keep seconds, bytes-per-second and watts from being mixed
//! up in the cost models. All arithmetic is `f64`; model outputs are
//! analytic, not sampled, so floating point is appropriate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Secs(f64);

impl Secs {
    /// Zero duration.
    pub const ZERO: Secs = Secs(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input (model bugs, not data).
    #[must_use]
    pub fn new(seconds: f64) -> Self {
        assert!(seconds.is_finite() && seconds >= 0.0, "invalid duration {seconds}");
        Secs(seconds)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Secs::new(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Secs::new(us / 1e6)
    }

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Secs::new(ns / 1e9)
    }

    /// Seconds as `f64`.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Milliseconds as `f64`.
    #[must_use]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: Secs) -> Secs {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Secs {
    type Output = Secs;
    fn add(self, rhs: Secs) -> Secs {
        Secs(self.0 + rhs.0)
    }
}

impl AddAssign for Secs {
    fn add_assign(&mut self, rhs: Secs) {
        self.0 += rhs.0;
    }
}

impl Sub for Secs {
    type Output = Secs;
    fn sub(self, rhs: Secs) -> Secs {
        Secs::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Secs {
    type Output = Secs;
    fn mul(self, rhs: f64) -> Secs {
        Secs::new(self.0 * rhs)
    }
}

impl Div<f64> for Secs {
    type Output = Secs;
    fn div(self, rhs: f64) -> Secs {
        Secs::new(self.0 / rhs)
    }
}

impl Div<Secs> for Secs {
    type Output = f64;
    fn div(self, rhs: Secs) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Secs {
    fn sum<I: Iterator<Item = Secs>>(iter: I) -> Secs {
        iter.fold(Secs::ZERO, Add::add)
    }
}

impl fmt::Display for Secs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1} us", self.0 * 1e6)
        }
    }
}

/// Bandwidth in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BytesPerSec(f64);

impl BytesPerSec {
    /// Creates a bandwidth.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite input.
    #[must_use]
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid bandwidth {bytes_per_sec}"
        );
        BytesPerSec(bytes_per_sec)
    }

    /// Convenience constructor in GB/s (decimal).
    #[must_use]
    pub fn gb(gb_per_sec: f64) -> Self {
        BytesPerSec::new(gb_per_sec * 1e9)
    }

    /// Convenience constructor in MB/s (decimal).
    #[must_use]
    pub fn mb(mb_per_sec: f64) -> Self {
        BytesPerSec::new(mb_per_sec * 1e6)
    }

    /// Convenience constructor from gigabits per second (network links).
    #[must_use]
    pub fn gbit(gbit_per_sec: f64) -> Self {
        BytesPerSec::new(gbit_per_sec * 1e9 / 8.0)
    }

    /// Raw bytes/second.
    #[must_use]
    pub fn raw(self) -> f64 {
        self.0
    }

    /// Time to move `bytes` at this bandwidth.
    #[must_use]
    pub fn time_for(self, bytes: u64) -> Secs {
        Secs::new(bytes as f64 / self.0)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.0 / 1e9)
    }
}

/// Power draw in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Creates a power value.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    #[must_use]
    pub fn new(watts: f64) -> Self {
        assert!(watts.is_finite() && watts >= 0.0, "invalid power {watts}");
        Watts(watts)
    }

    /// Raw watts.
    #[must_use]
    pub fn raw(self) -> f64 {
        self.0
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts::new(self.0 * rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::default(), Add::add)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} W", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_constructors_agree() {
        assert_eq!(Secs::from_millis(1500.0), Secs::new(1.5));
        assert_eq!(Secs::from_micros(2000.0), Secs::from_millis(2.0));
        assert_eq!(Secs::from_nanos(1e9), Secs::new(1.0));
    }

    #[test]
    fn secs_arithmetic() {
        let a = Secs::new(1.0) + Secs::new(0.5);
        assert_eq!(a.seconds(), 1.5);
        assert_eq!((a - Secs::new(0.5)).seconds(), 1.0);
        assert_eq!((a * 2.0).seconds(), 3.0);
        assert_eq!((a / 3.0).seconds(), 0.5);
        assert!((a / Secs::new(0.75) - 2.0).abs() < 1e-12);
        assert_eq!(Secs::new(1.0).max(Secs::new(2.0)), Secs::new(2.0));
    }

    #[test]
    fn secs_sum_and_display() {
        let total: Secs = [Secs::new(0.1), Secs::new(0.2)].into_iter().sum();
        assert!((total.seconds() - 0.3).abs() < 1e-12);
        assert_eq!(format!("{}", Secs::new(1.5)), "1.500 s");
        assert_eq!(format!("{}", Secs::from_millis(2.0)), "2.000 ms");
        assert_eq!(format!("{}", Secs::from_micros(12.0)), "12.0 us");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = Secs::new(-1.0);
    }

    #[test]
    fn bandwidth_transfer_times() {
        let net = BytesPerSec::gbit(10.0);
        assert!((net.raw() - 1.25e9).abs() < 1.0);
        let t = net.time_for(1_250_000_000);
        assert!((t.seconds() - 1.0).abs() < 1e-9);
        assert_eq!(BytesPerSec::gb(2.0).raw(), 2e9);
        assert_eq!(BytesPerSec::mb(500.0).raw(), 5e8);
    }

    #[test]
    fn watts_energy() {
        let p = Watts::new(25.0);
        assert_eq!((p + Watts::new(5.0)).raw(), 30.0);
        assert_eq!((p * 2.0).raw(), 50.0);
        let total: Watts = [Watts::new(1.0), Watts::new(2.0)].into_iter().sum();
        assert_eq!(total.raw(), 3.0);
    }
}
