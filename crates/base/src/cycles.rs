//! Simulated time, measured in processor cycles.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) simulated time, in CPU clock cycles.
///
/// All of the paper's latency parameters (Table 2) are expressed in cycles
/// of the primary processor's clock; the network-interface processor is
/// clocked at the same rate.
///
/// # Example
///
/// ```
/// use tt_base::Cycles;
/// let start = Cycles::new(100);
/// let end = start + Cycles::new(29); // a local cache miss
/// assert_eq!(end - start, Cycles::new(29));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Time zero.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// `self` as a floating-point number of cycles (for ratio reporting).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Self {
        Cycles(n)
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut t = Cycles::new(5);
        t += Cycles::new(10);
        assert_eq!(t, Cycles::new(15));
        t -= Cycles::new(1);
        assert_eq!(t.raw(), 14);
    }

    #[test]
    fn sum() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(10));
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(Cycles::new(1) < Cycles::new(2));
        assert_eq!(format!("{:?}", Cycles::new(7)), "7cy");
    }
}
