//! Two-dimensional resource vectors (CPU and memory).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A CPU/memory resource vector.
///
/// CPU is measured in cores (fractional allowed — a VM demanding 0.5 cores
/// is fine); memory in gigabytes. Used both for capacities (hosts) and
/// footprints (VMs).
///
/// # Example
///
/// ```
/// use cluster::Resources;
///
/// let host = Resources::new(16.0, 64.0);
/// let vm = Resources::new(2.0, 8.0);
/// assert_eq!(host - vm, Resources::new(14.0, 56.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resources {
    /// CPU capacity or demand, in cores.
    pub cpu_cores: f64,
    /// Memory capacity or footprint, in gigabytes.
    pub mem_gb: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        cpu_cores: 0.0,
        mem_gb: 0.0,
    };

    /// Creates a resource vector.
    ///
    /// # Panics
    ///
    /// Panics if either component is negative or not finite.
    pub fn new(cpu_cores: f64, mem_gb: f64) -> Self {
        assert!(
            cpu_cores.is_finite() && cpu_cores >= 0.0,
            "bad cpu {cpu_cores}"
        );
        assert!(mem_gb.is_finite() && mem_gb >= 0.0, "bad mem {mem_gb}");
        Resources { cpu_cores, mem_gb }
    }

    /// Componentwise saturating subtraction (never goes negative).
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu_cores: (self.cpu_cores - other.cpu_cores).max(0.0),
            mem_gb: (self.mem_gb - other.mem_gb).max(0.0),
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu_cores: self.cpu_cores + rhs.cpu_cores,
            mem_gb: self.mem_gb + rhs.mem_gb,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        self.cpu_cores += rhs.cpu_cores;
        self.mem_gb += rhs.mem_gb;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            cpu_cores: self.cpu_cores - rhs.cpu_cores,
            mem_gb: self.mem_gb - rhs.mem_gb,
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        self.cpu_cores -= rhs.cpu_cores;
        self.mem_gb -= rhs.mem_gb;
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl Default for Resources {
    fn default() -> Self {
        Resources::ZERO
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} cores / {:.1} GB", self.cpu_cores, self.mem_gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Resources::new(4.0, 16.0);
        let b = Resources::new(1.0, 4.0);
        assert_eq!(a + b, Resources::new(5.0, 20.0));
        assert_eq!(a - b, Resources::new(3.0, 12.0));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Resources::new(1.0, 1.0);
        let b = Resources::new(2.0, 0.5);
        assert_eq!(a.saturating_sub(&b), Resources::new(0.0, 0.5));
    }

    #[test]
    fn sum() {
        let a = Resources::new(2.0, 4.0);
        let total: Resources = vec![a, a, a].into_iter().sum();
        assert_eq!(total, Resources::new(6.0, 12.0));
    }

    #[test]
    #[should_panic(expected = "bad cpu")]
    fn rejects_negative() {
        Resources::new(-1.0, 0.0);
    }
}
