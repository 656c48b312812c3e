//! VM lifecycle: arrivals and departures.
//!
//! Enterprise fleets are not static — VMs are provisioned and retired
//! continuously, and the abstract's premise is that virtualization's easy
//! allocate/deallocate/migrate controls are what make dynamic power
//! management possible at all. This module models that churn: each VM has
//! an active window `[arrival, departure)`; outside it the VM does not
//! exist (no demand, no memory footprint).

use simcore::{RngStream, SimDuration, SimTime};

/// One VM's active window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// When the VM is provisioned (0 = present from the start).
    pub arrival: SimTime,
    /// When the VM is retired, if within the simulated horizon.
    pub departure: Option<SimTime>,
}

impl Lifetime {
    /// A VM present for the whole simulation.
    pub const PERMANENT: Lifetime = Lifetime {
        arrival: SimTime::ZERO,
        departure: None,
    };

    /// Whether the VM is active at `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        t >= self.arrival && self.departure.is_none_or(|d| t < d)
    }
}

impl Default for Lifetime {
    fn default() -> Self {
        Lifetime::PERMANENT
    }
}

/// Per-fleet lifecycle plan.
///
/// # Example
///
/// ```
/// use simcore::SimDuration;
/// use workload::LifetimePlan;
///
/// let plan = LifetimePlan::with_churn(
///     100,
///     0.3,                            // 30% of VMs are transient
///     SimDuration::from_hours(4),     // mean transient lifetime
///     SimDuration::from_hours(24),
///     7,
/// );
/// assert_eq!(plan.len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimePlan {
    lifetimes: Vec<Lifetime>,
}

impl LifetimePlan {
    /// Every VM permanent (the static-fleet default).
    pub fn all_permanent(count: usize) -> Self {
        LifetimePlan {
            lifetimes: vec![Lifetime::PERMANENT; count],
        }
    }

    /// Wraps explicit lifetimes.
    pub fn from_lifetimes(lifetimes: Vec<Lifetime>) -> Self {
        LifetimePlan { lifetimes }
    }

    /// Marks a seeded `churn_frac` of the fleet as transient: such VMs
    /// arrive uniformly over the horizon and live an exponentially
    /// distributed time (mean `mean_lifetime`, floor 10 min). The rest
    /// are permanent.
    ///
    /// # Panics
    ///
    /// Panics if `churn_frac` is outside `[0, 1]` or `mean_lifetime` is
    /// zero.
    pub fn with_churn(
        count: usize,
        churn_frac: f64,
        mean_lifetime: SimDuration,
        horizon: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&churn_frac),
            "churn fraction {churn_frac} outside [0,1]"
        );
        assert!(!mean_lifetime.is_zero(), "mean lifetime must be non-zero");
        let mut rng = RngStream::new(seed).substream(0xC0FFEE);
        let lifetimes = (0..count)
            .map(|_| {
                if !rng.chance(churn_frac) {
                    return Lifetime::PERMANENT;
                }
                let arrival = SimTime::ZERO
                    + SimDuration::from_secs_f64(rng.uniform(0.0, horizon.as_secs_f64()));
                let life = rng
                    .exponential(1.0 / mean_lifetime.as_secs_f64())
                    .max(600.0);
                Lifetime {
                    arrival,
                    departure: Some(arrival + SimDuration::from_secs_f64(life)),
                }
            })
            .collect();
        LifetimePlan { lifetimes }
    }

    /// Number of VMs covered.
    pub fn len(&self) -> usize {
        self.lifetimes.len()
    }

    /// Whether the plan covers no VMs.
    pub fn is_empty(&self) -> bool {
        self.lifetimes.is_empty()
    }

    /// The lifetimes, indexed by `VmId::index()`.
    pub fn lifetimes(&self) -> &[Lifetime] {
        &self.lifetimes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permanent_is_always_active() {
        let l = Lifetime::PERMANENT;
        assert!(l.is_active(SimTime::ZERO));
        assert!(l.is_active(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn window_bounds_are_half_open() {
        let l = Lifetime {
            arrival: SimTime::from_secs(100),
            departure: Some(SimTime::from_secs(200)),
        };
        assert!(!l.is_active(SimTime::from_secs(99)));
        assert!(l.is_active(SimTime::from_secs(100)));
        assert!(l.is_active(SimTime::from_secs(199)));
        assert!(!l.is_active(SimTime::from_secs(200)));
    }

    #[test]
    fn churn_fraction_roughly_respected() {
        let plan = LifetimePlan::with_churn(
            1000,
            0.3,
            SimDuration::from_hours(4),
            SimDuration::from_hours(24),
            9,
        );
        let transient = plan
            .lifetimes()
            .iter()
            .filter(|l| l.departure.is_some())
            .count();
        assert!((200..400).contains(&transient), "transient {transient}");
    }

    #[test]
    fn churn_is_deterministic() {
        let a = LifetimePlan::with_churn(
            50,
            0.5,
            SimDuration::from_hours(2),
            SimDuration::from_hours(12),
            3,
        );
        let b = LifetimePlan::with_churn(
            50,
            0.5,
            SimDuration::from_hours(2),
            SimDuration::from_hours(12),
            3,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn lifetimes_have_floor() {
        let plan = LifetimePlan::with_churn(
            200,
            1.0,
            SimDuration::from_secs(1), // absurdly short mean
            SimDuration::from_hours(24),
            5,
        );
        for l in plan.lifetimes() {
            let d = l.departure.expect("all transient");
            assert!(d.since(l.arrival) >= SimDuration::from_mins(10));
        }
    }

    #[test]
    fn transients_are_not_all_active_at_start() {
        let active_at_start = |plan: &LifetimePlan| {
            plan.lifetimes()
                .iter()
                .filter(|l| l.is_active(SimTime::ZERO))
                .count()
        };
        let plan = LifetimePlan::with_churn(
            300,
            0.5,
            SimDuration::from_hours(2),
            SimDuration::from_hours(24),
            11,
        );
        // Permanent VMs (~150) active at start; transients trickle in.
        assert!(active_at_start(&plan) < 300);
        assert_eq!(active_at_start(&LifetimePlan::all_permanent(10)), 10);
    }
}
