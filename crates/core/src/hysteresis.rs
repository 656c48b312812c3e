//! Anti-flapping timers for power-state decisions.
//!
//! With traditional S5-class states, a mispredicted power-down costs
//! minutes of unavailability plus a boot-energy spike, so managers guard
//! power-downs with long minimum-residency windows — and lose agility.
//! Low-latency states shrink the penalty, letting the window shrink too.
//! Experiment F11 sweeps this window under both regimes.

use cluster::HostId;
use simcore::{SimDuration, SimTime};

/// Per-host minimum-residency gate.
///
/// * A host may be *drained for power-down* only after `min_on_time` in
///   service since its last power-up (or since the start, if never
///   cycled).
/// * A parked host may be woken for *non-urgent* reasons (spare-pool
///   top-up) only after `min_off_time` parked; urgent capacity wakes
///   always pass.
///
/// # Example
///
/// ```
/// use agile_core::HysteresisGate;
/// use cluster::HostId;
/// use simcore::{SimDuration, SimTime};
///
/// let mut gate = HysteresisGate::new(SimDuration::from_mins(10), SimDuration::from_mins(5), 4);
/// let h = HostId(0);
/// assert!(gate.may_power_down(h, SimTime::ZERO)); // never cycled
/// gate.record_power_up(h, SimTime::from_secs(60));
/// assert!(!gate.may_power_down(h, SimTime::from_secs(120)));
/// assert!(gate.may_power_down(h, SimTime::from_secs(60 + 600)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HysteresisGate {
    min_on_time: SimDuration,
    min_off_time: SimDuration,
    last_up: Vec<Option<SimTime>>,
    last_down: Vec<Option<SimTime>>,
}

impl HysteresisGate {
    /// Creates a gate for `num_hosts` hosts.
    pub fn new(min_on_time: SimDuration, min_off_time: SimDuration, num_hosts: usize) -> Self {
        HysteresisGate {
            min_on_time,
            min_off_time,
            last_up: vec![None; num_hosts],
            last_down: vec![None; num_hosts],
        }
    }

    /// Whether `host` has been in service long enough to be drained.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn may_power_down(&self, host: HostId, now: SimTime) -> bool {
        match self.last_up[host.index()] {
            None => true,
            Some(up) => now.saturating_since(up) >= self.min_on_time,
        }
    }

    /// Whether `host` has been parked long enough for a non-urgent wake.
    /// Urgent (capacity-driven) wakes should bypass this check.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn may_power_up_nonurgent(&self, host: HostId, now: SimTime) -> bool {
        match self.last_down[host.index()] {
            None => true,
            Some(down) => now.saturating_since(down) >= self.min_off_time,
        }
    }

    /// Records that `host` was brought into service at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn record_power_up(&mut self, host: HostId, now: SimTime) {
        self.last_up[host.index()] = Some(now);
    }

    /// Records that `host` was powered down at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn record_power_down(&mut self, host: HostId, now: SimTime) {
        self.last_down[host.index()] = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> HysteresisGate {
        HysteresisGate::new(SimDuration::from_mins(10), SimDuration::from_mins(5), 2)
    }

    #[test]
    fn fresh_hosts_pass_both_gates() {
        let g = gate();
        assert!(g.may_power_down(HostId(0), SimTime::ZERO));
        assert!(g.may_power_up_nonurgent(HostId(1), SimTime::ZERO));
    }

    #[test]
    fn power_down_blocked_within_min_on() {
        let mut g = gate();
        g.record_power_up(HostId(0), SimTime::from_secs(100));
        assert!(!g.may_power_down(HostId(0), SimTime::from_secs(100 + 599)));
        assert!(g.may_power_down(HostId(0), SimTime::from_secs(100 + 600)));
        // Other host unaffected.
        assert!(g.may_power_down(HostId(1), SimTime::from_secs(100)));
    }

    #[test]
    fn nonurgent_wake_blocked_within_min_off() {
        let mut g = gate();
        g.record_power_down(HostId(1), SimTime::from_secs(0));
        assert!(!g.may_power_up_nonurgent(HostId(1), SimTime::from_secs(299)));
        assert!(g.may_power_up_nonurgent(HostId(1), SimTime::from_secs(300)));
    }
}
