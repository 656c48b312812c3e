//! Failure detection and bounded-retry recovery.
//!
//! A real management plane has to survive hosts that refuse to come back:
//! a resume that fails once is noise, a host that fails every attempt is a
//! hardware problem, and a burst of failures across the fleet means the
//! manager itself should stop making things worse. This module gives
//! [`crate::VirtManager`] that judgement:
//!
//! * **Detection** — each round, the tracker diffs every host's cumulative
//!   [`crate::HostObservation::failed_transitions`] counter against the
//!   previous round; the delta is the number of fresh failures.
//! * **Bounded retries with backoff** — after a failure the host enters an
//!   exponential backoff window (`base * 2^(consecutive-1)`, capped);
//!   the capacity planner will not pick it for a wake until the window
//!   expires. Retries are bounded by `max_retries` consecutive failures.
//! * **Health-score quarantine** — every failure halves the host's health
//!   score; clean operational rounds earn a little back. A host whose
//!   retries are exhausted or whose health drops below the floor is
//!   *quarantined*: removed from the park-candidate and wake pools for a
//!   probation window. Quarantine release is **monotone** — new failures
//!   during probation can only push the release later, never earlier.
//! * **Fleet fail-safe** — a sliding window counts failures fleet-wide;
//!   past a threshold the manager trips into a degraded mode that cancels
//!   drains and stops consolidating/parking (drifting toward `AlwaysOn`)
//!   until the window drains below half the threshold (hysteresis).
//!
//! With zero observed failures every query returns its permissive default,
//! so a fault-free run plans byte-for-byte the same actions as a build
//! without this module.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

use crate::{ClusterObservation, ConfigError};

/// How long a quarantined host stays out of the wake and park pools.
const PROBATION: SimDuration = SimDuration::from_mins(60);

/// Knobs of the failure-recovery policy.
///
/// # Example
///
/// ```
/// use agile_core::RecoveryConfig;
/// use simcore::SimDuration;
///
/// let cfg = RecoveryConfig::new()
///     .with_max_retries(2)
///     .with_backoff(SimDuration::from_mins(1), SimDuration::from_mins(16));
/// assert_eq!(cfg.try_validate(), Ok(()));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    max_retries: u32,
    backoff_base: SimDuration,
    backoff_cap: SimDuration,
    health_floor: f64,
    health_recovery: f64,
    failsafe_window: SimDuration,
    failsafe_trip: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::new()
    }
}

impl RecoveryConfig {
    /// The default operating point: three strikes, 2–32 min backoff,
    /// one-hour probation, fleet fail-safe at 8 failures in 30 min.
    pub fn new() -> Self {
        RecoveryConfig {
            max_retries: 3,
            backoff_base: SimDuration::from_mins(2),
            backoff_cap: SimDuration::from_mins(32),
            health_floor: 0.25,
            health_recovery: 0.05,
            failsafe_window: SimDuration::from_mins(30),
            failsafe_trip: 8,
        }
    }

    /// Sets the consecutive-failure count that quarantines a host (at
    /// least one).
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the exponential-backoff base (non-zero) and cap (at least the
    /// base).
    pub fn with_backoff(mut self, base: SimDuration, cap: SimDuration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Sets the health floor below which a host is quarantined and the
    /// per-clean-round recovery increment, both in `(0, 1)`.
    pub fn with_health(mut self, floor: f64, recovery: f64) -> Self {
        self.health_floor = floor;
        self.health_recovery = recovery;
        self
    }

    /// Sets the fleet fail-safe: trip after `trip` failures inside
    /// `window`; clear when the window drains to `trip / 2`. Both must be
    /// non-zero.
    pub fn with_failsafe(mut self, window: SimDuration, trip: u32) -> Self {
        self.failsafe_window = window;
        self.failsafe_trip = trip;
        self
    }

    /// Checks every knob's range in field order, then that the backoff
    /// cap is at least its base. [`crate::ManagerConfig::try_validate`]
    /// runs this on the manager's recovery policy.
    ///
    /// # Errors
    ///
    /// The first violation: [`ConfigError::Invalid`] for a zero count or
    /// window or an inverted backoff, [`ConfigError::OutOfRange`] for a
    /// health knob outside `(0, 1)`.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let invalid = |message| Err(ConfigError::Invalid { message });
        if self.max_retries == 0 {
            return invalid("need at least one retry before quarantine");
        }
        if self.backoff_base.is_zero() {
            return invalid("backoff base must be non-zero");
        }
        for (field, value) in [
            ("health floor", self.health_floor),
            ("health recovery", self.health_recovery),
        ] {
            if !(value > 0.0 && value < 1.0) {
                return Err(ConfigError::OutOfRange {
                    field,
                    value,
                    constraint: "outside (0,1)",
                });
            }
        }
        if self.failsafe_window.is_zero() {
            return invalid("fail-safe window must be non-zero");
        }
        if self.failsafe_trip == 0 {
            return invalid("fail-safe trip threshold must be non-zero");
        }
        if self.backoff_cap < self.backoff_base {
            return invalid("backoff cap below base");
        }
        Ok(())
    }

    /// Upper bound on any backoff window.
    pub fn backoff_cap(&self) -> SimDuration {
        self.backoff_cap
    }
}

/// Cumulative recovery-subsystem counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Fresh transition failures detected across all rounds.
    pub failures_observed: u64,
    /// Hosts newly placed in quarantine (re-quarantines after readmission
    /// count again; extensions during probation do not).
    pub quarantines: u64,
    /// Hosts readmitted after their probation expired.
    pub readmissions: u64,
    /// Rounds planned with the fleet fail-safe tripped.
    pub failsafe_rounds: u64,
}

/// Per-host failure bookkeeping plus the fleet fail-safe.
///
/// Owned by [`crate::VirtManager`]; `observe` runs once per management
/// round *before* planning, and the query methods gate which hosts the
/// planner may power-cycle.
#[derive(Debug, Clone)]
pub struct RecoveryTracker {
    config: RecoveryConfig,
    /// Last-seen cumulative failure counter per host.
    last_failed: Vec<u64>,
    /// Consecutive failures since the last clean operational round.
    consecutive: Vec<u32>,
    /// Health score in `[0, 1]`; 1.0 is pristine.
    health: Vec<f64>,
    /// No wake attempts before this instant.
    backoff_until: Vec<SimTime>,
    /// Quarantine release time, when quarantined.
    quarantined_until: Vec<Option<SimTime>>,
    /// Timestamps of recent fleet-wide failures (the fail-safe window).
    recent: VecDeque<SimTime>,
    failsafe: bool,
    stats: RecoveryStats,
}

impl RecoveryTracker {
    /// Creates a tracker for `num_hosts` pristine hosts.
    pub fn new(config: RecoveryConfig, num_hosts: usize) -> Self {
        RecoveryTracker {
            config,
            last_failed: vec![0; num_hosts],
            consecutive: vec![0; num_hosts],
            health: vec![1.0; num_hosts],
            backoff_until: vec![SimTime::ZERO; num_hosts],
            quarantined_until: vec![None; num_hosts],
            recent: VecDeque::new(),
            failsafe: false,
            stats: RecoveryStats::default(),
        }
    }

    /// Ingests one round's observation: detects fresh failures, updates
    /// backoff/health/quarantine per host, and advances the fleet
    /// fail-safe window.
    ///
    /// # Panics
    ///
    /// Panics if the observation's host count differs from construction.
    pub fn observe(&mut self, obs: &ClusterObservation) {
        assert_eq!(
            obs.hosts.len(),
            self.last_failed.len(),
            "host count changed"
        );
        let now = obs.now;
        for h in &obs.hosts {
            let i = h.id.index();
            let delta = h.failed_transitions.saturating_sub(self.last_failed[i]);
            self.last_failed[i] = h.failed_transitions;
            if delta > 0 {
                self.stats.failures_observed += delta;
                for _ in 0..delta {
                    self.recent.push_back(now);
                }
                self.consecutive[i] =
                    self.consecutive[i].saturating_add(delta.min(u32::MAX as u64) as u32);
                // Each failure halves the health score.
                self.health[i] *= 0.5f64.powi(delta.min(64) as i32);
                // Exponential backoff, doubling per consecutive failure.
                let exp = (self.consecutive[i] - 1).min(16);
                let backoff =
                    (self.config.backoff_base * (1u64 << exp)).min(self.config.backoff_cap);
                self.backoff_until[i] = now + backoff;
                if self.consecutive[i] >= self.config.max_retries
                    || self.health[i] < self.config.health_floor
                {
                    let release = now + PROBATION;
                    match self.quarantined_until[i] {
                        // Monotone during probation: only ever extend.
                        Some(cur) => self.quarantined_until[i] = Some(cur.max(release)),
                        None => {
                            self.quarantined_until[i] = Some(release);
                            self.stats.quarantines += 1;
                        }
                    }
                }
            } else if h.is_operational() {
                // A clean round in service: the retry budget resets and
                // the host earns a little health back.
                self.consecutive[i] = 0;
                self.health[i] = (self.health[i] + self.config.health_recovery).min(1.0);
            }
            // Probation expiry: readmit on a short leash — retries reset,
            // but health re-enters exactly at the floor so a single
            // relapse re-quarantines.
            if let Some(release) = self.quarantined_until[i] {
                if now >= release {
                    self.quarantined_until[i] = None;
                    self.consecutive[i] = 0;
                    self.health[i] = self.health[i].max(self.config.health_floor);
                    self.stats.readmissions += 1;
                }
            }
        }

        // Fleet fail-safe: slide the window, then apply hysteresis.
        while self
            .recent
            .front()
            .is_some_and(|&t| t + self.config.failsafe_window < now)
        {
            self.recent.pop_front();
        }
        let in_window = self.recent.len() as u32;
        if self.failsafe {
            if in_window <= self.config.failsafe_trip / 2 {
                self.failsafe = false;
            }
        } else if in_window >= self.config.failsafe_trip {
            self.failsafe = true;
        }
        if self.failsafe {
            self.stats.failsafe_rounds += 1;
        }
    }

    /// Whether `host` is still inside its post-failure backoff window.
    pub fn in_backoff(&self, host: usize, now: SimTime) -> bool {
        now < self.backoff_until[host]
    }

    /// Whether `host` is quarantined (excluded from wake and park pools).
    pub fn is_quarantined(&self, host: usize) -> bool {
        self.quarantined_until[host].is_some()
    }

    /// When `host`'s quarantine releases, if it is quarantined.
    pub fn quarantine_release(&self, host: usize) -> Option<SimTime> {
        self.quarantined_until[host]
    }

    /// Whether `host` may be power-cycled at all this round.
    pub fn may_power_cycle(&self, host: usize, now: SimTime) -> bool {
        !self.is_quarantined(host) && !self.in_backoff(host, now)
    }

    /// Whether the fleet fail-safe is tripped.
    pub fn failsafe_active(&self) -> bool {
        self.failsafe
    }

    /// Number of currently quarantined hosts.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined_until
            .iter()
            .filter(|q| q.is_some())
            .count()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostObservation;
    use cluster::HostId;
    use power::PowerState;

    /// One-host observation with the given cumulative failure counter.
    fn obs(now: SimTime, failed: &[u64], states: &[PowerState]) -> ClusterObservation {
        let hosts = failed
            .iter()
            .zip(states)
            .enumerate()
            .map(|(i, (&f, &state))| HostObservation {
                id: HostId(i as u32),
                state,
                pending: None,
                cpu_capacity: 8.0,
                mem_capacity: 64.0,
                mem_committed: 0.0,
                cpu_demand: 0.0,
                evacuated: true,
                failed_transitions: f,
                ladder: Default::default(),
            })
            .collect();
        ClusterObservation {
            now,
            hosts,
            vms: Default::default(),
        }
    }

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn zero_failures_leave_everything_permissive() {
        let mut t = RecoveryTracker::new(RecoveryConfig::new(), 2);
        for round in 0..10u64 {
            let now = SimTime::from_secs(round * 300);
            t.observe(&obs(now, &[0, 0], &[PowerState::On; 2]));
            assert!(t.may_power_cycle(0, now));
            assert!(t.may_power_cycle(1, now));
            assert!(!t.failsafe_active());
        }
        assert_eq!(*t.stats(), RecoveryStats::default());
        assert_eq!(t.health[0], 1.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RecoveryConfig::new().with_backoff(mins(2), mins(8));
        let mut t = RecoveryTracker::new(cfg, 1);
        // Failure 1: backoff 2 min.
        t.observe(&obs(SimTime::ZERO, &[1], &[PowerState::On]));
        assert!(t.in_backoff(0, SimTime::from_secs(119)));
        assert!(!t.in_backoff(0, SimTime::from_secs(120)));
        // Failure 2 at t=5min: backoff 4 min.
        let t2 = SimTime::from_secs(300);
        t.observe(&obs(t2, &[2], &[PowerState::On]));
        assert!(t.in_backoff(0, t2 + SimDuration::from_secs(239)));
        assert!(!t.in_backoff(0, t2 + SimDuration::from_secs(240)));
        // Failure 3 at t=15min would be 8 min; failure 4 stays capped at 8.
        let t3 = SimTime::from_secs(900);
        t.observe(&obs(t3, &[3], &[PowerState::On]));
        let t4 = SimTime::from_secs(2400);
        t.observe(&obs(t4, &[4], &[PowerState::On]));
        assert!(t.in_backoff(0, t4 + SimDuration::from_secs(479)));
        assert!(!t.in_backoff(0, t4 + SimDuration::from_secs(480)));
    }

    #[test]
    fn retries_exhausted_quarantines_then_readmits() {
        let cfg = RecoveryConfig::new().with_max_retries(3);
        let mut t = RecoveryTracker::new(cfg, 1);
        t.observe(&obs(SimTime::from_secs(0), &[1], &[PowerState::On]));
        t.observe(&obs(SimTime::from_secs(300), &[2], &[PowerState::On]));
        assert!(!t.is_quarantined(0));
        let t3 = SimTime::from_secs(600);
        t.observe(&obs(t3, &[3], &[PowerState::On]));
        assert!(t.is_quarantined(0));
        assert_eq!(t.quarantine_release(0), Some(t3 + mins(60)));
        assert_eq!(t.stats().quarantines, 1);
        // Probation expires after a clean hour: readmitted with retries
        // reset and health at the floor.
        let after = t3 + mins(60);
        t.observe(&obs(after, &[3], &[PowerState::On]));
        assert!(!t.is_quarantined(0));
        assert_eq!(t.stats().readmissions, 1);
        assert!(t.may_power_cycle(0, after + mins(60)));
        assert!((t.health[0] - RecoveryConfig::new().health_floor).abs() < 1e-12);
    }

    #[test]
    fn quarantine_release_is_monotone_during_probation() {
        let cfg = RecoveryConfig::new().with_max_retries(1);
        let mut t = RecoveryTracker::new(cfg, 1);
        t.observe(&obs(SimTime::from_secs(0), &[1], &[PowerState::On]));
        let first = t.quarantine_release(0).unwrap();
        // A new failure mid-probation extends the release.
        t.observe(&obs(SimTime::from_secs(600), &[2], &[PowerState::On]));
        let second = t.quarantine_release(0).unwrap();
        assert!(second > first, "{second} !> {first}");
        // Still one quarantine event — extensions do not recount.
        assert_eq!(t.stats().quarantines, 1);
    }

    #[test]
    fn health_floor_quarantines_even_below_retry_limit() {
        // Halving twice from the floor-adjacent score crosses the floor
        // before three consecutive failures accumulate: fail, recover
        // (resetting the consecutive count), fail again repeatedly.
        let cfg = RecoveryConfig::new()
            .with_max_retries(10)
            .with_health(0.25, 0.01);
        let mut t = RecoveryTracker::new(cfg, 1);
        let mut failed = 0;
        let mut now = SimTime::ZERO;
        for round in 0..20 {
            // Alternate failure / clean round so consecutive never
            // reaches 10, while health ratchets down (×0.5 then +0.01).
            if round % 2 == 0 {
                failed += 1;
            }
            t.observe(&obs(now, &[failed], &[PowerState::On]));
            if t.is_quarantined(0) {
                break;
            }
            now += mins(5);
        }
        assert!(t.is_quarantined(0), "health floor never tripped");
        assert!(t.stats().failures_observed < 10);
    }

    #[test]
    fn clean_rounds_restore_health() {
        let mut t = RecoveryTracker::new(RecoveryConfig::new(), 1);
        t.observe(&obs(SimTime::ZERO, &[1], &[PowerState::On]));
        let degraded = t.health[0];
        assert!((degraded - 0.5).abs() < 1e-12);
        for round in 1..=20u64 {
            t.observe(&obs(
                SimTime::from_secs(round * 300),
                &[1],
                &[PowerState::On],
            ));
        }
        assert_eq!(t.health[0], 1.0);
        assert_eq!(t.consecutive[0], 0);
    }

    #[test]
    fn parked_hosts_do_not_earn_health() {
        // A suspended host has no clean *operational* rounds; its health
        // stays where the last failure left it.
        let mut t = RecoveryTracker::new(RecoveryConfig::new(), 1);
        t.observe(&obs(SimTime::ZERO, &[1], &[PowerState::On]));
        for round in 1..=5u64 {
            t.observe(&obs(
                SimTime::from_secs(round * 300),
                &[1],
                &[PowerState::Suspended],
            ));
        }
        assert!((t.health[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failsafe_trips_and_clears_with_hysteresis() {
        let cfg = RecoveryConfig::new().with_failsafe(mins(30), 4);
        let mut t = RecoveryTracker::new(cfg, 4);
        // Four failures in one round (one per host) trip the fail-safe.
        t.observe(&obs(SimTime::ZERO, &[1; 4], &[PowerState::On; 4]));
        assert!(t.failsafe_active());
        assert_eq!(t.stats().failsafe_rounds, 1);
        // Five minutes later the window still holds all four: still on.
        t.observe(&obs(SimTime::from_secs(300), &[1; 4], &[PowerState::On; 4]));
        assert!(t.failsafe_active());
        // Past the window the count drops to zero <= trip/2: clears.
        t.observe(&obs(
            SimTime::ZERO + mins(31),
            &[1; 4],
            &[PowerState::On; 4],
        ));
        assert!(!t.failsafe_active());
        assert_eq!(t.stats().failsafe_rounds, 2);
    }

    #[test]
    fn quarantined_count_tracks_membership() {
        let cfg = RecoveryConfig::new().with_max_retries(1);
        let mut t = RecoveryTracker::new(cfg, 3);
        t.observe(&obs(SimTime::ZERO, &[1, 0, 1], &[PowerState::On; 3]));
        assert_eq!(t.quarantined_count(), 2);
        assert!(t.is_quarantined(0));
        assert!(!t.is_quarantined(1));
        assert!(t.is_quarantined(2));
    }

    #[test]
    #[should_panic(expected = "host count changed")]
    fn rejects_mismatched_observation() {
        let mut t = RecoveryTracker::new(RecoveryConfig::new(), 2);
        t.observe(&obs(SimTime::ZERO, &[0], &[PowerState::On]));
    }

    #[test]
    fn try_validate_rejects_each_bad_knob() {
        let c = RecoveryConfig::new;
        for (cfg, expected) in [
            (
                c().with_backoff(mins(10), mins(2)),
                "backoff cap below base",
            ),
            (c().with_max_retries(0), "one retry before quarantine"),
            (c().with_backoff(mins(0), mins(2)), "base must be non-zero"),
            (c().with_health(1.0, 0.05), "health floor 1 outside (0,1)"),
            (c().with_health(0.25, 0.0), "recovery 0 outside (0,1)"),
            (c().with_failsafe(mins(0), 4), "window must be non-zero"),
            (c().with_failsafe(mins(30), 0), "trip threshold must be"),
        ] {
            let err = cfg.try_validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{err} lacks {expected}");
        }
        assert_eq!(c().try_validate(), Ok(()));
    }
}
