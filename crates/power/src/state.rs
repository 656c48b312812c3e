//! The host power-state machine.

use std::fmt;
use std::sync::Arc;

use simcore::{SimDuration, SimTime};

use crate::{EnergyMeter, HostPowerProfile, PowerError, TransitionKind};

/// ACPI-like host power states.
///
/// Four *stable* states (`On`, `PackageIdle`, `Suspended`, `Off`) and six
/// *transitional* states, one per [`TransitionKind`]. A host serves load
/// only in `On`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PowerState {
    /// Fully operational; power follows the profile's utilization curve.
    On,
    /// Suspend-to-RAM (S3-class): context held in memory, near-zero power,
    /// low-latency return to `On`.
    Suspended,
    /// Fully powered off (S5-class): minimal standby draw, return to `On`
    /// requires a full boot.
    Off,
    /// In flight: `On` → `Suspended`.
    Suspending,
    /// In flight: `Suspended` → `On`.
    Resuming,
    /// In flight: `On` → `Off`.
    ShuttingDown,
    /// In flight: `Off` → `On`.
    Booting,
    /// C6-class package idle: cores and uncore power-gated with context
    /// retained on-package — draws well below idle, wakes in ~seconds or
    /// less. The shallowest rung of the power-state ladder.
    PackageIdle,
    /// In flight: `On` → `PackageIdle`.
    Parking,
    /// In flight: `PackageIdle` → `On`.
    Unparking,
}

impl PowerState {
    /// Number of power states (length of per-state arrays).
    pub const COUNT: usize = 10;

    /// All states, for iteration in residency reports.
    pub const ALL: [PowerState; PowerState::COUNT] = [
        PowerState::On,
        PowerState::Suspended,
        PowerState::Off,
        PowerState::Suspending,
        PowerState::Resuming,
        PowerState::ShuttingDown,
        PowerState::Booting,
        PowerState::PackageIdle,
        PowerState::Parking,
        PowerState::Unparking,
    ];

    /// Whether this is a stable (non-transitional) state.
    pub fn is_stable(self) -> bool {
        matches!(
            self,
            PowerState::On | PowerState::Suspended | PowerState::Off | PowerState::PackageIdle
        )
    }

    /// Whether a host in this state can serve VM load.
    pub fn is_operational(self) -> bool {
        self == PowerState::On
    }

    /// Dense index for per-state arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            PowerState::On => 0,
            PowerState::Suspended => 1,
            PowerState::Off => 2,
            PowerState::Suspending => 3,
            PowerState::Resuming => 4,
            PowerState::ShuttingDown => 5,
            PowerState::Booting => 6,
            PowerState::PackageIdle => 7,
            PowerState::Parking => 8,
            PowerState::Unparking => 9,
        }
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerState::On => "On",
            PowerState::Suspended => "Suspended",
            PowerState::Off => "Off",
            PowerState::Suspending => "Suspending",
            PowerState::Resuming => "Resuming",
            PowerState::ShuttingDown => "ShuttingDown",
            PowerState::Booting => "Booting",
            PowerState::PackageIdle => "PackageIdle",
            PowerState::Parking => "Parking",
            PowerState::Unparking => "Unparking",
        };
        f.write_str(s)
    }
}

/// Cumulative time spent in each power state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateResidency {
    durations: [SimDuration; PowerState::COUNT],
}

impl StateResidency {
    /// Time spent in `state` so far.
    pub fn in_state(&self, state: PowerState) -> SimDuration {
        self.durations[state.index()]
    }

    /// Total time across all states.
    pub fn total(&self) -> SimDuration {
        self.durations
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    fn add(&mut self, state: PowerState, d: SimDuration) {
        self.durations[state.index()] += d;
    }
}

/// The power-state machine of one host.
///
/// Couples a [`HostPowerProfile`] with the current [`PowerState`], validates
/// requested transitions, integrates energy exactly (step-function), and
/// tracks per-state residency and transition counts.
///
/// # Discipline
///
/// The machine is event-driven: the caller requests a transition with
/// [`begin`](Self::begin), receives the completion instant, schedules an
/// event, and calls [`complete`](Self::complete) exactly at that instant.
/// Utilization changes while `On` are reported with
/// [`set_utilization`](Self::set_utilization). All calls must use
/// non-decreasing timestamps.
///
/// # Example
///
/// ```
/// use power::{HostPowerProfile, PowerState, PowerStateMachine, TransitionKind};
/// use simcore::SimTime;
///
/// let mut m = PowerStateMachine::new(HostPowerProfile::prototype_rack(), SimTime::ZERO);
/// m.set_utilization(SimTime::ZERO, 0.6);
/// let done = m.begin(TransitionKind::Suspend, SimTime::from_secs(60))?;
/// m.complete(done)?;
/// assert_eq!(m.state(), PowerState::Suspended);
/// assert!(m.meter().total_j() > 0.0);
/// # Ok::<(), power::PowerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerStateMachine {
    profile: Arc<HostPowerProfile>,
    state: PowerState,
    state_entered: SimTime,
    pending: Option<(TransitionKind, SimTime)>,
    utilization: f64,
    meter: EnergyMeter,
    residency: StateResidency,
    completed_transitions: u64,
    failed_transitions: u64,
    /// Memoized `state_power_w(state, utilization)`, refreshed on every
    /// state or utilization change so [`power_w`](Self::power_w) — called
    /// once per host on every cluster power read — never re-evaluates the
    /// power curve.
    cached_power_w: f64,
}

impl PowerStateMachine {
    /// Creates a machine starting in the `On` state at time `t0` with zero
    /// utilization.
    pub fn new(profile: impl Into<Arc<HostPowerProfile>>, t0: SimTime) -> Self {
        Self::with_initial_state(profile, PowerState::On, t0)
    }

    /// Creates a machine starting in an arbitrary *stable* state.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is a transitional state.
    pub fn with_initial_state(
        profile: impl Into<Arc<HostPowerProfile>>,
        initial: PowerState,
        t0: SimTime,
    ) -> Self {
        assert!(
            initial.is_stable(),
            "initial state must be stable, got {initial}"
        );
        let profile = profile.into();
        let power = profile.state_power_w(initial, 0.0);
        PowerStateMachine {
            profile,
            state: initial,
            state_entered: t0,
            pending: None,
            utilization: 0.0,
            meter: EnergyMeter::new(t0, power),
            residency: StateResidency::default(),
            completed_transitions: 0,
            failed_transitions: 0,
            cached_power_w: power,
        }
    }

    /// Enables recording of the full power trace (off by default to keep
    /// large-fleet simulations lean).
    pub fn enable_trace(&mut self) {
        self.meter.enable_trace();
    }

    /// The host's power profile.
    pub fn profile(&self) -> &HostPowerProfile {
        &self.profile
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Whether the host can serve load right now.
    pub fn is_operational(&self) -> bool {
        self.state.is_operational()
    }

    /// The in-flight transition and its completion time, if any.
    pub fn pending(&self) -> Option<(TransitionKind, SimTime)> {
        self.pending
    }

    /// Current instantaneous power draw, in watts.
    pub fn power_w(&self) -> f64 {
        debug_assert_eq!(
            self.cached_power_w.to_bits(),
            self.profile
                .state_power_w(self.state, self.utilization)
                .to_bits(),
            "stale power cache in state {}",
            self.state
        );
        self.cached_power_w
    }

    /// Energy accounting (totals, per-state breakdown, optional trace).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Cumulative per-state residency. Time in the current state since the
    /// last event is *not* included; call [`sync`](Self::sync) first for an
    /// up-to-the-instant view.
    pub fn residency(&self) -> &StateResidency {
        &self.residency
    }

    /// Total completed power-state transitions of all kinds.
    pub fn total_transitions(&self) -> u64 {
        self.completed_transitions
    }

    /// Reports a new CPU utilization (only meaningful while `On`; ignored
    /// with no effect in other states, where draw is fixed).
    pub fn set_utilization(&mut self, now: SimTime, util: f64) {
        let util = util.clamp(0.0, 1.0);
        self.advance(now);
        self.utilization = util;
        let power = self.profile.state_power_w(self.state, util);
        self.cached_power_w = power;
        self.meter.set_power(now, power, self.state);
    }

    /// Begins a power-state transition, returning the instant it completes.
    ///
    /// # Errors
    ///
    /// * [`PowerError::InvalidTransition`] if the machine is not in the
    ///   transition's source state (including when a transition is already
    ///   in flight).
    /// * [`PowerError::UnsupportedTransition`] if the profile lacks the
    ///   transition (e.g. suspend on a legacy host).
    pub fn begin(&mut self, kind: TransitionKind, now: SimTime) -> Result<SimTime, PowerError> {
        if self.state != kind.source() {
            return Err(PowerError::InvalidTransition {
                from: self.state,
                kind,
            });
        }
        let spec = *self
            .profile
            .transitions()
            .spec(kind)
            .ok_or(PowerError::UnsupportedTransition(kind))?;
        let completes_at = now + spec.latency();
        let via = kind.via();
        self.advance(now);
        self.enter_state(via, now);
        self.meter.set_power(now, spec.avg_power_w(), via);
        self.cached_power_w = self.profile.state_power_w(via, self.utilization);
        self.pending = Some((kind, completes_at));
        Ok(completes_at)
    }

    /// Completes the in-flight transition. Must be called exactly at the
    /// instant returned by [`begin`](Self::begin).
    ///
    /// Returns the new (stable) state.
    ///
    /// # Errors
    ///
    /// * [`PowerError::NotTransitioning`] if nothing is in flight.
    /// * [`PowerError::CompletionTimeMismatch`] if called at the wrong time.
    pub fn complete(&mut self, now: SimTime) -> Result<PowerState, PowerError> {
        let (kind, expected) = self.pending.ok_or(PowerError::NotTransitioning)?;
        if now != expected {
            return Err(PowerError::CompletionTimeMismatch {
                expected,
                actual: now,
            });
        }
        self.pending = None;
        let target = kind.target();
        self.advance(now);
        self.enter_state(target, now);
        // A freshly-resumed/booted host starts at its current recorded
        // utilization; the simulator refreshes it on the next tick.
        let power = self.profile.state_power_w(target, self.utilization);
        self.cached_power_w = power;
        self.meter.set_power(now, power, target);
        self.completed_transitions += 1;
        Ok(target)
    }

    /// Fails the in-flight transition: the host spends the transition's
    /// full latency and energy, but lands in the transition's *failure*
    /// state (see [`TransitionKind::failure_target`]) instead of its
    /// target. Must be called exactly at the instant returned by
    /// [`begin`](Self::begin), like [`complete`](Self::complete).
    ///
    /// Returns the state the host landed in.
    ///
    /// # Errors
    ///
    /// * [`PowerError::NotTransitioning`] if nothing is in flight.
    /// * [`PowerError::CompletionTimeMismatch`] if called at the wrong
    ///   time.
    pub fn fail_pending(&mut self, now: SimTime) -> Result<PowerState, PowerError> {
        let (kind, expected) = self.pending.ok_or(PowerError::NotTransitioning)?;
        if now != expected {
            return Err(PowerError::CompletionTimeMismatch {
                expected,
                actual: now,
            });
        }
        self.pending = None;
        let target = kind.failure_target();
        self.advance(now);
        self.enter_state(target, now);
        let power = self.profile.state_power_w(target, self.utilization);
        self.cached_power_w = power;
        self.meter.set_power(now, power, target);
        self.failed_transitions += 1;
        Ok(target)
    }

    /// Stretches the in-flight transition to complete at `new_completion`
    /// instead of the instant [`begin`](Self::begin) returned — a *hung*
    /// transition. The host stays in the transitional state (the "stuck"
    /// interval, observable via [`pending`](Self::pending)) and keeps
    /// burning the transition's average power until the caller invokes
    /// [`complete`](Self::complete) or [`fail_pending`](Self::fail_pending)
    /// exactly at `new_completion`.
    ///
    /// Returns the previously scheduled completion instant.
    ///
    /// # Errors
    ///
    /// [`PowerError::NotTransitioning`] if nothing is in flight.
    ///
    /// # Panics
    ///
    /// Panics if `new_completion` precedes the scheduled completion —
    /// hangs only ever extend a transition.
    pub fn delay_pending(&mut self, new_completion: SimTime) -> Result<SimTime, PowerError> {
        let (kind, expected) = self.pending.ok_or(PowerError::NotTransitioning)?;
        assert!(
            new_completion >= expected,
            "hang must extend the transition ({new_completion} < {expected})"
        );
        self.pending = Some((kind, new_completion));
        Ok(expected)
    }

    /// How many in-flight transitions have failed (via
    /// [`fail_pending`](Self::fail_pending)).
    pub fn failed_transitions(&self) -> u64 {
        self.failed_transitions
    }

    /// Brings residency and energy accounting up to `now` without changing
    /// state. Call at the end of a simulation before reading metrics.
    pub fn sync(&mut self, now: SimTime) {
        self.advance(now);
        self.meter.sync(now);
    }

    /// Accumulates residency for the current state up to `now`.
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.state_entered);
        if !dt.is_zero() {
            self.residency.add(self.state, dt);
            self.state_entered = now;
        }
    }

    fn enter_state(&mut self, state: PowerState, now: SimTime) {
        self.state = state;
        self.state_entered = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostPowerProfile;

    fn machine() -> PowerStateMachine {
        PowerStateMachine::new(HostPowerProfile::prototype_rack(), SimTime::ZERO)
    }

    #[test]
    fn starts_on_and_idle() {
        let m = machine();
        assert_eq!(m.state(), PowerState::On);
        assert!(m.is_operational());
        assert_eq!(m.power_w(), m.profile().curve().idle_w());
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut m = machine();
        let done = m
            .begin(TransitionKind::Suspend, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(m.state(), PowerState::Suspending);
        assert!(!m.is_operational());
        assert_eq!(m.pending(), Some((TransitionKind::Suspend, done)));

        assert_eq!(m.complete(done).unwrap(), PowerState::Suspended);
        assert_eq!(m.total_transitions(), 1);

        let done2 = m.begin(TransitionKind::Resume, done).unwrap();
        assert_eq!(m.state(), PowerState::Resuming);
        assert_eq!(m.complete(done2).unwrap(), PowerState::On);
        assert_eq!(m.total_transitions(), 2);
    }

    #[test]
    fn rejects_invalid_source_state() {
        let mut m = machine();
        let err = m.begin(TransitionKind::Resume, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, PowerError::InvalidTransition { .. }));
    }

    #[test]
    fn rejects_double_begin() {
        let mut m = machine();
        m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap();
        let err = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, PowerError::InvalidTransition { .. }));
    }

    #[test]
    fn rejects_unsupported_suspend_on_legacy() {
        let mut m = PowerStateMachine::new(HostPowerProfile::legacy_rack(), SimTime::ZERO);
        let err = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            PowerError::UnsupportedTransition(TransitionKind::Suspend)
        );
        // Shutdown still works.
        assert!(m.begin(TransitionKind::Shutdown, SimTime::ZERO).is_ok());
    }

    #[test]
    fn complete_requires_exact_time() {
        let mut m = machine();
        let done = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap();
        let err = m.complete(done + SimDuration::from_millis(1)).unwrap_err();
        assert!(matches!(err, PowerError::CompletionTimeMismatch { .. }));
        // The right time still works afterwards.
        assert!(m.complete(done).is_ok());
    }

    #[test]
    fn complete_without_begin_errors() {
        let mut m = machine();
        assert_eq!(
            m.complete(SimTime::ZERO).unwrap_err(),
            PowerError::NotTransitioning
        );
    }

    #[test]
    fn energy_integrates_across_cycle() {
        let mut m = machine();
        let profile = HostPowerProfile::prototype_rack();
        // 100 s idle on.
        let t1 = SimTime::from_secs(100);
        let done = m.begin(TransitionKind::Suspend, t1).unwrap();
        m.complete(done).unwrap();
        // 1000 s suspended.
        let t2 = done + SimDuration::from_secs(1000);
        m.sync(t2);

        let suspend_spec = profile.transitions().spec(TransitionKind::Suspend).unwrap();
        let expected = profile.curve().idle_w() * 100.0
            + suspend_spec.energy_j()
            + profile.suspend_power_w() * 1000.0;
        assert!(
            (m.meter().total_j() - expected).abs() < 1e-6,
            "got {} want {}",
            m.meter().total_j(),
            expected
        );
    }

    #[test]
    fn residency_tracks_states() {
        let mut m = machine();
        let t1 = SimTime::from_secs(50);
        let done = m.begin(TransitionKind::Suspend, t1).unwrap();
        m.complete(done).unwrap();
        let end = done + SimDuration::from_secs(30);
        m.sync(end);
        assert_eq!(
            m.residency().in_state(PowerState::On),
            SimDuration::from_secs(50)
        );
        assert_eq!(
            m.residency().in_state(PowerState::Suspending),
            done.since(t1)
        );
        assert_eq!(
            m.residency().in_state(PowerState::Suspended),
            SimDuration::from_secs(30)
        );
        let on = m.residency().in_state(PowerState::On);
        assert!(on > SimDuration::ZERO && on < m.residency().total());
    }

    #[test]
    fn utilization_changes_power() {
        let mut m = machine();
        m.set_utilization(SimTime::ZERO, 1.0);
        assert_eq!(m.power_w(), m.profile().curve().peak_w());
        m.set_utilization(SimTime::from_secs(1), 2.0); // clamps
        assert_eq!(m.power_w(), m.profile().curve().peak_w());
    }

    #[test]
    #[should_panic(expected = "initial state must be stable")]
    fn initial_state_must_be_stable() {
        PowerStateMachine::with_initial_state(
            HostPowerProfile::prototype_rack(),
            PowerState::Booting,
            SimTime::ZERO,
        );
    }

    #[test]
    fn failed_resume_lands_off() {
        let mut m = machine();
        let done = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap();
        m.complete(done).unwrap();
        let done2 = m.begin(TransitionKind::Resume, done).unwrap();
        assert_eq!(m.fail_pending(done2).unwrap(), PowerState::Off);
        assert_eq!(m.failed_transitions(), 1);
        assert_eq!(m.total_transitions(), 1);
        // Recovery path: boot from off.
        let done3 = m.begin(TransitionKind::Boot, done2).unwrap();
        assert_eq!(m.complete(done3).unwrap(), PowerState::On);
    }

    #[test]
    fn failed_suspend_stays_on() {
        let mut m = machine();
        let done = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap();
        assert_eq!(m.fail_pending(done).unwrap(), PowerState::On);
        assert!(m.is_operational());
    }

    #[test]
    fn fail_pending_requires_exact_time() {
        let mut m = machine();
        let done = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap();
        assert!(matches!(
            m.fail_pending(done + SimDuration::from_millis(1))
                .unwrap_err(),
            PowerError::CompletionTimeMismatch { .. }
        ));
        assert_eq!(m.fail_pending(done).unwrap(), PowerState::On);
        assert_eq!(
            m.fail_pending(done).unwrap_err(),
            PowerError::NotTransitioning
        );
    }

    #[test]
    fn delayed_transition_hangs_then_fails() {
        let mut m = machine();
        let profile = HostPowerProfile::prototype_rack();
        let done = m.begin(TransitionKind::Suspend, SimTime::ZERO).unwrap();
        // Stretch the transition to 4x its nominal latency: the machine
        // stays Suspending for the whole stuck interval.
        let stuck_done =
            SimTime::ZERO + SimDuration::from_millis(4 * done.since(SimTime::ZERO).as_millis());
        assert_eq!(m.delay_pending(stuck_done).unwrap(), done);
        assert_eq!(m.pending(), Some((TransitionKind::Suspend, stuck_done)));
        assert_eq!(m.state(), PowerState::Suspending);
        // The old completion instant is no longer valid.
        assert!(matches!(
            m.complete(done).unwrap_err(),
            PowerError::CompletionTimeMismatch { .. }
        ));
        // Failing at the stretched instant lands the failure target and
        // counts as a failed transition.
        assert_eq!(m.fail_pending(stuck_done).unwrap(), PowerState::On);
        assert_eq!(m.failed_transitions(), 1);
        // The stuck interval burned transition power the whole time.
        let spec = profile.transitions().spec(TransitionKind::Suspend).unwrap();
        let expected = spec.avg_power_w() * stuck_done.since(SimTime::ZERO).as_secs_f64();
        assert!(
            (m.meter().total_j() - expected).abs() < 1e-6,
            "got {} want {}",
            m.meter().total_j(),
            expected
        );
    }

    #[test]
    fn delay_pending_requires_in_flight_transition() {
        let mut m = machine();
        assert_eq!(
            m.delay_pending(SimTime::from_secs(1)).unwrap_err(),
            PowerError::NotTransitioning
        );
    }

    #[test]
    fn park_unpark_cycle_on_ladder_profile() {
        let mut m =
            PowerStateMachine::new(HostPowerProfile::prototype_rack_ladder(), SimTime::ZERO);
        let done = m
            .begin(TransitionKind::Park, SimTime::from_secs(5))
            .unwrap();
        assert_eq!(m.state(), PowerState::Parking);
        assert!(!m.is_operational());
        assert_eq!(m.complete(done).unwrap(), PowerState::PackageIdle);
        assert!(PowerState::PackageIdle.is_stable());
        assert_eq!(m.total_transitions(), 1);

        let done2 = m.begin(TransitionKind::Unpark, done).unwrap();
        assert_eq!(m.state(), PowerState::Unparking);
        assert_eq!(m.complete(done2).unwrap(), PowerState::On);
        assert_eq!(m.total_transitions(), 2);
    }

    #[test]
    fn park_unsupported_on_three_rung_profile() {
        let mut m = machine();
        assert_eq!(
            m.begin(TransitionKind::Park, SimTime::ZERO).unwrap_err(),
            PowerError::UnsupportedTransition(TransitionKind::Park)
        );
    }

    #[test]
    fn failed_unpark_lands_off() {
        let mut m =
            PowerStateMachine::new(HostPowerProfile::prototype_rack_ladder(), SimTime::ZERO);
        let done = m.begin(TransitionKind::Park, SimTime::ZERO).unwrap();
        m.complete(done).unwrap();
        let done2 = m.begin(TransitionKind::Unpark, done).unwrap();
        assert_eq!(m.fail_pending(done2).unwrap(), PowerState::Off);
        // Recovery is a cold boot, exactly like a failed resume.
        let done3 = m.begin(TransitionKind::Boot, done2).unwrap();
        assert_eq!(m.complete(done3).unwrap(), PowerState::On);
    }

    #[test]
    fn can_start_off() {
        let mut m = PowerStateMachine::with_initial_state(
            HostPowerProfile::prototype_rack(),
            PowerState::Off,
            SimTime::ZERO,
        );
        assert!(!m.is_operational());
        let done = m.begin(TransitionKind::Boot, SimTime::ZERO).unwrap();
        assert_eq!(m.complete(done).unwrap(), PowerState::On);
    }
}
