//! Exact energy accounting for a single host.

use simcore::{SimTime, TimeSeries};

use crate::PowerState;

/// Integrates a host's step-function power draw into energy, with a
/// per-power-state breakdown and an optional full power trace.
///
/// The meter assumes power is constant between [`set_power`](Self::set_power)
/// calls, which is exact for the simulator's event-driven model.
///
/// # Example
///
/// ```
/// use power::{EnergyMeter, PowerState};
/// use simcore::SimTime;
///
/// let mut meter = EnergyMeter::new(SimTime::ZERO, 100.0);
/// meter.set_power(SimTime::from_secs(10), 50.0, PowerState::Suspended);
/// meter.sync(SimTime::from_secs(20));
/// assert_eq!(meter.total_j(), 100.0 * 10.0 + 50.0 * 10.0);
/// assert_eq!(meter.state_j(PowerState::Suspended), 500.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    last_time: SimTime,
    last_power_w: f64,
    last_state: PowerState,
    total_j: f64,
    by_state_j: [f64; PowerState::COUNT],
    trace: Option<TimeSeries>,
}

impl EnergyMeter {
    /// Creates a meter at `t0` with an initial draw of `power_w` attributed
    /// to the `On` state.
    ///
    /// # Panics
    ///
    /// Panics if `power_w` is negative or not finite.
    pub fn new(t0: SimTime, power_w: f64) -> Self {
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "bad initial power {power_w}"
        );
        EnergyMeter {
            last_time: t0,
            last_power_w: power_w,
            last_state: PowerState::On,
            total_j: 0.0,
            by_state_j: [0.0; PowerState::COUNT],
            trace: None,
        }
    }

    /// Starts recording the full power trace from now on.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            let mut ts = TimeSeries::new();
            ts.record(self.last_time, self.last_power_w);
            self.trace = Some(ts);
        }
    }

    /// Records a new power level taking effect at `now`, attributing the
    /// elapsed interval's energy to the *previous* state.
    ///
    /// A sample that does not advance time (duplicate timestamp) simply
    /// replaces the power level; a sample that *precedes* the previous one
    /// trips a debug assertion and is clamped to zero width in release
    /// builds, so no interval is ever attributed negative energy.
    ///
    /// # Panics
    ///
    /// Panics if `power_w` is negative/non-finite.
    pub fn set_power(&mut self, now: SimTime, power_w: f64, state: PowerState) {
        assert!(power_w.is_finite() && power_w >= 0.0, "bad power {power_w}");
        self.accumulate(now);
        self.last_power_w = power_w;
        self.last_state = state;
        if let Some(ts) = &mut self.trace {
            ts.record(now, power_w);
        }
    }

    /// Brings the integral up to `now` without changing the power level.
    pub fn sync(&mut self, now: SimTime) {
        self.accumulate(now);
    }

    /// Total energy consumed so far, in joules.
    pub fn total_j(&self) -> f64 {
        self.total_j
    }

    /// Energy attributed to time spent in `state`, in joules.
    pub fn state_j(&self, state: PowerState) -> f64 {
        self.by_state_j[state.index()]
    }

    /// The recorded power trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TimeSeries> {
        self.trace.as_ref()
    }

    fn accumulate(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.last_time,
            "EnergyMeter sample went backwards: {now} < {}",
            self.last_time
        );
        // Saturating difference: a non-monotonic sample (caller bug) is
        // clamped to a zero-width interval instead of attributing negative
        // energy or panicking deep inside the accounting.
        let dt = now.saturating_since(self.last_time).as_secs_f64();
        if dt > 0.0 {
            let j = self.last_power_w * dt;
            self.total_j += j;
            self.by_state_j[self.last_state.index()] += j;
            self.last_time = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_step_function() {
        let mut m = EnergyMeter::new(SimTime::ZERO, 200.0);
        m.set_power(SimTime::from_secs(5), 100.0, PowerState::On);
        m.set_power(SimTime::from_secs(15), 0.0, PowerState::Off);
        m.sync(SimTime::from_secs(100));
        assert_eq!(m.total_j(), 200.0 * 5.0 + 100.0 * 10.0);
    }

    #[test]
    fn per_state_breakdown_sums_to_total() {
        let mut m = EnergyMeter::new(SimTime::ZERO, 150.0);
        m.set_power(SimTime::from_secs(10), 120.0, PowerState::Suspending);
        m.set_power(SimTime::from_secs(17), 8.0, PowerState::Suspended);
        m.sync(SimTime::from_secs(1000));
        let sum: f64 = PowerState::ALL.iter().map(|&s| m.state_j(s)).sum();
        assert!((sum - m.total_j()).abs() < 1e-9);
        assert_eq!(m.state_j(PowerState::On), 1500.0);
        assert_eq!(m.state_j(PowerState::Suspending), 120.0 * 7.0);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut m = EnergyMeter::new(SimTime::ZERO, 100.0);
        m.enable_trace();
        m.set_power(SimTime::from_secs(1), 50.0, PowerState::On);
        let trace = m.trace().unwrap();
        assert_eq!(trace.value_at(SimTime::ZERO), Some(100.0));
        assert_eq!(trace.value_at(SimTime::from_secs(2)), Some(50.0));
    }

    #[test]
    fn no_trace_by_default() {
        let m = EnergyMeter::new(SimTime::ZERO, 100.0);
        assert!(m.trace().is_none());
    }

    #[test]
    fn duplicate_timestamp_replaces_power_without_energy() {
        let mut m = EnergyMeter::new(SimTime::ZERO, 100.0);
        m.set_power(SimTime::from_secs(10), 50.0, PowerState::On);
        // Same instant again: zero-width interval, just a level change.
        m.set_power(SimTime::from_secs(10), 75.0, PowerState::On);
        assert_eq!(m.total_j(), 1000.0);
        m.sync(SimTime::from_secs(20));
        assert_eq!(m.total_j(), 1000.0 + 75.0 * 10.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "went backwards"))]
    fn non_monotonic_sample_is_rejected_or_clamped() {
        let mut m = EnergyMeter::new(SimTime::from_secs(10), 100.0);
        // Debug builds assert; release builds clamp to zero width and
        // never attribute negative energy.
        m.set_power(SimTime::from_secs(5), 50.0, PowerState::On);
        m.sync(SimTime::from_secs(10));
        assert!(m.total_j() >= 0.0);
        let sum: f64 = PowerState::ALL.iter().map(|&s| m.state_j(s)).sum();
        assert!((sum - m.total_j()).abs() < 1e-9);
    }

    #[test]
    fn repeated_sync_is_idempotent() {
        let mut m = EnergyMeter::new(SimTime::ZERO, 10.0);
        m.sync(SimTime::from_secs(10));
        let e = m.total_j();
        m.sync(SimTime::from_secs(10));
        assert_eq!(m.total_j(), e);
    }
}
