//! Fault injection for power-state transitions, migrations, and racks.
//!
//! Power-cycling a server is not free of risk: the paper's prototype work
//! had to demonstrate that suspend/resume is *dependable* enough for
//! production management. This module injects transition failures so the
//! manager's recovery path (failed resume → host lands `Off` → cold boot)
//! can be exercised and its cost quantified (experiments T13/T13b).
//!
//! Beyond independent resume/boot coin flips the model covers:
//!
//! - **migration aborts** — a live migration that runs to its scheduled
//!   completion and then fails, leaving the VM on its source host;
//! - **transition hangs** — a suspend/resume/boot that takes
//!   [`hang_factor`](FailureModel::hang_factor)× its nominal latency
//!   (the *stuck* interval, burning transition power throughout) and
//!   then fails;
//! - **rack outage bursts** — correlated windows during which every
//!   power transition completing on one rack
//!   ([`rack_size`](FailureModel::rack_size) contiguous hosts) fails.
//!
//! All draws come from dedicated [`simcore::RngStream`] substreams, so a
//! model with every knob at zero consumes zero random draws and produces
//! byte-identical reports to a run without injection.

use simcore::SimDuration;

use crate::SimError;

/// Failure-injection knobs: per-transition probabilities plus hang and
/// correlated-burst parameters.
///
/// A failed resume loses the memory image and strands the host `Off`; a
/// failed boot leaves it `Off` for another attempt. Failed transitions
/// still consume their full latency and energy; hung transitions consume
/// a multiple of it.
///
/// # Example
///
/// ```
/// use dcsim::FailureModel;
///
/// let reliable = FailureModel::none();
/// assert_eq!(reliable.resume_failure_prob(), 0.0);
/// let flaky = FailureModel::new(0.05, 0.01)
///     .with_migration_failures(0.02)
///     .with_hangs(0.01, 4.0);
/// assert_eq!(flaky.resume_failure_prob(), 0.05);
/// assert_eq!(flaky.hang_factor(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    resume_failure_prob: f64,
    boot_failure_prob: f64,
    migration_failure_prob: f64,
    hang_prob: f64,
    hang_factor: f64,
    rack_size: usize,
    rack_burst_prob: f64,
    rack_burst_duration: SimDuration,
}

fn check_prob(p: f64) -> Result<(), SimError> {
    if p.is_finite() && (0.0..1.0).contains(&p) {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            message: format!("failure probability {p} outside [0, 1)"),
        })
    }
}

impl FailureModel {
    /// No injected failures (the default).
    pub fn none() -> Self {
        FailureModel {
            resume_failure_prob: 0.0,
            boot_failure_prob: 0.0,
            migration_failure_prob: 0.0,
            hang_prob: 0.0,
            hang_factor: 1.0,
            rack_size: 0,
            rack_burst_prob: 0.0,
            rack_burst_duration: SimDuration::ZERO,
        }
    }

    /// Creates a model with the given per-attempt transition failure
    /// probabilities, each in `[0, 1)` (a probability of 1.0 would make
    /// the host permanently unrecoverable), and no other failure kinds.
    pub fn new(resume_failure_prob: f64, boot_failure_prob: f64) -> Self {
        FailureModel {
            resume_failure_prob,
            boot_failure_prob,
            ..FailureModel::none()
        }
    }

    /// Adds per-attempt migration aborts: each live migration fails at
    /// its scheduled completion with probability `prob` (in `[0, 1)`),
    /// leaving the VM on its source host.
    pub fn with_migration_failures(mut self, prob: f64) -> Self {
        self.migration_failure_prob = prob;
        self
    }

    /// Adds transition hangs: each power transition hangs with
    /// probability `prob` (in `[0, 1)`), stretching to `factor`× (at
    /// least 1×) its nominal latency before failing.
    pub fn with_hangs(mut self, prob: f64, factor: f64) -> Self {
        self.hang_prob = prob;
        self.hang_factor = factor;
        self
    }

    /// Adds correlated rack outage bursts: hosts are grouped into racks
    /// of `rack_size` contiguous indices, and each control epoch each
    /// rack independently starts a burst with probability `prob` (in
    /// `[0, 1)`) lasting `duration`; every power transition completing on
    /// a bursting rack fails. With `prob > 0`, `rack_size` and `duration`
    /// must be non-zero.
    pub fn with_rack_bursts(mut self, rack_size: usize, prob: f64, duration: SimDuration) -> Self {
        self.rack_size = rack_size;
        self.rack_burst_prob = prob;
        self.rack_burst_duration = duration;
        self
    }

    /// Checks every probability lies in `[0, 1)` and the hang factor is
    /// at least 1, then — when rack bursts are on — that racks and
    /// bursts are non-empty. The simulator's builder calls this before a
    /// run starts.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first violation.
    pub fn try_validate(&self) -> Result<(), SimError> {
        let invalid = |message: String| Err(SimError::InvalidConfig { message });
        check_prob(self.resume_failure_prob)?;
        check_prob(self.boot_failure_prob)?;
        check_prob(self.migration_failure_prob)?;
        check_prob(self.hang_prob)?;
        let factor = self.hang_factor;
        if !(factor.is_finite() && factor >= 1.0) {
            return invalid(format!("hang factor {factor} must be >= 1"));
        }
        check_prob(self.rack_burst_prob)?;
        if self.rack_burst_prob > 0.0 {
            if self.rack_size == 0 {
                return invalid("rack size must be positive".to_string());
            }
            if self.rack_burst_duration.is_zero() {
                return invalid("rack burst duration must be positive".to_string());
            }
        }
        Ok(())
    }

    /// Probability one resume attempt fails.
    pub fn resume_failure_prob(&self) -> f64 {
        self.resume_failure_prob
    }

    /// Probability one boot attempt fails.
    pub fn boot_failure_prob(&self) -> f64 {
        self.boot_failure_prob
    }

    /// Probability one live migration aborts at completion.
    pub fn migration_failure_prob(&self) -> f64 {
        self.migration_failure_prob
    }

    /// Probability one power transition hangs.
    pub fn hang_prob(&self) -> f64 {
        self.hang_prob
    }

    /// Latency multiplier for a hung transition (≥ 1).
    pub fn hang_factor(&self) -> f64 {
        self.hang_factor
    }

    /// Hosts per rack for correlated bursts (0 = bursts disabled).
    pub fn rack_size(&self) -> usize {
        if self.rack_burst_prob > 0.0 {
            self.rack_size
        } else {
            0
        }
    }

    /// Per-epoch, per-rack probability a burst starts.
    pub fn rack_burst_prob(&self) -> f64 {
        self.rack_burst_prob
    }

    /// How long one rack burst lasts.
    pub fn rack_burst_duration(&self) -> SimDuration {
        self.rack_burst_duration
    }

    /// Whether any failure injection is active.
    pub fn is_active(&self) -> bool {
        self.resume_failure_prob > 0.0
            || self.boot_failure_prob > 0.0
            || self.migration_failure_prob > 0.0
            || self.hang_prob > 0.0
            || self.rack_burst_prob > 0.0
    }
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FailureModel::none().is_active());
        assert!(!FailureModel::default().is_active());
    }

    #[test]
    fn constructor_round_trips() {
        let m = FailureModel::new(0.1, 0.02);
        assert!(m.is_active());
        assert_eq!(m.resume_failure_prob(), 0.1);
        assert_eq!(m.boot_failure_prob(), 0.02);
    }

    #[test]
    fn builders_round_trip() {
        let m = FailureModel::none()
            .with_migration_failures(0.03)
            .with_hangs(0.02, 6.0)
            .with_rack_bursts(8, 0.01, SimDuration::from_secs(600));
        assert!(m.is_active());
        assert_eq!(m.migration_failure_prob(), 0.03);
        assert_eq!(m.hang_prob(), 0.02);
        assert_eq!(m.hang_factor(), 6.0);
        assert_eq!(m.rack_size(), 8);
        assert_eq!(m.rack_burst_prob(), 0.01);
        assert_eq!(m.rack_burst_duration(), SimDuration::from_secs(600));
    }

    #[test]
    fn rack_size_reads_zero_when_bursts_off() {
        // A rack size without a burst probability is inert.
        let m = FailureModel::none().with_rack_bursts(8, 0.0, SimDuration::ZERO);
        assert_eq!(m.rack_size(), 0);
        assert!(!m.is_active());
    }

    #[test]
    fn try_validate_rejects_each_bad_knob() {
        let (none, secs) = (FailureModel::none, SimDuration::from_secs);
        let zero = SimDuration::ZERO;
        for (model, expected) in [
            (FailureModel::new(1.0, 0.0), "outside [0, 1)"),
            (none().with_hangs(0.1, 0.5), "must be >= 1"),
            (none().with_rack_bursts(4, 0.1, zero), "rack burst duration"),
            (FailureModel::new(0.0, f64::NAN), "probability NaN outside"),
            (none().with_migration_failures(-0.1), "probability -0.1"),
            (none().with_hangs(1.0, 4.0), "probability 1 outside"),
            (none().with_rack_bursts(0, 0.1, secs(9)), "rack size must"),
            (none().with_rack_bursts(4, 1.5, secs(60)), "probability 1.5"),
        ] {
            let err = model.try_validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{err} lacks {expected}");
        }
        // Racks matter only while bursts are on: a zero rack size with a
        // zero burst probability is the inert default, not an error.
        let inert = none().with_rack_bursts(0, 0.0, zero);
        assert_eq!((inert.try_validate(), inert.rack_size()), (Ok(()), 0));
        let bursty = none().with_rack_bursts(8, 0.01, secs(600));
        assert_eq!(bursty.try_validate(), Ok(()));
    }
}
