//! Power-state transitions and their latency/energy specifications.

use std::fmt;

use simcore::SimDuration;

use crate::PowerState;

/// The host power-state transitions the management layer can request.
///
/// Each moves between two *stable* states via a transitional state:
///
/// | Kind       | From          | Via            | To            |
/// |------------|---------------|----------------|---------------|
/// | `Park`     | `On`          | `Parking`      | `PackageIdle` |
/// | `Unpark`   | `PackageIdle` | `Unparking`    | `On`          |
/// | `Suspend`  | `On`          | `Suspending`   | `Suspended`   |
/// | `Resume`   | `Suspended`   | `Resuming`     | `On`          |
/// | `Shutdown` | `On`          | `ShuttingDown` | `Off`         |
/// | `Boot`     | `Off`         | `Booting`      | `On`          |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransitionKind {
    /// Enter the low-latency suspend-to-RAM (S3-class) state.
    Suspend,
    /// Wake from suspend back to fully operational.
    Resume,
    /// Full power-down to the traditional off (S5-class) state.
    Shutdown,
    /// Cold boot from off to fully operational.
    Boot,
    /// Enter the C6-class package-idle state (cores and uncore power-gated,
    /// context retained on-package — sub-second entry).
    Park,
    /// Leave package idle back to fully operational.
    Unpark,
}

impl TransitionKind {
    /// All transition kinds, for iteration in reports and tables.
    pub const ALL: [TransitionKind; 6] = [
        TransitionKind::Suspend,
        TransitionKind::Resume,
        TransitionKind::Shutdown,
        TransitionKind::Boot,
        TransitionKind::Park,
        TransitionKind::Unpark,
    ];

    /// The stable state this transition starts from.
    pub fn source(self) -> PowerState {
        match self {
            TransitionKind::Suspend | TransitionKind::Shutdown | TransitionKind::Park => {
                PowerState::On
            }
            TransitionKind::Resume => PowerState::Suspended,
            TransitionKind::Boot => PowerState::Off,
            TransitionKind::Unpark => PowerState::PackageIdle,
        }
    }

    /// The transitional state the host occupies while this transition runs.
    pub fn via(self) -> PowerState {
        match self {
            TransitionKind::Suspend => PowerState::Suspending,
            TransitionKind::Resume => PowerState::Resuming,
            TransitionKind::Shutdown => PowerState::ShuttingDown,
            TransitionKind::Boot => PowerState::Booting,
            TransitionKind::Park => PowerState::Parking,
            TransitionKind::Unpark => PowerState::Unparking,
        }
    }

    /// The stable state this transition ends in.
    pub fn target(self) -> PowerState {
        match self {
            TransitionKind::Suspend => PowerState::Suspended,
            TransitionKind::Resume | TransitionKind::Boot | TransitionKind::Unpark => {
                PowerState::On
            }
            TransitionKind::Shutdown => PowerState::Off,
            TransitionKind::Park => PowerState::PackageIdle,
        }
    }

    /// Whether this transition takes the host *out of service*
    /// (`Park`/`Suspend`/`Shutdown`) rather than back into it.
    pub fn is_power_down(self) -> bool {
        matches!(
            self,
            TransitionKind::Suspend | TransitionKind::Shutdown | TransitionKind::Park
        )
    }

    /// The stable state the host lands in when this transition *fails*:
    /// a failed park or suspend aborts harmlessly back to `On`; a failed
    /// unpark or resume loses the retained context and leaves the host
    /// `Off` (a cold boot is then required); failed shutdowns and boots
    /// end `Off`.
    ///
    /// Resume failures are the reliability concern the paper's prototype
    /// work addresses; the simulator injects them via
    /// `dcsim::FailureModel`.
    pub fn failure_target(self) -> PowerState {
        match self {
            TransitionKind::Suspend | TransitionKind::Park => PowerState::On,
            TransitionKind::Resume
            | TransitionKind::Shutdown
            | TransitionKind::Boot
            | TransitionKind::Unpark => PowerState::Off,
        }
    }
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransitionKind::Suspend => "suspend",
            TransitionKind::Resume => "resume",
            TransitionKind::Shutdown => "shutdown",
            TransitionKind::Boot => "boot",
            TransitionKind::Park => "park",
            TransitionKind::Unpark => "unpark",
        };
        f.write_str(s)
    }
}

/// Latency and average power draw of one power-state transition.
///
/// Transition *energy* is derived: `energy_j = latency × avg_power_w`.
/// This mirrors how the paper characterizes its prototypes — a measured
/// wall-clock latency and a measured energy for each action.
///
/// # Example
///
/// ```
/// use power::TransitionSpec;
/// use simcore::SimDuration;
///
/// let resume = TransitionSpec::new(SimDuration::from_secs(12), 180.0);
/// assert_eq!(resume.energy_j(), 12.0 * 180.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionSpec {
    latency: SimDuration,
    avg_power_w: f64,
}

impl TransitionSpec {
    /// Creates a spec from a latency and the average power drawn while the
    /// transition runs.
    ///
    /// # Panics
    ///
    /// Panics if `avg_power_w` is negative or not finite, or if `latency`
    /// is zero (instantaneous transitions hide ordering bugs; use
    /// 1 ms for a "negligible" transition).
    pub fn new(latency: SimDuration, avg_power_w: f64) -> Self {
        assert!(
            avg_power_w.is_finite() && avg_power_w >= 0.0,
            "bad transition power {avg_power_w}"
        );
        assert!(!latency.is_zero(), "transition latency must be non-zero");
        TransitionSpec {
            latency,
            avg_power_w,
        }
    }

    /// Wall-clock latency of the transition.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Average power draw while the transition runs, in watts.
    pub fn avg_power_w(&self) -> f64 {
        self.avg_power_w
    }

    /// Total energy consumed by the transition, in joules.
    pub fn energy_j(&self) -> f64 {
        self.latency.as_secs_f64() * self.avg_power_w
    }
}

/// The set of transitions a host supports, with their specs — the
/// generalized power-state *ladder*.
///
/// `Park`/`Unpark` (C6-class package idle) and `Suspend`/`Resume`
/// (S3-class) are optional rungs: legacy enterprise servers often lack a
/// working suspend-to-RAM path, which is exactly the gap the paper's
/// prototypes close, and package idle is the still-newer rung argued for
/// by AgilePkgC-style work. `Shutdown`/`Boot` (S5-class) are always
/// present. Tables built without package idle are the exact 3-rung
/// special case the original model shipped with.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionTable {
    park: Option<TransitionSpec>,
    unpark: Option<TransitionSpec>,
    suspend: Option<TransitionSpec>,
    resume: Option<TransitionSpec>,
    shutdown: TransitionSpec,
    boot: TransitionSpec,
}

impl TransitionTable {
    /// Builds a table with the suspend/resume and shutdown/boot pairs
    /// (no package idle — the classic 3-rung ladder).
    pub fn with_suspend(
        suspend: TransitionSpec,
        resume: TransitionSpec,
        shutdown: TransitionSpec,
        boot: TransitionSpec,
    ) -> Self {
        TransitionTable {
            park: None,
            unpark: None,
            suspend: Some(suspend),
            resume: Some(resume),
            shutdown,
            boot,
        }
    }

    /// Builds a table for a host without suspend-to-RAM support.
    pub fn without_suspend(shutdown: TransitionSpec, boot: TransitionSpec) -> Self {
        TransitionTable {
            park: None,
            unpark: None,
            suspend: None,
            resume: None,
            shutdown,
            boot,
        }
    }

    /// Adds the package-idle rung: `park` enters it, `unpark` leaves it.
    pub fn with_package_idle(mut self, park: TransitionSpec, unpark: TransitionSpec) -> Self {
        self.park = Some(park);
        self.unpark = Some(unpark);
        self
    }

    /// Looks up the spec for `kind`, or `None` if unsupported.
    pub fn spec(&self, kind: TransitionKind) -> Option<&TransitionSpec> {
        match kind {
            TransitionKind::Suspend => self.suspend.as_ref(),
            TransitionKind::Resume => self.resume.as_ref(),
            TransitionKind::Shutdown => Some(&self.shutdown),
            TransitionKind::Boot => Some(&self.boot),
            TransitionKind::Park => self.park.as_ref(),
            TransitionKind::Unpark => self.unpark.as_ref(),
        }
    }

    /// Whether the suspend/resume pair is available.
    pub fn supports_suspend(&self) -> bool {
        self.suspend.is_some() && self.resume.is_some()
    }

    /// Whether the park/unpark (package-idle) pair is available.
    pub fn supports_package_idle(&self) -> bool {
        self.park.is_some() && self.unpark.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(secs: u64, w: f64) -> TransitionSpec {
        TransitionSpec::new(SimDuration::from_secs(secs), w)
    }

    #[test]
    fn endpoints_are_consistent() {
        for kind in TransitionKind::ALL {
            // A transition's via-state is transitional, endpoints stable.
            assert!(kind.source().is_stable(), "{kind} source");
            assert!(kind.target().is_stable(), "{kind} target");
            assert!(!kind.via().is_stable(), "{kind} via");
        }
        assert_eq!(TransitionKind::Suspend.target(), PowerState::Suspended);
        assert_eq!(TransitionKind::Boot.target(), PowerState::On);
    }

    #[test]
    fn power_down_classification() {
        assert!(TransitionKind::Suspend.is_power_down());
        assert!(TransitionKind::Shutdown.is_power_down());
        assert!(TransitionKind::Park.is_power_down());
        assert!(!TransitionKind::Resume.is_power_down());
        assert!(!TransitionKind::Boot.is_power_down());
        assert!(!TransitionKind::Unpark.is_power_down());
    }

    #[test]
    fn package_idle_endpoints_and_failures() {
        assert_eq!(TransitionKind::Park.source(), PowerState::On);
        assert_eq!(TransitionKind::Park.target(), PowerState::PackageIdle);
        assert_eq!(TransitionKind::Unpark.source(), PowerState::PackageIdle);
        assert_eq!(TransitionKind::Unpark.target(), PowerState::On);
        // A failed park aborts harmlessly; a failed unpark loses context.
        assert_eq!(TransitionKind::Park.failure_target(), PowerState::On);
        assert_eq!(TransitionKind::Unpark.failure_target(), PowerState::Off);
    }

    #[test]
    fn package_idle_rung_is_optional() {
        let three_rung = TransitionTable::with_suspend(
            spec(7, 120.0),
            spec(12, 180.0),
            spec(80, 140.0),
            spec(180, 240.0),
        );
        assert!(!three_rung.supports_package_idle());
        assert!(three_rung.spec(TransitionKind::Park).is_none());

        let ladder = three_rung.with_package_idle(spec(1, 140.0), spec(2, 180.0));
        assert!(ladder.supports_package_idle());
        assert_eq!(
            ladder.spec(TransitionKind::Unpark).unwrap().latency(),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn energy_is_latency_times_power() {
        let s = spec(10, 150.0);
        assert_eq!(s.energy_j(), 1500.0);
        assert_eq!(s.latency(), SimDuration::from_secs(10));
        assert_eq!(s.avg_power_w(), 150.0);
    }

    #[test]
    #[should_panic(expected = "latency must be non-zero")]
    fn zero_latency_rejected() {
        TransitionSpec::new(SimDuration::ZERO, 100.0);
    }

    #[test]
    fn table_lookup_and_support() {
        let full = TransitionTable::with_suspend(
            spec(7, 120.0),
            spec(12, 180.0),
            spec(80, 140.0),
            spec(180, 220.0),
        );
        assert!(full.supports_suspend());
        assert_eq!(
            full.spec(TransitionKind::Resume).unwrap().latency(),
            SimDuration::from_secs(12)
        );

        let legacy = TransitionTable::without_suspend(spec(80, 140.0), spec(240, 220.0));
        assert!(!legacy.supports_suspend());
        assert!(legacy.spec(TransitionKind::Suspend).is_none());
        assert!(legacy.spec(TransitionKind::Boot).is_some());
    }

    #[test]
    fn display_names() {
        assert_eq!(TransitionKind::Suspend.to_string(), "suspend");
        assert_eq!(TransitionKind::Boot.to_string(), "boot");
    }
}
