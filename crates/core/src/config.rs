//! Policy and configuration for the manager.

use std::fmt;

use power::breakeven::LowPowerMode;
use simcore::SimDuration;

use crate::{PredictorConfig, RecoveryConfig};

/// A rejected configuration value, returned by
/// [`ManagerConfig::try_validate`] and the checks it runs on its nested
/// [`RecoveryConfig`] and [`PredictorConfig`] (the `with_*` setters only
/// store).
///
/// Marked `#[non_exhaustive]`: more variants may appear as knobs grow
/// validation, so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A scalar knob is outside its allowed range.
    OutOfRange {
        /// Which knob was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The constraint it violated, e.g. `"outside (0,1]"`.
        constraint: &'static str,
    },
    /// Two knobs must be strictly ordered and are not.
    Ordering {
        /// Name of the knob that must be smaller.
        lower: &'static str,
        /// Its value.
        lower_value: f64,
        /// Name of the knob that must be larger.
        upper: &'static str,
        /// Its value.
        upper_value: f64,
    },
    /// A structural constraint failed (zero count, zero window, …).
    Invalid {
        /// What was wrong, as a complete sentence fragment.
        message: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange {
                field,
                value,
                constraint,
            } => write!(f, "{field} {value} {constraint}"),
            ConfigError::Ordering {
                lower,
                lower_value,
                upper,
                upper_value,
            } => write!(
                f,
                "{lower} {lower_value} must be below {upper} {upper_value}"
            ),
            ConfigError::Invalid { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How consolidation picks destinations when evacuating a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingPolicy {
    /// Best-fit decreasing: place each VM on the feasible host with the
    /// *highest* resulting utilization — packs tightest, frees the most
    /// hosts (the default, and what the paper's consolidation needs).
    #[default]
    BestFit,
    /// Worst-fit: place on the *least* loaded feasible host — spreads
    /// load (lower queueing stretch) at the cost of freeing fewer hosts.
    /// The T24 ablation's comparison point.
    LeastLoaded,
}

/// Which power-management regime the manager runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerPolicy {
    /// Base DRM only: load balancing via migration, every host stays on.
    /// This is the widely-deployed baseline whose *overheads* power
    /// management must match.
    AlwaysOn,
    /// DRM plus reactive consolidation and power cycling through `mode` —
    /// `Suspend` is the paper's proposal, `Off` the traditional
    /// comparison point.
    Reactive {
        /// Low-power state to park evacuated hosts in.
        mode: LowPowerMode,
    },
    /// The analytic energy-proportionality bound: no manager runs; the
    /// simulator computes the ideal power directly from offered load.
    Oracle,
    /// Joint sleep + speed scaling over the full C6→S3→S5 power-state
    /// ladder: each round the manager parks every drained host on the
    /// *deepest* rung whose wake latency fits `wake_slo` (and whose
    /// break-even gap the demand forecast affords), keeps a warm pool of
    /// shallow-rung hosts sized ahead of forecast ramps, and wakes
    /// shallowest-first. Pair with a DVFS-attached ladder profile for the
    /// full joint policy (speed scaling is then implicit in the `On`-state
    /// power model).
    JointLadder {
        /// Upper bound on the wake latency of any rung a host may be
        /// parked in — the latency SLO the fleet must honour when demand
        /// ramps.
        wake_slo: SimDuration,
    },
}

impl PowerPolicy {
    /// Base DRM, no power management.
    pub fn always_on() -> Self {
        PowerPolicy::AlwaysOn
    }

    /// The paper's proposal: consolidation with S3-class suspend.
    pub fn reactive_suspend() -> Self {
        PowerPolicy::Reactive {
            mode: LowPowerMode::Suspend,
        }
    }

    /// The traditional alternative: consolidation with S5-class off.
    pub fn reactive_off() -> Self {
        PowerPolicy::Reactive {
            mode: LowPowerMode::Off,
        }
    }

    /// The analytic proportional bound.
    pub fn oracle() -> Self {
        PowerPolicy::Oracle
    }

    /// Joint ladder + DVFS policy against a wake-latency SLO.
    pub fn joint_ladder(wake_slo: SimDuration) -> Self {
        PowerPolicy::JointLadder { wake_slo }
    }

    /// The *fixed* low-power mode used by this policy, if it power-manages
    /// with one. [`PowerPolicy::JointLadder`] answers `None`: it chooses a
    /// rung per host per round.
    pub fn low_power_mode(&self) -> Option<LowPowerMode> {
        match self {
            PowerPolicy::Reactive { mode } => Some(*mode),
            _ => None,
        }
    }

    /// Whether this policy consolidates and power-cycles hosts.
    pub fn is_power_managed(&self) -> bool {
        matches!(
            self,
            PowerPolicy::Reactive { .. } | PowerPolicy::JointLadder { .. }
        )
    }

    /// A short stable label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            PowerPolicy::AlwaysOn => "AlwaysOn",
            PowerPolicy::Reactive {
                mode: LowPowerMode::PackageIdle,
            } => "PM-Park(C6)",
            PowerPolicy::Reactive {
                mode: LowPowerMode::Suspend,
            } => "PM-Suspend(S3)",
            PowerPolicy::Reactive {
                mode: LowPowerMode::Off,
            } => "PM-OffOn(S5)",
            PowerPolicy::Oracle => "Oracle",
            PowerPolicy::JointLadder { .. } => "Joint-Ladder",
        }
    }
}

/// All knobs of the management loop.
///
/// Defaults follow the paper's operating point; the sensitivity
/// experiments (F10, F11, T12) sweep individual fields via the builder
/// methods.
///
/// # Example
///
/// ```
/// use agile_core::{ManagerConfig, PowerPolicy, PredictorConfig};
/// use simcore::SimDuration;
///
/// let cfg = ManagerConfig::new(PowerPolicy::reactive_suspend())
///     .with_target_utilization(0.8)
///     .with_min_on_time(SimDuration::from_mins(2))
///     .with_predictor(PredictorConfig::LastValue);
/// assert_eq!(cfg.target_utilization(), 0.8);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerConfig {
    policy: PowerPolicy,
    target_utilization: f64,
    overload_threshold: f64,
    underload_threshold: f64,
    min_on_time: SimDuration,
    min_off_time: SimDuration,
    spare_hosts: usize,
    max_migrations_per_round: usize,
    max_drains_per_round: usize,
    drain_deadband_frac: f64,
    prewake_lookahead: Option<SimDuration>,
    packing: PackingPolicy,
    predictor: PredictorConfig,
    recovery: RecoveryConfig,
}

impl ManagerConfig {
    /// Creates a configuration with the paper's default operating point,
    /// sized for a small cluster. For larger fleets prefer
    /// [`for_fleet`](Self::for_fleet), which scales the per-round action
    /// caps.
    pub fn new(policy: PowerPolicy) -> Self {
        ManagerConfig {
            policy,
            target_utilization: 0.75,
            overload_threshold: 0.90,
            underload_threshold: 0.65,
            min_on_time: SimDuration::from_mins(10),
            min_off_time: SimDuration::from_mins(5),
            spare_hosts: 1,
            max_migrations_per_round: 8,
            max_drains_per_round: 2,
            drain_deadband_frac: 0.5,
            prewake_lookahead: None,
            packing: PackingPolicy::default(),
            predictor: PredictorConfig::default(),
            recovery: RecoveryConfig::new(),
        }
    }

    /// Creates a configuration whose per-round action caps and spare pool
    /// scale with fleet size, so consolidation keeps pace with the demand
    /// swing on large clusters.
    pub fn for_fleet(policy: PowerPolicy, num_hosts: usize, num_vms: usize) -> Self {
        ManagerConfig {
            max_drains_per_round: (num_hosts / 16).max(2),
            ..ManagerConfig::new(policy)
                .with_spare_hosts((num_hosts / 32).max(1))
                .with_max_migrations_per_round((num_vms / 8).max(8))
        }
    }

    /// Sets the consolidation headroom: the manager packs hosts up to this
    /// predicted utilization, in `(0, 1]` and below the overload
    /// threshold.
    pub fn with_target_utilization(mut self, t: f64) -> Self {
        self.target_utilization = t;
        self
    }

    /// Sets the DRM overload trigger, in `(0, 1.5]` and above the target.
    pub fn with_overload_threshold(mut self, t: f64) -> Self {
        self.overload_threshold = t;
        self
    }

    /// Sets the underload threshold below which a host becomes an
    /// evacuation candidate, in `[0, 1)` and below the target.
    pub fn with_underload_threshold(mut self, t: f64) -> Self {
        self.underload_threshold = t;
        self
    }

    /// Sets the minimum in-service residency before a host may be drained.
    pub fn with_min_on_time(mut self, d: SimDuration) -> Self {
        self.min_on_time = d;
        self
    }

    /// Sets the minimum parked residency before a non-urgent wake.
    pub fn with_min_off_time(mut self, d: SimDuration) -> Self {
        self.min_off_time = d;
        self
    }

    /// Sets the number of spare powered-on hosts kept beyond predicted
    /// need.
    pub fn with_spare_hosts(mut self, n: usize) -> Self {
        self.spare_hosts = n;
        self
    }

    /// Caps migrations emitted per management round (at least one).
    pub fn with_max_migrations_per_round(mut self, n: usize) -> Self {
        self.max_migrations_per_round = n;
        self
    }

    /// Sets the drain dead-band: the surplus capacity (as a fraction of
    /// one host) that must exist *beyond* the wake trigger before a new
    /// drain starts. Zero disables the dead-band, leaving the hysteresis
    /// timers as the only flap damper (how experiment F11 isolates them).
    /// Must be finite and non-negative.
    pub fn with_drain_deadband(mut self, f: f64) -> Self {
        self.drain_deadband_frac = f;
        self
    }

    /// Enables proactive pre-waking: capacity decisions also consider the
    /// learned time-of-day demand profile `lookahead` (non-zero) into the
    /// future, so slow boots can be started before a *recurring* ramp
    /// arrives. Choose a lookahead at least as long as the wake
    /// transition.
    pub fn with_prewake(mut self, lookahead: SimDuration) -> Self {
        self.prewake_lookahead = Some(lookahead);
        self
    }

    /// Sets the consolidation packing policy.
    pub fn with_packing(mut self, packing: PackingPolicy) -> Self {
        self.packing = packing;
        self
    }

    /// Sets the demand predictor.
    pub fn with_predictor(mut self, p: PredictorConfig) -> Self {
        self.predictor = p;
        self
    }

    /// Sets the failure-recovery policy (bounded retries, quarantine,
    /// fleet fail-safe).
    pub fn with_recovery(mut self, r: RecoveryConfig) -> Self {
        self.recovery = r;
        self
    }

    /// Checks every knob: each one's range in field order (the nested
    /// predictor and recovery configurations included), then the
    /// threshold order underload < target < overload. The setters only
    /// store, so [`crate::VirtManager::new`] and the simulator's builder
    /// call this before a run starts.
    ///
    /// # Errors
    ///
    /// The first violation: [`ConfigError::OutOfRange`] or
    /// [`ConfigError::Invalid`] for a knob outside its range,
    /// [`ConfigError::Ordering`] if the thresholds are not strictly
    /// ordered.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let out_of_range = |field, value: f64, constraint| {
            Err(ConfigError::OutOfRange {
                field,
                value,
                constraint,
            })
        };
        let t = self.target_utilization;
        if !(t > 0.0 && t <= 1.0) {
            return out_of_range("target", t, "outside (0,1]");
        }
        let t = self.overload_threshold;
        if !(t > 0.0 && t <= 1.5) {
            return out_of_range("overload threshold", t, "out of range");
        }
        let t = self.underload_threshold;
        if !(0.0..1.0).contains(&t) {
            return out_of_range("underload threshold", t, "out of range");
        }
        if self.max_migrations_per_round == 0 {
            return Err(ConfigError::Invalid {
                message: "need at least one migration per round",
            });
        }
        let f = self.drain_deadband_frac;
        if !(f.is_finite() && f >= 0.0) {
            return out_of_range("dead-band", f, "must be finite and non-negative");
        }
        if self.prewake_lookahead.is_some_and(|d| d.is_zero()) {
            return Err(ConfigError::Invalid {
                message: "lookahead must be non-zero",
            });
        }
        self.predictor.try_validate()?;
        self.recovery.try_validate()?;
        if self.underload_threshold >= self.target_utilization {
            return Err(ConfigError::Ordering {
                lower: "underload",
                lower_value: self.underload_threshold,
                upper: "target",
                upper_value: self.target_utilization,
            });
        }
        if self.target_utilization >= self.overload_threshold {
            return Err(ConfigError::Ordering {
                lower: "target",
                lower_value: self.target_utilization,
                upper: "overload",
                upper_value: self.overload_threshold,
            });
        }
        Ok(())
    }

    /// The power policy.
    pub fn policy(&self) -> &PowerPolicy {
        &self.policy
    }

    /// Consolidation headroom target.
    pub fn target_utilization(&self) -> f64 {
        self.target_utilization
    }

    /// DRM overload trigger.
    pub fn overload_threshold(&self) -> f64 {
        self.overload_threshold
    }

    /// Evacuation-candidate threshold.
    pub fn underload_threshold(&self) -> f64 {
        self.underload_threshold
    }

    /// Minimum in-service residency before draining.
    pub fn min_on_time(&self) -> SimDuration {
        self.min_on_time
    }

    /// Minimum parked residency before non-urgent wake.
    pub fn min_off_time(&self) -> SimDuration {
        self.min_off_time
    }

    /// Spare powered-on hosts kept beyond predicted need.
    pub fn spare_hosts(&self) -> usize {
        self.spare_hosts
    }

    /// Migration cap per round.
    pub fn max_migrations_per_round(&self) -> usize {
        self.max_migrations_per_round
    }

    /// Drain-selection cap per round: 2, or one per 16 hosts from
    /// [`for_fleet`](Self::for_fleet).
    pub fn max_drains_per_round(&self) -> usize {
        self.max_drains_per_round
    }

    /// Drain dead-band as a fraction of one host's capacity.
    pub fn drain_deadband_frac(&self) -> f64 {
        self.drain_deadband_frac
    }

    /// Pre-wake lookahead window, if proactive pre-waking is enabled.
    pub fn prewake_lookahead(&self) -> Option<SimDuration> {
        self.prewake_lookahead
    }

    /// The consolidation packing policy.
    pub fn packing(&self) -> PackingPolicy {
        self.packing
    }

    /// The demand predictor configuration.
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// The failure-recovery policy.
    pub fn recovery(&self) -> &RecoveryConfig {
        &self.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(PowerPolicy::always_on().label(), "AlwaysOn");
        assert_eq!(PowerPolicy::reactive_suspend().label(), "PM-Suspend(S3)");
        assert_eq!(PowerPolicy::reactive_off().label(), "PM-OffOn(S5)");
        assert_eq!(PowerPolicy::oracle().label(), "Oracle");
    }

    #[test]
    fn low_power_mode_mapping() {
        assert_eq!(
            PowerPolicy::reactive_suspend().low_power_mode(),
            Some(LowPowerMode::Suspend)
        );
        assert_eq!(PowerPolicy::always_on().low_power_mode(), None);
        assert_eq!(PowerPolicy::oracle().low_power_mode(), None);
    }

    #[test]
    fn builder_round_trips() {
        let cfg = ManagerConfig::new(PowerPolicy::reactive_off())
            .with_target_utilization(0.8)
            .with_overload_threshold(0.95)
            .with_underload_threshold(0.3)
            .with_min_on_time(SimDuration::from_mins(20))
            .with_min_off_time(SimDuration::from_mins(1))
            .with_spare_hosts(2)
            .with_max_migrations_per_round(16)
            .with_predictor(PredictorConfig::LastValue);
        assert_eq!(cfg.target_utilization(), 0.8);
        assert_eq!(cfg.overload_threshold(), 0.95);
        assert_eq!(cfg.underload_threshold(), 0.3);
        assert_eq!(cfg.min_on_time(), SimDuration::from_mins(20));
        assert_eq!(cfg.spare_hosts(), 2);
        assert_eq!(cfg.max_migrations_per_round(), 16);
        assert_eq!(cfg.predictor(), PredictorConfig::LastValue);
    }

    #[test]
    fn for_fleet_scales_caps() {
        let small = ManagerConfig::for_fleet(PowerPolicy::reactive_suspend(), 8, 32);
        assert_eq!(small.spare_hosts(), 1);
        assert_eq!(small.max_migrations_per_round(), 8);
        assert_eq!(small.max_drains_per_round(), 2);
        let big = ManagerConfig::for_fleet(PowerPolicy::reactive_suspend(), 512, 3072);
        assert_eq!(big.spare_hosts(), 16);
        assert_eq!(big.max_migrations_per_round(), 384);
        assert_eq!(big.max_drains_per_round(), 32);
    }

    #[test]
    fn try_validate_rejects_each_bad_knob() {
        let c = || ManagerConfig::new(PowerPolicy::always_on());
        let window_0 = PredictorConfig::WindowMax { window: 0 };
        let no_retry = RecoveryConfig::new().with_max_retries(0);
        for (cfg, expected) in [
            (c().with_target_utilization(0.95), "must be below overload"),
            (c().with_target_utilization(0.6), "must be below target"),
            (c().with_target_utilization(1.2), "target 1.2 outside (0,1]"),
            (c().with_overload_threshold(1.6), "threshold 1.6 out of"),
            (c().with_underload_threshold(1.0), "threshold 1 out of"),
            (c().with_max_migrations_per_round(0), "one migration per"),
            (c().with_drain_deadband(-1.0), "dead-band -1 must be"),
            (c().with_prewake(SimDuration::ZERO), "lookahead must be"),
            (c().with_predictor(window_0), "window must be positive"),
            (c().with_recovery(no_retry), "one retry before"),
        ] {
            let err = cfg.try_validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{err} lacks {expected}");
        }
    }

    #[test]
    fn setter_order_does_not_matter() {
        // Lowering the target below the default underload is fine as long
        // as the final state is consistent.
        let cfg = ManagerConfig::new(PowerPolicy::always_on())
            .with_target_utilization(0.5)
            .with_underload_threshold(0.3)
            .with_overload_threshold(0.9);
        assert_eq!(cfg.try_validate(), Ok(()));
    }
}
