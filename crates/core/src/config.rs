//! Policy and configuration for the manager.

use std::fmt;

use power::breakeven::LowPowerMode;
use simcore::SimDuration;

use crate::{PredictorConfig, RecoveryConfig};

/// A rejected configuration value, returned by the `try_with_*` builder
/// variants on [`ManagerConfig`] and [`RecoveryConfig`] (the `with_*`
/// builders panic with the same message instead).
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

    /// The wake-latency SLO, for the ladder policy.
    pub fn wake_slo(&self) -> Option<SimDuration> {
        match self {
            PowerPolicy::JointLadder { wake_slo } => Some(*wake_slo),
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
    imbalance_threshold: f64,
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
            imbalance_threshold: 0.25,
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
        ManagerConfig::new(policy)
            .with_spare_hosts((num_hosts / 32).max(1))
            .with_max_migrations_per_round((num_vms / 8).max(8))
            .with_max_drains_per_round((num_hosts / 16).max(2))
    }

    /// Sets the consolidation headroom: the manager packs hosts up to this
    /// predicted utilization.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < t <= 1` and `t` stays below the overload
    /// threshold. [`try_with_target_utilization`](Self::try_with_target_utilization)
    /// is the non-panicking variant.
    pub fn with_target_utilization(self, t: f64) -> Self {
        match self.try_with_target_utilization(t) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of
    /// [`with_target_utilization`](Self::with_target_utilization).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] unless `0 < t <= 1`.
    pub fn try_with_target_utilization(mut self, t: f64) -> Result<Self, ConfigError> {
        if !(t > 0.0 && t <= 1.0) {
            return Err(ConfigError::OutOfRange {
                field: "target",
                value: t,
                constraint: "outside (0,1]",
            });
        }
        self.target_utilization = t;
        Ok(self)
    }

    /// Sets the DRM overload trigger.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < t <= 1.5` and it stays above the target.
    /// [`try_with_overload_threshold`](Self::try_with_overload_threshold)
    /// is the non-panicking variant.
    pub fn with_overload_threshold(self, t: f64) -> Self {
        match self.try_with_overload_threshold(t) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of
    /// [`with_overload_threshold`](Self::with_overload_threshold).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] unless `0 < t <= 1.5`.
    pub fn try_with_overload_threshold(mut self, t: f64) -> Result<Self, ConfigError> {
        if !(t > 0.0 && t <= 1.5) {
            return Err(ConfigError::OutOfRange {
                field: "overload threshold",
                value: t,
                constraint: "out of range",
            });
        }
        self.overload_threshold = t;
        Ok(self)
    }

    /// Sets the underload threshold below which a host becomes an
    /// evacuation candidate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= t < 1` and it stays below the target.
    /// [`try_with_underload_threshold`](Self::try_with_underload_threshold)
    /// is the non-panicking variant.
    pub fn with_underload_threshold(self, t: f64) -> Self {
        match self.try_with_underload_threshold(t) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of
    /// [`with_underload_threshold`](Self::with_underload_threshold).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] unless `0 <= t < 1`.
    pub fn try_with_underload_threshold(mut self, t: f64) -> Result<Self, ConfigError> {
        if !(0.0..1.0).contains(&t) {
            return Err(ConfigError::OutOfRange {
                field: "underload threshold",
                value: t,
                constraint: "out of range",
            });
        }
        self.underload_threshold = t;
        Ok(self)
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

    /// Caps migrations emitted per management round.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    /// [`try_with_max_migrations_per_round`](Self::try_with_max_migrations_per_round)
    /// is the non-panicking variant.
    pub fn with_max_migrations_per_round(self, n: usize) -> Self {
        match self.try_with_max_migrations_per_round(n) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of
    /// [`with_max_migrations_per_round`](Self::with_max_migrations_per_round).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] if `n` is zero.
    pub fn try_with_max_migrations_per_round(mut self, n: usize) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::Invalid {
                message: "need at least one migration per round",
            });
        }
        self.max_migrations_per_round = n;
        Ok(self)
    }

    /// Caps hosts newly selected for draining per round.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    /// [`try_with_max_drains_per_round`](Self::try_with_max_drains_per_round)
    /// is the non-panicking variant.
    pub fn with_max_drains_per_round(self, n: usize) -> Self {
        match self.try_with_max_drains_per_round(n) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of
    /// [`with_max_drains_per_round`](Self::with_max_drains_per_round).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] if `n` is zero.
    pub fn try_with_max_drains_per_round(mut self, n: usize) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::Invalid {
                message: "need at least one drain per round",
            });
        }
        self.max_drains_per_round = n;
        Ok(self)
    }

    /// Sets the utilization spread (hottest minus coldest host) beyond
    /// which DRM rebalances even without an overload.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < t <= 1`.
    /// [`try_with_imbalance_threshold`](Self::try_with_imbalance_threshold)
    /// is the non-panicking variant.
    pub fn with_imbalance_threshold(self, t: f64) -> Self {
        match self.try_with_imbalance_threshold(t) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of
    /// [`with_imbalance_threshold`](Self::with_imbalance_threshold).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] unless `0 < t <= 1`.
    pub fn try_with_imbalance_threshold(mut self, t: f64) -> Result<Self, ConfigError> {
        if !(t > 0.0 && t <= 1.0) {
            return Err(ConfigError::OutOfRange {
                field: "imbalance threshold",
                value: t,
                constraint: "out of range",
            });
        }
        self.imbalance_threshold = t;
        Ok(self)
    }

    /// Sets the drain dead-band: the surplus capacity (as a fraction of
    /// one host) that must exist *beyond* the wake trigger before a new
    /// drain starts. Zero disables the dead-band, leaving the hysteresis
    /// timers as the only flap damper (how experiment F11 isolates them).
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    /// [`try_with_drain_deadband`](Self::try_with_drain_deadband) is the
    /// non-panicking variant.
    pub fn with_drain_deadband(self, f: f64) -> Self {
        match self.try_with_drain_deadband(f) {
            Ok(cfg) => cfg,
            Err(e) => panic!("bad {e}"),
        }
    }

    /// Fallible variant of [`with_drain_deadband`](Self::with_drain_deadband).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] if `f` is negative or not
    /// finite.
    pub fn try_with_drain_deadband(mut self, f: f64) -> Result<Self, ConfigError> {
        if !(f.is_finite() && f >= 0.0) {
            return Err(ConfigError::OutOfRange {
                field: "dead-band",
                value: f,
                constraint: "must be finite and non-negative",
            });
        }
        self.drain_deadband_frac = f;
        Ok(self)
    }

    /// Enables proactive pre-waking: capacity decisions also consider the
    /// learned time-of-day demand profile `lookahead` into the future, so
    /// slow boots can be started before a *recurring* ramp arrives.
    /// Choose a lookahead at least as long as the wake transition.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    /// [`try_with_prewake`](Self::try_with_prewake) is the non-panicking
    /// variant.
    pub fn with_prewake(self, lookahead: SimDuration) -> Self {
        match self.try_with_prewake(lookahead) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`with_prewake`](Self::with_prewake).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] if `lookahead` is zero.
    pub fn try_with_prewake(mut self, lookahead: SimDuration) -> Result<Self, ConfigError> {
        if lookahead.is_zero() {
            return Err(ConfigError::Invalid {
                message: "lookahead must be non-zero",
            });
        }
        self.prewake_lookahead = Some(lookahead);
        Ok(self)
    }

    /// Sets the consolidation packing policy.
    pub fn with_packing(mut self, packing: PackingPolicy) -> Self {
        self.packing = packing;
        self
    }

    /// Sets the demand predictor.
    ///
    /// # Panics
    ///
    /// Panics if the predictor configuration is invalid.
    pub fn with_predictor(mut self, p: PredictorConfig) -> Self {
        p.validate();
        self.predictor = p;
        self
    }

    /// Sets the failure-recovery policy (bounded retries, quarantine,
    /// fleet fail-safe). [`RecoveryConfig`]'s own builders validate the
    /// individual knobs.
    pub fn with_recovery(mut self, r: RecoveryConfig) -> Self {
        self.recovery = r;
        self
    }

    /// Checks the cross-field invariants (underload < target < overload).
    /// [`crate::VirtManager::new`] calls this, so an inconsistent
    /// configuration fails fast at manager construction rather than
    /// mid-simulation.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not strictly ordered.
    /// [`try_validate`](Self::try_validate) is the non-panicking variant.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`validate`](Self::validate): checks the
    /// cross-field invariants (underload < target < overload).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Ordering`] if the thresholds are not
    /// strictly ordered.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
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

    /// Drain-selection cap per round.
    pub fn max_drains_per_round(&self) -> usize {
        self.max_drains_per_round
    }

    /// Utilization spread that triggers DRM rebalancing.
    pub fn imbalance_threshold(&self) -> f64 {
        self.imbalance_threshold
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
            .with_max_drains_per_round(4)
            .with_predictor(PredictorConfig::LastValue);
        assert_eq!(cfg.target_utilization(), 0.8);
        assert_eq!(cfg.overload_threshold(), 0.95);
        assert_eq!(cfg.underload_threshold(), 0.3);
        assert_eq!(cfg.min_on_time(), SimDuration::from_mins(20));
        assert_eq!(cfg.spare_hosts(), 2);
        assert_eq!(cfg.max_migrations_per_round(), 16);
        assert_eq!(cfg.max_drains_per_round(), 4);
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
    #[should_panic(expected = "out of range")]
    fn imbalance_threshold_validated() {
        let _ = ManagerConfig::new(PowerPolicy::always_on()).with_imbalance_threshold(0.0);
    }

    #[test]
    #[should_panic(expected = "must be below overload")]
    fn target_above_overload_rejected() {
        ManagerConfig::new(PowerPolicy::always_on())
            .with_target_utilization(0.95)
            .validate();
    }

    #[test]
    #[should_panic(expected = "must be below target")]
    fn underload_above_target_rejected() {
        ManagerConfig::new(PowerPolicy::always_on())
            .with_underload_threshold(0.7)
            .with_target_utilization(0.69)
            .validate();
    }

    #[test]
    fn setter_order_does_not_matter() {
        // Lowering the target below the default underload is fine as long
        // as the final state is consistent.
        let cfg = ManagerConfig::new(PowerPolicy::always_on())
            .with_target_utilization(0.5)
            .with_underload_threshold(0.3)
            .with_overload_threshold(0.9);
        cfg.validate();
    }
}
