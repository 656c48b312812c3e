//! Host power profiles: curve + state powers + transition table.
//!
//! The presets are calibrated to the hardware class of the paper's
//! prototypes (2013-era 2U rack and blade enterprise servers). The key
//! quantitative relationships the evaluation depends on are preserved:
//!
//! * idle power is ~half of peak (the proportionality gap),
//! * the S3-class suspended state draws a few percent of idle power,
//! * suspend/resume complete in seconds, one to two orders of magnitude
//!   faster and cheaper than the shutdown/boot cycle,
//! * a cold boot burns minutes of near-peak power.

use std::fmt;

use simcore::SimDuration;

use crate::{
    ConfigError, DvfsModel, PowerCurve, PowerState, PsuModel, TransitionKind, TransitionSpec,
    TransitionTable,
};

/// A named, immutable description of one server model's power behaviour.
///
/// # Example
///
/// ```
/// use power::{HostPowerProfile, PowerState};
///
/// let p = HostPowerProfile::prototype_rack();
/// assert!(p.supports_suspend());
/// // Suspended draw is a few percent of idle draw.
/// assert!(p.suspend_power_w() < 0.1 * p.curve().idle_w());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HostPowerProfile {
    name: String,
    curve: PowerCurve,
    suspend_power_w: f64,
    off_power_w: f64,
    package_idle_power_w: Option<f64>,
    transitions: TransitionTable,
    psu: Option<PsuModel>,
    dvfs: Option<DvfsModel>,
}

impl HostPowerProfile {
    /// Builds a custom profile. Both low-power draws must be finite,
    /// non-negative and at most the curve's idle power;
    /// [`try_validate`](Self::try_validate) checks them.
    pub fn new(
        name: impl Into<String>,
        curve: PowerCurve,
        suspend_power_w: f64,
        off_power_w: f64,
        transitions: TransitionTable,
    ) -> Self {
        HostPowerProfile {
            name: name.into(),
            curve,
            suspend_power_w,
            off_power_w,
            package_idle_power_w: None,
            transitions,
            psu: None,
            dvfs: None,
        }
    }

    /// Checks each low-power draw is finite and non-negative (suspend,
    /// off, then package idle), then that none exceeds the curve's idle
    /// power (a "low-power" state that draws more than idle indicates a
    /// configuration error), then the attached DVFS model, if any.
    ///
    /// # Errors
    ///
    /// The first violation as a [`ConfigError`].
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let draws = [
            ("suspend power", Some(self.suspend_power_w)),
            ("off power", Some(self.off_power_w)),
            ("package-idle power", self.package_idle_power_w),
        ];
        for (field, draw) in draws {
            if let Some(value) = draw.filter(|w| !w.is_finite() || *w < 0.0) {
                return Err(ConfigError::OutOfRange {
                    field,
                    value,
                    constraint: "must be finite and >= 0",
                });
            }
        }
        let idle_w = self.curve.idle_w();
        if draws
            .iter()
            .any(|(_, draw)| draw.is_some_and(|w| w > idle_w))
        {
            return Err(ConfigError::Invalid {
                message: "low-power draw exceeds idle draw",
            });
        }
        self.dvfs.as_ref().map_or(Ok(()), DvfsModel::try_validate)
    }

    /// Attaches a PSU conversion-loss model: all powers reported by
    /// [`state_power_w`](Self::state_power_w) become AC wall powers. Use
    /// this when the profile's curve and state powers were specified on
    /// the DC side; the built-in prototype presets are already calibrated
    /// as wall measurements and need no PSU.
    pub fn with_psu(mut self, psu: PsuModel) -> Self {
        self.name = format!("{}+psu", self.name);
        self.psu = Some(psu);
        self
    }

    /// Adds the C6-class package-idle rung: resting draw `power_w`, with
    /// `park`/`unpark` transitions. The rung sits between `On` and
    /// `Suspended` on the ladder — it must draw less than idle.
    pub fn with_package_idle(
        mut self,
        power_w: f64,
        park: TransitionSpec,
        unpark: TransitionSpec,
    ) -> Self {
        self.name = format!("{}+c6", self.name);
        self.package_idle_power_w = Some(power_w);
        self.transitions = self.transitions.with_package_idle(park, unpark);
        self
    }

    /// Attaches a DVFS model: while `On`, the host is assumed to run at
    /// the lowest sufficient frequency for its utilization, so the
    /// `On`-state power reported by [`state_power_w`](Self::state_power_w)
    /// becomes [`DvfsModel::best_power_w`] over the profile's curve. The
    /// built-in presets attach no DVFS model, leaving their `On` draw
    /// exactly on the nominal curve.
    pub fn with_dvfs(mut self, dvfs: DvfsModel) -> Self {
        self.name = format!("{}+dvfs", self.name);
        self.dvfs = Some(dvfs);
        self
    }

    /// The paper's main prototype class: a 2U rack server with a working
    /// low-latency suspend-to-RAM path.
    ///
    /// Calibration: idle 155 W / peak 315 W (linear), S3 draw 8.5 W, off
    /// standby 4.5 W; suspend 7 s @ 120 W, resume 12 s @ 180 W; shutdown
    /// 80 s @ 140 W, boot 180 s @ 240 W.
    pub fn prototype_rack() -> Self {
        HostPowerProfile::new(
            "prototype-rack-s3",
            PowerCurve::linear(155.0, 315.0),
            8.5,
            4.5,
            TransitionTable::with_suspend(
                TransitionSpec::new(SimDuration::from_secs(7), 120.0),
                TransitionSpec::new(SimDuration::from_secs(12), 180.0),
                TransitionSpec::new(SimDuration::from_secs(80), 140.0),
                TransitionSpec::new(SimDuration::from_secs(180), 240.0),
            ),
        )
    }

    /// The paper's blade prototype class: lower absolute power, slightly
    /// faster transitions.
    pub fn prototype_blade() -> Self {
        HostPowerProfile::new(
            "prototype-blade-s3",
            PowerCurve::linear(95.0, 210.0),
            6.0,
            3.0,
            TransitionTable::with_suspend(
                TransitionSpec::new(SimDuration::from_secs(6), 85.0),
                TransitionSpec::new(SimDuration::from_secs(10), 130.0),
                TransitionSpec::new(SimDuration::from_secs(70), 100.0),
                TransitionSpec::new(SimDuration::from_secs(150), 170.0),
            ),
        )
    }

    /// The rack prototype with a SPECpower-style *sub-linear* curve:
    /// power rises steeply at low utilization and flattens toward peak
    /// (same idle/peak endpoints and transitions as
    /// [`prototype_rack`](Self::prototype_rack)). Used by the curve-shape
    /// ablation (F16): the steeper the low-util region, the more
    /// consolidation pays.
    pub fn prototype_rack_sublinear() -> Self {
        let base = Self::prototype_rack();
        HostPowerProfile::new(
            "prototype-rack-s3-sublinear",
            PowerCurve::piecewise(vec![
                (0.0, 155.0),
                (0.1, 200.0),
                (0.25, 235.0),
                (0.5, 270.0),
                (0.75, 295.0),
                (1.0, 315.0),
            ]),
            base.suspend_power_w(),
            base.off_power_w(),
            base.transitions().clone(),
        )
    }

    /// The rack prototype with a *super-linear* (convex) curve: power
    /// stays near idle until high utilization (same endpoints and
    /// transitions as [`prototype_rack`](Self::prototype_rack)). The
    /// other pole of the F16 curve-shape ablation.
    pub fn prototype_rack_superlinear() -> Self {
        let base = Self::prototype_rack();
        HostPowerProfile::new(
            "prototype-rack-s3-superlinear",
            PowerCurve::piecewise(vec![
                (0.0, 155.0),
                (0.25, 170.0),
                (0.5, 195.0),
                (0.75, 240.0),
                (1.0, 315.0),
            ]),
            base.suspend_power_w(),
            base.off_power_w(),
            base.transitions().clone(),
        )
    }

    /// The rack prototype extended with a C6-class package-idle rung: the
    /// full C6→S3→S5 ladder. Calibration follows AgilePkgC-style package
    /// idle: resting draw 45 W (well below the 155 W idle floor, well
    /// above the 8.5 W S3 draw), sub-second entry (0.5 s @ 140 W) and a
    /// 2 s @ 180 W wake — an order of magnitude faster than the 12 s S3
    /// resume, which is itself an order faster than the 180 s boot.
    pub fn prototype_rack_ladder() -> Self {
        let mut p = Self::prototype_rack().with_package_idle(
            45.0,
            TransitionSpec::new(SimDuration::from_millis(500), 140.0),
            TransitionSpec::new(SimDuration::from_secs(2), 180.0),
        );
        p.name = "prototype-rack-ladder".into();
        p
    }

    /// The blade prototype extended with a package-idle rung (28 W
    /// resting, 0.4 s @ 100 W park, 1.5 s @ 130 W unpark).
    pub fn prototype_blade_ladder() -> Self {
        let mut p = Self::prototype_blade().with_package_idle(
            28.0,
            TransitionSpec::new(SimDuration::from_millis(400), 100.0),
            TransitionSpec::new(SimDuration::from_millis(1500), 130.0),
        );
        p.name = "prototype-blade-ladder".into();
        p
    }

    /// A legacy enterprise server *without* a usable suspend path — the
    /// status quo the paper argues against. Only shutdown/boot available,
    /// and the boot is slow.
    pub fn legacy_rack() -> Self {
        HostPowerProfile::new(
            "legacy-rack",
            PowerCurve::linear(155.0, 315.0),
            8.5, // state power is defined but unreachable: no suspend transition
            4.5,
            TransitionTable::without_suspend(
                TransitionSpec::new(SimDuration::from_secs(90), 140.0),
                TransitionSpec::new(SimDuration::from_secs(240), 240.0),
            ),
        )
    }

    /// A copy of this profile with the resume latency replaced — used by the
    /// wake-latency sensitivity sweep (experiment F7).
    ///
    /// # Panics
    ///
    /// Panics if the profile does not support suspend.
    pub fn with_resume_latency(&self, latency: SimDuration) -> Self {
        let t = &self.transitions;
        let suspend = *t
            .spec(TransitionKind::Suspend)
            .expect("profile must support suspend");
        let resume = t
            .spec(TransitionKind::Resume)
            .expect("suspend implies resume");
        let mut p = self.clone();
        p.name = format!("{}+resume{}", self.name, latency);
        p.transitions = TransitionTable::with_suspend(
            suspend,
            TransitionSpec::new(latency, resume.avg_power_w()),
            *t.spec(TransitionKind::Shutdown).expect("always present"),
            *t.spec(TransitionKind::Boot).expect("always present"),
        );
        p
    }

    /// Model name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The utilization→power curve used while `On`.
    pub fn curve(&self) -> &PowerCurve {
        &self.curve
    }

    /// Draw in the S3-class suspended state, watts.
    pub fn suspend_power_w(&self) -> f64 {
        self.suspend_power_w
    }

    /// Standby draw in the off state, watts.
    pub fn off_power_w(&self) -> f64 {
        self.off_power_w
    }

    /// Resting draw in the C6-class package-idle state, watts — `None` if
    /// the profile has no package-idle rung.
    pub fn package_idle_power_w(&self) -> Option<f64> {
        self.package_idle_power_w
    }

    /// The transition table.
    pub fn transitions(&self) -> &TransitionTable {
        &self.transitions
    }

    /// Whether the suspend/resume pair is available.
    pub fn supports_suspend(&self) -> bool {
        self.transitions.supports_suspend()
    }

    /// Power draw in `state` at utilization `util` (only `On` uses
    /// `util`). If a PSU model is attached, this is AC wall power;
    /// otherwise it is whatever side the profile was calibrated on.
    pub fn state_power_w(&self, state: PowerState, util: f64) -> f64 {
        let dc = self.state_power_dc_w(state, util);
        match &self.psu {
            Some(psu) => psu.wall_power_w(dc),
            None => dc,
        }
    }

    /// The pre-PSU (DC-side) draw in `state` at utilization `util`.
    fn state_power_dc_w(&self, state: PowerState, util: f64) -> f64 {
        match state {
            PowerState::On => match &self.dvfs {
                Some(dvfs) => dvfs.best_power_w(&self.curve, util),
                None => self.curve.power_at(util),
            },
            PowerState::Suspended => self.suspend_power_w,
            PowerState::Off => self.off_power_w,
            // Only reachable with a package-idle rung configured; the
            // idle-floor fallback covers ad-hoc queries on 3-rung profiles.
            PowerState::PackageIdle => self.package_idle_power_w.unwrap_or(self.curve.idle_w()),
            // Transitional power is whatever the in-flight spec says; the
            // state machine overrides the meter directly during
            // transitions, so this path only matters for ad-hoc queries.
            PowerState::Suspending | PowerState::Resuming => self
                .transitions
                .spec(TransitionKind::Suspend)
                .map_or(self.curve.idle_w(), |s| s.avg_power_w()),
            PowerState::ShuttingDown | PowerState::Booting => self
                .transitions
                .spec(TransitionKind::Boot)
                .map_or(self.curve.idle_w(), |s| s.avg_power_w()),
            PowerState::Parking | PowerState::Unparking => self
                .transitions
                .spec(TransitionKind::Park)
                .map_or(self.curve.idle_w(), |s| s.avg_power_w()),
        }
    }
}

impl fmt::Display for HostPowerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (idle {:.0} W, peak {:.0} W, suspend {:.1} W, off {:.1} W)",
            self.name,
            self.curve.idle_w(),
            self.curve.peak_w(),
            self.suspend_power_w,
            self.off_power_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakeven::{LadderSummary, LowPowerMode};

    #[test]
    fn prototype_preserves_paper_relationships() {
        let p = HostPowerProfile::prototype_rack();
        // Idle is roughly half of peak.
        let frac = p.curve().idle_fraction();
        assert!((0.4..0.6).contains(&frac), "idle fraction {frac}");
        // Suspended draw is a few percent of idle.
        assert!(p.suspend_power_w() < 0.1 * p.curve().idle_w());
        // Suspend+resume is >10x faster than shutdown+boot.
        let t = p.transitions();
        let s3_cycle = t.spec(TransitionKind::Suspend).unwrap().latency()
            + t.spec(TransitionKind::Resume).unwrap().latency();
        let s5_cycle = t.spec(TransitionKind::Shutdown).unwrap().latency()
            + t.spec(TransitionKind::Boot).unwrap().latency();
        assert!(s5_cycle.as_secs_f64() > 10.0 * s3_cycle.as_secs_f64());
        // ...and >10x cheaper in energy.
        let s3_energy = t.spec(TransitionKind::Suspend).unwrap().energy_j()
            + t.spec(TransitionKind::Resume).unwrap().energy_j();
        let s5_energy = t.spec(TransitionKind::Shutdown).unwrap().energy_j()
            + t.spec(TransitionKind::Boot).unwrap().energy_j();
        assert!(s5_energy > 10.0 * s3_energy);
    }

    #[test]
    fn legacy_has_no_suspend() {
        let p = HostPowerProfile::legacy_rack();
        assert!(!p.supports_suspend());
    }

    #[test]
    fn state_power_dispatch() {
        let p = HostPowerProfile::prototype_rack();
        assert_eq!(p.state_power_w(PowerState::On, 1.0), 315.0);
        assert_eq!(p.state_power_w(PowerState::Suspended, 1.0), 8.5);
        assert_eq!(p.state_power_w(PowerState::Off, 1.0), 4.5);
    }

    #[test]
    fn with_resume_latency_overrides_only_resume() {
        let p = HostPowerProfile::prototype_rack();
        let q = p.with_resume_latency(SimDuration::from_secs(99));
        assert_eq!(
            q.transitions()
                .spec(TransitionKind::Resume)
                .unwrap()
                .latency(),
            SimDuration::from_secs(99)
        );
        assert_eq!(
            q.transitions()
                .spec(TransitionKind::Suspend)
                .unwrap()
                .latency(),
            p.transitions()
                .spec(TransitionKind::Suspend)
                .unwrap()
                .latency()
        );
        assert_ne!(q.name(), p.name());
    }

    #[test]
    fn ladder_preset_orders_rungs_shallow_to_deep() {
        let p = HostPowerProfile::prototype_rack_ladder();
        assert!(p.transitions().supports_package_idle());
        let ladder: Vec<_> = LadderSummary::of(&p).rungs().collect();
        let modes: Vec<_> = ladder.iter().map(|&(mode, _)| mode).collect();
        assert_eq!(modes, LowPowerMode::ALL);
        // Deeper rung ⇒ lower resting power, longer wake.
        for pair in ladder.windows(2) {
            let ((shallow, s), (deep, d)) = (pair[0], pair[1]);
            assert!(shallow.resting_power_w(&p) > deep.resting_power_w(&p));
            assert!(s.wake_latency < d.wake_latency);
        }
    }

    #[test]
    fn three_rung_preset_is_the_special_case() {
        let p = HostPowerProfile::prototype_rack();
        assert!(!p.transitions().supports_package_idle());
        assert!(p.package_idle_power_w().is_none());
        let modes: Vec<_> = LadderSummary::of(&p)
            .rungs()
            .map(|(mode, _)| mode)
            .collect();
        assert_eq!(modes, vec![LowPowerMode::Suspend, LowPowerMode::Off]);
    }

    #[test]
    fn package_idle_state_power_dispatch() {
        let p = HostPowerProfile::prototype_rack_ladder();
        assert_eq!(p.state_power_w(PowerState::PackageIdle, 1.0), 45.0);
        assert_eq!(p.state_power_w(PowerState::Parking, 0.0), 140.0);
        assert_eq!(p.state_power_w(PowerState::Unparking, 0.0), 140.0);
        // A 3-rung profile answers the idle floor for ad-hoc queries.
        let q = HostPowerProfile::prototype_rack();
        assert_eq!(q.state_power_w(PowerState::PackageIdle, 0.0), 155.0);
    }

    #[test]
    fn dvfs_attachment_scales_only_on_state() {
        let base = HostPowerProfile::prototype_rack();
        let scaled = HostPowerProfile::prototype_rack().with_dvfs(crate::DvfsModel::typical_2013());
        assert!(scaled.name().ends_with("+dvfs"));
        assert!(scaled.dvfs.is_some());
        assert!(
            scaled.state_power_w(PowerState::On, 0.3) < base.state_power_w(PowerState::On, 0.3)
        );
        assert_eq!(
            scaled.state_power_w(PowerState::Suspended, 0.3),
            base.state_power_w(PowerState::Suspended, 0.3)
        );
        // Nothing to scale at full load.
        assert!(
            (scaled.state_power_w(PowerState::On, 1.0) - base.state_power_w(PowerState::On, 1.0))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn try_validate_rejects_bad_inputs() {
        let rack = HostPowerProfile::prototype_rack;
        let custom = |suspend_w, off_w| {
            let table = rack().transitions().clone();
            HostPowerProfile::new(
                "bad",
                PowerCurve::linear(100.0, 200.0),
                suspend_w,
                off_w,
                table,
            )
        };
        let spec = TransitionSpec::new(SimDuration::from_secs(1), 100.0);
        let c6 = |power_w| rack().with_package_idle(power_w, spec, spec);
        let no_nominal = DvfsModel::new(vec![crate::DvfsLevel {
            freq_frac: 0.5,
            dyn_power_scale: 0.4,
        }]);
        for (profile, expected) in [
            (custom(150.0, 5.0), "low-power draw exceeds idle draw"),
            (custom(5.0, 150.0), "low-power draw exceeds idle draw"),
            (custom(f64::NAN, 5.0), "suspend power NaN must be"),
            (custom(5.0, -1.0), "off power -1 must be finite"),
            (c6(200.0), "low-power draw exceeds idle draw"),
            (c6(-1.0), "package-idle power -1 must be"),
            (rack().with_dvfs(no_nominal), "top level must be nominal"),
        ] {
            let err = profile.try_validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{err} lacks {expected}");
        }
        for preset in [
            HostPowerProfile::prototype_blade_ladder(),
            HostPowerProfile::legacy_rack(),
            HostPowerProfile::prototype_rack_ladder().with_dvfs(DvfsModel::typical_2013()),
        ] {
            assert_eq!(preset.try_validate(), Ok(()), "{preset}");
        }
    }

    #[test]
    fn psu_inflates_all_states() {
        let dc = HostPowerProfile::prototype_rack();
        let wall =
            HostPowerProfile::prototype_rack().with_psu(crate::PsuModel::eighty_plus_gold(400.0));
        for (state, util) in [
            (PowerState::On, 0.0),
            (PowerState::On, 0.7),
            (PowerState::Suspended, 0.0),
            (PowerState::Off, 0.0),
        ] {
            assert!(
                wall.state_power_w(state, util) > dc.state_power_w(state, util),
                "{state} at {util}"
            );
        }
        assert!(wall.name().ends_with("+psu"));
        assert!(wall.psu.is_some());
    }

    #[test]
    fn display_summarizes() {
        let s = HostPowerProfile::prototype_rack().to_string();
        assert!(s.contains("prototype-rack-s3"));
        assert!(s.contains("155"));
    }
}
