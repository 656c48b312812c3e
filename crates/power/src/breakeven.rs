//! Break-even analysis for power-down decisions.
//!
//! Powering a host down for an idle gap of length `T` saves energy only if
//! the gap is long enough to amortize the down/up transition costs. With
//! idle draw `P_idle`, low-state draw `P_low`, down transition `(t_d, E_d)`
//! and up transition `(t_u, E_u)`:
//!
//! ```text
//! E_stay(T)  = P_idle · T
//! E_cycle(T) = E_d + E_u + P_low · (T − t_d − t_u)      for T ≥ t_d + t_u
//! saved(T)   = E_stay(T) − E_cycle(T)
//! ```
//!
//! The break-even gap is the `T` where `saved(T) = 0`. Because S3-class
//! transitions are seconds and nearly free, their break-even gap is tens of
//! seconds; S5-class cycles need tens of minutes — this asymmetry is the
//! quantitative heart of the paper's argument, reproduced in experiment F3.

use simcore::SimDuration;

use crate::{HostPowerProfile, TransitionKind};

/// Which low-power state a power-down decision targets — one rung of the
/// C6→S3→S5 ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LowPowerMode {
    /// C6-class package idle: `Park` down, `Unpark` up — the shallowest
    /// rung (sub-second entry, ~seconds wake).
    PackageIdle,
    /// Suspend-to-RAM (S3-class): `Suspend` down, `Resume` up.
    Suspend,
    /// Full power-off (S5-class): `Shutdown` down, `Boot` up.
    Off,
}

impl std::fmt::Display for LowPowerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LowPowerMode::PackageIdle => "package-idle",
            LowPowerMode::Suspend => "suspend",
            LowPowerMode::Off => "off",
        })
    }
}

impl LowPowerMode {
    /// All modes, ordered shallow→deep (decreasing resting power,
    /// increasing wake latency on any monotone ladder).
    pub const ALL: [LowPowerMode; 3] = [
        LowPowerMode::PackageIdle,
        LowPowerMode::Suspend,
        LowPowerMode::Off,
    ];

    /// The transition that enters the low-power state.
    pub fn down(self) -> TransitionKind {
        match self {
            LowPowerMode::PackageIdle => TransitionKind::Park,
            LowPowerMode::Suspend => TransitionKind::Suspend,
            LowPowerMode::Off => TransitionKind::Shutdown,
        }
    }

    /// The transition that leaves the low-power state.
    pub fn up(self) -> TransitionKind {
        match self {
            LowPowerMode::PackageIdle => TransitionKind::Unpark,
            LowPowerMode::Suspend => TransitionKind::Resume,
            LowPowerMode::Off => TransitionKind::Boot,
        }
    }

    /// Resting draw of the low-power state under `profile`, in watts.
    /// For [`LowPowerMode::PackageIdle`] on a profile without that rung,
    /// answers the idle floor (the rung saves nothing).
    pub fn resting_power_w(self, profile: &HostPowerProfile) -> f64 {
        match self {
            LowPowerMode::PackageIdle => profile
                .package_idle_power_w()
                .unwrap_or(profile.curve().idle_w()),
            LowPowerMode::Suspend => profile.suspend_power_w(),
            LowPowerMode::Off => profile.off_power_w(),
        }
    }

    /// Whether `profile` implements both of this rung's transitions.
    pub fn supported_by(self, profile: &HostPowerProfile) -> bool {
        profile.transitions().spec(self.down()).is_some()
            && profile.transitions().spec(self.up()).is_some()
    }

    /// Latency of this rung's wake transition under `profile`, if
    /// supported.
    pub fn wake_latency(self, profile: &HostPowerProfile) -> Option<SimDuration> {
        profile
            .transitions()
            .spec(self.up())
            .map(|spec| spec.latency())
    }
}

/// Net energy saved (joules) by cycling through `mode` for an idle gap of
/// length `gap`, versus idling the whole time. Negative values mean the
/// cycle *costs* energy.
///
/// Returns `None` if the profile does not support `mode`, or the gap is too
/// short to even complete the down+up transitions.
///
/// # Example
///
/// ```
/// use power::breakeven::{net_energy_saved, LowPowerMode};
/// use power::HostPowerProfile;
/// use simcore::SimDuration;
///
/// let p = HostPowerProfile::prototype_rack();
/// // One idle hour: suspending saves a lot.
/// let saved = net_energy_saved(&p, LowPowerMode::Suspend, SimDuration::from_hours(1)).unwrap();
/// assert!(saved > 0.0);
/// ```
pub fn net_energy_saved(
    profile: &HostPowerProfile,
    mode: LowPowerMode,
    gap: SimDuration,
) -> Option<f64> {
    let down = profile.transitions().spec(mode.down())?;
    let up = profile.transitions().spec(mode.up())?;
    let overhead = down.latency() + up.latency();
    if gap < overhead {
        return None;
    }
    let idle_w = profile.curve().idle_w();
    let low_w = mode.resting_power_w(profile);
    let stay = idle_w * gap.as_secs_f64();
    let cycle = down.energy_j() + up.energy_j() + low_w * (gap - overhead).as_secs_f64();
    Some(stay - cycle)
}

/// The idle-gap length at which cycling through `mode` breaks even with
/// idling (closed form).
///
/// Returns `None` if the profile does not support `mode` or if the
/// low-power state does not actually draw less than idle (no gap ever pays
/// off).
///
/// # Example
///
/// ```
/// use power::breakeven::{break_even_gap, LowPowerMode};
/// use power::HostPowerProfile;
///
/// let p = HostPowerProfile::prototype_rack();
/// let s3 = break_even_gap(&p, LowPowerMode::Suspend).unwrap();
/// let s5 = break_even_gap(&p, LowPowerMode::Off).unwrap();
/// assert!(s3 < s5, "low-latency states pay off far sooner");
/// ```
pub fn break_even_gap(profile: &HostPowerProfile, mode: LowPowerMode) -> Option<SimDuration> {
    let down = profile.transitions().spec(mode.down())?;
    let up = profile.transitions().spec(mode.up())?;
    let idle_w = profile.curve().idle_w();
    let low_w = mode.resting_power_w(profile);
    if idle_w <= low_w {
        return None;
    }
    let overhead = down.latency() + up.latency();
    // Solve idle·T = E_d + E_u + low·(T − t_overhead) for T.
    let t = (down.energy_j() + up.energy_j() - low_w * overhead.as_secs_f64()) / (idle_w - low_w);
    // The cycle also cannot be shorter than the transitions themselves.
    let t = t.max(overhead.as_secs_f64());
    Some(SimDuration::from_secs_f64(t))
}

/// What a planning round needs to know about one ladder rung, detached
/// from the profile that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungSummary {
    /// Latency of the rung's wake transition back to `On`.
    pub wake_latency: SimDuration,
    /// The rung's break-even idle gap, or `None` if no gap ever pays off
    /// (resting draw at or above idle).
    pub break_even: Option<SimDuration>,
}

/// A copyable per-profile summary of the power-state ladder: one entry
/// per supported rung, ordered shallow→deep, carrying exactly what a
/// planning round needs — wake latency and break-even gap — without
/// holding the profile itself. Cheap enough to embed in per-host
/// observation snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LadderSummary {
    rungs: [Option<RungSummary>; 3],
}

impl LadderSummary {
    /// Summarizes `profile`'s supported rungs.
    pub fn of(profile: &HostPowerProfile) -> Self {
        let mut rungs = [None; 3];
        for (i, &mode) in LowPowerMode::ALL.iter().enumerate() {
            let Some(wake_latency) = mode.wake_latency(profile) else {
                continue;
            };
            if !mode.supported_by(profile) {
                continue;
            }
            rungs[i] = Some(RungSummary {
                wake_latency,
                break_even: break_even_gap(profile, mode),
            });
        }
        LadderSummary { rungs }
    }

    /// The summary of one rung, if the profile supports it.
    pub fn rung(&self, mode: LowPowerMode) -> Option<RungSummary> {
        let idx = LowPowerMode::ALL
            .iter()
            .position(|&m| m == mode)
            .expect("mode is in ALL");
        self.rungs[idx]
    }

    /// Whether no rung is supported at all.
    pub fn is_empty(&self) -> bool {
        self.rungs.iter().all(Option::is_none)
    }

    /// The shallowest rung whose wake latency fits `wake_slo` — the rung
    /// a warm-pool host parks in.
    pub fn shallowest_within(&self, wake_slo: SimDuration) -> Option<LowPowerMode> {
        LowPowerMode::ALL
            .iter()
            .copied()
            .find(|&mode| self.rung(mode).is_some_and(|r| r.wake_latency <= wake_slo))
    }

    /// Picks the deepest rung that is *affordable* against a latency SLO
    /// and an expected idle gap: the rung's wake latency must not exceed
    /// `wake_slo`, and — when `expected_gap` is known — the rung must at
    /// least break even over that gap. With an unknown gap, any
    /// SLO-feasible rung is assumed to pay off (the manager's hysteresis
    /// already bounds thrashing), so the deepest SLO-feasible rung wins.
    ///
    /// Returns `None` when no supported rung can wake within the SLO —
    /// the caller should then leave the host on.
    pub fn deepest_affordable(
        &self,
        wake_slo: SimDuration,
        expected_gap: Option<SimDuration>,
    ) -> Option<LowPowerMode> {
        let mut best = None;
        for mode in LowPowerMode::ALL {
            let Some(rung) = self.rung(mode) else {
                continue;
            };
            if rung.wake_latency > wake_slo {
                continue;
            }
            let pays_off = match expected_gap {
                None => true,
                Some(gap) => rung.break_even.is_some_and(|be| be <= gap),
            };
            if pays_off {
                // ALL is ordered shallow→deep: keep overwriting with
                // deeper SLO-feasible rungs.
                best = Some(mode);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_is_zero_at_break_even() {
        let p = HostPowerProfile::prototype_rack();
        for mode in [LowPowerMode::Suspend, LowPowerMode::Off] {
            let gap = break_even_gap(&p, mode).unwrap();
            let saved = net_energy_saved(&p, mode, gap).unwrap();
            // Zero to within the millisecond rounding of the gap.
            assert!(
                saved.abs() < p.curve().idle_w() * 0.002,
                "{mode:?}: {saved}"
            );
        }
    }

    #[test]
    fn saved_is_monotone_in_gap() {
        let p = HostPowerProfile::prototype_rack();
        let mut prev = f64::NEG_INFINITY;
        for mins in [1u64, 2, 5, 10, 30, 60, 120] {
            let saved =
                net_energy_saved(&p, LowPowerMode::Suspend, SimDuration::from_mins(mins)).unwrap();
            assert!(saved > prev);
            prev = saved;
        }
    }

    #[test]
    fn s3_breaks_even_orders_of_magnitude_sooner_than_s5() {
        let p = HostPowerProfile::prototype_rack();
        let s3 = break_even_gap(&p, LowPowerMode::Suspend).unwrap();
        let s5 = break_even_gap(&p, LowPowerMode::Off).unwrap();
        // S3 pays off within a minute, S5 needs several minutes at best.
        assert!(s3 < SimDuration::from_mins(1), "s3 break-even {s3}");
        assert!(s5 > s3 * 5, "s5 {s5} vs s3 {s3}");
    }

    #[test]
    fn too_short_gap_is_none() {
        let p = HostPowerProfile::prototype_rack();
        assert_eq!(
            net_energy_saved(&p, LowPowerMode::Suspend, SimDuration::from_secs(5)),
            None
        );
    }

    #[test]
    fn legacy_profile_has_no_suspend_breakeven() {
        let p = HostPowerProfile::legacy_rack();
        assert!(break_even_gap(&p, LowPowerMode::Suspend).is_none());
        assert!(break_even_gap(&p, LowPowerMode::Off).is_some());
    }

    #[test]
    fn mode_transition_mapping() {
        assert_eq!(LowPowerMode::Suspend.down(), TransitionKind::Suspend);
        assert_eq!(LowPowerMode::Suspend.up(), TransitionKind::Resume);
        assert_eq!(LowPowerMode::Off.down(), TransitionKind::Shutdown);
        assert_eq!(LowPowerMode::Off.up(), TransitionKind::Boot);
        assert_eq!(LowPowerMode::PackageIdle.down(), TransitionKind::Park);
        assert_eq!(LowPowerMode::PackageIdle.up(), TransitionKind::Unpark);
    }

    #[test]
    fn per_rung_break_even_is_strictly_ordered_on_the_ladder() {
        let p = HostPowerProfile::prototype_rack_ladder();
        let c6 = break_even_gap(&p, LowPowerMode::PackageIdle).unwrap();
        let s3 = break_even_gap(&p, LowPowerMode::Suspend).unwrap();
        let s5 = break_even_gap(&p, LowPowerMode::Off).unwrap();
        assert!(c6 < s3, "c6 {c6} vs s3 {s3}");
        assert!(s3 < s5, "s3 {s3} vs s5 {s5}");
        // C6 pays off within seconds — that is the whole point.
        assert!(c6 < SimDuration::from_secs(10), "c6 break-even {c6}");
    }

    #[test]
    fn package_idle_breakeven_absent_on_three_rung_profile() {
        let p = HostPowerProfile::prototype_rack();
        assert!(!LowPowerMode::PackageIdle.supported_by(&p));
        assert!(break_even_gap(&p, LowPowerMode::PackageIdle).is_none());
    }

    #[test]
    fn deepest_affordable_respects_slo_and_gap() {
        let p = HostPowerProfile::prototype_rack_ladder();
        // A generous SLO with no gap estimate picks the deepest rung.
        assert_eq!(
            LadderSummary::of(&p).deepest_affordable(SimDuration::from_hours(1), None),
            Some(LowPowerMode::Off)
        );
        // A short expected gap disqualifies S5 (its break-even is minutes)
        // but S3 still pays off.
        assert_eq!(
            LadderSummary::of(&p)
                .deepest_affordable(SimDuration::from_hours(1), Some(SimDuration::from_mins(2))),
            Some(LowPowerMode::Suspend)
        );
        // An SLO tighter than every wake latency leaves the host on.
        assert_eq!(
            LadderSummary::of(&p).deepest_affordable(SimDuration::from_millis(100), None),
            None
        );
        // A 3-rung profile under a boot-sized SLO degenerates to suspend.
        let q = HostPowerProfile::prototype_rack();
        assert_eq!(
            LadderSummary::of(&q).deepest_affordable(SimDuration::from_secs(12), None),
            Some(LowPowerMode::Suspend)
        );
    }

    #[test]
    fn long_gap_saving_approaches_idle_minus_low_rate() {
        let p = HostPowerProfile::prototype_rack();
        let day = SimDuration::from_hours(24);
        let saved = net_energy_saved(&p, LowPowerMode::Suspend, day).unwrap();
        let asymptotic = (p.curve().idle_w() - p.suspend_power_w()) * day.as_secs_f64();
        // Within 1% for a full day gap.
        assert!((saved / asymptotic - 1.0).abs() < 0.01);
    }
}
