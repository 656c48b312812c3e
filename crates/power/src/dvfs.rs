//! DVFS (frequency-scaling) modeling — the classic *active* power knob.
//!
//! Before low-latency platform states, the standard dynamic power lever
//! was per-host voltage/frequency scaling: slow the clock when demand is
//! low. DVFS acts in microseconds but only shrinks the *dynamic* power
//! component — the idle floor (leakage, fans, disks, DRAM refresh) stays.
//! That is why the paper pursues platform low-power states instead: the
//! evaluation's DVFS-only baseline (experiment T22) shows frequency
//! scaling alone cannot approach energy proportionality.

use crate::{ConfigError, PowerCurve};

/// A DVFS operating point: relative frequency and the scale factor it
/// applies to the *dynamic* (utilization-dependent) power component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsLevel {
    /// Clock fraction of nominal, in `(0, 1]` — also the capacity
    /// fraction the host can serve at this level.
    pub freq_frac: f64,
    /// Multiplier on the dynamic power component (≈ `f·V²`; sub-linear
    /// voltage scaling makes this fall faster than frequency).
    pub dyn_power_scale: f64,
}

/// A host's DVFS capability: a ladder of operating points.
///
/// # Example
///
/// ```
/// use power::{DvfsModel, PowerCurve};
///
/// let dvfs = DvfsModel::typical_2013();
/// let curve = PowerCurve::linear(155.0, 315.0);
/// // A host at 30% of nominal demand can clock down and save dynamic
/// // power — but never below the idle floor.
/// let scaled = dvfs.best_power_w(&curve, 0.3);
/// assert!(scaled < curve.power_at(0.3));
/// assert!(scaled >= curve.idle_w() * 0.99);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsModel {
    levels: Vec<DvfsLevel>,
}

impl DvfsModel {
    /// Builds a model from operating points, ordered by strictly
    /// increasing frequency up to nominal (1.0).
    pub fn new(levels: Vec<DvfsLevel>) -> Self {
        DvfsModel { levels }
    }

    /// Checks every level's frequency and power scale lie in `(0, 1]`,
    /// then that frequencies strictly increase up to nominal.
    /// [`HostPowerProfile::try_validate`](crate::HostPowerProfile::try_validate)
    /// runs this on an attached model.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if there are no levels, a level is out of range,
    /// frequencies do not strictly increase, or the top level is not
    /// nominal.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let Some(top) = self.levels.last() else {
            return Err(ConfigError::Invalid {
                message: "need at least one DVFS level",
            });
        };
        for l in &self.levels {
            if !(l.freq_frac > 0.0 && l.freq_frac <= 1.0) {
                return Err(ConfigError::OutOfRange {
                    field: "frequency fraction",
                    value: l.freq_frac,
                    constraint: "outside (0,1]",
                });
            }
            if !(l.dyn_power_scale > 0.0 && l.dyn_power_scale <= 1.0) {
                return Err(ConfigError::OutOfRange {
                    field: "dynamic power scale",
                    value: l.dyn_power_scale,
                    constraint: "outside (0,1]",
                });
            }
        }
        if self
            .levels
            .windows(2)
            .any(|pair| pair[0].freq_frac >= pair[1].freq_frac)
        {
            return Err(ConfigError::Invalid {
                message: "levels must be strictly increasing in frequency",
            });
        }
        if top.freq_frac != 1.0 {
            return Err(ConfigError::Invalid {
                message: "top level must be nominal frequency",
            });
        }
        Ok(())
    }

    /// A 2013-era server ladder: 40/60/80/100 % clocks with near-cubic
    /// dynamic-power scaling.
    pub fn typical_2013() -> Self {
        DvfsModel::new(vec![
            DvfsLevel {
                freq_frac: 0.4,
                dyn_power_scale: 0.25,
            },
            DvfsLevel {
                freq_frac: 0.6,
                dyn_power_scale: 0.42,
            },
            DvfsLevel {
                freq_frac: 0.8,
                dyn_power_scale: 0.66,
            },
            DvfsLevel {
                freq_frac: 1.0,
                dyn_power_scale: 1.0,
            },
        ])
    }

    /// The lowest level that can serve `util` of nominal capacity
    /// (falls back to nominal for overload).
    pub fn level_for(&self, util: f64) -> DvfsLevel {
        let util = util.clamp(0.0, 1.0);
        *self
            .levels
            .iter()
            .find(|l| l.freq_frac + 1e-12 >= util)
            .unwrap_or(self.levels.last().expect("non-empty"))
    }

    /// Power at `util` of nominal capacity when the host picks its best
    /// (lowest sufficient) DVFS level, given the nominal power curve.
    ///
    /// The idle component (`curve.idle_w()`) is frequency-independent;
    /// only the dynamic component scales. At the chosen level the core
    /// runs at `util / freq_frac` of its (reduced) throughput.
    pub fn best_power_w(&self, curve: &PowerCurve, util: f64) -> f64 {
        let util = util.clamp(0.0, 1.0);
        let level = self.level_for(util);
        let idle = curve.idle_w();
        // Dynamic draw of the nominal curve at the *local* utilization of
        // the slowed core, scaled by the level's dynamic-power factor.
        let local_util = (util / level.freq_frac).clamp(0.0, 1.0);
        let dynamic_nominal = curve.power_at(local_util) - idle;
        idle + dynamic_nominal * level.dyn_power_scale
    }
}

impl Default for DvfsModel {
    fn default() -> Self {
        DvfsModel::typical_2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> PowerCurve {
        PowerCurve::linear(155.0, 315.0)
    }

    #[test]
    fn level_selection_is_minimal_sufficient() {
        let d = DvfsModel::typical_2013();
        assert_eq!(d.level_for(0.1).freq_frac, 0.4);
        assert_eq!(d.level_for(0.4).freq_frac, 0.4);
        assert_eq!(d.level_for(0.41).freq_frac, 0.6);
        assert_eq!(d.level_for(0.9).freq_frac, 1.0);
        assert_eq!(d.level_for(1.5).freq_frac, 1.0);
    }

    #[test]
    fn scaling_saves_dynamic_power_only() {
        let d = DvfsModel::typical_2013();
        let c = curve();
        // At low utilization DVFS saves versus nominal...
        assert!(d.best_power_w(&c, 0.2) < c.power_at(0.2));
        // ...but can never beat the idle floor.
        assert!(d.best_power_w(&c, 0.0) >= c.idle_w() - 1e-9);
        // At full utilization there is nothing to scale.
        assert!((d.best_power_w(&c, 1.0) - c.power_at(1.0)).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let d = DvfsModel::typical_2013();
        let c = curve();
        let mut prev = 0.0;
        for i in 0..=100 {
            let p = d.best_power_w(&c, i as f64 / 100.0);
            assert!(p + 1e-9 >= prev, "non-monotone at {i}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn savings_bounded_by_idle_floor() {
        // DVFS can only attack the dynamic component: savings at any
        // utilization are bounded by (peak - idle).
        let d = DvfsModel::typical_2013();
        let c = curve();
        for i in 0..=100 {
            let u = i as f64 / 100.0;
            let saved = c.power_at(u) - d.best_power_w(&c, u);
            assert!(saved <= c.peak_w() - c.idle_w() + 1e-9);
            assert!(saved >= -1e-9);
        }
    }

    #[test]
    fn try_validate_reports_each_rejection() {
        let level = |freq_frac, dyn_power_scale| DvfsLevel {
            freq_frac,
            dyn_power_scale,
        };
        for (levels, expected) in [
            (vec![level(0.5, 0.4)], "top level must be nominal"),
            (vec![], "need at least one DVFS level"),
            (vec![level(1.0, 1.0); 2], "strictly increasing"),
            (vec![level(1.0, 1.5)], "power scale 1.5 outside (0,1]"),
            (vec![level(1.5, 1.0)], "fraction 1.5 outside (0,1]"),
        ] {
            let err = DvfsModel::new(levels).try_validate().unwrap_err();
            assert!(err.to_string().contains(expected), "{err} lacks {expected}");
        }
        assert_eq!(DvfsModel::typical_2013().try_validate(), Ok(()));
    }
}
