//! Power-supply conversion losses: DC load → AC wall power.
//!
//! The paper characterizes its prototypes at the AC wall plug, where PSU
//! conversion losses apply. Efficiency is strongly load-dependent —
//! poor at light load, peaking near 50 % — which *amplifies* the idle
//! waste of an unconsolidated fleet: an idle server not only draws ~half
//! its peak DC power, its PSU also converts that power less efficiently.
//!
//! A [`PsuModel`] converts the DC-side draw of a
//! [`crate::HostPowerProfile`] into wall power; attach one with
//! [`crate::HostPowerProfile::with_psu`].

/// A load-dependent PSU efficiency model.
///
/// Efficiency is piecewise-linear in the *DC load fraction*
/// (`dc_watts / capacity`); wall power is `dc / efficiency`.
///
/// # Example
///
/// ```
/// use power::PsuModel;
///
/// let psu = PsuModel::eighty_plus_gold(400.0);
/// // At half load a Gold PSU runs ~94% efficient.
/// let wall = psu.wall_power_w(200.0);
/// assert!((wall - 200.0 / 0.94).abs() < 1.0);
/// // Light load is much less efficient.
/// assert!(psu.efficiency_at(10.0) < 0.80);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PsuModel {
    capacity_w: f64,
    /// `(load_fraction, efficiency)` knots, sorted, covering 0.0..=1.0.
    knots: Vec<(f64, f64)>,
}

impl PsuModel {
    /// Builds a PSU model from its rated capacity and efficiency knots.
    ///
    /// # Panics
    ///
    /// Panics if capacity is not positive, fewer than two knots are
    /// given, knots do not start at 0.0 and end at 1.0 in strictly
    /// increasing order, or any efficiency is outside `(0, 1]`.
    pub fn new(capacity_w: f64, knots: Vec<(f64, f64)>) -> Self {
        assert!(
            capacity_w.is_finite() && capacity_w > 0.0,
            "bad PSU capacity {capacity_w}"
        );
        assert!(knots.len() >= 2, "need at least two efficiency knots");
        assert_eq!(knots[0].0, 0.0, "first knot must be at load 0.0");
        assert_eq!(
            knots[knots.len() - 1].0,
            1.0,
            "last knot must be at load 1.0"
        );
        for pair in knots.windows(2) {
            assert!(pair[0].0 < pair[1].0, "knots must be strictly increasing");
        }
        for &(l, e) in &knots {
            assert!(
                l.is_finite() && e.is_finite() && e > 0.0 && e <= 1.0,
                "bad knot ({l}, {e})"
            );
        }
        PsuModel { capacity_w, knots }
    }

    /// An 80 PLUS Gold-class supply: ~87 % at 10 % load, ~94 % at 50 %,
    /// ~91 % at full load, degrading sharply below 10 %.
    pub fn eighty_plus_gold(capacity_w: f64) -> Self {
        PsuModel::new(
            capacity_w,
            vec![
                (0.0, 0.50),
                (0.02, 0.70),
                (0.10, 0.87),
                (0.20, 0.92),
                (0.50, 0.94),
                (1.0, 0.91),
            ],
        )
    }

    /// A legacy non-certified supply: ~65 % at 10 % load, ~78 % peak.
    pub fn legacy(capacity_w: f64) -> Self {
        PsuModel::new(
            capacity_w,
            vec![
                (0.0, 0.40),
                (0.02, 0.50),
                (0.10, 0.65),
                (0.30, 0.74),
                (0.50, 0.78),
                (1.0, 0.75),
            ],
        )
    }

    /// Conversion efficiency at a given DC draw (load clamped to
    /// `[0, 1]` of capacity).
    pub fn efficiency_at(&self, dc_watts: f64) -> f64 {
        let load = (dc_watts / self.capacity_w).clamp(0.0, 1.0);
        let seg = self
            .knots
            .windows(2)
            .find(|pair| load <= pair[1].0)
            .expect("knots cover [0,1] by construction");
        let (l0, e0) = seg[0];
        let (l1, e1) = seg[1];
        e0 + (e1 - e0) * (load - l0) / (l1 - l0)
    }

    /// AC wall power for a DC draw, watts (zero stays zero).
    pub fn wall_power_w(&self, dc_watts: f64) -> f64 {
        if dc_watts <= 0.0 {
            return 0.0;
        }
        dc_watts / self.efficiency_at(dc_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_power_exceeds_dc_power() {
        let psu = PsuModel::eighty_plus_gold(400.0);
        for dc in [5.0, 50.0, 200.0, 400.0] {
            assert!(psu.wall_power_w(dc) > dc, "at {dc} W");
        }
        assert_eq!(psu.wall_power_w(0.0), 0.0);
    }

    #[test]
    fn efficiency_peaks_mid_load() {
        let psu = PsuModel::eighty_plus_gold(400.0);
        let light = psu.efficiency_at(8.0);
        let mid = psu.efficiency_at(200.0);
        let full = psu.efficiency_at(400.0);
        assert!(light < mid, "light {light} vs mid {mid}");
        assert!(full < mid, "full {full} vs mid {mid}");
        assert!((mid - 0.94).abs() < 1e-9);
    }

    #[test]
    fn legacy_is_worse_everywhere() {
        let gold = PsuModel::eighty_plus_gold(400.0);
        let old = PsuModel::legacy(400.0);
        for dc in [10.0, 40.0, 100.0, 200.0, 400.0] {
            assert!(old.efficiency_at(dc) < gold.efficiency_at(dc), "at {dc} W");
        }
    }

    #[test]
    fn relative_loss_grows_at_light_load() {
        // The proportionality-gap amplifier: the overhead *fraction* is
        // worst exactly where idle servers sit.
        let psu = PsuModel::eighty_plus_gold(400.0);
        let frac = |dc: f64| (psu.wall_power_w(dc) - dc) / dc;
        assert!(frac(8.0) > 2.0 * frac(200.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_knots() {
        PsuModel::new(400.0, vec![(0.0, 0.5), (0.5, 0.9), (0.5, 0.92), (1.0, 0.9)]);
    }

    #[test]
    fn overload_clamps_to_full_load_efficiency() {
        let psu = PsuModel::eighty_plus_gold(400.0);
        assert_eq!(psu.efficiency_at(800.0), psu.efficiency_at(400.0));
    }
}
