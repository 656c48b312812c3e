//! Utilization-to-power curves for operational (powered-on) hosts.

/// Maps CPU utilization (`0.0..=1.0`) to active power draw in watts.
///
/// Two families cover the hardware in the paper's evaluation:
///
/// * [`PowerCurve::linear`] — the classic `idle + (peak-idle)·u` model; a
///   good fit for the 2008–2013 servers the paper prototypes, whose idle
///   power is 40–60 % of peak (the energy-proportionality gap the work
///   attacks).
/// * [`PowerCurve::piecewise`] — SPECpower-style 11-point curves for
///   hardware whose draw is convex or concave in utilization.
///
/// # Example
///
/// ```
/// use power::PowerCurve;
///
/// let c = PowerCurve::linear(150.0, 300.0);
/// assert_eq!(c.power_at(0.0), 150.0);
/// assert_eq!(c.power_at(0.5), 225.0);
/// assert_eq!(c.power_at(1.0), 300.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PowerCurve {
    /// `idle_w + (peak_w - idle_w) · u`.
    Linear {
        /// Power draw at zero utilization, watts.
        idle_w: f64,
        /// Power draw at full utilization, watts.
        peak_w: f64,
    },
    /// Linear interpolation between `(utilization, watts)` knots.
    Piecewise {
        /// Knots sorted by utilization; must start at 0.0 and end at 1.0.
        points: Vec<(f64, f64)>,
    },
}

impl PowerCurve {
    /// Creates a linear curve.
    ///
    /// # Panics
    ///
    /// Panics if `idle_w` or `peak_w` is negative/non-finite, or
    /// `idle_w > peak_w`.
    pub fn linear(idle_w: f64, peak_w: f64) -> Self {
        assert!(
            idle_w.is_finite() && peak_w.is_finite() && idle_w >= 0.0 && idle_w <= peak_w,
            "bad linear curve: idle {idle_w} W, peak {peak_w} W"
        );
        PowerCurve::Linear { idle_w, peak_w }
    }

    /// Creates a piecewise-linear curve from `(utilization, watts)` knots.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two knots are given, knots are not strictly
    /// increasing in utilization, the first knot is not at 0.0, the last is
    /// not at 1.0, or any power is negative/non-finite.
    pub fn piecewise(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two knots");
        assert_eq!(points[0].0, 0.0, "first knot must be at utilization 0.0");
        assert_eq!(
            points[points.len() - 1].0,
            1.0,
            "last knot must be at utilization 1.0"
        );
        for pair in points.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "knots must be strictly increasing in utilization"
            );
        }
        for &(u, w) in &points {
            assert!(
                u.is_finite() && w.is_finite() && w >= 0.0,
                "bad knot ({u}, {w})"
            );
        }
        PowerCurve::Piecewise { points }
    }

    /// Power draw at utilization `u` (clamped to `[0, 1]`), in watts.
    pub fn power_at(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            PowerCurve::Linear { idle_w, peak_w } => idle_w + (peak_w - idle_w) * u,
            PowerCurve::Piecewise { points } => {
                // Find the segment containing u and interpolate.
                let seg = points
                    .windows(2)
                    .find(|pair| u <= pair[1].0)
                    .expect("knots cover [0,1] by construction");
                let (u0, w0) = seg[0];
                let (u1, w1) = seg[1];
                w0 + (w1 - w0) * (u - u0) / (u1 - u0)
            }
        }
    }

    /// Power at zero utilization (the idle floor), in watts.
    pub fn idle_w(&self) -> f64 {
        self.power_at(0.0)
    }

    /// Power at full utilization, in watts.
    pub fn peak_w(&self) -> f64 {
        self.power_at(1.0)
    }

    /// Idle-to-peak ratio — the energy-proportionality gap. 0.0 is ideal
    /// (proportional), ~0.5 is typical for the paper's server class.
    pub fn idle_fraction(&self) -> f64 {
        if self.peak_w() == 0.0 {
            0.0
        } else {
            self.idle_w() / self.peak_w()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolates() {
        let c = PowerCurve::linear(100.0, 200.0);
        assert_eq!(c.power_at(0.25), 125.0);
        assert_eq!(c.idle_w(), 100.0);
        assert_eq!(c.peak_w(), 200.0);
        assert_eq!(c.idle_fraction(), 0.5);
    }

    #[test]
    fn linear_clamps_utilization() {
        let c = PowerCurve::linear(100.0, 200.0);
        assert_eq!(c.power_at(-0.5), 100.0);
        assert_eq!(c.power_at(1.5), 200.0);
    }

    #[test]
    fn piecewise_interpolates_between_knots() {
        let c = PowerCurve::piecewise(vec![(0.0, 50.0), (0.5, 150.0), (1.0, 170.0)]);
        assert_eq!(c.power_at(0.0), 50.0);
        assert_eq!(c.power_at(0.25), 100.0);
        assert_eq!(c.power_at(0.5), 150.0);
        assert_eq!(c.power_at(0.75), 160.0);
        assert_eq!(c.power_at(1.0), 170.0);
    }

    #[test]
    #[should_panic(expected = "first knot")]
    fn piecewise_requires_zero_start() {
        PowerCurve::piecewise(vec![(0.1, 50.0), (1.0, 170.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_requires_sorted_knots() {
        PowerCurve::piecewise(vec![(0.0, 50.0), (0.5, 100.0), (0.5, 120.0), (1.0, 170.0)]);
    }

    #[test]
    #[should_panic(expected = "bad linear curve")]
    fn linear_rejects_idle_above_peak() {
        PowerCurve::linear(300.0, 200.0);
    }

    #[test]
    fn curve_is_monotone_when_knots_are() {
        let c = PowerCurve::piecewise(vec![(0.0, 60.0), (0.3, 100.0), (0.7, 140.0), (1.0, 200.0)]);
        let mut prev = -1.0;
        for i in 0..=100 {
            let p = c.power_at(i as f64 / 100.0);
            assert!(p >= prev, "non-monotone at {i}");
            prev = p;
        }
    }
}
