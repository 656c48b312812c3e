//! Demand processes: deterministic shapes plus stochastic modifiers.

use simcore::{RngStream, SimDuration, SimTime};

use crate::DemandTrace;

/// The deterministic component of a demand process, as a fraction of the
/// VM's CPU cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Flat demand at `level`.
    Constant {
        /// Demand fraction in `[0, 1]`.
        level: f64,
    },
    /// A 24 h sinusoid: `base + amplitude · sin(2π(t/period + phase))`.
    ///
    /// Enterprise interactive workloads follow this pattern; amplitude of
    /// roughly half the base reproduces the day/night swing the paper's
    /// consolidation manager exploits.
    Diurnal {
        /// Mean demand fraction.
        base: f64,
        /// Swing around the mean.
        amplitude: f64,
        /// Cycle length (24 h for a daily pattern).
        period: SimDuration,
        /// Phase offset as a fraction of the period in `[0, 1)`.
        phase: f64,
    },
    /// A single step from `low` to `high` at time `at` — the flash-crowd
    /// stimulus for responsiveness experiments.
    Step {
        /// Demand before the step.
        low: f64,
        /// Demand after the step.
        high: f64,
        /// When the step happens.
        at: SimDuration,
    },
    /// A weekly enterprise pattern: a 24 h diurnal sinusoid whose
    /// amplitude and base are damped on days 6 and 7 of each week
    /// (the weekend), reflecting business-hour demand.
    WeeklyDiurnal {
        /// Weekday mean demand fraction.
        base: f64,
        /// Weekday swing around the mean.
        amplitude: f64,
        /// Phase offset as a fraction of the 24 h day in `[0, 1)`.
        phase: f64,
        /// Multiplier applied to both base and amplitude on weekends,
        /// in `[0, 1]`.
        weekend_scale: f64,
    },
    /// A square wave (batch windows): `high` for `duty` of each period
    /// starting at `phase`, `low` otherwise.
    Square {
        /// Demand outside the active window.
        low: f64,
        /// Demand inside the active window.
        high: f64,
        /// Cycle length.
        period: SimDuration,
        /// Fraction of the period spent at `high`, in `(0, 1)`.
        duty: f64,
        /// Phase offset as a fraction of the period in `[0, 1)`.
        phase: f64,
    },
}

impl Shape {
    /// Convenience constructor for a flat shape.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]`.
    pub fn constant(level: f64) -> Self {
        assert!((0.0..=1.0).contains(&level), "level {level} outside [0,1]");
        Shape::Constant { level }
    }

    /// Convenience constructor for a 24 h diurnal shape with zero phase.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `amplitude` is negative, or `base + amplitude`
    /// exceeds 1.
    pub fn diurnal(base: f64, amplitude: f64) -> Self {
        assert!(base >= 0.0 && amplitude >= 0.0, "negative diurnal params");
        assert!(base + amplitude <= 1.0, "diurnal peak exceeds 1.0");
        Shape::Diurnal {
            base,
            amplitude,
            period: SimDuration::from_hours(24),
            phase: 0.0,
        }
    }

    /// The shape's value at `t`, clamped to `[0, 1]`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        let v = match *self {
            Shape::Constant { level } => level,
            Shape::Diurnal {
                base,
                amplitude,
                period,
                phase,
            } => {
                let frac = t.as_secs_f64() / period.as_secs_f64() + phase;
                base + amplitude * (std::f64::consts::TAU * frac).sin()
            }
            Shape::WeeklyDiurnal {
                base,
                amplitude,
                phase,
                weekend_scale,
            } => {
                let day = (t.as_secs_f64() / 86_400.0).floor() as u64 % 7;
                let scale = if day >= 5 { weekend_scale } else { 1.0 };
                let frac = t.as_secs_f64() / 86_400.0 + phase;
                scale * (base + amplitude * (std::f64::consts::TAU * frac).sin())
            }
            Shape::Step { low, high, at } => {
                if t.as_millis() >= at.as_millis() {
                    high
                } else {
                    low
                }
            }
            Shape::Square {
                low,
                high,
                period,
                duty,
                phase,
            } => {
                let frac = (t.as_secs_f64() / period.as_secs_f64() + phase).fract();
                if frac < duty {
                    high
                } else {
                    low
                }
            }
        };
        v.clamp(0.0, 1.0)
    }

    /// A copy with the phase replaced (for shapes that have one); other
    /// shapes are returned unchanged. Fleet generation uses this to
    /// de-synchronize VMs.
    fn with_phase(self, new_phase: f64) -> Shape {
        match self {
            Shape::Diurnal {
                base,
                amplitude,
                period,
                ..
            } => Shape::Diurnal {
                base,
                amplitude,
                period,
                phase: new_phase,
            },
            Shape::WeeklyDiurnal {
                base,
                amplitude,
                weekend_scale,
                ..
            } => Shape::WeeklyDiurnal {
                base,
                amplitude,
                phase: new_phase,
                weekend_scale,
            },
            Shape::Square {
                low,
                high,
                period,
                duty,
                ..
            } => Shape::Square {
                low,
                high,
                period,
                duty,
                phase: new_phase,
            },
            other => other,
        }
    }
}

/// First-order autoregressive noise added to the shape.
///
/// `x(k+1) = rho·x(k) + sigma·√(1−rho²)·ε`, giving stationary standard
/// deviation `sigma` and correlation time `−step/ln(rho)`. This reproduces
/// the minutes-scale burstiness of real utilization traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ar1Noise {
    /// Correlation coefficient per step, in `[0, 1)`.
    pub rho: f64,
    /// Stationary standard deviation of the noise.
    pub sigma: f64,
}

/// Poisson-arrival flash spikes layered on the shape.
///
/// Each spike adds `magnitude` to the demand fraction for an
/// exponentially-distributed duration. When `correlated` is set, fleet
/// generation draws ONE window set per VM class and applies it to every
/// VM — the flash-crowd regime where an entire service surges at once,
/// which is what makes host wake-up latency matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeProcess {
    /// Mean spike arrivals per 24 h.
    pub rate_per_day: f64,
    /// Added demand fraction while the spike is active.
    pub magnitude: f64,
    /// Mean spike duration.
    pub mean_duration: SimDuration,
    /// Whether all VMs of a class share the same spike windows.
    pub correlated: bool,
}

/// A complete demand process: shape + optional noise + optional spikes.
///
/// # Example
///
/// ```
/// use simcore::{RngStream, SimDuration};
/// use workload::{DemandProcess, Shape};
///
/// let p = DemandProcess::new(Shape::constant(0.3)).with_noise(0.8, 0.1);
/// let trace = p.generate(SimDuration::from_hours(1), SimDuration::from_mins(1), &mut RngStream::new(1));
/// assert_eq!(trace.len(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandProcess {
    shape: Shape,
    noise: Option<Ar1Noise>,
    spikes: Option<SpikeProcess>,
}

impl DemandProcess {
    /// A process with only the deterministic shape.
    pub fn new(shape: Shape) -> Self {
        DemandProcess {
            shape,
            noise: None,
            spikes: None,
        }
    }

    /// Adds AR(1) noise.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1)` or `sigma` is negative.
    pub fn with_noise(mut self, rho: f64, sigma: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "rho {rho} outside [0,1)");
        assert!(sigma >= 0.0, "negative sigma {sigma}");
        self.noise = Some(Ar1Noise { rho, sigma });
        self
    }

    /// Adds a per-VM (uncorrelated) flash-spike process.
    ///
    /// # Panics
    ///
    /// Panics if the rate or magnitude is negative, or the mean duration
    /// is zero.
    fn with_spikes(
        mut self,
        rate_per_day: f64,
        magnitude: f64,
        mean_duration: SimDuration,
    ) -> Self {
        assert!(
            rate_per_day >= 0.0 && magnitude >= 0.0,
            "negative spike params"
        );
        assert!(!mean_duration.is_zero(), "zero spike duration");
        self.spikes = Some(SpikeProcess {
            rate_per_day,
            magnitude,
            mean_duration,
            correlated: false,
        });
        self
    }

    /// Adds a fleet-correlated flash-spike process: every VM of the class
    /// spikes in the same windows (the flash-crowd regime).
    ///
    /// # Panics
    ///
    /// Panics if the rate or magnitude is negative, or the mean duration
    /// is zero.
    pub fn with_fleet_spikes(
        mut self,
        rate_per_day: f64,
        magnitude: f64,
        mean_duration: SimDuration,
    ) -> Self {
        self = self.with_spikes(rate_per_day, magnitude, mean_duration);
        if let Some(s) = &mut self.spikes {
            s.correlated = true;
        }
        self
    }

    /// The spike process, if any.
    pub fn spikes(&self) -> Option<&SpikeProcess> {
        self.spikes.as_ref()
    }

    /// A copy with `delta` added to the shape's phase (mod 1). Fleet
    /// generation uses small deltas to de-synchronize VMs without
    /// destroying the fleet-wide diurnal alignment.
    pub fn with_phase_jitter(mut self, delta: f64) -> Self {
        let base = match self.shape {
            Shape::Diurnal { phase, .. }
            | Shape::Square { phase, .. }
            | Shape::WeeklyDiurnal { phase, .. } => phase,
            _ => return self,
        };
        self.shape = self.shape.with_phase((base + delta).rem_euclid(1.0));
        self
    }

    /// Samples the process into a trace of `horizon / step` samples.
    ///
    /// Deterministic for a given `rng` state; each VM should use its own
    /// substream.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or `horizon < step`.
    pub fn generate(
        &self,
        horizon: SimDuration,
        step: SimDuration,
        rng: &mut RngStream,
    ) -> DemandTrace {
        // Pre-draw spike windows over the horizon.
        let spike_windows = self.draw_spike_windows(horizon, rng);
        self.generate_with_spike_windows(horizon, step, rng, &spike_windows)
    }

    /// Samples the process using externally-supplied spike windows instead
    /// of drawing its own — how fleet generation applies one shared window
    /// set to every VM of a correlated class.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or `horizon < step`.
    pub fn generate_with_spike_windows(
        &self,
        horizon: SimDuration,
        step: SimDuration,
        rng: &mut RngStream,
        spike_windows: &[(SimTime, SimTime)],
    ) -> DemandTrace {
        let n = sample_count(horizon, step);
        self.fill_trace(step, n, rng, spike_windows, Vec::with_capacity(n))
    }

    /// Pushes the trace's `n` samples onto `samples`, an empty buffer,
    /// and wraps it as the trace. Fleet generation allocates the
    /// buffers on the calling thread and fills them on the pool.
    pub(crate) fn fill_trace(
        &self,
        step: SimDuration,
        n: usize,
        rng: &mut RngStream,
        spike_windows: &[(SimTime, SimTime)],
        mut samples: Vec<f64>,
    ) -> DemandTrace {
        debug_assert!(samples.is_empty());
        let mut ar = 0.0f64;
        for k in 0..n {
            let t = SimTime::ZERO + step * k as u64;
            let mut v = self.shape.value_at(t);
            if let Some(noise) = self.noise {
                ar = noise.rho * ar
                    + noise.sigma * (1.0 - noise.rho * noise.rho).sqrt() * rng.standard_normal();
                v += ar;
            }
            if let Some(sp) = self.spikes {
                let in_spike = spike_windows
                    .iter()
                    .any(|&(start, end)| t >= start && t < end);
                if in_spike {
                    v += sp.magnitude;
                }
            }
            samples.push(v.clamp(0.0, 1.0));
        }
        DemandTrace::from_samples(step, samples)
    }

    /// Draws the Poisson spike windows for one horizon. Fleet generation
    /// calls this once per correlated class.
    pub fn draw_spike_windows(
        &self,
        horizon: SimDuration,
        rng: &mut RngStream,
    ) -> Vec<(SimTime, SimTime)> {
        let Some(sp) = self.spikes else {
            return Vec::new();
        };
        if sp.rate_per_day == 0.0 {
            return Vec::new();
        }
        let mut windows = Vec::new();
        let rate_per_sec = sp.rate_per_day / 86_400.0;
        let mut t = 0.0f64;
        let end = horizon.as_secs_f64();
        loop {
            t += rng.exponential(rate_per_sec);
            if t >= end {
                break;
            }
            let dur = rng.exponential(1.0 / sp.mean_duration.as_secs_f64());
            let start = SimTime::ZERO + SimDuration::from_secs_f64(t);
            let stop = start + SimDuration::from_secs_f64(dur);
            windows.push((start, stop));
        }
        windows
    }
}

/// The number of samples in a trace over `horizon` at `step`.
///
/// # Panics
///
/// Panics if `step` is zero or `horizon` is zero.
pub(crate) fn sample_count(horizon: SimDuration, step: SimDuration) -> usize {
    assert!(!step.is_zero(), "step must be non-zero");
    let n = horizon.div_ceil(step);
    assert!(n > 0, "horizon shorter than one step");
    n as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_shape_is_flat() {
        let s = Shape::constant(0.4);
        assert_eq!(s.value_at(SimTime::ZERO), 0.4);
        assert_eq!(s.value_at(SimTime::from_secs(1_000_000)), 0.4);
    }

    #[test]
    fn diurnal_peaks_at_quarter_period() {
        let s = Shape::diurnal(0.5, 0.3);
        let quarter = SimTime::from_secs(6 * 3600);
        assert!((s.value_at(quarter) - 0.8).abs() < 1e-9);
        let three_quarter = SimTime::from_secs(18 * 3600);
        assert!((s.value_at(three_quarter) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn diurnal_phase_shifts() {
        let s = Shape::diurnal(0.5, 0.3).with_phase(0.25);
        assert!((s.value_at(SimTime::ZERO) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn weekly_diurnal_damps_weekends() {
        let s = Shape::WeeklyDiurnal {
            base: 0.4,
            amplitude: 0.2,
            phase: 0.0,
            weekend_scale: 0.4,
        };
        // Same time of day, weekday (day 0) vs weekend (day 5).
        let weekday = s.value_at(SimTime::from_secs(6 * 3600));
        let weekend = s.value_at(SimTime::from_secs((5 * 24 + 6) * 3600));
        assert!((weekday - 0.6).abs() < 1e-9);
        assert!((weekend - 0.24).abs() < 1e-9);
        // Day 7 wraps back to a weekday.
        let next_week = s.value_at(SimTime::from_secs((7 * 24 + 6) * 3600));
        assert!((next_week - weekday).abs() < 1e-9);
    }

    #[test]
    fn step_switches_at_time() {
        let s = Shape::Step {
            low: 0.1,
            high: 0.9,
            at: SimDuration::from_mins(30),
        };
        assert_eq!(s.value_at(SimTime::from_secs(1799)), 0.1);
        assert_eq!(s.value_at(SimTime::from_secs(1800)), 0.9);
    }

    #[test]
    fn square_wave_duty_cycle() {
        let s = Shape::Square {
            low: 0.0,
            high: 1.0,
            period: SimDuration::from_hours(1),
            duty: 0.25,
            phase: 0.0,
        };
        assert_eq!(s.value_at(SimTime::from_secs(10)), 1.0);
        assert_eq!(s.value_at(SimTime::from_secs(1000)), 0.0);
        // Next period.
        assert_eq!(s.value_at(SimTime::from_secs(3700)), 1.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = DemandProcess::new(Shape::diurnal(0.4, 0.2)).with_noise(0.9, 0.08);
        let a = p.generate(
            SimDuration::from_hours(4),
            SimDuration::from_mins(5),
            &mut RngStream::new(3),
        );
        let b = p.generate(
            SimDuration::from_hours(4),
            SimDuration::from_mins(5),
            &mut RngStream::new(3),
        );
        assert_eq!(a, b);
        let c = p.generate(
            SimDuration::from_hours(4),
            SimDuration::from_mins(5),
            &mut RngStream::new(4),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn noise_perturbs_but_tracks_shape() {
        let p = DemandProcess::new(Shape::constant(0.5)).with_noise(0.8, 0.05);
        let t = p.generate(
            SimDuration::from_hours(24),
            SimDuration::from_mins(1),
            &mut RngStream::new(9),
        );
        assert!((t.mean() - 0.5).abs() < 0.05, "mean {}", t.mean());
        // And it actually varies.
        let trough = t.samples().iter().copied().fold(f64::INFINITY, f64::min);
        assert!(t.peak() - trough > 0.05);
    }

    #[test]
    fn spikes_raise_peak() {
        let base = DemandProcess::new(Shape::constant(0.2));
        let spiky = base.with_spikes(24.0, 0.6, SimDuration::from_mins(20));
        let t_base = base.generate(
            SimDuration::from_hours(24),
            SimDuration::from_mins(1),
            &mut RngStream::new(5),
        );
        let t_spiky = spiky.generate(
            SimDuration::from_hours(24),
            SimDuration::from_mins(1),
            &mut RngStream::new(5),
        );
        assert_eq!(t_base.peak(), 0.2);
        assert!(t_spiky.peak() > 0.7, "peak {}", t_spiky.peak());
        assert!(t_spiky.mean() > t_base.mean());
    }

    #[test]
    fn samples_always_clamped() {
        let p = DemandProcess::new(Shape::diurnal(0.6, 0.4)).with_noise(0.5, 0.5);
        let t = p.generate(
            SimDuration::from_hours(24),
            SimDuration::from_mins(1),
            &mut RngStream::new(11),
        );
        for &s in t.samples() {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "diurnal peak exceeds")]
    fn diurnal_rejects_overflow() {
        Shape::diurnal(0.8, 0.4);
    }
}
