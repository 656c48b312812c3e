//! Per-VM demand prediction.
//!
//! The manager predicts each VM's near-future demand from its measured
//! history. The paper's argument is that *low-latency power states shrink
//! the cost of misprediction*: with a 12-second resume, a conservative
//! predictor is unnecessary — experiment T12 quantifies this by swapping
//! predictors under both power-state regimes.

use crate::ConfigError;

/// Which prediction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorConfig {
    /// Predict the last observed value (most reactive, no smoothing).
    LastValue,
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha` (1.0 degenerates to last-value).
    Ewma {
        /// Weight of the newest observation, in `(0, 1]`.
        alpha: f64,
    },
    /// Maximum over the last `window` observations (most conservative;
    /// trades energy for safety).
    WindowMax {
        /// History length.
        window: usize,
    },
}

impl PredictorConfig {
    /// Checks the algorithm's parameter.
    /// [`crate::ManagerConfig::try_validate`] runs this on the manager's
    /// predictor.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if `alpha` is outside `(0, 1]`,
    /// [`ConfigError::Invalid`] if `window` is zero.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        match *self {
            PredictorConfig::Ewma { alpha } if !(alpha > 0.0 && alpha <= 1.0) => {
                Err(ConfigError::OutOfRange {
                    field: "alpha",
                    value: alpha,
                    constraint: "outside (0, 1]",
                })
            }
            PredictorConfig::WindowMax { window: 0 } => Err(ConfigError::Invalid {
                message: "window must be positive",
            }),
            _ => Ok(()),
        }
    }
}

impl Default for PredictorConfig {
    /// EWMA with `alpha = 0.5`: reactive but with some smoothing.
    fn default() -> Self {
        PredictorConfig::Ewma { alpha: 0.5 }
    }
}

/// Every VM's demand predictor, as one column for the fleet.
///
/// The manager observes every VM exactly once per round and reads each
/// prediction right after, so [`step`](Self::step) does both in one
/// ascending pass, matching the configuration once per round rather than
/// once per VM.
#[derive(Debug, Clone)]
pub(crate) struct Predictors {
    config: PredictorConfig,
    /// `LastValue` and `Ewma`: each VM's estimate, NaN before its first
    /// observation (observations are finite, so NaN marks nothing else).
    /// `WindowMax`: a `vms × window` ring, VM `i`'s slots at
    /// `i * window..(i + 1) * window`.
    state: Vec<f64>,
    /// Ring slot the next observation goes to. Every VM is observed once
    /// per round, so one head serves every VM's ring (`WindowMax` only).
    head: usize,
    /// Observations each ring holds, at most `window` (`WindowMax` only).
    filled: usize,
}

impl Predictors {
    /// Predictors for `vms` VMs. The configuration is not checked here:
    /// the manager checks it once, in [`PredictorConfig::try_validate`].
    pub fn new(config: PredictorConfig, vms: usize) -> Self {
        Predictors {
            config,
            state: vec![f64::NAN; vms * slots_per_vm(config)],
            head: 0,
            filled: 0,
        }
    }

    /// Feeds VM `i` its observation `demand[i]` and hands the prediction
    /// that follows it to `each(i, prediction)`, for every VM in
    /// ascending order. A prediction is the last value, the EWMA (seeded
    /// by the first observation), or the maximum of the window (folded
    /// oldest first from 0.0).
    ///
    /// # Panics
    ///
    /// Panics if `demand` does not hold one value per VM or holds a
    /// non-finite value.
    pub fn step(&mut self, demand: &[f64], mut each: impl FnMut(usize, f64)) {
        assert_eq!(
            demand.len() * slots_per_vm(self.config),
            self.state.len(),
            "one demand per VM"
        );
        let observed = |d: f64| {
            assert!(d.is_finite(), "non-finite observation {d}");
            d
        };
        match self.config {
            PredictorConfig::LastValue => {
                for (i, (s, &d)) in self.state.iter_mut().zip(demand).enumerate() {
                    *s = observed(d);
                    each(i, *s);
                }
            }
            PredictorConfig::Ewma { alpha } => {
                for (i, (s, &d)) in self.state.iter_mut().zip(demand).enumerate() {
                    let d = observed(d);
                    *s = if s.is_nan() {
                        d
                    } else {
                        alpha * d + (1.0 - alpha) * *s
                    };
                    each(i, *s);
                }
            }
            PredictorConfig::WindowMax { window } => {
                let (head, full) = (self.head, self.filled == window);
                for (i, (ring, &d)) in self.state.chunks_exact_mut(window).zip(demand).enumerate() {
                    ring[head] = observed(d);
                    // Oldest first: the slots past the head hold the
                    // oldest values once the ring is full, nothing before.
                    let (newer, older) = ring.split_at(head + 1);
                    let older = if full { older } else { &[] };
                    each(i, older.iter().chain(newer).copied().fold(0.0, f64::max));
                }
                self.head = (head + 1) % window;
                self.filled = (self.filled + 1).min(window);
            }
        }
    }
}

/// State slots per VM: the window for `WindowMax`, one value otherwise.
fn slots_per_vm(config: PredictorConfig) -> usize {
    match config {
        PredictorConfig::WindowMax { window } => window,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen;

    /// The predictions one VM's column yields after each of `values`.
    fn predictions(config: PredictorConfig, values: &[f64]) -> Vec<f64> {
        let mut column = Predictors::new(config, 1);
        let mut out = Vec::new();
        for &v in values {
            column.step(&[v], |_, p| out.push(p));
        }
        out
    }

    #[test]
    fn last_value_tracks_immediately() {
        let p = predictions(PredictorConfig::LastValue, &[0.7, 0.1]);
        assert_eq!(p, [0.7, 0.1]);
    }

    #[test]
    fn ewma_smooths() {
        let p = predictions(PredictorConfig::Ewma { alpha: 0.5 }, &[1.0, 0.0, 0.0]);
        // The first observation seeds directly.
        assert_eq!(p, [1.0, 0.5, 0.25]);
    }

    #[test]
    fn ewma_alpha_one_is_last_value() {
        let p = predictions(PredictorConfig::Ewma { alpha: 1.0 }, &[0.3, 0.9]);
        assert_eq!(p[1], 0.9);
    }

    #[test]
    fn window_max_holds_peak() {
        let p = predictions(
            PredictorConfig::WindowMax { window: 3 },
            &[0.2, 0.9, 0.1, 0.1, 0.1],
        );
        assert_eq!(p[3], 0.9); // 0.9 still in window
        assert_eq!(p[4], 0.1); // 0.9 aged out
    }

    #[test]
    fn try_validate_rejects_bad_parameters() {
        for (config, expected) in [
            (PredictorConfig::Ewma { alpha: 0.0 }, "alpha 0 outside"),
            (PredictorConfig::WindowMax { window: 0 }, "window"),
        ] {
            let err = config.try_validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{err} lacks {expected}");
        }
        assert_eq!(PredictorConfig::LastValue.try_validate(), Ok(()));
    }

    /// One VM's predictor as a record: a value or a growing window —
    /// the reference the column must reproduce bit for bit.
    struct Reference {
        config: PredictorConfig,
        scalar: Option<f64>,
        window: Vec<f64>,
    }

    impl Reference {
        fn observe(&mut self, value: f64) {
            match self.config {
                PredictorConfig::LastValue => self.scalar = Some(value),
                PredictorConfig::Ewma { alpha } => {
                    self.scalar = Some(match self.scalar {
                        None => value,
                        Some(prev) => alpha * value + (1.0 - alpha) * prev,
                    });
                }
                PredictorConfig::WindowMax { window } => {
                    self.window.push(value);
                    if self.window.len() > window {
                        self.window.remove(0);
                    }
                }
            }
        }

        fn predict(&self) -> f64 {
            match self.config {
                PredictorConfig::WindowMax { .. } => {
                    self.window.iter().copied().fold(0.0, f64::max)
                }
                _ => self.scalar.unwrap_or(0.0),
            }
        }
    }

    #[test]
    fn column_matches_per_vm_reference_bit_for_bit() {
        // Alphas include 1 (last value) and values awkward in binary;
        // windows from 1 to 5 against up to 12 rounds, so rings both
        // fill up and age values out. Demands come off a grid with zero
        // and repeats, plus odd mantissas.
        let config = gen::choice(vec![
            gen::constant(PredictorConfig::LastValue),
            gen::one_of(vec![1.0, 0.5, 0.3, 0.1, 0.9999])
                .map(|alpha| PredictorConfig::Ewma { alpha }),
            gen::usize_in(1..=5).map(|window| PredictorConfig::WindowMax { window }),
        ]);
        let demand = gen::choice(vec![
            gen::u64_in(0..=4).map(|q| q as f64 * 0.5),
            gen::f64_in(0.0, 3.0),
        ]);
        let input = config
            .zip(&gen::usize_in(0..=4))
            .and_then(move |(config, vms)| {
                let round = gen::vec_of(&demand, vms..=vms);
                gen::vec_of(&round, 0..=12).map(move |rounds| (config, vms, rounds))
            });
        check::check(
            "predictor column == per-VM reference",
            &input,
            |(config, vms, rounds)| {
                let mut column = Predictors::new(*config, *vms);
                let mut reference: Vec<_> = (0..*vms)
                    .map(|_| Reference {
                        config: *config,
                        scalar: None,
                        window: Vec::new(),
                    })
                    .collect();
                for (r, demand) in rounds.iter().enumerate() {
                    let mut got = Vec::new();
                    column.step(demand, |i, p| got.push((i, p.to_bits())));
                    let want: Vec<_> = reference
                        .iter_mut()
                        .zip(demand)
                        .enumerate()
                        .map(|(i, (p, &d))| {
                            p.observe(d);
                            (i, p.predict().to_bits())
                        })
                        .collect();
                    check::prop_assert_eq!(got, want, "round {r}");
                }
                Ok(())
            },
        );
    }
}
