//! Per-signal demand prediction.
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

/// A single signal's prediction state.
///
/// # Example
///
/// ```
/// use agile_core::{Predictor, PredictorConfig};
///
/// let mut p = Predictor::new(PredictorConfig::Ewma { alpha: 0.5 });
/// p.observe(1.0);
/// p.observe(0.0);
/// assert_eq!(p.predict(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Predictor {
    config: PredictorConfig,
    state: State,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    Scalar(Option<f64>),
    Window(Vec<f64>),
}

impl Predictor {
    /// Creates a predictor. The configuration is not checked here: the
    /// manager checks it once, in [`PredictorConfig::try_validate`].
    pub fn new(config: PredictorConfig) -> Self {
        let state = match config {
            PredictorConfig::WindowMax { .. } => State::Window(Vec::new()),
            _ => State::Scalar(None),
        };
        Predictor { config, state }
    }

    /// Feeds a new observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite observation {value}");
        match (&mut self.state, self.config) {
            (State::Scalar(s), PredictorConfig::LastValue) => *s = Some(value),
            (State::Scalar(s), PredictorConfig::Ewma { alpha }) => {
                *s = Some(match *s {
                    None => value,
                    Some(prev) => alpha * value + (1.0 - alpha) * prev,
                });
            }
            (State::Window(w), PredictorConfig::WindowMax { window }) => {
                w.push(value);
                if w.len() > window {
                    w.remove(0);
                }
            }
            _ => unreachable!("state/config mismatch"),
        }
    }

    /// The current prediction (0.0 before any observation).
    pub fn predict(&self) -> f64 {
        match &self.state {
            State::Scalar(s) => s.unwrap_or(0.0),
            State::Window(w) => w.iter().copied().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_tracks_immediately() {
        let mut p = Predictor::new(PredictorConfig::LastValue);
        assert_eq!(p.predict(), 0.0);
        p.observe(0.7);
        assert_eq!(p.predict(), 0.7);
        p.observe(0.1);
        assert_eq!(p.predict(), 0.1);
    }

    #[test]
    fn ewma_smooths() {
        let mut p = Predictor::new(PredictorConfig::Ewma { alpha: 0.5 });
        p.observe(1.0);
        assert_eq!(p.predict(), 1.0); // first observation seeds directly
        p.observe(0.0);
        assert_eq!(p.predict(), 0.5);
        p.observe(0.0);
        assert_eq!(p.predict(), 0.25);
    }

    #[test]
    fn ewma_alpha_one_is_last_value() {
        let mut p = Predictor::new(PredictorConfig::Ewma { alpha: 1.0 });
        p.observe(0.3);
        p.observe(0.9);
        assert_eq!(p.predict(), 0.9);
    }

    #[test]
    fn window_max_holds_peak() {
        let mut p = Predictor::new(PredictorConfig::WindowMax { window: 3 });
        for v in [0.2, 0.9, 0.1, 0.1] {
            p.observe(v);
        }
        assert_eq!(p.predict(), 0.9); // 0.9 still in window
        p.observe(0.1);
        assert_eq!(p.predict(), 0.1); // 0.9 aged out
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
}
