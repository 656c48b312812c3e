//! Proactive pre-waking from a learned time-of-day demand profile.
//!
//! The traditional answer to slow power states is *prediction*: learn the
//! diurnal demand profile and boot hosts ahead of the morning ramp, so
//! the boot latency is hidden. This module implements that alternative so
//! the evaluation can contrast it with the paper's proposal (experiment
//! T18): prediction compensates for *recurring* patterns, but flash
//! crowds are unpredictable by construction — only low-latency states
//! cover those.

use simcore::{SimDuration, SimTime};

use crate::ConfigError;

/// An online time-of-day demand profile: EWMA of observed total demand
/// per time-of-day bucket, learned across days.
///
/// # Example
///
/// ```
/// use agile_core::DayProfile;
/// use simcore::{SimDuration, SimTime};
///
/// let mut p = DayProfile::new(SimDuration::from_mins(30), 0.5)?;
/// p.observe(SimTime::from_secs(9 * 3600), 120.0); // 9am, day 1
/// // Next day, same time-of-day: the forecast knows.
/// let tomorrow = SimTime::from_secs((24 + 9) * 3600);
/// assert_eq!(p.forecast_max(tomorrow, SimDuration::ZERO), Some(120.0));
/// // A never-observed bucket has no forecast.
/// assert_eq!(p.forecast_max(SimTime::from_secs(3 * 3600), SimDuration::ZERO), None);
/// # Ok::<(), agile_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DayProfile {
    bucket_len: SimDuration,
    buckets: Vec<f64>,
    seen: Vec<bool>,
    alpha: f64,
}

impl DayProfile {
    /// Creates a profile with the given bucket length and EWMA factor.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for a zero bucket length, a bucket length that
    /// does not divide 24 h evenly, or an EWMA factor outside `(0, 1]`.
    pub fn new(bucket_len: SimDuration, alpha: f64) -> Result<Self, ConfigError> {
        if bucket_len.is_zero() {
            return Err(ConfigError::Invalid {
                message: "bucket length must be non-zero",
            });
        }
        let day_ms = SimDuration::from_hours(24).as_millis();
        if !day_ms.is_multiple_of(bucket_len.as_millis()) {
            return Err(ConfigError::Invalid {
                message: "bucket length must divide 24 h evenly",
            });
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(ConfigError::OutOfRange {
                field: "alpha",
                value: alpha,
                constraint: "outside (0,1]",
            });
        }
        let n = (day_ms / bucket_len.as_millis()) as usize;
        Ok(DayProfile {
            bucket_len,
            buckets: vec![0.0; n],
            seen: vec![false; n],
            alpha,
        })
    }

    fn bucket_of(&self, t: SimTime) -> usize {
        let day_ms = SimDuration::from_hours(24).as_millis();
        ((t.as_millis() % day_ms) / self.bucket_len.as_millis()) as usize
    }

    /// Feeds one total-demand observation at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is negative or not finite.
    pub fn observe(&mut self, t: SimTime, demand: f64) {
        assert!(
            demand.is_finite() && demand >= 0.0,
            "bad demand observation {demand}"
        );
        let b = self.bucket_of(t);
        if self.seen[b] {
            self.buckets[b] = self.alpha * demand + (1.0 - self.alpha) * self.buckets[b];
        } else {
            self.buckets[b] = demand;
            self.seen[b] = true;
        }
    }

    /// The learned demand for the time-of-day bucket containing `t`, or
    /// `None` if that bucket has never been observed.
    fn forecast(&self, t: SimTime) -> Option<f64> {
        let b = self.bucket_of(t);
        self.seen[b].then(|| self.buckets[b])
    }

    /// The largest learned demand over `[from, from + window]`, if every
    /// covered bucket has been observed — what a pre-wake decision needs
    /// (capacity must cover the whole lookahead window).
    pub fn forecast_max(&self, from: SimTime, window: SimDuration) -> Option<f64> {
        let mut t = from;
        let end = from + window;
        let mut max: Option<f64> = None;
        loop {
            let f = self.forecast(t)?;
            max = Some(max.map_or(f, |m: f64| m.max(f)));
            if t >= end {
                return max;
            }
            t = t + self
                .bucket_len
                .min(end.since(t).max(SimDuration::from_millis(1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DayProfile {
        DayProfile::new(SimDuration::from_hours(1), 0.5).unwrap()
    }

    #[test]
    fn buckets_wrap_by_day() {
        let mut p = profile();
        p.observe(SimTime::from_secs(10 * 3600), 50.0);
        // 10am on day 3 maps to the same bucket.
        let day3 = SimTime::from_secs((48 + 10) * 3600);
        assert_eq!(p.forecast(day3), Some(50.0));
    }

    #[test]
    fn ewma_updates_across_days() {
        let mut p = profile();
        p.observe(SimTime::from_secs(8 * 3600), 100.0);
        p.observe(SimTime::from_secs((24 + 8) * 3600), 200.0);
        assert_eq!(p.forecast(SimTime::from_secs(8 * 3600)), Some(150.0));
    }

    #[test]
    fn forecast_max_needs_full_window() {
        let mut p = profile();
        p.observe(SimTime::from_secs(8 * 3600), 100.0);
        // Window reaching into the unseen 9am bucket: no forecast.
        assert_eq!(
            p.forecast_max(
                SimTime::from_secs(8 * 3600 + 1800),
                SimDuration::from_hours(1)
            ),
            None
        );
        p.observe(SimTime::from_secs(9 * 3600), 300.0);
        assert_eq!(
            p.forecast_max(
                SimTime::from_secs(8 * 3600 + 1800),
                SimDuration::from_hours(1)
            ),
            Some(300.0)
        );
    }

    #[test]
    fn same_bucket_window_works() {
        let mut p = profile();
        p.observe(SimTime::from_secs(8 * 3600), 100.0);
        assert_eq!(
            p.forecast_max(SimTime::from_secs(8 * 3600), SimDuration::from_mins(5)),
            Some(100.0)
        );
    }

    #[test]
    fn new_reports_each_rejection() {
        for (bucket_len, alpha, expected) in [
            (SimDuration::from_mins(7), 0.5, "divide 24 h evenly"),
            (SimDuration::ZERO, 0.5, "bucket length must be non-zero"),
            (SimDuration::from_mins(30), 0.0, "alpha 0 outside (0,1]"),
            (SimDuration::from_mins(30), 1.5, "alpha 1.5 outside (0,1]"),
        ] {
            let err = DayProfile::new(bucket_len, alpha).unwrap_err().to_string();
            assert!(err.contains(expected), "{err} lacks {expected}");
        }
        assert!(DayProfile::new(SimDuration::from_mins(30), 1.0).is_ok());
    }

    /// Regression: an observation at exactly `k·24 h` belongs to the
    /// first bucket of the new day, not the last bucket of the old one.
    #[test]
    fn day_boundary_maps_to_first_bucket() {
        let mut p = profile();
        for day in 0..3 {
            p.observe(SimTime::from_secs(day * 24 * 3600), 75.0);
        }
        // Midnight forecast comes from the 00:00 bucket...
        assert_eq!(p.forecast(SimTime::from_secs(5 * 24 * 3600)), Some(75.0));
        // ...and the 23:00 bucket stayed untouched.
        assert_eq!(p.forecast(SimTime::from_secs(23 * 3600)), None);
    }

    /// Regression: the last millisecond of a day still bucketizes into
    /// that day's final bucket (no off-by-one into the next day).
    #[test]
    fn last_millisecond_of_day_stays_in_final_bucket() {
        let mut p = profile();
        let last_ms = SimTime::from_secs(24 * 3600) - SimDuration::from_millis(1);
        p.observe(last_ms, 42.0);
        assert_eq!(p.forecast(SimTime::from_secs(23 * 3600)), Some(42.0));
        assert_eq!(p.forecast(SimTime::from_secs(24 * 3600)), None);
        // Same instant next day lands in the same bucket.
        let next_day_last_ms = last_ms + SimDuration::from_hours(24);
        assert_eq!(p.forecast(next_day_last_ms), Some(42.0));
    }
}
