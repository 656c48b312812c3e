//! Step-function time series used for power traces and utilization records.

use crate::SimTime;

/// One sample of a time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Instant the value took effect.
    pub time: SimTime,
    /// Value from `time` until the next sample.
    pub value: f64,
}

/// A piecewise-constant (step-function) time series.
///
/// Each recorded sample holds until the next one, which matches how the
/// simulator produces data: host power or utilization changes at discrete
/// events and is constant in between. Integration and time-weighted
/// averaging are exact under this interpretation.
///
/// # Example
///
/// ```
/// use simcore::{SimTime, TimeSeries};
///
/// let mut power = TimeSeries::new();
/// power.record(SimTime::ZERO, 100.0);
/// power.record(SimTime::from_secs(10), 200.0);
/// // 10 s at 100 W + 10 s at 200 W = 3000 J
/// assert_eq!(power.integral_until(SimTime::from_secs(20)), 3000.0);
/// assert_eq!(power.time_weighted_mean(SimTime::from_secs(20)), Some(150.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<SeriesPoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Records `value` taking effect at `time`.
    ///
    /// Recording at the same instant as the previous sample overwrites it
    /// (the last write wins, matching event semantics). Consecutive equal
    /// values are coalesced.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous sample, or `value` is not
    /// finite.
    pub fn record(&mut self, time: SimTime, value: f64) {
        assert!(value.is_finite(), "non-finite sample {value} at {time}");
        if let Some(last) = self.points.last_mut() {
            assert!(
                last.time <= time,
                "samples must be time-ordered: {} after {}",
                time,
                last.time
            );
            if last.time == time {
                last.value = value;
                return;
            }
            if last.value == value {
                return; // coalesce runs of the same value
            }
        }
        self.points.push(SeriesPoint { time, value });
    }

    /// Rebuilds a series from already-recorded samples, verbatim.
    ///
    /// Unlike [`record`](Self::record), equal consecutive values are
    /// *not* coalesced: a recorded series may legitimately contain them
    /// (a same-instant overwrite can converge a sample with its
    /// predecessor after both were pushed), and deserializers must
    /// preserve every point so a serialize/parse round-trip is exact.
    ///
    /// # Panics
    ///
    /// Panics if the samples are not time-ordered, contain duplicate
    /// timestamps, or hold a non-finite value.
    pub fn from_points(points: impl IntoIterator<Item = (SimTime, f64)>) -> Self {
        let mut series = TimeSeries::new();
        for (time, value) in points {
            assert!(value.is_finite(), "non-finite sample {value} at {time}");
            if let Some(last) = series.points.last() {
                assert!(
                    last.time < time,
                    "samples must be strictly time-ordered: {} after {}",
                    time,
                    last.time
                );
            }
            series.points.push(SeriesPoint { time, value });
        }
        series
    }

    /// The samples, in time order.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Whether any samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of (coalesced) samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// The value in effect at `time`, or `None` before the first sample.
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|p| p.time.cmp(&time)) {
            Ok(i) => Some(self.points[i].value),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].value),
        }
    }

    /// Integral of the step function from the first sample to `end`.
    ///
    /// For a power series in watts this is the energy in joules.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the final sample.
    pub fn integral_until(&self, end: SimTime) -> f64 {
        let mut total = 0.0;
        for pair in self.points.windows(2) {
            total += pair[0].value * pair[1].time.since(pair[0].time).as_secs_f64();
        }
        if let Some(last) = self.points.last() {
            total += last.value * end.since(last.time).as_secs_f64();
        }
        total
    }

    /// Time-weighted mean over `[first sample, end]`, or `None` if the
    /// series is empty or spans zero time.
    pub fn time_weighted_mean(&self, end: SimTime) -> Option<f64> {
        let first = self.points.first()?.time;
        let span = end.since(first);
        if span.is_zero() {
            return None;
        }
        Some(self.integral_until(end) / span.as_secs_f64())
    }

    /// Maximum sample value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Minimum sample value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Pointwise sum of several series, sampled on the union of their
    /// breakpoints. Series contribute zero before their first sample.
    ///
    /// Used to aggregate per-host power traces into a datacenter trace.
    pub fn sum(series: &[&TimeSeries]) -> TimeSeries {
        let mut times: Vec<SimTime> = series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.time))
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut out = TimeSeries::new();
        for t in times {
            let v: f64 = series.iter().filter_map(|s| s.value_at(t)).sum();
            out.record(t, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn value_at_follows_steps() {
        let mut ts = TimeSeries::new();
        ts.record(s(10), 1.0);
        ts.record(s(20), 2.0);
        assert_eq!(ts.value_at(s(5)), None);
        assert_eq!(ts.value_at(s(10)), Some(1.0));
        assert_eq!(ts.value_at(s(15)), Some(1.0));
        assert_eq!(ts.value_at(s(20)), Some(2.0));
        assert_eq!(ts.value_at(s(100)), Some(2.0));
    }

    #[test]
    fn integral_is_exact_for_steps() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 100.0);
        ts.record(s(60), 50.0);
        // 60 s at 100 + 40 s at 50 = 8000
        assert_eq!(ts.integral_until(s(100)), 8000.0);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 1.0);
        ts.record(s(0), 3.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(s(0)), Some(3.0));
    }

    #[test]
    fn from_points_preserves_converged_neighbours() {
        // An overwrite can leave two consecutive samples with equal
        // values; `record` would coalesce the second on replay, but a
        // verbatim rebuild must keep it.
        let mut ts = TimeSeries::new();
        ts.record(s(0), 5.0);
        ts.record(s(10), 7.0);
        ts.record(s(10), 5.0);
        assert_eq!(ts.len(), 2);
        let rebuilt = TimeSeries::from_points(ts.points().iter().map(|p| (p.time, p.value)));
        assert_eq!(rebuilt, ts);
    }

    #[test]
    #[should_panic(expected = "strictly time-ordered")]
    fn from_points_rejects_unordered_samples() {
        TimeSeries::from_points([(s(10), 1.0), (s(5), 2.0)]);
    }

    #[test]
    fn equal_values_coalesce() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 5.0);
        ts.record(s(1), 5.0);
        ts.record(s(2), 5.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.integral_until(s(10)), 50.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order_samples() {
        let mut ts = TimeSeries::new();
        ts.record(s(10), 1.0);
        ts.record(s(5), 2.0);
    }

    #[test]
    fn mean_min_max() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 10.0);
        ts.record(s(10), 30.0);
        assert_eq!(ts.time_weighted_mean(s(20)), Some(20.0));
        assert_eq!(ts.max(), Some(30.0));
        assert_eq!(ts.min(), Some(10.0));
        assert_eq!(TimeSeries::new().max(), None);
    }

    #[test]
    fn sum_aggregates_series() {
        let mut a = TimeSeries::new();
        a.record(s(0), 1.0);
        a.record(s(10), 2.0);
        let mut b = TimeSeries::new();
        b.record(s(5), 10.0);
        let total = TimeSeries::sum(&[&a, &b]);
        assert_eq!(total.value_at(s(0)), Some(1.0));
        assert_eq!(total.value_at(s(5)), Some(11.0));
        assert_eq!(total.value_at(s(10)), Some(12.0));
    }
}
