//! Sampled demand traces.

use simcore::{SimDuration, SimTime};

/// A VM's demand over time, sampled at a fixed step, as a fraction of the
/// VM's CPU cap in `[0, 1]`.
///
/// The trace is a step function: sample `i` holds on
/// `[i·step, (i+1)·step)`; the last sample holds forever after (simulations
/// never read past their horizon in practice).
///
/// # Example
///
/// ```
/// use simcore::{SimDuration, SimTime};
/// use workload::DemandTrace;
///
/// let t = DemandTrace::from_samples(SimDuration::from_mins(5), vec![0.2, 0.8]);
/// assert_eq!(t.at(SimTime::ZERO), 0.2);
/// assert_eq!(t.at(SimTime::from_secs(299)), 0.2);
/// assert_eq!(t.at(SimTime::from_secs(300)), 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTrace {
    step: SimDuration,
    samples: Vec<f64>,
}

impl DemandTrace {
    /// Wraps pre-computed samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `step` is zero, or any sample is
    /// outside `[0, 1]`.
    pub fn from_samples(step: SimDuration, samples: Vec<f64>) -> Self {
        assert!(!step.is_zero(), "step must be non-zero");
        assert!(!samples.is_empty(), "trace needs at least one sample");
        for &s in &samples {
            assert!(
                s.is_finite() && (0.0..=1.0).contains(&s),
                "sample {s} outside [0,1]"
            );
        }
        DemandTrace { step, samples }
    }

    /// The sampling step.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has no samples (never true for a constructed
    /// trace; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn sample(&self, k: usize) -> f64 {
        self.samples[k]
    }

    /// Demand fraction in effect at `t`. An empty trace reads as zero
    /// demand.
    pub fn at(&self, t: SimTime) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let idx = (t.as_millis() / self.step.as_millis()) as usize;
        self.samples[idx.min(n - 1)]
    }

    /// Arithmetic mean of the samples (zero for an empty trace).
    pub fn mean(&self) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / n as f64
    }

    /// Largest sample.
    pub fn peak(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest sample (zero for an empty trace).
    pub fn trough(&self) -> f64 {
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// The trace's total span (`len × step`).
    pub fn span(&self) -> SimDuration {
        self.step * self.samples.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_indexes_steps_and_clamps_past_end() {
        let t = DemandTrace::from_samples(SimDuration::from_secs(10), vec![0.1, 0.2, 0.3]);
        assert_eq!(t.at(SimTime::ZERO), 0.1);
        assert_eq!(t.at(SimTime::from_secs(10)), 0.2);
        assert_eq!(t.at(SimTime::from_secs(29)), 0.3);
        assert_eq!(t.at(SimTime::from_secs(1000)), 0.3);
    }

    #[test]
    fn summary_statistics() {
        let t = DemandTrace::from_samples(SimDuration::from_secs(1), vec![0.0, 0.5, 1.0]);
        assert!((t.mean() - 0.5).abs() < 1e-12);
        assert_eq!(t.peak(), 1.0);
        assert_eq!(t.trough(), 0.0);
        assert_eq!(t.span(), SimDuration::from_secs(3));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn trough_is_smallest_sample_not_capped_at_one() {
        // Regression: a fold seeded with 1.0 hid troughs above 1.0's
        // complement — with all samples at 0.9 the trough is 0.9, and the
        // seed must not drag it down to 1.0's old cap either way.
        let t = DemandTrace::from_samples(SimDuration::from_secs(1), vec![0.9, 0.95]);
        assert_eq!(t.trough(), 0.9);
    }

    #[test]
    fn empty_trace_reads_as_zero() {
        // from_samples rejects empties; build one directly to pin the
        // defensive behaviour of the accessors.
        let t = DemandTrace {
            step: SimDuration::from_secs(1),
            samples: Vec::new(),
        };
        assert!(t.is_empty());
        assert_eq!(t.at(SimTime::ZERO), 0.0);
        assert_eq!(t.at(SimTime::from_secs(1000)), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.trough(), 0.0);
        assert_eq!(t.peak(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_out_of_range_samples() {
        DemandTrace::from_samples(SimDuration::from_secs(1), vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty() {
        DemandTrace::from_samples(SimDuration::from_secs(1), vec![]);
    }
}
