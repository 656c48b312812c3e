//! Summary statistics: online moments and percentiles.

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable single-pass moments; used for per-tick metrics where
/// storing every sample would be wasteful at scale.
///
/// # Example
///
/// ```
/// use simcore::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation (0 if fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Linear-interpolated percentile of a sample set (like numpy's default).
///
/// Returns `None` for an empty slice.
///
/// Samples are ordered with [`f64::total_cmp`] (IEEE 754 total order),
/// so NaN input never panics: positive NaNs sort after `+inf` and
/// negative NaNs before `-inf`. A NaN that lands inside the requested
/// rank window propagates into the result — callers who need a clean
/// answer should filter non-finite samples first.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// use simcore::percentile;
///
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&data, 50.0), Some(2.5));
/// assert_eq!(percentile(&data, 100.0), Some(4.0));
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(9.0));
        assert_eq!(w.count(), 7);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut whole = Welford::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(3.0);
        let saved = a;
        a.merge(&Welford::new());
        assert_eq!(a, saved);
        let mut empty = Welford::new();
        empty.merge(&saved);
        assert_eq!(empty, saved);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&data, 0.0), Some(10.0));
        assert_eq!(percentile(&data, 50.0), Some(20.0));
        assert_eq!(percentile(&data, 75.0), Some(25.0));
        assert_eq!(percentile(&data, 100.0), Some(30.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_tolerates_nan_input() {
        // Regression: this used to panic via partial_cmp().expect().
        // Total order puts the (positive) NaN after +inf, so low
        // percentiles still read the finite samples.
        let data = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 100.0 / 3.0), Some(2.0));
        // Ranks that touch the NaN propagate it instead of panicking.
        assert!(percentile(&data, 100.0).unwrap().is_nan());
        assert!(percentile(&[f64::NAN], 50.0).unwrap().is_nan());
    }
}
