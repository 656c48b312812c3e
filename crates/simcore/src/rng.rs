//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible given a seed, independent of
//! platform and dependency versions, so we carry a small self-contained
//! SplitMix64 generator rather than relying on an external RNG whose stream
//! may change between releases. SplitMix64 passes BigCrush for the uses we
//! have (workload phases, noise, tie-breaking) and is trivially splittable
//! into independent streams.

/// A seedable, splittable pseudo-random number generator (SplitMix64).
///
/// Each logical source of randomness in a simulation (per-VM demand noise,
/// fleet generation, placement tie-breaking, ...) should own its own stream,
/// derived via [`RngStream::substream`], so that adding a consumer never
/// perturbs the draws seen by another.
///
/// # Example
///
/// ```
/// use simcore::RngStream;
///
/// let mut a = RngStream::new(42).substream(1);
/// let mut b = RngStream::new(42).substream(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RngStream {
    state: u64,
    /// Cached second Box–Muller variate, if one is pending.
    gauss_spare: Option<f64>,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngStream {
    /// Creates a stream from a seed. The same seed always yields the same
    /// sequence.
    pub fn new(seed: u64) -> Self {
        RngStream {
            // Mix the seed so that small consecutive seeds give unrelated
            // streams.
            state: mix(seed ^ GOLDEN_GAMMA),
            gauss_spare: None,
        }
    }

    /// Derives an independent stream identified by `id`.
    ///
    /// Streams derived with distinct ids from the same parent are
    /// statistically independent; deriving with the same id is reproducible.
    pub fn substream(&self, id: u64) -> RngStream {
        RngStream {
            state: mix(self.state ^ mix(id.wrapping_mul(GOLDEN_GAMMA) ^ 0xD605_0BB5_9C3A_46C1)),
            gauss_spare: None,
        }
    }

    /// Splits off an independent child stream, advancing this one.
    ///
    /// Unlike [`RngStream::substream`], which derives a stream from a
    /// fixed id without touching the parent, `split` consumes one draw
    /// from the parent per child, so a loop can mint an unbounded
    /// sequence of mutually independent streams (one per generated test
    /// case, one per worker, ...) without inventing ids.
    pub fn split(&mut self) -> RngStream {
        RngStream::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer draw in `[0, n)` using Lemire's rejection method
    /// (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire 2018: multiply-shift with rejection of the biased zone.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw (Box–Muller, with the spare variate cached).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller transform on two uniforms.
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev >= 0.0,
            "std_dev must be non-negative, got {std_dev}"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Exponential draw with the given rate parameter `lambda`
    /// (mean `1/lambda`).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "lambda must be positive, got {lambda}");
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Picks an index in `[0, weights.len())` proportionally to `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1 // floating-point slop: last non-zero bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = RngStream::new(7);
        let mut b = RngStream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::new(7);
        let mut b = RngStream::new(8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substreams_are_independent_and_reproducible() {
        let root = RngStream::new(99);
        let mut s1 = root.substream(1);
        let mut s1b = root.substream(1);
        let mut s2 = root.substream(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn split_streams_are_independent_and_reproducible() {
        let mut parent = RngStream::new(11);
        let mut twin = RngStream::new(11);
        let mut a = parent.split();
        let mut b = parent.split();
        let mut a2 = twin.split();
        let mut b2 = twin.split();
        assert_eq!(a.next_u64(), a2.next_u64(), "same parent, same children");
        assert_eq!(b.next_u64(), b2.next_u64());
        assert_ne!(a.next_u64(), b.next_u64(), "children are distinct");
    }

    #[test]
    fn split_advances_the_parent() {
        let mut split_once = RngStream::new(11);
        let _child = split_once.split();
        let mut untouched = RngStream::new(11);
        assert_ne!(split_once.next_u64(), untouched.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = RngStream::new(1);
        for _ in 0..10_000 {
            let x = r.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = RngStream::new(2);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 each; allow generous 5% tolerance.
            assert!((9_500..10_500).contains(&c), "count {c} out of tolerance");
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = RngStream::new(3);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal(10.0, 2.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = RngStream::new(4);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = RngStream::new(5);
        let mut counts = [0u32; 3];
        for _ in 0..90_000 {
            counts[r.weighted_index(&[1.0, 2.0, 0.0])] += 1;
        }
        assert_eq!(counts[2], 0);
        assert!((counts[1] as f64 / counts[0] as f64 - 2.0).abs() < 0.15);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn weighted_index_rejects_all_zero() {
        RngStream::new(6).weighted_index(&[0.0, 0.0]);
    }
}
