//! Statistical distributions for workload synthesis.
//!
//! Implemented from first principles on top of [`SimRng`] (inverse-transform
//! and Box–Muller sampling) so the workspace does not need `rand_distr`.
//! These are the distributions classically used for parallel-job workload
//! models: exponential interarrivals, log-normal runtimes (Feitelson-style)
//! and an empirical discrete histogram for job sizes.

use crate::rng::SimRng;

/// A sampleable one-dimensional distribution over `f64`.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, used by generators to calibrate arrival rates
    /// against utilization targets.
    fn mean(&self) -> f64;
}

/// Exponential distribution with the given mean (`rate = 1/mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// # Panics
    /// Panics if `mean` is not finite and positive.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.uniform_pos().ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal distribution parameterised by the underlying normal's
/// `mu` and `sigma` (`X = exp(mu + sigma * Z)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// # Panics
    /// Panics if `sigma` is negative or parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad log-normal parameters mu={mu} sigma={sigma}"
        );
        LogNormal { mu, sigma }
    }

    /// Construct from a target mean and coefficient of variation
    /// (`cv = stddev/mean`), the more natural workload-modelling view.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0, "bad mean/cv {mean}/{cv}");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal::new(mu, sigma2.sqrt())
    }

    /// One standard-normal draw via Box–Muller (the cosine branch; one draw
    /// per call keeps sampling stateless and substream-stable).
    fn std_normal(rng: &mut SimRng) -> f64 {
        let u1 = rng.uniform_pos();
        let u2 = rng.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Self::std_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// An empirical discrete distribution: weighted choice over `(value, weight)`
/// buckets. Used for job-size histograms (e.g. the power-of-two partition
/// sizes dominating Blue Gene/P traces).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteWeighted {
    values: Vec<f64>,
    /// Cumulative weights, normalised so the last entry is 1.0.
    cdf: Vec<f64>,
    mean: f64,
}

impl DiscreteWeighted {
    /// Build from `(value, weight)` pairs.
    ///
    /// # Panics
    /// Panics if `buckets` is empty, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new(buckets: &[(f64, f64)]) -> Self {
        assert!(
            !buckets.is_empty(),
            "discrete distribution needs at least one bucket"
        );
        let total: f64 = buckets
            .iter()
            .map(|&(_, w)| {
                assert!(w.is_finite() && w >= 0.0, "negative weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "all weights are zero");
        let mut values = Vec::with_capacity(buckets.len());
        let mut cdf = Vec::with_capacity(buckets.len());
        let mut acc = 0.0;
        let mut mean = 0.0;
        for &(v, w) in buckets {
            acc += w / total;
            values.push(v);
            cdf.push(acc);
            mean += v * (w / total);
        }
        // Guard against accumulated floating error leaving the last CDF entry
        // fractionally below 1.0.
        *cdf.last_mut().expect("non-empty") = 1.0;
        DiscreteWeighted { values, cdf, mean }
    }

    /// The bucket values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Distribution for DiscreteWeighted {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform();
        let idx = self.cdf.partition_point(|&c| c <= u);
        self.values[idx.min(self.values.len() - 1)]
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Clamp a sample into `[lo, hi]`, re-rounding through `u64`. Convenience for
/// turning continuous draws into bounded integer job attributes.
pub fn sample_clamped_u64(d: &dyn Distribution, rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    let x = d.sample(rng);
    if !x.is_finite() || x <= lo as f64 {
        lo
    } else if x >= hi as f64 {
        hi
    } else {
        (x.round() as u64).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &dyn Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::new(120.0);
        let m = sample_mean(&d, 1, 200_000);
        assert!((m - 120.0).abs() / 120.0 < 0.02, "mean {m}");
        assert_eq!(d.mean(), 120.0);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::new(5.0);
        let mut rng = SimRng::seed_from_u64(2);
        assert!((0..10_000).all(|_| d.sample(&mut rng) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn exponential_rejects_zero_mean() {
        Exponential::new(0.0);
    }

    #[test]
    fn lognormal_mean_matches_analytic() {
        let d = LogNormal::new(3.0, 0.8);
        let m = sample_mean(&d, 3, 400_000);
        let expect = d.mean();
        assert!((m - expect).abs() / expect < 0.03, "mean {m} vs {expect}");
    }

    #[test]
    fn lognormal_from_mean_cv_recovers_mean() {
        let d = LogNormal::from_mean_cv(3600.0, 2.0);
        assert!((d.mean() - 3600.0).abs() < 1e-6);
        let m = sample_mean(&d, 4, 400_000);
        assert!((m - 3600.0).abs() / 3600.0 < 0.10, "mean {m}"); // cv=2 is noisy
    }

    #[test]
    fn discrete_respects_weights() {
        let d = DiscreteWeighted::new(&[(1.0, 1.0), (2.0, 3.0)]);
        let mut rng = SimRng::seed_from_u64(6);
        let n = 100_000;
        let twos = (0..n).filter(|_| d.sample(&mut rng) == 2.0).count();
        let frac = twos as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
        assert!((d.mean() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn discrete_single_bucket_is_constant() {
        let d = DiscreteWeighted::new(&[(512.0, 1.0)]);
        let mut rng = SimRng::seed_from_u64(7);
        assert!((0..100).all(|_| d.sample(&mut rng) == 512.0));
    }

    #[test]
    fn discrete_ignores_zero_weight_bucket() {
        let d = DiscreteWeighted::new(&[(1.0, 0.0), (9.0, 2.0)]);
        let mut rng = SimRng::seed_from_u64(8);
        assert!((0..1_000).all(|_| d.sample(&mut rng) == 9.0));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn discrete_rejects_empty() {
        DiscreteWeighted::new(&[]);
    }

    #[test]
    #[should_panic(expected = "all weights are zero")]
    fn discrete_rejects_all_zero_weights() {
        DiscreteWeighted::new(&[(1.0, 0.0), (2.0, 0.0)]);
    }

    #[test]
    fn clamped_sampling_stays_in_bounds() {
        let d = LogNormal::from_mean_cv(1000.0, 3.0);
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = sample_clamped_u64(&d, &mut rng, 64, 4096);
            assert!((64..=4096).contains(&v));
        }
    }
}
