//! The Laplace mechanism.
//!
//! Section 4.2 of the paper makes the *count-computation* step
//! differentially private by adding `Lap(d/ε′)` noise to each optimal
//! count, after bounding the leave-one-out sensitivity of every pair's
//! optimal count by `d`. This module provides the noise primitive.

use rand::{Rng, RngExt};

/// A Laplace distribution centred at 0 with scale `b` (density
/// `exp(-|x|/b) / 2b`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceNoise {
    scale: f64,
}

impl LaplaceNoise {
    /// Create noise with the given scale `b > 0`.
    pub fn with_scale(scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be finite and > 0");
        LaplaceNoise { scale }
    }

    /// Create the mechanism noise for sensitivity `d` and privacy `ε′`:
    /// scale `d/ε′`.
    pub fn for_sensitivity(d: f64, epsilon: f64) -> Self {
        assert!(d.is_finite() && d > 0.0, "sensitivity must be finite and > 0");
        assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be finite and > 0");
        Self::with_scale(d / epsilon)
    }

    /// The scale parameter `b`.
    pub fn scale(self) -> f64 {
        self.scale
    }

    /// Draw one sample by inverse-CDF: for `u ~ U(-1/2, 1/2)`,
    /// `x = -b·sgn(u)·ln(1 − 2|u|)`.
    pub fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        // u in (-0.5, 0.5]; ln_1p for numerical stability near 0.
        let u: f64 = rng.random::<f64>() - 0.5;
        -self.scale * u.signum() * (-2.0 * u.abs()).ln_1p()
    }
}

/// Draw one `Lap(scale)` sample (convenience wrapper).
pub fn sample_laplace<R: Rng>(rng: &mut R, scale: f64) -> f64 {
    LaplaceNoise::with_scale(scale).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_mean_and_variance_match() {
        let mut rng = StdRng::seed_from_u64(7);
        let noise = LaplaceNoise::with_scale(2.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| noise.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // E = 0, Var = 2 b^2 = 8
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 8.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn samples_are_symmetric() {
        let mut rng = StdRng::seed_from_u64(11);
        let noise = LaplaceNoise::with_scale(1.0);
        let n = 100_000;
        let pos = (0..n).filter(|_| noise.sample(&mut rng) > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn for_sensitivity_sets_scale() {
        let noise = LaplaceNoise::for_sensitivity(4.0, 2.0);
        assert!((noise.scale() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn tail_decays_like_exponential() {
        // P(|X| > t) = exp(-t/b); check at t = 3b within MC error.
        let mut rng = StdRng::seed_from_u64(23);
        let noise = LaplaceNoise::with_scale(1.5);
        let n = 400_000;
        let t = 4.5;
        let tail = (0..n).filter(|_| noise.sample(&mut rng).abs() > t).count() as f64 / n as f64;
        let expect = (-3.0f64).exp();
        assert!((tail - expect).abs() < 0.005, "tail {tail} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "scale must be finite and > 0")]
    fn rejects_bad_scale() {
        let _ = LaplaceNoise::with_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "sensitivity must be finite and > 0")]
    fn rejects_bad_sensitivity() {
        let _ = LaplaceNoise::for_sensitivity(-1.0, 1.0);
    }
}
