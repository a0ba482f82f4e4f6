//! Auxiliary samplers: Gaussian, Gamma, Dirichlet, discrete.
//!
//! The offline crate set has no `rand_distr`, so the distributions needed by
//! the substrates are implemented here: Gaussian (polar Box–Muller), Gamma
//! (Marsaglia–Tsang squeeze), Dirichlet (normalised Gammas — used for the
//! ground-truth CPTs of the synthetic datasets), and discrete sampling from a
//! weight vector (used by ancestral sampling and PrivGene selection).

use rand::{Rng, RngExt};

/// One standard-normal sample via the polar (Marsaglia) Box–Muller method.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.random::<f64>() - 1.0;
        let v = 2.0 * rng.random::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// A `N(mean, std²)` sample.
///
/// # Panics
/// Panics if `std` is negative or non-finite.
pub fn sample_normal<R: Rng + ?Sized>(mean: f64, std: f64, rng: &mut R) -> f64 {
    assert!(std >= 0.0 && std.is_finite(), "std must be non-negative, got {std}");
    mean + std * sample_standard_normal(rng)
}

/// A `Gamma(shape, scale)` sample via Marsaglia–Tsang (2000), with the
/// standard `U^{1/shape}` boost for `shape < 1`.
///
/// # Panics
/// Panics if `shape` or `scale` is not strictly positive.
pub fn sample_gamma<R: Rng + ?Sized>(shape: f64, scale: f64, rng: &mut R) -> f64 {
    assert!(shape > 0.0 && shape.is_finite(), "shape must be positive, got {shape}");
    assert!(scale > 0.0 && scale.is_finite(), "scale must be positive, got {scale}");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
        let g = sample_gamma(shape + 1.0, 1.0, rng);
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        return scale * g * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.random();
        // Squeeze then full acceptance test.
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return scale * d * v3;
        }
    }
}

/// A Dirichlet(α·1) sample of dimension `dim` (symmetric concentration).
///
/// # Panics
/// Panics if `dim == 0` or `alpha <= 0`.
pub fn sample_dirichlet_symmetric<R: Rng + ?Sized>(
    dim: usize,
    alpha: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(dim > 0, "dimension must be positive");
    let mut g: Vec<f64> = (0..dim).map(|_| sample_gamma(alpha, 1.0, rng)).collect();
    let sum: f64 = g.iter().sum();
    if sum <= 0.0 {
        // Degenerate under extreme underflow: fall back to uniform.
        return vec![1.0 / dim as f64; dim];
    }
    for x in &mut g {
        *x /= sum;
    }
    g
}

/// Samples an index from non-negative `weights` (need not be normalised).
///
/// # Panics
/// Panics if `weights` is empty, contains negatives/NaN/infinities, sums
/// to 0 or sums past `f64::MAX`.
pub fn sample_discrete<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    assert!(!weights.is_empty(), "no weights");
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative, got {w}");
            w
        })
        .sum();
    assert!(total > 0.0, "weights sum to zero");
    assert!(total.is_finite(), "weights sum overflows f64");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// A point uniform on the unit sphere in `dim` dimensions (direction vector
/// for PrivateERM's noise term).
///
/// # Panics
/// Panics if `dim == 0`.
pub fn sample_unit_sphere<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Vec<f64> {
    assert!(dim > 0, "dimension must be positive");
    loop {
        let v: Vec<f64> = (0..dim).map(|_| sample_standard_normal(rng)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let s: Vec<f64> = (0..200_000).map(|_| sample_normal(3.0, 2.0, &mut rng)).collect();
        let (mean, var) = moments(&s);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let (shape, scale) = (4.0, 0.5);
        let s: Vec<f64> = (0..200_000).map(|_| sample_gamma(shape, scale, &mut rng)).collect();
        let (mean, var) = moments(&s);
        assert!((mean - shape * scale).abs() < 0.02, "mean {mean} vs {}", shape * scale);
        assert!((var - shape * scale * scale).abs() < 0.05, "var {var}");
        assert!(s.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let (shape, scale) = (0.5, 2.0);
        let s: Vec<f64> = (0..200_000).map(|_| sample_gamma(shape, scale, &mut rng)).collect();
        let (mean, _) = moments(&s);
        assert!((mean - shape * scale).abs() < 0.03, "mean {mean} vs {}", shape * scale);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_uniform_in_expectation() {
        let mut rng = StdRng::seed_from_u64(4);
        let dim = 5;
        let mut acc = vec![0.0; dim];
        let reps = 20_000;
        for _ in 0..reps {
            let p = sample_dirichlet_symmetric(dim, 1.0, &mut rng);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
            for (a, x) in acc.iter_mut().zip(&p) {
                *a += x;
            }
        }
        for a in acc {
            assert!((a / reps as f64 - 0.2).abs() < 0.01);
        }
    }

    #[test]
    fn dirichlet_small_alpha_is_sparse() {
        let mut rng = StdRng::seed_from_u64(5);
        // With α = 0.05 most of the mass should concentrate in one cell.
        let mut max_mass = 0.0;
        for _ in 0..100 {
            let p = sample_dirichlet_symmetric(8, 0.05, &mut rng);
            max_mass += p.iter().copied().fold(0.0, f64::max);
        }
        assert!(max_mass / 100.0 > 0.8, "small-α Dirichlet should be near one-hot");
    }

    #[test]
    fn discrete_sampling_frequencies() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        let trials = 100_000;
        for _ in 0..trials {
            counts[sample_discrete(&w, &mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = w[i] / 10.0;
            assert!((c as f64 / trials as f64 - expected).abs() < 0.01, "index {i}: {c}");
        }
    }

    #[test]
    fn discrete_skips_zero_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let i = sample_discrete(&[0.0, 1.0, 0.0], &mut rng);
            assert_eq!(i, 1);
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn discrete_rejects_all_zero() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = sample_discrete(&[0.0, 0.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn discrete_rejects_weights_whose_sum_overflows() {
        // The total is +∞, so `u = U·∞` never falls to 0 and every draw
        // would return the last index.
        let mut rng = StdRng::seed_from_u64(8);
        let _ = sample_discrete(&[1e308, 1e308], &mut rng);
    }

    #[test]
    fn unit_sphere_norm_one() {
        let mut rng = StdRng::seed_from_u64(9);
        for dim in [1usize, 2, 10, 100] {
            let v = sample_unit_sphere(dim, &mut rng);
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "dim {dim}: norm {norm}");
        }
    }

    #[test]
    fn unit_sphere_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(10);
        let dim = 3;
        let mut acc = vec![0.0; dim];
        let reps = 50_000;
        for _ in 0..reps {
            for (a, x) in acc.iter_mut().zip(sample_unit_sphere(dim, &mut rng)) {
                *a += x;
            }
        }
        for a in acc {
            assert!((a / reps as f64).abs() < 0.01);
        }
    }
}
