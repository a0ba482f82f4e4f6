//! Geometric-mechanism variant of the Laplace baseline: every workload
//! marginal is released on the **count scale** with two-sided geometric
//! (discrete Laplace) noise, then normalised back to a distribution.
//!
//! The paper uses continuous Laplace noise throughout; the geometric
//! mechanism is its integer-valued analogue with slightly lower variance at
//! the same ε. The `abl03_noise` ablation compares the two.

use privbayes_dp::geometric::sample_two_sided_geometric;
use privbayes_marginals::{
    clamp_and_normalize, AlphaWayWorkload, Axis, ContingencyTable, CountEngine,
};
use rand::Rng;

/// Releases every workload marginal under ε-DP with per-cell two-sided
/// geometric noise at count scale, then applies the consistency
/// post-processing and renormalisation back to probability scale. The exact
/// marginals come from the shared
/// `engine`; only the noise consumes `rng`.
///
/// One tuple contributes one count to every marginal, so releasing all
/// `|Q_α|` count-scale marginals has L1 sensitivity `2·|Q_α|`; each marginal
/// runs the geometric mechanism with `α = exp(−ε / (2·|Q_α|))`.
///
/// # Panics
/// Panics if `epsilon <= 0` or the dataset is empty.
#[must_use]
pub fn geometric_marginals<R: Rng + ?Sized>(
    engine: &CountEngine,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
    let n = engine.n();
    assert!(n > 0, "empty dataset");
    let alpha = (-epsilon / (2.0 * workload.len() as f64)).exp();
    workload
        .subsets()
        .iter()
        .map(|subset| {
            let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
            let mut table = engine.joint_table(&axes);
            for v in table.values_mut() {
                // Probability-scale cells are exact multiples of 1/n; recover
                // the integer count, perturb, and return to probability scale.
                let count = (*v * n as f64).round();
                let noisy = count + sample_two_sided_geometric(alpha, rng) as f64;
                *v = noisy / n as f64;
            }
            clamp_and_normalize(table.values_mut(), 1.0);
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset, Schema};
    use privbayes_marginals::metrics::average_workload_tvd_tables;
    use privbayes_marginals::CountEngine;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn data(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::categorical("b", 3).unwrap(),
            Attribute::binary("c"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                vec![a, a + rng.random_range(0..2u32), rng.random_range(0..2u32)]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn outputs_valid_distributions() {
        let ds = data(500, 1);
        let w = AlphaWayWorkload::new(3, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let tables = geometric_marginals(&CountEngine::new(&ds), &w, 0.5, &mut rng);
        assert_eq!(tables.len(), w.len());
        for t in &tables {
            assert!((t.total() - 1.0).abs() < 1e-9);
            assert!(t.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn error_decreases_with_epsilon() {
        let ds = data(2000, 3);
        let w = AlphaWayWorkload::new(3, 2);
        let avg = |eps: f64| {
            let reps = 10;
            (0..reps)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(100 + s);
                    let tables = geometric_marginals(&CountEngine::new(&ds), &w, eps, &mut rng);
                    average_workload_tvd_tables(&ds, &tables, &w)
                })
                .sum::<f64>()
                / reps as f64
        };
        assert!(avg(10.0) < avg(0.05), "more budget must reduce error");
    }

    #[test]
    fn high_epsilon_is_exact_by_integrality() {
        // Unlike Laplace, the geometric mechanism adds *integer* noise, so at
        // huge ε the sampled noise is exactly 0 with overwhelming probability
        // and the release matches the truth up to renormalisation round-off.
        let ds = data(1000, 4);
        let w = AlphaWayWorkload::new(3, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let tables = geometric_marginals(&CountEngine::new(&ds), &w, 1e3, &mut rng);
        let err = average_workload_tvd_tables(&ds, &tables, &w);
        assert!(err < 1e-12, "integer noise at huge ε must vanish, err = {err}");
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_zero_epsilon() {
        let ds = data(10, 6);
        let w = AlphaWayWorkload::new(3, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = geometric_marginals(&CountEngine::new(&ds), &w, 0.0, &mut rng);
    }
}
