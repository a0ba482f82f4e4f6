//! The Laplace baseline \[19\]: materialise every α-way marginal of the
//! workload and perturb each cell directly.
//!
//! One tuple contributes to every marginal, so releasing all `|Q_α|`
//! marginals has L1 sensitivity `2·|Q_α|/n` in probability scale — the reason
//! this baseline degrades as α (and hence the workload size) grows (§6.5).

use privbayes_dp::laplace::sample_laplace;
use privbayes_marginals::{
    clamp_and_normalize, AlphaWayWorkload, Axis, ContingencyTable, CountEngine,
};
use rand::Rng;

/// Releases every workload marginal under ε-DP with per-cell Laplace noise
/// `Lap(2|W|/(n·ε))`, then applies the consistency post-processing. The
/// exact marginals come from the shared
/// `engine` and are bit-identical to a direct
/// row scan; only the noise consumes `rng`.
///
/// # Panics
/// Panics if `epsilon <= 0` or the dataset is empty.
#[must_use]
pub fn laplace_marginals<R: Rng + ?Sized>(
    engine: &CountEngine,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
    assert!(engine.n() > 0, "empty dataset");
    let scale = 2.0 * workload.len() as f64 / (engine.n() as f64 * epsilon);
    workload
        .subsets()
        .iter()
        .map(|subset| {
            let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
            let mut table = engine.joint_table(&axes);
            for v in table.values_mut() {
                *v += sample_laplace(scale, rng);
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
            Attribute::binary("b"),
            Attribute::binary("c"),
            Attribute::binary("d"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                vec![a, a, rng.random_range(0..2u32), a]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn outputs_valid_distributions() {
        let ds = data(500, 1);
        let w = AlphaWayWorkload::new(4, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let tables = laplace_marginals(&CountEngine::new(&ds), &w, 0.5, &mut rng);
        assert_eq!(tables.len(), w.len());
        for t in &tables {
            assert!((t.total() - 1.0).abs() < 1e-9);
            assert!(t.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn error_decreases_with_epsilon() {
        let ds = data(2000, 3);
        let w = AlphaWayWorkload::new(4, 3);
        let avg = |eps: f64| {
            let reps = 10;
            (0..reps)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(100 + s);
                    let tables = laplace_marginals(&CountEngine::new(&ds), &w, eps, &mut rng);
                    average_workload_tvd_tables(&ds, &tables, &w)
                })
                .sum::<f64>()
                / reps as f64
        };
        assert!(avg(10.0) < avg(0.05), "more budget must reduce error");
    }

    #[test]
    fn high_epsilon_is_nearly_exact() {
        let ds = data(1000, 4);
        let w = AlphaWayWorkload::new(4, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let tables = laplace_marginals(&CountEngine::new(&ds), &w, 1e6, &mut rng);
        let err = average_workload_tvd_tables(&ds, &tables, &w);
        assert!(err < 1e-3, "huge ε should be near-exact, err = {err}");
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_zero_epsilon() {
        let ds = data(10, 6);
        let w = AlphaWayWorkload::new(4, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = laplace_marginals(&CountEngine::new(&ds), &w, 0.0, &mut rng);
    }
}
