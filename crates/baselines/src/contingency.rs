//! The Contingency baseline (§6.1): materialise the noisy full-domain
//! contingency table once, then project every workload marginal from it.
//!
//! Feasible only when the total domain fits in memory (NLTCS's 2¹⁶, ACS's
//! 2²³) — exactly the scalability wall the paper's introduction describes.

use privbayes_dp::laplace::sample_laplace;
use privbayes_marginals::{
    clamp_and_normalize, AlphaWayWorkload, Axis, ContingencyTable, CountEngine,
};
use rand::Rng;

/// Hard cap on the materialised domain (2²⁶ cells ≈ 0.5 GiB of f64).
pub const MAX_CELLS: usize = 1 << 26;

/// Releases the full contingency table under ε-DP (per-cell noise
/// `Lap(2/(n·ε))`, sensitivity 2/n) and projects every workload marginal.
/// The exact full-domain table comes from the shared `engine`; only the
/// noise consumes `rng`.
///
/// # Panics
/// Panics if the domain exceeds [`MAX_CELLS`], `epsilon <= 0`, or the data
/// is empty.
#[must_use]
pub fn contingency_marginals<R: Rng + ?Sized>(
    engine: &CountEngine,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
    assert!(engine.n() > 0, "empty dataset");
    let cells: usize = engine.schema().domain_sizes().iter().product();
    assert!(
        cells <= MAX_CELLS,
        "domain has {cells} cells; the Contingency baseline is only applicable to small domains"
    );

    let axes: Vec<Axis> = (0..engine.schema().len()).map(Axis::raw).collect();
    let mut full = engine.joint_table(&axes);
    let scale = 2.0 / (engine.n() as f64 * epsilon);
    for v in full.values_mut() {
        *v += sample_laplace(scale, rng);
    }
    clamp_and_normalize(full.values_mut(), 1.0);

    workload.subsets().iter().map(|subset| full.project(subset)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset, Schema};
    use privbayes_marginals::metrics::average_workload_tvd_tables;
    use privbayes_marginals::CountEngine;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn data(n: usize, d: usize, seed: u64) -> Dataset {
        let schema =
            Schema::new((0..d).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                (0..d).map(|j| if j < 2 { a } else { rng.random_range(0..2u32) }).collect()
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn projections_are_valid_and_consistent() {
        let ds = data(300, 5, 1);
        let w = AlphaWayWorkload::new(5, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let tables = contingency_marginals(&CountEngine::new(&ds), &w, 0.5, &mut rng);
        assert_eq!(tables.len(), w.len());
        for t in &tables {
            assert!((t.total() - 1.0).abs() < 1e-9, "projections of one table share its mass");
            assert!(t.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn high_epsilon_is_accurate() {
        let ds = data(1000, 6, 3);
        let w = AlphaWayWorkload::new(6, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let tables = contingency_marginals(&CountEngine::new(&ds), &w, 1e7, &mut rng);
        let err = average_workload_tvd_tables(&ds, &tables, &w);
        assert!(err < 1e-3, "err = {err}");
    }

    #[test]
    fn small_epsilon_drowns_in_noise() {
        // Signal-to-noise collapse: with n/m small and tiny ε the projected
        // marginals approach uniform — the paper's motivating failure mode.
        let ds = data(200, 10, 5);
        let w = AlphaWayWorkload::new(10, 2);
        let mut rng = StdRng::seed_from_u64(6);
        let tables = contingency_marginals(&CountEngine::new(&ds), &w, 0.01, &mut rng);
        // The (x0,x1) marginal is strongly diagonal in the data but should be
        // nearly uniform in the noisy release.
        let t01 = &tables[0];
        let max_cell = t01.values().iter().copied().fold(0.0, f64::max);
        assert!(max_cell < 0.45, "noise should flatten the marginal, got {max_cell}");
    }

    #[test]
    #[should_panic(expected = "only applicable to small domains")]
    fn rejects_huge_domains() {
        let schema = Schema::new(
            (0..3).map(|i| Attribute::categorical(format!("c{i}"), 1 << 10).unwrap()).collect(),
        )
        .unwrap();
        let ds = Dataset::from_rows(schema, &[vec![0, 0, 0]]).unwrap();
        let w = AlphaWayWorkload::new(3, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = contingency_marginals(&CountEngine::new(&ds), &w, 1.0, &mut rng);
    }
}
