//! MWEM (Hardt, Ligett & McSherry \[26\]): maintain an approximating
//! distribution over the full domain; per round, privately select the
//! worst-answered linear query — here a single marginal *cell*, as in the
//! original experiments — with the exponential mechanism, measure it with
//! the Laplace mechanism, and apply multiplicative-weights updates over the
//! measurement history.
//!
//! Like Contingency, MWEM materialises the full domain, so it only applies
//! to NLTCS/ACS-scale data (§6.5). For large workloads, scoring every
//! candidate marginal each round dominates the cost;
//! [`MwemOptions::max_candidates`] optionally subsamples the candidate
//! marginals per round — a deviation from MWEM as published, used only for
//! ACS-scale workloads, where scoring every candidate over a 2²³-cell domain
//! each round is prohibitive.

use privbayes_dp::exponential::exponential_mechanism;
use privbayes_dp::laplace::sample_laplace;
use privbayes_marginals::{
    clamp_and_normalize, AlphaWayWorkload, Axis, ContingencyTable, CountEngine,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// MWEM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MwemOptions {
    /// Rounds `T`; each consumes ε/T (half selection, half measurement).
    pub iterations: usize,
    /// If set, score only a random subset of candidates per round.
    pub max_candidates: Option<usize>,
    /// Multiplicative-weights passes over the measurement history per round
    /// (the "improved MWEM" of Hardt et al.'s implementation; pure
    /// single-update MWEM corresponds to 1).
    pub update_passes: usize,
}

impl Default for MwemOptions {
    fn default() -> Self {
        Self { iterations: 10, max_candidates: None, update_passes: 8 }
    }
}

/// Hard cap on the materialised domain.
pub const MAX_CELLS: usize = 1 << 26;

struct Projector {
    /// Per-attribute stride in the full-domain index.
    full_strides: Vec<usize>,
    dims: Vec<usize>,
}

impl Projector {
    fn new(dims: &[usize]) -> Self {
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Self { full_strides: strides, dims: dims.to_vec() }
    }

    /// Projects full-domain weights onto `subset`'s marginal.
    fn project(&self, weights: &[f64], subset: &[usize]) -> Vec<f64> {
        let out_cells: usize = subset.iter().map(|&a| self.dims[a]).product();
        let mut out = vec![0.0f64; out_cells];
        for (idx, &w) in weights.iter().enumerate() {
            out[self.cell_of(idx, subset)] += w;
        }
        out
    }

    /// Marginal cell of a full-domain index.
    #[inline]
    fn cell_of(&self, idx: usize, subset: &[usize]) -> usize {
        let mut cell = 0usize;
        for &a in subset {
            cell = cell * self.dims[a] + (idx / self.full_strides[a]) % self.dims[a];
        }
        cell
    }
}

/// The full state of a finished MWEM run: the final full-domain weights plus
/// the domain shape — everything needed to answer arbitrary marginals or to
/// compile a sampling artifact from the learned distribution.
#[derive(Debug, Clone)]
pub struct MwemFit {
    /// Final approximating distribution over the full domain (row-major,
    /// last attribute fastest; sums to 1).
    pub weights: Vec<f64>,
    /// Per-attribute domain sizes.
    pub dims: Vec<usize>,
}

impl MwemFit {
    /// The marginal of `subset` (attribute indices, ascending or not) under
    /// the final weights, clamped and normalised.
    #[must_use]
    pub fn marginal(&self, subset: &[usize]) -> ContingencyTable {
        let projector = Projector::new(&self.dims);
        let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
        let out_dims: Vec<usize> = subset.iter().map(|&a| self.dims[a]).collect();
        let mut vals = projector.project(&self.weights, subset);
        clamp_and_normalize(&mut vals, 1.0);
        ContingencyTable::from_parts(axes, out_dims, vals)
    }
}

/// Runs MWEM and returns the final full-domain weights (see
/// [`mwem_marginals`] for the workload-answer wrapper).
///
/// The exact workload answers ("truths") come from `engine`: when the
/// full-domain joint has at most `4·n` cells, that joint is counted **once**
/// and every workload truth is its exact integer projection
/// ([`CountTable::project`](privbayes_marginals::CountTable::project));
/// otherwise each truth is its own engine request. Either way the truths
/// are integer counts scaled by `1/n`, bit-identical to the scan baseline.
///
/// # Panics
/// Panics if the domain exceeds [`MAX_CELLS`], `epsilon <= 0`,
/// `iterations == 0`, or the data is empty.
#[must_use]
pub fn mwem_fit<R: Rng + ?Sized>(
    engine: &CountEngine,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    options: MwemOptions,
    rng: &mut R,
) -> MwemFit {
    assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
    assert!(options.iterations > 0, "need at least one round");
    assert!(engine.n() > 0, "empty dataset");
    let dims = engine.schema().domain_sizes();
    let cells: usize = dims.iter().product();
    assert!(cells <= MAX_CELLS, "domain has {cells} cells; MWEM needs a small domain");

    let n = engine.n() as f64;
    let projector = Projector::new(&dims);

    // Exact workload answers (probability scale). A full-domain joint of at
    // most 4·n cells is cheaper to count once and project per subset than to
    // scan once per subset; past that, projecting it costs more than the
    // O(n·k) scans it would save.
    let all_axes: Vec<Axis> = (0..dims.len()).map(Axis::raw).collect();
    let full = (cells <= engine.n().saturating_mul(4)).then(|| engine.joint_counts(&all_axes));
    let truths: Vec<Vec<f64>> = workload
        .subsets()
        .iter()
        .map(|subset| {
            let table = match &full {
                Some(full) => full.project(subset).to_contingency(engine.n()),
                None => {
                    let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
                    engine.joint_table(&axes)
                }
            };
            table.values().to_vec()
        })
        .collect();

    // Approximation: uniform, mass 1.
    let mut weights = vec![1.0 / cells as f64; cells];

    let eps_round = epsilon / options.iterations as f64;
    let eps_select = eps_round / 2.0;
    let eps_measure = eps_round / 2.0;

    let mut candidate_pool: Vec<usize> = (0..workload.len()).collect();
    // Measurement history: (marginal index, cell index, noisy value).
    let mut measurements: Vec<(usize, usize, f64)> = Vec::with_capacity(options.iterations);
    for _ in 0..options.iterations {
        // Candidate marginals for this round.
        let candidates: &[usize] = match options.max_candidates {
            Some(m) if m < candidate_pool.len() => {
                candidate_pool.shuffle(rng);
                &candidate_pool[..m]
            }
            _ => &candidate_pool,
        };
        // One candidate query per cell of each candidate marginal; score =
        // |error| of the current approximation. A cell count has sensitivity
        // 1/n in probability scale.
        let mut cell_ids: Vec<(usize, usize)> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for &q in candidates {
            let approx = projector.project(&weights, &workload.subsets()[q]);
            for (cell, (a, t)) in approx.iter().zip(&truths[q]).enumerate() {
                cell_ids.push((q, cell));
                scores.push((a - t).abs());
            }
        }
        let chosen =
            exponential_mechanism(&scores, 1.0 / n, eps_select, rng).expect("valid scores");
        let (q, cell) = cell_ids[chosen];

        // Measure the chosen cell (sensitivity 1/n).
        let measured = truths[q][cell] + sample_laplace(1.0 / (n * eps_measure), rng);
        measurements.push((q, cell, measured));

        // Multiplicative-weights passes over the measurement history.
        for _ in 0..options.update_passes.max(1) {
            for &(q, cell, measured) in &measurements {
                let subset = &workload.subsets()[q];
                let approx_cell: f64 = weights
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| projector.cell_of(*idx, subset) == cell)
                    .map(|(_, &w)| w)
                    .sum();
                let factor = ((measured - approx_cell) / 2.0).exp();
                for (idx, w) in weights.iter_mut().enumerate() {
                    if projector.cell_of(idx, subset) == cell {
                        *w *= factor;
                    }
                }
                let total: f64 = weights.iter().sum();
                for w in &mut weights {
                    *w /= total;
                }
            }
        }
    }

    MwemFit { weights, dims }
}

/// Runs MWEM and answers every workload marginal from the final weights.
///
/// # Panics
/// As [`mwem_fit`].
#[must_use]
pub fn mwem_marginals<R: Rng + ?Sized>(
    engine: &CountEngine,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    options: MwemOptions,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    let fit = mwem_fit(engine, workload, epsilon, options, rng);
    workload.subsets().iter().map(|subset| fit.marginal(subset)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::uniform_marginals;
    use privbayes_data::{Attribute, Dataset, Schema};
    use privbayes_marginals::metrics::average_workload_tvd_tables;
    use privbayes_marginals::CountEngine;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn correlated(n: usize, d: usize, seed: u64) -> Dataset {
        let schema =
            Schema::new((0..d).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                (0..d).map(|j| if j % 2 == 0 { a } else { 1 - a }).collect()
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn projector_matches_table_projection() {
        let ds = correlated(100, 4, 1);
        let dims = ds.schema().domain_sizes();
        let axes: Vec<Axis> = (0..4).map(Axis::raw).collect();
        let full = ContingencyTable::from_dataset(&ds, &axes);
        let p = Projector::new(&dims);
        let direct = ContingencyTable::from_dataset(&ds, &[Axis::raw(1), Axis::raw(3)]);
        let projected = p.project(full.values(), &[1, 3]);
        for (a, b) in projected.iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn full_joint_is_counted_once_only_within_four_n_cells() {
        // 16 full-domain cells against 4·n: past the bound each of the six
        // pair truths is its own scan, within it one full joint serves all.
        let w = AlphaWayWorkload::new(4, 2);
        for (n, scans) in [(3, 6), (4, 1)] {
            let engine = CountEngine::new(&correlated(n, 4, 8));
            let mut rng = StdRng::seed_from_u64(9);
            let _ = mwem_fit(&engine, &w, 1.0, MwemOptions::default(), &mut rng);
            assert_eq!(engine.stats().scans, scans, "n = {n}");
        }
    }

    #[test]
    fn beats_uniform_with_generous_budget() {
        let ds = correlated(2000, 5, 2);
        let w = AlphaWayWorkload::new(5, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let tables = mwem_marginals(
            &CountEngine::new(&ds),
            &w,
            50.0,
            MwemOptions { iterations: 12, ..MwemOptions::default() },
            &mut rng,
        );
        let mwem_err = average_workload_tvd_tables(&ds, &tables, &w);
        let uni_err = average_workload_tvd_tables(&ds, &uniform_marginals(ds.schema(), &w), &w);
        assert!(
            mwem_err < uni_err * 0.5,
            "MWEM ({mwem_err}) should beat uniform ({uni_err}) at ε=50"
        );
    }

    #[test]
    fn tiny_budget_stays_near_uniform() {
        // §6.5: MWEM does not significantly surpass Uniform when ε < 0.2.
        let ds = correlated(500, 5, 4);
        let w = AlphaWayWorkload::new(5, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let tables =
            mwem_marginals(&CountEngine::new(&ds), &w, 0.001, MwemOptions::default(), &mut rng);
        let mwem_err = average_workload_tvd_tables(&ds, &tables, &w);
        let uni_err = average_workload_tvd_tables(&ds, &uniform_marginals(ds.schema(), &w), &w);
        // The paper's observation (§6.5): at tiny ε MWEM does not surpass
        // Uniform (it may be substantially worse, drowned in noise).
        assert!(mwem_err > uni_err - 0.05, "mwem {mwem_err} vs uniform {uni_err}");
    }

    #[test]
    fn outputs_valid_distributions() {
        let ds = correlated(300, 4, 6);
        let w = AlphaWayWorkload::new(4, 3);
        let mut rng = StdRng::seed_from_u64(7);
        for t in mwem_marginals(&CountEngine::new(&ds), &w, 1.0, MwemOptions::default(), &mut rng) {
            assert!((t.total() - 1.0).abs() < 1e-9);
            assert!(t.values().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn candidate_subsampling_path_works() {
        let ds = correlated(300, 5, 8);
        let w = AlphaWayWorkload::new(5, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let opts = MwemOptions { iterations: 5, max_candidates: Some(3), update_passes: 4 };
        let tables = mwem_marginals(&CountEngine::new(&ds), &w, 1.0, opts, &mut rng);
        assert_eq!(tables.len(), w.len());
    }

    #[test]
    fn works_on_non_binary_domains() {
        let schema = Schema::new(vec![
            Attribute::categorical("x", 3).unwrap(),
            Attribute::categorical("y", 4).unwrap(),
            Attribute::binary("z"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let rows: Vec<Vec<u32>> = (0..400)
            .map(|_| {
                let x = rng.random_range(0..3u32);
                vec![x, x + 1, rng.random_range(0..2u32)]
            })
            .collect();
        let ds = Dataset::from_rows(schema, &rows).unwrap();
        let w = AlphaWayWorkload::new(3, 2);
        let tables =
            mwem_marginals(&CountEngine::new(&ds), &w, 20.0, MwemOptions::default(), &mut rng);
        assert_eq!(tables[0].dims(), &[3, 4]);
    }
}
