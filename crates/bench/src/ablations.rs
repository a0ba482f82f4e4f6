//! Ablation task runners — design-choice experiments beyond the paper's
//! figures, one per `abl*` binary:
//!
//! * **Consistency** (`abl01`): the §3 footnote-1 cross-marginal
//!   reconciliation, on vs off.
//! * **Sample size** (`abl02`): accuracy of `Q_α` answers as the synthetic
//!   sample grows, against answering *exactly* from the model (§7 inference)
//!   — quantifies how much of PrivBayes' error is sampling error.
//! * **Noise mechanism** (`abl03`): Laplace vs geometric noise on released
//!   marginals.
//! * **Multi-table** (`abl04`): relational synthesis error as the fan-out
//!   cap grows (the concluding-remarks extension).

use privbayes::inference::{model_marginal, DEFAULT_CELL_CAP};
use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes_baselines::{geometric_marginals, laplace_marginals};
use privbayes_data::encoding::EncodingKind;
use privbayes_data::Dataset;
use privbayes_marginals::metrics::average_workload_tvd_tables;
use privbayes_marginals::{
    average_workload_tvd, total_variation, AlphaWayWorkload, Axis, ContingencyTable, CountEngine,
};
use privbayes_relational::{
    clinic_benchmark, RelationalDataset, RelationalOptions, RelationalPrivBayes,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tasks::MAX_DEGREE;

/// Paper-default options restricted to the non-bitwise encodings these
/// ablations need (the model must live over the original schema).
fn general_options(data: &Dataset, epsilon: f64) -> PrivBayesOptions {
    let encoding =
        if data.schema().all_binary() { EncodingKind::Vanilla } else { EncodingKind::Hierarchical };
    let mut o = PrivBayesOptions::new(epsilon).with_encoding(encoding);
    o.max_degree = MAX_DEGREE;
    o
}

/// `Q_α` error of PrivBayes with `rounds` of cross-marginal consistency.
#[must_use]
pub fn consistency_count_error(
    data: &Dataset,
    alpha: usize,
    epsilon: f64,
    rounds: usize,
    seed: u64,
) -> f64 {
    let options = general_options(data, epsilon).with_consistency_rounds(rounds);
    let mut rng = StdRng::seed_from_u64(seed);
    let result = PrivBayes::new(options).synthesize(data, &mut rng).expect("synthesis");
    average_workload_tvd(data, &result.synthetic, alpha)
}

/// `Q_α` error when the synthetic sample has `rows_factor · n` rows.
#[must_use]
pub fn sample_size_count_error(
    data: &Dataset,
    alpha: usize,
    epsilon: f64,
    rows_factor: f64,
    seed: u64,
) -> f64 {
    let mut options = general_options(data, epsilon);
    let rows = ((data.n() as f64 * rows_factor) as usize).max(1);
    options.synthetic_rows = Some(rows);
    let mut rng = StdRng::seed_from_u64(seed);
    let result = PrivBayes::new(options).synthesize(data, &mut rng).expect("synthesis");
    average_workload_tvd(data, &result.synthetic, alpha)
}

/// `Q_α` error when every workload marginal is answered **exactly** from the
/// noisy model (§7 inference) — the `rows → ∞` limit of
/// [`sample_size_count_error`], with zero sampling error.
#[must_use]
pub fn inference_count_error(data: &Dataset, alpha: usize, epsilon: f64, seed: u64) -> f64 {
    let options = general_options(data, epsilon);
    let mut rng = StdRng::seed_from_u64(seed);
    let result = PrivBayes::new(options).synthesize(data, &mut rng).expect("synthesis");
    let workload = AlphaWayWorkload::new(data.d(), alpha);
    let tables: Vec<ContingencyTable> = workload
        .subsets()
        .iter()
        .map(|subset| {
            model_marginal(&result.model, data.schema(), subset, DEFAULT_CELL_CAP)
                .expect("inference within cell cap")
        })
        .collect();
    average_workload_tvd_tables(data, &tables, &workload)
}

/// `Q_α` error of direct marginal release under the chosen noise mechanism.
#[must_use]
pub fn noise_mechanism_error(
    data: &Dataset,
    alpha: usize,
    epsilon: f64,
    geometric: bool,
    seed: u64,
) -> f64 {
    let workload = AlphaWayWorkload::new(data.d(), alpha);
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = CountEngine::new(data);
    let tables = if geometric {
        geometric_marginals(&engine, &workload, epsilon, &mut rng)
    } else {
        laplace_marginals(&engine, &workload, epsilon, &mut rng)
    };
    average_workload_tvd_tables(data, &tables, &workload)
}

/// Accuracy of one relational synthesis run: the TVD of the
/// (first entity attribute × first fact attribute) fact-view joint, plus the
/// TVD of the fan-out histogram.
#[must_use]
pub fn multitable_errors(data: &RelationalDataset, epsilon: f64, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let result = RelationalPrivBayes::new(RelationalOptions::new(epsilon))
        .synthesize(data, &mut rng)
        .expect("relational synthesis");

    let e_arity = data.schema().entity_arity();
    let joint_axes = [Axis::raw(0), Axis::raw(e_arity)];
    let truth_view = data.fact_view();
    let synth_view = result.synthetic.fact_view();
    let truth = CountEngine::new(&truth_view).joint_table(&joint_axes);
    let synth = CountEngine::new(&synth_view).joint_table(&joint_axes);
    let joint_tvd = total_variation(truth.values(), synth.values());

    let hist = |d: &RelationalDataset| {
        let mut h = vec![0f64; data.schema().max_fanout() + 1];
        for f in d.fanouts() {
            h[f] += 1.0;
        }
        let n = d.n_entities() as f64;
        h.iter_mut().for_each(|x| *x /= n);
        h
    };
    let fanout_tvd = total_variation(&hist(data), &hist(&result.synthetic));
    (joint_tvd, fanout_tvd)
}

/// The clinic workload used by `abl04`, sized by the harness scale.
#[must_use]
pub fn clinic_workload(n_entities: usize, fanout: usize, seed: u64) -> RelationalDataset {
    clinic_benchmark(n_entities, fanout, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_datasets::adult::adult_sized;

    #[test]
    fn consistency_error_is_bounded_both_ways() {
        let ds = adult_sized(1, 400);
        for rounds in [0, 2] {
            let e = consistency_count_error(&ds.data, 2, 0.8, rounds, 3);
            assert!((0.0..=1.0).contains(&e), "rounds {rounds}: {e}");
        }
    }

    #[test]
    fn inference_beats_or_matches_tiny_samples() {
        // Sampling n/20 rows adds heavy sampling error that exact inference
        // does not have, at identical privacy cost. Average over seeds.
        let ds = adult_sized(2, 600);
        let reps = 3;
        let mut tiny = 0.0;
        let mut exact = 0.0;
        for s in 0..reps {
            tiny += sample_size_count_error(&ds.data, 2, 1.6, 0.05, 40 + s);
            exact += inference_count_error(&ds.data, 2, 1.6, 40 + s);
        }
        assert!(exact <= tiny, "exact answers must not lose to a 5% sample: {exact} vs {tiny}");
    }

    #[test]
    fn noise_mechanisms_are_comparable() {
        let ds = adult_sized(3, 500);
        let lap = noise_mechanism_error(&ds.data, 2, 0.4, false, 7);
        let geo = noise_mechanism_error(&ds.data, 2, 0.4, true, 7);
        assert!((0.0..=1.0).contains(&lap));
        assert!((0.0..=1.0).contains(&geo));
    }

    #[test]
    fn multitable_errors_are_bounded() {
        let data = clinic_workload(600, 3, 11);
        let (joint, fanout) = multitable_errors(&data, 2.0, 13);
        assert!((0.0..=1.0).contains(&joint), "joint {joint}");
        assert!((0.0..=1.0).contains(&fanout), "fanout {fanout}");
    }
}
