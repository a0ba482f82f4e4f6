//! Shared task runners: count-query accuracy, network quality, and multi-SVM
//! classification — the three measurement families of §6.

use privbayes::greedy::{
    greedy_bayes_adaptive_engine, greedy_bayes_fixed_k_engine, GreedySettings,
};
use privbayes::nonprivate::sum_mutual_information;
use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes::score::ScoreKind;
use privbayes::theta::choose_degree_binary;
use privbayes_baselines::{
    contingency_marginals, fourier_marginals, laplace_marginals, mwem_marginals, uniform_marginals,
    MwemOptions,
};
use privbayes_data::encoding::{binarize, EncodingKind};
use privbayes_data::Dataset;
use privbayes_datasets::ClassificationTarget;
use privbayes_marginals::metrics::average_workload_tvd_tables;
use privbayes_marginals::{average_workload_tvd, AlphaWayWorkload, CountEngine};
use privbayes_ml::{
    misclassification_rate, FeatureMatrix, LinearSvm, MajorityClassifier, PrivGene,
    PrivGeneOptions, PrivateErm, PrivateErmOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The harness degree cap, which keeps the candidate parent sets tractable
/// (they grow combinatorially with the degree); the paper's algorithm is
/// unbounded.
pub const MAX_DEGREE: usize = 4;

/// The encoding the paper recommends per dataset class: plain binary data
/// needs no encoding machinery (Binary ≡ identity, score `F`); general
/// domains use Hierarchical-R (§6.3).
#[must_use]
pub fn default_encoding(data: &Dataset) -> EncodingKind {
    if data.schema().all_binary() {
        EncodingKind::Binary
    } else {
        EncodingKind::Hierarchical
    }
}

/// Paper-default PrivBayes options for a dataset at budget ε.
#[must_use]
pub fn privbayes_options(data: &Dataset, epsilon: f64) -> PrivBayesOptions {
    let mut o = PrivBayesOptions::new(epsilon).with_encoding(default_encoding(data));
    o.max_degree = MAX_DEGREE;
    o
}

/// Runs PrivBayes and measures the average α-way marginal TVD of the
/// synthetic output.
///
/// # Panics
/// Panics if synthesis fails (configuration errors are programming errors in
/// the harness).
#[must_use]
pub fn privbayes_count_error(
    data: &Dataset,
    alpha: usize,
    options: PrivBayesOptions,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let result = PrivBayes::new(options).synthesize(data, &mut rng).expect("synthesis");
    average_workload_tvd(data, &result.synthetic, alpha)
}

/// The count-query baselines of §6.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaselineCount {
    /// Laplace noise on every marginal \[19\].
    Laplace,
    /// Fourier coefficients \[2\].
    Fourier,
    /// Noisy full contingency table.
    Contingency,
    /// MWEM \[26\] with the given options.
    Mwem(MwemOptions),
    /// The uniform distribution.
    Uniform,
}

impl BaselineCount {
    /// Method name for table columns.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BaselineCount::Laplace => "Laplace",
            BaselineCount::Fourier => "Fourier",
            BaselineCount::Contingency => "Contingency",
            BaselineCount::Mwem(_) => "MWEM",
            BaselineCount::Uniform => "Uniform",
        }
    }
}

/// Runs a count baseline and measures its average workload TVD.
#[must_use]
pub fn baseline_count_error(
    data: &Dataset,
    alpha: usize,
    method: BaselineCount,
    epsilon: f64,
    seed: u64,
) -> f64 {
    let workload = AlphaWayWorkload::new(data.d(), alpha);
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = CountEngine::new(data);
    let tables = match method {
        BaselineCount::Laplace => laplace_marginals(&engine, &workload, epsilon, &mut rng),
        BaselineCount::Fourier => fourier_marginals(data, &workload, epsilon, &mut rng),
        BaselineCount::Contingency => contingency_marginals(&engine, &workload, epsilon, &mut rng),
        BaselineCount::Mwem(opts) => mwem_marginals(&engine, &workload, epsilon, opts, &mut rng),
        BaselineCount::Uniform => uniform_marginals(data.schema(), &workload),
    };
    average_workload_tvd_tables(data, &tables, &workload)
}

/// Learns a network exactly as the pipeline would (θ = 4, β split) and
/// returns its Σ mutual-information quality — the Figure 4 metric.
/// `score = None` selects non-privately by argmax mutual information (the
/// NoPrivacy line).
///
/// # Panics
/// Panics on configuration errors.
#[must_use]
pub fn network_quality(data: &Dataset, epsilon: f64, score: Option<ScoreKind>, seed: u64) -> f64 {
    let beta = 0.3;
    let theta = 4.0;
    let (eps1, eps2) = (beta * epsilon, (1.0 - beta) * epsilon);
    let mut rng = StdRng::seed_from_u64(seed);
    let settings = match score {
        Some(s) => GreedySettings::private(s, eps1).with_max_degree(MAX_DEGREE),
        None => {
            GreedySettings::non_private(ScoreKind::MutualInformation).with_max_degree(MAX_DEGREE)
        }
    };
    let engine = CountEngine::new(data);
    let net = if data.schema().all_binary() {
        let k = choose_degree_binary(data.n(), data.d(), eps2, theta).min(MAX_DEGREE);
        greedy_bayes_fixed_k_engine(&engine, k, &settings, &mut rng)
    } else {
        greedy_bayes_adaptive_engine(&engine, theta, eps2, false, &settings, &mut rng)
    };
    sum_mutual_information(data, &net.expect("greedy"))
}

/// SVM training epochs used throughout the harness.
pub const SVM_EPOCHS: usize = 10;

/// Trains a hinge-loss SVM (C = 1) on `train_source` and evaluates it on
/// `test` for one classification target.
#[must_use]
pub fn svm_error(
    train_source: &Dataset,
    test: &Dataset,
    target: &ClassificationTarget,
    seed: u64,
) -> f64 {
    let train_m = FeatureMatrix::build(train_source, target.attr, &target.positive);
    let test_m = FeatureMatrix::build(test, target.attr, &target.positive);
    let mut rng = StdRng::seed_from_u64(seed);
    let svm = LinearSvm::train_hinge(&train_m, 1.0, SVM_EPOCHS, &mut rng);
    misclassification_rate(&svm, &test_m)
}

/// Runs PrivBayes once on the training data, then trains all `targets`'
/// SVMs on the *synthetic* output (the whole point of §6.6: one ε-DP release
/// serves every downstream task).
///
/// # Panics
/// Panics on synthesis failure.
#[must_use]
pub fn privbayes_svm_errors(
    train: &Dataset,
    test: &Dataset,
    targets: &[ClassificationTarget],
    options: PrivBayesOptions,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let result = PrivBayes::new(options).synthesize(train, &mut rng).expect("synthesis");
    targets
        .iter()
        .enumerate()
        .map(|(i, t)| svm_error(&result.synthetic, test, t, seed.wrapping_add(i as u64)))
        .collect()
}

/// The classification baselines of §6.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvmBaseline {
    /// PrivateERM at ε/4 per classifier \[8\].
    PrivateErm,
    /// PrivateERM with the full ε for a single classifier.
    PrivateErmSingle,
    /// PrivGene at ε/4 per classifier \[50\].
    PrivGene,
    /// Noisy-majority constant prediction at ε/4 per classifier.
    Majority,
    /// Non-private SVM trained on the real data.
    NoPrivacy,
}

impl SvmBaseline {
    /// Method name for table columns.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SvmBaseline::PrivateErm => "PrivateERM",
            SvmBaseline::PrivateErmSingle => "PrivateERM(Single)",
            SvmBaseline::PrivGene => "PrivGene",
            SvmBaseline::Majority => "Majority",
            SvmBaseline::NoPrivacy => "NoPrivacy",
        }
    }

    /// The budget this method spends on one classifier given the overall ε
    /// (§6.6: methods that train per-classifier split ε four ways).
    #[must_use]
    pub fn per_classifier_epsilon(&self, epsilon: f64) -> Option<f64> {
        match self {
            SvmBaseline::PrivateErm | SvmBaseline::PrivGene | SvmBaseline::Majority => {
                Some(epsilon / 4.0)
            }
            SvmBaseline::PrivateErmSingle => Some(epsilon),
            SvmBaseline::NoPrivacy => None,
        }
    }
}

/// Trains one baseline classifier and returns its test misclassification
/// rate. `epsilon` is the *overall* budget; the per-classifier split is
/// applied internally.
#[must_use]
pub fn baseline_svm_error(
    train: &Dataset,
    test: &Dataset,
    target: &ClassificationTarget,
    method: SvmBaseline,
    epsilon: f64,
    seed: u64,
) -> f64 {
    let train_m = FeatureMatrix::build(train, target.attr, &target.positive);
    let test_m = FeatureMatrix::build(test, target.attr, &target.positive);
    let mut rng = StdRng::seed_from_u64(seed);
    let eps = method.per_classifier_epsilon(epsilon);
    match method {
        SvmBaseline::PrivateErm | SvmBaseline::PrivateErmSingle => {
            let model =
                PrivateErm::new(PrivateErmOptions::default()).train(&train_m, eps, &mut rng);
            misclassification_rate(&model, &test_m)
        }
        SvmBaseline::PrivGene => {
            let model = PrivGene::new(PrivGeneOptions::default()).train(
                &train_m,
                eps.expect("PrivGene is private"),
                &mut rng,
            );
            misclassification_rate(&model, &test_m)
        }
        SvmBaseline::Majority => {
            let c =
                MajorityClassifier::train(&train_m, eps.expect("Majority is private"), &mut rng);
            c.misclassification_rate(&test_m)
        }
        SvmBaseline::NoPrivacy => {
            let svm = LinearSvm::train_hinge(&train_m, 1.0, SVM_EPOCHS, &mut rng);
            misclassification_rate(&svm, &test_m)
        }
    }
}

/// Binarised dimensionality of a dataset (used to label Figure 4 panels).
#[must_use]
pub fn binarized_dims(data: &Dataset) -> usize {
    let (bin, _) = binarize(data, EncodingKind::Binary).expect("binarise");
    bin.d()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_datasets::nltcs::nltcs_sized;

    #[test]
    fn privbayes_count_error_is_bounded() {
        let ds = nltcs_sized(1, 400);
        let err = privbayes_count_error(&ds.data, 2, privbayes_options(&ds.data, 1.0), 7);
        assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn baselines_run_on_small_binary_data() {
        let ds = nltcs_sized(2, 300);
        for method in [
            BaselineCount::Laplace,
            BaselineCount::Fourier,
            BaselineCount::Contingency,
            BaselineCount::Mwem(MwemOptions {
                iterations: 3,
                max_candidates: Some(10),
                update_passes: 2,
            }),
            BaselineCount::Uniform,
        ] {
            let err = baseline_count_error(&ds.data, 2, method, 0.5, 11);
            assert!((0.0..=1.0).contains(&err), "{}: {err}", method.name());
        }
    }

    #[test]
    fn network_quality_nonprivate_dominates_noisy() {
        let ds = nltcs_sized(3, 1500);
        let best = network_quality(&ds.data, 1.6, None, 5);
        let mut noisy_sum = 0.0;
        let reps = 3;
        for s in 0..reps {
            noisy_sum += network_quality(&ds.data, 0.05, Some(ScoreKind::F), 50 + s);
        }
        assert!(best >= noisy_sum / reps as f64 - 0.15, "argmax should be at least as good");
    }

    #[test]
    fn svm_flow_runs_end_to_end() {
        let ds = nltcs_sized(4, 800);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = ds.data.split_train_test(0.8, &mut rng);
        let errs =
            privbayes_svm_errors(&train, &test, &ds.targets, privbayes_options(&train, 1.0), 13);
        assert_eq!(errs.len(), 4);
        assert!(errs.iter().all(|e| (0.0..=1.0).contains(e)));
        for method in [
            SvmBaseline::PrivateErm,
            SvmBaseline::PrivateErmSingle,
            SvmBaseline::PrivGene,
            SvmBaseline::Majority,
            SvmBaseline::NoPrivacy,
        ] {
            let e = baseline_svm_error(&train, &test, &ds.targets[0], method, 0.8, 17);
            assert!((0.0..=1.0).contains(&e), "{}: {e}", method.name());
        }
    }

    #[test]
    fn per_classifier_split() {
        assert_eq!(SvmBaseline::PrivateErm.per_classifier_epsilon(0.8), Some(0.2));
        assert_eq!(SvmBaseline::PrivateErmSingle.per_classifier_epsilon(0.8), Some(0.8));
        assert_eq!(SvmBaseline::NoPrivacy.per_classifier_epsilon(0.8), None);
    }
}
