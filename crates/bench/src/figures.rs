//! Figure/table composition: one function per evaluation artefact, shared by
//! the `src/bin/fig*.rs` binaries, each named after the paper figure or
//! table it reproduces.

use privbayes::pipeline::PrivBayesOptions;
use privbayes::score::ScoreKind;
use privbayes_baselines::MwemOptions;
use privbayes_data::encoding::EncodingKind;
use privbayes_datasets::{acs, adult, br2000, nltcs, BenchmarkDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tasks::{
    baseline_count_error, baseline_svm_error, network_quality, privbayes_count_error,
    privbayes_options, privbayes_svm_errors, BaselineCount, SvmBaseline,
};
use crate::{mean_over_reps, HarnessConfig, ResultTable, BETAS, THETAS};

/// The four evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetPick {
    /// NLTCS (16 binary).
    Nltcs,
    /// ACS (23 binary).
    Acs,
    /// Adult (15 mixed).
    Adult,
    /// BR2000 (14 mixed).
    Br2000,
}

impl DatasetPick {
    /// Loads the dataset at the configured scale.
    #[must_use]
    pub fn load(self, cfg: &HarnessConfig, seed: u64) -> BenchmarkDataset {
        match self {
            DatasetPick::Nltcs => nltcs::nltcs_sized(seed, cfg.scaled(nltcs::CARDINALITY)),
            DatasetPick::Acs => acs::acs_sized(seed, cfg.scaled(acs::CARDINALITY)),
            DatasetPick::Adult => adult::adult_sized(seed, cfg.scaled(adult::CARDINALITY)),
            DatasetPick::Br2000 => br2000::br2000_sized(seed, cfg.scaled(br2000::CARDINALITY)),
        }
    }

    /// Dataset name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DatasetPick::Nltcs => "NLTCS",
            DatasetPick::Acs => "ACS",
            DatasetPick::Adult => "Adult",
            DatasetPick::Br2000 => "BR2000",
        }
    }

    /// The α values the paper evaluates on this dataset (Q₃/Q₄ for the
    /// binary datasets, Q₂/Q₃ for the others, §6.1).
    #[must_use]
    pub fn alphas(self) -> [usize; 2] {
        match self {
            DatasetPick::Nltcs | DatasetPick::Acs => [3, 4],
            DatasetPick::Adult | DatasetPick::Br2000 => [2, 3],
        }
    }

    /// The count-task α used in the parameter-tuning figures (9–11).
    #[must_use]
    pub fn tuning_alpha(self) -> usize {
        self.alphas()[1]
    }
}

/// Table 5: dataset characteristics.
#[must_use]
pub fn table5(cfg: &HarnessConfig) -> ResultTable {
    let mut t = ResultTable::new(
        "Table 5: dataset characteristics",
        "dataset",
        vec!["cardinality".into(), "dimensionality".into(), "log2(domain)".into()],
    );
    for pick in [DatasetPick::Nltcs, DatasetPick::Acs, DatasetPick::Adult, DatasetPick::Br2000] {
        let ds = pick.load(cfg, 0);
        t.push_row(
            ds.name,
            vec![ds.data.n() as f64, ds.data.d() as f64, ds.data.schema().total_domain_log2()],
        );
    }
    t
}

/// Figure 4: score functions I / F / R vs NoPrivacy, Σ mutual information.
/// `F` only applies to the binary datasets (§6.2).
#[must_use]
pub fn fig04_panel(cfg: &HarnessConfig, pick: DatasetPick) -> ResultTable {
    let ds = pick.load(cfg, 1);
    let binary = ds.data.schema().all_binary();
    let mut methods: Vec<(String, Option<ScoreKind>)> =
        vec![("I".into(), Some(ScoreKind::MutualInformation))];
    if binary {
        methods.push(("F".into(), Some(ScoreKind::F)));
    }
    methods.push(("R".into(), Some(ScoreKind::R)));
    methods.push(("NoPrivacy".into(), None));

    let mut t = ResultTable::new(
        format!("Fig 4 ({}): sum of mutual information", pick.name()),
        "epsilon",
        methods.iter().map(|(n, _)| n.clone()).collect(),
    );
    for &eps in &cfg.epsilons() {
        let row: Vec<f64> = methods
            .iter()
            .map(|(_, score)| {
                mean_over_reps(cfg.reps, seed_for("fig4", pick.name(), eps), |s| {
                    network_quality(&ds.data, eps, *score, s)
                })
            })
            .collect();
        t.push_row(format!("{eps}"), row);
    }
    t
}

/// Figures 5–6: encodings on the count task.
#[must_use]
pub fn fig_encodings_counts(cfg: &HarnessConfig, pick: DatasetPick, alpha: usize) -> ResultTable {
    let ds = pick.load(cfg, 2);
    let encodings = encoding_methods();
    let mut t = ResultTable::new(
        format!("Fig 5/6 ({}, Q{}): encodings, average variation distance", pick.name(), alpha),
        "epsilon",
        encodings.iter().map(|(n, _, _)| (*n).into()).collect(),
    );
    for &eps in &cfg.epsilons() {
        let row: Vec<f64> = encodings
            .iter()
            .map(|(name, enc, score)| {
                mean_over_reps(cfg.reps, seed_for(name, pick.name(), eps), |s| {
                    let opts = encoded_options(&ds.data, eps, *enc, *score);
                    privbayes_count_error(&ds.data, alpha, opts, s)
                })
            })
            .collect();
        t.push_row(format!("{eps}"), row);
    }
    t
}

/// Figures 7–8: encodings on the SVM task (one panel per target).
#[must_use]
pub fn fig_encodings_svm(cfg: &HarnessConfig, pick: DatasetPick) -> Vec<ResultTable> {
    let ds = pick.load(cfg, 3);
    let mut rng = StdRng::seed_from_u64(0x0513);
    let (train, test) = ds.data.split_train_test(0.8, &mut rng);
    let encodings = encoding_methods();

    let mut tables: Vec<ResultTable> = ds
        .targets
        .iter()
        .map(|target| {
            ResultTable::new(
                format!(
                    "Fig 7/8 ({}, {}): encodings, misclassification rate",
                    pick.name(),
                    target.name
                ),
                "epsilon",
                encodings.iter().map(|(n, _, _)| (*n).into()).collect(),
            )
        })
        .collect();

    for &eps in &cfg.epsilons() {
        // rows[target][method]
        let mut rows = vec![Vec::new(); ds.targets.len()];
        for (name, enc, score) in &encodings {
            // One synthesis serves all four targets; average reps per target.
            let per_target: Vec<f64> = (0..ds.targets.len())
                .map(|ti| {
                    mean_over_reps(cfg.reps, seed_for(name, pick.name(), eps + ti as f64), |s| {
                        let opts = encoded_options(&train, eps, *enc, *score);
                        privbayes_svm_errors(&train, &test, &ds.targets, opts, s)[ti]
                    })
                })
                .collect();
            for (ti, v) in per_target.into_iter().enumerate() {
                rows[ti].push(v);
            }
        }
        for (ti, row) in rows.into_iter().enumerate() {
            tables[ti].push_row(format!("{eps}"), row);
        }
    }
    tables
}

/// Figure 9 (β sweep) or Figure 10 (θ sweep): one count panel and one SVM
/// panel for `pick`; `sweep_beta` selects which parameter varies.
#[must_use]
pub fn fig_parameter_sweep(
    cfg: &HarnessConfig,
    pick: DatasetPick,
    sweep_beta: bool,
) -> Vec<ResultTable> {
    let ds = pick.load(cfg, 4);
    let mut rng = StdRng::seed_from_u64(44);
    let (train, test) = ds.data.split_train_test(0.8, &mut rng);
    let target = &ds.targets[0];
    let alpha = pick.tuning_alpha();
    let grid: &[f64] = if sweep_beta { &BETAS } else { &THETAS };
    let (fig, param) = if sweep_beta { ("Fig 9", "beta") } else { ("Fig 10", "theta") };

    let eps_cols: Vec<String> = cfg.epsilons().iter().map(|e| format!("eps={e}")).collect();
    let mut count_t = ResultTable::new(
        format!("{fig} ({}, Q{alpha}): average variation distance vs {param}", pick.name()),
        param,
        eps_cols.clone(),
    );
    let mut svm_t = ResultTable::new(
        format!("{fig} ({}, {}): misclassification rate vs {param}", pick.name(), target.name),
        param,
        eps_cols,
    );
    for &p in grid {
        let mut count_row = Vec::new();
        let mut svm_row = Vec::new();
        for &eps in &cfg.epsilons() {
            let opts = |data: &privbayes_data::Dataset| {
                let mut o = privbayes_options(data, eps);
                if sweep_beta {
                    o.beta = p;
                } else {
                    o.theta = p;
                }
                o
            };
            count_row.push(mean_over_reps(cfg.reps, seed_for(fig, pick.name(), p + eps), |s| {
                privbayes_count_error(&ds.data, alpha, opts(&ds.data), s)
            }));
            svm_row.push(mean_over_reps(
                cfg.reps,
                seed_for(fig, target.name.as_str(), p + eps),
                |s| {
                    privbayes_svm_errors(
                        &train,
                        &test,
                        std::slice::from_ref(target),
                        opts(&train),
                        s,
                    )[0]
                },
            ));
        }
        count_t.push_row(format!("{p}"), count_row);
        svm_t.push_row(format!("{p}"), svm_row);
    }
    vec![count_t, svm_t]
}

/// Figure 11: source-of-error ablations (PrivBayes vs BestNetwork vs
/// BestMarginal) on the same two tasks as Figures 9–10.
#[must_use]
pub fn fig11_panels(cfg: &HarnessConfig, pick: DatasetPick) -> Vec<ResultTable> {
    let ds = pick.load(cfg, 5);
    let mut rng = StdRng::seed_from_u64(45);
    let (train, test) = ds.data.split_train_test(0.8, &mut rng);
    let target = &ds.targets[0];
    let alpha = pick.tuning_alpha();
    type Variant = (&'static str, fn(PrivBayesOptions) -> PrivBayesOptions);
    let variants: [Variant; 3] = [
        ("PrivBayes", |o| o),
        ("BestNetwork", PrivBayesOptions::best_network),
        ("BestMarginal", PrivBayesOptions::best_marginal),
    ];

    let mut count_t = ResultTable::new(
        format!("Fig 11 ({}, Q{alpha}): source of error (counts)", pick.name()),
        "epsilon",
        variants.iter().map(|(n, _)| (*n).into()).collect(),
    );
    let mut svm_t = ResultTable::new(
        format!("Fig 11 ({}, {}): source of error (SVM)", pick.name(), target.name),
        "epsilon",
        variants.iter().map(|(n, _)| (*n).into()).collect(),
    );
    for &eps in &cfg.epsilons() {
        let count_row: Vec<f64> = variants
            .iter()
            .map(|(name, wrap)| {
                mean_over_reps(cfg.reps, seed_for(name, pick.name(), eps), |s| {
                    privbayes_count_error(
                        &ds.data,
                        alpha,
                        wrap(privbayes_options(&ds.data, eps)),
                        s,
                    )
                })
            })
            .collect();
        let svm_row: Vec<f64> = variants
            .iter()
            .map(|(name, wrap)| {
                mean_over_reps(cfg.reps, seed_for(name, target.name.as_str(), eps), |s| {
                    privbayes_svm_errors(
                        &train,
                        &test,
                        std::slice::from_ref(target),
                        wrap(privbayes_options(&train, eps)),
                        s,
                    )[0]
                })
            })
            .collect();
        count_t.push_row(format!("{eps}"), count_row);
        svm_t.push_row(format!("{eps}"), svm_row);
    }
    vec![count_t, svm_t]
}

/// Figures 12–15: PrivBayes vs the count baselines on `Q_alpha`.
/// Contingency and MWEM only run on the binary datasets (§6.5).
#[must_use]
pub fn fig_marginals_panel(cfg: &HarnessConfig, pick: DatasetPick, alpha: usize) -> ResultTable {
    let ds = pick.load(cfg, 6);
    let binary = ds.data.schema().all_binary();
    let mut methods: Vec<(String, Option<BaselineCount>)> = vec![("PrivBayes".into(), None)];
    for b in [BaselineCount::Laplace, BaselineCount::Fourier] {
        methods.push((b.name().into(), Some(b)));
    }
    if binary {
        methods.push(("Contingency".into(), Some(BaselineCount::Contingency)));
        let mwem = MwemOptions {
            iterations: 10,
            // Scoring every candidate marginal over a 2²³-cell domain each
            // round is prohibitive for ACS; subsample the candidates (a
            // deviation from MWEM as published, ACS only).
            max_candidates: if pick == DatasetPick::Acs { Some(100) } else { None },
            update_passes: if pick == DatasetPick::Acs { 2 } else { 8 },
        };
        methods.push(("MWEM".into(), Some(BaselineCount::Mwem(mwem))));
    }
    methods.push(("Uniform".into(), Some(BaselineCount::Uniform)));

    let mut t = ResultTable::new(
        format!("Fig 12-15 ({}, Q{alpha}): average variation distance", pick.name()),
        "epsilon",
        methods.iter().map(|(n, _)| n.clone()).collect(),
    );
    for &eps in &cfg.epsilons() {
        let row: Vec<f64> = methods
            .iter()
            .map(|(name, method)| {
                mean_over_reps(cfg.reps, seed_for(name, pick.name(), eps), |s| match method {
                    None => {
                        privbayes_count_error(&ds.data, alpha, privbayes_options(&ds.data, eps), s)
                    }
                    Some(m) => baseline_count_error(&ds.data, alpha, *m, eps, s),
                })
            })
            .collect();
        t.push_row(format!("{eps}"), row);
    }
    t
}

/// Figures 16–19: PrivBayes vs the classification baselines, one panel per
/// target.
#[must_use]
pub fn fig_svm_panels(cfg: &HarnessConfig, pick: DatasetPick) -> Vec<ResultTable> {
    let ds = pick.load(cfg, 7);
    let mut rng = StdRng::seed_from_u64(46);
    let (train, test) = ds.data.split_train_test(0.8, &mut rng);
    let baselines = [
        SvmBaseline::PrivateErm,
        SvmBaseline::PrivateErmSingle,
        SvmBaseline::PrivGene,
        SvmBaseline::Majority,
        SvmBaseline::NoPrivacy,
    ];
    let mut columns: Vec<String> = vec!["PrivBayes".into()];
    columns.extend(baselines.iter().map(|b| b.name().to_string()));

    let mut tables: Vec<ResultTable> = ds
        .targets
        .iter()
        .map(|target| {
            ResultTable::new(
                format!("Fig 16-19 ({}, {}): misclassification rate", pick.name(), target.name),
                "epsilon",
                columns.clone(),
            )
        })
        .collect();

    for &eps in &cfg.epsilons() {
        for (ti, target) in ds.targets.iter().enumerate() {
            let mut row = Vec::with_capacity(columns.len());
            row.push(mean_over_reps(
                cfg.reps,
                seed_for("pb-svm", target.name.as_str(), eps),
                |s| {
                    privbayes_svm_errors(
                        &train,
                        &test,
                        &ds.targets,
                        privbayes_options(&train, eps),
                        s,
                    )[ti]
                },
            ));
            for b in &baselines {
                row.push(mean_over_reps(
                    cfg.reps,
                    seed_for(b.name(), target.name.as_str(), eps),
                    |s| baseline_svm_error(&train, &test, target, *b, eps, s),
                ));
            }
            tables[ti].push_row(format!("{eps}"), row);
        }
    }
    tables
}

/// The four encoding configurations of §6.3 with their score functions.
fn encoding_methods() -> Vec<(&'static str, EncodingKind, ScoreKind)> {
    vec![
        ("Binary-F", EncodingKind::Binary, ScoreKind::F),
        ("Gray-F", EncodingKind::Gray, ScoreKind::F),
        ("Vanilla-R", EncodingKind::Vanilla, ScoreKind::R),
        ("Hierarchical-R", EncodingKind::Hierarchical, ScoreKind::R),
    ]
}

/// Options for an explicit encoding; bitwise encodings on wide mixed data get
/// a tighter degree cap to keep the candidate space tractable: the candidate
/// parent sets grow combinatorially with the degree.
fn encoded_options(
    data: &privbayes_data::Dataset,
    eps: f64,
    encoding: EncodingKind,
    score: ScoreKind,
) -> PrivBayesOptions {
    let mut o = PrivBayesOptions::new(eps).with_encoding(encoding).with_score(score);
    o.max_degree = if encoding.is_bitwise() && crate::tasks::binarized_dims(data) > 30 {
        2
    } else {
        crate::tasks::MAX_DEGREE
    };
    o
}

/// Deterministic seed derivation so reruns reproduce exactly.
fn seed_for(method: &str, dataset: &str, point: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in method.bytes().chain(dataset.bytes()).chain(point.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig { reps: 1, scale: 0.01, quick: true, out_dir: None }
    }

    #[test]
    fn table5_has_four_rows() {
        let t = table5(&tiny_cfg());
        assert!(t.render().contains("NLTCS"));
        assert!(t.render().contains("BR2000"));
    }

    #[test]
    fn seeds_differ_by_point() {
        assert_ne!(seed_for("a", "b", 0.1), seed_for("a", "b", 0.2));
        assert_ne!(seed_for("a", "b", 0.1), seed_for("c", "b", 0.1));
        assert_eq!(seed_for("a", "b", 0.1), seed_for("a", "b", 0.1));
    }

    #[test]
    fn fig04_panel_smoke() {
        let t = fig04_panel(&tiny_cfg(), DatasetPick::Nltcs);
        let s = t.render();
        assert!(s.contains("NoPrivacy") && s.contains('F'));
    }

    #[test]
    fn marginals_panel_smoke_nonbinary() {
        let t = fig_marginals_panel(&tiny_cfg(), DatasetPick::Br2000, 2);
        let s = t.render();
        assert!(s.contains("PrivBayes") && s.contains("Uniform"));
        assert!(!s.contains("MWEM"), "MWEM only applies to binary datasets");
    }
}
