//! PrivBayes (§3): one fit for all four encodings (§5.1).
//!
//! [`PrivBayes::fit`] is the method: split ε by β, learn the network, then
//! learn the noisy conditionals, all over one [`CountEngine`].
//!
//! * **Binary / Gray**: choose `k` by θ-usefulness (Lemma 4.8) →
//!   GreedyBayes (Algorithm 2, default score `F`) → NoisyConditionals
//!   (Algorithm 1), over the binarised rows.
//! * **Vanilla / Hierarchical**: GreedyBayes with maximal parent sets
//!   (Algorithm 4, default score `R`; the hierarchical variant additionally
//!   generalises parents through taxonomy trees) → NoisyConditionals
//!   (Algorithm 3). A fixed `k` on the vanilla encoding runs Algorithm 2
//!   over the raw attributes instead.
//!
//! [`PrivBayes::synthesize`] wraps the fit with the data phase: binarise
//! (bitwise encodings), fit, sample, debinarise. The synthesizer layer's
//! `privbayes` and `privbayes-k` methods call the same fit and release the
//! model instead of sampling it.
//!
//! The ablations of §6.4 are exposed via [`PrivBayesOptions::best_network`]
//! (noise-free structure learning) and [`PrivBayesOptions::best_marginal`]
//! (noise-free distribution learning).

use privbayes_data::encoding::{binarize, debinarize, EncodingKind};
use privbayes_data::Dataset;
use privbayes_dp::budget::BudgetSplit;
use privbayes_marginals::CountEngine;
use rand::Rng;

use crate::conditionals::{
    noisy_conditionals_binary_k_engine, noisy_conditionals_consistent_engine, NoisyModel,
};
use crate::error::PrivBayesError;
use crate::greedy::{greedy_bayes_adaptive_engine, greedy_bayes_fixed_k_engine, GreedySettings};
use crate::score::ScoreKind;
use crate::theta::choose_degree_binary;

/// Configuration of one PrivBayes run.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivBayesOptions {
    /// Total privacy budget ε (= ε₁ + ε₂, Theorem 3.2).
    pub epsilon: f64,
    /// Budget split: ε₁ = βε, ε₂ = (1−β)ε. Paper default β = 0.3 (§6.4).
    pub beta: f64,
    /// θ-usefulness threshold. Paper default θ = 4 (§6.4).
    pub theta: f64,
    /// Attribute encoding (§5.1). Default: vanilla.
    pub encoding: EncodingKind,
    /// Score function; `None` selects the paper's per-encoding default
    /// (`F` for binary/Gray, `R` for vanilla/hierarchical — §6.2/§6.3).
    pub score: Option<ScoreKind>,
    /// Cap on parent-set cardinality. The candidate parent sets of a child
    /// grow combinatorially with their size, so the experiments cap it to
    /// stay tractable; `usize::MAX` is the paper-faithful setting.
    pub max_degree: usize,
    /// Fixed degree `k` for Algorithm 2. On the bitwise encodings it
    /// overrides the θ-derived `k`; on the vanilla encoding it runs
    /// Algorithm 2 over the raw attributes instead of Algorithm 4. The
    /// hierarchical encoding refuses it (Algorithm 2 has no generalised
    /// parents).
    pub fixed_k: Option<usize>,
    /// Number of synthetic rows; `None` = same as the input (§3).
    pub synthetic_rows: Option<usize>,
    /// Whether network learning is private (false = BestNetwork ablation).
    pub private_network: bool,
    /// Whether distribution learning is private (false = BestMarginal ablation).
    pub private_marginals: bool,
    /// Rounds of cross-marginal [`mutual_consistency`] applied to the noisy
    /// joints before conditioning (§3 footnote 1; 0 = paper's default of no
    /// cross-table reconciliation). Only supported by the vanilla and
    /// hierarchical encodings; combining it with a bitwise encoding is an
    /// error rather than a silent no-op.
    ///
    /// [`mutual_consistency`]: privbayes_marginals::mutual_consistency
    pub consistency_rounds: usize,
    /// Worker threads for candidate scoring and synthesis; `None` uses
    /// [`std::thread::available_parallelism`]. The output for a fixed seed is
    /// identical for every setting (see `greedy` and `sampler` docs).
    pub threads: Option<usize>,
}

impl PrivBayesOptions {
    /// Paper-default options at budget `epsilon`.
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        Self {
            epsilon,
            beta: BudgetSplit::DEFAULT_BETA,
            theta: 4.0,
            encoding: EncodingKind::Vanilla,
            score: None,
            max_degree: 4,
            fixed_k: None,
            synthetic_rows: None,
            private_network: true,
            private_marginals: true,
            consistency_rounds: 0,
            threads: None,
        }
    }

    /// Pins the worker-thread count (tests and benchmarks; `1` forces the
    /// sequential paths).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets the encoding.
    #[must_use]
    pub fn with_encoding(mut self, encoding: EncodingKind) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the score function explicitly.
    #[must_use]
    pub fn with_score(mut self, score: ScoreKind) -> Self {
        self.score = Some(score);
        self
    }

    /// Sets β.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets θ.
    #[must_use]
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the number of cross-marginal consistency rounds (0 disables).
    #[must_use]
    pub fn with_consistency_rounds(mut self, rounds: usize) -> Self {
        self.consistency_rounds = rounds;
        self
    }

    /// BestNetwork ablation (§6.4): structure learned without noise,
    /// marginals still private with ε₂.
    #[must_use]
    pub fn best_network(mut self) -> Self {
        self.private_network = false;
        self
    }

    /// BestMarginal ablation (§6.4): structure private with ε₁, marginals
    /// noise-free.
    #[must_use]
    pub fn best_marginal(mut self) -> Self {
        self.private_marginals = false;
        self
    }

    /// The effective score function for the configured encoding.
    #[must_use]
    pub fn effective_score(&self) -> ScoreKind {
        self.score.unwrap_or(match self.encoding {
            EncodingKind::Binary | EncodingKind::Gray => ScoreKind::F,
            EncodingKind::Vanilla | EncodingKind::Hierarchical => ScoreKind::R,
        })
    }

    fn validate(&self) -> Result<(), PrivBayesError> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(PrivBayesError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(PrivBayesError::InvalidConfig(format!(
                "beta must lie in (0,1), got {}",
                self.beta
            )));
        }
        if !(self.theta > 0.0 && self.theta.is_finite()) {
            return Err(PrivBayesError::InvalidConfig(format!(
                "theta must be positive, got {}",
                self.theta
            )));
        }
        if self.fixed_k.is_some() && self.encoding == EncodingKind::Hierarchical {
            return Err(PrivBayesError::InvalidConfig(
                "a fixed degree k runs Algorithm 2 over raw attributes; the hierarchical \
                 encoding is not supported"
                    .into(),
            ));
        }
        if self.consistency_rounds > 0 && self.encoding.is_bitwise() {
            return Err(PrivBayesError::InvalidConfig(format!(
                "consistency rounds require the vanilla or hierarchical encoding, got {}",
                self.encoding.name()
            )));
        }
        Ok(())
    }
}

/// The output of a PrivBayes run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthetic dataset `D*` over the original schema.
    pub synthetic: Dataset,
    /// The noisy model (network + conditionals) used for sampling; its
    /// network is over bit attributes for the binary/Gray encodings.
    pub model: NoisyModel,
    /// The degree used (`k` for Algorithm 2, the learned degree otherwise).
    pub degree: usize,
    /// Privacy spent on network learning (0 for ablations).
    pub epsilon1_spent: f64,
    /// Privacy spent on distribution learning (0 for ablations).
    pub epsilon2_spent: f64,
}

/// The PrivBayes synthesiser.
#[derive(Debug, Clone)]
pub struct PrivBayes {
    options: PrivBayesOptions,
}

impl PrivBayes {
    /// Creates a synthesiser with the given options.
    #[must_use]
    pub fn new(options: PrivBayesOptions) -> Self {
        Self { options }
    }

    /// The configured options.
    #[must_use]
    pub fn options(&self) -> &PrivBayesOptions {
        &self.options
    }

    /// Learns the noisy model from the rows `engine` counts (the binarised
    /// rows for the bitwise encodings): splits ε by β, learns the network
    /// (Algorithm 2 for the bitwise encodings or a fixed `k`, Algorithm 4
    /// otherwise), then the noisy conditionals (Algorithm 1 for the bitwise
    /// encodings, Algorithm 3 with the configured consistency rounds
    /// otherwise). One engine serves both phases, so AP-pair joints counted
    /// while scoring are cache hits when the conditionals materialise them.
    ///
    /// Returns the model and its degree: `k` for Algorithm 2, the learned
    /// degree for Algorithm 4. Randomness is drawn from `rng` in that order
    /// (structure, then conditionals), so a seeded `rng` fixes the model bit
    /// for bit.
    ///
    /// # Errors
    /// Returns [`PrivBayesError`] on invalid options, score/encoding
    /// mismatches, no rows or fewer than two attributes.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        engine: &CountEngine,
        rng: &mut R,
    ) -> Result<(NoisyModel, usize), PrivBayesError> {
        let o = &self.options;
        o.validate()?;
        let (n, d) = (engine.n(), engine.schema().len());
        if n == 0 {
            return Err(PrivBayesError::InvalidConfig("empty dataset".into()));
        }
        if d < 2 {
            return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
        }
        let (eps1, eps2) = BudgetSplit::new(o.beta)?.split(o.epsilon);
        let settings = GreedySettings {
            score: o.effective_score(),
            epsilon1: o.private_network.then_some(eps1),
            max_degree: o.max_degree,
            threads: o.threads,
        };
        let bitwise = o.encoding.is_bitwise();
        let (network, degree) = if bitwise || o.fixed_k.is_some() {
            let k = o
                .fixed_k
                .unwrap_or_else(|| choose_degree_binary(n, d, eps2, o.theta))
                .min(o.max_degree)
                .min(d - 1);
            (greedy_bayes_fixed_k_engine(engine, k, &settings, rng)?, k)
        } else {
            let use_taxonomy = o.encoding == EncodingKind::Hierarchical;
            let network =
                greedy_bayes_adaptive_engine(engine, o.theta, eps2, use_taxonomy, &settings, rng)?;
            let degree = network.degree();
            (network, degree)
        };
        let epsilon2 = o.private_marginals.then_some(eps2);
        let model = if bitwise {
            noisy_conditionals_binary_k_engine(engine, &network, degree, epsilon2, rng)?
        } else {
            noisy_conditionals_consistent_engine(
                engine,
                &network,
                epsilon2,
                o.consistency_rounds,
                rng,
            )?
        };
        Ok((model, degree))
    }

    /// Runs the whole pipeline on `data`: binarise (bitwise encodings),
    /// [`PrivBayes::fit`], sample, debinarise.
    ///
    /// # Errors
    /// Returns [`PrivBayesError`] on invalid configuration, score/encoding
    /// mismatches, or empty input.
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        rng: &mut R,
    ) -> Result<SynthesisResult, PrivBayesError> {
        let o = &self.options;
        // `fit` counts the attributes it learns over, and binarising a single
        // attribute can give several bits.
        if data.d() < 2 {
            return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
        }
        let rows = o.synthetic_rows.unwrap_or(data.n());
        let (model, degree, synthetic) = if o.encoding.is_bitwise() {
            let (bits, map) = binarize(data, o.encoding)?;
            let (model, degree) = self.fit(&CountEngine::new(&bits), rng)?;
            let sample = model.compile(bits.schema())?.sample_dataset(rows, o.threads, rng)?;
            (model, degree, debinarize(&sample, &map, data.schema())?)
        } else {
            let (model, degree) = self.fit(&CountEngine::new(data), rng)?;
            let synthetic = model.compile(data.schema())?.sample_dataset(rows, o.threads, rng)?;
            (model, degree, synthetic)
        };
        let (eps1, eps2) = BudgetSplit::new(o.beta)?.split(o.epsilon);
        Ok(SynthesisResult {
            synthetic,
            model,
            degree,
            epsilon1_spent: if o.private_network { eps1 } else { 0.0 },
            epsilon2_spent: if o.private_marginals { eps2 } else { 0.0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Schema, TaxonomyTree};
    use privbayes_marginals::average_workload_tvd;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn binary_data(n: usize, seed: u64) -> Dataset {
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
                let c = rng.random_range(0..2u32);
                let flip = u32::from(rng.random::<f64>() < 0.1);
                vec![a, a ^ flip, c, c]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    fn mixed_data(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("flag"),
            Attribute::categorical("work", 4)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
                .unwrap(),
            Attribute::continuous("age", 0.0, 80.0, 8)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(8).unwrap())
                .unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let w = rng.random_range(0..4u32);
                vec![u32::from(w >= 2), w, w * 2 + rng.random_range(0..2u32)]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn all_encodings_produce_schema_matching_output() {
        let data = mixed_data(400, 1);
        for encoding in [
            EncodingKind::Binary,
            EncodingKind::Gray,
            EncodingKind::Vanilla,
            EncodingKind::Hierarchical,
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let result = PrivBayes::new(PrivBayesOptions::new(1.0).with_encoding(encoding))
                .synthesize(&data, &mut rng)
                .unwrap_or_else(|e| panic!("{encoding:?}: {e}"));
            assert_eq!(result.synthetic.n(), data.n(), "{encoding:?}");
            assert_eq!(
                result.synthetic.schema().domain_sizes(),
                data.schema().domain_sizes(),
                "{encoding:?}"
            );
        }
    }

    #[test]
    fn budget_accounting_sums_to_epsilon() {
        let data = binary_data(300, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let eps = 0.8;
        let result = PrivBayes::new(PrivBayesOptions::new(eps).with_encoding(EncodingKind::Binary))
            .synthesize(&data, &mut rng)
            .unwrap();
        assert!((result.epsilon1_spent + result.epsilon2_spent - eps).abs() < 1e-12);
        assert!((result.epsilon1_spent - 0.3 * eps).abs() < 1e-12, "β default 0.3");
    }

    #[test]
    fn ablations_spend_less() {
        let data = binary_data(300, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let r = PrivBayes::new(PrivBayesOptions::new(1.0).best_network())
            .synthesize(&data, &mut rng)
            .unwrap();
        assert_eq!(r.epsilon1_spent, 0.0);
        assert!(r.epsilon2_spent > 0.0);
        let r = PrivBayes::new(PrivBayesOptions::new(1.0).best_marginal())
            .synthesize(&data, &mut rng)
            .unwrap();
        assert!(r.epsilon1_spent > 0.0);
        assert_eq!(r.epsilon2_spent, 0.0);
    }

    #[test]
    fn higher_epsilon_gives_lower_error_on_average() {
        let data = binary_data(2000, 7);
        let avg_err = |eps: f64| -> f64 {
            let reps = 5;
            (0..reps)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(1000 + s);
                    let r = PrivBayes::new(
                        PrivBayesOptions::new(eps).with_encoding(EncodingKind::Vanilla),
                    )
                    .synthesize(&data, &mut rng)
                    .unwrap();
                    average_workload_tvd(&data, &r.synthetic, 2)
                })
                .sum::<f64>()
                / reps as f64
        };
        let low = avg_err(0.05);
        let high = avg_err(5.0);
        assert!(high < low, "ε=5 error ({high}) should be below ε=0.05 error ({low})");
    }

    #[test]
    fn noise_free_run_is_accurate() {
        let data = binary_data(2000, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let opts = PrivBayesOptions::new(1.0).best_network().best_marginal();
        let r = PrivBayes::new(opts).synthesize(&data, &mut rng).unwrap();
        let err = average_workload_tvd(&data, &r.synthetic, 2);
        assert!(err < 0.06, "noise-free synthesis should track the data, err = {err}");
    }

    #[test]
    fn fixed_k_override_is_respected() {
        let data = binary_data(500, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let mut opts = PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Binary);
        opts.fixed_k = Some(1);
        let r = PrivBayes::new(opts).synthesize(&data, &mut rng).unwrap();
        assert_eq!(r.degree, 1);
        assert!(r.model.network.degree() <= 1);
    }

    #[test]
    fn synthetic_rows_override() {
        let data = binary_data(200, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let mut opts = PrivBayesOptions::new(1.0);
        opts.synthetic_rows = Some(77);
        let r = PrivBayes::new(opts).synthesize(&data, &mut rng).unwrap();
        assert_eq!(r.synthetic.n(), 77);
    }

    #[test]
    fn default_scores_follow_encoding() {
        assert_eq!(
            PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Binary).effective_score(),
            ScoreKind::F
        );
        assert_eq!(
            PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Gray).effective_score(),
            ScoreKind::F
        );
        assert_eq!(
            PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Vanilla).effective_score(),
            ScoreKind::R
        );
        assert_eq!(
            PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Hierarchical).effective_score(),
            ScoreKind::R
        );
        assert_eq!(
            PrivBayesOptions::new(1.0).with_score(ScoreKind::MutualInformation).effective_score(),
            ScoreKind::MutualInformation
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = binary_data(50, 14);
        let mut rng = StdRng::seed_from_u64(15);
        for opts in [
            PrivBayesOptions::new(0.0),
            PrivBayesOptions::new(-1.0),
            PrivBayesOptions::new(1.0).with_beta(0.0),
            PrivBayesOptions::new(1.0).with_beta(1.0),
            PrivBayesOptions::new(1.0).with_theta(0.0),
            PrivBayesOptions::new(1.0)
                .with_encoding(EncodingKind::Binary)
                .with_consistency_rounds(2),
        ] {
            assert!(PrivBayes::new(opts).synthesize(&data, &mut rng).is_err());
        }
    }

    #[test]
    fn hierarchical_refuses_a_fixed_k() {
        let data = mixed_data(200, 23);
        let mut opts = PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Hierarchical);
        opts.fixed_k = Some(2);
        let err = PrivBayes::new(opts)
            .synthesize(&data, &mut StdRng::seed_from_u64(24))
            .expect_err("Algorithm 2 has no generalised parents");
        assert!(err.to_string().contains("hierarchical"), "{err}");
    }

    #[test]
    fn consistency_rounds_run_end_to_end() {
        let data = mixed_data(400, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let result = PrivBayes::new(PrivBayesOptions::new(1.0).with_consistency_rounds(2))
            .synthesize(&data, &mut rng)
            .unwrap();
        assert_eq!(result.synthetic.n(), data.n());
        // Conditionals remain valid distributions after reconciliation.
        for cond in &result.model.conditionals {
            for slice in cond.probs.chunks_exact(cond.child_dim) {
                assert!((slice.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = binary_data(300, 16);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            PrivBayes::new(PrivBayesOptions::new(0.5))
                .synthesize(&data, &mut rng)
                .unwrap()
                .synthetic
        };
        assert_eq!(run(42), run(42));
    }
}
