//! The unified synthesis layer: one fit entry point, one count engine,
//! every method fittable and servable.
//!
//! The paper's evaluation (§6) is a head-to-head of PrivBayes against the
//! marginal-based baselines, and the statistical theory of this algorithm
//! family treats them as one class: *measure noisy marginals, post-process,
//! sample*. This crate gives that class one programmatic shape:
//! [`fit_method`] fits any [`Method`]'s private generative model on a
//! dataset, and the result is always a [`FittedArtifact`] wrapping a
//! [`privbayes_model::ReleasedModel`] — a Bayesian network with noisy
//! conditionals — so **every** method's output samples through the same
//! compiled alias-table pipeline, serialises through the same
//! `privbayes-model/1` envelope, and serves through the same registry and
//! streaming endpoints as a PrivBayes fit.
//!
//! # Methods
//!
//! | [`Method`] | fit | artifact |
//! |---|---|---|
//! | `privbayes` | Algorithm 4 (θ-usefulness GreedyBayes) + Algorithm 3 | the learned network itself |
//! | `privbayes-k` | Algorithm 2 (fixed degree `k`) + Algorithm 3 | the learned network itself |
//! | `mwem` | MWEM over the full domain | order-`k` Markov factorisation of the final weights |
//! | `laplace` | noisy pairwise marginals (Laplace) | chain model over consecutive pairs |
//! | `geometric` | noisy pairwise marginals (geometric, count scale) | chain model over consecutive pairs |
//! | `uniform` | nothing (spends no budget) | independent uniform attributes |
//!
//! The two PrivBayes rows are one fit: the core's
//! [`privbayes::PrivBayes::fit`], which `PrivBayes::synthesize` also runs
//! for the paper figures. This layer maps [`FitSettings`] onto its options
//! and releases the model instead of sampling it.
//!
//! For the marginal-based methods the artifact is **pure post-processing**
//! of the differentially private release (the noisy marginals / the MWEM
//! weights), so publishing it costs no additional privacy budget — exactly
//! the argument Theorem 3.2 makes for PrivBayes itself.
//!
//! [`fit_method`] documents the determinism and budget contract every
//! method honours. Every method draws its exact marginals from a shared
//! [`privbayes_marginals::CountEngine`]; no method re-scans the dataset's
//! rows itself. [`FittedArtifact::stats`] exposes the engine's scan
//! counters for observability.

use privbayes_data::encoding::EncodingKind;
use privbayes_data::Dataset;
use privbayes_marginals::CountEngine;
use privbayes_model::ReleasedModel;

mod error;
mod methods;
pub mod spec;

pub use error::SynthError;
pub use methods::MwemOptions;
// Re-exported so serving layers can read fit-phase instrumentation off
// [`FittedArtifact::stats`] without a direct `privbayes-marginals` edge.
pub use privbayes_marginals::EngineStats;
pub use spec::{
    AttrRef, Cursor, MarginalQuery, ResolvedSynth, RowFormat, RowRenderer, SpecError, SynthSpec,
    ValueRef,
};

/// The synthesis methods the suite can fit and serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// PrivBayes with θ-usefulness-driven adaptive degree (Algorithm 4).
    PrivBayes,
    /// PrivBayes with a fixed parent-set size `k` (Algorithm 2 over the
    /// vanilla domain).
    PrivBayesK,
    /// MWEM (Hardt, Ligett & McSherry): multiplicative weights over the full
    /// domain, released as an order-`k` Markov factorisation.
    Mwem,
    /// Per-cell Laplace noise on every pairwise marginal, released as a
    /// chain model.
    Laplace,
    /// Count-scale two-sided geometric noise on every pairwise marginal,
    /// released as a chain model.
    Geometric,
    /// The trivial uniform baseline; consumes no privacy budget.
    Uniform,
}

impl Method {
    /// Every method, in the order used by help output and benches.
    pub const ALL: [Method; 6] = [
        Method::PrivBayes,
        Method::PrivBayesK,
        Method::Mwem,
        Method::Laplace,
        Method::Geometric,
        Method::Uniform,
    ];

    /// The canonical CLI / metadata name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::PrivBayes => "privbayes",
            Method::PrivBayesK => "privbayes-k",
            Method::Mwem => "mwem",
            Method::Laplace => "laplace",
            Method::Geometric => "geometric",
            Method::Uniform => "uniform",
        }
    }

    /// One-line description for help output.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Method::PrivBayes => "PrivBayes, adaptive degree (Algorithm 4 + Algorithm 3)",
            Method::PrivBayesK => "PrivBayes, fixed degree k (Algorithm 2 + Algorithm 3)",
            Method::Mwem => "MWEM full-domain weights, released as an order-k Markov model",
            Method::Laplace => "Laplace noise on all pairwise marginals, chain model",
            Method::Geometric => "geometric (count-scale) noise on all pairwise marginals",
            Method::Uniform => "uniform baseline; spends no privacy budget",
        }
    }

    /// Parses a method name (the exact strings [`Method::name`] returns).
    #[must_use]
    pub fn parse(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The comma-separated list of valid method names (for error messages).
    #[must_use]
    pub fn names() -> String {
        Method::ALL.map(Method::name).join(", ")
    }

    /// Whether fitting this method consumes privacy budget (`uniform` does
    /// not — it never touches the data).
    #[must_use]
    pub fn spends_budget(self) -> bool {
        self != Method::Uniform
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared fit configuration. Every field has a paper-default; methods read
/// only the fields that concern them (documented per field).
#[derive(Debug, Clone, PartialEq)]
pub struct FitSettings {
    /// Budget split β between structure and distribution learning
    /// (PrivBayes methods). Default 0.3.
    pub beta: f64,
    /// θ-usefulness threshold (PrivBayes adaptive; both PrivBayes methods
    /// refuse θ ≤ 0). Default 4.0.
    pub theta: f64,
    /// Cap on parent-set cardinality: the GreedyBayes degree cap for the
    /// PrivBayes methods **and** the Markov order of the MWEM artifact.
    /// Default 4.
    pub max_degree: usize,
    /// Fixed degree `k` for `privbayes-k`. Default 2.
    pub fixed_k: usize,
    /// Workload arity α for MWEM's query class. Default 2 (all pairwise
    /// marginals). The Laplace/geometric releases always use α = 2 — their
    /// chain artifact is built from consecutive pairs.
    pub alpha: usize,
    /// MWEM loop hyper-parameters.
    pub mwem: MwemOptions,
    /// Cross-marginal consistency rounds for the PrivBayes methods.
    /// Default 0.
    pub consistency_rounds: usize,
    /// Attribute encoding: `privbayes` accepts `Vanilla` or `Hierarchical`;
    /// `privbayes-k` requires `Vanilla` (Algorithm 2 enumerates raw
    /// attributes). The bitwise encodings are rejected — the artifact stores
    /// the model over the original schema. Ignored by the marginal methods.
    /// Default vanilla.
    pub encoding: EncodingKind,
    /// Scoring worker threads (PrivBayes methods); `None` uses all cores.
    /// Never affects the output bits.
    pub threads: Option<usize>,
    /// Free-form provenance comment stored in the artifact metadata.
    pub comment: String,
}

impl Default for FitSettings {
    fn default() -> Self {
        Self {
            beta: 0.3,
            theta: 4.0,
            max_degree: 4,
            fixed_k: 2,
            alpha: 2,
            mwem: MwemOptions::default(),
            consistency_rounds: 0,
            encoding: EncodingKind::Vanilla,
            threads: None,
            comment: String::new(),
        }
    }
}

/// The output of [`fit_method`]: a servable release artifact plus
/// fit observability.
#[derive(Debug)]
pub struct FittedArtifact {
    /// Which method produced the artifact (also recorded in
    /// `artifact.metadata.method`).
    pub method: Method,
    /// The release artifact: samples rows, serialises to
    /// `privbayes-model/1`, loads into the server registry.
    pub artifact: ReleasedModel,
    /// Count-engine scan counters observed during the fit (all zero for
    /// `uniform`, which never builds an engine).
    pub stats: EngineStats,
    /// Privacy budget actually consumed (0 for `uniform`).
    pub epsilon_spent: f64,
}

/// Fits `method`'s private model on `data`: a fresh [`CountEngine`] over
/// `data`, then [`fit_method_with_engine`]. `uniform` reads no data and
/// builds no engine.
///
/// * **Determinism.** The result is a pure function of the five
///   arguments: the same inputs produce a bit-identical artifact,
///   regardless of worker-thread count or the engine's request history. All
///   randomness flows from one `StdRng::seed_from_u64(seed)`.
/// * **One PrivBayes fit.** `privbayes` and `privbayes-k` are the core's
///   [`privbayes::PrivBayes::fit`] with score `R` (and `fixed_k` for
///   `privbayes-k`) — the fit `PrivBayes::synthesize` runs — so for the
///   same options and seed both learn the same model bit for bit.
/// * **Budget semantics.** `epsilon` is the *total* budget of the fit.
///   PrivBayes methods split it β/(1−β) between structure and distribution
///   learning; MWEM splits ε/T per round, half selection half measurement;
///   the Laplace/geometric releases perturb every pairwise marginal under
///   the composed sensitivity. `uniform` spends nothing —
///   [`FittedArtifact::epsilon_spent`] records the actual spend, which
///   serving layers use for ledger debits.
///
/// # Errors
/// Returns [`SynthError::InvalidConfig`] for bad parameters (non-positive
/// ε on a budget-spending method, empty data, fewer than two attributes,
/// an MWEM domain beyond the materialisation cap) and propagates core /
/// artifact-validation failures.
pub fn fit_method(
    method: Method,
    data: &Dataset,
    epsilon: f64,
    seed: u64,
    settings: &FitSettings,
) -> Result<FittedArtifact, SynthError> {
    if method == Method::Uniform {
        return methods::uniform(data.schema(), data.n(), settings);
    }
    fit_method_with_engine(method, &CountEngine::new(data), epsilon, seed, settings)
}

/// As [`fit_method`], through an existing engine — the path the ingestion
/// subsystem takes with its per-tenant engine. The engine's determinism
/// contract (every answer bit-identical to a cold scan, whatever its
/// request or append history) makes a fit through it produce the **same
/// artifact bits** as [`fit_method`] over the engine's rows.
///
/// # Errors
/// As [`fit_method`].
pub fn fit_method_with_engine(
    method: Method,
    engine: &CountEngine,
    epsilon: f64,
    seed: u64,
    settings: &FitSettings,
) -> Result<FittedArtifact, SynthError> {
    match method {
        Method::PrivBayes | Method::PrivBayesK => {
            methods::privbayes(method, engine, epsilon, seed, settings)
        }
        Method::Mwem => methods::mwem(engine, epsilon, seed, settings),
        Method::Laplace | Method::Geometric => {
            methods::pairwise(method, engine, epsilon, seed, settings)
        }
        Method::Uniform => methods::uniform(engine.schema(), engine.n(), settings),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::parse("frequentist"), None);
        assert!(Method::names().contains("mwem"));
        assert!(Method::names().contains("privbayes-k"));
    }

    #[test]
    fn only_uniform_is_free() {
        for m in Method::ALL {
            assert_eq!(m.spends_budget(), m != Method::Uniform, "{m}");
        }
    }
}
