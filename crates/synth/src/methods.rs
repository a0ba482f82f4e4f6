//! The fits behind [`crate::fit_method_with_engine`], one per [`Method`]
//! (the two PrivBayes methods share one: the core's [`PrivBayes::fit`]).
//!
//! Every fit follows the same shape: run the method's private mechanism
//! with all exact marginals drawn through one
//! [`CountEngine`](privbayes_marginals::CountEngine), post-process the
//! release into a Bayesian-network model, and wrap it in a validated
//! [`ReleasedModel`]. The post-processing constructions
//! (the MWEM Markov factorisation, the pairwise chain models) touch only the
//! already-released noisy quantities, so they cost no extra privacy budget.

use privbayes::conditionals::{conditional_from_joint, Conditional, NoisyModel};
use privbayes::network::{ApPair, BayesianNetwork};
use privbayes::{PrivBayes, PrivBayesOptions, ScoreKind};
use privbayes_baselines::{geometric_marginals, laplace_marginals, mwem_fit};
use privbayes_data::encoding::EncodingKind;
use privbayes_data::Schema;
use privbayes_marginals::{AlphaWayWorkload, ContingencyTable, CountEngine, EngineStats};
use privbayes_model::{ModelMetadata, ReleasedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use privbayes_baselines::MwemOptions;

use crate::{FitSettings, FittedArtifact, Method, SynthError};

/// Shared validation: data shape and (for budget-spending methods) ε.
fn validate(n: usize, d: usize, epsilon: f64, spends: bool) -> Result<(), SynthError> {
    if n == 0 {
        return Err(SynthError::InvalidConfig("empty dataset".into()));
    }
    if d < 2 {
        return Err(SynthError::InvalidConfig("need at least two attributes".into()));
    }
    if spends && !(epsilon > 0.0 && epsilon.is_finite()) {
        return Err(SynthError::InvalidConfig(format!("epsilon must be positive, got {epsilon}")));
    }
    Ok(())
}

/// Provenance of one fit, consumed by [`release`].
struct Provenance<'a> {
    method: Method,
    epsilon_spent: f64,
    score: &'a str,
    encoding: &'a str,
}

/// Wraps a fitted [`NoisyModel`] in a validated release artifact.
fn release(
    schema: &Schema,
    n: usize,
    model: NoisyModel,
    settings: &FitSettings,
    provenance: Provenance,
) -> Result<FittedArtifact, SynthError> {
    let artifact = ReleasedModel::new(
        ModelMetadata {
            method: provenance.method.name().to_string(),
            epsilon: provenance.epsilon_spent,
            beta: settings.beta,
            theta: settings.theta,
            score: provenance.score.to_string(),
            encoding: provenance.encoding.to_string(),
            source_rows: n,
            comment: settings.comment.clone(),
        },
        schema.clone(),
        model,
    )?;
    Ok(FittedArtifact {
        method: provenance.method,
        artifact,
        stats: EngineStats::default(),
        epsilon_spent: provenance.epsilon_spent,
    })
}

/// `privbayes` and `privbayes-k`: [`PrivBayes::fit`] over the engine with
/// score `R`, which supports general domains — Algorithm 4 for `privbayes`,
/// Algorithm 2 at degree `settings.fixed_k` for `privbayes-k` — then
/// released instead of sampled (the artifact samples on demand). The core
/// refuses a fixed degree on the hierarchical encoding.
pub(crate) fn privbayes(
    method: Method,
    engine: &CountEngine,
    epsilon: f64,
    seed: u64,
    settings: &FitSettings,
) -> Result<FittedArtifact, SynthError> {
    validate(engine.n(), engine.schema().len(), epsilon, true)?;
    if settings.encoding.is_bitwise() {
        return Err(SynthError::InvalidConfig(format!(
            "the release artifact needs the model over the original schema; encoding `{}` \
             is not supported (use vanilla, or hierarchical with privbayes)",
            settings.encoding.name()
        )));
    }
    let options = PrivBayesOptions {
        beta: settings.beta,
        theta: settings.theta,
        encoding: settings.encoding,
        score: Some(ScoreKind::R),
        max_degree: settings.max_degree,
        fixed_k: (method == Method::PrivBayesK).then_some(settings.fixed_k),
        consistency_rounds: settings.consistency_rounds,
        threads: settings.threads,
        ..PrivBayesOptions::new(epsilon)
    };
    let (model, _) = PrivBayes::new(options).fit(engine, &mut StdRng::seed_from_u64(seed))?;
    release(
        engine.schema(),
        engine.n(),
        model,
        settings,
        Provenance {
            method,
            epsilon_spent: epsilon,
            score: ScoreKind::R.name(),
            encoding: settings.encoding.name(),
        },
    )
}

/// `mwem`: the MWEM loop over the full domain, released as the order-`k`
/// Markov factorisation of the final weights (`k = settings.max_degree`).
///
/// The factorisation is pure post-processing: node `i`'s conditional
/// `Pr[Xᵢ | Xᵢ₋ₖ..Xᵢ₋₁]` is a projection of the released weight vector, so
/// the artifact's privacy guarantee is exactly MWEM's. With
/// `k ≥ d − 1` the factorisation is exact and the artifact samples the MWEM
/// distribution itself.
pub(crate) fn mwem(
    engine: &CountEngine,
    epsilon: f64,
    seed: u64,
    settings: &FitSettings,
) -> Result<FittedArtifact, SynthError> {
    let schema = engine.schema();
    validate(engine.n(), schema.len(), epsilon, true)?;
    let dims = schema.domain_sizes();
    let cells: usize = dims.iter().product();
    if cells > privbayes_baselines::mwem::MAX_CELLS {
        return Err(SynthError::InvalidConfig(format!(
            "domain has {cells} cells; MWEM materialises the full domain and is capped at {}",
            privbayes_baselines::mwem::MAX_CELLS
        )));
    }
    if settings.mwem.iterations == 0 {
        return Err(SynthError::InvalidConfig("mwem needs at least one round".into()));
    }
    let d = schema.len();
    let alpha = settings.alpha.clamp(1, d);
    let workload = AlphaWayWorkload::new(d, alpha);
    let mut rng = StdRng::seed_from_u64(seed);
    let fit = mwem_fit(engine, &workload, epsilon, settings.mwem, &mut rng);

    // Order-k Markov factorisation of the final weights.
    let order = settings.max_degree.max(1);
    let mut pairs = Vec::with_capacity(d);
    let mut conditionals = Vec::with_capacity(d);
    for child in 0..d {
        let lo = child.saturating_sub(order);
        let subset: Vec<usize> = (lo..=child).collect();
        let joint = fit.marginal(&subset);
        pairs.push(ApPair::new(child, subset[..subset.len() - 1].to_vec()));
        conditionals.push(conditional_from_joint(&joint, child));
    }
    let network = BayesianNetwork::new(pairs, schema)?;
    release(
        schema,
        engine.n(),
        NoisyModel { network, conditionals },
        settings,
        Provenance {
            method: Method::Mwem,
            epsilon_spent: epsilon,
            score: "-",
            encoding: EncodingKind::Vanilla.name(),
        },
    )
}

/// `laplace` / `geometric`: release every pairwise marginal with the
/// respective mechanism, then assemble a chain model `Pr[X₀] ·
/// Πᵢ Pr[Xᵢ | Xᵢ₋₁]` from the consecutive released pairs — pure
/// post-processing of the noisy release.
pub(crate) fn pairwise(
    method: Method,
    engine: &CountEngine,
    epsilon: f64,
    seed: u64,
    settings: &FitSettings,
) -> Result<FittedArtifact, SynthError> {
    let schema = engine.schema();
    validate(engine.n(), schema.len(), epsilon, true)?;
    let d = schema.len();
    let workload = AlphaWayWorkload::new(d, 2.min(d));
    let mut rng = StdRng::seed_from_u64(seed);
    let tables = if method == Method::Geometric {
        geometric_marginals(engine, &workload, epsilon, &mut rng)
    } else {
        laplace_marginals(engine, &workload, epsilon, &mut rng)
    };
    let model = chain_from_pairs(schema, &workload, &tables)?;
    release(
        schema,
        engine.n(),
        model,
        settings,
        Provenance {
            method,
            epsilon_spent: epsilon,
            score: "-",
            encoding: EncodingKind::Vanilla.name(),
        },
    )
}

/// Builds the chain model from a released α = 2 workload: the root marginal
/// is the projection of the released (0,1) pair, and each later attribute is
/// conditioned on its predecessor through the released (i−1, i) pair.
fn chain_from_pairs(
    schema: &Schema,
    workload: &AlphaWayWorkload,
    tables: &[ContingencyTable],
) -> Result<NoisyModel, SynthError> {
    let d = schema.len();
    let pair_index =
        |a: usize, b: usize| {
            workload.subsets().iter().position(|s| s == &[a, b]).ok_or_else(|| {
                SynthError::InvalidConfig(format!("workload lacks the ({a},{b}) pair"))
            })
        };
    let mut pairs = Vec::with_capacity(d);
    let mut conditionals = Vec::with_capacity(d);
    // Root: Pr[X₀] from the released (0,1) marginal.
    let root = tables[pair_index(0, 1)?].project(&[0]);
    pairs.push(ApPair::new(0, vec![]));
    conditionals.push(conditional_from_joint(&root, 0));
    for child in 1..d {
        let table = &tables[pair_index(child - 1, child)?];
        pairs.push(ApPair::new(child, vec![child - 1]));
        conditionals.push(conditional_from_joint(table, child));
    }
    let network = BayesianNetwork::new(pairs, schema)?;
    Ok(NoisyModel { network, conditionals })
}

/// `uniform`: every attribute independent and uniform. Touches no data, so
/// it needs only the schema and row count, spends no budget and reports
/// zero engine stats.
pub(crate) fn uniform(
    schema: &Schema,
    n: usize,
    settings: &FitSettings,
) -> Result<FittedArtifact, SynthError> {
    validate(n, schema.len(), 0.0, false)?;
    let d = schema.len();
    let mut pairs = Vec::with_capacity(d);
    let mut conditionals = Vec::with_capacity(d);
    for child in 0..d {
        let dim = schema.attribute(child).domain_size();
        pairs.push(ApPair::new(child, vec![]));
        conditionals.push(Conditional {
            child,
            parents: vec![],
            parent_dims: vec![],
            child_dim: dim,
            probs: vec![1.0 / dim as f64; dim],
        });
    }
    let network = BayesianNetwork::new(pairs, schema)?;
    release(
        schema,
        n,
        NoisyModel { network, conditionals },
        settings,
        Provenance {
            method: Method::Uniform,
            epsilon_spent: 0.0,
            score: "-",
            encoding: EncodingKind::Vanilla.name(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset};
    use privbayes_marginals::Axis;
    use rand::RngExt;

    fn dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::categorical("b", 3).unwrap(),
            Attribute::binary("c"),
            Attribute::binary("d"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                vec![a, a + rng.random_range(0..2u32), a, rng.random_range(0..2u32)]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn every_method_fits_and_samples() {
        let data = dataset(600, 1);
        for method in Method::ALL {
            let fitted = fit(method, &data, 1.0, 7).unwrap_or_else(|e| panic!("{method}: {e}"));
            assert_eq!(fitted.artifact.metadata.method, method.name(), "{method}");
            let mut rng = StdRng::seed_from_u64(9);
            let sample = fitted.artifact.sample(128, &mut rng).unwrap();
            assert_eq!(sample.n(), 128, "{method}");
            assert_eq!(sample.d(), data.d(), "{method}");
        }
    }

    fn fit(
        method: Method,
        data: &Dataset,
        eps: f64,
        seed: u64,
    ) -> Result<FittedArtifact, SynthError> {
        crate::fit_method(method, data, eps, seed, &FitSettings::default())
    }

    #[test]
    fn fits_are_deterministic_in_the_seed() {
        let data = dataset(400, 2);
        for method in Method::ALL {
            let a = fit(method, &data, 0.8, 11).unwrap();
            let b = fit(method, &data, 0.8, 11).unwrap();
            assert_eq!(
                a.artifact.to_json_string().unwrap(),
                b.artifact.to_json_string().unwrap(),
                "{method} must be deterministic"
            );
        }
    }

    #[test]
    fn artifacts_round_trip_through_json() {
        let data = dataset(300, 3);
        for method in Method::ALL {
            let fitted = fit(method, &data, 1.0, 5).unwrap();
            let text = fitted.artifact.to_json_string().unwrap();
            let back = ReleasedModel::from_json_string(&text).unwrap();
            assert_eq!(back, fitted.artifact, "{method}");
            assert_eq!(back.metadata.method, method.name());
        }
    }

    #[test]
    fn uniform_spends_nothing_and_is_uniform() {
        let data = dataset(100, 4);
        let fitted = fit(Method::Uniform, &data, 5.0, 1).unwrap();
        assert_eq!(fitted.epsilon_spent, 0.0);
        assert_eq!(fitted.artifact.metadata.epsilon, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = fitted.artifact.sample(4000, &mut rng).unwrap();
        // Attribute b has 3 levels; uniform sampling puts ~1/3 in each.
        let count1 = sample.column(1).iter().filter(|&&v| v == 1).count() as f64;
        assert!((count1 / 4000.0 - 1.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn mwem_exact_factorisation_preserves_weights() {
        // With order ≥ d − 1 the Markov factorisation is exact: the artifact
        // samples the MWEM distribution itself. Compare a projected marginal
        // of the weights against the sampled frequencies.
        let data = dataset(800, 5);
        let settings = FitSettings { max_degree: data.d() - 1, ..FitSettings::default() };
        let engine = CountEngine::new(&data);
        let workload = AlphaWayWorkload::new(data.d(), 2);
        let mut rng = StdRng::seed_from_u64(21);
        let weights = mwem_fit(&engine, &workload, 20.0, MwemOptions::default(), &mut rng);
        let fitted = crate::fit_method(Method::Mwem, &data, 20.0, 21, &settings).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let sample = fitted.artifact.sample(60_000, &mut rng).unwrap();
        let sampled = CountEngine::new(&sample).joint_table(&[Axis::raw(0), Axis::raw(1)]);
        let expected = weights.marginal(&[0, 1]);
        for (s, e) in sampled.values().iter().zip(expected.values()) {
            assert!((s - e).abs() < 0.02, "sampled {s} vs weights {e}");
        }
    }

    #[test]
    fn high_budget_chain_tracks_pairwise_structure() {
        // a and c are perfectly correlated in the data and adjacent in the
        // chain order (b sits between them, but b is a + noise, so the chain
        // still carries most of the signal at huge ε).
        let data = dataset(2000, 6);
        let fitted = fit(Method::Laplace, &data, 1e6, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let sample = fitted.artifact.sample(20_000, &mut rng).unwrap();
        let joint = CountEngine::new(&sample).joint_table(&[Axis::raw(0), Axis::raw(1)]);
        let truth = CountEngine::new(&data).joint_table(&[Axis::raw(0), Axis::raw(1)]);
        let tvd = privbayes_marginals::total_variation(joint.values(), truth.values());
        assert!(tvd < 0.05, "chain (0,1) marginal should be near-exact at huge ε, tvd {tvd}");
    }

    #[test]
    fn privbayes_methods_validate_the_encoding() {
        let data = dataset(200, 9);
        for (method, bad) in [
            (Method::PrivBayes, EncodingKind::Binary),
            (Method::PrivBayes, EncodingKind::Gray),
            (Method::PrivBayesK, EncodingKind::Hierarchical),
            (Method::PrivBayesK, EncodingKind::Binary),
        ] {
            let settings = FitSettings { encoding: bad, ..FitSettings::default() };
            let e = crate::fit_method(method, &data, 1.0, 1, &settings).unwrap_err();
            assert!(e.to_string().contains("encoding"), "{method} must reject {bad:?} loudly: {e}");
        }
    }

    #[test]
    fn privbayes_k_honours_consistency_rounds() {
        let data = dataset(400, 10);
        let with = FitSettings { consistency_rounds: 2, ..FitSettings::default() };
        let a = crate::fit_method(Method::PrivBayesK, &data, 1.0, 4, &with).unwrap();
        let b =
            crate::fit_method(Method::PrivBayesK, &data, 1.0, 4, &FitSettings::default()).unwrap();
        // Same network (structure learning precedes the conditionals and the
        // RNG stream is shared), different reconciled conditionals.
        assert_eq!(a.artifact.model.network, b.artifact.model.network);
        assert_ne!(a.artifact.model.conditionals, b.artifact.model.conditionals);
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = dataset(50, 7);
        for method in [Method::PrivBayes, Method::Mwem, Method::Laplace] {
            assert!(fit(method, &data, 0.0, 1).is_err(), "{method} must reject ε = 0");
            assert!(fit(method, &data, -1.0, 1).is_err(), "{method} must reject ε < 0");
        }
        let tiny = Dataset::from_rows(
            Schema::new(vec![Attribute::binary("only")]).unwrap(),
            &[vec![0], vec![1]],
        )
        .unwrap();
        for method in Method::ALL {
            assert!(fit(method, &tiny, 1.0, 1).is_err(), "{method} must reject d = 1");
        }
    }

    #[test]
    fn engine_stats_are_populated_for_engine_backed_methods() {
        let data = dataset(400, 8);
        let fitted = fit(Method::Mwem, &data, 1.0, 2).unwrap();
        let stats = fitted.stats;
        assert!(stats.scans > 0, "mwem counts at least the full joint");
        assert_eq!(stats.projections, 0, "the engine never projects: {stats:?}");
        let uniform = fit(Method::Uniform, &data, 1.0, 2).unwrap();
        assert_eq!(uniform.stats, EngineStats::default());
    }

    /// A second fit through one engine reports its own counters, not the
    /// engine's running total.
    #[test]
    fn each_fit_through_one_engine_reports_its_own_counters() {
        let engine = CountEngine::new(&dataset(400, 8));
        let counters = || {
            let fitted = crate::fit_method_with_engine(
                Method::PrivBayes,
                &engine,
                1.0,
                2,
                &FitSettings::default(),
            );
            let stats = fitted.unwrap().stats;
            (stats.scans, stats.subsets, stats.bytes_materialized)
        };
        let first = counters();
        assert!(first.0 > 0 && first.1 > 0, "the fit scans and walks subsets: {first:?}");
        assert_eq!(counters(), first);
    }
}
