//! A conditional PrivBayes model over the fact view, under group privacy.
//!
//! The fact view has one row per fact, so one individual influences up to
//! `m` rows (the fan-out cap). This is exactly the regime the paper's
//! concluding remarks flag: *"the impact of an individual (and hence the
//! scale of noise needed for privacy) may grow very large, and a more
//! careful analysis is needed."* The careful analysis here is group privacy
//! by budget scaling: a mechanism that is `ε/m`-DP with respect to one fact
//! row is `ε`-DP with respect to an individual's whole group of ≤ m rows
//! (compose a chain of single-row changes). The fit runs the core's
//! [`greedy_bayes`] search and [`noisy_joints`] release over the `d_f` fact
//! attributes, composing each over `d_f · m` in place of `d_f`:
//!
//! * each of the `d_f` exponential-mechanism selections runs with row-level
//!   budget `ε₁ / (d_f · m)`;
//! * each noisy joint receives `Lap(2 · d_f · m / (n_f · ε₂))` noise — the
//!   single-table scale of Algorithm 3 multiplied by `m`;
//! * θ-usefulness shrinks τ by the same factor `m`, so larger fan-out caps
//!   automatically select smaller parent sets.
//!
//! The learned network is *conditional*: entity attributes enter as evidence
//! roots whose distributions are never modelled (synthesis always supplies
//! their values), and only fact attributes get scored parent sets — drawn
//! from both entity attributes and earlier fact attributes.

use privbayes::conditionals::{conditional_from_joint, noisy_joints, Conditional};
use privbayes::greedy::{greedy_bayes, GreedySettings};
use privbayes::network::{ApPair, BayesianNetwork};
use privbayes::parent_sets::maximal_parent_sets;
use privbayes::score::ScoreKind;
use privbayes::theta::tau_for_child;
use privbayes_data::Dataset;
use privbayes_marginals::{Axis, CountEngine};
use rand::Rng;

use crate::error::RelationalError;

/// Configuration of the conditional fact model.
#[derive(Debug, Clone, PartialEq)]
pub struct FactModelOptions {
    /// Group-level privacy budget for the fact phase; `None` fits without
    /// noise (ablation / testing).
    pub epsilon: Option<f64>,
    /// Split between structure (ε₁ = βε) and marginals (ε₂ = (1−β)ε).
    pub beta: f64,
    /// θ-usefulness threshold.
    pub theta: f64,
    /// Cap on parent-set cardinality.
    pub max_parents: usize,
}

impl Default for FactModelOptions {
    fn default() -> Self {
        Self { epsilon: Some(1.0), beta: 0.3, theta: 4.0, max_parents: 3 }
    }
}

/// A fitted conditional model `Pr*[fact attrs | entity attrs]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalFactModel {
    /// Number of leading evidence (entity) attributes in the view schema.
    entity_arity: usize,
    /// The network over the fact view (evidence roots first).
    network: BayesianNetwork,
    /// Conditionals for the fact attributes only, aligned with the network
    /// pairs `entity_arity..`.
    conditionals: Vec<Conditional>,
}

impl ConditionalFactModel {
    /// Reassembles a fact model from parts (deserialization path).
    ///
    /// The network's first `entity_arity` pairs must be the parentless
    /// evidence roots in attribute order; `conditionals` covers the
    /// remaining (fact) pairs, aligned one-to-one.
    ///
    /// # Errors
    /// Returns [`RelationalError::InvalidConfig`] if the evidence prefix,
    /// pair alignment, or conditional shapes are inconsistent.
    pub fn from_parts(
        entity_arity: usize,
        network: BayesianNetwork,
        conditionals: Vec<Conditional>,
    ) -> Result<Self, RelationalError> {
        let d = network.len();
        if entity_arity == 0 || entity_arity >= d {
            return Err(RelationalError::InvalidConfig(format!(
                "entity arity {entity_arity} must lie in 1..{d}"
            )));
        }
        if conditionals.len() != d - entity_arity {
            return Err(RelationalError::InvalidConfig(format!(
                "{} conditionals for {} fact pairs",
                conditionals.len(),
                d - entity_arity
            )));
        }
        for (i, pair) in network.pairs()[..entity_arity].iter().enumerate() {
            if pair.child != i || !pair.parents.is_empty() {
                return Err(RelationalError::InvalidConfig(format!(
                    "network pair {i} must be the parentless evidence root for attribute {i}"
                )));
            }
        }
        for (pair, cond) in network.pairs()[entity_arity..].iter().zip(&conditionals) {
            if pair.child != cond.child || pair.parents != cond.parents {
                return Err(RelationalError::InvalidConfig(format!(
                    "conditional for attribute {} does not match its network pair",
                    cond.child
                )));
            }
            let parent_cells: usize = cond.parent_dims.iter().product();
            if cond.probs.len() != parent_cells * cond.child_dim
                || cond.parent_dims.len() != cond.parents.len()
            {
                return Err(RelationalError::InvalidConfig(format!(
                    "conditional for attribute {} has inconsistent dimensions",
                    cond.child
                )));
            }
        }
        Ok(Self { entity_arity, network, conditionals })
    }

    /// The network over the fact-view schema (for inspection).
    #[must_use]
    pub fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    /// The fact-attribute conditionals, in network order.
    #[must_use]
    pub fn conditionals(&self) -> &[Conditional] {
        &self.conditionals
    }

    /// Number of evidence attributes.
    #[must_use]
    pub fn entity_arity(&self) -> usize {
        self.entity_arity
    }

    /// Samples one fact row (fact attributes only, in fact-view order) for an
    /// individual with the given entity attribute values.
    ///
    /// # Panics
    /// Panics if `entity_values.len() != entity_arity` (programming error).
    pub fn sample_fact<R: Rng + ?Sized>(&self, entity_values: &[u32], rng: &mut R) -> Vec<u32> {
        assert_eq!(entity_values.len(), self.entity_arity, "evidence arity mismatch");
        let d = self.entity_arity + self.conditionals.len();
        let mut values: Vec<u32> = vec![0; d];
        values[..self.entity_arity].copy_from_slice(entity_values);
        let mut codes = Vec::new();
        for cond in &self.conditionals {
            codes.clear();
            codes.extend(cond.parents.iter().map(|axis| {
                debug_assert_eq!(axis.level, 0, "fact model uses raw parents");
                values[axis.attr] as usize
            }));
            let slice = cond.child_distribution(cond.parent_index(&codes));
            values[cond.child] = sample_discrete(slice, rng) as u32;
        }
        values[self.entity_arity..].to_vec()
    }
}

/// Draws an index from a normalised probability slice.
fn sample_discrete<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    use rand::RngExt;
    let mut u: f64 = rng.random::<f64>();
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probs.len() - 1 // float round-off fallback
}

/// Fits the conditional fact model on a fact view (entity attributes first).
///
/// `fanout_cap` is the group size `m` used for the privacy scaling described
/// at the module level. An empty view yields the uniform conditional model
/// (no data is accessed, so no budget is spent).
///
/// # Errors
/// Returns [`RelationalError::InvalidConfig`] for invalid arities or budget
/// parameters, and propagates core failures.
pub fn fit_fact_model<R: Rng + ?Sized>(
    view: &Dataset,
    entity_arity: usize,
    fanout_cap: usize,
    options: &FactModelOptions,
    rng: &mut R,
) -> Result<ConditionalFactModel, RelationalError> {
    let d = view.d();
    if entity_arity == 0 || entity_arity >= d {
        return Err(RelationalError::InvalidConfig(format!(
            "entity arity {entity_arity} must lie in 1..{d}"
        )));
    }
    if fanout_cap == 0 {
        return Err(RelationalError::InvalidConfig("fanout_cap must be at least 1".into()));
    }
    if !(options.beta > 0.0 && options.beta < 1.0) {
        return Err(RelationalError::InvalidConfig(format!(
            "beta must lie in (0,1), got {}",
            options.beta
        )));
    }
    if !(options.theta > 0.0 && options.theta.is_finite()) {
        return Err(RelationalError::InvalidConfig(format!(
            "theta must be positive, got {}",
            options.theta
        )));
    }
    if let Some(e) = options.epsilon {
        if !(e > 0.0 && e.is_finite()) {
            return Err(RelationalError::InvalidConfig(format!(
                "epsilon must be positive, got {e}"
            )));
        }
    }

    let d_f = d - entity_arity;
    let n_f = view.n();
    let domain_sizes = view.schema().domain_sizes();

    if n_f == 0 {
        return Ok(uniform_model(view, entity_arity));
    }
    // Each mechanism composes over the d_f fact pairs, each scaled to a
    // group of up to m rows (module docs).
    let joints = d_f.checked_mul(fanout_cap).ok_or_else(|| {
        RelationalError::InvalidConfig(format!("fanout_cap {fanout_cap} is too large"))
    })?;
    let (eps1, eps2) = match options.epsilon {
        Some(e) => (Some(options.beta * e), Some((1.0 - options.beta) * e)),
        None => (None, None),
    };

    // One engine serves both phases, so no phase ever re-scans the fact
    // view's rows directly.
    let engine = CountEngine::new(view);
    let roots: Vec<ApPair> = (0..entity_arity).map(|a| ApPair::new(a, vec![])).collect();
    let settings = GreedySettings {
        score: ScoreKind::R,
        epsilon1: eps1,
        max_degree: options.max_parents,
        threads: Some(1),
    };
    let sets = |placed: &[usize], child_domain| {
        let tau = eps2.map_or(f64::INFINITY, |e2| {
            tau_for_child(n_f, joints, e2, options.theta, child_domain)
        });
        maximal_parent_sets(placed, &domain_sizes, tau, options.max_parents)
            .into_iter()
            .map(|set| set.into_iter().map(Axis::raw).collect())
            .collect()
    };
    let network = greedy_bayes(&engine, roots, joints, &settings, sets, rng)?;

    let facts = &network.pairs()[entity_arity..];
    let conditionals = noisy_joints(&engine, facts, joints, eps2, 0, rng)?
        .iter()
        .zip(facts)
        .map(|(joint, pair)| conditional_from_joint(joint, pair.child))
        .collect();
    Ok(ConditionalFactModel { entity_arity, network, conditionals })
}

/// The no-data fallback: every fact attribute independent and uniform.
fn uniform_model(view: &Dataset, entity_arity: usize) -> ConditionalFactModel {
    let d = view.d();
    let mut pairs: Vec<ApPair> = (0..entity_arity).map(|a| ApPair::new(a, vec![])).collect();
    let mut conditionals = Vec::with_capacity(d - entity_arity);
    for x in entity_arity..d {
        pairs.push(ApPair::new(x, vec![]));
        let dim = view.schema().attribute(x).domain_size();
        conditionals.push(Conditional {
            child: x,
            parents: vec![],
            parent_dims: vec![],
            child_dim: dim,
            probs: vec![1.0 / dim as f64; dim],
        });
    }
    let network = BayesianNetwork::new(pairs, view.schema()).expect("uniform network is valid");
    ConditionalFactModel { entity_arity, network, conditionals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Schema};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Fact view where dx strongly follows the (entity) smoker flag.
    fn correlated_view(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("smoker"),
            Attribute::categorical("dx", 3).unwrap(),
            Attribute::binary("inpatient"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let smoker = u32::from(rng.random::<f64>() < 0.4);
                let dx = if rng.random::<f64>() < 0.9 { smoker * 2 } else { 1 };
                let inpatient = u32::from(dx == 2) ^ u32::from(rng.random::<f64>() < 0.05);
                vec![smoker, dx, inpatient]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn noise_free_model_recovers_conditional() {
        let view = correlated_view(4000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let options = FactModelOptions { epsilon: None, ..FactModelOptions::default() };
        let model = fit_fact_model(&view, 1, 3, &options, &mut rng).unwrap();
        assert_eq!(model.entity_arity(), 1);
        assert_eq!(model.conditionals().len(), 2);
        // Sampling facts for a smoker should produce dx=2 ~90% of the time.
        let mut dx2 = 0usize;
        let trials = 4000;
        for _ in 0..trials {
            let fact = model.sample_fact(&[1], &mut rng);
            if fact[0] == 2 {
                dx2 += 1;
            }
        }
        let frac = dx2 as f64 / trials as f64;
        assert!((frac - 0.9).abs() < 0.05, "Pr[dx=2 | smoker] ≈ 0.9, got {frac}");
    }

    #[test]
    fn private_model_is_valid_and_samples_in_domain() {
        let view = correlated_view(2000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let options = FactModelOptions { epsilon: Some(2.0), ..FactModelOptions::default() };
        let model = fit_fact_model(&view, 1, 4, &options, &mut rng).unwrap();
        for cond in model.conditionals() {
            for slice in cond.probs.chunks_exact(cond.child_dim) {
                assert!((slice.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(slice.iter().all(|&p| p >= 0.0));
            }
        }
        for _ in 0..100 {
            let fact = model.sample_fact(&[0], &mut rng);
            assert!(fact[0] < 3 && fact[1] < 2);
        }
    }

    #[test]
    fn larger_fanout_cap_shrinks_parent_sets() {
        // With the same budget, a fan-out cap of 64 must forbid the parent
        // sets a cap of 1 would allow (θ-usefulness divides τ by m).
        let view = correlated_view(600, 5);
        let options_small =
            FactModelOptions { epsilon: Some(0.5), max_parents: 3, ..FactModelOptions::default() };
        let fit_degree = |cap: usize, rng: &mut StdRng| {
            fit_fact_model(&view, 1, cap, &options_small, rng).unwrap().network().degree()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let tight = fit_degree(1, &mut rng);
        let loose = fit_degree(64, &mut rng);
        assert!(
            loose <= tight,
            "cap 64 (degree {loose}) must not out-spend cap 1 (degree {tight})"
        );
    }

    #[test]
    fn empty_view_yields_uniform_model() {
        let schema = Schema::new(vec![
            Attribute::binary("smoker"),
            Attribute::categorical("dx", 4).unwrap(),
        ])
        .unwrap();
        let view = Dataset::empty(schema);
        let mut rng = StdRng::seed_from_u64(7);
        let model = fit_fact_model(&view, 1, 2, &FactModelOptions::default(), &mut rng).unwrap();
        let cond = &model.conditionals()[0];
        assert!(cond.probs.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn rejects_bad_configuration() {
        let view = correlated_view(100, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let base = FactModelOptions::default();
        assert!(fit_fact_model(&view, 0, 2, &base, &mut rng).is_err(), "no evidence attrs");
        assert!(fit_fact_model(&view, 3, 2, &base, &mut rng).is_err(), "no fact attrs");
        assert!(fit_fact_model(&view, 1, 0, &base, &mut rng).is_err(), "zero fanout");
        let bad = FactModelOptions { beta: 1.5, ..base.clone() };
        assert!(fit_fact_model(&view, 1, 2, &bad, &mut rng).is_err());
        let bad = FactModelOptions { epsilon: Some(-1.0), ..base };
        assert!(fit_fact_model(&view, 1, 2, &bad, &mut rng).is_err());
    }

    #[test]
    fn from_parts_round_trips_a_fitted_model() {
        let view = correlated_view(500, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let model = fit_fact_model(&view, 1, 2, &FactModelOptions::default(), &mut rng).unwrap();
        let rebuilt = ConditionalFactModel::from_parts(
            model.entity_arity(),
            model.network().clone(),
            model.conditionals().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, model);
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let view = correlated_view(300, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let model = fit_fact_model(&view, 1, 2, &FactModelOptions::default(), &mut rng).unwrap();
        // Wrong arity.
        assert!(ConditionalFactModel::from_parts(
            2,
            model.network().clone(),
            model.conditionals().to_vec()
        )
        .is_err());
        // Dropped conditional.
        assert!(ConditionalFactModel::from_parts(
            1,
            model.network().clone(),
            model.conditionals()[1..].to_vec()
        )
        .is_err());
        // Mangled probability table.
        let mut conds = model.conditionals().to_vec();
        conds[0].probs.pop();
        assert!(ConditionalFactModel::from_parts(1, model.network().clone(), conds).is_err());
    }

    #[test]
    fn evidence_roots_are_never_modelled() {
        let view = correlated_view(500, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let model = fit_fact_model(&view, 1, 2, &FactModelOptions::default(), &mut rng).unwrap();
        // Network pair 0 is the evidence root with no parents; conditionals
        // cover only the two fact attributes.
        assert_eq!(model.network().pairs()[0].parents.len(), 0);
        assert_eq!(model.conditionals().len(), 2);
        assert!(model.conditionals().iter().all(|c| c.child >= 1));
    }
}
