//! End-to-end relational synthesis.
//!
//! Two models are fit under a split budget, then composed:
//!
//! 1. **Entity model** (`ε_e = entity_share · ε`): standard PrivBayes over
//!    the flattened per-individual view (entity attributes + owned-fact
//!    count). One individual = one row, so the paper's single-table analysis
//!    applies unchanged.
//! 2. **Fact model** (`ε_f = (1 − entity_share) · ε`): the conditional model
//!    of [`crate::model`] over the per-fact view, with all noise scaled by
//!    the fan-out cap `m` (group privacy).
//!
//! Synthesis samples individuals (attributes + a fact count `k ≤ m`) from
//! the entity model, then draws `k` facts per individual from the fact model
//! conditioned on the individual's attributes. Both phases access the
//! sensitive data through differentially private mechanisms only, so by
//! sequential composition the whole release is `(ε_e + ε_f)`-DP **at the
//! individual level** — the guarantee the paper's concluding remarks call
//! for in multi-table settings.

use privbayes::pipeline::{PrivBayes, PrivBayesOptions, SynthesisResult};
use privbayes_data::Dataset;
use rand::Rng;

use crate::dataset::RelationalDataset;
use crate::error::RelationalError;
use crate::model::{fit_fact_model, ConditionalFactModel, FactModelOptions};
use crate::schema::RelationalSchema;

/// Configuration of one relational synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalOptions {
    /// Total individual-level privacy budget ε.
    pub epsilon: f64,
    /// Fraction of ε spent on the entity model (the rest funds the fact
    /// model). Default 0.5.
    pub entity_share: f64,
    /// β split inside each phase.
    pub beta: f64,
    /// θ-usefulness threshold inside each phase.
    pub theta: f64,
    /// Parent-set cardinality cap for both models.
    pub max_parents: usize,
}

impl RelationalOptions {
    /// Paper-style defaults at total budget `epsilon`.
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        Self { epsilon, entity_share: 0.5, beta: 0.3, theta: 4.0, max_parents: 3 }
    }

    /// Sets the entity/fact budget split.
    #[must_use]
    pub fn with_entity_share(mut self, share: f64) -> Self {
        self.entity_share = share;
        self
    }

    fn validate(&self) -> Result<(), RelationalError> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(RelationalError::InvalidConfig(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        if !(self.entity_share > 0.0 && self.entity_share < 1.0) {
            return Err(RelationalError::InvalidConfig(format!(
                "entity_share must lie in (0,1), got {}",
                self.entity_share
            )));
        }
        Ok(())
    }
}

/// The output of a relational synthesis run.
#[derive(Debug, Clone)]
pub struct RelationalSynthesis {
    /// The synthetic two-table database.
    pub synthetic: RelationalDataset,
    /// The entity-phase PrivBayes result (over the flattened view).
    pub entity_result: SynthesisResult,
    /// The fitted conditional fact model.
    pub fact_model: ConditionalFactModel,
    /// Budget spent on the entity phase.
    pub epsilon_entity: f64,
    /// Budget spent on the fact phase (group level).
    pub epsilon_fact: f64,
}

/// The relational synthesiser.
#[derive(Debug, Clone)]
pub struct RelationalPrivBayes {
    options: RelationalOptions,
}

impl RelationalPrivBayes {
    /// Creates a synthesiser with the given options.
    #[must_use]
    pub fn new(options: RelationalOptions) -> Self {
        Self { options }
    }

    /// Runs the two-phase pipeline on a relational dataset.
    ///
    /// # Errors
    /// Returns [`RelationalError::InvalidConfig`] on bad options and
    /// propagates phase failures.
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        data: &RelationalDataset,
        rng: &mut R,
    ) -> Result<RelationalSynthesis, RelationalError> {
        self.options.validate()?;
        let schema = data.schema();
        let m = schema.max_fanout();
        let eps_entity = self.options.epsilon * self.options.entity_share;
        let eps_fact = self.options.epsilon - eps_entity;

        // Phase 1: individuals (entity attributes + fact count).
        let flat = data.flatten_counts();
        let entity_options = PrivBayesOptions {
            beta: self.options.beta,
            theta: self.options.theta,
            max_degree: self.options.max_parents,
            ..PrivBayesOptions::new(eps_entity)
        };
        let entity_result = PrivBayes::new(entity_options).synthesize(&flat, rng)?;

        // Phase 2: facts conditioned on their owner.
        let view = data.fact_view();
        let fact_options = FactModelOptions {
            epsilon: Some(eps_fact),
            beta: self.options.beta,
            theta: self.options.theta,
            max_parents: self.options.max_parents,
        };
        let fact_model = fit_fact_model(&view, schema.entity_arity(), m, &fact_options, rng)?;

        // Phase 3: compose (pure post-processing).
        let synthetic = compose(schema, &entity_result.synthetic, &fact_model, rng)?;

        Ok(RelationalSynthesis {
            synthetic,
            entity_result,
            fact_model,
            epsilon_entity: eps_entity,
            epsilon_fact: eps_fact,
        })
    }
}

/// Composes a two-table database from sampled individuals, as pure
/// post-processing: one individual per row of `flat` (its entity
/// attributes, then its fact count `k`, as in `schema`'s flattened view),
/// each owning `min(k, m)` facts drawn from `fact_model` given its
/// attributes, in row order.
///
/// # Errors
/// Returns [`RelationalError`] if the rows do not fit `schema`.
pub fn compose<R: Rng + ?Sized>(
    schema: &RelationalSchema,
    flat: &Dataset,
    fact_model: &ConditionalFactModel,
    rng: &mut R,
) -> Result<RelationalDataset, RelationalError> {
    let e_arity = schema.entity_arity();
    let mut entity_rows: Vec<Vec<u32>> = Vec::with_capacity(flat.n());
    let mut fact_rows: Vec<Vec<u32>> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for r in 0..flat.n() {
        let row = flat.row(r);
        let entity_values = &row[..e_arity];
        // EVENT_COUNT_ATTR sits after the entity attributes.
        let count = row[e_arity] as usize;
        for _ in 0..count.min(schema.max_fanout()) {
            fact_rows.push(fact_model.sample_fact(entity_values, rng));
            owners.push(r);
        }
        entity_rows.push(entity_values.to_vec());
    }
    let entities = Dataset::from_rows(schema.entity().clone(), &entity_rows)?;
    let facts = Dataset::from_rows(schema.fact().clone(), &fact_rows)?;
    RelationalDataset::new(schema.clone(), entities, facts, owners)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::clinic_benchmark;
    use privbayes_marginals::{total_variation, Axis, ContingencyTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_produces_valid_relational_data() {
        let data = clinic_benchmark(1500, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let result = RelationalPrivBayes::new(RelationalOptions::new(2.0))
            .synthesize(&data, &mut rng)
            .unwrap();
        let synth = &result.synthetic;
        assert_eq!(synth.n_entities(), data.n_entities());
        assert!(synth.fanouts().iter().all(|&f| f <= 4), "fan-out cap respected");
        assert!((result.epsilon_entity + result.epsilon_fact - 2.0).abs() < 1e-12);
    }

    #[test]
    fn high_budget_preserves_entity_fact_correlation() {
        let data = clinic_benchmark(4000, 3, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let result = RelationalPrivBayes::new(RelationalOptions::new(50.0))
            .synthesize(&data, &mut rng)
            .unwrap();
        // Compare the (smoker × diagnosis) joint in the real vs synthetic
        // fact views — the cross-table correlation synthesis must preserve.
        let truth =
            ContingencyTable::from_dataset(&data.fact_view(), &[Axis::raw(0), Axis::raw(2)]);
        let synth = ContingencyTable::from_dataset(
            &result.synthetic.fact_view(),
            &[Axis::raw(0), Axis::raw(2)],
        );
        let tvd = total_variation(truth.values(), synth.values());
        assert!(tvd < 0.1, "cross-table joint must survive at high ε, tvd = {tvd}");
    }

    #[test]
    fn fanout_distribution_is_approximately_preserved() {
        let data = clinic_benchmark(3000, 4, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let result = RelationalPrivBayes::new(RelationalOptions::new(20.0))
            .synthesize(&data, &mut rng)
            .unwrap();
        let hist = |d: &RelationalDataset| {
            let mut h = vec![0f64; 5];
            for f in d.fanouts() {
                h[f] += 1.0;
            }
            let n = d.n_entities() as f64;
            h.iter_mut().for_each(|x| *x /= n);
            h
        };
        let tvd = total_variation(&hist(&data), &hist(&result.synthetic));
        assert!(tvd < 0.1, "fan-out histogram tvd = {tvd}");
    }

    #[test]
    fn rejects_invalid_options() {
        let data = clinic_benchmark(50, 2, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for opts in [
            RelationalOptions::new(0.0),
            RelationalOptions::new(-1.0),
            RelationalOptions::new(1.0).with_entity_share(0.0),
            RelationalOptions::new(1.0).with_entity_share(1.0),
        ] {
            assert!(RelationalPrivBayes::new(opts).synthesize(&data, &mut rng).is_err());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let data = clinic_benchmark(400, 3, 9);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            RelationalPrivBayes::new(RelationalOptions::new(1.0))
                .synthesize(&data, &mut rng)
                .unwrap()
                .synthetic
        };
        assert_eq!(run(42), run(42));
    }
}
