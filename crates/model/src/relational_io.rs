//! Release artifacts for the multi-table extension: both phase models of a
//! [`privbayes_relational`] synthesis in one versioned JSON document.
//!
//! The relational pipeline is `(ε_entity + ε_fact)`-DP per individual
//! (sequential composition), so — exactly as in the single-table case — the
//! *models* themselves are publishable. A consumer can regenerate two-table
//! synthetic databases of any size from the artifact without touching the
//! sensitive data again.

use std::fs;
use std::path::Path;

use privbayes::conditionals::NoisyModel;
use privbayes_data::Schema;
use privbayes_relational::{
    compose, ConditionalFactModel, RelationalDataset, RelationalSchema, RelationalSynthesis,
    EVENT_COUNT_ATTR,
};
use rand::Rng;

use crate::error::ModelError;
use crate::json::Json;
use crate::model_io::{
    conditionals_from_json, conditionals_to_json, network_from_json, network_to_json,
};
use crate::schema_io::{schema_from_json, schema_to_json};

/// The relational artifact format identifier.
pub const RELATIONAL_FORMAT: &str = "privbayes-relational-model/1";

/// Provenance recorded alongside a released relational model.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalMetadata {
    /// Budget spent on the entity (flattened-view) phase.
    pub epsilon_entity: f64,
    /// Budget spent on the fact phase (group level).
    pub epsilon_fact: f64,
    /// Number of individuals in the sensitive input.
    pub source_entities: usize,
    /// Number of fact rows in the sensitive input.
    pub source_facts: usize,
    /// Free-form comment.
    pub comment: String,
}

impl RelationalMetadata {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("epsilon_entity", Json::Number(self.epsilon_entity)),
            ("epsilon_fact", Json::Number(self.epsilon_fact)),
            ("source_entities", Json::from_usize(self.source_entities)),
            ("source_facts", Json::from_usize(self.source_facts)),
            ("comment", Json::String(self.comment.clone())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, ModelError> {
        let path = |field: &str| ModelError::Field(format!("metadata.{field}"));
        Ok(Self {
            epsilon_entity: json
                .get("epsilon_entity")
                .and_then(Json::as_f64)
                .ok_or_else(|| path("epsilon_entity"))?,
            epsilon_fact: json
                .get("epsilon_fact")
                .and_then(Json::as_f64)
                .ok_or_else(|| path("epsilon_fact"))?,
            source_entities: json
                .get("source_entities")
                .and_then(Json::as_usize)
                .ok_or_else(|| path("source_entities"))?,
            source_facts: json
                .get("source_facts")
                .and_then(Json::as_usize)
                .ok_or_else(|| path("source_facts"))?,
            comment: json
                .get("comment")
                .and_then(Json::as_str)
                .ok_or_else(|| path("comment"))?
                .to_string(),
        })
    }
}

/// A released relational model: the two-table schema plus both phase models.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleasedRelationalModel {
    /// Fitting provenance.
    pub metadata: RelationalMetadata,
    /// The two-table schema (including the fan-out cap).
    pub schema: RelationalSchema,
    /// The entity-phase model, over [`RelationalSchema::flattened`].
    pub entity_model: NoisyModel,
    /// The fact-phase conditional model, over [`RelationalSchema::fact_view`].
    pub fact_model: ConditionalFactModel,
}

impl ReleasedRelationalModel {
    /// Bundles a synthesis result into a release artifact.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] if the models do not match the schema.
    pub fn from_synthesis(
        schema: RelationalSchema,
        synthesis: &RelationalSynthesis,
        comment: impl Into<String>,
        source_entities: usize,
        source_facts: usize,
    ) -> Result<Self, ModelError> {
        let artifact = Self {
            metadata: RelationalMetadata {
                epsilon_entity: synthesis.epsilon_entity,
                epsilon_fact: synthesis.epsilon_fact,
                source_entities,
                source_facts,
                comment: comment.into(),
            },
            schema,
            entity_model: synthesis.entity_result.model.clone(),
            fact_model: synthesis.fact_model.clone(),
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Checks that both models cover their respective view schemas.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] describing the first mismatch.
    pub fn validate(&self) -> Result<(), ModelError> {
        let flattened = self.schema.flattened();
        if self.entity_model.conditionals.len() != flattened.len() {
            return Err(ModelError::Invalid(format!(
                "entity model covers {} attributes, flattened view has {}",
                self.entity_model.conditionals.len(),
                flattened.len()
            )));
        }
        for (i, cond) in self.entity_model.conditionals.iter().enumerate() {
            let expected = flattened.attribute(cond.child).domain_size();
            if cond.child_dim != expected {
                return Err(ModelError::Invalid(format!(
                    "entity conditional {i}: child_dim {} vs domain {expected}",
                    cond.child_dim
                )));
            }
        }
        if self.fact_model.entity_arity() != self.schema.entity_arity() {
            return Err(ModelError::Invalid(format!(
                "fact model evidence arity {} vs schema entity arity {}",
                self.fact_model.entity_arity(),
                self.schema.entity_arity()
            )));
        }
        let view = self.schema.fact_view();
        for cond in self.fact_model.conditionals() {
            let expected = view.attribute(cond.child).domain_size();
            if cond.child_dim != expected {
                return Err(ModelError::Invalid(format!(
                    "fact conditional for attribute {}: child_dim {} vs domain {expected}",
                    cond.child, cond.child_dim
                )));
            }
        }
        Ok(())
    }

    /// Serializes the artifact to pretty-printed JSON.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] on validation failure and JSON errors
    /// otherwise.
    pub fn to_json_string(&self) -> Result<String, ModelError> {
        self.validate()?;
        let flattened = self.schema.flattened();
        let fact_view = self.schema.fact_view();
        let doc = Json::object(vec![
            ("format", Json::String(RELATIONAL_FORMAT.to_string())),
            ("metadata", self.metadata.to_json()),
            ("max_fanout", Json::from_usize(self.schema.max_fanout())),
            ("entity_arity", Json::from_usize(self.schema.entity_arity())),
            ("flattened_schema", schema_to_json(flattened)),
            ("fact_view_schema", schema_to_json(fact_view)),
            ("entity_network", network_to_json(&self.entity_model.network)),
            ("entity_conditionals", conditionals_to_json(&self.entity_model.conditionals)),
            ("fact_network", network_to_json(self.fact_model.network())),
            ("fact_conditionals", conditionals_to_json(self.fact_model.conditionals())),
        ]);
        Ok(doc.to_string_pretty()?)
    }

    /// Parses and validates an artifact from JSON text.
    ///
    /// # Errors
    /// Returns [`ModelError::Json`] / [`ModelError::UnsupportedFormat`] /
    /// [`ModelError::Field`] / [`ModelError::Invalid`] as in
    /// [`crate::ReleasedModel::from_json_string`].
    pub fn from_json_string(text: &str) -> Result<Self, ModelError> {
        let json = Json::parse(text)?;
        let format = json
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| ModelError::Field("format".into()))?;
        if format != RELATIONAL_FORMAT {
            return Err(ModelError::UnsupportedFormat(format.to_string()));
        }
        let metadata = RelationalMetadata::from_json(
            json.get("metadata").ok_or_else(|| ModelError::Field("metadata".into()))?,
        )?;
        let max_fanout = json
            .get("max_fanout")
            .and_then(Json::as_usize)
            .ok_or_else(|| ModelError::Field("max_fanout".into()))?;
        let entity_arity = json
            .get("entity_arity")
            .and_then(Json::as_usize)
            .ok_or_else(|| ModelError::Field("entity_arity".into()))?;
        let flattened = schema_from_json(
            json.get("flattened_schema")
                .ok_or_else(|| ModelError::Field("flattened_schema".into()))?,
        )?;
        let fact_view = schema_from_json(
            json.get("fact_view_schema")
                .ok_or_else(|| ModelError::Field("fact_view_schema".into()))?,
        )?;
        let schema =
            relational_schema_from_views(&flattened, &fact_view, entity_arity, max_fanout)?;

        let entity_network = network_from_json(
            json.get("entity_network").ok_or_else(|| ModelError::Field("entity_network".into()))?,
            &flattened,
            "entity_network",
        )?;
        let entity_conditionals = conditionals_from_json(
            json.get("entity_conditionals")
                .ok_or_else(|| ModelError::Field("entity_conditionals".into()))?,
            "entity_conditionals",
        )?;
        let fact_network = network_from_json(
            json.get("fact_network").ok_or_else(|| ModelError::Field("fact_network".into()))?,
            &fact_view,
            "fact_network",
        )?;
        let fact_conditionals = conditionals_from_json(
            json.get("fact_conditionals")
                .ok_or_else(|| ModelError::Field("fact_conditionals".into()))?,
            "fact_conditionals",
        )?;
        let fact_model =
            ConditionalFactModel::from_parts(entity_arity, fact_network, fact_conditionals)
                .map_err(|e| ModelError::Invalid(e.to_string()))?;

        let artifact = Self {
            metadata,
            schema,
            entity_model: NoisyModel { network: entity_network, conditionals: entity_conditionals },
            fact_model,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    /// See [`ReleasedRelationalModel::to_json_string`] plus I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        fs::write(path, self.to_json_string()?)?;
        Ok(())
    }

    /// Reads and validates an artifact from a file.
    ///
    /// # Errors
    /// See [`ReleasedRelationalModel::from_json_string`] plus I/O failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        Self::from_json_string(&fs::read_to_string(path)?)
    }

    /// Regenerates a two-table synthetic database: sample `n_entities`
    /// individuals (with fact counts) from the entity model, then their
    /// facts from the conditional fact model. Pure post-processing.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] on artifact corruption that validation
    /// could not detect.
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        n_entities: usize,
        rng: &mut R,
    ) -> Result<RelationalDataset, ModelError> {
        let flattened = self.schema.flattened();
        let flat = self
            .entity_model
            .compile(flattened)
            .and_then(|sampler| sampler.sample_dataset(n_entities, None, rng))
            .map_err(|e| ModelError::Invalid(e.to_string()))?;
        compose(&self.schema, &flat, &self.fact_model, rng)
            .map_err(|e| ModelError::Invalid(e.to_string()))
    }
}

/// Reconstructs the [`RelationalSchema`] from its serialized views.
///
/// The flattened view is `entity attrs + EVENT_COUNT_ATTR`; the fact view is
/// `entity attrs + fact attrs`. Rebuilding through [`RelationalSchema::new`]
/// re-validates every invariant and regenerates both views, which are then
/// cross-checked against the stored ones.
fn relational_schema_from_views(
    flattened: &Schema,
    fact_view: &Schema,
    entity_arity: usize,
    max_fanout: usize,
) -> Result<RelationalSchema, ModelError> {
    if entity_arity == 0 || entity_arity + 1 != flattened.len() {
        return Err(ModelError::Invalid(format!(
            "entity arity {entity_arity} inconsistent with a {}-attribute flattened view",
            flattened.len()
        )));
    }
    if flattened.attribute(entity_arity).name() != EVENT_COUNT_ATTR {
        return Err(ModelError::Invalid(format!(
            "flattened view must end with `{EVENT_COUNT_ATTR}`"
        )));
    }
    if entity_arity >= fact_view.len() {
        return Err(ModelError::Invalid(format!(
            "entity arity {entity_arity} inconsistent with a {}-attribute fact view",
            fact_view.len()
        )));
    }
    let entity = Schema::new(flattened.attributes()[..entity_arity].to_vec())
        .map_err(|e| ModelError::Invalid(format!("entity schema: {e}")))?;
    let fact = Schema::new(fact_view.attributes()[entity_arity..].to_vec())
        .map_err(|e| ModelError::Invalid(format!("fact schema: {e}")))?;
    let schema = RelationalSchema::new(entity, fact, max_fanout)
        .map_err(|e| ModelError::Invalid(e.to_string()))?;
    if schema.flattened() != flattened || schema.fact_view() != fact_view {
        return Err(ModelError::Invalid(
            "stored views disagree with the reconstructed relational schema".into(),
        ));
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_relational::{clinic_benchmark, RelationalOptions, RelationalPrivBayes};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted() -> (RelationalDataset, ReleasedRelationalModel) {
        let data = clinic_benchmark(800, 3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let synthesis = RelationalPrivBayes::new(RelationalOptions::new(2.0))
            .synthesize(&data, &mut rng)
            .unwrap();
        let artifact = ReleasedRelationalModel::from_synthesis(
            data.schema().clone(),
            &synthesis,
            "unit test",
            data.n_entities(),
            data.n_facts(),
        )
        .unwrap();
        (data, artifact)
    }

    #[test]
    fn round_trips_bit_exactly() {
        let (_, artifact) = fitted();
        let text = artifact.to_json_string().unwrap();
        let back = ReleasedRelationalModel::from_json_string(&text).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn save_load_and_synthesize() {
        let (data, artifact) = fitted();
        let dir = std::env::temp_dir().join(format!("privbayes-rel-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clinic.json");
        artifact.save(&path).unwrap();
        let consumer = ReleasedRelationalModel::load(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let synth = consumer.synthesize(500, &mut rng).unwrap();
        assert_eq!(synth.n_entities(), 500);
        assert!(synth.fanouts().iter().all(|&f| f <= data.schema().max_fanout()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn consumer_synthesis_matches_owner_given_seed() {
        let (_, artifact) = fitted();
        let back =
            ReleasedRelationalModel::from_json_string(&artifact.to_json_string().unwrap()).unwrap();
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let a = artifact.synthesize(200, &mut rng_a).unwrap();
        let b = back.synthesize(200, &mut rng_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_wrong_format_and_missing_fields() {
        let (_, artifact) = fitted();
        let text = artifact.to_json_string().unwrap();
        let e = ReleasedRelationalModel::from_json_string(&text.replacen(
            RELATIONAL_FORMAT,
            "privbayes-model/1",
            1,
        ))
        .unwrap_err();
        assert!(matches!(e, ModelError::UnsupportedFormat(_)));
        for field in ["entity_network", "fact_conditionals", "max_fanout"] {
            let broken = text.replacen(&format!("\"{field}\""), "\"dropped\"", 1);
            assert!(
                ReleasedRelationalModel::from_json_string(&broken).is_err(),
                "must reject artifact without `{field}`"
            );
        }
    }

    #[test]
    fn validation_catches_model_schema_mismatch() {
        let (_, mut artifact) = fitted();
        artifact.entity_model.conditionals.pop();
        assert!(artifact.validate().is_err());
    }

    #[test]
    fn tampered_fanout_is_rejected() {
        let (_, artifact) = fitted();
        let text = artifact.to_json_string().unwrap();
        // Shrinking the cap makes the stored event_count domain inconsistent.
        let tampered = text.replacen("\"max_fanout\": 3", "\"max_fanout\": 2", 1);
        assert!(ReleasedRelationalModel::from_json_string(&tampered).is_err());
    }
}
