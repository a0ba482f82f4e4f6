//! The release artifact: a versioned JSON envelope around the private model.
//!
//! PrivBayes's output model — the Bayesian network `N` plus the noisy
//! conditionals `Pr*[Xᵢ | Πᵢ]` — is itself differentially private, so it can
//! be published as-is (Theorem 3.2; sampling is post-processing). Publishing
//! the *model* rather than one fixed synthetic dataset lets consumers draw
//! samples of any size or answer queries exactly via
//! [`privbayes::inference::model_marginal`] (the paper's §7 direction).

use std::fs;
use std::path::Path;

use std::sync::OnceLock;

use privbayes::conditionals::{Conditional, NoisyModel};
use privbayes::network::{ApPair, BayesianNetwork};
use privbayes::sampler::CompiledSampler;
use privbayes_data::{Dataset, Schema};
use privbayes_marginals::Axis;
use rand::Rng;

use crate::error::ModelError;
use crate::json::Json;
use crate::schema_io::{schema_from_json, schema_to_json};

/// The artifact format identifier accepted by this version of the crate.
pub const FORMAT: &str = "privbayes-model/1";

/// Tolerance when checking that stored conditionals are normalised.
const NORMALISATION_TOLERANCE: f64 = 1e-6;

/// Provenance recorded alongside a released model.
///
/// These fields are descriptive only — they document how the model was fit so
/// a consumer can interpret it, but nothing is recomputed from them.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetadata {
    /// Name of the synthesis method that fit the model (`"privbayes"`,
    /// `"privbayes-k"`, `"mwem"`, `"laplace"`, `"geometric"`, `"uniform"`).
    /// Artifacts written before the field existed parse as `"privbayes"`.
    pub method: String,
    /// Total privacy budget ε spent fitting the model.
    pub epsilon: f64,
    /// Budget split β between network and distribution learning.
    pub beta: f64,
    /// θ-usefulness threshold used for degree selection.
    pub theta: f64,
    /// Name of the score function that selected AP pairs (`"I"`, `"F"`, `"R"`).
    pub score: String,
    /// Name of the attribute encoding (`"vanilla"`, `"hierarchical"`, …).
    pub encoding: String,
    /// Number of rows in the sensitive input the model was fit on.
    pub source_rows: usize,
    /// Free-form comment (provenance, dataset name, fitting date).
    pub comment: String,
}

impl ModelMetadata {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("method", Json::String(self.method.clone())),
            ("epsilon", Json::Number(self.epsilon)),
            ("beta", Json::Number(self.beta)),
            ("theta", Json::Number(self.theta)),
            ("score", Json::String(self.score.clone())),
            ("encoding", Json::String(self.encoding.clone())),
            ("source_rows", Json::from_usize(self.source_rows)),
            ("comment", Json::String(self.comment.clone())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, ModelError> {
        let path = |field: &str| ModelError::Field(format!("metadata.{field}"));
        Ok(Self {
            // Absent in pre-PR4 artifacts, which were always PrivBayes fits.
            method: json.get("method").and_then(Json::as_str).unwrap_or("privbayes").to_string(),
            epsilon: json.get("epsilon").and_then(Json::as_f64).ok_or_else(|| path("epsilon"))?,
            beta: json.get("beta").and_then(Json::as_f64).ok_or_else(|| path("beta"))?,
            theta: json.get("theta").and_then(Json::as_f64).ok_or_else(|| path("theta"))?,
            score: json
                .get("score")
                .and_then(Json::as_str)
                .ok_or_else(|| path("score"))?
                .to_string(),
            encoding: json
                .get("encoding")
                .and_then(Json::as_str)
                .ok_or_else(|| path("encoding"))?
                .to_string(),
            source_rows: json
                .get("source_rows")
                .and_then(Json::as_usize)
                .ok_or_else(|| path("source_rows"))?,
            comment: json
                .get("comment")
                .and_then(Json::as_str)
                .ok_or_else(|| path("comment"))?
                .to_string(),
        })
    }
}

/// A released PrivBayes model: metadata, the schema of the (possibly encoded)
/// attribute space the model lives in, and the noisy model itself.
#[derive(Debug, Clone)]
pub struct ReleasedModel {
    /// Fitting provenance.
    pub metadata: ModelMetadata,
    /// Schema of the attribute space the conditionals are expressed over.
    pub schema: Schema,
    /// The private network and noisy conditionals.
    pub model: NoisyModel,
    /// Alias-table form of the model, compiled on first [`sample`] call and
    /// reused by every subsequent one (repeat consumers don't pay the
    /// per-slice compilation again).
    ///
    /// [`sample`]: ReleasedModel::sample
    sampler: OnceLock<CompiledSampler>,
}

/// Equality is over the released artifact (metadata, schema, model); the
/// lazily-compiled sampler cache is derived state and does not participate.
impl PartialEq for ReleasedModel {
    fn eq(&self, other: &Self) -> bool {
        self.metadata == other.metadata && self.schema == other.schema && self.model == other.model
    }
}

impl ReleasedModel {
    /// Bundles a fit result into a release artifact, validating consistency.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] if the model does not match the schema
    /// (see [`ReleasedModel::validate`]).
    pub fn new(
        metadata: ModelMetadata,
        schema: Schema,
        model: NoisyModel,
    ) -> Result<Self, ModelError> {
        let artifact = Self { metadata, schema, model, sampler: OnceLock::new() };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Checks the internal consistency a consumer relies on: one conditional
    /// per network pair with matching child/parents, dimensions that agree
    /// with the schema (at the recorded generalisation levels), finite
    /// probabilities, and normalised child distributions.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] describing the first violation found.
    pub fn validate(&self) -> Result<(), ModelError> {
        let d = self.schema.len();
        let pairs = self.model.network.pairs();
        let conds = &self.model.conditionals;
        if pairs.len() != d {
            return Err(ModelError::Invalid(format!(
                "network has {} pairs but schema has {d} attributes",
                pairs.len()
            )));
        }
        if conds.len() != d {
            return Err(ModelError::Invalid(format!(
                "model has {} conditionals but schema has {d} attributes",
                conds.len()
            )));
        }
        for (i, (pair, cond)) in pairs.iter().zip(conds).enumerate() {
            if pair.child != cond.child || pair.parents != cond.parents {
                return Err(ModelError::Invalid(format!(
                    "conditional {i} does not match network pair {i}"
                )));
            }
            let child_dim = self.schema.attribute(cond.child).domain_size();
            if cond.child_dim != child_dim {
                return Err(ModelError::Invalid(format!(
                    "conditional {i}: child_dim {} but attribute `{}` has domain size {child_dim}",
                    cond.child_dim,
                    self.schema.attribute(cond.child).name()
                )));
            }
            if cond.parent_dims.len() != cond.parents.len() {
                return Err(ModelError::Invalid(format!(
                    "conditional {i}: {} parent dims for {} parents",
                    cond.parent_dims.len(),
                    cond.parents.len()
                )));
            }
            for (axis, &dim) in cond.parents.iter().zip(&cond.parent_dims) {
                let expected = axis.size(&self.schema);
                if dim != expected {
                    return Err(ModelError::Invalid(format!(
                        "conditional {i}: parent {} at level {} has dim {dim}, expected {expected}",
                        axis.attr, axis.level
                    )));
                }
            }
            let parent_cells: usize = cond.parent_dims.iter().product();
            if cond.probs.len() != parent_cells * cond.child_dim {
                return Err(ModelError::Invalid(format!(
                    "conditional {i}: {} probabilities for a {}×{} table",
                    cond.probs.len(),
                    parent_cells,
                    cond.child_dim
                )));
            }
            for (s, slice) in cond.probs.chunks_exact(cond.child_dim).enumerate() {
                if slice.iter().any(|p| !p.is_finite() || *p < 0.0) {
                    return Err(ModelError::Invalid(format!(
                        "conditional {i}, slice {s}: negative or non-finite probability"
                    )));
                }
                let total: f64 = slice.iter().sum();
                if (total - 1.0).abs() > NORMALISATION_TOLERANCE {
                    return Err(ModelError::Invalid(format!(
                        "conditional {i}, slice {s}: probabilities sum to {total}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Serializes the artifact to pretty-printed JSON text.
    ///
    /// # Errors
    /// Returns [`ModelError::Invalid`] if validation fails (e.g. the model was
    /// mutated after construction) or the document cannot be serialized.
    pub fn to_json_string(&self) -> Result<String, ModelError> {
        self.validate()?;
        Ok(self.to_json().to_string_pretty()?)
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("format", Json::String(FORMAT.to_string())),
            ("metadata", self.metadata.to_json()),
            ("schema", schema_to_json(&self.schema)),
            ("network", network_to_json(&self.model.network)),
            ("conditionals", conditionals_to_json(&self.model.conditionals)),
        ])
    }

    /// Parses and validates an artifact from JSON text.
    ///
    /// # Errors
    /// Returns [`ModelError::Json`] for malformed JSON,
    /// [`ModelError::UnsupportedFormat`] for a wrong `format` field,
    /// [`ModelError::Field`] for missing fields, and [`ModelError::Invalid`]
    /// for inconsistent contents.
    pub fn from_json_string(text: &str) -> Result<Self, ModelError> {
        let json = Json::parse(text)?;
        let format = json
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| ModelError::Field("format".into()))?;
        if format != FORMAT {
            return Err(ModelError::UnsupportedFormat(format.to_string()));
        }
        let metadata = ModelMetadata::from_json(
            json.get("metadata").ok_or_else(|| ModelError::Field("metadata".into()))?,
        )?;
        let schema = schema_from_json(
            json.get("schema").ok_or_else(|| ModelError::Field("schema".into()))?,
        )?;

        let network = network_from_json(
            json.get("network").ok_or_else(|| ModelError::Field("network".into()))?,
            &schema,
            "network",
        )?;
        let conditionals = conditionals_from_json(
            json.get("conditionals").ok_or_else(|| ModelError::Field("conditionals".into()))?,
            "conditionals",
        )?;

        Self::new(metadata, schema, NoisyModel { network, conditionals })
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    /// Returns [`ModelError::Io`] on filesystem failure and the
    /// [`ReleasedModel::to_json_string`] errors otherwise.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        let text = self.to_json_string()?;
        fs::write(path, text)?;
        Ok(())
    }

    /// Reads and validates an artifact from a file.
    ///
    /// # Errors
    /// Returns [`ModelError::Io`] on filesystem failure and the
    /// [`ReleasedModel::from_json_string`] errors otherwise.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let text = fs::read_to_string(path)?;
        Self::from_json_string(&text)
    }

    /// Samples `rows` synthetic tuples from the released model — the same
    /// ancestral sampler PrivBayes uses internally; no privacy cost. The
    /// model is compiled into alias tables on the first call and the
    /// compiled form is cached for subsequent draws.
    ///
    /// # Errors
    /// Propagates sampler errors as [`ModelError::Invalid`] (these indicate
    /// artifact corruption that validation could not detect).
    pub fn sample<R: Rng + ?Sized>(&self, rows: usize, rng: &mut R) -> Result<Dataset, ModelError> {
        self.compiled()?
            .sample_dataset(rows, None, rng)
            .map_err(|e| ModelError::Invalid(e.to_string()))
    }

    /// The model's cached [`CompiledSampler`], compiling it on the first
    /// call. This is the hook serving layers use to share one set of alias
    /// tables across every request against the same released model: the
    /// registry holds the `ReleasedModel` and all synthesis paths — batch
    /// sampling and chunked row streaming alike — draw from this one
    /// compiled form.
    ///
    /// # Errors
    /// Propagates compilation failures as [`ModelError::Invalid`] (these
    /// indicate artifact corruption that validation could not detect).
    pub fn compiled(&self) -> Result<&CompiledSampler, ModelError> {
        if self.sampler.get().is_none() {
            let compiled =
                self.model.compile(&self.schema).map_err(|e| ModelError::Invalid(e.to_string()))?;
            // A racing caller may have compiled the same model meanwhile;
            // either value is equivalent, keep the first.
            let _ = self.sampler.set(compiled);
        }
        Ok(self.sampler.get().expect("sampler initialised above"))
    }
}

/// Serializes a network as an array of `{child, parents}` objects.
pub(crate) fn network_to_json(network: &BayesianNetwork) -> Json {
    Json::Array(
        network
            .pairs()
            .iter()
            .map(|pair| {
                Json::object(vec![
                    ("child", Json::from_usize(pair.child)),
                    ("parents", axes_to_json(&pair.parents)),
                ])
            })
            .collect(),
    )
}

/// Parses a network, validating structure against `schema`.
pub(crate) fn network_from_json(
    json: &Json,
    schema: &Schema,
    context: &str,
) -> Result<BayesianNetwork, ModelError> {
    let pairs_json = json.as_array().ok_or_else(|| ModelError::Field(context.to_string()))?;
    let mut pairs = Vec::with_capacity(pairs_json.len());
    for (i, pair) in pairs_json.iter().enumerate() {
        let path = |field: &str| ModelError::Field(format!("{context}[{i}].{field}"));
        let child = pair.get("child").and_then(Json::as_usize).ok_or_else(|| path("child"))?;
        let parents = axes_from_json(
            pair.get("parents").ok_or_else(|| path("parents"))?,
            &format!("{context}[{i}].parents"),
        )?;
        pairs.push(ApPair::generalized(child, parents));
    }
    BayesianNetwork::new(pairs, schema).map_err(|e| ModelError::Invalid(format!("{context}: {e}")))
}

/// Serializes conditionals as an array of CPT objects.
pub(crate) fn conditionals_to_json(conditionals: &[Conditional]) -> Json {
    Json::Array(
        conditionals
            .iter()
            .map(|cond| {
                Json::object(vec![
                    ("child", Json::from_usize(cond.child)),
                    ("parents", axes_to_json(&cond.parents)),
                    (
                        "parent_dims",
                        Json::Array(
                            cond.parent_dims.iter().map(|&v| Json::from_usize(v)).collect(),
                        ),
                    ),
                    ("child_dim", Json::from_usize(cond.child_dim)),
                    ("probs", Json::Array(cond.probs.iter().map(|&p| Json::Number(p)).collect())),
                ])
            })
            .collect(),
    )
}

/// Parses a conditional array (shape validation happens at the artifact
/// level, where the schema is known).
pub(crate) fn conditionals_from_json(
    json: &Json,
    context: &str,
) -> Result<Vec<Conditional>, ModelError> {
    let conds_json = json.as_array().ok_or_else(|| ModelError::Field(context.to_string()))?;
    let mut conditionals = Vec::with_capacity(conds_json.len());
    for (i, cond) in conds_json.iter().enumerate() {
        let path = |field: &str| ModelError::Field(format!("{context}[{i}].{field}"));
        let child = cond.get("child").and_then(Json::as_usize).ok_or_else(|| path("child"))?;
        let parents = axes_from_json(
            cond.get("parents").ok_or_else(|| path("parents"))?,
            &format!("{context}[{i}].parents"),
        )?;
        let parent_dims: Vec<usize> = cond
            .get("parent_dims")
            .and_then(Json::as_array)
            .ok_or_else(|| path("parent_dims"))?
            .iter()
            .map(|v| v.as_usize().ok_or_else(|| path("parent_dims[*]")))
            .collect::<Result<_, _>>()?;
        let child_dim =
            cond.get("child_dim").and_then(Json::as_usize).ok_or_else(|| path("child_dim"))?;
        let probs: Vec<f64> = cond
            .get("probs")
            .and_then(Json::as_array)
            .ok_or_else(|| path("probs"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| path("probs[*]")))
            .collect::<Result<_, _>>()?;
        conditionals.push(Conditional { child, parents, parent_dims, child_dim, probs });
    }
    Ok(conditionals)
}

fn axes_to_json(axes: &[Axis]) -> Json {
    Json::Array(
        axes.iter()
            .map(|axis| {
                Json::object(vec![
                    ("attr", Json::from_usize(axis.attr)),
                    ("level", Json::from_usize(axis.level)),
                ])
            })
            .collect(),
    )
}

fn axes_from_json(json: &Json, context: &str) -> Result<Vec<Axis>, ModelError> {
    let items = json.as_array().ok_or_else(|| ModelError::Field(context.to_string()))?;
    items
        .iter()
        .map(|item| {
            let attr = item
                .get("attr")
                .and_then(Json::as_usize)
                .ok_or_else(|| ModelError::Field(format!("{context}[*].attr")))?;
            let level = item
                .get("level")
                .and_then(Json::as_usize)
                .ok_or_else(|| ModelError::Field(format!("{context}[*].level")))?;
            Ok(Axis { attr, level })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes::conditionals::noisy_conditionals_general_engine;
    use privbayes_data::Attribute;
    use privbayes_marginals::CountEngine;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn fitted() -> ReleasedModel {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::categorical_labelled("b", ["x", "y", "z"]).unwrap(),
            Attribute::continuous("c", 0.0, 10.0, 4).unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<u32>> = (0..500)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                let b = (a + rng.random_range(0..2u32)) % 3;
                let c = rng.random_range(0..4u32);
                vec![a, b, c]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![0, 1])],
            &schema,
        )
        .unwrap();
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, Some(1.0), &mut rng).unwrap();
        ReleasedModel::new(
            ModelMetadata {
                method: "privbayes".into(),
                epsilon: 1.0,
                beta: 0.3,
                theta: 4.0,
                score: "R".into(),
                encoding: "vanilla".into(),
                source_rows: 500,
                comment: "unit test".into(),
            },
            schema,
            model,
        )
        .unwrap()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let artifact = fitted();
        let text = artifact.to_json_string().unwrap();
        let back = ReleasedModel::from_json_string(&text).unwrap();
        assert_eq!(back, artifact, "all f64 probabilities must survive the text round-trip");
    }

    #[test]
    fn save_and_load() {
        let artifact = fitted();
        let dir = std::env::temp_dir().join("privbayes-model-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        artifact.save(&path).unwrap();
        let back = ReleasedModel::load(&path).unwrap();
        assert_eq!(back, artifact);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let e = ReleasedModel::load("/nonexistent/model.json").unwrap_err();
        assert!(matches!(e, ModelError::Io(_)));
    }

    #[test]
    fn sampling_from_loaded_model_matches_original_model() {
        let artifact = fitted();
        let text = artifact.to_json_string().unwrap();
        let back = ReleasedModel::from_json_string(&text).unwrap();
        // Same seed, same model -> identical synthetic output.
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let sample_a = artifact.sample(200, &mut rng_a).unwrap();
        let sample_b = back.sample(200, &mut rng_b).unwrap();
        assert_eq!(sample_a.n(), 200);
        for attr in 0..sample_a.d() {
            assert_eq!(sample_a.column(attr), sample_b.column(attr));
        }
    }

    #[test]
    fn rejects_wrong_format_version() {
        let artifact = fitted();
        let text = artifact.to_json_string().unwrap().replace(FORMAT, "privbayes-model/999");
        let e = ReleasedModel::from_json_string(&text).unwrap_err();
        assert!(matches!(e, ModelError::UnsupportedFormat(_)), "{e}");
    }

    #[test]
    fn rejects_missing_top_level_fields() {
        for field in ["format", "metadata", "schema", "network", "conditionals"] {
            let artifact = fitted();
            let text = artifact.to_json_string().unwrap();
            // Drop the field by renaming it.
            let text = text.replacen(&format!("\"{field}\""), "\"dropped\"", 1);
            assert!(
                ReleasedModel::from_json_string(&text).is_err(),
                "must reject artifact without `{field}`"
            );
        }
    }

    #[test]
    fn validation_catches_dimension_mismatch() {
        let mut artifact = fitted();
        artifact.model.conditionals[1].child_dim = 7;
        let e = artifact.validate().unwrap_err();
        assert!(matches!(e, ModelError::Invalid(_)), "{e}");
    }

    #[test]
    fn validation_catches_denormalised_probabilities() {
        let mut artifact = fitted();
        artifact.model.conditionals[0].probs[0] += 0.5;
        assert!(artifact.validate().is_err());
    }

    #[test]
    fn validation_catches_negative_probabilities() {
        let mut artifact = fitted();
        let dim = artifact.model.conditionals[0].child_dim;
        artifact.model.conditionals[0].probs[0] = -0.25;
        artifact.model.conditionals[0].probs[1] = 1.25;
        let _ = dim;
        assert!(artifact.validate().is_err());
    }

    #[test]
    fn validation_catches_network_conditional_mismatch() {
        let mut artifact = fitted();
        artifact.model.conditionals.swap(1, 2);
        assert!(artifact.validate().is_err());
    }

    #[test]
    fn corrupt_probability_array_is_rejected_on_parse() {
        let artifact = fitted();
        let text = artifact.to_json_string().unwrap();
        // Inject a string where a probability belongs.
        let text = text.replacen("\"probs\": [\n", "\"probs\": [\n\"oops\",", 1);
        let e = ReleasedModel::from_json_string(&text).unwrap_err();
        assert!(matches!(e, ModelError::Field(ref p) if p.contains("probs")), "got {e}");
    }

    #[test]
    fn invalid_network_structure_is_rejected() {
        let artifact = fitted();
        let text = artifact.to_json_string().unwrap();
        // Parent 2 of attribute 1 is not an earlier child -> DAG violation.
        let text = text.replacen(
            "\"parents\": [\n        {\n          \"attr\": 0,",
            "\"parents\": [\n        {\n          \"attr\": 2,",
            1,
        );
        let e = ReleasedModel::from_json_string(&text).unwrap_err();
        assert!(matches!(e, ModelError::Invalid(_)), "got {e}");
    }
}
