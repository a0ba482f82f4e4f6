//! Release artifacts for PrivBayes models.
//!
//! PrivBayes's privacy guarantee (Theorem 3.2) covers the *model* — the
//! Bayesian network plus the noisy conditional distributions — not just one
//! synthetic dataset sampled from it. This crate turns that model into a
//! publishable artifact:
//!
//! * [`ReleasedModel`] bundles the model with the schema it is expressed over
//!   and fitting provenance ([`ModelMetadata`]), validates internal
//!   consistency, and converts to/from a versioned, self-describing JSON
//!   format ([`FORMAT`]).
//! * Consumers can [`ReleasedModel::sample`] fresh synthetic datasets of any
//!   size, or answer marginal queries exactly with
//!   [`privbayes::inference::model_marginal`] — both are post-processing and
//!   cost no additional privacy budget.
//! * [`json`] is the small, dependency-free JSON reader/writer behind the
//!   format; it round-trips `f64` probabilities bit-exactly.
//! * [`budget_io`] round-trips `privbayes-dp` privacy budgets through the
//!   same JSON type, so serving-layer ledgers can persist per-tenant ε
//!   accounting across restarts without losing precision.
//! * [`ReleasedRelationalModel`] does the same for the multi-table extension:
//!   both phase models of a `privbayes-relational` synthesis in one artifact,
//!   from which consumers regenerate complete two-table databases.
//!
//! # Example
//!
//! ```
//! use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
//! use privbayes_data::{Attribute, Dataset, Schema};
//! use privbayes_model::{ModelMetadata, ReleasedModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let schema = Schema::new(vec![
//!     Attribute::binary("smoker"),
//!     Attribute::binary("disease"),
//! ]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..200).map(|i| vec![i % 2, i % 2]).collect();
//! let data = Dataset::from_rows(schema, &rows).unwrap();
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let options = PrivBayesOptions::new(1.0);
//! let result = PrivBayes::new(options.clone()).synthesize(&data, &mut rng).unwrap();
//!
//! let artifact = ReleasedModel::new(
//!     ModelMetadata {
//!         method: "privbayes".into(),
//!         epsilon: options.epsilon,
//!         beta: options.beta,
//!         theta: options.theta,
//!         score: options.effective_score().name().to_string(),
//!         encoding: options.encoding.name().to_string(),
//!         source_rows: data.n(),
//!         comment: "doc example".to_string(),
//!     },
//!     data.schema().clone(),
//!     result.model,
//! ).unwrap();
//!
//! let text = artifact.to_json_string().unwrap();
//! let restored = ReleasedModel::from_json_string(&text).unwrap();
//! assert_eq!(restored, artifact);
//! ```

pub mod budget_io;
pub mod error;
pub mod json;
pub mod model_io;
pub mod relational_io;
pub mod schema_io;

pub use budget_io::{budget_from_json, budget_to_json};
pub use error::ModelError;
pub use json::{seed_from_json, seed_to_json, Json, JsonError};
pub use model_io::{ModelMetadata, ReleasedModel, FORMAT};
pub use relational_io::{RelationalMetadata, ReleasedRelationalModel, RELATIONAL_FORMAT};
pub use schema_io::{schema_from_json, schema_to_json};
