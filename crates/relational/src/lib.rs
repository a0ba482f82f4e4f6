//! Multi-table extension of PrivBayes — the "natural next step" of the
//! paper's concluding remarks.
//!
//! The paper evaluates single-table databases where each individual affects
//! one row. This crate extends the release pipeline to a two-table
//! entity/fact schema with a bounded fan-out `m` (each individual owns at
//! most `m` fact rows) and keeps the privacy unit at the **individual**:
//!
//! * [`RelationalSchema`] / [`RelationalDataset`] model the two tables, the
//!   foreign key, and the fan-out cap, with eager validation;
//! * [`RelationalDataset::flatten_counts`] restores the single-row-per-
//!   individual regime for entity attributes (plus the owned-fact count);
//! * [`model`] fits a *conditional* PrivBayes model over the per-fact view
//!   under group privacy — every mechanism's budget is scaled by `m`,
//!   exactly the "more careful analysis" the paper calls for;
//! * [`RelationalPrivBayes`] composes both into an end-to-end
//!   `(ε_entity + ε_fact)`-DP synthesis of a complete two-table database;
//! * [`generator::clinic_benchmark`] provides a ground-truth relational
//!   workload for tests and the `ext_multitable` experiment.
//!
//! # Example
//!
//! ```
//! use privbayes_relational::{
//!     clinic_benchmark, RelationalOptions, RelationalPrivBayes,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let data = clinic_benchmark(500, 3, 42);
//! let mut rng = StdRng::seed_from_u64(0);
//! let result = RelationalPrivBayes::new(RelationalOptions::new(2.0))
//!     .synthesize(&data, &mut rng)
//!     .unwrap();
//! assert_eq!(result.synthetic.n_entities(), 500);
//! assert!(result.synthetic.fanouts().iter().all(|&f| f <= 3));
//! ```

pub mod dataset;
pub mod error;
pub mod generator;
pub mod model;
pub mod schema;
pub mod synthesize;

pub use dataset::RelationalDataset;
pub use error::RelationalError;
pub use generator::clinic_benchmark;
pub use model::{fit_fact_model, ConditionalFactModel, FactModelOptions};
pub use schema::{RelationalSchema, EVENT_COUNT_ATTR};
pub use synthesize::{compose, RelationalOptions, RelationalPrivBayes, RelationalSynthesis};
