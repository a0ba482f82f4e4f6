//! **PrivBayes**: differentially private synthetic data release via Bayesian
//! networks — a from-scratch reproduction of Zhang, Cormode, Procopiuc,
//! Srivastava & Xiao (SIGMOD 2014 / TODS 2017).
//!
//! The method runs in three phases (§3):
//!
//! 1. **Network learning** ([`greedy`]): build a low-degree Bayesian network
//!    `N` with the exponential mechanism, consuming ε₁ = βε. Candidate
//!    attribute–parent pairs are scored by one of three functions
//!    ([`score`]): mutual information `I`, the low-sensitivity surrogate `F`
//!    (§4.3–4.4, binary domains), or `R` (§5.3, general domains). Parent-set
//!    candidates are bounded by θ-usefulness ([`theta`], [`parent_sets`]).
//! 2. **Distribution learning** ([`conditionals`]): materialise the joint of
//!    every AP pair and privatise it with the Laplace mechanism, consuming
//!    ε₂ = (1−β)ε (Algorithms 1 and 3).
//! 3. **Data synthesis** ([`sampler`]): ancestral sampling from the noisy
//!    conditionals — no access to the input, hence no further budget.
//!
//! [`PrivBayes::fit`] runs phases 1 and 2 over one count engine, for all four
//! attribute encodings (§5.1); it is the one fit behind every PrivBayes
//! model in the suite. [`PrivBayes::synthesize`] adds phase 3, and
//! [`pipeline`] exposes the `BestNetwork` / `BestMarginal` ablations of §6.4.
//!
//! # Quickstart
//!
//! ```
//! use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
//! use privbayes_data::{Attribute, Dataset, Schema};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A toy binary dataset (use `privbayes-datasets` for realistic ones).
//! let schema = Schema::new(vec![
//!     Attribute::binary("smoker"),
//!     Attribute::binary("cough"),
//!     Attribute::binary("flu"),
//! ]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..200)
//!     .map(|i| {
//!         let s = (i % 3 == 0) as u32;
//!         vec![s, s, (i % 7 == 0) as u32]
//!     })
//!     .collect();
//! let data = Dataset::from_rows(schema, &rows).unwrap();
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let options = PrivBayesOptions::new(1.0);
//! let result = PrivBayes::new(options).synthesize(&data, &mut rng).unwrap();
//! assert_eq!(result.synthetic.n(), data.n());
//! assert_eq!(result.synthetic.d(), data.d());
//! ```

pub mod conditionals;
pub mod error;
pub mod greedy;
pub mod inference;
pub mod network;
pub mod nonprivate;
pub mod parent_sets;
pub mod pipeline;
pub mod sampler;
pub mod score;
pub mod theta;

pub use error::PrivBayesError;
pub use network::{ApPair, BayesianNetwork};
pub use pipeline::{PrivBayes, PrivBayesOptions, SynthesisResult};
pub use sampler::{CompiledSampler, RowStream, SampleSpec, CHUNK_ROWS};
pub use score::ScoreKind;
