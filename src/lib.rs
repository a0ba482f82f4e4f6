//! Umbrella crate for the PrivBayes reproduction suite.
//!
//! Re-exports the individual crates under short module names so the
//! root-level examples and integration tests can use a single dependency:
//!
//! | module | crate |
//! |---|---|
//! | [`core`] | `privbayes` (network learning, conditionals, sampling) |
//! | [`baselines`] | `privbayes-baselines` |
//! | [`data`] | `privbayes-data` |
//! | [`datasets`] | `privbayes-datasets` |
//! | [`dp`] | `privbayes-dp` |
//! | [`marginals`] | `privbayes-marginals` |
//! | [`ml`] | `privbayes-ml` |
//! | [`model`] | `privbayes-model` |
//! | [`obs`] | `privbayes-obs` (metrics, span timing, exposition format) |
//! | [`relational`] | `privbayes-relational` |
//! | [`server`] | `privbayes-server` (serving layer: registry, ledger, streaming) |
//! | [`synth`] | `privbayes-synth` (the unified synthesis layer: `fit_method`) |
//!
//! Library users should depend on the individual crates directly; this crate
//! exists for the workspace's own `tests/` and `examples/` targets (see
//! `tests/README.md` for the test-tier layout).

pub use privbayes as core;
pub use privbayes_baselines as baselines;
pub use privbayes_data as data;
pub use privbayes_datasets as datasets;
pub use privbayes_dp as dp;
pub use privbayes_marginals as marginals;
pub use privbayes_ml as ml;
pub use privbayes_model as model;
pub use privbayes_obs as obs;
pub use privbayes_relational as relational;
pub use privbayes_server as server;
pub use privbayes_synth as synth;
