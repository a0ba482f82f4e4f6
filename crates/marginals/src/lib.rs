//! Contingency-table engine for the PrivBayes reproduction.
//!
//! Materialises joint distributions over (possibly generalised) attribute
//! subsets in O(n·k) time, projects them to sub-marginals, enumerates α-way
//! marginal workloads (the paper's `Q_α` count-query task), computes
//! total-variation accuracy metrics, and applies consistency post-processing:
//! per-table non-negativity + renormalisation (used by both PrivBayes and the
//! baselines) and cross-table [`consistency::mutual_consistency`] (the §3
//! footnote-1 optimisation).
//!
//! # The count engine
//!
//! [`engine::CountEngine`] is the shared, memoising source of joints for
//! every marginal-consuming algorithm in the suite — network learning, the
//! noisy conditionals, the §6 baselines, and the relational fact model all
//! read their joints from it. Its contract, relied on by the parallel
//! scoring and equivalence tests in `privbayes`:
//!
//! * **Caching.** Tables are cached keyed by the *sorted* (attr, level) axis
//!   set; a request whose axis set is a subset of a cached joint is answered
//!   by integer projection instead of a fresh row scan. The cache is
//!   thread-safe and lives until the engine's next `append`, which drops
//!   it.
//! * **Determinism.** Every materialisation strategy — radix row scan,
//!   bit-packed popcount, cached projection — produces identical integer
//!   counts, and probabilities are always `count · (1/n)`, the exact
//!   expression [`ContingencyTable::from_dataset`] uses. Engine output is
//!   therefore bit-identical to `from_dataset` regardless of cache state,
//!   request order, or which thread populated the cache first.

pub mod consistency;
pub mod engine;
pub mod metrics;
pub mod query;
pub mod table;

pub use consistency::{clamp_and_normalize, mutual_consistency, shared_axes};
pub use engine::{CountEngine, CountTable, EngineStats};
pub use metrics::{average_workload_tvd, total_variation};
pub use query::AlphaWayWorkload;
pub use table::{Axis, ContingencyTable};
