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
//! [`engine::CountEngine`] is the shared source of joints for every
//! marginal-consuming algorithm in the suite — network learning, the noisy
//! conditionals, the §6 baselines, and the relational fact model all read
//! their joints from it. Its contract, relied on by the parallel scoring and
//! equivalence tests in `privbayes`:
//!
//! * **Counting.** Every request counts the rows; the engine keeps no
//!   tables. `child_joints` counts `[parents…, child]` for many children
//!   in one blocked radix pass that shares the parents' work among them,
//!   and a single joint the bit backend does not serve takes the same
//!   pass with its last axis as the one child. `subset_counts` walks every subset of at most `K` binary attributes
//!   once and returns the counts as an owned [`SubsetCounts`], from which
//!   each binary `[parents…, child]` table is built without a scan; the
//!   greedy search keeps one for the whole fit.
//! * **Determinism.** Both scan backends — radix row scan and bit-packed
//!   popcount — produce identical integer counts, alone, in a group of
//!   children or through a subset lattice walked on any number of threads,
//!   and probabilities are always `count · (1/n)`, the exact expression
//!   [`ContingencyTable::from_dataset`] uses. Engine output is therefore
//!   bit-identical to `from_dataset` regardless of request order, thread
//!   or thread count.

pub mod consistency;
pub mod engine;
pub mod metrics;
pub mod query;
pub mod table;

pub use consistency::{clamp_and_normalize, mutual_consistency, shared_axes};
pub use engine::{probs_into, CountEngine, CountTable, EngineStats, SubsetCounts};
pub use metrics::{average_workload_tvd, total_variation};
pub use query::AlphaWayWorkload;
pub use table::{project_values, projected_cells, Axis, ContingencyTable};
