//! Differential-privacy primitives for the PrivBayes reproduction.
//!
//! Implements the two mechanisms the paper relies on (§2.1):
//!
//! * the **Laplace mechanism** ([`laplace`]) for numeric releases, used by
//!   PrivBayes' distribution-learning phase and most baselines;
//! * the **exponential mechanism** ([`exponential`]) for categorical
//!   selections, used by the network-learning phase;
//! * the **geometric mechanism** ([`geometric`]) — the discrete analogue of
//!   Laplace for count-scale releases, used by the noise-distribution
//!   ablation;
//!
//! plus [`budget`] (sequential-composition accounting, Theorem 3.2),
//! [`stats`] (Gaussian/Gamma/Dirichlet samplers needed by substrates such as
//! PrivateERM's noise vector and the synthetic-dataset generators — the
//! offline crate set has no `rand_distr`), and [`alias`] (O(1) discrete
//! sampling for the synthesis hot loop: every slice of a conditional
//! compiled into one flat alias array, drawn with a branch-free select).

pub mod alias;
pub mod budget;
pub mod error;
pub mod exponential;
pub mod geometric;
pub mod laplace;
pub mod stats;

pub use alias::AliasSlices;
pub use budget::{BudgetSplit, PrivacyBudget};
pub use error::DpError;
pub use exponential::exponential_mechanism;
pub use geometric::{geometric_mechanism, sample_two_sided_geometric};
pub use laplace::{laplace_mechanism, sample_laplace};
