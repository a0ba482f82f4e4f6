//! Count-query baselines from the PrivBayes evaluation (§6.1, §6.5):
//!
//! * [`laplace_marginals()`] — Laplace noise straight into every workload
//!   marginal \[19\], plus its count-scale twin [`geometric_marginals()`];
//! * [`fourier`] — the Barak et al. Fourier/contingency approach \[2\] on
//!   binary domains (non-binary data is binarised first);
//! * [`contingency`] — materialise the full-domain contingency table, add
//!   noise, project (only feasible for NLTCS/ACS-scale domains);
//! * [`mwem`] — the multiplicative-weights exponential-mechanism data-release
//!   algorithm \[26\];
//! * [`uniform`] — the trivial uniform-distribution baseline.
//!
//! All baselines answer an [`privbayes_marginals::AlphaWayWorkload`] by
//! returning one noisy [`privbayes_marginals::ContingencyTable`] per subset
//! (consistency post-processing applied), so they share the accuracy metric
//! with PrivBayes.
//!
//! Since PR 4, every baseline draws its **exact** marginals from a shared
//! [`privbayes_marginals::CountEngine`] instead of re-scanning the dataset
//! per marginal; Fourier, which works in the binarised domain, builds its
//! own engine over the binarised table. Engine joints are bit-identical to
//! `ContingencyTable::from_dataset`, so outputs are unchanged for a fixed
//! seed — `tests/synthesizer_equivalence.rs` pins this against the
//! pre-refactor references in `privbayes_bench::reference`.

pub mod contingency;
pub mod fourier;
pub mod geometric_marginals;
pub mod laplace_marginals;
pub mod mwem;
pub mod uniform;

pub use contingency::contingency_marginals;
pub use fourier::fourier_marginals;
pub use geometric_marginals::geometric_marginals;
pub use laplace_marginals::laplace_marginals;
pub use mwem::{mwem_fit, mwem_marginals, MwemFit, MwemOptions};
pub use uniform::uniform_marginals;
