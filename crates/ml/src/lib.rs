//! Classification substrate for the PrivBayes evaluation (§6.1, §6.6):
//!
//! * [`features`] — one-hot feature extraction with unit-ball normalisation
//!   (required by PrivateERM's analysis);
//! * [`svm`] — a linear hinge-loss C-SVM trained by Pegasos-style projected
//!   sub-gradient descent (the paper uses LIBSVM's linear C-SVM with C = 1;
//!   this dependency-free solver minimises the same objective);
//! * [`private_erm`] — PrivateERM, the objective-perturbation ERM of
//!   Chaudhuri, Monteleoni & Sarwate \[8\] with Huber loss;
//! * [`privgene`] — PrivGene, genetic model fitting with an exponential-
//!   mechanism selection step (Zhang et al. \[50\]);
//! * [`majority`] — the noisy-majority constant classifier;
//! * [`eval`] — misclassification-rate evaluation.
//!
//! PrivBayes itself never appears here: it trains ordinary (non-private)
//! SVMs on its synthetic output, which is the point of the comparison.

pub mod eval;
pub mod features;
pub mod majority;
pub mod private_erm;
pub mod privgene;
pub mod svm;

pub use eval::misclassification_rate;
pub use features::FeatureMatrix;
pub use majority::MajorityClassifier;
pub use private_erm::{PrivateErm, PrivateErmOptions};
pub use privgene::{PrivGene, PrivGeneOptions};
pub use svm::LinearSvm;
