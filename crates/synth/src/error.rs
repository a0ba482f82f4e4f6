//! Error type of the synthesizer layer.

use std::fmt;

/// Errors surfaced by [`crate::fit_method`].
#[derive(Debug)]
pub enum SynthError {
    /// Bad parameters or data shape for the chosen method.
    InvalidConfig(String),
    /// A core PrivBayes phase failed.
    Core(privbayes::PrivBayesError),
    /// The fitted model failed artifact validation (indicates a bug in the
    /// artifact construction, not user error).
    Model(privbayes_model::ModelError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SynthError::Core(e) => write!(f, "{e}"),
            SynthError::Model(e) => write!(f, "artifact: {e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::InvalidConfig(_) => None,
            SynthError::Core(e) => Some(e),
            SynthError::Model(e) => Some(e),
        }
    }
}

impl From<privbayes::PrivBayesError> for SynthError {
    fn from(e: privbayes::PrivBayesError) -> Self {
        SynthError::Core(e)
    }
}

impl From<privbayes_model::ModelError> for SynthError {
    fn from(e: privbayes_model::ModelError) -> Self {
        SynthError::Model(e)
    }
}
