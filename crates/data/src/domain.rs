//! Finite, coded attribute domains.

use crate::error::DataError;

/// A finite domain of attribute values.
///
/// Values are referred to by dense codes `0..size`. Labels are optional and
/// only used for display / CSV round-trips; all algorithms operate on codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    size: usize,
    labels: Option<Vec<String>>,
}

impl Domain {
    /// Creates an unlabelled domain with `size` values.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidDomain`] if `size == 0`.
    pub fn new(size: usize) -> Result<Self, DataError> {
        if size == 0 {
            return Err(DataError::InvalidDomain("domain must contain at least one value".into()));
        }
        Ok(Self { size, labels: None })
    }

    /// Creates a labelled domain; the domain size is the number of labels.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidDomain`] if `labels` is empty, contains
    /// duplicates, or holds a label that a CSV cell cannot carry: an empty
    /// one, or one with `,`, `\r` or `\n`.
    pub fn with_labels<I, S>(labels: I) -> Result<Self, DataError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        if labels.is_empty() {
            return Err(DataError::InvalidDomain("label list is empty".into()));
        }
        for (i, a) in labels.iter().enumerate() {
            if a.is_empty() || a.contains([',', '\r', '\n']) {
                return Err(DataError::InvalidDomain(format!(
                    "label {a:?} cannot be a CSV cell: labels are non-empty and hold no `,`, \
                     `\\r` or `\\n`"
                )));
            }
            if labels[..i].contains(a) {
                return Err(DataError::InvalidDomain(format!("duplicate label `{a}`")));
            }
        }
        Ok(Self { size: labels.len(), labels: Some(labels) })
    }

    /// A binary domain `{0, 1}`.
    #[must_use]
    pub fn binary() -> Self {
        Self { size: 2, labels: None }
    }

    /// Number of values in the domain.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether the domain is binary.
    #[must_use]
    pub fn is_binary(&self) -> bool {
        self.size == 2
    }

    /// Label of `code`, or a synthesised `"v{code}"` if unlabelled.
    ///
    /// # Panics
    /// Panics if `code` is out of the domain.
    #[must_use]
    pub fn label(&self, code: u32) -> String {
        assert!((code as usize) < self.size, "code {code} out of domain of size {}", self.size);
        match &self.labels {
            Some(labels) => labels[code as usize].clone(),
            None => format!("v{code}"),
        }
    }

    /// Looks up the code of a label (only for labelled domains).
    #[must_use]
    pub fn code_of(&self, label: &str) -> Option<u32> {
        self.labels.as_ref().and_then(|ls| ls.iter().position(|l| l == label)).map(|i| i as u32)
    }

    /// The explicit labels, if the domain was built with [`Domain::with_labels`].
    ///
    /// Unlabelled domains return `None` (their display labels are synthesised
    /// on the fly by [`Domain::label`]).
    #[must_use]
    pub fn labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// Checks that `code` lies in the domain.
    #[must_use]
    pub fn contains(&self, code: u32) -> bool {
        (code as usize) < self.size
    }

    /// Iterator over all codes in the domain.
    pub fn codes(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.size as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert!(Domain::new(0).is_err());
        assert!(Domain::new(1).is_ok());
    }

    #[test]
    fn binary_domain() {
        let d = Domain::binary();
        assert_eq!(d.size(), 2);
        assert!(d.is_binary());
        assert!(d.contains(1));
        assert!(!d.contains(2));
    }

    #[test]
    fn labels_round_trip() {
        let d = Domain::with_labels(["private", "government", "self-employed"]).unwrap();
        assert_eq!(d.size(), 3);
        assert_eq!(d.label(1), "government");
        assert_eq!(d.code_of("self-employed"), Some(2));
        assert_eq!(d.code_of("nope"), None);
    }

    #[test]
    fn duplicate_labels_rejected() {
        assert!(Domain::with_labels(["a", "b", "a"]).is_err());
    }

    #[test]
    fn labels_a_csv_cell_cannot_carry_are_rejected() {
        for label in ["", "New York, NY", "two\nlines", "cr\r", ","] {
            let refused = Domain::with_labels(["ok", label]);
            assert!(matches!(refused, Err(DataError::InvalidDomain(_))), "{label:?}");
        }
        assert!(Domain::with_labels(["New York; NY", " ", "tab\t", "v1", "0"]).is_ok());
    }

    #[test]
    fn unlabelled_labels_synthesised() {
        let d = Domain::new(4).unwrap();
        assert_eq!(d.label(3), "v3");
        assert_eq!(d.code_of("v3"), None, "unlabelled domains do not reverse-lookup");
    }

    #[test]
    fn codes_iterates_whole_domain() {
        let d = Domain::new(5).unwrap();
        let codes: Vec<u32> = d.codes().collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn label_panics_out_of_domain() {
        let _ = Domain::new(2).unwrap().label(5);
    }
}
