//! Schemas: ordered collections of attributes.

use crate::attribute::Attribute;
use crate::error::DataError;

/// An ordered set of attributes describing one relational table.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from a list of attributes.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidDomain`] if empty or if a name holds `,`,
    /// `\r` or `\n` (a CSV header cannot carry it), or
    /// [`DataError::UnknownAttribute`] (reused) if two attributes share a name.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, DataError> {
        if attributes.is_empty() {
            return Err(DataError::InvalidDomain("schema has no attributes".into()));
        }
        for (i, a) in attributes.iter().enumerate() {
            if a.name().contains([',', '\r', '\n']) {
                return Err(DataError::InvalidDomain(format!(
                    "attribute name {:?} cannot be a CSV header cell: names hold no `,`, \
                     `\\r` or `\\n`",
                    a.name()
                )));
            }
            if attributes[..i].iter().any(|b| b.name() == a.name()) {
                return Err(DataError::UnknownAttribute(format!(
                    "duplicate attribute name `{}`",
                    a.name()
                )));
            }
        }
        Ok(Self { attributes })
    }

    /// Number of attributes (the paper's `d`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Always false: schemas are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Attribute at `index`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn attribute(&self, index: usize) -> &Attribute {
        &self.attributes[index]
    }

    /// All attributes in order.
    #[must_use]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Index of the attribute named `name`.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name() == name)
    }

    /// Domain sizes in attribute order.
    #[must_use]
    pub fn domain_sizes(&self) -> Vec<usize> {
        self.attributes.iter().map(Attribute::domain_size).collect()
    }

    /// log2 of the total domain size (Table 5's "Domain size" column).
    #[must_use]
    pub fn total_domain_log2(&self) -> f64 {
        self.attributes.iter().map(|a| (a.domain_size() as f64).log2()).sum()
    }

    /// Whether every attribute is binary.
    #[must_use]
    pub fn all_binary(&self) -> bool {
        self.attributes.iter().all(Attribute::is_binary)
    }

    /// Product of the domain sizes of `subset` (saturating).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    #[must_use]
    pub fn subset_domain_size(&self, subset: &[usize]) -> usize {
        subset.iter().map(|&i| self.attributes[i].domain_size()).fold(1usize, usize::saturating_mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_schema() -> Schema {
        Schema::new(vec![
            Attribute::binary("a"),
            Attribute::categorical("b", 3).unwrap(),
            Attribute::continuous("c", 0.0, 1.0, 4).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn len_and_lookup() {
        let s = small_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zzz"), None);
        assert_eq!(s.attribute(2).name(), "c");
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![Attribute::binary("x"), Attribute::binary("x")]);
        assert!(r.is_err());
    }

    #[test]
    fn names_a_csv_header_cannot_carry_are_rejected() {
        for name in ["a,b", "two\nlines", "cr\r"] {
            let refused = Schema::new(vec![Attribute::binary("ok"), Attribute::binary(name)]);
            assert!(matches!(refused, Err(DataError::InvalidDomain(_))), "{name:?}");
        }
        assert!(Schema::new(vec![Attribute::binary("a;b"), Attribute::binary("é 😀")]).is_ok());
    }

    #[test]
    fn empty_rejected() {
        assert!(Schema::new(vec![]).is_err());
    }

    #[test]
    fn domain_math() {
        let s = small_schema();
        assert_eq!(s.domain_sizes(), vec![2, 3, 4]);
        assert!((s.total_domain_log2() - (24f64).log2()).abs() < 1e-12);
        assert_eq!(s.subset_domain_size(&[0, 2]), 8);
        assert!(!s.all_binary());
    }

    #[test]
    fn all_binary_detection() {
        let s = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
        assert!(s.all_binary());
    }
}
