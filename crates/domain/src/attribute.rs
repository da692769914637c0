//! Categorical attributes.
//!
//! An attribute `A_i` in the paper is a finite set of values. We represent
//! values by dense indices `0..cardinality` and keep optional human-readable
//! labels for examples and debugging output.

use crate::error::DomainError;

/// A categorical attribute: one dimension of the domain `T = A1 × … × Am`.
///
/// Values are dense indices `0..cardinality()`. Ordinal attributes (age,
/// salary, latitude bins, …) simply interpret the index order as the value
/// order; this is what the distance-threshold secret graphs `G^{d,θ}` of the
/// paper do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    cardinality: usize,
    labels: Option<Vec<String>>,
}

impl Attribute {
    /// Creates an attribute with `cardinality` anonymous values.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::EmptyAttribute`] if `cardinality == 0`.
    pub fn new(name: impl Into<String>, cardinality: usize) -> Result<Self, DomainError> {
        let name = name.into();
        if cardinality == 0 {
            return Err(DomainError::EmptyAttribute { name });
        }
        Ok(Self {
            name,
            cardinality,
            labels: None,
        })
    }

    /// Creates an attribute from explicit value labels.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::EmptyAttribute`] if `labels` is empty.
    pub fn with_labels(name: impl Into<String>, labels: Vec<String>) -> Result<Self, DomainError> {
        let name = name.into();
        if labels.is_empty() {
            return Err(DomainError::EmptyAttribute { name });
        }
        Ok(Self {
            name,
            cardinality: labels.len(),
            labels: Some(labels),
        })
    }

    /// Number of values, written `|A|` in the paper.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Label of value `v`, falling back to the index when the attribute is
    /// anonymous.
    pub fn label(&self, v: u32) -> String {
        match &self.labels {
            Some(labels) => labels
                .get(v as usize)
                .cloned()
                .unwrap_or_else(|| format!("<{v}>")),
            None => v.to_string(),
        }
    }

    /// Maximum ordinal distance between two values, `|A| - 1`.
    ///
    /// This is the quantity `|A|` in Lemma 6.1 interpreted as the diameter of
    /// the attribute under the L1 metric on value indices.
    pub fn diameter(&self) -> usize {
        self.cardinality - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            Attribute::new("a", 0),
            Err(DomainError::EmptyAttribute { name: "a".into() })
        );
    }

    #[test]
    fn labels_round_trip() {
        let a = Attribute::with_labels(
            "disease",
            vec!["flu".into(), "cancer".into(), "none".into()],
        )
        .unwrap();
        assert_eq!(a.cardinality(), 3);
        assert_eq!(a.label(1), "cancer");
    }

    #[test]
    fn anonymous_labels_fall_back_to_index() {
        let a = Attribute::new("r", 4).unwrap();
        assert_eq!(a.label(3), "3");
    }

    #[test]
    fn diameter_is_cardinality_minus_one() {
        let a = Attribute::new("x", 256).unwrap();
        assert_eq!(a.diameter(), 255);
    }

    #[test]
    fn out_of_range_label_is_marked() {
        let a = Attribute::with_labels("g", vec!["m".into(), "f".into()]).unwrap();
        assert_eq!(a.label(7), "<7>");
    }
}
