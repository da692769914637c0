//! The tuple domain `T = A1 × A2 × … × Am`.
//!
//! A [`Domain`] is an ordered list of [`Attribute`]s together with a
//! mixed-radix codec between attribute-value vectors and dense indices in
//! `0..size`. The dense encoding is row-major with the *last* attribute
//! varying fastest, matching the usual odometer order.

use crate::attribute::Attribute;
use crate::error::DomainError;

/// A finite multi-attribute domain.
///
/// # Examples
///
/// ```
/// use bf_domain::Domain;
///
/// // gender × age-group × region
/// let domain = Domain::from_cardinalities(&[2, 4, 5]).unwrap();
/// assert_eq!(domain.size(), 40);
/// let idx = domain.encode(&[1, 2, 3]).unwrap();
/// assert_eq!(domain.decode(idx).unwrap(), vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    attributes: Vec<Attribute>,
    /// `strides[i]` = product of cardinalities of attributes `i+1..m`.
    strides: Vec<usize>,
    size: usize,
}

impl Domain {
    /// Builds a domain from its attributes.
    ///
    /// # Errors
    ///
    /// * [`DomainError::EmptyDomain`] when `attributes` is empty.
    /// * [`DomainError::DomainTooLarge`] when `∏|Ai|` overflows `usize`.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, DomainError> {
        if attributes.is_empty() {
            return Err(DomainError::EmptyDomain);
        }
        let m = attributes.len();
        let mut strides = vec![1usize; m];
        let mut size = 1usize;
        for i in (0..m).rev() {
            strides[i] = size;
            size = size
                .checked_mul(attributes[i].cardinality())
                .ok_or(DomainError::DomainTooLarge)?;
        }
        Ok(Self {
            attributes,
            strides,
            size,
        })
    }

    /// Convenience constructor: anonymous attributes with the given
    /// cardinalities.
    pub fn from_cardinalities(cards: &[usize]) -> Result<Self, DomainError> {
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| Attribute::new(format!("A{}", i + 1), c))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(attrs)
    }

    /// A 1-dimensional domain of the given size (used for ordered domains).
    pub fn line(size: usize) -> Result<Self, DomainError> {
        Self::from_cardinalities(&[size])
    }

    /// Number of attributes `m`.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Total number of domain values `|T|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The attributes, in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute at position `i`.
    pub fn attribute(&self, i: usize) -> &Attribute {
        &self.attributes[i]
    }

    /// Encodes an attribute-value vector into a dense index.
    ///
    /// # Errors
    ///
    /// * [`DomainError::ArityMismatch`] for the wrong number of values.
    /// * [`DomainError::ValueOutOfRange`] when a value exceeds its
    ///   attribute's cardinality.
    pub fn encode(&self, values: &[u32]) -> Result<usize, DomainError> {
        if values.len() != self.arity() {
            return Err(DomainError::ArityMismatch {
                expected: self.arity(),
                got: values.len(),
            });
        }
        let mut idx = 0usize;
        for (i, (&v, attr)) in values.iter().zip(&self.attributes).enumerate() {
            if (v as usize) >= attr.cardinality() {
                return Err(DomainError::ValueOutOfRange {
                    attribute: i,
                    value: v,
                    cardinality: attr.cardinality(),
                });
            }
            idx += (v as usize) * self.strides[i];
        }
        Ok(idx)
    }

    /// Decodes a dense index into attribute values.
    ///
    /// # Errors
    ///
    /// [`DomainError::IndexOutOfRange`] when `index >= size()`.
    pub fn decode(&self, index: usize) -> Result<Vec<u32>, DomainError> {
        if index >= self.size {
            return Err(DomainError::IndexOutOfRange {
                index,
                size: self.size,
            });
        }
        let mut out = Vec::with_capacity(self.arity());
        let mut rest = index;
        for (i, _attr) in self.attributes.iter().enumerate() {
            out.push((rest / self.strides[i]) as u32);
            rest %= self.strides[i];
        }
        Ok(out)
    }

    /// Value of attribute `attr` inside the encoded index, without a full
    /// decode. Panics if `attr >= arity()`.
    pub fn attribute_value(&self, index: usize, attr: usize) -> u32 {
        debug_assert!(index < self.size);
        ((index / self.strides[attr]) % self.attributes[attr].cardinality()) as u32
    }

    /// Number of attributes on which `x` and `y` differ (Hamming distance on
    /// attribute vectors). This is exactly the shortest-path distance in the
    /// attribute secret graph `G^attr`.
    pub fn hamming(&self, x: usize, y: usize) -> usize {
        (0..self.arity())
            .filter(|&i| self.attribute_value(x, i) != self.attribute_value(y, i))
            .count()
    }

    /// L1 distance between `x` and `y` in the ordinal embedding: the sum of
    /// absolute value-index differences per attribute. This is the metric
    /// `d` used by `G^{d,θ}` for ordinal/grid data.
    pub fn l1(&self, x: usize, y: usize) -> u64 {
        (0..self.arity())
            .map(|i| {
                let a = self.attribute_value(x, i) as i64;
                let b = self.attribute_value(y, i) as i64;
                (a - b).unsigned_abs()
            })
            .sum()
    }

    /// Diameter of the domain under the L1 ordinal metric:
    /// `d(T) = Σ_i (|Ai| − 1)` (the largest L1 distance between any two
    /// points, Section 6 of the paper).
    pub fn l1_diameter(&self) -> u64 {
        self.attributes.iter().map(|a| a.diameter() as u64).sum()
    }

    /// Iterator over all dense indices `0..size()`.
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.size
    }

    /// Human-readable rendering of the value at `index`.
    pub fn render(&self, index: usize) -> String {
        match self.decode(index) {
            Ok(vals) => {
                let parts: Vec<String> = vals
                    .iter()
                    .zip(&self.attributes)
                    .map(|(&v, a)| a.label(v))
                    .collect();
                format!("({})", parts.join(", "))
            }
            Err(_) => format!("<invalid:{index}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Domain {
        // The running example of Section 8: A1={a1,a2}, A2={b1,b2},
        // A3={c1,c2,c3}.
        Domain::from_cardinalities(&[2, 2, 3]).unwrap()
    }

    #[test]
    fn size_is_product() {
        assert_eq!(abc().size(), 12);
        assert_eq!(
            Domain::from_cardinalities(&[400, 300]).unwrap().size(),
            120_000
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let d = abc();
        for i in d.indices() {
            let t = d.decode(i).unwrap();
            assert_eq!(d.encode(&t).unwrap(), i);
        }
    }

    #[test]
    fn encode_is_odometer_order() {
        let d = abc();
        assert_eq!(d.encode(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(d.encode(&[0, 0, 1]).unwrap(), 1);
        assert_eq!(d.encode(&[0, 1, 0]).unwrap(), 3);
        assert_eq!(d.encode(&[1, 0, 0]).unwrap(), 6);
        assert_eq!(d.encode(&[1, 1, 2]).unwrap(), 11);
    }

    #[test]
    fn encode_rejects_bad_input() {
        let d = abc();
        assert!(matches!(
            d.encode(&[0, 0]),
            Err(DomainError::ArityMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            d.encode(&[0, 0, 3]),
            Err(DomainError::ValueOutOfRange { attribute: 2, .. })
        ));
        assert!(matches!(
            d.decode(12),
            Err(DomainError::IndexOutOfRange {
                index: 12,
                size: 12
            })
        ));
    }

    #[test]
    fn attribute_value_matches_decode() {
        let d = abc();
        for i in d.indices() {
            let t = d.decode(i).unwrap();
            for (a, &v) in t.iter().enumerate() {
                assert_eq!(d.attribute_value(i, a), v);
            }
        }
    }

    #[test]
    fn hamming_and_l1() {
        let d = abc();
        let x = d.encode(&[0, 0, 0]).unwrap();
        let y = d.encode(&[1, 0, 2]).unwrap();
        assert_eq!(d.hamming(x, y), 2);
        assert_eq!(d.l1(x, y), 3);
        assert_eq!(d.l1_diameter(), 1 + 1 + 2);
    }

    #[test]
    fn line_domain() {
        let d = Domain::line(5).unwrap();
        assert_eq!(d.arity(), 1);
        assert_eq!(d.size(), 5);
        assert_eq!(d.l1(0, 4), 4);
    }

    #[test]
    fn render_uses_labels() {
        let a = Attribute::with_labels("g", vec!["m".into(), "f".into()]).unwrap();
        let b = Attribute::new("age", 3).unwrap();
        let d = Domain::new(vec![a, b]).unwrap();
        assert_eq!(d.render(d.encode(&[1, 2]).unwrap()), "(f, 2)");
    }

    #[test]
    fn overflow_detected() {
        let big = usize::MAX / 2;
        assert!(matches!(
            Domain::from_cardinalities(&[big, 3]),
            Err(DomainError::DomainTooLarge)
        ));
    }
}
