//! Totally ordered 1-D domains.
//!
//! Section 7 of the paper works over a domain `T = {x1, …, x|T|}` with a
//! total ordering `x1 ≤ … ≤ x|T|`. [`OrderedDomain`] captures that view:
//! a size and the physical width of one step (e.g. kilometres per
//! latitude bin), so a physical distance threshold becomes an index one.

use crate::error::DomainError;

/// A totally ordered one-dimensional domain.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedDomain {
    size: usize,
    /// Physical width of one step between adjacent values, used to translate
    /// a physical threshold (e.g. "500 km") into a value-index threshold θ.
    step_width: f64,
}

impl OrderedDomain {
    /// Creates an ordered domain whose adjacent values are `step_width`
    /// physical units apart (e.g. 0.05° latitude ≈ 5.55 km).
    ///
    /// # Errors
    ///
    /// [`DomainError::EmptyDomain`] if `size == 0`.
    pub fn with_step_width(size: usize, step_width: f64) -> Result<Self, DomainError> {
        if size == 0 {
            return Err(DomainError::EmptyDomain);
        }
        assert!(step_width > 0.0, "step width must be positive");
        Ok(Self { size, step_width })
    }

    /// Converts a physical threshold into the largest value-index threshold
    /// θ such that indices within θ steps are within the physical threshold.
    ///
    /// A physical threshold smaller than one step clamps to θ = 1 (adjacent
    /// values are always secrets — the line graph of Section 7.1).
    pub fn theta_for_physical(&self, physical: f64) -> usize {
        assert!(physical > 0.0, "physical threshold must be positive");
        let theta = (physical / self.step_width).floor() as usize;
        theta.clamp(1, self.size.saturating_sub(1).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert!(OrderedDomain::with_step_width(0, 1.0).is_err());
    }

    #[test]
    fn theta_conversion() {
        // twitter latitude: 400 bins, ~5.55 km per bin.
        let d = OrderedDomain::with_step_width(400, 5.55).unwrap();
        assert_eq!(d.theta_for_physical(500.0), 90); // 500/5.55 = 90.09
        assert_eq!(d.theta_for_physical(5.0), 1); // sub-step clamps to 1
    }

    #[test]
    fn theta_never_exceeds_domain() {
        let d = OrderedDomain::with_step_width(10, 1.0).unwrap();
        assert_eq!(d.theta_for_physical(1e9), 9);
    }
}
