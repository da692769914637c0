//! The privacy parameter ε.

use crate::error::CoreError;
use std::fmt;

/// A validated privacy-loss parameter `ε > 0`.
///
/// ε is the "knob" differential privacy exposes; Blowfish keeps it and adds
/// the policy as a second, richer knob (Section 1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Validates and wraps an ε value — not the whole check a request's ε
    /// needs: a subnormal ε is a valid `Epsilon`, but `S(f, P)/ε`
    /// overflows, and the serving engine refuses such a request.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] unless `0 < ε < ∞`.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(CoreError::InvalidEpsilon(value));
        }
        Ok(Self(value))
    }

    /// The raw value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = CoreError;

    fn try_from(v: f64) -> Result<Self, CoreError> {
        Epsilon::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
    }

    #[test]
    fn display_and_try_from() {
        let e: Epsilon = 0.5f64.try_into().unwrap();
        assert_eq!(e.to_string(), "ε=0.5");
    }
}
