//! Labeled feature datasets.

use crate::MlError;

/// Binary class label. Positive = *altered / attack* throughout the
/// workspace (matching the paper's positive class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Genuine measurement (the subject's own signal pair).
    Negative,
    /// Altered measurement (ECG replaced by another subject's).
    Positive,
}

impl Label {
    /// The ±1 sign used in SVM formulations.
    pub fn sign(self) -> f64 {
        match self {
            Label::Positive => 1.0,
            Label::Negative => -1.0,
        }
    }

    /// Construct from a signed decision value.
    pub fn from_sign(v: f64) -> Self {
        if v > 0.0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Positive => write!(f, "positive"),
            Label::Negative => write!(f, "negative"),
        }
    }
}

/// A labeled dataset with a fixed feature dimension.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    dim: usize,
    features: Vec<Vec<f64>>,
    labels: Vec<Label>,
}

impl Dataset {
    /// Create an empty dataset whose samples will have `dim` features.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, MlError> {
        if dim == 0 {
            return Err(MlError::InvalidParameter {
                name: "dim",
                reason: "feature dimension must be positive",
            });
        }
        Ok(Self {
            dim,
            features: Vec::new(),
            labels: Vec::new(),
        })
    }

    /// Append one labeled sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `x.len() != dim` and
    /// [`MlError::NonFiniteFeature`] if `x` contains NaN/infinity.
    pub fn push(&mut self, x: Vec<f64>, y: Label) -> Result<(), MlError> {
        if x.len() != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteFeature);
        }
        self.features.push(x);
        self.labels.push(y);
        Ok(())
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Borrow sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn sample(&self, i: usize) -> (&[f64], Label) {
        (&self.features[i], self.labels[i])
    }

    /// All feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// All labels.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Count of samples with the given label.
    pub fn count(&self, label: Label) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// Whether both classes are present.
    pub fn has_both_classes(&self) -> bool {
        self.count(Label::Positive) > 0 && self.count(Label::Negative) > 0
    }

    /// Iterate `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], Label)> + '_ {
        self.features
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// Merge another dataset into this one.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if dimensions differ.
    pub fn extend(&mut self, other: &Dataset) -> Result<(), MlError> {
        if other.dim != self.dim {
            return Err(MlError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        self.features.extend(other.features.iter().cloned());
        self.labels.extend(other.labels.iter().copied());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        d.push(vec![0.0, 1.0], Label::Negative).unwrap();
        d.push(vec![1.0, 0.0], Label::Positive).unwrap();
        d.push(vec![2.0, 2.0], Label::Positive).unwrap();
        d
    }

    #[test]
    fn push_and_count() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.count(Label::Positive), 2);
        assert_eq!(d.count(Label::Negative), 1);
        assert!(d.has_both_classes());
    }

    #[test]
    fn dimension_enforced() {
        let mut d = Dataset::new(2).unwrap();
        assert_eq!(
            d.push(vec![1.0], Label::Positive),
            Err(MlError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn non_finite_rejected() {
        let mut d = Dataset::new(1).unwrap();
        assert_eq!(
            d.push(vec![f64::NAN], Label::Positive),
            Err(MlError::NonFiniteFeature)
        );
        assert_eq!(
            d.push(vec![f64::INFINITY], Label::Positive),
            Err(MlError::NonFiniteFeature)
        );
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(Dataset::new(0).is_err());
    }

    #[test]
    fn extend_merges() {
        let mut a = tiny();
        let b = tiny();
        a.extend(&b).unwrap();
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn extend_rejects_dim_mismatch() {
        let mut a = tiny();
        let b = Dataset::new(3).unwrap();
        assert!(a.extend(&b).is_err());
    }

    #[test]
    fn label_sign_round_trip() {
        assert_eq!(Label::from_sign(Label::Positive.sign()), Label::Positive);
        assert_eq!(Label::from_sign(Label::Negative.sign()), Label::Negative);
        assert_eq!(Label::from_sign(0.0), Label::Negative);
    }

    #[test]
    fn label_display() {
        assert_eq!(Label::Positive.to_string(), "positive");
        assert_eq!(Label::Negative.to_string(), "negative");
    }
}
