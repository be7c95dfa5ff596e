//! Signal normalization.
//!
//! SIFT builds its two-dimensional *portrait* from min–max–normalized ECG
//! and ABP snippets, so every portrait point lies in the unit square
//! (paper §II-A, "Feature Extraction").

use crate::stats;
use crate::DspError;

/// Min–max normalization of `samples` to the unit interval `[0, 1]`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on empty input,
/// [`DspError::NonFiniteInput`] on NaN/infinite input and
/// [`DspError::ConstantSignal`] when `max == min` (the scale is undefined).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// let n = dsp::normalize::min_max(&[10.0, 20.0, 15.0])?;
/// assert_eq!(n, vec![0.0, 1.0, 0.5]);
/// # Ok(())
/// # }
/// ```
pub fn min_max(samples: &[f64]) -> Result<Vec<f64>, DspError> {
    let (lo, hi) = stats::min_max(samples)?;
    if !lo.is_finite() || !hi.is_finite() {
        return Err(DspError::NonFiniteInput);
    }
    if hi == lo {
        return Err(DspError::ConstantSignal);
    }
    let span = hi - lo;
    Ok(samples.iter().map(|x| (x - lo) / span).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_unit_interval() {
        let n = min_max(&[5.0, 7.0, 9.0]).unwrap();
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_constant_errors() {
        assert_eq!(min_max(&[2.0, 2.0]), Err(DspError::ConstantSignal));
    }

    #[test]
    fn min_max_single_sample_errors() {
        // A single sample is constant by definition.
        assert_eq!(min_max(&[3.0]), Err(DspError::ConstantSignal));
    }

    #[test]
    fn min_max_rejects_nan() {
        assert_eq!(min_max(&[1.0, f64::NAN]), Err(DspError::NonFiniteInput));
    }
}
