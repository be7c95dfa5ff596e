//! Descriptive statistics over `f64` slices.
//!
//! All functions reject empty input with [`DspError::EmptyInput`] rather
//! than returning NaN, so downstream feature extraction never silently
//! propagates undefined values.

use crate::DspError;

/// Arithmetic mean of `samples`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dsp::DspError> {
/// assert_eq!(dsp::stats::mean(&[1.0, 2.0, 3.0])?, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn mean(samples: &[f64]) -> Result<f64, DspError> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Population variance (divides by `n`).
///
/// The paper's *simplified* detector uses variance instead of standard
/// deviation precisely to avoid a square root on the Amulet (§III).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty.
pub fn variance(samples: &[f64]) -> Result<f64, DspError> {
    let m = mean(samples)?;
    let ss: f64 = samples.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / samples.len() as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty.
pub fn std_dev(samples: &[f64]) -> Result<f64, DspError> {
    Ok(variance(samples)?.sqrt())
}

/// Root mean square of `samples`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty.
#[cfg(test)]
pub fn rms(samples: &[f64]) -> Result<f64, DspError> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let ms = samples.iter().map(|x| x * x).sum::<f64>() / samples.len() as f64;
    Ok(ms.sqrt())
}

/// Minimum of `samples` (NaN-free inputs assumed; NaN is rejected).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty and
/// [`DspError::NonFiniteInput`] if any sample is NaN.
pub fn min(samples: &[f64]) -> Result<f64, DspError> {
    fold_extreme(samples, f64::min)
}

/// Maximum of `samples`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty and
/// [`DspError::NonFiniteInput`] if any sample is NaN.
pub fn max(samples: &[f64]) -> Result<f64, DspError> {
    fold_extreme(samples, f64::max)
}

fn fold_extreme(samples: &[f64], op: fn(f64, f64) -> f64) -> Result<f64, DspError> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(DspError::NonFiniteInput);
    }
    Ok(samples.iter().copied().fold(samples[0], op))
}

/// Both minimum and maximum in a single pass.
///
/// # Errors
///
/// Same conditions as [`min`] and [`max`].
pub fn min_max(samples: &[f64]) -> Result<(f64, f64), DspError> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in samples {
        if x.is_nan() {
            return Err(DspError::NonFiniteInput);
        }
        lo = lo.min(x);
        hi = hi.max(x);
    }
    Ok((lo, hi))
}

/// Median via sorting a copy.
///
/// For even lengths the average of the two central elements is returned.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `samples` is empty and
/// [`DspError::NonFiniteInput`] if any sample is NaN.
pub fn median(samples: &[f64]) -> Result<f64, DspError> {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile (`p` in `[0, 100]`).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] on empty input,
/// [`DspError::NonFiniteInput`] on NaN input and
/// [`DspError::InvalidParameter`] if `p` is outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, DspError> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(DspError::InvalidParameter {
            name: "p",
            reason: "must lie in [0, 100]",
        });
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(DspError::NonFiniteInput);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Pearson correlation coefficient between two equal-length signals.
///
/// Used by tests to confirm that the synthetic ECG and ABP of one subject
/// are beat-synchronous while two subjects' signals are not.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the lengths differ,
/// [`DspError::EmptyInput`] if the inputs are empty, and
/// [`DspError::ConstantSignal`] if either signal has zero variance.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, DspError> {
    if a.len() != b.len() {
        return Err(DspError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let ma = mean(a)?;
    let mb = mean(b)?;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return Err(DspError::ConstantSignal);
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[4.0; 10]).unwrap(), 4.0);
    }

    #[test]
    fn mean_empty_errors() {
        assert_eq!(mean(&[]), Err(DspError::EmptyInput));
    }

    #[test]
    fn variance_of_known_sequence() {
        // Var([1,2,3,4]) with population convention = 1.25.
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn std_dev_is_sqrt_of_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rms_of_alternating_signal() {
        assert!((rms(&[1.0, -1.0, 1.0, -1.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_basic() {
        let (lo, hi) = min_max(&[3.0, -1.0, 2.0]).unwrap();
        assert_eq!((lo, hi), (-1.0, 3.0));
    }

    #[test]
    fn min_rejects_nan() {
        assert_eq!(min(&[1.0, f64::NAN]), Err(DspError::NonFiniteInput));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        assert!(matches!(
            percentile(&[1.0], 101.0),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_anticorrelation() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert!((pearson(&a, &b).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_errors() {
        assert_eq!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(DspError::ConstantSignal)
        );
    }

    #[test]
    fn pearson_length_mismatch() {
        assert_eq!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(DspError::LengthMismatch { left: 1, right: 2 })
        );
    }
}
