//! Dataset assembly helpers: windowing records and generating the
//! train/test corpora used by the experiments.
//!
//! The paper's protocol (§IV): Δ = 20 minutes of a subject's own data for
//! training, 2 minutes of *unseen* data for testing, both cut into
//! non-overlapping w = 3 s windows.

use crate::record::Record;
use dsp::DspError;

/// Cut `record` into non-overlapping windows of `window_s` seconds,
/// dropping any trailing partial window. Peak annotations are re-indexed
/// into each window.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `window_s` is not positive
/// or longer than the record.
pub fn windows(record: &Record, window_s: f64) -> Result<Vec<Record>, DspError> {
    if window_s <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "window_s",
            reason: "window length must be positive",
        });
    }
    let wlen = (window_s * record.fs).round() as usize;
    if wlen == 0 || wlen > record.len() {
        return Err(DspError::InvalidParameter {
            name: "window_s",
            reason: "window does not fit in the record",
        });
    }
    let n = record.len() / wlen;
    Ok((0..n)
        .map(|k| record.slice(k * wlen, (k + 1) * wlen))
        .collect())
}

/// Where the sliding windows of a record fall: every window is
/// `wlen` samples long and window `k` starts at sample `k * step`.
/// Lets a caller cut windows one at a time ([`Record::slice`]) instead
/// of materializing them all through [`sliding_windows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlidingGeometry {
    /// Window length, samples.
    pub wlen: usize,
    /// Advance between window starts, samples (at least 1).
    pub step: usize,
    /// Number of whole windows that fit.
    pub count: usize,
}

impl SlidingGeometry {
    /// Lay out windows of `window_s` seconds advanced by `step_s`
    /// seconds over `len` samples at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `step_s` is not a
    /// finite positive number, or the window is empty or longer than
    /// `len`.
    pub fn new(len: usize, fs: f64, window_s: f64, step_s: f64) -> Result<Self, DspError> {
        if !(step_s.is_finite() && step_s > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "step_s",
                reason: "step must be positive",
            });
        }
        let wlen = (window_s * fs).round() as usize;
        let step = ((step_s * fs).round() as usize).max(1);
        if wlen == 0 || wlen > len {
            return Err(DspError::InvalidParameter {
                name: "window_s",
                reason: "window does not fit in the record",
            });
        }
        Ok(Self {
            wlen,
            step,
            count: (len - wlen) / step + 1,
        })
    }

    /// Sample range `[start, end)` of window `k`.
    pub fn bounds(&self, k: usize) -> (usize, usize) {
        let start = k * self.step;
        (start, start + self.wlen)
    }
}

/// Cut `record` into overlapping windows of `window_s` seconds advanced
/// by `step_s` seconds (the training-time sliding window of the paper).
///
/// # Errors
///
/// Same conditions as [`windows`], plus `step_s` must be a finite
/// positive number.
pub fn sliding_windows(
    record: &Record,
    window_s: f64,
    step_s: f64,
) -> Result<Vec<Record>, DspError> {
    let g = SlidingGeometry::new(record.len(), record.fs, window_s, step_s)?;
    Ok((0..g.count)
        .map(|k| {
            let (start, end) = g.bounds(k);
            record.slice(start, end)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::bank;

    #[test]
    fn paper_test_geometry_forty_windows() {
        // 2 minutes cut into 3 s windows = 40 test examples (paper §IV).
        let s = &bank()[0];
        let r = Record::synthesize(s, 120.0, 1);
        let w = windows(&r, 3.0).unwrap();
        assert_eq!(w.len(), 40);
        assert!(w.iter().all(|x| x.len() == 1080));
    }

    #[test]
    fn window_peaks_reindexed() {
        let s = &bank()[1];
        let r = Record::synthesize(s, 30.0, 2);
        for w in windows(&r, 3.0).unwrap() {
            assert!(w.r_peaks.iter().all(|&p| p < w.len()));
            assert!(w.sys_peaks.iter().all(|&p| p < w.len()));
        }
    }

    #[test]
    fn windows_reject_bad_length() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 5.0, 1);
        assert!(windows(&r, 0.0).is_err());
        assert!(windows(&r, 10.0).is_err());
    }

    #[test]
    fn sliding_overlap_produces_more_windows() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 30.0, 3);
        let tiled = windows(&r, 3.0).unwrap().len();
        let slid = sliding_windows(&r, 3.0, 1.0).unwrap().len();
        assert!(slid > 2 * tiled);
    }

    #[test]
    fn sliding_rejects_non_positive_and_non_finite_step() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 10.0, 4);
        for step_s in [0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    sliding_windows(&r, 3.0, step_s),
                    Err(DspError::InvalidParameter { name: "step_s", .. })
                ),
                "step {step_s} accepted"
            );
        }
    }
}
