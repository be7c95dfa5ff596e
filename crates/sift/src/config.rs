//! Experiment configuration.

use crate::SiftError;

/// All tunable parameters of the SIFT pipeline, defaulted to the paper's
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct SiftConfig {
    /// Sample rate in Hz. The paper stores 3-second snippets in
    /// 1080-element arrays, i.e. 360 Hz.
    pub fs: f64,
    /// Detection window `w` in seconds (paper: 3 s).
    pub window_s: f64,
    /// Occupancy-grid size `n` (paper: n = 50).
    pub grid_n: usize,
    /// Training duration Δ in seconds (paper: 20 minutes).
    pub train_s: f64,
    /// Step of the training-time sliding window, in seconds. The paper
    /// slides a window of size `w` over the training data; a step of
    /// `w / 2` gives 50 % overlap, balancing sample count against
    /// redundancy.
    pub train_step_s: f64,
    /// SVM soft-margin cost.
    pub svm_c: f64,
    /// Cap on positive-class windows drawn **per donor** so a 11-donor
    /// positive class does not overwhelm training time; `None` keeps all.
    pub max_positive_per_donor: Option<usize>,
    /// Base RNG seed for everything derived from this configuration.
    pub seed: u64,
}

impl Default for SiftConfig {
    fn default() -> Self {
        Self {
            fs: physio_sim::SAMPLE_RATE_HZ,
            window_s: 3.0,
            grid_n: 50,
            train_s: 20.0 * 60.0,
            train_step_s: 1.5,
            svm_c: 1.0,
            max_positive_per_donor: Some(80),
            seed: 0x51F7_0001,
        }
    }
}

impl SiftConfig {
    /// Samples per detection window (`w · fs`); 1080 with the defaults,
    /// matching the paper's array size exactly.
    pub fn window_samples(&self) -> usize {
        (self.window_s * self.fs).round() as usize
    }

    /// Validate parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SiftError> {
        if !is_positive(self.fs) {
            return Err(SiftError::InvalidConfig {
                reason: "sample rate must be positive",
            });
        }
        if !is_positive(self.window_s) {
            return Err(SiftError::InvalidConfig {
                reason: "window length must be positive",
            });
        }
        if self.grid_n < 2 {
            return Err(SiftError::InvalidConfig {
                reason: "grid size must be at least 2",
            });
        }
        if !is_positive(self.train_s) || self.train_s < self.window_s {
            return Err(SiftError::InvalidConfig {
                reason: "training duration must cover at least one window",
            });
        }
        if !is_positive(self.train_step_s) {
            return Err(SiftError::InvalidConfig {
                reason: "training window step must be positive",
            });
        }
        if !is_positive(self.svm_c) {
            return Err(SiftError::InvalidConfig {
                reason: "svm cost must be positive",
            });
        }
        Ok(())
    }
}

/// A finite, strictly positive value. NaN and ±∞ fail, where a bare
/// `x <= 0.0` guard would let NaN through.
fn is_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SiftConfig::default();
        assert_eq!(c.window_samples(), 1080); // the paper's array size
        assert_eq!(c.grid_n, 50);
        assert_eq!(c.train_s, 1200.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = SiftConfig::default();
        let mut cases: Vec<SiftConfig> = vec![
            SiftConfig { grid_n: 1, ..base.clone() },
            SiftConfig { train_s: 1.0, ..base.clone() },
        ];
        // NaN slips past a bare `x <= 0.0` guard, so every real-valued
        // field is also tried at NaN and ±∞.
        for x in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            cases.extend([
                SiftConfig { fs: x, ..base.clone() },
                SiftConfig { window_s: x, ..base.clone() },
                SiftConfig { train_s: x, ..base.clone() },
                SiftConfig { train_step_s: x, ..base.clone() },
                SiftConfig { svm_c: x, ..base.clone() },
            ]);
        }
        for c in cases {
            assert!(
                matches!(c.validate(), Err(SiftError::InvalidConfig { .. })),
                "{c:?}"
            );
        }
    }
}
