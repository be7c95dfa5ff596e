//! Cycle-cost model of the detector on an MSP430-class MCU.
//!
//! The MSP430FR5989 has no floating-point unit: every `float` operation
//! is a software-library call costing tens to hundreds of cycles, and the
//! double-precision C math library's `sqrt`/`atan2` cost tens of
//! thousands. This module prices each pipeline stage of the three
//! detector versions from an operation inventory, so execution time —
//! and through it energy and battery lifetime (Table III) — is *derived*
//! rather than hard-coded.
//!
//! The three versions differ exactly as the paper describes:
//!
//! * **Original** — full `f32` pipeline plus C-math-library `sqrt`/`atan2`
//!   calls (double precision) for the angle/distance features and the
//!   column-average standard deviation.
//! * **Simplified** — the same `f32` pipeline with variance, slopes and
//!   squared distances: no math-library calls at all.
//! * **Reduced** — geometric features only, computed in Q16.16 fixed
//!   point over streamed peak coordinates (integer min/max pass instead
//!   of full float normalization); this is what shrinks its SRAM use to
//!   tens of bytes and roughly doubles battery life in Table III.
//!
//! The per-operation constants are calibrated to MSP430 software-float
//! runtime libraries; they are inputs to the model in the same way ARP's
//! per-component parameters are in the real toolchain.

use sift::config::SiftConfig;
use sift::features::Version;

/// Cycle prices for primitive operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// f32 add/subtract (software float).
    pub f_add: f64,
    /// f32 multiply.
    pub f_mul: f64,
    /// f32 divide.
    pub f_div: f64,
    /// f32 compare / load-store bundle.
    pub f_cmp: f64,
    /// Double-precision C-library square root (original version only).
    pub f_sqrt: f64,
    /// Double-precision C-library `atan2` (original version only).
    pub f_atan2: f64,
    /// Q16.16 multiply (uses the 32-bit hardware multiplier).
    pub q_mul: f64,
    /// Q16.16 add.
    pub q_add: f64,
    /// 16-bit integer compare (streaming min/max in the reduced path).
    pub int_cmp: f64,
}

impl Default for OpCosts {
    fn default() -> Self {
        Self {
            f_add: 110.0,
            f_mul: 160.0,
            f_div: 380.0,
            f_cmp: 40.0,
            f_sqrt: 20_000.0,
            f_atan2: 22_000.0,
            q_mul: 14.0,
            q_add: 4.0,
            int_cmp: 8.0,
        }
    }
}

/// Cycle counts of one detector pass, broken down by pipeline state
/// (the three QM states of the app, paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageCycles {
    /// *PeaksDataCheck*: fetching/checking the snippet and updating the
    /// display.
    pub peaks_data_check: f64,
    /// *FeatureExtraction*: normalization, grid, matrix + geometric
    /// features.
    pub feature_extraction: f64,
    /// *MLClassifier*: standardization and the hyperplane dot product.
    pub ml_classifier: f64,
}

impl StageCycles {
    /// Total cycles of one detection pass.
    pub fn total(&self) -> f64 {
        self.peaks_data_check + self.feature_extraction + self.ml_classifier
    }
}

/// Price one detection pass of `version` under `config`.
///
/// `avg_peaks_per_window` is the expected number of R/systolic peaks in a
/// `w`-second window (≈ `w · HR / 60`; 4 at 80 bpm and w = 3 s).
pub fn detector_cycles(
    version: Version,
    config: &SiftConfig,
    costs: &OpCosts,
    avg_peaks_per_window: f64,
) -> StageCycles {
    let n = config.window_samples() as f64; // samples per channel
    let g = config.grid_n as f64;
    let cells = g * g;
    let peaks = avg_peaks_per_window.max(1.0);

    // --- PeaksDataCheck: fetch/validate both channels + display update.
    let peaks_data_check = 2.0 * n * costs.f_cmp + 15_000.0;

    let feature_extraction = match version {
        Version::Original | Version::Simplified => {
            // Min–max normalization of both channels: compare pass, one
            // reciprocal divide, then subtract+multiply per sample.
            let normalization =
                2.0 * (n * costs.f_cmp + costs.f_div + n * (costs.f_add + costs.f_mul));

            let geometric = if version == Version::Original {
                // Two angle means (atan2 each), two distance means
                // (mul, mul, add, sqrt each), one pair-distance mean.
                2.0 * peaks * costs.f_atan2
                    + 2.0 * peaks * (2.0 * costs.f_mul + costs.f_add + costs.f_sqrt)
                    + peaks * (2.0 * costs.f_mul + 3.0 * costs.f_add + costs.f_sqrt)
            } else {
                // Slopes (one divide), squared distances (no sqrt).
                2.0 * peaks * costs.f_div
                    + 2.0 * peaks * (2.0 * costs.f_mul + costs.f_add)
                    + peaks * (2.0 * costs.f_mul + 3.0 * costs.f_add)
            };

            // Matrix features: grid binning of every sample, SFI over all
            // cells, column averages, spread, AUC.
            let binning = n * (2.0 * costs.f_mul + 2.0 * costs.f_cmp);
            let sfi = cells * (costs.f_mul + costs.f_add);
            let col_avg = cells * costs.f_add + g * costs.f_div;
            let spread = g * (2.0 * costs.f_add + costs.f_mul)
                + costs.f_div
                + if version == Version::Original {
                    costs.f_sqrt
                } else {
                    0.0
                };
            let auc = g * (2.0 * costs.f_add) + costs.f_div;

            normalization + geometric + binning + sfi + col_avg + spread + auc
        }
        Version::Reduced => {
            // Streaming integer min/max over raw int16 samples; only the
            // peak coordinates are ever normalized (Q16.16).
            let min_max = 2.0 * n * costs.int_cmp;
            let peak_norm = 3.0 * peaks * (costs.q_add + costs.q_mul + 30.0);
            let geometric = 2.0 * peaks * (2.0 * costs.q_mul + costs.q_add + 60.0)
                + peaks * (2.0 * costs.q_mul + 3.0 * costs.q_add);
            min_max + peak_norm + geometric
        }
    };

    // --- MLClassifier: per-feature standardize + multiply-accumulate.
    let dim = version.feature_count() as f64;
    let ml_classifier = match version {
        Version::Reduced => dim * (costs.q_add + 2.0 * costs.q_mul) + 2_000.0,
        _ => dim * (costs.f_add + 2.0 * costs.f_mul) + 2_000.0,
    };

    StageCycles {
        peaks_data_check,
        feature_extraction,
        ml_classifier,
    }
}

/// Price the *MLClassifier* stage when the deployed backend is the
/// integer-only Tsetlin machine ([`ml::tsetlin`]).
///
/// The Tsetlin pass never touches the software-float library: it
/// booleanizes the feature vector with total-order-key compares
/// (`THRESHOLDS_PER_FEATURE` ordered compares per feature after a
/// shift/xor key transform) and evaluates `2 · pairs` clauses, each a
/// 64-bit include-mask AND + compare (eight 16-bit word ops on the
/// MSP430) followed by a vote accumulate.
pub fn tsetlin_classifier_cycles(dim: usize, pairs: usize, costs: &OpCosts) -> f64 {
    let thresholds = ml::tsetlin::THRESHOLDS_PER_FEATURE as f64;
    let dim = dim as f64;
    let clauses = 2.0 * pairs as f64;
    // Key transform (shift, xor, shift on a 32-bit word) + ordered
    // threshold compares, per feature.
    let booleanize = dim * (3.0 + thresholds) * costs.int_cmp;
    // Mask AND + compare over four 16-bit words each, plus the vote add.
    let clause_eval = clauses * (8.0 * costs.int_cmp + costs.q_add);
    // Final vote sign test + the same state-dispatch overhead the SVM
    // classifier stage carries.
    booleanize + clause_eval + costs.int_cmp + 2_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles(v: Version) -> StageCycles {
        detector_cycles(v, &SiftConfig::default(), &OpCosts::default(), 4.0)
    }

    #[test]
    fn ordering_original_gt_simplified_gt_reduced() {
        let o = cycles(Version::Original).total();
        let s = cycles(Version::Simplified).total();
        let r = cycles(Version::Reduced).total();
        assert!(o > s, "original {o} vs simplified {s}");
        assert!(s > r, "simplified {s} vs reduced {r}");
        // Reduced skips the float pipeline entirely, so the gap is large.
        assert!(r < s / 5.0, "reduced {r} not far below simplified {s}");
    }

    #[test]
    fn execution_times_are_plausible_for_msp430() {
        // Float-heavy versions take ~150–200 ms at 16 MHz; the reduced
        // fixed-point pass takes a few ms.
        let o = cycles(Version::Original).total() / crate::CPU_HZ;
        let s = cycles(Version::Simplified).total() / crate::CPU_HZ;
        let r = cycles(Version::Reduced).total() / crate::CPU_HZ;
        assert!((0.1..0.3).contains(&o), "original {o} s");
        assert!((0.08..0.2).contains(&s), "simplified {s} s");
        assert!((0.002..0.02).contains(&r), "reduced {r} s");
    }

    #[test]
    fn feature_extraction_dominates() {
        for v in [Version::Original, Version::Simplified] {
            let c = cycles(v);
            assert!(c.feature_extraction > c.peaks_data_check);
            assert!(c.feature_extraction > c.ml_classifier);
        }
    }

    #[test]
    fn classifier_cost_scales_with_dimension_and_arithmetic() {
        let c8 = cycles(Version::Simplified).ml_classifier;
        let c5 = cycles(Version::Reduced).ml_classifier;
        assert!(c8 > c5);
    }

    #[test]
    fn grid_size_drives_matrix_cost() {
        let at = |g: usize| {
            detector_cycles(
                Version::Original,
                &SiftConfig {
                    grid_n: g,
                    ..SiftConfig::default()
                },
                &OpCosts::default(),
                4.0,
            )
            .feature_extraction
        };
        assert!(at(100) > at(10) * 1.5);
    }

    #[test]
    fn reduced_is_insensitive_to_grid_size() {
        let at = |g: usize| {
            detector_cycles(
                Version::Reduced,
                &SiftConfig {
                    grid_n: g,
                    ..SiftConfig::default()
                },
                &OpCosts::default(),
                4.0,
            )
            .total()
        };
        assert_eq!(at(10), at(100));
    }

    #[test]
    fn tsetlin_classifier_scales_with_clause_count() {
        let costs = OpCosts::default();
        let wide = tsetlin_classifier_cycles(8, 32, &costs);
        let mid = tsetlin_classifier_cycles(8, 16, &costs);
        let narrow = tsetlin_classifier_cycles(5, 8, &costs);
        assert!(wide > mid && mid > narrow, "{wide} / {mid} / {narrow}");
    }

    #[test]
    fn tsetlin_classifier_never_pays_float_prices() {
        // Inflating every float price must not move the integer-only
        // classifier's cost.
        let base = OpCosts::default();
        let inflated = OpCosts {
            f_add: 1e9,
            f_mul: 1e9,
            f_div: 1e9,
            f_cmp: 1e9,
            f_sqrt: 1e9,
            f_atan2: 1e9,
            ..base
        };
        assert_eq!(
            tsetlin_classifier_cycles(8, 16, &base),
            tsetlin_classifier_cycles(8, 16, &inflated)
        );
    }

    #[test]
    fn total_is_sum_of_stages() {
        let c = cycles(Version::Original);
        assert!(
            (c.total() - (c.peaks_data_check + c.feature_extraction + c.ml_classifier)).abs()
                < 1e-9
        );
    }
}
