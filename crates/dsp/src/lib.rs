//! Signal-processing substrate for the SIFT reproduction.
//!
//! This crate provides the numeric building blocks that the rest of the
//! workspace is built on:
//!
//! * [`stats`] — descriptive statistics (mean, variance, percentiles, …),
//! * [`normalize`] — min–max normalization used to build SIFT
//!   *portraits*,
//! * [`filter`] — moving-average, median and biquad (RBJ) filters used by
//!   the R-peak detector,
//! * [`integrate`] — numerical integration, including the paper's
//!   *simplified* composite-trapezoid rule (§III, FeatureExtraction state),
//! * [`resample`] — linear-interpolation resampling between sample rates,
//! * [`embedded_math`] — libm-free replacements (Newton square root,
//!   polynomial `atan2`, …) that model the Amulet's "no C math library"
//!   constraint (paper Insight #2),
//! * [`fixed`] — Q16.16 fixed-point arithmetic for the most constrained
//!   execution flavor.
//!
//! # Example
//!
//! ```
//! use dsp::normalize::min_max;
//!
//! # fn main() -> Result<(), dsp::DspError> {
//! let normalized = min_max(&[1.0, 2.0, 3.0])?;
//! assert_eq!(normalized, vec![0.0, 0.5, 1.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embedded_math;
pub mod filter;
pub mod fixed;
pub mod integrate;
pub mod normalize;
pub mod resample;
pub mod stats;

mod error;

pub use error::DspError;
