//! Synthetic cardiovascular signals: the data substrate for the SIFT
//! reproduction.
//!
//! The paper evaluates SIFT on 12 subjects from the MIT PhysioBank
//! *Fantasia* database, chosen because both ECG and arterial blood
//! pressure (ABP) are recorded for them. That data is not redistributable
//! here, so this crate provides a *parametric cardiovascular simulator*
//! that preserves the two properties SIFT actually relies on:
//!
//! 1. **Intra-subject coupling** — ECG and ABP are different projections
//!    of one cardiac process. Both synthesizers here are driven by the
//!    *same* RR-interval process ([`rr::RrProcess`]), with the ABP pulse
//!    delayed by a per-subject pulse-transit time, so the pair is
//!    beat-synchronous exactly as in real recordings.
//! 2. **Inter-subject distinguishability** — morphology (PQRST amplitudes
//!    and widths, systolic/diastolic pressure, pulse-transit time, heart
//!    rate, variability) differs across the [`subject::bank`] of 12
//!    synthetic subjects, mirroring Fantasia's young/elderly split.
//!
//! The crate also provides the ground-truth-free peak detectors
//! ([`rpeak`], [`syspeak`]) used when the base station receives live data.
//!
//! # Example
//!
//! ```
//! use physio_sim::subject::bank;
//! use physio_sim::record::Record;
//!
//! let subjects = bank();
//! let rec = Record::synthesize(&subjects[0], 10.0, 7);
//! assert_eq!(rec.ecg.len(), rec.abp.len());
//! assert!(!rec.r_peaks.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abp;
pub mod dataset;
pub mod ecg;
pub mod ectopy;
pub mod noise;
pub mod population;
pub mod record;
pub mod rpeak;
pub mod rr;
pub mod subject;
pub mod syspeak;

/// Default sample rate (Hz) used throughout the reproduction.
///
/// The paper stores 3-second ECG/ABP snippets in arrays of 1080 floats
/// (Insight #1), i.e. 360 samples per second; we adopt the same rate so
/// snippet geometry matches the paper exactly.
pub const SAMPLE_RATE_HZ: f64 = 360.0;
