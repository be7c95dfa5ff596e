//! Sensor-hijacking attack injection.
//!
//! The paper simulates ECG measurement alteration "by replacing a user's
//! ECG with someone else's" in "random locations" covering 50 % of a
//! 2-minute test recording (§IV). This module reproduces that protocol
//! and exposes the alteration mask as ground truth for scoring.

use crate::snippet::Snippet;
use crate::SiftError;
use ml::Label;
use physio_sim::record::Record;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labeled test window: the snippet the base station receives and the
/// ground truth of whether its ECG was altered.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledWindow {
    /// The (possibly altered) window.
    pub snippet: Snippet,
    /// Ground truth: `Positive` if the ECG was replaced.
    pub truth: Label,
}

/// Build the paper's test set: cut `victim` into `window_s`-second
/// windows and replace the ECG of a random `altered_fraction` of them
/// with the co-located windows of `donor`'s ECG. The ABP channel always
/// remains the victim's (it is the trusted reference).
///
/// Altered windows carry the *donor's* R-peak annotations — on a real
/// device the peak indexes are derived from whatever ECG waveform is
/// present, tampered or not.
///
/// # Errors
///
/// Returns [`SiftError::InvalidConfig`] when `altered_fraction` is
/// outside `[0, 1]`, the records' sample rates differ, or the donor
/// record is shorter than the victim's.
pub fn substitution_test_set(
    victim: &Record,
    donor: &Record,
    window_s: f64,
    altered_fraction: f64,
    seed: u64,
) -> Result<Vec<LabeledWindow>, SiftError> {
    if !(0.0..=1.0).contains(&altered_fraction) {
        return Err(SiftError::InvalidConfig {
            reason: "altered fraction must lie in [0, 1]",
        });
    }
    if (victim.fs - donor.fs).abs() > f64::EPSILON {
        return Err(SiftError::InvalidConfig {
            reason: "victim and donor sample rates differ",
        });
    }
    if donor.len() < victim.len() {
        return Err(SiftError::InvalidConfig {
            reason: "donor record shorter than victim record",
        });
    }
    let victim_windows = physio_sim::dataset::windows(victim, window_s)?;
    let donor_windows = physio_sim::dataset::windows(donor, window_s)?;
    let n = victim_windows.len();
    let n_altered = (altered_fraction * n as f64).round() as usize;

    // Random alteration locations, deterministic per seed.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut altered = vec![false; n];
    for &i in order.iter().take(n_altered) {
        altered[i] = true;
    }

    let mut out = Vec::with_capacity(n);
    for (i, vw) in victim_windows.iter().enumerate() {
        let (snippet, truth) = if altered[i] {
            let dw = &donor_windows[i];
            (
                Snippet::new(
                    dw.ecg.clone(),
                    vw.abp.clone(),
                    dw.r_peaks.clone(),
                    vw.sys_peaks.clone(),
                )?,
                Label::Positive,
            )
        } else {
            (Snippet::from_record(vw)?, Label::Negative)
        };
        out.push(LabeledWindow { snippet, truth });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::subject::bank;

    fn records() -> (Record, Record) {
        let b = bank();
        (
            Record::synthesize(&b[0], 120.0, 100),
            Record::synthesize(&b[1], 120.0, 200),
        )
    }

    #[test]
    fn paper_protocol_forty_windows_half_altered() {
        let (v, d) = records();
        let set = substitution_test_set(&v, &d, 3.0, 0.5, 7).unwrap();
        assert_eq!(set.len(), 40);
        let positives = set.iter().filter(|w| w.truth == Label::Positive).count();
        assert_eq!(positives, 20);
    }

    #[test]
    fn altered_windows_carry_donor_ecg() {
        let (v, d) = records();
        let set = substitution_test_set(&v, &d, 3.0, 1.0, 7).unwrap();
        let dw = physio_sim::dataset::windows(&d, 3.0).unwrap();
        for (i, w) in set.iter().enumerate() {
            assert_eq!(w.truth, Label::Positive);
            assert_eq!(w.snippet.ecg, dw[i].ecg);
        }
    }

    #[test]
    fn unaltered_windows_are_victims_own() {
        let (v, d) = records();
        let set = substitution_test_set(&v, &d, 3.0, 0.0, 7).unwrap();
        let vw = physio_sim::dataset::windows(&v, 3.0).unwrap();
        for (i, w) in set.iter().enumerate() {
            assert_eq!(w.truth, Label::Negative);
            assert_eq!(w.snippet.ecg, vw[i].ecg);
            assert_eq!(w.snippet.abp, vw[i].abp);
        }
    }

    #[test]
    fn abp_always_victims() {
        let (v, d) = records();
        let set = substitution_test_set(&v, &d, 3.0, 0.5, 3).unwrap();
        let vw = physio_sim::dataset::windows(&v, 3.0).unwrap();
        for (i, w) in set.iter().enumerate() {
            assert_eq!(w.snippet.abp, vw[i].abp, "window {i}");
        }
    }

    #[test]
    fn alteration_mask_deterministic_and_seed_dependent() {
        let (v, d) = records();
        let truths = |seed: u64| -> Vec<Label> {
            substitution_test_set(&v, &d, 3.0, 0.5, seed)
                .unwrap()
                .iter()
                .map(|w| w.truth)
                .collect()
        };
        assert_eq!(truths(1), truths(1));
        assert_ne!(truths(1), truths(2));
    }

    #[test]
    fn invalid_fraction_rejected() {
        let (v, d) = records();
        assert!(substitution_test_set(&v, &d, 3.0, 1.5, 0).is_err());
        assert!(substitution_test_set(&v, &d, 3.0, -0.1, 0).is_err());
    }

    #[test]
    fn short_donor_rejected() {
        let b = bank();
        let v = Record::synthesize(&b[0], 120.0, 1);
        let d = Record::synthesize(&b[1], 60.0, 2);
        assert!(substitution_test_set(&v, &d, 3.0, 0.5, 0).is_err());
    }
}
