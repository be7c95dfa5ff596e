//! Synchronized ECG+ABP recordings.
//!
//! A [`Record`] is the unit the rest of the system consumes: a pair of
//! equal-length, synchronously sampled ECG and ABP traces plus their
//! ground-truth peak annotations, exactly like one PhysioBank record with
//! its `.atr` annotation file.

use crate::abp;
use crate::ecg;
use crate::noise;
use crate::rr::RrProcess;
use crate::subject::{Subject, SubjectId};
use crate::SAMPLE_RATE_HZ;
use std::ops::Range;

/// Which synthesis kernels render a record.
///
/// [`SynthProfile::Reference`] is the historical per-sample evaluation —
/// every digest-gated benchmark in the workspace is pinned to it.
/// [`SynthProfile::Turbo`] trades a bounded, documented amount of
/// fidelity for roughly an order of magnitude less arithmetic per
/// sample, for fleet-scale runs where synthesis dominates wall time:
///
/// * ECG/ABP bumps render only their ±5σ supports and advance by
///   recurrences ([`ecg::render_turbo`], [`abp::render_turbo`]);
///   deviation from reference is below `4e-6` signal units.
/// * White noise is Irwin–Hall(4) Gaussian-approximate with exact mean
///   and sigma but ±3.46σ support, from a SplitMix64 stream rather than
///   `StdRng` ([`noise::apply_turbo`]) — so turbo records are
///   deterministic but **not** sample-identical to reference records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthProfile {
    /// Per-sample reference kernels; the digest-pinned default.
    #[default]
    Reference,
    /// Truncated-support recurrence kernels and fast approximate noise.
    Turbo,
}

/// A synchronized ECG + ABP recording with ground-truth annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Subject this record belongs to.
    pub subject: SubjectId,
    /// Sample rate in Hz (shared by both channels).
    pub fs: f64,
    /// ECG channel, millivolts.
    pub ecg: Vec<f64>,
    /// ABP channel, mmHg.
    pub abp: Vec<f64>,
    /// Ground-truth R-peak sample indices (ascending).
    pub r_peaks: Vec<usize>,
    /// Ground-truth systolic-peak sample indices (ascending).
    pub sys_peaks: Vec<usize>,
}

impl Record {
    /// Synthesize `duration_s` seconds of data for `subject` at the
    /// default [`SAMPLE_RATE_HZ`], deterministically from `seed`.
    ///
    /// The same `(subject, duration, seed)` triple always yields the same
    /// record. Different seeds yield different beat trains and noise, so
    /// train/test material can be drawn independently.
    ///
    /// # Examples
    ///
    /// ```
    /// use physio_sim::{record::Record, subject::bank};
    ///
    /// let rec = Record::synthesize(&bank()[0], 6.0, 42);
    /// assert_eq!(rec.len(), (6.0 * physio_sim::SAMPLE_RATE_HZ) as usize);
    /// assert!(rec.mean_heart_rate_bpm().unwrap() > 40.0);
    /// ```
    pub fn synthesize(subject: &Subject, duration_s: f64, seed: u64) -> Self {
        Self::synthesize_at(subject, duration_s, seed, SAMPLE_RATE_HZ)
    }

    /// Synthesize at an explicit sample rate.
    pub fn synthesize_at(subject: &Subject, duration_s: f64, seed: u64, fs: f64) -> Self {
        let mut rr = RrProcess::new(subject.rr, seed);
        // First beat a fraction of a second in so the P wave is complete.
        let r_times = rr.beat_times(0.4, duration_s);
        Self::synthesize_from_times(subject, &r_times, duration_s, seed, fs)
    }

    /// Synthesize with an explicit [`SynthProfile`].
    /// `SynthProfile::Reference` is exactly [`Record::synthesize`];
    /// `SynthProfile::Turbo` swaps in the recurrence kernels and fast
    /// noise for fleet-scale throughput. The beat train (and therefore
    /// every peak annotation) is identical across profiles.
    pub fn synthesize_profiled(
        subject: &Subject,
        duration_s: f64,
        seed: u64,
        profile: SynthProfile,
    ) -> Self {
        let mut rr = RrProcess::new(subject.rr, seed);
        let r_times = rr.beat_times(0.4, duration_s);
        Self::synthesize_from_times_profiled(
            subject,
            &r_times,
            duration_s,
            seed,
            SAMPLE_RATE_HZ,
            profile,
        )
    }

    /// Render a record from an explicit beat-time train with an explicit
    /// [`SynthProfile`] (see [`Record::synthesize_from_times`]).
    ///
    /// # Panics
    ///
    /// Panics if `r_times` is not strictly increasing.
    pub fn synthesize_from_times_profiled(
        subject: &Subject,
        r_times: &[f64],
        duration_s: f64,
        seed: u64,
        fs: f64,
        profile: SynthProfile,
    ) -> Self {
        match profile {
            SynthProfile::Reference => {
                Self::synthesize_from_times(subject, r_times, duration_s, seed, fs)
            }
            SynthProfile::Turbo => {
                assert!(
                    r_times.windows(2).all(|w| w[1] > w[0]),
                    "beat times must be strictly increasing"
                );
                let (mut ecg_sig, r_peaks) =
                    ecg::render_turbo(&subject.ecg, r_times, duration_s, fs);
                let (mut abp_sig, sys_peaks) =
                    abp::render_turbo(&subject.abp, r_times, duration_s, fs);
                noise::apply_turbo(&mut ecg_sig, &subject.ecg_noise, fs, seed ^ 0xEC6);
                noise::apply_turbo(&mut abp_sig, &subject.abp_noise, fs, seed ^ 0xAB9);
                Record {
                    subject: subject.id,
                    fs,
                    ecg: ecg_sig,
                    abp: abp_sig,
                    r_peaks,
                    sys_peaks,
                }
            }
        }
    }

    /// Render a record from an explicit beat-time train (used by the
    /// ectopy model and by tests that need hand-placed beats).
    ///
    /// # Panics
    ///
    /// Panics if `r_times` is not strictly increasing.
    pub fn synthesize_from_times(
        subject: &Subject,
        r_times: &[f64],
        duration_s: f64,
        seed: u64,
        fs: f64,
    ) -> Self {
        assert!(
            r_times.windows(2).all(|w| w[1] > w[0]),
            "beat times must be strictly increasing"
        );
        let (mut ecg_sig, r_peaks) = ecg::render(&subject.ecg, r_times, duration_s, fs, ..);
        let (mut abp_sig, sys_peaks) = abp::render(&subject.abp, r_times, duration_s, fs);
        noise::apply(&mut ecg_sig, 0, &subject.ecg_noise, fs, seed ^ 0xEC6);
        noise::apply(&mut abp_sig, 0, &subject.abp_noise, fs, seed ^ 0xAB9);
        Record {
            subject: subject.id,
            fs,
            ecg: ecg_sig,
            abp: abp_sig,
            r_peaks,
            sys_peaks,
        }
    }

    /// The ECG channel of `Record::synthesize(subject, duration_s,
    /// seed)` over the sample range `span` only, without rendering the
    /// rest of the record or its ABP channel. The samples and R peaks
    /// are bit-identical to the matching slice of the whole record
    /// (DESIGN.md §16).
    ///
    /// # Panics
    ///
    /// Panics if `span` reaches past the record's end.
    pub fn synthesize_ecg_span(
        subject: &Subject,
        duration_s: f64,
        seed: u64,
        span: Range<usize>,
    ) -> EcgSpan {
        let fs = SAMPLE_RATE_HZ;
        let r_times = RrProcess::new(subject.rr, seed).beat_times(0.4, duration_s);
        let (mut ecg_sig, r_peaks) =
            ecg::render(&subject.ecg, &r_times, duration_s, fs, span.clone());
        let salted = seed ^ 0xEC6;
        noise::apply(&mut ecg_sig, span.start, &subject.ecg_noise, fs, salted);
        EcgSpan {
            record_len: (duration_s * fs).round() as usize,
            start: span.start,
            ecg: ecg_sig,
            r_peaks,
        }
    }

    /// Duration of the record in seconds.
    pub fn duration_s(&self) -> f64 {
        self.ecg.len() as f64 / self.fs
    }

    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.ecg.len()
    }

    /// Whether the record contains no samples.
    pub fn is_empty(&self) -> bool {
        self.ecg.is_empty()
    }

    /// Mean heart rate over the record, in bpm, from the ground-truth
    /// R peaks. Returns `None` with fewer than two beats.
    pub fn mean_heart_rate_bpm(&self) -> Option<f64> {
        if self.r_peaks.len() < 2 {
            return None;
        }
        let beats = (self.r_peaks.len() - 1) as f64;
        let span_s = (self.r_peaks[self.r_peaks.len() - 1] - self.r_peaks[0]) as f64 / self.fs;
        Some(60.0 * beats / span_s)
    }

    /// Resample both channels to `to_hz` with linear interpolation and
    /// carry the ground-truth peak annotations across, clamped to the
    /// resampled length so every mapped annotation stays in bounds.
    ///
    /// This is the workspace's one sanctioned route through
    /// [`dsp::resample`]: the record owns both the signals and their
    /// annotation indices, so mapping them together is the only way to
    /// keep the `peak index < channel length` invariant that
    /// [`Record::synthesize`] establishes.
    ///
    /// # Errors
    ///
    /// Returns [`dsp::DspError`] if the record is empty or either sample
    /// rate is invalid.
    pub fn resampled(&self, to_hz: f64) -> Result<Record, dsp::DspError> {
        let ecg = dsp::resample::linear(&self.ecg, self.fs, to_hz)?;
        let abp = dsp::resample::linear(&self.abp, self.fs, to_hz)?;
        let map = |peaks: &[usize], to_len: usize| -> Result<Vec<usize>, dsp::DspError> {
            let mut mapped = Vec::with_capacity(peaks.len());
            for &p in peaks {
                mapped.push(dsp::resample::map_index(p, self.fs, to_hz, to_len)?);
            }
            // Clamping can collapse neighbors at the tail; keep the
            // "strictly ascending" annotation invariant.
            mapped.dedup();
            Ok(mapped)
        };
        Ok(Record {
            subject: self.subject,
            fs: to_hz,
            r_peaks: map(&self.r_peaks, ecg.len())?,
            sys_peaks: map(&self.sys_peaks, abp.len())?,
            ecg,
            abp,
        })
    }

    /// Slice out the half-open sample range `[start, end)` of both
    /// channels, re-indexing the peak annotations to the slice.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> Record {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        let shift = |peaks: &[usize]| -> Vec<usize> {
            peaks
                .iter()
                .filter(|&&p| p >= start && p < end)
                .map(|&p| p - start)
                .collect()
        };
        Record {
            subject: self.subject,
            fs: self.fs,
            ecg: self.ecg[start..end].to_vec(),
            abp: self.abp[start..end].to_vec(),
            r_peaks: shift(&self.r_peaks),
            sys_peaks: shift(&self.sys_peaks),
        }
    }
}

/// A contiguous run of one record's ECG channel: what an attacker that
/// splices a donor's (or an earlier) ECG into a stream reads, cut from
/// a record it never needs whole. Indices are record indices.
#[derive(Debug, Clone, PartialEq)]
pub struct EcgSpan {
    /// Length, in samples, of the whole record the span is cut from.
    pub record_len: usize,
    /// Record index of `ecg[0]`.
    pub start: usize,
    /// ECG samples `start..start + ecg.len()`, millivolts.
    pub ecg: Vec<f64>,
    /// The record's R-peak indices inside the span (ascending).
    pub r_peaks: Vec<usize>,
}

impl EcgSpan {
    /// Record index one past the span's last sample.
    pub fn end(&self) -> usize {
        self.start + self.ecg.len()
    }

    /// The samples at record indices `from..from + len`.
    ///
    /// # Panics
    ///
    /// Panics if that range is not inside the span.
    pub fn samples(&self, from: usize, len: usize) -> &[f64] {
        assert!(
            from >= self.start && from + len <= self.end(),
            "read {from}..{} outside the ECG span {}..{}",
            from + len,
            self.start,
            self.end()
        );
        &self.ecg[from - self.start..from - self.start + len]
    }

    /// The R peaks at record indices `from..from + len`, as offsets
    /// from `from`.
    pub fn peaks_in(&self, from: usize, len: usize) -> Vec<usize> {
        self.r_peaks
            .iter()
            .filter(|&&p| p >= from && p < from + len)
            .map(|&p| p - from)
            .collect()
    }
}

impl From<Record> for EcgSpan {
    /// The whole record's ECG.
    fn from(rec: Record) -> Self {
        Self {
            record_len: rec.ecg.len(),
            start: 0,
            ecg: rec.ecg,
            r_peaks: rec.r_peaks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::bank;

    #[test]
    fn channels_have_equal_length() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 12.0, 1);
        assert_eq!(r.ecg.len(), r.abp.len());
        assert_eq!(r.len(), (12.0 * SAMPLE_RATE_HZ) as usize);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let s = &bank()[3];
        assert_eq!(
            Record::synthesize(s, 5.0, 42),
            Record::synthesize(s, 5.0, 42)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let s = &bank()[3];
        assert_ne!(
            Record::synthesize(s, 5.0, 1).ecg,
            Record::synthesize(s, 5.0, 2).ecg
        );
    }

    #[test]
    fn peaks_are_sorted_and_in_range() {
        let s = &bank()[5];
        let r = Record::synthesize(s, 30.0, 11);
        assert!(r.r_peaks.windows(2).all(|w| w[0] < w[1]));
        assert!(r.sys_peaks.windows(2).all(|w| w[0] < w[1]));
        assert!(r.r_peaks.iter().all(|&p| p < r.len()));
        assert!(r.sys_peaks.iter().all(|&p| p < r.len()));
    }

    #[test]
    fn heart_rate_matches_subject_parameter() {
        let s = &bank()[2];
        let r = Record::synthesize(s, 120.0, 5);
        let hr = r.mean_heart_rate_bpm().unwrap();
        assert!(
            (hr - s.rr.mean_hr_bpm).abs() < 6.0,
            "hr={hr} configured={}",
            s.rr.mean_hr_bpm
        );
    }

    #[test]
    fn each_r_peak_has_following_systolic_peak() {
        let s = &bank()[7];
        let r = Record::synthesize(s, 30.0, 3);
        let expected_lag = (s.abp.ptt_s * r.fs).round() as usize;
        // Peaks pair one-to-one with the configured PTT lag (±1 sample of
        // independent rounding).
        for (&rp, &sp) in r.r_peaks.iter().zip(&r.sys_peaks) {
            assert!(
                sp.abs_diff(rp + expected_lag) <= 1,
                "r={rp} sys={sp} lag={expected_lag}"
            );
        }
    }

    #[test]
    fn ecg_abp_beat_synchrony_via_correlation() {
        // Envelope correlation: a subject's own ABP should correlate with
        // their ECG more than with a different subject's ECG (the SIFT
        // premise). Compare beat-interval sequences instead of raw
        // samples for robustness.
        let b = bank();
        let r1 = Record::synthesize(&b[0], 60.0, 10);
        let r2 = Record::synthesize(&b[6], 60.0, 20);
        let rr_of = |peaks: &[usize]| -> Vec<f64> {
            peaks.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
        };
        let own_ecg = rr_of(&r1.r_peaks);
        let own_abp = rr_of(&r1.sys_peaks);
        let n = own_ecg.len().min(own_abp.len());
        let corr_own = dsp::stats::pearson(&own_ecg[..n], &own_abp[..n]).unwrap();
        assert!(corr_own > 0.99, "own-beat synchrony {corr_own}");
        let other_ecg = rr_of(&r2.r_peaks);
        let m = own_abp.len().min(other_ecg.len());
        let corr_cross = dsp::stats::pearson(&other_ecg[..m], &own_abp[..m]).unwrap();
        assert!(
            corr_cross < corr_own - 0.2,
            "cross-subject correlation {corr_cross} vs own {corr_own}"
        );
    }

    #[test]
    fn resampled_record_keeps_annotations_in_bounds() {
        let s = &bank()[4];
        let r = Record::synthesize(s, 20.0, 9);
        // 510 / 360 does not divide evenly, so an unclamped mapping of a
        // final-sample annotation could land one past the end.
        let up = r.resampled(510.0).unwrap();
        assert_eq!(up.fs, 510.0);
        assert_eq!(up.ecg.len(), up.abp.len());
        assert!(up.r_peaks.iter().all(|&p| p < up.len()));
        assert!(up.sys_peaks.iter().all(|&p| p < up.len()));
        assert!(up.r_peaks.windows(2).all(|w| w[0] < w[1]));
        // Beat count survives the trip (dedup only collapses tail clamps).
        assert_eq!(up.r_peaks.len(), r.r_peaks.len());
        // Peak times are preserved to within one sample at either rate.
        for (&orig, &mapped) in r.r_peaks.iter().zip(&up.r_peaks) {
            let t_orig = orig as f64 / r.fs;
            let t_mapped = mapped as f64 / up.fs;
            assert!(
                (t_orig - t_mapped).abs() <= 1.0 / r.fs + 1.0 / up.fs,
                "orig {t_orig}s mapped {t_mapped}s"
            );
        }
        // Round trip back down keeps the invariants too. The length may
        // shrink by at most one sample: the upsampled span ends at the
        // last 510 Hz instant, which can fall just short of the original
        // final instant (exact rational accounting, not truncation).
        let down = up.resampled(r.fs).unwrap();
        assert!(r.len() - down.len() <= 1, "{} vs {}", down.len(), r.len());
        assert!(down.r_peaks.iter().all(|&p| p < down.len()));
    }

    #[test]
    fn resampled_rejects_bad_rate() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 2.0, 1);
        assert!(r.resampled(0.0).is_err());
        assert!(r.resampled(f64::NAN).is_err());
    }

    #[test]
    fn slice_reindexes_peaks() {
        let s = &bank()[1];
        let r = Record::synthesize(s, 20.0, 8);
        let start = 3600; // 10 s
        let end = 5400;
        let sub = r.slice(start, end);
        assert_eq!(sub.len(), end - start);
        for &p in &sub.r_peaks {
            assert!(p < sub.len());
            // Original index must have been annotated too.
            assert!(r.r_peaks.contains(&(p + start)));
        }
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_panics_out_of_bounds() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 2.0, 1);
        let _ = r.slice(0, r.len() + 1);
    }

    #[test]
    fn turbo_reference_profile_is_exactly_synthesize() {
        let s = &bank()[2];
        assert_eq!(
            Record::synthesize_profiled(s, 6.0, 31, SynthProfile::Reference),
            Record::synthesize(s, 6.0, 31)
        );
    }

    #[test]
    fn turbo_is_deterministic() {
        let s = &bank()[4];
        assert_eq!(
            Record::synthesize_profiled(s, 6.0, 42, SynthProfile::Turbo),
            Record::synthesize_profiled(s, 6.0, 42, SynthProfile::Turbo)
        );
    }

    #[test]
    fn turbo_keeps_reference_annotations() {
        // The beat train is profile-independent, so every ground-truth
        // peak index must match the reference record exactly.
        for subject in [0usize, 5, 9] {
            let s = &bank()[subject];
            let reference = Record::synthesize(s, 20.0, 7);
            let turbo = Record::synthesize_profiled(s, 20.0, 7, SynthProfile::Turbo);
            assert_eq!(turbo.r_peaks, reference.r_peaks, "subject {subject}");
            assert_eq!(turbo.sys_peaks, reference.sys_peaks, "subject {subject}");
            assert_eq!(turbo.len(), reference.len());
        }
    }

    #[test]
    fn turbo_clean_waveforms_track_reference_closely() {
        // With the noise silenced, turbo and reference render the same
        // morphology; only the ±5σ truncation and recurrence round-off
        // remain, both far below physiological signal scales.
        let mut s = bank()[3].clone();
        s.ecg_noise = crate::noise::NoiseParams::none();
        s.abp_noise = crate::noise::NoiseParams::none();
        let reference = Record::synthesize(&s, 30.0, 11);
        let turbo = Record::synthesize_profiled(&s, 30.0, 11, SynthProfile::Turbo);
        let max_dev = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        let ecg_dev = max_dev(&reference.ecg, &turbo.ecg);
        let abp_dev = max_dev(&reference.abp, &turbo.abp);
        assert!(ecg_dev < 1e-4, "ecg max deviation {ecg_dev} mV");
        assert!(abp_dev < 1e-3, "abp max deviation {abp_dev} mmHg");
    }

    #[test]
    fn turbo_noise_moments_match_configuration() {
        // Detrend against the clean render so only the injected noise
        // remains, then check the white component's scale survived the
        // Irwin–Hall approximation.
        let s = &bank()[0];
        let mut clean = s.clone();
        clean.ecg_noise = crate::noise::NoiseParams::none();
        clean.abp_noise = crate::noise::NoiseParams::none();
        let noisy = Record::synthesize_profiled(s, 60.0, 13, SynthProfile::Turbo);
        let quiet = Record::synthesize_profiled(&clean, 60.0, 13, SynthProfile::Turbo);
        let resid: Vec<f64> = noisy
            .ecg
            .iter()
            .zip(&quiet.ecg)
            .map(|(a, b)| a - b)
            .collect();
        let mean = resid.iter().sum::<f64>() / resid.len() as f64;
        let sd = dsp::stats::std_dev(&resid).unwrap();
        // Residual = white + wander + hum; its variance is the sum of
        // the three component variances (sinusoid variance = A²/2).
        let p = &s.ecg_noise;
        let expect = (p.white_sigma.powi(2)
            + 0.5 * p.wander_amp.powi(2)
            + 0.5 * p.hum_amp.powi(2))
        .sqrt();
        assert!(mean.abs() < 0.01, "residual mean {mean}");
        assert!((sd - expect).abs() / expect < 0.15, "sd {sd} vs {expect}");
    }

    #[test]
    fn turbo_detector_features_stay_usable() {
        // The point of turbo: a detector window pipeline still sees
        // normal physiology. Heart rate must match the configured one.
        let s = &bank()[6];
        let r = Record::synthesize_profiled(s, 60.0, 3, SynthProfile::Turbo);
        let hr = r.mean_heart_rate_bpm().unwrap();
        assert!(
            (hr - s.rr.mean_hr_bpm).abs() < 6.0,
            "hr={hr} configured={}",
            s.rr.mean_hr_bpm
        );
    }

    #[test]
    fn empty_slice_allowed() {
        let s = &bank()[0];
        let r = Record::synthesize(s, 2.0, 1);
        let e = r.slice(10, 10);
        assert!(e.is_empty());
        assert_eq!(e.mean_heart_rate_bpm(), None);
    }
}

/// Bit-exactness of the Reference kernels against their historical
/// per-sample oracles (`ecg::render_oracle`, `abp::render_oracle`,
/// `noise::apply_oracle`), compared with `to_bits` so that even a
/// flipped zero sign fails.
#[cfg(test)]
mod exactness {
    use super::*;
    use crate::abp::AbpMorphology;
    use crate::ecg::{EcgMorphology, Wave};
    use crate::noise::NoiseParams;
    use crate::population::population;
    use crate::subject::bank;
    use proptest::prelude::*;

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: sample {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// Each kernel against its oracle on one beat train: the clean ECG
    /// and ABP renders, then the noise pass over the oracle's renders.
    fn assert_kernels_exact(
        subject: &Subject,
        r_times: &[f64],
        duration_s: f64,
        seed: u64,
        fs: f64,
        what: &str,
    ) {
        let (ecg_sig, _) = ecg::render(&subject.ecg, r_times, duration_s, fs, ..);
        let ecg_ref = ecg::render_oracle(&subject.ecg, r_times, duration_s, fs);
        assert_bits_eq(&ecg_sig, &ecg_ref, &format!("{what} ecg"));
        let (abp_sig, _) = abp::render(&subject.abp, r_times, duration_s, fs);
        let abp_ref = abp::render_oracle(&subject.abp, r_times, duration_s, fs);
        assert_bits_eq(&abp_sig, &abp_ref, &format!("{what} abp"));
        for (clean, params, salt, channel) in [
            (ecg_ref, &subject.ecg_noise, 0xEC6, "ecg noise"),
            (abp_ref, &subject.abp_noise, 0xAB9, "abp noise"),
        ] {
            let mut got = clean.clone();
            noise::apply(&mut got, 0, params, fs, seed ^ salt);
            let mut want = clean;
            noise::apply_oracle(&mut want, params, fs, seed ^ salt);
            assert_bits_eq(&got, &want, &format!("{what} {channel}"));
        }
    }

    /// `Record::synthesize`'s own beat train for `(subject, duration, seed)`.
    fn sweep_one(subject: &Subject, duration_s: f64, seed: u64, what: &str) {
        let r_times = RrProcess::new(subject.rr, seed).beat_times(0.4, duration_s);
        assert_kernels_exact(subject, &r_times, duration_s, seed, SAMPLE_RATE_HZ, what);
    }

    #[test]
    fn bank_sweep_is_bit_exact() {
        for (i, subject) in bank().iter().enumerate() {
            for duration_s in [30.0, 56.0, 60.0] {
                let what = format!("bank {i} @ {duration_s} s");
                sweep_one(subject, duration_s, 1000 + i as u64, &what);
            }
        }
    }

    /// The 1,024-subject population at 30 s, in four quarters so the
    /// test harness can spread them over its threads.
    fn population_quarter(quarter: usize) {
        let subjects = population(1024, 61455);
        for (i, subject) in subjects.iter().enumerate().skip(256 * quarter).take(256) {
            sweep_one(subject, 30.0, 77 + i as u64, &format!("population {i}"));
        }
    }

    #[test]
    fn population_sweep_is_bit_exact_q0() {
        population_quarter(0);
    }

    #[test]
    fn population_sweep_is_bit_exact_q1() {
        population_quarter(1);
    }

    #[test]
    fn population_sweep_is_bit_exact_q2() {
        population_quarter(2);
    }

    #[test]
    fn population_sweep_is_bit_exact_q3() {
        population_quarter(3);
    }

    /// FNV-1a over the sample bits of both channels.
    fn sample_fnv(rec: &Record) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in rec.ecg.iter().chain(&rec.abp) {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Pinned hashes of Reference records: any drift in a Reference
    /// sample, from any cause, fails here first.
    #[test]
    fn reference_samples_are_pinned() {
        let pins: [(usize, u64, u64); 4] = [
            (0, 42, 0x1300_8fac_2588_73f8),
            (3, 7, 0xf015_a444_0f3f_7d43),
            (7, 61455, 0xac96_fd59_7d7f_90ba),
            (11, 190731757, 0x6d82_5dba_3fe6_58c2),
        ];
        let b = bank();
        for (i, seed, want) in pins {
            let got = sample_fnv(&Record::synthesize(&b[i], 30.0, seed));
            assert_eq!(got, want, "bank {i} seed {seed}: {got:#018x}");
        }
    }

    /// `Record::synthesize_ecg_span` against the same span of the whole
    /// record `whole` (`Record::synthesize(subject, duration_s, seed)`).
    fn assert_span_exact(
        subject: &Subject,
        duration_s: f64,
        seed: u64,
        whole: &Record,
        span: Range<usize>,
        what: &str,
    ) {
        let what = format!("{what} span {span:?}");
        let got = Record::synthesize_ecg_span(subject, duration_s, seed, span.clone());
        assert_eq!(got.record_len, whole.len(), "{what}: record_len");
        assert_eq!((got.start, got.end()), (span.start, span.end), "{what}: bounds");
        assert_bits_eq(&got.ecg, &whole.ecg[span.clone()], &what);
        let peaks: Vec<usize> = whole
            .r_peaks
            .iter()
            .copied()
            .filter(|p| span.contains(p))
            .collect();
        assert_eq!(got.r_peaks, peaks, "{what}: r_peaks");
    }

    /// The campaign attack window (16–40 s) plus spans that cut the
    /// record awkwardly: empty ones, the whole record, its first and
    /// last sample, spans starting inside the first and last beats'
    /// support, at an R peak, and between two beats where one beat's T
    /// wave meets the next one's P wave.
    fn edge_spans(whole: &Record) -> Vec<Range<usize>> {
        let n = whole.len();
        let at = |s: f64| ((s * whole.fs) as usize).min(n);
        let mut spans = vec![0..0, n / 2..n / 2, n..n, 0..n, 0..1, n - 1..n, at(16.0)..at(40.0)];
        let p = &whole.r_peaks;
        spans.push(p[0].saturating_sub(20)..(p[0] + 300).min(n));
        spans.push(p[0]..n);
        spans.push(p[0] + 1..p[1]);
        let mid = (p[1] + p[2]) / 2;
        spans.push(mid..(mid + 977).min(n));
        let last = p[p.len() - 1];
        spans.push(last.saturating_sub(30)..n);
        spans.push(last..last + 1);
        spans.push((last + 40).min(n - 1)..n);
        spans
    }

    fn span_sweep(subject: &Subject, seed: u64, what: &str) {
        let whole = Record::synthesize(subject, 56.0, seed);
        for span in edge_spans(&whole) {
            assert_span_exact(subject, 56.0, seed, &whole, span, what);
        }
    }

    #[test]
    fn ecg_span_is_the_whole_records_slice_on_the_bank() {
        for (i, subject) in bank().iter().enumerate() {
            span_sweep(subject, 2000 + i as u64, &format!("bank {i}"));
        }
    }

    #[test]
    fn ecg_span_without_white_noise_skips_no_draws() {
        for i in [0usize, 6] {
            let mut subject = bank()[i].clone();
            subject.ecg_noise.white_sigma = 0.0;
            span_sweep(&subject, 31 + i as u64, &format!("bank {i}, white_sigma 0"));
        }
    }

    /// The 1,024-subject population at 56 s, in two halves: the attack
    /// window and one span starting mid-record at a subject-dependent
    /// offset (so it lands anywhere in a beat and a noise block).
    fn population_span_half(half: usize) {
        let subjects = population(1024, 61455);
        for (i, subject) in subjects.iter().enumerate().skip(512 * half).take(512) {
            let seed = 5000 + i as u64;
            let whole = Record::synthesize(subject, 56.0, seed);
            let n = whole.len();
            let lo = n / 3 + (i * 37) % 360;
            for span in [5760..14400, lo..lo + 2000] {
                assert_span_exact(subject, 56.0, seed, &whole, span, &format!("population {i}"));
            }
            assert_eq!(n, 20160);
        }
    }

    #[test]
    fn ecg_span_is_the_whole_records_slice_on_the_population_h0() {
        population_span_half(0);
    }

    #[test]
    fn ecg_span_is_the_whole_records_slice_on_the_population_h1() {
        population_span_half(1);
    }

    #[test]
    fn whole_record_span_is_the_record() {
        let rec = Record::synthesize(&bank()[4], 12.0, 3);
        let span = EcgSpan::from(rec.clone());
        assert_eq!((span.start, span.end(), span.record_len), (0, rec.len(), rec.len()));
        assert_eq!(span.ecg, rec.ecg);
        assert_eq!(span.r_peaks, rec.r_peaks);
        assert_eq!(span.samples(100, 50), &rec.ecg[100..150]);
        assert_eq!(span.peaks_in(0, rec.len()), rec.r_peaks);
    }

    #[test]
    #[should_panic(expected = "outside the ECG span")]
    fn reading_outside_a_span_panics() {
        let span = Record::synthesize_ecg_span(&bank()[0], 10.0, 1, 360..720);
        let _ = span.samples(300, 100);
    }

    #[test]
    #[should_panic(expected = "outside a record")]
    fn a_span_past_the_record_end_panics() {
        let _ = Record::synthesize_ecg_span(&bank()[0], 2.0, 1, 700..721);
    }

    /// An amplitude that is exactly zero a quarter of the time.
    fn amplitude(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
        (0u8..4, range).prop_map(|(z, a)| if z == 0 { 0.0 } else { a })
    }

    fn wave(offset: std::ops::Range<f64>) -> impl Strategy<Value = Wave> {
        (amplitude(-1.5..1.5), offset, 0.002f64..0.12).prop_map(
            |(amplitude_mv, offset_s, width_s)| Wave {
                amplitude_mv,
                offset_s,
                width_s,
            },
        )
    }

    fn ecg_morphology() -> impl Strategy<Value = EcgMorphology> {
        (
            wave(-0.3..-0.05),
            wave(-0.08..0.0),
            wave(-0.02..0.02),
            wave(0.0..0.08),
            wave(0.1..0.5),
        )
            .prop_map(|(p, q, r, s, t)| EcgMorphology { p, q, r, s, t })
    }

    fn abp_morphology() -> impl Strategy<Value = AbpMorphology> {
        (
            (60.0f64..100.0, 10.0f64..80.0),
            (0.05f64..0.4, 0.03f64..0.2),
            0.05f64..0.9,
            amplitude(0.0..0.4),
            0.05f64..0.5,
        )
            .prop_map(
                |((diastolic_mmhg, pp), (ptt_s, rise_s), decay_s, notch_frac, notch_delay_s)| {
                    AbpMorphology {
                        systolic_mmhg: diastolic_mmhg + pp,
                        diastolic_mmhg,
                        ptt_s,
                        rise_s,
                        decay_s,
                        notch_frac,
                        notch_delay_s,
                    }
                },
            )
    }

    fn noise_params() -> impl Strategy<Value = NoiseParams> {
        (
            amplitude(0.0..0.5),
            0.0f64..0.3,
            0.05f64..0.5,
            0.0f64..0.05,
            49.0f64..61.0,
        )
            .prop_map(|(white_sigma, wander_amp, wander_hz, hum_amp, hum_hz)| {
                NoiseParams {
                    white_sigma,
                    wander_amp,
                    wander_hz,
                    hum_amp,
                    hum_hz,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random morphologies and beat trains: zero and negative
        /// amplitudes, `notch_frac = 0`, `white_sigma = 0`, records
        /// shorter than one beat, beats starting before the record and
        /// running past its end (so the first and last beats take the
        /// default RR stretches), at several sample rates; and a random
        /// span of the ECG render and its noise pass.
        #[test]
        fn random_morphologies_are_bit_exact(
            morph in (ecg_morphology(), abp_morphology(), noise_params(), noise_params()),
            first in -0.8f64..1.2,
            gaps in prop::collection::vec(0.25f64..1.8, 0..12),
            duration_s in 0.05f64..9.0,
            fs_seed in (0usize..4, any::<u64>()),
            cut in (any::<usize>(), any::<usize>()),
        ) {
            let (ecg, abp, ecg_noise, abp_noise) = morph;
            let subject = Subject {
                ecg,
                abp,
                ecg_noise,
                abp_noise,
                ..bank()[0].clone()
            };
            let mut r_times = vec![first];
            for gap in gaps {
                let last = r_times[r_times.len() - 1];
                r_times.push(last + gap);
            }
            let (fs_pick, seed) = fs_seed;
            let fs = [360.0, 125.0, 250.0, 500.0][fs_pick];
            assert_kernels_exact(&subject, &r_times, duration_s, seed, fs, "proptest");
            // Any span of the ECG render and its noise pass is the
            // same slice of the whole record's.
            let n = (duration_s * fs).round() as usize;
            let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let span = a.min(b)..a.max(b);
            let (whole, peaks) = ecg::render(&subject.ecg, &r_times, duration_s, fs, ..);
            let (part, part_peaks) = ecg::render(&subject.ecg, &r_times, duration_s, fs, span.clone());
            assert_bits_eq(&part, &whole[span.clone()], "proptest ecg span");
            let in_span: Vec<usize> = peaks.into_iter().filter(|p| span.contains(p)).collect();
            prop_assert_eq!(part_peaks, in_span);
            let mut noisy = whole;
            noise::apply(&mut noisy, 0, &subject.ecg_noise, fs, seed);
            let mut noisy_part = part;
            noise::apply(&mut noisy_part, span.start, &subject.ecg_noise, fs, seed);
            assert_bits_eq(&noisy_part, &noisy[span], "proptest noise span");
        }
    }
}
