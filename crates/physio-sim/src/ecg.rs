//! ECG waveform synthesis.
//!
//! Each cardiac cycle is rendered as a sum of five Gaussian bumps — the
//! P, Q, R, S and T waves — positioned relative to the beat's R peak and
//! mildly stretched with the instantaneous RR interval (long beats have
//! proportionally later T waves, as in real ECG). This is the
//! sum-of-Gaussians morphology used by the well-known ECGSYN model,
//! without its phase-oscillator integration, which is unnecessary at the
//! fidelity SIFT needs.
//!
//! # Bit-exact absorption
//!
//! [`render`] produces exactly the samples of the historical per-sample
//! sum, but skips the `exp` calls that provably cannot change a sample.
//! Under round-to-nearest, adding a term `t` to a nonzero `s` returns
//! `s` unchanged whenever `|t| < |s|·2⁻⁵⁴`. A wave's magnitude is
//! `|amp|·e^(−d²/denom)`, so its *key* `d²/denom − ln|amp|` orders the
//! waves by size in the log domain. When one wave's key undercuts every
//! other by `ABSORB_MARGIN_NATS`, the others (and their partial sums)
//! are absorbed by it, and the in-order P+Q+R+S+T sum equals that wave
//! alone, evaluated with the reference expression. When every key of a
//! beat clears the running sample by the same margin, the whole beat is
//! absorbed and its sum is not evaluated at all. Keys are estimates
//! (a hoisted reciprocal instead of the division): they only steer the
//! decision, never a sample's value. DESIGN.md §14 gives the error
//! budget.

/// Log-domain margin (nats) by which the skipped terms' keys must clear
/// the term (or running sample) that absorbs them. The rounding rule
/// needs `ln 10 + 54·ln 2 ≈ 39.7` nats for up to five skipped terms,
/// each possibly doubled by a subnormal `exp` result; the rest is slack
/// for the key estimates, whose error is below `1e-12` nats.
pub(crate) const ABSORB_MARGIN_NATS: f64 = 41.0;

/// Smallest magnitude an absorbing value may have (about `2⁻⁹³⁰`).
/// Far above the subnormal range, so a skipped term's absolute rounding
/// error there (`2⁻¹⁰⁷⁵`) is itself absorbed, and it excludes zero, whose
/// sign would depend on the terms skipped.
pub(crate) const ABSORB_FLOOR: f64 = 1e-280;

/// A lower bound on `ln|x|` from the binary exponent alone, for a
/// normal, finite-or-infinite `x` (callers check `|x| ≥ ABSORB_FLOOR`).
fn ln_abs_lower_bound(x: f64) -> f64 {
    let biased = ((x.to_bits() >> 52) & 0x7ff) as i32;
    f64::from(biased - 1023) * std::f64::consts::LN_2
}

/// Shape of one wave component: a Gaussian bump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    /// Peak amplitude in millivolts (negative for Q and S).
    pub amplitude_mv: f64,
    /// Center offset from the R peak, in seconds (negative = before R).
    /// Offsets of the P and T waves scale with the RR interval.
    pub offset_s: f64,
    /// Gaussian standard deviation, in seconds.
    pub width_s: f64,
}

impl Wave {
    /// Evaluate the bump at `tau` seconds from the R peak, for a beat of
    /// length `rr` seconds.
    ///
    /// `rr_scaling` is the exponent applied to `rr / rr_ref` when
    /// stretching the offset: `1.0` moves the wave proportionally with the
    /// beat length, `0.0` pins it.
    fn eval(&self, tau: f64, rr: f64, rr_scaling: f64) -> f64 {
        self.prepare(rr, rr_scaling).at(tau)
    }

    /// Hoist the per-beat constants (the RR stretch `powf`, the scaled
    /// center, the Gaussian denominator) so the per-sample evaluation is
    /// pure arithmetic plus one `exp`. [`PreparedWave::at`] runs the
    /// exact operation sequence of the historical inline `eval`, so
    /// prepared and direct evaluation agree bit for bit.
    fn prepare(&self, rr: f64, rr_scaling: f64) -> PreparedWave {
        const RR_REF: f64 = 60.0 / 65.0;
        let stretch = (rr / RR_REF).powf(rr_scaling);
        PreparedWave {
            amplitude_mv: self.amplitude_mv,
            center_s: self.offset_s * stretch,
            denom: 2.0 * self.width_s * self.width_s,
        }
    }
}

/// One wave with its beat-dependent constants folded in (see
/// [`Wave::prepare`]).
#[derive(Debug, Clone, Copy)]
struct PreparedWave {
    amplitude_mv: f64,
    center_s: f64,
    denom: f64,
}

impl PreparedWave {
    fn at(&self, tau: f64) -> f64 {
        let d = tau - self.center_s;
        self.amplitude_mv * (-d * d / self.denom).exp()
    }
}

/// Morphology of one subject's ECG: the five PQRST components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcgMorphology {
    /// P wave (atrial depolarization).
    pub p: Wave,
    /// Q wave.
    pub q: Wave,
    /// R wave (the dominant spike SIFT keys on).
    pub r: Wave,
    /// S wave.
    pub s: Wave,
    /// T wave (ventricular repolarization).
    pub t: Wave,
}

impl Default for EcgMorphology {
    fn default() -> Self {
        Self {
            p: Wave {
                amplitude_mv: 0.12,
                offset_s: -0.17,
                width_s: 0.025,
            },
            q: Wave {
                amplitude_mv: -0.10,
                offset_s: -0.035,
                width_s: 0.010,
            },
            r: Wave {
                amplitude_mv: 1.0,
                offset_s: 0.0,
                width_s: 0.011,
            },
            s: Wave {
                amplitude_mv: -0.17,
                offset_s: 0.035,
                width_s: 0.010,
            },
            t: Wave {
                amplitude_mv: 0.30,
                offset_s: 0.30,
                width_s: 0.055,
            },
        }
    }
}

impl EcgMorphology {
    /// Evaluate the full PQRST complex at `tau` seconds from the R peak
    /// of a beat with interval `rr`.
    pub fn eval(&self, tau: f64, rr: f64) -> f64 {
        // P and T track the beat length; the QRS complex is rigid.
        self.p.eval(tau, rr, 1.0)
            + self.q.eval(tau, rr, 0.0)
            + self.r.eval(tau, rr, 0.0)
            + self.s.eval(tau, rr, 0.0)
            + self.t.eval(tau, rr, 0.6)
    }

    /// Iterate over the five waves (P, Q, R, S, T order).
    pub fn waves(&self) -> [&Wave; 5] {
        [&self.p, &self.q, &self.r, &self.s, &self.t]
    }

    /// Prepare the five waves for a fixed RR interval. The per-beat
    /// stretch `powf`s run once here instead of once per sample; the
    /// summation in [`PreparedMorphology::at`] keeps the P, Q, R, S, T
    /// order, so results match [`EcgMorphology::eval`] bit for bit.
    fn prepare(&self, rr: f64, ln_amp: [f64; 5]) -> PreparedMorphology {
        // P and T track the beat length; the QRS complex is rigid.
        let waves = [
            self.p.prepare(rr, 1.0),
            self.q.prepare(rr, 0.0),
            self.r.prepare(rr, 0.0),
            self.s.prepare(rr, 0.0),
            self.t.prepare(rr, 0.6),
        ];
        PreparedMorphology {
            waves,
            inv_denom: waves.map(|w| 1.0 / w.denom),
            ln_amp,
        }
    }
}

/// A PQRST complex with beat-dependent constants hoisted.
#[derive(Debug, Clone, Copy)]
struct PreparedMorphology {
    waves: [PreparedWave; 5],
    /// `1 / denom` per wave: the key estimate's hoisted reciprocal.
    inv_denom: [f64; 5],
    /// `ln|amplitude|` per wave (`−∞` for a zero amplitude).
    ln_amp: [f64; 5],
}

impl PreparedMorphology {
    fn at(&self, tau: f64) -> f64 {
        self.waves[0].at(tau)
            + self.waves[1].at(tau)
            + self.waves[2].at(tau)
            + self.waves[3].at(tau)
            + self.waves[4].at(tau)
    }

    /// A value `v` with `acc + v == acc + self.at(tau)` bit for bit,
    /// computed with as few `exp`s as absorption allows: none when the
    /// whole beat is absorbed by `acc`, one when a single wave absorbs
    /// the other four, five (the in-order sum) otherwise.
    fn absorbed_at(&self, tau: f64, acc: f64) -> f64 {
        let mut key = [0.0f64; 5];
        let mut j = 0;
        for w in 0..5 {
            let d = tau - self.waves[w].center_s;
            key[w] = d * d * self.inv_denom[w] - self.ln_amp[w];
            if key[w] < key[j] {
                j = w;
            }
        }
        // NaN keys fail every comparison below and fall through to the
        // in-order sum.
        if acc.abs() >= ABSORB_FLOOR {
            let clear = ABSORB_MARGIN_NATS - ln_abs_lower_bound(acc);
            if key.iter().all(|&k| k >= clear) {
                return 0.0;
            }
        }
        if (0..5).all(|w| w == j || key[w] - key[j] >= ABSORB_MARGIN_NATS) {
            let v = self.waves[j].at(tau);
            if v.abs() >= ABSORB_FLOOR {
                return v;
            }
        }
        self.at(tau)
    }
}

/// Add `amp · exp(−(i/fs − center_t)² / (2σ²))` to `out[lo..hi]`,
/// truncated to the ±5σ support, using the Gaussian double-recurrence:
/// with `g_i` the Gaussian at sample `i`, the ratio `r_i = g_{i+1}/g_i`
/// itself shrinks by the constant `q = exp(−dt²/σ²)` each step, so the
/// whole run is two multiplies per sample after a two-`exp` warm-up.
/// Beyond 5σ the bump is below `3.8e-6·amp` — that truncation is the
/// only deviation from evaluating `exp` per sample.
pub(crate) fn add_gauss_run(
    out: &mut [f64],
    lo: usize,
    hi: usize,
    fs: f64,
    center_t: f64,
    amp: f64,
    sigma: f64,
) {
    let dt = 1.0 / fs;
    let i0 = (((center_t - 5.0 * sigma) * fs).ceil().max(lo as f64)) as usize;
    let i1 = ((((center_t + 5.0 * sigma) * fs).floor() + 1.0).max(0.0) as usize).min(hi);
    if i1 <= i0 {
        return;
    }
    let inv_denom = 1.0 / (2.0 * sigma * sigma);
    let d0 = i0 as f64 * dt - center_t;
    let mut g = amp * (-d0 * d0 * inv_denom).exp();
    let mut r = (-(2.0 * d0 * dt + dt * dt) * inv_denom).exp();
    let q = (-2.0 * dt * dt * inv_denom).exp();
    for v in &mut out[i0..i1] {
        *v += g;
        g *= r;
        r *= q;
    }
}

/// Render a noise-free ECG trace with the throughput-first kernels: each
/// wave renders only its ±5σ support and the Gaussian is advanced by the
/// [`add_gauss_run`] double-recurrence instead of one `exp` per sample
/// per wave. Output differs from [`render`] by at most the 5σ truncation
/// (`< 4e-6` mV); fleet-scale callers opt in through
/// [`crate::record::SynthProfile::Turbo`].
pub fn render_turbo(
    morph: &EcgMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
) -> (Vec<f64>, Vec<usize>) {
    let n = (duration_s * fs).round() as usize;
    let mut out = vec![0.0f64; n];
    // P and T track the beat length; the QRS complex is rigid (the same
    // split as `EcgMorphology::prepare`).
    const SCALINGS: [f64; 5] = [1.0, 0.0, 0.0, 0.0, 0.6];
    for (k, &rt) in r_times.iter().enumerate() {
        let rr_prev = if k > 0 { rt - r_times[k - 1] } else { 0.9 };
        let rr_next = if k + 1 < r_times.len() {
            r_times[k + 1] - rt
        } else {
            rr_prev
        };
        let lo = ((rt - 0.6 * rr_prev) * fs).floor().max(0.0) as usize;
        let hi = (((rt + 0.75 * rr_next) * fs).ceil() as usize).min(n);
        if lo >= hi {
            continue; // beat support entirely outside the record
        }
        // First sample at or after the R peak: samples before it stretch
        // with the previous beat, samples from it on with the next.
        let split = (((rt * fs).ceil().max(0.0)) as usize).clamp(lo, hi);
        for (wave, &scaling) in morph.waves().iter().zip(&SCALINGS) {
            if scaling == 0.0 {
                // Rigid wave: both stretches are 1, one continuous run.
                let c = rt + wave.offset_s;
                add_gauss_run(&mut out, lo, hi, fs, c, wave.amplitude_mv, wave.width_s);
            } else {
                let before = rt + wave.prepare(rr_prev, scaling).center_s;
                add_gauss_run(&mut out, lo, split, fs, before, wave.amplitude_mv, wave.width_s);
                let after = rt + wave.prepare(rr_next, scaling).center_s;
                add_gauss_run(&mut out, split, hi, fs, after, wave.amplitude_mv, wave.width_s);
            }
        }
    }
    let r_peaks = r_times
        .iter()
        .map(|t| (t * fs).round() as usize)
        .filter(|&i| i < n)
        .collect();
    (out, r_peaks)
}

/// Render a noise-free ECG trace.
///
/// `r_times` are R-peak times in seconds (as produced by
/// [`crate::rr::RrProcess::beat_times`]); the output covers
/// `duration_s` at `fs` Hz. Returns the samples and the ground-truth
/// R-peak sample indices that fall inside the rendered range.
pub fn render(
    morph: &EcgMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
) -> (Vec<f64>, Vec<usize>) {
    let n = (duration_s * fs).round() as usize;
    let mut out = vec![0.0f64; n];
    let ln_amp = morph.waves().map(|w| w.amplitude_mv.abs().ln());
    // Each beat contributes only within ±0.6·RR of its R peak, so render
    // beat-locally instead of summing all beats per sample.
    for (k, &rt) in r_times.iter().enumerate() {
        let rr_prev = if k > 0 { rt - r_times[k - 1] } else { 0.9 };
        let rr_next = if k + 1 < r_times.len() {
            r_times[k + 1] - rt
        } else {
            rr_prev
        };
        let lo = ((rt - 0.6 * rr_prev) * fs).floor().max(0.0) as usize;
        let hi = (((rt + 0.75 * rr_next) * fs).ceil() as usize).min(n);
        // The beat whose R peak this is: use next RR for waves after
        // R (T wave), previous RR for waves before it (P wave). Both
        // stretches are fixed for the beat, so the five per-wave
        // `powf`s are hoisted out of the sample loop.
        let before = morph.prepare(rr_prev, ln_amp);
        let after = morph.prepare(rr_next, ln_amp);
        for (i, sample) in out.iter_mut().enumerate().take(hi).skip(lo) {
            let tau = i as f64 / fs - rt;
            let prepared = if tau >= 0.0 { &after } else { &before };
            *sample += prepared.absorbed_at(tau, *sample);
        }
    }
    let r_peaks = r_times
        .iter()
        .map(|t| (t * fs).round() as usize)
        .filter(|&i| i < n)
        .collect();
    (out, r_peaks)
}

/// The historical per-sample kernel, kept as the oracle [`render`] must
/// match bit for bit: all five `exp`s at every sample of every beat.
#[cfg(test)]
pub(crate) fn render_oracle(
    morph: &EcgMorphology,
    r_times: &[f64],
    duration_s: f64,
    fs: f64,
) -> Vec<f64> {
    let n = (duration_s * fs).round() as usize;
    let mut out = vec![0.0f64; n];
    for (k, &rt) in r_times.iter().enumerate() {
        let rr_prev = if k > 0 { rt - r_times[k - 1] } else { 0.9 };
        let rr_next = if k + 1 < r_times.len() {
            r_times[k + 1] - rt
        } else {
            rr_prev
        };
        let lo = ((rt - 0.6 * rr_prev) * fs).floor().max(0.0) as usize;
        let hi = (((rt + 0.75 * rr_next) * fs).ceil() as usize).min(n);
        // `at` reads no key data, so the `ln_amp` argument is inert.
        let before = morph.prepare(rr_prev, [0.0; 5]);
        let after = morph.prepare(rr_next, [0.0; 5]);
        for (i, sample) in out.iter_mut().enumerate().take(hi).skip(lo) {
            let tau = i as f64 / fs - rt;
            let prepared = if tau >= 0.0 { &after } else { &before };
            *sample += prepared.at(tau);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_peak_is_global_max_of_clean_beat() {
        let m = EcgMorphology::default();
        let fs = 360.0;
        let (sig, peaks) = render(&m, &[1.0, 1.9, 2.8], 3.5, fs);
        for &p in &peaks {
            // R sample should dominate its ±0.3 s neighbourhood.
            let lo = p.saturating_sub(100);
            let hi = (p + 100).min(sig.len());
            let local_max = sig[lo..hi]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((sig[p] - local_max).abs() < 1e-9, "peak at {p}");
        }
    }

    #[test]
    fn morphology_eval_far_from_beat_is_tiny() {
        let m = EcgMorphology::default();
        assert!(m.eval(5.0, 0.9).abs() < 1e-12);
        assert!(m.eval(-5.0, 0.9).abs() < 1e-12);
    }

    #[test]
    fn r_amplitude_dominates() {
        let m = EcgMorphology::default();
        let at_r = m.eval(0.0, 0.9);
        assert!(at_r > 0.9, "R amplitude {at_r}");
    }

    #[test]
    fn t_wave_visible_after_r() {
        let m = EcgMorphology::default();
        let at_t = m.eval(0.30, 60.0 / 65.0);
        assert!(at_t > 0.2, "T amplitude {at_t}");
    }

    #[test]
    fn render_length_matches_duration() {
        let m = EcgMorphology::default();
        let (sig, _) = render(&m, &[0.5], 2.0, 360.0);
        assert_eq!(sig.len(), 720);
    }

    #[test]
    fn peaks_outside_duration_are_dropped() {
        let m = EcgMorphology::default();
        let (_, peaks) = render(&m, &[0.5, 1.5, 9.0], 2.0, 360.0);
        assert_eq!(peaks.len(), 2);
    }

    #[test]
    fn longer_rr_delays_t_wave() {
        let m = EcgMorphology::default();
        // Find T peak for short and long beats by scanning after R.
        let t_peak = |rr: f64| {
            let mut best = (0.0, f64::NEG_INFINITY);
            let mut tau = 0.1;
            while tau < 0.6 {
                let v = m.eval(tau, rr);
                if v > best.1 {
                    best = (tau, v);
                }
                tau += 0.001;
            }
            best.0
        };
        assert!(t_peak(1.2) > t_peak(0.6) + 0.02);
    }

    #[test]
    fn turbo_render_tracks_reference_within_truncation() {
        let m = EcgMorphology::default();
        // Irregular beat train exercises both stretch directions.
        let r_times = [0.5, 1.2, 2.3, 3.0, 3.6, 4.8];
        let (reference, ref_peaks) = render(&m, &r_times, 5.5, 360.0);
        let (turbo, turbo_peaks) = render_turbo(&m, &r_times, 5.5, 360.0);
        assert_eq!(ref_peaks, turbo_peaks);
        assert_eq!(reference.len(), turbo.len());
        let max_dev = reference
            .iter()
            .zip(&turbo)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-4, "max deviation {max_dev} mV");
    }

    #[test]
    fn gauss_run_matches_direct_exp() {
        let mut via_run = vec![0.0f64; 400];
        add_gauss_run(&mut via_run, 0, 400, 360.0, 0.5, 0.8, 0.03);
        for (i, &v) in via_run.iter().enumerate() {
            let d = i as f64 / 360.0 - 0.5;
            let direct = 0.8 * (-d * d / (2.0 * 0.03 * 0.03)).exp();
            // Inside the support the recurrence tracks the direct exp to
            // round-off; the ±5σ truncation bounds the edge discrepancy.
            if d.abs() <= 4.0 * 0.03 {
                assert!((v - direct).abs() < 1e-9, "sample {i}: {v} vs {direct}");
            } else {
                assert!((v - direct).abs() < 4e-6, "sample {i}: {v} vs {direct}");
            }
        }
    }

    #[test]
    fn gauss_run_respects_clip_bounds() {
        let mut out = vec![0.0f64; 100];
        add_gauss_run(&mut out, 40, 60, 360.0, 50.0 / 360.0, 1.0, 0.05);
        assert!(out[..40].iter().all(|&v| v == 0.0));
        assert!(out[60..].iter().all(|&v| v == 0.0));
        assert!(out[40..60].iter().any(|&v| v > 0.5));
        // Degenerate range is a no-op.
        add_gauss_run(&mut out, 60, 60, 360.0, 0.0, 1.0, 0.05);
    }

    #[test]
    fn waves_accessor_returns_five() {
        let m = EcgMorphology::default();
        assert_eq!(m.waves().len(), 5);
    }
}
