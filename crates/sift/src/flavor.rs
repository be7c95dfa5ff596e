//! Platform flavors: the gold-standard pipeline vs. the embedded port.
//!
//! The paper evaluates every detector version on two platforms
//! (Table II): the MATLAB gold standard and the Amulet implementation.
//! The differences are arithmetic, not algorithmic:
//!
//! * **Gold** — `f64` everywhere, `std` transcendentals. This is
//!   [`crate::features::extract`].
//! * **Amulet** — `f32` end to end (the MSP430 does single-precision
//!   software floats), square roots via Newton iteration and `atan2` via
//!   a polynomial ([`dsp::embedded_math`]), because early AmuletOS had no
//!   C math library. The implementation here is deliberately a separate,
//!   self-contained `f32` code path: it models the hand-written C port,
//!   and its small numeric divergence from the gold path is exactly what
//!   Table II measures.

use crate::config::SiftConfig;
use crate::features::Version;
use crate::snippet::Snippet;
use crate::SiftError;
use dsp::embedded_math::{atan2_approx, sqrt_newton_f32};
use dsp::fixed::Q16;

/// Which platform's arithmetic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformFlavor {
    /// Double-precision reference (the paper's MATLAB implementation).
    Gold,
    /// Single-precision, libm-free embedded path (the Amulet
    /// implementation).
    Amulet,
}

impl std::fmt::Display for PlatformFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformFlavor::Gold => write!(f, "matlab"),
            PlatformFlavor::Amulet => write!(f, "amulet"),
        }
    }
}

/// Extract a feature vector with the chosen platform's arithmetic.
///
/// The Amulet flavor computes in `f32` and widens at the end, so the
/// returned values carry single-precision rounding exactly as the device
/// would produce.
///
/// # Errors
///
/// Same conditions as [`crate::features::extract`].
pub fn extract_flavored(
    version: Version,
    flavor: PlatformFlavor,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Result<Vec<f64>, SiftError> {
    match flavor {
        PlatformFlavor::Gold => crate::features::extract(version, snippet, config),
        PlatformFlavor::Amulet => Ok(extract_amulet_f32(version, snippet, config)?
            .into_iter()
            .map(f64::from)
            .collect()),
    }
}

/// The embedded (`f32`) feature extractor — the code that would be
/// generated C on the real device.
///
/// # Errors
///
/// Returns [`SiftError::InvalidConfig`] for a grid smaller than 2,
/// [`SiftError::DegenerateSignal`] for non-finite or constant channels,
/// and [`SiftError::InvalidSnippet`] for an empty channel or a peak
/// index outside either channel.
pub fn extract_amulet_f32(
    version: Version,
    snippet: &Snippet,
    config: &SiftConfig,
) -> Result<Vec<f32>, SiftError> {
    if config.grid_n < 2 {
        return Err(SiftError::InvalidConfig {
            reason: "grid size must be at least 2",
        });
    }
    // The reduced version never enters the float pipeline at all: it
    // streams the ADC codes through the Q16.16 fixed-point path (which
    // is also what the platform cost model prices for it).
    if version == Version::Reduced {
        return extract_reduced_q16(snippet).map(|q| q.map(Q16::to_f32).to_vec());
    }
    // --- ADC quantization + normalization (min–max, f32) -----------------
    // The device never sees the continuous waveform: its front end is a
    // 12-bit ADC over a fixed input range (±2.5 mV for ECG after
    // amplification, 0–250 mmHg for ABP). The gold pipeline skips this —
    // it is one of the real sources of Amulet-vs-MATLAB divergence in
    // Table II.
    let (e_raw, a_raw) = (scan(&snippet.ecg)?, scan(&snippet.abp)?);
    let a = normalized(&snippet.abp, ABP_ADC, a_raw)?;
    let e = normalized(&snippet.ecg, ECG_ADC, e_raw)?;

    // --- geometric features ----------------------------------------------
    let point = |i: usize| match (a.get(i), e.get(i)) {
        (Some(&x), Some(&y)) => Ok((x, y)),
        _ => Err(PEAK_OUT_OF_RANGE),
    };
    let r_pts = snippet
        .r_peaks
        .iter()
        .map(|&i| point(i))
        .collect::<Result<Vec<(f32, f32)>, _>>()?;
    let s_pts = snippet
        .sys_peaks
        .iter()
        .map(|&i| point(i))
        .collect::<Result<Vec<(f32, f32)>, _>>()?;
    let pairs = snippet
        .paired_peaks()
        .into_iter()
        .map(|(r, s)| Ok((point(r)?, point(s)?)))
        .collect::<Result<Vec<((f32, f32), (f32, f32))>, SiftError>>()?;

    let geo: [f32; 5] = match version {
        Version::Original => {
            let angle = |pts: &[(f32, f32)]| {
                mean_f32(pts.iter().map(|&(x, y)| atan2_approx(y as f64, x as f64) as f32))
            };
            let dist = |pts: &[(f32, f32)]| {
                mean_f32(pts.iter().map(|&(x, y)| sqrt_newton_f32(x * x + y * y)))
            };
            let pair_dist = mean_f32(pairs.iter().map(|&((xr, yr), (xs, ys))| {
                sqrt_newton_f32((xr - xs) * (xr - xs) + (yr - ys) * (yr - ys))
            }));
            [
                angle(&r_pts),
                angle(&s_pts),
                dist(&r_pts),
                dist(&s_pts),
                pair_dist,
            ]
        }
        // Reduced was dispatched to the Q16 path above.
        Version::Simplified | Version::Reduced => {
            let slope =
                |pts: &[(f32, f32)]| mean_f32(pts.iter().map(|&(x, y)| y / x.max(1e-6f32)));
            let sqdist = |pts: &[(f32, f32)]| mean_f32(pts.iter().map(|&(x, y)| x * x + y * y));
            let pair_sq = mean_f32(pairs.iter().map(|&((xr, yr), (xs, ys))| {
                (xr - xs) * (xr - xs) + (yr - ys) * (yr - ys)
            }));
            [slope(&r_pts), slope(&s_pts), sqdist(&r_pts), sqdist(&s_pts), pair_sq]
        }
    };

    // --- matrix features ---------------------------------------------------
    let n = config.grid_n;
    let mut counts = vec![0u32; n * n];
    for (&x, &y) in a.iter().zip(&e) {
        let col = ((x * n as f32) as usize).min(n - 1);
        let row = ((y * n as f32) as usize).min(n - 1);
        counts[row * n + col] += 1;
    }
    let total = a.len() as f32;
    let sfi: f32 = counts
        .iter()
        .map(|&c| {
            let p = c as f32 / total;
            p * p
        })
        .sum();
    let col_avgs: Vec<f32> = (0..n)
        .map(|col| {
            let sum: u32 = (0..n).map(|row| counts[row * n + col]).sum();
            sum as f32 / n as f32
        })
        .collect();
    let mean_cols = col_avgs.iter().sum::<f32>() / n as f32;
    let variance = col_avgs
        .iter()
        .map(|&v| (v - mean_cols) * (v - mean_cols))
        .sum::<f32>()
        / n as f32;
    let spread = match version {
        Version::Original => sqrt_newton_f32(variance),
        _ => variance,
    };
    // Single-pass composite trapezoid over [0, n-1].
    let auc = {
        let n_intervals = (n - 1) as f32;
        let sum: f32 = col_avgs.windows(2).map(|w| w[0] + w[1]).sum();
        n_intervals / (2.0 * n_intervals) * sum
    };

    let mut out = Vec::with_capacity(8);
    out.push(sfi);
    out.push(spread);
    out.push(auc);
    out.extend_from_slice(&geo);
    Ok(out)
}

/// The reduced detector's fixed-point pipeline: the five simplified
/// geometric features computed entirely in Q16.16 over 12-bit ADC
/// codes — no floating point at all, matching the 69-byte SRAM
/// footprint and fixed-point cycle pricing of Table III.
///
/// Both channels are streamed: one pass per channel keeps only its raw
/// running min and max, and only those two extremes and the peak
/// samples are ever quantized. No per-channel buffer is allocated.
///
/// # Errors
///
/// Returns [`SiftError::DegenerateSignal`] when either channel holds a
/// non-finite sample or has no span after quantization (flat-lined
/// sensor), and [`SiftError::InvalidSnippet`] for an empty channel or a
/// peak index outside either channel.
pub fn extract_reduced_q16(snippet: &Snippet) -> Result<[Q16; 5], SiftError> {
    let (e_raw, a_raw) = (scan(&snippet.ecg)?, scan(&snippet.abp)?);
    let (e_lo, e_hi) = e_raw.codes(ECG_ADC)?;
    let (a_lo, a_hi) = a_raw.codes(ABP_ADC)?;
    let e_span = Q16::from_int(i32::from(e_hi - e_lo));
    let a_span = Q16::from_int(i32::from(a_hi - a_lo));

    // Quantize and normalize only the peak coordinates.
    let at = |signal: &[f64], adc: Adc, lo: u16, span: Q16, i: usize| -> Result<Q16, SiftError> {
        let v = *signal.get(i).ok_or(PEAK_OUT_OF_RANGE)?;
        Ok(Q16::from_int(i32::from(adc.code(v)) - i32::from(lo)).saturating_div(span))
    };
    let point = |i: usize| -> Result<(Q16, Q16), SiftError> {
        Ok((
            at(&snippet.abp, ABP_ADC, a_lo, a_span, i)?,
            at(&snippet.ecg, ECG_ADC, e_lo, e_span, i)?,
        ))
    };

    let r_pts = snippet
        .r_peaks
        .iter()
        .map(|&i| point(i))
        .collect::<Result<Vec<(Q16, Q16)>, _>>()?;
    let s_pts = snippet
        .sys_peaks
        .iter()
        .map(|&i| point(i))
        .collect::<Result<Vec<(Q16, Q16)>, _>>()?;
    let pairs = snippet
        .paired_peaks()
        .into_iter()
        .map(|(r, s)| Ok((point(r)?, point(s)?)))
        .collect::<Result<Vec<((Q16, Q16), (Q16, Q16))>, SiftError>>()?;

    let slope_of = |(x, y): (Q16, Q16)| -> Q16 {
        let denom = if x <= Q16::EPSILON { Q16::EPSILON } else { x };
        y.saturating_div(denom)
    };
    let sqdist_of = |(x, y): (Q16, Q16)| -> Q16 { x.squared().saturating_add(y.squared()) };
    let pair_sqdist_of = |((xr, yr), (xs, ys)): ((Q16, Q16), (Q16, Q16))| -> Q16 {
        (xr - xs).squared().saturating_add((yr - ys).squared())
    };

    Ok([
        mean_q16(r_pts.iter().copied().map(slope_of)),
        mean_q16(s_pts.iter().copied().map(slope_of)),
        mean_q16(r_pts.iter().copied().map(sqdist_of)),
        mean_q16(s_pts.iter().copied().map(sqdist_of)),
        mean_q16(pairs.iter().copied().map(pair_sqdist_of)),
    ])
}

/// A peak index that lies outside a channel. [`Snippet::new`] rejects
/// these, but the fields are public, so an edited snippet can carry one.
const PEAK_OUT_OF_RANGE: SiftError = SiftError::InvalidSnippet {
    reason: "peak index out of range",
};

// --- ADC front end ---------------------------------------------------------
//
// Both the code law and the code-to-level map are monotone
// non-decreasing, so a channel's smallest and largest codes (and
// normalization bounds) are those of its raw min and max: one scan per
// channel finds them before any sample is quantized (DESIGN.md §15).

/// One channel's 12-bit ADC: a fixed input range mapped onto 4096 codes.
#[derive(Clone, Copy)]
struct Adc {
    lo: f64,
    hi: f64,
}

/// ECG after amplification: ±2.5 mV.
const ECG_ADC: Adc = Adc { lo: -2.5, hi: 2.5 };
/// ABP: 0–250 mmHg.
const ABP_ADC: Adc = Adc { lo: 0.0, hi: 250.0 };

impl Adc {
    /// The code of a finite sample: clamp to the input range, scale to
    /// `[0, 4095]` and round half away from zero.
    fn code(self, v: f64) -> u16 {
        round_code((v.clamp(self.lo, self.hi) - self.lo) / (self.hi - self.lo) * 4095.0)
    }

    /// A code mapped back to the signal's units.
    fn level(self, code: u16) -> f64 {
        self.lo + f64::from(code) / 4095.0 * (self.hi - self.lo)
    }
}

/// `x.round() as u16` for `x` in `[0, 4095]`, without the libm call:
/// truncation is the floor there, `x - floor(x)` is exact, and comparing
/// it with one half rounds half away from zero.
fn round_code(x: f64) -> u16 {
    let t = x as u16;
    t + u16::from(x - f64::from(t) >= 0.5)
}

/// A channel's raw extremes; `min > max` marks an empty channel.
#[derive(Clone, Copy)]
struct Extremes {
    min: f64,
    max: f64,
}

impl Extremes {
    /// The channel's smallest and largest ADC codes.
    fn codes(self, adc: Adc) -> Result<(u16, u16), SiftError> {
        if self.min > self.max {
            return Err(SiftError::InvalidSnippet {
                reason: "empty channel",
            });
        }
        let (lo, hi) = (adc.code(self.min), adc.code(self.max));
        if hi <= lo {
            return Err(SiftError::DegenerateSignal);
        }
        Ok((lo, hi))
    }
}

/// Independent accumulators in [`scan`], so its loop vectorizes.
const LANES: usize = 8;

/// One pass over a channel: its raw min and max.
///
/// Corrupt driver data (NaN/∞) cannot be meaningfully quantized; it is
/// a degenerate signal, so the detector alerts instead of silently
/// classifying a rail-clamped artifact. Non-finite samples are found
/// from their exponent bits: `(bits & EXP) + 2^52` sets bit 63 exactly
/// when the exponent is all ones.
fn scan(signal: &[f64]) -> Result<Extremes, SiftError> {
    const EXP: u64 = 0x7ff0_0000_0000_0000;
    const EXP_LSB: u64 = 1 << 52;
    let mut min = [f64::INFINITY; LANES];
    let mut max = [f64::NEG_INFINITY; LANES];
    let mut special = [0u64; LANES];
    let mut step = |k: usize, v: f64| {
        min[k] = if v < min[k] { v } else { min[k] };
        max[k] = if v > max[k] { v } else { max[k] };
        special[k] |= (v.to_bits() & EXP) + EXP_LSB;
    };
    let chunks = signal.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (k, &v) in chunk.iter().enumerate() {
            step(k, v);
        }
    }
    for (k, &v) in tail.iter().enumerate() {
        step(k, v);
    }
    if special.iter().fold(0, |acc, &s| acc | s) >> 63 != 0 {
        return Err(SiftError::DegenerateSignal);
    }
    Ok(Extremes {
        min: min.into_iter().fold(f64::INFINITY, f64::min),
        max: max.into_iter().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// The float pipeline's front end for one channel: quantize every
/// sample, map its code back to signal units, and min–max normalize in
/// `f32`, in one pass into one buffer. The bounds are the levels of
/// the extremes' codes.
fn normalized(signal: &[f64], adc: Adc, raw: Extremes) -> Result<Vec<f32>, SiftError> {
    let (lo, hi) = raw.codes(adc)?;
    let lo = adc.level(lo) as f32;
    let span = adc.level(hi) as f32 - lo;
    Ok(signal
        .iter()
        .map(|&v| (adc.level(adc.code(v)) as f32 - lo) / span)
        .collect())
}

fn mean_q16(iter: impl Iterator<Item = Q16>) -> Q16 {
    let mut sum = Q16::ZERO;
    let mut n = 0i32;
    for v in iter {
        sum = sum.saturating_add(v);
        n += 1;
    }
    if n == 0 {
        Q16::ZERO
    } else {
        sum.saturating_div(Q16::from_int(n))
    }
}

fn mean_f32(iter: impl Iterator<Item = f32>) -> f32 {
    let mut sum = 0.0f32;
    let mut n = 0u32;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn snippet() -> Snippet {
        let b = bank();
        let r = Record::synthesize(&b[0], 30.0, 17);
        Snippet::from_record(&windows(&r, 3.0).unwrap()[2]).unwrap()
    }

    #[test]
    fn amulet_close_to_gold_for_every_version() {
        // The embedded path quantizes to the 12-bit ADC and computes in
        // f32, so features agree with the gold pipeline to a few percent
        // — close enough that the same hyperplane classifies both, far
        // enough that Table II's platform rows can differ.
        let cfg = SiftConfig::default();
        let sn = snippet();
        for v in Version::ALL {
            let gold = extract_flavored(v, PlatformFlavor::Gold, &sn, &cfg).unwrap();
            let amulet = extract_flavored(v, PlatformFlavor::Amulet, &sn, &cfg).unwrap();
            assert_eq!(gold.len(), amulet.len());
            for (i, (g, a)) in gold.iter().zip(&amulet).enumerate() {
                let tol = 0.05 * g.abs().max(0.5);
                assert!((g - a).abs() < tol, "{v} feature {i}: gold={g} amulet={a}");
            }
        }
    }

    #[test]
    fn amulet_differs_from_gold_at_the_ulp_level() {
        // The flavors must not be bit-identical — that difference is the
        // point of Table II's platform comparison.
        let cfg = SiftConfig::default();
        let sn = snippet();
        let gold = extract_flavored(Version::Original, PlatformFlavor::Gold, &sn, &cfg).unwrap();
        let amulet =
            extract_flavored(Version::Original, PlatformFlavor::Amulet, &sn, &cfg).unwrap();
        assert_ne!(gold, amulet);
    }

    #[test]
    fn feature_counts_preserved() {
        let cfg = SiftConfig::default();
        let sn = snippet();
        for v in Version::ALL {
            let f = extract_amulet_f32(v, &sn, &cfg).unwrap();
            assert_eq!(f.len(), v.feature_count());
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn degenerate_rejected() {
        let cfg = SiftConfig::default();
        let sn = Snippet::new(vec![1.0; 50], vec![2.0; 50], vec![], vec![]).unwrap();
        assert_eq!(
            extract_amulet_f32(Version::Simplified, &sn, &cfg).unwrap_err(),
            SiftError::DegenerateSignal
        );
    }

    #[test]
    fn display_flavors() {
        assert_eq!(PlatformFlavor::Gold.to_string(), "matlab");
        assert_eq!(PlatformFlavor::Amulet.to_string(), "amulet");
    }

    #[test]
    fn bad_grid_rejected() {
        let cfg = SiftConfig {
            grid_n: 1,
            ..SiftConfig::default()
        };
        assert!(extract_amulet_f32(Version::Original, &snippet(), &cfg).is_err());
    }
}

#[cfg(test)]
mod q16_tests {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::Record;
    use physio_sim::subject::bank;

    fn snippet() -> Snippet {
        let b = bank();
        let r = Record::synthesize(&b[0], 30.0, 17);
        Snippet::from_record(&windows(&r, 3.0).unwrap()[2]).unwrap()
    }

    #[test]
    fn q16_reduced_close_to_gold_reduced() {
        let cfg = SiftConfig::default();
        let sn = snippet();
        let gold = crate::features::extract(Version::Reduced, &sn, &cfg).unwrap();
        let fixed = extract_reduced_q16(&sn).unwrap();
        for (i, (g, q)) in gold.iter().zip(&fixed).enumerate() {
            let got = q.to_f64();
            let tol = 0.05 * g.abs().max(0.5);
            assert!((g - got).abs() < tol, "feature {i}: gold={g} q16={got}");
        }
    }

    #[test]
    fn amulet_reduced_flavor_uses_q16_path() {
        let cfg = SiftConfig::default();
        let sn = snippet();
        let via_flavor = extract_amulet_f32(Version::Reduced, &sn, &cfg).unwrap();
        let direct = extract_reduced_q16(&sn).unwrap();
        for (a, b) in via_flavor.iter().zip(&direct) {
            assert_eq!(*a, b.to_f32());
        }
    }

    #[test]
    fn q16_path_flags_flat_channel() {
        let sn = Snippet::new(vec![0.5; 1080], vec![80.0; 1080], vec![], vec![]).unwrap();
        assert_eq!(
            extract_reduced_q16(&sn).unwrap_err(),
            SiftError::DegenerateSignal
        );
    }

    #[test]
    fn q16_values_stay_in_plausible_range() {
        let sn = snippet();
        let fixed = extract_reduced_q16(&sn).unwrap();
        // Slopes of near-origin points can be large but must not hit the
        // saturation rail on ordinary data; squared distances are <= 2.
        assert!(fixed[2].to_f64() <= 2.0 + 1e-3);
        assert!(fixed[3].to_f64() <= 2.0 + 1e-3);
        assert!(fixed[4].to_f64() <= 8.0);
    }

    #[test]
    fn adc_codes_cover_range() {
        let codes = [-3.0, -2.5, 0.0, 2.5, 3.0].map(|v| ECG_ADC.code(v));
        assert_eq!(codes[0], 0, "below range clamps to 0");
        assert_eq!(codes[1], 0);
        assert_eq!(codes[2], 2048);
        assert_eq!(codes[3], 4095);
        assert_eq!(codes[4], 4095, "above range clamps to max");
    }

    #[test]
    fn mean_q16_of_empty_is_zero() {
        assert_eq!(mean_q16(std::iter::empty()), Q16::ZERO);
    }
}

/// The front end as it was before the fused scan, kept verbatim as the
/// exactness oracle: three full-window buffers per channel and libm
/// `round`. [`exactness`] compares every feature with it bit for bit.
#[cfg(test)]
mod oracle {
    use super::{mean_f32, mean_q16};
    use crate::config::SiftConfig;
    use crate::features::Version;
    use crate::snippet::Snippet;
    use crate::SiftError;
    use dsp::embedded_math::{atan2_approx, sqrt_newton_f32};
    use dsp::fixed::Q16;

    /// The embedded (`f32`) feature extractor — the code that would be
    /// generated C on the real device.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::DegenerateSignal`] for constant/non-finite
    /// channels and [`SiftError::InvalidConfig`] for a grid smaller than 2.
    pub fn extract_amulet_f32(
        version: Version,
        snippet: &Snippet,
        config: &SiftConfig,
    ) -> Result<Vec<f32>, SiftError> {
        if config.grid_n < 2 {
            return Err(SiftError::InvalidConfig {
                reason: "grid size must be at least 2",
            });
        }
        ensure_finite(snippet)?;
        // The reduced version never enters the float pipeline at all: it
        // streams the ADC codes through the Q16.16 fixed-point path (which
        // is also what the platform cost model prices for it).
        if version == Version::Reduced {
            return extract_reduced_q16(snippet).map(|q| q.map(Q16::to_f32).to_vec());
        }
        // --- ADC quantization + normalization (min–max, f32) -----------------
        // The device never sees the continuous waveform: its front end is a
        // 12-bit ADC over a fixed input range (±2.5 mV for ECG after
        // amplification, 0–250 mmHg for ABP). The gold pipeline skips this —
        // it is one of the real sources of Amulet-vs-MATLAB divergence in
        // Table II.
        let e_quant = quantize_12bit(&snippet.ecg, -2.5, 2.5);
        let a_quant = quantize_12bit(&snippet.abp, 0.0, 250.0);
        let a = normalize_f32(&a_quant)?;
        let e = normalize_f32(&e_quant)?;

        // --- geometric features ----------------------------------------------
        let r_pts: Vec<(f32, f32)> = snippet.r_peaks.iter().map(|&i| (a[i], e[i])).collect();
        let s_pts: Vec<(f32, f32)> = snippet.sys_peaks.iter().map(|&i| (a[i], e[i])).collect();
        let pairs: Vec<((f32, f32), (f32, f32))> = snippet
            .paired_peaks()
            .into_iter()
            .map(|(r, s)| ((a[r], e[r]), (a[s], e[s])))
            .collect();

        let geo: [f32; 5] = match version {
            Version::Original => {
                let angle = |pts: &[(f32, f32)]| {
                    mean_f32(
                        pts.iter()
                            .map(|&(x, y)| atan2_approx(y as f64, x as f64) as f32),
                    )
                };
                let dist = |pts: &[(f32, f32)]| {
                    mean_f32(pts.iter().map(|&(x, y)| sqrt_newton_f32(x * x + y * y)))
                };
                let pair_dist = mean_f32(pairs.iter().map(|&((xr, yr), (xs, ys))| {
                    sqrt_newton_f32((xr - xs) * (xr - xs) + (yr - ys) * (yr - ys))
                }));
                [
                    angle(&r_pts),
                    angle(&s_pts),
                    dist(&r_pts),
                    dist(&s_pts),
                    pair_dist,
                ]
            }
            // Reduced was dispatched to the Q16 path above.
            Version::Simplified | Version::Reduced => {
                let slope =
                    |pts: &[(f32, f32)]| mean_f32(pts.iter().map(|&(x, y)| y / x.max(1e-6f32)));
                let sqdist = |pts: &[(f32, f32)]| mean_f32(pts.iter().map(|&(x, y)| x * x + y * y));
                let pair_sq =
                    mean_f32(pairs.iter().map(|&((xr, yr), (xs, ys))| {
                        (xr - xs) * (xr - xs) + (yr - ys) * (yr - ys)
                    }));
                [
                    slope(&r_pts),
                    slope(&s_pts),
                    sqdist(&r_pts),
                    sqdist(&s_pts),
                    pair_sq,
                ]
            }
        };

        // --- matrix features ---------------------------------------------------
        let n = config.grid_n;
        let mut counts = vec![0u32; n * n];
        for (&x, &y) in a.iter().zip(&e) {
            let col = ((x * n as f32) as usize).min(n - 1);
            let row = ((y * n as f32) as usize).min(n - 1);
            counts[row * n + col] += 1;
        }
        let total = a.len() as f32;
        let sfi: f32 = counts
            .iter()
            .map(|&c| {
                let p = c as f32 / total;
                p * p
            })
            .sum();
        let col_avgs: Vec<f32> = (0..n)
            .map(|col| {
                let sum: u32 = (0..n).map(|row| counts[row * n + col]).sum();
                sum as f32 / n as f32
            })
            .collect();
        let mean_cols = col_avgs.iter().sum::<f32>() / n as f32;
        let variance = col_avgs
            .iter()
            .map(|&v| (v - mean_cols) * (v - mean_cols))
            .sum::<f32>()
            / n as f32;
        let spread = match version {
            Version::Original => sqrt_newton_f32(variance),
            _ => variance,
        };
        // Single-pass composite trapezoid over [0, n-1].
        let auc = {
            let n_intervals = (n - 1) as f32;
            let sum: f32 = col_avgs.windows(2).map(|w| w[0] + w[1]).sum();
            n_intervals / (2.0 * n_intervals) * sum
        };

        let mut out = Vec::with_capacity(8);
        out.push(sfi);
        out.push(spread);
        out.push(auc);
        out.extend_from_slice(&geo);
        Ok(out)
    }

    /// The reduced detector's fixed-point pipeline: the five simplified
    /// geometric features computed entirely in Q16.16 over streamed 12-bit
    /// ADC codes — no floating point at all, matching the 69-byte SRAM
    /// footprint and fixed-point cycle pricing of Table III.
    ///
    /// The ABP channel is streamed (only its running min/max and the peak
    /// samples are kept); the ECG channel's peak samples are read from the
    /// single buffered channel.
    ///
    /// # Errors
    ///
    /// Returns [`SiftError::DegenerateSignal`] when either channel has no
    /// span after quantization (flat-lined sensor).
    pub fn extract_reduced_q16(snippet: &Snippet) -> Result<[Q16; 5], SiftError> {
        ensure_finite(snippet)?;
        let e_codes = adc_codes(&snippet.ecg, -2.5, 2.5);
        let a_codes = adc_codes(&snippet.abp, 0.0, 250.0);
        let span = |codes: &[u16]| -> Result<(i32, i32), SiftError> {
            let lo = *codes.iter().min().ok_or(SiftError::InvalidSnippet {
                reason: "empty channel",
            })? as i32;
            let hi = *codes.iter().max().ok_or(SiftError::InvalidSnippet {
                reason: "empty channel",
            })? as i32;
            if hi <= lo {
                return Err(SiftError::DegenerateSignal);
            }
            Ok((lo, hi))
        };
        let (e_lo, e_hi) = span(&e_codes)?;
        let (a_lo, a_hi) = span(&a_codes)?;
        let e_span = Q16::from_int(e_hi - e_lo);
        let a_span = Q16::from_int(a_hi - a_lo);

        // Normalize only the peak coordinates (the streaming optimization).
        let at = |codes: &[u16], i: usize, lo: i32, span: Q16| -> Q16 {
            Q16::from_int(codes[i] as i32 - lo).saturating_div(span)
        };
        let point = |i: usize| -> (Q16, Q16) {
            (at(&a_codes, i, a_lo, a_span), at(&e_codes, i, e_lo, e_span))
        };

        let r_pts: Vec<(Q16, Q16)> = snippet.r_peaks.iter().map(|&i| point(i)).collect();
        let s_pts: Vec<(Q16, Q16)> = snippet.sys_peaks.iter().map(|&i| point(i)).collect();
        let pairs: Vec<((Q16, Q16), (Q16, Q16))> = snippet
            .paired_peaks()
            .into_iter()
            .map(|(r, s)| (point(r), point(s)))
            .collect();

        let slope_of = |(x, y): (Q16, Q16)| -> Q16 {
            let denom = if x <= Q16::EPSILON { Q16::EPSILON } else { x };
            y.saturating_div(denom)
        };
        let sqdist_of = |(x, y): (Q16, Q16)| -> Q16 { x.squared().saturating_add(y.squared()) };
        let pair_sqdist_of = |((xr, yr), (xs, ys)): ((Q16, Q16), (Q16, Q16))| -> Q16 {
            (xr - xs).squared().saturating_add((yr - ys).squared())
        };

        Ok([
            mean_q16(r_pts.iter().copied().map(slope_of)),
            mean_q16(s_pts.iter().copied().map(slope_of)),
            mean_q16(r_pts.iter().copied().map(sqdist_of)),
            mean_q16(s_pts.iter().copied().map(sqdist_of)),
            mean_q16(pairs.iter().copied().map(pair_sqdist_of)),
        ])
    }

    /// Corrupt driver data (NaN/∞) cannot be meaningfully quantized; treat
    /// it as a degenerate signal so the detector alerts instead of silently
    /// classifying a rail-clamped artifact.
    fn ensure_finite(snippet: &Snippet) -> Result<(), SiftError> {
        if snippet
            .ecg
            .iter()
            .chain(&snippet.abp)
            .all(|v| v.is_finite())
        {
            Ok(())
        } else {
            Err(SiftError::DegenerateSignal)
        }
    }

    /// Convert a signal to raw 12-bit ADC codes over the given input range.
    pub(super) fn adc_codes(signal: &[f64], lo: f64, hi: f64) -> Vec<u16> {
        let span = hi - lo;
        signal
            .iter()
            .map(|&v| {
                let clamped = v.clamp(lo, hi);
                ((clamped - lo) / span * 4095.0).round() as u16
            })
            .collect()
    }

    /// Model the 12-bit ADC: clamp to the input range and round to one of
    /// 4096 codes, then map the code back to the signal's units. Shares the
    /// code law with the fixed-point path's [`adc_codes`].
    fn quantize_12bit(signal: &[f64], lo: f64, hi: f64) -> Vec<f64> {
        let span = hi - lo;
        adc_codes(signal, lo, hi)
            .into_iter()
            .map(|code| lo + code as f64 / 4095.0 * span)
            .collect()
    }

    fn normalize_f32(signal: &[f64]) -> Result<Vec<f32>, SiftError> {
        if signal.is_empty() {
            return Err(SiftError::InvalidSnippet {
                reason: "empty channel",
            });
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in signal {
            let v = v as f32;
            if !v.is_finite() {
                return Err(SiftError::DegenerateSignal);
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi <= lo {
            return Err(SiftError::DegenerateSignal);
        }
        let span = hi - lo;
        Ok(signal.iter().map(|&v| (v as f32 - lo) / span).collect())
    }
}

/// Bit-for-bit parity of the fused front end with [`oracle`], plus the
/// edited-snippet errors the oracle cannot express (it panics on them).
#[cfg(test)]
mod exactness {
    use super::*;
    use physio_sim::dataset::windows;
    use physio_sim::record::{Record, SynthProfile};
    use physio_sim::subject::bank;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Both extractors agree: the same error, or the same feature bits.
    fn assert_parity(sn: &Snippet, cfg: &SiftConfig) {
        for v in Version::ALL {
            let new = extract_amulet_f32(v, sn, cfg);
            let old = oracle::extract_amulet_f32(v, sn, cfg);
            match (&new, &old) {
                (Ok(n), Ok(o)) => {
                    let nb: Vec<u32> = n.iter().map(|x| x.to_bits()).collect();
                    let ob: Vec<u32> = o.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(nb, ob, "{v}: features differ");
                }
                _ => assert_eq!(new, old, "{v}: outcomes differ"),
            }
        }
        assert_eq!(
            extract_reduced_q16(sn),
            oracle::extract_reduced_q16(sn),
            "q16 outcomes differ"
        );
    }

    #[test]
    fn bank_windows_match_the_oracle_bit_for_bit() {
        let cfg = SiftConfig::default();
        let mut checked = 0;
        for subject in &bank() {
            for seed in [3, 17, 61455] {
                for profile in [SynthProfile::Reference, SynthProfile::Turbo] {
                    let r = Record::synthesize_profiled(subject, 30.0, seed, profile);
                    for w in windows(&r, 3.0).unwrap() {
                        assert_parity(&Snippet::from_record(&w).unwrap(), &cfg);
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 720);
    }

    /// Values on, and one ulp either side of, every half-code boundary
    /// and every code level of `adc`.
    fn boundary_values(adc: Adc) -> Vec<f64> {
        let span = adc.hi - adc.lo;
        let mut out = Vec::new();
        for k in 0..4096u32 {
            for c in [f64::from(k), f64::from(k) + 0.5] {
                let b = adc.lo + c / 4095.0 * span;
                out.extend([b.next_down(), b, b.next_up()]);
            }
        }
        out
    }

    #[test]
    fn exact_round_matches_libm_round_on_every_boundary() {
        for (adc, lo, hi) in [(ECG_ADC, -2.5, 2.5), (ABP_ADC, 0.0, 250.0)] {
            let mut vals = boundary_values(adc);
            vals.extend([-0.0, 0.0, -1e300, 1e300, f64::MIN_POSITIVE, -5e-324]);
            let codes: Vec<u16> = vals.iter().map(|&v| adc.code(v)).collect();
            assert_eq!(codes, oracle::adc_codes(&vals, lo, hi));
        }
    }

    #[test]
    fn round_code_is_libm_round_near_every_half_and_whole() {
        // Four doubles either side of each k and k + 1/2, so a rounding
        // shortcut like `(x + 0.5) as u16` (wrong at 0.5 - 2^-54) fails.
        let mut checked = 0;
        for k in 0..=4095u32 {
            for centre in [f64::from(k), f64::from(k) + 0.5] {
                let mut below = centre;
                let mut above = centre;
                let mut xs = vec![centre];
                for _ in 0..4 {
                    below = below.next_down();
                    above = above.next_up();
                    xs.extend([below, above]);
                }
                for x in xs.into_iter().filter(|x| (0.0..=4095.0).contains(x)) {
                    assert_eq!(round_code(x), x.round() as u16, "x = {x:e}");
                    checked += 1;
                }
            }
        }
        assert_eq!(round_code(0.5f64.next_down()), 0);
        assert_eq!(round_code(-0.0), 0);
        assert!(checked > 70_000);
    }

    #[test]
    fn distinct_codes_have_distinct_f32_levels() {
        // `normalized` tests flatness on codes; the oracle tested it on
        // the f32 levels. The two agree because the levels of adjacent
        // codes stay strictly ordered after narrowing to f32.
        for adc in [ECG_ADC, ABP_ADC] {
            for k in 0..4095u16 {
                assert!(
                    (adc.level(k) as f32) < (adc.level(k + 1) as f32),
                    "code {k}"
                );
            }
        }
    }

    /// One sample, drawn from a menu of ordinary and hostile values.
    fn sample(rng: &mut StdRng, adc: Adc, allow_non_finite: bool) -> f64 {
        let span = adc.hi - adc.lo;
        match rng.gen_range(0..10u32) {
            0 => {
                let c = f64::from(rng.gen_range(0..4095u32)) + 0.5;
                let b = adc.lo + c / 4095.0 * span;
                [b.next_down(), b, b.next_up()][rng.gen_range(0..3usize)]
            }
            1 => [0.0, -0.0, adc.lo, adc.hi, -1e300, 1e300][rng.gen_range(0..6usize)],
            2 if allow_non_finite => {
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)]
            }
            // Outside the ADC range on either side.
            3 => adc.lo - span * rng.gen_range(0.0..1.0),
            4 => adc.hi + span * rng.gen_range(0.0..1.0),
            _ => rng.gen_range(adc.lo..adc.hi),
        }
    }

    /// A channel of `len` samples: ordinary, constant, or flat only after
    /// quantization (every sample within a third of a code of one level).
    fn channel(rng: &mut StdRng, adc: Adc, len: usize, allow_non_finite: bool) -> Vec<f64> {
        let span = adc.hi - adc.lo;
        match rng.gen_range(0..8u32) {
            0 => vec![sample(rng, adc, allow_non_finite); len],
            1 => {
                let centre = f64::from(rng.gen_range(0..4096u32));
                (0..len)
                    .map(|_| adc.lo + (centre + rng.gen_range(-0.33..0.33)) / 4095.0 * span)
                    .collect()
            }
            _ => (0..len)
                .map(|_| sample(rng, adc, allow_non_finite))
                .collect(),
        }
    }

    /// Sorted, distinct peak indices below `len`.
    fn peaks(rng: &mut StdRng, len: usize) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        let mut p: Vec<usize> = (0..rng.gen_range(0..6usize))
            .map(|_| rng.gen_range(0..len))
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// A snippet built by struct literal, so it can break every invariant
    /// [`Snippet::new`] checks except in-range peaks (the oracle panics
    /// on those; `out_of_range_peaks_are_an_error` covers them).
    fn hostile_snippet(seed: u64) -> Snippet {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..48usize);
        let (e_len, a_len) = match rng.gen_range(0..6u32) {
            0 => (len, rng.gen_range(0..48usize)),
            1 => (0, len),
            _ => (len, len),
        };
        let non_finite = rng.gen_range(0..4u32) == 0;
        let ecg = channel(&mut rng, ECG_ADC, e_len, non_finite);
        let abp = channel(&mut rng, ABP_ADC, a_len, non_finite);
        let both = e_len.min(a_len);
        Snippet {
            ecg,
            abp,
            r_peaks: peaks(&mut rng, both),
            sys_peaks: peaks(&mut rng, both),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn hostile_snippets_match_the_oracle(seed in any::<u64>(), grid in 1usize..12) {
            let cfg = SiftConfig { grid_n: grid, ..SiftConfig::default() };
            assert_parity(&hostile_snippet(seed), &cfg);
        }
    }

    #[test]
    fn hostile_snippets_reach_every_outcome() {
        // The generator is only useful if it hits features and each
        // error: tally the float and Q16 outcomes over a seed sweep.
        let cfg = SiftConfig::default();
        let mut tally = [[0usize; 3]; 2];
        for seed in 0..2000 {
            let sn = hostile_snippet(seed);
            for (row, v) in [Version::Simplified, Version::Reduced]
                .into_iter()
                .enumerate()
            {
                let slot = match extract_amulet_f32(v, &sn, &cfg) {
                    Ok(_) => 0,
                    Err(SiftError::DegenerateSignal) => 1,
                    Err(SiftError::InvalidSnippet { .. }) => 2,
                    Err(e) => panic!("unexpected {e:?}"),
                };
                tally[row][slot] += 1;
            }
        }
        assert!(tally.iter().flatten().all(|&n| n >= 100), "{tally:?}");
    }

    #[test]
    fn error_precedence_matches_the_oracle() {
        let flat_e = vec![0.5; 8];
        let flat_a = vec![80.0; 8];
        let mut ramp_e: Vec<f64> = (0..8).map(|i| f64::from(i) * 0.1).collect();
        let ramp_a: Vec<f64> = (0..8).map(|i| 60.0 + f64::from(i) * 5.0).collect();
        let cases = [
            // Finiteness before emptiness and flatness, on either channel.
            (vec![], vec![f64::NAN]),
            (flat_e.clone(), {
                let mut a = ramp_a.clone();
                a[3] = f64::INFINITY;
                a
            }),
            // Float path: ABP first; Q16 path: ECG first.
            (flat_e.clone(), vec![]),
            (vec![], flat_a.clone()),
            (flat_e.clone(), flat_a.clone()),
            (ramp_e.clone(), flat_a),
            (flat_e, ramp_a.clone()),
        ];
        let cfg = SiftConfig::default();
        for (ecg, abp) in cases {
            let sn = Snippet {
                ecg,
                abp,
                r_peaks: vec![],
                sys_peaks: vec![],
            };
            assert_parity(&sn, &cfg);
        }
        ramp_e[0] = f64::NEG_INFINITY;
        let grid_first = Snippet {
            ecg: ramp_e,
            abp: ramp_a,
            r_peaks: vec![],
            sys_peaks: vec![],
        };
        let bad_grid = SiftConfig { grid_n: 1, ..cfg };
        assert!(matches!(
            extract_amulet_f32(Version::Reduced, &grid_first, &bad_grid),
            Err(SiftError::InvalidConfig { .. })
        ));
        assert_parity(&grid_first, &bad_grid);
    }

    #[test]
    fn out_of_range_peaks_are_an_error() {
        let cfg = SiftConfig::default();
        let ecg: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.1).collect();
        let abp: Vec<f64> = (0..10).map(|i| 60.0 + f64::from(i) * 5.0).collect();
        let edited = |ecg_len: usize, r_peaks: Vec<usize>, sys_peaks: Vec<usize>| Snippet {
            ecg: ecg[..ecg_len].to_vec(),
            abp: abp.clone(),
            r_peaks,
            sys_peaks,
        };
        let cases = [
            edited(10, vec![2, 10], vec![]),
            edited(10, vec![], vec![3, 99]),
            edited(10, vec![usize::MAX], vec![1]),
            // In range for ABP, past the end of a shorter ECG channel.
            edited(6, vec![1], vec![7]),
        ];
        for sn in &cases {
            for v in Version::ALL {
                assert_eq!(
                    extract_amulet_f32(v, sn, &cfg),
                    Err(PEAK_OUT_OF_RANGE),
                    "{v}: {sn:?}"
                );
            }
            assert_eq!(extract_reduced_q16(sn), Err(PEAK_OUT_OF_RANGE));
        }
    }
}
