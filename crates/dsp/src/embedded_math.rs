//! Libm-free math replacements.
//!
//! Early AmuletOS versions shipped without the C math library, forcing the
//! paper's authors to hand-roll numeric helpers (Insight #2). This module
//! reproduces the numeric building blocks so the embedded
//! ("Amulet") execution flavor of the detector never calls into `std`'s
//! transcendental functions:
//!
//! * [`sqrt_newton`] / [`sqrt_newton_f32`] — Newton–Raphson square roots,
//! * [`isqrt_u64`] — integer square root (used by the Q16.16 fixed-point
//!   type),
//! * [`atan_approx`] / [`atan2_approx`] — polynomial arctangent.

/// Newton–Raphson square root for `f64`.
///
/// Converges to within a few ULP in ≤ 32 iterations for all finite
/// non-negative inputs. Negative inputs return NaN, matching `f64::sqrt`.
///
/// # Examples
///
/// ```
/// let y = dsp::embedded_math::sqrt_newton(2.0);
/// assert!((y - std::f64::consts::SQRT_2).abs() < 1e-12);
/// ```
// lint:allow(embedded-no-f64, models the authors' double-precision C path; the Amulet flavor uses sqrt_newton_f32/isqrt_u64)
// lint:allow(embedded-no-float-literal, Newton iteration constants are part of the reproduced algorithm)
pub fn sqrt_newton(x: f64) -> f64 {
    if x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    // Seed from the bit pattern (halve the exponent) for fast convergence.
    let bits = x.to_bits();
    let seed = f64::from_bits((bits >> 1) + (1023u64 << 51));
    let mut y = if seed > 0.0 { seed } else { x };
    for _ in 0..32 {
        let next = 0.5 * (y + x / y);
        if (next - y).abs() <= f64::EPSILON * next {
            return next;
        }
        y = next;
    }
    y
}

/// Newton–Raphson square root for `f32` (the Amulet flavor runs in
/// single precision).
// lint:allow(embedded-no-float-literal, single-precision Newton constants; f32 is the device's software-float width)
pub fn sqrt_newton_f32(x: f32) -> f32 {
    if x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let seed = f32::from_bits((bits >> 1) + (127u32 << 22));
    let mut y = if seed > 0.0 { seed } else { x };
    for _ in 0..24 {
        let next = 0.5 * (y + x / y);
        if (next - y).abs() <= f32::EPSILON * next {
            return next;
        }
        y = next;
    }
    y
}

/// Integer square root: the largest `r` with `r * r <= x`, computed with
/// the digit-by-digit (binary restoring) method — no floating point at
/// all, as an MSP430 without a math library would do it.
pub fn isqrt_u64(x: u64) -> u64 {
    if x < 2 {
        return x;
    }
    let mut bit = 1u64 << ((63 - x.leading_zeros()) & !1);
    let mut n = x;
    let mut res = 0u64;
    while bit != 0 {
        if n >= res + bit {
            n -= res + bit;
            res = (res >> 1) + bit;
        } else {
            res >>= 1;
        }
        bit >>= 2;
    }
    res
}

/// Polynomial arctangent approximation on the full real line.
///
/// Uses the order-7 minimax polynomial on `[-1, 1]` and the identity
/// `atan(x) = π/2 − atan(1/x)` outside it. Maximum absolute error is
/// below `2e-4` rad, which is far tighter than the feature-level noise in
/// the detector.
// lint:allow(embedded-no-f64, models the authors' double-precision C path; the reduced flavor avoids atan entirely)
// lint:allow(embedded-no-float-literal, range-reduction bounds are part of the reproduced algorithm)
pub fn atan_approx(x: f64) -> f64 {
    const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 1.0 {
        return FRAC_PI_2 - atan_core(1.0 / x);
    }
    if x < -1.0 {
        return -FRAC_PI_2 - atan_core(1.0 / x);
    }
    atan_core(x)
}

// lint:allow(embedded-no-f64, minimax kernel of the reproduced C atan)
// lint:allow(embedded-no-float-literal, polynomial coefficients are the algorithm)
fn atan_core(x: f64) -> f64 {
    // Minimax-style odd polynomial for atan on [-1, 1].
    let x2 = x * x;
    x * (0.99997726 + x2 * (-0.33262347 + x2 * (0.19354346 + x2 * (-0.11643287 + x2 * (0.05265332 + x2 * -0.01172120)))))
}

/// Quadrant-aware arctangent built on [`atan_approx`].
///
/// Follows the `f64::atan2` convention: `atan2_approx(y, x)` is the angle
/// of the point `(x, y)` in `(-π, π]`.
// lint:allow(embedded-no-f64, models the authors' double-precision C path; quadrant logic only)
// lint:allow(embedded-no-float-literal, quadrant constants are part of the reproduced algorithm)
pub fn atan2_approx(y: f64, x: f64) -> f64 {
    use std::f64::consts::PI;
    if x == 0.0 && y == 0.0 {
        return 0.0;
    }
    if x > 0.0 {
        atan_approx(y / x)
    } else if x < 0.0 {
        if y >= 0.0 {
            atan_approx(y / x) + PI
        } else {
            atan_approx(y / x) - PI
        }
    } else if y > 0.0 {
        PI / 2.0
    } else {
        -PI / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_matches_std_across_range() {
        for i in 0..2000 {
            let x = i as f64 * 0.37 + 0.001;
            let want = x.sqrt();
            let got = sqrt_newton(x);
            assert!(
                (want - got).abs() <= want * 1e-14 + 1e-300,
                "x={x} want={want} got={got}"
            );
        }
    }

    #[test]
    fn sqrt_edge_cases() {
        assert_eq!(sqrt_newton(0.0), 0.0);
        assert!(sqrt_newton(-1.0).is_nan());
        assert_eq!(sqrt_newton(f64::INFINITY), f64::INFINITY);
        assert_eq!(sqrt_newton(1.0), 1.0);
    }

    #[test]
    fn sqrt_f32_matches_std() {
        for i in 0..500 {
            let x = i as f32 * 0.13 + 0.01;
            let want = x.sqrt();
            let got = sqrt_newton_f32(x);
            assert!((want - got).abs() <= want * 1e-6, "x={x}");
        }
    }

    #[test]
    fn isqrt_exact_squares_and_neighbors() {
        assert_eq!(isqrt_u64(0), 0);
        for r in 1u64..2000 {
            let sq = r * r;
            assert_eq!(isqrt_u64(sq), r);
            assert_eq!(isqrt_u64(sq - 1), r - 1);
            assert_eq!(isqrt_u64(sq + 1), r);
        }
    }

    #[test]
    fn isqrt_u64_max() {
        let r = isqrt_u64(u64::MAX);
        assert_eq!(r, (1u64 << 32) - 1);
        assert!(r.checked_mul(r).is_some(), "floor sqrt must not overflow");
        assert!(r.checked_add(1).and_then(|s| s.checked_mul(s)).is_none());
    }

    #[test]
    fn atan_error_bounded() {
        for i in -1000..=1000 {
            let x = i as f64 * 0.01;
            let err = (atan_approx(x) - x.atan()).abs();
            assert!(err < 2e-4, "x={x} err={err}");
        }
        // Outside [-1, 1] via the reciprocal identity.
        for i in 1..100 {
            let x = i as f64 * 3.7;
            assert!((atan_approx(x) - x.atan()).abs() < 2e-4);
            assert!((atan_approx(-x) - (-x).atan()).abs() < 2e-4);
        }
    }

    #[test]
    fn atan2_quadrants() {
        let cases = [
            (1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
            (-1.0, 1.0),
            (0.0, 1.0),
            (1.0, 0.0),
            (-1.0, 0.0),
            (0.5, 2.0),
        ];
        for (y, x) in cases {
            let want = f64::atan2(y, x);
            let got = atan2_approx(y, x);
            assert!((want - got).abs() < 3e-4, "y={y} x={x} want={want} got={got}");
        }
        assert_eq!(atan2_approx(0.0, 0.0), 0.0);
    }
}
