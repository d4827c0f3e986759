//! Branch-light transcendental kernels for the deviate fill loops.
//!
//! The stochastic sampling engine spends most of its time in `ln`, `exp`,
//! and `sin`/`cos` — one or two per deviate. libm's implementations are
//! accurate to the last ulp but built around tables and branches, which
//! defeats the loop vectorizer and costs a call per element. These kernels
//! trade the last couple of bits of accuracy (relative error ≲ 1e-13,
//! invisible under any statistical use) for straight-line polynomial
//! evaluation the compiler can unroll and vectorize across a fill block.
//!
//! Determinism: every kernel is pure IEEE-754 double arithmetic in a fixed
//! evaluation order — results are bit-identical on every platform and
//! toolchain, unlike libm whose results vary by implementation. The RNG
//! deviate streams built on these kernels are therefore portable, where
//! the previous libm-backed streams were glibc-specific.
//!
//! Domain contracts (callers uphold these; see each function):
//! - [`ln`]: finite, normal, positive input.
//! - [`exp`]: |x| ≤ ~700 (no overflow handling).
//! - [`sincos`]: |x| ≤ ~2π (single-step range reduction).
//!
//! Convert-free contract: no kernel executes an f64↔i64 conversion
//! instruction. Adding `SHIFTER` (1.5·2^52) to a value rounds it to the
//! nearest integer `k` *and* leaves `k` in the low mantissa bits of the
//! sum, so the integer is `sum.to_bits() − SHIFTER.to_bits()` (wrapping,
//! two's complement) and, the other way, `k as f64` is
//! `from_bits(SHIFTER.to_bits() + k) − SHIFTER`. Both are exact for
//! |k| < 2^51 — the domain contracts keep |k| ≤ 1075 — so the results are
//! the bits the `as i64` / `as f64` forms gave (the module tests keep those
//! forms as references and compare `to_bits`).

const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const SQRT2: f64 = std::f64::consts::SQRT_2;
/// 1.5·2^52: adding it rounds to the nearest integer (ties to even) and
/// parks that integer in the low mantissa bits of the sum.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
const SHIFTER_BITS: u64 = 0x4338_0000_0000_0000;

/// Natural log of a positive, normal, finite `x`.
///
/// Decomposes `x = 2^e · m` with `m ∈ [√2/2, √2)`, then evaluates
/// `ln m = 2·atanh(s)` for `s = (m−1)/(m+1)` (|s| ≤ 0.1716) as an odd
/// polynomial in `s²`. Subnormals, zero, negatives, and non-finite inputs
/// are outside the contract (fill loops clamp with
/// `max(f64::MIN_POSITIVE)`).
#[inline]
pub fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let e0 = (bits >> 52).wrapping_sub(1023);
    let m0 = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Fold m into [√2/2, √2) so s stays small and the polynomial short.
    // Branchless (select, not jump) so the fill loops stay vectorizable.
    let fold = m0 > SQRT2;
    let m = if fold { m0 * 0.5 } else { m0 };
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    // atanh series: s·(1 + z/3 + z²/5 + … + z⁷/15); z ≤ 0.0295 so the
    // truncated tail is < 1e-14 relative. Estrin grouping: three short
    // sub-chains in parallel instead of one six-deep Horner chain.
    let z2 = z * z;
    let q0 = (1.0 / 3.0 + z * (1.0 / 5.0)) + z2 * (1.0 / 7.0 + z * (1.0 / 9.0));
    let q1 = (1.0 / 11.0 + z * (1.0 / 13.0)) + z2 * (1.0 / 15.0);
    let p = z * (q0 + (z2 * z2) * q1);
    // `e = e0 + fold` as a float, exact at every step. The fold is added
    // in floating point: folded into the integer, LLVM packs the
    // `− SHIFTER` with the polynomial's last add and the scalar callers
    // (not the fills) pay ~7 ns for the longer chain.
    let ef0 = f64::from_bits(SHIFTER_BITS.wrapping_add(e0)) - SHIFTER;
    let ef = if fold { ef0 + 1.0 } else { ef0 };
    // Split ln2 so the large e·ln2 term doesn't swamp the small poly part.
    ef * LN2_HI + (2.0 * (s + s * p) + ef * LN2_LO)
}

/// `e^x` for |x| ≤ ~700.
///
/// Splits `x = k·ln2 + r` with `|r| ≤ ln2/2`, evaluates a degree-11
/// Taylor polynomial for `e^r`, and scales by `2^k` through the exponent
/// bits. No overflow/underflow handling — callers keep arguments in the
/// contract range (deviate multipliers and OU decays always are).
#[inline]
pub fn exp(x: f64) -> f64 {
    const INV_LN2: f64 = std::f64::consts::LOG2_E;
    // Round-to-nearest via the classic shifter trick keeps this branchless.
    let shifted = x * INV_LN2 + SHIFTER;
    let kf = shifted - SHIFTER;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // e^r, |r| ≤ 0.3466: Taylor through r¹¹/11! leaves < 2e-13 absolute.
    // Estrin grouping: pairs combined through r², r⁴, r⁸ — a ~4-deep
    // dependency chain instead of Horner's 11-deep one, which matters for
    // the scalar (latency-bound) callers like the OU decay recompute.
    let r2 = r * r;
    let r4 = r2 * r2;
    let q0 = (1.0 + r) + r2 * (0.5 + r * (1.0 / 6.0));
    let q1 = (1.0 / 24.0 + r * (1.0 / 120.0)) + r2 * (1.0 / 720.0 + r * (1.0 / 5_040.0));
    let q2 = (1.0 / 40_320.0 + r * (1.0 / 362_880.0))
        + r2 * (1.0 / 3_628_800.0 + r * (1.0 / 39_916_800.0));
    let p = q0 + r4 * (q1 + r4 * q2);
    let k = shifted.to_bits().wrapping_sub(SHIFTER_BITS);
    let scale = f64::from_bits(k.wrapping_add(1023) << 52);
    p * scale
}

/// `(sin x, cos x)` for |x| ≤ ~2π (one range-reduction step).
///
/// Reduces to `r = x − q·π/2` with `|r| ≤ π/4`, evaluates the sine and
/// cosine Taylor polynomials once, and swaps/negates by quadrant. The
/// quadrant selection is arithmetic (no table), so the whole body is
/// straight-line and block-vectorizable.
#[inline]
pub fn sincos(x: f64) -> (f64, f64) {
    const FRAC_PI_2_HI: f64 = std::f64::consts::FRAC_PI_2;
    const FRAC_PI_2_LO: f64 = 6.123_233_995_736_766e-17;
    let shifted = x * (1.0 / FRAC_PI_2_HI) + SHIFTER;
    let qf = shifted - SHIFTER;
    let r = (x - qf * FRAC_PI_2_HI) - qf * FRAC_PI_2_LO;
    let z = r * r;
    // sin r = r·(1 + z·S(z)), cos r = 1 + z·C(z); |r| ≤ π/4 keeps the
    // truncated Taylor tails below 3e-14. Estrin grouping through z², z⁴
    // shortens both chains and lets the two polynomials overlap.
    let z2 = z * z;
    let z4 = z2 * z2;
    let s_poly = z
        * (((-1.0 / 6.0 + z * (1.0 / 120.0)) + z2 * (-1.0 / 5_040.0 + z * (1.0 / 362_880.0)))
            + z4 * (-1.0 / 39_916_800.0 + z * (1.0 / 6_227_020_800.0)));
    let c_poly = z
        * (((-0.5 + z * (1.0 / 24.0)) + z2 * (-1.0 / 720.0 + z * (1.0 / 40_320.0)))
            + z4 * ((-1.0 / 3_628_800.0 + z * (1.0 / 479_001_600.0))
                + z2 * (-1.0 / 87_178_291_200.0)));
    let sin_r = r + r * s_poly;
    let cos_r = 1.0 + c_poly;
    // Quadrant fix-up, arithmetic form: q mod 4 selects the (sin, cos)
    // permutation. bit0 swaps, bit1 negates sin, bit0^bit1 negates cos.
    let q = shifted.to_bits().wrapping_sub(SHIFTER_BITS);
    let swap = (q & 1) != 0;
    let (mut s, mut c) = if swap { (cos_r, sin_r) } else { (sin_r, cos_r) };
    if (q & 2) != 0 {
        s = -s;
    }
    if ((q & 2) != 0) != swap {
        c = -c;
    }
    (s, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            ((a - b) / b).abs()
        }
    }

    // The kernels as they read before the convert-free rewrite: the same
    // arithmetic with the integer obtained by `as i64` and `e` turned back
    // by `as f64`. Kept here so the rewrite stays pinned bit for bit.
    fn ln_convert(x: f64) -> f64 {
        let bits = x.to_bits();
        let e0 = ((bits >> 52) as i64) - 1023;
        let m0 = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
        let fold = m0 > SQRT2;
        let m = if fold { m0 * 0.5 } else { m0 };
        let e = e0 + fold as i64;
        let s = (m - 1.0) / (m + 1.0);
        let z = s * s;
        let z2 = z * z;
        let q0 = (1.0 / 3.0 + z * (1.0 / 5.0)) + z2 * (1.0 / 7.0 + z * (1.0 / 9.0));
        let q1 = (1.0 / 11.0 + z * (1.0 / 13.0)) + z2 * (1.0 / 15.0);
        let p = z * (q0 + (z2 * z2) * q1);
        let ef = e as f64;
        ef * LN2_HI + (2.0 * (s + s * p) + ef * LN2_LO)
    }

    fn exp_convert(x: f64) -> f64 {
        let kf = (x * std::f64::consts::LOG2_E + SHIFTER) - SHIFTER;
        let r = (x - kf * LN2_HI) - kf * LN2_LO;
        let r2 = r * r;
        let r4 = r2 * r2;
        let q0 = (1.0 + r) + r2 * (0.5 + r * (1.0 / 6.0));
        let q1 = (1.0 / 24.0 + r * (1.0 / 120.0)) + r2 * (1.0 / 720.0 + r * (1.0 / 5_040.0));
        let q2 = (1.0 / 40_320.0 + r * (1.0 / 362_880.0))
            + r2 * (1.0 / 3_628_800.0 + r * (1.0 / 39_916_800.0));
        let p = q0 + r4 * (q1 + r4 * q2);
        p * f64::from_bits((((kf as i64) + 1023) as u64) << 52)
    }

    fn sincos_convert(x: f64) -> (f64, f64) {
        const FRAC_PI_2_HI: f64 = std::f64::consts::FRAC_PI_2;
        const FRAC_PI_2_LO: f64 = 6.123_233_995_736_766e-17;
        let qf = (x * (1.0 / FRAC_PI_2_HI) + SHIFTER) - SHIFTER;
        let r = (x - qf * FRAC_PI_2_HI) - qf * FRAC_PI_2_LO;
        let z = r * r;
        let z2 = z * z;
        let z4 = z2 * z2;
        let s_poly = z
            * (((-1.0 / 6.0 + z * (1.0 / 120.0)) + z2 * (-1.0 / 5_040.0 + z * (1.0 / 362_880.0)))
                + z4 * (-1.0 / 39_916_800.0 + z * (1.0 / 6_227_020_800.0)));
        let c_poly = z
            * (((-0.5 + z * (1.0 / 24.0)) + z2 * (-1.0 / 720.0 + z * (1.0 / 40_320.0)))
                + z4 * ((-1.0 / 3_628_800.0 + z * (1.0 / 479_001_600.0))
                    + z2 * (-1.0 / 87_178_291_200.0)));
        let sin_r = r + r * s_poly;
        let cos_r = 1.0 + c_poly;
        let q = qf as i64;
        let swap = (q & 1) != 0;
        let (mut s, mut c) = if swap { (cos_r, sin_r) } else { (sin_r, cos_r) };
        if (q & 2) != 0 {
            s = -s;
        }
        if ((q & 2) != 0) != swap {
            c = -c;
        }
        (s, c)
    }

    fn assert_sincos_bits(x: f64) {
        let (s, c) = sincos(x);
        let (rs, rc) = sincos_convert(x);
        assert_eq!(
            (s.to_bits(), c.to_bits()),
            (rs.to_bits(), rc.to_bits()),
            "x={x:e}"
        );
    }

    #[test]
    fn convert_free_kernels_match_the_convert_forms_bitwise() {
        let mut rng = crate::rng::Prng::new(0x5EED_F00D);
        for _ in 0..1_000_000 {
            // ln: every normal positive double (random exponent and
            // mantissa), and the (0, 1] uniforms the fills feed it.
            let wide = f64::from_bits(rng.next_u64() >> 1).max(f64::MIN_POSITIVE);
            if wide.is_finite() {
                assert_eq!(ln(wide).to_bits(), ln_convert(wide).to_bits(), "x={wide:e}");
            }
            let unit = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
            assert_eq!(ln(unit).to_bits(), ln_convert(unit).to_bits(), "x={unit:e}");
            // exp: the whole contract range, k from −1010 to 1010.
            let x = rng.uniform(-700.0, 700.0);
            assert_eq!(exp(x).to_bits(), exp_convert(x).to_bits(), "x={x:e}");
            // sincos: the contract range, both signs.
            assert_sincos_bits(rng.uniform(-std::f64::consts::TAU, std::f64::consts::TAU));
        }
        for x in [f64::MIN_POSITIVE, 1.79e308, f64::MAX, 0.5, 1.0, SQRT2, 2.0] {
            assert_eq!(ln(x).to_bits(), ln_convert(x).to_bits(), "x={x:e}");
        }
        for x in [-700.0, 700.0, -0.0, 0.0, 0.5 * LN2_HI, -0.5 * LN2_HI, 1e-17] {
            assert_eq!(exp(x).to_bits(), exp_convert(x).to_bits(), "x={x:e}");
        }
        // Every quadrant of [0, 2π], the quadrant boundaries (where q's
        // rounding ties), and a negative argument.
        for i in 0..=16 {
            assert_sincos_bits(i as f64 * (std::f64::consts::TAU / 16.0));
        }
        for x in [
            0.4,
            2.0,
            3.5,
            5.5,
            -0.4,
            -2.0,
            -3.5,
            -5.5,
            -std::f64::consts::TAU,
        ] {
            assert_sincos_bits(x);
        }
    }

    #[test]
    fn ln_tracks_libm_over_unit_interval_and_beyond() {
        // The fills call ln on (0,1] uniforms; cover wide magnitudes too.
        for i in 1..=100_000u64 {
            let x = i as f64 / 100_000.0;
            assert!(rel_err(ln(x), x.ln()) < 1e-13, "x={x}");
        }
        for &x in &[1e-300, 2.3e-10, 0.5, 1.0, 1.0 + 1e-12, 7.25, 1e18, 1.79e308] {
            assert!(rel_err(ln(x), x.ln()) < 1e-13, "x={x}");
        }
        assert_eq!(ln(1.0), 0.0);
    }

    #[test]
    fn exp_tracks_libm_over_deviate_range() {
        for i in -60_000..=60_000i64 {
            let x = i as f64 / 1_000.0; // [-60, 60] covers any sane mu+sigma·z
            assert!(rel_err(exp(x), x.exp()) < 1e-12, "x={x}");
        }
        for &x in &[-700.0, -0.0, 0.0, 1e-17, 700.0] {
            assert!(rel_err(exp(x), x.exp()) < 1e-12, "x={x}");
        }
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn sincos_tracks_libm_over_two_turns() {
        for i in 0..=200_000u64 {
            let x = i as f64 * (std::f64::consts::TAU / 200_000.0);
            let (s, c) = sincos(x);
            assert!((s - x.sin()).abs() < 1e-13, "sin x={x}");
            assert!((c - x.cos()).abs() < 1e-13, "cos x={x}");
        }
        let (s, c) = sincos(0.0);
        assert_eq!(s, 0.0);
        assert_eq!(c, 1.0);
    }

    #[test]
    fn sincos_identity_holds() {
        for i in 0..10_000u64 {
            let x = i as f64 * 6.7e-4;
            let (s, c) = sincos(x);
            assert!((s * s + c * c - 1.0).abs() < 1e-12);
        }
    }
}
