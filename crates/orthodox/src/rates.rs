//! The orthodox (first-order, golden-rule) tunnel rate.
//!
//! For a tunnel event with free-energy change `ΔF` across a junction with
//! tunnel resistance `R_t`, the orthodox theory gives
//!
//! ```text
//! Γ(ΔF) = (−ΔF) / (e²·R_t · (1 − exp(ΔF / k_B T)))
//! ```
//!
//! which reduces to `Γ = −ΔF/(e²R_t)` for favourable events at `T → 0`,
//! vanishes for unfavourable events at `T → 0`, and approaches
//! `k_BT/(e²R_t)` at `ΔF → 0`. The characteristic attempt time of a
//! favourable event, `e²R_t/|ΔF|`, is sub-picosecond for typical parameters,
//! which is the paper's point that tunnelling itself is not the speed
//! bottleneck of SET logic.

use crate::error::OrthodoxError;
use se_units::constants::{BOLTZMANN, E};

/// Relative width of the `ΔF → 0` series-expansion window, in units of
/// `k_B·T`.
const SERIES_WINDOW: f64 = 1e-9;

/// Exponent beyond which the Boltzmann suppression is treated as exact zero
/// to avoid overflow in `exp` (crate-visible so the hot-path rate table can
/// precompute the matching ΔF cutoff).
pub(crate) const MAX_EXPONENT: f64 = 500.0;

/// `e^x` as straight-line floating-point arithmetic: `2^n · e^r` with the
/// reduction `x = n·ln 2 + r`, `|r| ≤ ½ln 2`, and `e^r` summed as a
/// degree-12 Taylor polynomial (truncation ≤ 1 ulp over the reduced range,
/// far inside the rate formula's physical tolerance).
///
/// The point of not calling [`f64::exp`]: libm's exp is an opaque scalar
/// call, so a rate fill that needs it — every junction whose ΔF lands in
/// the thermal window — cannot auto-vectorize. This version is pure
/// element-wise arithmetic (the round-to-nearest `n` comes from the
/// add-magic trick, `2^n` from assembling the exponent bits), which LLVM
/// vectorizes across replica lanes; and because the scalar and batched
/// engines evaluate the *same* expression the result is bit-identical on
/// both paths, vectorized or not.
///
/// Only meaningful for `|x| ≤` [`MAX_EXPONENT`] — the callers' Boltzmann
/// window. Outside it the scale factor's exponent bits can wrap: the
/// result is garbage (but safely computed), and every caller selects it
/// away.
#[inline(always)]
pub(crate) fn exp_boltzmann(x: f64) -> f64 {
    const INV_LN2: f64 = std::f64::consts::LOG2_E;
    // 1.5 · 2^52: adding it rounds `x·log2(e)` to the nearest integer in
    // the low mantissa bits (two's complement in the low 32 for |n| < 2^31).
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    // ln 2 split hi/lo so `x − n·ln 2` keeps full precision. Written with
    // the guard digits of the standard Cody–Waite split; the literals
    // round to the intended bit patterns.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
    #[allow(clippy::excessive_precision)]
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    let shifted = x * INV_LN2 + MAGIC;
    let n = shifted - MAGIC;
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    let k = shifted.to_bits() as u32 as i32;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // Horner over 1/k!, k = 12..0 (each constant folds to the correctly
    // rounded f64 at compile time).
    let p = 1.0 / 479_001_600.0;
    let p = p * r + 1.0 / 39_916_800.0;
    let p = p * r + 1.0 / 3_628_800.0;
    let p = p * r + 1.0 / 362_880.0;
    let p = p * r + 1.0 / 40_320.0;
    let p = p * r + 1.0 / 5_040.0;
    let p = p * r + 1.0 / 720.0;
    let p = p * r + 1.0 / 120.0;
    let p = p * r + 1.0 / 24.0;
    let p = p * r + 1.0 / 6.0;
    let p = p * r + 1.0 / 2.0;
    let p = p * r + 1.0;
    let p = p * r + 1.0;
    #[allow(clippy::cast_sign_loss)]
    let scale = f64::from_bits(((1023_i64 + i64::from(k)) as u64) << 52);
    p * scale
}

/// The orthodox rate for `kt > 0`, written as straight-line selects so a
/// lane loop over it auto-vectorizes (no early returns, every regime
/// computed and the right one chosen). This is the one place the thermal
/// denominator and the `ΔF → 0` series window are written: lane loops call
/// it for every ΔF, and [`rate_from_parts`] calls it for the thermal window
/// after its own overflow compares. The select order sets the priorities:
/// series window first, then the two overflow guards, then the thermal
/// denominator.
#[inline(always)]
pub(crate) fn rate_from_parts_branchfree(
    delta_f: f64,
    prefactor: f64,
    kt: f64,
    inv_kt: f64,
) -> f64 {
    debug_assert!(kt > 0.0);
    let x = delta_f * inv_kt;
    let thermal_rate = (-delta_f) * prefactor / (1.0 - exp_boltzmann(x));
    let rate = if x < -MAX_EXPONENT {
        -delta_f * prefactor
    } else {
        thermal_rate
    };
    let rate = if x > MAX_EXPONENT { 0.0 } else { rate };
    let rate = if x.abs() < SERIES_WINDOW {
        kt * prefactor
    } else {
        rate
    };
    rate.max(0.0)
}

/// Orthodox tunnel rate (events per second) for a free-energy change
/// `delta_f` (joule), tunnel resistance `resistance` (ohm) and temperature
/// `temperature` (kelvin).
///
/// # Errors
///
/// Returns [`OrthodoxError::InvalidParameter`] if the resistance is not
/// strictly positive, the temperature is negative, or `delta_f` is not
/// finite.
///
/// # Example
///
/// ```
/// use se_orthodox::tunnel_rate;
///
/// # fn main() -> Result<(), se_orthodox::OrthodoxError> {
/// // A favourable event: 1 meV gain across a 100 kΩ junction at 1 K.
/// let df = -1.602e-22;
/// let rate = tunnel_rate(df, 100e3, 1.0)?;
/// assert!(rate > 1e7);
/// # Ok(())
/// # }
/// ```
pub fn tunnel_rate(delta_f: f64, resistance: f64, temperature: f64) -> Result<f64, OrthodoxError> {
    if resistance <= 0.0 || !resistance.is_finite() {
        return Err(OrthodoxError::InvalidParameter(format!(
            "tunnel resistance must be positive and finite, got {resistance}"
        )));
    }
    if temperature < 0.0 || !temperature.is_finite() {
        return Err(OrthodoxError::InvalidParameter(format!(
            "temperature must be non-negative and finite, got {temperature}"
        )));
    }
    if !delta_f.is_finite() {
        return Err(OrthodoxError::InvalidParameter(format!(
            "free-energy change must be finite, got {delta_f}"
        )));
    }

    if temperature == 0.0 {
        return Ok(tunnel_rate_zero_temperature(delta_f, resistance));
    }
    let kt = BOLTZMANN * temperature;
    Ok(rate_from_parts(
        delta_f,
        1.0 / (E * E * resistance),
        kt,
        1.0 / kt,
    ))
}

/// The orthodox rate formula for a precomputed junction prefactor
/// `1/(e²·R_t)`, thermal energy `kt = k_B·T` and its reciprocal — the
/// infallible, inline core shared by [`tunnel_rate`] and the hot-path rate
/// table of [`crate::live::RateContext`], so every engine evaluates exactly
/// the same limits (series window at `ΔF → 0`, hard zero beyond the
/// Boltzmann overflow exponent). The reciprocal is taken as a parameter so
/// hot loops can hoist the division out of the per-event path.
///
/// Compare-first: the two regimes that dominate a cold circuit (frozen and
/// strongly favourable) cost one compare each, and only the thermal window
/// pays for [`rate_from_parts_branchfree`]. Routing every rate through the
/// branch-free kernel instead ran the flat KMC loop at 0.35–0.47× at 0.1 K.
#[inline]
pub(crate) fn rate_from_parts(delta_f: f64, prefactor: f64, kt: f64, inv_kt: f64) -> f64 {
    if kt == 0.0 {
        return rate_zero_kelvin(delta_f, prefactor);
    }
    let x = delta_f * inv_kt;
    if x > MAX_EXPONENT {
        // Deep Boltzmann suppression: numerically zero.
        0.0
    } else if x < -MAX_EXPONENT {
        // Strongly favourable: denominator is 1.
        -delta_f * prefactor
    } else {
        rate_from_parts_branchfree(delta_f, prefactor, kt, inv_kt)
    }
}

/// The orthodox rate at `kT = 0` for a precomputed prefactor `1/(e²·R_t)`:
/// `−ΔF·prefactor` for a favourable event, `+0` otherwise (`ΔF = ±0`
/// included).
#[inline(always)]
pub(crate) fn rate_zero_kelvin(delta_f: f64, prefactor: f64) -> f64 {
    if delta_f < 0.0 {
        -delta_f * prefactor
    } else {
        0.0
    }
}

/// Zero-temperature limit of the orthodox rate: `−ΔF/(e²R)` for favourable
/// events, `0` otherwise.
#[must_use]
pub fn tunnel_rate_zero_temperature(delta_f: f64, resistance: f64) -> f64 {
    if delta_f < 0.0 {
        -delta_f / (E * E * resistance)
    } else {
        0.0
    }
}

/// Intrinsic tunnelling attempt time `e²·R_t/|ΔF|` in seconds for a
/// favourable event — the quantity behind the paper's statement that
/// tunnelling is a sub-picosecond process.
///
/// Returns `f64::INFINITY` for `ΔF >= 0`.
#[must_use]
pub fn intrinsic_tunnel_time(delta_f: f64, resistance: f64) -> f64 {
    if delta_f >= 0.0 {
        f64::INFINITY
    } else {
        E * E * resistance / (-delta_f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const R: f64 = 100e3;

    #[test]
    fn rejects_invalid_arguments() {
        assert!(tunnel_rate(-1e-22, 0.0, 1.0).is_err());
        assert!(tunnel_rate(-1e-22, -1.0, 1.0).is_err());
        assert!(tunnel_rate(-1e-22, R, -1.0).is_err());
        assert!(tunnel_rate(f64::NAN, R, 1.0).is_err());
    }

    #[test]
    fn favourable_rate_at_low_temperature_is_linear_in_energy() {
        let df = -1e-21;
        let rate = tunnel_rate(df, R, 0.001).unwrap();
        let expected = -df / (E * E * R);
        assert!((rate - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn unfavourable_rate_is_boltzmann_suppressed() {
        let df = 1e-21; // ~6 meV
        let t = 1.0;
        let rate = tunnel_rate(df, R, t).unwrap();
        let favourable = tunnel_rate(-df, R, t).unwrap();
        let ratio = rate / favourable;
        let boltzmann = (-df / (BOLTZMANN * t)).exp();
        assert!(
            (ratio - boltzmann).abs() / boltzmann < 1e-6,
            "detailed balance violated: ratio {ratio}, boltzmann {boltzmann}"
        );
    }

    #[test]
    fn zero_energy_limit_is_thermal() {
        let t = 4.2;
        let rate = tunnel_rate(0.0, R, t).unwrap();
        let expected = BOLTZMANN * t / (E * E * R);
        assert!((rate - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn zero_temperature_limits() {
        assert_eq!(tunnel_rate(1e-22, R, 0.0).unwrap(), 0.0);
        let df = -2e-21;
        let rate = tunnel_rate(df, R, 0.0).unwrap();
        assert!((rate - (-df) / (E * E * R)).abs() < 1e-6 * rate);
        assert_eq!(tunnel_rate_zero_temperature(0.0, R), 0.0);
    }

    #[test]
    fn extreme_suppression_does_not_overflow() {
        // 1 eV uphill at 1 mK: astronomically suppressed but must return 0.
        let rate = tunnel_rate(1.6e-19, R, 0.001).unwrap();
        assert_eq!(rate, 0.0);
        // 1 eV downhill at 1 mK: plain linear rate.
        let rate = tunnel_rate(-1.6e-19, R, 0.001).unwrap();
        assert!(rate.is_finite() && rate > 0.0);
    }

    #[test]
    fn intrinsic_tunnel_time_is_sub_picosecond_for_typical_parameters() {
        // ~1 charging energy (30 meV) across 100 kΩ.
        let df = -4.8e-21 * 10.0;
        let tau = intrinsic_tunnel_time(df, R);
        assert!(tau < 1e-12, "tunnel time {tau} s should be sub-picosecond");
        assert_eq!(intrinsic_tunnel_time(1e-21, R), f64::INFINITY);
    }

    /// `rate_from_parts_branchfree` against the cascade it replaces,
    /// compared by bit pattern (so a mismatched zero sign counts too).
    fn branchfree_matches_cascade(delta_f: f64, temperature: f64, resistance: f64) -> bool {
        let kt = BOLTZMANN * temperature;
        let inv_kt = 1.0 / kt;
        let prefactor = 1.0 / (E * E * resistance);
        rate_from_parts_branchfree(delta_f, prefactor, kt, inv_kt).to_bits()
            == rate_from_parts(delta_f, prefactor, kt, inv_kt).to_bits()
    }

    #[test]
    fn branchfree_rate_is_bitwise_the_cascade_at_the_edges() {
        for t in [0.01, 0.1, 4.2, 300.0] {
            // ±0.0, and ΔF exactly at ±500 kT (the frozen cutoff) with the
            // neighbouring ulps on both sides.
            let cutoff = MAX_EXPONENT * (BOLTZMANN * t);
            let mut cases = vec![0.0, -0.0];
            for edge in [cutoff, -cutoff] {
                for ulps in -3_i64..=3 {
                    cases.push(f64::from_bits(edge.to_bits().wrapping_add_signed(ulps)));
                }
            }
            for delta_f in cases {
                assert!(
                    branchfree_matches_cascade(delta_f, t, R),
                    "T = {t}, ΔF = {delta_f:e}"
                );
            }
        }
    }

    #[test]
    fn zero_kelvin_rate_is_pinned_bit_for_bit() {
        let prefactor = 1.0 / (E * E * R);
        // ±0, the three smallest subnormals on each side of zero, the
        // subnormal/normal boundary and large |ΔF|.
        let mut cases = vec![0.0, -0.0];
        for ulps in 1_u64..=3 {
            cases.push(f64::from_bits(ulps));
            cases.push(-f64::from_bits(ulps));
        }
        for magnitude in [f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE, 1.6e-19, 1e300] {
            cases.push(magnitude);
            cases.push(-magnitude);
        }
        for delta_f in cases {
            // The 0 K arm of the orthodox rate: the linear rate for a
            // favourable event, `+0` (never `−0`) for everything else.
            let expected = if delta_f < 0.0 {
                (-delta_f * prefactor).to_bits()
            } else {
                0.0_f64.to_bits()
            };
            assert_eq!(
                rate_zero_kelvin(delta_f, prefactor).to_bits(),
                expected,
                "ΔF = {delta_f:e}"
            );
            assert_eq!(
                rate_from_parts(delta_f, prefactor, 0.0, 0.0).to_bits(),
                expected,
                "ΔF = {delta_f:e}"
            );
        }
        assert!(rate_zero_kelvin(-f64::from_bits(1), prefactor) > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The branch-free rate is bitwise the cascade wherever the
        /// cascade switches branch — across the `ΔF → 0` series window,
        /// around ±`MAX_EXPONENT` (where the 500 kT frozen cutoff also
        /// sits) — and over the whole thermal range in between.
        #[test]
        fn prop_branchfree_rate_is_bitwise_the_cascade(
            region in 0_usize..4,
            offset in -1.0_f64..1.0,
            t in 0.01_f64..300.0,
            r_kohm in 26.0_f64..10_000.0,
        ) {
            let x = match region {
                0 => 3.0 * SERIES_WINDOW * offset,
                1 => MAX_EXPONENT * (1.0 + 1e-9 * offset),
                2 => -MAX_EXPONENT * (1.0 + 1e-9 * offset),
                _ => 1.2 * MAX_EXPONENT * offset,
            };
            let delta_f = x * BOLTZMANN * t;
            prop_assert!(branchfree_matches_cascade(delta_f, t, r_kohm * 1e3));
        }
    }

    proptest! {
        /// Rates are always non-negative and finite.
        #[test]
        fn prop_rates_are_non_negative(
            df_mev in -100.0_f64..100.0,
            r_kohm in 26.0_f64..10_000.0,
            t in 0.0_f64..300.0,
        ) {
            let df = df_mev * 1e-3 * E;
            let rate = tunnel_rate(df, r_kohm * 1e3, t).unwrap();
            prop_assert!(rate >= 0.0);
            prop_assert!(rate.is_finite());
        }

        /// Detailed balance: Γ(ΔF)/Γ(−ΔF) = exp(−ΔF/kT) whenever both rates
        /// are representable.
        #[test]
        fn prop_detailed_balance(
            df_mev in 0.01_f64..5.0,
            t in 0.5_f64..300.0,
        ) {
            let df = df_mev * 1e-3 * E;
            let up = tunnel_rate(df, R, t).unwrap();
            let down = tunnel_rate(-df, R, t).unwrap();
            prop_assume!(up > 0.0 && down > 0.0);
            let ratio = up / down;
            let expected = (-df / (BOLTZMANN * t)).exp();
            prop_assume!(expected > 1e-290);
            prop_assert!((ratio - expected).abs() / expected < 1e-6);
        }

        /// The rate is monotonically non-increasing in ΔF (more uphill =
        /// slower).
        #[test]
        fn prop_rate_monotone_in_delta_f(
            df_mev in -10.0_f64..10.0,
            t in 0.1_f64..300.0,
        ) {
            let df = df_mev * 1e-3 * E;
            let rate = tunnel_rate(df, R, t).unwrap();
            let rate_higher = tunnel_rate(df + 1e-3 * E, R, t).unwrap();
            prop_assert!(rate_higher <= rate * (1.0 + 1e-9));
        }
    }
}
