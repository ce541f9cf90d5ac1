//! Tolerance comparisons for floats — the sanctioned replacements for
//! a bare `==`/`!=` between two computed floats, which the workspace's
//! `clippy::float_cmp` lint rejects in library code (DESIGN.md §9).
//!
//! Two distinct intents exist in this codebase:
//!
//! * **Tolerance comparisons** ([`approx_eq`], [`is_zero`]) — "these
//!   quantities are numerically equal". Use for probabilities, norms,
//!   F-scores and anything that has been through floating-point
//!   arithmetic.
//! * **Exact-zero tests** — "this slot was never written / this term
//!   contributes nothing". Write these as a plain `x == 0.0`, which
//!   `float_cmp` allows: it is true for `±0.0` only and false for NaN,
//!   so skip-zero optimizations in gradient loops carry no hidden
//!   tolerance that would silently drop small but real contributions.

/// Default absolute tolerance for [`approx_eq`] and [`is_zero`].
pub const EPSILON: f64 = 1e-12;

/// Whether `a` and `b` are equal within an absolute tolerance of
/// [`EPSILON`] (NaN compares unequal to everything).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

/// Whether `x` is numerically zero (|x| ≤ [`EPSILON`]).
#[inline]
pub fn is_zero(x: f64) -> bool {
    x.abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absorbs_representation_noise() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.1, 0.2));
        assert!(!approx_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn is_zero_is_tolerant() {
        assert!(is_zero(0.0));
        assert!(is_zero(1e-15));
        assert!(!is_zero(1e-9));
    }
}
