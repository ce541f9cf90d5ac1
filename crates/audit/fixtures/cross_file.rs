//@ scan-as: crates/graph/src/fixture_cross.rs
//! Self-test fixture for the pass-2 cross-file rule `det-merge`,
//! scoped as library code. It has violating sites (with a `//~`
//! marker) and compliant twins (without), so the self-test proves both
//! that the rule fires and that it stays quiet.

// ----- determinism of parallel merges ------------------------------------

fn residual_unannotated(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x.abs()).reduce(|| 0.0, f64::max) //~ det-merge
}

fn residual_annotated(xs: &[f64]) -> f64 {
    // det: f64::max is exact — the merge order cannot change the bits.
    xs.par_iter().map(|x| x.abs()).reduce(|| 0.0, f64::max)
}

fn sequential_merge_is_fine(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

