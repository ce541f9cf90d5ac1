//@ scan-as: crates/graph/src/fixture_cross.rs
//! Self-test fixture for the pass-2 cross-file rule families
//! `det-merge` and `span-known`, scoped as library code. Each family
//! has violating sites (with a `//~` marker) and compliant twins
//! (without), so the self-test proves both that the rules fire and
//! that they stay quiet.

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

// ----- span-name closure -------------------------------------------------

mod stage {
    pub const KNOWN: &str = "graph.knn";
    pub const UNREGISTERED: &str = "fixture.const_span";
}

fn opens_spans(name: &'static str) {
    let _known = span("graph.knn");
    let _new = span("fixture.unknown_span"); //~ span-known
    let _known_const = span(stage::KNOWN);
    let _new_const = span(stage::UNREGISTERED); //~ span-known
    let _dynamic = span(name); // a parameter: out of static reach
}
