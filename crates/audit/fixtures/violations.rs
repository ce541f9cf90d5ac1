//@ scan-as: crates/core/src/fixture.rs
//! Self-test fixture: deliberate violations of the per-file audit
//! rule, each tagged with a `//~ rule-id` marker the self-test matches
//! exactly. Scoped as library code, so the rule applies. This file is
//! never compiled — it only feeds the audit's own lexer.

fn float_comparisons(x: f64) -> bool {
    let exact = x == 1.0; //~ no-float-eq
    let nonzero = 0.0 != x; //~ no-float-eq
    let sci = x == 1e-6; //~ no-float-eq
    exact || nonzero || sci
}

// --- negative space: none of the following may produce findings ---

fn fine(x: Option<u32>, y: f64) -> u32 {
    // x == 1.0 in a comment is not a finding
    let s = "y == 1.0 in a string is not a finding";
    let r = r#"y != 0.0 hidden in a raw string"#;
    let fallback = x.unwrap_or(0);
    let int_eq = fallback == 0; // integer equality is fine
    let eps_ok = (y - 1.0).abs() < 1e-9; // epsilon comparison is fine
    match (s.len(), r.len(), int_eq, eps_ok) {
        (0, 0, true, true) => 0,
        _ => fallback,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert!(1.0 == 1.0); // exempt: float eq in tests
    }
}
