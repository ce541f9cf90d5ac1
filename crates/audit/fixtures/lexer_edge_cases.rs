//@ scan-as: crates/graph/src/fixture.rs
//! Self-test fixture: adversarial lexing. Violations hide behind every
//! construct that could fool a naive text search — the findings below
//! must be exactly the marked ones, nothing more.

/* block comment with a == 1.0 inside
   /* nested block comment: span("Bad Name") */
   still commented: b != 2.0 */
fn after_comments(x: f64) -> bool {
    x == 0.5 //~ no-float-eq
}

fn strings_with_hashes() -> String {
    let raw = r##"r-string with "quotes"# and span("Bad") and 1.0 == 1.0"##;
    let bytes = b"byte string with c != 2.0 and span(\"Bad\")";
    let ch = '"'; // a quote character, not a string opener
    let lifetime_ok: &'static str = "lifetimes are not chars";
    format!("{raw}{}{ch}{lifetime_ok}", bytes.len())
}

fn numbers(x: f64, n: u32) -> bool {
    let range_is_int = (0..2).len() == 2; // `0..2` must not lex as floats
    let method_on_int = 1.max(2) == 2; // `1.max` is not a float literal
    let suffixed = x == 1f64; //~ no-float-eq
    let exponent = 2.5e3 != x; //~ no-float-eq
    range_is_int && method_on_int && suffixed && exponent && n == 0
}

fn float_literals_with_method_calls(x: f64) -> bool {
    // suffixed float literals followed by `.method(...)` must lex as
    // one Float token plus a call, not derail into garbage
    let m = 1.0f64.max(x);
    let e = 2.5e3f64.min(x);
    let i = 1f64.abs();
    let plain = 3.5.clamp(0.0, 4.0);
    let ok = m.is_finite() && e.is_finite() && i.is_finite() && plain.is_finite();
    ok && 1.0f64.max(x) == 2.0 //~ no-float-eq
}

fn lifetimes_vs_char_literals<'a>(s: &'a str) -> usize {
    // `'a` above is a lifetime; these are char literals — confusing
    // one for the other desyncs every rule that follows
    let newline = '\n';
    let tick = '\'';
    let plain = 'x';
    let underscore = '_';
    s.chars().filter(|&c| c == newline || c == tick || c == plain || c == underscore).count()
}

fn generic_lifetime_bounds<'a, T: 'a>(v: &'a [T], x: f64) -> Option<&'a T> {
    // lifetime-heavy signature first, then a real violation: if `'a`
    // mislexed as an unterminated char the marker below would not match
    v.first().filter(|_| x == 1.0) //~ no-float-eq
}

#[cfg(test)]
mod tests {
    fn nested_braces_stay_excluded(x: Option<f64>) -> bool {
        if let Some(v) = x {
            match v {
                _ if v == 0.0 => span("fine in tests"),
                _ => v != 1.0,
            }
        } else {
            false
        }
    }
}

fn after_the_test_mod(x: f64) -> bool {
    // region tracking must end at the test mod's closing brace
    x != 3.0 //~ no-float-eq
}
