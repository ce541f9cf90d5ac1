//! Audit fixture: adversarial lexing. Allocation sites in hot functions
//! hide behind every construct that could fool a naive text search —
//! the findings must be exactly the marked ones, nothing more. A
//! lexer that mistakes a comment, string or char for code finds a
//! site no marker expects; one that opens a string too early misses a
//! marked site.

// hot: comments are not code, and nested block comments close in pairs
fn after_comments(xs: &[u32]) -> Vec<u32> {
    /* block comment with xs.to_vec() inside
       /* nested block comment: vec![1] */
       still commented: Vec::new() */
    xs.to_vec() //~ hot-alloc
}

// hot: string contents are not code
fn strings_with_hashes(xs: &[u32]) -> usize {
    let raw = r##"r-string "# then xs.to_vec() and "quotes" inside"##;
    let bytes = b"byte string with \" then vec![] and \"escaped quotes\"";
    let ch = '"'; let copy = xs.to_vec(); //~ hot-alloc
    let lifetime_ok: &'static str = "lifetimes are not chars"; let s = ch.to_string(); //~ hot-alloc
    raw.len() + bytes.len() + copy.len() + lifetime_ok.len() + s.len()
}

// hot: numeric literals that end before a method call or a range
fn numbers(x: f64) -> usize {
    let range_is_int = (0..2).collect::<Vec<u32>>(); //~ hot-alloc
    let method_on_int = 1.max(2); let owned = 1.to_string(); //~ hot-alloc
    let exponent = 2.5e3f64.min(x); let cloned = 2.5e3f64.clone(); //~ hot-alloc
    let m = 1.0f64.max(x);
    let i = 1f64.abs();
    let plain = 3.5.clamp(0.0, 4.0).to_string(); //~ hot-alloc
    range_is_int.len() + method_on_int + owned.len() + plain.len()
        + usize::from(exponent < cloned && m < i)
}

// hot: lifetimes are not char literals, and char literals end where they should
fn lifetimes_vs_char_literals<'a>(s: &'a str) -> Vec<char> {
    let newline = '\n';
    let tick = '\'';
    let plain = 'x';
    let underscore = '_';
    s.chars().filter(|&c| c == newline || c == tick || c == plain || c == underscore).collect() //~ hot-alloc
}

// hot: a lifetime-heavy signature, then a real site
fn generic_lifetime_bounds<'a, T: 'a + Clone>(v: &'a [T]) -> Option<T> {
    v.first().map(|t| t.clone()) //~ hot-alloc
}

#[cfg(test)]
mod tests {
    // hot: annotations in test code do not seed the walk
    fn nested_braces_stay_excluded(x: Option<u32>) -> Vec<u32> {
        if let Some(v) = x {
            match v {
                0 => vec![v],
                _ => Vec::new(),
            }
        } else {
            x.into_iter().collect()
        }
    }
}

// hot: region tracking must end at the test mod's closing brace
fn after_the_test_mod(xs: &[u32]) -> Vec<u32> {
    xs.to_vec() //~ hot-alloc
}
