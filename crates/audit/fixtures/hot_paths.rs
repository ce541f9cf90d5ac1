//! Audit fixture: the hot-path families. `// hot:` seeds the root,
//! the symbol-graph walk pulls `reached_helper` into the hot set, and
//! `cold_fn` stays outside it — every finding below must be exactly
//! the marked ones, nothing more.

// hot: fixture kernel standing in for a propagation inner loop
fn hot_kernel(xs: &[u64], i: usize, s: usize) -> Vec<u64> {
    let mut out = Vec::new(); //~ hot-alloc
    out.push(xs[i * s]); //~ hot-alloc //~ hot-overflow
    // alloc: scratch copy a real kernel would hoist to the caller
    let scratch = xs.to_vec();
    // bound: i + 1 < xs.len() is checked by the fixture caller
    let bounded = xs[i + 1];
    let guarded = xs[i.checked_mul(s).map_or(0, |p| p + 1)]; // checked_ guard
    let sum = scratch.len() as u64;
    out.push(reached_helper(sum + bounded + guarded)); //~ hot-alloc
    out
}

// not annotated: hot only because hot_kernel calls it
fn reached_helper(x: u64) -> u64 {
    let mut v = vec![x]; //~ hot-alloc
    // alloc: one formatting buffer per fixture call
    let s: String = x.to_string();
    v.push(s.len() as u64); //~ hot-alloc
    v[0]
}

// hot: bounded kernel variant, root in its own right
// bound: every index below is < xs.len() by the doc contract
fn fn_level_bound_covers_all_sites(xs: &[u64], i: usize, s: usize) -> u64 {
    let a = xs[i * s];
    let b = xs[i * s + 1];
    a + b + reached_helper(a)
}

fn cold_fn(xs: &[u64], i: usize, s: usize) -> u64 {
    // cold code: allocation and unchecked index arithmetic are fine
    // outside the hot set
    let v = xs.to_vec();
    v[i * s]
}

#[cfg(test)]
mod tests {
    // hot: annotations in test code must not seed the walk
    fn test_only_kernel(xs: &[u64]) -> Vec<u64> {
        xs.to_vec()
    }
}
