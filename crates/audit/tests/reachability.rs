//! Property tests for the symbol-graph reachability walk.
//!
//! The two properties pin the analyzer's accepted failure direction:
//! adding information (a call edge) can only grow the reachable set,
//! and removing resolution confidence (an ambiguous name) can only
//! shrink it. Together they guarantee the hot-path rules under-report
//! but never fabricate.

use std::collections::BTreeSet;

use graphner_audit::symbols::{index_file, FileIndex, FnItem};
use graphner_audit::symgraph::{FnId, SymbolGraph};
use proptest::prelude::*;

/// One synthetic library file holding `n` functions named `f0..f{n-1}`
/// with the given call edges; the functions listed in `roots` carry a
/// `// hot:` annotation.
fn synthetic_file(n: usize, edges: &[(usize, usize)], roots: &[usize]) -> FileIndex {
    let mut file = index_file("crates/graph/src/synthetic.rs", "");
    for i in 0..n {
        let mut f = FnItem::synthetic(&format!("f{i}"));
        if roots.contains(&i) {
            f.hot = Some("synthetic root".to_string());
        }
        file.fns.push(f);
    }
    for &(a, b) in edges {
        file.fns[a].calls.push(format!("f{b}"));
    }
    file
}

fn hot_set(files: &[FileIndex]) -> BTreeSet<FnId> {
    SymbolGraph::link(files).hot_reachability()
}

/// Reduce raw sampled `(from, to)` pairs and root picks into a valid
/// graph over `n` functions (the vendored proptest shim has no
/// dependent strategies, so indices are sampled wide and folded here).
fn normalize(
    n: usize,
    raw_edges: &[(usize, usize)],
    raw_roots: &[usize],
) -> (Vec<(usize, usize)>, Vec<usize>) {
    let edges = raw_edges.iter().map(|&(a, b)| (a % n, b % n)).collect();
    let roots = raw_roots.iter().map(|&r| r % n).collect();
    (edges, roots)
}

proptest! {
    /// Adding one call edge never shrinks the hot-reachable set.
    #[test]
    fn edge_addition_is_monotone(
        n in 2usize..10,
        raw_edges in prop::collection::vec((0usize..10, 0usize..10), 0..20),
        raw_roots in prop::collection::vec(0usize..10, 1..3),
        extra in (0usize..10, 0usize..10),
    ) {
        let (edges, roots) = normalize(n, &raw_edges, &raw_roots);
        let before = hot_set(&[synthetic_file(n, &edges, &roots)]);
        let extra = (extra.0 % n, extra.1 % n);
        let mut more = edges.clone();
        more.push(extra);
        let after = hot_set(&[synthetic_file(n, &more, &roots)]);
        prop_assert!(
            before.is_subset(&after),
            "edge {extra:?} shrank the hot set: {before:?} -> {after:?}"
        );
    }

    /// Making a callee name ambiguous (a second definition in another
    /// file) drops its edges and can only under-report: the hot set
    /// never gains a function.
    #[test]
    fn ambiguity_only_under_reports(
        n in 2usize..10,
        raw_edges in prop::collection::vec((0usize..10, 0usize..10), 0..20),
        raw_roots in prop::collection::vec(0usize..10, 1..3),
        dup in 0usize..10,
    ) {
        let (edges, roots) = normalize(n, &raw_edges, &raw_roots);
        let dup = dup % n;
        let base = synthetic_file(n, &edges, &roots);
        let before = hot_set(std::slice::from_ref(&base));

        let mut shadow = index_file("crates/core/src/shadow.rs", "");
        shadow.fns.push(FnItem::synthetic(&format!("f{dup}")));
        let after = hot_set(&[base, shadow]);

        prop_assert!(
            after.is_subset(&before),
            "duplicating f{dup} grew the hot set: {before:?} -> {after:?}"
        );
        prop_assert!(!after.contains(&(1, 0)), "the shadow definition itself went hot");
    }

    /// Roots themselves are always hot, whatever the edge set does.
    #[test]
    fn roots_are_always_reached(
        n in 2usize..10,
        raw_edges in prop::collection::vec((0usize..10, 0usize..10), 0..20),
        raw_roots in prop::collection::vec(0usize..10, 1..3),
    ) {
        let (edges, roots) = normalize(n, &raw_edges, &raw_roots);
        let set = hot_set(&[synthetic_file(n, &edges, &roots)]);
        for r in roots {
            prop_assert!(set.contains(&(0, r)), "root f{r} missing from {set:?}");
        }
    }
}
