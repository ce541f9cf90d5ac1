//! The workspace symbol graph: pass-1 [`FileIndex`]es linked into one
//! call graph, plus the hot-path reachability walk over it.
//!
//! Linking is deliberately conservative: a call edge resolves only
//! when the callee name is **unique** across all indexed library
//! functions. Ambiguous names (`new`, `len`, trait methods with many
//! impls) resolve to nothing — a missed edge can only under-report
//! reachability, never fabricate a finding, which is the right failure
//! direction for a gating rule.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::FileIndex;

/// A global function id: (file index, fn index within that file).
pub type FnId = (usize, usize);

/// Method names the std prelude (Iterator, slices, `Vec`, `String`, …)
/// exports: a call site bearing one of these almost always targets the
/// std method, so even a workspace-unique definition (the vendored
/// rayon shim redefines several) must not resolve. Dropping the edge
/// only under-reports reachability — the accepted failure direction.
const STD_SHADOWED: [&str; 32] = [
    "all",
    "any",
    "chain",
    "clone",
    "collect",
    "contains",
    "count",
    "default",
    "enumerate",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "fold",
    "for_each",
    "from",
    "get",
    "insert",
    "is_empty",
    "iter",
    "len",
    "map",
    "max",
    "min",
    "new",
    "position",
    "push",
    "rev",
    "sum",
    "take",
    "zip",
];

/// The linked graph. Borrows the indexes it links.
pub struct SymbolGraph<'a> {
    files: &'a [FileIndex],
    /// fn name → every library fn with that name, in (file, fn) order.
    by_name: BTreeMap<&'a str, Vec<FnId>>,
}

impl<'a> SymbolGraph<'a> {
    /// Link the per-file indexes. Only library functions participate:
    /// test functions neither resolve as callees nor get walked.
    pub fn link(files: &'a [FileIndex]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if !f.is_test {
                    by_name.entry(f.name.as_str()).or_default().push((fi, gi));
                }
            }
        }
        SymbolGraph { files, by_name }
    }

    /// The callee a name resolves to, if exactly one library fn bears
    /// it and the name is not shadowed by the std prelude.
    pub fn resolve(&self, name: &str) -> Option<FnId> {
        if STD_SHADOWED.contains(&name) {
            return None;
        }
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    }

    /// The hot-reachable function set: a *forward* fixpoint from every
    /// `// hot:`-annotated library function over resolved call edges.
    /// A missed (ambiguous or std-shadowed) edge leaves
    /// a callee out of the hot set, so the hot-path rules can only
    /// under-report; they never fabricate a hot function.
    pub fn hot_reachability(&self) -> BTreeSet<FnId> {
        let mut reach: BTreeSet<FnId> = BTreeSet::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if !f.is_test && f.hot.is_some() {
                    reach.insert((fi, gi));
                }
            }
        }
        let mut frontier: Vec<FnId> = reach.iter().copied().collect();
        while let Some(id) = frontier.pop() {
            let (fi, gi) = id;
            for call in &self.files[fi].fns[gi].calls {
                if let Some(target) = self.resolve(call) {
                    if reach.insert(target) {
                        frontier.push(target);
                    }
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;

    #[test]
    fn cross_file_hot_reachability() {
        let files = vec![
            index_file(
                "crates/graph/src/a.rs",
                "// hot: entry\npub fn entry(x: u32) -> u32 { middle(x) }\n",
            ),
            index_file(
                "crates/core/src/b.rs",
                "pub fn middle(x: u32) -> u32 { sink(x) }\npub fn sink(x: u32) -> u32 { x }\npub fn cold() {}\n",
            ),
        ];
        let reach = SymbolGraph::link(&files).hot_reachability();
        assert_eq!(reach, BTreeSet::from([(0, 0), (1, 0), (1, 1)]));
    }

    #[test]
    fn ambiguous_and_std_shadowed_names_do_not_resolve() {
        let files = vec![
            index_file("crates/graph/src/a.rs", "pub fn helper() {}\npub fn collect() {}\n"),
            index_file("crates/core/src/b.rs", "pub fn helper() {}\npub fn unique() {}\n"),
        ];
        let g = SymbolGraph::link(&files);
        assert_eq!(g.resolve("helper"), None);
        assert_eq!(g.resolve("collect"), None);
        assert_eq!(g.resolve("unique"), Some((1, 1)));
    }
}
