//! The workspace symbol graph: pass-1 [`FileIndex`]es linked into one
//! call graph, plus the hot-path reachability walk over it.
//!
//! Linking is deliberately conservative: a call edge resolves only
//! when the callee name is **unique** across all indexed library
//! functions. Ambiguous names (`new`, `len`, trait methods with many
//! impls) resolve to nothing — a missed edge can only under-report
//! reachability, never fabricate a finding, which is the right failure
//! direction for a gating rule.

use std::collections::BTreeMap;

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

/// How a function enters the hot-reachable set.
#[derive(Clone, Debug)]
pub enum HotReach {
    /// The function carries a `// hot:` root annotation (the reason).
    Root(String),
    /// A hot caller's resolved call edge reaches it.
    Via(FnId),
}

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
    pub fn hot_reachability(&self) -> BTreeMap<FnId, HotReach> {
        let mut reach: BTreeMap<FnId, HotReach> = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if !f.is_test {
                    if let Some(reason) = &f.hot {
                        reach.insert((fi, gi), HotReach::Root(reason.clone()));
                    }
                }
            }
        }
        loop {
            let mut changed = false;
            let hot: Vec<FnId> = reach.keys().copied().collect();
            for id in hot {
                let (fi, gi) = id;
                let f = &self.files[fi].fns[gi];
                for call in &f.calls {
                    let Some(target) = self.resolve(&call.name).filter(|t| *t != id) else {
                        continue;
                    };
                    if let std::collections::btree_map::Entry::Vacant(slot) = reach.entry(target) {
                        slot.insert(HotReach::Via(id));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        reach
    }

    /// Render the call chain from a hot root down to `id`, e.g.
    /// `sweep_shard -> jacobi_update -> neighbors`.
    pub fn render_hot_path(&self, id: FnId, reach: &BTreeMap<FnId, HotReach>) -> String {
        let mut parts = Vec::new();
        let mut cur = id;
        loop {
            let (fi, gi) = cur;
            parts.push(self.files[fi].fns[gi].name.clone());
            match reach.get(&cur) {
                Some(HotReach::Via(prev)) if parts.len() <= self.by_name.len() => cur = *prev,
                _ => break,
            }
        }
        parts.reverse();
        parts.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;

    #[test]
    fn cross_file_hot_reachability_with_path() {
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
        let g = SymbolGraph::link(&files);
        let reach = g.hot_reachability();
        assert!(matches!(reach.get(&(0, 0)), Some(HotReach::Root(_))));
        assert!(matches!(reach.get(&(1, 1)), Some(HotReach::Via((1, 0)))));
        assert!(!reach.contains_key(&(1, 2)));
        assert_eq!(g.render_hot_path((1, 1), &reach), "entry -> middle -> sink");
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
