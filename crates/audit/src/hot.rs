//! The hot-path rule families and the `--hot-report` inventory.
//!
//! A `// hot:` annotation directly above a library `fn` marks it a
//! hot-path *root* (the propagation inner loops, kNN scoring, the CRF
//! forward-backward lattice, Viterbi decode, `tag_batch`). A forward
//! fixpoint over the linked [`SymbolGraph`] — root → resolved callees —
//! computes the **hot-reachable set**, and two rule families run only
//! inside it:
//!
//! * `hot-alloc` — allocation call sites (`Vec::new`, `vec!`, `.push`,
//!   `.collect`, `format!`, `.to_string`, `.clone`, `Box::new`) must
//!   carry a reason-bearing `// alloc:` contract in their statement.
//! * `hot-overflow` — unchecked binary `+`/`*` inside an index
//!   expression needs a `// bound:` contract (statement-level, or
//!   fn-level directly above the `fn`) or a `checked_*`/`div_ceil`
//!   guard in the expression itself.
//!
//! The walk inherits the resolver's conservatism: ambiguous and
//! std-shadowed callee names never resolve, so the hot set — and with
//! it every finding — can only under-report. The static↔runtime
//! reconciliation closes that gap: the inventory's `span` section maps
//! each span minted inside (or calling into) the hot set to its
//! statically visible allocation-site count, and perfsuite
//! cross-references those counts against the measured per-span
//! `mem.net_bytes`, failing when a span with zero static sites
//! allocates above threshold at runtime (a hidden vendored/closure
//! allocation the lexical rules cannot see).

use crate::rules::{Finding, Rule};
use crate::symbols::FileIndex;
use crate::symgraph::{FnId, HotReach, SymbolGraph};

/// One hot-reachable function in the `--hot-report` inventory.
#[derive(Clone, Debug)]
pub struct HotFnRecord {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Function name.
    pub name: String,
    /// Number of allocation call sites in the body (contracted or not).
    pub alloc_sites: usize,
    /// The `// hot:` reason for roots, `None` for reached functions.
    pub root_reason: Option<String>,
    /// Rendered call path from a root down to this function.
    pub via: String,
}

/// One span whose dynamic extent enters the hot set.
#[derive(Clone, Debug)]
pub struct HotSpanRecord {
    /// The span name literal.
    pub name: String,
    /// Workspace-relative path of the minting site.
    pub path: String,
    /// 1-based line of the minting site.
    pub line: usize,
    /// Total allocation sites statically visible from the minting
    /// function over resolved call edges (its own body included).
    pub static_alloc_sites: usize,
}

/// The `--hot-report` payload: hot functions plus the span mapping the
/// perfsuite reconciliation consumes.
#[derive(Clone, Debug, Default)]
pub struct HotInventory {
    /// Hot-reachable functions, in (file, fn) order.
    pub fns: Vec<HotFnRecord>,
    /// Hot spans, in (file, span) order.
    pub spans: Vec<HotSpanRecord>,
}

impl HotInventory {
    /// Render the report text. Line grammar (consumed by perfsuite —
    /// keep stable): `root <path>:<line> <name> alloc_sites=<n> — <reason>`,
    /// `fn <path>:<line> <name> alloc_sites=<n> via <a -> b -> c>`,
    /// `span <name> <path>:<line> static_alloc_sites=<n>`.
    pub fn render(&self) -> String {
        let roots = self.fns.iter().filter(|f| f.root_reason.is_some()).count();
        let total_allocs: usize = self.fns.iter().map(|f| f.alloc_sites).sum();
        let mut out = format!(
            "# hot-path inventory: {} roots, {} functions, {} alloc sites, {} spans\n",
            roots,
            self.fns.len(),
            total_allocs,
            self.spans.len()
        );
        for f in &self.fns {
            match &f.root_reason {
                Some(reason) => out.push_str(&format!(
                    "root {}:{} {} alloc_sites={} — {}\n",
                    f.path, f.line, f.name, f.alloc_sites, reason
                )),
                None => out.push_str(&format!(
                    "fn {}:{} {} alloc_sites={} via {}\n",
                    f.path, f.line, f.name, f.alloc_sites, f.via
                )),
            }
        }
        for s in &self.spans {
            out.push_str(&format!(
                "span {} {}:{} static_alloc_sites={}\n",
                s.name, s.path, s.line, s.static_alloc_sites
            ));
        }
        out
    }
}

/// Run the two hot-path families over the hot-reachable set.
pub(crate) fn check(files: &[FileIndex], graph: &SymbolGraph<'_>, findings: &mut Vec<Finding>) {
    let reach = graph.hot_reachability();
    for &(fi, gi) in reach.keys() {
        let file = &files[fi];
        let f = &file.fns[gi];
        if f.is_test {
            continue;
        }
        for site in &f.alloc_sites {
            if site.annotation.is_none() {
                findings.push(Finding {
                    rule: Rule::HotAlloc,
                    path: file.path.clone(),
                    line: site.line,
                    what: format!(
                        "{} in hot fn {} without an // alloc: contract",
                        site.what, f.name
                    ),
                });
            }
        }
        for site in &f.arith_sites {
            if site.annotation.is_none() && f.bound.is_none() {
                findings.push(Finding {
                    rule: Rule::HotOverflow,
                    path: file.path.clone(),
                    line: site.line,
                    what: format!(
                        "unchecked index arithmetic `{}` in hot fn {} without a // bound: contract",
                        site.what, f.name
                    ),
                });
            }
        }
    }
}

/// Build the `--hot-report` inventory over `files`.
pub fn inventory(files: &[FileIndex]) -> HotInventory {
    let graph = SymbolGraph::link(files);
    let reach = graph.hot_reachability();
    let mut fns = Vec::new();
    for (&(fi, gi), r) in &reach {
        let file = &files[fi];
        let f = &file.fns[gi];
        fns.push(HotFnRecord {
            path: file.path.clone(),
            line: f.line,
            name: f.name.clone(),
            alloc_sites: f.alloc_sites.len(),
            root_reason: match r {
                HotReach::Root(reason) => Some(reason.clone()),
                HotReach::Via(_) => None,
            },
            via: graph.render_hot_path((fi, gi), &reach),
        });
    }
    let mut spans = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        // literal names only: the `const`-minted pipeline stage spans
        // each wrap a whole stage, far above the zero-site threshold
        for span in file.span_uses.iter().filter(|s| !s.is_test && !s.via_const) {
            let Some(gi) = span.fn_index else { continue };
            let id: FnId = (fi, gi);
            let closure = graph.reachable_from(id);
            if !closure.iter().any(|t| reach.contains_key(t)) {
                continue;
            }
            let static_alloc_sites =
                closure.iter().map(|&(cf, cg)| files[cf].fns[cg].alloc_sites.len()).sum();
            spans.push(HotSpanRecord {
                name: span.name.clone(),
                path: file.path.clone(),
                line: span.line,
                static_alloc_sites,
            });
        }
    }
    HotInventory { fns, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;
    use crate::xrules::{check as xcheck, Mode};

    fn findings_of(src: &str) -> Vec<(&'static str, usize)> {
        let files = vec![index_file("crates/graph/src/x.rs", src)];
        xcheck(&files, None, Mode::Workspace).into_iter().map(|f| (f.rule.id(), f.line)).collect()
    }

    #[test]
    fn alloc_in_hot_fn_needs_contract() {
        let src = "\
// hot: inner loop\n\
pub fn kernel(xs: &[u32]) -> Vec<u32> {\n\
    let mut out = Vec::new();\n\
    for &x in xs {\n\
        out.push(x);\n\
    }\n\
    // alloc: one-shot result buffer, sized by the caller\n\
    let copy = xs.to_vec();\n\
    drop(copy);\n\
    out\n\
}\n\
pub fn cold(xs: &[u32]) -> Vec<u32> {\n\
    xs.to_vec()\n\
}\n";
        let found = findings_of(src);
        assert_eq!(found, vec![("hot-alloc", 3), ("hot-alloc", 5)]);
    }

    #[test]
    fn hot_set_extends_through_resolved_calls() {
        let src = "\
// hot: root\n\
pub fn root_fn(xs: &[u32]) { helper_fn(xs) }\n\
pub fn helper_fn(xs: &[u32]) { let mut v = Vec::new(); v.push(xs.len()); }\n";
        let found = findings_of(src);
        assert_eq!(found, vec![("hot-alloc", 3), ("hot-alloc", 3)]);
    }

    #[test]
    fn index_arith_needs_bound_contract_or_guard() {
        let src = "\
// hot: lattice walk\n\
pub fn walk(node: &[f64], i: usize, s: usize, st: usize) -> f64 {\n\
    node[i * s + st]\n\
}\n\
// hot: lattice walk, contracted\n\
// bound: i < l and st < s with l*s == node.len(), so the product fits\n\
pub fn walk_bounded(node: &[f64], i: usize, s: usize, st: usize) -> f64 {\n\
    node[i * s + st] + node[i * s]\n\
}\n\
// hot: guarded walk\n\
pub fn walk_guarded(node: &[f64], i: usize, s: usize) -> f64 {\n\
    node[i.checked_mul(s).unwrap_or(0)]\n\
}\n";
        let found = findings_of(src);
        assert_eq!(found, vec![("hot-overflow", 3)]);
    }

    #[test]
    fn cold_functions_and_tests_are_exempt() {
        let src = "\
pub fn cold(xs: &[u32], i: usize, s: usize) -> u32 {\n\
    let v: Vec<u32> = xs.to_vec();\n\
    v[i * s]\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    // hot: annotations in test code do not seed\n\
    fn t(xs: &[u32]) { let _ = xs.to_vec(); }\n\
}\n";
        assert!(findings_of(src).is_empty());
    }

    #[test]
    fn inventory_lists_roots_reached_fns_and_spans() {
        let files = vec![index_file(
            "crates/graph/src/x.rs",
            "\
pub fn stage(xs: &[u32]) -> usize {\n\
    let _s = span(\"graph.stage\");\n\
    kernel_fn(xs)\n\
}\n\
// hot: per-vertex kernel\n\
pub fn kernel_fn(xs: &[u32]) -> usize {\n\
    // alloc: scratch, hoisted per batch\n\
    let v: Vec<u32> = xs.to_vec();\n\
    v.len()\n\
}\n\
pub fn unrelated() {}\n",
        )];
        let inv = inventory(&files);
        assert_eq!(inv.fns.len(), 1);
        assert_eq!(inv.fns[0].name, "kernel_fn");
        assert_eq!(inv.fns[0].alloc_sites, 1);
        assert!(inv.fns[0].root_reason.is_some());
        assert_eq!(inv.spans.len(), 1);
        assert_eq!(inv.spans[0].name, "graph.stage");
        assert_eq!(inv.spans[0].static_alloc_sites, 1);
        let text = inv.render();
        assert!(
            text.contains("# hot-path inventory: 1 roots, 1 functions, 1 alloc sites, 1 spans"),
            "{text}"
        );
        assert!(
            text.contains(
                "root crates/graph/src/x.rs:6 kernel_fn alloc_sites=1 — per-vertex kernel"
            ),
            "{text}"
        );
        assert!(
            text.contains("span graph.stage crates/graph/src/x.rs:2 static_alloc_sites=1"),
            "{text}"
        );
    }
}
