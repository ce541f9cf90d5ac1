//! The hot-path rule families and the `--hot-report` inventory.
//!
//! A `// hot:` annotation directly above a library `fn` marks it a
//! hot-path *root* (the propagation inner loops, kNN scoring, the CRF
//! forward-backward lattice, Viterbi decode, `try_tag_batch`). A forward
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
//! it every finding — can only under-report.

use crate::rules::{Finding, Rule};
use crate::symbols::FileIndex;
use crate::symgraph::{HotReach, SymbolGraph};

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

/// The `--hot-report` payload: every hot-reachable function.
#[derive(Clone, Debug, Default)]
pub struct HotInventory {
    /// Hot-reachable functions, in (file, fn) order.
    pub fns: Vec<HotFnRecord>,
}

impl HotInventory {
    /// Render the report text, one line per function:
    /// `root <path>:<line> <name> alloc_sites=<n> — <reason>` or
    /// `fn <path>:<line> <name> alloc_sites=<n> via <a -> b -> c>`.
    pub fn render(&self) -> String {
        let roots = self.fns.iter().filter(|f| f.root_reason.is_some()).count();
        let total_allocs: usize = self.fns.iter().map(|f| f.alloc_sites).sum();
        let mut out = format!(
            "# hot-path inventory: {} roots, {} functions, {} alloc sites\n",
            roots,
            self.fns.len(),
            total_allocs
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
    HotInventory { fns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;
    use crate::xrules::check as xcheck;

    fn findings_of(src: &str) -> Vec<(&'static str, usize)> {
        let files = vec![index_file("crates/graph/src/x.rs", src)];
        xcheck(&files).into_iter().map(|f| (f.rule.id(), f.line)).collect()
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
    fn inventory_lists_roots_and_reached_fns() {
        let files = vec![index_file(
            "crates/graph/src/x.rs",
            "\
pub fn stage(xs: &[u32]) -> usize {\n\
    let _s = span(SpanName::GraphKnn);\n\
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
        let text = inv.render();
        assert!(
            text.contains("# hot-path inventory: 1 roots, 1 functions, 1 alloc sites\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "root crates/graph/src/x.rs:6 kernel_fn alloc_sites=1 — per-vertex kernel"
            ),
            "{text}"
        );
        // the span minted by the (cold) caller gets no line of its own
        assert_eq!(text.lines().count(), 2, "{text}");
    }
}
