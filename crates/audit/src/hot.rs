//! The hot-path rule families.
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

use crate::symbols::FileIndex;
use crate::symgraph::SymbolGraph;

/// Identifier of one hot-path rule family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Uncontracted allocation call site in a hot-reachable function.
    HotAlloc,
    /// Unchecked index arithmetic in a hot-reachable function.
    HotOverflow,
}

impl Rule {
    /// The rule's stable string id (used in findings and fixture
    /// markers).
    pub fn id(self) -> &'static str {
        match self {
            Rule::HotAlloc => "hot-alloc",
            Rule::HotOverflow => "hot-overflow",
        }
    }
}

/// One policy violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the match.
    pub what: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule.id(), self.what)
    }
}

/// Run the two hot-path families over the hot-reachable set of the
/// symbol graph linking `files`.
pub fn check(files: &[FileIndex]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, gi) in SymbolGraph::link(files).hot_reachability() {
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
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;

    fn findings_of(src: &str) -> Vec<(&'static str, usize)> {
        let files = vec![index_file("crates/graph/src/x.rs", src)];
        check(&files).into_iter().map(|f| (f.rule.id(), f.line)).collect()
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
}
