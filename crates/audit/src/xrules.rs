//! Pass 2: cross-file rules over the linked symbol graph.
//!
//! Two rule families, each consuming the pass-1 [`FileIndex`]es:
//!
//! * `det-merge` — parallel `reduce`/`sum` merges need a
//!   `// det: <why order-safe>` annotation in their statement.
//! * `hot-alloc` / `hot-overflow` — the hot-path families
//!   ([`crate::hot`]), which run only inside the `// hot:`-rooted
//!   reachable set of the same symbol graph.

use crate::rules::{Finding, Rule};
use crate::symbols::FileIndex;
use crate::symgraph::SymbolGraph;

/// Crates exempt from `det-merge`: `vendor/rayon` implements the
/// merges themselves (its `reduce` is the ordered combiner, not a user
/// of one) and bench binaries don't publish results.
const MERGE_EXEMPT_CRATES: [&str; 2] = ["rayon", "bench"];

/// Run every pass-2 rule.
pub fn check(files: &[FileIndex]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let graph = SymbolGraph::link(files);
    check_det(files, &mut findings);
    crate::hot::check(files, &graph, &mut findings);
    findings
}

/// `det-merge`: unannotated parallel merges outside the exempt crates.
fn check_det(files: &[FileIndex], findings: &mut Vec<Finding>) {
    for file in files {
        if MERGE_EXEMPT_CRATES.contains(&file.scope.crate_name.as_str()) {
            continue;
        }
        for site in &file.det_sites {
            if site.parallel && !site.is_test && site.annotation.is_none() {
                findings.push(Finding {
                    rule: Rule::DetMerge,
                    path: file.path.clone(),
                    line: site.line,
                    what: format!(
                        "parallel .{}() merge without a // det: order-safety note",
                        site.op
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.id()).collect()
    }

    #[test]
    fn det_merge_respects_crate_exemptions() {
        let src = "\
pub fn merge(xs: &[f64]) -> f64 {\n\
    xs.par_iter().cloned().reduce(|| 0.0, f64::max)\n\
}\n";
        let check_one = |path: &str| check(&[index_file(path, src)]);
        assert_eq!(ids(&check_one("crates/graph/src/x.rs")), vec!["det-merge"]);
        let exempt = check_one("vendor/rayon/src/x.rs");
        assert!(exempt.is_empty(), "{exempt:?}");
        let bench = check_one("crates/bench/src/x.rs");
        assert!(bench.is_empty(), "{bench:?}");
    }
}
