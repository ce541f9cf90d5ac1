//! Pass 2: cross-file rules over the linked symbol graph.
//!
//! Three rule families, each consuming the pass-1 [`FileIndex`]es:
//!
//! * `det-merge` — parallel `reduce`/`sum` merges need a
//!   `// det: <why order-safe>` annotation in their statement.
//! * `span-known` — every well-shaped span name, whether a literal or
//!   a `const` (`span(stage::DECODE)`), must appear in
//!   `crates/audit/span-names.txt`, and (workspace mode only) every
//!   non-`[fixture]` entry there must still be used somewhere, so the
//!   registry can't rot in either direction.
//! * `hot-alloc` / `hot-overflow` — the hot-path families
//!   ([`crate::hot`]), which run only inside the `// hot:`-rooted
//!   reachable set of the same symbol graph.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{Finding, Rule};
use crate::symbols::FileIndex;
use crate::symgraph::SymbolGraph;

/// Crates exempt from `det-merge`: `vendor/rayon` implements the
/// merges themselves (its `reduce` is the ordered combiner, not a user
/// of one) and bench binaries don't publish results.
const MERGE_EXEMPT_CRATES: [&str; 2] = ["rayon", "bench"];

/// The parsed known-span registry (`crates/audit/span-names.txt`).
#[derive(Clone, Debug, Default)]
pub struct SpanRegistry {
    /// Entries in file order.
    pub entries: Vec<SpanEntry>,
    /// Path the registry was loaded from, for findings.
    pub path: String,
}

/// One line of the registry.
#[derive(Clone, Debug)]
pub struct SpanEntry {
    /// The span name.
    pub name: String,
    /// 1-based line in the registry file.
    pub line: usize,
    /// `[fixture]`-tagged names exist only in audit fixtures and are
    /// exempt from the workspace stale check.
    pub fixture: bool,
}

impl SpanRegistry {
    /// Parse the registry format: one name per line, optional
    /// ` [fixture]` tag, `#` comments and blank lines ignored.
    pub fn parse(path: &str, contents: &str) -> SpanRegistry {
        let mut entries = Vec::new();
        for (i, raw) in contents.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (name, fixture) = match line.strip_suffix("[fixture]") {
                Some(rest) => (rest.trim(), true),
                None => (line, false),
            };
            entries.push(SpanEntry { name: name.to_string(), line: i + 1, fixture });
        }
        SpanRegistry { entries, path: path.to_string() }
    }

    fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }
}

/// How pass 2 is being run — workspace mode additionally checks the
/// span registry for stale entries, which a single-fixture self-test
/// run cannot meaningfully do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full workspace scan.
    Workspace,
    /// One fixture at a time (`--self-test`).
    SelfTest,
}

/// Run every pass-2 rule. `registry` is `None` when no
/// `span-names.txt` exists (scratch trees in unit tests); the
/// span-closure rule is skipped entirely then rather than flagging
/// every name against an empty set.
pub fn check(files: &[FileIndex], registry: Option<&SpanRegistry>, mode: Mode) -> Vec<Finding> {
    let mut findings = Vec::new();
    let graph = SymbolGraph::link(files);
    check_det(files, &mut findings);
    crate::hot::check(files, &graph, &mut findings);
    if let Some(registry) = registry {
        check_spans(files, registry, mode, &mut findings);
    }
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

/// `span-known`: usage ⊆ registry, and (workspace) registry ⊆ usage
/// for non-fixture entries. A `const`-minted name resolves like a call
/// edge: through the one `const` of that identifier in the scanned
/// files; an identifier defined twice (or nowhere) stays unresolved.
fn check_spans(
    files: &[FileIndex],
    registry: &SpanRegistry,
    mode: Mode,
    findings: &mut Vec<Finding>,
) {
    let mut consts: BTreeMap<&str, Option<&str>> = BTreeMap::new();
    for (ident, lit) in files.iter().flat_map(|f| &f.str_consts) {
        consts.entry(ident).and_modify(|v| *v = None).or_insert(Some(lit));
    }
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        if !file.scope.span_checked() {
            continue;
        }
        for span in file.span_uses.iter().filter(|s| !s.is_test) {
            let name = if span.via_const {
                match consts.get(span.name.as_str()) {
                    Some(Some(lit)) => *lit,
                    _ => continue,
                }
            } else {
                span.name.as_str()
            };
            used.insert(name);
            if !registry.contains(name) {
                findings.push(Finding {
                    rule: Rule::SpanKnown,
                    path: file.path.clone(),
                    line: span.line,
                    what: format!("span name \"{name}\" is not in {}", registry.path),
                });
            }
        }
    }
    if mode == Mode::Workspace {
        for entry in &registry.entries {
            if !entry.fixture && !used.contains(entry.name.as_str()) {
                findings.push(Finding {
                    rule: Rule::SpanKnown,
                    path: registry.path.clone(),
                    line: entry.line,
                    what: format!("stale registry entry \"{}\": span no longer minted", entry.name),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::index_file;

    fn check_one(
        path: &str,
        src: &str,
        registry: Option<&SpanRegistry>,
        mode: Mode,
    ) -> Vec<Finding> {
        let files = vec![index_file(path, src)];
        check(&files, registry, mode)
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.id()).collect()
    }

    #[test]
    fn registry_parses_comments_and_fixture_tags() {
        let reg = SpanRegistry::parse(
            "crates/audit/span-names.txt",
            "# header\n\ngraph.knn\narea.verb [fixture]\ncrf.train # trailer\n",
        );
        assert_eq!(reg.entries.len(), 3);
        assert_eq!(reg.entries[0].name, "graph.knn");
        assert!(!reg.entries[0].fixture);
        assert!(reg.entries[1].fixture);
        assert_eq!(reg.entries[1].line, 4);
        assert_eq!(reg.entries[2].name, "crf.train");
    }

    #[test]
    fn det_merge_respects_crate_exemptions() {
        let src = "\
pub fn merge(xs: &[f64]) -> f64 {\n\
    xs.par_iter().cloned().reduce(|| 0.0, f64::max)\n\
}\n";
        let flagged = check_one("crates/graph/src/x.rs", src, None, Mode::Workspace);
        assert_eq!(ids(&flagged), vec!["det-merge"]);
        let exempt = check_one("vendor/rayon/src/x.rs", src, None, Mode::Workspace);
        assert!(exempt.is_empty(), "{exempt:?}");
        let bench = check_one("crates/bench/src/x.rs", src, None, Mode::Workspace);
        assert!(bench.is_empty(), "{bench:?}");
    }

    #[test]
    fn span_known_flags_unknown_and_stale_but_not_fixture_entries() {
        let reg = SpanRegistry::parse(
            "crates/audit/span-names.txt",
            "graph.knn\nnever.used\narea.verb [fixture]\n",
        );
        let src = "pub fn f() { let _ = span(\"graph.knn\"); let _ = span(\"brand.new\"); }\n";
        let f = check_one("crates/core/src/x.rs", src, Some(&reg), Mode::Workspace);
        assert_eq!(ids(&f), vec!["span-known", "span-known"]);
        assert!(f[0].what.contains("brand.new"));
        assert!(f[1].what.contains("never.used"));
        // self-test mode skips the stale direction
        let st = check_one("crates/core/src/x.rs", src, Some(&reg), Mode::SelfTest);
        assert_eq!(ids(&st), vec!["span-known"]);
    }

    #[test]
    fn span_known_resolves_unique_consts_across_files() {
        let reg = SpanRegistry::parse("crates/audit/span-names.txt", "test.decode\n");
        let files = vec![
            index_file(
                "crates/core/src/timings.rs",
                "pub mod stage { pub const DECODE: &str = \"test.decode\"; pub const NEW: &str = \"test.new\"; }\n",
            ),
            index_file(
                "crates/core/src/pipeline.rs",
                "fn run() {\n let _a = span(stage::DECODE);\n let _b = span(stage::NEW);\n let _c = span(MISSING);\n}\n",
            ),
        ];
        let f = check(&files, Some(&reg), Mode::Workspace);
        assert_eq!(ids(&f), vec!["span-known"]);
        assert!(f[0].what.contains("test.new"), "{}", f[0].what);
        assert_eq!((f[0].path.as_str(), f[0].line), ("crates/core/src/pipeline.rs", 3));

        // a second definition of the same identifier makes it ambiguous
        let shadow = index_file("crates/graph/src/x.rs", "const NEW: &str = \"graph.new\";\n");
        let f = check(&[files[0].clone(), files[1].clone(), shadow], Some(&reg), Mode::Workspace);
        assert!(f.is_empty(), "{f:?}");
    }
}
