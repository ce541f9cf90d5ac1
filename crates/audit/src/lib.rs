//! `graphner-audit` — the workspace invariant checker.
//!
//! A zero-dependency static-analysis pass with its own lightweight Rust
//! lexer ([`lexer`]) that walks every workspace `src/` file and
//! enforces the project policy clippy cannot express ([`rules`]):
//! float-literal equality, order-safety notes on parallel merges, and
//! the hot-path allocation and index-arithmetic contracts. The policy
//! clippy *can* express — panics, hash maps, clocks, printing, unsafe
//! provenance, thread counts, hot-module casts — is configured in
//! `[workspace.lints]` and `clippy.toml`, and justified exceptions are
//! `#[expect(lint, reason = "…")]` attributes at the site (DESIGN.md
//! §9). The span-name vocabulary is the compiler's: `graphner_obs::span`
//! takes the closed `SpanName` enum.
//!
//! Run it as `cargo run --release --bin audit -- --workspace` (a
//! required CI step), or `--self-test` to validate the lexer and rule
//! engine against fixture files with known violations.

pub mod hot;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod symgraph;
pub mod xrules;

use rules::{Finding, Rule, ALL_RULES};
use std::path::{Path, PathBuf};
use symbols::FileIndex;

/// Fixture header directive: pretend the file lives at this workspace
/// path when deriving rule scopes (`//@ scan-as: crates/core/src/x.rs`).
pub const SCAN_AS: &str = "//@ scan-as:";

/// Marker comment declaring an expected finding on its line
/// (`//~ rule-id`, repeatable on one line).
pub const EXPECT_MARKER: &str = "//~";

/// Outcome of one audit run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, pass 1 then pass 2.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// The hot-path inventory (`--hot-report`): hot-reachable functions
    /// with their static alloc-site counts, plus the span mapping the
    /// perfsuite reconciliation consumes.
    pub hot: hot::HotInventory,
}

impl Report {
    /// Whether the run passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Count of surviving findings for `rule`.
    pub fn count_for(&self, rule: Rule) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Publish the run to the global `graphner-obs` metrics registry:
    /// `audit.findings` (total), `audit.rule.<id>` per rule,
    /// `audit.files_scanned` and `audit.hot_fns`.
    pub fn publish_metrics(&self) {
        graphner_obs::counter("audit.findings").add(self.findings.len() as u64);
        for rule in ALL_RULES {
            graphner_obs::counter(&format!("audit.rule.{}", rule.id()))
                .add(self.count_for(rule) as u64);
        }
        graphner_obs::counter("audit.files_scanned").add(self.files_scanned as u64);
        graphner_obs::counter("audit.hot_fns").add(self.hot.fns.len() as u64);
    }
}
/// Errors from walking or reading the tree.
#[derive(Debug)]
pub enum AuditError {
    /// An I/O failure on `path`.
    Io { path: PathBuf, source: std::io::Error },
    /// A fixture file without the mandatory `//@ scan-as:` header.
    MissingScanAs { path: PathBuf },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io { path, source } => {
                write!(f, "audit: io error on {}: {source}", path.display())
            }
            AuditError::MissingScanAs { path } => {
                write!(f, "audit: fixture {} lacks a `{SCAN_AS} <path>` header", path.display())
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Every `.rs` file under the workspace's source trees: the root
/// package `src/` plus each `crates/*/src/`, plus the vendored
/// `vendor/rayon/src/` worker pool (real concurrency code deserves the
/// strictest policy), recursively, in sorted order. The target tree
/// and the remaining vendor stubs are never entered.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
            .into_iter()
            .map(|entry| entry.join("src"))
            .filter(|p| p.is_dir())
            .collect();
        roots.append(&mut members);
    }
    let rayon_src = root.join("vendor").join("rayon").join("src");
    if rayon_src.is_dir() {
        roots.push(rayon_src);
    }
    for src in roots {
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|source| AuditError::Io { path: dir.to_path_buf(), source })?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| AuditError::Io { path: dir.to_path_buf(), source })?;
        paths.push(entry.path());
    }
    paths.sort();
    Ok(paths)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AuditError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn read_source(path: &Path) -> Result<String, AuditError> {
    std::fs::read_to_string(path)
        .map_err(|source| AuditError::Io { path: path.to_path_buf(), source })
}

/// The path of `file` relative to `root`, `/`-separated.
fn relative(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The path rules scope a source under: the `//@ scan-as:` header for
/// fixtures, the real relative path otherwise.
fn scan_path_of(source: &str, rel: &str) -> String {
    source
        .lines()
        .next()
        .and_then(|l| l.trim().strip_prefix(SCAN_AS))
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| rel.to_string())
}

/// Scan one file (pass 1 only). If its first line carries a
/// `//@ scan-as:` header (fixtures), rules are scoped as if it lived
/// at that path; findings still report the real relative path.
pub fn scan_file(root: &Path, file: &Path) -> Result<(Vec<Finding>, String), AuditError> {
    let (findings, _, source) = analyze_file(root, file)?;
    Ok((findings, source))
}

/// Scan **and index** one file: pass-1 findings plus the pass-1 symbol
/// index pass 2 consumes. Scope derives from the scan path; both
/// findings and the index report the real relative path.
pub fn analyze_file(
    root: &Path,
    file: &Path,
) -> Result<(Vec<Finding>, FileIndex, String), AuditError> {
    let source = read_source(file)?;
    let rel = relative(root, file);
    let scan_path = scan_path_of(&source, &rel);
    let mut findings = rules::check_file(&scan_path, &source);
    for f in &mut findings {
        f.path = rel.clone();
    }
    let mut index = symbols::index_file(&scan_path, &source);
    index.path = rel;
    Ok((findings, index, source))
}

/// Run the two-pass audit over `files` (workspace-relative reporting
/// against `root`): pass 1 lints each file and builds its symbol index;
/// pass 2 links the indexes and runs the cross-file rules.
pub fn run(root: &Path, files: &[PathBuf]) -> Result<Report, AuditError> {
    let mut findings = Vec::new();
    let mut indexes: Vec<FileIndex> = Vec::new();
    for file in files {
        let (file_findings, index, _) = analyze_file(root, file)?;
        indexes.push(index);
        findings.extend(file_findings);
    }
    findings.extend(xrules::check(&indexes));
    Ok(Report { findings, files_scanned: files.len(), hot: hot::inventory(&indexes) })
}

/// One fixture's self-test outcome.
#[derive(Debug)]
pub struct SelfTestFailure {
    pub path: String,
    /// Findings the rules produced but no marker expected.
    pub unexpected: Vec<Finding>,
    /// (rule, line) pairs a marker expected but the rules missed.
    pub missing: Vec<(Rule, usize)>,
}

/// Run the rule engine over fixture files and compare against their
/// inline `//~ rule-id` markers. Returns `(fixture count, total
/// expected findings, failures)`; the self-test passes when `failures`
/// is empty **and** at least one finding was expected — a fixture set
/// that expects nothing proves nothing.
///
/// Both passes run: per-file rules plus the cross-file rules over each
/// fixture's own (single-file) symbol graph.
pub fn self_test(
    root: &Path,
    fixtures: &[PathBuf],
) -> Result<(usize, usize, Vec<SelfTestFailure>), AuditError> {
    let mut failures = Vec::new();
    let mut total_expected = 0usize;
    for file in fixtures {
        let (mut found, index, source) = analyze_file(root, file)?;
        if !source.trim_start().starts_with(SCAN_AS) {
            return Err(AuditError::MissingScanAs { path: file.clone() });
        }
        found.extend(xrules::check(std::slice::from_ref(&index)));
        let mut expected: Vec<(Rule, usize)> = Vec::new();
        for (idx, line) in source.lines().enumerate() {
            let mut rest = line;
            while let Some(pos) = rest.find(EXPECT_MARKER) {
                let after = &rest[pos + EXPECT_MARKER.len()..];
                let id: String = after
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                if let Some(rule) = Rule::from_id(&id) {
                    expected.push((rule, idx + 1));
                }
                rest = after;
            }
        }
        total_expected += expected.len();

        let mut got: Vec<(Rule, usize)> = found.iter().map(|f| (f.rule, f.line)).collect();
        let mut missing = Vec::new();
        for want in &expected {
            match got.iter().position(|g| g == want) {
                Some(i) => {
                    got.remove(i);
                }
                None => missing.push(*want),
            }
        }
        let unexpected: Vec<Finding> =
            found.into_iter().filter(|f| got.contains(&(f.rule, f.line))).collect();
        if !missing.is_empty() || !unexpected.is_empty() {
            failures.push(SelfTestFailure { path: relative(root, file), unexpected, missing });
        }
    }
    Ok((fixtures.len(), total_expected, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, contents: &str) -> PathBuf {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).unwrap();
        }
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphner-audit-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn workspace_walk_finds_root_and_crate_sources_sorted() {
        let root = temp_root("walk");
        write(&root, "src/lib.rs", "fn a() {}");
        write(&root, "crates/zz/src/lib.rs", "fn z() {}");
        write(&root, "crates/aa/src/deep/x.rs", "fn x() {}");
        write(&root, "crates/aa/src/lib.rs", "fn y() {}");
        write(&root, "crates/aa/notes.md", "not rust");
        let files = workspace_sources(&root).unwrap();
        let rels: Vec<String> = files.iter().map(|f| relative(&root, f)).collect();
        assert_eq!(
            rels,
            vec![
                "crates/aa/src/deep/x.rs",
                "crates/aa/src/lib.rs",
                "crates/zz/src/lib.rs",
                "src/lib.rs"
            ]
        );
    }

    #[test]
    fn run_reports_both_passes_with_relative_paths() {
        let root = temp_root("run");
        let f1 = write(&root, "crates/text/src/a.rs", "fn f(x: f64) -> bool { x == 1.0 }\n");
        let f2 = write(
            &root,
            "crates/graph/src/b.rs",
            "fn g(xs: &[f64]) -> f64 {\n    xs.par_iter().cloned().reduce(|| 0.0, f64::max)\n}\n",
        );
        let report = run(&root, &[f1, f2]).unwrap();
        assert_eq!(report.files_scanned, 2);
        let got: Vec<(Rule, &str, usize)> =
            report.findings.iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect();
        assert_eq!(
            got,
            vec![
                (Rule::NoFloatEq, "crates/text/src/a.rs", 1),
                (Rule::DetMerge, "crates/graph/src/b.rs", 2)
            ]
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn scan_as_header_rescopes_fixture_rules() {
        let root = temp_root("scanas");
        // real path is under fixtures/ (bench-style exempt), but the
        // header scopes it as library code
        let f = write(
            &root,
            "crates/audit/fixtures/v.rs",
            "//@ scan-as: crates/core/src/fixture.rs\nfn f() { x == 1.0; }\n",
        );
        let (findings, _) = scan_file(&root, &f).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/audit/fixtures/v.rs");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn self_test_matches_markers_exactly() {
        let root = temp_root("selftest");
        let good = write(
            &root,
            "crates/audit/fixtures/good.rs",
            "//@ scan-as: crates/core/src/f.rs\nfn f() { x == 1.0; } //~ no-float-eq\n",
        );
        let (n, expected, failures) = self_test(&root, std::slice::from_ref(&good)).unwrap();
        assert_eq!((n, expected), (1, 1));
        assert!(failures.is_empty());

        let bad = write(
            &root,
            "crates/audit/fixtures/bad.rs",
            "//@ scan-as: crates/core/src/f.rs\nfn f() { x == 1.0; }\nfn g() {} //~ det-merge\n",
        );
        let (_, _, failures) = self_test(&root, &[bad]).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].unexpected.len(), 1); // the unmarked float eq
        assert_eq!(failures[0].missing, vec![(Rule::DetMerge, 3)]);
    }

    #[test]
    fn self_test_requires_scan_as_header() {
        let root = temp_root("noheader");
        let f = write(&root, "crates/audit/fixtures/h.rs", "fn f() {}\n");
        assert!(matches!(self_test(&root, &[f]), Err(AuditError::MissingScanAs { .. })));
    }
}
