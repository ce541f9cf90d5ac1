//! The audit, run as a test: the workspace must be clean, and the rules
//! must find exactly what the fixture files' `//~ rule-id` markers
//! expect — no finding unmarked, no marker unmatched.

use graphner_audit::{run, workspace_sources};
use std::path::{Path, PathBuf};

/// A `//~ rule-id` comment declares one expected finding on its line.
const EXPECT_MARKER: &str = "//~";

/// The workspace root: this crate lives at `<root>/crates/audit`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `(rule id, line)` the markers of `source` expect.
fn expected_findings(source: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        for marked in line.split(EXPECT_MARKER).skip(1) {
            let id = marked.trim_start().split(|c: char| c.is_whitespace()).next().unwrap_or("");
            out.push((id.to_string(), idx + 1));
        }
    }
    out
}

#[test]
fn workspace_has_no_findings() {
    let root = root();
    let files = workspace_sources(&root).expect("workspace sources are listable");
    assert!(
        files.iter().any(|f| f.ends_with("crates/graph/src/propagate.rs")),
        "the walk missed the propagation engine: {files:?}"
    );
    let findings = run(&root, &files).expect("workspace sources are readable");
    let listing: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{} audit finding(s):\n{}", findings.len(), listing.join("\n"));
}

#[test]
fn fixtures_match_their_markers_exactly() {
    let root = root();
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(root.join("crates/audit/fixtures"))
        .expect("fixtures are listable")
        .map(|entry| entry.expect("fixture entry is readable").path())
        .collect();
    fixtures.sort();
    let mut markers = 0;
    for fixture in &fixtures {
        let source = std::fs::read_to_string(fixture).expect("fixture is readable");
        let mut want = expected_findings(&source);
        // each fixture is its own single-file symbol graph
        let mut got: Vec<(String, usize)> = run(&root, std::slice::from_ref(fixture))
            .expect("fixture is readable")
            .iter()
            .map(|f| (f.rule.id().to_string(), f.line))
            .collect();
        want.sort();
        got.sort();
        assert_eq!(got, want, "{}: findings (left) vs markers (right)", fixture.display());
        markers += want.len();
    }
    // Pins the corpus: losing a fixture file or a marker fails here.
    assert_eq!((fixtures.len(), markers), (2, 16), "fixture files and markers");
}
