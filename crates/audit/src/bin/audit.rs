//! The audit CLI — the workspace's required lint gate.
//!
//! ```text
//! cargo run --release --bin audit -- --workspace            # full scan, CI gate
//! cargo run --release --bin audit -- --self-test            # lexer/rules vs fixtures
//! ```
//!
//! The workspace root is the checkout the binary was built from (two
//! levels above this crate's manifest). `--github-annotations`
//! additionally emits each finding as a GitHub Actions workflow
//! command (`::error file=…,line=…,title=…::…`) so CI renders them
//! inline on the PR diff.
//!
//! Exit status: `0` clean, `1` findings or self-test failures, `2`
//! usage or I/O errors.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: output is its job"
)]

use graphner_audit::{self_test, workspace_sources, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: audit [--github-annotations] (--workspace | --self-test)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut selftest = false;
    let mut github_annotations = false;

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--self-test" => selftest = true,
            "--github-annotations" => github_annotations = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    if !workspace && !selftest {
        return usage();
    }

    // This crate lives at <root>/crates/audit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);

    let mut failed = false;

    if selftest {
        let fixtures_dir = root.join("crates/audit/fixtures");
        let fixtures = match list_fixtures(&fixtures_dir) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("audit: cannot list fixtures in {}: {e}", fixtures_dir.display());
                return ExitCode::from(2);
            }
        };
        match self_test(&root, &fixtures) {
            Ok((files, expected, failures)) => {
                if expected == 0 {
                    eprintln!("audit --self-test: FAIL — fixtures expect zero findings, which proves nothing");
                    failed = true;
                }
                for failure in &failures {
                    for f in &failure.unexpected {
                        println!("self-test {}: unexpected finding {f}", failure.path);
                    }
                    for (rule, line) in &failure.missing {
                        println!(
                            "self-test {}:{line}: expected [{}] but the rules found nothing",
                            failure.path,
                            rule.id()
                        );
                    }
                }
                if failures.is_empty() && expected > 0 {
                    println!(
                        "audit --self-test: OK — {files} fixture file(s), {expected} expected finding(s), all matched exactly"
                    );
                } else {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }

    if workspace {
        let report =
            match workspace_sources(&root).and_then(|files| graphner_audit::run(&root, &files)) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
        print_report(&report);
        if github_annotations {
            print_github_annotations(&report);
        }
        if !report.is_clean() {
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Fixture files, sorted for stable output.
fn list_fixtures(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut fixtures = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "rs") {
            fixtures.push(path);
        }
    }
    fixtures.sort();
    Ok(fixtures)
}

fn print_report(report: &Report) {
    for f in &report.findings {
        println!("{f}");
    }
    let status = if report.is_clean() { "OK" } else { "FAIL" };
    println!(
        "audit: {status} — {} file(s) scanned, {} finding(s)",
        report.files_scanned,
        report.findings.len()
    );
}

/// Escape a GitHub workflow-command *message* (`%`, CR, LF).
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escape a workflow-command *property* value (message set plus `:`, `,`).
fn gh_escape_prop(s: &str) -> String {
    gh_escape(s).replace(':', "%3A").replace(',', "%2C")
}

/// Emit findings as GitHub Actions inline annotations so they render
/// on the PR diff next to the offending line. Workflow commands go to
/// stdout by design.
fn print_github_annotations(report: &Report) {
    for f in &report.findings {
        println!(
            "::error file={},line={},title={}::{}",
            gh_escape_prop(&f.path),
            f.line,
            gh_escape_prop(&format!("audit {}", f.rule.id())),
            gh_escape(&f.what)
        );
    }
}
