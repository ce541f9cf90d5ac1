//! The audit CLI — the workspace's required lint gate.
//!
//! ```text
//! cargo run --release --bin audit -- --workspace            # full scan, CI gate
//! cargo run --release --bin audit -- --self-test            # lexer/rules vs fixtures
//! cargo run --release --bin audit -- path/to/file.rs ...    # scan specific files
//! ```
//!
//! Options:
//!
//! * `--root <dir>` — workspace root (default: two levels above this
//!   crate's manifest, i.e. the repo checkout the binary was built from).
//! * `--metrics-out <path>` — append the run's metrics
//!   (`audit.findings`, `audit.rule.<id>`, `audit.files_scanned`,
//!   `audit.hot_fns`) as JSONL through `graphner-obs`, so the metrics
//!   trajectory records lint debt over time.
//! * `--hot-report <path>` — write the hot-path inventory: every
//!   `// hot:`-reachable function with its static alloc-site count and
//!   its call path from a root.
//! * `--github-annotations` — additionally emit each finding as a
//!   GitHub Actions workflow command
//!   (`::error file=…,line=…,title=…::…`) so CI renders them inline on
//!   the PR diff.
//!
//! Exit status: `0` clean, `1` findings or self-test failures, `2`
//! usage or I/O errors.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_audit::{self_test, workspace_sources, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: audit [--root <dir>] [--metrics-out <path>] [--hot-report <path>] [--github-annotations] (--workspace | --self-test | <file.rs>...)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut selftest = false;
    let mut root_override: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut hot_report: Option<PathBuf> = None;
    let mut github_annotations = false;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--self-test" => selftest = true,
            "--root" => match args.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--hot-report" => match args.next() {
                Some(path) => hot_report = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--github-annotations" => github_annotations = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => return usage(),
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if !workspace && !selftest && paths.is_empty() {
        return usage();
    }

    // Default root: this crate lives at <root>/crates/audit.
    let root = root_override.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
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

    if workspace || !paths.is_empty() {
        let files = if workspace {
            match workspace_sources(&root) {
                Ok(mut f) => {
                    let mut extra: Vec<PathBuf> =
                        paths.iter().map(|p| absolutize(&root, p)).collect();
                    f.append(&mut extra);
                    f
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.iter().map(|p| absolutize(&root, p)).collect()
        };
        match graphner_audit::run(&root, &files) {
            Ok(report) => {
                print_report(&report);
                if github_annotations {
                    print_github_annotations(&report);
                }
                if let Some(path) = &hot_report {
                    if let Err(e) = std::fs::write(path, report.hot.render()) {
                        eprintln!("audit: cannot write hot report to {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
                if let Some(path) = &metrics_out {
                    report.publish_metrics();
                    if let Err(e) = write_metrics(path) {
                        eprintln!("audit: cannot write metrics to {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
                if !report.is_clean() {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
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

/// Resolve a CLI path against the workspace root unless already absolute.
fn absolutize(root: &Path, p: &Path) -> PathBuf {
    let candidate = if p.is_absolute() { p.to_path_buf() } else { root.join(p) };
    // fall back to CWD-relative if the root-relative guess is missing
    if candidate.is_file() || p.is_absolute() {
        candidate
    } else {
        p.to_path_buf()
    }
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

/// Append the global metrics registry as JSONL.
fn write_metrics(path: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let jsonl = graphner_obs::Registry::global().export_jsonl();
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(jsonl.as_bytes())
}
