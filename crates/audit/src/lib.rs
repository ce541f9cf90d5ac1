//! `graphner-audit` — the workspace's hot-path audit.
//!
//! A zero-dependency static-analysis pass with its own lightweight Rust
//! lexer ([`lexer`]). It indexes every workspace `src/` file
//! ([`symbols`]), links the indexes into one call graph ([`symgraph`])
//! and enforces the hot-path allocation and index-arithmetic contracts
//! on every function reachable from a `// hot:` root ([`hot`]) — the
//! project policy clippy cannot express. The policy clippy *can*
//! express — panics, hash maps, clocks, printing, float equality,
//! unsafe provenance, thread counts, parallel float merges, hot-module
//! casts — is configured in `[workspace.lints]` and `clippy.toml`, and
//! justified exceptions are `#[expect(lint, reason = "…")]` attributes
//! at the site (DESIGN.md §9).
//!
//! The audit runs under `cargo test --workspace`: `tests/audit.rs`
//! asserts that [`run`] over [`workspace_sources`] finds nothing, and
//! that the rules find exactly what the fixture files' `//~ rule-id`
//! markers expect.

pub mod hot;
pub mod lexer;
pub mod symbols;
pub mod symgraph;

use hot::Finding;
use std::io;
use std::path::{Path, PathBuf};

/// Every `.rs` file under the workspace's source trees: the root
/// package `src/` plus each `crates/*/src/`, plus the vendored
/// `vendor/rayon/src/` worker pool (real concurrency code deserves the
/// strictest policy), recursively, in sorted order. The target tree
/// and the remaining vendor stubs are never entered.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        roots.extend(read_dir_sorted(&crates_dir)?.into_iter().map(|entry| entry.join("src")));
    }
    roots.push(root.join("vendor").join("rayon").join("src"));
    let mut files = Vec::new();
    for src in roots {
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Attach `path` to an I/O error, so a failing walk names the file.
fn at(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(at(dir))? {
        paths.push(entry.map_err(at(dir))?.path());
    }
    paths.sort();
    Ok(paths)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The path of `file` relative to `root`, `/`-separated.
fn relative(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the audit over `files`: index each one, link the indexes into
/// one symbol graph and run the hot-path rules over it. Findings name
/// their file relative to `root`.
pub fn run(root: &Path, files: &[PathBuf]) -> io::Result<Vec<Finding>> {
    let mut indexes = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(file).map_err(at(file))?;
        indexes.push(symbols::index_file(&relative(root, file), &source));
    }
    Ok(hot::check(&indexes))
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
        write(&root, "crates/aa/tests/t.rs", "fn t() {}");
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
    fn run_links_files_and_reports_relative_paths() {
        let root = temp_root("run");
        let f1 =
            write(&root, "crates/text/src/a.rs", "// hot: kernel\nfn g(xs: &[u32]) { h(xs) }\n");
        let f2 = write(&root, "crates/graph/src/b.rs", "fn h(xs: &[u32]) {\n    xs.to_vec();\n}\n");
        let got: Vec<String> =
            run(&root, &[f1, f2]).unwrap().iter().map(ToString::to_string).collect();
        assert_eq!(
            got,
            vec!["crates/graph/src/b.rs:2: [hot-alloc] .to_vec() in hot fn h without an // alloc: contract"]
        );
    }

    #[test]
    fn io_errors_name_the_path() {
        let missing = temp_root("io").join("gone.rs");
        let err = run(Path::new("/"), std::slice::from_ref(&missing)).unwrap_err();
        assert!(err.to_string().contains(&missing.display().to_string()), "{err}");
    }
}
