//! Coverage tripwires for checks that a manifest line switches on.
//!
//! A workspace member whose manifest lacks `[lints] workspace = true`
//! is silently exempt from every policy lint in `[workspace.lints]`,
//! so a new crate fails here until it opts in. And the root
//! `[profile.release]` must keep `overflow-checks = true`, or shipped
//! builds would wrap integer overflow silently again.

use std::path::{Path, PathBuf};

/// The root manifest plus every member manifest it lists, with
/// `dir/*` member globs expanded, in sorted order.
fn workspace_manifests(root: &Path) -> Vec<PathBuf> {
    let text = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let members = text.lines().find_map(|l| l.trim().strip_prefix("members = ")).unwrap_or("");
    let mut out = vec![root.join("Cargo.toml")];
    for member in members.trim_matches(['[', ']']).split(',') {
        let member = member.trim().trim_matches('"');
        match member.strip_suffix("/*") {
            Some(dir) => {
                let mut found: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
                    .into_iter()
                    .flatten()
                    .flatten()
                    .map(|entry| entry.path().join("Cargo.toml"))
                    .filter(|p| p.is_file())
                    .collect();
                found.sort();
                out.extend(found);
            }
            None if !member.is_empty() => out.push(root.join(member).join("Cargo.toml")),
            None => {}
        }
    }
    out
}

/// Whether the manifest's `table` (e.g. `[lints]`) sets `key = true`.
fn table_sets_true(manifest: &str, table: &str, key: &str) -> bool {
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == table;
        } else if in_table && line.replace(' ', "") == format!("{key}=true") {
            return true;
        }
    }
    false
}

/// Whether a manifest's `[lints]` table is `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    table_sets_true(manifest, "[lints]", "workspace")
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_workspace_member_inherits_the_policy_lints() {
    let manifests = workspace_manifests(&root());
    assert!(
        manifests.iter().any(|m| m.ends_with("vendor/rayon/Cargo.toml"))
            && manifests.iter().any(|m| m.ends_with("crates/serve/Cargo.toml")),
        "member discovery broke: {manifests:?}"
    );
    let missing: Vec<&PathBuf> = manifests
        .iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).expect("member manifest is readable");
            !inherits_workspace_lints(&text)
        })
        .collect();
    assert!(missing.is_empty(), "members without `[lints] workspace = true`: {missing:?}");
}

#[test]
fn only_a_lints_table_with_workspace_true_counts() {
    assert!(inherits_workspace_lints("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"));
    assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!inherits_workspace_lints("[lints]\n[dependencies]\nworkspace = true\n"));
    assert!(!inherits_workspace_lints("[lints.clippy]\nworkspace = true\n"));
}

#[test]
fn release_builds_check_integer_overflow() {
    let manifest =
        std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest is readable");
    assert!(
        table_sets_true(&manifest, "[profile.release]", "overflow-checks"),
        "the root `[profile.release]` must set `overflow-checks = true`"
    );
}

#[test]
fn only_the_named_table_counts() {
    let profile = "[profile.release]\nlto = \"thin\"\noverflow-checks = true\n";
    assert!(table_sets_true(profile, "[profile.release]", "overflow-checks"));
    assert!(!table_sets_true(profile, "[profile.dev]", "overflow-checks"));
    assert!(!table_sets_true(
        "[profile.release]\noverflow-checks = false\n",
        "[profile.release]",
        "overflow-checks"
    ));
}
