//! The audit rules: token-pattern lints encoding GraphNER project
//! policy that clippy cannot express. Policy that clippy *can* express
//! (panics, hash maps, clocks, printing, unsafe provenance, thread
//! counts, hot-path casts) lives in `[workspace.lints]` and
//! `clippy.toml` instead (DESIGN.md §9).
//!
//! | id            | policy                                                          |
//! |---------------|-----------------------------------------------------------------|
//! | `no-float-eq` | no bare `==` / `!=` against float literals in library code —    |
//! |               | unlike `clippy::float_cmp`, either operand side and zero count  |
//!
//! The cross-file rules run in pass 2 over the linked symbol graph
//! (see [`crate::symgraph`] and [`crate::xrules`]):
//!
//! | id              | policy                                                        |
//! |-----------------|---------------------------------------------------------------|
//! | `det-merge`     | parallel `reduce`/`sum` merges carry a `// det: <why          |
//! |                 | order-safe>` annotation in the same statement                 |
//!
//! The hot-path families also run in pass 2, but only inside the
//! hot-reachable function set seeded by `// hot:` annotations (see
//! [`crate::hot`]):
//!
//! | id              | policy                                                        |
//! |-----------------|---------------------------------------------------------------|
//! | `hot-alloc`     | no `Vec::new` / `vec!` / `push` / `collect` / `format!` /     |
//! |                 | `to_string` / `clone` / `Box::new` in a hot function without  |
//! |                 | a reason-bearing `// alloc:` contract in the statement        |
//! | `hot-overflow`  | no unchecked `+`/`*` inside an index expression of a hot      |
//! |                 | function without a `// bound:` contract (statement- or        |
//! |                 | fn-level) or a `checked_*`/`div_ceil` guard                   |
//!
//! Scope conventions (see [`FileScope`]): binary targets (`src/bin/`),
//! integration tests, benches, and `#[cfg(test)]` regions are exempt
//! from `no-float-eq` — exact float assertions in tests are idiomatic.
//! Span names need no rule: `graphner_obs::span` takes the closed
//! `SpanName` enum, so the compiler owns that vocabulary.

use crate::lexer::{Token, TokenKind};

/// Identifier of one audit rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Bare `==`/`!=` against a float literal in library code.
    NoFloatEq,
    /// Parallel `reduce`/`sum` merge without a `// det:` annotation.
    DetMerge,
    /// Uncontracted allocation call site in a hot-reachable function.
    HotAlloc,
    /// Unchecked index arithmetic in a hot-reachable function.
    HotOverflow,
}

/// All rules, in reporting order. The first runs per file (pass 1),
/// the rest over the linked symbol graph (pass 2).
pub const ALL_RULES: [Rule; 4] =
    [Rule::NoFloatEq, Rule::DetMerge, Rule::HotAlloc, Rule::HotOverflow];

impl Rule {
    /// The rule's stable string id (used in findings, fixture markers
    /// and metric names).
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoFloatEq => "no-float-eq",
            Rule::DetMerge => "det-merge",
            Rule::HotAlloc => "hot-alloc",
            Rule::HotOverflow => "hot-overflow",
        }
    }

    /// Parse a rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
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

/// Where a file sits in the workspace, deciding which rules apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileScope {
    /// Crate name as derived from the path (`core`, `graph`, `bench`,
    /// …; `vendor/rayon/src/` scans as `rayon`; the root `src/` scans
    /// as `graphner`).
    pub crate_name: String,
    /// Binary target (`src/bin/…`), integration test or bench file.
    pub is_binary: bool,
}

impl FileScope {
    /// Derive the scope from a workspace-relative path such as
    /// `crates/graph/src/knn.rs` or `src/lib.rs`.
    pub fn from_path(path: &str) -> FileScope {
        let norm = path.replace('\\', "/");
        let parts: Vec<&str> = norm.split('/').collect();
        let crate_name = match parts.first() {
            Some(&"crates") if parts.len() > 1 => parts[1].to_string(),
            Some(&"vendor") if parts.len() > 1 => parts[1].to_string(),
            _ => "graphner".to_string(),
        };
        let is_binary = parts.windows(2).any(|w| w == ["src", "bin"])
            || parts.contains(&"benches")
            || parts.contains(&"tests")
            || parts.contains(&"examples")
            || parts.contains(&"fixtures");
        FileScope { crate_name, is_binary }
    }
}

/// Half-open token index ranges covered by `#[cfg(test)]`.
///
/// Matches the attribute token sequence `# [ cfg ( test ) ]` (also
/// `#![cfg(test)]`), then skips any further attributes and marks the
/// body of the annotated item — everything inside its outermost brace
/// pair — as excluded. Items ending in `;` without a body exclude
/// through the semicolon.
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // move past `# [ cfg ( test ) ]` (7 tokens, 8 with inner `!`)
            let mut j = i + 7;
            if tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            // skip any further attributes on the same item
            while tokens.get(j).is_some_and(|t| t.is_punct('#')) {
                j = skip_attribute(tokens, j);
            }
            // find the item's body: first `{` before any `;`
            let mut k = j;
            let mut body = None;
            while let Some(t) = tokens.get(k) {
                if t.is_punct('{') {
                    body = Some(k);
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
                k += 1;
            }
            let end = match body {
                Some(open) => matching_brace(tokens, open),
                None => k,
            };
            regions.push((i, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Whether `tokens[i..]` starts the attribute `#[cfg(test)]` or
/// `#![cfg(test)]`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    if !tokens.get(j).is_some_and(|t| t.is_punct('#')) {
        return false;
    }
    j += 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    tokens.get(j).is_some_and(|t| t.is_punct('['))
        && tokens.get(j + 1).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('('))
        && tokens.get(j + 3).is_some_and(|t| t.is_ident("test"))
        && tokens.get(j + 4).is_some_and(|t| t.is_punct(')'))
        && tokens.get(j + 5).is_some_and(|t| t.is_punct(']'))
}

/// Index just past an attribute starting at the `#` at `i`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return j;
    }
    let mut depth = 0usize;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Run every applicable per-file rule over one file's source.
pub fn check_file(path: &str, source: &str) -> Vec<Finding> {
    // Binaries and test code are exempt: exact float assertions are
    // idiomatic there.
    if FileScope::from_path(path).is_binary {
        return Vec::new();
    }
    let tokens = crate::lexer::tokenize(source);
    let regions = test_regions(&tokens);
    let in_test = |i: usize| regions.iter().any(|&(lo, hi)| i >= lo && i <= hi);
    let mut findings = Vec::new();

    for (i, tok) in tokens.iter().enumerate() {
        if in_test(i) || !(tok.is_op("==") || tok.is_op("!=")) {
            continue;
        }
        // no-float-eq: `==` / `!=` adjacent to a float literal
        let float_next = matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::Float));
        let float_prev = i > 0 && tokens[i - 1].kind == TokenKind::Float;
        if float_next || float_prev {
            let op = if tok.is_op("==") { "==" } else { "!=" };
            findings.push(Finding {
                rule: Rule::NoFloatEq,
                path: path.to_string(),
                line: tok.line,
                what: format!("bare float `{op}` comparison"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(Rule, usize)> {
        check_file(path, src).into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn float_eq_is_found_on_either_side() {
        let src = "fn f(x: f64) -> bool { x == 1.0 || 0.0 != x || x == 1e-6 }";
        let found = rules_at("crates/text/src/a.rs", src);
        assert_eq!(found, vec![(Rule::NoFloatEq, 1); 3]);
    }

    #[test]
    fn integer_eq_is_fine() {
        let src = "fn f(x: u32) -> bool { x == 1 && x != 0 }";
        assert!(rules_at("crates/text/src/a.rs", src).is_empty());
    }

    #[test]
    fn float_eq_in_strings_comments_tests_and_bins_is_fine() {
        let src = "fn f() {\n // x == 1.0\n let s = \"x == 1.0\";\n}\n#[cfg(test)]\nmod tests { fn t() { assert!(x == 1.0); } }";
        assert!(rules_at("crates/text/src/a.rs", src).is_empty());
        assert!(rules_at("crates/core/src/bin/tool.rs", "fn f() -> bool { x == 1.0 }").is_empty());
    }

    #[test]
    fn float_eq_after_cfg_test_region_is_found() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a == 1.0; } }\nfn g() { b == 2.0; }";
        assert_eq!(rules_at("crates/text/src/a.rs", src), vec![(Rule::NoFloatEq, 3)]);
    }

    #[test]
    fn scope_derivation() {
        let s = FileScope::from_path("crates/graph/src/knn.rs");
        assert_eq!(s.crate_name, "graph");
        assert!(!s.is_binary);
        assert!(FileScope::from_path("crates/bench/src/bin/t.rs").is_binary);
        assert!(FileScope::from_path("crates/obs/tests/rayon_spans.rs").is_binary);
        assert_eq!(FileScope::from_path("src/lib.rs").crate_name, "graphner");
        let v = FileScope::from_path("vendor/rayon/src/pool.rs");
        assert_eq!(v.crate_name, "rayon");
        assert!(!v.is_binary);
    }

    #[test]
    fn nested_braces_inside_test_mod_stay_excluded() {
        let src = "#[cfg(test)]\nmod tests {\n fn a() { if x { y == 1.0; } }\n fn b() { z == 1.0; }\n}\nfn c() { w == 1.0; }";
        assert_eq!(rules_at("crates/text/src/a.rs", src), vec![(Rule::NoFloatEq, 6)]);
    }

    #[test]
    fn cfg_test_fn_with_extra_attributes() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { x == 1.0; }\nfn real() { y == 1.0; }";
        assert_eq!(rules_at("crates/text/src/a.rs", src), vec![(Rule::NoFloatEq, 4)]);
    }
}
