//! Pass 1 of the workspace analyzer: the per-file item index.
//!
//! The hot-path rules in [`crate::hot`] need *structure*: which
//! functions exist and what they call. This module parses the token
//! stream (plus the captured comments) into a [`FileIndex`] — a
//! deliberately shallow item model: function items with body extents,
//! call-expression edges by callee name, and allocation and
//! index-arithmetic sites with their contracts. [`crate::symgraph`]
//! links the per-file indexes into the workspace symbol graph.
//!
//! Full name resolution is out of scope by design (the audit is
//! zero-dep and must stay fast); the linking pass resolves a call edge
//! only when the callee name is unique across the workspace, which is
//! exactly the class of edges a hot-path walk can trust.

use crate::lexer::{tokenize, Comment, Token, TokenKind};

/// Keywords that look like call expressions (`if (…)`, `match (…)`)
/// but are not, plus binding forms an index expression cannot follow.
const NON_CALL_KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "where", "impl", "dyn", "box", "use", "pub", "mod", "struct",
    "enum", "trait", "unsafe", "await",
];

/// `Option`/`Result` methods that are never calls into the workspace,
/// even where a workspace fn shares the name (`bench::perf::expect`).
const OPTION_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Method names whose call allocates (or may allocate) on the heap —
/// the `hot-alloc` family flags these inside hot functions.
const ALLOC_METHODS: [&str; 6] = ["push", "collect", "to_string", "to_owned", "to_vec", "clone"];

/// Macros whose expansion allocates.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Owner types whose constructors allocate (`Vec::new`, `Box::new`, …).
const ALLOC_TYPES: [&str; 3] = ["Vec", "Box", "String"];

/// Allocating constructor names on [`ALLOC_TYPES`].
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// One allocation call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocSite {
    /// What was matched (`.push()`, `vec!`, `Vec::new`, …).
    pub what: String,
    /// 1-based line.
    pub line: usize,
    /// Body of the covering `// alloc:` contract, if present.
    pub annotation: Option<String>,
}

/// One unchecked `+`/`*` inside an index expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArithSite {
    /// Rendered index expression (`i * s + st`).
    pub what: String,
    /// 1-based line.
    pub line: usize,
    /// Body of the covering statement-level `// bound:` contract, if
    /// present (a fn-level `// bound:` lives on [`FnItem::bound`]).
    pub annotation: Option<String>,
}

/// One function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Callee names of the call expressions in the body, as written
    /// (last path segment / method name), in source order.
    pub calls: Vec<String>,
    /// Body of the `// hot:` annotation directly above the `fn` line,
    /// if any — marks this function a hot-path root.
    pub hot: Option<String>,
    /// Body of a fn-level `// bound:` contract directly above the `fn`
    /// line, covering every index expression in the body.
    pub bound: Option<String>,
    /// Allocation call sites in the body, in source order.
    pub alloc_sites: Vec<AllocSite>,
    /// Unchecked index-arithmetic sites in the body, in source order.
    pub arith_sites: Vec<ArithSite>,
}

impl FnItem {
    /// An empty non-test library function item — the building block
    /// for synthetic call graphs in tests.
    pub fn synthetic(name: &str) -> FnItem {
        FnItem {
            name: name.to_string(),
            is_test: false,
            calls: Vec::new(),
            hot: None,
            bound: None,
            alloc_sites: Vec::new(),
            arith_sites: Vec::new(),
        }
    }
}

/// Everything pass 1 extracts from one file.
#[derive(Clone, Debug)]
pub struct FileIndex {
    /// Workspace-relative path of the file.
    pub path: String,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
}

/// Parse one file into its [`FileIndex`], reported under `path`.
pub fn index_file(path: &str, source: &str) -> FileIndex {
    let lexed = tokenize(source);
    let tokens = &lexed.tokens;
    let comments = &lexed.comments;
    let regions = test_regions(tokens);
    let in_test = |i: usize| regions.iter().any(|&(lo, hi)| i >= lo && i <= hi);

    let mut fns = collect_fns(tokens, comments, &in_test);
    let bodies = body_spans(tokens);
    attribute_bodies(tokens, comments, &bodies, &mut fns);

    FileIndex { path: path.to_string(), fns }
}

fn is_keyword_call(name: &str) -> bool {
    NON_CALL_KEYWORDS.contains(&name)
}

/// Token-index extent of the body of the `fn` at token `at` (open
/// brace ..= close brace); empty for bodyless trait declarations.
fn fn_body_span(tokens: &[Token], at: usize) -> std::ops::Range<usize> {
    let mut j = at + 2;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') {
            let close = matching_brace(tokens, j);
            return j..close + 1;
        }
        if t.is_punct(';') {
            break;
        }
        j += 1;
    }
    j..j
}

/// Half-open token index ranges covered by `#[cfg(test)]`.
///
/// Matches the attribute token sequence `# [ cfg ( test ) ]` (also
/// `#![cfg(test)]`), then skips any further attributes and marks the
/// body of the annotated item — everything inside its outermost brace
/// pair — as excluded. Items ending in `;` without a body exclude
/// through the semicolon.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
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
fn matching_brace(tokens: &[Token], open: usize) -> usize {
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

/// First sweep: find every `fn name` item and its flags. Nested fns
/// become their own items; attribution picks the innermost. The
/// fn-level `// hot:` / `// bound:` annotations are read from the
/// contiguous comment block ending directly above the `fn` line (place
/// them after any attributes).
fn collect_fns(
    tokens: &[Token],
    comments: &[Comment],
    in_test: &dyn Fn(usize) -> bool,
) -> Vec<FnItem> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name) = tokens.get(i + 1).and_then(Token::ident) {
                let line = tokens[i].line;
                let mut item = FnItem::synthetic(name);
                item.is_test = in_test(i);
                item.hot = annotation_above(comments, line, "hot:");
                item.bound = annotation_above(comments, line, "bound:");
                out.push(item);
            }
        }
    }
    out
}

/// Body token spans, in the same order `collect_fns` emits items.
fn body_spans(tokens: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("fn") && tokens.get(i + 1).and_then(Token::ident).is_some() {
            spans.push(fn_body_span(tokens, i));
        }
    }
    spans
}

/// Index (into `spans`) of the innermost span containing token `idx`.
fn innermost(spans: &[std::ops::Range<usize>], idx: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (f, span) in spans.iter().enumerate() {
        if span.contains(&idx) {
            best = match best {
                Some(b) if spans[b].len() <= spans[f].len() => Some(b),
                _ => Some(f),
            };
        }
    }
    best
}

/// Second sweep: walk every token once and attribute call sites,
/// allocation sites and index arithmetic to the *innermost* enclosing
/// function (closures therefore accrue to their defining function).
fn attribute_bodies(
    tokens: &[Token],
    comments: &[Comment],
    spans: &[std::ops::Range<usize>],
    fns: &mut [FnItem],
) {
    debug_assert_eq!(spans.len(), fns.len());

    let mut skip_to = 0;
    for (i, tok) in tokens.iter().enumerate() {
        if i < skip_to {
            continue;
        }
        if tok.is_punct('#') {
            // an attribute (`#[expect(…)]`) holds no calls or sites
            skip_to = skip_attribute(tokens, i);
            continue;
        }
        let Some(owner) = innermost(spans, i) else { continue };
        if let Some(name) = tok.ident() {
            let next_paren = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
            let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let next_turbo = tokens.get(i + 1).is_some_and(Token::is_path_sep);
            let prev_fn = i > 0 && tokens[i - 1].is_ident("fn");
            let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
            let option_method = prev_dot && OPTION_METHODS.contains(&name);
            if next_paren && !prev_fn && !is_keyword_call(name) && !option_method {
                fns[owner].calls.push(name.to_string());
            }
            // hot-alloc capture: `.push(` / `.collect(` / `.collect::<`
            // method forms, `vec!` / `format!` macros, and
            // `Vec::new(` / `Box::new(` constructor paths.
            let site = if prev_dot && ALLOC_METHODS.contains(&name) && (next_paren || next_turbo) {
                Some(format!(".{name}()"))
            } else if next_bang && ALLOC_MACROS.contains(&name) {
                Some(format!("{name}!"))
            } else if next_paren && ALLOC_CTORS.contains(&name) && !prev_dot {
                ctor_owner(tokens, i).map(|ty| format!("{ty}::{name}"))
            } else {
                None
            };
            if let Some(what) = site {
                let annotation = statement_contract(tokens, comments, i, "alloc:");
                fns[owner].alloc_sites.push(AllocSite { what, line: tok.line, annotation });
            }
        } else if tok.is_punct('[') && i > 0 {
            // indexing expression: `expr[` — the previous token ends an
            // expression (identifier, close paren/bracket)
            let prev = &tokens[i - 1];
            let indexes = match &prev.kind {
                TokenKind::Ident(name) => !is_keyword_call(name),
                TokenKind::Punct(c) => *c == ')' || *c == ']',
                _ => false,
            };
            if indexes {
                if let Some(site) = index_arith_site(tokens, comments, i) {
                    fns[owner].arith_sites.push(site);
                }
            }
        }
    }
}

/// The owner type of an allocating constructor path call at ident `i`
/// (`Vec :: new`, `Vec :: < T > :: new`), if it is one of
/// [`ALLOC_TYPES`].
fn ctor_owner(tokens: &[Token], i: usize) -> Option<String> {
    if i < 2 || !tokens[i - 1].is_path_sep() {
        return None;
    }
    let mut j = i - 2;
    // skip a turbofish generic group `< … >` between owner and ctor
    if tokens[j].is_punct('>') {
        let mut depth = 0i32;
        loop {
            match &tokens[j].kind {
                TokenKind::Punct('>') => depth += 1,
                TokenKind::Punct('<') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j < 2 || !tokens[j - 1].is_path_sep() {
            return None;
        }
        j -= 2;
    }
    tokens[j].ident().filter(|n| ALLOC_TYPES.contains(n)).map(str::to_string)
}

/// An [`ArithSite`] for the index expression opening at `open`, if it
/// contains an unguarded binary `+` or `*`. A `checked_*` or
/// `div_ceil` call anywhere inside the brackets counts as a guard.
fn index_arith_site(tokens: &[Token], comments: &[Comment], open: usize) -> Option<ArithSite> {
    let close = matching_bracket(tokens, open);
    let inner = &tokens[open + 1..close];
    if inner.iter().any(|t| t.ident().is_some_and(|n| n.starts_with("checked_") || n == "div_ceil"))
    {
        return None;
    }
    let mut op_at = None;
    for (k, t) in inner.iter().enumerate() {
        let is_op = matches!(t.kind, TokenKind::Punct('+') | TokenKind::Punct('*'));
        if !is_op || k == 0 {
            continue;
        }
        // binary only: the previous token must end an expression
        // (rules out unary deref `*x` and `&*p`)
        let binary = match &inner[k - 1].kind {
            TokenKind::Ident(name) => !is_keyword_call(name),
            TokenKind::Num => true,
            TokenKind::Punct(c) => *c == ')' || *c == ']',
            _ => false,
        };
        // rule out `+=` compound assignment
        let assign = inner.get(k + 1).is_some_and(|t| t.is_punct('='));
        if binary && !assign {
            op_at = Some(open + 1 + k);
            break;
        }
    }
    let at = op_at?;
    let what: String = inner
        .iter()
        .take(24)
        .map(|t| match &t.kind {
            TokenKind::Ident(s) => s.clone(),
            TokenKind::PathSep => "::".to_string(),
            TokenKind::Punct(c) => c.to_string(),
            TokenKind::Num => "N".to_string(),
            _ => "_".to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ");
    let annotation = statement_contract(tokens, comments, at, "bound:");
    Some(ArithSite { what, line: tokens[at].line, annotation })
}

/// Index of the `]` matching the `[` at `open` (or the last token).
fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// The joined body of the contiguous comment block ending on the line
/// directly above `line` (empty when there is none).
fn block_above(comments: &[Comment], line: usize) -> String {
    let mut block: Vec<&Comment> = Vec::new();
    let mut want = line - 1;
    for c in comments.iter().rev() {
        if c.end_line == want && c.line <= c.end_line {
            block.push(c);
            want = c.line.saturating_sub(1);
        } else if c.end_line < line.saturating_sub(1) || (!block.is_empty() && c.end_line < want) {
            break;
        }
    }
    block.reverse();
    block.iter().map(|c| c.body()).collect::<Vec<_>>().join("\n")
}

/// The text following `key` on a line of the comment block directly
/// above `line` that *starts* with `key` (`// hot: reason` → `reason`
/// for key `"hot:"`). Requiring the prefix position keeps prose
/// mentions of the keyword from acting as annotations.
fn annotation_above(comments: &[Comment], line: usize, key: &str) -> Option<String> {
    block_above(comments, line)
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(key).map(|rest| rest.trim().to_string()))
}

/// Contract comment covering the statement containing token `at`: the
/// contiguous comment block directly above the statement's first line,
/// or any comment between that line and the site line (inline or
/// trailing), one of whose lines starts with `key`, yielding the text
/// after the key.
fn statement_contract(
    tokens: &[Token],
    comments: &[Comment],
    at: usize,
    key: &str,
) -> Option<String> {
    let find_key = |text: &str| {
        text.lines()
            .find_map(|l| l.trim_start().strip_prefix(key).map(|rest| rest.trim().to_string()))
    };
    let stmt_start_line = statement_start_line(tokens, at);
    let line = tokens[at].line;
    if let Some(found) = find_key(&block_above(comments, stmt_start_line)) {
        return Some(found);
    }
    comments
        .iter()
        .filter(|c| c.line >= stmt_start_line && c.line <= line)
        .find_map(|c| find_key(c.body()))
}

/// Walk backwards from token `from` to the start of its statement (a
/// `;`, or an enclosing `{`/`(`/`[` boundary) and report the
/// statement's first line.
fn statement_start_line(tokens: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    let mut first_line = tokens[from].line;
    let mut j = from;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        match &t.kind {
            TokenKind::Punct(')') | TokenKind::Punct('}') | TokenKind::Punct(']') => depth += 1,
            TokenKind::Punct('(') | TokenKind::Punct('{') | TokenKind::Punct('[') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokenKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        first_line = t.line;
    }
    first_line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(src: &str) -> FileIndex {
        index_file("crates/graph/src/x.rs", src)
    }

    #[test]
    fn fn_items_and_calls_skip_option_methods() {
        let src = "fn a(x: Option<u32>) -> u32 {\n b(x.unwrap())\n}\nfn b(v: u32) -> u32 {\n helper(v); expect(v)\n}\nfn helper(v: u32) -> u32 { v }";
        let ix = idx(src);
        assert_eq!(ix.fns.len(), 3);
        let a = &ix.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.calls, vec!["b"]);
        let b = &ix.fns[1];
        assert_eq!(b.calls, vec!["helper", "expect"]);
    }

    #[test]
    fn cfg_test_regions_cover_their_item_and_end_at_its_brace() {
        let src =
            "#[cfg(test)]\nmod tests {\n fn a() { if x { y(); } }\n fn b() {}\n}\nfn c() {}\n\
                   #[cfg(test)]\n#[allow(dead_code)]\nfn helper() {}\nfn real() {}";
        let ix = idx(src);
        let flags: Vec<(&str, bool)> =
            ix.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        let want = [("a", true), ("b", true), ("c", false), ("helper", true), ("real", false)];
        assert_eq!(flags, want);
    }

    #[test]
    fn attributes_are_not_calls() {
        let src = "fn f(n: usize) -> u32 {\n #[expect(lint, reason = \"r\")]\n let x = g(n as u32);\n x\n}";
        assert_eq!(idx(src).fns[0].calls, vec!["g"]);
    }

    #[test]
    fn closures_attribute_to_their_function_and_nested_fns_do_not() {
        let src = "fn outer() {\n let f = |x: u32| inner_call(x);\n f(1);\n fn nested() { nested_call(); }\n}";
        let ix = idx(src);
        let outer = &ix.fns[0];
        assert!(outer.calls.iter().any(|c| c == "inner_call"));
        assert!(outer.calls.iter().any(|c| c == "f"));
        assert!(!outer.calls.iter().any(|c| c == "nested_call"));
        let nested = &ix.fns[1];
        assert_eq!(nested.name, "nested");
        assert!(nested.calls.iter().any(|c| c == "nested_call"));
    }
}
