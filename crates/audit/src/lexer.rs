//! A lightweight Rust lexer — just enough syntax to audit policy.
//!
//! The audit rules need to see identifiers, punctuation and literal
//! *kinds* with accurate line numbers, while never being fooled by the
//! contents of strings or comments (a doc comment mentioning
//! `unwrap()` is not a violation). Full parsing is deliberately out of
//! scope: the rules are token-pattern matchers, and a token stream
//! that faithfully skips comments, all string flavours (including raw
//! and byte strings), char literals vs. lifetimes, and numeric
//! literals (including float detection) is sufficient for every rule
//! the project enforces.

/// What kind of token this is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword, e.g. `unwrap`, `std`, `mod`.
    Ident(String),
    /// A single punctuation character (`.`, `{`, `(`, `!`, …).
    /// Multi-character operators the rules care about are fused into
    /// [`TokenKind::Op`].
    Punct(char),
    /// A fused multi-character operator: `==`, `!=`, `<=`, `>=`, `::`,
    /// `->`, `=>`, `..`.
    Op(&'static str),
    /// An integer literal (including hex/octal/binary forms).
    Int,
    /// A floating-point literal (`1.0`, `1.`, `1e-6`, `2.5f32`).
    Float,
    /// Any string literal (`"…"`, `r#"…"#`, `b"…"`), carrying its raw
    /// inner text (escape sequences left verbatim). Rules never match
    /// *inside* the payload accidentally — it only surfaces through
    /// [`Token::str_lit`].
    Str(String),
    /// A character literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// One comment with its source position. Comments never become tokens
/// — rules cannot be fooled by their contents — but the symbol-index
/// pass reads them back out for the hot-path annotations (`// hot:`,
/// `// alloc:`, `// bound:`), which live *in* comments by design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// 1-based line of the comment's last character (equals `line` for
    /// single-line comments).
    pub end_line: usize,
    /// Interior text: everything after the `//` of a line comment
    /// (including any third `/` or `!` of doc comments), or between the
    /// delimiters of a block comment.
    pub text: String,
}

impl Comment {
    /// The comment body with doc markers (`/`, `!`, `*`) and
    /// surrounding whitespace stripped — what annotation rules match
    /// against.
    pub fn body(&self) -> &str {
        self.text.trim_start_matches(['/', '!', '*']).trim()
    }
}

/// Tokens plus captured comments, from [`tokenize_full`].
#[derive(Clone, Debug, Default)]
pub struct LexOutput {
    /// The token stream (comments and whitespace skipped).
    pub tokens: Vec<Token>,
    /// Every comment, in source order.
    pub comments: Vec<Comment>,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the fused operator `op`.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(&self.kind, TokenKind::Op(o) if *o == op)
    }

    /// The raw inner text, if this token is a string literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Tokenize Rust source. Comments are skipped (line numbers still
/// advance through them); char contents are discarded, string contents
/// ride on [`TokenKind::Str`].
pub fn tokenize(source: &str) -> Vec<Token> {
    tokenize_full(source).tokens
}

/// Tokenize Rust source, also capturing every comment with its line
/// span and interior text — the input to the symbol-index pass, whose
/// hot-path annotations (`// hot:`, `// alloc:`, `// bound:`) live in
/// comments.
pub fn tokenize_full(source: &str) -> LexOutput {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        comments: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, line: usize) {
        self.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> LexOutput {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.lex_line_comment(line),
                '/' if self.peek(1) == Some('*') => self.lex_block_comment(line),
                '\'' => self.lex_quote(line),
                '"' => {
                    let text = self.lex_string();
                    self.push(TokenKind::Str(text), line);
                }
                'r' | 'b' if self.is_string_prefix() => {
                    let text = self.lex_prefixed_string();
                    self.push(TokenKind::Str(text), line);
                }
                c if c.is_alphabetic() || c == '_' => self.lex_ident(line),
                c if c.is_ascii_digit() => self.lex_number(line),
                _ => self.lex_punct(line),
            }
        }
        LexOutput { tokens: self.tokens, comments: self.comments }
    }

    fn lex_line_comment(&mut self, line: usize) {
        self.bump(); // '/'
        self.bump(); // '/'
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.bump();
                break;
            }
            text.push(c);
            self.bump();
        }
        self.comments.push(Comment { line, end_line: line, text });
    }

    fn lex_block_comment(&mut self, line: usize) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut text = String::new();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                    text.push_str("/*");
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                }
                (Some(c), _) => {
                    self.bump();
                    text.push(c);
                }
                (None, _) => break, // unterminated: tolerate, stop at EOF
            }
        }
        self.comments.push(Comment { line, end_line: self.line, text });
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is
    /// `'ident` *not* followed by a closing `'`; everything else (`'x'`,
    /// `'\n'`, `'\''`) is a char literal.
    fn lex_quote(&mut self, line: usize) {
        self.bump(); // opening '
        match self.peek(0) {
            Some('\\') => {
                // escaped char literal: consume escape then closing '
                self.bump();
                self.bump(); // the escaped character
                             // unicode escapes \u{…} span to the closing brace
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Char, line);
            }
            Some(c) if (c.is_alphanumeric() || c == '_') && self.peek(1) != Some('\'') => {
                // lifetime: consume the identifier
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Lifetime, line);
            }
            Some(_) => {
                self.bump(); // the character
                self.bump(); // closing '
                self.push(TokenKind::Char, line);
            }
            None => {}
        }
    }

    /// Whether the current `r`/`b` begins a raw/byte string rather
    /// than an identifier (`r#"…"#`, `br"…"`, `b"…"`, `b'…'` handled
    /// separately).
    fn is_string_prefix(&self) -> bool {
        let c0 = self.peek(0);
        let (c1, c2) = (self.peek(1), self.peek(2));
        match c0 {
            Some('r') => match c1 {
                Some('"') => true,
                // r#"…"# is a raw string; r#ident is a raw identifier
                Some('#') => matches!(c2, Some('"') | Some('#')),
                _ => false,
            },
            Some('b') => match c1 {
                Some('"') | Some('\'') => true,
                Some('r') => matches!(c2, Some('"') | Some('#')),
                _ => false,
            },
            _ => false,
        }
    }

    /// Consume a raw/byte string starting at the `r`/`b` prefix,
    /// returning its inner text (empty for byte-char literals).
    fn lex_prefixed_string(&mut self) -> String {
        let mut text = String::new();
        let mut raw = false;
        // consume prefix letters
        while let Some(c) = self.peek(0) {
            match c {
                'r' => {
                    raw = true;
                    self.bump();
                }
                'b' => {
                    self.bump();
                }
                _ => break,
            }
        }
        if raw {
            let mut hashes = 0usize;
            while self.peek(0) == Some('#') {
                hashes += 1;
                self.bump();
            }
            self.bump(); // opening quote
                         // raw strings end at `"` followed by `hashes` hashes
            while let Some(c) = self.bump() {
                if c == '"' {
                    let mut matched = 0usize;
                    while matched < hashes && self.peek(matched) == Some('#') {
                        matched += 1;
                    }
                    if matched == hashes {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    // Not a terminator: the quote and the hashes seen
                    // are payload. Consume the hashes so they are not
                    // re-read (and duplicated) by the next iteration.
                    text.push('"');
                    for _ in 0..matched {
                        self.bump();
                        text.push('#');
                    }
                    continue;
                }
                text.push(c);
            }
        } else if self.peek(0) == Some('\'') {
            // byte char literal b'…': no text worth carrying
            self.bump();
            while let Some(c) = self.bump() {
                if c == '\\' {
                    self.bump();
                } else if c == '\'' {
                    break;
                }
            }
        } else {
            text = self.lex_string();
        }
        text
    }

    /// Consume a normal `"…"` string starting at the opening quote,
    /// returning the raw inner text (escapes left verbatim).
    fn lex_string(&mut self) -> String {
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                text.push(c);
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                break;
            } else {
                text.push(c);
            }
        }
        text
    }

    fn lex_ident(&mut self, line: usize) {
        // raw identifier prefix r# (not a raw string — checked earlier)
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident(s), line);
    }

    fn lex_number(&mut self, line: usize) {
        let mut is_float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('o') | Some('b')) {
            // radix literal: consume prefix and digits (never a float)
            self.bump();
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Int, line);
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        // fractional part: a `.` NOT followed by an identifier start or
        // a second `.` (those are method calls and range operators)
        if self.peek(0) == Some('.')
            && !matches!(self.peek(1), Some(c) if c.is_alphabetic() || c == '_' || c == '.')
        {
            is_float = true;
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // exponent
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let sign = matches!(self.peek(1), Some('+') | Some('-'));
            let digit_at = if sign { 2 } else { 1 };
            if matches!(self.peek(digit_at), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                self.bump();
                if sign {
                    self.bump();
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // type suffix (f32, f64, u8, usize, …)
        if matches!(self.peek(0), Some('f')) && !is_float {
            // 1f32 / 1f64 are floats
            if (self.peek(1) == Some('3') && self.peek(2) == Some('2'))
                || (self.peek(1) == Some('6') && self.peek(2) == Some('4'))
            {
                is_float = true;
            }
        }
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        self.push(if is_float { TokenKind::Float } else { TokenKind::Int }, line);
    }

    fn lex_punct(&mut self, line: usize) {
        let c = self.peek(0).unwrap_or(' ');
        let fused: Option<&'static str> = match (c, self.peek(1)) {
            ('=', Some('=')) => Some("=="),
            ('!', Some('=')) => Some("!="),
            ('<', Some('=')) => Some("<="),
            ('>', Some('=')) => Some(">="),
            (':', Some(':')) => Some("::"),
            ('-', Some('>')) => Some("->"),
            ('=', Some('>')) => Some("=>"),
            ('.', Some('.')) => Some(".."),
            _ => None,
        };
        if let Some(op) = fused {
            self.bump();
            self.bump();
            self.push(TokenKind::Op(op), line);
        } else {
            self.bump();
            self.push(TokenKind::Punct(c), line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = tokenize("let x = foo.unwrap();");
        let names: Vec<&str> = toks.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(names, vec!["let", "x", "foo", "unwrap"]);
        assert!(toks.iter().any(|t| t.is_punct('.')));
        assert!(toks.iter().any(|t| t.is_punct(';')));
    }

    #[test]
    fn comments_are_skipped_but_lines_advance() {
        let toks = tokenize("// unwrap() in a comment\n/* panic! *//* /* nested */ */\nfoo");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_ident("foo"));
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = tokenize(r#"let s = "unwrap() == 1.0"; x"#);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(toks.iter().filter(|t| t.str_lit().is_some()).count(), 1);
        assert_eq!(toks.iter().find_map(|t| t.str_lit()), Some("unwrap() == 1.0"));
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = tokenize("r#\"has \"quotes\" and unwrap()\"# b\"bytes\" br#\"raw bytes\"# end");
        assert_eq!(toks.iter().filter(|t| t.str_lit().is_some()).count(), 3);
        assert_eq!(toks[0].str_lit(), Some("has \"quotes\" and unwrap()"));
        assert_eq!(toks[1].str_lit(), Some("bytes"));
        assert_eq!(toks[2].str_lit(), Some("raw bytes"));
        assert!(toks.iter().any(|t| t.is_ident("end")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let toks = tokenize("r#type r#match");
        assert!(toks[0].is_ident("type"));
        assert!(toks[1].is_ident("match"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; }");
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 3);
    }

    #[test]
    fn float_detection() {
        assert_eq!(kinds("1.0"), vec![TokenKind::Float]);
        assert_eq!(kinds("1."), vec![TokenKind::Float]);
        assert_eq!(kinds("1e-6"), vec![TokenKind::Float]);
        assert_eq!(kinds("2.5f32"), vec![TokenKind::Float]);
        assert_eq!(kinds("1f64"), vec![TokenKind::Float]);
        assert_eq!(kinds("42"), vec![TokenKind::Int]);
        assert_eq!(kinds("0xff"), vec![TokenKind::Int]);
        assert_eq!(kinds("1u64"), vec![TokenKind::Int]);
        // method call on an integer is not a float
        assert_eq!(
            kinds("1.max"),
            vec![TokenKind::Int, TokenKind::Punct('.'), TokenKind::Ident("max".into())]
        );
        // range of integers is not a float
        assert_eq!(kinds("0..2"), vec![TokenKind::Int, TokenKind::Op(".."), TokenKind::Int]);
    }

    #[test]
    fn fused_operators() {
        let toks = tokenize("a == b != c :: d -> e => f <= g >= h");
        let ops: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Op(o) => Some(*o),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["==", "!=", "::", "->", "=>", "<=", ">="]);
    }

    #[test]
    fn line_numbers_are_accurate() {
        let toks = tokenize("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unterminated_constructs_do_not_hang() {
        assert!(tokenize("/* never closed").is_empty());
        assert_eq!(tokenize("\"never closed").len(), 1);
        assert_eq!(tokenize("r#\"never closed").len(), 1);
    }

    #[test]
    fn raw_string_interior_quote_hash_runs_are_not_duplicated() {
        // `"#` inside an `r##"…"##` string is payload, not a close;
        // the old lexer re-read the partial hash run and duplicated it.
        let toks = tokenize("r##\"a\"#b\"## end");
        assert_eq!(toks[0].str_lit(), Some("a\"#b"));
        assert!(toks[1].is_ident("end"));
        // a bare quote (zero following hashes) inside a hashed raw string
        let toks = tokenize("r#\"say \"hi\" now\"# x");
        assert_eq!(toks[0].str_lit(), Some("say \"hi\" now"));
        assert!(toks[1].is_ident("x"));
        // the first `"#` candidate closes an `r#` string
        let toks = tokenize("r#\"a\"##\"#");
        assert_eq!(toks[0].str_lit(), Some("a"));
    }

    #[test]
    fn raw_strings_spanning_lines_keep_line_numbers() {
        let toks = tokenize("r#\"line\nline\nline\"#\nafter");
        assert_eq!(toks[0].str_lit(), Some("line\nline\nline"));
        assert_eq!(toks[1].line, 4);
    }

    #[test]
    fn comments_are_captured_with_spans() {
        let out = tokenize_full(
            "// SAFETY: top\nfn f() {} // trailing\n/* block\nspans lines */\n/// doc\nx",
        );
        let lines: Vec<(usize, usize)> =
            out.comments.iter().map(|c| (c.line, c.end_line)).collect();
        assert_eq!(lines, vec![(1, 1), (2, 2), (3, 4), (5, 5)]);
        assert_eq!(out.comments[0].body(), "SAFETY: top");
        assert_eq!(out.comments[1].body(), "trailing");
        assert_eq!(out.comments[2].body(), "block\nspans lines");
        assert_eq!(out.comments[3].body(), "doc");
        assert_eq!(out.tokens.iter().filter_map(|t| t.ident()).count(), 3); // fn f x
    }

    #[test]
    fn nested_block_comments_capture_interior_and_terminate() {
        let out = tokenize_full("/* a /* nested */ b */ after /*/ tricky */ end");
        assert!(out.tokens.iter().any(|t| t.is_ident("after")));
        assert!(out.tokens.iter().any(|t| t.is_ident("end")));
        assert_eq!(out.comments.len(), 2);
        assert_eq!(out.comments[0].text, " a /* nested */ b ");
        // `/*/` opens a comment whose body starts with `/`
        assert_eq!(out.comments[1].text, "/ tricky ");
    }
}
