//! A lightweight Rust lexer — just enough syntax to audit policy.
//!
//! The hot-path rules need to see identifiers, punctuation and the
//! `::` path separator with accurate line numbers, while never being
//! fooled by the contents of strings or comments (a doc comment
//! mentioning `.push()` is not an allocation). Full parsing is
//! deliberately out of scope: a token stream that faithfully skips
//! comments, all string flavours (including raw and byte strings),
//! char literals vs. lifetimes, and numeric literals (including
//! `1.max` and `0..2`, which are not floats) is sufficient.

/// What kind of token this is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword, e.g. `push`, `std`, `mod`.
    Ident(String),
    /// A single punctuation character (`.`, `{`, `(`, `!`, …).
    Punct(char),
    /// The path separator `::`, the one fused operator the rules read.
    PathSep,
    /// A numeric literal in any form (`42`, `0xff`, `1e-6`, `2.5f32`).
    Num,
    /// Any string literal (`"…"`, `r#"…"#`, `b"…"`, `b'…'`); its
    /// contents are skipped.
    Str,
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

/// Tokens plus captured comments, from [`tokenize`].
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

    /// Whether this token is the path separator `::`.
    pub fn is_path_sep(&self) -> bool {
        self.kind == TokenKind::PathSep
    }
}

/// Tokenize Rust source, also capturing every comment with its line
/// span and interior text — the input to the symbol-index pass, whose
/// hot-path annotations (`// hot:`, `// alloc:`, `// bound:`) live in
/// comments. Line numbers advance through comments and strings.
pub fn tokenize(source: &str) -> LexOutput {
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

/// Characters that continue an identifier or a literal suffix.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Characters that continue a run of decimal digits.
fn is_digit(c: char) -> bool {
    c.is_ascii_digit() || c == '_'
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

    fn eat_while(&mut self, pred: fn(char) -> bool) {
        while self.peek(0).is_some_and(pred) {
            self.bump();
        }
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
                    self.lex_string();
                    self.push(TokenKind::Str, line);
                }
                'r' | 'b' if self.is_string_prefix() => {
                    self.lex_prefixed_string();
                    self.push(TokenKind::Str, line);
                }
                c if c.is_alphabetic() || c == '_' => self.lex_ident(line),
                c if c.is_ascii_digit() => self.lex_number(line),
                ':' if self.peek(1) == Some(':') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::PathSep, line);
                }
                c => {
                    self.bump();
                    self.push(TokenKind::Punct(c), line);
                }
            }
        }
        LexOutput { tokens: self.tokens, comments: self.comments }
    }

    fn lex_line_comment(&mut self, line: usize) {
        self.bump(); // '/'
        self.bump(); // '/'
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '\n' {
                break;
            }
            text.push(c);
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
    /// `'\n'`, `'\''`, `'"'`) is a char literal.
    fn lex_quote(&mut self, line: usize) {
        self.bump(); // opening '
        match self.peek(0) {
            Some('\\') => {
                // escaped char literal: the escape, then everything up
                // to the closing ' (unicode escapes \u{…} included)
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Char, line);
            }
            Some(c) if is_word(c) && self.peek(1) != Some('\'') => {
                self.eat_while(is_word);
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
    /// than an identifier (`r#"…"#`, `br"…"`, `b"…"`, `b'…'`).
    fn is_string_prefix(&self) -> bool {
        let (c1, c2) = (self.peek(1), self.peek(2));
        match self.peek(0) {
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

    /// Consume a raw/byte string or byte char starting at its `r`/`b`
    /// prefix.
    fn lex_prefixed_string(&mut self) {
        let mut raw = false;
        while let Some(c @ ('r' | 'b')) = self.peek(0) {
            raw |= c == 'r';
            self.bump();
        }
        if raw {
            let mut hashes = 0usize;
            while self.peek(0) == Some('#') {
                hashes += 1;
                self.bump();
            }
            self.bump(); // opening quote
                         // a raw string ends at the first `"` followed by `hashes` hashes
            while let Some(c) = self.bump() {
                if c == '"' && (0..hashes).all(|k| self.peek(k) == Some('#')) {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
        } else if self.peek(0) == Some('\'') {
            self.bump(); // byte char literal b'…'
            while let Some(c) = self.bump() {
                if c == '\\' {
                    self.bump();
                } else if c == '\'' {
                    break;
                }
            }
        } else {
            self.lex_string();
        }
    }

    /// Consume a normal `"…"` string starting at the opening quote.
    fn lex_string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '"' {
                break;
            }
        }
    }

    fn lex_ident(&mut self, line: usize) {
        // raw identifier prefix r# (not a raw string — checked earlier)
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        let start = self.pos;
        self.eat_while(is_word);
        let name: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Ident(name), line);
    }

    /// One numeric literal in any form — `42`, `0xff`, `1_000u64`,
    /// `1.`, `1e-6`, `2.5e3f64` — as a single token. A `.` followed by
    /// an identifier (`1.max`) or a second `.` (`0..2`) ends it.
    fn lex_number(&mut self, line: usize) {
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.eat_while(is_word); // radix literal: never fractional
        } else {
            self.eat_while(is_digit);
            if self.peek(0) == Some('.')
                && !self.peek(1).is_some_and(|c| c.is_alphabetic() || c == '_' || c == '.')
            {
                self.bump();
                self.eat_while(is_digit);
            }
            let sign = usize::from(matches!(self.peek(1), Some('+' | '-')));
            if matches!(self.peek(0), Some('e' | 'E'))
                && self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit())
            {
                for _ in 0..=sign {
                    self.bump();
                }
                self.eat_while(is_digit);
            }
            self.eat_while(is_word); // type suffix (`u64`, `f32`)
        }
        self.push(TokenKind::Num, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        tokenize(src).tokens.iter().filter_map(|t| t.ident().map(str::to_string)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = tokenize("let x = foo.unwrap();").tokens;
        assert_eq!(idents("let x = foo.unwrap();"), vec!["let", "x", "foo", "unwrap"]);
        assert!(toks.iter().any(|t| t.is_punct('.')));
        assert!(toks.iter().any(|t| t.is_punct(';')));
    }

    #[test]
    fn comments_are_skipped_but_lines_advance() {
        let toks = tokenize("// push() in a comment\n/* clone() *//* /* nested */ */\nfoo").tokens;
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_ident("foo"));
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"let s = "Vec::new() and \"push()\""; x"#;
        assert_eq!(idents(src), vec!["let", "s", "x"]);
        assert_eq!(kinds(src).iter().filter(|k| **k == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = "r#\"has \"quotes\" and push()\"# b\"bytes\" br#\"raw bytes\"# b'\\'' end";
        assert_eq!(
            kinds(src),
            [vec![TokenKind::Str; 4], vec![TokenKind::Ident("end".into())]].concat()
        );
    }

    #[test]
    fn raw_identifiers_are_idents() {
        assert_eq!(idents("r#type r#match"), vec!["type", "match"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let k = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; '\"' }");
        assert_eq!(k.iter().filter(|k| **k == TokenKind::Lifetime).count(), 2);
        assert_eq!(k.iter().filter(|k| **k == TokenKind::Char).count(), 4);
    }

    #[test]
    fn numbers_are_one_token() {
        for lit in ["1.0", "1.", "1e-6", "2.5E+3", "2.5f32", "1f64", "42", "0xff", "1_000u64"] {
            assert_eq!(kinds(lit), vec![TokenKind::Num], "{lit}");
        }
        // a method call on a literal ends the literal
        assert_eq!(
            kinds("1.max"),
            vec![TokenKind::Num, TokenKind::Punct('.'), TokenKind::Ident("max".into())]
        );
        assert_eq!(
            kinds("2.5e3f64.min"),
            vec![TokenKind::Num, TokenKind::Punct('.'), TokenKind::Ident("min".into())]
        );
        // so does a range
        let dot = TokenKind::Punct('.');
        assert_eq!(kinds("0..2"), vec![TokenKind::Num, dot.clone(), dot, TokenKind::Num]);
        // hex digits are not an exponent
        assert_eq!(kinds("0x1e-5").len(), 3);
    }

    #[test]
    fn path_separator_is_the_only_fused_operator() {
        let k = kinds("a::b == c");
        assert_eq!(k[1], TokenKind::PathSep);
        assert_eq!(&k[3..5], &[TokenKind::Punct('='), TokenKind::Punct('=')]);
    }

    #[test]
    fn line_numbers_are_accurate() {
        let lines: Vec<usize> = tokenize("a\nb\n\nc").tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn unterminated_constructs_do_not_hang() {
        assert!(tokenize("/* never closed").tokens.is_empty());
        assert_eq!(tokenize("\"never closed").tokens.len(), 1);
        assert_eq!(tokenize("r#\"never closed").tokens.len(), 1);
    }

    #[test]
    fn raw_strings_close_only_on_a_full_hash_run() {
        // `"#` inside an `r##"…"##` string is payload, not a close
        assert_eq!(idents("r##\"a\"#b\"## end"), vec!["end"]);
        // a bare quote (zero following hashes) inside a hashed raw string
        assert_eq!(idents("r#\"say \"hi\" now\"# x"), vec!["x"]);
        // the first `"#` candidate closes an `r#` string
        assert_eq!(kinds("r#\"a\"##\"#").first(), Some(&TokenKind::Str));
    }

    #[test]
    fn raw_strings_spanning_lines_keep_line_numbers() {
        let toks = tokenize("r#\"line\nline\nline\"#\nafter").tokens;
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[1].line, 4);
    }

    #[test]
    fn comments_are_captured_with_spans() {
        let out =
            tokenize("// SAFETY: top\nfn f() {} // trailing\n/* block\nspans lines */\n/// doc\nx");
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
        let out = tokenize("/* a /* nested */ b */ after /*/ tricky */ end");
        assert_eq!(idents("/* a /* nested */ b */ after /*/ tricky */ end"), vec!["after", "end"]);
        assert_eq!(out.comments.len(), 2);
        assert_eq!(out.comments[0].text, " a /* nested */ b ");
        // `/*/` opens a comment whose body starts with `/`
        assert_eq!(out.comments[1].text, "/ tricky ");
    }
}
