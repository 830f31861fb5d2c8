//! A minimal, dependency-free Rust lexer.
//!
//! `mps-lint` needs token streams with accurate line/column spans, plus
//! the comment text (waivers live in comments) — not a full parse tree.
//! This lexer handles everything that would otherwise confuse a textual
//! scan: string literals (including raw strings with arbitrary `#`
//! guards and byte strings), character literals vs. lifetimes, nested
//! block comments, and numeric literals. It is intentionally std-only so
//! the lint pass builds in offline environments where `syn` cannot be
//! vendored.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`Instant`, `unwrap`, `mod`, …).
    Ident,
    /// A string literal; `text` holds the *decoded* contents.
    Str,
    /// A character or byte literal (contents not decoded).
    Char,
    /// A lifetime (`'a`, `'static`); `text` holds the name without `'`.
    Lifetime,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single punctuation character (`.`, `:`, `!`, `(`, …).
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// Token text (decoded contents for strings, name for lifetimes).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
    /// Length of the raw source text, in characters (for caret spans).
    pub len: u32,
}

/// A line (`//`) or block (`/* */`) comment with its position.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The output of lexing one file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments (line and block, including doc comments).
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Self {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Unterminated constructs are
/// tolerated (consumed to end of file) — the lint pass should degrade,
/// not crash, on malformed input.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek_at(1) == Some('/') => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.comments.push(Comment {
                    text: text
                        .trim_start_matches('/')
                        .trim_start_matches('!')
                        .trim()
                        .to_owned(),
                    line,
                });
            }
            '/' if cur.peek_at(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                let mut text = String::new();
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    text: text.trim().to_owned(),
                    line,
                });
            }
            '"' => {
                let (text, len) = lex_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                    col,
                    len,
                });
            }
            'r' | 'b' if starts_prefixed_literal(&cur) => {
                let token = lex_prefixed_literal(&mut cur, line, col);
                out.tokens.push(token);
            }
            '\'' => {
                let token = lex_quote(&mut cur, line, col);
                out.tokens.push(token);
            }
            c if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                let len = text.chars().count() as u32;
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text,
                    line,
                    col,
                    len,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    // Good enough for spans: consume digits, radix
                    // letters, `_`, `.` followed by a digit, and
                    // exponent signs.
                    let take = is_ident_continue(c)
                        || (c == '.' && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()))
                        || ((c == '+' || c == '-')
                            && matches!(text.chars().last(), Some('e' | 'E'))
                            && !text.to_ascii_lowercase().starts_with("0x"));
                    if !take {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                let len = text.chars().count() as u32;
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    text,
                    line,
                    col,
                    len,
                });
            }
            c => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                    col,
                    len: 1,
                });
            }
        }
    }
    out
}

/// Does the cursor sit on a raw/byte string or byte char literal
/// (`r"`, `r#…#"`, `b"`, `b'`, `br"`, `br#…#"`)? Raw *identifiers*
/// (`r#fn`) must not match — hence the hashes-then-quote lookahead.
fn starts_prefixed_literal(cur: &Cursor) -> bool {
    let hashes_then_quote = |mut ahead: usize| {
        while cur.peek_at(ahead) == Some('#') {
            ahead += 1;
        }
        cur.peek_at(ahead) == Some('"')
    };
    match (cur.peek(), cur.peek_at(1), cur.peek_at(2)) {
        (Some('r'), Some('"'), _) => true,
        (Some('r'), Some('#'), _) => hashes_then_quote(1),
        (Some('b'), Some('"' | '\''), _) => true,
        (Some('b'), Some('r'), Some('"')) => true,
        (Some('b'), Some('r'), Some('#')) => hashes_then_quote(2),
        _ => false,
    }
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` after the check
/// in [`starts_prefixed_literal`].
fn lex_prefixed_literal(cur: &mut Cursor, line: u32, col: u32) -> Token {
    let mut raw = false;
    let mut consumed = 0u32;
    if cur.peek() == Some('b') {
        cur.bump();
        consumed += 1;
    }
    if cur.peek() == Some('r') {
        raw = true;
        cur.bump();
        consumed += 1;
    }
    if cur.peek() == Some('\'') {
        // Byte char literal `b'x'`.
        let token = lex_quote(cur, line, col);
        return Token {
            len: token.len + consumed,
            col,
            ..token
        };
    }
    if raw {
        let mut guards = 0usize;
        while cur.peek() == Some('#') {
            guards += 1;
            consumed += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        consumed += 1;
        let mut text = String::new();
        'scan: while let Some(c) = cur.peek() {
            if c == '"' {
                // A close candidate: `"` followed by `guards` hashes.
                for g in 0..guards {
                    if cur.peek_at(1 + g) != Some('#') {
                        text.push('"');
                        cur.bump();
                        consumed += 1;
                        continue 'scan;
                    }
                }
                cur.bump();
                consumed += 1;
                for _ in 0..guards {
                    cur.bump();
                    consumed += 1;
                }
                break;
            }
            text.push(c);
            consumed += 1;
            cur.bump();
        }
        let len = consumed + text.chars().count() as u32;
        Token {
            kind: TokenKind::Str,
            text,
            line,
            col,
            len,
        }
    } else {
        let (text, len) = lex_string(cur);
        Token {
            kind: TokenKind::Str,
            text,
            line,
            col,
            len: len + consumed,
        }
    }
}

/// Lexes a `"…"` string starting at the opening quote; returns the
/// decoded contents and raw character length including quotes.
fn lex_string(cur: &mut Cursor) -> (String, u32) {
    let mut text = String::new();
    let mut len = 1u32;
    cur.bump(); // opening quote
    while let Some(c) = cur.peek() {
        len += 1;
        if c == '"' {
            cur.bump();
            break;
        }
        if c == '\\' {
            cur.bump();
            if let Some(esc) = cur.bump() {
                len += 1;
                match esc {
                    'n' => text.push('\n'),
                    't' => text.push('\t'),
                    'r' => text.push('\r'),
                    '0' => text.push('\0'),
                    '\n' => { /* line continuation */ }
                    other => text.push(other),
                }
            }
            continue;
        }
        text.push(c);
        cur.bump();
    }
    (text, len)
}

/// Lexes either a lifetime (`'a`) or a character literal (`'x'`,
/// `'\n'`) starting at the `'`.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Token {
    cur.bump(); // the quote
                // `'\…'` is always a char literal.
    if cur.peek() == Some('\\') {
        let mut len = 2u32;
        cur.bump();
        while let Some(c) = cur.bump() {
            len += 1;
            if c == '\'' {
                break;
            }
        }
        return Token {
            kind: TokenKind::Char,
            text: String::new(),
            line,
            col,
            len,
        };
    }
    // `'c'` (one char then a closing quote) is a char literal; anything
    // else identifier-shaped is a lifetime.
    if cur.peek_at(1) == Some('\'') && cur.peek().is_some() {
        let c = cur.bump().unwrap_or_default();
        cur.bump();
        return Token {
            kind: TokenKind::Char,
            text: c.to_string(),
            line,
            col,
            len: 3,
        };
    }
    let mut name = String::new();
    while let Some(c) = cur.peek() {
        if !is_ident_continue(c) {
            break;
        }
        name.push(c);
        cur.bump();
    }
    let len = 1 + name.chars().count() as u32;
    Token {
        kind: TokenKind::Lifetime,
        text: name,
        line,
        col,
        len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("let x = foo.bar(42);");
        assert_eq!(toks[0], (TokenKind::Ident, "let".into()));
        assert_eq!(toks[3], (TokenKind::Ident, "foo".into()));
        assert_eq!(toks[4], (TokenKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokenKind::Ident, "bar".into()));
        assert_eq!(toks[7], (TokenKind::Num, "42".into()));
    }

    #[test]
    fn strings_decode_escapes() {
        let toks = kinds(r#"let s = "a\"b\nc";"#);
        assert!(toks.contains(&(TokenKind::Str, "a\"b\nc".into())));
    }

    #[test]
    fn raw_strings_with_guards() {
        let toks = kinds(r###"let s = r#"quote " inside"#;"###);
        assert!(toks.contains(&(TokenKind::Str, "quote \" inside".into())));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r###"(b"bytes", br#"raw"#)"###);
        assert!(toks.contains(&(TokenKind::Str, "bytes".into())));
        assert!(toks.contains(&(TokenKind::Str, "raw".into())));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks.contains(&(TokenKind::Lifetime, "a".into())));
        assert!(toks.contains(&(TokenKind::Char, "x".into())));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "x"));
    }

    #[test]
    fn static_lifetime() {
        let toks = kinds("x: &'static str");
        assert!(toks.contains(&(TokenKind::Lifetime, "static".into())));
    }

    #[test]
    fn line_comments_are_captured_not_tokenized() {
        let lexed = lex("let a = 1; // mps-lint: allow(L005) -- because\nlet b = 2;");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("mps-lint: allow(L005)"));
        assert!(!lexed.tokens.iter().any(|t| t.text.contains("mps-lint")));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("a /* outer /* inner */ tail */ b");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.tokens.len(), 2);
        assert_eq!(lexed.tokens[1].text, "b");
    }

    #[test]
    fn spans_are_one_based_lines_and_cols() {
        let lexed = lex("foo\n  bar");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn string_in_string_does_not_hide_code() {
        // `"Instant::now"` inside a string must stay a Str token, not
        // idents — lints must not fire on it.
        let toks = kinds(r#"let s = "Instant::now()";"#);
        assert!(toks.contains(&(TokenKind::Str, "Instant::now()".into())));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "Instant"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let lexed = lex("/// says `panic!` in prose\nfn f() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert!(!lexed.tokens.iter().any(|t| t.text == "panic"));
    }
}
