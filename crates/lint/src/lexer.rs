//! A small hand-rolled Rust lexer.
//!
//! `srlb-lint` runs in a container with no registry access, so it cannot
//! lean on `syn` or `proc-macro2`; this module tokenizes Rust source well
//! enough for token-pattern linting.  The cases that matter for
//! correctness — and that a naive regex scan gets wrong — are handled
//! explicitly:
//!
//! * line comments and **nested** block comments (`/* /* */ */`),
//! * string literals with escapes, raw strings `r"…"` / `r#"…"#` with any
//!   number of hashes, byte strings `b"…"` / `br#"…"#`,
//! * char literals (`'a'`, `'\n'`, `'\u{1F600}'`, `b'x'`) versus
//!   lifetimes (`'a`, `'static`),
//! * raw identifiers (`r#type`), which must not be confused with raw
//!   strings.
//!
//! Comments are emitted as tokens (the allow-directive scanner needs
//! them); rule matching filters them out.

/// The coarse classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including the name of a raw identifier).
    Ident,
    /// A numeric literal.
    Number,
    /// A string or byte-string literal (raw or not), quotes included.
    Str,
    /// A character or byte-character literal.
    Char,
    /// A lifetime such as `'a` (leading quote included in the text).
    Lifetime,
    /// A single punctuation character.
    Punct,
    /// A `//` line comment, text included, newline excluded.
    LineComment,
    /// A `/* … */` block comment, delimiters included.
    BlockComment,
}

/// One lexed token with its position in the source file.
#[derive(Debug, Clone)]
// srlb-lint: allow(unused-pub) -- reached through srlb_lint::lexer::lex
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The raw source text of the token.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based source column of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for `Ident` tokens whose text equals `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True for `Punct` tokens whose single character equals `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True for comment tokens of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes `source`, returning every token including comments.
///
/// The lexer is intentionally forgiving: malformed input (an unterminated
/// string, a stray quote) never panics, it simply produces best-effort
/// tokens to the end of the file.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one character, tracking line/column.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string(String::new(), line, col),
                '\'' => self.quote(line, col),
                'r' | 'b' if self.raw_or_byte_literal(line, col) => {}
                c if is_ident_start(c) => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                _ => {
                    let c = self.bump().unwrap_or(' ');
                    self.push(TokenKind::Punct, c.to_string(), line, col);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::LineComment, text, line, col);
    }

    fn block_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, text, line, col);
    }

    /// A plain (escaped) string literal; `prefix` carries any `b` already
    /// consumed.  The opening quote has not been consumed yet.
    fn string(&mut self, prefix: String, line: u32, col: u32) {
        let mut text = prefix;
        text.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                text.push(c);
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// Handles `r`/`b` heads that may start a raw string (`r"…"`,
    /// `r#"…"#`), a byte string (`b"…"`, `br#"…"#`), a byte char (`b'x'`)
    /// or a raw identifier (`r#type`).  Returns `false` when the head is
    /// just the start of an ordinary identifier, consuming nothing.
    fn raw_or_byte_literal(&mut self, line: u32, col: u32) -> bool {
        let c0 = self.peek(0).unwrap_or(' ');
        // Determine the literal head: r, b, br or rb (rb is not valid Rust
        // but harmless to accept).
        let mut head_len = 1;
        let mut raw = c0 == 'r';
        let mut byte = c0 == 'b';
        if let Some(c1) = self.peek(1) {
            if (c0 == 'b' && c1 == 'r') || (c0 == 'r' && c1 == 'b') {
                head_len = 2;
                raw = true;
                byte = true;
            }
        }
        let _ = byte;
        // Count hashes after the head.
        let mut hashes = 0usize;
        while self.peek(head_len + hashes) == Some('#') {
            hashes += 1;
        }
        let after = self.peek(head_len + hashes);
        if raw && after == Some('"') {
            // Raw (byte) string: consume until `"` followed by `hashes`
            // hashes.
            let mut text = String::new();
            for _ in 0..head_len + hashes + 1 {
                if let Some(c) = self.bump() {
                    text.push(c);
                }
            }
            while let Some(c) = self.peek(0) {
                if c == '"' {
                    let mut matched = true;
                    for k in 0..hashes {
                        if self.peek(1 + k) != Some('#') {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        for _ in 0..hashes + 1 {
                            if let Some(c) = self.bump() {
                                text.push(c);
                            }
                        }
                        break;
                    }
                }
                text.push(c);
                self.bump();
            }
            self.push(TokenKind::Str, text, line, col);
            return true;
        }
        if c0 == 'r' && hashes == 1 && after.is_some_and(is_ident_start) {
            // Raw identifier `r#ident`: emit the bare name as an Ident.
            self.bump(); // r
            self.bump(); // #
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Ident, text, line, col);
            return true;
        }
        if c0 == 'b' && hashes == 0 {
            if after == Some('"') {
                // b"…": escaped byte string.
                self.bump(); // b
                self.string("b".to_string(), line, col);
                return true;
            }
            if after == Some('\'') {
                // b'x' byte char.
                self.bump(); // b
                self.char_literal("b".to_string(), line, col);
                return true;
            }
        }
        false
    }

    /// A single quote: either a char literal or a lifetime.
    ///
    /// Disambiguation: `'\…` is always a char literal; `'c'` (quote two
    /// characters later) is a char literal; otherwise `'ident` is a
    /// lifetime.
    fn quote(&mut self, line: u32, col: u32) {
        let next = self.peek(1);
        if next == Some('\\') || (next.is_some() && self.peek(2) == Some('\'')) {
            self.char_literal(String::new(), line, col);
            return;
        }
        if next.is_some_and(is_ident_start) {
            // Lifetime: 'ident with no closing quote.
            let mut text = String::new();
            text.push(self.bump().unwrap_or('\'')); // '
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line, col);
            return;
        }
        // Not a valid char or lifetime start (e.g. `''`): emit the quote as
        // punctuation and move on.
        self.bump();
        self.push(TokenKind::Punct, "'".to_string(), line, col);
    }

    /// A char literal; the opening quote has not been consumed yet and
    /// `prefix` carries any `b` already consumed.
    fn char_literal(&mut self, prefix: String, line: u32, col: u32) {
        let mut text = prefix;
        text.push(self.bump().unwrap_or('\'')); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                text.push(c);
                self.bump();
                break;
            } else if c == '\n' {
                break; // malformed; don't swallow the rest of the file
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Char, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    /// A numeric literal.  Good enough for linting: digits (any radix,
    /// suffixes, underscores), an optional fraction when a digit follows
    /// the dot (so `0..5` is not swallowed) and `e`/`E` exponents with an
    /// optional sign (`1e-6`).
    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let consume_digits = |lx: &mut Self, text: &mut String| {
            while let Some(c) = lx.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    if (c == 'e' || c == 'E')
                        && matches!(lx.peek(1), Some('+') | Some('-'))
                        && lx.peek(2).is_some_and(|d| d.is_ascii_digit())
                    {
                        text.push(c);
                        lx.bump();
                        if let Some(sign) = lx.bump() {
                            text.push(sign);
                        }
                        continue;
                    }
                    text.push(c);
                    lx.bump();
                } else {
                    break;
                }
            }
        };
        consume_digits(self, &mut text);
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            text.push('.');
            self.bump();
            consume_digits(self, &mut text);
        }
        self.push(TokenKind::Number, text, line, col);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}
