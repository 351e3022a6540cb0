//! The lexer as it was before tokens borrowed from the source: one owned
//! `String` per identifier, IPv4 octets through `split('.')` + `parse`,
//! every number through `str::parse::<f64>`. Kept as the oracle the
//! zero-copy lexer is compared against, token for token and error for
//! error.

use cloudtalk_lang::error::{LangError, Span};
use cloudtalk_lang::units::suffix_multiplier;

/// A token that owns its text.
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// Mirrors `cloudtalk_lang::token::TokenKind`, identifiers owned.
#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    Ident(String),
    Number(f64),
    Ipv4(u32),
    Arrow,
    Equals,
    LParen,
    RParen,
    StatementEnd,
    Plus,
    Minus,
    Star,
    Slash,
    Eof,
}

impl From<cloudtalk_lang::token::TokenKind<'_>> for TokenKind {
    fn from(kind: cloudtalk_lang::token::TokenKind<'_>) -> Self {
        use cloudtalk_lang::token::TokenKind as New;
        match kind {
            New::Ident(text) => TokenKind::Ident(text.to_string()),
            New::Number(v) => TokenKind::Number(v),
            New::Ipv4(a) => TokenKind::Ipv4(a),
            New::Arrow => TokenKind::Arrow,
            New::Equals => TokenKind::Equals,
            New::LParen => TokenKind::LParen,
            New::RParen => TokenKind::RParen,
            New::StatementEnd => TokenKind::StatementEnd,
            New::Plus => TokenKind::Plus,
            New::Minus => TokenKind::Minus,
            New::Star => TokenKind::Star,
            New::Slash => TokenKind::Slash,
            New::Eof => TokenKind::Eof,
        }
    }
}

/// Lexes a whole query into tokens (ending with a single [`TokenKind::Eof`]).
pub fn lex(source: &str) -> Result<Vec<Token>, LangError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, LangError> {
        while let Some(&b) = self.bytes.get(self.pos) {
            let start = self.pos;
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.emit(TokenKind::StatementEnd, start);
                }
                b';' => {
                    self.pos += 1;
                    self.emit(TokenKind::StatementEnd, start);
                }
                b'#' => {
                    // Comment to end of line.
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' => {
                    self.pos += 1;
                    self.emit(TokenKind::LParen, start);
                }
                b')' => {
                    self.pos += 1;
                    self.emit(TokenKind::RParen, start);
                }
                b'=' => {
                    self.pos += 1;
                    self.emit(TokenKind::Equals, start);
                }
                b'+' => {
                    self.pos += 1;
                    self.emit(TokenKind::Plus, start);
                }
                b'*' => {
                    self.pos += 1;
                    self.emit(TokenKind::Star, start);
                }
                b'/' => {
                    self.pos += 1;
                    self.emit(TokenKind::Slash, start);
                }
                b'-' => {
                    if self.bytes.get(self.pos + 1) == Some(&b'>') {
                        self.pos += 2;
                        self.emit(TokenKind::Arrow, start);
                    } else {
                        self.pos += 1;
                        self.emit(TokenKind::Minus, start);
                    }
                }
                b'>' => {
                    // The paper's text sometimes abbreviates `->` as `>`.
                    self.pos += 1;
                    self.emit(TokenKind::Arrow, start);
                }
                b'0'..=b'9' => self.lex_number()?,
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.lex_ident(),
                _ => {
                    let c = self.src[self.pos..].chars().next().unwrap_or('?');
                    return Err(LangError::new(
                        format!("unexpected character `{c}`"),
                        Span::new(start, start + c.len_utf8()),
                    ));
                }
            }
        }
        let end = self.src.len();
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(end, end),
        });
        Ok(self.tokens)
    }

    fn emit(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
    }

    fn lex_ident(&mut self) {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        let text = self.src[start..self.pos].to_string();
        self.emit(TokenKind::Ident(text), start);
    }

    /// Lexes a number, a size-suffixed number (`256M`), or an IPv4 address.
    fn lex_number(&mut self) -> Result<(), LangError> {
        let start = self.pos;
        self.eat_digits();

        // Count dotted groups to distinguish floats from IPv4 addresses.
        let mut dots = 0;
        let mut probe = self.pos;
        while self.bytes.get(probe) == Some(&b'.')
            && self.bytes.get(probe + 1).is_some_and(u8::is_ascii_digit)
        {
            dots += 1;
            probe += 1;
            while self.bytes.get(probe).is_some_and(u8::is_ascii_digit) {
                probe += 1;
            }
        }

        if dots == 3 {
            self.pos = probe;
            let text = &self.src[start..self.pos];
            let mut addr: u32 = 0;
            for part in text.split('.') {
                let octet: u32 = part.parse().map_err(|_| {
                    LangError::new(
                        format!("invalid IPv4 address `{text}`"),
                        Span::new(start, self.pos),
                    )
                })?;
                if octet > 255 {
                    return Err(LangError::new(
                        format!("invalid IPv4 address `{text}`: octet {octet} > 255"),
                        Span::new(start, self.pos),
                    ));
                }
                addr = (addr << 8) | octet;
            }
            self.emit(TokenKind::Ipv4(addr), start);
            return Ok(());
        }

        if dots >= 1 {
            // Float: consume exactly one fractional group.
            self.pos += 1;
            self.eat_digits();
            if dots > 1 {
                // Two dotted groups (e.g. `1.2.3`) is neither float nor IPv4.
                return Err(LangError::new(
                    "malformed number (expected float or dotted-quad IPv4)",
                    Span::new(start, probe),
                ));
            }
        }

        let mut value: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| LangError::new("malformed number", Span::new(start, self.pos)))?;

        if let Some(&b) = self.bytes.get(self.pos) {
            if let Some(mult) = suffix_multiplier(b as char) {
                // Only treat it as a suffix if not followed by more ident chars
                // (so `100Mbps`-style identifiers are rejected loudly).
                let next = self.bytes.get(self.pos + 1);
                if next.is_some_and(|n| n.is_ascii_alphanumeric() || *n == b'_') {
                    return Err(LangError::new(
                        "unexpected trailing characters after size suffix",
                        Span::new(start, self.pos + 2),
                    ));
                }
                value *= mult;
                self.pos += 1;
            } else if (b as char).is_ascii_alphabetic() {
                return Err(LangError::new(
                    format!("unknown size suffix `{}`", b as char),
                    Span::new(self.pos, self.pos + 1),
                ));
            }
        }

        self.emit(TokenKind::Number(value), start);
        Ok(())
    }

    fn eat_digits(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
    }
}
