//! Hand-written lexer for the CloudTalk language.
//!
//! Newlines are significant (they end statements, like `;`), so the lexer
//! emits [`TokenKind::StatementEnd`] for both. Runs of blank separators are
//! collapsed by the parser.
//!
//! One pass over the source bytes, no copies: identifier tokens are slices
//! of the source, and IPv4 octets and integer literals are accumulated
//! digit by digit as they are scanned.

use cloudtalk_lang::error::{LangError, Span};
use super::token::{Token, TokenKind};
use cloudtalk_lang::units::suffix_multiplier;

/// Lexes a whole query into tokens (ending with a single [`TokenKind::Eof`]).
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LangError> {
    Lexer::new(source).run()
}

/// Integer literals of at most this many digits are below 2^53, so the
/// value accumulated while scanning converts to `f64` exactly — the same
/// value `str::parse::<f64>` returns.
const EXACT_F64_DIGITS: usize = 15;

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            // Generated queries run at 4-5 source bytes per token; denser
            // input grows the vector by doubling.
            tokens: Vec::with_capacity(src.len() / 4 + 2),
        }
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, LangError> {
        while let Some(&b) = self.bytes.get(self.pos) {
            let start = self.pos;
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' | b';' => self.single(TokenKind::StatementEnd),
                b'#' => {
                    // Comment to end of line.
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b'=' => self.single(TokenKind::Equals),
                b'+' => self.single(TokenKind::Plus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.single(TokenKind::Slash),
                b'-' => {
                    if self.bytes.get(self.pos + 1) == Some(&b'>') {
                        self.pos += 2;
                        self.emit(TokenKind::Arrow, start);
                    } else {
                        self.single(TokenKind::Minus);
                    }
                }
                // The paper's text sometimes abbreviates `->` as `>`.
                b'>' => self.single(TokenKind::Arrow),
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

    fn emit(&mut self, kind: TokenKind<'a>, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
    }

    /// Emits a one-byte token at the current position.
    fn single(&mut self, kind: TokenKind<'a>) {
        let start = self.pos;
        self.pos += 1;
        self.emit(kind, start);
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
        self.emit(TokenKind::Ident(&self.src[start..self.pos]), start);
    }

    /// Lexes a number, a size-suffixed number (`256M`), or an IPv4 address.
    fn lex_number(&mut self) -> Result<(), LangError> {
        let start = self.pos;
        let mut groups = [0u64; 4];
        (self.pos, groups[0]) = self.scan_digits(start);
        let int_digits = self.pos - start;

        // Count dotted groups to distinguish floats from IPv4 addresses.
        let mut dots = 0;
        let mut probe = self.pos;
        while self.bytes.get(probe) == Some(&b'.')
            && self.bytes.get(probe + 1).is_some_and(u8::is_ascii_digit)
        {
            dots += 1;
            let (end, value) = self.scan_digits(probe + 1);
            probe = end;
            if dots < groups.len() {
                groups[dots] = value;
            }
        }

        if dots == 3 {
            self.pos = probe;
            let invalid = |detail: std::fmt::Arguments<'_>| {
                let text = &self.src[start..probe];
                LangError::new(
                    format!("invalid IPv4 address `{text}`{detail}"),
                    Span::new(start, probe),
                )
            };
            let mut addr: u32 = 0;
            for octet in groups {
                if octet > u64::from(u32::MAX) {
                    return Err(invalid(format_args!("")));
                }
                if octet > 255 {
                    return Err(invalid(format_args!(": octet {octet} > 255")));
                }
                addr = (addr << 8) | octet as u32;
            }
            self.emit(TokenKind::Ipv4(addr), start);
            return Ok(());
        }

        if dots >= 1 {
            // Float: consume exactly one fractional group.
            (self.pos, _) = self.scan_digits(self.pos + 1);
            if dots > 1 {
                // Two dotted groups (e.g. `1.2.3`) is neither float nor IPv4.
                return Err(LangError::new(
                    "malformed number (expected float or dotted-quad IPv4)",
                    Span::new(start, probe),
                ));
            }
        }

        let mut value: f64 = if dots == 0 && int_digits <= EXACT_F64_DIGITS {
            groups[0] as f64
        } else {
            self.src[start..self.pos]
                .parse()
                .map_err(|_| LangError::new("malformed number", Span::new(start, self.pos)))?
        };

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

    /// Scans the run of ASCII digits starting at `from`: the position one
    /// past it and its decimal value, saturating (a saturated value is too
    /// large for an octet and has too many digits for the exact-integer
    /// path, so it is never used as a number).
    fn scan_digits(&self, from: usize) -> (usize, u64) {
        let mut pos = from;
        let mut value: u64 = 0;
        while let Some(d) = self.bytes.get(pos).filter(|b| b.is_ascii_digit()) {
            value = value.saturating_mul(10).saturating_add(u64::from(d - b'0'));
            pos += 1;
        }
        (pos, value)
    }
}

