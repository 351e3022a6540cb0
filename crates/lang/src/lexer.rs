//! Hand-written lexer for the CloudTalk language.
//!
//! Newlines are significant (they end statements, like `;`), so the lexer
//! emits [`TokenKind::StatementEnd`] for both. Runs of blank separators are
//! collapsed by the parser.
//!
//! The lexer is a `Scanner`: a position in the source, and questions
//! about the token there ("an identifier?", "`(`?") answered from its first
//! bytes. `Scanner::peek` lexes one token in full, for error messages and
//! for [`lex`]. Identifiers are slices of the source; octets and integer
//! literals are accumulated digit by digit as they are scanned.

use crate::ast::BinOp;
use crate::error::{LangError, Span};
use crate::token::{Token, TokenKind};
use crate::units::suffix_multiplier;

/// Lexes a whole query into tokens (ending with a single [`TokenKind::Eof`]).
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LangError> {
    let mut scanner = Scanner::new(source);
    // Generated queries run at 4-5 source bytes per token; denser input
    // grows the vector by doubling.
    let mut tokens = Vec::with_capacity(source.len() / 4 + 2);
    loop {
        let tok = scanner.peek()?;
        tokens.push(tok);
        if tok.kind == TokenKind::Eof {
            return Ok(tokens);
        }
        scanner.step_over(tok.span);
    }
}

/// Integer literals of at most this many digits are below 2^53, so the
/// value accumulated while scanning converts to `f64` exactly — the same
/// value `str::parse::<f64>` returns.
const EXACT_F64_DIGITS: usize = 15;

fn is_ident(b: Option<&u8>) -> bool {
    b.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

/// A position in the source, always at a token boundary: everything before
/// it lexed without error.
pub(crate) struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Scanner { src, pos: 0 }
    }

    /// Steps over blanks and comments, and returns the byte the next token
    /// starts with (`None` at the end of the text).
    #[inline(always)]
    pub(crate) fn next_byte(&mut self) -> Option<u8> {
        // Tokens are mostly one space apart.
        let bytes = self.src.as_bytes();
        let mut b = *bytes.get(self.pos)?;
        if b == b' ' {
            self.pos += 1;
            b = *bytes.get(self.pos)?;
        }
        if matches!(b, b' ' | b'\t' | b'\r' | b'#') {
            return self.skip_trivia();
        }
        Some(b)
    }

    #[inline(never)]
    fn skip_trivia(&mut self) -> Option<u8> {
        loop {
            match *self.src.as_bytes().get(self.pos)? {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                // A comment runs to the end of its line.
                b'#' => {
                    self.pos += self.src[self.pos..]
                        .find('\n')
                        .unwrap_or(self.src.len() - self.pos)
                }
                b => return Some(b),
            }
        }
    }

    /// Steps over `len` bytes of token, returning their span.
    fn take(&mut self, len: usize) -> Span {
        self.pos += len;
        Span::new(self.pos - len, self.pos)
    }

    /// Steps over the next token if it is the one-byte token `b`: `(`, `)`,
    /// `=`, `;` or a newline.
    #[inline]
    pub(crate) fn eat(&mut self, b: u8) -> Option<Span> {
        (self.next_byte()? == b).then(|| self.take(1))
    }

    /// Steps over the next token if it is `->` (or its short form `>`).
    pub(crate) fn eat_arrow(&mut self) -> Option<Span> {
        match (self.next_byte()?, self.src.as_bytes().get(self.pos + 1)) {
            (b'>', _) => Some(self.take(1)),
            (b'-', Some(b'>')) => Some(self.take(2)),
            _ => None,
        }
    }

    /// Steps over the next token if it is a binary operator (a `-` that
    /// starts `->` is not).
    pub(crate) fn operator(&mut self) -> Option<(BinOp, Span)> {
        let op = match (self.next_byte()?, self.src.as_bytes().get(self.pos + 1)) {
            (b'+', _) => BinOp::Add,
            (b'-', next) if next != Some(&b'>') => BinOp::Sub,
            (b'*', _) => BinOp::Mul,
            (b'/', _) => BinOp::Div,
            _ => return None,
        };
        Some((op, self.take(1)))
    }

    /// The next token if it is an identifier, not stepped over, and the
    /// text after it with blanks skipped: enough to tell whether the token
    /// after it is `=` or `->`, which is as far ahead as the parser looks.
    #[inline(always)]
    pub(crate) fn peek_ident(&mut self) -> Option<(&'a str, Span, &'a [u8])> {
        let b = self.next_byte()?;
        if !(b.is_ascii_alphabetic() || b == b'_') {
            return None;
        }
        let bytes = self.src.as_bytes();
        let mut end = self.pos + 1;
        while is_ident(bytes.get(end)) {
            end += 1;
        }
        let blanks = bytes[end..]
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\r'));
        let after = &bytes[end + blanks.count()..];
        Some((&self.src[self.pos..end], Span::new(self.pos, end), after))
    }

    /// The next token if it is a number or an address, not stepped over.
    #[inline(always)]
    pub(crate) fn peek_numeric(&mut self) -> Result<Option<Token<'a>>, LangError> {
        if !self.next_byte().is_some_and(|b| b.is_ascii_digit()) {
            return Ok(None);
        }
        let (kind, end) = match dotted_quad(self.src.as_bytes(), self.pos) {
            Some((addr, end)) => (TokenKind::Ipv4(addr), end),
            None => lex_number(self.src, self.pos)?,
        };
        let span = Span::new(self.pos, end);
        Ok(Some(Token { kind, span }))
    }

    /// Steps over a token a `peek` returned.
    pub(crate) fn step_over(&mut self, span: Span) {
        self.pos = span.end;
    }

    /// Lexes the next token in full without stepping over it.
    pub(crate) fn peek(&mut self) -> Result<Token<'a>, LangError> {
        let b = self.next_byte();
        if let Some(tok) = self.peek_numeric()? {
            return Ok(tok);
        }
        if let Some((text, span, _)) = self.peek_ident() {
            let kind = TokenKind::Ident(text);
            return Ok(Token { kind, span });
        }
        let (kind, len) = match (b, self.src.as_bytes().get(self.pos + 1)) {
            (None, _) => (TokenKind::Eof, 0),
            (Some(b'-'), Some(b'>')) => (TokenKind::Arrow, 2),
            // The paper's text sometimes abbreviates `->` as `>`.
            (Some(b'>'), _) => (TokenKind::Arrow, 1),
            (Some(b'-'), _) => (TokenKind::Minus, 1),
            (Some(b'\n' | b';'), _) => (TokenKind::StatementEnd, 1),
            (Some(b'('), _) => (TokenKind::LParen, 1),
            (Some(b')'), _) => (TokenKind::RParen, 1),
            (Some(b'='), _) => (TokenKind::Equals, 1),
            (Some(b'+'), _) => (TokenKind::Plus, 1),
            (Some(b'*'), _) => (TokenKind::Star, 1),
            (Some(b'/'), _) => (TokenKind::Slash, 1),
            _ => {
                let c = self.src[self.pos..].chars().next().unwrap_or('?');
                return Err(LangError::new(
                    format!("unexpected character `{c}`"),
                    Span::new(self.pos, self.pos + c.len_utf8()),
                ));
            }
        };
        let span = Span::new(self.pos, self.pos + len);
        Ok(Token { kind, span })
    }

    /// Lexes the rest of the text, and returns its first error.
    pub(crate) fn first_error(&mut self) -> Option<LangError> {
        loop {
            match self.peek() {
                Ok(tok) if tok.kind != TokenKind::Eof => self.step_over(tok.span),
                end => return end.err(),
            }
        }
    }

    /// How many `counted` bytes stand between here and the next `stop`:
    /// for well-formed text, what a list about to be parsed will hold, so
    /// its vector is sized once.
    pub(crate) fn count_before(&self, counted: u8, stop: char) -> usize {
        let rest = &self.src[self.pos..];
        let end = rest.find(stop).unwrap_or(rest.len());
        count_bytes(&rest.as_bytes()[..end], counted)
    }
}

/// How many `counted` bytes `bytes` holds: tallied a block at a time in a
/// byte-wide counter, which compiles to vector compares.
pub(crate) fn count_bytes(bytes: &[u8], counted: u8) -> usize {
    let tally = |block: &[u8]| block.iter().fold(0u8, |n, &b| n + u8::from(b == counted));
    bytes.chunks(255).map(tally).map(usize::from).sum()
}

/// The address at `start` if it is the common form: four octets of one to
/// three digits, each at most 255, with no digit or `.` after the last.
/// Any other number is left to [`lex_number`], which reads this form the
/// same way.
#[inline(always)]
fn dotted_quad(bytes: &[u8], start: usize) -> Option<(u32, usize)> {
    let (mut pos, mut addr) = (start, 0u32);
    for group in 0..4 {
        if group > 0 {
            (bytes.get(pos) == Some(&b'.')).then_some(())?;
            pos += 1;
        }
        let (first, mut octet) = (pos, 0u32);
        while pos - first < 3 && bytes.get(pos).is_some_and(u8::is_ascii_digit) {
            octet = octet * 10 + u32::from(bytes[pos] - b'0');
            pos += 1;
        }
        if pos == first || octet > 255 {
            return None;
        }
        addr = (addr << 8) | octet;
    }
    (!matches!(bytes.get(pos), Some(b'.' | b'0'..=b'9'))).then_some((addr, pos))
}

/// Lexes the number, size-suffixed number (`256M`) or IPv4 address that
/// starts at `start`: its token, and the position one past it.
fn lex_number(src: &str, start: usize) -> Result<(TokenKind<'_>, usize), LangError> {
    let bytes = src.as_bytes();
    let mut groups = [0u64; 4];
    let (mut pos, first) = scan_digits(bytes, start);
    groups[0] = first;
    let int_digits = pos - start;

    // Count dotted groups to distinguish floats from IPv4 addresses.
    let mut dots = 0;
    let mut probe = pos;
    while bytes.get(probe) == Some(&b'.') && bytes.get(probe + 1).is_some_and(u8::is_ascii_digit) {
        dots += 1;
        let (end, value) = scan_digits(bytes, probe + 1);
        probe = end;
        if dots < groups.len() {
            groups[dots] = value;
        }
    }

    if dots == 3 {
        let invalid = |detail: std::fmt::Arguments<'_>| {
            let text = &src[start..probe];
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
        return Ok((TokenKind::Ipv4(addr), probe));
    }

    if dots >= 1 {
        // Float: consume exactly one fractional group.
        (pos, _) = scan_digits(bytes, pos + 1);
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
        src[start..pos]
            .parse()
            .map_err(|_| LangError::new("malformed number", Span::new(start, pos)))?
    };

    if let Some(&b) = bytes.get(pos) {
        if let Some(mult) = suffix_multiplier(b as char) {
            // Only treat it as a suffix if not followed by more ident chars
            // (so `100Mbps`-style identifiers are rejected loudly).
            if is_ident(bytes.get(pos + 1)) {
                return Err(LangError::new(
                    "unexpected trailing characters after size suffix",
                    Span::new(start, pos + 2),
                ));
            }
            value *= mult;
            pos += 1;
        } else if b.is_ascii_alphabetic() {
            return Err(LangError::new(
                format!("unknown size suffix `{}`", b as char),
                Span::new(pos, pos + 1),
            ));
        }
    }
    Ok((TokenKind::Number(value), pos))
}

/// Scans the run of ASCII digits starting at `from`: the position one past
/// it and its decimal value, saturating (a saturated value is too large for
/// an octet and has too many digits for the exact-integer path, so it is
/// never used as a number).
fn scan_digits(bytes: &[u8], from: usize) -> (usize, u64) {
    // Past this, one more digit could overflow.
    const LIMIT: u64 = (u64::MAX - 9) / 10;
    let mut pos = from;
    let mut value: u64 = 0;
    while let Some(d) = bytes.get(pos).filter(|b| b.is_ascii_digit()) {
        value = if value <= LIMIT {
            value * 10 + u64::from(d - b'0')
        } else {
            u64::MAX
        };
        pos += 1;
    }
    (pos, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_variable_declaration() {
        let toks = kinds("A = (vm2 vm3)");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("A"),
                TokenKind::Equals,
                TokenKind::LParen,
                TokenKind::Ident("vm2"),
                TokenKind::Ident("vm3"),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_flow_with_size_suffix() {
        let toks = kinds("f1 A -> vm1 size 256M");
        assert!(toks.contains(&TokenKind::Arrow));
        assert!(toks.contains(&TokenKind::Number(256.0 * 1024.0 * 1024.0)));
    }

    #[test]
    fn lexes_ipv4_and_floats() {
        assert_eq!(
            kinds("10.0.0.1"),
            vec![TokenKind::Ipv4(0x0A000001), TokenKind::Eof]
        );
        assert_eq!(
            kinds("0.0.0.0"),
            vec![TokenKind::Ipv4(0), TokenKind::Eof]
        );
        assert_eq!(kinds("2.5"), vec![TokenKind::Number(2.5), TokenKind::Eof]);
    }

    #[test]
    fn rejects_bad_ipv4_octet() {
        let err = lex("10.0.0.999").unwrap_err();
        assert!(err.message.contains("999"));
    }

    #[test]
    fn semicolons_and_newlines_end_statements() {
        let toks = kinds("a;b\nc");
        let ends = toks
            .iter()
            .filter(|k| **k == TokenKind::StatementEnd)
            .count();
        assert_eq!(ends, 2);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("a # this is a comment\nb");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("a"),
                TokenKind::StatementEnd,
                TokenKind::Ident("b"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn arrow_and_operators() {
        let toks = kinds("r(f1) * 2 - 1 / 4 + 3");
        assert!(toks.contains(&TokenKind::Star));
        assert!(toks.contains(&TokenKind::Minus));
        assert!(toks.contains(&TokenKind::Slash));
        assert!(toks.contains(&TokenKind::Plus));
    }

    #[test]
    fn bare_gt_is_arrow() {
        // The paper's listings sometimes write `x1 > x2`.
        let toks = kinds("x1 > x2");
        assert_eq!(toks[1], TokenKind::Arrow);
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(lex("a @ b").is_err());
    }

    #[test]
    fn rejects_trailing_ident_after_suffix() {
        assert!(lex("100Mbps").is_err());
    }

    #[test]
    fn spans_are_accurate() {
        let toks = lex("ab -> cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::new(6, 8));
    }
}
