//! Token definitions for the CloudTalk language.

use std::fmt;

use cloudtalk_lang::error::Span;

/// A lexical token with its source span. Borrows identifier text from
/// the query source: lexing copies nothing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// What kind of token this is, with any payload.
    pub kind: TokenKind<'a>,
    /// Where it appears in the source.
    pub span: Span,
}

/// The kinds of token the lexer produces.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// An identifier: flow names, variable names, symbolic hosts, keywords.
    /// A slice of the source text.
    Ident(&'a str),
    /// A numeric literal, already scaled by any size suffix (`256M` → bytes).
    Number(f64),
    /// A dotted-quad IPv4 address literal.
    Ipv4(u32),
    /// `->`
    Arrow,
    /// `=`
    Equals,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;` or a newline — both terminate a statement.
    StatementEnd,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(name) => format!("identifier `{name}`"),
            TokenKind::Number(n) => format!("number `{n}`"),
            TokenKind::Ipv4(addr) => {
                format!("address `{}`", cloudtalk_lang::problem::Address(*addr))
            }
            TokenKind::Arrow => "`->`".to_string(),
            TokenKind::Equals => "`=`".to_string(),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::StatementEnd => "end of statement".to_string(),
            TokenKind::Plus => "`+`".to_string(),
            TokenKind::Minus => "`-`".to_string(),
            TokenKind::Star => "`*`".to_string(),
            TokenKind::Slash => "`/`".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}
