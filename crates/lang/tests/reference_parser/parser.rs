//! Recursive-descent parser for the CloudTalk language.
//!
//! The grammar (paper Table 1):
//!
//! ```text
//! query    := { statement (";" | NEWLINE) }
//! statement:= var_decl | flow
//! var_decl := IDENT { "=" IDENT } "=" "(" endpoint { endpoint } ")"
//! flow     := [ IDENT ] endpoint "->" endpoint { attr }
//! endpoint := IPV4 | "disk" | IDENT
//! attr     := ("start"|"end"|"size"|"rate"|"transfer") expr
//! expr     := term { ("+"|"-") term }
//! term     := factor { ("*"|"/") factor }
//! factor   := NUMBER | REF | "(" expr ")"
//! REF      := ("st"|"e"|"sz"|"r"|"t") "(" (IDENT | INT) ")"
//! ```
//!
//! A leading identifier is a flow *name* when the token after it starts
//! another endpoint; it is the *source endpoint* when followed by `->`.

use cloudtalk_lang::ast::{
    Attr, AttrKind, BinOp, EndpointAst, Expr, FlowDef, FlowRef, Ident, Query, RefAttr, Statement,
    VarDecl,
};
use cloudtalk_lang::error::{LangError, Span};
use super::lexer::lex;
use super::token::{Token, TokenKind};

/// Parses a complete CloudTalk query.
pub fn parse_query(source: &str) -> Result<Query, LangError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0 }.parse()
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(mut self) -> Result<Query, LangError> {
        // Every statement but the last is followed by a separator.
        let ends = self
            .tokens
            .iter()
            .filter(|tok| tok.kind == TokenKind::StatementEnd)
            .count();
        let mut statements = Vec::with_capacity(ends + 1);
        loop {
            self.skip_statement_ends();
            if self.peek_kind() == TokenKind::Eof {
                break;
            }
            statements.push(self.parse_statement()?);
            match self.peek_kind() {
                TokenKind::StatementEnd | TokenKind::Eof => {}
                other => {
                    return Err(LangError::new(
                        format!("expected end of statement, found {}", other.describe()),
                        self.peek_span(),
                    ));
                }
            }
        }
        Ok(Query { statements })
    }

    fn parse_statement(&mut self) -> Result<Statement, LangError> {
        // Lookahead to classify: IDENT "=" … is a variable declaration.
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_kind_at(1) == TokenKind::Equals
        {
            return Ok(Statement::VarDecl(self.parse_var_decl()?));
        }
        Ok(Statement::Flow(self.parse_flow()?))
    }

    fn parse_var_decl(&mut self) -> Result<VarDecl, LangError> {
        let start_span = self.peek_span();
        // `B = C = D = (` names one variable per `=`.
        let chained = self.count_until(TokenKind::LParen, |kind| kind == TokenKind::Equals);
        let mut names = Vec::with_capacity(chained);
        names.push(self.expect_ident()?);
        self.expect(TokenKind::Equals)?;
        // Chained declarations: B = C = D = ( … ).
        while matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_kind_at(1) == TokenKind::Equals
        {
            names.push(self.expect_ident()?);
            self.expect(TokenKind::Equals)?;
        }
        self.expect(TokenKind::LParen)?;
        // An endpoint is one token.
        let mut values = Vec::with_capacity(self.count_until(TokenKind::RParen, |_| true));
        while self.peek_kind() != TokenKind::RParen {
            if self.peek_kind() == TokenKind::Eof {
                return Err(LangError::new(
                    "unclosed value pool: expected `)`",
                    self.peek_span(),
                ));
            }
            values.push(self.parse_endpoint()?);
        }
        let close = self.advance(); // the `)`
        if values.is_empty() {
            return Err(LangError::new(
                "variable value pool must not be empty",
                start_span.merge(close.span),
            ));
        }
        Ok(VarDecl {
            names,
            values,
            span: start_span.merge(close.span),
        })
    }

    fn parse_flow(&mut self) -> Result<FlowDef, LangError> {
        let start_span = self.peek_span();
        // Optional flow name: an identifier NOT followed by `->` (if it were,
        // that identifier is itself the source endpoint).
        let name = if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_kind_at(1) != TokenKind::Arrow
        {
            Some(self.expect_ident()?)
        } else {
            None
        };
        let src = self.parse_endpoint()?;
        self.expect(TokenKind::Arrow)?;
        let dst = self.parse_endpoint()?;

        let mut attrs: Vec<Attr> = Vec::new();
        while let TokenKind::Ident(word) = self.peek_kind() {
            let Some(kind) = AttrKind::from_keyword(word) else {
                return Err(LangError::new(
                    format!("expected flow attribute (start/end/size/rate/transfer), found `{word}`"),
                    self.peek_span(),
                ));
            };
            let kw = self.advance();
            if attrs.iter().any(|a| a.kind == kind) {
                return Err(LangError::new(
                    format!("duplicate attribute `{}`", kind.keyword()),
                    kw.span,
                ));
            }
            let value = self.parse_expr()?;
            attrs.push(Attr {
                kind,
                value,
                span: kw.span,
            });
        }

        let end_span = attrs
            .last()
            .map(|a| a.value.span())
            .unwrap_or_else(|| dst.span());
        Ok(FlowDef {
            name,
            src,
            dst,
            attrs,
            span: start_span.merge(end_span),
        })
    }

    fn parse_endpoint(&mut self) -> Result<EndpointAst, LangError> {
        let tok = self.advance();
        match tok.kind {
            TokenKind::Ipv4(addr) => Ok(EndpointAst::Addr {
                addr,
                span: tok.span,
            }),
            TokenKind::Ident("disk") => Ok(EndpointAst::Disk { span: tok.span }),
            TokenKind::Ident(text) => Ok(EndpointAst::Name(Ident {
                text: text.into(),
                span: tok.span,
            })),
            other => Err(LangError::new(
                format!(
                    "expected endpoint (address, variable, or `disk`), found {}",
                    other.describe()
                ),
                tok.span,
            )),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_term()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.parse_factor()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_factor()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Expr, LangError> {
        match self.peek_kind() {
            TokenKind::Number(value) => {
                let tok = self.advance();
                Ok(Expr::Literal {
                    value,
                    span: tok.span,
                })
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(word) => {
                let Some(attr) = RefAttr::from_keyword(word) else {
                    return Err(LangError::new(
                        format!("unknown reference `{word}` (expected st/e/sz/r/t)"),
                        self.peek_span(),
                    ));
                };
                let head = self.advance();
                self.expect(TokenKind::LParen)?;
                let flow = match self.peek_kind() {
                    TokenKind::Number(v) => {
                        let tok = self.advance();
                        if v.fract() != 0.0 || v < 1.0 {
                            return Err(LangError::new(
                                "flow index must be a positive integer",
                                tok.span,
                            ));
                        }
                        FlowRef::Index {
                            index: v as usize,
                            span: tok.span,
                        }
                    }
                    _ => FlowRef::Named(self.expect_ident()?),
                };
                let close = self.expect(TokenKind::RParen)?;
                Ok(Expr::Ref {
                    attr,
                    flow,
                    span: head.span.merge(close.span),
                })
            }
            other => Err(LangError::new(
                format!("expected value, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    // --- token plumbing -------------------------------------------------

    fn peek_kind(&self) -> TokenKind<'a> {
        self.tokens[self.pos].kind
    }

    fn peek_kind_at(&self, offset: usize) -> TokenKind<'a> {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        self.tokens[idx].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn advance(&mut self) -> Token<'a> {
        let tok = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<Token<'a>, LangError> {
        if self.peek_kind() == kind {
            Ok(self.advance())
        } else {
            Err(LangError::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek_kind().describe()
                ),
                self.peek_span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<Ident, LangError> {
        match self.peek_kind() {
            TokenKind::Ident(text) => {
                let tok = self.advance();
                Ok(Ident {
                    text: text.into(),
                    span: tok.span,
                })
            }
            other => Err(LangError::new(
                format!("expected identifier, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    /// How many tokens from here up to the first `stop` (or the end of the
    /// statement) satisfy `counted`: what a list about to be parsed will
    /// hold, so its vector is sized once.
    fn count_until(&self, stop: TokenKind<'_>, counted: impl Fn(TokenKind<'a>) -> bool) -> usize {
        self.tokens[self.pos..]
            .iter()
            .map(|tok| tok.kind)
            .take_while(|&kind| {
                kind != stop && kind != TokenKind::StatementEnd && kind != TokenKind::Eof
            })
            .filter(|&kind| counted(kind))
            .count()
    }

    fn skip_statement_ends(&mut self) {
        while self.peek_kind() == TokenKind::StatementEnd {
            self.advance();
        }
    }
}

