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

use crate::ast::{
    Attr, AttrKind, BinOp, EndpointAst, Expr, FlowDef, FlowRef, Ident, Query, RefAttr, Statement,
    VarDecl,
};
use crate::error::{LangError, Span};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses a complete CloudTalk query.
///
/// # Examples
///
/// ```
/// let q = cloudtalk_lang::parse_query("A = (10.0.0.2 10.0.0.3); f1 A -> 10.0.0.1 size 256M").unwrap();
/// assert_eq!(q.statements.len(), 2);
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_query() {
        // The replica-read query from Figure 2 of the paper.
        let q = parse_query("A = (10.0.0.2 10.0.0.3)\nf1 A -> 10.0.0.1 size 256M").unwrap();
        assert_eq!(q.var_decls().count(), 1);
        let flow = q.flows().next().unwrap();
        assert_eq!(flow.name.as_ref().unwrap().text, "f1");
        assert!(matches!(flow.src, EndpointAst::Name(_)));
        assert!(matches!(flow.dst, EndpointAst::Addr { .. }));
        let size = flow.attr(AttrKind::Size).unwrap();
        assert!(matches!(
            size,
            Expr::Literal { value, .. } if *value == 256.0 * 1024.0 * 1024.0
        ));
    }

    #[test]
    fn parses_chained_var_decl() {
        let q = parse_query("B = C = D = (s1 s2 s3 s4)").unwrap();
        let decl = q.var_decls().next().unwrap();
        assert_eq!(
            decl.names.iter().map(|n| n.text.as_str()).collect::<Vec<_>>(),
            vec!["B", "C", "D"]
        );
        assert_eq!(decl.values.len(), 4);
    }

    #[test]
    fn parses_coupled_rate_refs() {
        // The disk-read + network-send pattern from §4.1.
        let q = parse_query(
            "A = (vm1 vm2 vm3)\n\
             f1 disk -> A size 100M rate r(f2)\n\
             f2 A -> 10.0.0.1 size sz(f1) rate r(f1)",
        )
        .unwrap();
        let flows: Vec<_> = q.flows().collect();
        assert_eq!(flows.len(), 2);
        assert!(matches!(flows[0].src, EndpointAst::Disk { .. }));
        let rate = flows[0].attr(AttrKind::Rate).unwrap();
        assert!(matches!(
            rate,
            Expr::Ref { attr: RefAttr::Rate, flow: FlowRef::Named(flow), .. } if flow.text == "f2"
        ));
        let size = flows[1].attr(AttrKind::Size).unwrap();
        assert!(matches!(
            size,
            Expr::Ref { attr: RefAttr::Size, flow: FlowRef::Named(flow), .. } if flow.text == "f1"
        ));
    }

    #[test]
    fn parses_hdfs_write_query() {
        // The six-flow daisy-chain write query from §5.3.
        let q = parse_query(
            "r1 = r2 = r3 = (d1 d2 d3 d4 d5)\n\
             f1 client -> r1 size 256M rate r(f2)\n\
             f2 r1 -> disk size 256M rate r(f1)\n\
             f3 r1 -> r2 size 256M rate r(f4) transfer t(f2)\n\
             f4 r2 -> disk size 256M rate r(f3)\n\
             f5 r2 -> r3 size 256M rate r(f6) transfer t(f4)\n\
             f6 r3 -> disk size 256M rate r(f5)",
        )
        .unwrap();
        assert_eq!(q.flows().count(), 6);
        assert_eq!(q.var_decls().next().unwrap().names.len(), 3);
    }

    #[test]
    fn parses_unknown_source() {
        let q = parse_query("f1 0.0.0.0 -> x1 size 1G rate r(f2)").unwrap();
        let flow = q.flows().next().unwrap();
        assert!(matches!(flow.src, EndpointAst::Addr { addr: 0, .. }));
    }

    #[test]
    fn parses_unnamed_flow() {
        let q = parse_query("A -> 10.0.0.1 size 5K").unwrap();
        let flow = q.flows().next().unwrap();
        assert!(flow.name.is_none());
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let q = parse_query("f a -> b size 1 + 2 * 3").unwrap();
        let size = q.flows().next().unwrap().attr(AttrKind::Size).unwrap();
        // Must parse as 1 + (2 * 3).
        let Expr::Binary { op: BinOp::Add, rhs, .. } = size else {
            panic!("expected top-level Add, got {size:?}");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_parenthesised_exprs() {
        let q = parse_query("f a -> b size (1 + 2) * 3").unwrap();
        let size = q.flows().next().unwrap().attr(AttrKind::Size).unwrap();
        assert!(matches!(size, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = parse_query("f a -> b size 1 size 2").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_missing_arrow() {
        assert!(parse_query("f1 a b size 1").is_err());
    }

    #[test]
    fn rejects_empty_pool() {
        let err = parse_query("A = ()").unwrap_err();
        assert!(err.message.contains("empty"));
    }

    #[test]
    fn rejects_unclosed_pool() {
        let err = parse_query("A = (a b").unwrap_err();
        assert!(err.message.contains("unclosed"));
    }

    #[test]
    fn parses_index_references() {
        let q = parse_query("f a -> b size 5\ng c -> d size sz(1) rate r(2)").unwrap();
        let flows: Vec<_> = q.flows().collect();
        let sz = flows[1].attr(AttrKind::Size).unwrap();
        assert!(matches!(
            sz,
            Expr::Ref { attr: RefAttr::Size, flow: FlowRef::Index { index: 1, .. }, .. }
        ));
    }

    #[test]
    fn rejects_fractional_index_reference() {
        let err = parse_query("f a -> b size sz(1.5)").unwrap_err();
        assert!(err.message.contains("positive integer"));
    }

    #[test]
    fn rejects_unknown_ref_head() {
        let err = parse_query("f a -> b size foo(f1)").unwrap_err();
        assert!(err.message.contains("unknown reference"));
    }

    #[test]
    fn rejects_garbage_after_statement() {
        assert!(parse_query("A = (a b) extra").is_err());
    }

    #[test]
    fn empty_query_is_ok() {
        assert!(parse_query("").unwrap().statements.is_empty());
        assert!(parse_query("\n\n;;\n").unwrap().statements.is_empty());
    }

    #[test]
    fn disk_keyword_is_endpoint_not_name() {
        let q = parse_query("disk -> a size 1").unwrap();
        let flow = q.flows().next().unwrap();
        assert!(flow.name.is_none());
        assert!(matches!(flow.src, EndpointAst::Disk { .. }));
    }

    #[test]
    fn named_flow_with_address_source() {
        let q = parse_query("f9 10.1.2.3 -> a size 1").unwrap();
        let flow = q.flows().next().unwrap();
        assert_eq!(flow.name.as_ref().unwrap().text, "f9");
    }
}
