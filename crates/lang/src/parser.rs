//! Parser for the CloudTalk language.
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
//!
//! The parser asks the [`Scanner`] whether the next token is what the
//! grammar expects there and steps over it only if so: no token is built
//! unless wanted. A lexical error anywhere in the text still wins over a
//! syntax error, as if the text had been lexed first. An expression is
//! read in one loop, a level per open parenthesis, and nests at most
//! [`MAX_EXPR_DEPTH`] deep, so no text can exhaust the stack of anything
//! that walks its tree.

use crate::ast::{
    Attr, AttrKind, BinOp, EndpointAst, Expr, FlowDef, FlowRef, Ident, Query, RefAttr, Statement,
    VarDecl,
};
use crate::error::{LangError, Span};
use crate::lexer::{count_bytes, Scanner};
use crate::token::{Token, TokenKind};

/// The deepest expression a query may hold: a parenthesis and an operator
/// each put one level above what they enclose, so `((1))` and `1 + 2 * 3`
/// are both 2 deep. Deeper text is rejected at the token past the limit.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parses a complete CloudTalk query.
///
/// # Examples
///
/// ```
/// let q = cloudtalk_lang::parse_query("A = (10.0.0.2 10.0.0.3); f1 A -> 10.0.0.1 size 256M").unwrap();
/// assert_eq!(q.statements.len(), 2);
/// ```
pub fn parse_query(source: &str) -> Result<Query, LangError> {
    let mut parser = Parser {
        scan: Scanner::new(source),
    };
    let query = parser.query(source);
    // Everything before the scanner lexed cleanly; an error after it wins.
    query.map_err(|err| parser.scan.first_error().unwrap_or(err))
}

struct Parser<'a> {
    scan: Scanner<'a>,
}

/// An expression and its depth in the sense of [`MAX_EXPR_DEPTH`].
type Deep = (Expr, usize);

/// What an expression level has read so far: the `+`/`-` chain waiting for
/// its next term, and the `*`/`/` chain waiting for its next factor, each
/// with the operator (and its span) that will join them.
#[derive(Default)]
struct Level {
    sum: Option<(Deep, BinOp, Span)>,
    product: Option<(Deep, BinOp, Span)>,
}

impl<'a> Parser<'a> {
    fn query(&mut self, source: &str) -> Result<Query, LangError> {
        // Every statement but the last is followed by a separator.
        let bytes = source.as_bytes();
        let ends = count_bytes(bytes, b'\n') + count_bytes(bytes, b';');
        let mut statements = Vec::with_capacity(ends + 1);
        loop {
            while self
                .scan
                .eat(b'\n')
                .or_else(|| self.scan.eat(b';'))
                .is_some()
            {}
            if self.scan.next_byte().is_none() {
                return Ok(Query { statements });
            }
            let declares = self
                .scan
                .peek_ident()
                .is_some_and(|(_, _, after)| after.starts_with(b"="));
            statements.push(if declares {
                Statement::VarDecl(self.var_decl()?)
            } else {
                Statement::Flow(self.flow()?)
            });
            if !matches!(self.scan.next_byte(), None | Some(b'\n' | b';')) {
                return Err(self.expected("end of statement"));
            }
        }
    }

    fn var_decl(&mut self) -> Result<VarDecl, LangError> {
        // `B = C = D = (` names one variable per `=`; `query` saw the first.
        let mut names = Vec::with_capacity(self.scan.count_before(b'=', '('));
        while let Some((text, span, after)) = self.scan.peek_ident() {
            if !after.starts_with(b"=") {
                break;
            }
            self.scan.step_over(span);
            self.scan.eat(b'=');
            names.push(Ident {
                text: text.into(),
                span,
            });
        }
        let start = names[0].span;
        self.expect(b'(', TokenKind::LParen)?;
        // An endpoint is one token, and blanks separate them.
        let mut values = Vec::with_capacity(self.scan.count_before(b' ', ')') + 1);
        let close = loop {
            if let Some(close) = self.scan.eat(b')') {
                break close;
            }
            match self.endpoint()? {
                Some(value) => values.push(value),
                None if self.scan.next_byte().is_none() => {
                    let end = self.scan.peek()?.span;
                    return Err(LangError::new("unclosed value pool: expected `)`", end));
                }
                None => return Err(self.expected(ENDPOINT)),
            }
        };
        if values.is_empty() {
            return Err(LangError::new(
                "variable value pool must not be empty",
                start.merge(close),
            ));
        }
        Ok(VarDecl {
            names,
            values,
            span: start.merge(close),
        })
    }

    fn flow(&mut self) -> Result<FlowDef, LangError> {
        // Optional flow name: an identifier NOT followed by `->` (if it were,
        // that identifier is itself the source endpoint).
        let name = match self.scan.peek_ident() {
            Some((text, span, after)) if !matches!(after, [b'>', ..] | [b'-', b'>', ..]) => {
                self.scan.step_over(span);
                Some(Ident {
                    text: text.into(),
                    span,
                })
            }
            _ => None,
        };
        let src = self.required_endpoint()?;
        let start = name.as_ref().map_or_else(|| src.span(), |name| name.span);
        if self.scan.eat_arrow().is_none() {
            return Err(self.expected(TokenKind::Arrow.describe()));
        }
        let dst = self.required_endpoint()?;

        let mut attrs: Vec<Attr> = Vec::new();
        while let Some((word, span, _)) = self.scan.peek_ident() {
            self.scan.step_over(span);
            let Some(kind) = AttrKind::from_keyword(word) else {
                return Err(LangError::new(
                    format!(
                        "expected flow attribute (start/end/size/rate/transfer), found `{word}`"
                    ),
                    span,
                ));
            };
            if attrs.iter().any(|a| a.kind == kind) {
                return Err(LangError::new(
                    format!("duplicate attribute `{}`", kind.keyword()),
                    span,
                ));
            }
            let value = self.expr()?;
            attrs.push(Attr { kind, value, span });
        }

        let end = attrs.last().map_or_else(|| dst.span(), |a| a.value.span());
        Ok(FlowDef {
            name,
            src,
            dst,
            attrs,
            span: start.merge(end),
        })
    }

    /// Steps over the next token if it is an endpoint.
    #[inline(always)]
    fn endpoint(&mut self) -> Result<Option<EndpointAst>, LangError> {
        if let Some(tok) = self.scan.peek_numeric()? {
            let TokenKind::Ipv4(addr) = tok.kind else {
                return Ok(None);
            };
            self.scan.step_over(tok.span);
            return Ok(Some(EndpointAst::Addr {
                addr,
                span: tok.span,
            }));
        }
        let Some((text, span, _)) = self.scan.peek_ident() else {
            return Ok(None);
        };
        self.scan.step_over(span);
        Ok(Some(match text {
            "disk" => EndpointAst::Disk { span },
            _ => EndpointAst::Name(Ident {
                text: text.into(),
                span,
            }),
        }))
    }

    fn required_endpoint(&mut self) -> Result<EndpointAst, LangError> {
        match self.endpoint()? {
            Some(endpoint) => Ok(endpoint),
            None => Err(self.expected(ENDPOINT)),
        }
    }

    /// An attribute's value. A loop, not a recursion: `open` holds the state
    /// of each enclosing parenthesis.
    fn expr(&mut self) -> Result<Expr, LangError> {
        let mut open: Vec<Level> = Vec::new();
        let mut level = Level::default();
        'factor: loop {
            while let Some(paren) = self.scan.eat(b'(') {
                if open.len() == MAX_EXPR_DEPTH {
                    return Err(too_deep(paren));
                }
                open.push(std::mem::take(&mut level));
            }
            let mut value = (self.atom()?, 0);
            loop {
                let nesting = open.len();
                if let Some((lhs, op, span)) = level.product.take() {
                    value = binary(op, lhs, value, nesting, span)?;
                }
                match self.scan.operator() {
                    Some((op @ (BinOp::Mul | BinOp::Div), span)) => {
                        level.product = Some((value, op, span));
                        continue 'factor;
                    }
                    Some((op, span)) => {
                        if let Some((lhs, add, at)) = level.sum.take() {
                            value = binary(add, lhs, value, nesting, at)?;
                        }
                        level.sum = Some((value, op, span));
                        continue 'factor;
                    }
                    None => {}
                }
                if let Some((lhs, add, at)) = level.sum.take() {
                    value = binary(add, lhs, value, nesting, at)?;
                }
                let Some(outer) = open.pop() else {
                    return Ok(value.0);
                };
                self.expect(b')', TokenKind::RParen)?;
                (level, value.1) = (outer, value.1 + 1);
            }
        }
    }

    /// A number or a reference: the values an expression combines.
    fn atom(&mut self) -> Result<Expr, LangError> {
        if let Some(tok) = self.scan.peek_numeric()? {
            let TokenKind::Number(value) = tok.kind else {
                return Err(self.expected("value"));
            };
            self.scan.step_over(tok.span);
            return Ok(Expr::Literal {
                value,
                span: tok.span,
            });
        }
        let Some((word, head)) = self.scan.peek_ident().map(|(word, span, _)| (word, span)) else {
            return Err(self.expected("value"));
        };
        let Some(attr) = RefAttr::from_keyword(word) else {
            return Err(LangError::new(
                format!("unknown reference `{word}` (expected st/e/sz/r/t)"),
                head,
            ));
        };
        self.scan.step_over(head);
        self.expect(b'(', TokenKind::LParen)?;
        let flow = if let Some(tok) = self.scan.peek_numeric()? {
            match tok.kind {
                TokenKind::Number(v) if v.fract() != 0.0 || v < 1.0 => {
                    return Err(LangError::new(
                        "flow index must be a positive integer",
                        tok.span,
                    ));
                }
                TokenKind::Number(v) => FlowRef::Index {
                    index: v as usize,
                    span: tok.span,
                },
                _ => return Err(self.expected("identifier")),
            }
        } else if let Some((text, span, _)) = self.scan.peek_ident() {
            FlowRef::Named(Ident {
                text: text.into(),
                span,
            })
        } else {
            return Err(self.expected("identifier"));
        };
        self.scan.step_over(flow.span());
        let close = self.expect(b')', TokenKind::RParen)?;
        let span = head.merge(close);
        Ok(Expr::Ref { attr, flow, span })
    }

    /// Steps over the one-byte token `b`, of kind `kind`, returning its
    /// span.
    #[inline]
    fn expect(&mut self, b: u8, kind: TokenKind<'_>) -> Result<Span, LangError> {
        match self.scan.eat(b) {
            Some(span) => Ok(span),
            None => Err(self.expected(kind.describe())),
        }
    }

    /// "expected `what`, found …" at the next token — or the lexical error
    /// that token is.
    #[cold]
    fn expected(&mut self, what: impl std::fmt::Display) -> LangError {
        match self.scan.peek() {
            Ok(Token { kind, span }) => {
                LangError::new(format!("expected {what}, found {}", kind.describe()), span)
            }
            Err(err) => err,
        }
    }
}

const ENDPOINT: &str = "endpoint (address, variable, or `disk`)";

/// `lhs op rhs`, unless that puts it deeper than [`MAX_EXPR_DEPTH`] inside
/// `nesting` parentheses; `span` is the operator's.
fn binary(op: BinOp, lhs: Deep, rhs: Deep, nesting: usize, span: Span) -> Result<Deep, LangError> {
    let depth = lhs.1.max(rhs.1) + 1;
    if nesting + depth > MAX_EXPR_DEPTH {
        return Err(too_deep(span));
    }
    let (lhs, rhs) = (Box::new(lhs.0), Box::new(rhs.0));
    Ok((Expr::Binary { op, lhs, rhs }, depth))
}

fn too_deep(span: Span) -> LangError {
    LangError::new(
        format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"),
        span,
    )
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
