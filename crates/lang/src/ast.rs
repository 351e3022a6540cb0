//! Abstract syntax tree for CloudTalk queries.
//!
//! The AST mirrors Table 1 of the paper: a query is a sequence of variable
//! declarations and flow definitions. Spans are kept on every node so the
//! validator can report precise diagnostics.

use crate::error::Span;
use crate::name::Name;

/// A parsed CloudTalk query: the representation of one *problem instance*.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Query {
    /// Statements in source order.
    pub statements: Vec<Statement>,
}

impl Query {
    /// Iterates over the variable declarations in the query.
    pub fn var_decls(&self) -> impl Iterator<Item = &VarDecl> + Clone {
        self.statements.iter().filter_map(|s| match s {
            Statement::VarDecl(d) => Some(d),
            Statement::Flow(_) => None,
        })
    }

    /// Iterates over the flow definitions in the query.
    pub fn flows(&self) -> impl Iterator<Item = &FlowDef> + Clone {
        self.statements.iter().filter_map(|s| match s {
            Statement::Flow(f) => Some(f),
            Statement::VarDecl(_) => None,
        })
    }
}

/// One statement: a variable declaration or a flow definition.
#[derive(Clone, PartialEq, Debug)]
pub enum Statement {
    /// `A = B = (v1 v2 …)` — one or more variables sharing a value pool.
    VarDecl(VarDecl),
    /// `[name] src -> dst attr…`
    Flow(FlowDef),
}

/// A (possibly chained) variable declaration.
///
/// `B = C = D = (s1 s2)` declares three variables over the same pool. By
/// default CloudTalk binds same-pool variables to *distinct* values
/// (paper §4.1).
#[derive(Clone, PartialEq, Debug)]
pub struct VarDecl {
    /// The declared variable names, in order.
    pub names: Vec<Ident>,
    /// The shared pool of candidate endpoint values.
    pub values: Vec<EndpointAst>,
    /// Source span of the whole declaration.
    pub span: Span,
}

/// A flow definition.
#[derive(Clone, PartialEq, Debug)]
pub struct FlowDef {
    /// Optional flow name, referenced by attribute expressions (`r(f1)`).
    pub name: Option<Ident>,
    /// Data source.
    pub src: EndpointAst,
    /// Data destination.
    pub dst: EndpointAst,
    /// Attribute list (start/end/size/rate/transfer).
    pub attrs: Vec<Attr>,
    /// Source span of the whole definition.
    pub span: Span,
}

impl FlowDef {
    /// Returns the expression for `kind`, if the flow declares it.
    pub(crate) fn attr(&self, kind: AttrKind) -> Option<&Expr> {
        self.attrs.iter().find(|a| a.kind == kind).map(|a| &a.value)
    }
}

/// An identifier with its span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ident {
    /// The identifier text, stored in place.
    pub text: Name,
    /// Where it appears.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a dummy span (for synthesized ASTs).
    pub fn synthetic(text: impl Into<Name>) -> Self {
        Ident {
            text: text.into(),
            span: Span::DUMMY,
        }
    }
}

/// A flow endpoint as written in the source.
#[derive(Clone, PartialEq, Debug)]
pub enum EndpointAst {
    /// A literal IPv4 address (`10.0.0.1`). `0.0.0.0` means "unknown source".
    Addr {
        /// The address as a big-endian `u32`.
        addr: u32,
        /// Source span of the literal.
        span: Span,
    },
    /// The local disk of whichever machine the flow's other endpoint is.
    Disk {
        /// Source span of the `disk` keyword.
        span: Span,
    },
    /// A name: either a declared variable or a symbolic host, resolved later.
    Name(Ident),
}

impl EndpointAst {
    /// The source span of the endpoint.
    pub fn span(&self) -> Span {
        match self {
            EndpointAst::Addr { span, .. } | EndpointAst::Disk { span } => *span,
            EndpointAst::Name(ident) => ident.span,
        }
    }
}

/// A flow attribute: `size 256M`, `rate r(f1)`, …
#[derive(Clone, PartialEq, Debug)]
pub struct Attr {
    /// Which attribute is being set.
    pub kind: AttrKind,
    /// The value expression.
    pub value: Expr,
    /// Span of the attribute keyword.
    pub span: Span,
}

/// The five flow attributes of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AttrKind {
    /// Start time, seconds relative to now.
    Start,
    /// End time, seconds relative to now.
    End,
    /// Total bytes to move.
    Size,
    /// Maximum instantaneous rate, bytes per second.
    Rate,
    /// Bytes transferred so far (used for store-and-forward chaining).
    Transfer,
}

impl AttrKind {
    /// The source keyword for this attribute.
    pub fn keyword(self) -> &'static str {
        match self {
            AttrKind::Start => "start",
            AttrKind::End => "end",
            AttrKind::Size => "size",
            AttrKind::Rate => "rate",
            AttrKind::Transfer => "transfer",
        }
    }

    /// Parses an attribute keyword.
    pub fn from_keyword(word: &str) -> Option<Self> {
        match word {
            "start" => Some(AttrKind::Start),
            "end" => Some(AttrKind::End),
            "size" => Some(AttrKind::Size),
            "rate" => Some(AttrKind::Rate),
            "transfer" | "transferred" => Some(AttrKind::Transfer),
            _ => None,
        }
    }

    /// All attribute kinds, in canonical order.
    pub(crate) const ALL: [AttrKind; 5] = [
        AttrKind::Start,
        AttrKind::End,
        AttrKind::Size,
        AttrKind::Rate,
        AttrKind::Transfer,
    ];
}

/// The referencable per-flow attributes (`REF` in Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RefAttr {
    /// `st(f)` — start time.
    Start,
    /// `e(f)` — end time.
    End,
    /// `sz(f)` — flow size.
    Size,
    /// `r(f)` — instantaneous rate.
    Rate,
    /// `t(f)` — bytes transferred so far.
    Transferred,
}

impl RefAttr {
    /// The source keyword for this reference head.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            RefAttr::Start => "st",
            RefAttr::End => "e",
            RefAttr::Size => "sz",
            RefAttr::Rate => "r",
            RefAttr::Transferred => "t",
        }
    }

    /// Parses a reference head keyword.
    pub fn from_keyword(word: &str) -> Option<Self> {
        match word {
            "st" => Some(RefAttr::Start),
            "e" => Some(RefAttr::End),
            "sz" => Some(RefAttr::Size),
            "r" => Some(RefAttr::Rate),
            "t" => Some(RefAttr::Transferred),
            _ => None,
        }
    }
}

/// How a reference names its target flow: by name (`r(f2)`) or by
/// 1-based definition index (`r(2)`) — Table 1: "references to an
/// attribute of another flow (specified by name or identifier)".
#[derive(Clone, PartialEq, Debug)]
pub enum FlowRef {
    /// A named flow.
    Named(Ident),
    /// The n-th flow definition (1-based).
    Index {
        /// 1-based flow position.
        index: usize,
        /// Source span of the number.
        span: Span,
    },
}

impl FlowRef {
    /// The source span of the reference target.
    pub(crate) fn span(&self) -> Span {
        match self {
            FlowRef::Named(ident) => ident.span,
            FlowRef::Index { span, .. } => *span,
        }
    }

    /// Human-readable form for diagnostics and printing.
    pub(crate) fn display(&self) -> String {
        match self {
            FlowRef::Named(ident) => ident.text.to_string(),
            FlowRef::Index { index, .. } => index.to_string(),
        }
    }
}

/// A value expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A numeric literal (already scaled by any size suffix).
    Literal {
        /// The literal's value (bytes, seconds, or Bps by context).
        value: f64,
        /// Source span of the number.
        span: Span,
    },
    /// A reference to another flow's attribute, e.g. `r(f2)` or `r(2)`.
    Ref {
        /// Which attribute is referenced.
        attr: RefAttr,
        /// The referenced flow (by name or 1-based index).
        flow: FlowRef,
        /// Span of the whole reference.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Literal { span, .. } | Expr::Ref { span, .. } => *span,
            Expr::Binary { lhs, rhs, .. } => lhs.span().merge(rhs.span()),
        }
    }

    /// Creates a literal with a dummy span.
    pub fn literal(value: f64) -> Expr {
        Expr::Literal {
            value,
            span: Span::DUMMY,
        }
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// The operator's source text.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// Applies the operator to two values.
    pub fn apply(self, lhs: f64, rhs: f64) -> f64 {
        match self {
            BinOp::Add => lhs + rhs,
            BinOp::Sub => lhs - rhs,
            BinOp::Mul => lhs * rhs,
            BinOp::Div => lhs / rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_keyword_round_trips() {
        for kind in AttrKind::ALL {
            assert_eq!(AttrKind::from_keyword(kind.keyword()), Some(kind));
        }
        assert_eq!(AttrKind::from_keyword("bogus"), None);
    }

    #[test]
    fn ref_keyword_round_trips() {
        for attr in [
            RefAttr::Start,
            RefAttr::End,
            RefAttr::Size,
            RefAttr::Rate,
            RefAttr::Transferred,
        ] {
            assert_eq!(RefAttr::from_keyword(attr.keyword()), Some(attr));
        }
    }

    #[test]
    fn binop_applies() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
    }
}
