//! Canonical pretty-printing of queries.
//!
//! `parse_query(print(q))` reproduces `q` up to spans, which the round-trip
//! property tests rely on.

use std::fmt::Write as _;

use crate::ast::{
    AttrKind, BinOp, EndpointAst, Expr, FlowDef, Query, Statement, VarDecl,
};
use crate::problem::Address;
use crate::units::{format_bytes, format_number};

/// Renders a query in canonical form, one statement per line.
pub fn print_query(query: &Query) -> String {
    let mut out = String::new();
    for stmt in &query.statements {
        match stmt {
            Statement::VarDecl(decl) => print_var_decl(&mut out, decl),
            Statement::Flow(flow) => print_flow(&mut out, flow),
        }
    }
    out
}

/// [`print_query`] of the query that declares `decls`, then defines `flows`.
pub(crate) fn print_parts<'a>(
    decls: impl Iterator<Item = &'a VarDecl>,
    flows: impl Iterator<Item = &'a FlowDef>,
) -> String {
    let mut out = String::new();
    decls.for_each(|decl| print_var_decl(&mut out, decl));
    flows.for_each(|flow| print_flow(&mut out, flow));
    out
}

/// Starts a statement on a line of its own.
fn start_line(out: &mut String) {
    if !out.is_empty() {
        out.push('\n');
    }
}

fn print_var_decl(out: &mut String, decl: &VarDecl) {
    start_line(out);
    for name in &decl.names {
        let _ = write!(out, "{} = ", name.text);
    }
    out.push('(');
    for (i, value) in decl.values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        print_endpoint(out, value);
    }
    out.push(')');
}

fn print_flow(out: &mut String, flow: &FlowDef) {
    start_line(out);
    if let Some(name) = &flow.name {
        let _ = write!(out, "{} ", name.text);
    }
    print_endpoint(out, &flow.src);
    out.push_str(" -> ");
    print_endpoint(out, &flow.dst);
    for kind in AttrKind::ALL {
        if let Some(expr) = flow.attr(kind) {
            let _ = write!(out, " {} ", kind.keyword());
            print_expr(out, expr, 0, kind == AttrKind::Size);
        }
    }
}

fn print_endpoint(out: &mut String, ep: &EndpointAst) {
    match ep {
        EndpointAst::Addr { addr, .. } => {
            let _ = write!(out, "{}", Address(*addr));
        }
        EndpointAst::Disk { .. } => out.push_str("disk"),
        EndpointAst::Name(ident) => out.push_str(&ident.text),
    }
}

/// Precedence levels: 0 = additive context, 1 = multiplicative context.
fn print_expr(out: &mut String, expr: &Expr, parent_prec: u8, as_bytes: bool) {
    match expr {
        Expr::Literal { value, .. } => {
            if as_bytes {
                out.push_str(&format_bytes(*value));
            } else {
                out.push_str(&format_number(*value));
            }
        }
        Expr::Ref { attr, flow, .. } => {
            let _ = write!(out, "{}({})", attr.keyword(), flow.display());
        }
        Expr::Binary { op, lhs, rhs } => {
            let my_prec = match op {
                BinOp::Add | BinOp::Sub => 0,
                BinOp::Mul | BinOp::Div => 1,
            };
            let needs_parens = my_prec < parent_prec;
            if needs_parens {
                out.push('(');
            }
            print_expr(out, lhs, my_prec, as_bytes);
            let _ = write!(out, " {} ", op.symbol());
            // Right operand needs one level more to preserve left associativity
            // of `-` and `/` through the round trip.
            print_expr(out, rhs, my_prec + 1, as_bytes);
            if needs_parens {
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn round_trip(src: &str) -> String {
        print_query(&parse_query(src).unwrap())
    }

    #[test]
    fn prints_figure2_query() {
        let printed = round_trip("A = (10.0.0.2 10.0.0.3); f1 A -> 10.0.0.1 size 256M");
        assert_eq!(
            printed,
            "A = (10.0.0.2 10.0.0.3)\nf1 A -> 10.0.0.1 size 256M"
        );
    }

    #[test]
    fn reparse_is_identity_on_examples() {
        let sources = [
            "B = C = D = (s1 s2 s3)",
            "f1 disk -> A size 100M rate r(f2)",
            "f2 A -> 10.0.0.1 size sz(f1) rate r(f1)",
            "f 0.0.0.0 -> x1 size 1G rate r(f2)",
            "f a -> b size 1 + 2 * 3",
            "f a -> b size (1 + 2) * 3",
            "f a -> b size 10 - 2 - 3",
            "f a -> b start 0.5 end 2.5",
        ];
        for src in sources {
            let once = parse_query(src).unwrap();
            let printed = print_query(&once);
            let twice = parse_query(&printed).unwrap();
            let reprinted = print_query(&twice);
            assert_eq!(printed, reprinted, "unstable print for {src:?}");
        }
    }

    #[test]
    fn left_associative_subtraction_survives() {
        // 10 - 2 - 3 must not reprint as 10 - (2 - 3).
        let q = parse_query("f a -> b size 10 - 2 - 3").unwrap();
        let printed = print_query(&q);
        let q2 = parse_query(&printed).unwrap();
        // Evaluate both: (10-2)-3 = 5.
        let val = |query: &crate::ast::Query| {
            let resolver = crate::validate::InterningResolver::new();
            let p = crate::validate::resolve(query, &resolver).unwrap();
            p.flows[0]
                .attr(AttrKind::Size)
                .unwrap()
                .as_const()
                .unwrap()
        };
        assert_eq!(val(&q), 5.0);
        assert_eq!(val(&q2), 5.0);
    }

    #[test]
    fn size_literals_use_suffixes() {
        let printed = round_trip("f a -> b size 268435456");
        assert!(printed.contains("size 256M"), "{printed}");
    }

    #[test]
    fn rate_literals_stay_plain() {
        let printed = round_trip("f a -> b rate 1024");
        assert!(printed.contains("rate 1024"), "{printed}");
    }
}
