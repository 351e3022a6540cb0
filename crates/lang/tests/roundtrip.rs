//! Property tests: printing a random well-formed query and re-parsing it
//! yields the same problem instance; the zero-copy lexer agrees with the
//! owned-token lexer it replaced ([`reference_lexer`]) on that corpus, on
//! noise, and on malformed input; and text → `Problem` agrees with the
//! front end the lean one replaced ([`reference_parser`]) value for value
//! and error for error, on the same inputs and on the serving path's query
//! shapes.

mod reference_lexer;
mod reference_parser;

use cloudtalk_lang::ast::{
    Attr, AttrKind, BinOp, EndpointAst, Expr, FlowDef, FlowRef, Ident, Query, RefAttr, Statement,
    VarDecl,
};
use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query, reduce_placement_query};
use cloudtalk_lang::error::Span;
use cloudtalk_lang::lexer::lex;
use cloudtalk_lang::printer::print_query;
use cloudtalk_lang::problem::Address;
use cloudtalk_lang::validate::InterningResolver;
use cloudtalk_lang::{parse_query, resolve, MapResolver};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = u32> {
    // Avoid 0.0.0.0 (reserved for "unknown").
    1u32..=0xFFFF
}

fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0u64..1_000_000).prop_map(|v| Expr::literal(v as f64)),
        (1u64..1024).prop_map(|v| Expr::literal(v as f64 * 1024.0 * 1024.0)),
        (0u64..1000).prop_map(|v| Expr::literal(v as f64 / 4.0)),
    ]
}

fn arb_expr(flow_names: Vec<String>) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal(),
        (
            proptest::sample::select(vec![
                RefAttr::Start,
                RefAttr::End,
                RefAttr::Size,
                RefAttr::Rate,
                RefAttr::Transferred
            ]),
            proptest::sample::select(flow_names)
        )
            .prop_map(|(attr, flow)| Expr::Ref {
                attr,
                flow: FlowRef::Named(Ident::synthetic(flow)),
                span: Span::DUMMY
            }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            proptest::sample::select(vec![BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
            inner.clone(),
            inner,
        )
            .prop_map(|(op, lhs, rhs)| Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
    })
}

prop_compose! {
    fn arb_query()(n_vars in 1usize..4, n_flows in 1usize..6)(
        pools in proptest::collection::vec(
            proptest::collection::vec(arb_addr(), 1..5), n_vars..=n_vars),
        flows in proptest::collection::vec(
            (any::<bool>(), 0usize..100, 0usize..100, proptest::collection::vec(
                (proptest::sample::select(vec![
                    AttrKind::Start, AttrKind::End, AttrKind::Size,
                    AttrKind::Rate, AttrKind::Transfer]),
                 0usize..1000), 0..4)),
            n_flows..=n_flows),
        exprs in proptest::collection::vec(
            arb_expr((0..6).map(|i| format!("f{i}")).collect()), 24..=24),
        n_vars in Just(n_vars),
    ) -> Query {
        let var_names: Vec<String> = (0..n_vars).map(|i| format!("V{i}")).collect();
        let mut statements: Vec<Statement> = Vec::new();
        for (i, pool) in pools.iter().enumerate() {
            statements.push(Statement::VarDecl(VarDecl {
                names: vec![Ident::synthetic(var_names[i].clone())],
                values: pool
                    .iter()
                    .map(|&addr| EndpointAst::Addr { addr, span: Span::DUMMY })
                    .collect(),
                span: Span::DUMMY,
            }));
        }
        let mut expr_iter = exprs.into_iter();
        for (i, (named, src_sel, dst_sel, attrs)) in flows.iter().enumerate() {
            // Choose endpoints: address, disk or variable, never disk->disk.
            let pick = |sel: usize, avoid_disk: bool| -> EndpointAst {
                match sel % 3 {
                    0 => EndpointAst::Addr { addr: (sel as u32) + 1, span: Span::DUMMY },
                    1 if !avoid_disk => EndpointAst::Disk { span: Span::DUMMY },
                    _ => EndpointAst::Name(Ident::synthetic(
                        var_names[sel % var_names.len()].clone())),
                }
            };
            let src = pick(*src_sel, false);
            let dst = pick(*dst_sel, matches!(src, EndpointAst::Disk { .. }));
            let mut seen = std::collections::HashSet::new();
            let attrs: Vec<Attr> = attrs
                .iter()
                .filter(|(kind, _)| seen.insert(*kind))
                .map(|(kind, _)| Attr {
                    kind: *kind,
                    // Size refs may cycle; keep sizes literal, others free.
                    value: if *kind == AttrKind::Size {
                        arb_literal_value(&mut expr_iter)
                    } else {
                        expr_iter.next().unwrap_or_else(|| Expr::literal(1.0))
                    },
                    span: Span::DUMMY,
                })
                .collect();
            statements.push(Statement::Flow(FlowDef {
                name: named.then(|| Ident::synthetic(format!("f{i}"))),
                src,
                dst,
                attrs,
                span: Span::DUMMY,
            }));
        }
        Query { statements }
    }
}

fn arb_literal_value(iter: &mut impl Iterator<Item = Expr>) -> Expr {
    // Strip refs out of an arbitrary expression so sizes stay acyclic.
    fn strip(e: Expr) -> Expr {
        match e {
            Expr::Ref { .. } => Expr::literal(7.0),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op,
                lhs: Box::new(strip(*lhs)),
                rhs: Box::new(strip(*rhs)),
            },
            lit => lit,
        }
    }
    strip(iter.next().unwrap_or_else(|| Expr::literal(1.0)))
}

/// Same tokens (kinds, payloads, spans) or the same error (message, span).
fn assert_lexers_agree(input: &str) {
    let new = lex(input).map(|tokens| {
        tokens
            .into_iter()
            .map(|t| reference_lexer::Token {
                kind: t.kind.into(),
                span: t.span,
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(new, reference_lexer::lex(input), "input: {input:?}");
}

/// The same `Query` or the same error from both parsers, then the same
/// `Problem` or the same error from both validators — each side with a
/// fresh interning resolver, so the names each asks for, and their order,
/// must match too.
fn assert_front_ends_agree(input: &str) {
    let query = parse_query(input);
    let reference = reference_parser::parser::parse_query(input);
    assert_eq!(query, reference, "input: {input:?}");
    let (Ok(query), Ok(reference)) = (query, reference) else {
        return;
    };
    let problem = resolve(&query, &InterningResolver::new());
    let expected = reference_parser::validate::resolve(&reference, &InterningResolver::new());
    assert_eq!(problem, expected, "input: {input:?}");
    // A resolver that knows no names fails where the reference fails.
    assert_eq!(
        resolve(&query, &MapResolver::new()),
        reference_parser::validate::resolve(&reference, &MapResolver::new()),
        "input: {input:?}"
    );
}

/// A declaration or a flow assembled from the grammar's parts, not always
/// well-formed: what a careless tenant might send.
fn arb_statement() -> impl Strategy<Value = String> {
    use proptest::sample::select;
    let endpoint = || select(vec!["A", "B", "disk", "10.0.0.1", "0.0.0.0", "x", "7", "("]);
    let attr = (
        select(vec![
            "size",
            "rate",
            "start",
            "end",
            "transfer",
            "transferred",
            "sz",
        ]),
        select(vec![
            "1",
            "256M",
            "r(f1)",
            "sz(f2)",
            "t(1)",
            "(1 + 2) * 3",
            "2 - 1 - 1",
            "1 / 0",
            "st(9)",
            "e(x)",
            "sz(f1) * 2",
            "-",
            "",
        ]),
    );
    prop_oneof![
        (
            proptest::option::of(select(vec!["f1", "f2", "A", "disk", "x"])),
            endpoint(),
            select(vec!["->", ">", "-", ""]),
            endpoint(),
            proptest::collection::vec(attr, 0..4),
        )
            .prop_map(|(name, src, arrow, dst, attrs)| {
                let attrs: Vec<String> = attrs.iter().map(|(k, v)| format!("{k} {v}")).collect();
                format!(
                    "{} {src} {arrow} {dst} {}",
                    name.unwrap_or(""),
                    attrs.join(" ")
                )
            }),
        (
            proptest::collection::vec(select(vec!["A", "B", "f1"]), 1..3),
            proptest::collection::vec(endpoint(), 0..4),
        )
            .prop_map(|(names, pool)| format!(
                "{} = ({})",
                names.join(" = "),
                pool.join(" ")
            )),
    ]
}

/// The serving path's query texts: a 3-replica write, a replica read and
/// an m = 4 reduce placement, over `pool` hosts drawn from `seed`.
fn hint_texts(pool: usize, seed: u32, bytes: f64) -> [String; 3] {
    let h: Vec<Address> = (0..=pool as u32)
        .map(|i| {
            Address(
                0x0A00_0000
                    | (seed.wrapping_mul(2_654_435_761).wrapping_add(i * 7_919) & 0x00FF_FFFF),
            )
        })
        .collect();
    [
        hdfs_write_query(h[0], &h[1..], 3, bytes).text(),
        hdfs_read_query(h[0], &h[1..], bytes).text(),
        reduce_placement_query(&h[1..], 4.min(pool), bytes).text(),
    ]
}

#[test]
fn front_end_matches_reference_on_malformed_inputs() {
    // Lexical errors after a syntax error still win, as they did when the
    // whole text was lexed first; so do errors met while a statement is
    // being classified.
    for input in [
        "f a -> ( b @",
        "A = (a b",
        "A = (a @",
        "A = ( 1.2.3 )",
        "x = y = @",
        "x = y = 12x",
        "f1 -> -> 10.0.0.999",
        "f a -> b size 1 + * 2 100Mbps",
        "f a -> b size ((1)",
        "f a -> b size r(f1 size 2",
        "f a -> b size sz(0)\ng c -> d",
        "A = (10.0.0.1a b)\nf A -> disk size 1",
        "A # c\n= (a)",
        "A = (a) B",
        "disk -> disk size 1",
        "f a -> b size 1 size 2 @",
        "f a -> b size 1 rate r(f) size 2",
        "f a -> b size sz(g)\ng b -> a size sz(f)",
        "A = (a b)\nA = (c)",
        "f a -> b size 1\nf b -> a size 1",
        "A = (a b)\nA b -> c size 1",
        "A = (10.0.0.255 10.0.0.256 255.255.255.255 1.2.3.0999)",
        "\u{e9}",
        "f a -> b rate 5 # trailing comment",
        "A=(a b);f A->c size 2K*3-1/4 rate r(1)+t(f)",
    ] {
        assert_front_ends_agree(input);
    }
}

#[test]
fn malformed_inputs_keep_their_diagnostics() {
    // (input, message, span) as the owned-token front end reported them.
    let cases = [
        (
            "10.0.0.999",
            "invalid IPv4 address `10.0.0.999`: octet 999 > 255",
            Span::new(0, 10),
        ),
        (
            "f a -> 10.0.0.99999999999 size 1",
            "invalid IPv4 address `10.0.0.99999999999`",
            Span::new(7, 25),
        ),
        (
            "1.2.3",
            "malformed number (expected float or dotted-quad IPv4)",
            Span::new(0, 5),
        ),
        (
            "100Mbps",
            "unexpected trailing characters after size suffix",
            Span::new(0, 5),
        ),
        ("12x", "unknown size suffix `x`", Span::new(2, 3)),
        ("a @ b", "unexpected character `@`", Span::new(2, 3)),
        (
            "A = (a b",
            "unclosed value pool: expected `)`",
            Span::new(8, 8),
        ),
    ];
    for (input, message, span) in cases {
        let err = parse_query(input).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.span),
            (message, span),
            "input: {input:?}"
        );
        if let Err(reference) = reference_lexer::lex(input) {
            assert_eq!(err, reference, "input: {input:?}");
        }
    }
    // Literals at the edges of the in-place number path.
    for input in [
        "999999999999999",
        "1000000000000000",
        "18446744073709551616K",
        "007",
        "2.50",
        "0.1G",
        "1.2.3.4.5",
        "010.000.0.1",
        "10.0.0.256",
        "1.2.3.0255",
        "7..9.9",
        "10.0..1",
        "1.2.3.",
        "1.2.3.4.",
        "256M;1T\n3k",
    ] {
        assert_lexers_agree(input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Old and new lexer agree on every printed query of the corpus.
    #[test]
    fn lexer_matches_reference_on_corpus(query in arb_query()) {
        assert_lexers_agree(&print_query(&query));
    }

    /// …and on "almost valid" inputs, where numbers, addresses and
    /// suffixes run into each other.
    #[test]
    fn lexer_matches_reference_on_fragments(parts in proptest::collection::vec(
        proptest::sample::select(vec![
            "A", "=", "(", ")", "->", ">", "-", "disk", "size", "256M", "1.5", "7", ".", "..",
            "r(f1)", "10.0.0.1", "300.1.2.3", "0.0.0.0", "1.2.3", "9G", "3x", ";", "\n", "#c",
            "_x1", "+", "*", "/",
        ]), 0..24), glue in proptest::sample::select(vec!["", " "]))
    {
        assert_lexers_agree(&parts.join(glue));
    }

    /// print → parse → print is a fixed point.
    #[test]
    fn print_parse_print_stable(query in arb_query()) {
        let printed = print_query(&query);
        let reparsed = match parse_query(&printed) {
            Ok(q) => q,
            // Queries referencing undefined flows are fine to *parse*;
            // only structural lex/parse failures are bugs.
            Err(e) => panic!("printed query failed to parse: {e}\n{printed}"),
        };
        let reprinted = print_query(&reparsed);
        prop_assert_eq!(printed, reprinted);
    }

    /// If the query resolves, the round-tripped query resolves identically.
    #[test]
    fn resolution_survives_round_trip(query in arb_query()) {
        let resolver = MapResolver::new();
        let Ok(p1) = resolve(&query, &resolver) else {
            // Some generated queries reference undefined flows — skip.
            return Ok(());
        };
        let printed = print_query(&query);
        let reparsed = parse_query(&printed).unwrap();
        let p2 = resolve(&reparsed, &resolver).unwrap();
        prop_assert_eq!(p1, p2);
    }

    /// The lexer never panics on arbitrary input, and fails exactly where
    /// and how the reference does.
    #[test]
    fn lexer_total(input in "\\PC{0,200}") {
        assert_lexers_agree(&input);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total(input in "\\PC{0,200}") {
        let _ = parse_query(&input);
    }

    /// The parser never panics on "almost valid" inputs built from
    /// language fragments.
    #[test]
    fn parser_total_on_fragments(parts in proptest::collection::vec(
        proptest::sample::select(vec![
            "A", "=", "(", ")", "->", "disk", "size", "rate", "256M",
            "r(f1)", "sz(f2)", "10.0.0.1", "0.0.0.0", ";", "\n", "+", "*",
        ]), 0..30))
    {
        let input = parts.join(" ");
        let _ = parse_query(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Text → `Problem` matches the reference on every printed query of
    /// the corpus…
    #[test]
    fn front_end_matches_reference_on_corpus(query in arb_query()) {
        assert_front_ends_agree(&print_query(&query));
    }

    /// …on the lexer's and the parser's fragments, and on the two mixed…
    #[test]
    fn front_end_matches_reference_on_fragments(parts in proptest::collection::vec(
        proptest::sample::select(vec![
            "A", "=", "(", ")", "->", ">", "-", "disk", "size", "rate", "transfer", "start",
            "256M", "1.5", "7", ".", "r(f1)", "sz(f2)", "t(1)", "e", "st", "10.0.0.1", "300.1.2.3",
            "0.0.0.0", "1.2.3", "9G", "3x", "100Mbps", "@", ";", "\n", "#c", "_x1", "f1", "+",
            "*", "/",
        ]), 0..30), glue in proptest::sample::select(vec!["", " "]))
    {
        assert_front_ends_agree(&parts.join(glue));
    }

    /// …on statements made of the grammar's own parts, well-formed or
    /// nearly — repeated attributes, unknown or self references, repeated
    /// and clashing names, empty pools…
    #[test]
    fn front_end_matches_reference_on_statements(statements in proptest::collection::vec(
        arb_statement(), 1..6), glue in proptest::sample::select(vec!["\n", ";", " ; \n"]))
    {
        assert_front_ends_agree(&statements.join(glue));
    }

    /// …on noise…
    #[test]
    fn front_end_matches_reference_on_noise(input in "\\PC{0,200}") {
        assert_front_ends_agree(&input);
    }

    /// …and on the serving path's shapes at 3-, 20- and 300-host pools,
    /// sizes anywhere from one byte to a few blocks.
    #[test]
    fn front_end_matches_reference_on_hint_shapes(
        seed in any::<u32>(),
        bytes in prop_oneof![1u64..2048, 0u64..(1 << 31)],
    ) {
        for pool in [3, 20, 300] {
            for text in hint_texts(pool, seed, bytes as f64) {
                assert_front_ends_agree(&text);
            }
        }
    }
}
