//! An expression nests at most `MAX_EXPR_DEPTH` deep, counting parentheses
//! and operator chains alike. Deeper text used to overflow the stack — an
//! abort, not a panic — in the parser or in whatever walked its tree next;
//! now it is a `LangError` at the token that passes the limit, and text
//! exactly at the limit still parses, resolves, prints, evaluates and
//! drops. Everything runs on a 2 MiB thread, the default for a spawned one.

use cloudtalk_lang::ast::AttrKind;
use cloudtalk_lang::parser::MAX_EXPR_DEPTH;
use cloudtalk_lang::printer::print_query;
use cloudtalk_lang::problem::Address;
use cloudtalk_lang::{parse_query, resolve, MapResolver, Span};

const PREFIX: &str = "f a -> b size ";

/// `size ((…1…))`, `depth` parentheses deep.
fn nested(depth: usize) -> String {
    format!("{PREFIX}{}1{}", "(".repeat(depth), ")".repeat(depth))
}

/// `size 1+1+…+1`, `ops` operators long.
fn chained(ops: usize) -> String {
    format!("{PREFIX}1{}", "+1".repeat(ops))
}

fn on_a_small_stack(test: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(test)
        .expect("spawns")
        .join()
        .expect("no panic, no overflow");
}

#[test]
fn deep_expressions_are_rejected_not_overflowed() {
    on_a_small_stack(|| {
        let past = PREFIX.len() + MAX_EXPR_DEPTH;
        let op = PREFIX.len() + 1 + 2 * MAX_EXPR_DEPTH;
        let cases = [
            // The text that used to abort, 10 KB each.
            (nested(5_000), Span::new(past, past + 1)),
            (chained(19_999), Span::new(op, op + 1)),
            // One level past the limit.
            (nested(MAX_EXPR_DEPTH + 1), Span::new(past, past + 1)),
            (chained(MAX_EXPR_DEPTH + 1), Span::new(op, op + 1)),
        ];
        for (text, span) in cases {
            let err = parse_query(&text).expect_err("too deep");
            assert_eq!(
                (err.message.as_str(), err.span),
                ("expression nested deeper than 256 levels", span)
            );
        }

        let resolver = MapResolver::new()
            .with("a", Address(1))
            .with("b", Address(2));
        for (text, value) in [
            (nested(MAX_EXPR_DEPTH), 1.0),
            (chained(MAX_EXPR_DEPTH), (MAX_EXPR_DEPTH + 1) as f64),
        ] {
            let query = parse_query(&text).expect("at the limit");
            let problem = resolve(&query, &resolver).expect("resolves");
            let size = problem.flows[0].attr(AttrKind::Size).expect("has a size");
            assert_eq!(size.eval(&|_, _| 0.0), value);
            let printed = parse_query(&print_query(&query)).expect("printed text parses");
            assert_eq!(resolve(&printed, &resolver), Ok(problem));
        }
    });
}
