//! Pins what the query front end allocates: one vector per list the AST
//! and the problem hold, nothing per identifier or per token, and nothing
//! more for a larger pool. Names are stored in
//! place ([`cloudtalk_lang::Name`]), `resolve` compares them where they
//! are, and `QueryBuilder::resolve` reads the builder's own declarations
//! and flows rather than a copy of them.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use cloudtalk_lang::builder::{hdfs_write_query, QueryBuilder};
use cloudtalk_lang::problem::Address;
use cloudtalk_lang::{parse_query, resolve, MapResolver, Name};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

const BLOCK: f64 = 256.0 * 1024.0 * 1024.0;

fn hosts(n: u32) -> Vec<Address> {
    (1..=n).map(|i| Address(0x0A00_0000 + i)).collect()
}

/// Six disk flows over one variable, their names `prefix` + a digit; with
/// `refs`, every flow after the first also names its predecessor twice.
fn chain(prefix: &str, refs: bool) -> QueryBuilder {
    let mut b = QueryBuilder::new();
    let x = b.variable(format!("{prefix}x"), hosts(20));
    let mut prev = None;
    for i in 0..6 {
        let f = b
            .flow(format!("{prefix}{i}"))
            .from_var(x)
            .to_disk()
            .size(BLOCK);
        let f = match prev {
            Some(p) if refs => f.rate_of(p).transfer_of(p),
            _ => f,
        };
        prev = Some(f.handle());
    }
    b
}

/// Allocations of text → `Problem` and of `QueryBuilder::resolve`.
fn allocs(builder: &QueryBuilder) -> (u64, u64) {
    let text = builder.text();
    let resolver = MapResolver::new();
    let (from_text, _, parsed) = testkit::allocs_of(|| {
        let query = parse_query(&text).expect("parses");
        resolve(&query, &resolver).expect("resolves")
    });
    let (from_builder, _, built) = testkit::allocs_of(|| builder.resolve().expect("resolves"));
    assert_eq!(parsed, built, "both paths resolve to one problem");
    (from_text, from_builder)
}

#[test]
fn the_front_end_allocates_per_list_not_per_identifier() {
    // The commonest shape: a 3-replica write over 20 datanodes (14 and 5
    // since the parser stopped storing tokens; 15 and 5 before, 58 and 53
    // with a `String` per identifier).
    let h = hosts(21);
    let (from_text, from_builder) = allocs(&hdfs_write_query(h[0], &h[1..], 3, BLOCK));
    assert!(
        from_text <= 14,
        "text → Problem allocated {from_text} times"
    );
    assert!(
        from_builder <= 8,
        "QueryBuilder::resolve allocated {from_builder} times"
    );

    // Neither count moves with the size of the pool…
    let h = hosts(301);
    assert_eq!(
        allocs(&hdfs_write_query(h[0], &h[1..], 3, BLOCK)),
        (from_text, from_builder),
        "grew with pool size"
    );

    // …nor with how many identifiers the query has, nor with how long they
    // are while they fit in place.
    let plain = allocs(&chain("f", false));
    assert_eq!(
        allocs(&chain("f", true)),
        plain,
        "grew with identifier count"
    );
    let long = "f".repeat(Name::INLINE_CAP - 1);
    assert_eq!(
        allocs(&chain(&long, true)),
        plain,
        "grew with identifier length"
    );
}
