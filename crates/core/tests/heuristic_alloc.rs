//! Pins the heuristic's allocation behaviour to its complexity claim: a
//! candidate is scored from its variable's precomputed profile, so no
//! per-candidate work touches the heap. With a warm scratch an evaluation
//! allocates exactly the binding and the scores it returns, whatever the
//! number of variables `n` and candidates `p`. (Before, every candidate
//! rebuilt two hash sets over the flows: `2·n·p` allocations, 1 800 for a
//! 300-host write.) A whole answer through the server's evaluation core,
//! which adds only per-query buffers whose *count* does not depend on
//! `n·p`, is pinned beside that core, in `server::tests`.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use cloudtalk::heuristic::{evaluate_query_scored_in, HeuristicConfig, HeuristicScratch};
use cloudtalk_lang::builder::{hdfs_write_query, reduce_placement_query};
use cloudtalk_lang::problem::{Address, Problem};
use estimator::{HostState, World};
use testkit::allocs_of;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

fn nodes(p: usize) -> Vec<Address> {
    (2..2 + p as u32).map(Address).collect()
}

/// `(n, p, problem)`: 3-replica writes over 20 and 300 hosts, and 12
/// reducers over 300.
fn shapes() -> Vec<(usize, usize, Problem)> {
    vec![
        (
            3,
            20,
            hdfs_write_query(Address(1), &nodes(20), 3, 1e6)
                .resolve()
                .unwrap(),
        ),
        (
            3,
            300,
            hdfs_write_query(Address(1), &nodes(300), 3, 1e6)
                .resolve()
                .unwrap(),
        ),
        (
            12,
            300,
            reduce_placement_query(&nodes(300), 12, 1e6)
                .resolve()
                .unwrap(),
        ),
    ]
}

#[test]
fn warm_heuristic_allocations_do_not_grow_with_candidates() {
    let hosts: Vec<Address> = (1..=302).map(Address).collect();
    let mut world = World::uniform(&hosts, HostState::gbps_idle());
    for (i, &a) in hosts.iter().enumerate() {
        world.set(a, HostState::gbps_idle().with_up_load(0.1 * (i % 7) as f64));
    }
    let cfg = HeuristicConfig::default();

    // The kernel: binding + scores, nothing else.
    let mut scratch = HeuristicScratch::new();
    for (n, p, problem) in shapes() {
        let warm = evaluate_query_scored_in(&problem, &world, &cfg, &mut scratch);
        let (allocs, _, again) =
            allocs_of(|| evaluate_query_scored_in(&problem, &world, &cfg, &mut scratch));
        assert_eq!(again, warm);
        assert_eq!(
            allocs, 2,
            "n={n} p={p}: a warm evaluation allocates its binding and its scores only"
        );
    }
}
