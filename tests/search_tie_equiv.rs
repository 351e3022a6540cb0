//! Oracle equivalence for the tie-aware exact search.
//!
//! The branch-and-bound cuts a subtree when its bound strictly exceeds
//! the shared incumbent *or* merely equals the worker's own best, and it
//! starts from the heuristic's makespan as incumbent. Neither may change
//! a single winner. The oracle is the search with every one of those
//! mechanisms off — unpruned, single-threaded, `EvalStrategy::Scratch`:
//! the plain sequential scan, first-found among the least makespans — and
//! the pruned search must return its binding and its makespan bit for
//! bit, at 1, 2 and 8 threads, under both strategies, on worlds chosen to
//! be full of ties.
//!
//! Lives in the root package so tier-1 `cargo test -q` reaches it.

use cloudtalk::exhaustive::{
    exhaustive_search_with, EvalStrategy, ExhaustiveError, ExhaustiveResult, SearchOptions,
};
use cloudtalk_lang::builder::{
    daisy_chain_query, hdfs_read_query, hdfs_write_query, reduce_placement_query, QueryBuilder,
};
use cloudtalk_lang::problem::{Address, Binding, Problem, Value};
use estimator::{estimate, HostState, World};

const MB: f64 = 1024.0 * 1024.0;
const LIMIT: u64 = 1_000_000;

fn addrs(range: std::ops::RangeInclusive<u32>) -> Vec<Address> {
    range.map(Address).collect()
}

fn daisy_chain(pool: &[Address], n_vars: usize, bytes: f64) -> Problem {
    daisy_chain_query(pool, n_vars, bytes)
        .resolve()
        .expect("well-formed")
}

/// The fig3 chain with hop `i` carried by `shards[i]` parallel transfers
/// of staggered sizes, one variable per pool: each hop is one multi-flow
/// rate component whose shards all contend on the same two NICs.
fn sharded_chain(pools: &[Vec<Address>], shards: &[usize]) -> Problem {
    assert_eq!(shards.len(), pools.len() - 1, "one shard count per hop");
    let mut b = QueryBuilder::new();
    let vars: Vec<_> = pools
        .iter()
        .enumerate()
        .map(|(i, p)| b.variable(format!("x{}", i + 1), p.iter().copied()))
        .collect();
    let mut prev = Vec::new();
    for (i, &n_shards) in shards.iter().enumerate() {
        let mut cur = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let f = b
                .flow(format!("f{}_{}", i + 1, s + 1))
                .from_var(vars[i])
                .to_var(vars[i + 1])
                .size((s + 1) as f64 * 32.0 * MB);
            let f = match prev.get(s) {
                Some(&h) => f.transfer_of(h),
                None => f,
            };
            cur.push(f.handle());
        }
        prev = cur;
    }
    b.resolve().expect("well-formed")
}

/// `relays` two-wide relay stages of `shards` transfers per hop, then a
/// single-flow gather into a `last`-wide final stage.
fn sharded_gather(relays: u32, shards: usize, last: u32) -> Problem {
    let mut pools: Vec<Vec<Address>> = (0..relays)
        .map(|i| vec![Address(2 * i + 1), Address(2 * i + 2)])
        .collect();
    pools.push(addrs(2 * relays + 1..=2 * relays + last));
    let mut hop_shards = vec![shards; relays as usize - 1];
    hop_shards.push(1);
    sharded_chain(&pools, &hop_shards)
}

/// Name, problem, and whether every binding moves bytes between two
/// hosts (so that every leaf stalls where no host has answered).
fn problems() -> Vec<(&'static str, Problem, bool)> {
    let write = |n: u32, bytes: f64| {
        hdfs_write_query(Address(1), &addrs(2..=n + 1), 3, bytes)
            .resolve()
            .expect("well-formed")
    };
    let read = |n: u32| {
        hdfs_read_query(Address(1), &addrs(2..=n + 1), 256.0 * MB)
            .resolve()
            .expect("well-formed")
    };
    let mut repeats = daisy_chain(&addrs(1..=5), 4, 100.0 * MB);
    // Values may repeat: hops can share a NIC or run as loopback, so
    // flows bound deeper join components rated above them.
    repeats.distinct = false;
    vec![
        ("hdfs_write_8x3", write(8, 256.0 * MB), true),
        // The paper's 20-server write: 20·19·18 = 6 840 bindings.
        ("hdfs_write_20x3", write(20, 256.0 * MB), true),
        ("hdfs_read_3", read(3), true),
        ("hdfs_read_6", read(6), true),
        (
            "daisy3_10addr",
            daisy_chain(&addrs(1..=10), 3, 100.0 * MB),
            true,
        ),
        (
            "daisy4_8addr",
            daisy_chain(&addrs(1..=8), 4, 100.0 * MB),
            true,
        ),
        (
            "daisy5_7addr",
            daisy_chain(&addrs(1..=7), 5, 100.0 * MB),
            true,
        ),
        (
            "daisy6_7addr",
            daisy_chain(&addrs(1..=7), 6, 100.0 * MB),
            true,
        ),
        ("daisy4_5addr_repeats", repeats, false),
        ("sharded_gather_small", sharded_gather(5, 4, 6), true),
        // Zero-byte flows finish at their start: every bound equals
        // every makespan.
        ("hdfs_write_6x3_zero_bytes", write(6, 0.0), false),
        (
            "daisy4_6addr_zero_bytes",
            daisy_chain(&addrs(1..=6), 4, 0.0),
            false,
        ),
        (
            "reduce_3_of_6",
            reduce_placement_query(&addrs(1..=6), 3, 64.0 * MB)
                .resolve()
                .expect("well-formed"),
            true,
        ),
        // More reducers than nodes: no distinct binding exists, and the
        // heuristic's value-reusing answer must not seed the incumbent.
        (
            "reduce_3_of_2",
            reduce_placement_query(&addrs(1..=2), 3, 64.0 * MB)
                .resolve()
                .expect("well-formed"),
            true,
        ),
    ]
}

fn loaded(load: f64) -> HostState {
    HostState::gbps_idle()
        .with_up_load(load)
        .with_down_load(load)
}

/// A world over `hosts` with the `i`-th host at `level(i)` load.
fn world_by(hosts: &[Address], level: impl Fn(usize) -> f64) -> World {
    let mut w = World::new();
    for (i, &a) in hosts.iter().enumerate() {
        w.set(a, loaded(level(i)));
    }
    w
}

/// The lopsided fleet the paper optimises for: three hosts in four at
/// 90 % load.
fn lopsided(i: usize) -> f64 {
    if i.is_multiple_of(4) {
        0.05
    } else {
        0.9
    }
}

fn worlds(problem: &Problem) -> Vec<(&'static str, World)> {
    let hosts = problem.mentioned_addresses();
    // What the server's reservation overlay does to a recommended host:
    // a full capacity's worth of extra usage, so nothing is left of it.
    let mut reserved = world_by(&hosts, lopsided);
    for &a in hosts.iter().skip(1).step_by(3) {
        let mut s = reserved.get(a);
        s.nic_up_used += s.nic_up_capacity;
        s.nic_down_used += s.nic_down_capacity;
        s.disk_read_used += s.disk_read_capacity;
        s.disk_write_used += s.disk_write_capacity;
        reserved.set(a, s);
    }
    // Every other host never answered.
    let mut half_known = World::new();
    for (i, &a) in hosts.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        half_known.set(a, loaded(lopsided(i / 2)));
    }
    // Mild, unequal loads on every host, up and down apart: few ties,
    // and a bound that rarely beats the incumbent.
    let mut mixed = World::new();
    for (i, &a) in hosts.iter().enumerate() {
        let up = 0.08 * (i % 11) as f64;
        let down = 0.06 * (i % 13) as f64;
        mixed.set(
            a,
            HostState::gbps_idle().with_up_load(up).with_down_load(down),
        );
    }
    vec![
        ("all_idle", world_by(&hosts, |_| 0.0)),
        ("two_level", world_by(&hosts, lopsided)),
        ("three_level", world_by(&hosts, |i| [0.05, 0.5, 0.9][i % 3])),
        ("all_unknown", World::new()),
        ("half_unknown", half_known),
        ("reserved", reserved),
        ("mixed", mixed),
    ]
}

fn oracle(problem: &Problem, world: &World) -> Result<ExhaustiveResult, ExhaustiveError> {
    let opts = SearchOptions::new(LIMIT)
        .threads(1)
        .prune(false)
        .eval(EvalStrategy::Scratch);
    exhaustive_search_with(problem, world, &opts)
}

/// What the oracle itself is held to: a recursion over
/// [`estimator::estimate`] that shares no code with the search — nested
/// loops, the same-pool clash skip, first-found strict `<` — returning the
/// winner and the number of leaves it reached.
fn plain_scan(problem: &Problem, world: &World) -> Result<(Binding, f64, u64), ExhaustiveError> {
    fn rec(
        problem: &Problem,
        world: &World,
        current: &mut Binding,
        best: &mut Option<(Binding, f64)>,
        leaves: &mut u64,
    ) {
        let idx = current.len();
        if idx == problem.vars.len() {
            *leaves += 1;
            if let Ok(e) = estimate(problem, current, world) {
                if best.as_ref().is_none_or(|(_, b)| e.makespan < *b) {
                    *best = Some((current.clone(), e.makespan));
                }
            }
            return;
        }
        let var = &problem.vars[idx];
        for &value in &var.candidates {
            let clash = problem.distinct
                && current
                    .iter()
                    .enumerate()
                    .any(|(j, v)| problem.vars[j].pool == var.pool && *v == value);
            if clash {
                continue;
            }
            current.push(value);
            rec(problem, world, current, best, leaves);
            current.pop();
        }
    }
    let (mut best, mut leaves) = (None, 0);
    rec(problem, world, &mut Binding::new(), &mut best, &mut leaves);
    best.map(|(b, m)| (b, m, leaves))
        .ok_or(ExhaustiveError::NoFeasibleBinding)
}

/// Binding and makespan bits, or the error.
fn outcome(
    r: &Result<ExhaustiveResult, ExhaustiveError>,
) -> Result<(&[Value], u64), &ExhaustiveError> {
    r.as_ref()
        .map(|r| (r.binding.as_slice(), r.makespan.to_bits()))
}

#[test]
fn the_oracle_is_the_plain_recursive_scan() {
    for (pname, problem, _) in problems() {
        for (wname, world) in worlds(&problem) {
            let plain = plain_scan(&problem, &world);
            let reference = oracle(&problem, &world);
            assert_eq!(
                outcome(&reference),
                plain.as_ref().map(|(b, m, _)| (b.as_slice(), m.to_bits())),
                "{pname}/{wname}"
            );
            // Unpruned, the search evaluates every leaf the scan reaches.
            if let (Ok(r), Ok((_, _, leaves))) = (&reference, &plain) {
                assert_eq!(r.evaluated, *leaves, "{pname}/{wname}: leaves evaluated");
            }
        }
    }
}

#[test]
fn pruned_search_returns_the_sequential_scan_winner_bit_for_bit() {
    let mut tie_cuts = 0u64;
    for (pname, problem, stalls_unanswered) in problems() {
        for (wname, world) in worlds(&problem) {
            let reference = oracle(&problem, &world);
            if wname == "all_unknown" && stalls_unanswered {
                assert_eq!(
                    reference.as_ref().err(),
                    Some(&ExhaustiveError::NoFeasibleBinding),
                    "{pname}/{wname}: every leaf stalls"
                );
            }
            for threads in [1usize, 2, 8] {
                for eval in [EvalStrategy::Scratch, EvalStrategy::Delta] {
                    // Effort with threads depends on how fast the shared
                    // incumbent travels; the winner must not. Twice, for
                    // two interleavings.
                    for _ in 0..if threads > 1 { 2 } else { 1 } {
                        let opts = SearchOptions::new(LIMIT).threads(threads).eval(eval);
                        let r = exhaustive_search_with(&problem, &world, &opts);
                        assert_eq!(
                            outcome(&r),
                            outcome(&reference),
                            "{pname}/{wname} threads={threads} eval={eval:?}"
                        );
                        if let (Ok(r), Ok(full)) = (&r, &reference) {
                            assert!(r.evaluated <= full.evaluated);
                            tie_cuts += r.pruned_ties;
                        }
                    }
                }
            }
        }
    }
    assert!(
        tie_cuts > 0,
        "the matrix must exercise the `>=` half of the rule"
    );
}

#[test]
fn tie_heavy_searches_stop_early() {
    // Full-size chains on the lopsided fleet. The strict-only rule walked
    // the first two in full with pruning on; a regression to tie-blind
    // pruning brings the full counts back.
    let cases = [
        (
            "fig3_daisy6_8addr",
            daisy_chain(&addrs(1..=8), 6, 100.0 * MB),
            20_160,
            100,
        ),
        ("fig3_sharded_gather", sharded_gather(7, 12, 15), 1_920, 16),
        // Five idle hosts in twenty: 60 bindings tie on the least
        // makespan, and a tie-blind cut evaluates every one of them.
        (
            "fig3_daisy3_20addr",
            daisy_chain(&addrs(1..=20), 3, 100.0 * MB),
            6_840,
            16,
        ),
    ];
    for (name, problem, space, at_most) in cases {
        let world = world_by(&problem.mentioned_addresses(), lopsided);
        let full = oracle(&problem, &world).expect("feasible");
        assert_eq!(full.evaluated, space, "{name}: the space the oracle scans");
        let opts = SearchOptions::new(LIMIT).eval(EvalStrategy::Delta);
        let r = exhaustive_search_with(&problem, &world, &opts).expect("feasible");
        assert_eq!(r.binding, full.binding, "{name}");
        assert_eq!(r.makespan.to_bits(), full.makespan.to_bits(), "{name}");
        assert!(
            r.evaluated <= at_most,
            "{name}: {} leaves evaluated of {space}, expected at most {at_most}",
            r.evaluated
        );
        assert!(r.pruned_ties > 0, "{name}: ties are what ends this search");
    }
}
