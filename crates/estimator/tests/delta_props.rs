//! Property suite pinning the [`DeltaEstimator`] to the scratch oracle:
//! random candidate sequences with interleaved apply/undo (push, pop)
//! against three query topologies must produce **bit-identical**
//! `Estimate`s — `==` on every field plus raw-bit checks on makespan and
//! finish times, never an EPS band — at every step.
//!
//! This is the correctness bar of delta-rated candidate evaluation: both
//! paths rate a component with the same per-component simulation code on
//! the same canonical inputs, so nothing may diverge, ever — not even in
//! the last mantissa bit.
//!
//! A value is pushed with its index in the pool, and the estimator reads
//! the value's host slot from that index. A twin estimator pushed the
//! *first* index of each value must agree with it bit for bit — on
//! estimates and on `component_lower_bound` — at every step, including on
//! pools where a value sits at more than one index.

use cloudtalk_lang::builder::{daisy_chain_query, hdfs_write_query, QueryBuilder};
use cloudtalk_lang::problem::{Address, Problem, Value};
use desim::rng::stream_rng;
use estimator::{estimate, DeltaEstimator, HostState, World};
use proptest::prelude::*;
use rand::Rng;

const NIC: f64 = 125e6;

/// Figure-3 daisy chain: two resource-disjoint components linked only by
/// a `transfer` precedence — the delta path's best case.
fn daisy(addrs: &[Address]) -> Problem {
    daisy_chain_query(addrs, 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed")
}

/// Everything else the estimator supports in one query: deadlines, disk
/// endpoints, unknown sources, start offsets, rate caps, fixed flows.
fn mixed(addrs: &[Address]) -> Problem {
    let mut b = QueryBuilder::new();
    let src = b.variable("src", addrs[2..8].iter().copied());
    let dst = b.variable("dst", addrs[4..10].iter().copied());
    b.flow("f1")
        .from_var(src)
        .to_addr(addrs[0])
        .size(200e6)
        .end(4.0);
    b.flow("f2").from_var(dst).to_disk().size(150e6);
    b.flow("f3")
        .from_addr(addrs[1])
        .to_var(dst)
        .size(80e6)
        .start(0.5)
        .rate(NIC / 4.0);
    b.flow("f4").from_unknown().to_addr(addrs[0]).size(50e6);
    b.flow("f5").from_disk().to_var(src).size(120e6);
    b.resolve().expect("well-formed")
}

/// [`mixed`] with every pool's first two values repeated and `disk`
/// appended: the same value at two indices, and a candidate with no host.
fn repeats(addrs: &[Address]) -> Problem {
    let mut p = mixed(addrs);
    for var in &mut p.vars {
        let again = var.candidates[..2].to_vec();
        var.candidates.extend(again);
        var.candidates.push(Value::Disk);
    }
    p
}

fn topo_for(pick: u8) -> Problem {
    let addrs: Vec<Address> = (1..=12).map(Address).collect();
    match pick % 4 {
        0 => daisy(&addrs),
        // Rate-coupled pipeline: one big component, the delta path's
        // worst case (no component ever survives a move untouched).
        1 => hdfs_write_query(Address(1), &addrs[1..], 3, 256e6)
            .resolve()
            .expect("well-formed"),
        2 => mixed(&addrs),
        _ => repeats(&addrs),
    }
}

/// Discrete load levels so cross-path floating-point coincidences cannot
/// occur by accident (same idea as the engine oracle suite).
fn world_for(problem: &Problem, seed: u64) -> World {
    let mut rng = stream_rng(seed, 0xDE17A);
    let levels = [0.0, 0.05, 0.3, 0.6, 0.9];
    let mut w = World::new();
    for a in problem.mentioned_addresses() {
        let s = HostState::idle(NIC, 450e6)
            .with_up_load(levels[rng.gen_range(0..5usize)])
            .with_down_load(levels[rng.gen_range(0..5usize)]);
        w.set(a, s);
    }
    w
}

/// One delta-vs-scratch comparison at the current (possibly partial)
/// binding. Partial bindings must error identically (`BindingArity`);
/// full bindings must agree on the entire `Estimate` — and on the raw
/// bits of every float in it.
fn check_step(
    de: &mut DeltaEstimator,
    problem: &Problem,
    mirror: &Vec<Value>,
    world: &World,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(de.depth(), mirror.len());
    prop_assert_eq!(de.binding(), mirror);
    let got = de.estimate();
    let want = estimate(problem, mirror, world);
    prop_assert_eq!(&got, &want, "delta vs scratch diverged at {:?}", mirror);
    if let (Ok(g), Ok(w)) = (&got, &want) {
        prop_assert_eq!(g.makespan.to_bits(), w.makespan.to_bits(), "makespan bits");
        for (a, b) in g.flow_finish.iter().zip(w.flow_finish.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "finish bits");
        }
    }
    Ok(())
}

/// [`check_step`] for the estimator pushed each value's drawn index and
/// for its twin pushed the value's first index, then the two against each
/// other: same slots, same prefix bound to the bit, same work counters.
fn check_twins(
    de: &mut DeltaEstimator,
    twin: &mut DeltaEstimator,
    problem: &Problem,
    mirror: &Vec<Value>,
    world: &World,
) -> Result<(), TestCaseError> {
    check_step(de, problem, mirror, world)?;
    check_step(twin, problem, mirror, world)?;
    prop_assert_eq!(de.slots(), twin.slots());
    let (lb, twin_lb) = (de.component_lower_bound(), twin.component_lower_bound());
    prop_assert_eq!(lb.to_bits(), twin_lb.to_bits(), "prefix bound bits");
    prop_assert_eq!(de.stats(), twin.stats());
    Ok(())
}

fn drive(problem: &Problem, world: &World, seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let mut rng = stream_rng(seed, 0x0D17);
    let mut de = DeltaEstimator::new(problem, world).expect("statically supported problem");
    let mut twin = de.clone();
    let n_vars = problem.vars.len();
    let mut mirror: Vec<Value> = Vec::new();
    // Candidate `k` (mod the pool) of variable `v`: the value, its index
    // and the first index that holds the same value.
    let cand = |v: usize, k: usize| {
        let pool = &problem.vars[v].candidates;
        let index = k % pool.len();
        let first = pool
            .iter()
            .position(|&c| c == pool[index])
            .expect("in the pool");
        (pool[index], index, first)
    };
    let push = |de: &mut DeltaEstimator, twin: &mut DeltaEstimator, mirror: &mut Vec<Value>, k| {
        let (val, index, first) = cand(mirror.len(), k);
        de.push(val, index);
        twin.push(val, first);
        mirror.push(val);
    };
    let mut estimates = 0u64;
    for _ in 0..steps {
        let roll = rng.gen_range(0..100u32);
        if roll < 35 && mirror.len() < n_vars {
            push(&mut de, &mut twin, &mut mirror, rng.gen_range(0..64usize));
        } else if roll < 60 && !mirror.is_empty() {
            de.pop();
            twin.pop();
            mirror.pop();
        } else if roll < 70 {
            // Rating a prefix ahead of its leaves only warms the cache:
            // every later comparison must still hold to the bit.
            de.rate_prefix();
            twin.rate_prefix();
        } else {
            check_twins(&mut de, &mut twin, problem, &mirror, world)?;
            // `stats.estimates` counts served leaf estimates; partial
            // bindings are rejected by the arity check before counting.
            if mirror.len() == n_vars {
                estimates += 1;
            }
        }
    }
    // Finish with a full descent so every run compares at least one leaf.
    while mirror.len() < n_vars {
        push(&mut de, &mut twin, &mut mirror, rng.gen_range(0..64usize));
    }
    check_twins(&mut de, &mut twin, problem, &mirror, world)?;
    estimates += 1;
    prop_assert_eq!(de.stats().estimates, estimates);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline invariant: delta-rated == scratch-built, bit for bit,
    /// at every step of a random apply/undo walk.
    #[test]
    fn delta_matches_scratch_bitwise(
        seed in any::<u64>(),
        steps in 10usize..60,
        topo_pick in 0u8..4,
    ) {
        let problem = topo_for(topo_pick);
        let world = world_for(&problem, seed ^ 0x5EED);
        drive(&problem, &world, seed, steps)?;
    }
}

/// The caching mechanism itself, pinned deterministically on the daisy
/// query: moving only the innermost variable re-rates only the second
/// component and replays the first.
#[test]
fn daisy_inner_move_rerates_one_component() {
    let addrs: Vec<Address> = (1..=12).map(Address).collect();
    let problem = daisy(&addrs);
    let world = world_for(&problem, 7);
    let mut de = DeltaEstimator::new(&problem, &world).unwrap();
    de.push(Value::Addr(addrs[0]), 0);
    de.push(Value::Addr(addrs[1]), 1);
    de.push(Value::Addr(addrs[2]), 2);
    let first = de.estimate_summary().unwrap();
    // f1 {x1.up, x2.down} and f2 {x2.up, x3.down} share no resource.
    assert_eq!(de.stats().components_rerated, 2);
    assert_eq!(de.stats().components_reused, 0);

    de.pop();
    de.push(Value::Addr(addrs[3]), 3);
    let second = de.estimate_summary().unwrap();
    // Only f2's component moved; f1's rating is replayed from the cache.
    assert_eq!(de.stats().components_rerated, 3);
    assert_eq!(de.stats().components_reused, 1);

    // And both match the scratch oracle bit-for-bit.
    let scratch_a = estimate(
        &problem,
        &vec![
            Value::Addr(addrs[0]),
            Value::Addr(addrs[1]),
            Value::Addr(addrs[2]),
        ],
        &world,
    )
    .unwrap();
    let scratch_b = estimate(
        &problem,
        &vec![
            Value::Addr(addrs[0]),
            Value::Addr(addrs[1]),
            Value::Addr(addrs[3]),
        ],
        &world,
    )
    .unwrap();
    assert_eq!(first.makespan.to_bits(), scratch_a.makespan.to_bits());
    assert_eq!(second.makespan.to_bits(), scratch_b.makespan.to_bits());
}

/// The prefix bound: after popping back above a rated component whose
/// flows are all determined by the remaining prefix, the bound is exactly
/// that component's rating — and it never exceeds any reachable makespan.
#[test]
fn component_lower_bound_is_admissible() {
    let addrs: Vec<Address> = (1..=12).map(Address).collect();
    let problem = daisy(&addrs);
    let world = world_for(&problem, 11);
    let mut de = DeltaEstimator::new(&problem, &world).unwrap();
    assert_eq!(de.component_lower_bound(), 0.0, "cold cache bounds nothing");
    de.push(Value::Addr(addrs[0]), 0);
    de.push(Value::Addr(addrs[1]), 1);
    de.push(Value::Addr(addrs[2]), 2);
    de.estimate_summary().unwrap();
    de.pop();
    // f1 (x1→x2) is determined at depth 2 and untouched by the pop.
    let lb = de.component_lower_bound();
    assert!(lb > 0.0, "rated determined component must bound");
    // Admissible: no choice of x3 beats the bound.
    for (k, &a) in addrs.iter().enumerate() {
        de.push(Value::Addr(a), k);
        let m = de.estimate_summary().unwrap().makespan;
        assert!(lb <= m, "lb {lb} > makespan {m} for x3={a:?}");
        de.pop();
    }
}

/// A prefix can be bounded before any leaf under it has been estimated,
/// and the bound is the very finish time those leaves then report.
#[test]
fn rate_prefix_bounds_a_prefix_on_first_visit() {
    let addrs: Vec<Address> = (1..=12).map(Address).collect();
    let problem = daisy(&addrs);
    let world = world_for(&problem, 11);
    let mut de = DeltaEstimator::new(&problem, &world).unwrap();
    de.push(Value::Addr(addrs[0]), 0);
    de.rate_prefix();
    assert_eq!(
        de.component_lower_bound(),
        0.0,
        "x1 alone determines no flow"
    );
    de.push(Value::Addr(addrs[1]), 1);
    assert_eq!(de.component_lower_bound(), 0.0, "nothing rated yet");
    de.rate_prefix();
    let lb = de.component_lower_bound();
    assert_eq!(de.stats().components_rerated, 1, "f1 rated at the prefix");
    for (k, &a) in addrs.iter().enumerate().skip(2) {
        de.push(Value::Addr(a), k);
        de.estimate_summary().unwrap();
        assert_eq!(lb.to_bits(), de.flow_finish()[0].to_bits(), "x3={a:?}");
        de.pop();
    }
    // Every leaf replayed f1 and rated only its own f2.
    assert_eq!(de.stats().components_reused, 10);
    assert_eq!(de.stats().components_rerated, 11);
}

/// Only a component no open flow can join bounds its prefix. With
/// same-pool variables free to repeat, `f2 x2 -> x3` may yet land on the
/// NIC `f1` receives on, and re-rating `f1` in company can move the last
/// bit of its finish time either way — so its lone rating bounds nothing.
#[test]
fn a_component_an_open_flow_can_join_bounds_nothing() {
    let addrs: Vec<Address> = (1..=12).map(Address).collect();
    let mut problem = daisy(&addrs);
    let world = world_for(&problem, 11);
    for (distinct, bounds) in [(true, true), (false, false)] {
        problem.distinct = distinct;
        let mut de = DeltaEstimator::new(&problem, &world).unwrap();
        de.push(Value::Addr(addrs[0]), 0);
        de.push(Value::Addr(addrs[1]), 1);
        de.rate_prefix();
        assert_eq!(
            de.component_lower_bound() > 0.0,
            bounds,
            "distinct={distinct}"
        );
    }
}
