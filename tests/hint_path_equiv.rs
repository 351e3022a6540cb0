//! Oracle equivalence for the linear-time hint path.
//!
//! The heuristic kernel and `Problem::mentioned_addresses` were rewritten
//! to walk a problem once; the implementations they replaced are kept
//! here, verbatim in behaviour, as references. Every answer must stay
//! bit-identical: the binding, every score (compared by bit pattern), and
//! the *order* of the mentioned addresses (it is gather order, and so the
//! order the transport draws its loss randomness in).
//! `Problem::mentioned_addresses_and_sorted` must return that same list
//! and, beside it, the list sorted.
//!
//! Lives in the root package so tier-1 `cargo test -q` reaches it.

use std::collections::HashSet;

use cloudtalk::heuristic::{
    evaluate_query_scored, evaluate_query_scored_in, HeuristicConfig, HeuristicScratch,
};
use cloudtalk::score::{self, MAX_SCORE};
use cloudtalk_lang::problem::{Address, Binding, Endpoint, Flow, Problem, Value, VarId, Variable};
use desim::rng::{stream_rng, DetRng};
use estimator::{HostState, World};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

// --- reference: `mentioned_addresses` by `Vec::contains` ------------------

fn reference_mentioned_addresses(p: &Problem) -> Vec<Address> {
    let mut addrs: Vec<Address> = Vec::new();
    let mut push = |a: Address| {
        if a != Address::UNKNOWN && !addrs.contains(&a) {
            addrs.push(a);
        }
    };
    for var in &p.vars {
        for value in &var.candidates {
            if let Value::Addr(a) = value {
                push(*a);
            }
        }
    }
    for flow in &p.flows {
        for ep in [flow.src, flow.dst] {
            if let Endpoint::Addr(a) = ep {
                push(a);
            }
        }
    }
    addrs
}

/// The reference list and the reference list sorted: what
/// `mentioned_addresses_and_sorted` must return.
fn reference_both_halves(p: &Problem) -> (Vec<Address>, Vec<Address>) {
    let first = reference_mentioned_addresses(p);
    let mut sorted = first.clone();
    sorted.sort_unstable();
    (first, sorted)
}

// --- reference: the per-candidate `total_network_peers` scorer ------------

#[derive(Clone, Default)]
struct RefProfile {
    tx_peers: Vec<Address>,
    rx_peers: Vec<Address>,
    any_tx: bool,
    any_rx: bool,
    reads_disk: bool,
    writes_disk: bool,
    peer_endpoints: usize,
}

fn reference_evaluate(
    problem: &Problem,
    world: &World,
    cfg: &HeuristicConfig,
) -> (Binding, Vec<f64>) {
    let n = problem.vars.len();
    let profiles = ref_build_profiles(problem);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    if cfg.priority_binding {
        for (i, p) in profiles.iter().enumerate() {
            if ref_is_priority(problem, VarId(i), p) {
                order.push(i);
            }
        }
    }
    for i in 0..n {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    let mut binding: Vec<Option<Value>> = vec![None; n];
    let mut scores: Vec<f64> = vec![0.0; n];
    let pools = problem
        .vars
        .iter()
        .map(|v| v.pool)
        .max()
        .map_or(0, |m| m + 1);
    let mut taken: Vec<HashSet<Value>> = vec![HashSet::new(); pools];
    for &vi in &order {
        let var = &problem.vars[vi];
        let pool_taken = &taken[var.pool];
        let mut available: Vec<&Value> = var
            .candidates
            .iter()
            .filter(|v| !problem.distinct || !pool_taken.contains(v))
            .collect();
        if available.is_empty() {
            available = var.candidates.iter().collect();
        }
        let mut best: Option<(f64, Value)> = None;
        for &value in &available {
            let s = ref_score_value(problem, VarId(vi), *value, &profiles[vi], world, cfg);
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, *value));
            }
        }
        let (score, value) = best.expect("candidate pools are never empty");
        binding[vi] = Some(value);
        scores[vi] = score;
        if problem.distinct {
            taken[var.pool].insert(value);
        }
    }
    (binding.into_iter().map(|v| v.unwrap()).collect(), scores)
}

fn ref_score_value(
    problem: &Problem,
    var: VarId,
    value: Value,
    profile: &RefProfile,
    world: &World,
    cfg: &HeuristicConfig,
) -> f64 {
    match value {
        Value::Addr(addr) => {
            let state = world.get(addr);
            let w = cfg.weight;
            let net_rx = if ref_single_local_peer(problem, var, &profile.rx_peers, addr)
                || !profile.any_rx
            {
                MAX_SCORE
            } else {
                score::eval_rx(&state, w)
            };
            let net_tx = if ref_single_local_peer(problem, var, &profile.tx_peers, addr)
                || !profile.any_tx
            {
                MAX_SCORE
            } else {
                score::eval_tx(&state, w)
            };
            let disk_read = if profile.reads_disk {
                score::eval_disk_read(&state, w)
            } else {
                MAX_SCORE
            };
            let disk_write = if profile.writes_disk {
                score::eval_disk_write(&state, w)
            } else {
                MAX_SCORE
            };
            net_rx.min(net_tx).min(disk_read).min(disk_write)
        }
        Value::Disk => {
            let w = 1.0;
            let mut s = MAX_SCORE;
            for &peer in &profile.tx_peers {
                s = s.min(score::eval_disk_read(&world.get(peer), w));
            }
            for &peer in &profile.rx_peers {
                s = s.min(score::eval_disk_write(&world.get(peer), w));
            }
            if profile.tx_peers.is_empty() && profile.rx_peers.is_empty() {
                s = 0.0;
            }
            s
        }
    }
}

fn ref_single_local_peer(
    problem: &Problem,
    var: VarId,
    direction_peers: &[Address],
    addr: Address,
) -> bool {
    ref_total_network_peers(problem, var) == 1 && direction_peers == [addr]
}

fn ref_total_network_peers(problem: &Problem, var: VarId) -> usize {
    let mut peers: HashSet<Endpoint> = HashSet::new();
    for flow in &problem.flows {
        match (flow.src, flow.dst) {
            (Endpoint::Var(v), other) if v == var && other != Endpoint::Disk => {
                peers.insert(other);
            }
            (other, Endpoint::Var(v)) if v == var && other != Endpoint::Disk => {
                peers.insert(other);
            }
            _ => {}
        }
    }
    peers.len()
}

fn ref_is_priority(problem: &Problem, var: VarId, profile: &RefProfile) -> bool {
    if profile.peer_endpoints != 1 {
        return false;
    }
    let in_pool = |addr: Address| problem.vars[var.0].candidates.contains(&Value::Addr(addr));
    let rx_ok = profile.rx_peers.len() == 1 && in_pool(profile.rx_peers[0]);
    let tx_ok = profile.tx_peers.len() == 1 && in_pool(profile.tx_peers[0]);
    rx_ok || tx_ok
}

fn ref_build_profiles(problem: &Problem) -> Vec<RefProfile> {
    let mut profiles = vec![RefProfile::default(); problem.vars.len()];
    for flow in &problem.flows {
        if let Endpoint::Var(v) = flow.src {
            match flow.dst {
                Endpoint::Disk => profiles[v.0].writes_disk = true,
                Endpoint::Addr(a) => {
                    profiles[v.0].any_tx = true;
                    if !profiles[v.0].tx_peers.contains(&a) {
                        profiles[v.0].tx_peers.push(a);
                    }
                }
                Endpoint::Var(_) | Endpoint::Unknown => profiles[v.0].any_tx = true,
            }
        }
        if let Endpoint::Var(v) = flow.dst {
            match flow.src {
                Endpoint::Disk => profiles[v.0].reads_disk = true,
                Endpoint::Addr(a) => {
                    profiles[v.0].any_rx = true;
                    if !profiles[v.0].rx_peers.contains(&a) {
                        profiles[v.0].rx_peers.push(a);
                    }
                }
                Endpoint::Var(_) | Endpoint::Unknown => profiles[v.0].any_rx = true,
            }
        }
    }
    for (i, p) in profiles.iter_mut().enumerate() {
        p.peer_endpoints = ref_total_network_peers(problem, VarId(i));
    }
    profiles
}

// --- random problems -------------------------------------------------------

/// Pool sizes on both sides of the 32-address linear-dedup boundary, the
/// paper's 300-host pool, and ordinary small ones.
const POOL_SIZES: [usize; 9] = [1, 2, 5, 20, 31, 32, 33, 64, 300];

/// A random problem over addresses `1..=universe`: shared and disjoint
/// pools, repeats within and across pools, `disk` candidates, pools of
/// one id edited apart, and flows between variables, fixed hosts (inside
/// and outside the pools), `disk` and the unknown source.
fn random_problem(rng: &mut DetRng) -> Problem {
    let universe: u32 = *[8u32, 40, 400].choose(rng).unwrap();
    let mut problem = Problem {
        distinct: rng.gen_bool(0.8),
        ..Problem::default()
    };
    let n_pools = rng.gen_range(1..=3);
    for pool in 0..n_pools {
        let size = *POOL_SIZES.choose(rng).unwrap();
        let mut candidates: Vec<Value> = (0..size)
            .map(|_| {
                if rng.gen_bool(0.03) {
                    Value::Disk
                } else {
                    Value::Addr(Address(rng.gen_range(1..=universe)))
                }
            })
            .collect();
        if rng.gen_bool(0.5) {
            // Most real pools list a host once.
            let mut seen = HashSet::new();
            candidates.retain(|v| seen.insert(*v));
        }
        for k in 0..rng.gen_range(1..=3) {
            let mut own = candidates.clone();
            if k > 0 && rng.gen_bool(0.2) {
                // Same pool id, different list: the dedup may not assume
                // chained variables are copies.
                own.push(Value::Addr(Address(rng.gen_range(1..=universe))));
                own.swap_remove(0);
            }
            let name = format!("v{}", problem.vars.len());
            problem.vars.push(Variable::new(name, own, pool));
        }
    }
    let n_vars = problem.vars.len();
    let endpoint = |rng: &mut DetRng| match rng.gen_range(0..10) {
        0 => Endpoint::Disk,
        1 => Endpoint::Unknown,
        // `0.0.0.0` written as a fixed address must be skipped too.
        2 => Endpoint::Addr(Address::UNKNOWN),
        3..=5 => Endpoint::Addr(Address(rng.gen_range(1..=universe + 4))),
        _ => Endpoint::Var(VarId(rng.gen_range(0..n_vars))),
    };
    for i in 0..rng.gen_range(0..=10) {
        let src = endpoint(rng);
        let mut dst = endpoint(rng);
        if src == Endpoint::Disk && dst == Endpoint::Disk {
            dst = Endpoint::Var(VarId(0));
        }
        problem
            .flows
            .push(Flow::new(Some(format!("f{i}").into()), src, dst));
    }
    problem
}

/// Loads on most of the universe; the rest never answered.
fn random_world(rng: &mut DetRng, universe: u32) -> World {
    let mut w = World::new();
    for a in 1..=universe + 4 {
        if rng.gen_bool(0.9) {
            let mut s = HostState::gbps_idle()
                .with_up_load(f64::from(rng.gen_range(0..=10u8)) / 10.0)
                .with_down_load(f64::from(rng.gen_range(0..=10u8)) / 10.0);
            s.disk_read_used = s.disk_read_capacity * f64::from(rng.gen_range(0..=4u8)) / 4.0;
            s.disk_write_used = s.disk_write_capacity * f64::from(rng.gen_range(0..=4u8)) / 4.0;
            w.set(Address(a), s);
        }
    }
    w
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Address order included.
    #[test]
    fn mentioned_addresses_match_the_contains_dedup(seed in any::<u64>()) {
        let p = random_problem(&mut stream_rng(seed, 1));
        prop_assert_eq!(p.mentioned_addresses(), reference_mentioned_addresses(&p));
        prop_assert_eq!(p.mentioned_addresses_and_sorted(), reference_both_halves(&p));
    }

    /// Binding and every score, bit for bit, fresh scratch and reused.
    #[test]
    fn heuristic_matches_the_per_candidate_scorer(seed in any::<u64>(), knobs in 0u8..4) {
        let mut rng = stream_rng(seed, 2);
        let cfg = HeuristicConfig {
            priority_binding: knobs & 1 == 0,
            weight: if knobs & 2 == 0 { 2.0 } else { 0.6 },
        };
        // One scratch across problems of different shapes: nothing of an
        // earlier problem may leak into a later answer.
        let mut scratch = HeuristicScratch::new();
        for _ in 0..3 {
            let p = random_problem(&mut rng);
            let w = random_world(&mut rng, 400);
            let (want_b, want_s) = reference_evaluate(&p, &w, &cfg);
            let (b, s) = evaluate_query_scored(&p, &w, &cfg);
            prop_assert_eq!(&b, &want_b);
            prop_assert_eq!(bits(&s), bits(&want_s));
            let (b, s) = evaluate_query_scored_in(&p, &w, &cfg, &mut scratch);
            prop_assert_eq!(&b, &want_b);
            prop_assert_eq!(bits(&s), bits(&want_s));
        }
    }
}

/// The named pool sizes, each as a plain 3-replica write and with the
/// writer also in the pool (the priority rule's case).
#[test]
fn boundary_pool_sizes_agree() {
    use cloudtalk_lang::builder::hdfs_write_query;
    for &size in &[1usize, 31, 32, 33, 300] {
        for writer in [Address(9_000), Address(3)] {
            let nodes: Vec<Address> = (0..size as u32)
                .map(|i| Address(2 + (i * 7) % 401))
                .collect();
            let p = hdfs_write_query(writer, &nodes, 3, 1e6).resolve().unwrap();
            assert_eq!(
                p.mentioned_addresses(),
                reference_mentioned_addresses(&p),
                "size {size}"
            );
            assert_eq!(
                p.mentioned_addresses_and_sorted(),
                reference_both_halves(&p),
                "size {size}"
            );
            let w = random_world(&mut stream_rng(size as u64, 3), 400);
            let cfg = HeuristicConfig::default();
            let (b, s) = evaluate_query_scored(&p, &w, &cfg);
            let (want_b, want_s) = reference_evaluate(&p, &w, &cfg);
            assert_eq!(b, want_b, "size {size}");
            assert_eq!(bits(&s), bits(&want_s), "size {size}");
        }
    }
}
