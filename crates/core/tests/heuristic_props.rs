//! Property tests for the query-evaluation heuristic.

use cloudtalk::heuristic::{evaluate_query, evaluate_query_scored, HeuristicConfig};
use cloudtalk::sampling::sample_candidates;
use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query, reduce_placement_query};
use cloudtalk_lang::problem::{Address, Problem, Value};
use desim::rng::stream_rng;
use estimator::{estimate, HostState, World};
use proptest::prelude::*;


fn world_from(loads: &[(u8, u8)]) -> World {
    // Host i gets load pair loads[i % len] interpreted as tenths.
    let addrs: Vec<Address> = (1..=30).map(Address).collect();
    let mut w = World::uniform(&addrs, HostState::gbps_idle());
    for (i, &a) in addrs.iter().enumerate() {
        if loads.is_empty() {
            break;
        }
        let (up, down) = loads[i % loads.len()];
        w.set(
            a,
            HostState::gbps_idle()
                .with_up_load(f64::from(up % 10) / 10.0)
                .with_down_load(f64::from(down % 10) / 10.0),
        );
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every variable is always bound, and same-pool bindings are distinct
    /// whenever the pool is large enough.
    #[test]
    fn binding_is_complete_and_distinct(
        n_nodes in 4usize..20,
        loads in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..10),
    ) {
        let nodes: Vec<Address> = (2..2 + n_nodes as u32).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256e6).resolve().unwrap();
        let w = world_from(&loads);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        prop_assert_eq!(b.len(), 3);
        let set: std::collections::HashSet<&Value> = b.iter().collect();
        prop_assert_eq!(set.len(), 3, "distinct replicas");
        for v in &b {
            prop_assert!(matches!(v, Value::Addr(a) if nodes.contains(a)));
        }
    }

    /// For single-variable read queries the heuristic is optimal w.r.t.
    /// the flow-level estimator (the paper's §5.1 claim).
    #[test]
    fn single_variable_reads_are_optimal(
        loads in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..10),
    ) {
        let replicas: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_read_query(Address(1), &replicas, 256e6).resolve().unwrap();
        let w = world_from(&loads);
        let chosen = evaluate_query(&p, &w, &HeuristicConfig::default());
        let t_chosen = estimate(&p, &chosen, &w).unwrap().makespan;
        for &r in &replicas {
            let t = estimate(&p, &vec![Value::Addr(r)], &w).unwrap().makespan;
            prop_assert!(
                t_chosen <= t * (1.0 + 1e-9),
                "picked {chosen:?} at {t_chosen}s but {r} gives {t}s"
            );
        }
    }

    /// Loading the chosen host strictly more never makes the heuristic
    /// *prefer* it over a previously equal alternative.
    #[test]
    fn more_load_never_attracts(extra in 0.05f64..0.5) {
        let replicas = [Address(2), Address(3)];
        let p = hdfs_read_query(Address(1), &replicas, 256e6).resolve().unwrap();
        let w = World::uniform(
            &p.mentioned_addresses(),
            HostState::gbps_idle(),
        );
        let first = evaluate_query(&p, &w, &HeuristicConfig::default());
        let Value::Addr(chosen) = first[0] else { panic!("address pool") };
        // Load the chosen one; the other must now win.
        let mut w2 = w.clone();
        w2.set(chosen, HostState::gbps_idle().with_up_load(extra));
        let second = evaluate_query(&p, &w2, &HeuristicConfig::default());
        prop_assert_ne!(second[0], Value::Addr(chosen));
    }

    /// Scores are reported for every variable and respect the chosen
    /// ordering (the bound value's score is the max among the pool at
    /// bind time, so re-running with that pool pre-restricted to the
    /// winner gives the same score).
    #[test]
    fn scored_evaluation_is_consistent(
        loads in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..10),
        d in 2usize..6,
    ) {
        let nodes: Vec<Address> = (1..=12).map(Address).collect();
        let p = reduce_placement_query(&nodes, d, 1e9).resolve().unwrap();
        let w = world_from(&loads);
        let (binding, scores) = evaluate_query_scored(&p, &w, &HeuristicConfig::default());
        prop_assert_eq!(binding.len(), d);
        prop_assert_eq!(scores.len(), d);
        for s in &scores {
            prop_assert!(!s.is_nan());
        }
    }

    /// Sampling a problem never invents candidates and never changes the
    /// fixed endpoints.
    #[test]
    fn sampling_is_a_restriction(budget in 3usize..40, seed in any::<u64>()) {
        let nodes: Vec<Address> = (2..202).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256e6).resolve().unwrap();
        let mut rng = stream_rng(seed, 0);
        let s = sample_candidates(&p, budget, &mut rng);
        prop_assert_eq!(s.flows.len(), p.flows.len());
        for (sv, pv) in s.vars.iter().zip(&p.vars) {
            prop_assert!(sv.candidates.len() <= pv.candidates.len());
            prop_assert!(sv.candidates.len() >= 3.min(pv.candidates.len()));
            for c in &sv.candidates {
                prop_assert!(pv.candidates.contains(c));
            }
        }
        // Evaluation of the sampled problem still yields a valid binding.
        let w = World::uniform(&p.mentioned_addresses(), HostState::gbps_idle());
        let b = evaluate_query(&s, &w, &HeuristicConfig::default());
        prop_assert_eq!(b.len(), 3);
    }

    /// The heuristic never panics on arbitrary load states or weights.
    #[test]
    fn heuristic_total(
        loads in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
        weight in 0.1f64..16.0,
        priority in any::<bool>(),
    ) {
        let nodes: Vec<Address> = (1..=10).map(Address).collect();
        let p = reduce_placement_query(&nodes, 4, 1e9).resolve().unwrap();
        let w = world_from(&loads);
        let cfg = HeuristicConfig {
            weight,
            priority_binding: priority,
        };
        let b = evaluate_query(&p, &w, &cfg);
        prop_assert_eq!(b.len(), 4);
    }
}

/// Non-proptest: the heuristic runs in O(n·p)-ish time, so a big instance
/// completes quickly even in debug builds.
#[test]
fn large_instance_is_fast() {
    let nodes: Vec<Address> = (1..=3000).map(Address).collect();
    let p: Problem = reduce_placement_query(&nodes, 30, 1e9).resolve().unwrap();
    let w = World::uniform(&p.mentioned_addresses(), HostState::gbps_idle());
    let start = std::time::Instant::now();
    let b = evaluate_query(&p, &w, &HeuristicConfig::default());
    assert_eq!(b.len(), 30);
    assert!(
        start.elapsed().as_secs_f64() < 5.0,
        "3000x30 instance took {:?}",
        start.elapsed()
    );
}
