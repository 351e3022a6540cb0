//! Determinism suite for the packet-level search backend: whatever the
//! worker-thread count {1, 2, 8} and whichever optimisations are on
//! (symmetry memoisation, incumbent early-abort), the search must return
//! the same winner — same binding, makespan bit for bit — as the plain
//! serial no-memo no-abort scan. The optimisations trade work, never
//! answers.
//!
//! The scenario is deliberately asymmetric: a two-tier fabric where one
//! candidate rack is shared with the pinned frontend and another is not,
//! so equivalence classes have genuinely different makespans and the
//! tie-break discipline is exercised across class boundaries.
//!
//! The memoiser additionally treats whole racks as interchangeable (see
//! `cloudtalk::canon`); [`rack_layout`] and the random draws below are
//! where that is checked against the unmemoised scan — a rack swap that
//! was *not* a symmetry of the simulation would show up as a different
//! winner or a makespan off by a bit.

use std::sync::Arc;

use std::collections::HashSet;

use cloudtalk::pkteval::pkt_evaluate;
use cloudtalk::pktsearch::{host_classes, pkt_search, MirrorTopology, PktSearchOptions};
use cloudtalk::server::{
    CloudTalkServer, DegradationRung, EvalMethod, PktBackendConfig, ServerConfig,
};
use cloudtalk::status::TableStatusSource;
use cloudtalk_lang::ast::{AttrKind, BinOp, Expr, FlowRef, RefAttr};
use cloudtalk_lang::builder::QueryBuilder;
use cloudtalk_lang::problem::{Address, Binding, Problem};
use proptest::prelude::*;
use cloudtalk_lang::Span;
use desim::SimTime;
use estimator::HostState;
use pktsim::SimConfig;
use simnet::topology::{HostId, TopoOptions, Topology};
use simnet::GBPS;

const LEAF_BYTES: f64 = 50.0 * 1024.0;

fn t_ref(idx: usize) -> Expr {
    Expr::Ref {
        attr: RefAttr::Transferred,
        flow: FlowRef::Index {
            index: idx,
            span: Span::DUMMY,
        },
        span: Span::DUMMY,
    }
}

fn t_sum(lo: usize, hi: usize) -> Expr {
    let mut expr = t_ref(lo);
    for idx in lo + 1..=hi {
        expr = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(expr),
            rhs: Box::new(t_ref(idx)),
        };
    }
    expr
}

/// Two-aggregator fan-in: each half of `leaves` sends `leaf_bytes` to
/// its aggregator, which forwards the gathered bytes to `frontend` once
/// its half is in. Both aggregators draw from `candidates`.
fn placement(
    topo: Topology,
    frontend: HostId,
    leaves: &[HostId],
    candidates: &[HostId],
    leaf_bytes: f64,
) -> (MirrorTopology, Problem) {
    let addr = |h: HostId| Address(topo.host(h).addr);
    let mut b = QueryBuilder::new();
    let aggs = b.variable_group(
        ["agg1".to_string(), "agg2".to_string()],
        candidates.iter().map(|&h| addr(h)).collect::<Vec<_>>(),
    );
    let half = leaves.len() / 2;
    let halves = [&leaves[..half], &leaves[half..]];
    for (g, half_leaves) in halves.iter().enumerate() {
        for &leaf in *half_leaves {
            b.flow(format!("g{g}_{}", leaf.0))
                .from_addr(addr(leaf))
                .to_var(aggs[g])
                .size(leaf_bytes);
        }
    }
    let mut lo = 1;
    for (g, half_leaves) in halves.iter().enumerate() {
        let hi = lo + half_leaves.len() - 1;
        b.flow(format!("up{g}"))
            .from_var(aggs[g])
            .to_addr(addr(frontend))
            .size(leaf_bytes * half_leaves.len() as f64)
            .attr(AttrKind::Transfer, t_sum(lo, hi));
        lo = hi + 1;
    }
    let problem = b.resolve().expect("builder query is structurally valid");
    (MirrorTopology::new(topo), problem)
}

/// Two-aggregator fan-in over a 4-rack fabric. Candidates span two
/// racks: hosts 1–2 share rack 0 with the (pinned) frontend, hosts 4–5
/// sit alone in rack 1, so the search sees two equivalence classes with
/// different makespans plus within-class ties.
fn scenario() -> (MirrorTopology, Problem) {
    let topo = Topology::two_tier(4, 4, GBPS, f64::INFINITY, TopoOptions::default());
    let hosts = topo.host_ids();
    let candidates = [hosts[1], hosts[2], hosts[4], hosts[5]];
    placement(topo, hosts[0], &hosts[8..16], &candidates, LEAF_BYTES)
}

/// The §5.4 layout in small: the frontend pins rack 0, candidates sit two
/// to a rack in racks 0–3 (racks 1–3 interchangeable), twelve leaves fill
/// racks 4–6. 56 ordered pairs, 5 canonical keys.
fn rack_layout() -> (MirrorTopology, Problem) {
    let topo = Topology::two_tier(7, 4, GBPS, f64::INFINITY, TopoOptions::default());
    let hosts = topo.host_ids();
    let candidates: Vec<HostId> = [1usize, 2, 4, 5, 8, 9, 12, 13].iter().map(|&i| hosts[i]).collect();
    placement(topo, hosts[0], &hosts[16..28], &candidates, LEAF_BYTES)
}

/// What the serial no-memo no-abort search is itself held to: a recursion
/// over [`pkt_evaluate`] that shares no code with the search — nested
/// loops, the same-pool clash skip, first-found strict `<`, one fresh
/// simulator per binding.
fn plain_scan(mirror: &MirrorTopology, problem: &Problem) -> Option<(Binding, f64)> {
    fn rec(
        mirror: &MirrorTopology,
        problem: &Problem,
        current: &mut Binding,
        best: &mut Option<(Binding, f64)>,
    ) {
        let idx = current.len();
        if idx == problem.vars.len() {
            let sim = SimConfig::default();
            let run = pkt_evaluate(problem, current, mirror.topology(), mirror.addr_to_host(), sim);
            if let Ok(r) = run {
                if best.as_ref().is_none_or(|(_, b)| r.makespan < *b) {
                    *best = Some((current.clone(), r.makespan));
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
            rec(mirror, problem, current, best);
            current.pop();
        }
    }
    let mut best = None;
    rec(mirror, problem, &mut Binding::new(), &mut best);
    best
}

/// The serial no-memo no-abort search is the plain scan; memoisation on
/// and off agree on the winner and its makespan, bit for bit, at every
/// thread count with early-abort on and off; and a serial memoised search
/// simulates exactly one binding per canonical key.
fn memo_changes_nothing_but_work(
    mirror: &MirrorTopology,
    problem: &Problem,
) -> Result<(), TestCaseError> {
    let serial = PktSearchOptions::new(100).memoise(false).early_abort(false);
    let golden = pkt_search(problem, mirror, &serial).expect("search succeeds");
    prop_assert_eq!(
        plain_scan(mirror, problem).map(|(b, m)| (b, m.to_bits())),
        Some((golden.binding, golden.makespan.to_bits())),
        "serial full scan differs from the plain recursion"
    );
    let classes = host_classes(problem, mirror);
    let pool = &problem.vars[0].candidates;
    let mut keys = HashSet::new();
    for &a in pool {
        for &b in pool {
            if a != b {
                keys.insert(classes.key(&vec![a, b]));
            }
        }
    }
    for threads in [1usize, 2, 8] {
        for early_abort in [false, true] {
            let opts = PktSearchOptions::new(100).threads(threads).early_abort(early_abort);
            let off = pkt_search(problem, mirror, &opts.memoise(false)).expect("search succeeds");
            let on = pkt_search(problem, mirror, &opts).expect("search succeeds");
            let arm = format!("threads={threads} abort={early_abort}");
            prop_assert_eq!(&on.binding, &off.binding, "winner differs ({})", arm);
            prop_assert_eq!(on.makespan.to_bits(), off.makespan.to_bits(), "makespan ({})", arm);
            if threads == 1 {
                prop_assert_eq!(
                    (on.evaluated + on.aborted) as usize,
                    keys.len(),
                    "one simulation per key ({})",
                    arm
                );
            }
        }
    }
    Ok(())
}

#[test]
fn interchangeable_racks_share_simulations_not_answers() {
    let (mirror, problem) = rack_layout();
    memo_changes_nothing_but_work(&mirror, &problem).expect("memo on == memo off");
    let r = pkt_search(&problem, &mirror, &PktSearchOptions::new(100).early_abort(false))
        .expect("search succeeds");
    assert_eq!(r.evaluated, 5, "(r0,r0) (r0,rX) (rX,r0) (rX,rX) (rX,rY)");
    assert_eq!(r.memo_hits, 51);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random two-tier fabrics, with the frontend, the leaves and the
    /// candidate pool dropped anywhere (on top of each other too) and now
    /// and then one slow NIC: whatever the rack relation makes of it, the
    /// memoised search answers as the unmemoised one does.
    #[test]
    fn rack_symmetry_is_sound_on_random_layouts(
        racks in 3usize..9,
        per_rack in 2usize..6,
        frontend in 0usize..1000,
        leaves in proptest::collection::vec(0usize..1000, 2..9),
        pool in proptest::collection::vec(0usize..1000, 2..7),
        slow_nic in proptest::option::of(0usize..1000),
    ) {
        let mut topo = Topology::two_tier(racks, per_rack, GBPS, f64::INFINITY, TopoOptions::default());
        let hosts = topo.host_ids();
        let pick = |i: usize| hosts[i % hosts.len()];
        let distinct = |picks: &[usize]| {
            let mut out: Vec<HostId> = Vec::new();
            for &i in picks {
                if !out.contains(&pick(i)) {
                    out.push(pick(i));
                }
            }
            out
        };
        let (leaves, pool) = (distinct(&leaves), distinct(&pool));
        if leaves.len() < 2 || pool.len() < 2 {
            return Err(TestCaseError::reject("two leaves and two candidates"));
        }
        if let Some(i) = slow_nic {
            topo.set_nic(pick(i), GBPS / 10.0);
        }
        let (mirror, problem) = placement(topo, pick(frontend), &leaves, &pool, 20.0 * 1024.0);
        memo_changes_nothing_but_work(&mirror, &problem)?;
    }
}

#[test]
fn every_configuration_matches_the_serial_full_scan_bit_for_bit() {
    let (mirror, problem) = scenario();
    let golden = pkt_search(
        &problem,
        &mirror,
        &PktSearchOptions::new(100).memoise(false).early_abort(false),
    )
    .expect("serial full scan succeeds");
    assert!(golden.makespan.is_finite());
    assert_eq!(
        plain_scan(&mirror, &problem).map(|(b, m)| (b, m.to_bits())),
        Some((golden.binding.clone(), golden.makespan.to_bits())),
        "serial full scan differs from the plain recursion"
    );

    for threads in [1usize, 2, 8] {
        for memoise in [false, true] {
            for early_abort in [false, true] {
                let opts = PktSearchOptions::new(100)
                    .threads(threads)
                    .memoise(memoise)
                    .early_abort(early_abort);
                let r = pkt_search(&problem, &mirror, &opts).expect("search succeeds");
                assert_eq!(
                    r.binding, golden.binding,
                    "winner differs (threads={threads} memoise={memoise} abort={early_abort})"
                );
                assert_eq!(
                    r.makespan.to_bits(),
                    golden.makespan.to_bits(),
                    "makespan not bit-identical (threads={threads} memoise={memoise} abort={early_abort})"
                );
            }
        }
    }
}

#[test]
fn memoisation_changes_work_not_answers() {
    let (mirror, problem) = scenario();
    let plain = pkt_search(&problem, &mirror, &PktSearchOptions::new(100).memoise(false))
        .expect("unmemoised search succeeds");
    let memo = pkt_search(&problem, &mirror, &PktSearchOptions::new(100))
        .expect("memoised search succeeds");

    assert_eq!(memo.binding, plain.binding);
    assert_eq!(memo.makespan.to_bits(), plain.makespan.to_bits());
    // The cache actually fired and skipped simulations.
    assert_eq!(plain.memo_hits, 0);
    assert!(memo.memo_hits > 0, "symmetric classes should share results");
    assert!(
        memo.evaluated + memo.aborted < plain.evaluated + plain.aborted,
        "memoisation should reduce simulated bindings ({} + {} vs {} + {})",
        memo.evaluated,
        memo.aborted,
        plain.evaluated,
        plain.aborted
    );
}

#[test]
fn server_packet_level_answers_are_thread_count_invariant() {
    let (mirror, problem) = scenario();
    let mirror = Arc::new(mirror);
    let mut status = TableStatusSource::new();
    for &a in &problem.mentioned_addresses() {
        status.set(a, HostState::gbps_idle());
    }

    let mut answers = Vec::new();
    for threads in [1usize, 2, 8] {
        let cfg = ServerConfig {
            method: EvalMethod::PacketLevel { limit: 100 },
            pkt: PktBackendConfig {
                mirror: Some(Arc::clone(&mirror)),
                threads,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a = server
            .answer_problem(&problem, &mut status, SimTime::ZERO)
            .expect("packet-level answer succeeds");
        assert_eq!(a.provenance.rung, DegradationRung::Full);
        answers.push(a.binding);
    }
    assert_eq!(answers[0], answers[1], "1 vs 2 threads");
    assert_eq!(answers[0], answers[2], "1 vs 8 threads");
}

#[test]
fn server_provenance_matches_the_direct_serial_scan() {
    // The answer's provenance must report the same search-effort counters
    // (simulations completed, deadline-aborted, memo hits/misses) as a
    // direct `pkt_search` run with the server's own options — the serial
    // memoised scan this suite pins everywhere else.
    let (mirror, problem) = scenario();
    let mirror = Arc::new(mirror);
    let direct = pkt_search(&problem, &mirror, &PktSearchOptions::new(100))
        .expect("direct serial scan succeeds");

    let mut status = TableStatusSource::new();
    for &a in &problem.mentioned_addresses() {
        status.set(a, HostState::gbps_idle());
    }
    let cfg = ServerConfig {
        method: EvalMethod::PacketLevel { limit: 100 },
        pkt: PktBackendConfig {
            mirror: Some(Arc::clone(&mirror)),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut server = CloudTalkServer::new(cfg);
    let a = server
        .answer_problem(&problem, &mut status, SimTime::ZERO)
        .expect("packet-level answer succeeds");

    assert_eq!(a.provenance.backend, cloudtalk::Backend::PacketLevel);
    assert_eq!(a.binding, direct.binding);
    let s = &a.provenance.search;
    assert_eq!(s.enumerated, direct.evaluated, "completed simulations");
    assert_eq!(s.aborted, direct.aborted, "deadline-abandoned simulations");
    assert_eq!(s.memo_hits, direct.memo_hits);
    assert_eq!(s.memo_misses, direct.memo_misses);
    assert!(s.memo_hits > 0, "symmetric classes should share results");
    // The memo traffic also lands in the server's overhead ledger.
    let ledger = server.ledger();
    assert_eq!(ledger.pkt_memo_hits, direct.memo_hits);
    assert_eq!(ledger.pkt_memo_misses, direct.memo_misses);
}
