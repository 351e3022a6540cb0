//! Web search: scatter-gather over aggregators (paper §5.4, Figure 11).
//!
//! "Servers are organized in a hierarchical structure: the query is sent
//! by the frontend towards the leaves, while the results go in the
//! opposite direction." Performance is dominated by TCP incast at the
//! aggregation fan-in, so everything here runs on the packet-level
//! simulator.
//!
//! Four pieces:
//!
//! * [`query_latency`] — one query in a given deployment (single
//!   aggregator or two-level), via [`pktsim::workload`].
//! * [`sweep_load`] — offered-load sweep (queries per second) reproducing
//!   the single-aggregator collapse above ~35 qps.
//! * [`place_aggregators`] — the §5.4 CloudTalk use: evaluate every
//!   candidate aggregator placement with the packet-level backend over a
//!   *simulated mirror topology* (static information) and return the
//!   best/worst placements.
//! * [`aggregator_placement_query`] / [`place_aggregators_pkt`] — the same
//!   placement expressed as a *CloudTalk query* (two distinct variables
//!   over the candidate pool, gather flows, dependent upward flows) and
//!   answered by the optimised packet-level search backend
//!   ([`cloudtalk::pktsearch`]): parallel fan-out, symmetry memoisation,
//!   incumbent early-abort.

use cloudtalk::pktsearch::{
    pkt_search, MirrorTopology, PktSearchError, PktSearchOptions, PktSearchResult,
};
use cloudtalk_lang::ast::{AttrKind, BinOp, Expr, FlowRef, RefAttr};
use cloudtalk_lang::builder::QueryBuilder;
use cloudtalk_lang::problem::{Address, Problem};
use cloudtalk_lang::Span;
use desim::{SimDuration, SimTime};
use pktsim::workload::{gather, two_level_query};
use pktsim::{PktSim, SimConfig};
use simnet::topology::{HostId, Topology};

/// A deployment shape.
#[derive(Clone, Debug)]
pub enum Deployment {
    /// One aggregator fanning into all leaves.
    SingleAggregator {
        /// The aggregator host.
        aggregator: HostId,
    },
    /// Two aggregators, each owning half the leaves (paper Figure 10).
    TwoLevel {
        /// The two aggregator hosts.
        aggregators: (HostId, HostId),
    },
}

/// Per-leaf response size (paper: 10 KB).
pub const RESPONSE_BYTES: u64 = 10 * 1024;

/// Latency of one query under `deployment` on a fresh simulator.
pub fn query_latency(
    topo: &Topology,
    cfg: SimConfig,
    frontend: HostId,
    leaves: &[HostId],
    deployment: &Deployment,
) -> f64 {
    query_latency_on(&mut PktSim::new(topo.clone(), cfg), frontend, leaves, deployment)
}

/// [`query_latency`] on a caller-owned simulator, rewound first: a
/// placement enumeration keeps one simulator (its port tables and route
/// cache) for all its candidates instead of building one per candidate.
fn query_latency_on(
    sim: &mut PktSim,
    frontend: HostId,
    leaves: &[HostId],
    deployment: &Deployment,
) -> f64 {
    sim.reset();
    match deployment {
        Deployment::SingleAggregator { aggregator } => {
            let r = gather(sim, leaves, *aggregator, RESPONSE_BYTES, SimTime::ZERO);
            if *aggregator == frontend {
                return r.finish.as_secs_f64();
            }
            // Forward the combined result to the frontend.
            let combined = RESPONSE_BYTES * leaves.len() as u64;
            let f = sim.add_flow(*aggregator, frontend, combined, r.finish);
            sim.run_until_idle();
            sim.finish_time(f).expect("drained").as_secs_f64()
        }
        Deployment::TwoLevel { aggregators } => {
            let half = leaves.len() / 2;
            let groups = vec![
                (aggregators.0, leaves[..half].to_vec()),
                (aggregators.1, leaves[half..].to_vec()),
            ];
            two_level_query(sim, frontend, &groups, RESPONSE_BYTES, SimTime::ZERO).as_secs_f64()
        }
    }
}

/// One point of the load sweep.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Offered load, queries per second.
    pub qps: f64,
    /// Mean query latency, seconds.
    pub mean_latency: f64,
    /// 99th-percentile query latency, seconds.
    pub p99_latency: f64,
    /// Fraction of queries exceeding `overload_latency` (the stand-in for
    /// the paper's aggregator crashes).
    pub overload_fraction: f64,
}

/// Latency above which a query counts as failed/overloaded. The paper's
/// Tomcat aggregator *crashed* under incast; a simulator does not crash,
/// so a query stuck through an RTO round (≫ the ~50 ms healthy latency)
/// is the observable equivalent.
pub const OVERLOAD_LATENCY: f64 = 0.2;

/// How long leaf search itself takes: responses leave a leaf between 0 and
/// this many seconds after the query arrives. The stagger is what keeps a
/// *lone* query's fan-in from self-incasting — collapse then only appears
/// when concurrent queries pile up (the paper's >35 qps regime).
pub const LEAF_COMPUTE_MAX: f64 = 0.04;

/// Sweeps offered load for a deployment: `n_queries` queries arrive with
/// uniform spacing `1/qps`; all share one simulator so they contend. Leaf
/// responses are staggered by up to [`LEAF_COMPUTE_MAX`] (deterministic
/// per leaf/query), modelling per-leaf search time.
pub fn sweep_load(
    topo: &Topology,
    cfg: SimConfig,
    frontend: HostId,
    leaves: &[HostId],
    deployment: &Deployment,
    qps: f64,
    n_queries: usize,
) -> LoadPoint {
    assert!(!leaves.is_empty(), "non-empty");
    let mut sim = PktSim::new(topo.clone(), cfg);
    let spacing = SimDuration::from_secs_f64(1.0 / qps);
    let groups: Vec<(HostId, &[HostId])> = match deployment {
        Deployment::SingleAggregator { aggregator } => vec![(*aggregator, leaves)],
        Deployment::TwoLevel { aggregators } => {
            let (a, b) = leaves.split_at(leaves.len() / 2);
            vec![(aggregators.0, a), (aggregators.1, b)]
        }
    };

    // All queries' leaf->aggregator flows are scheduled up front, query by
    // query: on this fresh simulator stage-1 flow `f` belongs to query
    // `f / leaves.len()`.
    let arrival = |q: usize| SimTime::ZERO + spacing * q as u64;
    for q in 0..n_queries {
        for (agg, ls) in &groups {
            for (li, &leaf) in ls.iter().enumerate() {
                // Deterministic per-(query, leaf) search-time stagger.
                let jitter_ns = desim::rng::derive_seed(q as u64, li as u64)
                    % (LEAF_COMPUTE_MAX * 1e9) as u64;
                let start = arrival(q) + SimDuration::from_nanos(jitter_ns);
                sim.add_flow(leaf, *agg, RESPONSE_BYTES, start);
            }
        }
    }
    let stage1_flows = n_queries * leaves.len();
    let mut stage1_left = vec![leaves.len(); n_queries];
    // The query behind each stage-2 flow, in launch order (they follow the
    // stage-1 flows in the simulator's numbering).
    let mut stage2_query: Vec<usize> = Vec::with_capacity(n_queries);
    let mut done: Vec<Option<SimTime>> = vec![None; n_queries];

    // Drive to completion, launching the aggregator->frontend stage of a
    // query at the instant its last gather flow finishes.
    let mut pending = n_queries;
    let mut seen = 0;
    while pending > 0 && sim.step() {
        while let Some(&f) = sim.completed().get(seen) {
            seen += 1;
            if f.0 >= stage1_flows {
                done[stage2_query[f.0 - stage1_flows]] = sim.finish_time(f);
                pending -= 1;
                continue;
            }
            let q = f.0 / leaves.len();
            stage1_left[q] -= 1;
            if stage1_left[q] == 0 {
                // Model the upward stage as one flow from the last
                // aggregator (both halves must arrive at the frontend;
                // using the slower one preserves the tail).
                let agg = groups.last().expect("non-empty").0;
                let combined = RESPONSE_BYTES * leaves.len() as u64;
                sim.add_flow(agg, frontend, combined, sim.now());
                stage2_query.push(q);
            }
        }
    }

    let mut latencies: Vec<f64> = (0..n_queries)
        .filter_map(|q| done[q].map(|t| (t - arrival(q)).as_secs_f64()))
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let p99 = latencies
        .get(((latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let overload = latencies.iter().filter(|&&l| l > OVERLOAD_LATENCY).count() as f64
        / latencies.len().max(1) as f64;
    LoadPoint {
        qps,
        mean_latency: mean,
        p99_latency: p99,
        overload_fraction: overload,
    }
}

/// Result of the §5.4 placement search.
#[derive(Clone, Debug)]
pub struct PlacementSearch {
    /// The best `(agg1, agg2)` pair and its predicted latency.
    pub best: ((HostId, HostId), f64),
    /// The worst pair and its predicted latency.
    pub worst: ((HostId, HostId), f64),
    /// Latency predicted for a single aggregator handling all leaves.
    pub single_aggregator: f64,
    /// Placements evaluated.
    pub evaluated: usize,
}

/// Evaluates all ordered pairs of `candidates` as two-level aggregator
/// placements using the packet-level simulator with static information —
/// the paper's §5.4 methodology ("We evaluated all possible aggregator
/// placements (100), and for each placement we simulate the desired flows
/// in an idle network").
pub fn place_aggregators(
    topo: &Topology,
    cfg: SimConfig,
    frontend: HostId,
    leaves: &[HostId],
    candidates: &[HostId],
) -> PlacementSearch {
    let mut sim = PktSim::new(topo.clone(), cfg);
    let mut best: Option<((HostId, HostId), f64)> = None;
    let mut worst: Option<((HostId, HostId), f64)> = None;
    let mut evaluated = 0usize;
    for &a1 in candidates {
        for &a2 in candidates {
            if a1 == a2 {
                continue;
            }
            let lat = query_latency_on(
                &mut sim,
                frontend,
                leaves,
                &Deployment::TwoLevel { aggregators: (a1, a2) },
            );
            evaluated += 1;
            if best.as_ref().is_none_or(|(_, b)| lat < *b) {
                best = Some(((a1, a2), lat));
            }
            if worst.as_ref().is_none_or(|(_, w)| lat > *w) {
                worst = Some(((a1, a2), lat));
            }
        }
    }
    let single = query_latency_on(
        &mut sim,
        frontend,
        leaves,
        &Deployment::SingleAggregator {
            aggregator: candidates[0],
        },
    );
    PlacementSearch {
        best: best.expect("at least two candidates"),
        worst: worst.expect("at least two candidates"),
        single_aggregator: single,
        evaluated,
    }
}

/// `t(f)` reference to the 1-based flow index `idx`.
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

/// `t(f_lo) + … + t(f_hi)` over 1-based flow indices (inclusive).
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

/// The §5.4 two-level placement expressed as a CloudTalk query: two
/// variables `agg1`/`agg2` sharing the candidate pool (distinct by
/// default, like `B = C = (…)` in Table 1), each gathering half the
/// leaves and forwarding the combined result to the frontend once its
/// half has delivered (`transfer t(g1)+…`).
///
/// Endpoints are the hosts' own addresses, so the problem evaluates
/// directly against a [`MirrorTopology`] of `topo`.
pub fn aggregator_placement_query(
    topo: &Topology,
    frontend: HostId,
    leaves: &[HostId],
    candidates: &[HostId],
) -> Problem {
    assert!(candidates.len() >= 2, "two aggregators need two candidates");
    assert!(leaves.len() >= 2, "two halves need two leaves");
    let addr = |h: HostId| Address(topo.host(h).addr);
    let pool: Vec<Address> = candidates.iter().map(|&h| addr(h)).collect();

    let mut b = QueryBuilder::new();
    let aggs = b.variable_group(["agg1".to_string(), "agg2".to_string()], pool);
    let half = leaves.len() / 2;
    let halves = [&leaves[..half], &leaves[half..]];
    // Gather flows first (indices 1..=leaves.len() in definition order),
    // then one upward flow per aggregator.
    for (g, half_leaves) in halves.iter().enumerate() {
        for &leaf in *half_leaves {
            b.flow(format!("g{g}_{}", leaf.0))
                .from_addr(addr(leaf))
                .to_var(aggs[g])
                .size(RESPONSE_BYTES as f64);
        }
    }
    let mut lo = 1;
    for (g, half_leaves) in halves.iter().enumerate() {
        let hi = lo + half_leaves.len() - 1;
        b.flow(format!("up{g}"))
            .from_var(aggs[g])
            .to_addr(addr(frontend))
            .size((RESPONSE_BYTES * half_leaves.len() as u64) as f64)
            .attr(AttrKind::Transfer, t_sum(lo, hi));
        lo = hi + 1;
    }
    b.resolve().expect("builder query is structurally valid")
}

/// Answers the aggregator placement with the optimised packet-level
/// search backend: every ordered distinct `(agg1, agg2)` pair is
/// packet-simulated over `mirror`, in parallel, with symmetry
/// memoisation and incumbent early-abort (see [`cloudtalk::pktsearch`]).
/// The winning binding is bit-identical to the serial full-run scan.
pub fn place_aggregators_pkt(
    mirror: &MirrorTopology,
    frontend: HostId,
    leaves: &[HostId],
    candidates: &[HostId],
    opts: &PktSearchOptions,
) -> Result<PktSearchResult, PktSearchError> {
    let problem = aggregator_placement_query(mirror.topology(), frontend, leaves, candidates);
    pkt_search(&problem, mirror, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::TopoOptions;
    use simnet::GBPS;

    fn search_topo() -> (Topology, HostId, Vec<HostId>) {
        // 1 frontend + 100 leaves (the paper's scale: two-level wins
        // because a 100-way incast costs several RTO rounds while 50-way
        // costs fewer) + spare hosts for aggregators.
        let topo = Topology::two_tier(12, 10, GBPS, f64::INFINITY, TopoOptions::default());
        let hosts = topo.host_ids();
        let frontend = hosts[0];
        let leaves = hosts[20..120].to_vec();
        (topo, frontend, leaves)
    }

    #[test]
    fn single_aggregator_suffers_incast() {
        let (topo, frontend, leaves) = search_topo();
        let agg = topo.host_ids()[1];
        let lat = query_latency(
            &topo,
            SimConfig::default(),
            frontend,
            &leaves,
            &Deployment::SingleAggregator { aggregator: agg },
        );
        // 100-way incast into a 50-packet buffer must cross an RTO.
        assert!(lat > 0.2, "latency {lat}");
    }

    #[test]
    fn two_level_beats_single() {
        let (topo, frontend, leaves) = search_topo();
        let hosts = topo.host_ids();
        let single = query_latency(
            &topo,
            SimConfig::default(),
            frontend,
            &leaves,
            &Deployment::SingleAggregator { aggregator: hosts[1] },
        );
        let two = query_latency(
            &topo,
            SimConfig::default(),
            frontend,
            &leaves,
            &Deployment::TwoLevel {
                aggregators: (hosts[1], hosts[2]),
            },
        );
        assert!(
            two < single,
            "two-level {two}s must beat single {single}s"
        );
    }

    #[test]
    fn placement_search_orders_best_and_worst() {
        let (topo, frontend, leaves) = search_topo();
        let hosts = topo.host_ids();
        let candidates = vec![hosts[1], hosts[2], hosts[3]];
        let search = place_aggregators(
            &topo,
            SimConfig::default(),
            frontend,
            &leaves,
            &candidates,
        );
        assert_eq!(search.evaluated, 6);
        assert!(search.best.1 <= search.worst.1);
        assert!(search.single_aggregator >= search.best.1);
    }

    #[test]
    fn load_sweep_degrades_with_qps() {
        let (topo, frontend, leaves) = search_topo();
        let agg = topo.host_ids()[1];
        let dep = Deployment::SingleAggregator { aggregator: agg };
        // qps 0.2 → 5 s spacing: queries fully separated (each takes ~1 s);
        // qps 40 → heavy overlap.
        let low = sweep_load(&topo, SimConfig::default(), frontend, &leaves, &dep, 0.2, 4);
        let high = sweep_load(&topo, SimConfig::default(), frontend, &leaves, &dep, 40.0, 4);
        assert!(
            high.p99_latency >= low.p99_latency * 0.99,
            "load must not improve the tail: {} vs {}",
            high.p99_latency,
            low.p99_latency
        );
        assert!(
            high.overload_fraction >= low.overload_fraction,
            "overload fraction must not shrink with load"
        );
    }

    #[test]
    fn placement_query_structure_matches_the_paper() {
        let (topo, frontend, leaves) = search_topo();
        let hosts = topo.host_ids();
        let candidates = vec![hosts[1], hosts[2], hosts[3]];
        let p = aggregator_placement_query(&topo, frontend, &leaves, &candidates);
        assert_eq!(p.vars.len(), 2);
        assert!(p.distinct, "agg1 and agg2 must bind to different hosts");
        assert_eq!(p.vars[0].pool, p.vars[1].pool, "shared candidate pool");
        assert_eq!(p.vars[0].candidates.len(), 3);
        // 100 gather flows + 2 upward flows.
        assert_eq!(p.flows.len(), leaves.len() + 2);
    }

    #[test]
    fn pkt_placement_agrees_with_direct_enumeration() {
        // Small instance: the CloudTalk-query path and the hand-rolled
        // place_aggregators loop model the same physics, so the best
        // placement's latency must be in the same regime (both two-level,
        // both halving the incast).
        let (topo, frontend, leaves) = search_topo();
        let hosts = topo.host_ids();
        let candidates = vec![hosts[1], hosts[2], hosts[3]];
        let mirror = MirrorTopology::new(topo.clone());
        let r = place_aggregators_pkt(
            &mirror,
            frontend,
            &leaves,
            &candidates,
            &PktSearchOptions::new(100),
        )
        .unwrap();
        assert_eq!(r.binding.len(), 2);
        assert_ne!(r.binding[0], r.binding[1], "distinctness respected");
        let direct = place_aggregators(&topo, SimConfig::default(), frontend, &leaves, &candidates);
        // Same order of magnitude as the direct two-level evaluation and
        // far below the single-aggregator incast collapse.
        assert!(r.makespan < direct.single_aggregator);
        assert!(r.makespan < 3.0 * direct.best.1 + 0.05, "{} vs {}", r.makespan, direct.best.1);
    }

    #[test]
    fn pkt_placement_is_deterministic_across_configurations() {
        let (topo, frontend, leaves) = search_topo();
        let hosts = topo.host_ids();
        let candidates = vec![hosts[1], hosts[2], hosts[3]];
        let mirror = MirrorTopology::new(topo.clone());
        let reference = place_aggregators_pkt(
            &mirror,
            frontend,
            &leaves,
            &candidates,
            &PktSearchOptions::new(100).memoise(false).early_abort(false),
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            let opts = PktSearchOptions::new(100).threads(threads);
            let r = place_aggregators_pkt(&mirror, frontend, &leaves, &candidates, &opts).unwrap();
            assert_eq!(r.binding, reference.binding, "threads={threads}");
            assert_eq!(r.makespan.to_bits(), reference.makespan.to_bits());
        }
    }

    #[test]
    fn pfc_restores_single_aggregator() {
        let (topo, frontend, leaves) = search_topo();
        let agg = topo.host_ids()[1];
        let dep = Deployment::SingleAggregator { aggregator: agg };
        let lossy = query_latency(&topo, SimConfig::default(), frontend, &leaves, &dep);
        let pfc = query_latency(
            &topo,
            SimConfig::default().with_pfc(),
            frontend,
            &leaves,
            &dep,
        );
        assert!(pfc < lossy, "PFC {pfc}s must beat drop-tail {lossy}s");
    }
}
