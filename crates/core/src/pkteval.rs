//! Packet-level evaluation backend (paper §4/§5.4).
//!
//! "To estimate flow completion times, CloudTalk offers two options to its
//! clients: a packet level simulator and a flow level estimator. The first
//! is very accurate and captures packet-level effects such as incast, but
//! it is also quite slow." Clients select it for queries like the
//! web-search aggregator placement, evaluated offline against a simulated
//! topology mirroring the provider's real one.
//!
//! Given a bound problem, this backend instantiates each network flow as a
//! TCP flow in [`pktsim`], honouring `start` attributes and
//! `transfer t(f)` store-and-forward dependencies (a dependent flow starts
//! when its upstream finishes), and reports the simulated makespan.
//!
//! The hot path for search ([`crate::pktsearch`]) is split in two so a
//! candidate enumeration does not redo binding-independent work per
//! binding:
//!
//! * [`PktProgram::compile`] resolves sizes, starts, and `t(f)`
//!   dependencies once per problem;
//! * [`pkt_evaluate_program`] runs one binding on a caller-owned
//!   [`PktSim`] (reset between bindings, so port tables and route caches
//!   are reused) and can be given a `deadline`: the moment simulated time
//!   crosses it with query flows still unfinished, the run is abandoned —
//!   its makespan provably exceeds the deadline, so a search holding an
//!   incumbent at that deadline can discard the binding without finishing
//!   the simulation.

use cloudtalk_lang::ast::{AttrKind, RefAttr};
use cloudtalk_lang::problem::{Address, Binding, BoundEndpoint, Endpoint, Problem};
use cloudtalk_lang::WordMap;
use desim::SimTime;
use estimator::{resolve_static_sizes, EstimateError};
use pktsim::{PktSim, SimConfig};
use simnet::topology::{HostId, Topology};

/// Result of a packet-level evaluation.
#[derive(Clone, Debug)]
pub struct PktEvalResult {
    /// Simulated completion time of the whole task, seconds.
    pub makespan: f64,
    /// Per-query-flow finish times, seconds (0 for flows that move nothing
    /// over the network).
    pub flow_finish: Vec<f64>,
    /// Total packet drops observed.
    pub drops: u64,
    /// Total RTO events observed.
    pub timeouts: u64,
}

/// Outcome of one bounded evaluation ([`pkt_evaluate_program`]).
#[derive(Clone, Debug)]
pub enum PktEvalOutcome {
    /// The simulation ran to completion.
    Completed(PktEvalResult),
    /// Simulated time crossed the deadline with query flows unfinished:
    /// the binding's true makespan is *strictly greater* than the deadline
    /// (every unfinished flow finishes no earlier than the abort instant),
    /// so an argmin search whose incumbent set the deadline loses nothing
    /// by discarding it.
    DeadlineExceeded,
}

/// Errors from packet-level evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum PktEvalError {
    /// The query cannot be simulated: a size/start expression could not be
    /// resolved statically, or the bound problem moves no bytes over the
    /// network at all (nothing for a *packet* simulator to measure — disk
    /// work is invisible to it, so a trivially-zero makespan would be a
    /// lie rather than an answer).
    Unsupported(EstimateError),
    /// An address in the bound problem has no host in the topology.
    UnknownAddress(Address),
    /// The binding has the wrong arity.
    BindingArity {
        /// Values expected.
        expected: usize,
        /// Values provided.
        got: usize,
    },
}

/// The [`EstimateError`] payload used for the zero-network-flow case.
pub(crate) const NO_NETWORK_FLOWS: EstimateError =
    EstimateError::UnsupportedExpr("flows: nothing crosses the network");

impl std::fmt::Display for PktEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PktEvalError::Unsupported(e) => write!(f, "unsupported query: {e}"),
            PktEvalError::UnknownAddress(a) => write!(f, "no simulated host for {a}"),
            PktEvalError::BindingArity { expected, got } => {
                write!(f, "binding has {got} values, problem has {expected} variables")
            }
        }
    }
}

impl std::error::Error for PktEvalError {}

/// A problem compiled for repeated packet-level evaluation: every
/// binding-independent ingredient — flow sizes, static starts, and the
/// `t(f)` dependency graph — resolved exactly once.
#[derive(Clone, Debug)]
pub struct PktProgram {
    n_vars: usize,
    sizes: Vec<f64>,
    starts: Vec<f64>,
    /// Flow `i` starts when all of `deps[i]` have finished.
    deps: Vec<Vec<usize>>,
    srcs: Vec<Endpoint>,
    dsts: Vec<Endpoint>,
}

impl PktProgram {
    /// Compiles `problem`, resolving sizes, starts, and dependencies.
    pub fn compile(problem: &Problem) -> Result<Self, PktEvalError> {
        let sizes = resolve_static_sizes(problem).map_err(PktEvalError::Unsupported)?;
        let n = problem.flows.len();

        // Dependencies: flow i waits for all flows referenced via `t(f)`.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, flow) in problem.flows.iter().enumerate() {
            if let Some(expr) = flow.attr(AttrKind::Transfer) {
                expr.for_each_ref(&mut |attr, f| {
                    if attr == RefAttr::Transferred {
                        deps[i].push(f.0);
                    }
                });
            }
        }

        // Static starts.
        let mut starts = vec![0.0f64; n];
        for (i, flow) in problem.flows.iter().enumerate() {
            if let Some(expr) = flow.attr(AttrKind::Start) {
                starts[i] = expr
                    .as_const()
                    .ok_or(PktEvalError::Unsupported(EstimateError::UnsupportedExpr(
                        "start",
                    )))?
                    .max(0.0);
            }
        }

        Ok(PktProgram {
            n_vars: problem.vars.len(),
            sizes,
            starts,
            deps,
            srcs: problem.flows.iter().map(|f| f.src).collect(),
            dsts: problem.flows.iter().map(|f| f.dst).collect(),
        })
    }

    /// Number of flows in the compiled problem.
    pub fn flow_count(&self) -> usize {
        self.sizes.len()
    }
}

/// Evaluates one binding of a compiled problem on a caller-owned simulator.
///
/// `sim` must be empty (freshly constructed over the mirror topology, or
/// [`PktSim::reset`] after a previous evaluation) — reusing one simulator
/// across bindings keeps its port tables and route cache warm instead of
/// allocating the world from scratch per candidate.
///
/// With `deadline = Some(d)`, the run is abandoned as
/// [`PktEvalOutcome::DeadlineExceeded`] the moment simulated time passes
/// `d` seconds while query flows are still unfinished; completed runs
/// always report their exact makespan, even when it exceeds `d`.
pub fn pkt_evaluate_program(
    prog: &PktProgram,
    binding: &Binding,
    sim: &mut PktSim,
    addr_to_host: &WordMap<Address, HostId>,
    deadline: Option<f64>,
) -> Result<PktEvalOutcome, PktEvalError> {
    if binding.len() != prog.n_vars {
        return Err(PktEvalError::BindingArity {
            expected: prog.n_vars,
            got: binding.len(),
        });
    }
    let n = prog.flow_count();

    // Network endpoints per flow (None = not a network flow: completes
    // instantly for dependency purposes — its work is disk-side and the
    // packet simulator has no disks).
    let mut endpoints: Vec<Option<(HostId, HostId)>> = Vec::with_capacity(n);
    for i in 0..n {
        let src = prog.srcs[i].bound(binding);
        let dst = prog.dsts[i].bound(binding);
        let pair = match (src, dst) {
            (BoundEndpoint::Host(a), BoundEndpoint::Host(b)) => {
                let ha = *addr_to_host
                    .get(&a)
                    .ok_or(PktEvalError::UnknownAddress(a))?;
                let hb = *addr_to_host
                    .get(&b)
                    .ok_or(PktEvalError::UnknownAddress(b))?;
                Some((ha, hb))
            }
            _ => None,
        };
        endpoints.push(pair);
    }
    if n == 0 || endpoints.iter().all(Option::is_none) {
        return Err(PktEvalError::Unsupported(NO_NETWORK_FLOWS));
    }

    debug_assert!(sim.completed().is_empty(), "`sim` must be empty");
    // Program flow behind each simulator flow, in the order they are added
    // (the simulator is empty, so that is its own flow numbering).
    let mut owner: Vec<usize> = Vec::with_capacity(n);
    let mut finished: Vec<Option<f64>> = vec![None; n];
    let mut launched = vec![false; n];
    // Query flows still unfinished, and how much of the simulator's
    // completion list has been read.
    let mut left = n;
    let mut seen = 0;

    // Launch everything whose dependencies are already met.
    let mut progress = true;
    'outer: while progress {
        progress = false;
        // Start flows whose upstreams are all finished.
        for i in 0..n {
            if launched[i] {
                continue;
            }
            let ready = prog.deps[i].iter().all(|&u| finished[u].is_some());
            if !ready {
                continue;
            }
            let dep_finish = prog.deps[i]
                .iter()
                .map(|&u| finished[u].expect("checked ready"))
                .fold(0.0f64, f64::max);
            let at = SimTime::from_secs_f64(
                prog.starts[i]
                    .max(dep_finish)
                    .max(sim.now().as_secs_f64()),
            );
            launched[i] = true;
            progress = true;
            match endpoints[i] {
                Some((src, dst)) => {
                    let f = sim.add_flow(src, dst, prog.sizes[i].ceil() as u64, at);
                    debug_assert_eq!(f.0, owner.len());
                    owner.push(i);
                }
                None => {
                    // Non-network flow: instant for dependency purposes.
                    finished[i] = Some(at.as_secs_f64());
                    left -= 1;
                }
            }
        }
        // Drive the simulation, collecting finishes.
        loop {
            let newly = &sim.completed()[seen..];
            for &f in newly {
                let t = sim.finish_time(f).expect("listed as completed");
                finished[owner[f.0]] = Some(t.as_secs_f64());
            }
            left -= newly.len();
            seen += newly.len();
            if left == 0 {
                // Every query flow finished: stray in-flight events (e.g.
                // trailing ACKs) cannot change the makespan — skip them.
                break 'outer;
            }
            if !newly.is_empty() {
                progress = true;
                break;
            }
            // Incumbent early-abort: some query flow is still unfinished,
            // and it can finish no earlier than `now` — once `now` passes
            // the deadline the makespan provably exceeds it.
            if let Some(d) = deadline {
                if sim.now().as_secs_f64() > d {
                    return Ok(PktEvalOutcome::DeadlineExceeded);
                }
            }
            if !sim.step() {
                break;
            }
        }
    }

    let flow_finish: Vec<f64> = finished.iter().map(|f| f.unwrap_or(0.0)).collect();
    let makespan = flow_finish.iter().copied().fold(0.0, f64::max);
    Ok(PktEvalOutcome::Completed(PktEvalResult {
        makespan,
        flow_finish,
        drops: sim.stats().drops,
        timeouts: sim.stats().timeouts,
    }))
}

/// Evaluates `problem` under `binding` by packet-level simulation over
/// `topo`. `addr_to_host` maps query addresses into the simulated
/// topology (the provider placing the tenant's VMs in its model).
///
/// One-shot convenience over [`PktProgram::compile`] +
/// [`pkt_evaluate_program`]; enumerations over many bindings should use
/// those directly with a reused simulator.
pub fn pkt_evaluate(
    problem: &Problem,
    binding: &Binding,
    topo: &Topology,
    addr_to_host: &WordMap<Address, HostId>,
    cfg: SimConfig,
) -> Result<PktEvalResult, PktEvalError> {
    let prog = PktProgram::compile(problem)?;
    let mut sim = PktSim::new(topo.clone(), cfg);
    match pkt_evaluate_program(&prog, binding, &mut sim, addr_to_host, None)? {
        PktEvalOutcome::Completed(r) => Ok(r),
        PktEvalOutcome::DeadlineExceeded => unreachable!("no deadline was set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::QueryBuilder;
    use simnet::topology::TopoOptions;
    use simnet::GBPS;

    fn setup(n: usize) -> (Topology, WordMap<Address, HostId>) {
        let topo = Topology::single_switch(n, GBPS, TopoOptions::default());
        let map: WordMap<Address, HostId> = topo
            .host_ids()
            .into_iter()
            .map(|h| (Address(topo.host(h).addr), h))
            .collect();
        (topo, map)
    }

    fn addr_of(topo: &Topology, i: usize) -> Address {
        Address(topo.host(HostId(i)).addr)
    }

    #[test]
    fn single_flow_runs() {
        let (topo, map) = setup(2);
        let mut b = QueryBuilder::new();
        b.flow("f1")
            .from_addr(addr_of(&topo, 0))
            .to_addr(addr_of(&topo, 1))
            .size(150_000.0);
        let p = b.resolve().unwrap();
        let r = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap();
        assert!(r.makespan > 0.0);
        assert_eq!(r.flow_finish.len(), 1);
    }

    #[test]
    fn transfer_dependency_serialises_stages() {
        // leaf -> agg, then agg -> frontend carrying the gathered bytes.
        let (topo, map) = setup(3);
        let leaf = addr_of(&topo, 0);
        let agg = addr_of(&topo, 1);
        let fe = addr_of(&topo, 2);
        let mut b = QueryBuilder::new();
        let s1 = b.flow("f1").from_addr(leaf).to_addr(agg).size(100_000.0);
        let h1 = s1.handle();
        b.flow("f2")
            .from_addr(agg)
            .to_addr(fe)
            .size(100_000.0)
            .transfer_of(h1);
        let p = b.resolve().unwrap();
        let r = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap();
        assert!(
            r.flow_finish[1] > r.flow_finish[0],
            "stage 2 after stage 1: {:?}",
            r.flow_finish
        );
        // Serial stages: total at least twice one stage.
        assert!(r.makespan >= 1.9 * r.flow_finish[0]);
    }

    #[test]
    fn incast_visible_in_eval() {
        let (topo, map) = setup(60);
        let sink = addr_of(&topo, 59);
        let mut b = QueryBuilder::new();
        for i in 0..50 {
            b.flow(format!("f{i}"))
                .from_addr(addr_of(&topo, i))
                .to_addr(sink)
                .size(10.0 * 1024.0);
        }
        let p = b.resolve().unwrap();
        let r = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap();
        assert!(r.drops > 0);
        assert!(r.makespan > 0.2, "incast must push past one RTO");
    }

    #[test]
    fn unknown_address_rejected() {
        let (topo, map) = setup(2);
        let mut b = QueryBuilder::new();
        b.flow("f1")
            .from_addr(Address(0xDEAD))
            .to_addr(addr_of(&topo, 1))
            .size(1000.0);
        let p = b.resolve().unwrap();
        let err = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap_err();
        assert_eq!(err, PktEvalError::UnknownAddress(Address(0xDEAD)));
    }

    #[test]
    fn disk_flows_are_instant_dependencies() {
        let (topo, map) = setup(2);
        let a = addr_of(&topo, 0);
        let bb = addr_of(&topo, 1);
        let mut b = QueryBuilder::new();
        let d = b.flow("f1").from_addr(a).to_disk().size(1e6);
        let hd = d.handle();
        b.flow("f2").from_addr(a).to_addr(bb).size(10_000.0).transfer_of(hd);
        let p = b.resolve().unwrap();
        let r = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap();
        assert_eq!(r.flow_finish[0], 0.0);
        assert!(r.flow_finish[1] > 0.0);
    }

    #[test]
    fn zero_network_flows_is_unsupported_not_zero() {
        // A disk-only problem: the packet simulator has no disks, so a
        // "0 s makespan" would be silently wrong. It must refuse instead.
        let (topo, map) = setup(2);
        let a = addr_of(&topo, 0);
        let mut b = QueryBuilder::new();
        b.flow("f1").from_addr(a).to_disk().size(1e6);
        b.flow("f2").from_addr(a).to_disk().size(2e6);
        let p = b.resolve().unwrap();
        let err = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap_err();
        assert!(
            matches!(err, PktEvalError::Unsupported(_)),
            "disk-only problem must be Unsupported, got {err:?}"
        );
    }

    #[test]
    fn empty_problem_is_unsupported() {
        let (topo, map) = setup(2);
        let p = Problem::default();
        let err = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap_err();
        assert!(matches!(err, PktEvalError::Unsupported(_)));
    }

    #[test]
    fn reused_sim_matches_fresh_sim() {
        let (topo, map) = setup(60);
        let sink = addr_of(&topo, 59);
        let mut b = QueryBuilder::new();
        for i in 0..50 {
            b.flow(format!("f{i}"))
                .from_addr(addr_of(&topo, i))
                .to_addr(sink)
                .size(10.0 * 1024.0);
        }
        let p = b.resolve().unwrap();
        let fresh = pkt_evaluate(&p, &vec![], &topo, &map, SimConfig::default()).unwrap();

        let prog = PktProgram::compile(&p).unwrap();
        let mut sim = PktSim::new(topo.clone(), SimConfig::default());
        for _ in 0..3 {
            sim.reset();
            let out = pkt_evaluate_program(&prog, &vec![], &mut sim, &map, None).unwrap();
            let PktEvalOutcome::Completed(r) = out else {
                panic!("no deadline set")
            };
            assert_eq!(r.makespan.to_bits(), fresh.makespan.to_bits());
            assert_eq!(r.drops, fresh.drops);
        }
    }

    #[test]
    fn deadline_aborts_hopeless_runs_and_spares_winners() {
        let (topo, map) = setup(60);
        let sink = addr_of(&topo, 59);
        let mut b = QueryBuilder::new();
        for i in 0..50 {
            b.flow(format!("f{i}"))
                .from_addr(addr_of(&topo, i))
                .to_addr(sink)
                .size(10.0 * 1024.0);
        }
        let p = b.resolve().unwrap();
        let prog = PktProgram::compile(&p).unwrap();
        let mut sim = PktSim::new(topo.clone(), SimConfig::default());
        let out = pkt_evaluate_program(&prog, &vec![], &mut sim, &map, None).unwrap();
        let PktEvalOutcome::Completed(full) = out else {
            panic!("no deadline set")
        };
        assert!(full.makespan > 0.2, "incast run crosses an RTO");

        // A deadline below the true makespan aborts…
        sim.reset();
        let out =
            pkt_evaluate_program(&prog, &vec![], &mut sim, &map, Some(full.makespan / 2.0))
                .unwrap();
        assert!(matches!(out, PktEvalOutcome::DeadlineExceeded));

        // …and one at/above it completes with the exact same answer.
        sim.reset();
        let out =
            pkt_evaluate_program(&prog, &vec![], &mut sim, &map, Some(full.makespan)).unwrap();
        let PktEvalOutcome::Completed(again) = out else {
            panic!("deadline == makespan must still complete")
        };
        assert_eq!(again.makespan.to_bits(), full.makespan.to_bits());
    }
}
