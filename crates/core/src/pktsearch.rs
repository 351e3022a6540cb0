//! Packet-level binding search (the tentpole of the §5.4 story).
//!
//! The paper's incast-dominated queries — the web-search aggregator
//! placement — must be answered with the packet-level simulator, because
//! the flow-level estimator cannot see drops and RTOs. But the simulator
//! is "quite slow", so enumerating a binding space at packet fidelity is
//! only affordable with the optimisations implemented here:
//!
//! * **Parallel fan-out** — the enumeration is the shared binding walk
//!   (`crate::walk`): contiguous first-variable chunks, one per worker,
//!   folded in chunk order with a strict `<`, so the winning binding (and
//!   its makespan, bit for bit) is always the one the plain sequential
//!   scan would have found first, at any thread count. This module is the
//!   walker: what a leaf costs and what may be skipped.
//! * **Incumbent early-abort** — each simulation runs with the walk's
//!   shared incumbent as its deadline and is abandoned the moment
//!   simulated time passes it with query flows unfinished — the binding's
//!   true makespan is then *strictly greater* than the incumbent, hence
//!   strictly greater than the final best, so it can neither win nor tie.
//!   Hopeless bindings cost a fraction of a full run.
//! * **Symmetry memoisation** — bindings are canonicalised by the
//!   topology equivalence class of their chosen hosts. Two hosts are
//!   interchangeable when they sit in the same rack behind access links
//!   of identical capacity and latency and neither is pinned by a fixed
//!   endpoint of the query; two *racks* are interchangeable when the
//!   mirror is a tree, their top-of-rack switches hang off the same
//!   parent through identical uplinks, they hold the same multiset of
//!   host access links and no pinned address lives in either (see
//!   [`host_classes`]). Swapping either is a topology automorphism that
//!   fixes every pinned endpoint, and the simulator is deterministic and
//!   never orders by host or port index, so isomorphic bindings produce
//!   bit-identical makespans and can share one cached simulation result:
//!   one simulation per rack-symmetric class. A completed run caches its
//!   makespan, an abandoned one the bound it exceeded.
//! * **Simulator reuse** — each worker owns a single [`PktSim`] that is
//!   [`PktSim::reset`] between bindings, keeping ports and the route
//!   cache warm instead of allocating the world per candidate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cloudtalk_lang::problem::{Address, Binding, Problem, Value};
use cloudtalk_lang::WordMap;
use pktsim::{PktSim, SimConfig};
use simnet::topology::{HostId, LinkId, NodeKind, Topology};

use crate::canon::{CanonKey, HostClasses, RackShape};
use crate::pkteval::{pkt_evaluate_program, PktEvalError, PktEvalOutcome, PktProgram};
use crate::walk::{search, space_guard, Local, Walker};

/// The provider's simulated mirror of (part of) its datacenter: the
/// topology the packet-level backend evaluates bindings against, plus the
/// address → host mapping placing the tenant's VMs in it.
#[derive(Clone, Debug)]
pub struct MirrorTopology {
    topo: Topology,
    addr_to_host: WordMap<Address, HostId>,
}

impl MirrorTopology {
    /// Wraps `topo`, mapping every simulated host by its own address.
    pub fn new(topo: Topology) -> Self {
        let addr_to_host = topo
            .host_ids()
            .into_iter()
            .map(|h| (Address(topo.host(h).addr), h))
            .collect();
        MirrorTopology { topo, addr_to_host }
    }

    /// The mirrored topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The address → simulated-host mapping.
    pub fn addr_to_host(&self) -> &WordMap<Address, HostId> {
        &self.addr_to_host
    }
}

/// Knobs for [`pkt_search`].
#[derive(Clone, Copy, Debug)]
pub struct PktSearchOptions {
    /// Refuse searches whose binding space exceeds this many bindings.
    pub limit: u64,
    /// Worker threads; `0` and `1` both mean single-threaded.
    pub threads: usize,
    /// Share one simulation result across symmetry-equivalent bindings.
    pub memoise: bool,
    /// Abandon simulations that can no longer beat the incumbent.
    pub early_abort: bool,
    /// Packet-simulator configuration.
    pub sim: SimConfig,
}

impl PktSearchOptions {
    /// Single-threaded search bounded by `limit` bindings, with
    /// memoisation and early-abort on.
    pub fn new(limit: u64) -> Self {
        PktSearchOptions {
            limit,
            threads: 1,
            memoise: true,
            early_abort: true,
            sim: SimConfig::default(),
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enables or disables symmetry memoisation.
    pub fn memoise(mut self, on: bool) -> Self {
        self.memoise = on;
        self
    }

    /// Enables or disables incumbent early-abort.
    pub fn early_abort(mut self, on: bool) -> Self {
        self.early_abort = on;
        self
    }

    /// Sets the simulator configuration.
    pub fn sim(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }
}

/// Outcome of a packet-level search.
#[derive(Clone, Debug, PartialEq)]
pub struct PktSearchResult {
    /// The binding with the minimum simulated makespan.
    pub binding: Binding,
    /// Its makespan, seconds.
    pub makespan: f64,
    /// Simulations run to completion.
    pub evaluated: u64,
    /// Simulations abandoned by the incumbent deadline.
    pub aborted: u64,
    /// Bindings answered from the symmetry cache.
    pub memo_hits: u64,
    /// Bindings that had to simulate (memoisation on only).
    pub memo_misses: u64,
}

/// Errors from the packet-level search.
#[derive(Clone, Debug, PartialEq)]
pub enum PktSearchError {
    /// The search space exceeds `limit` bindings.
    TooLarge {
        /// Upper bound on the number of bindings.
        space: u128,
        /// The configured limit.
        limit: u64,
    },
    /// No binding could be simulated (e.g. every binding is disk-only).
    NoFeasibleBinding,
    /// The problem itself cannot be packet-simulated.
    Eval(PktEvalError),
}

impl std::fmt::Display for PktSearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PktSearchError::TooLarge { space, limit } => {
                write!(f, "search space of {space} bindings exceeds limit {limit}")
            }
            PktSearchError::NoFeasibleBinding => write!(f, "no feasible binding"),
            PktSearchError::Eval(e) => write!(f, "packet-level evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for PktSearchError {}

impl From<PktEvalError> for PktSearchError {
    fn from(e: PktEvalError) -> Self {
        PktSearchError::Eval(e)
    }
}

/// What the symmetry cache knows about an equivalence class.
#[derive(Clone, Copy, Debug)]
enum MemoEntry {
    /// A member ran to completion: the class's exact makespan.
    Exact(f64),
    /// A member was abandoned at this deadline: the class's makespan is
    /// *strictly greater*. The deadline was an incumbent snapshot and the
    /// incumbent only decreases, so `final best <= bound < makespan` —
    /// every member of the class is provably not the argmin (nor a tie)
    /// and can be discarded without simulating.
    ExceedsBound(f64),
}

/// Builds the symmetry classes of `problem` over `mirror`. Two addresses
/// share a host class iff their hosts sit in the same rack behind access
/// links of identical capacity and latency *and* neither appears as a
/// fixed endpoint of the query (a fixed endpoint is pinned: an
/// automorphism must map it to itself, so it cannot be swapped). Two
/// racks are interchangeable iff [`rack_shapes`] gives them equal shapes
/// and neither holds a pinned address.
pub fn host_classes(problem: &Problem, mirror: &MirrorTopology) -> HostClasses {
    let link_key = |l: LinkId| {
        let link = mirror.topo.link(l);
        (link.capacity_bps.to_bits(), link.latency.as_nanos())
    };
    let shapes = rack_shapes(&mirror.topo, link_key);
    HostClasses::build(
        problem,
        |a| {
            mirror.addr_to_host.get(&a).map(|&h| {
                let host = mirror.topo.host(h);
                (host.rack, link_key(host.access_link))
            })
        },
        |rack| shapes.get(&rack).cloned(),
    )
}

/// The shape of every rack of `topo` that a topology automorphism could
/// swap with a rack of equal shape. Racks are only ever offered when
/// `topo` is a tree (`link_count + 1 == node_count`; it is connected, or
/// routing would refuse it): routes are then unique, so the ECMP
/// tie-break — a hash over switch and link *ids*, which a swap changes —
/// never runs. On `vl2` it does, and no rack gets
/// a shape. Within a tree, a rack qualifies when all its hosts hang off
/// one top-of-rack switch whose only other link leads to a parent switch;
/// the subtree under that link is then described completely by the
/// uplink and the multiset of host access links, and two such subtrees
/// under the *same* parent can trade places.
fn rack_shapes(
    topo: &Topology,
    link_key: impl Fn(LinkId) -> (u64, u64),
) -> WordMap<usize, RackShape> {
    let mut shapes = WordMap::default();
    if topo.link_count() + 1 != topo.node_count() {
        return shapes;
    }
    let mut racks: WordMap<usize, Vec<HostId>> = WordMap::default();
    for h in topo.host_ids() {
        racks.entry(topo.host(h).rack).or_default().push(h);
    }
    for (rack, hosts) in racks {
        let far_end = |h: HostId| {
            let (host, link) = (topo.host(h), topo.link(topo.host(h).access_link));
            if link.a == host.node { link.b } else { link.a }
        };
        let tor = far_end(hosts[0]);
        let leaf_of_tor =
            |&h: &HostId| far_end(h) == tor && topo.neighbours(topo.host(h).node).len() == 1;
        let in_rack = |node| matches!(topo.node_kind(node), NodeKind::Host(h) if topo.host(h).rack == rack);
        let mut uplinks = topo.neighbours(tor).iter().filter(|(peer, _)| !in_rack(*peer));
        let (Some(&(parent, uplink)), None) = (uplinks.next(), uplinks.next()) else {
            continue;
        };
        if !hosts.iter().all(leaf_of_tor) || topo.node_kind(parent) != NodeKind::Switch {
            continue;
        }
        let access = hosts.iter().map(|&h| topo.host(h).access_link);
        let mut host_links: Vec<(u64, u64)> = access.map(&link_key).collect();
        host_links.sort_unstable();
        shapes.insert(
            rack,
            RackShape {
                parent: parent.0,
                uplink: link_key(uplink),
                hosts: host_links,
            },
        );
    }
    shapes
}

/// Searches all bindings of `problem` (respecting same-pool
/// distinctness) for the minimum packet-simulated makespan over
/// `mirror`. Deterministic: the winning binding and its makespan are
/// bit-identical at any thread count and with memoisation on or off;
/// only the `evaluated`/`aborted`/memo counters vary.
pub fn pkt_search(
    problem: &Problem,
    mirror: &MirrorTopology,
    opts: &PktSearchOptions,
) -> Result<PktSearchResult, PktSearchError> {
    // Space guard first: a TooLarge query is rejected in O(|vars|)
    // without compiling anything.
    space_guard(problem, opts.limit).map_err(|space| PktSearchError::TooLarge {
        space,
        limit: opts.limit,
    })?;
    // Compile, and check every mentioned address against the mirror, so
    // per-binding evaluation can never hit `UnknownAddress` mid-search.
    let prog = PktProgram::compile(problem)?;
    for a in problem.mentioned_addresses() {
        if !mirror.addr_to_host.contains_key(&a) {
            return Err(PktSearchError::Eval(PktEvalError::UnknownAddress(a)));
        }
    }
    let classes = host_classes(problem, mirror);
    let memo: Mutex<WordMap<CanonKey, MemoEntry>> = Mutex::new(WordMap::default());
    let walker = || PktWalker {
        prog: &prog,
        mirror,
        canon: opts.memoise.then_some(&classes),
        memo: &memo,
        early_abort: opts.early_abort,
        sim: PktSim::new(mirror.topo.clone(), opts.sim),
        current: Binding::with_capacity(problem.vars.len()),
        effort: Effort::default(),
        failed: None,
    };
    let (mut local, mut own) = (Local::default(), walker());
    // Nothing is known of the optimum beforehand, and a simulation knows
    // no bound short of running: no seed, no pruning.
    let later = search(problem, opts.threads, false, f64::INFINITY, &mut local, &mut own, walker);
    let total = |count: fn(&Effort) -> u64| -> u64 {
        later.iter().chain([&own]).map(|w| count(&w.effort)).sum()
    };

    match local.best() {
        Some((binding, makespan)) => Ok(PktSearchResult {
            binding: binding.clone(),
            makespan,
            evaluated: total(|e| e.evaluated),
            aborted: total(|e| e.aborted),
            memo_hits: total(|e| e.memo_hits),
            memo_misses: total(|e| e.memo_misses),
        }),
        // A query with no variables *is* its one binding: what that
        // binding cannot simulate, the query cannot.
        None => Err(match own.failed {
            Some(e) if problem.vars.is_empty() => PktSearchError::Eval(e),
            _ => PktSearchError::NoFeasibleBinding,
        }),
    }
}

/// What a walker counts beside the walk: [`PktSearchResult`]'s counters.
#[derive(Default)]
struct Effort {
    evaluated: u64,
    aborted: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// One worker's evaluator: its own simulator, reset between bindings, and
/// what all workers share — the compiled program, the symmetry classes
/// and the cache they key.
struct PktWalker<'a> {
    prog: &'a PktProgram,
    mirror: &'a MirrorTopology,
    canon: Option<&'a HostClasses>,
    memo: &'a Mutex<WordMap<CanonKey, MemoEntry>>,
    early_abort: bool,
    sim: PktSim,
    current: Binding,
    effort: Effort,
    /// Why the last binding that could not be simulated could not.
    failed: Option<PktEvalError>,
}

impl Walker for PktWalker<'_> {
    fn binding(&self) -> &Binding {
        &self.current
    }

    fn push(&mut self, value: Value, _: usize) {
        self.current.push(value);
    }

    fn pop(&mut self) {
        self.current.pop();
    }

    fn score(&mut self, incumbent: &AtomicU64) -> Option<f64> {
        // Symmetry cache: isomorphic bindings simulate bit-identically, so a
        // cached `Exact` makespan is *exact*, not approximate — winners stay
        // bit-identical with memoisation on or off. An `ExceedsBound` entry
        // discards the whole class without simulating (see [`MemoEntry`]).
        let key = self.canon.map(|c| c.key(&self.current));
        if let Some(k) = &key {
            let cached = self.memo.lock().expect("memo poisoned").get(k).copied();
            match cached {
                Some(MemoEntry::Exact(m)) => {
                    self.effort.memo_hits += 1;
                    return Some(m);
                }
                Some(MemoEntry::ExceedsBound(_)) => {
                    self.effort.memo_hits += 1;
                    return None;
                }
                None => self.effort.memo_misses += 1,
            }
        }

        self.sim.reset();
        let deadline = if self.early_abort {
            let inc = f64::from_bits(incumbent.load(Ordering::Relaxed));
            inc.is_finite().then_some(inc)
        } else {
            None
        };
        let hosts = &self.mirror.addr_to_host;
        match pkt_evaluate_program(self.prog, &self.current, &mut self.sim, hosts, deadline) {
            Ok(PktEvalOutcome::Completed(r)) => {
                self.effort.evaluated += 1;
                if let Some(k) = key {
                    // Exact results always overwrite: an `ExceedsBound` left
                    // by a concurrent worker is strictly less informative.
                    self.memo
                        .lock()
                        .expect("memo poisoned")
                        .insert(k, MemoEntry::Exact(r.makespan));
                }
                Some(r.makespan)
            }
            Ok(PktEvalOutcome::DeadlineExceeded) => {
                // Strictly worse than the incumbent, hence than the final
                // best: cannot win, cannot tie. Score +inf by not scoring.
                self.effort.aborted += 1;
                if let (Some(k), Some(d)) = (key, deadline) {
                    // Remember the proof, not just the failure: the class's
                    // makespan strictly exceeds `d`, so siblings skip their
                    // own doomed simulation. Never downgrade an entry —
                    // `Exact` beats any bound, a larger bound beats a smaller.
                    let mut memo = self.memo.lock().expect("memo poisoned");
                    match memo.get(&k).copied() {
                        Some(MemoEntry::Exact(_)) => {}
                        Some(MemoEntry::ExceedsBound(prev)) if prev >= d => {}
                        _ => {
                            memo.insert(k, MemoEntry::ExceedsBound(d));
                        }
                    }
                }
                None
            }
            // Per-binding degeneracy (e.g. a Disk value turning the whole
            // query disk-only): this binding is infeasible, skip it.
            Err(e) => {
                self.failed = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::ast::{AttrKind, BinOp, Expr, FlowRef, RefAttr};
    use cloudtalk_lang::builder::QueryBuilder;
    use cloudtalk_lang::problem::Value;
    use cloudtalk_lang::Span;
    use simnet::topology::TopoOptions;
    use simnet::GBPS;

    fn mirror(n: usize) -> MirrorTopology {
        MirrorTopology::new(Topology::single_switch(n, GBPS, TopoOptions::default()))
    }

    fn addr_of(m: &MirrorTopology, i: usize) -> Address {
        Address(m.topology().host(HostId(i)).addr)
    }

    /// `t(f)` reference for the 1-based flow index `idx`.
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

    /// Fan-in query: each leaf sends to a free aggregator drawn from
    /// `candidates`, which forwards the gathered bytes to a sink.
    fn fan_in(m: &MirrorTopology, leaves: &[usize], candidates: &[usize], sink: usize) -> Problem {
        let mut b = QueryBuilder::new();
        let pool: Vec<Address> = candidates.iter().map(|&i| addr_of(m, i)).collect();
        let agg = b.variable("agg", pool);
        for &leaf in leaves {
            b.flow(format!("g{leaf}"))
                .from_addr(addr_of(m, leaf))
                .to_var(agg)
                .size(10.0 * 1024.0);
        }
        // transfer t(g1)+t(g2)+…: the upward flow starts once every
        // gather flow has delivered.
        let mut dep = t_ref(1);
        for idx in 2..=leaves.len() {
            dep = Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(dep),
                rhs: Box::new(t_ref(idx)),
            };
        }
        b.flow("up")
            .from_var(agg)
            .to_addr(addr_of(m, sink))
            .size(10.0 * 1024.0 * leaves.len() as f64)
            .attr(AttrKind::Transfer, dep);
        b.resolve().unwrap()
    }

    #[test]
    fn finds_minimum_and_counts_work() {
        let m = mirror(12);
        let p = fan_in(&m, &[0, 1, 2, 3], &[8, 9, 10], 11);
        let r = pkt_search(&p, &m, &PktSearchOptions::new(100)).unwrap();
        assert_eq!(r.binding.len(), 1);
        assert!(r.makespan > 0.0);
        assert!(r.evaluated + r.memo_hits >= 3 || r.aborted > 0);
    }

    #[test]
    fn space_guard_fires_without_simulation() {
        let m = mirror(12);
        let p = fan_in(&m, &[0, 1], &[4, 5, 6, 7, 8, 9], 11);
        let err = pkt_search(&p, &m, &PktSearchOptions::new(3)).unwrap_err();
        assert!(matches!(err, PktSearchError::TooLarge { space: 6, limit: 3 }));
    }

    #[test]
    fn unknown_candidate_rejected_up_front() {
        let m = mirror(4);
        let mut b = QueryBuilder::new();
        let v = b.variable("x", [addr_of(&m, 1), Address(0xDEAD)]);
        b.flow("f").from_addr(addr_of(&m, 0)).to_var(v).size(1e4);
        let p = b.resolve().unwrap();
        let err = pkt_search(&p, &m, &PktSearchOptions::new(100)).unwrap_err();
        assert_eq!(
            err,
            PktSearchError::Eval(PktEvalError::UnknownAddress(Address(0xDEAD)))
        );
    }

    #[test]
    fn a_query_without_variables_is_its_one_binding() {
        let m = mirror(4);
        let mut b = QueryBuilder::new();
        b.flow("f").from_addr(addr_of(&m, 0)).to_addr(addr_of(&m, 1)).size(1e4);
        let r = pkt_search(&b.resolve().unwrap(), &m, &PktSearchOptions::new(100)).unwrap();
        assert!(r.binding.is_empty() && r.makespan > 0.0);
        assert_eq!((r.evaluated, r.aborted, r.memo_hits), (1, 0, 0));

        // Nothing for a packet simulator to measure: the query's error,
        // not "no feasible binding" — there was nothing to choose.
        let mut b = QueryBuilder::new();
        b.flow("f").from_addr(addr_of(&m, 0)).to_disk().size(1e4);
        let err = pkt_search(&b.resolve().unwrap(), &m, &PktSearchOptions::new(100)).unwrap_err();
        assert!(matches!(err, PktSearchError::Eval(PktEvalError::Unsupported(_))), "{err:?}");
    }

    #[test]
    fn symmetric_candidates_collapse_to_one_class() {
        // Single switch: every non-pinned host is interchangeable, so all
        // candidate aggregators share a class and the cache answers all
        // but the first binding.
        let m = mirror(12);
        let p = fan_in(&m, &[0, 1, 2, 3], &[8, 9, 10], 11);
        let opts = PktSearchOptions::new(100).early_abort(false);
        let r = pkt_search(&p, &m, &opts).unwrap();
        assert_eq!(r.evaluated, 1, "one class, one simulation");
        assert_eq!(r.memo_misses, 1);
        assert_eq!(r.memo_hits, 2);
        // First-found tie-break: the first candidate wins.
        assert_eq!(r.binding, vec![Value::Addr(addr_of(&m, 8))]);
    }

    #[test]
    fn memoisation_does_not_change_the_answer() {
        let m = mirror(12);
        let p = fan_in(&m, &[0, 1, 2, 3], &[8, 9, 10], 11);
        let plain = pkt_search(
            &p,
            &m,
            &PktSearchOptions::new(100).memoise(false).early_abort(false),
        )
        .unwrap();
        let memo = pkt_search(&p, &m, &PktSearchOptions::new(100).early_abort(false)).unwrap();
        assert_eq!(memo.binding, plain.binding);
        assert_eq!(memo.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(plain.evaluated, 3);
        assert!(memo.evaluated < plain.evaluated);
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let m = mirror(16);
        let p = fan_in(&m, &[0, 1, 2, 3, 4], &[8, 9, 10, 11, 12, 13], 15);
        let reference = pkt_search(
            &p,
            &m,
            &PktSearchOptions::new(100).memoise(false).early_abort(false),
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            for memoise in [false, true] {
                for abort in [false, true] {
                    let opts = PktSearchOptions::new(100)
                        .threads(threads)
                        .memoise(memoise)
                        .early_abort(abort);
                    let r = pkt_search(&p, &m, &opts).unwrap();
                    assert_eq!(
                        r.binding, reference.binding,
                        "threads={threads} memo={memoise} abort={abort}"
                    );
                    assert_eq!(
                        r.makespan.to_bits(),
                        reference.makespan.to_bits(),
                        "threads={threads} memo={memoise} abort={abort}"
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_hosts_are_never_pooled() {
        // Host 11 is the sink (pinned) *and* a candidate: binding the
        // aggregator onto the sink loopbacks the upward flow, which is
        // very different from binding a free host — the canonicaliser
        // must keep it in its own class.
        let m = mirror(12);
        let p = fan_in(&m, &[0, 1, 2], &[8, 11], 11);
        let plain = pkt_search(
            &p,
            &m,
            &PktSearchOptions::new(100).memoise(false).early_abort(false),
        )
        .unwrap();
        let memo = pkt_search(&p, &m, &PktSearchOptions::new(100).early_abort(false)).unwrap();
        assert_eq!(memo.binding, plain.binding);
        assert_eq!(memo.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(memo.memo_hits, 0, "a pinned and a free host never share a class");
    }

    #[test]
    fn disk_only_bindings_are_skipped_not_fatal() {
        // Table 1 allows `disk` in a candidate pool ("read from a replica
        // *or* the local disk"); binding it turns the only flow
        // non-network, which the evaluator rejects — the search must skip
        // that binding and still answer from the remaining ones.
        use cloudtalk_lang::problem::{Flow, Variable};
        let m = mirror(4);
        let src = addr_of(&m, 0);
        let mut p = Problem {
            vars: vec![Variable::new(
                "x",
                vec![Value::Disk, Value::Addr(addr_of(&m, 1))],
                0,
            )],
            flows: vec![],
            distinct: true,
        };
        let mut f = Flow::new(
            Some("f".into()),
            cloudtalk_lang::problem::Endpoint::Addr(src),
            cloudtalk_lang::problem::Endpoint::Var(cloudtalk_lang::problem::VarId(0)),
        );
        f.set_attr(
            AttrKind::Size,
            cloudtalk_lang::problem::ExprR::Literal(1e4),
        );
        p.flows.push(f);
        let r = pkt_search(&p, &m, &PktSearchOptions::new(100)).unwrap();
        assert_eq!(r.binding, vec![Value::Addr(addr_of(&m, 1))]);
        assert_eq!(r.evaluated, 1);
    }
}
