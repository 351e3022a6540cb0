//! Exhaustive query evaluation (paper §5.1's accuracy baseline — "we
//! contrast the results of our algorithm against an exhaustive evaluation
//! of all possible solutions"), implemented as a branch-and-bound over the
//! shared binding walk (`crate::walk` — the enumeration, the threads, the
//! two-part cut rule `lb > G` / `lb >= L` and the argument that neither
//! changes the winner live there). This module is what the walk is given:
//!
//! * **Bound** — every flow whose endpoints are already fixed by the
//!   partial binding cannot finish before
//!   `start + bytes / min(rate cap, residual capacity of its resources)`;
//!   the maximum over those flows is an *admissible* lower bound on the
//!   subtree's makespan (extra flows and sharing only slow things down).
//!   The residual capacities are read from the [`World`] once per search
//!   into the walker's [`CapacityTable`] — a delta walker's estimator's,
//!   or the one the workspace keeps for scratch walkers — which also
//!   records the slot of every candidate and fixed endpoint. The walk
//!   pushes a candidate's index, the walker stacks its slot beside the
//!   value, and no node looks an address up.
//! * **Seed** — before descending, the incumbent `G` starts at the
//!   makespan of the §4.2 heuristic's binding (when that binding lies in
//!   the search space and estimates), so subtrees through loaded hosts are
//!   cut from the first node on, wherever the cool hosts sit in candidate
//!   order.
//!
//! Candidates are estimated through one of two [`EvalStrategy`]s. The
//! seed `Scratch` path rebuilds the flow world per leaf; the `Delta` path
//! keeps a [`DeltaEstimator`] warm across siblings, re-rating only the
//! resource components whose flows moved and replaying the rest from a
//! component cache. Delta mode also sharpens the bound: a rated component
//! whose flows are all determined by the current prefix, and which no
//! still-open flow can join, will be replayed unchanged by every leaf
//! below, so its finish time is not an estimate of the subtree's
//! makespan from below but a part of it
//! ([`DeltaEstimator::component_lower_bound`]). The search has such
//! components rated the first time it stands on the prefix that
//! determines them ([`DeltaEstimator::rate_prefix`]), so a prefix is cut
//! where its bottleneck is fixed, not one leaf later. That is also why
//! the tie half of the cut rule ends a `Delta` search on a world full of
//! ties — the component bound is an exact finish time, so equality fires
//! as soon as a prefix's bottleneck is rated — while the flow bounds of
//! `Scratch` sit a completion tolerance below any makespan and tie only
//! at zero bytes or zero capacity.
//!
//! Both strategies' estimates are bit-identical (pinned by
//! `estimator/tests/delta_props.rs`), so the winner is the same under
//! either and at any thread count; `tests/search_tie_equiv.rs` holds it,
//! bit for bit, against a plain recursion over the estimator. Only the
//! effort counters differ. [`exhaustive_search`] runs single-threaded with
//! pruning, which is fully deterministic.

use std::borrow::BorrowMut;
use std::sync::atomic::AtomicU64;

use cloudtalk_lang::ast::{AttrKind, RefAttr};
use cloudtalk_lang::problem::{Binding, BoundEndpoint, ExprR, Problem, Value};
use estimator::{
    estimate_with, resolve_sizes_into, CapacityTable, DeltaEstimator, DeltaStats, EstimatorScratch,
    Resource, World,
};

use crate::heuristic::{evaluate_query_scored_into, HeuristicConfig, HeuristicScratch};
use crate::walk::{clashes, search, space_guard, Local, Walker};

/// How the search evaluates candidate bindings.
///
/// `Hash` because the strategy is part of the answer-cache key: a
/// cached result may only be replayed under the exact backend
/// configuration that produced it (even though `Scratch` and `Delta`
/// are bit-identical by contract, the cache does not rely on that).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvalStrategy {
    /// Rebuild the estimator world from scratch per candidate (the seed
    /// path; serves as the bit-exactness oracle for `Delta`).
    #[default]
    Scratch,
    /// Keep one rated world per worker and apply each candidate as a
    /// component-scoped delta with an undo log ([`DeltaEstimator`]).
    /// Bit-identical results; falls back to `Scratch` when the problem's
    /// attributes cannot be resolved statically (the estimator would
    /// reject every binding of such a problem anyway).
    Delta,
}

/// Outcome of an exhaustive search.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ExhaustiveResult {
    /// The best binding found.
    pub binding: Binding,
    /// Its estimated makespan, seconds.
    pub makespan: f64,
    /// Bindings evaluated (i.e. estimator calls; pruned leaves excluded).
    /// With pruning on, far below the binding space wherever many
    /// bindings share a bottleneck.
    pub evaluated: u64,
    /// Subtrees cut because their lower bound strictly exceeded the
    /// shared incumbent (0 with pruning off). Each cut skips a whole
    /// suffix of the binding space, so this counts pruning *decisions*,
    /// not skipped bindings.
    pub(crate) pruned_subtrees: u64,
    /// Subtrees cut only because their bound *equalled* the worker's own
    /// best (or was infinite before any leaf had landed) — the cuts the
    /// strict rule alone would not have made. Disjoint from
    /// `pruned_subtrees`; their sum is every cut.
    pub pruned_ties: u64,
    /// Delta-evaluation work counters, summed across workers (all zero
    /// under [`EvalStrategy::Scratch`]).
    pub delta: DeltaStats,
}

/// Errors from exhaustive evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExhaustiveError {
    /// The search space exceeds `limit` bindings.
    TooLarge {
        /// Upper bound on the number of bindings.
        space: u128,
        /// The configured limit.
        limit: u64,
    },
    /// No feasible binding exists (e.g. every candidate stalls).
    NoFeasibleBinding,
}

impl std::fmt::Display for ExhaustiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustiveError::TooLarge { space, limit } => {
                write!(f, "search space of {space} bindings exceeds limit {limit}")
            }
            ExhaustiveError::NoFeasibleBinding => write!(f, "no feasible binding"),
        }
    }
}

impl std::error::Error for ExhaustiveError {}

/// Knobs for [`exhaustive_search_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SearchOptions {
    /// Refuse searches whose binding space exceeds this many bindings.
    pub(crate) limit: u64,
    /// Worker threads; `0` and `1` both mean single-threaded.
    pub(crate) threads: usize,
    /// Whether to prune subtrees via the admissible lower bound.
    pub(crate) prune: bool,
    /// Candidate evaluation strategy.
    pub(crate) eval: EvalStrategy,
}

impl SearchOptions {
    /// Single-threaded, pruned, scratch-evaluated search bounded by
    /// `limit` bindings.
    pub fn new(limit: u64) -> Self {
        SearchOptions {
            limit,
            threads: 1,
            prune: true,
            eval: EvalStrategy::Scratch,
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Enables or disables lower-bound pruning.
    pub fn prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }

    /// Selects the candidate evaluation strategy.
    pub fn eval(mut self, strategy: EvalStrategy) -> Self {
        self.eval = strategy;
        self
    }
}

/// Reusable per-search state: the estimator scratch/delta worlds, the
/// bound tables, the seed incumbent's heuristic scratch and the traversal
/// buffers. Holding one of these across repeated [`exhaustive_search_in`]
/// calls makes single-threaded searches allocation-free in steady state
/// (pinned by `tests/search_alloc.rs`).
#[derive(Debug, Default)]
pub struct SearchWorkspace {
    scratch: EstimatorScratch,
    delta: DeltaEstimator,
    /// The scratch walkers' capacity table; a delta walker reads its
    /// estimator's.
    table: CapacityTable,
    bounds: Bounder,
    local: Local,
    current: Binding,
    slots: Vec<BoundEndpoint<usize>>,
    seed: Seed,
}

impl SearchWorkspace {
    /// An empty workspace; buffers grow on first use and are kept.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Exhaustively searches all bindings (respecting same-pool distinctness),
/// minimising estimated makespan. `limit` bounds the number of bindings
/// tried — the brute force is intractable for real queries, which is the
/// paper's point.
///
/// Runs single-threaded with pruning: deterministic and bit-identical to
/// the plain sequential scan (see the module docs). Use
/// [`exhaustive_search_with`] to control threading, pruning and the
/// evaluation strategy.
pub fn exhaustive_search(
    problem: &Problem,
    world: &World,
    limit: u64,
) -> Result<ExhaustiveResult, ExhaustiveError> {
    exhaustive_search_with(problem, world, &SearchOptions::new(limit))
}

/// [`exhaustive_search`] with explicit [`SearchOptions`].
pub fn exhaustive_search_with(
    problem: &Problem,
    world: &World,
    opts: &SearchOptions,
) -> Result<ExhaustiveResult, ExhaustiveError> {
    let mut ws = SearchWorkspace::new();
    let mut out = ExhaustiveResult::default();
    exhaustive_search_in(problem, world, opts, &mut ws, &mut out)?;
    Ok(out)
}

/// [`exhaustive_search_with`] writing into caller-owned buffers: `out` is
/// overwritten on success (its contents are unspecified on error) and
/// `ws` keeps every allocation for the next call. The repeated-search
/// steady state allocates nothing when `opts.threads <= 1`; worker
/// threads build their own transient workspaces.
pub fn exhaustive_search_in(
    problem: &Problem,
    world: &World,
    opts: &SearchOptions,
    ws: &mut SearchWorkspace,
    out: &mut ExhaustiveResult,
) -> Result<(), ExhaustiveError> {
    // Before any estimator (or even bound-table) work, so a `TooLarge`
    // query is rejected in O(|vars|) no matter how pathological its flows.
    space_guard(problem, opts.limit).map_err(|space| ExhaustiveError::TooLarge {
        space,
        limit: opts.limit,
    })?;

    let SearchWorkspace {
        scratch,
        delta,
        table,
        bounds,
        local,
        current,
        slots,
        seed,
    } = ws;

    // Delta evaluation needs the same static tables the scratch estimator
    // resolves per call; when that fails every estimate would fail too,
    // so falling back to Scratch changes nothing but the error path. A
    // problem with no variables has no sibling to carry anything over to.
    let use_delta = opts.eval == EvalStrategy::Delta
        && !problem.vars.is_empty()
        && delta.reset(problem, world).is_ok();
    // One capacity table per walker: the delta estimator has built its
    // own, and the scratch walkers share this one.
    if !use_delta {
        table.rebuild(problem, world);
    }
    let prune = opts.prune && bounds.build_into(problem);
    // Without bounds nothing ever reads the incumbent.
    let seeded = if prune {
        seed.makespan(problem, world, scratch)
    } else {
        f64::INFINITY
    };

    // The caller's walker borrows the workspace's buffers; worker threads
    // build their own.
    let bounds = &*bounds;
    out.delta = DeltaStats::default();
    if use_delta {
        let mut own = DeltaWalker {
            bounds,
            de: &mut *delta,
        };
        let spawn = || DeltaWalker {
            bounds,
            de: DeltaEstimator::new(problem, world).expect("reset already succeeded on these inputs"),
        };
        let later = search(problem, opts.threads, prune, seeded, local, &mut own, spawn);
        for stats in later.iter().map(|w| w.de.stats()).chain([delta.stats()]) {
            out.delta.merge(&stats);
        }
    } else {
        current.clear();
        slots.clear();
        let table = &*table;
        let mut own = ScratchWalker {
            problem,
            world,
            table,
            bounds,
            scratch: &mut *scratch,
            current: std::mem::take(current),
            slots: std::mem::take(slots),
        };
        let spawn = || ScratchWalker {
            problem,
            world,
            table,
            bounds,
            scratch: EstimatorScratch::new(),
            current: Binding::with_capacity(problem.vars.len()),
            slots: Vec::with_capacity(problem.vars.len()),
        };
        search(problem, opts.threads, prune, seeded, local, &mut own, spawn);
        *current = own.current;
        *slots = own.slots;
    }

    out.evaluated = local.leaves;
    out.pruned_subtrees = local.pruned;
    out.pruned_ties = local.pruned_ties;
    let (binding, makespan) = local.best().ok_or(ExhaustiveError::NoFeasibleBinding)?;
    out.binding.clone_from(binding);
    out.makespan = makespan;
    Ok(())
}

/// The seed incumbent's buffers: the §4.2 heuristic's scratch and the
/// binding and scores it writes, kept so a warm search allocates nothing.
#[derive(Debug, Default)]
struct Seed {
    heuristic: HeuristicScratch,
    binding: Binding,
    scores: Vec<f64>,
}

impl Seed {
    /// Makespan of the heuristic's binding, or `INFINITY` when that
    /// binding is no leaf of the search (the heuristic reuses values once
    /// a pool runs out; the search never does) or does not estimate. Any
    /// leaf's makespan is an upper bound on the optimum, which is all the
    /// strict half of the cut rule needs of `G`.
    fn makespan(
        &mut self,
        problem: &Problem,
        world: &World,
        scratch: &mut EstimatorScratch,
    ) -> f64 {
        // The heuristic requires non-empty pools; an empty one also
        // leaves the search nothing to scan.
        if problem.vars.iter().any(|v| v.candidates.is_empty()) {
            return f64::INFINITY;
        }
        let binding = &mut self.binding;
        evaluate_query_scored_into(
            problem,
            world,
            &HeuristicConfig::default(),
            &mut self.heuristic,
            binding,
            &mut self.scores,
        );
        let in_space = (0..binding.len()).all(|i| !clashes(problem, &binding[..i], i, binding[i]));
        if !in_space {
            return f64::INFINITY;
        }
        estimate_with(scratch, problem, binding, world).map_or(f64::INFINITY, |e| e.makespan)
    }
}

/// [`EvalStrategy::Scratch`]: a plain binding, estimated from scratch. `S`
/// is the workspace's scratch, borrowed (the caller's walker), or a worker
/// thread's own. Beside the binding it stacks each value's host slot in
/// the search's one scratch-side [`CapacityTable`], which the bound reads.
struct ScratchWalker<'a, S> {
    problem: &'a Problem,
    world: &'a World,
    table: &'a CapacityTable,
    bounds: &'a Bounder,
    scratch: S,
    current: Binding,
    slots: Vec<BoundEndpoint<usize>>,
}

impl<S: BorrowMut<EstimatorScratch>> Walker for ScratchWalker<'_, S> {
    fn binding(&self) -> &Binding {
        &self.current
    }

    fn push(&mut self, value: Value, index: usize) {
        let var = self.current.len();
        self.slots.push(self.table.candidates(var)[index]);
        self.current.push(value);
    }

    fn pop(&mut self) {
        self.current.pop();
        self.slots.pop();
    }

    fn quick_bound(&self, lb: f64) -> f64 {
        self.bounds.bound_at(self.table, &self.slots, lb)
    }

    fn score(&mut self, _: &AtomicU64) -> Option<f64> {
        estimate_with(self.scratch.borrow_mut(), self.problem, &self.current, self.world)
            .ok()
            .map(|e| e.makespan)
    }
}

/// [`EvalStrategy::Delta`]: the partial binding lives inside the
/// [`DeltaEstimator`] (`D`: the workspace's, borrowed, or a worker
/// thread's own), descents are `push`/`pop` pairs against its undo log,
/// and leaves re-rate only the components their last move touched. Its
/// rated bound rates the components the prefix has just determined and
/// takes the finish times of those no open flow can join
/// ([`DeltaEstimator::component_lower_bound`]): every leaf below replays
/// exactly those ratings, so the bound is part of each leaf's makespan.
struct DeltaWalker<'a, D> {
    bounds: &'a Bounder,
    de: D,
}

impl<D: BorrowMut<DeltaEstimator>> Walker for DeltaWalker<'_, D> {
    fn binding(&self) -> &Binding {
        self.de.borrow().binding()
    }

    fn push(&mut self, value: Value, index: usize) {
        self.de.borrow_mut().push(value, index);
    }

    fn pop(&mut self) {
        self.de.borrow_mut().pop();
    }

    fn quick_bound(&self, lb: f64) -> f64 {
        let de = self.de.borrow();
        self.bounds.bound_at(de.table(), de.slots(), lb)
    }

    fn rated_bound(&mut self) -> f64 {
        let de = self.de.borrow_mut();
        de.rate_prefix();
        de.component_lower_bound()
    }

    fn score(&mut self, _: &AtomicU64) -> Option<f64> {
        let estimate = self.de.borrow_mut().estimate_summary();
        estimate.ok().map(|e| e.makespan)
    }
}

/// Mirror of the estimator's completion tolerances (relative `EPS` plus an
/// absolute byte slack) — the bound must never exceed what the estimator
/// can actually report, so it under-counts the bytes by the same slack.
const EST_EPS: f64 = 1e-6;
const EST_SLACK: f64 = 1e-3;

/// One flow's binding-independent bound ingredients.
#[derive(Debug)]
struct FlowLb {
    /// `start` attribute (0 when absent).
    start: f64,
    /// Bytes the estimator must move before declaring the flow done.
    bytes: f64,
    /// Constant `rate` cap (`INFINITY` when uncapped or rate-coupled).
    cap: f64,
}

/// Admissible lower-bound machinery. `by_depth[d]` lists the flows whose
/// endpoints become fully determined once the first `d` variables are
/// bound, so each search node only scores its newly-fixed flows, against
/// the residual rates of the walker's [`CapacityTable`]. Built into
/// retained buffers so rebuilding for the same problem shape is
/// allocation-free.
#[derive(Debug, Default)]
struct Bounder {
    flows: Vec<FlowLb>,
    by_depth: Vec<Vec<usize>>,
    size_memo: Vec<Option<f64>>,
    sizes: Vec<f64>,
}

impl Bounder {
    /// (Re)builds the bound tables, returning `false` when some attribute
    /// cannot be resolved statically — the estimator would reject every
    /// binding of such a problem anyway, so the search just runs unpruned.
    fn build_into(&mut self, problem: &Problem) -> bool {
        if resolve_sizes_into(problem, &mut self.size_memo, &mut self.sizes).is_err() {
            return false;
        }
        self.flows.clear();
        for v in &mut self.by_depth {
            v.clear();
        }
        self.by_depth.resize_with(problem.vars.len() + 1, Vec::new);
        for (i, flow) in problem.flows.iter().enumerate() {
            let start = match flow.attr(AttrKind::Start) {
                None => 0.0,
                Some(e) => match e.as_const() {
                    Some(v) => v.max(0.0),
                    None => return false,
                },
            };
            // Constant `transfer` offsets are initial progress; `t(f)`
            // references are pure precedence (zero initial progress).
            let initial = match flow.attr(AttrKind::Transfer) {
                None => 0.0,
                Some(e) => match e.as_const() {
                    Some(v) => v.max(0.0),
                    None => {
                        let mut only_t = true;
                        e.for_each_ref(&mut |attr, _| {
                            if attr != RefAttr::Transferred {
                                only_t = false;
                            }
                        });
                        if !only_t {
                            return false;
                        }
                        0.0
                    }
                },
            };
            let cap = match flow.attr(AttrKind::Rate) {
                None => f64::INFINITY,
                Some(e) => match e.as_const() {
                    Some(v) => v.max(0.0),
                    None => match e {
                        ExprR::Ref(RefAttr::Rate, _) => f64::INFINITY,
                        _ => return false,
                    },
                },
            };
            let remaining = (self.sizes[i] - initial).max(0.0);
            let bytes = if remaining <= EST_EPS {
                0.0
            } else {
                (remaining - self.sizes[i] * EST_EPS - EST_SLACK).max(0.0)
            };
            let depth = [flow.src, flow.dst]
                .iter()
                .filter_map(|e| e.as_var())
                .map(|v| v.0 + 1)
                .max()
                .unwrap_or(0);
            self.by_depth[depth].push(i);
            self.flows.push(FlowLb { start, bytes, cap });
        }
        true
    }

    /// Folds the flows `prefix`'s last variable newly determines into `lb`.
    /// `prefix` holds the bound values as `table`'s slots.
    fn bound_at(&self, table: &CapacityTable, prefix: &[BoundEndpoint<usize>], lb: f64) -> f64 {
        self.by_depth[prefix.len()]
            .iter()
            .fold(lb, |acc, &i| acc.max(self.flow_bound(table, i, prefix)))
    }

    /// Best-case finish time of flow `i` under `prefix`: its rate can
    /// never exceed the residual capacity of any resource it touches (the
    /// same resources `estimate` charges it to), nor its constant cap.
    /// Hosts are slots, and one slot is one host, so `a != b` is "not
    /// loopback".
    fn flow_bound(&self, table: &CapacityTable, i: usize, prefix: &[BoundEndpoint<usize>]) -> f64 {
        let f = &self.flows[i];
        let free = |slot: usize, r: Resource| table.capacity(slot, r);
        let mut rate = f.cap;
        match table.flow_ends(i, prefix) {
            (BoundEndpoint::Host(a), BoundEndpoint::Host(b)) if a != b => {
                rate = rate.min(free(a, Resource::Up)).min(free(b, Resource::Down));
            }
            (BoundEndpoint::Host(a), BoundEndpoint::Disk) => {
                rate = rate.min(free(a, Resource::DiskWrite));
            }
            (BoundEndpoint::Disk, BoundEndpoint::Host(b)) => {
                rate = rate.min(free(b, Resource::DiskRead));
            }
            (BoundEndpoint::Unknown, BoundEndpoint::Host(b)) => {
                rate = rate.min(free(b, Resource::Down));
            }
            (BoundEndpoint::Host(a), BoundEndpoint::Unknown) => {
                rate = rate.min(free(a, Resource::Up));
            }
            // Loopback, disk↔unknown etc. touch no shared resource.
            _ => {}
        }
        if f.bytes <= 0.0 {
            f.start
        } else if rate <= 0.0 {
            f64::INFINITY
        } else {
            f.start + f.bytes / rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{evaluate_query, HeuristicConfig};
    use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query};
    use cloudtalk_lang::problem::{Address, Value};
    use cloudtalk_lang::units::sizes::MB;
    use estimator::{estimate, HostState};

    fn world(loads: &[(u32, f64)]) -> World {
        let addrs: Vec<Address> = (1..=8).map(Address).collect();
        let mut w = World::uniform(&addrs, HostState::gbps_idle());
        for &(a, frac) in loads {
            w.set(
                Address(a),
                HostState::gbps_idle().with_up_load(frac).with_down_load(frac),
            );
        }
        w
    }

    #[test]
    fn finds_the_obvious_best_replica() {
        let p = hdfs_read_query(Address(1), &[Address(2), Address(3)], 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world(&[(2, 0.8)]);
        let r = exhaustive_search(&p, &w, 1000).unwrap();
        assert_eq!(r.binding, vec![Value::Addr(Address(3))]);
        // The seed incumbent is the idle replica's makespan: the busy one
        // is cut before it is estimated.
        assert!(r.evaluated <= 2);
    }

    #[test]
    fn respects_distinctness() {
        let nodes: Vec<Address> = (2..6).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 64.0 * MB)
            .resolve()
            .unwrap();
        let opts = SearchOptions::new(1000).prune(false);
        let r = exhaustive_search_with(&p, &world(&[]), &opts).unwrap();
        // 4·3·2 = 24 distinct bindings (counted unpruned: on this all-idle
        // world every one of them ties).
        assert_eq!(r.evaluated, 24);
        let set: std::collections::HashSet<&Value> = r.binding.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn heuristic_matches_exhaustive_on_single_variable() {
        // The paper: "our algorithm is optimal for single variable queries".
        for busy in [2u32, 3, 4] {
            let p = hdfs_read_query(
                Address(1),
                &[Address(2), Address(3), Address(4)],
                256.0 * MB,
            )
            .resolve()
            .unwrap();
            let w = world(&[(busy, 0.9)]);
            let ex = exhaustive_search(&p, &w, 1000).unwrap();
            let h = evaluate_query(&p, &w, &HeuristicConfig::default());
            let eh = estimate(&p, &h, &w).unwrap();
            assert!(
                eh.makespan <= ex.makespan * 1.0001,
                "heuristic {} vs optimal {} (busy={busy})",
                eh.makespan,
                ex.makespan
            );
        }
    }

    #[test]
    fn limit_guards_explosion() {
        let nodes: Vec<Address> = (2..34).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 64.0 * MB)
            .resolve()
            .unwrap();
        // 32^3 = 32768 > 1000.
        let err = exhaustive_search(&p, &world(&[]), 1000).unwrap_err();
        assert!(matches!(err, ExhaustiveError::TooLarge { .. }));
    }

    #[test]
    fn empty_problem_ok() {
        let p = Problem::default();
        let r = exhaustive_search(&p, &World::new(), 10).unwrap();
        assert!(r.binding.is_empty());
        assert_eq!(r.evaluated, 1);
    }

    #[test]
    fn empty_problem_same_under_all_options() {
        let p = Problem::default();
        let base = exhaustive_search(&p, &World::new(), 10).unwrap();
        for threads in [1usize, 2, 8] {
            for prune in [false, true] {
                for eval in [EvalStrategy::Scratch, EvalStrategy::Delta] {
                    let opts = SearchOptions::new(10)
                        .threads(threads)
                        .prune(prune)
                        .eval(eval);
                    let r = exhaustive_search_with(&p, &World::new(), &opts).unwrap();
                    assert_eq!(r, base);
                }
            }
        }
    }

    #[test]
    fn single_candidate_is_forced() {
        let p = hdfs_read_query(Address(1), &[Address(2)], 64.0 * MB)
            .resolve()
            .unwrap();
        for threads in [1usize, 8] {
            let opts = SearchOptions::new(1000).threads(threads);
            let r = exhaustive_search_with(&p, &world(&[]), &opts).unwrap();
            assert_eq!(r.binding, vec![Value::Addr(Address(2))]);
            assert!(r.evaluated <= 1);
        }
    }

    #[test]
    fn too_large_fires_before_any_estimator_work() {
        // Every host unknown → the estimator would stall on every single
        // binding. The space check must still win: the answer is TooLarge,
        // not NoFeasibleBinding, and it arrives without estimating.
        let nodes: Vec<Address> = (2..34).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 64.0 * MB)
            .resolve()
            .unwrap();
        for threads in [1usize, 8] {
            for prune in [false, true] {
                let opts = SearchOptions::new(1000).threads(threads).prune(prune);
                let err = exhaustive_search_with(&p, &World::new(), &opts).unwrap_err();
                // The guard bails at the first partial product over the
                // limit (32·32 = 1024), before looking at any flow.
                assert!(matches!(
                    err,
                    ExhaustiveError::TooLarge {
                        space: 1024,
                        limit: 1000
                    }
                ));
            }
        }
    }

    #[test]
    fn infeasible_problem_reports_no_feasible_binding() {
        let p = hdfs_read_query(Address(1), &[Address(2), Address(3)], 64.0 * MB)
            .resolve()
            .unwrap();
        // Unknown world: all hosts assumed fully loaded, every flow stalls.
        for threads in [1usize, 2] {
            for prune in [false, true] {
                for eval in [EvalStrategy::Scratch, EvalStrategy::Delta] {
                    let opts = SearchOptions::new(1000)
                        .threads(threads)
                        .prune(prune)
                        .eval(eval);
                    let err = exhaustive_search_with(&p, &World::new(), &opts).unwrap_err();
                    assert_eq!(err, ExhaustiveError::NoFeasibleBinding);
                }
            }
        }
    }

    #[test]
    fn options_agree_with_sequential_reference() {
        // Asymmetric loads so the optimum is unique and pruning has real
        // work to do.
        let nodes: Vec<Address> = (2..7).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world(&[(2, 0.9), (3, 0.5), (4, 0.2), (6, 0.7)]);
        let reference = exhaustive_search_with(
            &p,
            &w,
            &SearchOptions::new(10_000).threads(1).prune(false),
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            for prune in [false, true] {
                for eval in [EvalStrategy::Scratch, EvalStrategy::Delta] {
                    let opts = SearchOptions::new(10_000)
                        .threads(threads)
                        .prune(prune)
                        .eval(eval);
                    let r = exhaustive_search_with(&p, &w, &opts).unwrap();
                    assert_eq!(
                        r.binding, reference.binding,
                        "threads={threads} prune={prune} eval={eval:?}"
                    );
                    assert_eq!(
                        r.makespan.to_bits(),
                        reference.makespan.to_bits(),
                        "threads={threads} prune={prune} eval={eval:?}"
                    );
                    if !prune {
                        assert_eq!(r.evaluated, reference.evaluated);
                    } else {
                        assert!(r.evaluated <= reference.evaluated);
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_skips_work_on_lopsided_worlds() {
        // One heavily loaded replica among idle ones: once an all-idle
        // binding is the incumbent, every subtree routing through the busy
        // host bounds strictly above it and is skipped wholesale.
        let nodes: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world(&[(7, 0.95)]);
        let full = exhaustive_search_with(
            &p,
            &w,
            &SearchOptions::new(10_000).threads(1).prune(false),
        )
        .unwrap();
        let pruned =
            exhaustive_search_with(&p, &w, &SearchOptions::new(10_000).threads(1)).unwrap();
        assert_eq!(pruned.binding, full.binding);
        assert_eq!(pruned.makespan.to_bits(), full.makespan.to_bits());
        assert!(
            pruned.evaluated < full.evaluated,
            "pruned {} vs full {}",
            pruned.evaluated,
            full.evaluated
        );
        assert_eq!(
            (full.pruned_subtrees, full.pruned_ties),
            (0, 0),
            "pruning off reports no cuts"
        );
        assert!(
            pruned.pruned_subtrees > 0,
            "cuts must be counted when the bound fires"
        );
    }

    #[test]
    fn delta_counts_work_and_prunes_at_least_as_hard() {
        let nodes: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world(&[(7, 0.95)]);
        let scratch =
            exhaustive_search_with(&p, &w, &SearchOptions::new(10_000).threads(1)).unwrap();
        let delta = exhaustive_search_with(
            &p,
            &w,
            &SearchOptions::new(10_000).threads(1).eval(EvalStrategy::Delta),
        )
        .unwrap();
        assert_eq!(delta.binding, scratch.binding);
        assert_eq!(delta.makespan.to_bits(), scratch.makespan.to_bits());
        assert_eq!(
            scratch.delta,
            DeltaStats::default(),
            "scratch reports no delta work"
        );
        assert_eq!(delta.delta.estimates, delta.evaluated);
        assert!(delta.delta.components_rerated > 0);
        assert!(
            delta.pruned_ties > 0,
            "the idle replicas tie, and exact component bounds see it"
        );
        assert!(
            delta.evaluated <= scratch.evaluated,
            "the component bound may only tighten pruning: {} vs {}",
            delta.evaluated,
            scratch.evaluated
        );
    }

    #[test]
    fn workspace_reuse_matches_fresh_searches() {
        let nodes: Vec<Address> = (2..7).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let mut ws = SearchWorkspace::new();
        let mut out = ExhaustiveResult::default();
        for eval in [EvalStrategy::Delta, EvalStrategy::Scratch, EvalStrategy::Delta] {
            for run in 0..2u32 {
                let w = world(&[(2, 0.9), (3 + run, 0.5)]);
                let opts = SearchOptions::new(10_000).eval(eval);
                let fresh = exhaustive_search_with(&p, &w, &opts).unwrap();
                exhaustive_search_in(&p, &w, &opts, &mut ws, &mut out).unwrap();
                assert_eq!(out.binding, fresh.binding, "eval={eval:?} run={run}");
                assert_eq!(out.makespan.to_bits(), fresh.makespan.to_bits());
                assert_eq!(out.evaluated, fresh.evaluated);
                assert_eq!(out.delta, fresh.delta);
            }
        }
    }
}
