//! Conversion of a bound problem into demand groups + the rate-stabilising
//! completion-time simulation.
//!
//! The hot entry point is [`estimate_with`], which threads an
//! [`EstimatorScratch`] through the whole pipeline so that repeated
//! evaluations (the exhaustive search calls this once per candidate
//! binding) perform **zero heap allocations after warm-up**: every
//! working vector lives in the scratch and is cleared, never dropped.
//! [`estimate`] is the allocating convenience wrapper.

use cloudtalk_lang::ast::{AttrKind, RefAttr};
use cloudtalk_lang::problem::{
    Address, Binding, BoundEndpoint, ExprR, FlowId, Problem,
};
use simnet::sharing::{coalesce_usages, max_min_rates_into, Demand, ResourceIdx, SharingScratch};

/// Rate used for flows that touch no shared resource (loopback).
const LOCAL_RATE: f64 = 1e11;
/// Relative tolerance on byte counts.
pub(crate) const EPS: f64 = 1e-6;

/// The estimator's answer for one bound problem.
#[derive(Clone, PartialEq, Debug)]
pub struct Estimate {
    /// Completion time (seconds from query time) per flow.
    pub flow_finish: Vec<f64>,
    /// Time when the last flow finishes — the task completion time the
    /// CloudTalk server minimises.
    pub makespan: f64,
    /// Total bytes moved by all flows.
    pub(crate) total_bytes: f64,
    /// `total_bytes / makespan` (0 when the problem moves no bytes).
    pub throughput: f64,
    /// Flows whose predicted finish exceeds their `end` attribute — the
    /// deadline of Table 1 ("end … given in seconds relative to current
    /// time"). Empty when every constrained flow makes it.
    pub deadline_misses: Vec<FlowId>,
}

/// Why an estimate could not be produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EstimateError {
    /// A `size`/`start` expression used a reference the estimator cannot
    /// resolve statically (e.g. `size r(f)`).
    UnsupportedExpr(&'static str),
    /// The binding has the wrong number of values.
    BindingArity {
        /// Values expected (number of variables).
        expected: usize,
        /// Values provided.
        got: usize,
    },
    /// A flow can never finish (zero rate with bytes remaining).
    Stalled(FlowId),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::UnsupportedExpr(what) => {
                write!(f, "unsupported expression in `{what}` attribute")
            }
            EstimateError::BindingArity { expected, got } => {
                write!(f, "binding has {got} values, problem has {expected} variables")
            }
            EstimateError::Stalled(id) => write!(f, "flow #{} can never finish", id.0),
        }
    }
}

impl std::error::Error for EstimateError {}

/// Default flow size when a query omits `size`: 64 MB (an HDFS block).
const DEFAULT_SIZE: f64 = 64.0 * 1024.0 * 1024.0;

/// Scalar results of one estimation — `Copy`, so the exhaustive search
/// can keep the best-so-far without touching the heap. Per-flow detail
/// (finish times, deadline misses) stays in the [`EstimatorScratch`] and
/// is read through its accessors when needed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EstimateSummary {
    /// Time when the last flow finishes.
    pub makespan: f64,
    /// Total bytes moved by all flows.
    pub(crate) total_bytes: f64,
    /// `total_bytes / makespan` (0 when the problem moves no bytes).
    pub throughput: f64,
    /// Number of flows missing their `end` deadline.
    pub deadline_miss_count: usize,
}

/// Reusable working memory for [`estimate_with`].
///
/// Every vector the estimator needs — static attribute tables, the
/// resource/usage/group layout, the event-simulation state, and the
/// max-min allocator's own [`SharingScratch`] — lives here and is cleared
/// (capacity retained) at the start of each call. After the first few
/// calls on a given problem shape, `estimate_with` performs no heap
/// allocations at all; `crates/estimator/tests/alloc_free.rs` pins that
/// invariant with a counting allocator. Keep it that way: when adding
/// state to the estimator, add a buffer here rather than allocating
/// inside the call.
#[derive(Clone, Debug, Default)]
pub struct EstimatorScratch {
    // Static attribute resolution.
    sizes: Vec<f64>,
    size_memo: Vec<Option<f64>>,
    starts: Vec<f64>,
    initial: Vec<f64>,
    deadlines: Vec<f64>,
    caps: Vec<Option<f64>>,
    couple: Vec<Option<FlowId>>,
    parent: Vec<usize>,
    // Resource table: 4 capacities per first-touched address.
    addr_base: Vec<(Address, usize)>,
    capacities: Vec<f64>,
    // Per-flow resource usages in CSR form (items + n+1 start offsets).
    usage_items: Vec<(ResourceIdx, f64)>,
    usage_start: Vec<usize>,
    // Rate-coupling groups: `groups[g]` is a reused member list.
    group_of: Vec<usize>,
    root_group: Vec<usize>,
    groups: Vec<Vec<usize>>,
    // Event simulation.
    remaining: Vec<f64>,
    finish: Vec<f64>,
    done: Vec<bool>,
    flow_rate: Vec<f64>,
    sim: SimBufs,
    part: PartitionBufs,
    // Transfer precedence (upstream lists in CSR form + DFS state).
    t_ups_items: Vec<usize>,
    t_ups_start: Vec<usize>,
    topo_state: Vec<u8>,
    topo_order: Vec<usize>,
    // Per-flow outputs of the last successful call.
    deadline_misses: Vec<FlowId>,
}

impl EstimatorScratch {
    /// Fresh scratch; buffers grow to their high-water marks on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completion time (seconds from query time) per flow, from the last
    /// successful [`estimate_with`] call on this scratch.
    pub fn flow_finish(&self) -> &[f64] {
        &self.finish
    }
}

/// Estimates completion times for `problem` under `binding` in `world`.
///
/// Allocating convenience wrapper over [`estimate_with`]; hot paths
/// (exhaustive search, Figure-3 sweeps) should hold an
/// [`EstimatorScratch`] and call `estimate_with` directly.
pub fn estimate(
    problem: &Problem,
    binding: &Binding,
    world: &crate::World,
) -> Result<Estimate, EstimateError> {
    let mut scratch = EstimatorScratch::new();
    let summary = estimate_with(&mut scratch, problem, binding, world)?;
    Ok(Estimate {
        flow_finish: scratch.finish.clone(),
        makespan: summary.makespan,
        total_bytes: summary.total_bytes,
        throughput: summary.throughput,
        deadline_misses: scratch.deadline_misses.clone(),
    })
}

pub(crate) fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], x: usize, y: usize) {
    let (a, b) = (find(parent, x), find(parent, y));
    if a != b {
        parent[a] = b;
    }
}

/// Working buffers for the per-component event-simulation loop. Both
/// evaluation paths (the scratch oracle and the delta estimator) own one
/// of these and funnel through [`simulate_component`], so a component's
/// rating performs the identical sequence of floating-point operations
/// regardless of which path asked for it.
#[derive(Clone, Debug, Default)]
pub(crate) struct SimBufs {
    active: Vec<usize>,
    active_groups: Vec<usize>,
    demand_pool: Vec<Demand>,
    rates: Vec<f64>,
    sharing: SharingScratch,
}

/// Buffers for partitioning flows into resource-connected components:
/// two flows land in the same component iff they are linked by a chain of
/// shared resources or rate couplings — exactly the independence boundary
/// `simnet::sharing` exploits, so components can be simulated (and cached)
/// in isolation.
#[derive(Clone, Debug, Default)]
pub(crate) struct PartitionBufs {
    parent: Vec<usize>,
    res_owner: Vec<usize>,
    res_touched: Vec<usize>,
    root_comp: Vec<usize>,
    /// Dense component id per flow, ids assigned in min-member order.
    pub(crate) comp_of: Vec<usize>,
    /// Reused member lists; `members[c]` is ascending by flow index.
    pub(crate) members: Vec<Vec<usize>>,
    /// Number of components found by the last partition.
    pub(crate) n_comps: usize,
}

/// Partitions `n_flows` flows into resource-connected components.
/// Components are numbered in order of their minimum flow index, and each
/// member list is ascending — a canonical form both evaluation paths
/// reproduce exactly, which is what lets the delta path key its component
/// cache by minimum member.
pub(crate) fn partition_components<'a, F>(
    n_flows: usize,
    n_resources: usize,
    usages: &F,
    groups: &[Vec<usize>],
    part: &mut PartitionBufs,
) where
    F: Fn(usize) -> &'a [(ResourceIdx, f64)],
{
    part.parent.clear();
    part.parent.extend(0..n_flows);
    // Rate-coupled flows share one demand, hence one component.
    for g in groups {
        let mut it = g.iter();
        if let Some(&first) = it.next() {
            for &m in it {
                union(&mut part.parent, first, m);
            }
        }
    }
    // Flows touching a common resource interact through max-min sharing.
    if part.res_owner.len() < n_resources {
        part.res_owner.resize(n_resources, usize::MAX);
    }
    for i in 0..n_flows {
        for &(r, _) in usages(i) {
            if part.res_owner[r] == usize::MAX {
                part.res_owner[r] = i;
                part.res_touched.push(r);
            } else {
                union(&mut part.parent, part.res_owner[r], i);
            }
        }
    }
    for &r in &part.res_touched {
        part.res_owner[r] = usize::MAX;
    }
    part.res_touched.clear();

    part.comp_of.clear();
    part.comp_of.resize(n_flows, usize::MAX);
    part.root_comp.clear();
    part.root_comp.resize(n_flows, usize::MAX);
    part.n_comps = 0;
    for i in 0..n_flows {
        let root = find(&mut part.parent, i);
        if part.root_comp[root] == usize::MAX {
            part.root_comp[root] = part.n_comps;
            part.n_comps += 1;
        }
        part.comp_of[i] = part.root_comp[root];
    }
    while part.members.len() < part.n_comps {
        part.members.push(Vec::new());
    }
    for m in &mut part.members[..part.n_comps] {
        m.clear();
    }
    for i in 0..n_flows {
        part.members[part.comp_of[i]].push(i);
    }
}

/// Appends the four residual resource capacities of one host (up, down,
/// disk-read, disk-write) — the single definition of the world→capacity
/// arithmetic, shared by both evaluation paths.
pub(crate) fn push_host_capacities(s: &crate::HostState, capacities: &mut Vec<f64>) {
    capacities.push(s.up_free());
    capacities.push(s.down_free());
    capacities.push((s.disk_read_capacity - s.disk_read_used).max(0.0));
    capacities.push((s.disk_write_capacity - s.disk_write_used).max(0.0));
}

/// Emits the shared-resource usages of one flow from its bound endpoints.
/// `base_of` maps a host (an address, or a [`crate::CapacityTable`] slot)
/// to the base index of its 4-resource block;
/// entries are pushed in a fixed order (source side first) so both
/// evaluation paths build identical usage lists. A flow emits at most two
/// entries, and the two can never name the same resource (one is an `up`,
/// the other a `down`, of distinct hosts), so no coalescing is needed
/// here.
pub(crate) fn push_flow_usages<H: Copy + PartialEq>(
    src: BoundEndpoint<H>,
    dst: BoundEndpoint<H>,
    mut base_of: impl FnMut(H) -> usize,
    mut push: impl FnMut(ResourceIdx, f64),
) {
    match (src, dst) {
        (BoundEndpoint::Host(a), BoundEndpoint::Host(b)) if a != b => {
            let ra = base_of(a);
            push(ra, 1.0); // a.up
            let rb = base_of(b);
            push(rb + 1, 1.0); // b.down
        }
        (BoundEndpoint::Host(a), BoundEndpoint::Disk) => {
            let ra = base_of(a);
            push(ra + 3, 1.0); // a.disk-write
        }
        (BoundEndpoint::Disk, BoundEndpoint::Host(b)) => {
            let rb = base_of(b);
            push(rb + 2, 1.0); // b.disk-read
        }
        (BoundEndpoint::Unknown, BoundEndpoint::Host(b)) => {
            let rb = base_of(b);
            push(rb + 1, 1.0); // only b.down constrained
        }
        (BoundEndpoint::Host(a), BoundEndpoint::Unknown) => {
            let ra = base_of(a);
            push(ra, 1.0); // only a.up constrained
        }
        // Loopback, disk↔unknown, unknown↔unknown: nothing shared is used.
        _ => {}
    }
}

/// Runs the event-driven max-min simulation for one resource-connected
/// component. `members` lists the component's flows in ascending index
/// order; `remaining`/`finish`/`done`/`flow_rate` are global per-flow
/// arrays of which only member entries are touched. Returns the lowest
/// member index that can never finish, or `None` when all members
/// complete.
///
/// Because a component by construction shares no resource or coupling
/// with any other, its event sequence is independent of everything
/// outside `members` — the foundation of both the per-component scratch
/// rating and the delta path's component cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_component<'a, F>(
    members: &[usize],
    usages: &F,
    sizes: &[f64],
    starts: &[f64],
    caps: &[Option<f64>],
    group_of: &[usize],
    groups: &[Vec<usize>],
    capacities: &[f64],
    remaining: &mut [f64],
    finish: &mut [f64],
    done: &mut [bool],
    flow_rate: &mut [f64],
    bufs: &mut SimBufs,
) -> Option<usize>
where
    F: Fn(usize) -> &'a [(ResourceIdx, f64)],
{
    let SimBufs {
        active,
        active_groups,
        demand_pool,
        rates,
        sharing,
    } = bufs;
    let mut now = 0.0f64;
    loop {
        // Active members: started, not done.
        active.clear();
        active.extend(
            members
                .iter()
                .copied()
                .filter(|&i| !done[i] && starts[i] <= now + 1e-12),
        );
        let pending_start = members
            .iter()
            .copied()
            .filter(|&i| !done[i] && starts[i] > now + 1e-12)
            .map(|i| starts[i])
            .fold(f64::INFINITY, f64::min);
        if active.is_empty() {
            if pending_start.is_finite() {
                now = pending_start;
                continue;
            }
            return None;
        }

        // Build one demand per group with active members. Demands come
        // from a pool of reused `Demand` structs so their inner usage
        // vectors keep their capacity across rounds and calls.
        active_groups.clear();
        active_groups.extend(active.iter().map(|&i| group_of[i]));
        active_groups.sort_unstable();
        active_groups.dedup();
        let n_demands = active_groups.len();
        while demand_pool.len() < n_demands {
            demand_pool.push(Demand::elastic(Vec::new()));
        }
        for (gi, &g) in active_groups.iter().enumerate() {
            let d = &mut demand_pool[gi];
            d.usages.clear();
            d.cap = None;
            d.inelastic = None;
            for &i in &groups[g] {
                if done[i] || starts[i] > now + 1e-12 {
                    continue;
                }
                d.usages.extend_from_slice(usages(i));
                if let Some(c) = caps[i] {
                    d.cap = Some(d.cap.map_or(c, |x: f64| x.min(c)));
                }
            }
            // Coalesce duplicates in one sort+dedup pass; per-resource
            // sums accumulate left-to-right in the same order for both
            // evaluation paths, so rates are bit-identical.
            coalesce_usages(&mut d.usages);
        }
        max_min_rates_into(sharing, capacities, &demand_pool[..n_demands], rates);

        // Per-flow rate = its group's rate (clamped for loopback groups).
        // Every active member belongs to exactly one active group, so the
        // loop below writes every rate that is read afterwards.
        for (gi, &g) in active_groups.iter().enumerate() {
            let r = if rates[gi].is_finite() {
                rates[gi]
            } else {
                LOCAL_RATE
            };
            for &i in &groups[g] {
                if !done[i] && starts[i] <= now + 1e-12 {
                    flow_rate[i] = r;
                }
            }
        }

        // Next event: earliest completion or pending start.
        let mut next = pending_start;
        for &i in active.iter() {
            if flow_rate[i] > 0.0 {
                next = next.min(now + remaining[i] / flow_rate[i]);
            }
        }
        if !next.is_finite() {
            // Every active member is stalled at rate zero with no future
            // start that could change anything; `active` is ascending, so
            // `active[0]` is the lowest stuck member.
            return Some(active[0]);
        }
        let dt = next - now;
        for &i in active.iter() {
            remaining[i] -= flow_rate[i] * dt;
            if remaining[i] <= sizes[i] * EPS + 1e-3 {
                remaining[i] = 0.0;
                done[i] = true;
                finish[i] = next;
            }
        }
        now = next;
        if members.iter().all(|&i| done[i]) {
            return None;
        }
    }
}

/// Allocation-free core of the estimator: identical semantics (and
/// bit-identical results) to [`estimate`], with all working memory in
/// `scratch`. Returns the scalar summary; per-flow detail is available
/// through the scratch accessors until the next call.
pub fn estimate_with(
    scratch: &mut EstimatorScratch,
    problem: &Problem,
    binding: &Binding,
    world: &crate::World,
) -> Result<EstimateSummary, EstimateError> {
    if binding.len() != problem.vars.len() {
        return Err(EstimateError::BindingArity {
            expected: problem.vars.len(),
            got: binding.len(),
        });
    }
    let n = problem.flows.len();
    let EstimatorScratch {
        sizes,
        size_memo,
        starts,
        initial,
        deadlines,
        caps,
        couple,
        parent,
        addr_base,
        capacities,
        usage_items,
        usage_start,
        group_of,
        root_group,
        groups,
        remaining,
        finish,
        done,
        flow_rate,
        sim,
        part,
        t_ups_items,
        t_ups_start,
        topo_state,
        topo_order,
        deadline_misses,
    } = scratch;

    // --- static attribute resolution -----------------------------------
    resolve_sizes_into(problem, size_memo, sizes)?;
    resolve_consts_into(problem, AttrKind::Start, "start", starts)?;
    resolve_transfer_offsets_into(problem, initial)?;

    // Rate attribute: cap, coupling, or none.
    resolve_rate_attrs_into(problem, caps, couple)?;

    // --- resource table --------------------------------------------------
    // Four resources per mentioned address: up, down, disk-read,
    // disk-write. Addresses are registered in first-touch order (the same
    // order the original hash-map `entry` API produced), through a linear
    // scan — problems mention at most a few dozen addresses.
    addr_base.clear();
    capacities.clear();
    let mut resource_base = |addr: Address| -> usize {
        if let Some(&(_, base)) = addr_base.iter().find(|(a, _)| *a == addr) {
            return base;
        }
        let base = capacities.len();
        push_host_capacities(&world.get(addr), capacities);
        addr_base.push((addr, base));
        base
    };

    // Per-flow resource usages, stored CSR (flow i's usages are
    // `usage_items[usage_start[i]..usage_start[i + 1]]`).
    usage_items.clear();
    usage_start.clear();
    for flow in &problem.flows {
        usage_start.push(usage_items.len());
        push_flow_usages(
            flow.src.bound(binding),
            flow.dst.bound(binding),
            &mut resource_base,
            |r, mult| usage_items.push((r, mult)),
        );
    }
    usage_start.push(usage_items.len());
    let usage_items: &[(ResourceIdx, f64)] = usage_items;
    let usage_start: &[usize] = usage_start;
    let capacities: &[f64] = capacities;
    let usage_of = move |i: usize| &usage_items[usage_start[i]..usage_start[i + 1]];

    // --- group assembly ---------------------------------------------------
    let n_groups = assemble_groups(n, couple, parent, group_of, root_group, groups);
    let group_of: &[usize] = group_of;
    let groups: &[Vec<usize>] = &groups[..n_groups];
    let caps: &[Option<f64>] = caps;
    let sizes: &[f64] = sizes;
    let starts: &[f64] = starts;

    // --- component partition ----------------------------------------------
    // Flows linked by shared resources or couplings form one component;
    // disjoint components are simulated independently below.
    partition_components(n, capacities.len(), &usage_of, groups, part);

    // --- event simulation --------------------------------------------------
    remaining.clear();
    remaining.extend((0..n).map(|i| (sizes[i] - initial[i]).max(0.0)));
    finish.clear();
    finish.resize(n, 0.0);
    done.clear();
    done.extend((0..n).map(|i| remaining[i] <= EPS));
    for i in 0..n {
        if done[i] {
            finish[i] = starts[i];
        }
    }
    flow_rate.clear();
    flow_rate.resize(n, 0.0);

    // Simulate every component (no short-circuit on a stall, so the error
    // reported — the lowest stuck flow across all components — does not
    // depend on component order, and the delta path can reproduce it from
    // cached per-component results).
    let mut stalled: Option<usize> = None;
    for c in 0..part.n_comps {
        if let Some(s) = simulate_component(
            &part.members[c],
            &usage_of,
            sizes,
            starts,
            caps,
            group_of,
            groups,
            capacities,
            remaining,
            finish,
            done,
            flow_rate,
            sim,
        ) {
            stalled = Some(stalled.map_or(s, |m: usize| m.min(s)));
        }
    }
    if let Some(s) = stalled {
        return Err(EstimateError::Stalled(FlowId(s)));
    }

    // Store-and-forward precedence: a flow with `transfer t(f)` cannot
    // finish before f does. Upstream references are collected once into a
    // CSR table, then flows are visited in topological order.
    transfer_topo_order_into(problem, t_ups_items, t_ups_start, topo_state, topo_order);
    for &i in topo_order.iter() {
        let mut upstream_finish = 0.0f64;
        for &u in &t_ups_items[t_ups_start[i]..t_ups_start[i + 1]] {
            upstream_finish = upstream_finish.max(finish[u]);
        }
        finish[i] = finish[i].max(upstream_finish);
    }

    let makespan = finish.iter().copied().fold(0.0, f64::max);
    let total_bytes: f64 = sizes.iter().sum();

    // Deadline check: `end` attributes are upper bounds on finish times.
    resolve_consts_into(problem, AttrKind::End, "end", deadlines)?;
    deadline_misses.clear();
    for (i, flow) in problem.flows.iter().enumerate() {
        if flow.attr(AttrKind::End).is_some() && finish[i] > deadlines[i] + 1e-9 {
            deadline_misses.push(FlowId(i));
        }
    }

    Ok(EstimateSummary {
        makespan,
        total_bytes,
        throughput: if makespan > 0.0 {
            total_bytes / makespan
        } else {
            0.0
        },
        deadline_miss_count: deadline_misses.len(),
    })
}

/// Resolves every flow's `rate` attribute into a cap (constant) or a
/// coupling reference (`rate r(f)`), the only supported forms.
pub(crate) fn resolve_rate_attrs_into(
    problem: &Problem,
    caps: &mut Vec<Option<f64>>,
    couple: &mut Vec<Option<FlowId>>,
) -> Result<(), EstimateError> {
    let n = problem.flows.len();
    caps.clear();
    caps.resize(n, None);
    couple.clear();
    couple.resize(n, None);
    for (i, flow) in problem.flows.iter().enumerate() {
        match flow.attr(AttrKind::Rate) {
            None => {}
            Some(expr) => {
                if let Some(v) = expr.as_const() {
                    caps[i] = Some(v.max(0.0));
                } else if let ExprR::Ref(RefAttr::Rate, f) = expr {
                    couple[i] = Some(*f);
                } else {
                    return Err(EstimateError::UnsupportedExpr("rate"));
                }
            }
        }
    }
    Ok(())
}

/// Builds the rate-coupling groups: a union-find over `rate r(f)` edges,
/// with group ids assigned in first-touch flow order (union-find roots
/// are flow indices, so root→group is a dense table). Returns the group
/// count; `groups[g]` member lists are ascending by flow index.
pub(crate) fn assemble_groups(
    n: usize,
    couple: &[Option<FlowId>],
    parent: &mut Vec<usize>,
    group_of: &mut Vec<usize>,
    root_group: &mut Vec<usize>,
    groups: &mut Vec<Vec<usize>>,
) -> usize {
    parent.clear();
    parent.extend(0..n);
    for (i, c) in couple.iter().enumerate() {
        if let Some(f) = c {
            union(parent, i, f.0);
        }
    }
    group_of.clear();
    group_of.resize(n, 0);
    root_group.clear();
    root_group.resize(n, usize::MAX);
    let mut n_groups = 0usize;
    for (i, g) in group_of.iter_mut().enumerate() {
        let root = find(parent, i);
        if root_group[root] == usize::MAX {
            root_group[root] = n_groups;
            n_groups += 1;
        }
        *g = root_group[root];
    }
    while groups.len() < n_groups {
        groups.push(Vec::new());
    }
    for g in &mut groups[..n_groups] {
        g.clear();
    }
    for (i, &g) in group_of.iter().enumerate() {
        groups[g].push(i);
    }
    n_groups
}

/// Resolves every flow's size statically — public so other evaluation
/// backends (the packet-level simulator) share the same semantics.
pub fn resolve_static_sizes(problem: &Problem) -> Result<Vec<f64>, EstimateError> {
    let mut memo = Vec::new();
    let mut out = Vec::new();
    resolve_sizes_into(problem, &mut memo, &mut out)?;
    Ok(out)
}

/// Resolves every flow's size, following `sz(f)` references (a DAG by
/// validation) and folding arithmetic. `memo` and `out` are caller-owned
/// buffers (cleared here) so the hot path allocates nothing.
pub fn resolve_sizes_into(
    problem: &Problem,
    memo: &mut Vec<Option<f64>>,
    out: &mut Vec<f64>,
) -> Result<(), EstimateError> {
    let n = problem.flows.len();
    memo.clear();
    memo.resize(n, None);
    out.clear();

    fn size_of(
        problem: &Problem,
        memo: &mut Vec<Option<f64>>,
        i: usize,
    ) -> Result<f64, EstimateError> {
        if let Some(s) = memo[i] {
            return Ok(s);
        }
        let s = match problem.flows[i].attr(AttrKind::Size) {
            None => DEFAULT_SIZE,
            Some(expr) => eval_size(problem, memo, expr)?,
        };
        memo[i] = Some(s.max(0.0));
        Ok(s.max(0.0))
    }

    fn eval_size(
        problem: &Problem,
        memo: &mut Vec<Option<f64>>,
        expr: &ExprR,
    ) -> Result<f64, EstimateError> {
        Ok(match expr {
            ExprR::Literal(v) => *v,
            ExprR::Ref(RefAttr::Size, f) => size_of(problem, memo, f.0)?,
            ExprR::Ref(..) => return Err(EstimateError::UnsupportedExpr("size")),
            ExprR::Binary(op, lhs, rhs) => op.apply(
                eval_size(problem, memo, lhs)?,
                eval_size(problem, memo, rhs)?,
            ),
        })
    }

    for i in 0..n {
        let s = size_of(problem, memo, i)?;
        out.push(s);
    }
    Ok(())
}

/// Resolves an attribute that must be a compile-time constant into a
/// caller-owned buffer (cleared here).
pub(crate) fn resolve_consts_into(
    problem: &Problem,
    kind: AttrKind,
    what: &'static str,
    out: &mut Vec<f64>,
) -> Result<(), EstimateError> {
    out.clear();
    for flow in &problem.flows {
        let v = match flow.attr(kind) {
            None => 0.0,
            Some(expr) => expr
                .as_const()
                .map(|v| v.max(0.0))
                .ok_or(EstimateError::UnsupportedExpr(what))?,
        };
        out.push(v);
    }
    Ok(())
}

/// `transfer` attributes: constants become initial progress; `t(f)`
/// references become precedence (handled after simulation) and contribute
/// zero initial progress. Writes into a caller-owned buffer.
pub(crate) fn resolve_transfer_offsets_into(
    problem: &Problem,
    out: &mut Vec<f64>,
) -> Result<(), EstimateError> {
    out.clear();
    for flow in &problem.flows {
        let v = match flow.attr(AttrKind::Transfer) {
            None => 0.0,
            Some(expr) => {
                if let Some(v) = expr.as_const() {
                    v.max(0.0)
                } else {
                    let mut only_t_refs = true;
                    expr.for_each_ref(&mut |attr, _| {
                        if attr != RefAttr::Transferred {
                            only_t_refs = false;
                        }
                    });
                    if only_t_refs {
                        0.0
                    } else {
                        return Err(EstimateError::UnsupportedExpr("transfer"));
                    }
                }
            }
        };
        out.push(v);
    }
    Ok(())
}

/// Computes the transfer-precedence structure into caller-owned buffers:
/// a CSR table of `t(f)` upstream references (`ups_items`/`ups_start`)
/// and `order`, a flow order where upstreams come first (cycles — which
/// validation does not forbid for `t` — are broken arbitrarily;
/// precedence then still converges because `max` is monotone).
pub(crate) fn transfer_topo_order_into(
    problem: &Problem,
    ups_items: &mut Vec<usize>,
    ups_start: &mut Vec<usize>,
    state: &mut Vec<u8>,
    order: &mut Vec<usize>,
) {
    let n = problem.flows.len();
    ups_items.clear();
    ups_start.clear();
    for flow in &problem.flows {
        ups_start.push(ups_items.len());
        if let Some(expr) = flow.attr(AttrKind::Transfer) {
            expr.for_each_ref(&mut |attr, f| {
                if attr == RefAttr::Transferred {
                    ups_items.push(f.0);
                }
            });
        }
    }
    ups_start.push(ups_items.len());

    state.clear();
    state.resize(n, 0); // 0 = unvisited, 1 = visiting, 2 = done
    order.clear();

    fn visit(
        ups_items: &[usize],
        ups_start: &[usize],
        state: &mut [u8],
        order: &mut Vec<usize>,
        i: usize,
    ) {
        if state[i] != 0 {
            return;
        }
        state[i] = 1;
        for &u in &ups_items[ups_start[i]..ups_start[i + 1]] {
            if state[u] == 0 {
                visit(ups_items, ups_start, state, order, u);
            }
        }
        state[i] = 2;
        order.push(i);
    }

    for i in 0..n {
        visit(ups_items, ups_start, state, order, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostState, World};
    use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query, QueryBuilder};
    use cloudtalk_lang::problem::Value;
    use cloudtalk_lang::units::sizes::MB;

    const NIC: f64 = 125e6; // 1 Gbps in bytes/sec

    fn idle_world(problem: &Problem) -> World {
        World::uniform(&problem.mentioned_addresses(), HostState::idle(NIC, 450e6))
    }

    #[test]
    fn single_network_flow_takes_size_over_nic() {
        let p = hdfs_read_query(Address(1), &[Address(2)], NIC * 2.0)
            .resolve()
            .unwrap();
        let w = idle_world(&p);
        let e = estimate(&p, &vec![Value::Addr(Address(2))], &w).unwrap();
        assert!((e.makespan - 2.0).abs() < 1e-6, "makespan {}", e.makespan);
        assert!((e.throughput - NIC).abs() < 1.0);
    }

    #[test]
    fn busy_replica_slows_read() {
        let p = hdfs_read_query(Address(1), &[Address(2), Address(3)], NIC)
            .resolve()
            .unwrap();
        let mut w = idle_world(&p);
        w.set(Address(2), HostState::idle(NIC, 450e6).with_up_load(0.9));
        let busy = estimate(&p, &vec![Value::Addr(Address(2))], &w).unwrap();
        let idle = estimate(&p, &vec![Value::Addr(Address(3))], &w).unwrap();
        assert!(busy.makespan > idle.makespan * 5.0);
    }

    #[test]
    fn pipelined_write_is_bottlenecked_once() {
        // 3-replica daisy chain over idle gigabit: each stage has capacity
        // NIC, coupling makes the chain move at NIC once, not NIC/3.
        let nodes: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let w = idle_world(&p);
        let binding = vec![
            Value::Addr(Address(2)),
            Value::Addr(Address(3)),
            Value::Addr(Address(4)),
        ];
        let e = estimate(&p, &binding, &w).unwrap();
        let expected = 256.0 * MB / NIC;
        assert!(
            (e.makespan - expected).abs() / expected < 0.01,
            "makespan {} vs {}",
            e.makespan,
            expected
        );
    }

    #[test]
    fn slow_disk_drags_whole_pipeline() {
        let nodes: Vec<Address> = (2..6).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let mut w = idle_world(&p);
        // Replica 3 has an HDD (65 MB/s writes).
        let mut hdd = HostState::idle(NIC, 450e6);
        hdd.disk_write_capacity = 65e6;
        w.set(Address(4), hdd);
        let binding = vec![
            Value::Addr(Address(2)),
            Value::Addr(Address(3)),
            Value::Addr(Address(4)),
        ];
        let e = estimate(&p, &binding, &w).unwrap();
        let expected = 256.0 * MB / 65e6;
        assert!(
            (e.makespan - expected).abs() / expected < 0.01,
            "makespan {} vs {}",
            e.makespan,
            expected
        );
    }

    #[test]
    fn two_flows_sharing_a_destination_halve() {
        let mut b = QueryBuilder::new();
        b.flow("f1").from_addr(Address(2)).to_addr(Address(1)).size(NIC);
        b.flow("f2").from_addr(Address(3)).to_addr(Address(1)).size(NIC);
        let p = b.resolve().unwrap();
        let w = idle_world(&p);
        let e = estimate(&p, &vec![], &w).unwrap();
        assert!((e.makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_applies() {
        let mut b = QueryBuilder::new();
        b.flow("f1")
            .from_addr(Address(2))
            .to_addr(Address(1))
            .size(NIC)
            .rate(NIC / 10.0);
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        assert!((e.makespan - 10.0).abs() < 1e-6);
    }

    #[test]
    fn start_offsets_delay_completion() {
        let mut b = QueryBuilder::new();
        b.flow("f1")
            .from_addr(Address(2))
            .to_addr(Address(1))
            .size(NIC)
            .start(5.0);
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        assert!((e.makespan - 6.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_source_constrains_only_receiver() {
        let mut b = QueryBuilder::new();
        b.flow("f1").from_unknown().to_addr(Address(1)).size(NIC);
        b.flow("f2").from_unknown().to_addr(Address(1)).size(NIC);
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        // Two unknown-source streams share the receiver downlink.
        assert!((e.makespan - 2.0).abs() < 1e-6);
    }

    #[test]
    fn loopback_flow_is_instant() {
        let mut b = QueryBuilder::new();
        b.flow("f1").from_addr(Address(1)).to_addr(Address(1)).size(1e9);
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        assert!(e.makespan < 0.05);
    }

    #[test]
    fn binding_arity_checked() {
        let p = hdfs_read_query(Address(1), &[Address(2)], 1e6)
            .resolve()
            .unwrap();
        let err = estimate(&p, &vec![], &idle_world(&p)).unwrap_err();
        assert_eq!(
            err,
            EstimateError::BindingArity {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn overloaded_host_stalls() {
        let p = hdfs_read_query(Address(1), &[Address(2)], 1e6)
            .resolve()
            .unwrap();
        // Empty world: everything assumed overloaded → zero residual capacity.
        let err = estimate(&p, &vec![Value::Addr(Address(2))], &World::new()).unwrap_err();
        assert!(matches!(err, EstimateError::Stalled(_)));
    }

    #[test]
    fn deadlines_are_checked() {
        // A 2-second transfer with a 1-second deadline misses; with a
        // 3-second deadline it does not.
        let mut b = QueryBuilder::new();
        b.flow("f1")
            .from_addr(Address(2))
            .to_addr(Address(1))
            .size(NIC * 2.0)
            .end(1.0);
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        assert_eq!(e.deadline_misses, vec![FlowId(0)]);

        let mut b2 = QueryBuilder::new();
        b2.flow("f1")
            .from_addr(Address(2))
            .to_addr(Address(1))
            .size(NIC * 2.0)
            .end(3.0);
        let p2 = b2.resolve().unwrap();
        let e2 = estimate(&p2, &vec![], &idle_world(&p2)).unwrap();
        assert!(e2.deadline_misses.is_empty());
    }

    #[test]
    fn unconstrained_flows_never_miss() {
        let p = hdfs_read_query(Address(1), &[Address(2)], NIC * 100.0)
            .resolve()
            .unwrap();
        let e = estimate(&p, &vec![Value::Addr(Address(2))], &idle_world(&p)).unwrap();
        assert!(e.deadline_misses.is_empty());
    }

    #[test]
    fn transfer_const_is_initial_progress() {
        let mut b = QueryBuilder::new();
        b.flow("f1")
            .from_addr(Address(2))
            .to_addr(Address(1))
            .size(NIC)
            .attr(
                AttrKind::Transfer,
                cloudtalk_lang::ast::Expr::literal(NIC / 2.0),
            );
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        assert!((e.makespan - 0.5).abs() < 1e-6, "makespan {}", e.makespan);
    }

    #[test]
    fn disk_read_uses_disk_capacity() {
        let mut b = QueryBuilder::new();
        b.flow("f1").from_disk().to_addr(Address(1)).size(450e6);
        let p = b.resolve().unwrap();
        let e = estimate(&p, &vec![], &idle_world(&p)).unwrap();
        assert!((e.makespan - 1.0).abs() < 1e-6);
    }

    #[test]
    fn coupled_disk_and_net_take_min() {
        // disk -> X coupled with X -> client: over a gigabit NIC the
        // network is the bottleneck even though the disk could do 450 MB/s.
        let b = cloudtalk_lang::builder::map_placement_query(
            Address(1),
            &[Address(2)],
            256.0 * MB,
        );
        let p = b.resolve().unwrap();
        let e = estimate(
            &p,
            &vec![Value::Addr(Address(2))],
            &idle_world(&p),
        )
        .unwrap();
        let expected = 256.0 * MB / NIC;
        assert!(
            (e.makespan - expected).abs() / expected < 0.01,
            "makespan {}",
            e.makespan
        );
    }
}
