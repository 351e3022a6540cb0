//! Delta-rated candidate evaluation: one rated base world per search,
//! updated incrementally as the search walks the binding tree.
//!
//! The scratch path ([`crate::estimate_with`]) rebuilds everything per
//! candidate: static attributes, the resource table, usages, groups, and
//! a full simulation. A branch-and-bound walk, however, changes **one
//! variable at a time** — sibling candidates differ in the few flows
//! mentioning that variable. [`DeltaEstimator`] exploits this:
//!
//! * all binding-independent work (sizes, starts, transfer offsets, rate
//!   caps/couplings, groups, the transfer-precedence order, the
//!   world→capacity table) is resolved **once per search**;
//! * each [`push`](DeltaEstimator::push) bumps a version counter on exactly
//!   the flows whose endpoints mention the bound variable;
//! * at a leaf, only the usages of touched flows are rebuilt, flows are
//!   partitioned into resource-connected components (the independence
//!   boundary of `simnet::sharing`), and a component is re-simulated
//!   **only if** some member's version changed or its membership moved —
//!   otherwise its cached finish times are replayed;
//! * [`pop`](DeltaEstimator::pop) unbinds the deepest variable, restoring
//!   the exact previous binding (and version state) on backtrack.
//!
//! Bit-identity with the scratch path is by construction, not by luck:
//! both paths call the same [`model::simulate_component`] on the same
//! canonical member lists with value-identical capacities and usage
//! lists, so a component's rating performs the identical floating-point
//! operations whether it was computed fresh, from a cache, or by the
//! scratch oracle. `crates/estimator/tests/delta_props.rs` pins this with
//! `==` (not tolerance) comparisons.
//!
//! A component whose member flows are all determined by the current
//! binding *prefix*, and which no still-open flow can reach, is the same
//! component at every leaf below — so its rating is a piece of each of
//! those leaves' estimates, known before any of them is visited. That is
//! the search's sharpest lower bound
//! ([`component_lower_bound`](DeltaEstimator::component_lower_bound)),
//! and [`rate_prefix`](DeltaEstimator::rate_prefix) lets the search ask
//! for it the moment a prefix determines the component.

use cloudtalk_lang::ast::AttrKind;
use cloudtalk_lang::problem::{Address, Binding, BoundEndpoint, Endpoint, FlowId, Problem, Value};
use simnet::sharing::ResourceIdx;

use crate::model::{
    self, assemble_groups, partition_components, push_flow_usages, push_host_capacities,
    resolve_consts_into, resolve_rate_attrs_into, resolve_sizes_into,
    resolve_transfer_offsets_into, simulate_component, transfer_topo_order_into, Estimate,
    EstimateError, EstimateSummary, PartitionBufs, SimBufs,
};
use crate::World;

/// Work counters of one search's worth of delta-rated evaluation.
///
/// Exposed through `SearchStats` / the `estimator.delta.*` metrics so the
/// savings (components reused vs. re-rated) are observable end to end.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeltaStats {
    /// Leaf estimates served.
    pub estimates: u64,
    /// Components simulated from scratch (cache miss or first touch).
    pub components_rerated: u64,
    /// Components served from the per-search cache, bit-identically.
    pub components_reused: u64,
    /// Per-flow usage rebuilds (a flow is rebuilt when an endpoint
    /// variable moved since its usages were last derived).
    pub flows_moved: u64,
    /// Undo-log entries replayed by [`DeltaEstimator::pop`].
    pub(crate) undos: u64,
    /// High-water mark of the undo-log depth.
    pub max_undo_depth: u64,
}

impl DeltaStats {
    /// Accumulates `other` into `self` (max for the high-water mark).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.estimates += other.estimates;
        self.components_rerated += other.components_rerated;
        self.components_reused += other.components_reused;
        self.flows_moved += other.flows_moved;
        self.undos += other.undos;
        self.max_undo_depth = self.max_undo_depth.max(other.max_undo_depth);
    }
}

/// The one place a search turns an address into a table slot. Holds the
/// residual rates of every address the search can mention — candidate
/// pools and fixed flow endpoints, ascending by address, four rates per
/// address (up, down, disk-read, disk-write — the order
/// `model::push_host_capacities` emits, so `4 * slot` is the base index
/// of a host's resource block) — and, resolved once, the slot of every
/// candidate of every variable and of every fixed flow endpoint. Built
/// from the [`World`]'s slots once per walker per search (a
/// [`DeltaEstimator`] builds its own); from then on a search moves slots,
/// not addresses: the walkers stack each candidate's slot beside its
/// value, and both the delta estimator and the lower-bound walk read
/// capacities by slot. A slot is a host's identity within one search, so two bound
/// endpoints are the same host exactly when they hold the same slot.
#[derive(Clone, Debug, Default)]
pub struct CapacityTable {
    addrs: Vec<Address>,
    capacities: Vec<f64>,
    /// Every candidate of every variable with its host as a slot, CSR
    /// over variables aligned with their `candidates`: variable `v`'s
    /// pool is `cands[cand_start[v]..cand_start[v + 1]]`.
    cands: Vec<BoundEndpoint<usize>>,
    cand_start: Vec<usize>,
    /// Each flow's source and destination, as far as the problem fixes
    /// them.
    ends: Vec<[TableEnd; 2]>,
}

/// A flow endpoint as the problem leaves it: fixed (a host's slot, disk
/// or unknown), or whatever a variable is bound to.
#[derive(Clone, Copy, Debug)]
enum TableEnd {
    Fixed(BoundEndpoint<usize>),
    Var(usize),
}

impl CapacityTable {
    /// Re-reads the table for `problem` in `world`, reusing its buffers.
    /// Each distinct pool is scanned once ([`Problem::repeats_pool`]), and
    /// this is where every address a search binds is looked up: once per
    /// candidate and fixed endpoint, never per search node. The table's
    /// addresses and the world's are both ascending, so their states are
    /// read in one forward pass over the world's slots.
    pub fn rebuild(&mut self, problem: &Problem, world: &World) {
        self.addrs.clear();
        for (i, var) in problem.vars.iter().enumerate() {
            if problem.repeats_pool(i) {
                continue;
            }
            for val in &var.candidates {
                if let Value::Addr(a) = val {
                    self.addrs.push(*a);
                }
            }
        }
        for flow in &problem.flows {
            for ep in [flow.src, flow.dst] {
                if let Endpoint::Addr(a) = ep {
                    self.addrs.push(a);
                }
            }
        }
        self.addrs.sort_unstable();
        self.addrs.dedup();
        // The exact arithmetic of the scratch path's first-touch table —
        // same values, different (bijective) indexing, which max-min
        // rating is insensitive to.
        self.capacities.clear();
        for state in world.states_of_sorted(&self.addrs) {
            push_host_capacities(&state, &mut self.capacities);
        }

        self.cands.clear();
        self.cand_start.clear();
        for (i, var) in problem.vars.iter().enumerate() {
            let start = self.cands.len();
            self.cand_start.push(start);
            if problem.repeats_pool(i) {
                self.cands.extend_from_within(self.cand_start[i - 1]..start);
                continue;
            }
            for &val in &var.candidates {
                let slotted = match val {
                    Value::Addr(a) => BoundEndpoint::Host(self.slot(a)),
                    Value::Disk => BoundEndpoint::Disk,
                };
                self.cands.push(slotted);
            }
        }
        self.cand_start.push(self.cands.len());
        self.ends.clear();
        for flow in &problem.flows {
            let ends = [self.table_end(flow.src), self.table_end(flow.dst)];
            self.ends.push(ends);
        }
    }

    fn table_end(&self, ep: Endpoint) -> TableEnd {
        match ep {
            Endpoint::Addr(a) => TableEnd::Fixed(BoundEndpoint::Host(self.slot(a))),
            Endpoint::Disk => TableEnd::Fixed(BoundEndpoint::Disk),
            Endpoint::Unknown => TableEnd::Fixed(BoundEndpoint::Unknown),
            Endpoint::Var(v) => TableEnd::Var(v.0),
        }
    }

    /// The table's addresses, ascending; an address's slot is its
    /// position here.
    pub fn addrs(&self) -> &[Address] {
        &self.addrs
    }

    /// Position of `addr` in the table.
    ///
    /// # Panics
    /// If the problem the table was built for cannot mention `addr`.
    pub fn slot(&self, addr: Address) -> usize {
        self.addrs
            .binary_search(&addr)
            .expect("address registered at rebuild")
    }

    /// Residual rate of one of the resources of the host at `slot`.
    pub fn capacity(&self, slot: usize, resource: Resource) -> f64 {
        self.capacities[4 * slot + resource as usize]
    }

    /// Variable `var`'s candidates in pool order, each host as its slot.
    pub fn candidates(&self, var: usize) -> &[BoundEndpoint<usize>] {
        &self.cands[self.cand_start[var]..self.cand_start[var + 1]]
    }

    /// Flow `flow`'s source and destination, hosts as slots, under a
    /// binding whose values are `bound` (as [`candidates`](Self::candidates)
    /// gives them). The binding must determine the flow.
    pub fn flow_ends(
        &self,
        flow: usize,
        bound: &[BoundEndpoint<usize>],
    ) -> (BoundEndpoint<usize>, BoundEndpoint<usize>) {
        let end = |e: TableEnd| match e {
            TableEnd::Fixed(b) => b,
            TableEnd::Var(v) => bound[v],
        };
        let [src, dst] = self.ends[flow];
        (end(src), end(dst))
    }
}

/// One of the four resources of a host, by its offset in the host's
/// block of a [`CapacityTable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resource {
    /// NIC transmit.
    Up = 0,
    /// NIC receive.
    Down = 1,
    /// Disk read.
    DiskRead = 2,
    /// Disk write.
    DiskWrite = 3,
}

impl Resource {
    /// The four resources, each at its offset.
    const ALL: [Resource; 4] = [
        Resource::Up,
        Resource::Down,
        Resource::DiskRead,
        Resource::DiskWrite,
    ];
}

/// One cached component rating: the member set (ascending), the member
/// versions it was rated under, and the raw (pre-precedence) finish
/// times. Valid for replay iff the current partition produces the same
/// member list and no member's version moved.
#[derive(Clone, Debug, Default)]
struct CompCache {
    flows: Vec<usize>,
    versions: Vec<u64>,
    finish: Vec<f64>,
    stalled: Option<usize>,
    /// `INFINITY` when stalled; otherwise max raw finish over members.
    max_finish: f64,
    /// Max over members of the binding depth that determines them.
    max_depth: usize,
    /// [`DeltaEstimator::clock`] at the rating.
    rated_clock: u64,
    /// Whether no flow the first `max_depth` variables leave open can
    /// touch a resource of this component; worked out the first time a
    /// bound is asked of this rating.
    closed: Option<bool>,
}

/// Incremental estimator holding one rated base world per search.
///
/// Build with [`new`](DeltaEstimator::new) (or re-arm a reused instance
/// with [`reset`](DeltaEstimator::reset) — all buffers keep their
/// capacity, so steady-state searches allocate nothing). Then drive the
/// binding with `push`/`pop` and ask for
/// [`estimate_summary`](DeltaEstimator::estimate_summary) at leaves.
///
/// `new`/`reset` fail with the same [`EstimateError`] the scratch path
/// would report for statically unsupported attribute expressions; callers
/// (the search backends) fall back to the scratch strategy in that case.
#[derive(Clone, Debug, Default)]
pub struct DeltaEstimator {
    n: usize,
    n_vars: usize,
    // --- static per-search tables (binding-independent) ---
    sizes: Vec<f64>,
    size_memo: Vec<Option<f64>>,
    starts: Vec<f64>,
    initial: Vec<f64>,
    deadlines: Vec<f64>,
    has_end: Vec<bool>,
    caps: Vec<Option<f64>>,
    couple: Vec<Option<FlowId>>,
    uf_parent: Vec<usize>,
    group_of: Vec<usize>,
    root_group: Vec<usize>,
    groups: Vec<Vec<usize>>,
    n_groups: usize,
    t_ups_items: Vec<usize>,
    t_ups_start: Vec<usize>,
    topo_state: Vec<u8>,
    topo_order: Vec<usize>,
    ends: Vec<(Endpoint, Endpoint)>,
    var_flows_items: Vec<usize>,
    var_flows_start: Vec<usize>,
    determined_depth: Vec<usize>,
    /// Whether binding the `d`-th variable determines some flow, by `d`.
    determines_flows: Vec<bool>,
    total_bytes: f64,
    table: CapacityTable,
    // What an unbound variable may still become: its pool, which table
    // slots its candidates cover (`cand_words` bitset words per
    // variable), and whether `disk` / any address is among them.
    distinct: bool,
    pool_of: Vec<usize>,
    cand_words: usize,
    cand_slots: Vec<u64>,
    cand_disk: Vec<bool>,
    cand_addr: Vec<bool>,
    // --- dynamic binding state ---
    values: Binding,
    /// `values` with each host as its table slot.
    slots: Vec<BoundEndpoint<usize>>,
    flow_version: Vec<u64>,
    /// `clock` at each variable's last push or pop.
    var_clock: Vec<u64>,
    clock: u64,
    // Per-flow usages, fixed stride 2 (a flow uses at most two resources).
    usage_buf: Vec<(ResourceIdx, f64)>,
    usage_len: Vec<usize>,
    usage_stale: Vec<bool>,
    // --- per-leaf evaluation state ---
    part: PartitionBufs,
    caches: Vec<CompCache>,
    caches_used: usize,
    cache_of: Vec<usize>,
    remaining: Vec<f64>,
    sim_finish: Vec<f64>,
    done: Vec<bool>,
    flow_rate: Vec<f64>,
    finish: Vec<f64>,
    deadline_misses: Vec<FlowId>,
    sim: SimBufs,
    stats: DeltaStats,
}

impl DeltaEstimator {
    /// Builds a delta estimator for one search over `problem` in `world`.
    pub fn new(problem: &Problem, world: &World) -> Result<Self, EstimateError> {
        let mut de = Self::default();
        de.reset(problem, world)?;
        Ok(de)
    }

    /// Re-arms this estimator for a new search, reusing every buffer.
    /// Clears the binding, the component cache, and the stats; resolves all static tables for `problem`/`world`.
    pub fn reset(&mut self, problem: &Problem, world: &World) -> Result<(), EstimateError> {
        let n = problem.flows.len();
        self.n = n;
        self.n_vars = problem.vars.len();

        // Static attribute resolution — same helpers, hence same failure
        // modes and values, as the scratch path.
        resolve_sizes_into(problem, &mut self.size_memo, &mut self.sizes)?;
        resolve_consts_into(problem, AttrKind::Start, "start", &mut self.starts)?;
        resolve_transfer_offsets_into(problem, &mut self.initial)?;
        resolve_rate_attrs_into(problem, &mut self.caps, &mut self.couple)?;
        resolve_consts_into(problem, AttrKind::End, "end", &mut self.deadlines)?;
        self.has_end.clear();
        self.has_end
            .extend(problem.flows.iter().map(|f| f.attr(AttrKind::End).is_some()));
        self.n_groups = assemble_groups(
            n,
            &self.couple,
            &mut self.uf_parent,
            &mut self.group_of,
            &mut self.root_group,
            &mut self.groups,
        );
        transfer_topo_order_into(
            problem,
            &mut self.t_ups_items,
            &mut self.t_ups_start,
            &mut self.topo_state,
            &mut self.topo_order,
        );
        self.ends.clear();
        self.ends
            .extend(problem.flows.iter().map(|f| (f.src, f.dst)));
        self.total_bytes = self.sizes.iter().sum();

        // Flows mentioning each variable, CSR over variable index.
        self.var_flows_items.clear();
        self.var_flows_start.clear();
        for v in 0..self.n_vars {
            self.var_flows_start.push(self.var_flows_items.len());
            for (i, &(src, dst)) in self.ends.iter().enumerate() {
                let mentions = src.as_var().is_some_and(|x| x.0 == v)
                    || dst.as_var().is_some_and(|x| x.0 == v);
                if mentions {
                    self.var_flows_items.push(i);
                }
            }
        }
        self.var_flows_start.push(self.var_flows_items.len());
        self.determined_depth.clear();
        self.determines_flows.clear();
        self.determines_flows.resize(self.n_vars + 1, false);
        for &(src, dst) in &self.ends {
            let d = |e: Endpoint| e.as_var().map_or(0, |v| v.0 + 1);
            let depth = d(src).max(d(dst));
            self.determined_depth.push(depth);
            self.determines_flows[depth] = true;
        }

        self.table.rebuild(problem, world);
        self.distinct = problem.distinct;
        self.pool_of.clear();
        self.pool_of.extend(problem.vars.iter().map(|v| v.pool));
        self.cand_words = self.table.addrs.len().div_ceil(64);
        self.cand_slots.clear();
        self.cand_slots.resize(self.n_vars * self.cand_words, 0);
        self.cand_disk.clear();
        self.cand_addr.clear();
        for v in 0..self.n_vars {
            let bits = &mut self.cand_slots[v * self.cand_words..][..self.cand_words];
            let (mut disk, mut addr) = (false, false);
            for &cand in self.table.candidates(v) {
                if let BoundEndpoint::Host(slot) = cand {
                    bits[slot / 64] |= 1 << (slot % 64);
                    addr = true;
                } else {
                    disk = true;
                }
            }
            self.cand_disk.push(disk);
            self.cand_addr.push(addr);
        }

        // Dynamic state: empty binding, everything stale, cache cold.
        self.values.clear();
        self.slots.clear();
        self.clock = 0;
        self.var_clock.clear();
        self.var_clock.resize(self.n_vars, 0);
        self.flow_version.clear();
        self.flow_version.resize(n, 0);
        self.usage_buf.clear();
        self.usage_buf.resize(2 * n, (0, 0.0));
        self.usage_len.clear();
        self.usage_len.resize(n, 0);
        self.usage_stale.clear();
        self.usage_stale.resize(n, true);
        self.caches_used = 0;
        self.cache_of.clear();
        self.cache_of.resize(n, usize::MAX);
        self.remaining.clear();
        self.remaining.resize(n, 0.0);
        self.sim_finish.clear();
        self.sim_finish.resize(n, 0.0);
        self.done.clear();
        self.done.resize(n, false);
        self.flow_rate.clear();
        self.flow_rate.resize(n, 0.0);
        self.finish.clear();
        self.finish.resize(n, 0.0);
        self.deadline_misses.clear();
        self.stats = DeltaStats::default();
        Ok(())
    }

    /// Current binding depth (number of bound variables).
    pub fn depth(&self) -> usize {
        self.values.len()
    }

    /// The current (partial) binding.
    pub fn binding(&self) -> &Binding {
        &self.values
    }

    /// The capacity table this search indexes.
    pub fn table(&self) -> &CapacityTable {
        &self.table
    }

    /// Work counters accumulated since the last [`reset`](Self::reset).
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Completion times (post-precedence) of the last successful estimate.
    pub fn flow_finish(&self) -> &[f64] {
        &self.finish
    }

    /// Marks every flow mentioning `var` as touched: bumps its version
    /// (invalidating component ratings that depend on it) and schedules a
    /// usage rebuild before the next estimate.
    fn touch_var(&mut self, var: usize) {
        self.clock += 1;
        self.var_clock[var] = self.clock;
        let span = self.var_flows_start[var]..self.var_flows_start[var + 1];
        for &f in &self.var_flows_items[span] {
            self.flow_version[f] = self.clock;
            self.usage_stale[f] = true;
        }
    }

    /// The current binding's values, each host as its slot in
    /// [`table`](Self::table).
    pub fn slots(&self) -> &[BoundEndpoint<usize>] {
        &self.slots
    }

    /// Binds the next variable (depth-first descent) to `value`, which is
    /// candidate `index` of its pool.
    pub fn push(&mut self, value: Value, index: usize) {
        debug_assert!(self.values.len() < self.n_vars, "push past full binding");
        let var = self.values.len();
        let slotted = self.table.candidates(var)[index];
        debug_assert_eq!(
            match slotted {
                BoundEndpoint::Host(slot) => Value::Addr(self.table.addrs[slot]),
                _ => Value::Disk,
            },
            value,
            "candidate {index} of variable {var}"
        );
        self.values.push(value);
        self.slots.push(slotted);
        self.stats.max_undo_depth = self.stats.max_undo_depth.max(self.values.len() as u64);
        self.touch_var(var);
    }

    /// Undoes the most recent [`push`](Self::push).
    pub fn pop(&mut self) {
        let var = self
            .values
            .len()
            .checked_sub(1)
            .expect("pop on an empty binding");
        self.stats.undos += 1;
        self.touch_var(var);
        self.values.pop();
        self.slots.pop();
    }

    /// Makespan lower bound from the rated components that every
    /// completion of the current binding *prefix* will replay unchanged:
    /// all members determined by the prefix, no variable of that prefix
    /// touched since the rating, and the component *closed* — no flow the
    /// prefix leaves open can still reach one of its resources, whatever
    /// its variables are bound to (candidate pools, minus what
    /// distinctness already rules out: the caller is taken to extend the
    /// prefix only by values the problem allows).
    ///
    /// Such a component has the same members, usages and versions at every
    /// leaf below, so the leaf replays this very rating from the cache,
    /// and the precedence post-pass and the makespan `max` only raise
    /// finish times: the bound is not merely admissible, it is a finish
    /// time the leaf's estimate contains, bit for bit. (A component some
    /// open flow could join would also bound the makespan in exact
    /// arithmetic — max-min rates are monotone — but re-simulating it
    /// with one more member splits its event steps differently, and the
    /// last bit of a finish time can move either way. The search cuts on
    /// equality, so only exact bounds will do.) A rated component that
    /// stalled contributes `INFINITY`: every completion under this prefix
    /// is impossible.
    pub fn component_lower_bound(&mut self) -> f64 {
        let depth = self.values.len();
        let mut lb = 0.0f64;
        for k in 0..self.caches_used {
            let cc = &self.caches[k];
            if cc.max_depth > depth || cc.max_finish <= lb {
                continue;
            }
            let untouched = self.var_clock[..cc.max_depth]
                .iter()
                .all(|&c| c <= cc.rated_clock);
            if !untouched {
                continue;
            }
            let max_finish = cc.max_finish;
            let closed = cc.closed.unwrap_or_else(|| self.is_closed(k));
            self.caches[k].closed = Some(closed);
            if closed {
                lb = max_finish;
            }
        }
        lb
    }

    /// Whether cached component `k` is closed under the first `max_depth`
    /// bound variables (see
    /// [`component_lower_bound`](Self::component_lower_bound)).
    fn is_closed(&self, k: usize) -> bool {
        let cc = &self.caches[k];
        let depth = cc.max_depth;
        let open = |g: &usize| self.determined_depth[*g] > depth;
        cc.flows.iter().all(|&f| {
            self.usage_buf[2 * f..2 * f + self.usage_len[f]]
                .iter()
                .all(|&(r, _)| {
                    !(0..self.n)
                        .filter(open)
                        .any(|g| self.may_touch(g, r, depth))
                })
        })
    }

    /// Whether flow `g` could use resource `r` under some completion of
    /// the first `depth` bound variables. Errs towards `true`.
    fn may_touch(&self, g: usize, r: ResourceIdx, depth: usize) -> bool {
        let slot = r / 4;
        let addr = self.table.addrs[slot];
        // What an endpoint can be: this host, `disk`, or something that
        // puts the peer's traffic on its NIC (a host or "unknown").
        let host = |e: Endpoint| match e {
            Endpoint::Addr(a) => a == addr,
            Endpoint::Var(v) if v.0 < depth => self.values[v.0] == Value::Addr(addr),
            Endpoint::Var(v) => {
                let word = self.cand_slots[v.0 * self.cand_words + slot / 64];
                let taken = self.distinct
                    && (0..depth).any(|j| {
                        self.pool_of[j] == self.pool_of[v.0] && self.values[j] == Value::Addr(addr)
                    });
                word >> (slot % 64) & 1 == 1 && !taken
            }
            Endpoint::Disk | Endpoint::Unknown => false,
        };
        let disk = |e: Endpoint| match e {
            Endpoint::Disk => true,
            Endpoint::Var(v) if v.0 < depth => self.values[v.0] == Value::Disk,
            Endpoint::Var(v) => self.cand_disk[v.0],
            Endpoint::Addr(_) | Endpoint::Unknown => false,
        };
        let network = |e: Endpoint| match e {
            Endpoint::Addr(_) | Endpoint::Unknown => true,
            Endpoint::Var(v) if v.0 < depth => self.values[v.0] != Value::Disk,
            Endpoint::Var(v) => self.cand_addr[v.0],
            Endpoint::Disk => false,
        };
        let (src, dst) = self.ends[g];
        match Resource::ALL[r % 4] {
            Resource::Up => host(src) && network(dst),
            Resource::Down => host(dst) && network(src),
            Resource::DiskRead => host(dst) && disk(src),
            Resource::DiskWrite => host(src) && disk(dst),
        }
    }

    /// Brings the component cache up to date for the flows the first
    /// `depth` variables determine (all of them at `depth == n_vars`):
    /// rebuilds their stale usages, partitions them, and rates — or
    /// replays — every component made of such flows only. Returns the
    /// lowest flow that can never finish, if any.
    fn rate_components(&mut self, depth: usize) -> Option<usize> {
        let n = self.n;
        let determined_depth = &self.determined_depth;
        // At a leaf every flow is determined; the per-flow depth checks
        // below are for prefixes only.
        let full = depth == self.n_vars;

        // Rebuild usages of touched flows from their bound endpoints.
        for f in 0..n {
            if !self.usage_stale[f] || !(full || determined_depth[f] <= depth) {
                continue;
            }
            self.usage_stale[f] = false;
            self.stats.flows_moved += 1;
            let (src, dst) = self.table.flow_ends(f, &self.slots);
            let usage_buf = &mut self.usage_buf;
            let mut len = 0usize;
            push_flow_usages(
                src,
                dst,
                |slot| 4 * slot,
                |r, m| {
                    usage_buf[2 * f + len] = (r, m);
                    len += 1;
                },
            );
            self.usage_len[f] = len;
        }

        // Partition into resource-connected components — at full depth
        // the same canonical partition (min-member-ordered, ascending
        // members) the scratch path computes. Flows the prefix leaves
        // open use nothing yet; they stay tied to their rate group.
        let usage_buf = &self.usage_buf;
        let usage_len = &self.usage_len;
        let usage_of = move |i: usize| {
            let len = if full || determined_depth[i] <= depth {
                usage_len[i]
            } else {
                0
            };
            &usage_buf[2 * i..2 * i + len]
        };
        let groups: &[Vec<usize>] = &self.groups[..self.n_groups];
        partition_components(
            n,
            self.table.capacities.len(),
            &usage_of,
            groups,
            &mut self.part,
        );

        // Rate each component: replay the cache when the member set and
        // every member version are unchanged, simulate otherwise.
        let mut stalled: Option<usize> = None;
        for c in 0..self.part.n_comps {
            let members: &[usize] = &self.part.members[c];
            if !full && members.iter().any(|&f| determined_depth[f] > depth) {
                continue;
            }
            let min = members[0];
            let mut slot = self.cache_of[min];
            let hit = slot != usize::MAX && {
                let cc = &self.caches[slot];
                cc.flows[..] == *members
                    && cc
                        .flows
                        .iter()
                        .zip(cc.versions.iter())
                        .all(|(&f, &v)| self.flow_version[f] == v)
            };
            let comp_stalled = if hit {
                self.stats.components_reused += 1;
                let cc = &self.caches[slot];
                for (k, &f) in cc.flows.iter().enumerate() {
                    self.sim_finish[f] = cc.finish[k];
                }
                cc.stalled
            } else {
                self.stats.components_rerated += 1;
                for &f in members {
                    let rem = (self.sizes[f] - self.initial[f]).max(0.0);
                    self.remaining[f] = rem;
                    let d = rem <= model::EPS;
                    self.done[f] = d;
                    self.sim_finish[f] = if d { self.starts[f] } else { 0.0 };
                    self.flow_rate[f] = 0.0;
                }
                let res = simulate_component(
                    members,
                    &usage_of,
                    &self.sizes,
                    &self.starts,
                    &self.caps,
                    &self.group_of,
                    groups,
                    &self.table.capacities,
                    &mut self.remaining,
                    &mut self.sim_finish,
                    &mut self.done,
                    &mut self.flow_rate,
                    &mut self.sim,
                );
                if slot == usize::MAX {
                    slot = self.caches_used;
                    if slot == self.caches.len() {
                        self.caches.push(CompCache::default());
                    }
                    self.caches_used += 1;
                    self.cache_of[min] = slot;
                }
                let cc = &mut self.caches[slot];
                cc.flows.clear();
                cc.flows.extend_from_slice(members);
                cc.versions.clear();
                cc.versions
                    .extend(members.iter().map(|&f| self.flow_version[f]));
                cc.finish.clear();
                cc.finish.extend(members.iter().map(|&f| self.sim_finish[f]));
                cc.stalled = res;
                cc.max_finish = if res.is_some() {
                    f64::INFINITY
                } else {
                    members
                        .iter()
                        .map(|&f| self.sim_finish[f])
                        .fold(0.0, f64::max)
                };
                cc.max_depth = members
                    .iter()
                    .map(|&f| self.determined_depth[f])
                    .max()
                    .unwrap_or(0);
                cc.rated_clock = self.clock;
                cc.closed = None;
                res
            };
            if let Some(s) = comp_stalled {
                stalled = Some(stalled.map_or(s, |m: usize| m.min(s)));
            }
        }
        stalled
    }

    /// Rates, ahead of the leaves, the components the current prefix has
    /// just determined, so that
    /// [`component_lower_bound`](Self::component_lower_bound) knows a
    /// prefix's bottleneck the first time the search stands on it rather
    /// than one leaf later. The ratings land in the component cache and
    /// the leaves below replay them, so the work is moved, not added.
    pub fn rate_prefix(&mut self) {
        let depth = self.values.len();
        if depth < self.n_vars && self.determines_flows[depth] {
            self.rate_components(depth);
        }
    }

    /// Estimates the fully-bound problem, re-rating only components whose
    /// members moved since the last estimate. Bit-identical to
    /// [`crate::estimate_with`] on the same binding.
    pub fn estimate_summary(&mut self) -> Result<EstimateSummary, EstimateError> {
        if self.values.len() != self.n_vars {
            return Err(EstimateError::BindingArity {
                expected: self.n_vars,
                got: self.values.len(),
            });
        }
        self.stats.estimates += 1;
        if let Some(s) = self.rate_components(self.n_vars) {
            return Err(EstimateError::Stalled(FlowId(s)));
        }
        let n = self.n;

        // Precedence pass on a copy: `sim_finish` stays cache-owned raw
        // data; `finish` is the user-visible post-precedence view.
        self.finish.clear();
        self.finish.extend_from_slice(&self.sim_finish);
        for &i in &self.topo_order {
            let mut upstream_finish = 0.0f64;
            for &u in &self.t_ups_items[self.t_ups_start[i]..self.t_ups_start[i + 1]] {
                upstream_finish = upstream_finish.max(self.finish[u]);
            }
            self.finish[i] = self.finish[i].max(upstream_finish);
        }

        let makespan = self.finish.iter().copied().fold(0.0, f64::max);
        self.deadline_misses.clear();
        for i in 0..n {
            if self.has_end[i] && self.finish[i] > self.deadlines[i] + 1e-9 {
                self.deadline_misses.push(FlowId(i));
            }
        }
        Ok(EstimateSummary {
            makespan,
            total_bytes: self.total_bytes,
            throughput: if makespan > 0.0 {
                self.total_bytes / makespan
            } else {
                0.0
            },
            deadline_miss_count: self.deadline_misses.len(),
        })
    }

    /// Allocating convenience over [`estimate_summary`](Self::estimate_summary),
    /// returning the same `Estimate` the scratch path would.
    pub fn estimate(&mut self) -> Result<Estimate, EstimateError> {
        let summary = self.estimate_summary()?;
        Ok(Estimate {
            flow_finish: self.finish.clone(),
            makespan: summary.makespan,
            total_bytes: summary.total_bytes,
            throughput: summary.throughput,
            deadline_misses: self.deadline_misses.clone(),
        })
    }
}
