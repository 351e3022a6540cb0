//! The live substrate: fluid simulation of transfers over a topology.
//!
//! [`NetSim`] tracks a set of active *transfers*. A transfer is a coupled
//! group of segments (network hops and disk accesses) progressing at one
//! common rate — the fluid model of a pipelined copy. Whenever the set of
//! transfers changes, rates are recomputed with the max-min allocator
//! ([`crate::sharing`]); between changes every transfer progresses
//! linearly, so completions can be scheduled exactly.
//!
//! # Incremental, component-aware rate maintenance
//!
//! Max-min fairness has a locality property the engine exploits: two
//! transfers can only influence each other's rates if they are connected
//! through a chain of shared resources. The engine therefore maintains the
//! partition of active transfers into *resource-connected components*
//! (merged on `start`, lazily re-split after removals) and, on each
//! mutation, re-rates only the dirty component(s) against a compact
//! per-component capacity view. Untouched components keep their rates,
//! their scheduled completion events, and their contribution to per-host
//! load — so the cost of an event is proportional to the size of the
//! component it touches, not to the total number of flows.
//!
//! Three further mechanisms keep the per-event cost down:
//!
//! * completions live in a cancellable ETA priority queue
//!   ([`desim::EventQueue`]); only transfers whose rate actually changed
//!   (bit-wise) are re-keyed;
//! * progress accounting is lazy: each transfer carries the bytes done as
//!   of its last rate change and is *settled* only when its rate changes
//!   or it is queried — `advance_to` never walks the flow table;
//! * transfers are slab-allocated with generation-tagged ids, so `cancel`
//!   and lookup are O(1) and the steady state allocates nothing.
//!
//! [`EngineMode::FullRecompute`] retains the global-recompute behaviour as
//! an oracle: it shares this event loop, settle arithmetic, and ETA
//! quantisation, differing only in re-rating *everything* on every
//! mutation. Per-component re-rating performs the identical floating-point
//! operations on each component as a global run does (demands are ordered
//! by start sequence in both, and the allocator's arithmetic never mixes
//! values across disconnected components), so the two modes produce
//! bit-identical completion streams — asserted by the property suite and
//! the `simnet_scale --smoke` CI gate.
//!
//! Applications drive time explicitly: [`NetSim::advance_to`] moves the
//! clock and returns the transfers that completed on the way. Per-host
//! load snapshots ([`NetSim::host_load`]) expose exactly what a CloudTalk
//! status server would measure on that machine.

use std::mem;

use desim::{EventHandle, EventQueue, SimDuration, SimTime};
use obs::{CounterId, GaugeId, MetricsRegistry};

use crate::routing::Router;
use crate::sharing::{coalesce_usages, max_min_rates_into, Demand, ResourceIdx, SharingScratch};
use crate::topology::{HostId, LinkDir, Topology};
use crate::LOCAL_RATE;

/// Identifier of a transfer within a [`NetSim`].
///
/// Packs a slab slot (low 32 bits) and that slot's generation at start
/// time (high 32 bits), so lookup and cancellation are O(1) and an id can
/// never alias a later transfer that reuses the slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransferId(pub u64);

/// One leg of a transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment {
    /// A network hop between two hosts (loopback if equal).
    Net {
        /// Sending host.
        src: HostId,
        /// Receiving host.
        dst: HostId,
    },
    /// Reading from a host's local disk.
    DiskRead(HostId),
    /// Writing to a host's local disk.
    DiskWrite(HostId),
}

/// Specification of a transfer to start.
#[derive(Clone, Debug)]
pub struct TransferSpec {
    /// The coupled segments; all proceed at one common rate.
    pub segments: Vec<Segment>,
    /// Payload bytes (use [`f64::INFINITY`] for unbounded background flows).
    pub bytes: f64,
    /// Optional rate cap, bytes/second.
    pub cap: Option<f64>,
    /// If set, the transfer is inelastic (UDP-like) at this rate.
    pub inelastic_rate: Option<f64>,
}

impl TransferSpec {
    /// A plain network transfer.
    pub fn network(src: HostId, dst: HostId, bytes: f64) -> Self {
        TransferSpec {
            segments: vec![Segment::Net { src, dst }],
            bytes,
            cap: None,
            inelastic_rate: None,
        }
    }

    /// A local disk read.
    pub fn disk_read(host: HostId, bytes: f64) -> Self {
        TransferSpec {
            segments: vec![Segment::DiskRead(host)],
            bytes,
            cap: None,
            inelastic_rate: None,
        }
    }

    /// A local disk write.
    pub fn disk_write(host: HostId, bytes: f64) -> Self {
        TransferSpec {
            segments: vec![Segment::DiskWrite(host)],
            bytes,
            cap: None,
            inelastic_rate: None,
        }
    }

    /// A read-then-send: disk read at `src` coupled with a hop to `dst`.
    pub fn read_and_send(src: HostId, dst: HostId, bytes: f64) -> Self {
        TransferSpec {
            segments: vec![Segment::DiskRead(src), Segment::Net { src, dst }],
            bytes,
            cap: None,
            inelastic_rate: None,
        }
    }

    /// A receive-then-store: hop from `src` coupled with a disk write at `dst`.
    pub fn send_and_store(src: HostId, dst: HostId, bytes: f64) -> Self {
        TransferSpec {
            segments: vec![Segment::Net { src, dst }, Segment::DiskWrite(dst)],
            bytes,
            cap: None,
            inelastic_rate: None,
        }
    }

    /// A pipelined replication chain (HDFS write): `client → r1 → … → rk`,
    /// each replica also writing to its disk, all at one coupled rate.
    pub fn pipeline(client: HostId, replicas: &[HostId], bytes: f64) -> Self {
        let mut segments = Vec::with_capacity(replicas.len() * 2);
        let mut prev = client;
        for &r in replicas {
            segments.push(Segment::Net { src: prev, dst: r });
            segments.push(Segment::DiskWrite(r));
            prev = r;
        }
        TransferSpec {
            segments,
            bytes,
            cap: None,
            inelastic_rate: None,
        }
    }

    /// Caps the transfer's rate.
    pub fn with_cap(mut self, cap: f64) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Marks the transfer inelastic (UDP-like) at `rate`.
    pub fn with_inelastic(mut self, rate: f64) -> Self {
        self.inelastic_rate = Some(rate);
        self
    }
}

/// A completed transfer.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Completion {
    /// Which transfer.
    pub id: TransferId,
    /// When it started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
}

/// A host's instantaneous I/O state — what a status server measures.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HostLoad {
    /// NIC capacity, bytes/second (per direction).
    pub nic_capacity: f64,
    /// Current transmit usage, bytes/second.
    pub tx_bps: f64,
    /// Current receive usage, bytes/second.
    pub rx_bps: f64,
    /// Disk read capacity, bytes/second.
    pub disk_read_capacity: f64,
    /// Current disk read usage, bytes/second.
    pub disk_read_bps: f64,
    /// Disk write capacity, bytes/second.
    pub disk_write_capacity: f64,
    /// Current disk write usage, bytes/second.
    pub disk_write_bps: f64,
}

/// How the engine recomputes rates after a mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineMode {
    /// Re-rate only the resource-connected component(s) a mutation touched.
    #[default]
    Incremental,
    /// Re-rate every active transfer on every mutation — the original
    /// global behaviour, retained as a correctness oracle and baseline.
    FullRecompute,
}

/// Counters describing the work the engine has performed.
///
/// Read with [`NetSim::stats`]; the incremental/oracle scaling bench and
/// the allocator-invocation regression tests are built on these. The
/// counters live in the engine's [`MetricsRegistry`] (see
/// [`NetSim::metrics`]) under the `engine.*` names; this struct is the
/// by-value snapshot reconstructed from it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Invocations of the max-min allocator.
    pub allocator_calls: u64,
    /// Total demands passed to the allocator (Σ component sizes rated).
    pub demands_rated: u64,
    /// Completion-queue events processed.
    pub events: u64,
    /// Progress settlements (rate changes applied to a running transfer).
    pub settles: u64,
    /// Component merges performed by `start`.
    pub merges: u64,
    /// Extra components produced by lazy re-splits (repartition fan-out).
    pub splits: u64,
    /// Largest component (or global batch, in oracle mode) ever rated.
    pub max_component: usize,
}

/// Registry handles for the engine's exported work counters.
///
/// Registered once at construction; updates are single array writes, so
/// the hot paths stay allocation-free.
#[derive(Clone, Copy, Debug)]
struct EngineMetricIds {
    allocator_calls: CounterId,
    demands_rated: CounterId,
    events: CounterId,
    settles: CounterId,
    merges: CounterId,
    splits: CounterId,
    max_component: GaugeId,
}

impl EngineMetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        EngineMetricIds {
            allocator_calls: reg.counter("engine.allocator_calls"),
            demands_rated: reg.counter("engine.demands_rated"),
            events: reg.counter("engine.events"),
            settles: reg.counter("engine.settles"),
            merges: reg.counter("engine.merges"),
            splits: reg.counter("engine.splits"),
            max_component: reg.gauge("engine.max_component"),
        }
    }
}

/// Sentinel for "not a member of any component".
const NO_COMP: u32 = u32::MAX;

/// Slab slot for an active (or vacant) transfer.
struct Active {
    /// Monotonic start sequence: demand ordering and the ECMP flow hash.
    seq: u64,
    generation: u32,
    live: bool,
    /// Sorted, duplicate-free `(resource, multiplicity)` usages.
    usages: Vec<(ResourceIdx, f64)>,
    cap: Option<f64>,
    inelastic: Option<f64>,
    bytes: f64,
    /// Bytes moved as of `last_sync`; progress since then is implied by
    /// `rate` (lazy settlement).
    done_at_sync: f64,
    last_sync: SimTime,
    rate: f64,
    started: SimTime,
    /// Owning component, or `NO_COMP` (loopback transfers; oracle mode).
    comp: u32,
    /// Index of this slot inside `comp`'s member list.
    member_pos: u32,
    /// Pending completion event, if one is scheduled.
    event: Option<EventHandle>,
}

impl Active {
    fn vacant() -> Self {
        Active {
            seq: 0,
            generation: 0,
            live: false,
            usages: Vec::new(),
            cap: None,
            inelastic: None,
            bytes: 0.0,
            done_at_sync: 0.0,
            last_sync: SimTime::ZERO,
            rate: 0.0,
            started: SimTime::ZERO,
            comp: NO_COMP,
            member_pos: 0,
            event: None,
        }
    }
}

/// A resource-connected component of active transfers.
struct Component {
    /// Member slots, unordered (positions tracked in `Active::member_pos`).
    members: Vec<u32>,
    dirty: bool,
    live: bool,
}

/// Reusable buffers for the engine hot path. Every vector reaches its
/// high-water capacity during warm-up and is cleared, never shrunk, so the
/// steady state performs no allocation (asserted by the counting-allocator
/// test in `tests/engine_alloc.rs`).
#[derive(Default)]
struct EngineScratch {
    sharing: SharingScratch,
    /// Demand pool reused across allocator calls.
    demands: Vec<Demand>,
    rates: Vec<f64>,
    /// `(seq, slot)` members of the component being rated, in start order.
    sorted: Vec<(u64, u32)>,
    /// Event batch drained at one timestamp.
    batch: Vec<(u64, u32)>,
    /// Members of the component being repartitioned, in start order.
    part: Vec<(u64, u32)>,
    /// Union-find parents over local member indices.
    uf: Vec<u32>,
    /// Local member index → sub-component ordinal.
    sub_of: Vec<u32>,
    /// Union-find root → sub-component ordinal (first-occurrence order).
    root_sub: Vec<u32>,
    /// CSR offsets and items bucketing members by sub-component.
    sub_start: Vec<u32>,
    sub_cursor: Vec<u32>,
    sub_items: Vec<u32>,
    /// First member touching each resource (epoch-stamped).
    res_first: Vec<u32>,
    res_first_mark: Vec<u64>,
    /// Global resource → dense per-component index (epoch-stamped).
    res_dense: Vec<u32>,
    res_dense_mark: Vec<u64>,
    epoch: u64,
    /// Per-component capacity view and its dense → global mapping.
    cap_view: Vec<f64>,
    comp_res: Vec<ResourceIdx>,
    /// Members being moved during a component merge.
    moved: Vec<u32>,
    /// Distinct neighbour components seen while starting a transfer.
    neigh: Vec<u32>,
}

/// The fluid network/disk simulator.
pub struct NetSim {
    topo: Topology,
    router: Router,
    capacities: Vec<f64>,
    usage: Vec<f64>,
    now: SimTime,
    slots: Vec<Active>,
    free_slots: Vec<u32>,
    next_seq: u64,
    live_count: usize,
    comps: Vec<Component>,
    free_comps: Vec<u32>,
    dirty_comps: Vec<u32>,
    /// Number of live transfers using each resource.
    res_users: Vec<u32>,
    /// Component owning each resource (valid only while `res_users > 0`).
    res_comp: Vec<u32>,
    /// Completion ETAs; payload is the transfer's slot.
    queue: EventQueue<u32>,
    mode: EngineMode,
    /// Oracle-mode pending-recompute flag (unused incrementally).
    global_dirty: bool,
    scratch: EngineScratch,
    metrics: MetricsRegistry,
    ids: EngineMetricIds,
}

impl NetSim {
    /// Creates a simulator over `topo` at time zero.
    pub fn new(topo: Topology) -> Self {
        Self::with_mode(topo, EngineMode::FullRecompute)
    }

    /// Creates a simulator with an explicit [`EngineMode`].
    pub fn with_mode(topo: Topology, mode: EngineMode) -> Self {
        let n_res = 2 * topo.link_count() + 2 * topo.host_count();
        let mut capacities = vec![0.0; n_res];
        for l in 0..topo.link_count() {
            let cap = topo.link(crate::LinkId(l)).capacity_bps;
            capacities[2 * l] = cap;
            capacities[2 * l + 1] = cap;
        }
        for h in 0..topo.host_count() {
            let disk = topo.host(HostId(h)).disk;
            capacities[2 * topo.link_count() + 2 * h] = disk.read_bps;
            capacities[2 * topo.link_count() + 2 * h + 1] = disk.write_bps;
        }
        let usage = vec![0.0; n_res];
        let mut metrics = MetricsRegistry::new();
        let ids = EngineMetricIds::register(&mut metrics);
        NetSim {
            topo,
            router: Router::new(),
            capacities,
            usage,
            now: SimTime::ZERO,
            slots: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
            live_count: 0,
            comps: Vec::new(),
            free_comps: Vec::new(),
            dirty_comps: Vec::new(),
            res_users: vec![0; n_res],
            res_comp: vec![NO_COMP; n_res],
            queue: EventQueue::new(),
            mode,
            global_dirty: false,
            scratch: EngineScratch::default(),
            metrics,
            ids,
        }
    }

    /// The engine's rate-maintenance mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Work counters accumulated since construction (or the last
    /// [`NetSim::reset_stats`]), snapshotted from the metrics registry.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            allocator_calls: self.metrics.counter_value(self.ids.allocator_calls),
            demands_rated: self.metrics.counter_value(self.ids.demands_rated),
            events: self.metrics.counter_value(self.ids.events),
            settles: self.metrics.counter_value(self.ids.settles),
            merges: self.metrics.counter_value(self.ids.merges),
            splits: self.metrics.counter_value(self.ids.splits),
            max_component: self.metrics.gauge_value(self.ids.max_component) as usize,
        }
    }

    /// The engine's metrics registry (`engine.*` counters and the
    /// `engine.max_component` gauge), for exported dumps.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Zeroes the work counters (handles stay valid; allocation-free).
    pub fn reset_stats(&mut self) {
        self.metrics.reset();
    }

    /// Number of live resource-connected components (always 0 in oracle
    /// mode, which does not maintain the decomposition).
    pub fn component_count(&self) -> usize {
        self.comps.iter().filter(|c| c.live).count()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// All host ids (convenience).
    pub fn hosts(&self) -> Vec<HostId> {
        self.topo.host_ids()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Starts a transfer, marking the touched component for re-rating.
    pub fn start(&mut self, spec: TransferSpec) -> TransferId {
        assert!(spec.bytes >= 0.0, "transfer bytes must be non-negative");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot();
        self.build_usages(&spec, seq, slot);
        let now = self.now;
        {
            let t = &mut self.slots[slot as usize];
            t.seq = seq;
            t.live = true;
            t.cap = spec.cap;
            t.inelastic = spec.inelastic_rate;
            t.bytes = spec.bytes;
            t.done_at_sync = 0.0;
            t.last_sync = now;
            t.rate = 0.0;
            t.started = now;
            t.comp = NO_COMP;
            t.member_pos = 0;
            t.event = None;
        }
        self.live_count += 1;
        if self.slots[slot as usize].usages.is_empty() {
            // Loopback-style transfer: nothing in the topology constrains
            // it, so its rate is fixed for life. Both modes assign the same
            // value the global allocator would, so oracle recomputes never
            // re-key it.
            let t = &mut self.slots[slot as usize];
            let raw = match t.inelastic {
                Some(want) => t.cap.map_or(want, |c| want.min(c)),
                None => t.cap.unwrap_or(f64::INFINITY),
            };
            t.rate = if raw.is_finite() { raw } else { LOCAL_RATE };
            if matches!(self.mode, EngineMode::FullRecompute) {
                self.global_dirty = true;
            }
        } else {
            match self.mode {
                EngineMode::Incremental => self.attach_to_component(slot),
                EngineMode::FullRecompute => {
                    for k in 0..self.slots[slot as usize].usages.len() {
                        let r = self.slots[slot as usize].usages[k].0;
                        self.res_users[r] += 1;
                    }
                    self.global_dirty = true;
                }
            }
        }
        // Schedules the completion event when one is already determined:
        // loopback transfers (rate fixed above) and zero-byte transfers
        // (which complete at `now` regardless of rate).
        self.rekey(slot);
        self.id_of(slot)
    }

    /// Cancels an active transfer (no completion is recorded).
    ///
    /// Returns `true` if it was active. O(1): the slot is recycled and only
    /// the transfer's own component is marked for re-rating.
    pub fn cancel(&mut self, id: TransferId) -> bool {
        match self.lookup(id) {
            Some(slot) => {
                self.remove_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Bytes moved so far by an active transfer (`None` once finished).
    ///
    /// Lazy settlement makes this exact without touching engine state:
    /// a transfer's stored rate is valid over `[last_sync, now]` because
    /// rates only ever change at the current instant.
    pub fn progress(&self, id: TransferId) -> Option<f64> {
        let slot = self.lookup(id)?;
        let t = &self.slots[slot as usize];
        let dt = (self.now - t.last_sync).as_secs_f64();
        let mut done = t.done_at_sync + t.rate * dt;
        if t.bytes.is_finite() && done > t.bytes {
            done = t.bytes;
        }
        Some(done)
    }

    /// Current rate of an active transfer, bytes/second.
    pub fn rate(&mut self, id: TransferId) -> Option<f64> {
        self.ensure_rates();
        self.lookup(id).map(|s| self.slots[s as usize].rate)
    }

    /// The earliest upcoming completion time, if any transfer is finite.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        self.ensure_rates();
        self.queue.peek_time()
    }

    /// Advances the clock to `t`, processing completions on the way.
    ///
    /// Returns the completions in chronological order (ties broken by
    /// start order).
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        self.advance_into(t, &mut out);
        out
    }

    /// Allocation-free form of [`NetSim::advance_to`]: clears `out` and
    /// fills it with the completions.
    pub fn advance_into(&mut self, t: SimTime, out: &mut Vec<Completion>) {
        assert!(t >= self.now, "cannot advance into the past");
        out.clear();
        loop {
            // One invalidation check per step: `ensure_rates` both re-rates
            // dirty components and (via re-keying) repairs the ETA queue,
            // so peeking it afterwards is exact.
            self.ensure_rates();
            let next = match self.queue.peek_time() {
                Some(at) if at <= t => at,
                _ => break,
            };
            debug_assert!(next >= self.now, "event scheduled in the past");
            self.now = next;
            // Drain every event at this instant and process in start order,
            // so simultaneous completions are deterministic regardless of
            // how re-keying interleaved their queue insertions.
            let mut batch = mem::take(&mut self.scratch.batch);
            batch.clear();
            while self.queue.peek_time() == Some(next) {
                let (_, slot) = self.queue.pop().expect("peeked event exists");
                self.slots[slot as usize].event = None;
                batch.push((self.slots[slot as usize].seq, slot));
            }
            batch.sort_unstable();
            self.metrics.inc(self.ids.events, batch.len() as u64);
            for &(_, slot) in batch.iter() {
                self.settle(slot);
                let tr = &self.slots[slot as usize];
                if tr.bytes - tr.done_at_sync <= 1e-6 {
                    out.push(Completion {
                        id: self.id_of(slot),
                        started: tr.started,
                        finished: self.now,
                    });
                    self.remove_slot(slot);
                } else {
                    // A remaining sliver whose transfer time truncated to
                    // zero nanoseconds: re-key one tick ahead so the clock
                    // always advances.
                    self.rekey(slot);
                }
            }
            self.scratch.batch = batch;
        }
        self.now = t;
    }

    /// Runs until every finite transfer completes; returns their ids in
    /// completion order. Unbounded (background) transfers keep running.
    pub fn run_until_idle(&mut self) -> Vec<TransferId> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(t) = self.next_completion_time() {
            self.advance_into(t, &mut buf);
            out.extend(buf.iter().map(|c| c.id));
        }
        out
    }

    /// The instantaneous I/O load of `host` — what its status server reports.
    pub fn host_load(&mut self, host: HostId) -> HostLoad {
        self.ensure_rates();
        let h = self.topo.host(host);
        let link = h.access_link;
        let l = self.topo.link(link);
        // The access link connects host.node to its switch; transmit is the
        // direction leaving the host.
        let (tx_res, rx_res) = if l.a == h.node {
            (2 * link.0, 2 * link.0 + 1)
        } else {
            (2 * link.0 + 1, 2 * link.0)
        };
        let disk_base = 2 * self.topo.link_count() + 2 * host.0;
        HostLoad {
            nic_capacity: l.capacity_bps,
            tx_bps: self.usage[tx_res],
            rx_bps: self.usage[rx_res],
            disk_read_capacity: h.disk.read_bps,
            disk_read_bps: self.usage[disk_base],
            disk_write_capacity: h.disk.write_bps,
            disk_write_bps: self.usage[disk_base + 1],
        }
    }

    /// Number of currently active transfers.
    pub fn active_count(&self) -> usize {
        self.live_count
    }

    // --- slab management --------------------------------------------------

    fn alloc_slot(&mut self) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            s
        } else {
            self.slots.push(Active::vacant());
            (self.slots.len() - 1) as u32
        }
    }

    fn id_of(&self, slot: u32) -> TransferId {
        TransferId((self.slots[slot as usize].generation as u64) << 32 | slot as u64)
    }

    fn lookup(&self, id: TransferId) -> Option<u32> {
        let slot = (id.0 & 0xFFFF_FFFF) as u32;
        let generation = (id.0 >> 32) as u32;
        let t = self.slots.get(slot as usize)?;
        (t.live && t.generation == generation).then_some(slot)
    }

    /// Removes a live transfer: releases its resources, detaches it from
    /// its component (marking the remainder dirty), recycles the slot.
    fn remove_slot(&mut self, slot: u32) {
        let s = slot as usize;
        if let Some(h) = self.slots[s].event.take() {
            self.queue.cancel(h);
        }
        self.slots[s].live = false;
        self.slots[s].generation = self.slots[s].generation.wrapping_add(1);
        for k in 0..self.slots[s].usages.len() {
            let r = self.slots[s].usages[k].0;
            self.res_users[r] -= 1;
            if self.res_users[r] == 0 {
                // Last user gone: nothing will re-rate this resource, so
                // its load must drop to zero here.
                self.usage[r] = 0.0;
                self.res_comp[r] = NO_COMP;
            }
        }
        let c = self.slots[s].comp;
        self.slots[s].comp = NO_COMP;
        if c != NO_COMP {
            let pos = self.slots[s].member_pos as usize;
            self.comps[c as usize].members.swap_remove(pos);
            if let Some(&moved) = self.comps[c as usize].members.get(pos) {
                self.slots[moved as usize].member_pos = pos as u32;
            }
            if self.comps[c as usize].members.is_empty() {
                self.free_comp(c);
            } else {
                self.mark_dirty(c);
            }
        }
        if matches!(self.mode, EngineMode::FullRecompute) {
            self.global_dirty = true;
        }
        self.free_slots.push(slot);
        self.live_count -= 1;
    }

    // --- demand assembly --------------------------------------------------

    /// Builds the transfer's coalesced usage list in place (the slot's
    /// vector keeps its capacity across reuse). The start sequence doubles
    /// as the ECMP flow discriminator.
    fn build_usages(&mut self, spec: &TransferSpec, flow_hash: u64, slot: u32) {
        let disk_base = 2 * self.topo.link_count();
        let NetSim {
            topo,
            router,
            slots,
            ..
        } = self;
        let usages = &mut slots[slot as usize].usages;
        usages.clear();
        for seg in &spec.segments {
            match *seg {
                Segment::Net { src, dst } => {
                    for hop in router.route_ref(topo, src, dst, flow_hash) {
                        let dir_off = match hop.dir {
                            LinkDir::Forward => 0,
                            LinkDir::Backward => 1,
                        };
                        usages.push((2 * hop.link.0 + dir_off, 1.0));
                    }
                }
                Segment::DiskRead(h) => usages.push((disk_base + 2 * h.0, 1.0)),
                Segment::DiskWrite(h) => usages.push((disk_base + 2 * h.0 + 1, 1.0)),
            }
        }
        coalesce_usages(usages);
    }

    // --- component maintenance -------------------------------------------

    fn alloc_comp(&mut self) -> u32 {
        if let Some(c) = self.free_comps.pop() {
            let comp = &mut self.comps[c as usize];
            debug_assert!(comp.members.is_empty());
            comp.live = true;
            comp.dirty = false;
            c
        } else {
            self.comps.push(Component {
                members: Vec::new(),
                dirty: false,
                live: true,
            });
            (self.comps.len() - 1) as u32
        }
    }

    fn free_comp(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        debug_assert!(comp.members.is_empty());
        comp.live = false;
        comp.dirty = false;
        self.free_comps.push(c);
    }

    fn mark_dirty(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        if !comp.dirty {
            comp.dirty = true;
            self.dirty_comps.push(c);
        }
    }

    fn install_member(&mut self, comp: u32, slot: u32) {
        let pos = self.comps[comp as usize].members.len() as u32;
        self.comps[comp as usize].members.push(slot);
        {
            let t = &mut self.slots[slot as usize];
            t.comp = comp;
            t.member_pos = pos;
        }
        for &(r, _) in &self.slots[slot as usize].usages {
            self.res_comp[r] = comp;
        }
    }

    /// Registers a freshly started transfer's resources and unions every
    /// component it bridges into one (smaller merged into larger), marking
    /// the result dirty.
    fn attach_to_component(&mut self, slot: u32) {
        let mut neigh = mem::take(&mut self.scratch.neigh);
        neigh.clear();
        for k in 0..self.slots[slot as usize].usages.len() {
            let r = self.slots[slot as usize].usages[k].0;
            if self.res_users[r] > 0 {
                let c = self.res_comp[r];
                debug_assert!(self.comps[c as usize].live);
                if !neigh.contains(&c) {
                    neigh.push(c);
                }
            }
            self.res_users[r] += 1;
        }
        let target = if neigh.is_empty() {
            self.alloc_comp()
        } else {
            let mut target = neigh[0];
            for &c in &neigh[1..] {
                if self.comps[c as usize].members.len() > self.comps[target as usize].members.len()
                {
                    target = c;
                }
            }
            for &c in &neigh {
                if c != target {
                    self.merge_into(c, target);
                }
            }
            target
        };
        self.install_member(target, slot);
        self.mark_dirty(target);
        self.scratch.neigh = neigh;
    }

    /// Moves every member of `src` into `dst` and frees `src`.
    fn merge_into(&mut self, src: u32, dst: u32) {
        let mut moved = mem::take(&mut self.scratch.moved);
        moved.clear();
        moved.extend_from_slice(&self.comps[src as usize].members);
        self.comps[src as usize].members.clear();
        self.free_comp(src);
        for &s in &moved {
            self.install_member(dst, s);
        }
        self.metrics.inc(self.ids.merges, 1);
        self.scratch.moved = moved;
    }

    // --- rate maintenance -------------------------------------------------

    fn ensure_rates(&mut self) {
        match self.mode {
            EngineMode::Incremental => self.rerate_dirty_components(),
            EngineMode::FullRecompute => self.rerate_all(),
        }
    }

    fn rerate_dirty_components(&mut self) {
        // Index loop: repartitioning allocates/frees components but never
        // marks new ones dirty, so the list only shrinks semantically.
        let mut i = 0;
        while i < self.dirty_comps.len() {
            let c = self.dirty_comps[i];
            i += 1;
            // Stale entries: the component was freed (emptied or merged
            // away) after being queued, or its slot was reused by a clean
            // successor. The flag, cleared on free, disambiguates.
            if !self.comps[c as usize].live || !self.comps[c as usize].dirty {
                continue;
            }
            self.comps[c as usize].dirty = false;
            self.repartition_and_rerate(c);
        }
        self.dirty_comps.clear();
    }

    /// Splits a dirty component into its true resource-connected parts
    /// (removals may have disconnected it) and re-rates each part.
    fn repartition_and_rerate(&mut self, c: u32) {
        // Snapshot the members in start order; the old component dissolves.
        let mut part = mem::take(&mut self.scratch.part);
        part.clear();
        for k in 0..self.comps[c as usize].members.len() {
            let s = self.comps[c as usize].members[k];
            part.push((self.slots[s as usize].seq, s));
        }
        self.comps[c as usize].members.clear();
        self.free_comp(c);
        part.sort_unstable();
        let m = part.len();

        // Union-find over local indices: all members touching a resource
        // unite with the first member that touched it.
        let mut uf = mem::take(&mut self.scratch.uf);
        uf.clear();
        uf.extend(0..m as u32);
        if self.scratch.res_first_mark.len() < self.capacities.len() {
            self.scratch.res_first_mark.resize(self.capacities.len(), 0);
            self.scratch.res_first.resize(self.capacities.len(), 0);
        }
        self.scratch.epoch += 1;
        let epoch = self.scratch.epoch;
        for (i_local, &(_, s)) in part.iter().enumerate() {
            for &(r, _) in &self.slots[s as usize].usages {
                if self.scratch.res_first_mark[r] == epoch {
                    let first = self.scratch.res_first[r];
                    union(&mut uf, i_local as u32, first);
                } else {
                    self.scratch.res_first_mark[r] = epoch;
                    self.scratch.res_first[r] = i_local as u32;
                }
            }
        }

        // Number the sub-components in first-occurrence (start) order.
        let mut sub_of = mem::take(&mut self.scratch.sub_of);
        let mut root_sub = mem::take(&mut self.scratch.root_sub);
        sub_of.clear();
        root_sub.clear();
        root_sub.resize(m, u32::MAX);
        let mut n_subs: u32 = 0;
        for i_local in 0..m {
            let root = find(&mut uf, i_local as u32) as usize;
            if root_sub[root] == u32::MAX {
                root_sub[root] = n_subs;
                n_subs += 1;
            }
            sub_of.push(root_sub[root]);
        }

        if n_subs == 1 {
            // Fast path: still one component.
            let nc = self.alloc_comp();
            for &(_, s) in part.iter() {
                self.install_member(nc, s);
            }
            self.scratch.part = part;
            self.scratch.uf = uf;
            self.scratch.sub_of = sub_of;
            self.scratch.root_sub = root_sub;
            self.rerate_component(nc);
            return;
        }
        self.metrics.inc(self.ids.splits, (n_subs - 1) as u64);

        // Bucket members by sub-component (stable counting sort preserves
        // start order within each bucket).
        let mut sub_start = mem::take(&mut self.scratch.sub_start);
        let mut sub_cursor = mem::take(&mut self.scratch.sub_cursor);
        let mut sub_items = mem::take(&mut self.scratch.sub_items);
        sub_start.clear();
        sub_start.resize(n_subs as usize + 1, 0);
        for &sub in &sub_of {
            sub_start[sub as usize + 1] += 1;
        }
        for k in 1..sub_start.len() {
            sub_start[k] += sub_start[k - 1];
        }
        sub_cursor.clear();
        sub_cursor.extend_from_slice(&sub_start[..n_subs as usize]);
        sub_items.clear();
        sub_items.resize(m, 0);
        for (i_local, &sub) in sub_of.iter().enumerate() {
            sub_items[sub_cursor[sub as usize] as usize] = i_local as u32;
            sub_cursor[sub as usize] += 1;
        }

        for sub in 0..n_subs as usize {
            let nc = self.alloc_comp();
            for k in sub_start[sub]..sub_start[sub + 1] {
                let i_local = sub_items[k as usize] as usize;
                let s = part[i_local].1;
                self.install_member(nc, s);
            }
            self.rerate_component(nc);
        }

        self.scratch.part = part;
        self.scratch.uf = uf;
        self.scratch.sub_of = sub_of;
        self.scratch.root_sub = root_sub;
        self.scratch.sub_start = sub_start;
        self.scratch.sub_cursor = sub_cursor;
        self.scratch.sub_items = sub_items;
    }

    /// Re-rates one component against a compact capacity view of exactly
    /// the resources its members touch, then settles/re-keys the members
    /// whose rate changed and rebuilds this component's resource usage.
    ///
    /// Demands are ordered by start sequence and resources enter the view
    /// in first-touch order, so the allocator performs, value for value,
    /// the same floating-point operations it would on this component's
    /// slice of a global recompute — the basis for oracle bit-identity.
    fn rerate_component(&mut self, c: u32) {
        let mut sorted = mem::take(&mut self.scratch.sorted);
        sorted.clear();
        for k in 0..self.comps[c as usize].members.len() {
            let s = self.comps[c as usize].members[k];
            sorted.push((self.slots[s as usize].seq, s));
        }
        sorted.sort_unstable();
        self.metrics
            .gauge_max(self.ids.max_component, sorted.len() as f64);

        let mut demands = mem::take(&mut self.scratch.demands);
        let mut cap_view = mem::take(&mut self.scratch.cap_view);
        let mut comp_res = mem::take(&mut self.scratch.comp_res);
        cap_view.clear();
        comp_res.clear();
        if self.scratch.res_dense_mark.len() < self.capacities.len() {
            self.scratch.res_dense_mark.resize(self.capacities.len(), 0);
            self.scratch.res_dense.resize(self.capacities.len(), 0);
        }
        self.scratch.epoch += 1;
        let epoch = self.scratch.epoch;
        for (k, &(_, s)) in sorted.iter().enumerate() {
            if demands.len() <= k {
                demands.push(Demand::elastic(Vec::new()));
            }
            let d = &mut demands[k];
            d.usages.clear();
            let t = &self.slots[s as usize];
            d.cap = t.cap;
            d.inelastic = t.inelastic;
            for &(r, mult) in &t.usages {
                let dense = if self.scratch.res_dense_mark[r] == epoch {
                    self.scratch.res_dense[r]
                } else {
                    self.scratch.res_dense_mark[r] = epoch;
                    let idx = cap_view.len() as u32;
                    self.scratch.res_dense[r] = idx;
                    cap_view.push(self.capacities[r]);
                    comp_res.push(r);
                    idx
                };
                d.usages.push((dense as usize, mult));
            }
        }

        let n = sorted.len();
        max_min_rates_into(
            &mut self.scratch.sharing,
            &cap_view,
            &demands[..n],
            &mut self.scratch.rates,
        );
        self.metrics.inc(self.ids.allocator_calls, 1);
        self.metrics.inc(self.ids.demands_rated, n as u64);

        let rates = mem::take(&mut self.scratch.rates);
        for (k, &(_, s)) in sorted.iter().enumerate() {
            let new_rate = if rates[k].is_finite() {
                rates[k]
            } else {
                LOCAL_RATE
            };
            if new_rate.to_bits() != self.slots[s as usize].rate.to_bits() {
                self.settle(s);
                self.slots[s as usize].rate = new_rate;
                self.rekey(s);
            }
        }

        // Rebuild usage over exactly this component's resources. Members
        // accumulate in start order, matching a global rebuild's
        // per-resource addition sequence bit for bit.
        for &r in &comp_res {
            self.usage[r] = 0.0;
        }
        for &(_, s) in &sorted {
            let t = &self.slots[s as usize];
            for &(r, mult) in &t.usages {
                self.usage[r] += t.rate * mult;
            }
        }

        self.scratch.rates = rates;
        self.scratch.sorted = sorted;
        self.scratch.demands = demands;
        self.scratch.cap_view = cap_view;
        self.scratch.comp_res = comp_res;
    }

    /// Oracle: one global allocator call over every live transfer, sharing
    /// the incremental path's demand ordering, settle logic, ETA
    /// quantisation, and usage-rebuild arithmetic.
    fn rerate_all(&mut self) {
        if !self.global_dirty {
            return;
        }
        self.global_dirty = false;
        let mut sorted = mem::take(&mut self.scratch.sorted);
        sorted.clear();
        for (s, t) in self.slots.iter().enumerate() {
            if t.live {
                sorted.push((t.seq, s as u32));
            }
        }
        sorted.sort_unstable();
        if sorted.is_empty() {
            // Nothing to rate, and `remove_slot` already zeroed the usage
            // of every resource its last user left.
            self.scratch.sorted = sorted;
            return;
        }
        self.metrics
            .gauge_max(self.ids.max_component, sorted.len() as f64);

        let mut demands = mem::take(&mut self.scratch.demands);
        for (k, &(_, s)) in sorted.iter().enumerate() {
            if demands.len() <= k {
                demands.push(Demand::elastic(Vec::new()));
            }
            let d = &mut demands[k];
            let t = &self.slots[s as usize];
            d.usages.clear();
            d.usages.extend_from_slice(&t.usages);
            d.cap = t.cap;
            d.inelastic = t.inelastic;
        }
        let n = sorted.len();
        max_min_rates_into(
            &mut self.scratch.sharing,
            &self.capacities,
            &demands[..n],
            &mut self.scratch.rates,
        );
        self.metrics.inc(self.ids.allocator_calls, 1);
        self.metrics.inc(self.ids.demands_rated, n as u64);

        let rates = mem::take(&mut self.scratch.rates);
        for (k, &(_, s)) in sorted.iter().enumerate() {
            let new_rate = if rates[k].is_finite() {
                rates[k]
            } else {
                LOCAL_RATE
            };
            if new_rate.to_bits() != self.slots[s as usize].rate.to_bits() {
                self.settle(s);
                self.slots[s as usize].rate = new_rate;
                self.rekey(s);
            }
        }
        for u in self.usage.iter_mut() {
            *u = 0.0;
        }
        for &(_, s) in &sorted {
            let t = &self.slots[s as usize];
            for &(r, mult) in &t.usages {
                self.usage[r] += t.rate * mult;
            }
        }
        self.scratch.rates = rates;
        self.scratch.sorted = sorted;
        self.scratch.demands = demands;
    }

    // --- progress + scheduling -------------------------------------------

    /// Banks the bytes moved at the *old* rate up to `now`. Must run before
    /// a transfer's rate is overwritten; exact because rates only ever
    /// change at the current instant.
    fn settle(&mut self, slot: u32) {
        let now = self.now;
        let t = &mut self.slots[slot as usize];
        if t.last_sync < now {
            let dt = (now - t.last_sync).as_secs_f64();
            t.done_at_sync += t.rate * dt;
            if t.bytes.is_finite() && t.done_at_sync > t.bytes {
                t.done_at_sync = t.bytes;
            }
            self.metrics.inc(self.ids.settles, 1);
        }
        t.last_sync = now;
    }

    /// Reschedules a transfer's completion event from its settled progress
    /// and current rate. Infinite transfers and stalled (zero-rate)
    /// transfers carry no event.
    fn rekey(&mut self, slot: u32) {
        if let Some(h) = self.slots[slot as usize].event.take() {
            self.queue.cancel(h);
        }
        let t = &self.slots[slot as usize];
        debug_assert_eq!(t.last_sync, self.now, "rekey requires settled progress");
        if !t.bytes.is_finite() {
            return;
        }
        let remaining = t.bytes - t.done_at_sync;
        let at = if remaining <= 1e-6 {
            self.now
        } else if t.rate <= 0.0 {
            return;
        } else {
            // Round the transfer time UP to the next nanosecond tick.
            // Truncating (as `SimDuration::from_secs_f64` does) would
            // systematically schedule the event a fraction of a tick
            // early, leaving a ~0.1-byte sliver that costs every
            // completion a second event; rounding up finishes in one.
            // The `as u64` cast saturates for huge/infinite values, and
            // the 1-tick floor keeps the clock advancing even when the
            // remainder is sub-nanosecond.
            let nanos = ((remaining / t.rate) * 1e9).ceil();
            let d = SimDuration::from_nanos(nanos as u64);
            self.now + d.max(SimDuration::from_nanos(1))
        };
        let handle = self.queue.push(at, slot);
        self.slots[slot as usize].event = Some(handle);
    }
}

// --- union-find over local member indices --------------------------------

fn find(uf: &mut [u32], mut x: u32) -> u32 {
    // Path halving.
    while uf[x as usize] != x {
        let grand = uf[uf[x as usize] as usize];
        uf[x as usize] = grand;
        x = grand;
    }
    x
}

fn union(uf: &mut [u32], a: u32, b: u32) {
    let ra = find(uf, a);
    let rb = find(uf, b);
    if ra != rb {
        uf[rb as usize] = ra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoOptions;
    use crate::{Topology, GBPS};

    fn star(n: usize) -> NetSim {
        NetSim::new(Topology::single_switch(n, GBPS, TopoOptions::default()))
    }

    #[test]
    fn single_transfer_takes_bytes_over_capacity() {
        let mut net = star(2);
        let h = net.hosts();
        net.start(TransferSpec::network(h[0], h[1], GBPS * 2.0)); // 2 seconds
        net.run_until_idle();
        assert!((net.now().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_senders_share_receiver_downlink() {
        let mut net = star(3);
        let h = net.hosts();
        // Both send 1 GB-worth to host 2: its downlink is the bottleneck.
        net.start(TransferSpec::network(h[0], h[2], GBPS));
        net.start(TransferSpec::network(h[1], h[2], GBPS));
        net.run_until_idle();
        assert!((net.now().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn completion_frees_capacity_for_survivor() {
        let mut net = star(3);
        let h = net.hosts();
        // Short and long flow into the same sink: short finishes, long speeds up.
        net.start(TransferSpec::network(h[0], h[2], GBPS * 0.5));
        let long = net.start(TransferSpec::network(h[1], h[2], GBPS));
        // Short: 0.5 GBs at 0.5 GBps → 1s. Long: 0.5 done at 1s, rest at full.
        let completions = net.advance_to(SimTime::from_secs_f64(10.0));
        assert_eq!(completions.len(), 2);
        assert!((completions[0].finished.as_secs_f64() - 1.0).abs() < 1e-6);
        let long_done = completions.iter().find(|c| c.id == long).unwrap();
        assert!((long_done.finished.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn loopback_is_effectively_instant() {
        let mut net = star(2);
        let h = net.hosts();
        net.start(TransferSpec::network(h[0], h[0], 1e9));
        net.run_until_idle();
        assert!(net.now().as_secs_f64() < 0.1);
    }

    #[test]
    fn disk_write_contends_with_other_writers() {
        let mut net = star(2);
        let h = net.hosts();
        let w = net.topology().host(h[0]).disk.write_bps;
        net.start(TransferSpec::disk_write(h[0], w)); // alone: 1s
        net.start(TransferSpec::disk_write(h[0], w));
        net.run_until_idle();
        assert!((net.now().as_secs_f64() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn pipeline_rate_is_chain_bottleneck() {
        // 3-replica pipeline: slowest element is the SSD write (450 MB/s
        // > GBPS? GBPS=125MB/s so network is the bottleneck).
        let mut net = star(4);
        let h = net.hosts();
        let id = net.start(TransferSpec::pipeline(h[0], &[h[1], h[2], h[3]], GBPS));
        let r = net.rate(id).unwrap();
        assert!((r - GBPS).abs() < 1e-3, "rate {r} vs {GBPS}");
        net.run_until_idle();
        assert!((net.now().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pipeline_slowed_by_hdd_replica() {
        let mut topo = Topology::single_switch(4, GBPS, TopoOptions::default());
        topo.set_disk(HostId(2), crate::disk::DiskModel::hdd());
        let mut net = NetSim::new(topo);
        let h = net.hosts();
        let id = net.start(TransferSpec::pipeline(h[0], &[h[1], h[2], h[3]], GBPS));
        let r = net.rate(id).unwrap();
        let hdd_w = crate::disk::DiskModel::hdd().write_bps;
        assert!((r - hdd_w).abs() < 1e-3, "rate {r} vs hdd {hdd_w}");
    }

    #[test]
    fn inelastic_udp_starves_elastic_flow() {
        let mut net = star(3);
        let h = net.hosts();
        net.start(TransferSpec::network(h[0], h[2], f64::INFINITY).with_inelastic(0.9 * GBPS));
        let tcp = net.start(TransferSpec::network(h[1], h[2], GBPS));
        let r = net.rate(tcp).unwrap();
        assert!((r - 0.1 * GBPS).abs() < 1e-3, "tcp squeezed to {r}");
    }

    #[test]
    fn host_load_reflects_traffic() {
        let mut net = star(3);
        let h = net.hosts();
        net.start(TransferSpec::network(h[0], h[1], GBPS * 100.0));
        let l0 = net.host_load(h[0]);
        let l1 = net.host_load(h[1]);
        let l2 = net.host_load(h[2]);
        assert!((l0.tx_bps - GBPS).abs() < 1e-3);
        assert!(l0.rx_bps.abs() < 1e-9);
        assert!((l1.rx_bps - GBPS).abs() < 1e-3);
        assert!(l2.tx_bps.abs() < 1e-9 && l2.rx_bps.abs() < 1e-9);
        assert_eq!(l0.nic_capacity, GBPS);
    }

    #[test]
    fn host_load_includes_disk_usage() {
        let mut net = star(2);
        let h = net.hosts();
        net.start(TransferSpec::disk_read(h[0], 1e12));
        let l = net.host_load(h[0]);
        assert!(l.disk_read_bps > 0.0);
        assert_eq!(l.disk_read_capacity, net.topology().host(h[0]).disk.read_bps);
    }

    #[test]
    fn cancel_releases_bandwidth() {
        let mut net = star(3);
        let h = net.hosts();
        let bg = net.start(TransferSpec::network(h[0], h[2], f64::INFINITY));
        let fg = net.start(TransferSpec::network(h[1], h[2], GBPS));
        assert!((net.rate(fg).unwrap() - 0.5 * GBPS).abs() < 1e-3);
        assert!(net.cancel(bg));
        assert!((net.rate(fg).unwrap() - GBPS).abs() < 1e-3);
        assert!(!net.cancel(bg), "double cancel reports false");
    }

    #[test]
    fn capped_transfer_honours_cap() {
        let mut net = star(2);
        let h = net.hosts();
        let id = net.start(TransferSpec::network(h[0], h[1], GBPS).with_cap(GBPS / 4.0));
        assert!((net.rate(id).unwrap() - GBPS / 4.0).abs() < 1e-3);
        net.run_until_idle();
        assert!((net.now().as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn advance_to_partial_progress() {
        let mut net = star(2);
        let h = net.hosts();
        let id = net.start(TransferSpec::network(h[0], h[1], GBPS * 10.0));
        let done = net.advance_to(SimTime::from_secs_f64(3.0));
        assert!(done.is_empty());
        let p = net.progress(id).unwrap();
        assert!((p - 3.0 * GBPS).abs() / GBPS < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut net = star(2);
        let h = net.hosts();
        net.start(TransferSpec::network(h[0], h[1], 0.0));
        let completions = net.advance_to(SimTime::from_secs_f64(0.001));
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].finished, completions[0].started);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn advancing_backwards_panics() {
        let mut net = star(2);
        net.advance_to(SimTime::from_secs_f64(1.0));
        net.advance_to(SimTime::from_secs_f64(0.5));
    }

    #[test]
    fn many_flows_deterministic() {
        let run = || {
            let mut net = star(10);
            let h = net.hosts();
            for i in 0..30usize {
                net.start(TransferSpec::network(
                    h[i % 10],
                    h[(i * 3 + 1) % 10],
                    1e8 + i as f64 * 1e7,
                ));
            }
            net.run_until_idle();
            net.now()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn components_merge_on_start_and_split_on_removal() {
        let mut net = NetSim::with_mode(
            Topology::single_switch(6, GBPS, TopoOptions::default()),
            EngineMode::Incremental,
        );
        let h = net.hosts();
        // Two disjoint pairs → two components.
        let a = net.start(TransferSpec::network(h[0], h[1], f64::INFINITY));
        let b = net.start(TransferSpec::network(h[2], h[3], f64::INFINITY));
        net.rate(a).unwrap();
        assert_eq!(net.component_count(), 2);
        // A coupled two-segment transfer sending from both h0 and h2
        // shares h0's and h2's uplinks with the two pairs, uniting them.
        // (Resources are directional, so a plain h1→h2 flow would touch
        // h1-tx/h2-rx — disjoint from both pairs.)
        let bridge = net.start(TransferSpec {
            segments: vec![
                Segment::Net {
                    src: h[0],
                    dst: h[4],
                },
                Segment::Net {
                    src: h[2],
                    dst: h[5],
                },
            ],
            bytes: f64::INFINITY,
            cap: None,
            inelastic_rate: None,
        });
        net.rate(bridge).unwrap();
        assert_eq!(net.component_count(), 1);
        assert!(net.stats().merges >= 1);
        // Cancelling the bridge lazily splits the component again.
        net.cancel(bridge);
        net.rate(a).unwrap(); // forces the dirty re-rate
        assert_eq!(net.component_count(), 2);
        assert!(net.stats().splits >= 1);
        net.cancel(a);
        net.cancel(b);
        net.rate(a); // drains dirty bookkeeping; both components vanished
        assert_eq!(net.component_count(), 0);
        assert_eq!(net.active_count(), 0);
    }

    #[test]
    fn allocator_runs_once_per_completion_event() {
        // Regression for the historical double invalidation in the
        // advance loop (`ensure_rates` + `next_completion_time` both
        // recomputing): with K sequential completions in one component the
        // allocator must run exactly once for the initial ramp-up and once
        // per rate-changing completion — not twice.
        let mut net = star(3);
        let h = net.hosts();
        net.start(TransferSpec::network(h[0], h[2], GBPS * 0.5));
        net.start(TransferSpec::network(h[1], h[2], GBPS));
        let done = net.advance_to(SimTime::from_secs_f64(10.0));
        assert_eq!(done.len(), 2);
        // Assert on the exported metrics, not private fields — the
        // registry is the source of truth and `stats()` merely snapshots
        // it.
        let m = net.metrics();
        // Call 1: initial ramp-up. Call 2: survivor re-rate after the first
        // completion. The second completion empties the component — no
        // further allocator work.
        assert_eq!(
            m.counter_named("engine.allocator_calls"),
            Some(2),
            "{:?}",
            net.stats()
        );
        assert_eq!(m.counter_named("engine.events"), Some(2));
        // The snapshot view must agree with the registry.
        assert_eq!(net.stats().allocator_calls, 2);
        assert_eq!(net.stats().events, 2);
    }

    #[test]
    fn duplicate_segments_coalesce_deterministically() {
        // A spec crossing the same hop twice must produce one usage entry
        // with multiplicity 2 (sorted demand form), halving its rate.
        let mut net = star(2);
        let h = net.hosts();
        let spec = TransferSpec {
            segments: vec![
                Segment::Net {
                    src: h[0],
                    dst: h[1],
                },
                Segment::Net {
                    src: h[0],
                    dst: h[1],
                },
            ],
            bytes: GBPS,
            cap: None,
            inelastic_rate: None,
        };
        let id = net.start(spec);
        let r = net.rate(id).unwrap();
        assert!((r - 0.5 * GBPS).abs() < 1e-3, "doubled hop halves rate: {r}");
        // The usage list is sorted and duplicate-free.
        let slot = net.lookup(id).unwrap();
        let usages = &net.slots[slot as usize].usages;
        assert!(usages.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(usages.iter().any(|&(_, m)| m == 2.0));
    }

    #[test]
    fn oracle_mode_matches_incremental_bitwise() {
        // Scripted mixed scenario: pipelines, UDP blasts, caps, cancels and
        // partial advances across rack boundaries must produce identical
        // completion streams, rates, and snapshots in both modes.
        let mk = |mode| {
            NetSim::with_mode(
                Topology::two_tier(3, 4, GBPS, 2.0 * GBPS, TopoOptions::default()),
                mode,
            )
        };
        let script = |net: &mut NetSim| {
            let h = net.hosts();
            let mut completions = Vec::new();
            let mut rates = Vec::new();
            let mut ids = Vec::new();
            ids.push(net.start(TransferSpec::network(h[0], h[5], 3e8)));
            ids.push(net.start(TransferSpec::pipeline(h[1], &[h[4], h[8]], 2e8)));
            ids.push(net.start(
                TransferSpec::network(h[2], h[5], f64::INFINITY).with_inelastic(0.8 * GBPS),
            ));
            completions.extend(net.advance_to(SimTime::from_secs_f64(0.7)));
            ids.push(net.start(TransferSpec::network(h[6], h[5], 5e8).with_cap(0.3 * GBPS)));
            ids.push(net.start(TransferSpec::read_and_send(h[3], h[9], 4e8)));
            ids.push(net.start(TransferSpec::network(h[7], h[7], 1e8)));
            completions.extend(net.advance_to(SimTime::from_secs_f64(1.9)));
            net.cancel(ids[2]);
            ids.push(net.start(TransferSpec::send_and_store(h[10], h[0], 6e8)));
            completions.extend(net.advance_to(SimTime::from_secs_f64(4.0)));
            for &id in &ids {
                rates.push(net.rate(id).map(f64::to_bits));
            }
            let loads: Vec<HostLoad> = h.iter().map(|&host| net.host_load(host)).collect();
            completions.extend(net.advance_to(SimTime::from_secs_f64(30.0)));
            (completions, rates, loads, net.now())
        };
        let mut inc = mk(EngineMode::Incremental);
        let mut orc = mk(EngineMode::FullRecompute);
        let (ci, ri, si, ni) = script(&mut inc);
        let (co, ro, so, no) = script(&mut orc);
        assert_eq!(ci, co, "completion streams diverge");
        assert_eq!(ri, ro, "rates diverge");
        assert_eq!(ni, no);
        for (host, (a, b)) in si.iter().zip(&so).enumerate() {
            assert_eq!(a.tx_bps.to_bits(), b.tx_bps.to_bits(), "host {host}");
            assert_eq!(a.rx_bps.to_bits(), b.rx_bps.to_bits());
            assert_eq!(a.disk_read_bps.to_bits(), b.disk_read_bps.to_bits());
            assert_eq!(a.disk_write_bps.to_bits(), b.disk_write_bps.to_bits());
        }
        // The incremental run must actually have exploited locality
        // (asserted on the exported metrics).
        let rated = |net: &NetSim| net.metrics().counter_named("engine.demands_rated").unwrap();
        assert!(rated(&inc) <= rated(&orc));
    }

    #[test]
    fn transfer_ids_do_not_alias_after_slot_reuse() {
        let mut net = star(3);
        let h = net.hosts();
        let a = net.start(TransferSpec::network(h[0], h[1], 1e8));
        assert!(net.cancel(a));
        // The slot is recycled; the stale id must not see the new transfer.
        let b = net.start(TransferSpec::network(h[0], h[2], 1e8));
        assert_ne!(a, b);
        assert_eq!(net.progress(a), None);
        assert_eq!(net.rate(a), None);
        assert!(!net.cancel(a));
        assert!(net.progress(b).is_some());
    }
}
