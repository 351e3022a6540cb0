//! The live substrate: fluid simulation of transfers over a topology.
//!
//! [`NetSim`] tracks a set of active *transfers*. A transfer is a coupled
//! group of segments (network hops and disk accesses) progressing at one
//! common rate — the fluid model of a pipelined copy. Whenever the set of
//! transfers changes, rates are recomputed with the max-min allocator
//! ([`crate::sharing`]); between changes every transfer progresses
//! linearly, so completions can be scheduled exactly.
//!
//! # One global pass per mutation
//!
//! `start`, `cancel` and every completion mark the rates dirty; the next
//! read re-rates *every* live transfer with one allocator call over the
//! global capacities, demands in start order. On the clusters the paper
//! uses (≤ 301 hosts, pipelines and shuffles that are one
//! resource-connected component anyway) that is cheaper than maintaining
//! a partition of the flows to re-rate less — measured, see DESIGN.md
//! "Rate engine". An event pays for that call and for little else:
//!
//! * the start-ordered live list and its demands are kept across events —
//!   a start appends, a removal deletes one entry — so a pass hands them
//!   to the allocator as they stand;
//! * each transfer carries its completion time and a pass, which visits
//!   every live transfer anyway, keeps the earliest; only transfers whose
//!   rate actually changed (bit-wise) are re-keyed;
//! * per-resource load is totalled by the first [`NetSim::host_load`]
//!   after a pass, not by the pass;
//! * progress accounting is lazy: each transfer carries the bytes done as
//!   of its last rate change and is *settled* only when its rate changes
//!   or it completes;
//! * transfers are slab-allocated with generation-tagged ids, so lookup is
//!   O(1) and the steady state allocates nothing.
//!
//! Applications drive time explicitly: [`NetSim::advance_to`] moves the
//! clock and returns the transfers that completed on the way. Per-host
//! load snapshots ([`NetSim::host_load`]) expose exactly what a CloudTalk
//! status server would measure on that machine.

use std::mem;

use desim::{SimDuration, SimTime};
use obs::{CounterId, GaugeId, MetricsRegistry};

use crate::routing::Router;
use crate::sharing::{coalesce_usages, max_min_rates_into, Demand, SharingScratch};
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

/// Counters describing the work the engine has performed.
///
/// Read with [`NetSim::stats`]; the allocator-invocation regression test
/// and the benchmark's per-layer numbers are built on these. The
/// counters live in the engine's [`MetricsRegistry`] (see
/// [`NetSim::metrics`]) under the `engine.*` names; this struct is the
/// by-value snapshot reconstructed from it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Invocations of the max-min allocator.
    pub allocator_calls: u64,
    /// Total demands passed to the allocator.
    pub demands_rated: u64,
    /// Completion-queue events processed.
    pub events: u64,
    /// Progress settlements (rate changes applied to a running transfer).
    pub(crate) settles: u64,
    /// Largest batch of live transfers ever rated.
    pub(crate) max_component: usize,
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
    max_component: GaugeId,
}

impl EngineMetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        EngineMetricIds {
            allocator_calls: reg.counter("engine.allocator_calls"),
            demands_rated: reg.counter("engine.demands_rated"),
            events: reg.counter("engine.events"),
            settles: reg.counter("engine.settles"),
            max_component: reg.gauge("engine.max_component"),
        }
    }
}

/// Slab slot for an active (or vacant) transfer. What the allocator reads
/// of it — usage list, cap, inelastic rate — lives in its [`Demand`] in
/// `NetSim::demands`, nowhere else.
struct Active {
    /// Monotonic start sequence: demand ordering and the ECMP flow hash.
    seq: u64,
    generation: u32,
    live: bool,
    bytes: f64,
    /// Bytes moved as of `last_sync`; progress since then is implied by
    /// `rate` (lazy settlement).
    done_at_sync: f64,
    last_sync: SimTime,
    rate: f64,
    started: SimTime,
    /// Scheduled completion time, if one is determined.
    eta: Option<SimTime>,
}

impl Active {
    fn vacant() -> Self {
        Active {
            seq: 0,
            generation: 0,
            live: false,
            bytes: 0.0,
            done_at_sync: 0.0,
            last_sync: SimTime::ZERO,
            rate: 0.0,
            started: SimTime::ZERO,
            eta: None,
        }
    }
}

/// Reusable buffers for the engine hot path. Every vector reaches its
/// high-water capacity during warm-up and is cleared, never shrunk, so the
/// steady state performs no allocation (asserted by the counting-allocator
/// test in `tests/engine_alloc.rs`).
#[derive(Default)]
struct EngineScratch {
    sharing: SharingScratch,
    rates: Vec<f64>,
    /// Demands of finished transfers; their usage vectors keep their
    /// capacity for the next `start`.
    spare: Vec<Demand>,
    /// Slots completing at one timestamp, in start order.
    batch: Vec<u32>,
}

/// The fluid network/disk simulator.
pub struct NetSim {
    topo: Topology,
    router: Router,
    capacities: Vec<f64>,
    /// Per-resource load, totalled by the first `host_load` after a pass
    /// (`usage_stale` until then).
    usage: Vec<f64>,
    usage_stale: bool,
    now: SimTime,
    slots: Vec<Active>,
    free_slots: Vec<u32>,
    next_seq: u64,
    /// Slots of the live transfers in start order, kept across events: a
    /// start appends (`seq` is monotone), a removal deletes one entry.
    live: Vec<u32>,
    /// `demands[k]` is the allocator's view of `live[k]`.
    demands: Vec<Demand>,
    /// The earliest `eta` of a live transfer, as of the last pass; a
    /// re-key outside a pass makes it `next_stale` until the next read.
    next: Option<SimTime>,
    next_stale: bool,
    /// Set by every mutation of the live set; cleared by the next pass.
    dirty: bool,
    scratch: EngineScratch,
    metrics: MetricsRegistry,
    ids: EngineMetricIds,
}

impl NetSim {
    /// Creates a simulator over `topo` at time zero.
    pub fn new(topo: Topology) -> Self {
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
            usage_stale: false,
            now: SimTime::ZERO,
            slots: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
            live: Vec::new(),
            demands: Vec::new(),
            next: None,
            next_stale: false,
            dirty: false,
            scratch: EngineScratch::default(),
            metrics,
            ids,
        }
    }

    /// Work counters accumulated since construction (or the last
    /// [`NetSim::reset_stats`]), snapshotted from the metrics registry.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            allocator_calls: self.metrics.counter_value(self.ids.allocator_calls),
            demands_rated: self.metrics.counter_value(self.ids.demands_rated),
            events: self.metrics.counter_value(self.ids.events),
            settles: self.metrics.counter_value(self.ids.settles),
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

    /// Starts a transfer, marking the rates for recomputation.
    pub fn start(&mut self, spec: TransferSpec) -> TransferId {
        assert!(spec.bytes >= 0.0, "transfer bytes must be non-negative");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot();
        let demand = self.build_demand(&spec, seq);
        let now = self.now;
        {
            let t = &mut self.slots[slot as usize];
            t.seq = seq;
            t.live = true;
            t.bytes = spec.bytes;
            t.done_at_sync = 0.0;
            t.last_sync = now;
            t.rate = 0.0;
            t.started = now;
            t.eta = None;
            if demand.usages.is_empty() {
                // Loopback-style transfer: nothing in the topology
                // constrains it, so its rate is fixed for life — the value
                // the allocator would assign, so a recompute never re-keys
                // it.
                let raw = match demand.inelastic {
                    Some(want) => demand.cap.map_or(want, |c| want.min(c)),
                    None => demand.cap.unwrap_or(f64::INFINITY),
                };
                t.rate = if raw.is_finite() { raw } else { LOCAL_RATE };
            }
        }
        self.live.push(slot);
        self.demands.push(demand);
        self.dirty = true;
        // Schedules the completion event when one is already determined:
        // loopback transfers (rate fixed above) and zero-byte transfers
        // (which complete at `now` regardless of rate).
        self.rekey(slot);
        self.id_of(slot)
    }

    /// Cancels an active transfer (no completion is recorded).
    ///
    /// Returns `true` if it was active. The slot is recycled and the rates
    /// are marked for recomputation.
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
        if mem::take(&mut self.next_stale) {
            let etas = self.live.iter().filter_map(|&s| self.slots[s as usize].eta);
            self.next = etas.min();
        }
        self.next
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
            // One invalidation check per step: it re-rates, re-keys and
            // with that repairs the cached minimum, so the read is exact.
            let next = match self.next_completion_time() {
                Some(at) if at <= t => at,
                _ => break,
            };
            debug_assert!(next >= self.now, "event scheduled in the past");
            self.now = next;
            // Every transfer due at this instant, processed in start order
            // (the order of `live`), so simultaneous completions are
            // deterministic.
            let mut batch = mem::take(&mut self.scratch.batch);
            batch.clear();
            let due = |&&s: &&u32| self.slots[s as usize].eta == Some(next);
            batch.extend(self.live.iter().filter(due));
            self.metrics.inc(self.ids.events, batch.len() as u64);
            for &slot in batch.iter() {
                self.slots[slot as usize].eta = None;
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
        if mem::take(&mut self.usage_stale) {
            self.usage.fill(0.0);
            for (&s, d) in self.live.iter().zip(&self.demands) {
                let rate = self.slots[s as usize].rate;
                for &(r, mult) in &d.usages {
                    self.usage[r] += rate * mult;
                }
            }
        }
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
        self.live.len()
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

    /// Position of a live slot in `live` / `demands` (start order is `seq`
    /// order, so a binary search finds it).
    fn live_index(&self, slot: u32) -> usize {
        let seq = self.slots[slot as usize].seq;
        self.live
            .binary_search_by_key(&seq, |&s| self.slots[s as usize].seq)
            .expect("live transfer is listed")
    }

    /// Removes a live transfer: marks the rates dirty, recycles the slot
    /// and its demand.
    fn remove_slot(&mut self, slot: u32) {
        let s = slot as usize;
        let k = self.live_index(slot);
        self.live.remove(k);
        self.scratch.spare.push(self.demands.remove(k));
        self.slots[s].live = false;
        self.slots[s].generation = self.slots[s].generation.wrapping_add(1);
        self.dirty = true;
        self.free_slots.push(slot);
    }

    // --- demand assembly --------------------------------------------------

    /// Builds the transfer's demand — sorted, duplicate-free
    /// `(resource, multiplicity)` usages — in a recycled one (its usage
    /// vector keeps its capacity across reuse). The start sequence doubles
    /// as the ECMP flow discriminator.
    fn build_demand(&mut self, spec: &TransferSpec, flow_hash: u64) -> Demand {
        let disk_base = 2 * self.topo.link_count();
        let spare = self.scratch.spare.pop();
        let mut demand = spare.unwrap_or_else(|| Demand::elastic(Vec::new()));
        demand.cap = spec.cap;
        demand.inelastic = spec.inelastic_rate;
        let NetSim { topo, router, .. } = self;
        let usages = &mut demand.usages;
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
        demand
    }

    // --- rate maintenance -------------------------------------------------

    /// Re-rates every live transfer if the live set changed since the last
    /// pass: one allocator call over the global capacities and the warm
    /// demand list, then settle + re-key exactly the transfers whose rate
    /// changed bit-wise. Per-resource usage is left to whoever reads it.
    fn ensure_rates(&mut self) {
        if !mem::take(&mut self.dirty) {
            return;
        }
        self.usage_stale = true;
        let n = self.live.len();
        if n == 0 {
            // Nothing to rate, and no allocator call.
            self.next = None;
            self.next_stale = false;
            return;
        }
        self.metrics.gauge_max(self.ids.max_component, n as f64);
        max_min_rates_into(
            &mut self.scratch.sharing,
            &self.capacities,
            &self.demands,
            &mut self.scratch.rates,
        );
        self.metrics.inc(self.ids.allocator_calls, 1);
        self.metrics.inc(self.ids.demands_rated, n as u64);

        let mut next: Option<SimTime> = None;
        for k in 0..n {
            let s = self.live[k];
            let rate = self.scratch.rates[k];
            let new_rate = if rate.is_finite() { rate } else { LOCAL_RATE };
            if new_rate.to_bits() != self.slots[s as usize].rate.to_bits() {
                self.settle(s);
                self.slots[s as usize].rate = new_rate;
                self.rekey(s);
            }
            if let Some(eta) = self.slots[s as usize].eta {
                next = Some(next.map_or(eta, |m| m.min(eta)));
            }
        }
        self.next = next;
        self.next_stale = false;
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

    /// Recomputes a transfer's completion time from its settled progress
    /// and current rate. Infinite transfers and stalled (zero-rate)
    /// transfers carry none. Outside a pass this leaves the cached minimum
    /// stale (a pass recomputes it after its last re-key).
    fn rekey(&mut self, slot: u32) {
        self.next_stale = true;
        let now = self.now;
        let t = &mut self.slots[slot as usize];
        debug_assert_eq!(t.last_sync, now, "rekey requires settled progress");
        let remaining = t.bytes - t.done_at_sync;
        t.eta = if remaining <= 1e-6 {
            Some(now)
        } else if !t.bytes.is_finite() || t.rate <= 0.0 {
            None
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
            Some(now + d.max(SimDuration::from_nanos(1)))
        };
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
    fn allocator_runs_once_per_completion_event() {
        // Regression for the historical double invalidation in the
        // advance loop (`ensure_rates` + `next_completion_time` both
        // recomputing): with K sequential completions the
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
        // completion. The second completion empties the live set — no
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
        let usages = &net.demands[net.live_index(slot)].usages;
        assert!(usages.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(usages.iter().any(|&(_, m)| m == 2.0));
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
