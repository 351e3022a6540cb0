//! The multi-tenant serving plane: thousands of tenants, one fleet.
//!
//! [`crate::server::CloudTalkServer`] answers one query at a time over a
//! snapshot gathered for it, and caches nothing — fine for a library,
//! not for the provider-side service the paper pitches (§4: "a CloudTalk
//! server runs on every machine"). This module turns the answer pipeline
//! into a *plane*:
//!
//! * **Sharded snapshots** — the fleet is split into rack groups
//!   ([`ServingConfig::racks_per_shard`]); each shard owns its own
//!   [`StatusSnapshot`], refreshed on its own cadence through the shared
//!   status source (pair with an [`crate::aggregate::AggregationPlane`]
//!   for the hierarchical collection path). A slow or faulted rack only
//!   stales *its* shard; queries routed to other shards never wait on it.
//!   A query is answered against its *home shard* (the shard of its
//!   lowest mentioned in-fleet address); mentioned addresses outside the
//!   home shard fall back to the snapshot's standard pessimism for
//!   unknown hosts — they count as overloaded, exactly like hosts that
//!   never answered a gather.
//! * **Wave batching** — admitted queries are grouped into fixed
//!   *waves* of virtual time ([`ServingConfig::wave_quantum`]): wave `W`
//!   holds every accepted query with arrival in `[W·Δ, (W+1)·Δ)` and is
//!   evaluated at the wave-close instant `(W+1)·Δ`. Queries of one
//!   tenant always travel together (one worker, submission order), so a
//!   tenant's back-to-back queries see each other's reservations exactly
//!   like they would on the single server. Each worker owns a
//!   long-lived `EvalCore` whose `SearchWorkspace`/`DeltaEstimator`
//!   scratch is reused query after query — the steady-state search loop
//!   allocates nothing (pinned by `tests/search_alloc.rs` at the
//!   workspace layer).
//! * **One published set of holds** — prior waves' reservations are a
//!   [`Reservations`] value behind an `Arc`. A wave's workers read it by
//!   shared reference and record each tenant's answers into a
//!   tenant-private [`Reservations`]; the sequencer merges those into the
//!   published set once the wave has joined. `Arc::make_mut` makes that
//!   an in-place edit unless somebody still holds a version handed out
//!   earlier ([`ServingPlane::ledger_version`]), whose copy then stays as
//!   it was. No lock, no pin: a worker cannot outlive the wave's borrow.
//! * **Admission control with backpressure** — per-tenant queues are
//!   bounded ([`ServingConfig::tenant_queue_depth`]); a full queue or a
//!   plane running behind its virtual schedule by more than
//!   [`ServingConfig::max_virtual_lag`] rejects with
//!   [`ServerError::Overloaded`] carrying a `retry_after` hint. Under
//!   backlog pressure (waves larger than
//!   [`ServingConfig::shed_wave_backlog`]) the plane *sheds load* by
//!   forcing the O(max(m, n·p)) heuristic backend for the whole wave —
//!   reported per answer in [`crate::server::Provenance::shed`], never
//!   silently.
//!
//! # Virtual time
//!
//! The plane schedules in *virtual* (simulated) time, consistent with
//! the rest of the repo: each query costs
//! [`ServingConfig::service_time`] of modelled worker time (paper §5.1:
//! ~0.45 ms parse + evaluate), workers drain their assigned tenant
//! groups sequentially, and a query's reported latency is its virtual
//! completion minus its arrival. Real threads do the actual evaluation
//! work — the sequencer's own for the first busy worker of a wave, a
//! scoped one per further busy worker (`walk::fan_out`) — and the virtual
//! clock decides *scheduling* (which worker, what completion time), not
//! *results*. This is what
//! lets the `qps_storm` bench measure 1→8 worker scaling on any host,
//! including single-core CI runners.
//!
//! # Determinism
//!
//! Answers are bit-identical for a given `(seed, tenant, seq)` at any
//! worker count because every input to an answer is worker-count
//! independent:
//!
//! * wave membership comes from arrival timestamps, not from when a
//!   thread got scheduled;
//! * the visible reservation set is the published holds at wave close
//!   (reservations from strictly earlier waves, merged with commutative
//!   max-expiry) plus the tenant's own same-wave holds — never another
//!   tenant's same-wave reservations;
//! * per-query sampling randomness is a dedicated
//!   [`desim::rng::stream_rng`] stream keyed by `(tenant, seq)`;
//! * shedding is a per-wave decision derived from wave *size* (open-loop
//!   arrivals), not from thread timing.
//!
//! Holds that expired by the wave-close instant are purged *before* the
//! wave runs — invisible to every wave query, whose reservation checks
//! all evaluate at wave close. Lost or shortened holds are checked for on
//! every merge and counted in [`LedgerStats::conflicts`] — the invariant
//! tests assert the count stays zero.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use cloudtalk_lang::problem::{Address, Problem};
use cloudtalk_lang::WordMap;
use desim::rng::{derive_seed, stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use obs::{
    CounterId, FlightRecorder, GaugeId, HistogramId, MetricsRegistry, PostmortemBundle,
    QueryRecord, RingRecorder, RingSpec, SloEventKind, SloSpec, SloTracker, StitchedTrace, Trace,
    TraceCtx, TraceReport, TraceSampler, WindowData,
};

use crate::aggregate::{FleetLayout, RackId};
use crate::footprint::Footprint;
use crate::qcache::{CacheStats, SharedCache, Tier};
use crate::reservation::Reservations;
use crate::server::{
    sample_within_budget, Answer, DegradationRung, EvalCore, Holds, ServerConfig, ServerError,
    StatusSnapshot,
};
use crate::status::{ChangeMarks, StatusSource};
use crate::walk::fan_out;

/// A tenant of the serving plane. Tenants are the unit of queue
/// bounding, of same-wave reservation visibility, and of worker
/// affinity within a wave.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Serving-plane configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Per-worker evaluation configuration (backend, degradation ladder,
    /// reservation hold, transport, observability).
    pub server: ServerConfig,
    /// Worker count (≥ 1): virtual scheduling slots *and* real threads.
    pub workers: usize,
    /// Wave quantum Δ: wave `W` covers arrivals in `[W·Δ, (W+1)·Δ)` and
    /// is evaluated at `(W+1)·Δ`.
    pub wave_quantum: SimDuration,
    /// Maximum queries a tenant may have queued (submitted, wave not yet
    /// processed); further submissions are rejected with
    /// [`ServerError::Overloaded`].
    pub tenant_queue_depth: usize,
    /// Wave size above which the whole wave is answered by the heuristic
    /// backend (load shedding; reported in
    /// [`crate::server::Provenance::shed`]).
    pub shed_wave_backlog: usize,
    /// Admission bound on the plane's virtual schedule lag: when workers
    /// are running this far behind the wave clock, new submissions are
    /// rejected with `retry_after` = the current lag.
    pub max_virtual_lag: SimDuration,
    /// Racks per snapshot shard (≥ 1).
    pub racks_per_shard: usize,
    /// Per-shard snapshot refresh interval.
    pub snapshot_refresh: SimDuration,
    /// Modelled per-query worker time for virtual scheduling (§5.1:
    /// ~0.45 ms to parse and evaluate one query).
    pub service_time: SimDuration,
    /// Modelled worker time for a query answered from the answer cache:
    /// parse + key + replay, no search. Capacity gains from caching come
    /// from this being much smaller than [`ServingConfig::service_time`];
    /// answers themselves are bit-identical either way.
    pub hit_service_time: SimDuration,
    /// Root seed for per-query sampling streams and shard gather
    /// transport randomness.
    pub seed: u64,
    /// Continuous-telemetry configuration (off by default). Telemetry
    /// never touches answers: with identical seeds and schedules the
    /// plane produces bit-identical results whether it is on or off.
    pub telemetry: TelemetryConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            server: ServerConfig::default(),
            workers: 1,
            wave_quantum: SimDuration::from_millis(5),
            tenant_queue_depth: 64,
            shed_wave_backlog: 512,
            max_virtual_lag: SimDuration::from_millis(100),
            racks_per_shard: 4,
            snapshot_refresh: SimDuration::from_millis(50),
            service_time: SimDuration::from_micros(450),
            hit_service_time: SimDuration::from_micros(100),
            seed: 0,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Continuous-telemetry configuration: windowed time-series metrics,
/// SLO tracking, deterministic trace sampling, and the flight recorder.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Master switch. Off: no ring is allocated and the wave path does
    /// no telemetry work at all.
    pub enabled: bool,
    /// Width of one telemetry window (time-series bucket).
    pub window: SimDuration,
    /// Trace sampling rate: keep roughly 1 query in `sample_every`
    /// (0 disables sampling, 1 samples everything). The sampled set is a
    /// pure hash of `(seed, tenant, seq)` — identical at any worker
    /// count.
    pub sample_every: u64,
    /// Declarative SLOs evaluated against every finalised window.
    pub slos: Vec<SloSpec>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            window: SimDuration::from_millis(20),
            sample_every: 64,
            slos: Vec::new(),
        }
    }
}

/// Telemetry ring depth in windows; also bounds how far completions may
/// lag the ring's horizon before being drop-counted.
const RING_WINDOWS: usize = 64;
/// Tenant classes (the telemetry label dimension): a tenant belongs to
/// class `tenant.0 % TENANT_CLASSES`.
const TENANT_CLASSES: usize = 4;
/// Sliding horizon (in evaluated windows) for SLO burn rates.
const SLO_HORIZON: usize = 60;

impl TelemetryConfig {
    /// An enabled config with the default shape — callers then tune
    /// SLOs and sampling.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// One processed query, in wave → tenant → submission order.
#[derive(Debug)]
pub struct CompletedQuery {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The tenant-local submission sequence number (assigned by
    /// [`ServingPlane::submit`], stable across runs and worker counts).
    pub seq: u64,
    /// The wave that evaluated the query.
    pub wave: u64,
    /// The virtual worker that evaluated the query (worker-count
    /// dependent, unlike the answer itself).
    pub(crate) worker: usize,
    /// Virtual arrival time (as clamped by admission).
    pub(crate) arrival: SimTime,
    /// Virtual completion time under the modelled service schedule.
    pub(crate) completion: SimTime,
    /// Whether this query's wave was load-shed to the heuristic backend.
    pub shed: bool,
    /// The answer (bit-identical across worker counts) or the per-query
    /// failure.
    pub result: Result<Answer, ServerError>,
    /// The trace context minted at admission when this query was sampled
    /// for end-to-end tracing (`None` when telemetry or sampling is off).
    /// The sampled set and the trace ids are pure functions of
    /// `(seed, tenant, seq)` — identical at any worker count.
    pub trace: Option<TraceCtx>,
    /// The query's home shard, whose snapshot answered it (stitches the
    /// query to that shard's collector gather).
    pub shard: usize,
}

/// Observable state of the published holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerStats {
    /// Waves that have merged holds into the published set so far.
    pub epoch: u64,
    /// Entries in the published set.
    pub(crate) live_entries: usize,
    /// Same-wave reservations of one address by *different* tenants
    /// (merged commutatively by max expiry — counted, not a conflict).
    pub(crate) collisions: u64,
    /// Lost or shortened reservations detected after a merge — an
    /// invariant violation. Always 0 in a correct plane.
    pub conflicts: u64,
}

/// A submitted, not-yet-processed query: the problem with its footprint
/// and the home shard derived from it, both taken once at admission.
struct Pending {
    tenant: TenantId,
    seq: u64,
    arrival: SimTime,
    footprint: Footprint<'static>,
    shard: usize,
    trace: Option<TraceCtx>,
}

/// A wave member with its routed shard snapshot attached.
struct WaveItem {
    seq: u64,
    arrival: SimTime,
    footprint: Footprint<'static>,
    snapshot: StatusSnapshot,
    shard: usize,
    trace: Option<TraceCtx>,
}

/// One tenant's queries within a wave. Completion times are computed by
/// the worker as it drains the group: each query advances the worker's
/// virtual cursor by the hit or miss service time.
struct Group {
    tenant: TenantId,
    items: Vec<WaveItem>,
}

/// A worker's finished tenant group: the completions and the tenant's
/// same-wave holds to merge into the published set.
struct GroupDone {
    holds: Reservations,
    completed: Vec<CompletedQuery>,
}

/// One snapshot shard: a rack group's addresses, its gather RNG stream,
/// the current snapshot, and the hosts the source's change view has listed
/// since that snapshot was gathered.
struct Shard {
    addrs: Vec<Address>,
    rng: DetRng,
    snapshot: StatusSnapshot,
    next_refresh: SimTime,
    /// The listed hosts, by position in `addrs`.
    marks: ChangeMarks,
}

/// One virtual worker: a long-lived evaluation core (scratch reused
/// across queries) and its virtual availability time.
struct WorkerSlot {
    core: EvalCore,
    avail: SimTime,
}

/// Handles to the plane's own registered metrics.
struct ServingMetricIds {
    accepted: CounterId,
    rejected_queue: CounterId,
    rejected_lag: CounterId,
    completed: CounterId,
    query_errors: CounterId,
    waves: CounterId,
    shed_waves: CounterId,
    latency_us: HistogramId,
    lag_us: GaugeId,
    epoch: GaugeId,
    ledger_live: GaugeId,
    cache_invalidate: CounterId,
    cache_l2_entries: GaugeId,
    cache_l2_bytes: GaugeId,
    tel_windows: CounterId,
    tel_breaches: CounterId,
    tel_sampled: CounterId,
    tel_ring_dropped: GaugeId,
    refresh_hosts_polled: CounterId,
    refresh_shards_clean: CounterId,
}

/// Virtual-latency histogram bounds, microseconds.
const LATENCY_BOUNDS_US: &[f64] = &[
    250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0, 250_000.0,
    1_000_000.0,
];

impl ServingMetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        ServingMetricIds {
            accepted: reg.counter("serving.accepted"),
            rejected_queue: reg.counter("serving.rejected_queue_full"),
            rejected_lag: reg.counter("serving.rejected_overload"),
            completed: reg.counter("serving.completed"),
            query_errors: reg.counter("serving.query_errors"),
            waves: reg.counter("serving.waves"),
            shed_waves: reg.counter("serving.shed_waves"),
            latency_us: reg.histogram("serving.latency_us", LATENCY_BOUNDS_US),
            lag_us: reg.gauge("serving.virtual_lag_us"),
            epoch: reg.gauge("serving.ledger_epoch"),
            ledger_live: reg.gauge("serving.ledger_live"),
            cache_invalidate: reg.counter("cache.invalidate"),
            cache_l2_entries: reg.gauge("cache.l2_entries"),
            cache_l2_bytes: reg.gauge("cache.l2_bytes"),
            tel_windows: reg.counter("telemetry.windows"),
            tel_breaches: reg.counter("telemetry.slo_breaches"),
            tel_sampled: reg.counter("telemetry.sampled_traces"),
            tel_ring_dropped: reg.gauge("telemetry.ring_dropped"),
            refresh_hosts_polled: reg.counter("serving.refresh_hosts_polled"),
            refresh_shards_clean: reg.counter("serving.refresh_shards_clean"),
        }
    }
}

/// A shard's current gather, kept so a sampled query can be stitched to
/// the collection work behind its snapshot: when the gather ran, and the
/// aggregation plane's own sync trace when the status source records one.
struct GatherRecord {
    at: SimTime,
    agg: Option<TraceReport>,
}

/// Sequencer-side telemetry state (present only when
/// [`TelemetryConfig::enabled`]).
struct TelemetryState {
    sampler: TraceSampler,
    ring: RingRecorder,
    slo: SloTracker,
    recorder: FlightRecorder,
    /// Indexed by shard.
    gathers: Vec<GatherRecord>,
}

impl TelemetryState {
    /// Finalises every window before `until` (`None`: every window
    /// recorded so far), evaluates the SLOs against each, and retains the
    /// summaries and events in the flight recorder.
    fn close_windows(
        &mut self,
        until: Option<u64>,
        metrics: &mut MetricsRegistry,
        ids: &ServingMetricIds,
    ) {
        let TelemetryState { ring, slo, recorder, .. } = self;
        let width = ring.spec().width;
        let mut events = Vec::new();
        let mut windows = 0u64;
        let mut close = |w: u64, data: &WindowData| {
            let summary = data.summarize(w, width);
            slo.evaluate(&summary, &mut events);
            recorder.push_window(summary);
            windows += 1;
        };
        match until {
            Some(until) => ring.collect(until, &mut close),
            None => ring.flush(&mut close),
        }
        let mut breaches = 0u64;
        for e in events {
            breaches += u64::from(e.kind == SloEventKind::Breach);
            recorder.push_event(e);
        }
        metrics.inc(ids.tel_windows, windows);
        metrics.inc(ids.tel_breaches, breaches);
        #[allow(clippy::cast_precision_loss)]
        metrics.gauge_set(ids.tel_ring_dropped, ring.dropped() as f64);
    }
}

/// The collector lane of a stitched trace: the gather that produced
/// `snapshot`, synthesised from its ledger.
fn collector_lane(at: SimTime, snapshot: &StatusSnapshot) -> TraceReport {
    let mut tr = Trace::deterministic(4);
    let root = tr.begin("gather", at);
    tr.set_arg(root, "rounds", u64::from(snapshot.rounds()));
    let s = tr.begin("status_bytes", at);
    tr.set_arg(s, "bytes", snapshot.gather_ledger().status_bytes());
    tr.end(s, at + snapshot.elapsed());
    tr.end(root, at + snapshot.elapsed());
    tr.into_report()
}

/// The telemetry record of one completion.
fn query_record(c: &CompletedQuery) -> QueryRecord {
    QueryRecord {
        class: c.tenant.0 as usize % TENANT_CLASSES,
        shard: c.shard,
        latency_us: (c.completion - c.arrival).as_micros_f64(),
        error: c.result.is_err(),
        shed: c.shed,
        hit: matches!(&c.result, Ok(a) if a.provenance.cache_hit),
        rung: match &c.result {
            Ok(a) => match a.provenance.rung {
                DegradationRung::Full => 0,
                DegradationRung::FreshSubset => 1,
                DegradationRung::AssumeBusy => 2,
            },
            Err(_) => 2,
        },
    }
}

/// Telemetry counters exposed for tests and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Windows finalised so far.
    pub windows: u64,
    /// SLO breach events so far.
    pub breaches: u64,
    /// Sampled queries stitched into end-to-end traces so far.
    pub sampled_traces: u64,
    /// Ring records dropped because completion lag outran the ring span.
    pub ring_dropped: u64,
}

/// Per-query sampling RNG stream family (see the module docs).
const QUERY_STREAM_SALT: u64 = 0x51E3;
/// Shard gather RNG stream family.
const SHARD_STREAM_SALT: u64 = 0x5AAD;

/// The multi-tenant serving plane. See the module docs.
pub struct ServingPlane<S> {
    cfg: ServingConfig,
    layout: FleetLayout,
    source: S,
    collector: EvalCore,
    shards: Vec<Shard>,
    /// Scratch: the addresses the source's change view listed this wave.
    changed: Vec<Address>,
    workers: Vec<WorkerSlot>,
    /// Holds published by earlier waves, and what merging them has seen.
    ledger: Arc<Reservations>,
    ledger_epoch: u64,
    ledger_collisions: u64,
    ledger_conflicts: u64,
    l2: SharedCache,
    pending: VecDeque<Pending>,
    tenant_open: WordMap<TenantId, usize>,
    tenant_seq: WordMap<TenantId, u64>,
    next_wave: u64,
    last_arrival: SimTime,
    virtual_lag: SimDuration,
    metrics: MetricsRegistry,
    ids: ServingMetricIds,
    telemetry: Option<TelemetryState>,
}

impl<S: StatusSource> ServingPlane<S> {
    /// Builds a plane over `layout`, collecting status through `source`.
    /// Every shard is primed with an initial gather at time zero. The
    /// plane owns the source and consumes its change view
    /// ([`StatusSource::drain_changed`]).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.workers`, `cfg.racks_per_shard` are zero or
    /// `cfg.wave_quantum` is zero.
    pub fn new(cfg: ServingConfig, layout: FleetLayout, mut source: S) -> Self {
        assert!(cfg.workers >= 1, "the plane needs at least one worker");
        assert!(
            cfg.wave_quantum > SimDuration::ZERO,
            "wave quantum must be positive"
        );
        assert!(cfg.racks_per_shard >= 1, "shards must hold at least one rack");
        let mut metrics = MetricsRegistry::new();
        let ids = ServingMetricIds::register(&mut metrics);
        let mut collector = EvalCore::new(cfg.server.clone());
        let nshards = (layout.rack_count() + cfg.racks_per_shard - 1)
            .checked_div(cfg.racks_per_shard)
            .unwrap_or(0)
            .max(1);
        let tel_cfg = &cfg.telemetry;
        let mut telemetry = if tel_cfg.enabled {
            assert!(
                tel_cfg.window > SimDuration::ZERO,
                "telemetry window must be positive"
            );
            let spec = RingSpec {
                width: tel_cfg.window,
                buckets: RING_WINDOWS,
                classes: TENANT_CLASSES,
                shards: nshards,
                bounds: LATENCY_BOUNDS_US,
            };
            Some(TelemetryState {
                sampler: TraceSampler::new(cfg.seed, tel_cfg.sample_every),
                ring: RingRecorder::new(spec),
                slo: SloTracker::new(tel_cfg.slos.clone(), SLO_HORIZON),
                recorder: FlightRecorder::default(),
                gathers: Vec::with_capacity(nshards),
            })
        } else {
            None
        };
        source.advance_to(SimTime::ZERO);
        // Drained once before the prime gathers, so that every later write
        // is listed at the next drain; the prime polls everything anyway.
        let mut changed = Vec::new();
        source.drain_changed(&mut changed);
        changed.clear();
        let mut shards = Vec::with_capacity(nshards);
        for si in 0..nshards {
            let lo = si * cfg.racks_per_shard;
            let hi = ((si + 1) * cfg.racks_per_shard).min(layout.rack_count());
            let mut addrs = Vec::new();
            for r in lo..hi {
                addrs.extend_from_slice(layout.hosts(RackId(r as u32)));
            }
            let mut rng = stream_rng(derive_seed(cfg.seed, SHARD_STREAM_SALT), si as u64);
            let mut snapshot = StatusSnapshot::unprimed();
            collector.gather_snapshot(&mut snapshot, &addrs, None, &mut source, &mut rng);
            if let Some(tel) = &mut telemetry {
                let agg = source.sync_trace().cloned();
                tel.gathers.push(GatherRecord {
                    at: SimTime::ZERO,
                    agg,
                });
            }
            // The prime polled every host.
            let mut marks = ChangeMarks::new(addrs.len());
            marks.clear();
            shards.push(Shard {
                marks,
                addrs,
                rng,
                snapshot,
                next_refresh: SimTime::ZERO + cfg.snapshot_refresh,
            });
        }
        let workers = (0..cfg.workers)
            .map(|_| WorkerSlot {
                core: EvalCore::new(cfg.server.clone()),
                avail: SimTime::ZERO,
            })
            .collect();
        // With the cache off no worker is handed the L2, so it stays empty.
        let l2 = SharedCache::new(cfg.server.cache.l2_entries);
        ServingPlane {
            layout,
            source,
            collector,
            shards,
            changed,
            workers,
            ledger: Arc::new(Reservations::new()),
            ledger_epoch: 0,
            ledger_collisions: 0,
            ledger_conflicts: 0,
            l2,
            pending: VecDeque::new(),
            tenant_open: WordMap::default(),
            tenant_seq: WordMap::default(),
            next_wave: 0,
            last_arrival: SimTime::ZERO,
            virtual_lag: SimDuration::ZERO,
            metrics,
            ids,
            telemetry,
            cfg,
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The plane's status source, where a caller changes what hosts report
    /// between waves.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Number of snapshot shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Queries submitted but not yet processed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// How far the workers' virtual schedule currently runs behind the
    /// wave clock (the admission-control signal).
    pub fn virtual_lag(&self) -> SimDuration {
        self.virtual_lag
    }

    /// The currently published holds. The returned version never changes:
    /// later waves edit a copy while it is held.
    pub fn ledger_version(&self) -> Arc<Reservations> {
        Arc::clone(&self.ledger)
    }

    /// Ledger observability: epoch, live entries and collision/conflict
    /// counts.
    pub fn ledger_stats(&self) -> LedgerStats {
        LedgerStats {
            epoch: self.ledger_epoch,
            live_entries: self.ledger.len(),
            collisions: self.ledger_collisions,
            conflicts: self.ledger_conflicts,
        }
    }

    /// The snapshot epoch of every shard, in shard order. These are the
    /// *live* epochs: answer-cache entries keyed on any other epoch are
    /// unreachable and get swept on the next publish.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.snapshot.epoch()).collect()
    }

    /// Audit snapshot of the answer cache: per-tier hit counters summed
    /// across workers, sweep count, and the stale-hit and
    /// dead-entry counts the soundness tests pin at zero.
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = CacheStats {
            invalidated: self.l2.invalidated(),
            l2_dead: self.l2.dead_entries(&self.shard_epochs()),
            ..CacheStats::default()
        };
        for w in &self.workers {
            let m = w.core.metrics();
            s.l1_hits += m.counter_named("cache.l1_hit").unwrap_or(0);
            s.l2_hits += m.counter_named("cache.l2_hit").unwrap_or(0);
            s.misses += m.counter_named("cache.miss").unwrap_or(0);
            s.stale_hits += m.counter_named("cache.stale_hit").unwrap_or(0);
        }
        s
    }

    /// Telemetry counters: finalised windows, SLO breaches, stitched
    /// traces, and ring drops. All zero when telemetry is off.
    pub fn telemetry_stats(&self) -> TelemetryStats {
        TelemetryStats {
            windows: self.metrics.counter_value(self.ids.tel_windows),
            breaches: self.metrics.counter_value(self.ids.tel_breaches),
            sampled_traces: self.metrics.counter_value(self.ids.tel_sampled),
            ring_dropped: self.telemetry.as_ref().map_or(0, |t| t.ring.dropped()),
        }
    }

    /// Finalises every telemetry window still buffered in the ring
    /// (including windows ahead of the wave clock reached by lagging
    /// completions) and renders the flight recorder's postmortem bundle:
    /// Chrome JSON of the stitched traces, per-window metrics text, and
    /// the SLO timeline. `None` when telemetry is off.
    ///
    /// Meant for end-of-run (or on-breach) dumps: flushed windows are
    /// final, so completions of *later* waves landing in a flushed window
    /// are drop-counted rather than merged.
    pub fn telemetry_dump(&mut self) -> Option<PostmortemBundle> {
        let tel = self.telemetry.as_mut()?;
        tel.close_windows(None, &mut self.metrics, &self.ids);
        Some(tel.recorder.dump())
    }

    /// A merged snapshot of every registry on the plane: the plane's own
    /// `serving.*` metrics, the collector core's gather accounting, and
    /// each worker core's evaluation counters (summed across workers).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        out.merge_from(&self.metrics);
        out.merge_from(self.collector.metrics());
        for w in &self.workers {
            out.merge_from(w.core.metrics());
        }
        out
    }

    /// Submits a query for `tenant` arriving at `arrival` (clamped to be
    /// monotone and no earlier than the first unprocessed wave). Returns
    /// the tenant-local sequence number on acceptance.
    ///
    /// Sequence numbers advance on every submission, accepted or not, so
    /// a query's identity `(tenant, seq)` — and with it its sampling RNG
    /// stream — depends only on the submission history, never on
    /// admission outcomes.
    ///
    /// # Errors
    ///
    /// [`ServerError::Overloaded`] when the tenant's queue is full
    /// (`retry_after` = one wave quantum) or the plane's virtual lag
    /// exceeds [`ServingConfig::max_virtual_lag`] (`retry_after` = the
    /// current lag).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        problem: Problem,
        arrival: SimTime,
    ) -> Result<u64, ServerError> {
        let seq = {
            let c = self.tenant_seq.entry(tenant).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let floor = SimTime::ZERO + self.cfg.wave_quantum * self.next_wave;
        let arrival = arrival.max(floor).max(self.last_arrival);
        self.last_arrival = arrival;
        if self.virtual_lag > self.cfg.max_virtual_lag {
            self.metrics.inc(self.ids.rejected_lag, 1);
            return Err(ServerError::Overloaded {
                retry_after: self.virtual_lag,
            });
        }
        let open = self.tenant_open.entry(tenant).or_insert(0);
        if *open >= self.cfg.tenant_queue_depth {
            self.metrics.inc(self.ids.rejected_queue, 1);
            return Err(ServerError::Overloaded {
                retry_after: self.cfg.wave_quantum,
            });
        }
        *open += 1;
        self.metrics.inc(self.ids.accepted, 1);
        // Sampling decision at admission: a pure hash of
        // `(seed, tenant, seq)`, so the sampled set is independent of
        // worker count and of everything scheduled so far.
        let trace = self
            .telemetry
            .as_ref()
            .and_then(|tel| tel.sampler.sample(tenant.0, seq));
        let footprint = Footprint::shared(problem);
        let shard = self.shard_of(&footprint);
        self.pending.push_back(Pending {
            tenant,
            seq,
            arrival,
            footprint,
            shard,
            trace,
        });
        Ok(seq)
    }

    /// Processes every wave closing at or before `until`, returning the
    /// completed queries in wave → tenant → submission order.
    pub fn run_until(&mut self, until: SimTime) -> Vec<CompletedQuery> {
        let mut out = Vec::new();
        loop {
            let close = SimTime::ZERO + self.cfg.wave_quantum * (self.next_wave + 1);
            if close > until {
                break;
            }
            let wave = self.next_wave;
            self.process_wave(wave, close, &mut out);
            self.next_wave += 1;
        }
        out
    }

    /// The shard a problem is routed to: the shard of its lowest
    /// mentioned in-fleet address (shard 0 for fleet-less problems).
    fn shard_of(&self, footprint: &Footprint<'_>) -> usize {
        let home_rack = footprint
            .sorted()
            .iter()
            .find_map(|&a| self.layout.rack_of(a));
        home_rack.map_or(0, |r| {
            (r.0 as usize / self.cfg.racks_per_shard).min(self.shards.len() - 1)
        })
    }

    /// Merges `fresh` worker inserts into the shared L2 and — when any
    /// shard refreshed this wave — sweeps entries keyed on dead epochs.
    /// Steady state (no fresh entries, no refresh) is a no-op.
    fn publish_cache(&mut self, fresh: Vec<crate::qcache::Entry>, refreshed: bool) {
        let live = self.shard_epochs();
        let dropped = self.l2.publish(fresh, &live, refreshed);
        if dropped > 0 {
            self.metrics.inc(self.ids.cache_invalidate, dropped);
        }
        self.metrics
            .gauge_set(self.ids.cache_l2_entries, self.l2.len() as f64);
        #[allow(clippy::cast_precision_loss)]
        self.metrics
            .gauge_set(self.ids.cache_l2_bytes, self.l2.bytes() as f64);
    }

    fn update_lag(&mut self, t_wave: SimTime) {
        let max_avail = self
            .workers
            .iter()
            .map(|s| s.avail)
            .max()
            .unwrap_or(t_wave);
        self.virtual_lag = max_avail.saturating_since(t_wave);
        self.metrics
            .gauge_set(self.ids.lag_us, self.virtual_lag.as_micros_f64());
    }

    /// Sequencer-side telemetry step at every wave close (idle waves
    /// included): records each completion into the ring, stitches sampled
    /// ones into end-to-end traces, then finalises each window the wave
    /// clock has passed and evaluates the SLOs against it.
    ///
    /// Soundness of the close: completions never precede their wave's
    /// close instant and wave closes are monotone, so once the clock
    /// passes a window's end no later wave can record into it — windows
    /// strictly before `window_of(t_wave)` are final.
    fn telemetry_close_wave(&mut self, t_wave: SimTime, completed: &[CompletedQuery]) {
        let ServingPlane {
            telemetry,
            shards,
            metrics,
            ids,
            cfg,
            ..
        } = self;
        let Some(tel) = telemetry.as_mut() else {
            return;
        };

        // Record every completion, in (tenant, seq) order, and stitch
        // each sampled one: admission lane (synthesised), the collector
        // gather + aggregator sync behind its shard's snapshot, the
        // worker's service span, and the answer's own evaluation spans.
        let mut sampled = 0u64;
        for c in completed {
            let rec = query_record(c);
            tel.ring.record(c.completion, &rec);
            let Some(ctx) = c.trace else { continue };
            let mut lanes: Vec<(String, TraceReport)> = Vec::with_capacity(5);
            let mut adm = Trace::deterministic(2);
            let span = adm.begin("admit", c.arrival);
            adm.set_arg(span, "wave", c.wave);
            adm.set_arg(span, "seq", c.seq);
            adm.end(span, t_wave);
            lanes.push(("admission".to_string(), adm.into_report()));
            let gather = &tel.gathers[c.shard];
            let lane = collector_lane(gather.at, &shards[c.shard].snapshot);
            lanes.push((format!("collector/shard{}", c.shard), lane));
            if let Some(agg) = &gather.agg {
                lanes.push(("aggregator".to_string(), agg.clone()));
            }
            let served = if rec.hit {
                cfg.hit_service_time
            } else {
                cfg.service_time
            };
            let mut wk = Trace::deterministic(2);
            let span = wk.begin("serve", c.completion - served);
            wk.set_arg(span, "hit", u64::from(rec.hit));
            wk.end(span, c.completion);
            lanes.push((format!("worker{}", c.worker), wk.into_report()));
            if let Ok(a) = &c.result {
                if !a.provenance.trace.spans.is_empty() {
                    lanes.push(("answer".to_string(), a.provenance.trace.clone()));
                }
            }
            tel.recorder.push_trace(StitchedTrace {
                trace_id: ctx.trace_id,
                lanes,
            });
            sampled += 1;
        }
        metrics.inc(ids.tel_sampled, sampled);

        // Runs on idle waves too so quiet periods still close their
        // windows.
        let until = tel.ring.spec().window_of(t_wave);
        tel.close_windows(Some(until), metrics, ids);
    }

    /// Takes the source's change view and marks each listed host on its
    /// shard. A source with no view to offer sends every shard's next
    /// refresh down the full gather.
    fn mark_changed(&mut self) {
        self.changed.clear();
        if !self.source.drain_changed(&mut self.changed) {
            for shard in &mut self.shards {
                shard.marks.mark_all();
            }
            return;
        }
        let per = self.cfg.racks_per_shard;
        for &addr in &self.changed {
            let Some((rack, slot)) = self.layout.slot_of(addr) else {
                continue;
            };
            // A shard's addresses are its racks' hosts, rack after rack.
            let rack = rack.0 as usize;
            let before: usize = (rack - rack % per..rack)
                .map(|r| self.layout.hosts(RackId(r as u32)).len())
                .sum();
            let pos = before + slot;
            self.shards[rack / per].marks.mark(pos);
        }
    }

    /// Evaluates wave `wave` at its close instant `t_wave`.
    fn process_wave(&mut self, wave: u64, t_wave: SimTime, out: &mut Vec<CompletedQuery>) {
        self.metrics.inc(self.ids.waves, 1);

        // Wave membership: everything that arrived before the close.
        let mut members: Vec<Pending> = Vec::new();
        while self.pending.front().is_some_and(|p| p.arrival < t_wave) {
            members.push(self.pending.pop_front().expect("peeked"));
        }

        // Expire published holds. Entries that end by `t_wave` are
        // invisible to every query of this wave (all reservation checks
        // evaluate at `t_wave`), so dropping them first changes no answer.
        Arc::make_mut(&mut self.ledger).purge(t_wave);

        // Refresh due shards — each on its own cadence, through the
        // shared source. A slow gather only delays *this* shard's data.
        // A refresh moves the shard's snapshot epoch, which orphans every
        // answer-cache entry keyed on the old epoch. The source, and every
        // layer a decorator forwards the call to, is moved to the wave
        // clock first so the gather reads state as of now —
        // unconditionally, so telemetry on/off cannot change what a gather
        // sees. The change view is
        // drained first, so a refresh polls only what changed.
        self.source.advance_to(t_wave);
        let mut refreshed = false;
        if self.shards.iter().any(|s| t_wave >= s.next_refresh) {
            self.mark_changed();
            let (mut polled, mut clean) = (0u64, 0u64);
            let collector = &mut self.collector;
            let source = &mut self.source;
            let telemetry = &mut self.telemetry;
            let transport = &self.cfg.server.transport;
            for (si, shard) in self.shards.iter_mut().enumerate() {
                if t_wave >= shard.next_refresh {
                    // Only the listed hosts are polled when the view vouches
                    // for the rest: a clean shard polls none and keeps its
                    // world, taking a new epoch and the round's charge.
                    let answered_all = shard.snapshot.heard_from_all(shard.addrs.len());
                    let listed = shard
                        .marks
                        .may_skip(answered_all, transport)
                        .then(|| shard.marks.sorted());
                    let n = listed.map_or(shard.addrs.len(), <[usize]>::len) as u64;
                    let snap = &mut shard.snapshot;
                    collector.gather_snapshot(snap, &shard.addrs, listed, source, &mut shard.rng);
                    shard.marks.clear();
                    polled += n;
                    clean += u64::from(n == 0);
                    shard.next_refresh = t_wave + self.cfg.snapshot_refresh;
                    refreshed = true;
                    if let Some(tel) = telemetry {
                        let agg = source.sync_trace().cloned();
                        tel.gathers[si] = GatherRecord { at: t_wave, agg };
                    }
                }
            }
            self.metrics.inc(self.ids.refresh_hosts_polled, polled);
            self.metrics.inc(self.ids.refresh_shards_clean, clean);
        }

        for slot in &mut self.workers {
            slot.avail = slot.avail.max(t_wave);
        }
        if members.is_empty() {
            // Idle wave: sweep answer-cache entries orphaned by any
            // refresh above — epochs die on refresh whether or not
            // queries arrived.
            self.publish_cache(Vec::new(), refreshed);
            self.update_lag(t_wave);
            self.telemetry_close_wave(t_wave, &[]);
            return;
        }

        let shed = members.len() > self.cfg.shed_wave_backlog;
        if shed {
            self.metrics.inc(self.ids.shed_waves, 1);
        }

        // Group members by tenant (BTreeMap: deterministic tenant order;
        // FIFO within a tenant preserves submission order).
        let mut groups: BTreeMap<TenantId, Group> = BTreeMap::new();
        for p in members {
            if let Some(open) = self.tenant_open.get_mut(&p.tenant) {
                *open = open.saturating_sub(1);
            }
            let snapshot = self.shards[p.shard].snapshot.clone();
            let g = groups.entry(p.tenant).or_insert_with(|| Group {
                tenant: p.tenant,
                items: Vec::new(),
            });
            g.items.push(WaveItem {
                seq: p.seq,
                arrival: p.arrival,
                footprint: p.footprint,
                snapshot,
                shard: p.shard,
                trace: p.trace,
            });
        }

        // Greedy virtual scheduling: tenant groups in tenant order onto
        // the earliest-*estimated*-available worker (ties → lowest
        // index). The estimate charges every query the full miss-path
        // `service_time`; the worker computes actual completions as it
        // drains (cache hits cost `hit_service_time`), so its real
        // cursor can only run at or ahead of the estimate.
        let mut est: Vec<SimTime> = self.workers.iter().map(|s| s.avail).collect();
        let mut work: Vec<Vec<Group>> = (0..self.cfg.workers).map(|_| Vec::new()).collect();
        for (_, g) in groups {
            let wi = est
                .iter()
                .enumerate()
                .min_by_key(|(_, &a)| a)
                .map(|(i, _)| i)
                .expect("at least one worker");
            est[wi] += self.cfg.service_time * (g.items.len() as u64);
            work[wi].push(g);
        }

        // Execute: one job per busy worker, each owning its long-lived
        // core — the first on this thread, a spawned thread only from the
        // second on. What workers share — the published holds and the L2
        // tier — they only read, by references that end with the fan-out;
        // everything they produce comes back through it and is merged
        // below, on this thread, in worker-index order.
        let cfg = &self.cfg;
        let published: &Reservations = &self.ledger;
        let shared = cfg.server.cache.enabled.then(|| self.l2.view());
        let busy = self.workers.iter_mut().enumerate().zip(work);
        let mut jobs = busy.filter(|(_, groups)| !groups.is_empty()).map(|((wi, slot), groups)| {
            let (core, start) = (&mut slot.core, slot.avail);
            move || {
                let ran = run_groups(
                    core, groups, published, shared, cfg, wave, wi, t_wave, start, shed,
                );
                (wi, ran)
            }
        });
        let first = jobs.next().expect("a wave with members has a busy worker");
        let (head, tail) = fan_out(first, jobs);
        let mut done: Vec<GroupDone> = Vec::new();
        for (wi, (groups_done, cursor)) in std::iter::once(head).chain(tail) {
            done.extend(groups_done);
            self.workers[wi].avail = cursor;
        }
        self.update_lag(t_wave);

        // Merge every worker's fresh L1 inserts into the shared L2 (in
        // worker-index order — deterministic first-writer-wins dedup)
        // and sweep entries orphaned by this wave's shard refreshes.
        let mut fresh = Vec::new();
        for slot in &mut self.workers {
            fresh.append(&mut slot.core.cache_take_fresh());
        }
        self.publish_cache(fresh, refreshed);

        // Merge the tenants' holds into the published set. Max-expiry
        // merge is commutative, so the result is independent of which
        // workers ran which tenants. An address several tenants of the
        // wave were recommended is a collision: counted, and held until
        // the latest of their expiries.
        let mut wave_holds = Reservations::new();
        for g in &done {
            wave_holds.merge(&g.holds);
        }
        if !wave_holds.is_empty() {
            let requested: usize = done.iter().map(|g| g.holds.len()).sum();
            self.ledger_collisions += (requested - wave_holds.len()) as u64;
            let ledger = Arc::make_mut(&mut self.ledger);
            ledger.merge(&wave_holds);
            self.ledger_epoch += 1;
            // Merge invariant: strictly sorted, nothing lost or shortened.
            // A violation is a ledger conflict.
            let sorted = ledger.entries().windows(2).all(|w| w[0].0 < w[1].0);
            let kept = |&(a, until): &(_, SimTime)| ledger.expiry(a) >= Some(until);
            if !sorted || !done.iter().all(|g| g.holds.entries().iter().all(kept)) {
                self.ledger_conflicts += 1;
            }
        }

        // Completions in deterministic (tenant, seq) order.
        let mut completed: Vec<CompletedQuery> =
            done.into_iter().flat_map(|g| g.completed).collect();
        completed.sort_by_key(|c| (c.tenant, c.seq));
        for c in &completed {
            self.metrics.inc(self.ids.completed, 1);
            if c.result.is_err() {
                self.metrics.inc(self.ids.query_errors, 1);
            }
            self.metrics.observe(
                self.ids.latency_us,
                (c.completion - c.arrival).as_micros_f64(),
            );
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.metrics
                .gauge_set(self.ids.epoch, self.ledger_epoch as f64);
            self.metrics
                .gauge_set(self.ids.ledger_live, self.ledger.len() as f64);
        }
        self.telemetry_close_wave(t_wave, &completed);
        out.append(&mut completed);
    }
}

/// Evaluates a worker's assigned tenant groups for one wave, advancing
/// the worker's virtual cursor from `start` as it goes (hits cost
/// `hit_service_time`, everything else `service_time`) and returning the
/// final cursor. *Answers* stay pure with respect to scheduling — they
/// depend only on the query identities, the published holds, the L2 tier
/// as it stood when the wave began, the shard snapshots and the shed
/// flag; the cursor feeds completion times, which (like `worker`) are
/// scheduling facts.
#[allow(clippy::too_many_arguments)]
fn run_groups(
    core: &mut EvalCore,
    groups: Vec<Group>,
    published: &Reservations,
    shared: Option<&Tier>,
    cfg: &ServingConfig,
    wave: u64,
    worker: usize,
    t_wave: SimTime,
    start: SimTime,
    shed: bool,
) -> (Vec<GroupDone>, SimTime) {
    let root = derive_seed(cfg.seed, QUERY_STREAM_SALT);
    let mut out = Vec::with_capacity(groups.len());
    let mut cursor = start;
    for g in groups {
        let Group { tenant, items } = g;
        // Visibility: the published prior-wave holds plus this tenant's
        // own same-wave ones.
        let mut holds = Reservations::new();
        let mut completed = Vec::with_capacity(items.len());
        for item in items {
            // Per-query RNG stream: identity-keyed, schedule-independent.
            let mut rng = stream_rng(root, derive_seed(u64::from(tenant.0), item.seq));
            // §4.3 sampling makes a new working problem, which needs a
            // footprint of its own; otherwise admission's serves.
            let sampled_footprint =
                sample_within_budget(item.footprint.problem(), core.cfg().sample_budget, &mut rng)
                    .map(Footprint::shared);
            let working = sampled_footprint.as_ref().unwrap_or(&item.footprint);
            let result = core.answer_snapshot(
                working,
                &item.snapshot,
                t_wave,
                sampled_footprint.is_some(),
                Holds {
                    published,
                    own: &mut holds,
                    record: true,
                },
                shed,
                shared,
            );
            let hit = matches!(&result, Ok(a) if a.provenance.cache_hit);
            cursor += if hit {
                cfg.hit_service_time
            } else {
                cfg.service_time
            };
            let completion = cursor;
            completed.push(CompletedQuery {
                tenant,
                seq: item.seq,
                wave,
                worker,
                arrival: item.arrival,
                completion,
                shed,
                result,
                trace: item.trace,
                shard: item.shard,
            });
        }
        out.push(GroupDone { holds, completed });
    }
    (out, cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TableStatusSource;
    use cloudtalk_lang::builder::hdfs_write_query;
    use estimator::HostState;

    /// 4 racks × 4 hosts, addresses 1..=16, all idle.
    fn fleet() -> (FleetLayout, TableStatusSource) {
        let addrs: Vec<Address> = (1..=16).map(Address).collect();
        let layout = FleetLayout::uniform(&addrs, 4);
        let mut src = TableStatusSource::new();
        for &a in &addrs {
            src.set(a, HostState::gbps_idle());
        }
        (layout, src)
    }

    fn rack_query(rack: u32) -> Problem {
        let base = rack * 4 + 1;
        let nodes: Vec<Address> = (base..base + 4).map(Address).collect();
        hdfs_write_query(Address(100 + rack), &nodes, 2, 1e6)
            .resolve()
            .unwrap()
    }

    fn cfg(workers: usize) -> ServingConfig {
        ServingConfig {
            workers,
            racks_per_shard: 2,
            wave_quantum: SimDuration::from_millis(5),
            ..ServingConfig::default()
        }
    }

    #[test]
    fn plane_answers_submitted_queries() {
        let (layout, src) = fleet();
        let mut plane = ServingPlane::new(cfg(2), layout, src);
        assert_eq!(plane.shard_count(), 2);
        for t in 0..3u32 {
            plane
                .submit(TenantId(t), rack_query(t), SimTime::ZERO)
                .unwrap();
        }
        let done = plane.run_until(SimTime::from_secs_f64(0.01));
        assert_eq!(done.len(), 3);
        for c in &done {
            let a = c.result.as_ref().unwrap();
            assert!(!a.binding.is_empty());
            assert!(!a.provenance.shed);
        }
        let m = plane.metrics();
        assert_eq!(m.counter_named("serving.accepted"), Some(3));
        assert_eq!(m.counter_named("serving.completed"), Some(3));
        assert_eq!(m.counter_named("server.queries_answered"), Some(3));
        assert!(m.histograms().any(|(n, h)| n == "serving.latency_us" && h.total() == 3));
    }

    #[test]
    fn answers_bit_identical_across_worker_counts() {
        let runs: Vec<Vec<CompletedQuery>> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let (layout, src) = fleet();
                let mut plane = ServingPlane::new(cfg(w), layout, src);
                for t in 0..4u32 {
                    for q in 0..3u64 {
                        let at = SimTime::ZERO
                            + SimDuration::from_millis(2 * q + u64::from(t) % 2);
                        plane.submit(TenantId(t), rack_query(t), at).unwrap();
                    }
                }
                let mut done = plane.run_until(SimTime::from_secs_f64(0.05));
                done.sort_by_key(|c| (c.tenant, c.seq));
                done
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].len(), other.len());
            for (a, b) in runs[0].iter().zip(other) {
                assert_eq!((a.tenant, a.seq, a.wave), (b.tenant, b.seq, b.wave));
                assert_eq!(
                    a.result.as_ref().unwrap(),
                    b.result.as_ref().unwrap(),
                    "answer differs for ({}, {})",
                    a.tenant,
                    a.seq
                );
            }
        }
    }

    #[test]
    fn answers_do_not_depend_on_where_a_key_hashes() {
        // With every fingerprint and cache key forced into one bucket, a
        // probe is decided by the structural comparison alone. Repeat-heavy
        // traffic over three refresh epochs must answer exactly as with
        // honest hashing — cache on or off, at 1, 2 and 8 workers — and
        // never replay an entry from a dead epoch.
        struct OneBucket;
        impl Drop for OneBucket {
            fn drop(&mut self) {
                crate::canon::ONE_BUCKET.store(false, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let run = |workers: usize, cache: bool| {
            let (layout, src) = fleet();
            let mut c = cfg(workers);
            c.snapshot_refresh = SimDuration::from_millis(20);
            c.server.cache.enabled = cache;
            let mut plane = ServingPlane::new(c, layout, src);
            let mut done = Vec::new();
            for wave in 0..12u64 {
                let at = SimTime::ZERO + SimDuration::from_millis(5 * wave);
                for t in 0..6u32 {
                    plane
                        .submit(TenantId(t), rack_query((t + wave as u32) % 3), at)
                        .unwrap();
                }
                done.extend(plane.run_until(at));
                assert_eq!(plane.cache_stats().stale_hits, 0);
                assert_eq!(plane.cache_stats().l2_dead, 0);
            }
            done.extend(plane.run_until(SimTime::from_secs_f64(0.2)));
            done.sort_by_key(|c| (c.tenant, c.seq));
            let answers: Vec<_> = done
                .into_iter()
                .map(|c| (c.tenant, c.seq, c.result.expect("answered")))
                .collect();
            (answers, plane.cache_stats().hits())
        };
        for workers in [1usize, 2, 8] {
            let (honest, honest_hits) = run(workers, true);
            assert_eq!(honest.len(), 72);
            assert!(honest_hits > 0, "the schedule must exercise the cache");

            crate::canon::ONE_BUCKET.store(true, std::sync::atomic::Ordering::SeqCst);
            let _reset = OneBucket;
            let (cached, hits) = run(workers, true);
            assert_eq!(hits, honest_hits, "{workers} workers");
            assert_eq!(cached, honest, "{workers} workers, cache on");
            let (uncached, _) = run(workers, false);
            assert_eq!(uncached, honest, "{workers} workers, cache off");
        }
    }

    #[test]
    fn tenant_queue_is_bounded() {
        let (layout, src) = fleet();
        let mut plane = ServingPlane::new(
            ServingConfig {
                tenant_queue_depth: 2,
                ..cfg(1)
            },
            layout,
            src,
        );
        let t = TenantId(0);
        plane.submit(t, rack_query(0), SimTime::ZERO).unwrap();
        plane.submit(t, rack_query(0), SimTime::ZERO).unwrap();
        let err = plane.submit(t, rack_query(0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, ServerError::Overloaded { retry_after } if retry_after > SimDuration::ZERO));
        assert_eq!(plane.pending_len(), 2);
        // Processing the wave frees the queue.
        plane.run_until(SimTime::from_secs_f64(0.01));
        plane.submit(t, rack_query(0), SimTime::from_secs_f64(0.01)).unwrap();
    }

    #[test]
    fn shed_waves_force_heuristic_and_report_it() {
        let (layout, src) = fleet();
        let mut plane = ServingPlane::new(
            ServingConfig {
                shed_wave_backlog: 0,
                ..cfg(2)
            },
            layout,
            src,
        );
        plane.submit(TenantId(0), rack_query(0), SimTime::ZERO).unwrap();
        let done = plane.run_until(SimTime::from_secs_f64(0.01));
        assert!(done[0].shed);
        let a = done[0].result.as_ref().unwrap();
        assert!(a.provenance.shed);
        assert_eq!(a.provenance.backend, crate::server::Backend::Heuristic);
        assert_eq!(plane.metrics().counter_named("serving.shed_waves"), Some(1));
        assert_eq!(plane.metrics().counter_named("server.shed"), Some(1));
    }

    #[test]
    fn a_version_handed_out_before_a_publish_is_unchanged_after_it() {
        let (layout, src) = fleet();
        let mut plane = ServingPlane::new(cfg(2), layout, src);
        let v0 = plane.ledger_version();
        plane
            .submit(TenantId(0), rack_query(0), SimTime::ZERO)
            .unwrap();
        plane.run_until(SimTime::from_secs_f64(0.01));
        let s1 = plane.ledger_stats();
        assert_eq!(s1.epoch, 1, "one wave merged holds: {s1:?}");
        assert!(s1.live_entries > 0);
        assert_eq!(s1.conflicts, 0);
        let v1 = plane.ledger_version();
        assert!(v0.is_empty(), "the version handed out earlier did not move");
        assert_eq!(v1.len(), s1.live_entries);
        assert!(v1.entries().windows(2).all(|w| w[0].0 < w[1].0));
        // The 300 ms hold expires; a later wave purges it — in a copy,
        // while `v1` is held.
        plane.run_until(SimTime::from_secs_f64(0.5));
        let s2 = plane.ledger_stats();
        assert_eq!(s2.live_entries, 0, "{s2:?}");
        assert_eq!(s2.epoch, 1, "a purge is not a merge");
        assert_eq!(s2.conflicts, 0);
        assert_eq!(v1.len(), s1.live_entries);
    }

    /// A one-worker plane over [`fleet`], its server config edited.
    fn plane_with(edit: impl FnOnce(&mut ServerConfig)) -> ServingPlane<TableStatusSource> {
        let (layout, src) = fleet();
        let mut c = cfg(1);
        edit(&mut c.server);
        ServingPlane::new(c, layout, src)
    }

    #[test]
    fn a_cache_miss_and_a_hit_each_fingerprint_once() {
        use crate::canon::FINGERPRINT_CALLS;
        // One tenant's query, then the same query a wave later against the
        // same shard snapshot. With no holds the repeat's reservation mask
        // is the first one's: the miss (L1 lookup, L2 lookup, insert) hashes
        // the problem once, and so does the hit.
        let mut plane = plane_with(|s| s.reservation_hold = None);
        let fingerprints = || FINGERPRINT_CALLS.with(|c| c.get());
        for (at, hit) in [(0.0, false), (0.005, true)] {
            let at = SimTime::from_secs_f64(at);
            let before = fingerprints();
            plane.submit(TenantId(0), rack_query(0), at).unwrap();
            let done = plane.run_until(at + SimDuration::from_millis(5));
            assert_eq!(done[0].result.as_ref().unwrap().provenance.cache_hit, hit);
            assert_eq!(fingerprints() - before, 1, "hit: {hit}");
        }
        let stats = plane.cache_stats();
        assert_eq!((stats.misses, stats.l1_hits), (1, 1));
    }

    #[test]
    fn a_replayed_exhaustive_answer_carries_the_same_provenance() {
        // Two identical exhaustive queries in one tenant's wave, no holds:
        // the second replays the first from the worker's L1, and its
        // provenance — counters, tie cuts, span tree — equals the search's.
        let mut plane = plane_with(|s| {
            s.reservation_hold = None;
            s.method = crate::server::EvalMethod::Exhaustive { limit: 100 };
        });
        let nodes: Vec<Address> = (2..=5).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e8)
            .resolve()
            .unwrap();
        for _ in 0..2 {
            plane.submit(TenantId(0), p.clone(), SimTime::ZERO).unwrap();
        }
        let done = plane.run_until(SimTime::from_secs_f64(0.005));
        let searched = &done[0].result.as_ref().unwrap().provenance;
        let replayed = &done[1].result.as_ref().unwrap().provenance;
        assert_eq!(searched.backend, crate::server::Backend::Exhaustive);
        assert!(searched.search.pruned_ties > 0, "{:?}", searched.search);
        assert!(!searched.cache_hit && replayed.cache_hit);
        assert_eq!(replayed, searched);
    }

    #[test]
    fn a_failing_query_leaves_the_rest_of_its_wave_answered() {
        use crate::exhaustive::ExhaustiveError;
        // One tenant's wave holds an exhaustive search over 32³ bindings,
        // which trips the limit, and a small one, which still answers.
        let mut plane =
            plane_with(|s| s.method = crate::server::EvalMethod::Exhaustive { limit: 100 });
        let huge: Vec<Address> = (2..34).map(Address).collect();
        let small: Vec<Address> = (2..5).map(Address).collect();
        for (pool, replicas) in [(&huge, 3), (&small, 2)] {
            let p = hdfs_write_query(Address(1), pool, replicas, 1e6);
            plane.submit(TenantId(0), p.resolve().unwrap(), SimTime::ZERO).unwrap();
        }
        let done = plane.run_until(SimTime::from_secs_f64(0.005));
        assert_eq!(done[0].wave, done[1].wave);
        assert!(matches!(
            done[0].result,
            Err(ServerError::Exhaustive(ExhaustiveError::TooLarge { .. }))
        ));
        assert_eq!(done[1].result.as_ref().unwrap().binding.len(), 2);
        let errors = plane.metrics().counter_named("serving.query_errors");
        assert_eq!(errors, Some(1));
    }

    #[test]
    fn a_wave_gathers_nothing_beyond_its_shard_refreshes() {
        // Three queries in one tenant's wave are answered against their
        // shard's snapshot, so status traffic comes only from the shard
        // gathers: the prime at time zero (two shards of eight hosts),
        // then one per shard once `snapshot_refresh` has passed.
        let mut plane = plane_with(|_| {});
        let polled = |plane: &ServingPlane<_>| {
            let m = plane.metrics();
            m.counter_named("overhead.status_queries").unwrap()
        };
        assert_eq!(polled(&plane), 16);
        for (at, polls) in [(0.0, 16), (0.05, 32)] {
            let at = SimTime::from_secs_f64(at);
            for _ in 0..3 {
                plane.submit(TenantId(0), rack_query(0), at).unwrap();
            }
            let done = plane.run_until(at + SimDuration::from_millis(5));
            let bytes: Vec<u64> = done
                .iter()
                .map(|c| c.result.as_ref().unwrap().provenance.status_bytes)
                .collect();
            assert!(bytes[0] > 0 && bytes == [bytes[0]; 3], "{bytes:?}");
            assert_eq!(polled(&plane), polls, "status polls after the wave at {at:?}");
        }
    }

    #[test]
    fn a_refresh_polls_only_what_changed() {
        // Over a static table the three refreshes after the prime poll
        // nobody, while the modelled rounds are charged as before; one
        // `set` is re-polled exactly once, on its shard's next refresh.
        let mut plane = plane_with(|_| {});
        let read = |plane: &ServingPlane<_>, name: &str| {
            plane.metrics().counter_named(name).expect("registered")
        };
        let refresh = |plane: &mut ServingPlane<_>, k: u64| {
            plane.run_until(SimTime::ZERO + SimDuration::from_millis(50 * k));
        };
        let epochs = plane.shard_epochs();
        for k in 1..=3 {
            refresh(&mut plane, k);
        }
        assert_eq!(read(&plane, "serving.refresh_hosts_polled"), 0);
        assert_eq!(read(&plane, "serving.refresh_shards_clean"), 3 * 2);
        assert_eq!(read(&plane, "overhead.status_queries"), 4 * 16);
        let moved = plane.shard_epochs().iter().zip(&epochs).all(|(now, was)| now > was);
        assert!(moved, "every refresh takes a new epoch");

        plane
            .source_mut()
            .set(Address(3), HostState::gbps_idle().with_up_load(0.5));
        for k in 4..=5 {
            refresh(&mut plane, k);
        }
        assert_eq!(read(&plane, "serving.refresh_hosts_polled"), 1);
        assert_eq!(read(&plane, "serving.refresh_shards_clean"), 5 * 2 - 1);
        assert_eq!(read(&plane, "overhead.status_queries"), 6 * 16);
    }

    fn telemetry_cfg(workers: usize, sample_every: u64, slos: Vec<obs::SloSpec>) -> ServingConfig {
        ServingConfig {
            telemetry: TelemetryConfig {
                sample_every,
                slos,
                window: SimDuration::from_millis(10),
                ..TelemetryConfig::enabled()
            },
            ..cfg(workers)
        }
    }

    #[test]
    fn telemetry_windows_slos_and_stitched_traces() {
        // Every wave-scheduled query has virtual latency ≥ the wave
        // quantum (5 ms), so a 100 µs p99 SLO must breach.
        let (layout, src) = fleet();
        let slos = vec![obs::SloSpec::p99_latency_us(100.0)];
        let mut plane = ServingPlane::new(telemetry_cfg(2, 1, slos), layout, src);
        for t in 0..4u32 {
            for q in 0..4u64 {
                let at = SimTime::ZERO + SimDuration::from_millis(3 * q);
                plane.submit(TenantId(t), rack_query(t), at).unwrap();
            }
        }
        let done = plane.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(done.len(), 16);
        assert!(
            done.iter().all(|c| c.trace.is_some()),
            "sample_every=1 samples every query"
        );

        let bundle = plane.telemetry_dump().expect("telemetry is on");
        let stats = plane.telemetry_stats();
        assert!(stats.windows > 0, "{stats:?}");
        assert_eq!(stats.sampled_traces, 16, "{stats:?}");
        assert!(stats.breaches > 0, "5ms-floor latencies vs 100µs SLO");
        assert_eq!(stats.ring_dropped, 0, "no completion outran the ring");
        assert_eq!(
            plane.metrics().counter_named("telemetry.sampled_traces"),
            Some(16)
        );

        // The stitched Chrome trace spans admission → collector → worker
        // → answer on the same timeline.
        for lane in ["admission", "collector/shard", "worker", "answer"] {
            assert!(
                bundle.chrome_json.contains(lane),
                "chrome trace missing lane {lane}"
            );
        }
        assert!(bundle.metrics_text.contains("p99_us="));
        assert!(bundle.slo_text.contains("BREACH"), "{}", bundle.slo_text);
    }

    /// Parses `(window, total)` from every `window N … total=T` line.
    fn window_totals(metrics_text: &str) -> Vec<(u64, u64)> {
        metrics_text
            .lines()
            .filter_map(|l| l.strip_prefix("window "))
            .map(|l| {
                let w = l.split(' ').next().unwrap().parse().unwrap();
                let t = l.split("total=").nth(1).unwrap().split(' ').next().unwrap();
                (w, t.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn telemetry_dump_mid_run_loses_no_later_window() {
        // One overloaded worker, cache off, 20 queries per 5 ms wave:
        // completions lag the wave clock by ~100 ms, so a mid-run dump
        // finalises windows the next waves still complete into. Those
        // late records must be dropped and counted on arrival — and every
        // later window must still hold all of its completions.
        let (layout, src) = fleet();
        let mut c = telemetry_cfg(1, 0, Vec::new());
        c.server.cache.enabled = false;
        let mut plane = ServingPlane::new(c, layout, src);
        let width = SimDuration::from_millis(10).as_nanos();
        let mut horizon = None;
        let mut per_window: BTreeMap<u64, u64> = BTreeMap::new();
        let mut late = 0u64;
        for wave in 0..=400u64 {
            let at = SimTime::ZERO + SimDuration::from_millis(5 * wave);
            for t in 0..20u32 {
                let _ = plane.submit(TenantId(t), rack_query(t % 4), at);
            }
            for done in plane.run_until(at + SimDuration::from_millis(5)) {
                let w = done.completion.as_nanos() / width;
                match horizon {
                    Some(h) if w <= h => late += 1,
                    Some(_) => *per_window.entry(w).or_insert(0) += 1,
                    None => {}
                }
            }
            if wave == 100 {
                let first = plane.telemetry_dump().expect("telemetry is on");
                horizon = window_totals(&first.metrics_text).last().map(|&(w, _)| w);
            }
        }
        let horizon = horizon.expect("the first dump finalised windows");
        assert!(late > 0, "the schedule must complete into a flushed window");
        let second = plane.telemetry_dump().expect("telemetry is on");
        let held: Vec<(u64, u64)> = window_totals(&second.metrics_text)
            .into_iter()
            .filter(|&(w, _)| w > horizon)
            .collect();
        assert!(held.len() > 64, "the recorder keeps more than one ring span");
        for (w, total) in held {
            let want = per_window.get(&w).copied().unwrap_or(0);
            assert_eq!(total, want, "window {w}");
        }
        assert_eq!(plane.telemetry_stats().ring_dropped, late);
    }

    #[test]
    fn telemetry_off_is_inert_and_answers_match_on() {
        let run = |telemetry: bool| {
            let (layout, src) = fleet();
            let cfg = if telemetry {
                telemetry_cfg(2, 4, Vec::new())
            } else {
                cfg(2)
            };
            let mut plane = ServingPlane::new(cfg, layout, src);
            for t in 0..4u32 {
                for q in 0..4u64 {
                    let at = SimTime::ZERO + SimDuration::from_millis(2 * q);
                    plane.submit(TenantId(t), rack_query(t), at).unwrap();
                }
            }
            let done = plane.run_until(SimTime::from_secs_f64(0.1));
            let stats = plane.telemetry_stats();
            let dump = plane.telemetry_dump();
            (done, stats, dump)
        };
        let (on, on_stats, on_dump) = run(true);
        let (off, off_stats, off_dump) = run(false);
        assert_eq!(off_stats, TelemetryStats::default());
        assert!(off_dump.is_none());
        assert!(on_dump.is_some());
        assert!(on_stats.windows > 0);
        assert!(
            on_stats.sampled_traces > 0 && on_stats.sampled_traces < 16,
            "1-in-4 sampling keeps a strict subset: {on_stats:?}"
        );
        assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            assert_eq!((a.tenant, a.seq, a.completion), (b.tenant, b.seq, b.completion));
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert!(b.trace.is_none(), "telemetry off mints no trace contexts");
        }
    }
}
