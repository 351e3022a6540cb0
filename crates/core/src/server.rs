//! The CloudTalk server: parse → gather → evaluate → answer (§4, Figure 2).
//!
//! One server instance runs on every physical machine; tenants connect to
//! their local one. Answering a query:
//!
//! 1. parse the query text (or accept a pre-resolved problem);
//! 2. sample candidate pools above the probe budget (§4.3);
//! 3. interrogate the status servers of every mentioned address over the
//!    scatter-gather transport; unanswered hosts are assumed overloaded;
//! 4. overlay pseudo-reservations (§5.5) so back-to-back queries do not
//!    stampede onto the same idle machines;
//! 5. run the selected evaluator (the Listing 1 heuristic by default,
//!    exhaustive search as the accuracy baseline);
//! 6. reserve the recommended machines and answer.
//!
//! A [`CloudTalkServer`] answer gathers its own snapshot and caches
//! nothing: the snapshot's epoch is in every answer-cache key and no later
//! answer sees it again. Sharing one gather among several queries, and
//! caching answers across them, is the serving plane's job
//! ([`crate::serving::ServingPlane`]): a tenant that submits queries in
//! one wave has them answered against one shard snapshot.

use std::sync::Arc;

use cloudtalk_lang::problem::{Address, Binding, Problem, Value};
use cloudtalk_lang::{parse_query, resolve, LangError, MapResolver, WordMap};
use desim::rng::{stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use estimator::World;

use obs::{CounterId, GaugeId, HistogramId, MetricsRegistry, Trace, TraceReport};

use crate::exhaustive::{
    exhaustive_search_in, EvalStrategy, ExhaustiveError, ExhaustiveResult, SearchOptions,
    SearchWorkspace,
};
use crate::footprint::Footprint;
use crate::heuristic::{evaluate_query_scored_in, HeuristicConfig, HeuristicScratch};
use crate::messages::{LedgerCounters, OverheadLedger};
use crate::pktsearch::{pkt_search, MirrorTopology, PktSearchError, PktSearchOptions};
use crate::qcache::{CacheConfig, CachedSearch, KeyParts, QueryCache, Tier};
use crate::reservation::Reservations;
use crate::sampling::{sample_candidates, DEFAULT_SAMPLE_THRESHOLD};
use crate::status::StatusSource;
use crate::transport::{scatter_gather_changed, TransportConfig};

/// Which evaluation backend answers the query.
///
/// `Hash` because the configured method is part of the answer-cache key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvalMethod {
    /// The Listing 1 heuristic (the paper's default for all experiments
    /// except web search).
    #[default]
    Heuristic,
    /// Brute force over all bindings, scored by the flow-level estimator.
    Exhaustive {
        /// Maximum bindings to try before refusing.
        limit: u64,
    },
    /// Enumerate all bindings at *packet* fidelity over the provider's
    /// mirror topology ([`ServerConfig::pkt`]), picking the minimum
    /// simulated makespan. The paper's backend for incast-dominated
    /// queries (§5.4 web search) that the flow-level estimator cannot
    /// score — drops and RTOs are invisible to it.
    PacketLevel {
        /// Maximum bindings to try before refusing.
        limit: u64,
    },
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Scatter-gather transport parameters (including retry/backoff).
    pub transport: TransportConfig,
    /// Heuristic parameters (weight `W`, priority binding).
    pub heuristic: HeuristicConfig,
    /// Candidate-pool size above which sampling kicks in, and the sample
    /// size used (§4.3; the paper samples 19 of 300 in §5.2).
    pub sample_budget: usize,
    /// Pseudo-reservation hold time (§5.5; `None` disables — the "Osc"
    /// configuration of Figure 12).
    pub reservation_hold: Option<SimDuration>,
    /// Evaluation backend.
    pub method: EvalMethod,
    /// Graceful-degradation ladder parameters.
    pub degradation: DegradationConfig,
    /// Packet-level backend parameters (only used by
    /// [`EvalMethod::PacketLevel`]).
    pub pkt: PktBackendConfig,
    /// Observability: per-query span tracing and host-timer selection.
    pub obs: ObsConfig,
    /// The canonical answer cache (`crate::qcache`), serving plane
    /// only: per-worker L1 plus a shared L2, keyed on the exact
    /// post-sampling problem, snapshot epoch, footprint-restricted
    /// reservation mask, rung, shed flag, and backend config — a hit is
    /// bit-identical to the miss it replaces.
    pub cache: CacheConfig,
    /// RNG seed for sampling and transport loss.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            transport: TransportConfig::default(),
            heuristic: HeuristicConfig::default(),
            sample_budget: DEFAULT_SAMPLE_THRESHOLD,
            reservation_hold: Some(SimDuration::from_millis(300)),
            method: EvalMethod::Heuristic,
            degradation: DegradationConfig::default(),
            pkt: PktBackendConfig::default(),
            obs: ObsConfig::default(),
            cache: CacheConfig::default(),
            seed: 0,
        }
    }
}

/// Observability configuration for a server.
///
/// The default records every answer's span tree with the deterministic
/// `obs::NullClock` (host timestamps all zero), so answers — including
/// their provenance — compare equal across identical runs. Benches enable
/// `host_timer` to see real per-phase durations; latency-critical setups
/// disable `tracing` entirely, which makes every span operation a no-op
/// and leaves an empty [`obs::TraceReport`] in the answer.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Record per-query spans (collect → sanitise → search → bind).
    pub tracing: bool,
    /// Stamp spans with a real monotonic host timer instead of the
    /// deterministic null clock. Host timestamps become run-dependent;
    /// simulated timestamps stay deterministic either way.
    pub host_timer: bool,
}

/// Span-arena capacity per query: an answer records five spans. Spans
/// beyond this are counted in [`obs::TraceReport::dropped`], never
/// allocated.
const SPAN_CAPACITY: usize = 16;

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracing: true,
            host_timer: false,
        }
    }
}

/// Configuration of the packet-level search backend.
///
/// The backend evaluates bindings against the provider's simulated
/// *mirror* of its datacenter, not against gathered status data — packet
/// simulation models the query's own traffic on the mirrored fabric
/// (which is how the paper answers the web-search placement). Status
/// freshness still gates it: on degraded rungs the server answers with
/// the heuristic instead, exactly as it does for [`EvalMethod::Exhaustive`].
#[derive(Clone, Debug)]
pub struct PktBackendConfig {
    /// The mirror topology. `Arc`-shared: one mirror serves every query
    /// (and every server clone). `None` fails `PacketLevel` queries with
    /// [`ServerError::MirrorMissing`].
    pub mirror: Option<Arc<MirrorTopology>>,
    /// Packet-simulator parameters.
    pub sim: pktsim::SimConfig,
    /// Worker threads for the binding fan-out.
    pub threads: usize,
}

impl Default for PktBackendConfig {
    fn default() -> Self {
        PktBackendConfig {
            mirror: None,
            sim: pktsim::SimConfig::default(),
            threads: 1,
        }
    }
}

/// Which rung of the graceful-degradation ladder answered a query.
///
/// The ladder trades answer quality for robustness as the gathered status
/// data degrades; the chosen rung is reported in the [`Answer`] so callers
/// (and chaos tests) can observe degradation instead of silently absorbing
/// skewed placements.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DegradationRung {
    /// Enough fresh data: the configured evaluation backend runs on the
    /// full snapshot.
    Full,
    /// Partially degraded: the heuristic runs against only the *fresh*
    /// subset of reports; stale/missing hosts count as overloaded. The
    /// exhaustive backend is never used here — with mostly-pessimistic
    /// inputs it can find no feasible binding, while the heuristic always
    /// completes.
    FreshSubset,
    /// Collection effectively failed: a static assume-busy fallback — every
    /// host pessimistic, the heuristic picks deterministically among
    /// equals. The answer is valid but blind; callers seeing this rung
    /// should treat the recommendation as a tie-break, not a measurement.
    AssumeBusy,
}

impl std::fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationRung::Full => write!(f, "full"),
            DegradationRung::FreshSubset => write!(f, "fresh-subset"),
            DegradationRung::AssumeBusy => write!(f, "assume-busy"),
        }
    }
}

/// Parameters of the graceful-degradation ladder.
#[derive(Clone, Copy, Debug)]
pub struct DegradationConfig {
    /// Staleness-decay half-life: a report `half_life` old contributes 0.5
    /// to the freshness score, `2·half_life` contributes 0.25, and so on.
    /// Missing hosts contribute 0.
    pub(crate) half_life: SimDuration,
    /// Reports older than this are excluded from the fresh subset on the
    /// [`DegradationRung::FreshSubset`] rung.
    pub(crate) fresh_max_age: SimDuration,
    /// Freshness score at or above which the full backend runs.
    pub(crate) full_threshold: f64,
    /// Freshness score below which even the fresh subset is too thin and
    /// the assume-busy fallback answers.
    pub(crate) fallback_threshold: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            half_life: SimDuration::from_millis(500),
            fresh_max_age: SimDuration::from_secs_f64(1.0),
            full_threshold: 0.7,
            fallback_threshold: 0.2,
        }
    }
}

impl DegradationConfig {
    /// The staleness-decay weight of one report of the given age.
    pub fn decay(&self, age: SimDuration) -> f64 {
        if self.half_life == SimDuration::ZERO {
            return if age == SimDuration::ZERO { 1.0 } else { 0.0 };
        }
        0.5_f64.powf(age.as_secs_f64() / self.half_life.as_secs_f64())
    }

    /// Selects the ladder rung for a snapshot freshness score.
    pub fn rung_for(&self, freshness: f64) -> DegradationRung {
        if freshness >= self.full_threshold {
            DegradationRung::Full
        } else if freshness >= self.fallback_threshold {
            DegradationRung::FreshSubset
        } else {
            DegradationRung::AssumeBusy
        }
    }
}

/// Modelled per-query processing overheads (paper §5.1: "around 0.45ms on
/// average to answer one query: of these, 0.32ms are spent in parsing …
/// 0.13ms running our query evaluation algorithm"). Used to report
/// simulated response times; the benches measure the real thing.
pub(crate) const MODELLED_PARSE_TIME: SimDuration = SimDuration::from_micros(320);
/// Modelled heuristic evaluation time.
pub(crate) const MODELLED_EVAL_TIME: SimDuration = SimDuration::from_micros(130);

/// Which evaluation backend actually produced a binding (reported in
/// [`Provenance`]; degraded rungs force [`Backend::Heuristic`] regardless
/// of the configured [`EvalMethod`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The Listing 1 heuristic.
    Heuristic,
    /// Branch-and-bound exhaustive search over the flow-level estimator.
    Exhaustive,
    /// Packet-level enumeration over the mirror topology.
    PacketLevel,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Heuristic => write!(f, "heuristic"),
            Backend::Exhaustive => write!(f, "exhaustive"),
            Backend::PacketLevel => write!(f, "packet-level"),
        }
    }
}

/// How much of the binding space the search backend actually visited.
///
/// Semantics per backend: the heuristic scores every candidate of every
/// variable once (`enumerated` = Σ pool sizes, nothing pruned); the
/// exhaustive backend counts estimator calls in `enumerated` and
/// lower-bound subtree cuts in `pruned` (bound strictly above the
/// incumbent) and `pruned_ties` (bound equal to the worker's own best —
/// why a search over a world full of ties is short); the packet-level
/// backend counts
/// completed simulations in `enumerated`, deadline-abandoned ones in
/// `aborted`, and symmetry-cache answers in `memo_hits`/`memo_misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Upper bound on the binding space (product of candidate-pool sizes,
    /// saturating; distinctness constraints may make the real space
    /// smaller).
    pub space: u64,
    /// Candidates/bindings actually evaluated.
    pub enumerated: u64,
    /// Subtrees cut by the exhaustive lower bound strictly exceeding the
    /// incumbent (0 for other backends).
    pub(crate) pruned: u64,
    /// Subtrees the exhaustive search cut on a bound merely *equal* to its
    /// own best so far (0 for other backends). Disjoint from `pruned`.
    pub(crate) pruned_ties: u64,
    /// Packet simulations abandoned by the incumbent deadline.
    pub aborted: u64,
    /// Bindings answered from the packet-search symmetry cache.
    pub memo_hits: u64,
    /// Bindings the packet search had to simulate (memoisation on only).
    pub memo_misses: u64,
    /// Resource components the delta evaluator re-rated (0 unless
    /// [`EvalStrategy::Delta`] actually ran).
    pub delta_components_rerated: u64,
    /// Resource components the delta evaluator replayed from its cache.
    pub(crate) delta_components_reused: u64,
    /// Flow endpoint moves the delta evaluator applied.
    pub(crate) delta_flows_moved: u64,
    /// High-water depth of the delta evaluator's undo log.
    pub(crate) delta_max_undo_depth: u64,
}

/// Structured provenance of one answer: which rung and backend produced
/// it, how much search work ran, what the gather cost, which hosts were
/// distrusted, and the per-phase span tree
/// (`answer` ⊃ `collect` → `sanitise` → `search` → `bind`).
///
/// With the default [`ObsConfig`] this is fully deterministic — identical
/// runs produce identical (`PartialEq`-comparable) provenance.
///
/// `PartialEq` is implemented manually to exclude `Provenance::cache_hit`:
/// whether an answer came from the cache depends on worker count and wave
/// scheduling (a query may hit one worker's L1 in one run and miss in
/// another), while everything *else* in the answer is bit-identical by the
/// determinism contract. Comparing provenance therefore compares what was
/// answered, not where the bytes happened to be found.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Which rung of the degradation ladder answered.
    pub rung: DegradationRung,
    /// The backend that produced the binding (the configured method on
    /// [`DegradationRung::Full`], otherwise the heuristic).
    pub backend: Backend,
    /// Search-effort counters.
    pub search: SearchStats,
    /// Scatter-gather rounds behind this answer's snapshot.
    pub gather_rounds: u32,
    /// First-round status bytes of the gather behind this answer's
    /// snapshot (shared across a batch answered from one snapshot; 0 for
    /// static snapshots).
    pub status_bytes: u64,
    /// Retry-round bytes of the same gather (kept separate so retries
    /// never double-count the §5.5 figure).
    pub(crate) retry_bytes: u64,
    /// Hosts whose reports existed but were dropped for staleness on the
    /// [`DegradationRung::FreshSubset`] rung, sorted by address. Empty on
    /// other rungs ([`DegradationRung::Full`] trusts everything,
    /// [`DegradationRung::AssumeBusy`] trusts nothing).
    pub stale_dropped: Vec<Address>,
    /// Whether the serving plane's load-shedding rung forced the
    /// heuristic backend for this answer: the plane was over its backlog
    /// bound, so the configured (more expensive) method was skipped to
    /// protect latency. Always `false` on the single-server path. Unlike
    /// a degraded [`Provenance::rung`], shedding says nothing about data
    /// quality — the snapshot freshness is whatever `rung` reports.
    pub shed: bool,
    /// Whether this answer was replayed from the answer cache instead of
    /// re-running the search. Always `false` on [`CloudTalkServer`], which
    /// never caches. Excluded from `PartialEq` (see the type docs): cache
    /// placement is scheduling-dependent, the answer is not.
    pub(crate) cache_hit: bool,
    /// The per-phase span tree.
    pub trace: TraceReport,
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Self) -> bool {
        self.rung == other.rung
            && self.backend == other.backend
            && self.search == other.search
            && self.gather_rounds == other.gather_rounds
            && self.status_bytes == other.status_bytes
            && self.retry_bytes == other.retry_bytes
            && self.stale_dropped == other.stale_dropped
            && self.shed == other.shed
            && self.trace == other.trace
    }
}

/// The server's reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// One value per query variable.
    pub binding: Binding,
    /// Fitness score of each bound value (same order as `binding`;
    /// `f64::INFINITY` when the variable's placement is unconstrained).
    /// Clients may use these to judge recommendation quality (§5.3's
    /// "its fitness is evaluated after receiving a response").
    pub binding_scores: Vec<f64>,
    /// Modelled time from query receipt to reply.
    pub response_time: SimDuration,
    /// Whether candidate pools were sampled down.
    pub sampled: bool,
    /// Status servers interrogated.
    pub interrogated: usize,
    /// Status servers that did not answer (after retries).
    pub missing: usize,
    /// Freshness score of the snapshot that produced this answer
    /// (1 = every host reported fresh data, 0 = nothing usable).
    pub freshness: f64,
    /// Structured provenance: rung, backend, search effort, gather
    /// rounds and cost, stale-host list, and the per-phase span tree.
    pub provenance: Provenance,
}

/// Why a query failed.
#[derive(Debug)]
pub enum ServerError {
    /// The query text did not parse or resolve.
    Language(LangError),
    /// Exhaustive evaluation failed.
    Exhaustive(ExhaustiveError),
    /// Packet-level search failed.
    PktSearch(PktSearchError),
    /// A `PacketLevel` query arrived but no mirror topology is configured.
    MirrorMissing,
    /// A variable has an empty candidate pool: no binding can exist.
    EmptyCandidates {
        /// Name of the offending variable.
        var: String,
    },
    /// The serving plane refused admission: the tenant's bounded queue is
    /// full (or the plane's backlog exceeds its admission bound). The
    /// query was **not** evaluated; retry no earlier than `retry_after`
    /// from the rejected arrival time.
    Overloaded {
        /// Backpressure hint: how long the tenant should wait before
        /// resubmitting.
        retry_after: SimDuration,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Language(e) => write!(f, "query error: {e}"),
            ServerError::Exhaustive(e) => write!(f, "exhaustive evaluation failed: {e}"),
            ServerError::PktSearch(e) => write!(f, "packet-level search failed: {e}"),
            ServerError::MirrorMissing => {
                write!(f, "packet-level method requires a mirror topology")
            }
            ServerError::EmptyCandidates { var } => {
                write!(f, "variable '{var}' has an empty candidate pool")
            }
            ServerError::Overloaded { retry_after } => write!(
                f,
                "serving plane overloaded; retry after {:.1} ms",
                retry_after.as_millis_f64()
            ),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<LangError> for ServerError {
    fn from(e: LangError) -> Self {
        ServerError::Language(e)
    }
}

/// Handles to the server's own registered metrics.
#[derive(Clone, Copy, Debug)]
struct ServerMetricIds {
    queries: CounterId,
    rung_full: CounterId,
    rung_fresh_subset: CounterId,
    rung_assume_busy: CounterId,
    gather_rounds: HistogramId,
    freshness: HistogramId,
    delta_components_rerated: CounterId,
    delta_components_reused: CounterId,
    delta_flows_moved: CounterId,
    delta_undo_depth: HistogramId,
    shed: CounterId,
    cache_hit: CounterId,
    cache_miss: CounterId,
    cache_l1_hit: CounterId,
    cache_l2_hit: CounterId,
    cache_stale_hit: CounterId,
    cache_entries: GaugeId,
    cache_bytes: GaugeId,
}

impl ServerMetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        ServerMetricIds {
            queries: reg.counter("server.queries_answered"),
            rung_full: reg.counter("server.rung_full"),
            rung_fresh_subset: reg.counter("server.rung_fresh_subset"),
            rung_assume_busy: reg.counter("server.rung_assume_busy"),
            gather_rounds: reg.histogram("server.gather_rounds", &[1.0, 2.0, 3.0, 4.0]),
            freshness: reg.histogram("server.freshness", &[0.25, 0.5, 0.75, 1.0]),
            delta_components_rerated: reg.counter("estimator.delta.components_rerated"),
            delta_components_reused: reg.counter("estimator.delta.components_reused"),
            delta_flows_moved: reg.counter("estimator.delta.flows_moved"),
            delta_undo_depth: reg
                .histogram("estimator.delta.undo_depth", &[1.0, 2.0, 4.0, 8.0, 16.0]),
            shed: reg.counter("server.shed"),
            cache_hit: reg.counter("cache.hit"),
            cache_miss: reg.counter("cache.miss"),
            cache_l1_hit: reg.counter("cache.l1_hit"),
            cache_l2_hit: reg.counter("cache.l2_hit"),
            cache_stale_hit: reg.counter("cache.stale_hit"),
            cache_entries: reg.gauge("cache.entries"),
            cache_bytes: reg.gauge("cache.bytes"),
        }
    }
}

/// The evaluation core shared by the single-server front-end and the
/// multi-tenant serving plane ([`crate::serving`]): configuration,
/// metrics, overhead accounting, and the reusable search workspace. It
/// answers problems against snapshots — reading the caller's [`Holds`]
/// into the reservation mask and recording the answer into them — while
/// *who* gathers snapshots, samples pools, supplies RNG streams, and keeps
/// the [`Reservations`] is the front-end's concern: the serving plane runs
/// one core per worker with per-query RNG streams and per-tenant holds
/// over a published set, [`CloudTalkServer`] keeps one sequential RNG
/// stream and one set it edits in place.
pub(crate) struct EvalCore {
    cfg: ServerConfig,
    metrics: MetricsRegistry,
    lc: LedgerCounters,
    ids: ServerMetricIds,
    ws: SearchWorkspace,
    /// Heuristic scratch, reused like `ws`.
    hs: HeuristicScratch,
    /// The span arena every answer records into and reports from: reset
    /// per answer, allocated once ([`ObsConfig`] picks its clock; disabled
    /// when tracing is off).
    trace: Trace,
    /// The L1 answer cache ([`crate::qcache`]); only a serving-plane
    /// worker's core reads or fills it.
    qcache: QueryCache,
    /// Monotonic stamp for snapshots gathered by this core. The serving
    /// plane routes every shard refresh through one collector core, so
    /// epochs are unique across shards; the single-server front-end has
    /// one core, so epochs are unique per server.
    snapshot_seq: u64,
}

/// A CloudTalk server instance.
pub struct CloudTalkServer {
    core: EvalCore,
    reservations: Reservations,
    rng: DetRng,
}

/// The holds one answer is evaluated under (§5.5): both sets are read
/// into the query's reservation mask, and the answer's addresses are
/// recorded into `own` when `record` is set. Ignored entirely when
/// [`ServerConfig::reservation_hold`] is `None`.
pub(crate) struct Holds<'a> {
    /// Holds published by others (the serving plane's prior-wave ledger).
    pub(crate) published: &'a Reservations,
    /// The caller's own holds: the server's one set, or a tenant's
    /// same-wave set.
    pub(crate) own: &'a mut Reservations,
    /// Whether the answer is a recommendation the client will act on.
    pub(crate) record: bool,
}

impl EvalCore {
    /// Creates a core with its own metrics registry.
    pub(crate) fn new(cfg: ServerConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        let lc = LedgerCounters::register(&mut metrics);
        let ids = ServerMetricIds::register(&mut metrics);
        let qcache = QueryCache::new(cfg.cache);
        let trace = match (cfg.obs.tracing, cfg.obs.host_timer) {
            (false, _) => Trace::disabled(),
            (true, false) => Trace::deterministic(SPAN_CAPACITY),
            (true, true) => Trace::timed(SPAN_CAPACITY),
        };
        EvalCore {
            cfg,
            metrics,
            lc,
            ids,
            ws: SearchWorkspace::new(),
            hs: HeuristicScratch::new(),
            trace,
            qcache,
            snapshot_seq: 0,
        }
    }

    /// Drains L1 entries inserted since the last call, for the serving
    /// plane's L2 publish step.
    pub(crate) fn cache_take_fresh(&mut self) -> Vec<crate::qcache::Entry> {
        self.qcache.take_fresh()
    }

    /// The core's configuration.
    pub(crate) fn cfg(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The core's metrics registry.
    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cumulative overhead ledger reconstructed from the registry.
    pub(crate) fn ledger(&self) -> OverheadLedger {
        self.lc.ledger(&self.metrics)
    }
}

impl CloudTalkServer {
    /// Creates a server.
    pub fn new(cfg: ServerConfig) -> Self {
        let rng = stream_rng(cfg.seed, 0xC10D);
        CloudTalkServer {
            reservations: Reservations::new(),
            rng,
            core: EvalCore::new(cfg),
        }
    }

    /// Cumulative network-overhead ledger (§5.5 accounting), reconstructed
    /// from the server's metrics registry.
    pub fn ledger(&self) -> OverheadLedger {
        self.core.ledger()
    }

    /// The server's metrics registry: overhead counters (`overhead.*`),
    /// query/rung counters and gather histograms (`server.*`). Feed it to
    /// [`obs::metrics_dump`] for a flat export.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.core.metrics()
    }

    /// Queries answered so far.
    pub fn queries_answered(&self) -> u64 {
        self.core.metrics.counter_value(self.core.ids.queries)
    }

    /// Answers a textual CloudTalk query at simulated time `now`.
    pub fn answer_text(
        &mut self,
        text: &str,
        source: &mut impl StatusSource,
        now: SimTime,
    ) -> Result<Answer, ServerError> {
        let query = parse_query(text)?;
        let problem = resolve(&query, &MapResolver::new())?;
        let mut answer = self.answer_problem(&problem, source, now)?;
        answer.response_time += MODELLED_PARSE_TIME;
        let mut delta = OverheadLedger::default();
        delta.record_client(text.len() as u64, 8 * answer.binding.len() as u64);
        self.core.lc.absorb(&mut self.core.metrics, &delta);
        Ok(answer)
    }

    /// Answers a pre-resolved problem at simulated time `now`, reserving
    /// the recommended machines (when reservations are enabled).
    pub fn answer_problem(
        &mut self,
        problem: &Problem,
        source: &mut impl StatusSource,
        now: SimTime,
    ) -> Result<Answer, ServerError> {
        self.answer_problem_with(problem, source, now, true)
    }

    /// Answers a pre-resolved problem, optionally without reserving.
    ///
    /// Advisory queries whose recommendation the client may *not* act on
    /// (e.g. the per-heartbeat reduce-placement fitness check, where a
    /// task is assigned only if the asking node is among the recommended
    /// set) should pass `reserve = false`: reserving on every heartbeat
    /// would hide the genuinely idle machines from the very next query.
    pub fn answer_problem_with(
        &mut self,
        problem: &Problem,
        source: &mut impl StatusSource,
        now: SimTime,
        reserve: bool,
    ) -> Result<Answer, ServerError> {
        // §4.3 sampling: borrow the problem untouched when every pool fits
        // the budget — the common case pays no clone.
        let budget = self.core.cfg.sample_budget;
        let (working, sampled) = match sample_within_budget(problem, budget, &mut self.rng) {
            Some(p) => (Footprint::shared(p), true),
            None => (Footprint::borrowed(problem), false),
        };
        let snapshot = self.take_snapshot(working.addrs(), source);
        self.reservations.purge(now);
        let holds = Holds {
            published: &Reservations::new(),
            own: &mut self.reservations,
            record: reserve,
        };
        // No L2: the snapshot dies with this call, so the answer is
        // neither looked up nor stored.
        self.core
            .answer_snapshot(&working, &snapshot, now, sampled, holds, false, None)
    }

    /// Gathers status for `addrs` once into an immutable snapshot, as
    /// every answer does for the addresses its problem mentions.
    pub fn take_snapshot(
        &mut self,
        addrs: &[Address],
        source: &mut impl StatusSource,
    ) -> StatusSnapshot {
        let mut snap = StatusSnapshot::unprimed();
        self.core
            .gather_snapshot(&mut snap, addrs, None, source, &mut self.rng);
        snap
    }
}

impl EvalCore {
    /// Folds a status gather of `addrs` into `snap`, charging the gather
    /// traffic to this core's overhead counters (the serving plane runs
    /// one collector core per snapshot shard, so shard refreshes account —
    /// and fail — independently). Every snapshot is built here.
    ///
    /// With `listed` `None` every host is polled into a fresh world. With
    /// `Some`, `snap` is the last gather of the same `addrs` and `listed`
    /// holds the positions in `addrs`, ascending, of the hosts whose
    /// answers may differ from what `snap` holds; the caller vouches
    /// ([`crate::status::ChangeMarks::may_skip`]) that every other host
    /// answers exactly that. Only the listed hosts are polled
    /// ([`scatter_gather_changed`] charges the whole round), the world and
    /// ages are edited copy-on-write, and the snapshot comes out as the
    /// full gather would leave it.
    pub(crate) fn gather_snapshot(
        &mut self,
        snap: &mut StatusSnapshot,
        addrs: &[Address],
        listed: Option<&[usize]>,
        source: &mut impl StatusSource,
        rng: &mut DetRng,
    ) {
        // Every snapshot gets a fresh epoch: the answer cache keys on it,
        // and two gathers are two observations of the fleet.
        self.snapshot_seq += 1;
        snap.epoch = self.snapshot_seq;
        snap.interrogated = addrs.len();
        let picked: Vec<Address>;
        let polled = match listed {
            None => addrs,
            Some(listed) => {
                picked = listed.iter().map(|&i| addrs[i]).collect();
                &picked
            }
        };
        // Account the gather into a local delta first: the snapshot keeps
        // it for per-query provenance, the registry accumulates it into
        // the server-lifetime totals.
        let mut gather = OverheadLedger::default();
        let unpolled = addrs.len() - polled.len();
        let transport = &self.cfg.transport;
        let outcome = scatter_gather_changed(source, polled, unpolled, transport, rng, &mut gather);
        self.lc.absorb(&mut self.metrics, &gather);
        snap.elapsed = outcome.elapsed;
        snap.missing = outcome.missing.len();
        snap.rounds = outcome.rounds;
        snap.gather = gather;
        if listed.is_none() {
            let ages = WordMap::with_capacity_and_hasher(outcome.replies.len(), Default::default());
            renew(&mut snap.world, World::new());
            renew(&mut snap.ages, ages);
        } else if polled.is_empty() {
            // Nothing listed: the world and the ages stand, and so does the
            // freshness (the last gather heard every host in its first
            // round, so it summed these ages in this order).
            return;
        }
        let world = Arc::make_mut(&mut snap.world);
        let ages = Arc::make_mut(&mut snap.ages);
        for &(addr, report) in &outcome.replies {
            world.set(addr, report.state);
            ages.insert(addr, report.age);
        }
        for addr in &outcome.missing {
            world.remove(*addr);
            ages.remove(addr);
        }
        // Freshness sums in the order the replies arrive: first-round
        // replies in address order (an unpolled host answered what the
        // snapshot holds), then each retry's recoveries. Missing hosts
        // contribute 0: a snapshot that never heard from half the fleet is
        // at most half fresh no matter how crisp the other half's reports
        // are.
        let (first, recovered) = outcome
            .replies
            .split_at(polled.len() - outcome.first_round_missing);
        let mut first = first.iter().peekable();
        let mut listed = listed.map(|l| l.iter().peekable());
        let ages = addrs.iter().enumerate().filter_map(|(i, addr)| {
            if listed.as_mut().is_none_or(|l| l.next_if_eq(&&i).is_some()) {
                // None: the host missed the first round.
                first
                    .next_if(|(a, _)| a == addr)
                    .map(|(_, report)| report.age)
            } else {
                Some(snap.ages[addr])
            }
        });
        let recovered = recovered.iter().map(|(_, report)| report.age);
        let decay = |sum, age| sum + self.cfg.degradation.decay(age);
        let decay_sum = ages.chain(recovered).fold(0.0, decay);
        snap.freshness = if addrs.is_empty() {
            1.0
        } else {
            decay_sum / addrs.len() as f64
        };
    }
}

/// Replaces `shared`'s value with `fresh`, in place when nothing else
/// holds it.
fn renew<T>(shared: &mut Arc<T>, fresh: T) {
    match Arc::get_mut(shared) {
        Some(value) => *value = fresh,
        None => *shared = Arc::new(fresh),
    }
}

impl EvalCore {
    /// Evaluation + reservation + answer assembly against a snapshot.
    /// Assumes sampling already happened. `holds` is the caller's view of
    /// which hosts are currently held, and where the answer's addresses
    /// are recorded; with [`ServerConfig::reservation_hold`] `None` (the
    /// "Osc" configuration) it is neither read nor written.
    ///
    /// This is where the graceful-degradation ladder engages: the
    /// snapshot's freshness score picks a rung, and the rung picks both
    /// the data (full world / fresh subset / nothing) and the backend
    /// (configured method / heuristic) the answer comes from. `shed`
    /// additionally forces the heuristic backend (serving-plane load
    /// shedding) without touching the rung's data selection.
    ///
    /// `shared` is the serving plane's L2 answer cache, `Some` exactly
    /// when a plane worker with the cache on calls: only then is the
    /// answer keyed — looked up in this core's L1, then in the L2, and on
    /// a miss stored in the L1 and queued for the plane's publish step.
    /// With `None` (every [`CloudTalkServer`] answer) the cache is not
    /// touched. On a hit the search phase is skipped and the cached
    /// (backend, stats, binding, scores) tuple is replayed through the
    /// identical trace/assembly path — the returned answer is
    /// bit-identical to what the search would have produced, because the
    /// cache key pins every input the search reads (see
    /// [`crate::qcache`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn answer_snapshot(
        &mut self,
        fp: &Footprint<'_>,
        snapshot: &StatusSnapshot,
        now: SimTime,
        sampled: bool,
        holds: Holds<'_>,
        shed: bool,
        shared: Option<&Tier>,
    ) -> Result<Answer, ServerError> {
        let working = fp.problem();
        // A variable with an empty candidate pool can never be bound; fail
        // with a typed error instead of panicking deep in the evaluator.
        if let Some(v) = working.vars.iter().find(|v| v.candidates.is_empty()) {
            return Err(ServerError::EmptyCandidates {
                var: v.name.to_string(),
            });
        }

        let rung = self.cfg.degradation.rung_for(snapshot.freshness);

        // The query's span tree. With the default NullClock all host
        // timestamps are zero and the trace — like the whole answer — is
        // deterministic; sim timestamps reconstruct the modelled timeline
        // (the gather already happened when the snapshot was taken, so the
        // collect span is synthesised from the snapshot's metadata). The
        // core's one arena is reset per answer; with a host timer its
        // readings count from the core's creation, not the query's.
        self.trace.reset();
        let root = self.trace.begin("answer", now);
        let t_collected = now + snapshot.elapsed;
        let collect = self.trace.begin("collect", now);
        self.trace
            .set_arg(collect, "rounds", u64::from(snapshot.rounds));
        self.trace.end(collect, t_collected);

        let sanitise = self.trace.begin("sanitise", t_collected);
        // Hosts whose report exists but is too old to trust — the set the
        // FreshSubset rung excludes, sorted by address. Reported in the
        // provenance so callers can see exactly *which* hosts the answer
        // distrusted.
        let stale_dropped: Vec<Address> = if rung == DegradationRung::FreshSubset {
            let max_age = self.cfg.degradation.fresh_max_age;
            let stale = |a: &Address| matches!(snapshot.report_age(*a), Some(age) if age > max_age);
            fp.sorted().iter().copied().filter(stale).collect()
        } else {
            Vec::new()
        };
        self.trace
            .set_arg(sanitise, "stale_dropped", stale_dropped.len() as u64);
        self.trace.end(sanitise, t_collected);

        // Degraded rungs always use the heuristic: it is total (returns a
        // complete binding for any world), while the exhaustive and
        // packet-level backends can report `NoFeasibleBinding` when
        // pessimistic data stalls every candidate — precisely the
        // situation degraded rungs are in. Load shedding forces the same
        // choice for a different reason: under backlog pressure the
        // heuristic's O(max(m, n·p)) bound protects tail latency.
        let method = match rung {
            DegradationRung::Full if !shed => self.cfg.method,
            _ => EvalMethod::Heuristic,
        };
        let space = working
            .vars
            .iter()
            .fold(1u64, |acc, v| acc.saturating_mul(v.candidates.len() as u64));

        // The reservation mask: the footprint's addresses the caller's
        // holds cover at `now`, ascending. The holds are read here and
        // nowhere else — the search overlays exactly this mask, so the
        // mask (plus the snapshot epoch, rung, shed flag, and backend
        // config) pins every input the search depends on, which is what
        // makes it a sound cache key. The key stores the *configured*
        // method: rung + shed determine the effective one.
        let hold = self.cfg.reservation_hold;
        let held =
            |a: &Address| holds.own.is_reserved(*a, now) || holds.published.is_reserved(*a, now);
        let mask: Vec<Address> = match hold {
            Some(_) => fp.sorted().iter().copied().filter(held).collect(),
            None => Vec::new(),
        };
        // Only a plane worker passes an L2, and only its answers are keyed.
        let keyed = shared.map(|l2| {
            let key = KeyParts::new(fp, snapshot.epoch(), &mask, rung, shed, self.cfg.method);
            (l2, key)
        });
        let cached = match &keyed {
            Some((l2, key)) => match self.qcache.lookup(key) {
                Some(v) => {
                    self.metrics.inc(self.ids.cache_l1_hit, 1);
                    Some(v)
                }
                None => l2.lookup(key).inspect(|_| {
                    self.metrics.inc(self.ids.cache_l2_hit, 1);
                }),
            },
            None => None,
        };
        let cache_hit = cached.is_some();

        let search_span = self.trace.begin("search", t_collected);
        let t_evaluated = t_collected + MODELLED_EVAL_TIME;
        let (backend, search, binding, binding_scores) = if let Some(v) = cached {
            // Replay. The audit counter must stay zero: the epoch is in
            // the key, so a mismatching entry cannot have matched.
            self.metrics.inc(self.ids.cache_hit, 1);
            if v.epoch != snapshot.epoch() {
                self.metrics.inc(self.ids.cache_stale_hit, 1);
            }
            (v.backend, v.search, v.binding.clone(), v.binding_scores.clone())
        } else {
            if keyed.is_some() {
                self.metrics.inc(self.ids.cache_miss, 1);
            }
            let (backend, search, binding, binding_scores) =
                self.run_search(fp, snapshot, &mask, rung, method, space)?;
            if let Some((_, key)) = &keyed {
                self.qcache.insert(
                    key,
                    Arc::new(CachedSearch {
                        backend,
                        search,
                        binding: binding.clone(),
                        binding_scores: binding_scores.clone(),
                        epoch: snapshot.epoch(),
                    }),
                );
                #[allow(clippy::cast_precision_loss)]
                {
                    self.metrics
                        .gauge_set(self.ids.cache_entries, self.qcache.len() as f64);
                    self.metrics
                        .gauge_set(self.ids.cache_bytes, self.qcache.bytes() as f64);
                }
            }
            (backend, search, binding, binding_scores)
        };
        self.trace
            .set_arg(search_span, "enumerated", search.enumerated);
        if backend == Backend::Exhaustive {
            self.trace
                .set_arg(search_span, "pruned_ties", search.pruned_ties);
        }
        self.trace.end(search_span, t_evaluated);

        // Bind: the recommended machines count as in use from `now` for
        // the hold time, in the caller's own holds.
        let bind = self.trace.begin("bind", t_evaluated);
        if let (Some(hold), true) = (hold, holds.record) {
            for v in &binding {
                if let Value::Addr(a) = v {
                    holds.own.reserve(*a, now + hold);
                }
            }
        }
        self.trace.end(bind, t_evaluated);
        self.trace.end(root, t_evaluated);

        self.metrics.inc(self.ids.queries, 1);
        let rung_counter = match rung {
            DegradationRung::Full => self.ids.rung_full,
            DegradationRung::FreshSubset => self.ids.rung_fresh_subset,
            DegradationRung::AssumeBusy => self.ids.rung_assume_busy,
        };
        self.metrics.inc(rung_counter, 1);
        if shed {
            self.metrics.inc(self.ids.shed, 1);
        }
        if snapshot.rounds > 0 {
            self.metrics
                .observe(self.ids.gather_rounds, f64::from(snapshot.rounds));
        }
        self.metrics.observe(self.ids.freshness, snapshot.freshness);
        // The delta counters meter *executed* evaluator work; a replayed
        // answer carries the stats in its provenance but re-ran nothing,
        // so it must not inflate them.
        if !cache_hit && (search.delta_components_rerated > 0 || search.delta_flows_moved > 0) {
            self.metrics.inc(
                self.ids.delta_components_rerated,
                search.delta_components_rerated,
            );
            self.metrics.inc(
                self.ids.delta_components_reused,
                search.delta_components_reused,
            );
            self.metrics
                .inc(self.ids.delta_flows_moved, search.delta_flows_moved);
            #[allow(clippy::cast_precision_loss)]
            self.metrics.observe(
                self.ids.delta_undo_depth,
                search.delta_max_undo_depth as f64,
            );
        }

        Ok(Answer {
            binding,
            binding_scores,
            response_time: snapshot.elapsed + MODELLED_EVAL_TIME,
            sampled,
            interrogated: snapshot.interrogated,
            missing: snapshot.missing,
            freshness: snapshot.freshness,
            provenance: Provenance {
                rung,
                backend,
                search,
                gather_rounds: snapshot.rounds,
                status_bytes: snapshot.gather.status_bytes(),
                retry_bytes: snapshot.gather.retry_bytes(),
                stale_dropped,
                shed,
                cache_hit,
                // A copy sized to the spans recorded, not to the arena.
                trace: self.trace.report(),
            },
        })
    }

    /// The search phase of [`EvalCore::answer_snapshot`]: builds the
    /// rung's world view, overlays reservations, and runs the effective
    /// backend. This is exactly the work an answer-cache hit skips.
    fn run_search(
        &mut self,
        fp: &Footprint<'_>,
        snapshot: &StatusSnapshot,
        mask: &[Address],
        rung: DegradationRung,
        method: EvalMethod,
        space: u64,
    ) -> Result<(Backend, SearchStats, Binding, Vec<f64>), ServerError> {
        let working = fp.problem();
        // The world the chosen rung evaluates against. `base` owns the
        // degraded copies; `Full` keeps borrowing the shared snapshot.
        let base: Option<World> = match rung {
            DegradationRung::Full => None,
            DegradationRung::FreshSubset => {
                Some(snapshot.fresh_world(self.cfg.degradation.fresh_max_age))
            }
            // Static fallback: no data is trusted, every host is assumed
            // busy (an empty world answers every lookup pessimistically).
            DegradationRung::AssumeBusy => Some(World::new()),
        };
        let base: &World = base.as_ref().unwrap_or(&snapshot.world);
        // Overlay reservations: recently recommended machines count as
        // busy. Copy-on-write — the shared snapshot world is only cloned
        // when a mentioned address actually holds a reservation.
        let overlaid = overlay_reserved(base, mask);
        let world: &World = overlaid.as_ref().unwrap_or(base);
        Ok(match method {
            EvalMethod::Heuristic => {
                let (b, s) =
                    evaluate_query_scored_in(working, world, &self.cfg.heuristic, &mut self.hs);
                let enumerated = working
                    .vars
                    .iter()
                    .map(|v| v.candidates.len() as u64)
                    .sum();
                let stats = SearchStats {
                    space,
                    enumerated,
                    ..SearchStats::default()
                };
                (Backend::Heuristic, stats, b, s)
            }
            EvalMethod::Exhaustive { limit } => {
                // Delta re-rates only the components a candidate moved and
                // is bit-identical to Scratch: same answer, less CPU.
                let opts = SearchOptions::new(limit).eval(EvalStrategy::Delta);
                // Reuse this core's workspace: back-to-back searches (a
                // serving-plane worker's steady state) are allocation-free.
                let mut r = ExhaustiveResult::default();
                exhaustive_search_in(working, world, &opts, &mut self.ws, &mut r)
                    .map_err(ServerError::Exhaustive)?;
                let stats = SearchStats {
                    space,
                    enumerated: r.evaluated,
                    pruned: r.pruned_subtrees,
                    pruned_ties: r.pruned_ties,
                    delta_components_rerated: r.delta.components_rerated,
                    delta_components_reused: r.delta.components_reused,
                    delta_flows_moved: r.delta.flows_moved,
                    delta_max_undo_depth: r.delta.max_undo_depth,
                    ..SearchStats::default()
                };
                let n = r.binding.len();
                (Backend::Exhaustive, stats, r.binding, vec![f64::INFINITY; n])
            }
            EvalMethod::PacketLevel { limit } => {
                let mirror = self
                    .cfg
                    .pkt
                    .mirror
                    .clone()
                    .ok_or(ServerError::MirrorMissing)?;
                let opts = PktSearchOptions::new(limit)
                    .threads(self.cfg.pkt.threads)
                    .sim(self.cfg.pkt.sim);
                let r = pkt_search(working, &mirror, &opts).map_err(ServerError::PktSearch)?;
                let mut delta = OverheadLedger::default();
                delta.record_pkt_memo(r.memo_hits, r.memo_misses);
                self.lc.absorb(&mut self.metrics, &delta);
                let stats = SearchStats {
                    space,
                    enumerated: r.evaluated,
                    pruned: 0,
                    aborted: r.aborted,
                    memo_hits: r.memo_hits,
                    memo_misses: r.memo_misses,
                    ..SearchStats::default()
                };
                let n = r.binding.len();
                (
                    Backend::PacketLevel,
                    stats,
                    r.binding,
                    vec![f64::INFINITY; n],
                )
            }
        })
    }
}

/// Returns a world with reservation penalties applied to every address of
/// the reservation mask, or `None` when the mask is empty (callers keep
/// using the shared snapshot world unchanged — no clone).
fn overlay_reserved(world: &World, mask: &[Address]) -> Option<World> {
    if mask.is_empty() {
        return None;
    }
    let mut out = world.clone();
    for &addr in mask {
        let mut s = out.get(addr);
        // Recommended machines are treated as in use until real
        // feedback catches up. The penalty is *additive* (a full
        // capacity's worth of extra usage) rather than saturating:
        // every reserved machine ranks below every unreserved one,
        // but among reserved machines the measured load still
        // orders candidates — the paper's "previously considered
        // endpoints, in decreasing order of their evaluated
        // fitness" fallback.
        s.nic_up_used += s.nic_up_capacity;
        s.nic_down_used += s.nic_down_capacity;
        s.disk_read_used += s.disk_read_capacity;
        s.disk_write_used += s.disk_write_capacity;
        out.set(addr, s);
    }
    Some(out)
}

/// §4.3 sampling as a reusable step: shrinks any candidate pool above
/// `budget` (drawing from `rng`) into a new working problem. `None` when
/// every pool already fits — the common case draws nothing and copies
/// nothing.
pub(crate) fn sample_within_budget(
    problem: &Problem,
    budget: usize,
    rng: &mut DetRng,
) -> Option<Problem> {
    let max_pool = problem
        .vars
        .iter()
        .map(|v| v.candidates.len())
        .max()
        .unwrap_or(0);
    (max_pool > budget).then(|| sample_candidates(problem, budget, rng))
}

/// An immutable, cheaply shareable view of gathered status data.
///
/// Produced by [`CloudTalkServer::take_snapshot`] and by the serving
/// plane's shard refreshes; read only inside this crate, by the answer
/// path. The world lives behind an [`Arc`], so `Clone` — one per wave
/// member on the plane — never copies host tables.
#[derive(Clone, Debug)]
pub struct StatusSnapshot {
    world: Arc<World>,
    /// Per-host report age, for hosts that answered.
    ages: Arc<WordMap<Address, SimDuration>>,
    elapsed: SimDuration,
    interrogated: usize,
    missing: usize,
    rounds: u32,
    /// Freshness score in `[0, 1]`: the mean staleness decay over every
    /// interrogated host, missing hosts counting 0. Picks the rung.
    freshness: f64,
    /// Accounting delta of the gather that produced this snapshot (zeroed
    /// for static snapshots). Feeds per-answer provenance bytes.
    gather: OverheadLedger,
    /// Core-unique stamp of the gather that produced this snapshot. The
    /// answer cache keys on it: a refreshed shard is a new epoch, so
    /// entries computed against the old data can never match again —
    /// epoch-driven invalidation, no TTLs.
    epoch: u64,
}

impl StatusSnapshot {
    /// A static snapshot of no hosts, for a first gather to fold into.
    pub(crate) fn unprimed() -> Self {
        StatusSnapshot {
            world: Arc::default(),
            ages: Arc::default(),
            elapsed: SimDuration::ZERO,
            interrogated: 0,
            missing: 0,
            rounds: 0,
            freshness: 1.0,
            gather: OverheadLedger::default(),
            epoch: 0,
        }
    }

    /// Whether this gather of `n` hosts heard every one of them in its
    /// first round (a static snapshot ran no round).
    pub(crate) fn heard_from_all(&self, n: usize) -> bool {
        self.rounds == 1 && self.missing == 0 && self.interrogated == n
    }

    /// Time the gather took (all rounds and backoffs).
    pub(crate) fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Scatter-gather rounds spent gathering (0 for static snapshots).
    pub(crate) fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The overhead-accounting delta of the gather behind this snapshot:
    /// first-round and retry traffic, separately. Zero for static
    /// snapshots.
    pub(crate) fn gather_ledger(&self) -> OverheadLedger {
        self.gather
    }

    /// The age of `addr`'s report, if it answered.
    pub(crate) fn report_age(&self, addr: Address) -> Option<SimDuration> {
        if self.ages.is_empty() && self.world.knows(addr) {
            return Some(SimDuration::ZERO); // static snapshot
        }
        self.ages.get(&addr).copied()
    }

    /// The snapshot's epoch: a stamp unique per gathering core,
    /// incremented on every gather. Two snapshots with equal epochs are
    /// the same gather (`Arc`-shared clones); a refresh always moves it.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The world restricted to hosts whose report is at most `max_age`
    /// old — what the [`DegradationRung::FreshSubset`] rung evaluates
    /// against. Excluded hosts fall back to the assumed-overloaded state
    /// on lookup.
    pub(crate) fn fresh_world(&self, max_age: SimDuration) -> World {
        let mut out = World::new();
        for (&addr, &state) in self.world.iter() {
            let age = self
                .ages
                .get(&addr)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            if age <= max_age {
                out.set(addr, state);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TableStatusSource;
    use cloudtalk_lang::builder::hdfs_write_query;
    use estimator::HostState;

    fn idle_source(n: u32) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for i in 1..=n {
            s.set(Address(i), HostState::gbps_idle());
        }
        s
    }

    const NET: u32 = 0x0A00_0000; // the 10.0.0.0/8 the query text uses

    /// What `answer_problem_with` does after its gather: `p` answered
    /// against `snapshot` under the server's own holds, with no L2.
    fn answer_held(
        server: &mut CloudTalkServer,
        p: &Problem,
        snapshot: &StatusSnapshot,
        now: SimTime,
        reserve: bool,
    ) -> Result<Answer, ServerError> {
        let holds = Holds {
            published: &Reservations::new(),
            own: &mut server.reservations,
            record: reserve,
        };
        let fp = Footprint::borrowed(p);
        server
            .core
            .answer_snapshot(&fp, snapshot, now, false, holds, false, None)
    }

    #[test]
    fn doc_example_avoids_busy_replica() {
        let mut status = TableStatusSource::new();
        status.set(Address(NET + 2), HostState::gbps_idle());
        status.set(Address(NET + 3), HostState::gbps_idle().with_up_load(0.9));
        status.set(Address(NET + 4), HostState::gbps_idle());
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let a = server
            .answer_text(
                "src = (10.0.0.2 10.0.0.3 10.0.0.4)\nf1 src -> 10.0.0.1 size 256M",
                &mut status,
                SimTime::ZERO,
            )
            .unwrap();
        assert_ne!(a.binding[0], Value::Addr(Address(NET + 3)));
        assert!(
            matches!(a.binding[0], Value::Addr(Address(x)) if x == NET + 2 || x == NET + 4),
            "{:?}",
            a.binding
        );
        assert!(!a.sampled);
        assert!(a.response_time >= MODELLED_PARSE_TIME + MODELLED_EVAL_TIME);
        assert_eq!(server.queries_answered(), 1);
        assert!(server.ledger().total_bytes() > 0);
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let err = server
            .answer_text("f1 -> nonsense", &mut idle_source(2), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ServerError::Language(_)));
    }

    #[test]
    fn reservations_steer_consecutive_queries_apart() {
        // Two identical write queries in quick succession must not pick the
        // same replicas when alternatives exist.
        let nodes: Vec<Address> = (2..12).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut src = idle_source(12);
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let a1 = server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
        let a2 = server
            .answer_problem(&p, &mut src, SimTime::from_secs_f64(0.01))
            .unwrap();
        let s1: std::collections::HashSet<&Value> = a1.binding.iter().collect();
        let overlap = a2.binding.iter().filter(|v| s1.contains(v)).count();
        assert_eq!(overlap, 0, "reserved hosts reused: {:?} vs {:?}", a1.binding, a2.binding);
    }

    #[test]
    fn without_reservations_queries_pile_up() {
        let nodes: Vec<Address> = (2..12).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut src = idle_source(12);
        let cfg = ServerConfig {
            reservation_hold: None,
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a1 = server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
        let a2 = server
            .answer_problem(&p, &mut src, SimTime::from_secs_f64(0.01))
            .unwrap();
        assert_eq!(a1.binding, a2.binding, "identical idle world, same answer");
    }

    #[test]
    fn reservations_expire() {
        let nodes: Vec<Address> = (2..12).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut src = idle_source(12);
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let a1 = server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
        // 1 second later (> 300 ms), the original choice is available again.
        let a2 = server
            .answer_problem(&p, &mut src, SimTime::from_secs_f64(1.0))
            .unwrap();
        assert_eq!(a1.binding, a2.binding);
    }

    #[test]
    fn server_and_one_tenant_plane_record_the_same_holds() {
        use crate::aggregate::FleetLayout;
        use crate::serving::{ServingConfig, ServingPlane, TenantId};
        // Three writes over one pool at one wave-close instant against the
        // same status data: the server answers them one by one, the plane
        // as one tenant's wave. Both run the one bind step, so they
        // recommend the same machines — nine, the tenant's same-wave holds
        // steering its answers apart — and hold them until the same
        // instants.
        let addrs: Vec<Address> = (1..=12).map(Address).collect();
        let p = hdfs_write_query(Address(1), &addrs[1..], 3, 1e6)
            .resolve()
            .unwrap();
        let t_wave = SimTime::ZERO + SimDuration::from_millis(5);

        let mut server = CloudTalkServer::new(ServerConfig::default());
        let mut src = idle_source(12);
        let direct: Vec<Binding> = (0..3)
            .map(|_| server.answer_problem(&p, &mut src, t_wave).unwrap().binding)
            .collect();

        let cfg = ServingConfig::default();
        assert_eq!(SimTime::ZERO + cfg.wave_quantum, t_wave);
        let mut plane = ServingPlane::new(cfg, FleetLayout::uniform(&addrs, 4), idle_source(12));
        for _ in 0..3 {
            plane.submit(TenantId(0), p.clone(), SimTime::ZERO).unwrap();
        }
        let waved: Vec<Binding> = plane
            .run_until(t_wave)
            .into_iter()
            .map(|c| c.result.unwrap().binding)
            .collect();

        assert_eq!(direct, waved);
        assert_eq!(server.reservations, *plane.ledger_version());
        assert_eq!(server.reservations.len(), 9, "three disjoint replica sets");
    }

    #[test]
    fn batch_reservations_steer_queries_apart() {
        // Identical queries answered against one gathered snapshot at one
        // instant must still fan out across different idle machines.
        let nodes: Vec<Address> = (2..12).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let snapshot = server.take_snapshot(&p.mentioned_addresses(), &mut idle_source(12));
        let a1 = answer_held(&mut server, &p, &snapshot, SimTime::ZERO, true).unwrap();
        let a2 = answer_held(&mut server, &p, &snapshot, SimTime::ZERO, true).unwrap();
        let s1: std::collections::HashSet<&Value> = a1.binding.iter().collect();
        let overlap = a2.binding.iter().filter(|v| s1.contains(v)).count();
        assert_eq!(overlap, 0, "{:?} vs {:?}", a1.binding, a2.binding);
    }

    #[test]
    fn sampling_activates_above_budget() {
        let nodes: Vec<Address> = (2..502).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut src = idle_source(502);
        let cfg = ServerConfig {
            sample_budget: 19,
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a = server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
        assert!(a.sampled);
        // 19 sampled candidates + the fixed client address.
        assert!(a.interrogated <= 20, "interrogated {}", a.interrogated);
    }

    #[test]
    fn a_pool_of_colliding_addresses_answers_within_the_sample_budget() {
        use std::hash::BuildHasher;
        // The address hash is not keyed, so a tenant can name hosts that
        // agree in the low 16 bits of it and start in one bucket of any
        // table up to 65 536 wide. The tables built from a query's
        // addresses hold the sample budget at most, so all that buys is a
        // slower probe of a few dozen entries: the answer is the same as
        // over well-spread addresses.
        let hasher = cloudtalk_lang::BuildWordHasher::default();
        let low16 = |a: &Address| hasher.hash_one(a) & 0xFFFF;
        let colliding: Vec<Address> = (2u32..)
            .map(Address)
            .filter(|a| low16(a) == low16(&Address(2)))
            .take(100)
            .collect();
        let spread: Vec<Address> = (2..102).map(Address).collect();

        let answer = |nodes: &[Address]| {
            let world = World::uniform(nodes, HostState::gbps_idle());
            assert!(nodes.iter().all(|&a| world.knows(a)));
            assert!(!world.knows(Address(1)));
            let mut src = TableStatusSource::new();
            for (i, &a) in nodes.iter().enumerate() {
                src.set(a, HostState::gbps_idle().with_up_load(0.1 * (i % 7) as f64));
            }
            src.set(Address(1), HostState::gbps_idle());
            let p = hdfs_write_query(Address(1), nodes, 3, 1e6)
                .resolve()
                .unwrap();
            let cfg = ServerConfig {
                sample_budget: 30,
                ..Default::default()
            };
            let a = CloudTalkServer::new(cfg)
                .answer_problem(&p, &mut src, SimTime::ZERO)
                .unwrap();
            assert!(a.sampled);
            assert!(a.interrogated <= 31, "interrogated {}", a.interrogated);
            // Positions in the pool, so the two fleets compare.
            let at = |v: &Value| nodes.iter().position(|&n| Value::Addr(n) == *v);
            let positions: Vec<_> = a.binding.iter().map(at).collect();
            (positions, a.binding_scores)
        };
        assert_eq!(answer(&colliding), answer(&spread));
    }

    #[test]
    fn snapshot_answers_match_direct_path() {
        // A lossless local transport over a fleet that all answers removes
        // transport randomness, so the direct and snapshot paths must agree
        // exactly.
        let nodes: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let cfg = ServerConfig {
            transport: TransportConfig::local(),
            ..Default::default()
        };
        let mut status = idle_source(8);

        let mut direct = CloudTalkServer::new(cfg.clone());
        let a = direct.answer_problem(&p, &mut status, SimTime::ZERO).unwrap();

        let mut snap_server = CloudTalkServer::new(cfg);
        let snapshot = snap_server.take_snapshot(&p.mentioned_addresses(), &mut status);
        let b = answer_held(&mut snap_server, &p, &snapshot, SimTime::ZERO, true).unwrap();
        assert_eq!(a, b);
        assert_eq!(snap_server.queries_answered(), 1);
        assert_eq!(snap_server.reservations, direct.reservations);
    }

    #[test]
    fn a_warm_answer_allocates_per_query_not_per_candidate() {
        use cloudtalk_lang::builder::reduce_placement_query;
        // A whole answer through the evaluation core, pools unsampled.
        // What it allocates besides the heuristic kernel's binding and
        // scores — the footprint's address lists, the trace report — is a
        // handful of buffers, a few more when a longer address list
        // doubles its way up, never something per candidate.
        let nodes = |p: u32| -> Vec<Address> { (2..2 + p).map(Address).collect() };
        let shapes = [
            (3, 20, hdfs_write_query(Address(1), &nodes(20), 3, 1e6)),
            (3, 300, hdfs_write_query(Address(1), &nodes(300), 3, 1e6)),
            (12, 300, reduce_placement_query(&nodes(300), 12, 1e6)),
        ];
        let hosts: Vec<Address> = (1..=302).map(Address).collect();
        let mut status = TableStatusSource::new();
        for (i, &a) in hosts.iter().enumerate() {
            status.set(a, HostState::gbps_idle().with_up_load(0.1 * (i % 7) as f64));
        }
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let snapshot = server.take_snapshot(&hosts, &mut status);
        let mut per_shape = Vec::new();
        for (n, p, query) in shapes {
            let problem = query.resolve().unwrap();
            let warm = answer_held(&mut server, &problem, &snapshot, SimTime::ZERO, false);
            let (allocs, _, again) = testkit::allocs_of(|| {
                answer_held(&mut server, &problem, &snapshot, SimTime::ZERO, false)
            });
            assert_eq!(again.unwrap(), warm.unwrap());
            assert!(
                allocs <= 16,
                "n={n} p={p}: {allocs} allocations per answer, 2·n·p = {}",
                2 * n * p
            );
            per_shape.push(allocs);
        }
        // 15× the candidates, 60× the candidate scorings: a few more
        // buffer doublings, not thousands of hash sets.
        assert!(
            per_shape[1] <= per_shape[0] + 8 && per_shape[2] <= per_shape[0] + 8,
            "allocations per answer by shape: {per_shape:?}"
        );
    }

    #[test]
    fn a_cache_miss_fingerprints_the_problem_once() {
        use crate::canon::FINGERPRINT_CALLS;
        // Only a plane worker keys an answer (its miss and its hit each
        // fingerprint once: `serving::tests`). A server's snapshot is
        // gathered for the one answer and is neither keyed nor stored: a
        // thousand identical answers and a thousand distinct ones
        // fingerprint nothing and look nothing up.
        let nodes: Vec<Address> = (2..12).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut src = idle_source(12);
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let fingerprints = || FINGERPRINT_CALLS.with(|c| c.get());
        let before = fingerprints();
        for i in 0..1_000 {
            let same = server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
            assert!(!same.provenance.cache_hit);
            let distinct = hdfs_write_query(Address(1), &nodes, 3, 1e6 + f64::from(i))
                .resolve()
                .unwrap();
            let other = server.answer_problem(&distinct, &mut src, SimTime::ZERO).unwrap();
            assert!(!other.provenance.cache_hit);
        }
        assert_eq!(fingerprints(), before);
        for counter in ["cache.hit", "cache.miss", "cache.l1_hit"] {
            assert_eq!(server.metrics().counter_named(counter), Some(0), "{counter}");
        }
    }

    #[test]
    fn the_single_server_cache_stays_bounded() {
        // Neither door of a server may accumulate: its answers, gathered
        // or against a held snapshot, leave the L1 empty and nothing
        // waiting for an L2.
        let mut src = idle_source(12);
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let snapshot = server.take_snapshot(&(1..12).map(Address).collect::<Vec<_>>(), &mut src);
        let nodes: Vec<Address> = (2..12).map(Address).collect();
        for i in 0..5_000 {
            let p = hdfs_write_query(Address(1), &nodes, 3, 1e6 + f64::from(i))
                .resolve()
                .unwrap();
            server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
            let held = answer_held(&mut server, &p, &snapshot, SimTime::ZERO, false);
            assert!(!held.unwrap().provenance.cache_hit, "problem {i}");
        }
        assert_eq!(server.core.qcache.len(), 0);
        assert!(server.core.cache_take_fresh().is_empty());
    }

    #[test]
    fn empty_candidate_pool_is_a_typed_error() {
        let nodes: Vec<Address> = (2..6).map(Address).collect();
        let mut p = hdfs_write_query(Address(1), &nodes, 2, 1e6).resolve().unwrap();
        for v in &mut p.vars {
            v.candidates.clear();
        }
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let err = server
            .answer_problem(&p, &mut idle_source(6), SimTime::ZERO)
            .unwrap_err();
        assert!(
            matches!(err, ServerError::EmptyCandidates { ref var } if !var.is_empty()),
            "{err}"
        );
        assert_eq!(server.queries_answered(), 0);
    }

    #[test]
    fn healthy_fleet_answers_on_the_full_rung() {
        let nodes: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let a = server
            .answer_problem(&p, &mut idle_source(8), SimTime::ZERO)
            .unwrap();
        assert_eq!(a.provenance.rung, DegradationRung::Full);
        assert_eq!(a.freshness, 1.0);
        assert_eq!(a.provenance.gather_rounds, 1);
        assert_eq!(a.missing, 0);
    }

    #[test]
    fn silent_fleet_degrades_to_assume_busy_but_still_answers() {
        let nodes: Vec<Address> = (2..8).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut server = CloudTalkServer::new(ServerConfig::default());
        // Nobody answers: every poll fails, retries included.
        let mut silent = TableStatusSource::new();
        let a = server.answer_problem(&p, &mut silent, SimTime::ZERO).unwrap();
        assert_eq!(a.provenance.rung, DegradationRung::AssumeBusy);
        assert_eq!(a.freshness, 0.0);
        assert_eq!(a.missing, a.interrogated);
        assert_eq!(a.binding.len(), 3, "fallback still returns a valid binding");
        let retries = ServerConfig::default().transport.retry.max_retries;
        assert_eq!(a.provenance.gather_rounds, 1 + retries, "all retries were spent");
        // The binding only uses declared candidates.
        for v in &a.binding {
            assert!(p.vars.iter().any(|var| var.candidates.contains(v)));
        }
    }

    #[test]
    fn stale_majority_degrades_to_fresh_subset() {
        use crate::faults::FaultPlan;
        use crate::faults::FaultySource;
        // 6 of 11 datanodes serve 5-second-old reports claiming the hosts
        // are busy; the 5 fresh idle ones must win and the rung must say
        // the answer came from the fresh subset.
        let nodes: Vec<Address> = (2..13).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut plan = FaultPlan::none();
        let mut stale_view = estimator::World::new();
        for a in 2..8u32 {
            plan = plan.stale(Address(a), SimDuration::from_secs_f64(5.0));
            stale_view.set(Address(a), HostState::gbps_idle().with_up_load(0.95));
        }
        let mut src =
            FaultySource::new(idle_source(13), plan).with_stale_world(stale_view);
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let a = server.answer_problem(&p, &mut src, SimTime::ZERO).unwrap();
        let rung = a.provenance.rung;
        assert_eq!(rung, DegradationRung::FreshSubset, "freshness {}", a.freshness);
        assert!(a.freshness > 0.2 && a.freshness < 0.7, "freshness {}", a.freshness);
        for v in &a.binding {
            let Value::Addr(addr) = v else { panic!("disk binding") };
            assert!(
                addr.0 >= 8,
                "stale host {addr:?} chosen over fresh idle ones: {:?}",
                a.binding
            );
        }
    }

    fn websearch_mirror(n: usize) -> Arc<MirrorTopology> {
        Arc::new(MirrorTopology::new(simnet::topology::Topology::single_switch(
            n,
            simnet::GBPS,
            simnet::topology::TopoOptions::default(),
        )))
    }

    /// Status source answering for the mirror's 10.0.0.x addresses.
    fn mirror_source(n: u32) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for i in 1..=n {
            s.set(Address(NET + i), HostState::gbps_idle());
        }
        s
    }

    #[test]
    fn packet_level_method_works_end_to_end() {
        // Aggregation onto a free host: 10.0.0.1..3 send to `agg`, which
        // forwards to 10.0.0.8. All candidates are symmetric on a single
        // switch, so the first one wins and the symmetry cache answers
        // the rest.
        let cfg = ServerConfig {
            method: EvalMethod::PacketLevel { limit: 100 },
            pkt: PktBackendConfig {
                mirror: Some(websearch_mirror(8)),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a = server
            .answer_text(
                "agg = (10.0.0.5 10.0.0.6 10.0.0.7)\n\
                 f1 10.0.0.1 -> agg size 100K\n\
                 f2 10.0.0.2 -> agg size 100K\n\
                 f3 10.0.0.3 -> agg size 100K\n\
                 f4 agg -> 10.0.0.8 size 300K transfer t(f1)+t(f2)+t(f3)",
                &mut mirror_source(8),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(a.provenance.rung, DegradationRung::Full);
        assert_eq!(a.binding, vec![Value::Addr(Address(NET + 5))]);
        assert_eq!(server.ledger().pkt_memo_misses, 1);
        assert_eq!(server.ledger().pkt_memo_hits, 2);
    }

    #[test]
    fn packet_level_without_mirror_is_a_typed_error() {
        let cfg = ServerConfig {
            method: EvalMethod::PacketLevel { limit: 100 },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let err = server
            .answer_text(
                "agg = (10.0.0.2 10.0.0.3)\nf1 10.0.0.1 -> agg size 100K",
                &mut mirror_source(4),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::MirrorMissing), "{err}");
    }

    #[test]
    fn packet_level_degrades_to_heuristic_when_status_is_stale() {
        // Silent fleet → AssumeBusy rung → the heuristic answers, even
        // though the configured method is PacketLevel (and even though no
        // mirror is configured at all — degraded rungs never touch it).
        let cfg = ServerConfig {
            method: EvalMethod::PacketLevel { limit: 100 },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let mut silent = TableStatusSource::new();
        let a = server
            .answer_text(
                "agg = (10.0.0.2 10.0.0.3)\nf1 10.0.0.1 -> agg size 100K",
                &mut silent,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(a.provenance.rung, DegradationRung::AssumeBusy);
        assert_eq!(a.binding.len(), 1);
        assert_eq!(server.ledger().pkt_memo_misses, 0, "no simulation ran");
    }

    #[test]
    fn exhaustive_method_works_end_to_end() {
        let mut status = TableStatusSource::new();
        status.set(Address(NET + 2), HostState::gbps_idle().with_up_load(0.9));
        status.set(Address(NET + 3), HostState::gbps_idle());
        status.set(Address(NET + 1), HostState::gbps_idle());
        let cfg = ServerConfig {
            method: EvalMethod::Exhaustive { limit: 100 },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a = server
            .answer_text(
                "src = (10.0.0.2 10.0.0.3)\nf1 src -> 10.0.0.1 size 256M",
                &mut status,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(a.binding, vec![Value::Addr(Address(NET + 3))]);
    }

    #[test]
    fn provenance_carries_backend_counters_and_span_tree() {
        let problem = hdfs_write_query(Address(1), &[Address(2), Address(3), Address(4)], 2, 1e8)
            .resolve()
            .unwrap();
        let mut server = CloudTalkServer::new(ServerConfig::default());
        let a = server
            .answer_problem(&problem, &mut idle_source(4), SimTime::ZERO)
            .unwrap();
        let p = &a.provenance;
        assert_eq!(p.rung, DegradationRung::Full);
        assert_eq!(p.backend, Backend::Heuristic);
        // Two variables over a shared 3-candidate pool.
        assert_eq!(p.search.space, 9);
        assert_eq!(p.search.enumerated, 6, "heuristic enumerates Σ pool sizes");
        assert_eq!(p.search.pruned, 0);
        assert!(p.stale_dropped.is_empty());
        assert_eq!(p.gather_rounds, 1);
        assert!(p.status_bytes > 0);
        assert_eq!(p.retry_bytes, 0);
        // The default (deterministic) trace records the full phase tree,
        // with sim timestamps ordered along the modelled pipeline.
        let names = p.trace.span_names();
        for name in ["answer", "collect", "sanitise", "search", "bind"] {
            assert!(names.contains(&name), "missing span {name:?} in {names:?}");
        }
        let answer = p.trace.span("answer").unwrap();
        let collect = p.trace.span("collect").unwrap();
        let search = p.trace.span("search").unwrap();
        assert_eq!(answer.sim_start, collect.sim_start);
        assert!(collect.sim_end <= search.sim_start);
        assert_eq!(search.sim_end, answer.sim_end);
        // NullClock: host timestamps are identically zero (determinism).
        assert!(p.trace.spans.iter().all(|s| s.host_end_ns == 0));
        // The report is a copy sized to its five spans, not the core's
        // 16-span arena.
        assert_eq!(p.trace.spans.len(), 5);
        assert_eq!(p.trace.spans.capacity(), 5);

        // The metrics registry saw the same query.
        let m = server.metrics();
        assert_eq!(m.counter_named("server.queries_answered"), Some(1));
        assert_eq!(m.counter_named("server.rung_full"), Some(1));
        // The arena is the core's, reset per answer: a second answer
        // reports its own five spans, none of the first's.
        let again = server
            .answer_problem(&problem, &mut idle_source(4), SimTime::ZERO)
            .unwrap();
        assert_eq!(again.provenance.trace.span_names(), names);
        assert_eq!(again.provenance.trace.dropped, 0);
    }

    #[test]
    fn exhaustive_provenance_counts_estimator_calls_and_prunes() {
        let nodes: Vec<Address> = (2..=5).map(Address).collect();
        let problem = hdfs_write_query(Address(1), &nodes, 3, 1e8).resolve().unwrap();
        let cfg = ServerConfig {
            method: EvalMethod::Exhaustive { limit: 100 },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a = server
            .answer_problem(&problem, &mut idle_source(5), SimTime::ZERO)
            .unwrap();
        let p = &a.provenance;
        assert_eq!(p.backend, Backend::Exhaustive);
        assert_eq!(p.search.space, 64, "3 vars × 4 candidates");
        // Distinctness caps the walk at 4·3·2 = 24 estimator calls; the
        // branch-and-bound may cut further, and every cut is accounted.
        assert!(p.search.enumerated >= 1 && p.search.enumerated <= 24);
        assert_eq!(p.search.aborted, 0);
        assert_eq!(p.search.memo_hits, 0);
        // An idle fleet is all ties, and the trace says so: the search
        // span carries the tie cuts next to the leaves evaluated.
        assert!(p.search.pruned_ties > 0, "{:?}", p.search);
        let span = p.trace.span("search").expect("search span");
        assert_eq!(
            span.args,
            [
                Some(("enumerated", p.search.enumerated)),
                Some(("pruned_ties", p.search.pruned_ties))
            ]
        );
    }

    #[test]
    fn tracing_can_be_disabled_leaving_an_empty_trace() {
        let problem = hdfs_write_query(Address(1), &[Address(2), Address(3)], 1, 1e8)
            .resolve()
            .unwrap();
        let cfg = ServerConfig {
            obs: ObsConfig {
                tracing: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut server = CloudTalkServer::new(cfg);
        let a = server
            .answer_problem(&problem, &mut idle_source(3), SimTime::ZERO)
            .unwrap();
        assert!(a.provenance.trace.spans.is_empty(), "tracing off → no spans");
        // Provenance counters are still populated.
        assert_eq!(a.provenance.backend, Backend::Heuristic);
        assert!(a.provenance.search.enumerated > 0);
    }
}
