//! Oracle equivalence for the serving plane's change-driven shard refresh.
//!
//! A `ServingPlane` whose source offers a change view
//! (`StatusSource::drain_changed`) refreshes a shard by polling only the
//! hosts the view listed since the shard's last gather: a clean shard polls
//! none and keeps its world, taking only a new epoch. The reference is the
//! *same plane* over `Opaque`, which hides the view and so forces the full
//! gather of every due shard that the plane ran before. Both are driven
//! side by side with the same seeded churn (`set`, `silence`, a lost
//! reply), host faults (crash windows, stragglers, stale lags), and
//! queries, with one shard above the transport's loss knee, at 1, 2 and 8
//! workers, cache on and off, telemetry on. After every wave everything
//! observable must be bit-identical: the completions (answers with their
//! provenance, timing, worker and shard), `shard_epochs`, `cache_stats`,
//! `telemetry_stats`, and every registry counter and gauge except the two
//! that say how much work a refresh executed,
//! `serving.refresh_hosts_polled` and `serving.refresh_shards_clean`; at
//! the end, the telemetry bundles as well.
//!
//! Lives in the root package so tier-1 `cargo test -q` reaches it.

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::faults::{FaultPlan, FaultySource, Window};
use cloudtalk::serving::{CompletedQuery, ServingConfig, ServingPlane, TelemetryConfig, TenantId};
use cloudtalk::status::{StatusReport, StatusSource, TableStatusSource};
use cloudtalk::transport::RetryPolicy;
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::rng::{stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use estimator::HostState;
use rand::Rng;

/// Names that describe executed work rather than modelled behaviour.
const WORK_COUNTERS: [&str; 2] = [
    "serving.refresh_hosts_polled",
    "serving.refresh_shards_clean",
];

/// Hides the inner source's change view: the plane above it cannot prove
/// anything and gathers every due shard in full.
struct Opaque<S>(S);

impl<S: StatusSource> StatusSource for Opaque<S> {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        self.0.poll_report(addr)
    }

    fn advance_to(&mut self, now: SimTime) {
        self.0.advance_to(now)
    }
}

/// A faulty table behind a collection pipeline. Each host's reports arrive
/// a constant [`lag`] old — an unchanging answer, so never listed, yet
/// every shard's freshness is a sum of unequal terms whose order shows in
/// the last bit. And a host can lose one reply on request
/// ([`Hiccup::lose`]): the next poll of such a host goes unanswered, so a
/// retry round recovers it, after the first round's replies. The change
/// view lists such a host until it has answered again, and no longer: a
/// host recovered by a retry is *not* listed at the next refresh.
struct Hiccup {
    inner: FaultySource<TableStatusSource>,
    armed: Vec<Address>,
    missed: Vec<Address>,
}

/// The constant age of a host's reports: 0 to 222 ms.
fn lag(addr: Address) -> SimDuration {
    SimDuration::from_millis(u64::from(addr.0 % 7) * 37)
}

impl Hiccup {
    fn lose(&mut self, addr: Address) {
        if !self.armed.contains(&addr) {
            self.armed.push(addr);
        }
    }
}

impl StatusSource for Hiccup {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        if let Some(i) = self.armed.iter().position(|&a| a == addr) {
            self.armed.swap_remove(i);
            self.missed.push(addr);
            return None;
        }
        self.missed.retain(|&a| a != addr);
        let mut report = self.inner.poll_report(addr)?;
        report.age += lag(addr);
        Some(report)
    }

    fn advance_to(&mut self, now: SimTime) {
        self.inner.advance_to(now);
    }

    fn drain_changed(&mut self, changed: &mut Vec<Address>) -> bool {
        if !self.inner.drain_changed(changed) {
            return false;
        }
        changed.extend_from_slice(&self.armed);
        changed.extend_from_slice(&self.missed);
        true
    }
}

/// The source stack under either plane.
trait Stack: StatusSource {
    fn hiccup(&mut self) -> &mut Hiccup;
}

impl Stack for Hiccup {
    fn hiccup(&mut self) -> &mut Hiccup {
        self
    }
}

impl Stack for Opaque<Hiccup> {
    fn hiccup(&mut self) -> &mut Hiccup {
        &mut self.0
    }
}

const LEVELS: [f64; 5] = [0.0, 0.05, 0.3, 0.6, 0.9];

/// Racks of 4, 8, 8, 12, 8, 5, 6 and 4 hosts, two per shard: shards of 12,
/// 20, 13 and 10 hosts. With the transport's knee at 16, shard 1 sits above
/// it: its gathers lose replies and draw the RNG for every host.
const RACK_SIZES: [u32; 8] = [4, 8, 8, 12, 8, 5, 6, 4];
const KNEE: usize = 16;
const WAVES: u64 = 48;
const QUANTUM: SimDuration = SimDuration::from_millis(5);

fn racks() -> Vec<Vec<Address>> {
    let mut next = 1;
    RACK_SIZES
        .iter()
        .map(|&n| {
            let rack = (next..next + n).map(Address).collect();
            next += n;
            rack
        })
        .collect()
}

fn all_hosts() -> Vec<Address> {
    racks().concat()
}

fn level(rng: &mut DetRng) -> HostState {
    HostState::gbps_idle()
        .with_up_load(LEVELS[rng.gen_range(0..LEVELS.len())])
        .with_down_load(LEVELS[rng.gen_range(0..LEVELS.len())])
}

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn source(seed: u64, plan: &FaultPlan) -> Hiccup {
    let mut rng = stream_rng(seed, 0x7AB1E);
    let mut table = TableStatusSource::new();
    for a in all_hosts() {
        table.set(a, level(&mut rng));
    }
    Hiccup {
        inner: FaultySource::new(table, plan.clone()),
        armed: Vec::new(),
        missed: Vec::new(),
    }
}

/// Host faults that open and close mid-run, on distinct hosts spread over
/// the shards: two crash windows, stragglers, and stale lags (ages > 0, so
/// a shard's freshness is a sum of unequal terms).
fn host_plan(seed: u64) -> FaultPlan {
    let hosts = all_hosts();
    let start = stream_rng(seed, 0xFA_0175).gen_range(0..hosts.len());
    // 7 is prime to the fleet size: ten steps land on ten hosts.
    let pick = |k: usize| hosts[(start + 7 * k) % hosts.len()];
    let ms = SimDuration::from_millis;
    FaultPlan::none()
        .crash(pick(0), Window::between(t(0.03), t(0.09)))
        .crash(pick(1), Window::starting_at(t(0.15)))
        .straggle(pick(2), 1)
        .straggle(pick(3), 3)
        .straggle(pick(4), 5)
        .stale(pick(5), ms(130))
        .stale(pick(6), ms(300))
        .stale(pick(7), ms(450))
        .stale(pick(8), ms(700))
        .stale(pick(9), ms(1_100))
}

/// Holds are off, so every answer reads its snapshot alone. The retry
/// policy varies with the seed: none (a missed host stays missing), the
/// default, and the default with jittered backoff (drawing the shard's
/// RNG whenever a host is retried).
fn config(seed: u64, workers: usize, cache: bool) -> ServingConfig {
    let mut cfg = ServingConfig {
        workers,
        racks_per_shard: 2,
        wave_quantum: QUANTUM,
        snapshot_refresh: SimDuration::from_millis(10),
        seed,
        telemetry: TelemetryConfig {
            sample_every: 2,
            window: SimDuration::from_millis(10),
            ..TelemetryConfig::enabled()
        },
        ..ServingConfig::default()
    };
    cfg.server.cache.enabled = cache;
    cfg.server.reservation_hold = None;
    cfg.server.transport.knee = KNEE;
    let retry = &mut cfg.server.transport.retry;
    match seed % 3 {
        0 => *retry = RetryPolicy::NONE,
        1 => {}
        _ => retry.jitter_pct = 30,
    }
    cfg
}

/// One step of seeded churn, applied identically to both sources.
fn churn(rng: &mut DetRng, silenced: &mut Vec<Address>, sources: [&mut Hiccup; 2]) {
    let hosts = all_hosts();
    let pick = |rng: &mut DetRng| hosts[rng.gen_range(0..hosts.len())];
    // (host, Some(state) = set, None = silence); a lost reply separately.
    let mut writes: Vec<(Address, Option<HostState>)> = Vec::new();
    let mut lost = Vec::new();
    for _ in 0..rng.gen_range(1..=2) {
        match rng.gen_range(0..7u32) {
            // Zero churn: the refresh must cost (and change) nothing.
            0 => {}
            1 => {
                for _ in 0..rng.gen_range(1..=4) {
                    writes.push((pick(rng), Some(level(rng))));
                }
            }
            // A no-op `set`: listed, yet nothing differs.
            2 => {
                let a = pick(rng);
                if let Some(st) = sources[0].inner.inner_mut().poll(a) {
                    writes.push((a, Some(st)));
                }
            }
            3 => {
                let a = pick(rng);
                writes.push((a, None));
                silenced.push(a);
            }
            4 => {
                if !silenced.is_empty() {
                    let a = silenced.swap_remove(rng.gen_range(0..silenced.len()));
                    writes.push((a, Some(level(rng))));
                }
            }
            5 => lost.push(pick(rng)),
            // Whole-rack churn.
            _ => {
                let all = racks();
                for &a in &all[rng.gen_range(0..all.len())] {
                    writes.push((a, Some(level(rng))));
                }
            }
        }
    }
    for source in sources {
        let table = source.inner.inner_mut();
        for &(a, st) in &writes {
            match st {
                Some(st) => table.set(a, st),
                None => table.silence(a),
            }
        }
        for &a in &lost {
            source.lose(a);
        }
    }
}

/// One wave's queries: a few tenants writing into one rack each, and a
/// census of every shard — a write of one replica fewer than the shard has
/// hosts, whose binding leaves out the host the snapshot shows worst (a
/// host that did not answer is assumed fully loaded), so it shows what
/// the snapshot's world holds.
fn queries(rng: &mut DetRng) -> Vec<(TenantId, Problem)> {
    let racks = racks();
    let writes = (0..rng.gen_range(0..=3u32)).map(|i| {
        let tenant = TenantId(rng.gen_range(0..6u32) * 4 + i);
        let pool = &racks[rng.gen_range(0..racks.len())];
        (tenant, pool.clone(), rng.gen_range(1..=2usize))
    });
    let census = racks.chunks(2).enumerate().map(|(i, pair)| {
        let pool = pair.concat();
        let replicas = pool.len() - 1;
        (TenantId(100 + i as u32), pool, replicas)
    });
    writes
        .chain(census)
        .map(|(tenant, pool, replicas)| {
            let p = hdfs_write_query(Address(1_000 + tenant.0), &pool, replicas, 1e6);
            (tenant, p.resolve().expect("a write resolves"))
        })
        .collect()
}

/// Everything observable about a plane after a wave, minus the executed-
/// work counters. Completions and cache statistics compare as their
/// `Debug` text, which prints every float exactly.
#[derive(PartialEq, Debug)]
struct Observed {
    completions: Vec<String>,
    epochs: Vec<u64>,
    cache: String,
    telemetry: cloudtalk::serving::TelemetryStats,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
}

fn observe<S: StatusSource>(plane: &ServingPlane<S>, done: &[CompletedQuery]) -> Observed {
    let m = plane.metrics();
    Observed {
        completions: done.iter().map(|c| format!("{c:?}")).collect(),
        epochs: plane.shard_epochs(),
        cache: format!("{:?}", plane.cache_stats()),
        telemetry: plane.telemetry_stats(),
        counters: m
            .counters()
            .filter(|(name, _)| !WORK_COUNTERS.contains(name))
            .collect(),
        gauges: m.gauges().map(|(name, v)| (name, v.to_bits())).collect(),
    }
}

fn counter<S: StatusSource>(plane: &ServingPlane<S>, name: &str) -> u64 {
    plane.metrics().counter_named(name).expect("registered")
}

/// Drives the change-driven plane and the full-gather oracle side by side
/// for [`WAVES`] waves, comparing them after each. Returns the
/// change-driven plane's `(refresh_hosts_polled, refresh_shards_clean)`.
fn drive(seed: u64, plan: &FaultPlan, workers: usize, cache: bool) -> (u64, u64) {
    let label = format!("seed {seed}, {workers} workers, cache {cache}, plan {plan:?}");
    let layout = FleetLayout::grouped(racks());
    let cfg = config(seed, workers, cache);
    let mut fast = ServingPlane::new(cfg.clone(), layout.clone(), source(seed, plan));
    let mut oracle = ServingPlane::new(cfg, layout, Opaque(source(seed, plan)));
    let mut rng = stream_rng(seed, 0x5E_F4E5);
    let mut silenced = Vec::new();
    for wave in 0..WAVES {
        let at = SimTime::ZERO + QUANTUM * wave;
        let close = at + QUANTUM;
        if wave > 0 {
            churn(
                &mut rng,
                &mut silenced,
                [fast.source_mut().hiccup(), oracle.source_mut().hiccup()],
            );
        }
        for (tenant, problem) in queries(&mut rng) {
            let a = fast
                .submit(tenant, problem.clone(), at)
                .map_err(|e| e.to_string());
            let b = oracle
                .submit(tenant, problem, at)
                .map_err(|e| e.to_string());
            assert_eq!(a, b, "{label}: admission diverged at wave {wave}");
        }
        let a = fast.run_until(close);
        let b = oracle.run_until(close);
        assert_eq!(
            observe(&fast, &a),
            observe(&oracle, &b),
            "{label}: diverged at wave {wave}"
        );
    }
    assert_eq!(
        counter(&oracle, "serving.refresh_shards_clean"),
        0,
        "the oracle gathers in full"
    );
    let (a, b) = (fast.telemetry_dump(), oracle.telemetry_dump());
    let bundle =
        |d: Option<obs::PostmortemBundle>| d.map(|d| (d.chrome_json, d.metrics_text, d.slo_text));
    assert_eq!(bundle(a), bundle(b), "{label}: telemetry bundles differ");
    (
        counter(&fast, "serving.refresh_hosts_polled"),
        counter(&fast, "serving.refresh_shards_clean"),
    )
}

/// Refreshes over the run, and what polling every host at each would poll.
fn full_gather_polls() -> u64 {
    (WAVES / 2) * all_hosts().len() as u64
}

#[test]
fn churn_alone_matches_the_full_gather() {
    for seed in 0..3 {
        for workers in [1usize, 2, 8] {
            for cache in [true, false] {
                let (polled, clean) = drive(seed, &FaultPlan::none(), workers, cache);
                assert!(clean > 0, "seed {seed}: no shard was ever refreshed clean");
                assert!(polled < full_gather_polls(), "seed {seed}: polled {polled}");
            }
        }
    }
}

#[test]
fn host_faults_match_the_full_gather() {
    for seed in 0..3 {
        for workers in [1usize, 2, 8] {
            for cache in [true, false] {
                let (polled, _) = drive(seed, &host_plan(seed), workers, cache);
                assert!(polled < full_gather_polls(), "seed {seed}: polled {polled}");
            }
        }
    }
}
