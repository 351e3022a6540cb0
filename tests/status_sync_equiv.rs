//! Oracle equivalence for the change-driven status plane.
//!
//! An `AggregationPlane` whose source offers a change view
//! (`StatusSource::drain_changed`) takes every healthy rack to rung 1
//! without the ladder, polling only its listed hosts (none, for a clean
//! rack), and re-polls only the listed hosts of the others wherever the
//! aggregator may skip the rest. The reference is the
//! *same plane* over a wrapper source that hides the view, which forces
//! the full scan the plane ran before — every rack down the ladder, every
//! host polled. Both are driven with the same seeded churn, host faults,
//! aggregator faults and failover settings, and after every sync
//! everything observable must be bit-identical: served reports and ages,
//! views, `stale_racks`, `on_standby`, the ledger, every `gather.agg.*`
//! counter and the spans of `last_sync_trace`. Excluded are exactly the
//! names that say how much work a sync *executed*: the counters
//! `gather.agg.racks_clean` / `gather.agg.hosts_repolled` and the
//! `clean_racks` / `dirty_hosts` arguments of the `agg.sync` span. A
//! poll counter under the change-driven plane holds the healthy path to
//! one poll per listed host and sync.
//!
//! Lives in the root package so tier-1 `cargo test -q` reaches it.

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig, RackId};
use cloudtalk::faults::{Corruption, FaultPlan, FaultySource, Window};
use cloudtalk::status::{StatusReport, StatusSource, TableStatusSource};
use cloudtalk::transport::{RetryPolicy, TransportConfig};
use cloudtalk_lang::problem::Address;
use desim::rng::{stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use estimator::HostState;
use rand::Rng;
use std::collections::BTreeMap;

/// Names that describe executed work rather than modelled behaviour.
const WORK_COUNTERS: [&str; 2] = ["gather.agg.racks_clean", "gather.agg.hosts_repolled"];
const WORK_ARGS: [&str; 2] = ["clean_racks", "dirty_hosts"];

/// Hides the inner source's change view: the plane above it cannot prove
/// anything and polls everyone, every sync.
struct Opaque<S>(S);

impl<S: StatusSource> StatusSource for Opaque<S> {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        self.0.poll_report(addr)
    }

    fn advance_to(&mut self, now: SimTime) {
        self.0.advance_to(now)
    }
}

/// What the driver needs from every source shape under test.
trait Driven: StatusSource {
    fn table(&mut self) -> &mut TableStatusSource;
}

impl Driven for TableStatusSource {
    fn table(&mut self) -> &mut TableStatusSource {
        self
    }
}

impl Driven for FaultySource<TableStatusSource> {
    fn table(&mut self) -> &mut TableStatusSource {
        self.inner_mut()
    }
}

impl<S: Driven> Driven for Opaque<S> {
    fn table(&mut self) -> &mut TableStatusSource {
        self.0.table()
    }
}

const LEVELS: [f64; 5] = [0.0, 0.05, 0.3, 0.6, 0.9];

/// Racks of 4, 8, 8, 12, 8 and 5 hosts. With the host transport's knee
/// lowered to 8 (see `plane_config`), rack 3 sits above it: its gathers
/// lose replies and draw the aggregator's RNG for every host.
const RACK_SIZES: [u32; 6] = [4, 8, 8, 12, 8, 5];
const LOSSY_RACK: RackId = RackId(3);

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

fn table(seed: u64) -> TableStatusSource {
    let mut rng = stream_rng(seed, 0x7AB1E);
    let mut s = TableStatusSource::new();
    for a in all_hosts() {
        s.set(a, level(&mut rng));
    }
    s
}

fn level(rng: &mut DetRng) -> HostState {
    HostState::gbps_idle()
        .with_up_load(LEVELS[rng.gen_range(0..LEVELS.len())])
        .with_down_load(LEVELS[rng.gen_range(0..LEVELS.len())])
}

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

#[derive(Clone, Copy, Debug)]
struct Setup {
    standby: bool,
    bypass: bool,
    /// Lower the knee so `LOSSY_RACK` gathers lossily.
    lossy: bool,
    /// Jitter the host-tier retry backoff (draws the aggregator's RNG
    /// whenever a rack has a host to retry).
    host_jitter: bool,
}

fn plane_config(seed: u64, s: Setup) -> PlaneConfig {
    let base = TransportConfig::default();
    PlaneConfig {
        standby: s.standby,
        bypass: s.bypass,
        host_transport: TransportConfig {
            knee: if s.lossy { 8 } else { base.knee },
            retry: RetryPolicy {
                jitter_pct: if s.host_jitter { 30 } else { 0 },
                ..base.retry
            },
            ..base
        },
        seed,
        ..PlaneConfig::default()
    }
}

/// One step of seeded churn, applied identically to both sources.
fn churn(rng: &mut DetRng, silenced: &mut Vec<Address>, tables: [&mut TableStatusSource; 2]) {
    let hosts = all_hosts();
    let mut writes: Vec<(Address, Option<HostState>)> = Vec::new();
    let pick = |rng: &mut DetRng| hosts[rng.gen_range(0..hosts.len())];
    for _ in 0..rng.gen_range(1..=2) {
        match rng.gen_range(0..7u32) {
            // Zero churn: the sync must cost (and change) nothing.
            0 => {}
            // A few hosts move.
            1 => {
                for _ in 0..rng.gen_range(1..=5) {
                    writes.push((pick(rng), Some(level(rng))));
                }
            }
            // A no-op `set`: marked changed, yet nothing differs.
            2 => {
                let a = pick(rng);
                if let Some(st) = tables[0].poll(a) {
                    writes.push((a, Some(st)));
                }
            }
            // The same host twice (the last write wins; one mark).
            3 => {
                let a = pick(rng);
                writes.push((a, Some(level(rng))));
                writes.push((a, Some(level(rng))));
            }
            // A host goes silent…
            4 => {
                let a = pick(rng);
                writes.push((a, None));
                silenced.push(a);
            }
            // …and one comes back.
            5 => {
                if !silenced.is_empty() {
                    let a = silenced.swap_remove(rng.gen_range(0..silenced.len()));
                    writes.push((a, Some(level(rng))));
                }
            }
            // Whole-rack churn.
            _ => {
                let all = racks();
                for &a in &all[rng.gen_range(0..all.len())] {
                    writes.push((a, Some(level(rng))));
                }
            }
        }
    }
    for table in tables {
        for &(a, st) in &writes {
            match st {
                Some(st) => table.set(a, st),
                None => table.silence(a),
            }
        }
    }
}

fn report_bits(r: Option<StatusReport>) -> ReportBits {
    r.map(|r| {
        let s = r.state;
        [
            s.nic_up_capacity.to_bits(),
            s.nic_up_used.to_bits(),
            s.nic_down_capacity.to_bits(),
            s.nic_down_used.to_bits(),
            s.disk_read_capacity.to_bits(),
            s.disk_read_used.to_bits(),
            s.disk_write_capacity.to_bits(),
            s.disk_write_used.to_bits(),
            r.age.as_nanos(),
        ]
    })
}

/// A report, bit for bit: the state's eight fields and the age.
type ReportBits = Option<[u64; 9]>;
/// A view: stamp (node, incarnation, epoch), freshness, entries.
type ViewBits = (u32, u32, u64, SimTime, Vec<(Address, ReportBits)>);
/// A span: name, parent, simulated start and end, arguments.
type SpanBits = (
    &'static str,
    u32,
    SimTime,
    SimTime,
    Vec<(&'static str, u64)>,
);

/// Everything observable about a plane after a sync, minus the executed-
/// work names.
#[derive(PartialEq, Debug)]
struct Observed {
    served: Vec<ReportBits>,
    views: Vec<ViewBits>,
    stale: Vec<RackId>,
    on_standby: Vec<bool>,
    ledger: cloudtalk::messages::OverheadLedger,
    counters: Vec<(&'static str, u64)>,
    spans: Vec<SpanBits>,
    dropped: u32,
}

fn observe<S: StatusSource>(plane: &mut AggregationPlane<S>) -> Observed {
    let racks: Vec<RackId> = plane.layout().rack_ids().collect();
    Observed {
        served: all_hosts()
            .into_iter()
            // Plus an address outside the fleet.
            .chain([Address(9_999)])
            .map(|a| report_bits(plane.poll_report(a)))
            .collect(),
        views: racks
            .iter()
            .map(|&r| {
                let v = plane.view(r);
                assert_eq!(v.len(), v.iter().count());
                (
                    v.stamp.node,
                    v.stamp.incarnation,
                    v.stamp.epoch,
                    v.fresh_as_of,
                    v.iter().map(|(a, r)| (a, report_bits(Some(*r)))).collect(),
                )
            })
            .collect(),
        stale: plane.stale_racks(),
        on_standby: racks.iter().map(|&r| plane.on_standby(r)).collect(),
        ledger: plane.ledger(),
        counters: plane
            .metrics()
            .counters()
            .filter(|(name, _)| !WORK_COUNTERS.contains(name))
            .collect(),
        spans: plane
            .last_sync_trace()
            .spans
            .iter()
            .map(|s| {
                let args = s
                    .args
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|(k, _)| !WORK_ARGS.contains(k))
                    .collect();
                (s.name, s.parent, s.sim_start, s.sim_end, args)
            })
            .collect(),
        dropped: plane.last_sync_trace().dropped,
    }
}

fn counter<S: StatusSource>(plane: &AggregationPlane<S>, name: &str) -> u64 {
    plane.metrics().counter_named(name).expect("registered")
}

/// Drives the change-driven plane and the full-scan oracle side by side
/// for `syncs` syncs half a second apart and compares them after each.
/// Returns the change-driven plane's `(racks_clean, hosts_repolled)`.
fn drive<S: Driven>(
    label: &str,
    seed: u64,
    source: impl Fn() -> S,
    agg_faults: FaultPlan,
    setup: Setup,
    syncs: usize,
) -> (u64, u64) {
    let layout = FleetLayout::grouped(racks());
    let cfg = plane_config(seed, setup);
    let mut fast = AggregationPlane::new(layout.clone(), source(), cfg.clone())
        .with_faults(agg_faults.clone());
    let mut oracle = AggregationPlane::new(layout, Opaque(source()), cfg).with_faults(agg_faults);
    let mut rng = stream_rng(seed, 0xC4_0421);
    let mut silenced = Vec::new();
    for step in 0..syncs {
        // Now and then a second sync at the same instant.
        let now = t(0.5 * (step - usize::from(step % 5 == 4)) as f64);
        if step > 0 {
            churn(
                &mut rng,
                &mut silenced,
                [fast.source_mut().table(), oracle.source_mut().table()],
            );
        }
        fast.sync(now);
        oracle.sync(now);
        assert_eq!(
            observe(&mut fast),
            observe(&mut oracle),
            "{label}, seed {seed}, {setup:?}: diverged at sync {step}"
        );
        assert_eq!(
            counter(&oracle, "gather.agg.racks_clean"),
            0,
            "the oracle scans"
        );
    }
    (
        counter(&fast, "gather.agg.racks_clean"),
        counter(&fast, "gather.agg.hosts_repolled"),
    )
}

const PLAIN: Setup = Setup {
    standby: false,
    bypass: false,
    lossy: false,
    host_jitter: false,
};

fn setups() -> Vec<Setup> {
    let mut all = Vec::new();
    for standby in [false, true] {
        for bypass in [false, true] {
            for lossy in [false, true] {
                all.push(Setup {
                    standby,
                    bypass,
                    lossy,
                    host_jitter: standby != lossy,
                });
            }
        }
    }
    all
}

#[test]
fn healthy_fleet_takes_the_fast_path_and_matches_the_full_scan() {
    for seed in 0..6 {
        for setup in setups() {
            let (clean, repolled) = drive(
                "healthy",
                seed,
                || table(seed),
                FaultPlan::none(),
                setup,
                14,
            );
            assert!(
                clean > 0,
                "seed {seed} {setup:?}: no rack was ever settled in O(1)"
            );
            let full_scan = 14 * all_hosts().len() as u64;
            assert!(
                repolled < full_scan,
                "seed {seed} {setup:?}: re-polled {repolled} of {full_scan}"
            );
        }
    }
}

#[test]
fn zero_churn_syncs_poll_nobody() {
    let layout = FleetLayout::grouped(racks());
    let mut plane = AggregationPlane::new(layout, table(3), plane_config(3, PLAIN));
    plane.sync(t(0.0));
    let primed = counter(&plane, "gather.agg.hosts_repolled");
    assert_eq!(primed, all_hosts().len() as u64, "priming polls everyone");
    let before = plane.ledger();
    for step in 1..=3 {
        plane.sync(t(step as f64));
    }
    assert_eq!(counter(&plane, "gather.agg.hosts_repolled"), primed);
    assert_eq!(
        counter(&plane, "gather.agg.racks_clean"),
        3 * RACK_SIZES.len() as u64
    );
    let root = plane.last_sync_trace().span("agg.sync").expect("root span");
    assert_eq!(
        root.args,
        [
            Some(("clean_racks", RACK_SIZES.len() as u64)),
            Some(("dirty_hosts", 0))
        ]
    );
    // Modelled, not executed: every host is still charged its poll.
    let after = plane.ledger();
    assert_eq!(
        after.status_queries - before.status_queries,
        3 * all_hosts().len() as u64
    );
    assert_eq!(
        plane.poll_report(Address(1)).unwrap().age,
        SimDuration::ZERO
    );
}

/// A host-level plan that opens and closes windows mid-run and uses
/// every fault class, on hosts spread over the racks.
fn host_plan(seed: u64) -> FaultPlan {
    let mut rng = stream_rng(seed, 0xFA_0175);
    let hosts = all_hosts();
    let mut pick = || hosts[rng.gen_range(0..hosts.len())];
    FaultPlan::none()
        .crash(pick(), Window::between(t(1.0), t(3.0)))
        .crash(pick(), Window::starting_at(t(4.0)))
        .partition(pick(), Window::between(t(0.5), t(2.0)))
        .partition_group(racks()[4].clone(), Window::between(t(2.5), t(3.5)))
        .straggle(pick(), 1)
        .straggle(pick(), 3)
        .straggle(pick(), 7)
        .stale(pick(), SimDuration::from_millis(700))
        .corrupt(pick(), Corruption::NanUsage)
        .corrupt(pick(), Corruption::NegativeCapacity)
}

#[test]
fn host_faults_under_the_plane_match_the_full_scan() {
    for seed in 0..6 {
        for setup in setups() {
            let source = || FaultySource::new(table(seed), host_plan(seed));
            let (_, repolled) = drive("host faults", seed, source, FaultPlan::none(), setup, 14);
            // Racks holding a planned host never settle, but those whose
            // hosts all answer re-poll only the planned and the churned.
            assert!(
                repolled < 14 * all_hosts().len() as u64,
                "seed {seed} {setup:?}"
            );
        }
    }
}

/// Aggregator-tier fault shapes; the victim rack varies with the seed.
fn agg_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let victim = RackId((seed % RACK_SIZES.len() as u64) as u32);
    let other = RackId(((seed + 2) % RACK_SIZES.len() as u64) as u32);
    let window = Window::between(t(1.0), t(3.0));
    vec![
        ("crash", FaultPlan::none().agg_crash(victim, window)),
        (
            "crash for good",
            FaultPlan::none().agg_crash(victim, Window::starting_at(t(2.0))),
        ),
        ("partition", FaultPlan::none().agg_partition(victim, window)),
        (
            "straggle within budget",
            FaultPlan::none().agg_straggle(victim, 2),
        ),
        (
            "straggle past budget",
            FaultPlan::none().agg_straggle(victim, 5),
        ),
        (
            "crash mid-push",
            FaultPlan::none().agg_crash_mid_push(victim, window),
        ),
        (
            "everything",
            FaultPlan::none()
                .agg_crash(victim, window)
                .agg_crash_mid_push(victim, Window::between(t(4.0), t(5.0)))
                .agg_partition(other, Window::between(t(2.0), t(4.5)))
                .agg_straggle(LOSSY_RACK, 4),
        ),
    ]
}

#[test]
fn aggregator_faults_and_failover_match_the_full_scan() {
    for seed in 0..6 {
        for (shape, plan) in agg_plans(seed) {
            for setup in setups() {
                drive(shape, seed, || table(seed), plan.clone(), setup, 14);
            }
        }
    }
}

#[test]
fn host_and_aggregator_faults_compose() {
    for seed in 0..4 {
        for (shape, plan) in agg_plans(seed) {
            for setup in setups() {
                let source = || FaultySource::new(table(seed), host_plan(seed + 100));
                drive(shape, seed, source, plan.clone(), setup, 14);
            }
        }
    }
}

#[test]
fn a_fault_plan_installed_on_settled_racks_takes_effect() {
    // Racks settle under an empty plan; a plan installed afterwards must
    // unsettle them (a partitioned rack cannot be waved through), and a
    // straggler counts its rounds from the rack's first pull, settled
    // syncs included: one straggling fewer rounds than the settled syncs
    // has already passed them, one straggling more misses one pull.
    let layout = FleetLayout::grouped(racks());
    let retries = PlaneConfig::default().retry.max_retries;
    for settled in [3, 50] {
        for straggle in [settled - 1, settled + 1] {
            let plan = FaultPlan::none()
                .agg_partition(RackId(1), Window::always())
                .agg_straggle(RackId(2), straggle);
            let mut fast = AggregationPlane::new(layout.clone(), table(5), plane_config(5, PLAIN));
            let mut oracle =
                AggregationPlane::new(layout.clone(), Opaque(table(5)), plane_config(5, PLAIN));
            for step in 0..settled {
                fast.sync(t(step as f64));
                oracle.sync(t(step as f64));
            }
            assert!(counter(&fast, "gather.agg.racks_clean") > 0);
            let mut fast = fast.with_faults(plan.clone());
            let mut oracle = oracle.with_faults(plan);
            for step in settled..settled + 3 {
                fast.sync(t(step as f64));
                oracle.sync(t(step as f64));
                assert_eq!(fast.stale_racks(), vec![RackId(1)]);
                assert_eq!(
                    observe(&mut fast),
                    observe(&mut oracle),
                    "{settled} settled syncs, straggle {straggle}: sync {step}"
                );
            }
            assert_eq!(
                counter(&fast, "gather.agg.pull_retries"),
                3 * u64::from(retries) + u64::from(straggle > settled),
                "{settled} settled syncs, straggle {straggle}"
            );
        }
    }
}

#[test]
fn a_rack_clean_for_50_syncs_then_silenced_matches_the_full_scan() {
    let layout = FleetLayout::grouped(racks());
    let mut fast = AggregationPlane::new(layout.clone(), table(9), plane_config(9, PLAIN));
    let mut oracle = AggregationPlane::new(layout, Opaque(table(9)), plane_config(9, PLAIN));
    let silent = racks()[2][3];
    for step in 0..56 {
        if step == 50 {
            fast.source_mut().silence(silent);
            oracle.source_mut().table().silence(silent);
        }
        fast.sync(t(0.5 * step as f64));
        oracle.sync(t(0.5 * step as f64));
        assert_eq!(observe(&mut fast), observe(&mut oracle), "sync {step}");
    }
    assert_eq!(
        counter(&fast, "gather.agg.racks_clean"),
        49 * RACK_SIZES.len() as u64 + 6 * (RACK_SIZES.len() - 1) as u64,
        "every rack clean from the second sync on, rack 2 until its host went silent"
    );
    assert!(fast.poll_report(silent).is_none());
}

/// Counts the polls that reach the inner source, per address; the change
/// view passes through.
struct Counted<S> {
    inner: S,
    polls: BTreeMap<Address, u32>,
}

impl<S: StatusSource> StatusSource for Counted<S> {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        *self.polls.entry(addr).or_default() += 1;
        self.inner.poll_report(addr)
    }

    fn drain_changed(&mut self, changed: &mut Vec<Address>) -> bool {
        self.inner.drain_changed(changed)
    }
}

#[test]
fn a_healthy_rack_polls_each_listed_host_once() {
    let layout = FleetLayout::grouped(racks());
    let cfg = plane_config(11, PLAIN);
    let retries = cfg.host_transport.retry.max_retries;
    let counted = Counted {
        inner: table(11),
        polls: BTreeMap::new(),
    };
    let mut fast = AggregationPlane::new(layout.clone(), counted, cfg.clone());
    let mut oracle = AggregationPlane::new(layout, Opaque(table(11)), cfg);
    let mut step = |writes: &[(u32, Option<f64>)], at: f64| {
        fast.source_mut().polls.clear();
        for table in [&mut fast.source_mut().inner, oracle.source_mut().table()] {
            for &(a, load) in writes {
                match load {
                    Some(load) => table.set(Address(a), HostState::gbps_idle().with_up_load(load)),
                    None => table.silence(Address(a)),
                }
            }
        }
        fast.sync(t(at));
        oracle.sync(t(at));
        assert_eq!(observe(&mut fast), observe(&mut oracle), "sync at {at} s");
        std::mem::take(&mut fast.source_mut().polls)
    };
    // Priming polls everyone; the next sync finds every rack healthy.
    step(&[], 0.0);
    assert!(step(&[], 1.0).is_empty(), "a clean fleet polls nobody");
    // Listed hosts in racks 0, 1 and 3, one listed twice, and host 14 of
    // rack 2 listed because it went silent: each is polled by the first
    // round alone, and the silent one again only by the transport's
    // retry rounds.
    let writes = [
        (2, Some(0.3)),
        (6, Some(0.6)),
        (7, Some(0.9)),
        (7, Some(0.3)),
        (30, Some(0.6)),
        (14, None),
    ];
    let polls = step(&writes, 2.0);
    let want: BTreeMap<Address, u32> = [(2, 1), (6, 1), (7, 1), (30, 1), (14, 1 + retries)]
        .map(|(a, n)| (Address(a), n))
        .into();
    assert_eq!(polls, want);
    // A silent host leaves its rack unhealthy: rack 2 walks the ladder and
    // its aggregator polls the whole rack, while the healthy rack 5 polls
    // only its listed host.
    let polls = step(&[(41, Some(0.6))], 3.0);
    assert_eq!(polls.get(&Address(41)), Some(&1));
    assert_eq!(polls.get(&Address(14)), Some(&(1 + retries)));
    assert!((13..=20).all(|a| polls.contains_key(&Address(a))));
    assert_eq!(polls.len(), 1 + 8);
}
