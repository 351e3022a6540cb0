//! Chaos suite for the hierarchical status plane: aggregator-tier faults
//! must degrade as gracefully as host faults do in `chaos.rs`.
//!
//! The acceptance bar (ISSUE 7): with any single aggregator crashed,
//! partitioned, straggling, or crashing mid-delta-push — 3 seeds × 4
//! fault shapes — every query still returns an Answer at rung ≤
//! FreshSubset, the stale hosts are *exactly* the faulted rack's, the
//! binding never lands on them, and every run is bit-identical across
//! repeats. With a standby or bypass rung configured, the same faults
//! cost nothing at all (rung stays Full).
//!
//! The server composes with the plane through the ordinary
//! [`StatusSource`] trait and a [`TransportConfig::local`] "transport"
//! (the plane is in-process; the real wire traffic is the plane's own
//! aggregator-pull + host-refresh ledger).

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig, RackId};
use cloudtalk::faults::{FaultPlan, Window};
use cloudtalk::server::{CloudTalkServer, DegradationRung, ServerConfig};
use cloudtalk::status::{StatusSource, TableStatusSource};
use cloudtalk::transport::TransportConfig;
use cloudtalk_lang::builder::daisy_chain_query;
use cloudtalk_lang::problem::{Address, Value};
use desim::rng::stream_rng;
use desim::SimTime;
use estimator::HostState;
use rand::Rng;

const RACKS: u32 = 3;
const HOSTS_PER_RACK: u32 = 8;
const N_HOSTS: u32 = RACKS * HOSTS_PER_RACK;
const SEEDS: [u64; 3] = [11, 29, 47];

/// The instant the failure window opens — after a clean warm-up sync.
const FAULT_AT: f64 = 0.5;
/// The instant queries run: dead-rack reports are 3 s old by then, far
/// past `fresh_max_age` (1 s), while healthy racks re-sync to age 0.
const QUERY_AT: f64 = 3.0;

fn addrs() -> Vec<Address> {
    (1..=N_HOSTS).map(Address).collect()
}

fn layout() -> FleetLayout {
    FleetLayout::uniform(&addrs(), HOSTS_PER_RACK as usize)
}

fn rack_hosts(rack: RackId) -> Vec<Address> {
    layout().hosts(rack).to_vec()
}

/// Bimodal fleet, seeded per run (same shape as the host chaos suite).
fn source(seed: u64) -> TableStatusSource {
    let mut rng = stream_rng(seed, 0xB1);
    let mut s = TableStatusSource::new();
    for a in addrs() {
        let st = if rng.gen_bool(0.5) {
            HostState::gbps_idle()
        } else {
            HostState::gbps_idle().with_up_load(0.9).with_down_load(0.9)
        };
        s.set(a, st);
    }
    s
}

fn server(seed: u64) -> CloudTalkServer {
    CloudTalkServer::new(ServerConfig {
        seed,
        // The plane is co-located with the server: no wire between them.
        transport: TransportConfig::local(),
        ..ServerConfig::default()
    })
}

fn plane(seed: u64, cfg: PlaneConfig) -> AggregationPlane<TableStatusSource> {
    AggregationPlane::new(layout(), source(seed), PlaneConfig { seed, ..cfg })
}

/// The four aggregator fault shapes of the acceptance matrix.
#[derive(Clone, Copy, Debug)]
enum AggFault {
    Crash,
    Partition,
    Straggle,
    CrashMidPush,
}

impl AggFault {
    const ALL: [AggFault; 4] = [
        AggFault::Crash,
        AggFault::Partition,
        AggFault::Straggle,
        AggFault::CrashMidPush,
    ];

    fn plan(self, victim: RackId) -> FaultPlan {
        let open = Window::starting_at(SimTime::from_secs_f64(FAULT_AT));
        match self {
            AggFault::Crash => FaultPlan::none().agg_crash(victim, open),
            AggFault::Partition => FaultPlan::none().agg_partition(victim, open),
            // Within the pull budget (2 retries): recovered in-sync.
            AggFault::Straggle => FaultPlan::none().agg_straggle(victim, 2),
            AggFault::CrashMidPush => FaultPlan::none().agg_crash_mid_push(victim, open),
        }
    }

    /// Whether the rack stays unreachable at query time (no standby, no
    /// bypass): crash and partition silence it; a straggler is recovered
    /// by retries, and a mid-push crash resyncs within the same sync.
    fn silences(self) -> bool {
        matches!(self, AggFault::Crash | AggFault::Partition)
    }
}

/// One full faulted run: warm sync, fault opens, a host churns, query at
/// `QUERY_AT`. Returns the answer plus the plane for post-mortems.
fn run_fault(
    seed: u64,
    fault: AggFault,
    victim: RackId,
    cfg: PlaneConfig,
) -> (cloudtalk::server::Answer, AggregationPlane<TableStatusSource>) {
    // The fig3 daisy chain over the whole fleet.
    let problem = daisy_chain_query(&addrs(), 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let mut plane = plane(seed, cfg).with_faults(fault.plan(victim));
    plane.sync(SimTime::ZERO);
    // The world keeps moving after the fault opens: one host per rack
    // changes load, so healthy racks have real deltas to ship.
    for r in 0..RACKS {
        let a = Address(r * HOSTS_PER_RACK + 1);
        plane
            .source_mut()
            .set(a, HostState::gbps_idle().with_up_load(0.6));
    }
    let t_mid = SimTime::from_secs_f64(1.0);
    plane.sync(t_mid);
    let t = SimTime::from_secs_f64(QUERY_AT);
    let answer = server(seed)
        .answer_problem(&problem, &mut plane, t)
        .expect("aggregator faults must never break the answer path");
    (answer, plane)
}

#[test]
fn single_aggregator_fault_costs_at_most_one_racks_freshness() {
    // The acceptance matrix: 3 seeds × 4 fault shapes, victim rack keyed
    // off the seed so every rack position gets hit.
    for (i, seed) in SEEDS.into_iter().enumerate() {
        let victim = RackId(i as u32 % RACKS);
        for fault in AggFault::ALL {
            let (a, plane) = run_fault(seed, fault, victim, PlaneConfig::default());
            assert!(
                matches!(
                    a.provenance.rung,
                    DegradationRung::Full | DegradationRung::FreshSubset
                ),
                "seed {seed} {fault:?}: rung {:?} worse than FreshSubset",
                a.provenance.rung
            );
            assert_eq!(a.binding.len(), 3, "complete binding");
            if fault.silences() {
                // 16 of 24 hosts fresh → freshness ≈ 0.67 < 0.7.
                let rung = a.provenance.rung;
                assert_eq!(rung, DegradationRung::FreshSubset, "seed {seed} {fault:?}");
                assert_eq!(
                    a.provenance.stale_dropped,
                    rack_hosts(victim),
                    "seed {seed} {fault:?}: stale hosts must be exactly the dead rack's"
                );
                assert_eq!(plane.stale_racks(), vec![victim]);
                // The binding never lands on the dead rack.
                for v in &a.binding {
                    let Value::Addr(addr) = v else { panic!("disk binding") };
                    assert!(
                        !rack_hosts(victim).contains(addr),
                        "seed {seed} {fault:?}: placed on stale host {addr:?}"
                    );
                }
            } else {
                // Stragglers and mid-push crashes are absorbed inside the
                // sync: the query never sees them.
                let rung = a.provenance.rung;
                assert_eq!(rung, DegradationRung::Full, "seed {seed} {fault:?}");
                assert!(a.provenance.stale_dropped.is_empty());
                assert!(plane.stale_racks().is_empty());
            }
        }
    }
}

#[test]
fn aggregator_chaos_is_bit_identical_across_repeats() {
    for (i, seed) in SEEDS.into_iter().enumerate() {
        let victim = RackId(i as u32 % RACKS);
        for fault in AggFault::ALL {
            let (a, pa) = run_fault(seed, fault, victim, PlaneConfig::default());
            let (b, pb) = run_fault(seed, fault, victim, PlaneConfig::default());
            assert_eq!(a, b, "seed {seed} {fault:?}: Answer must be bit-identical");
            assert_eq!(
                pa.ledger(),
                pb.ledger(),
                "seed {seed} {fault:?}: byte accounting must be bit-identical"
            );
        }
    }
}

#[test]
fn standby_failover_erases_the_fault_entirely() {
    let cfg = PlaneConfig {
        standby: true,
        ..PlaneConfig::default()
    };
    for seed in SEEDS {
        let victim = RackId(1);
        let (a, plane) = run_fault(seed, AggFault::Crash, victim, cfg.clone());
        let rung = a.provenance.rung;
        assert_eq!(rung, DegradationRung::Full, "seed {seed}: standby holds Full");
        assert!(a.provenance.stale_dropped.is_empty());
        assert!(plane.on_standby(victim));
        assert!(
            plane
                .metrics()
                .counter_named("gather.agg.failover_standby")
                .unwrap()
                > 0
        );
        assert!(
            plane.sync_trace().unwrap().span("agg.failover").is_some(),
            "failover must land in the sync span tree"
        );
    }
}

#[test]
fn bypass_failover_erases_the_fault_entirely() {
    let cfg = PlaneConfig {
        bypass: true,
        ..PlaneConfig::default()
    };
    for seed in SEEDS {
        let victim = RackId(2);
        let (a, plane) = run_fault(seed, AggFault::Partition, victim, cfg.clone());
        let rung = a.provenance.rung;
        assert_eq!(rung, DegradationRung::Full, "seed {seed}: bypass holds Full");
        assert!(a.provenance.stale_dropped.is_empty());
        assert!(
            plane
                .metrics()
                .counter_named("gather.agg.failover_bypass")
                .unwrap()
                > 0
        );
    }
}

#[test]
fn partition_heals_with_deltas_crash_heals_with_full_resync() {
    // A partition loses no aggregator state: after it heals, the next
    // pull is an ordinary delta. A crash loses everything: the restarted
    // incarnation forces a full resync. Same fault window, different
    // recovery cost — the epoch stamps are what tells them apart.
    let heal = SimTime::from_secs_f64(5.0);
    let window = Window::between(SimTime::from_secs_f64(FAULT_AT), heal);
    for seed in SEEDS {
        let victim = RackId(0);
        let healthy_pull = |plan: FaultPlan| {
            let mut p = plane(seed, PlaneConfig::default()).with_faults(plan);
            p.sync(SimTime::ZERO);
            p.sync(SimTime::from_secs_f64(1.0)); // faulted: rack stale
            assert_eq!(p.stale_racks(), vec![victim]);
            p.source_mut()
                .set(Address(2), HostState::gbps_idle().with_up_load(0.3));
            p.sync(SimTime::from_secs_f64(6.0)); // healed
            assert!(p.stale_racks().is_empty());
            (
                p.metrics().counter_named("gather.agg.fulls_installed").unwrap(),
                p.metrics().counter_named("gather.agg.restarts_observed").unwrap(),
                p.poll_report(Address(2)).expect("rack serves again"),
            )
        };
        let (fulls_p, restarts_p, rep_p) =
            healthy_pull(FaultPlan::none().agg_partition(victim, window));
        let (fulls_c, restarts_c, rep_c) =
            healthy_pull(FaultPlan::none().agg_crash(victim, window));
        assert_eq!(restarts_p, 0, "seed {seed}: partition loses no state");
        assert_eq!(restarts_c, 1, "seed {seed}: crash restarts the primary");
        assert!(
            fulls_c > fulls_p,
            "seed {seed}: crash recovery needs a full resync, partition only deltas"
        );
        // Either way the post-heal data is identical and fresh.
        assert_eq!(rep_p, rep_c);
        assert!(rep_p.state.nic_up_used > 0.0);
    }
}

#[test]
fn crash_mid_push_rejects_the_delayed_delta() {
    for seed in SEEDS {
        let victim = RackId(1);
        let (_, mut plane) = run_fault(
            seed,
            AggFault::CrashMidPush,
            victim,
            PlaneConfig::default(),
        );
        assert_eq!(
            plane.metrics().counter_named("gather.agg.mid_push_crashes"),
            Some(1),
            "seed {seed}"
        );
        // The sync *after* the crash (the query's own, at t = 3 s)
        // delivered the delayed pre-crash delta: the epoch rules must
        // have rejected it (pinned in aggregate_props too), visibly in
        // both the counter and that sync's span tree.
        assert_eq!(
            plane
                .metrics()
                .counter_named("gather.agg.stale_delta_rejected"),
            Some(1),
            "seed {seed}: delayed pre-crash delta must be rejected"
        );
        assert!(plane.sync_trace().unwrap().span("agg.reject").is_some());
        // And the rejection is final: later syncs see no more strays.
        plane.sync(SimTime::from_secs_f64(4.0));
        assert_eq!(
            plane
                .metrics()
                .counter_named("gather.agg.stale_delta_rejected"),
            Some(1),
            "seed {seed}: no duplicate rejections"
        );
        assert!(plane.stale_racks().is_empty(), "rack already resynced");
    }
}
