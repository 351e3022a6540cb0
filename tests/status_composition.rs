//! Status sources compose: one clock, set by whoever gathers, reaches
//! every layer of a stacked source.
//!
//! The stack is the one a composed chaos harness builds: host faults in a
//! `FaultySource` over the host table, an `AggregationPlane` with an
//! aggregator fault over that, and another `FaultySource` over the plane.
//! Nobody sets a clock by hand: the only time any layer hears is the `now`
//! of the gatherer on top — a `CloudTalkServer` answer, or a
//! `ServingPlane` wave. Host 1 (rack 0) crashes in `[1 s, 2 s)` and rack 2's
//! aggregator is partitioned in `[2 s, 3 s)`; answers at 0.5, 1.5 and
//! 2.5 s must see the host missing at 1.5 s only and the rack stale at
//! 2.5 s only. Under the serving plane, the stitched trace of every query
//! answered from a refresh must carry the plane's `aggregator` lane,
//! passed up through the outer decorator — in every shard the wave
//! refreshed, though the plane synced once for all of them.
//!
//! Lives in the root package so tier-1 `cargo test -q` reaches it.

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig, RackId};
use cloudtalk::faults::{FaultPlan, FaultySource, Window};
use cloudtalk::server::{CloudTalkServer, ServerConfig};
use cloudtalk::serving::{ServingConfig, ServingPlane, TelemetryConfig, TenantId};
use cloudtalk::status::TableStatusSource;
use cloudtalk::transport::TransportConfig;
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::{SimDuration, SimTime};
use estimator::HostState;

type Stack = FaultySource<AggregationPlane<FaultySource<TableStatusSource>>>;

const CRASHED: Address = Address(1);
const PARTITIONED: RackId = RackId(2);

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn hosts() -> Vec<Address> {
    (1..=12).map(Address).collect()
}

/// Racks of four: hosts 1–4, 5–8 and 9–12.
fn layout() -> FleetLayout {
    FleetLayout::uniform(&hosts(), 4)
}

/// The stack, built once and then left alone.
fn stack() -> Stack {
    let mut table = TableStatusSource::new();
    for a in hosts() {
        table.set(a, HostState::gbps_idle());
    }
    let plan = FaultPlan::none()
        .crash(CRASHED, Window::between(t(1.0), t(2.0)))
        .agg_partition(PARTITIONED, Window::between(t(2.0), t(3.0)));
    let hosts = FaultySource::new(table, plan.clone());
    let plane = AggregationPlane::new(layout(), hosts, PlaneConfig::default()).with_faults(plan);
    FaultySource::new(plane, FaultPlan::none())
}

/// A write that mentions every host of the fleet.
fn problem() -> Problem {
    hdfs_write_query(Address(2), &hosts(), 3, 1e6)
        .resolve()
        .expect("well-formed")
}

/// What each answer must see at `at`: (hosts missing, racks stale).
fn expected(at: SimTime) -> (usize, Vec<RackId>) {
    if at == t(1.5) {
        (1, Vec::new())
    } else if at == t(2.5) {
        (0, vec![PARTITIONED])
    } else {
        (0, Vec::new())
    }
}

#[test]
fn an_answer_moves_every_layer_of_the_stack() {
    let mut source = stack();
    let mut server = CloudTalkServer::new(ServerConfig {
        transport: TransportConfig::local(),
        ..ServerConfig::default()
    });
    for at in [t(0.5), t(1.5), t(2.5)] {
        let a = server
            .answer_problem(&problem(), &mut source, at)
            .expect("a faulted fleet still answers");
        let (missing, stale) = expected(at);
        assert_eq!(a.missing, missing, "hosts missing at {at:?}");
        assert_eq!(
            source.inner_mut().stale_racks(),
            stale,
            "racks stale at {at:?}"
        );
    }
}

#[test]
fn a_serving_wave_moves_every_layer_and_stitches_the_aggregator_lane() {
    const QUANTUM: SimDuration = SimDuration::from_millis(10);
    let cfg = ServingConfig {
        workers: 1,
        // One shard, refreshed at every wave: each answer reads a gather
        // made at its own wave's close.
        racks_per_shard: 3,
        wave_quantum: QUANTUM,
        snapshot_refresh: QUANTUM,
        telemetry: TelemetryConfig {
            sample_every: 1,
            ..TelemetryConfig::enabled()
        },
        ..ServingConfig::default()
    };
    let mut plane = ServingPlane::new(cfg, layout(), stack());
    let mut traces = Vec::new();
    for at in [t(0.5), t(1.5), t(2.5)] {
        plane.submit(TenantId(0), problem(), at).expect("admitted");
        let done = plane.run_until(at + QUANTUM);
        assert_eq!(done.len(), 1);
        let a = done[0]
            .result
            .as_ref()
            .expect("a faulted fleet still answers");
        let (missing, stale) = expected(at);
        assert_eq!(a.missing, missing, "hosts missing in the wave after {at:?}");
        assert_eq!(
            plane.source_mut().inner_mut().stale_racks(),
            stale,
            "racks stale in the wave after {at:?}"
        );
        traces.push(done[0].trace.expect("every query is sampled").trace_id);
    }
    let bundle = plane.telemetry_dump().expect("telemetry is on");
    for id in traces {
        let lane = format!("trace{id:016x}/aggregator");
        assert!(
            bundle.chrome_json.contains(&lane),
            "{lane} missing from the stitched traces"
        );
    }
}

#[test]
fn every_shard_refreshed_from_one_sync_carries_the_aggregator_lane() {
    const QUANTUM: SimDuration = SimDuration::from_millis(10);
    let cfg = ServingConfig {
        workers: 1,
        // A shard per rack; the wave after 0.5 s refreshes all three from
        // the plane's one sync at that instant.
        racks_per_shard: 1,
        wave_quantum: QUANTUM,
        snapshot_refresh: QUANTUM,
        telemetry: TelemetryConfig {
            sample_every: 1,
            ..TelemetryConfig::enabled()
        },
        ..ServingConfig::default()
    };
    let mut plane = ServingPlane::new(cfg, layout(), stack());
    for (tenant, rack) in hosts().chunks(4).enumerate() {
        let write = hdfs_write_query(rack[0], rack, 3, 1e6)
            .resolve()
            .expect("well-formed");
        plane
            .submit(TenantId(tenant as u32), write, t(0.5))
            .expect("admitted");
    }
    let done = plane.run_until(t(0.5) + QUANTUM);
    let mut shards: Vec<usize> = done.iter().map(|c| c.shard).collect();
    shards.sort_unstable();
    assert_eq!(shards, [0, 1, 2], "one query per shard");
    let bundle = plane.telemetry_dump().expect("telemetry is on");
    for c in &done {
        let id = c.trace.expect("every query is sampled").trace_id;
        let lane = format!("trace{id:016x}/aggregator");
        assert!(
            bundle.chrome_json.contains(&lane),
            "shard {}: {lane} missing from the stitched traces",
            c.shard
        );
    }
}
