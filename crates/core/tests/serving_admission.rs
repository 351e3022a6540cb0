//! Admission-control suite: a saturated 2-worker plane must refuse load
//! with typed errors, keep its queues bounded, and keep reporting data
//! quality honestly while shedding.
//!
//! * **Typed rejections**: queue-full and overload rejections are
//!   `ServerError::Overloaded { retry_after }` with a positive hint —
//!   never a panic, never a silent drop.
//! * **Bounded queue memory**: whatever the offered load, the pending
//!   queue never exceeds `tenants × tenant_queue_depth` entries.
//! * **Degradation-rung contract**: load shedding flips
//!   `Provenance::shed` and the backend, but the rung and freshness
//!   keep reporting the *data* quality — stale status can never hide
//!   behind a shed wave, and shedding can never masquerade as staleness.

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::server::{Backend, DegradationRung, ServerError};
use cloudtalk::serving::{ServingConfig, ServingPlane, TenantId};
use cloudtalk::status::TableStatusSource;
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::{SimDuration, SimTime};
use estimator::HostState;

const RACKS: u32 = 4;
const HOSTS_PER_RACK: u32 = 4;

/// All 16 hosts idle and reporting.
fn healthy_fleet() -> (FleetLayout, TableStatusSource) {
    let addrs: Vec<Address> = (1..=RACKS * HOSTS_PER_RACK).map(Address).collect();
    let layout = FleetLayout::uniform(&addrs, HOSTS_PER_RACK as usize);
    let mut src = TableStatusSource::new();
    for &a in &addrs {
        src.set(a, HostState::gbps_idle());
    }
    (layout, src)
}

/// Same layout, but half the hosts never answer status polls.
fn half_dark_fleet() -> (FleetLayout, TableStatusSource) {
    let addrs: Vec<Address> = (1..=RACKS * HOSTS_PER_RACK).map(Address).collect();
    let layout = FleetLayout::uniform(&addrs, HOSTS_PER_RACK as usize);
    let mut src = TableStatusSource::new();
    for &a in &addrs {
        if a.0 % 2 == 0 {
            src.set(a, HostState::gbps_idle());
        }
    }
    (layout, src)
}

fn rack_query(rack: u32) -> Problem {
    let base = rack * HOSTS_PER_RACK + 1;
    let nodes: Vec<Address> = (base..base + HOSTS_PER_RACK).map(Address).collect();
    hdfs_write_query(Address(100 + rack), &nodes, 2, 1e6)
        .resolve()
        .unwrap()
}

#[test]
fn saturating_two_workers_rejects_with_typed_overloaded() {
    let (layout, src) = healthy_fleet();
    let depth = 4usize;
    let tenants = 3u32;
    let mut plane = ServingPlane::new(
        ServingConfig {
            workers: 2,
            tenant_queue_depth: depth,
            racks_per_shard: 2,
            ..ServingConfig::default()
        },
        layout,
        src,
    );
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    // Everyone floods the same wave far beyond their queue bound.
    for t in 0..tenants {
        for _ in 0..(3 * depth) {
            match plane.submit(TenantId(t), rack_query(t), SimTime::ZERO) {
                Ok(_) => accepted += 1,
                Err(ServerError::Overloaded { retry_after }) => {
                    assert!(retry_after > SimDuration::ZERO, "useless backpressure hint");
                    rejected += 1;
                }
                Err(e) => panic!("expected Overloaded, got {e}"),
            }
            // Bounded queue memory at every instant.
            assert!(plane.pending_len() <= depth * tenants as usize);
        }
    }
    assert_eq!(accepted, u64::from(tenants) * depth as u64);
    assert_eq!(rejected, u64::from(tenants) * (2 * depth) as u64);
    let done = plane.run_until(SimTime::from_secs_f64(0.05));
    assert_eq!(done.len() as u64, accepted, "every accepted query completes");
    let m = plane.metrics();
    assert_eq!(m.counter_named("serving.accepted"), Some(accepted));
    assert_eq!(m.counter_named("serving.rejected_queue_full"), Some(rejected));
}

#[test]
fn virtual_lag_backpressure_kicks_in_and_recovers() {
    let (layout, src) = healthy_fleet();
    let mut plane = ServingPlane::new(
        ServingConfig {
            workers: 2,
            tenant_queue_depth: 1024,
            // Each query "costs" 10 ms against a 5 ms wave: two workers
            // fall behind immediately once a wave carries > 1 query.
            service_time: SimDuration::from_millis(10),
            max_virtual_lag: SimDuration::from_millis(15),
            racks_per_shard: 2,
            ..ServingConfig::default()
        },
        layout,
        src,
    );
    // Wave 0: 8 queries → 4 per worker → 40 ms of virtual work against
    // a 5 ms quantum. Lag after the wave: 35 ms > the 15 ms bound.
    for t in 0..8u32 {
        plane.submit(TenantId(t % 4), rack_query(t % 4), SimTime::ZERO).unwrap();
    }
    plane.run_until(SimTime::ZERO + SimDuration::from_millis(5));
    assert!(plane.virtual_lag() > SimDuration::from_millis(15));
    let err = plane
        .submit(TenantId(0), rack_query(0), SimTime::ZERO + SimDuration::from_millis(5))
        .unwrap_err();
    match err {
        ServerError::Overloaded { retry_after } => {
            assert_eq!(retry_after, plane.virtual_lag(), "hint = current lag");
        }
        e => panic!("expected Overloaded, got {e}"),
    }
    // Idle waves drain the lag; admission recovers.
    plane.run_until(SimTime::from_secs_f64(0.1));
    assert_eq!(plane.virtual_lag(), SimDuration::ZERO);
    plane
        .submit(TenantId(0), rack_query(0), SimTime::from_secs_f64(0.1))
        .unwrap();
    assert!(plane.metrics().counter_named("serving.rejected_overload") >= Some(1));
}

#[test]
fn shed_waves_keep_reporting_data_quality() {
    // Healthy data + shedding: rung stays Full, shed is flagged.
    let (layout, src) = healthy_fleet();
    let mut plane = ServingPlane::new(
        ServingConfig {
            workers: 2,
            shed_wave_backlog: 0,
            racks_per_shard: 2,
            ..ServingConfig::default()
        },
        layout,
        src,
    );
    plane.submit(TenantId(0), rack_query(0), SimTime::ZERO).unwrap();
    let done = plane.run_until(SimTime::from_secs_f64(0.01));
    let a = done[0].result.as_ref().unwrap();
    assert!(a.provenance.shed);
    assert_eq!(a.provenance.backend, Backend::Heuristic);
    let rung = a.provenance.rung;
    assert_eq!(rung, DegradationRung::Full, "shedding is not staleness");

    // Half-dark data + shedding: the rung degrades and says so — no
    // silent staleness behind the shed flag.
    let (layout, src) = half_dark_fleet();
    let mut plane = ServingPlane::new(
        ServingConfig {
            workers: 2,
            shed_wave_backlog: 0,
            racks_per_shard: 2,
            ..ServingConfig::default()
        },
        layout,
        src,
    );
    plane.submit(TenantId(0), rack_query(0), SimTime::ZERO).unwrap();
    let done = plane.run_until(SimTime::from_secs_f64(0.01));
    let a = done[0].result.as_ref().unwrap();
    assert!(a.provenance.shed);
    assert!(
        a.provenance.rung != DegradationRung::Full,
        "half the fleet dark must degrade the rung, got {:?}",
        a.provenance.rung
    );
    assert!(a.freshness < 0.7, "freshness must reflect the dark hosts");
    assert!(a.missing > 0, "missing hosts must be reported");
}

#[test]
fn accepted_queries_meet_rung_contract_under_saturation() {
    // Saturate a 2-worker plane with fresh data: every *accepted* query
    // still answers on the Full rung (shed or not) — backpressure must
    // never be paid for with silently degraded data.
    let (layout, src) = healthy_fleet();
    let mut plane = ServingPlane::new(
        ServingConfig {
            workers: 2,
            tenant_queue_depth: 8,
            shed_wave_backlog: 4,
            racks_per_shard: 2,
            ..ServingConfig::default()
        },
        layout,
        src,
    );
    let mut accepted = 0u64;
    for wave in 0..5u64 {
        let at = SimTime::ZERO + SimDuration::from_millis(5 * wave);
        for t in 0..4u32 {
            for _ in 0..3 {
                if plane.submit(TenantId(t), rack_query(t), at).is_ok() {
                    accepted += 1;
                }
            }
        }
    }
    let done = plane.run_until(SimTime::from_secs_f64(0.1));
    assert_eq!(done.len() as u64, accepted);
    let mut shed_seen = false;
    for c in &done {
        let a = c.result.as_ref().unwrap();
        let rung = a.provenance.rung;
        assert_eq!(rung, DegradationRung::Full, "fresh data stays Full");
        assert_eq!(a.provenance.shed, c.shed);
        shed_seen |= c.shed;
    }
    assert!(shed_seen, "12-query waves over a backlog of 4 must shed");
}
