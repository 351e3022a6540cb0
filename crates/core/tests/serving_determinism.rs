//! Serving-plane determinism suite (the ISSUE 8 contract).
//!
//! A random schedule of tenant queries — random tenants, racks, replica
//! counts and Poisson-ish arrival gaps — is replayed against planes with
//! 1, 2 and 8 workers. The pinned invariants:
//!
//! * **Bit-identical answers**: for every `(tenant, seq)` the full
//!   `Answer` (binding, scores, provenance, span tree) is equal at every
//!   worker count. Worker count may only change *latency*, never
//!   results.
//! * **Identical admission**: with admission bounds not in play, the
//!   accepted/rejected split and the wave assignment of every query are
//!   worker-count independent.
//! * **Conflict-free ledger at every epoch**: after every drain step the
//!   published holds are strictly sorted by address and
//!   `conflicts == 0`.

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::serving::{ServingConfig, ServingPlane, TelemetryConfig, TenantId};
use cloudtalk::server::Answer;
use cloudtalk::status::TableStatusSource;
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use estimator::HostState;
use proptest::prelude::*;
use rand::Rng;

const RACKS: u32 = 8;
const HOSTS_PER_RACK: u32 = 4;

/// 8 racks × 4 hosts with a deterministic mix of load levels, so
/// placements are driven by data rather than ties.
fn fleet() -> (FleetLayout, TableStatusSource) {
    let addrs: Vec<Address> = (1..=RACKS * HOSTS_PER_RACK).map(Address).collect();
    let layout = FleetLayout::uniform(&addrs, HOSTS_PER_RACK as usize);
    let mut src = TableStatusSource::new();
    for &a in &addrs {
        let load = f64::from(a.0 % 5) * 0.2;
        src.set(a, HostState::gbps_idle().with_up_load(load));
    }
    (layout, src)
}

struct Sub {
    tenant: TenantId,
    arrival: SimTime,
    problem: Problem,
}

/// One seeded random submission schedule, generated once and replayed
/// verbatim for every worker count.
fn schedule(seed: u64, tenants: u32, n: usize) -> Vec<Sub> {
    let mut rng = stream_rng(seed, 0x5EED);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|_| {
            t += SimDuration::from_micros(rng.gen_range(0..2500u64));
            let tenant = TenantId(rng.gen_range(0..tenants));
            let rack = rng.gen_range(0..RACKS);
            let replicas = rng.gen_range(1..=2usize);
            let base = rack * HOSTS_PER_RACK + 1;
            let nodes: Vec<Address> = (base..base + HOSTS_PER_RACK).map(Address).collect();
            let problem = hdfs_write_query(Address(1000 + tenant.0), &nodes, replicas, 1e6)
                .resolve()
                .unwrap();
            Sub {
                tenant,
                arrival: t,
                problem,
            }
        })
        .collect()
}

fn check_ledger<S: cloudtalk::status::StatusSource>(
    plane: &ServingPlane<S>,
) -> Result<(), TestCaseError> {
    let stats = plane.ledger_stats();
    prop_assert_eq!(stats.conflicts, 0, "ledger conflict: {:?}", stats);
    let v = plane.ledger_version();
    prop_assert!(
        v.entries().windows(2).all(|w| w[0].0 .0 < w[1].0 .0),
        "ledger entries not strictly sorted at epoch {}",
        stats.epoch
    );
    Ok(())
}

type Fingerprint = (u32, u64, Result<Answer, String>);

/// Replays `subs` on a `workers`-wide plane, draining after every
/// submission and checking the ledger invariants at each step.
fn run(workers: usize, subs: &[Sub]) -> Result<(Vec<Fingerprint>, u64, u64), TestCaseError> {
    let (layout, src) = fleet();
    let cfg = ServingConfig {
        workers,
        racks_per_shard: 2,
        wave_quantum: SimDuration::from_millis(5),
        // Admission out of play: lag-based rejection is capacity
        // dependent by design, which would make acceptance sets differ
        // across worker counts (covered by the admission suite instead).
        max_virtual_lag: SimDuration::from_secs_f64(1e6),
        ..ServingConfig::default()
    };
    let mut plane = ServingPlane::new(cfg, layout, src);
    let mut fps: Vec<Fingerprint> = Vec::new();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let drain = |plane: &mut ServingPlane<TableStatusSource>,
                     until: SimTime,
                     fps: &mut Vec<Fingerprint>|
     -> Result<(), TestCaseError> {
        for c in plane.run_until(until) {
            fps.push((
                c.tenant.0,
                c.seq,
                c.result.map_err(|e| e.to_string()),
            ));
        }
        check_ledger(plane)
    };
    for s in subs {
        match plane.submit(s.tenant, s.problem.clone(), s.arrival) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
        drain(&mut plane, s.arrival, &mut fps)?;
    }
    let end = subs.last().map_or(SimTime::ZERO, |s| s.arrival) + SimDuration::from_millis(20);
    drain(&mut plane, end, &mut fps)?;
    fps.sort_by_key(|a| (a.0, a.1));
    Ok((fps, accepted, rejected))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tenant-query schedules at 1/2/8 workers: bit-identical
    /// answers per (tenant, seq), identical admission, and a
    /// conflict-free ledger at every epoch.
    #[test]
    fn answers_identical_at_1_2_8_workers(
        seed in any::<u64>(),
        tenants in 1u32..8,
        n in 5usize..40,
    ) {
        let subs = schedule(seed, tenants, n);
        let (base, acc0, rej0) = run(1, &subs)?;
        prop_assert_eq!(base.len() as u64, acc0, "every accepted query completes");
        for workers in [2usize, 8] {
            let (other, acc, rej) = run(workers, &subs)?;
            prop_assert_eq!(acc0, acc);
            prop_assert_eq!(rej0, rej);
            prop_assert_eq!(base.len(), other.len());
            for (a, b) in base.iter().zip(&other) {
                prop_assert_eq!(
                    a, b,
                    "answer differs at {} workers for (tenant {}, seq {})",
                    workers, a.0, a.1
                );
            }
        }
    }
}

/// A fixed-seed smoke of the same property, immune to proptest config.
#[test]
fn pinned_schedule_identical_across_worker_counts() {
    let subs = schedule(0xC10D_7A1C, 5, 30);
    let (base, acc, rej) = run(1, &subs).unwrap();
    assert_eq!(acc, 30);
    assert_eq!(rej, 0);
    assert_eq!(base.len(), 30);
    for workers in [2usize, 8] {
        let (other, ..) = run(workers, &subs).unwrap();
        assert_eq!(base, other, "divergence at {workers} workers");
    }
}

/// Replays `subs` with continuous telemetry on (1-in-4 trace sampling, a
/// p99 SLO, 10 ms windows), returning the answer fingerprints plus the
/// sampled-trace identity set `(tenant, seq, trace_id)`.
fn run_with_telemetry(workers: usize, subs: &[Sub]) -> (Vec<Fingerprint>, Vec<(u32, u64, u64)>) {
    let (layout, src) = fleet();
    let cfg = ServingConfig {
        workers,
        racks_per_shard: 2,
        wave_quantum: SimDuration::from_millis(5),
        max_virtual_lag: SimDuration::from_secs_f64(1e6),
        telemetry: TelemetryConfig {
            sample_every: 4,
            window: SimDuration::from_millis(10),
            slos: vec![obs::SloSpec::p99_latency_us(25_000.0)],
            ..TelemetryConfig::enabled()
        },
        ..ServingConfig::default()
    };
    let mut plane = ServingPlane::new(cfg, layout, src);
    let mut fps: Vec<Fingerprint> = Vec::new();
    let mut sampled: Vec<(u32, u64, u64)> = Vec::new();
    let mut drain = |plane: &mut ServingPlane<TableStatusSource>, until: SimTime| {
        for c in plane.run_until(until) {
            if let Some(ctx) = c.trace {
                sampled.push((c.tenant.0, c.seq, ctx.trace_id));
            }
            fps.push((c.tenant.0, c.seq, c.result.map_err(|e| e.to_string())));
        }
    };
    for s in subs {
        let _ = plane.submit(s.tenant, s.problem.clone(), s.arrival);
        drain(&mut plane, s.arrival);
    }
    let end = subs.last().map_or(SimTime::ZERO, |s| s.arrival) + SimDuration::from_millis(20);
    drain(&mut plane, end);
    assert!(
        plane.telemetry_stats().windows > 0 || plane.telemetry_dump().is_some(),
        "telemetry plane produced no windows"
    );
    fps.sort_by_key(|a| (a.0, a.1));
    sampled.sort_unstable();
    (fps, sampled)
}

/// ISSUE 10: the sampled trace-id set is a pure function of
/// `(seed, tenant, seq)` — identical at 1, 2 and 8 workers — and turning
/// telemetry on changes no answer bit.
#[test]
fn sampled_trace_set_identical_across_worker_counts() {
    let subs = schedule(0x7E1E_3715, 6, 40);
    let (plain, ..) = run(1, &subs).unwrap();
    let (base_fps, base_sampled) = run_with_telemetry(1, &subs);
    assert_eq!(
        plain, base_fps,
        "telemetry on/off answers must be bit-identical"
    );
    assert!(
        !base_sampled.is_empty() && base_sampled.len() < base_fps.len(),
        "1-in-4 sampling keeps a non-empty strict subset: {} of {}",
        base_sampled.len(),
        base_fps.len()
    );
    assert!(
        base_sampled.iter().all(|&(.., id)| id != 0),
        "trace ids are non-zero by construction"
    );
    for workers in [2usize, 8] {
        let (fps, sampled) = run_with_telemetry(workers, &subs);
        assert_eq!(base_fps, fps, "answer divergence at {workers} workers");
        assert_eq!(
            base_sampled, sampled,
            "sampled trace-id set divergence at {workers} workers"
        );
    }
}
