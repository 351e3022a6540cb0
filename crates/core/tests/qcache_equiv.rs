//! Answer-cache equivalence suite (the ISSUE 9 soundness contract).
//!
//! The cache's hard requirement: **a hit must be bit-identical to the
//! miss it replaces**, at every worker count, under snapshot refreshes
//! and reservation-ledger churn. The suite replays random submission
//! schedules — repeat-heavy traffic, random arrival gaps, shard refresh
//! intervals short enough that several refreshes interleave with the
//! waves, reservation holds publishing ledger versions between waves —
//! against planes with the cache on and off, at 1, 2 and 8 workers:
//!
//! * **Bit-identical answers**: for every `(tenant, seq)` the full
//!   `Answer` (binding, scores, provenance counters, span tree) is
//!   equal across `{cache on, cache off} × {1, 2, 8 workers}`. The
//!   cache may only change latency and the `cache_hit` provenance flag
//!   (excluded from `Provenance` equality), never results.
//! * **No stale hit, ever**: after every drain `cache.stale_hit == 0`
//!   (every hit's stored epoch matched the live snapshot epoch) and no
//!   L2 entry keyed on a dead epoch survives a drain.
//! * The pinned repeat-heavy schedule actually *hits* — the equivalence
//!   claim is vacuous if the cache never fires.

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::serving::{ServingConfig, ServingPlane, TenantId};
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

/// A repeat-heavy random schedule: a handful of query *shapes* (one per
/// rack) shared by every tenant, so distinct tenants and waves keep
/// re-asking structurally identical questions — the traffic an answer
/// cache exists for. `spread` widens the shape pool (more misses).
fn schedule(seed: u64, tenants: u32, n: usize, spread: u32) -> Vec<Sub> {
    let mut rng = stream_rng(seed, 0x9CAC);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|_| {
            t += SimDuration::from_micros(rng.gen_range(0..2500u64));
            let tenant = TenantId(rng.gen_range(0..tenants));
            let rack = rng.gen_range(0..spread.max(1)) % RACKS;
            let base = rack * HOSTS_PER_RACK + 1;
            let nodes: Vec<Address> = (base..base + HOSTS_PER_RACK).map(Address).collect();
            // One fixed source per rack shape — *not* per tenant — so
            // repeats collide on the exact post-sampling problem.
            let problem = hdfs_write_query(Address(5000 + rack), &nodes, 2, 1e6)
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

type Fingerprint = (u32, u64, Result<Answer, String>);

struct RunOut {
    fps: Vec<Fingerprint>,
    hits: u64,
    misses: u64,
}

/// Replays `subs` on a plane, draining after every submission. Checks
/// the stale-hit and dead-entry audits at every drain step.
fn run(
    workers: usize,
    cache_on: bool,
    refresh_ms: u64,
    subs: &[Sub],
) -> Result<RunOut, TestCaseError> {
    let (layout, src) = fleet();
    let mut cfg = ServingConfig {
        workers,
        racks_per_shard: 2,
        wave_quantum: SimDuration::from_millis(5),
        snapshot_refresh: SimDuration::from_millis(refresh_ms),
        // Admission out of play: capacity-dependent rejection would make
        // acceptance differ between the (faster) cached and uncached
        // arms; admission behaviour is the admission suite's job.
        max_virtual_lag: SimDuration::from_secs_f64(1e6),
        ..ServingConfig::default()
    };
    cfg.server.cache.enabled = cache_on;
    let mut plane = ServingPlane::new(cfg, layout, src);
    let mut fps: Vec<Fingerprint> = Vec::new();
    let drain = |plane: &mut ServingPlane<TableStatusSource>,
                     until: SimTime,
                     fps: &mut Vec<Fingerprint>|
     -> Result<(), TestCaseError> {
        for c in plane.run_until(until) {
            fps.push((c.tenant.0, c.seq, c.result.map_err(|e| e.to_string())));
        }
        let cs = plane.cache_stats();
        prop_assert_eq!(cs.stale_hits, 0, "stale hit observed: {:?}", cs);
        prop_assert_eq!(cs.l2_dead, 0, "dead-epoch L2 entry survived a drain: {:?}", cs);
        Ok(())
    };
    for s in subs {
        let _ = plane.submit(s.tenant, s.problem.clone(), s.arrival);
        drain(&mut plane, s.arrival, &mut fps)?;
    }
    let end = subs.last().map_or(SimTime::ZERO, |s| s.arrival) + SimDuration::from_millis(40);
    drain(&mut plane, end, &mut fps)?;
    fps.sort_by_key(|a| (a.0, a.1));
    let cs = plane.cache_stats();
    if !cache_on {
        prop_assert_eq!(cs.hits() + cs.misses, 0, "disabled cache was consulted");
    }
    Ok(RunOut {
        fps,
        hits: cs.hits(),
        misses: cs.misses,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random repeat-heavy schedules with interleaved shard refreshes
    /// and reservation publications: cache-on answers are bit-identical
    /// to cache-off answers at 1, 2 and 8 workers, with zero stale hits.
    #[test]
    fn cache_on_equals_cache_off_at_1_2_8_workers(
        seed in any::<u64>(),
        tenants in 1u32..6,
        n in 5usize..32,
        spread in 1u32..10,
        refresh_idx in 0usize..3,
    ) {
        let refresh_ms = [3u64, 7, 20][refresh_idx];
        let subs = schedule(seed, tenants, n, spread);
        let base = run(1, false, refresh_ms, &subs)?;
        for workers in [1usize, 2, 8] {
            let off = run(workers, false, refresh_ms, &subs)?;
            let on = run(workers, true, refresh_ms, &subs)?;
            prop_assert_eq!(base.fps.len(), on.fps.len());
            prop_assert_eq!(off.fps.len(), on.fps.len());
            for ((a, b), c) in base.fps.iter().zip(&off.fps).zip(&on.fps) {
                prop_assert_eq!(
                    a, c,
                    "cached answer differs from 1-worker uncached at {} workers \
                     for (tenant {}, seq {})",
                    workers, a.0, a.1
                );
                prop_assert_eq!(b, c, "cached answer differs from uncached");
            }
        }
    }
}

/// Fixed-seed repeat-heavy smoke: equivalence plus a *non-vacuous*
/// hit count — the schedule reuses four shapes across tenants, so the
/// cache must fire many times.
#[test]
fn pinned_repeat_heavy_schedule_hits_and_matches() {
    let subs = schedule(0x9CAC_4E11, 4, 60, 4);
    let base = run(1, false, 20, &subs).unwrap();
    assert_eq!(base.fps.len(), 60, "every accepted query completes");
    let mut total_hits = 0;
    for workers in [1usize, 2, 8] {
        let on = run(workers, true, 20, &subs).unwrap();
        assert_eq!(base.fps, on.fps, "divergence at {workers} workers");
        assert!(
            on.hits + on.misses >= 60,
            "cache not consulted at {workers} workers"
        );
        total_hits += on.hits;
    }
    assert!(
        total_hits > 0,
        "repeat-heavy schedule never hit the cache — equivalence is vacuous"
    );
}
