//! Oracle for the freshness score of a full status gather.
//!
//! A snapshot's freshness is the mean staleness decay over every host it
//! interrogated, missing hosts counting 0, summed in the order the replies
//! arrive: the first round's replies in address order, then each retry
//! round's recoveries. Float addition is not associative, so that order
//! shows in the last bit once the ages differ and a retry recovers a host
//! from the middle of the list.
//!
//! The reference shares no code with the serving plane's gather beyond the
//! public transport: `transport::scatter_gather_retry` over an identical
//! source, then a plain loop over its replies. A `ServingPlane` over a
//! source with no change view gathers every due shard in full; each wave
//! asks one query per shard, and every answer's `freshness` must equal the
//! reference for its shard's latest gather, bit for bit. The source's
//! hosts report unequal ages, straggle for one to three polls (so a retry
//! recovers them, or none does under `RetryPolicy::NONE`) or never answer.
//!
//! Lives in the root package so tier-1 `cargo test -q` reaches it.

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::messages::OverheadLedger;
use cloudtalk::serving::{ServingConfig, ServingPlane, TenantId};
use cloudtalk::status::{StatusReport, StatusSource};
use cloudtalk::transport::{scatter_gather_retry, RetryPolicy};
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::Address;
use desim::rng::{stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use estimator::HostState;
use rand::Rng;

/// A host's fixed behaviour: the age of its reports, how many of its
/// first polls go unanswered, and whether it answers at all.
#[derive(Clone, Copy, Debug)]
struct Host {
    age: SimDuration,
    straggle: u32,
    silent: bool,
}

/// Hosts `1..=n`, each answering as its [`Host`] says. No change view.
#[derive(Clone, Debug)]
struct Straggly {
    hosts: Vec<Host>,
    polls: Vec<u32>,
}

impl StatusSource for Straggly {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        let i = (addr.0 as usize).checked_sub(1)?;
        let host = self.hosts.get(i)?;
        self.polls[i] += 1;
        if host.silent || self.polls[i] <= host.straggle {
            return None;
        }
        let state = HostState::gbps_idle().with_up_load(f64::from(addr.0 % 5) / 10.0);
        Some(StatusReport {
            state,
            age: host.age,
        })
    }
}

fn straggly(rng: &mut DetRng, n: usize) -> Straggly {
    let hosts = (0..n)
        .map(|_| Host {
            age: SimDuration::from_micros(rng.gen_range(0..3_000_000)),
            straggle: if rng.gen_bool(0.25) {
                rng.gen_range(1..=3)
            } else {
                0
            },
            silent: rng.gen_bool(0.05),
        })
        .collect();
    Straggly {
        hosts,
        polls: vec![0; n],
    }
}

/// `count` racks of 1 to 9 hosts, numbered from 1.
fn racks(rng: &mut DetRng, count: usize) -> Vec<Vec<Address>> {
    let mut next = 1;
    (0..count)
        .map(|_| {
            let n = rng.gen_range(1..=9u32);
            let rack = (next..next + n).map(Address).collect();
            next += n;
            rack
        })
        .collect()
}

/// The reference: one full gather of `addrs` through the public transport,
/// freshness summed reply by reply.
fn reference(source: &mut Straggly, addrs: &[Address], cfg: &ServingConfig) -> f64 {
    let mut rng = stream_rng(0, 0);
    let mut ledger = OverheadLedger::default();
    let out = scatter_gather_retry(source, addrs, &cfg.server.transport, &mut rng, &mut ledger);
    let mut sum = 0.0;
    for (_, report) in &out.replies {
        sum += cfg.server.degradation.decay(report.age);
    }
    sum / addrs.len() as f64
}

/// Drives one plane for twelve waves, refreshing every shard every other
/// wave, and checks each answer's freshness against the reference.
/// Returns how many answers were checked.
fn drive(seed: u64) -> usize {
    let mut rng = stream_rng(seed, 0xF2E5);
    let per_shard = rng.gen_range(1..=3usize);
    let count = rng.gen_range(2..=8);
    let racks = racks(&mut rng, count);
    let shards: Vec<Vec<Address>> = racks.chunks(per_shard).map(|c| c.concat()).collect();
    let quantum = SimDuration::from_millis(5);
    let mut cfg = ServingConfig {
        workers: 1,
        racks_per_shard: per_shard,
        wave_quantum: quantum,
        snapshot_refresh: SimDuration::from_millis(10),
        seed,
        ..ServingConfig::default()
    };
    cfg.server.reservation_hold = None;
    cfg.server.cache.enabled = false;
    cfg.server.transport.retry = match seed % 3 {
        0 => RetryPolicy::NONE,
        1 => RetryPolicy::default(),
        _ => RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        },
    };
    let source = straggly(&mut rng, racks.iter().map(Vec::len).sum());
    let mut oracle = source.clone();
    let mut plane = ServingPlane::new(cfg.clone(), FleetLayout::grouped(racks), source);
    let mut expected: Vec<f64> = shards
        .iter()
        .map(|addrs| reference(&mut oracle, addrs, &cfg))
        .collect();
    let mut checked = 0;
    for wave in 0..12u64 {
        let at = SimTime::ZERO + quantum * wave;
        let close = at + quantum;
        // The plane refreshes every shard at the waves that close at
        // 10 ms, 20 ms, …, before answering them.
        if wave % 2 == 1 {
            for (addrs, want) in shards.iter().zip(&mut expected) {
                *want = reference(&mut oracle, addrs, &cfg);
            }
        }
        for (si, addrs) in shards.iter().enumerate() {
            let problem = hdfs_write_query(Address(10_000), addrs, 1, 1e6)
                .resolve()
                .expect("a write resolves");
            plane
                .submit(TenantId(si as u32), problem, at)
                .expect("admitted");
        }
        for done in plane.run_until(close) {
            let shard = done.tenant.0 as usize;
            let answer = done.result.expect("answered");
            assert_eq!(
                answer.freshness.to_bits(),
                expected[shard].to_bits(),
                "seed {seed}, wave {wave}, shard {shard}: freshness {} vs reference {}",
                answer.freshness,
                expected[shard],
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn a_full_gather_sums_freshness_in_reply_order() {
    let checked: usize = (0..60).map(drive).sum();
    assert!(checked > 60 * 12, "checked {checked} answers");
}
