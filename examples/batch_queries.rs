//! Batched queries: a scheduler placing a wave of tasks asks once.
//!
//! One tenant wants three idle servers, one per 256 MB transfer. Asked
//! one by one, a `CloudTalkServer` would pay one status scatter-gather
//! round per query. The serving plane batches instead: queries that
//! arrive within one wave are answered against their shard's snapshot,
//! gathered once per shard, and the tenant's same-wave pseudo-reservations
//! steer the three answers onto *different* idle machines.
//!
//! ```text
//! cargo run --example batch_queries
//! ```

use cloudtalk_repro::core::aggregate::FleetLayout;
use cloudtalk_repro::core::messages::LedgerCounters;
use cloudtalk_repro::core::serving::{ServingConfig, ServingPlane, TenantId};
use cloudtalk_repro::core::status::TableStatusSource;
use cloudtalk_repro::lang::problem::{Address, Problem, Value};
use cloudtalk_repro::lang::{parse_query, resolve, MapResolver};
use desim::SimTime;
use estimator::HostState;

fn problem(text: &str) -> Problem {
    resolve(&parse_query(text).expect("parses"), &MapResolver::new()).expect("resolves")
}

fn main() {
    // One rack: the client 10.0.0.1 and four candidate servers, of which
    // 10.0.0.5 is busy receiving.
    let fleet: Vec<Address> = (1u32..=5).map(|a| Address(0x0A000000 + a)).collect();
    let mut status = TableStatusSource::new();
    for &a in &fleet {
        status.set(a, HostState::gbps_idle());
    }
    status.set(
        Address(0x0A000005),
        HostState::gbps_idle().with_down_load(0.9),
    );

    // The plane gathers every shard's snapshot once when it starts.
    let cfg = ServingConfig::default();
    let wave = cfg.wave_quantum;
    let mut plane = ServingPlane::new(cfg, FleetLayout::uniform(&fleet, 5), status);

    // Three identical placement queries from one tenant — a wave of tasks.
    let pool = "(10.0.0.2 10.0.0.3 10.0.0.4 10.0.0.5)";
    for i in 1..=3 {
        let p = problem(&format!("X = {pool}\nf{i} 10.0.0.1 -> X size 256M"));
        plane
            .submit(TenantId(0), p, SimTime::ZERO)
            .expect("admitted");
    }

    for (i, done) in plane.run_until(SimTime::ZERO + wave).iter().enumerate() {
        let a = done.result.as_ref().expect("well-formed query");
        let placed = match a.binding[0] {
            Value::Addr(addr) => addr.to_string(),
            Value::Disk => "disk".into(),
        };
        println!(
            "task {}: X = {placed}  (wave {}, shard {})",
            i + 1,
            done.wave,
            done.shard
        );
    }
    let mut metrics = plane.metrics();
    let ledger = LedgerCounters::register(&mut metrics).ledger(&metrics);
    println!(
        "\nstatus traffic for the whole wave: {} bytes (one gather for each of {} shard(s))",
        ledger.status_bytes(),
        plane.shard_count()
    );
}
