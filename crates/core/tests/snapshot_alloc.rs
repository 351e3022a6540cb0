//! Pins the full status gather's allocations to the heap: a
//! `CloudTalkServer::take_snapshot` of 20 hosts and one of 300 allocate
//! the same number of times, because the snapshot's world and its ages
//! are built at the reply count rather than grown insert by insert.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counters.

use cloudtalk::server::{CloudTalkServer, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk::transport::TransportConfig;
use cloudtalk_lang::problem::Address;
use estimator::HostState;
use testkit::allocs_of;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

#[test]
fn a_full_gather_allocates_the_same_for_20_and_300_hosts() {
    let snapshot_allocs = |hosts: u32| {
        let addrs: Vec<Address> = (1..=hosts).map(Address).collect();
        let mut source = TableStatusSource::new();
        for &a in &addrs {
            source.set(a, HostState::gbps_idle().with_up_load(0.3));
        }
        let mut server = CloudTalkServer::new(ServerConfig {
            transport: TransportConfig::local(),
            ..ServerConfig::default()
        });
        // Warm-up: whatever the first gather sets up once is not counted.
        server.take_snapshot(&addrs, &mut source);
        let (allocs, _, snapshot) = allocs_of(|| server.take_snapshot(&addrs, &mut source));
        drop(snapshot);
        allocs
    };
    let (small, large) = (snapshot_allocs(20), snapshot_allocs(300));
    assert_eq!(
        small, large,
        "a full gather's allocations must not grow with its host count"
    );
}
