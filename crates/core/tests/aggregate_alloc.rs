//! Pins the change-driven status plane's cost claims to the heap:
//!
//! * a steady-state sync with nothing changed allocates a count that does
//!   not depend on the number of racks (50 vs 500) — clean racks are
//!   advanced in place, only the per-sync trace is built;
//! * a sync after 1 or 64 host changes spread over healthy racks
//!   allocates that same count: a healthy rack polls its changed hosts into
//!   the plane's buffer and writes them into its view, and no delta is
//!   built — also warm, once a sync has folded 64 changes over 64 racks;
//! * a `TableStatusSource` whose change view nobody drains stays bounded
//!   by its table: 10⁶ writes over 1 000 hosts keep the bookkeeping at
//!   O(hosts), because a written host is flagged, not logged (and before
//!   the view's first drain nothing is kept at all).
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counters.

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig};
use cloudtalk::status::{StatusSource, TableStatusSource};
use cloudtalk_lang::problem::Address;
use desim::SimTime;
use estimator::HostState;
use testkit::allocs_of;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

const HOSTS_PER_RACK: usize = 40;

fn primed_plane(racks: usize) -> AggregationPlane<TableStatusSource> {
    let addrs: Vec<Address> = (1..=(racks * HOSTS_PER_RACK) as u32).map(Address).collect();
    let mut source = TableStatusSource::new();
    for &a in &addrs {
        source.set(a, HostState::gbps_idle());
    }
    let layout = FleetLayout::uniform(&addrs, HOSTS_PER_RACK);
    let mut plane = AggregationPlane::new(layout, source, PlaneConfig::default());
    plane.sync(SimTime::ZERO);
    plane.sync(SimTime::from_secs_f64(1.0));
    plane
}

#[test]
fn idle_sync_allocations_ignore_rack_count_and_undrained_writes_stay_bounded() {
    let idle_sync = |racks: usize| {
        let mut plane = primed_plane(racks);
        let (allocs, _, ()) = allocs_of(|| plane.sync(SimTime::from_secs_f64(2.0)));
        assert_eq!(
            plane.metrics().counter_named("gather.agg.racks_clean"),
            Some(2 * racks as u64),
            "both idle syncs settled every rack in place"
        );
        allocs
    };
    let (small, large) = (idle_sync(50), idle_sync(500));
    assert_eq!(
        small, large,
        "an idle sync's allocations must not grow with the fleet"
    );
    assert!(
        small <= 4,
        "an idle sync builds its trace and nothing else: {small}"
    );

    // Changes spread over the racks: each changed host's rack takes rung 1
    // without the ladder and polls that host alone.
    let dirty_sync = |racks: usize, changes: usize| {
        let mut plane = primed_plane(racks);
        let stride = racks * HOSTS_PER_RACK / changes;
        for i in 0..changes {
            let addr = Address((i * stride + i % HOSTS_PER_RACK + 1) as u32);
            plane
                .source_mut()
                .set(addr, HostState::gbps_idle().with_up_load(0.5));
        }
        let repolled = plane.metrics().counter_named("gather.agg.hosts_repolled");
        let (allocs, _, ()) = allocs_of(|| plane.sync(SimTime::from_secs_f64(2.0)));
        assert_eq!(
            plane.metrics().counter_named("gather.agg.hosts_repolled"),
            repolled.map(|n| n + changes as u64),
            "{racks} racks, {changes} changes: only the changed hosts were polled"
        );
        assert_eq!(
            plane.metrics().counter_named("gather.agg.delta_hosts"),
            Some(changes as u64),
            "{racks} racks, {changes} changes: each change reached the view"
        );
        allocs
    };
    for racks in [50, 500] {
        for changes in [1, 64] {
            assert_eq!(
                dirty_sync(racks, changes),
                small,
                "{racks} racks, {changes} changes: a healthy rack's sync allocates nothing"
            );
        }
    }

    // Warm: once a sync has folded 64 changes over 64 racks (and grown
    // every buffer it keeps), the next such sync allocates exactly as an
    // idle one does: each dirty rack's changes land in the fleet-wide
    // snapshot and view tables in place.
    let warm_sync = |racks: usize| {
        let mut plane = primed_plane(racks);
        let churn = |plane: &mut AggregationPlane<TableStatusSource>, round: usize| {
            for i in 0..64 {
                let host = (i * racks / 64) * HOSTS_PER_RACK + (round * 7 + i) % HOSTS_PER_RACK;
                let load = HostState::gbps_idle().with_up_load(0.1 * round as f64 + 0.05);
                plane.source_mut().set(Address(host as u32 + 1), load);
            }
        };
        churn(&mut plane, 1);
        plane.sync(SimTime::from_secs_f64(2.0));
        churn(&mut plane, 2);
        let clean = |plane: &AggregationPlane<_>| {
            plane
                .metrics()
                .counter_named("gather.agg.racks_clean")
                .expect("registered")
        };
        let before = clean(&plane);
        let (allocs, _, ()) = allocs_of(|| plane.sync(SimTime::from_secs_f64(3.0)));
        let folded = racks as u64 - (clean(&plane) - before);
        assert!(
            folded >= 50,
            "{racks} racks: the changes dirtied {folded} racks"
        );
        allocs
    };
    for racks in [64, 500] {
        assert_eq!(
            warm_sync(racks),
            small,
            "{racks} racks: a warm sync folding 64 changes allocates as an idle one"
        );
    }

    // A million writes nobody drains: before anyone asks for the change
    // view nothing is tracked, afterwards the bookkeeping is a set of the
    // addresses written, not a log of the writes (4 MB here).
    const HOSTS: u32 = 1_000;
    let mut source = TableStatusSource::new();
    for i in 0..HOSTS {
        source.set(Address(i), HostState::gbps_idle());
    }
    let write_a_million = |source: &mut TableStatusSource| {
        let (_, bytes, ()) = allocs_of(|| {
            for i in 0..1_000_000u32 {
                let load = f64::from(i % 10) / 10.0;
                source.set(
                    Address(i % HOSTS),
                    HostState::gbps_idle().with_up_load(load),
                );
                if i % 7 == 0 {
                    source.silence(Address((i / 7) % HOSTS));
                }
            }
        });
        bytes
    };
    assert_eq!(
        write_a_million(&mut source),
        0,
        "no consumer, no bookkeeping"
    );
    let mut changed = Vec::new();
    assert!(source.drain_changed(&mut changed));
    assert!(
        changed.len() <= HOSTS as usize,
        "the first drain lists the table, not the writes"
    );
    let listing = u64::from(HOSTS) * std::mem::size_of::<Address>() as u64;
    let bytes = write_a_million(&mut source);
    assert!(
        bytes <= 16 * listing,
        "undrained writes must stay O(hosts): {bytes} B for a {listing} B listing"
    );
    changed.clear();
    assert!(source.drain_changed(&mut changed));
    assert_eq!(
        changed.len(),
        HOSTS as usize,
        "each written host listed once"
    );
}
