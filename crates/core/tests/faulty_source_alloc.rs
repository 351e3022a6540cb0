//! Pins a `FaultySource`'s cost for the hosts its plan does not name to
//! nothing: polling 1 000 such hosts, none of them polled before, through
//! a source whose plan faults other hosts allocates nothing. A poll looks
//! its host up in the plan once and hands an unnamed host straight to the
//! inner source; only named hosts count their polls.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counters.

use cloudtalk::faults::{Corruption, FaultPlan, FaultySource, Window};
use cloudtalk::status::{StatusSource, TableStatusSource};
use cloudtalk_lang::problem::Address;
use desim::{SimDuration, SimTime};
use estimator::HostState;
use testkit::allocs_of;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

const UNNAMED: u32 = 1_000;

#[test]
fn polling_hosts_the_plan_does_not_name_allocates_nothing() {
    let named: Vec<Address> = (UNNAMED + 1..=UNNAMED + 4).map(Address).collect();
    let mut table = TableStatusSource::new();
    for a in (1..=UNNAMED).map(Address).chain(named.iter().copied()) {
        table.set(a, HostState::gbps_idle());
    }
    let plan = FaultPlan::none()
        .crash(named[0], Window::always())
        .straggle(named[1], 2)
        .stale(named[2], SimDuration::from_millis(500))
        .corrupt(named[3], Corruption::NanUsage);
    let mut source = FaultySource::new(table, plan);
    // Warm-up: the gatherer's clock and a poll of every named host.
    source.advance_to(SimTime::from_secs_f64(1.0));
    for &a in &named {
        source.poll_report(a);
    }
    let (allocs, bytes, answered) = allocs_of(|| {
        (1..=UNNAMED)
            .filter(|&i| source.poll_report(Address(i)).is_some())
            .count()
    });
    assert_eq!(answered, UNNAMED as usize, "unnamed hosts answer");
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "polling hosts the plan does not name must not allocate"
    );
}
