//! Pins the zero-allocation invariant of the packet loop: once a
//! simulator has run a flow set and been [`PktSim::reset`], running the
//! same set again must not touch the heap between its first and its last
//! `step()` — the port queues, the wire lanes, the three event queues
//! (port heap, start queue, timer queue) and the completion list all keep
//! their capacity across `reset`, and an event moves fixed-size entries
//! between them.
//!
//! The run is lossless (`with_pfc()`): without drops no packet arrives
//! out of order, so the receivers' reorder sets never insert, and the
//! per-port drop map stays empty.
//!
//! A counting `#[global_allocator]` wraps the system allocator (as in
//! `crates/simnet/tests/engine_alloc.rs`), so this file holds exactly one
//! `#[test]` — parallel tests would pollute the counter.

use desim::SimTime;
use pktsim::{PktSim, SimConfig};
use simnet::topology::{TopoOptions, Topology};
use simnet::GBPS;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

#[test]
fn warm_gather_steps_without_allocating() {
    let topo = Topology::two_tier(12, 10, GBPS, f64::INFINITY, TopoOptions::default());
    let hosts = topo.host_ids();
    let mut sim = PktSim::new(topo, SimConfig::default().with_pfc());
    let gather = |sim: &mut PktSim| {
        sim.reset();
        for &leaf in &hosts[40..90] {
            sim.add_flow(leaf, hosts[1], 10 * 1024, SimTime::ZERO);
        }
        let (allocs, _, steps) = testkit::allocs_of(|| {
            let mut steps = 0u64;
            while sim.step() {
                steps += 1;
            }
            steps
        });
        assert_eq!(sim.completed().len(), 50);
        assert_eq!(sim.stats().drops, 0);
        (steps, allocs)
    };

    let (warm_steps, _) = gather(&mut sim);
    let (steps, allocs) = gather(&mut sim);
    assert_eq!(steps, warm_steps, "reset replays the run");
    assert!(steps > 5_000, "a real run: {steps} events");
    assert_eq!(allocs, 0, "{allocs} heap allocations in {steps} steps");
}
