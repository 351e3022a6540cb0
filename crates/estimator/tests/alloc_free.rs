//! Pins the zero-allocation invariant of `estimate_with`: after warm-up,
//! re-estimating a problem under different bindings must not touch the
//! heap. This is the property that makes the Figure-3 inner loop (and the
//! exhaustive search built on it) scale; see `EstimatorScratch`.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.
//!
//! The measured sweep also records spans into a warm `obs::Trace` — the
//! hot estimator loop must stay allocation-free with tracing enabled,
//! which is what lets the server leave tracing on by default.

use cloudtalk_lang::builder::daisy_chain_query;
use cloudtalk_lang::problem::{Address, Value};
use desim::SimTime;
use estimator::{estimate, estimate_with, EstimatorScratch, HostState, World};
use obs::{ManualClock, Trace};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

#[test]
fn estimate_with_is_allocation_free_after_warmup() {
    let addrs: Vec<Address> = (1..=8).map(Address).collect();
    let problem = daisy_chain_query(&addrs, 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let mut world = World::uniform(&addrs, HostState::gbps_idle());
    // Non-uniform loads so different bindings exercise different resource
    // tables and round counts.
    for (i, &a) in addrs.iter().enumerate() {
        world.set(
            a,
            HostState::gbps_idle()
                .with_up_load(0.1 * (i % 7) as f64)
                .with_down_load(0.08 * (i % 9) as f64),
        );
    }

    let mut scratch = EstimatorScratch::new();
    let mut binding = vec![
        Value::Addr(addrs[0]),
        Value::Addr(addrs[1]),
        Value::Addr(addrs[2]),
    ];

    // Warm-up sweep: every distinct triple. Also checks bit-identity
    // against the allocating wrapper while allocations are still allowed.
    for i in 0..addrs.len() {
        for j in 0..addrs.len() {
            for k in 0..addrs.len() {
                if i == j || j == k || i == k {
                    continue;
                }
                binding[0] = Value::Addr(addrs[i]);
                binding[1] = Value::Addr(addrs[j]);
                binding[2] = Value::Addr(addrs[k]);
                let fast = estimate_with(&mut scratch, &problem, &binding, &world)
                    .expect("feasible binding");
                let slow = estimate(&problem, &binding, &world).expect("feasible binding");
                assert_eq!(fast.makespan.to_bits(), slow.makespan.to_bits());
                assert_eq!(fast.throughput.to_bits(), slow.throughput.to_bits());
                assert_eq!(scratch.flow_finish(), slow.flow_finish.as_slice());
                assert_eq!(fast.deadline_miss_count, slow.deadline_misses.len());
            }
        }
    }

    // A warm trace: arena sized up front, clock boxed before measuring.
    let mut trace = Trace::new(4, Box::new(ManualClock::with_step(250)));

    // Measured sweep: the same workload must perform zero allocations,
    // with a span recorded around every inner estimator sweep.
    let mut acc = 0.0f64;
    let mut spans_recorded = 0usize;
    let (allocs, _, ()) = testkit::allocs_of(|| for i in 0..addrs.len() {
        trace.reset();
        let sweep = trace.begin("estimate_sweep", SimTime::ZERO);
        for j in 0..addrs.len() {
            for k in 0..addrs.len() {
                if i == j || j == k || i == k {
                    continue;
                }
                binding[0] = Value::Addr(addrs[i]);
                binding[1] = Value::Addr(addrs[j]);
                binding[2] = Value::Addr(addrs[k]);
                let s = estimate_with(&mut scratch, &problem, &binding, &world)
                    .expect("feasible binding");
                acc += s.makespan;
            }
        }
        trace.set_arg(sweep, "outer_index", i as u64);
        trace.end(sweep, SimTime::ZERO);
        spans_recorded += trace.len();
    });
    assert!(acc > 0.0, "estimates must be non-trivial");
    assert_eq!(spans_recorded, addrs.len(), "one span per outer sweep");
    assert_eq!(allocs, 0, "estimate_with allocated {allocs} times after warm-up");
}
