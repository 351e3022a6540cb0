//! Pins the zero-allocation invariant of the engine's steady state: once
//! warm (route cache populated, slab, live list, demand pool and scratch at
//! their high-water capacity), a start → advance → complete → cancel churn
//! cycle must not touch the heap. This extends the estimator's counting-allocator test
//! (`crates/estimator/tests/alloc_free.rs`) to the simulation engine
//! itself, as pinned down in the incremental-engine rework.
//!
//! `TransferSpec` construction allocates by design (the segment vector),
//! so the measured cycles consume specs pre-built outside the measured
//! window; moving a spec into `NetSim::start` performs no allocation.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.
//!
//! The measured window also exercises the observability surface: a warm
//! `obs::Trace` records one span per cycle and the engine's exported
//! metrics are read back through the registry — proving that tracing and
//! metric reads stay off the heap too.

use desim::SimDuration;
use obs::{ManualClock, Trace};
use simnet::topology::TopoOptions;
use simnet::{HostId, NetSim, Topology, TransferId, TransferSpec, GBPS};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

/// The nine specs one churn cycle starts: a burst of seven (five plain
/// finite transfers, a pipeline, an unbounded inelastic stream) and two
/// started while the burst drains. Nine starts per cycle is coprime with
/// the 64 ECMP buckets, so a 64-cycle warm-up visits every route-cache
/// entry the measured cycles can reach.
fn cycle_specs(h: &[HostId], cycle: usize) -> Vec<TransferSpec> {
    let payload = GBPS * (0.2 + 0.05 * (cycle % 4) as f64);
    vec![
        TransferSpec::network(h[0], h[2], payload),
        TransferSpec::network(h[1], h[2], payload * 1.5),
        TransferSpec::pipeline(h[3], &[h[4], h[5]], payload),
        TransferSpec::network(h[6], h[7], payload).with_cap(0.4 * GBPS),
        TransferSpec::read_and_send(h[5], h[0], payload),
        TransferSpec::network(h[7], h[1], f64::INFINITY).with_inelastic(0.3 * GBPS),
        TransferSpec::network(h[2], h[6], payload),
        TransferSpec::network(h[4], h[3], payload * 0.5),
        TransferSpec::send_and_store(h[1], h[7], payload),
    ]
}

/// One churn cycle: the burst of starts, mid-flight cancels of the head of
/// the live list and of an entry in the middle of it, then drive every
/// finite transfer to completion — starting the two late transfers on the
/// way, so appends interleave with removals from anywhere in the list —
/// and tear down the background stream. Returns completions observed.
fn churn_cycle(
    net: &mut NetSim,
    completions: &mut Vec<simnet::Completion>,
    specs: Vec<TransferSpec>,
) -> usize {
    let mut specs = specs.into_iter();
    let mut done = 0;
    let mut burst = [TransferId(0); 7];
    for id in &mut burst {
        *id = net.start(specs.next().unwrap());
    }
    let udp = burst[5];
    // Partial progress, then the cancels that dirty the rates.
    let mid = net.now() + SimDuration::from_secs_f64(0.05);
    net.advance_into(mid, completions);
    done += completions.len();
    for gone in [burst[0], burst[3]] {
        assert!(net.cancel(gone) || net.progress(gone).is_none());
    }
    // Drain all finite transfers.
    while let Some(t) = net.next_completion_time() {
        net.advance_into(t, completions);
        done += completions.len();
        if let Some(late) = specs.next() {
            net.start(late);
        }
    }
    assert!(net.cancel(udp));
    done
}

#[test]
fn engine_steady_state_is_allocation_free() {
    let mut net = NetSim::new(Topology::single_switch(8, GBPS, TopoOptions::default()));
    let hosts = net.hosts();
    let mut completions: Vec<simnet::Completion> = Vec::new();

    // Warm-up: 64 cycles walk the full ECMP bucket space for every
    // (src, dst) pair the cycle uses, and push the slab, the live list,
    // the demand pool and every scratch vector to its high-water capacity.
    let mut warm_done = 0;
    for cycle in 0..64 {
        warm_done += churn_cycle(&mut net, &mut completions, cycle_specs(&hosts, cycle));
    }
    assert!(warm_done > 0, "warm-up must complete transfers");
    assert_eq!(net.active_count(), 0);

    // Specs for the measured cycles are built while allocations are still
    // allowed; the cycles below only move them into the engine.
    let measured_specs: Vec<Vec<TransferSpec>> = (64..96)
        .map(|cycle| cycle_specs(&hosts, cycle))
        .collect();

    // A warm trace: arena sized up front, clock boxed outside the window.
    let mut trace = Trace::new(4, Box::new(ManualClock::with_step(1_000)));

    // Measured: the same churn must perform zero heap allocations —
    // including the per-cycle span recording and metric reads.
    net.reset_stats();
    let mut measured_done = 0;
    let mut spans_recorded = 0usize;
    let (allocs, _, rated) = testkit::allocs_of(|| {
        for specs in measured_specs {
            trace.reset();
            let cycle_span = trace.begin("churn_cycle", net.now());
            measured_done += churn_cycle(&mut net, &mut completions, specs);
            trace.set_arg(cycle_span, "completions", measured_done as u64);
            trace.end(cycle_span, net.now());
            spans_recorded += trace.len();
        }
        net.metrics().counter_named("engine.demands_rated")
    });
    let stats = net.stats();
    // 8 finite starts per cycle, at most two removed by the cancels.
    assert!(measured_done >= 32 * 6, "cycles must complete their transfers");
    assert!(stats.allocator_calls > 0, "rates were recomputed: {stats:?}");
    assert!(stats.events > 0);
    assert_eq!(spans_recorded, 32, "one span per measured cycle");
    assert!(rated.unwrap() > 0, "registry read must see allocator work");
    assert_eq!(
        allocs, 0,
        "engine steady state allocated {allocs} times over 32 churn cycles ({stats:?})"
    );
}
