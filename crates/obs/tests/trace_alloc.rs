//! Pins the zero-allocation contract of the warm observability path: once a
//! `Trace` arena and a `MetricsRegistry` are constructed (cold path, may
//! allocate), recording spans, bumping counters/gauges, observing
//! histograms, resetting, and reading values back must not touch the heap.
//! This is what lets the instrumented engine and estimator hot loops keep
//! their own counting-allocator guarantees with tracing enabled.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use desim::{SimDuration, SimTime};
use obs::{ManualClock, MetricsRegistry, Trace};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

fn t(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// One instrumented "query": a root span with three children, annotated,
/// plus a handful of metric updates — the same shape the server records.
fn record_query(trace: &mut Trace, reg: &mut MetricsRegistry, ids: &Ids, i: u64) {
    trace.reset();
    let root = trace.begin("answer", t(i));
    let a = trace.begin("collect", t(i));
    trace.set_arg(a, "rounds", 1 + i % 3);
    trace.end(a, t(i + 10));
    let b = trace.begin("search", t(i + 10));
    trace.set_arg(b, "enumerated", 64 + i);
    trace.end(b, t(i + 40));
    let c = trace.begin("bind", t(i + 40));
    trace.end(c, t(i + 50));
    trace.end(root, t(i + 50));

    reg.inc(ids.queries, 1);
    reg.inc(ids.bytes, 64 + (i % 7) * 78);
    reg.gauge_max(ids.peak, (i % 11) as f64);
    reg.observe(ids.rounds, 1.0 + (i % 4) as f64);
}

struct Ids {
    queries: obs::CounterId,
    bytes: obs::CounterId,
    peak: obs::GaugeId,
    rounds: obs::HistogramId,
}

#[test]
fn warm_trace_and_registry_are_allocation_free() {
    // Cold path: arena + registry construction may allocate.
    let mut trace = Trace::new(16, Box::new(ManualClock::with_step(5)));
    let mut reg = MetricsRegistry::new();
    let ids = Ids {
        queries: reg.counter("server.queries"),
        bytes: reg.counter("overhead.bytes"),
        peak: reg.gauge("engine.max_component"),
        rounds: reg.histogram("server.gather_rounds", &[1.0, 2.0, 3.0, 4.0]),
    };

    // Warm-up: exercise every code path once while allocation is allowed.
    for i in 0..8 {
        record_query(&mut trace, &mut reg, &ids, i);
    }
    reg.reset();

    // Measured: identical work must not allocate, including arena-overflow
    // drops, resets, and reads back out of the registry.
    let mut checksum = 0u64;
    let (allocs, _, ()) = testkit::allocs_of(|| {
        for i in 0..256 {
            record_query(&mut trace, &mut reg, &ids, i);
            // Overflow the 16-span arena: drops are counted, never grown.
            for _ in 0..20 {
                let s = trace.begin("overflow", t(i));
                trace.end(s, t(i));
            }
            checksum += reg.counter_value(ids.queries) + trace.len() as u64;
            checksum += reg.counter_named("overhead.bytes").unwrap_or(0);
            checksum += reg.histogram_value(ids.rounds).total();
        }
        reg.reset();
    });

    assert!(checksum > 0);
    assert!(trace.len() <= 16, "arena must stay within capacity");
    assert_eq!(
        allocs, 0,
        "warm observability path allocated {allocs} times over 256 queries"
    );
}
