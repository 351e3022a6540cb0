//! Pins the zero-allocation contract of the telemetry hot path: once a
//! `RingRecorder` is constructed (cold path, may allocate), recording
//! completed queries — including drops when completion lag exceeds the
//! ring span — and draining finalised windows into a merge scratch must
//! not touch the heap. Only `WindowData::summarize` (sequencer control
//! path, once per window) is allowed to allocate.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use desim::{SimDuration, SimTime};
use obs::{QueryRecord, RingRecorder, RingSpec, WindowData};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

const BOUNDS: &[f64] = &[100.0, 500.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0];

fn spec() -> RingSpec {
    RingSpec {
        width: SimDuration::from_millis(5),
        buckets: 16,
        classes: 4,
        shards: 8,
        bounds: BOUNDS,
    }
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// One wave's worth of recording + the sequencer's drain — the shape the
/// serving plane runs with the flight recorder enabled.
fn wave(rings: &mut [RingRecorder], scratch: &mut WindowData, wave_idx: u64) -> u64 {
    let base = wave_idx * 5_000; // one 5ms window per wave
    for (wi, ring) in rings.iter_mut().enumerate() {
        for q in 0..32u64 {
            let rec = QueryRecord {
                class: (q % 4) as usize,
                shard: ((q + wi as u64) % 8) as usize,
                latency_us: 40.0 + (q * 97 % 30_000) as f64,
                error: q % 17 == 0,
                shed: q % 13 == 0,
                hit: q % 3 == 0,
                rung: (q % 3) as u8,
            };
            ring.record(t(base + q * 10), &rec);
            // Lag far beyond the ring span: must drop-and-count, not grow.
            if q % 8 == 0 {
                ring.record(t(base + 16 * 5_000 + q), &rec);
            }
        }
    }
    // Sequencer side: drain the closed window into the merge scratch.
    scratch.reset();
    let w = base / 5_000;
    let mut drained = 0;
    for ring in rings.iter_mut() {
        drained += ring.drain_window(w, scratch) as u64;
    }
    drained + scratch.total()
}

#[test]
fn warm_ring_record_and_drain_are_allocation_free() {
    // Cold path: rings + scratch construction may allocate.
    let mut rings: Vec<RingRecorder> = (0..4).map(|_| RingRecorder::new(spec())).collect();
    let mut scratch = WindowData::new(&spec());

    // Warm-up: exercise record, drop, drain, and reset once.
    for w in 0..4 {
        wave(&mut rings, &mut scratch, w);
    }

    // Measured: identical work must not allocate.
    let (allocs, _, checksum) = testkit::allocs_of(|| {
        (4..260).map(|w| wave(&mut rings, &mut scratch, w)).sum::<u64>()
    });

    assert!(checksum > 0);
    assert!(
        rings.iter().all(|r| r.dropped() > 0),
        "lagged records must be drop-counted"
    );
    assert_eq!(
        allocs, 0,
        "warm telemetry ring path allocated {allocs} times over 256 waves"
    );
}
