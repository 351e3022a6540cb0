//! Pins the zero-allocation contract of the telemetry ring: once a
//! `RingRecorder` is constructed (cold path, may allocate), recording
//! completed queries, closing finalised windows, and both kinds of drop —
//! a completion lagging the horizon by more than the ring spans, and one
//! landing below the horizon after a flush — must not touch the heap. Only
//! `WindowData::summarize` (sequencer control path, once per window) is
//! allowed to allocate.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use desim::{SimDuration, SimTime};
use obs::{QueryRecord, RingRecorder, RingSpec};

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

/// One wave's worth of recording + the sequencer's close — the shape the
/// serving plane runs with telemetry on. Every eighth wave ends in a
/// flush, as a mid-run dump would; the flush finalises the window ahead
/// too, so the whole next wave lands below the horizon.
fn wave(ring: &mut RingRecorder, wave_idx: u64) -> u64 {
    let base = wave_idx * 5_000; // one 5ms window per wave
    for q in 0..128u64 {
        let rec = QueryRecord {
            class: (q % 4) as usize,
            shard: (q % 8) as usize,
            latency_us: 40.0 + (q * 97 % 30_000) as f64,
            error: q % 17 == 0,
            shed: q % 13 == 0,
            hit: q % 3 == 0,
            rung: (q % 3) as u8,
        };
        ring.record(t(base + q * 10), &rec);
        // Lag far beyond the ring span: must drop-and-count, not grow.
        if q % 8 == 0 {
            ring.record(t(base + 32 * 5_000 + q), &rec);
        }
        // A completion spilling into the next window.
        if q % 16 == 0 {
            ring.record(t(base + 5_000 + q), &rec);
        }
    }
    let mut closed = 0;
    if wave_idx % 8 == 7 {
        ring.flush(|_, data| closed += data.total());
    } else {
        ring.collect(wave_idx + 1, |_, data| closed += data.total());
    }
    closed
}

#[test]
fn warm_ring_record_and_drain_are_allocation_free() {
    // Cold path: ring construction may allocate.
    let mut ring = RingRecorder::new(spec());

    // Warm-up: exercise record, both drops, close and flush once.
    for w in 0..8 {
        wave(&mut ring, w);
    }
    let dropped = ring.dropped();

    // Measured: identical work must not allocate.
    let (allocs, _, checksum) =
        testkit::allocs_of(|| (8..264).map(|w| wave(&mut ring, w)).sum::<u64>());

    assert!(checksum > 0);
    // Per wave 16 records lag beyond the span; each of the 32 waves after
    // a flush has its 128 own-window records below the horizon.
    assert_eq!(ring.dropped() - dropped, 256 * 16 + 32 * 128);
    assert_eq!(
        allocs, 0,
        "warm telemetry ring path allocated {allocs} times over 256 waves"
    );
}
