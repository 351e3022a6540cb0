//! Windowed time-series metrics for the continuous serving plane.
//!
//! The serving plane runs forever; aggregate counters answer "how did the
//! run go" but not "is the system healthy *right now*, and which tenant
//! class or shard is the outlier". This module keeps distributions per
//! fixed-width sim-time window on a small fixed label space:
//!
//! * [`RingRecorder`] — one per worker, a ring of `buckets` windows of
//!   width `width`. Recording a completed query is a handful of array
//!   writes into the slot owned by the completion's window: **alloc-free
//!   and lock-free** (each worker owns its ring exclusively; the sequencer
//!   only touches it between waves). Pinned by
//!   `tests/timeseries_alloc.rs`.
//! * [`WindowHub`] — sequencer-side. At each wave boundary every window
//!   that can no longer receive completions (wave clocks are monotone, so
//!   once the wave clock passes a window's end nothing lands in it) is
//!   drained from all worker rings, merged, and summarised into a
//!   [`WindowSummary`] carrying p50/p99/p999, rates, shed/error/hit
//!   counts per tenant class, a staleness-rung distribution, and
//!   per-shard query counts.
//!
//! Under sustained overload a completion can lag the wave clock by more
//! than the ring covers; such records are *dropped and counted* rather
//! than silently folded into the wrong window — the drop counter is
//! itself a health signal.

use desim::{SimDuration, SimTime};

use crate::metrics::quantile_from_counts;

/// Window index marking an unoccupied ring slot.
const EMPTY: u64 = u64::MAX;

/// Shape of a telemetry ring: window width, ring depth, and the fixed
/// label space (tenant classes × shards) plus latency histogram edges.
#[derive(Clone, Copy, Debug)]
pub struct RingSpec {
    /// Width of one time bucket (one telemetry window).
    pub width: SimDuration,
    /// Ring depth in windows; also bounds how far completions may lag the
    /// wave clock before being dropped.
    pub buckets: usize,
    /// Number of tenant classes (label dimension 1).
    pub classes: usize,
    /// Number of shards (label dimension 2).
    pub shards: usize,
    /// Inclusive upper edges of the latency histogram buckets, in µs.
    pub bounds: &'static [f64],
}

impl RingSpec {
    /// The window index containing instant `t`.
    pub fn window_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.width.as_nanos().max(1)
    }
}

/// One completed query, as recorded into a [`RingRecorder`].
#[derive(Clone, Copy, Debug)]
pub struct QueryRecord {
    /// Tenant class (label dim 1); clamped into the spec's range.
    pub class: usize,
    /// Home shard (label dim 2); clamped into the spec's range.
    pub shard: usize,
    /// End-to-end latency (arrival → completion) in µs.
    pub latency_us: f64,
    /// The query returned a typed error.
    pub error: bool,
    /// The query was shed by admission control.
    pub shed: bool,
    /// The answer was served from cache.
    pub hit: bool,
    /// Degradation rung of the answer (0 = full, 1 = fresh-subset,
    /// 2 = assume-busy); clamped to 2.
    pub rung: u8,
}

/// Raw per-window accumulators: a latency histogram + counters per tenant
/// class, a rung distribution, and per-shard query counts. Flat
/// preallocated arrays — recording is pure array arithmetic.
#[derive(Clone, Debug)]
pub struct WindowData {
    classes: usize,
    shards: usize,
    bounds: &'static [f64],
    hist: Vec<u64>, // classes * (bounds.len() + 1), row-major by class
    count: Vec<u64>,
    sum_us: Vec<f64>,
    errors: Vec<u64>,
    shed: Vec<u64>,
    hits: Vec<u64>,
    rungs: [u64; 3],
    shard_count: Vec<u64>,
}

impl WindowData {
    /// Preallocates accumulators for `spec`'s label space (cold path).
    pub fn new(spec: &RingSpec) -> Self {
        let classes = spec.classes.max(1);
        let shards = spec.shards.max(1);
        WindowData {
            classes,
            shards,
            bounds: spec.bounds,
            hist: vec![0; classes * (spec.bounds.len() + 1)],
            count: vec![0; classes],
            sum_us: vec![0.0; classes],
            errors: vec![0; classes],
            shed: vec![0; classes],
            hits: vec![0; classes],
            rungs: [0; 3],
            shard_count: vec![0; shards],
        }
    }

    /// Zeroes every accumulator; the allocation is reused.
    pub fn reset(&mut self) {
        self.hist.iter_mut().for_each(|c| *c = 0);
        self.count.iter_mut().for_each(|c| *c = 0);
        self.sum_us.iter_mut().for_each(|c| *c = 0.0);
        self.errors.iter_mut().for_each(|c| *c = 0);
        self.shed.iter_mut().for_each(|c| *c = 0);
        self.hits.iter_mut().for_each(|c| *c = 0);
        self.rungs = [0; 3];
        self.shard_count.iter_mut().for_each(|c| *c = 0);
    }

    /// Folds one completed query in. Alloc-free.
    pub fn record(&mut self, rec: &QueryRecord) {
        let c = rec.class.min(self.classes - 1);
        let s = rec.shard.min(self.shards - 1);
        let hb = self.bounds.len() + 1;
        let idx = self
            .bounds
            .iter()
            .position(|&b| rec.latency_us <= b)
            .unwrap_or(self.bounds.len());
        self.hist[c * hb + idx] += 1;
        self.count[c] += 1;
        self.sum_us[c] += rec.latency_us;
        self.errors[c] += rec.error as u64;
        self.shed[c] += rec.shed as u64;
        self.hits[c] += rec.hit as u64;
        self.rungs[(rec.rung as usize).min(2)] += 1;
        self.shard_count[s] += 1;
    }

    /// Elementwise-adds `other` into `self` (merging worker rings).
    /// Alloc-free; both sides must share one [`RingSpec`].
    pub fn add_from(&mut self, other: &WindowData) {
        debug_assert_eq!(self.hist.len(), other.hist.len());
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
        for (a, b) in self.count.iter_mut().zip(&other.count) {
            *a += b;
        }
        for (a, b) in self.sum_us.iter_mut().zip(&other.sum_us) {
            *a += b;
        }
        for (a, b) in self.errors.iter_mut().zip(&other.errors) {
            *a += b;
        }
        for (a, b) in self.shed.iter_mut().zip(&other.shed) {
            *a += b;
        }
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
        for (a, b) in self.rungs.iter_mut().zip(&other.rungs) {
            *a += b;
        }
        for (a, b) in self.shard_count.iter_mut().zip(&other.shard_count) {
            *a += b;
        }
    }

    /// Total completions recorded across all classes.
    pub fn total(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Condenses the raw accumulators into a [`WindowSummary`]
    /// (control path — allocates the summary).
    pub fn summarize(&self, window: u64, width: SimDuration) -> WindowSummary {
        let hb = self.bounds.len() + 1;
        let secs = width.as_secs_f64().max(1e-12);
        let mut classes = Vec::with_capacity(self.classes);
        let mut overall = vec![0u64; hb];
        for c in 0..self.classes {
            let row = &self.hist[c * hb..(c + 1) * hb];
            for (o, r) in overall.iter_mut().zip(row) {
                *o += r;
            }
            let n = self.count[c];
            classes.push(ClassWindow {
                count: n,
                rate_qps: n as f64 / secs,
                p50_us: quantile_from_counts(self.bounds, row, n, 0.5),
                p99_us: quantile_from_counts(self.bounds, row, n, 0.99),
                p999_us: quantile_from_counts(self.bounds, row, n, 0.999),
                mean_us: if n > 0 { self.sum_us[c] / n as f64 } else { 0.0 },
                errors: self.errors[c],
                shed: self.shed[c],
                hits: self.hits[c],
            });
        }
        let total = self.total();
        WindowSummary {
            window,
            start: SimTime::from_nanos(window.saturating_mul(width.as_nanos())),
            width,
            total,
            rate_qps: total as f64 / secs,
            p50_us: quantile_from_counts(self.bounds, &overall, total, 0.5),
            p99_us: quantile_from_counts(self.bounds, &overall, total, 0.99),
            p999_us: quantile_from_counts(self.bounds, &overall, total, 0.999),
            classes,
            rungs: self.rungs,
            shards: self.shard_count.clone(),
        }
    }
}

/// Per-tenant-class slice of one window.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassWindow {
    /// Completions in this class this window.
    pub count: u64,
    /// Completion rate over the window, in queries/sec.
    pub rate_qps: f64,
    /// Median end-to-end latency estimate, µs.
    pub p50_us: f64,
    /// 99th-percentile latency estimate, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency estimate, µs.
    pub p999_us: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Typed errors returned.
    pub errors: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Cache hits.
    pub hits: u64,
}

/// One finalised telemetry window, ready for SLO evaluation and the
/// flight recorder.
#[derive(Clone, Debug)]
pub struct WindowSummary {
    /// Window index (`start = window * width`).
    pub window: u64,
    /// Window start on the simulated timeline.
    pub start: SimTime,
    /// Window width.
    pub width: SimDuration,
    /// Completions across all classes.
    pub total: u64,
    /// Overall completion rate, queries/sec.
    pub rate_qps: f64,
    /// Overall median latency estimate, µs.
    pub p50_us: f64,
    /// Overall p99 latency estimate, µs.
    pub p99_us: f64,
    /// Overall p99.9 latency estimate, µs.
    pub p999_us: f64,
    /// Per-tenant-class slices, indexed by class.
    pub classes: Vec<ClassWindow>,
    /// Staleness rung distribution (full / fresh-subset / assume-busy).
    pub rungs: [u64; 3],
    /// Queries routed per shard.
    pub shards: Vec<u64>,
}

impl WindowSummary {
    /// Fraction of this window's queries shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let shed: u64 = self.classes.iter().map(|c| c.shed).sum();
        shed as f64 / self.total as f64
    }

    /// Fraction of this window's queries that returned a typed error.
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let errs: u64 = self.classes.iter().map(|c| c.errors).sum();
        errs as f64 / self.total as f64
    }

    /// Fraction of answers produced off the full-freshness rung.
    pub fn degraded_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.rungs[0] as f64 / self.total as f64
    }
}

struct Slot {
    window: u64,
    data: WindowData,
}

/// Lock-free per-worker ring of time-bucketed [`WindowData`]. "Lock-free"
/// by ownership: the owning worker records during a wave, the sequencer
/// drains between waves — the two never overlap, so no atomics are needed
/// and the hot path is plain array arithmetic.
pub struct RingRecorder {
    spec: RingSpec,
    slots: Vec<Slot>,
    dropped: u64,
}

impl RingRecorder {
    /// Preallocates a ring for `spec` (cold path).
    pub fn new(spec: RingSpec) -> Self {
        assert!(spec.buckets > 0, "ring must have at least one bucket");
        assert!(spec.width > SimDuration::ZERO, "window width must be positive");
        let slots = (0..spec.buckets)
            .map(|_| Slot {
                window: EMPTY,
                data: WindowData::new(&spec),
            })
            .collect();
        RingRecorder {
            spec,
            slots,
            dropped: 0,
        }
    }

    /// The ring's shape.
    pub fn spec(&self) -> &RingSpec {
        &self.spec
    }

    /// Records one completed query at instant `now`. Alloc-free. Records
    /// whose window collides with an undrained slot (completion lag
    /// exceeded the ring span) or a slot that already wrapped past are
    /// dropped and counted — never folded into the wrong window.
    pub fn record(&mut self, now: SimTime, rec: &QueryRecord) {
        let w = self.spec.window_of(now);
        let i = (w % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[i];
        if slot.window != w {
            if slot.window == EMPTY {
                // Drained slots are left zeroed, so claiming is just
                // stamping the window index.
                slot.window = w;
            } else {
                self.dropped += 1;
                return;
            }
        }
        slot.data.record(rec);
    }

    /// Records dropped because their window collided with live ring state.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds window `w`'s accumulators into `into` and frees the slot.
    /// Returns whether the ring held any data for `w`. Alloc-free.
    pub fn drain_window(&mut self, w: u64, into: &mut WindowData) -> bool {
        let i = (w % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[i];
        if slot.window != w {
            return false;
        }
        into.add_from(&slot.data);
        slot.data.reset();
        slot.window = EMPTY;
        true
    }

    /// Highest window currently holding data, if any — the flush bound.
    pub fn max_window(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter(|s| s.window != EMPTY)
            .map(|s| s.window)
            .max()
    }
}

/// Sequencer-side merger: drains finalised windows from every worker ring
/// in worker order (deterministic), merges them, and emits one
/// [`WindowSummary`] per window in strictly increasing window order.
pub struct WindowHub {
    spec: RingSpec,
    next: u64,
    scratch: WindowData,
}

impl WindowHub {
    /// A hub for rings of shape `spec`.
    pub fn new(spec: RingSpec) -> Self {
        WindowHub {
            scratch: WindowData::new(&spec),
            spec,
            next: 0,
        }
    }

    /// The hub's ring shape.
    pub fn spec(&self) -> &RingSpec {
        &self.spec
    }

    /// Summarises every window strictly before `until` (the first window
    /// the wave clock has not yet closed), draining all rings. Emits
    /// summaries for empty windows too — a zero-rate window is signal.
    pub fn collect(
        &mut self,
        rings: &mut [&mut RingRecorder],
        until: u64,
        mut emit: impl FnMut(WindowSummary),
    ) {
        while self.next < until {
            let w = self.next;
            self.scratch.reset();
            for ring in rings.iter_mut() {
                ring.drain_window(w, &mut self.scratch);
            }
            emit(self.scratch.summarize(w, self.spec.width));
            self.next += 1;
        }
    }

    /// Finalises everything still buffered (end of run): drains up to and
    /// including the highest occupied window of any ring.
    pub fn flush(&mut self, rings: &mut [&mut RingRecorder], emit: impl FnMut(WindowSummary)) {
        let max = rings.iter().filter_map(|r| r.max_window()).max();
        if let Some(m) = max {
            self.collect(rings, m + 1, emit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[100.0, 1_000.0, 10_000.0, 100_000.0];

    fn spec() -> RingSpec {
        RingSpec {
            width: SimDuration::from_millis(5),
            buckets: 8,
            classes: 2,
            shards: 4,
            bounds: BOUNDS,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn rec(class: usize, shard: usize, latency_us: f64) -> QueryRecord {
        QueryRecord {
            class,
            shard,
            latency_us,
            error: false,
            shed: false,
            hit: false,
            rung: 0,
        }
    }

    #[test]
    fn windows_partition_by_time_and_label() {
        let mut ring = RingRecorder::new(spec());
        ring.record(t(1), &rec(0, 1, 50.0));
        ring.record(t(2), &rec(1, 2, 5_000.0));
        ring.record(t(6), &rec(0, 1, 500.0));
        let mut hub = WindowHub::new(spec());
        let mut out = Vec::new();
        hub.collect(&mut [&mut ring], 2, |s| out.push(s));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].window, 0);
        assert_eq!(out[0].total, 2);
        assert_eq!(out[0].classes[0].count, 1);
        assert_eq!(out[0].classes[1].count, 1);
        assert_eq!(out[0].shards, vec![0, 1, 1, 0]);
        assert_eq!(out[1].total, 1);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn merging_two_rings_matches_one_ring_with_all_records() {
        let mut a = RingRecorder::new(spec());
        let mut b = RingRecorder::new(spec());
        let mut one = RingRecorder::new(spec());
        for i in 0..100u64 {
            let r = rec((i % 2) as usize, (i % 4) as usize, (i * 37 % 9000) as f64);
            let at = t(i % 4);
            if i % 2 == 0 {
                a.record(at, &r);
            } else {
                b.record(at, &r);
            }
            one.record(at, &r);
        }
        let mut hub = WindowHub::new(spec());
        let mut merged = Vec::new();
        hub.collect(&mut [&mut a, &mut b], 1, |s| merged.push(s));
        let mut hub1 = WindowHub::new(spec());
        let mut single = Vec::new();
        hub1.collect(&mut [&mut one], 1, |s| single.push(s));
        assert_eq!(merged[0].total, single[0].total);
        assert_eq!(merged[0].classes, single[0].classes);
        assert_eq!(merged[0].shards, single[0].shards);
        assert_eq!(merged[0].p99_us, single[0].p99_us);
    }

    #[test]
    fn quantiles_come_from_the_window_distribution() {
        let mut ring = RingRecorder::new(spec());
        // 95 fast queries and 5 slow ones: p50 fast, p99 inside the slow
        // bucket.
        for i in 0..95 {
            ring.record(t(0), &rec(0, 0, 50.0 + (i % 3) as f64));
        }
        for _ in 0..5 {
            ring.record(t(0), &rec(0, 0, 50_000.0));
        }
        let mut hub = WindowHub::new(spec());
        let mut out = Vec::new();
        hub.collect(&mut [&mut ring], 1, |s| out.push(s));
        let s = &out[0];
        assert!(s.p50_us <= 100.0, "p50 {} should sit in the fast bucket", s.p50_us);
        assert!(s.p99_us > 1_000.0, "p99 {} should feel the outlier", s.p99_us);
        assert!(s.p999_us >= s.p99_us);
    }

    #[test]
    fn lagged_records_beyond_ring_span_drop_and_count() {
        let mut ring = RingRecorder::new(spec());
        ring.record(t(0), &rec(0, 0, 10.0));
        // 8 buckets × 5ms = 40ms span; window 8 wraps onto window 0's slot
        // while window 0 is still undrained.
        ring.record(t(40), &rec(0, 0, 10.0));
        assert_eq!(ring.dropped(), 1);
        // Window 0's data survives.
        let mut hub = WindowHub::new(spec());
        let mut out = Vec::new();
        hub.collect(&mut [&mut ring], 1, |s| out.push(s));
        assert_eq!(out[0].total, 1);
    }

    #[test]
    fn flush_finalises_future_windows() {
        let mut ring = RingRecorder::new(spec());
        ring.record(t(17), &rec(1, 3, 250.0)); // window 3
        let mut hub = WindowHub::new(spec());
        let mut out = Vec::new();
        hub.flush(&mut [&mut ring], |s| out.push(s));
        assert_eq!(out.len(), 4); // windows 0..=3
        assert_eq!(out[3].total, 1);
        assert_eq!(ring.max_window(), None);
    }

    #[test]
    fn rates_and_ratios_are_window_scoped() {
        let mut ring = RingRecorder::new(spec());
        for i in 0..10 {
            ring.record(
                t(0),
                &QueryRecord {
                    class: 0,
                    shard: 0,
                    latency_us: 100.0,
                    error: i == 0,
                    shed: i < 2,
                    hit: i < 5,
                    rung: if i < 4 { 1 } else { 0 },
                },
            );
        }
        let mut hub = WindowHub::new(spec());
        let mut out = Vec::new();
        hub.collect(&mut [&mut ring], 1, |s| out.push(s));
        let s = &out[0];
        assert_eq!(s.total, 10);
        // 10 completions in a 5ms window = 2000 qps.
        assert!((s.rate_qps - 2000.0).abs() < 1e-6);
        assert!((s.error_rate() - 0.1).abs() < 1e-9);
        assert!((s.shed_rate() - 0.2).abs() < 1e-9);
        assert!((s.degraded_rate() - 0.4).abs() < 1e-9);
    }
}
