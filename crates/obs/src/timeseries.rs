//! Windowed time-series metrics for the continuous serving plane.
//!
//! The serving plane runs forever; aggregate counters answer "how did the
//! run go" but not "is the system healthy *right now*, and which tenant
//! class or shard is the outlier". This module keeps distributions per
//! fixed-width sim-time window on a small fixed label space, in one
//! [`RingRecorder`] owned by the plane's sequencer. At each wave close the
//! sequencer records the wave's completions — a handful of array writes
//! each, **alloc-free** (pinned by `tests/timeseries_alloc.rs`) — then
//! finalises every window the wave clock has passed (wave clocks are
//! monotone, so once the clock passes a window's end nothing lands in it)
//! and condenses it into a [`WindowSummary`] carrying p50/p99/p999, rates,
//! shed/error/hit counts per tenant class, a staleness-rung distribution,
//! and per-shard query counts.
//!
//! The ring covers the windows `[next, next + buckets)`, where `next` (the
//! horizon) is the first window not yet finalised. A record outside that
//! range — lagging the horizon by more than the ring spans, or landing in
//! a window already finalised (a flush finalises windows ahead of the wave
//! clock) — is *dropped and counted* rather than folded into the wrong
//! window; the drop counter is itself a health signal.

use desim::{SimDuration, SimTime};

use crate::metrics::quantile_from_counts;

/// Shape of a telemetry ring: window width, ring depth, and the fixed
/// label space (tenant classes × shards) plus latency histogram edges.
#[derive(Clone, Copy, Debug)]
pub struct RingSpec {
    /// Width of one time bucket (one telemetry window).
    pub width: SimDuration,
    /// Ring depth in windows; also bounds how far completions may lag the
    /// horizon before being dropped.
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
    /// The query's wave was load-shed: the whole wave was forced onto the
    /// heuristic backend. (Queries admission rejects never complete, so
    /// they never reach telemetry.)
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
    fn new(spec: &RingSpec) -> Self {
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
    fn reset(&mut self) {
        self.hist.iter_mut().for_each(|c| *c = 0);
        self.count.iter_mut().for_each(|c| *c = 0);
        self.sum_us.iter_mut().for_each(|c| *c = 0.0);
        self.errors.iter_mut().for_each(|c| *c = 0);
        self.shed.iter_mut().for_each(|c| *c = 0);
        self.hits.iter_mut().for_each(|c| *c = 0);
        self.rungs = [0; 3];
        self.shard_count.iter_mut().for_each(|c| *c = 0);
    }

    fn record(&mut self, rec: &QueryRecord) {
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

    /// Total completions recorded across all classes.
    pub fn total(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Condenses the raw accumulators into a `WindowSummary`
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
pub(crate) struct ClassWindow {
    /// Completions in this class this window.
    pub(crate) count: u64,
    /// Completion rate over the window, in queries/sec.
    pub(crate) rate_qps: f64,
    /// Median end-to-end latency estimate, µs.
    pub(crate) p50_us: f64,
    /// 99th-percentile latency estimate, µs.
    pub(crate) p99_us: f64,
    /// 99.9th-percentile latency estimate, µs.
    pub(crate) p999_us: f64,
    /// Mean latency, µs.
    pub(crate) mean_us: f64,
    /// Typed errors returned.
    pub(crate) errors: u64,
    /// Completions whose wave was load-shed onto the heuristic backend.
    pub(crate) shed: u64,
    /// Cache hits.
    pub(crate) hits: u64,
}

/// One finalised telemetry window, ready for SLO evaluation and the
/// flight recorder.
#[derive(Clone, Debug)]
pub struct WindowSummary {
    /// Window index (`start = window * width`).
    pub(crate) window: u64,
    /// Window start on the simulated timeline.
    pub(crate) start: SimTime,
    /// Window width.
    pub(crate) width: SimDuration,
    /// Completions across all classes.
    pub(crate) total: u64,
    /// Overall completion rate, queries/sec.
    pub(crate) rate_qps: f64,
    /// Overall median latency estimate, µs.
    pub(crate) p50_us: f64,
    /// Overall p99 latency estimate, µs.
    pub(crate) p99_us: f64,
    /// Overall p99.9 latency estimate, µs.
    pub(crate) p999_us: f64,
    /// Per-tenant-class slices, indexed by class.
    pub(crate) classes: Vec<ClassWindow>,
    /// Staleness rung distribution (full / fresh-subset / assume-busy).
    pub(crate) rungs: [u64; 3],
    /// Queries routed per shard.
    pub(crate) shards: Vec<u64>,
}

impl WindowSummary {
    /// Fraction of this window's completions whose wave was load-shed onto
    /// the heuristic backend.
    pub(crate) fn shed_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let shed: u64 = self.classes.iter().map(|c| c.shed).sum();
        shed as f64 / self.total as f64
    }

    /// Fraction of this window's queries that returned a typed error.
    pub(crate) fn error_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let errs: u64 = self.classes.iter().map(|c| c.errors).sum();
        errs as f64 / self.total as f64
    }

    /// Fraction of answers produced off the full-freshness rung.
    pub(crate) fn degraded_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.rungs[0] as f64 / self.total as f64
    }
}

/// A ring of time-bucketed [`WindowData`] over the windows
/// `[next, next + buckets)`: window `w` lives in slot `w % buckets`, and
/// the slot of the horizon `next` holds either `next`'s records or zeros.
pub struct RingRecorder {
    spec: RingSpec,
    slots: Vec<WindowData>,
    /// First window not yet finalised.
    next: u64,
    /// One past the highest window recorded into — the flush bound.
    end: u64,
    dropped: u64,
}

impl RingRecorder {
    /// Preallocates a ring for `spec` (cold path).
    pub fn new(spec: RingSpec) -> Self {
        assert!(spec.buckets > 0, "ring must have at least one bucket");
        assert!(spec.width > SimDuration::ZERO, "window width must be positive");
        RingRecorder {
            slots: (0..spec.buckets).map(|_| WindowData::new(&spec)).collect(),
            spec,
            next: 0,
            end: 0,
            dropped: 0,
        }
    }

    /// The ring's shape.
    pub fn spec(&self) -> &RingSpec {
        &self.spec
    }

    /// Records one completed query at instant `now`. Alloc-free. A record
    /// below the horizon (its window is already finalised) or a full ring
    /// span or more beyond it is dropped and counted — never folded into
    /// the wrong window.
    pub fn record(&mut self, now: SimTime, rec: &QueryRecord) {
        let w = self.spec.window_of(now);
        let span = self.slots.len() as u64;
        if w < self.next || w - self.next >= span {
            self.dropped += 1;
            return;
        }
        self.end = self.end.max(w + 1);
        self.slots[(w % span) as usize].record(rec);
    }

    /// Records dropped because they fell outside the ring's windows.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finalises every window strictly before `until` (the first window
    /// the wave clock has not yet closed), handing each to `emit` in
    /// increasing window order straight from its slot, then zeroing the
    /// slot for reuse. Empty windows are emitted too — a zero-rate window
    /// is signal. Alloc-free.
    pub fn collect(&mut self, until: u64, mut emit: impl FnMut(u64, &WindowData)) {
        let span = self.slots.len() as u64;
        while self.next < until {
            let w = self.next;
            let slot = &mut self.slots[(w % span) as usize];
            emit(w, slot);
            slot.reset();
            self.next += 1;
        }
    }

    /// Finalises everything still buffered (end of run, or a dump): every
    /// window up to and including the highest one recorded into.
    pub fn flush(&mut self, emit: impl FnMut(u64, &WindowData)) {
        self.collect(self.end, emit);
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

    fn collect(ring: &mut RingRecorder, until: u64) -> Vec<WindowSummary> {
        let width = ring.spec().width;
        let mut out = Vec::new();
        ring.collect(until, |w, data| out.push(data.summarize(w, width)));
        out
    }

    #[test]
    fn windows_partition_by_time_and_label() {
        let mut ring = RingRecorder::new(spec());
        ring.record(t(1), &rec(0, 1, 50.0));
        ring.record(t(2), &rec(1, 2, 5_000.0));
        ring.record(t(6), &rec(0, 1, 500.0));
        let out = collect(&mut ring, 2);
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
        let out = collect(&mut ring, 1);
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
        // while window 0 is still unfinalised.
        ring.record(t(40), &rec(0, 0, 10.0));
        assert_eq!(ring.dropped(), 1);
        // Window 0's data survives.
        let out = collect(&mut ring, 1);
        assert_eq!(out[0].total, 1);
    }

    #[test]
    fn records_below_the_horizon_drop_and_count() {
        let mut ring = RingRecorder::new(spec());
        ring.record(t(17), &rec(1, 3, 250.0)); // window 3
        let mut flushed = 0;
        ring.flush(|_, _| flushed += 1);
        assert_eq!(flushed, 4, "windows 0..=3");
        // Window 2 is final: a late record for it drops, and window 10 —
        // whose slot window 2 shares — still gets all of its own.
        ring.record(t(12), &rec(0, 0, 10.0));
        ring.record(t(50), &rec(0, 0, 10.0));
        assert_eq!(ring.dropped(), 1);
        let out = collect(&mut ring, 11);
        assert_eq!(out.len(), 7, "windows 4..=10");
        assert_eq!(out.iter().map(|s| s.total).sum::<u64>(), 1);
        assert_eq!(out[6].total, 1);
    }

    #[test]
    fn flush_finalises_future_windows() {
        let mut ring = RingRecorder::new(spec());
        ring.record(t(17), &rec(1, 3, 250.0)); // window 3
        let width = ring.spec().width;
        let mut out = Vec::new();
        ring.flush(|w, data| out.push(data.summarize(w, width)));
        assert_eq!(out.len(), 4); // windows 0..=3
        assert_eq!(out[3].total, 1);
        let mut again = 0;
        ring.flush(|_, _| again += 1);
        assert_eq!(again, 0, "nothing left to flush");
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
        let out = collect(&mut ring, 1);
        let s = &out[0];
        assert_eq!(s.total, 10);
        // 10 completions in a 5ms window = 2000 qps.
        assert!((s.rate_qps - 2000.0).abs() < 1e-6);
        assert!((s.error_rate() - 0.1).abs() < 1e-9);
        assert!((s.shed_rate() - 0.2).abs() < 1e-9);
        assert!((s.degraded_rate() - 0.4).abs() < 1e-9);
    }
}
