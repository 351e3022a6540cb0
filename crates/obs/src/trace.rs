//! Query-scoped spans recorded into a pre-sized arena.
//!
//! A [`Trace`] is created per unit of work and passed down the call path by
//! `&mut` — there is no global collector. Spans form a tree via an implicit
//! begin/end stack. The arena (`Vec` with reserved capacity) never grows on
//! the warm path: when it is full, further spans are *counted as dropped*
//! rather than allocated, so instrumented hot loops stay allocation-free
//! (pinned by `tests/trace_alloc.rs`).

use crate::clock::{HostClock, MonotonicClock, NullClock};
use desim::SimTime;

/// Sentinel parent index for root spans in a [`SpanRecord`].
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `sim_*` are deterministic simulated instants;
/// `host_*` come from the installed [`HostClock`] (all zero under the
/// default [`NullClock`], so records compare bit-equal across runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"search"`).
    pub name: &'static str,
    /// Index of the enclosing span in the arena, or [`NO_PARENT`].
    pub parent: u32,
    /// Simulated instant the span opened.
    pub sim_start: SimTime,
    /// Simulated instant the span closed (== `sim_start` until ended).
    pub sim_end: SimTime,
    /// Host-clock reading at open, nanoseconds.
    pub(crate) host_start_ns: u64,
    /// Host-clock reading at close, nanoseconds.
    pub host_end_ns: u64,
    /// Up to two key/value annotations (static key, integer value), in
    /// the order they were first set.
    pub args: [Option<(&'static str, u64)>; 2],
}

/// Handle to an open span; returned by [`Trace::begin`], consumed by
/// [`Trace::end`]. The sentinel handle (disabled trace, full arena) makes
/// every operation on it a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

/// The finished, immutable result of a [`Trace`]: the span arena plus how
/// many spans did not fit. Attached to answers as provenance and consumed
/// by the exporters in `crate::export`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Recorded spans in begin order; tree-linked through
    /// `SpanRecord::parent`.
    pub spans: Vec<SpanRecord>,
    /// Spans that were requested after the arena filled.
    pub dropped: u32,
}

impl TraceReport {
    /// Finds the first span named `name`.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Names of recorded spans, in begin order.
    pub fn span_names(&self) -> Vec<&'static str> {
        self.spans.iter().map(|s| s.name).collect()
    }
}

/// A per-query span recorder. See the module docs for the contract.
pub struct Trace {
    enabled: bool,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    dropped: u32,
    clock: Box<dyn HostClock>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.enabled)
            .field("spans", &self.spans.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Trace {
    /// A trace with room for `capacity` spans, timestamping host intervals
    /// with `clock`.
    pub fn new(capacity: usize, clock: Box<dyn HostClock>) -> Self {
        Trace {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(capacity),
            dropped: 0,
            clock,
        }
    }

    /// A deterministic trace: host readings are all zero (`NullClock`).
    pub fn deterministic(capacity: usize) -> Self {
        Self::new(capacity, Box::new(NullClock))
    }

    /// A trace with real host timings (`MonotonicClock`); sim timestamps
    /// stay deterministic, host ones do not.
    pub fn timed(capacity: usize) -> Self {
        Self::new(capacity, Box::new(MonotonicClock::new()))
    }

    /// A disabled trace: every operation is a no-op, no arena is allocated.
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
            clock: Box::new(NullClock),
        }
    }

    /// Opens a span at simulated instant `sim_now`, nested under the
    /// innermost open span. Allocation-free: a full arena drops the span
    /// (counted) instead of growing.
    #[inline]
    pub fn begin(&mut self, name: &'static str, sim_now: SimTime) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.spans.len() == self.spans.capacity() || self.stack.len() == self.stack.capacity() {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let host = self.clock.now_ns();
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            sim_start: sim_now,
            sim_end: sim_now,
            host_start_ns: host,
            host_end_ns: host,
            args: [None; 2],
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Closes a span at simulated instant `sim_now`. Closing out of order
    /// closes the given span and pops it (and anything nested deeper) off
    /// the open stack.
    #[inline]
    pub fn end(&mut self, id: SpanId, sim_now: SimTime) {
        if id == SpanId::NONE {
            return;
        }
        let rec = &mut self.spans[id.0 as usize];
        rec.sim_end = sim_now;
        rec.host_end_ns = self.clock.now_ns();
        while let Some(top) = self.stack.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Attaches a key/value annotation to an open-or-closed span. A span
    /// holds two: setting a key again overwrites its value, and a third
    /// distinct key replaces the second.
    #[inline]
    pub fn set_arg(&mut self, id: SpanId, key: &'static str, value: u64) {
        if id == SpanId::NONE {
            return;
        }
        let args = &mut self.spans[id.0 as usize].args;
        let slot = usize::from(args[0].is_some_and(|(k, _)| k != key));
        args[slot] = Some((key, value));
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Clears recorded spans, keeping the arena capacity. Allocation-free —
    /// lets one warm `Trace` be reused across iterations.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.stack.clear();
        self.dropped = 0;
    }

    /// Consumes the trace into its immutable report.
    pub fn into_report(self) -> TraceReport {
        TraceReport {
            spans: self.spans,
            dropped: self.dropped,
        }
    }

    /// Copies the current state into a report without consuming the trace.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            spans: self.spans.clone(),
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use desim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(s)
    }

    #[test]
    fn spans_nest_via_stack() {
        let mut tr = Trace::deterministic(8);
        let root = tr.begin("root", t(0));
        let a = tr.begin("a", t(10));
        tr.end(a, t(20));
        let b = tr.begin("b", t(20));
        tr.end(b, t(30));
        tr.end(root, t(30));
        let rep = tr.into_report();
        assert_eq!(rep.span_names(), vec!["root", "a", "b"]);
        assert_eq!(rep.spans[0].parent, NO_PARENT);
        assert_eq!(rep.spans[1].parent, 0);
        assert_eq!(rep.spans[2].parent, 0);
        assert_eq!(rep.spans[1].sim_start, t(10));
        assert_eq!(rep.spans[1].sim_end, t(20));
        assert_eq!(rep.dropped, 0);
    }

    #[test]
    fn full_arena_drops_not_grows() {
        let mut tr = Trace::deterministic(2);
        let a = tr.begin("a", t(0));
        tr.end(a, t(1));
        let b = tr.begin("b", t(1));
        tr.end(b, t(2));
        let c = tr.begin("c", t(2));
        assert_eq!(c, SpanId::NONE);
        tr.end(c, t(3)); // no-op
        tr.set_arg(c, "k", 1); // no-op
        let rep = tr.into_report();
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.dropped, 1);
    }

    #[test]
    fn disabled_trace_is_inert() {
        let mut tr = Trace::disabled();
        let s = tr.begin("x", t(0));
        tr.set_arg(s, "k", 9);
        tr.end(s, t(5));
        let rep = tr.into_report();
        assert!(rep.spans.is_empty());
        assert_eq!(rep.dropped, 0);
    }

    #[test]
    fn manual_clock_fills_host_intervals() {
        let mut tr = Trace::new(4, Box::new(ManualClock::with_step(100)));
        let s = tr.begin("x", t(0));
        tr.end(s, t(1));
        let rep = tr.into_report();
        assert_eq!(rep.spans[0].host_start_ns, 0);
        assert_eq!(rep.spans[0].host_end_ns, 100);
    }

    #[test]
    fn reset_reuses_arena() {
        let mut tr = Trace::deterministic(2);
        let a = tr.begin("a", t(0));
        tr.end(a, t(1));
        tr.reset();
        assert!(tr.is_empty());
        let b = tr.begin("b", t(5));
        tr.set_arg(b, "k", 3);
        tr.end(b, t(6));
        let rep = tr.report();
        assert_eq!(rep.span_names(), vec!["b"]);
        assert_eq!(rep.spans[0].args, [Some(("k", 3)), None]);
    }

    #[test]
    fn a_span_keeps_two_args() {
        let mut tr = Trace::deterministic(1);
        let s = tr.begin("search", t(0));
        tr.set_arg(s, "enumerated", 7);
        tr.set_arg(s, "pruned_ties", 5);
        tr.set_arg(s, "enumerated", 8);
        let expect = [Some(("enumerated", 8)), Some(("pruned_ties", 5))];
        assert_eq!(tr.report().spans[0].args, expect);
        tr.set_arg(s, "third", 1);
        assert_eq!(tr.report().spans[0].args[1], Some(("third", 1)));
    }

    #[test]
    fn deterministic_traces_compare_equal() {
        let run = || {
            let mut tr = Trace::deterministic(4);
            let r = tr.begin("answer", t(0));
            let s = tr.begin("search", t(10));
            tr.set_arg(s, "enumerated", 42);
            tr.end(s, t(50));
            tr.end(r, t(60));
            tr.into_report()
        };
        assert_eq!(run(), run());
    }
}
