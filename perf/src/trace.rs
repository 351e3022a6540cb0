//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around each call into a
//! layer's public functions: name, start, end, the span that caused it,
//! and the id of the timed unit it belongs to. They stay in memory until
//! the run ends. A span's name is `<layer>.<what>`; a layer's *self time*
//! is its spans' durations minus the part their child spans cover.
//!
//! An `off` tracer records nothing and costs one predictable branch per
//! call, so untraced passes (which all end-to-end metrics come from) run
//! the very same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    unit: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Tok(u32);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit: u32,
}

/// Totals for one span name.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration per call, µs (0 when the span never ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans up front, so the
    /// traced pass does not time `Vec` growth.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            on: true,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the timed-unit id stamped on spans begun from now on.
    #[inline]
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit as u32;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Tok {
        if !self.on {
            return Tok(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            unit: self.unit,
        });
        Tok(id)
    }

    #[inline]
    pub fn end(&mut self, tok: Tok) {
        if !self.on {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(tok.0), "spans must nest");
        self.spans[tok.0 as usize].end_ns = now;
    }

    /// Per-name totals, with self time = duration − direct children.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(c);
        }
        out
    }

    /// Self time per layer (the part of a span name before the first `.`).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, st) in self.stats() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_default() += st.self_ns;
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, µs timestamps): open
    /// in `chrome://tracing` or Perfetto. `args` carry the unit id and the
    /// parent span so the causal tree survives the export.
    pub fn chrome_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 64);
        s.push_str("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let layer = sp.name.split('.').next().unwrap_or(sp.name);
            let parent = if sp.parent == NO_PARENT {
                -1
            } else {
                i64::from(sp.parent)
            };
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"unit\":{}}}}}",
                sp.name,
                layer,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                i,
                parent,
                sp.unit
            );
            s.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on(8);
        t.spans = vec![
            span("bench.pass", 0, 1000, NO_PARENT),
            span("serving.run_until", 100, 700, 0),
            span("lang.parse", 750, 850, 0),
            span("lang.parse", 860, 900, 0),
        ];
        let st = t.stats();
        assert_eq!(
            st["bench.pass"],
            SpanStat {
                count: 1,
                total_ns: 1000,
                self_ns: 1000 - 600 - 100 - 40
            }
        );
        assert_eq!(st["lang.parse"].count, 2);
        assert_eq!(st["lang.parse"].total_ns, 140);
        assert!((st["lang.parse"].mean_us() - 0.07).abs() < 1e-12);
        let layers = t.layer_self_ns();
        assert_eq!(layers["lang"], 140);
        assert_eq!(layers["serving"], 600);
        // Self times partition the root span.
        assert_eq!(layers.values().sum::<u64>(), 1000);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let a = t.begin("x.y");
        t.end(a);
        assert!(t.stats().is_empty());
        assert!(!t.is_on());
    }

    #[test]
    fn live_spans_nest_and_export() {
        let mut t = Tracer::on(4);
        let root = t.begin("bench.pass");
        t.set_unit(3);
        let c = t.begin("lang.parse");
        t.end(c);
        t.end(root);
        let st = t.stats();
        assert!(st["bench.pass"].total_ns >= st["lang.parse"].total_ns);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"lang.parse\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"unit\":3"));
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
