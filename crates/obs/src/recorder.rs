//! Always-on flight recorder: bounded postmortem memory for the plane.
//!
//! The recorder keeps three rings — recent [`WindowSummary`]s, recent
//! sampled [`StitchedTrace`]s, and recent [`SloEvent`]s — sized in
//! entries, not time, so memory stays bounded no matter how long the
//! plane runs. On SLO breach (or on demand) [`FlightRecorder::dump`]
//! renders a self-contained [`PostmortemBundle`]: one Chrome
//! `trace_event` JSON holding every stitched cross-component trace (lanes
//! named `trace<id>/<component>`), a line-oriented metrics text with
//! per-window per-class quantiles, and an SLO transition timeline.
//!
//! Stitching happens upstream (the sequencer assembles lanes from the
//! admission record, the shard collector's gather, the aggregation
//! plane's sync trace, and the worker's answer trace); the recorder only
//! retains and renders.

use std::collections::VecDeque;

use crate::export::chrome_trace_json;
use crate::slo::{SloEvent, SloEventKind};
use crate::timeseries::WindowSummary;
use crate::trace::TraceReport;

/// One sampled query's end-to-end trace, stitched from per-component
/// lanes that all share the simulated timeline.
#[derive(Clone, Debug)]
pub struct StitchedTrace {
    /// Deterministic trace id minted by the sampler.
    pub trace_id: u64,
    /// `(lane label, spans)` pairs — e.g. `admission`, `collector/shard3`,
    /// `aggregator`, `worker2`.
    pub lanes: Vec<(String, TraceReport)>,
}

/// Window summaries retained.
const WINDOWS: usize = 128;
/// Stitched traces retained.
const TRACES: usize = 32;
/// SLO events retained.
const EVENTS: usize = 128;

/// A rendered postmortem, ready to write to disk.
#[derive(Clone, Debug)]
pub struct PostmortemBundle {
    /// Chrome `trace_event` JSON of every retained stitched trace.
    pub chrome_json: String,
    /// Per-window metrics text (quantiles per tenant class, rung
    /// distribution, shard counts).
    pub metrics_text: String,
    /// SLO transition timeline, one line per breach/recover event.
    pub slo_text: String,
}

/// Bounded rings of recent telemetry, dumpable at any time.
#[derive(Default)]
pub struct FlightRecorder {
    windows: VecDeque<WindowSummary>,
    traces: VecDeque<StitchedTrace>,
    events: VecDeque<SloEvent>,
}

/// Appends `x`, evicting the oldest entry once `q` holds `cap`.
fn push_bounded<T>(q: &mut VecDeque<T>, cap: usize, x: T) {
    if q.len() == cap {
        q.pop_front();
    }
    q.push_back(x);
}

impl FlightRecorder {
    /// Retains a finalised window summary, evicting the oldest past
    /// capacity.
    pub fn push_window(&mut self, s: WindowSummary) {
        push_bounded(&mut self.windows, WINDOWS, s);
    }

    /// Retains a stitched trace, evicting the oldest past capacity.
    pub fn push_trace(&mut self, t: StitchedTrace) {
        push_bounded(&mut self.traces, TRACES, t);
    }

    /// Retains an SLO event, evicting the oldest past capacity.
    pub fn push_event(&mut self, e: SloEvent) {
        push_bounded(&mut self.events, EVENTS, e);
    }

    /// Renders everything currently retained into a self-contained
    /// [`PostmortemBundle`]. Deterministic: two identical runs produce
    /// byte-identical bundles.
    pub fn dump(&self) -> PostmortemBundle {
        // Chrome JSON: every lane of every retained trace becomes one
        // thread; the lane label is prefixed with the trace id so the
        // viewer groups a query's components together.
        let labels: Vec<String> = self
            .traces
            .iter()
            .flat_map(|t| {
                t.lanes
                    .iter()
                    .map(move |(lane, _)| format!("trace{:016x}/{}", t.trace_id, lane))
            })
            .collect();
        let mut lanes: Vec<(&str, &TraceReport)> = Vec::with_capacity(labels.len());
        let mut li = 0;
        for t in &self.traces {
            for (_, report) in &t.lanes {
                lanes.push((labels[li].as_str(), report));
                li += 1;
            }
        }
        PostmortemBundle {
            chrome_json: chrome_trace_json(&lanes),
            metrics_text: self.render_metrics(),
            slo_text: self.render_slo(),
        }
    }

    fn render_metrics(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            let start_us = w.start.as_nanos() / 1_000;
            let end_us = start_us + w.width.as_nanos() / 1_000;
            out.push_str(&format!(
                "window {} us=[{},{}) total={} rate_qps={:.1} p50_us={:.1} p99_us={:.1} \
                 p999_us={:.1} rungs={}/{}/{}\n",
                w.window,
                start_us,
                end_us,
                w.total,
                w.rate_qps,
                w.p50_us,
                w.p99_us,
                w.p999_us,
                w.rungs[0],
                w.rungs[1],
                w.rungs[2],
            ));
            for (c, cw) in w.classes.iter().enumerate() {
                out.push_str(&format!(
                    "  class {} count={} rate_qps={:.1} p50_us={:.1} p99_us={:.1} \
                     p999_us={:.1} mean_us={:.1} errors={} shed={} hits={}\n",
                    c,
                    cw.count,
                    cw.rate_qps,
                    cw.p50_us,
                    cw.p99_us,
                    cw.p999_us,
                    cw.mean_us,
                    cw.errors,
                    cw.shed,
                    cw.hits,
                ));
            }
            let shards: Vec<String> = w.shards.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!("  shards {}\n", shards.join("/")));
        }
        out
    }

    fn render_slo(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "w={} t_us={} spec={} value={:.4} threshold={:.4} burn={:.2} {}\n",
                e.window,
                e.start.as_nanos() / 1_000,
                e.name,
                e.value,
                e.threshold,
                e.burn_rate,
                match e.kind {
                    SloEventKind::Breach => "BREACH",
                    SloEventKind::Recover => "RECOVER",
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloSpec, SloTracker};
    use crate::timeseries::{QueryRecord, RingRecorder, RingSpec};
    use crate::trace::Trace;
    use desim::{SimDuration, SimTime};

    const BOUNDS: &[f64] = &[1_000.0, 10_000.0, 100_000.0];

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn lane(name: &'static str, a: u64, b: u64) -> TraceReport {
        let mut tr = Trace::deterministic(4);
        let s = tr.begin(name, t(a));
        tr.end(s, t(b));
        tr.into_report()
    }

    fn summary(latency_us: f64, n: u64) -> WindowSummary {
        let spec = RingSpec {
            width: SimDuration::from_millis(5),
            buckets: 4,
            classes: 2,
            shards: 2,
            bounds: BOUNDS,
        };
        let mut ring = RingRecorder::new(spec);
        for i in 0..n {
            ring.record(
                SimTime::ZERO,
                &QueryRecord {
                    class: (i % 2) as usize,
                    shard: (i % 2) as usize,
                    latency_us,
                    error: false,
                    shed: false,
                    hit: false,
                    rung: 0,
                },
            );
        }
        let mut out = None;
        ring.collect(1, |w, data| out = Some(data.summarize(w, spec.width)));
        out.unwrap()
    }

    fn trace(trace_id: u64) -> StitchedTrace {
        StitchedTrace {
            trace_id,
            lanes: vec![("worker0".to_string(), lane("serve", 0, 10))],
        }
    }

    #[test]
    fn rings_are_bounded() {
        let mut r = FlightRecorder::default();
        for _ in 0..WINDOWS + 2 {
            r.push_window(summary(100.0, 4));
        }
        for i in 0..TRACES as u64 + 3 {
            r.push_trace(trace(i));
        }
        for i in 0..EVENTS as u64 + 2 {
            r.push_event(SloEvent {
                window: i,
                start: SimTime::ZERO,
                name: "p99_latency_us".to_string(),
                kind: SloEventKind::Breach,
                value: 1.0,
                threshold: 0.0,
                burn_rate: 100.0,
            });
        }
        let bundle = r.dump();
        let windows = bundle.metrics_text.lines().filter(|l| l.starts_with("window"));
        assert_eq!(windows.count(), WINDOWS);
        assert_eq!(bundle.chrome_json.matches("thread_name").count(), TRACES);
        assert!(!bundle.chrome_json.contains("trace0000000000000002/"));
        assert!(bundle.chrome_json.contains("trace0000000000000003/"));
        assert_eq!(bundle.slo_text.lines().count(), EVENTS);
        assert!(bundle.slo_text.starts_with("w=2 "));
    }

    #[test]
    fn dump_renders_all_three_sections() {
        let mut r = FlightRecorder::default();
        r.push_window(summary(50_000.0, 8));
        let mut tracker = SloTracker::new(vec![SloSpec::p99_latency_us(25_000.0)], 8);
        let mut ev = Vec::new();
        tracker.evaluate(&summary(50_000.0, 8), &mut ev);
        for e in ev {
            r.push_event(e);
        }
        r.push_trace(StitchedTrace {
            trace_id: 0xabcd,
            lanes: vec![
                ("admission".to_string(), lane("queue", 0, 100)),
                ("collector/shard1".to_string(), lane("gather", 0, 40)),
                ("worker2".to_string(), lane("serve", 100, 550)),
            ],
        });
        let bundle = r.dump();
        assert!(bundle.chrome_json.contains("trace000000000000abcd/admission"));
        assert!(bundle.chrome_json.contains("trace000000000000abcd/collector/shard1"));
        assert!(bundle.chrome_json.contains("trace000000000000abcd/worker2"));
        assert!(bundle.metrics_text.contains("p99_us="));
        assert!(bundle.metrics_text.contains("class 1"));
        assert!(bundle.slo_text.contains("BREACH"));
        // The JSON stays structurally balanced with many lanes.
        assert_eq!(
            bundle.chrome_json.matches('{').count(),
            bundle.chrome_json.matches('}').count()
        );
    }

    #[test]
    fn dump_is_deterministic() {
        let build = || {
            let mut r = FlightRecorder::default();
            r.push_window(summary(300.0, 6));
            r.push_trace(trace(9));
            r.dump()
        };
        let a = build();
        let b = build();
        assert_eq!(a.chrome_json, b.chrome_json);
        assert_eq!(a.metrics_text, b.metrics_text);
        assert_eq!(a.slo_text, b.slo_text);
    }
}
