//! Exporters: Chrome `trace_event` JSON and a flat metrics dump.
//!
//! Serialisation is hand-rolled (no serde in this offline workspace) and
//! fully deterministic: timestamps are integer-nanosecond sim times printed
//! as exact microsecond decimals, and iteration follows registration /
//! begin order. Load the JSON at `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use crate::metrics::MetricsRegistry;
use crate::trace::{TraceReport, NO_PARENT};

/// Prints integer nanoseconds as microseconds with exact 3-decimal
/// precision (`1234567` ns → `"1234.567"`), avoiding float formatting.
fn ns_to_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders traces as Chrome `trace_event` JSON.
///
/// Each `(label, report)` pair becomes one thread (`tid` = index + 1) whose
/// spans are emitted as complete (`"ph":"X"`) events on the simulated
/// timeline; the host-clock interval and the span's annotation ride along
/// in `args`. A thread-name metadata event labels each lane.
pub fn chrome_trace_json(traces: &[(&str, &TraceReport)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&ev);
    };
    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"cloudtalk\"}}"
            .to_string(),
    );
    for (i, (label, report)) in traces.iter().enumerate() {
        let tid = i + 1;
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(label)
            ),
        );
        for span in &report.spans {
            let ts = ns_to_us(span.sim_start.as_nanos());
            let dur = ns_to_us(span.sim_end.as_nanos() - span.sim_start.as_nanos());
            let host_ns = span.host_end_ns.saturating_sub(span.host_start_ns);
            let mut args = format!("\"host_ns\":{host_ns}");
            for (k, v) in span.args.iter().flatten() {
                args.push_str(&format!(",\"{}\":{v}", escape(k)));
            }
            if span.parent != NO_PARENT {
                args.push_str(&format!(",\"parent\":{}", span.parent));
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\
                     \"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
                    escape(span.name)
                ),
            );
        }
        if report.dropped > 0 {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"I\",\"pid\":1,\"tid\":{tid},\"name\":\"spans_dropped\",\
                     \"ts\":0.000,\"s\":\"t\",\"args\":{{\"count\":{}}}}}",
                    report.dropped
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Prints an f64 deterministically for the flat dump: integers without a
/// fraction, everything else via Rust's shortest-roundtrip formatting.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders a registry as a flat, line-oriented dump:
///
/// ```text
/// counter engine.events 128
/// gauge engine.max_component 6
/// histogram server.gather_rounds le=1:3 le=2:1 overflow:0 total=4 sum=5 p50=1 p99=2 p999=2
/// ```
///
/// Histogram lines carry both the raw bucket counts *and* the estimated
/// p50/p99/p999 ([`crate::metrics::Histogram::quantile`]), so the text
/// dump preserves the distribution instead of collapsing it to a sum.
/// Lines follow registration order, so a deterministic program produces a
/// byte-identical dump.
pub fn metrics_dump(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        out.push_str(&format!("counter {name} {v}\n"));
    }
    for (name, v) in reg.gauges() {
        out.push_str(&format!("gauge {name} {}\n", fmt_f64(v)));
    }
    for (name, h) in reg.histograms() {
        out.push_str(&format!("histogram {name}"));
        let counts = h.counts();
        for (i, b) in h.bounds().iter().enumerate() {
            out.push_str(&format!(" le={}:{}", fmt_f64(*b), counts[i]));
        }
        out.push_str(&format!(
            " overflow:{} total={} sum={} p50={} p99={} p999={}\n",
            counts[h.bounds().len()],
            h.total(),
            fmt_f64(h.sum()),
            fmt_f64(h.p50()),
            fmt_f64(h.p99()),
            fmt_f64(h.p999()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use desim::{SimDuration, SimTime};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn chrome_json_has_events_and_thread_names() {
        let mut tr = Trace::deterministic(4);
        let root = tr.begin("answer", t(0));
        let s = tr.begin("search", t(10));
        tr.set_arg(s, "enumerated", 7);
        tr.end(s, t(40));
        tr.end(root, t(50));
        let rep = tr.into_report();
        let json = chrome_trace_json(&[("query-0", &rep)]);
        assert!(json.contains("\"name\":\"answer\""));
        assert!(json.contains("\"name\":\"search\""));
        assert!(json.contains("\"ts\":10.000"));
        assert!(json.contains("\"dur\":30.000"));
        assert!(json.contains("\"enumerated\":7"));
        assert!(json.contains("\"name\":\"query-0\""));
        // Crude structural check: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn dropped_spans_emit_instant_marker() {
        let mut tr = Trace::deterministic(1);
        let a = tr.begin("a", t(0));
        tr.end(a, t(1));
        let b = tr.begin("b", t(1));
        tr.end(b, t(2));
        let json = chrome_trace_json(&[("q", &tr.into_report())]);
        assert!(json.contains("spans_dropped"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn metrics_dump_is_flat_and_ordered() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        let g = reg.gauge("a.peak");
        let h = reg.histogram("a.hist", &[1.0, 2.0]);
        reg.inc(c, 3);
        reg.gauge_set(g, 6.5);
        reg.observe(h, 0.5);
        reg.observe(h, 9.0);
        let dump = metrics_dump(&reg);
        // p50: the single sub-1.0 observation interpolates to the first
        // edge; p99/p999 land in overflow and clamp to the highest finite
        // edge — the honest fixed-bucket answer.
        assert_eq!(
            dump,
            "counter a.count 3\n\
             gauge a.peak 6.5\n\
             histogram a.hist le=1:1 le=2:0 overflow:1 total=2 sum=9.5 p50=1 p99=2 p999=2\n"
        );
    }

    #[test]
    fn escaping_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
