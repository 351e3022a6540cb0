//! Declarative SLO tracking over telemetry windows.
//!
//! An [`SloSpec`] names one plane-wide health invariant of the serving
//! plane — "p99 end-to-end latency ≤ 25ms", "≤ 1% of completions from
//! load-shed waves", "≤ 10% of answers off the full-freshness rung". An
//! [`SloTracker`] evaluates every spec against each finalised
//! [`WindowSummary`] and keeps **burn-rate accounting**: every spec has
//! the same error budget (1% of windows may breach), and the burn rate is
//! the breach fraction over a sliding horizon divided by that budget —
//! burn 1.0 means the budget is being consumed exactly as fast as it
//! accrues, burn 10 means ten times too fast. Transitions emit
//! typed [`SloEvent`]s (breach / recover) that feed the flight recorder's
//! postmortem timeline.
//!
//! Windows with no traffic are skipped: an empty window is neither
//! evidence of health nor of breach, and letting it "recover" a latency
//! SLO would hide sustained overload that sheds everything.

use desim::SimTime;

use crate::timeseries::WindowSummary;

/// What a spec measures in each window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SloKind {
    /// Median end-to-end latency, µs.
    P50LatencyUs,
    /// 99th-percentile end-to-end latency, µs.
    P99LatencyUs,
    /// 99.9th-percentile end-to-end latency, µs.
    P999LatencyUs,
    /// Fraction of completions whose wave was load-shed onto the
    /// heuristic backend (admission rejections never complete, so they
    /// are not counted here).
    ShedRate,
    /// Fraction of queries returning a typed error.
    ErrorRate,
    /// Fraction of answers produced off the full-freshness rung.
    DegradedRate,
}

impl SloKind {
    fn label(self) -> &'static str {
        match self {
            SloKind::P50LatencyUs => "p50_latency_us",
            SloKind::P99LatencyUs => "p99_latency_us",
            SloKind::P999LatencyUs => "p999_latency_us",
            SloKind::ShedRate => "shed_rate",
            SloKind::ErrorRate => "error_rate",
            SloKind::DegradedRate => "degraded_rate",
        }
    }
}

/// Error budget of every spec: the allowed fraction of breaching windows.
/// Burn rate is measured against this.
const BUDGET: f64 = 0.01;

/// One declarative plane-wide SLO: `kind ≤ threshold`, evaluated per
/// window.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Human-readable name, used in events and the postmortem timeline.
    pub name: String,
    /// The measured quantity.
    pub(crate) kind: SloKind,
    /// Inclusive upper bound on the measured value.
    pub threshold: f64,
}

impl SloSpec {
    fn named(kind: SloKind, threshold: f64) -> Self {
        SloSpec {
            name: kind.label().to_string(),
            kind,
            threshold,
        }
    }

    /// Plane-wide p99 latency bound, µs.
    pub fn p99_latency_us(threshold: f64) -> Self {
        Self::named(SloKind::P99LatencyUs, threshold)
    }

    /// Parses the `--slo` flag grammar: `p50=|p99=|p999=` followed by a
    /// duration (`25ms`, `800us`), or `shed=|error=|degraded=` followed by
    /// a rate (`1%` or `0.01`). Several specs separated by commas.
    pub(crate) fn parse(s: &str) -> Result<SloSpec, String> {
        let (key, val) = s
            .split_once('=')
            .ok_or_else(|| format!("slo `{s}`: expected key=value"))?;
        let kind = match key.trim() {
            "p50" => SloKind::P50LatencyUs,
            "p99" => SloKind::P99LatencyUs,
            "p999" => SloKind::P999LatencyUs,
            "shed" => SloKind::ShedRate,
            "error" => SloKind::ErrorRate,
            "degraded" => SloKind::DegradedRate,
            k => return Err(format!("slo `{s}`: unknown key `{k}`")),
        };
        let val = val.trim();
        let threshold = match kind {
            SloKind::P50LatencyUs | SloKind::P99LatencyUs | SloKind::P999LatencyUs => {
                if let Some(ms) = val.strip_suffix("ms") {
                    ms.parse::<f64>().map(|v| v * 1_000.0)
                } else if let Some(us) = val.strip_suffix("us") {
                    us.parse::<f64>()
                } else {
                    val.parse::<f64>() // bare number: µs
                }
                .map_err(|e| format!("slo `{s}`: bad duration: {e}"))?
            }
            _ => {
                if let Some(pct) = val.strip_suffix('%') {
                    pct.parse::<f64>()
                        .map(|v| v / 100.0)
                        .map_err(|e| format!("slo `{s}`: bad rate: {e}"))?
                } else {
                    val.parse::<f64>()
                        .map_err(|e| format!("slo `{s}`: bad rate: {e}"))?
                }
            }
        };
        Ok(Self::named(kind, threshold))
    }

    /// Parses a comma-separated list of specs (`p99=25ms,shed=1%`).
    pub fn parse_list(s: &str) -> Result<Vec<SloSpec>, String> {
        s.split(',')
            .filter(|p| !p.trim().is_empty())
            .map(SloSpec::parse)
            .collect()
    }

    fn measure(&self, s: &WindowSummary) -> f64 {
        match self.kind {
            SloKind::P50LatencyUs => s.p50_us,
            SloKind::P99LatencyUs => s.p99_us,
            SloKind::P999LatencyUs => s.p999_us,
            SloKind::ShedRate => s.shed_rate(),
            SloKind::ErrorRate => s.error_rate(),
            SloKind::DegradedRate => s.degraded_rate(),
        }
    }
}

/// Breach-state transition of one spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloEventKind {
    /// The spec went from holding to breached this window.
    Breach,
    /// The spec went from breached back to holding.
    Recover,
}

/// A typed SLO transition, stamped with the window that caused it.
#[derive(Clone, Debug)]
pub struct SloEvent {
    /// Index of the window that triggered the transition.
    pub(crate) window: u64,
    /// Start of that window on the simulated timeline.
    pub(crate) start: SimTime,
    /// Spec name (cloned for self-contained postmortems).
    pub(crate) name: String,
    /// Transition direction.
    pub kind: SloEventKind,
    /// Measured value this window.
    pub(crate) value: f64,
    /// The spec's threshold.
    pub(crate) threshold: f64,
    /// Burn rate at the transition (breach fraction over the sliding
    /// horizon / error budget).
    pub(crate) burn_rate: f64,
}

struct SpecState {
    recent: std::collections::VecDeque<bool>,
    recent_breached: usize,
    in_breach: bool,
}

/// Evaluates a set of [`SloSpec`]s window by window, maintaining sliding
/// burn rates and emitting transition events.
pub struct SloTracker {
    specs: Vec<SloSpec>,
    state: Vec<SpecState>,
    horizon: usize,
}

impl SloTracker {
    /// A tracker over `specs` with a sliding burn-rate horizon of
    /// `horizon` evaluated windows.
    pub fn new(specs: Vec<SloSpec>, horizon: usize) -> Self {
        let state = specs
            .iter()
            .map(|_| SpecState {
                recent: std::collections::VecDeque::with_capacity(horizon.max(1)),
                recent_breached: 0,
                in_breach: false,
            })
            .collect();
        SloTracker {
            specs,
            state,
            horizon: horizon.max(1),
        }
    }

    /// Current burn rate of spec `i` over the sliding horizon.
    pub(crate) fn burn_rate(&self, i: usize) -> f64 {
        let st = &self.state[i];
        if st.recent.is_empty() {
            return 0.0;
        }
        let frac = st.recent_breached as f64 / st.recent.len() as f64;
        frac / BUDGET
    }

    /// Evaluates all specs against one finalised window, pushing any
    /// breach/recover transitions onto `events`. Windows with no traffic
    /// are skipped entirely.
    pub fn evaluate(&mut self, summary: &WindowSummary, events: &mut Vec<SloEvent>) {
        if summary.total == 0 {
            return;
        }
        for i in 0..self.specs.len() {
            let value = self.specs[i].measure(summary);
            let breached = value > self.specs[i].threshold;
            let st = &mut self.state[i];
            if st.recent.len() == self.horizon && st.recent.pop_front() == Some(true) {
                st.recent_breached -= 1;
            }
            st.recent.push_back(breached);
            st.recent_breached += breached as usize;
            let transition = breached != st.in_breach;
            st.in_breach = breached;
            if transition {
                let burn = self.burn_rate(i);
                events.push(SloEvent {
                    window: summary.window,
                    start: summary.start,
                    name: self.specs[i].name.clone(),
                    kind: if breached {
                        SloEventKind::Breach
                    } else {
                        SloEventKind::Recover
                    },
                    value,
                    threshold: self.specs[i].threshold,
                    burn_rate: burn,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{QueryRecord, RingRecorder, RingSpec};
    use desim::{SimDuration, SimTime};

    const BOUNDS: &[f64] = &[1_000.0, 10_000.0, 100_000.0];

    fn window(latency_us: f64, n: u64, shed: u64) -> WindowSummary {
        let spec = RingSpec {
            width: SimDuration::from_millis(5),
            buckets: 4,
            classes: 1,
            shards: 1,
            bounds: BOUNDS,
        };
        let mut ring = RingRecorder::new(spec);
        for i in 0..n {
            ring.record(
                SimTime::ZERO,
                &QueryRecord {
                    class: 0,
                    shard: 0,
                    latency_us,
                    error: false,
                    shed: i < shed,
                    hit: false,
                    rung: 0,
                },
            );
        }
        let mut out = None;
        ring.collect(1, |w, data| out = Some(data.summarize(w, spec.width)));
        out.unwrap()
    }

    #[test]
    fn breach_and_recover_emit_one_event_each() {
        let mut t = SloTracker::new(vec![SloSpec::p99_latency_us(25_000.0)], 16);
        let mut ev = Vec::new();
        t.evaluate(&window(50_000.0, 10, 0), &mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, SloEventKind::Breach);
        assert!(ev[0].value > 25_000.0);
        // Staying breached is not a new transition.
        t.evaluate(&window(50_000.0, 10, 0), &mut ev);
        assert_eq!(ev.len(), 1);
        t.evaluate(&window(500.0, 10, 0), &mut ev);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].kind, SloEventKind::Recover);
    }

    #[test]
    fn burn_rate_scales_with_breach_fraction_over_budget() {
        let mut t = SloTracker::new(vec![SloSpec::p99_latency_us(25_000.0)], 10);
        let mut ev = Vec::new();
        for _ in 0..5 {
            t.evaluate(&window(50_000.0, 4, 0), &mut ev);
        }
        for _ in 0..5 {
            t.evaluate(&window(100.0, 4, 0), &mut ev);
        }
        // 5 of 10 recent windows breached against the 1% budget: burn = 50.
        assert!((t.burn_rate(0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_windows_neither_breach_nor_recover() {
        let mut t = SloTracker::new(vec![SloSpec::p99_latency_us(1.0)], 4);
        let mut ev = Vec::new();
        t.evaluate(&window(50_000.0, 4, 0), &mut ev);
        assert_eq!(ev.len(), 1);
        t.evaluate(&window(0.0, 0, 0), &mut ev);
        assert_eq!(ev.len(), 1, "empty window must not transition");
        t.evaluate(&window(50_000.0, 4, 0), &mut ev);
        assert_eq!(ev.len(), 1, "the breach outlived the empty window");
    }

    #[test]
    fn shed_rate_spec_breaches_on_ratio() {
        let mut t = SloTracker::new(vec![SloSpec::parse("shed=1%").unwrap()], 8);
        let mut ev = Vec::new();
        t.evaluate(&window(100.0, 10, 5), &mut ev);
        assert_eq!(ev.len(), 1);
        assert!((ev[0].value - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parse_grammar_round_trips() {
        let s = SloSpec::parse("p99=25ms").unwrap();
        assert_eq!(s.kind, SloKind::P99LatencyUs);
        assert!((s.threshold - 25_000.0).abs() < 1e-9);
        let s = SloSpec::parse("p50=800us").unwrap();
        assert!((s.threshold - 800.0).abs() < 1e-9);
        let s = SloSpec::parse("shed=1%").unwrap();
        assert_eq!(s.kind, SloKind::ShedRate);
        assert!((s.threshold - 0.01).abs() < 1e-9);
        let list = SloSpec::parse_list("p99=25ms,shed=1%,degraded=0.1").unwrap();
        assert_eq!(list.len(), 3);
        assert!(SloSpec::parse("p98=1ms").is_err());
        assert!(SloSpec::parse("nonsense").is_err());
    }
}
