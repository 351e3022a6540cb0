//! The metric catalogue and the A/A comparison behind `run.sh --aa`.
//!
//! `BENCHMARK.json` at the repo root is the only place that names a
//! workload, a metric, its unit, its direction or its bound. It is embedded
//! at build time and read here, so the program reports exactly what the
//! contract lists and `compare` applies exactly the contract's bounds.

use std::collections::BTreeMap;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which it may worsen; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The embedded contract, parsed once. A malformed file is a build-time
/// input this program cannot run without, so it panics with the reason.
pub fn catalogue() -> &'static Catalogue {
    static CAT: OnceLock<Catalogue> = OnceLock::new();
    CAT.get_or_init(|| parse_catalogue(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// The JSON subset `BENCHMARK.json` uses.
#[derive(Debug, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|f| f.0 == key).map(|f| &f.1),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string \"{key}\"")),
        }
    }

    fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(a)) => Ok(a),
            _ => Err(format!("missing array \"{key}\"")),
        }
    }
}

/// Recursive-descent parser over bytes; strings take no escapes (the
/// contract's names and units cannot contain any).
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            match c {
                b'"' => {
                    let out = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => return Err(format!("escape in string at byte {}", self.i)),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// `open item (',' item)* close`, or `open close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        if self.peek() == Some(close) {
            return self.eat(close);
        }
        loop {
            item(self)?;
            if self.peek() == Some(b',') {
                self.eat(b',')?;
            } else {
                return self.eat(close);
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(b'{', b'}', |p| {
                    let k = p.string()?;
                    p.eat(b':')?;
                    p.value().map(|v| fields.push((k, v)))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("unexpected input at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn parse_catalogue(text: &str) -> Result<Catalogue, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let root = p.value()?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        root.arr(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: m.str("name")?.to_string(),
                    unit: m.str("unit")?.to_string(),
                    higher_is_better: match m.str("better")? {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("better: {other}")),
                    },
                    bound: match m.get("bound") {
                        Some(Json::Num(b)) => Some(*b),
                        _ => None,
                    },
                })
            })
            .collect()
    };
    Ok(Catalogue {
        workloads: root
            .arr("workloads")?
            .iter()
            .map(|w| w.str("name").map(str::to_string))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// One run's log, as `ctperf run` printed it.
#[derive(Default)]
struct RunLog {
    /// workload → metric → value.
    metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// workload → noise key → value.
    noise: BTreeMap<String, BTreeMap<String, f64>>,
    errors: usize,
}

fn parse_log(text: &str) -> RunLog {
    let mut log = RunLog::default();
    let mut workload = String::new();
    let mut traced = false;
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["workload", w, "seed", _, "trace", t] => {
                workload = (*w).to_string();
                traced = *t != "0";
            }
            ["metric", name, value, _unit] if !traced => {
                if let Ok(v) = value.parse() {
                    log.metrics
                        .entry(workload.clone())
                        .or_default()
                        .insert((*name).to_string(), v);
                }
            }
            ["noise", name, value] if !traced => {
                if let Ok(v) = value.parse() {
                    log.noise
                        .entry(workload.clone())
                        .or_default()
                        .insert((*name).to_string(), v);
                }
            }
            ["error:", ..] => log.errors += 1,
            _ => {}
        }
    }
    log
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// A run the machine was too busy to trust: denoising absorbs a lot
/// (raw/denoised 1.1–1.6 is this container's normal), but not a machine
/// that never had a quiet pass.
pub fn too_busy(raw_over_min: f64, steal_ticks: f64) -> bool {
    raw_over_min > 1.8 || steal_ticks > 100.0
}

/// A/A gate: two full runs of the same code must agree within every
/// metric's own bound, in both directions; `quality_s` must repeat
/// exactly. Also prints denoised spread beside raw spread and flags a
/// run the machine was too busy to trust.
pub fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two log files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = (parse_log(&read(a_path)?), parse_log(&read(b_path)?));
    let mut ok = a.errors == 0 && b.errors == 0;
    if !ok {
        println!("FAIL: a run reported correctness errors");
    }
    if a.metrics.is_empty() {
        return Err(format!("{a_path}: no metrics found"));
    }
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "run A", "run B", "diff%", "bound%"
    );
    for (w, am) in &a.metrics {
        let Some(bm) = b.metrics.get(w) else {
            println!("FAIL: {w} missing from {b_path}");
            ok = false;
            continue;
        };
        for m in &catalogue().end_to_end {
            let (Some(&x), Some(&y)) = (am.get(&m.name), bm.get(&m.name)) else {
                println!("FAIL: {w}/{} missing", m.name);
                ok = false;
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let diff = worse_by(x, y, m.higher_is_better).max(worse_by(y, x, m.higher_is_better));
            let exact = m.name == "quality_s";
            let pass = if exact { x == y } else { diff <= bound };
            ok &= pass;
            println!(
                "{w:<14} {:<18} {x:>14.4} {y:>14.4} {:>8.2} {:>6.1}  {}",
                m.name,
                diff * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
        for (tag, log) in [("A", &a), ("B", &b)] {
            let n = log.noise.get(w);
            let get = |k: &str| n.and_then(|n| n.get(k)).copied().unwrap_or(0.0);
            let (ratio, steal) = (get("raw_over_min"), get("steal_ticks"));
            println!(
                "{w:<14} noise run {tag}: raw/denoised {ratio:.3}, raw pass spread {:.1}%, \
                 steal {steal:.0} ticks, pinned {:.0}{}",
                get("raw_spread") * 100.0,
                get("pinned"),
                if too_busy(ratio, steal) {
                    "  <- machine too busy to trust"
                } else {
                    ""
                }
            );
        }
    }
    println!("{}", if ok { "A/A: PASS" } else { "A/A: FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_shape() {
        let c = parse_catalogue(
            r#"{"command": ["bash", "x.sh"], "run_seconds": 20,
                "workloads": [{"name": "a", "why": "x: y, z"}, {"name": "b", "why": ""}],
                "end_to_end": [{"name": "t", "unit": "ops/s", "better": "higher", "bound": 0.05}],
                "per_layer": [{"name": "l.x_us", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(c.workloads, ["a", "b"]);
        assert_eq!(
            c.end_to_end,
            [Metric {
                name: "t".into(),
                unit: "ops/s".into(),
                higher_is_better: true,
                bound: Some(0.05)
            }]
        );
        assert_eq!(c.per_layer[0].bound, None);
        assert!(!c.per_layer[0].higher_is_better);
        assert!(parse_catalogue("{\"workloads\": [}").is_err());
        assert!(
            parse_catalogue("{\"workloads\": []}").is_err(),
            "no metrics"
        );
    }

    /// The embedded `BENCHMARK.json` against the limits of the contract and
    /// against what the program can report.
    #[test]
    fn embedded_contract_is_reportable() {
        let c = catalogue();
        for w in &c.workloads {
            let built = crate::workloads::build(w, 1, crate::workloads::Scale::Smoke);
            assert!(built.is_some(), "ctperf has no workload {w}");
        }
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used once");
        assert!(c.per_layer.len() <= 128 && c.end_to_end.len() <= 16);
        for m in &c.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn log_round_trip_and_direction() {
        let log = parse_log(
            "workload hint_cold seed 1 trace 0\nnoise raw_over_min 1.08\n\
             metric throughput_ops_s 1000.5 ops/s\nmetric lat_p50_us 12 us\n\
             workload hint_cold seed 1 trace 1\nmetric lang.parse_us 3 us\n",
        );
        assert_eq!(log.metrics["hint_cold"]["throughput_ops_s"], 1000.5);
        assert_eq!(
            log.metrics["hint_cold"].len(),
            2,
            "traced metrics are skipped"
        );
        assert_eq!(log.noise["hint_cold"]["raw_over_min"], 1.08);
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
        assert!(too_busy(1.9, 0.0) && too_busy(1.1, 150.0) && !too_busy(1.6, 20.0));
    }
}
