//! `ctperf` — the repo's wall-clock benchmark. See `perf/README.md`.
//!
//! ```text
//! ctperf run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--passes <p>] [--smoke] [--out <dir>]
//! ctperf compare <run-a.log> <run-b.log>
//! ```
//!
//! `run` prints every metric as `metric <name> <value> <unit>` and, as
//! the last line of stdout, the result object of the benchmark contract.
//! `compare` is the A/A gate behind `run.sh --aa`.

mod denoise;
mod metrics;
mod proc;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use denoise::{knife_edges, percentile, tail_percentile, throughput_ops_s, unit_sums, PassMatrix};
use metrics::catalogue;
use proc::ProcStat;
use trace::Tracer;
use workloads::{PassCtx, PassOut, Scale, Units, Workload};

struct RunOpts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: Option<usize>,
    scale: Scale,
    out_dir: String,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: String::new(),
        seed: 2017,
        seconds: 20.0,
        trace: false,
        passes: None,
        scale: Scale::Full,
        out_dir: "perf/out".into(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?.clone(),
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = val()? != "0",
            "--passes" => o.passes = Some(val()?.parse().map_err(|e| format!("--passes: {e}"))?),
            "--out" => o.out_dir = val()?.clone(),
            "--smoke" => {
                o.scale = Scale::Smoke;
                o.passes.get_or_insert(1);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !catalogue().workloads.contains(&o.workload) {
        return Err(format!(
            "--workload must be one of {}",
            catalogue().workloads.join(", ")
        ));
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) || o.passes == Some(0) {
        return Err("--seconds must be in (0, 600] and --passes at least 1".into());
    }
    Ok(o)
}

/// Result of the pass loop shared by the untraced and traced runs.
struct Loop {
    /// Wall-clock of the untraced passes, segment by segment.
    matrix: PassMatrix,
    /// Process CPU time of the untraced passes, segment by segment.
    cpu: PassMatrix,
    /// Where the timed units end among the segments (the same every pass).
    unit_ends: Vec<usize>,
    first: PassOut,
    attempted: u64,
    failed: u64,
    setup_min_ns: u64,
    /// Peak resident set of every untraced pass, MB.
    peak_rss_mb: Vec<f64>,
    errors: Vec<String>,
}

/// Replays the schedule, unscored, until the time or pass budget is spent.
/// `tracer_for` picks each pass's tracer; a traced pass is handed to `keep`
/// instead of being folded into the untraced matrices.
fn pass_loop(
    w: &dyn Workload,
    budget_s: f64,
    passes: Option<usize>,
    mut tracer_for: impl FnMut(usize) -> Tracer,
    mut keep: impl FnMut(Tracer, &[u64], &PassOut),
) -> Loop {
    let start = Instant::now();
    let mut matrix = PassMatrix::new();
    let mut cpu = PassMatrix::new();
    let mut units = Units::with_capacity(w.units());
    let mut unit_ends: Vec<usize> = Vec::new();
    let mut first: Option<PassOut> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_min_ns = u64::MAX;
    let mut errors = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let mut n = 0usize;
    loop {
        units.clear();
        let mut tr = tracer_for(n);
        // Where the kernel refuses, every pass reads the process-wide mark.
        proc::reset_peak_rss();
        let out = w.pass(&mut PassCtx {
            score: false,
            tr: &mut tr,
            units: &mut units,
        });
        assert_eq!(units.unit_ends.len(), w.units(), "a pass times every unit");
        if n == 0 {
            unit_ends.clone_from(&units.unit_ends);
        }
        assert_eq!(
            units.unit_ends, unit_ends,
            "every pass cuts the same segments"
        );
        if tr.is_on() {
            keep(tr, &units.lat_ns, &out);
        } else {
            matrix.absorb(&units.lat_ns);
            cpu.absorb(&units.cpu_ns);
            setup_min_ns = setup_min_ns.min(out.setup_ns);
            peak_rss_mb.push(proc::peak_rss_mb());
        }
        attempted += out.attempted;
        failed += out.failed;
        if let Some(v) = &out.violation {
            errors.push(format!("pass {n}: {v}"));
        }
        match &first {
            Some(f) if f.digest != out.digest => errors.push(format!(
                "pass {n}: answer digest {:016x} differs from pass 0 {:016x}",
                out.digest, f.digest
            )),
            Some(_) => {}
            None => first = Some(out),
        }
        n += 1;
        let done = match passes {
            Some(p) => n >= p,
            None => n >= 3 && start.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            break;
        }
    }
    Loop {
        matrix,
        cpu,
        unit_ends,
        first: first.expect("at least one pass ran"),
        attempted,
        failed,
        setup_min_ns,
        peak_rss_mb,
        errors,
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in the order `BENCHMARK.json` lists them.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra lines for the human and for `compare`.
    notes: Vec<String>,
}

fn run_untraced(w: &dyn Workload, o: &RunOpts) -> Report {
    let steal0 = proc::steal_ticks();
    let mut l = pass_loop(w, o.seconds, o.passes, |_| Tracer::off(), |_, _, _| {});
    let steal = proc::steal_ticks().saturating_sub(steal0);
    let mut errors = l.errors;
    // One more pass, untimed, that re-scores every decision against ground
    // truth and runs the gates too dear for every pass.
    let scored = w.pass(&mut PassCtx {
        score: true,
        tr: &mut Tracer::off(),
        units: &mut Units::with_capacity(w.units()),
    });
    if scored.digest != l.first.digest {
        errors.push(format!(
            "scored pass: answer digest {:016x} differs from pass 0 {:016x}",
            scored.digest, l.first.digest
        ));
    }
    if let Some(v) = &scored.violation {
        errors.push(format!("scored pass: {v}"));
    }
    if let Err(e) = w.verify(&scored) {
        errors.push(format!("verify: {e}"));
    }
    let (attempted, failed) = (l.attempted + scored.attempted, l.failed + scored.failed);
    if failed > 0 {
        errors.push(format!("{failed} of {attempted} operations failed"));
    }
    let quality = scored.quality_s.unwrap_or_else(|| {
        errors.push("the scored pass reported no quality".into());
        0.0
    });

    let den = unit_sums(l.matrix.denoised(), &l.unit_ends);
    let mut sorted = den.clone();
    sorted.sort_unstable();
    let tail = tail_percentile(sorted.len());
    let ops_per_pass = w.units() * w.ops_per_unit();
    let cpu_us = l.cpu.denoised_total_ns() as f64 / 1e3 / ops_per_pass as f64;
    let values: BTreeMap<&str, f64> = [
        ("setup_s", l.setup_min_ns as f64 / 1e9),
        (
            "throughput_ops_s",
            throughput_ops_s(l.matrix.denoised_total_ns(), ops_per_pass),
        ),
        ("lat_p50_us", percentile(&sorted, 50.0) as f64 / 1e3),
        ("lat_tail_us", percentile(&sorted, tail) as f64 / 1e3),
        ("cpu_us_per_op", cpu_us),
        // The median pass: the mark of a single process creeps with
        // allocator fragmentation and with how many passes fit the budget,
        // and the gates (oracle searches, replays, vanilla policies)
        // allocate what the measured program never does.
        ("peak_rss_mb", median(&mut l.peak_rss_mb)),
        ("quality_s", quality),
    ]
    .into_iter()
    .collect();

    let ratio = l.matrix.raw_over_min();
    let mut notes = vec![
        format!(
            "info passes {} units {} segments {} ops_per_unit {} tail p{tail:.0} samples {}",
            l.matrix.passes(),
            w.units(),
            l.matrix.denoised().len(),
            w.ops_per_unit(),
            sorted.len()
        ),
        format!("noise raw_over_min {ratio:.4}"),
        format!("noise raw_spread {:.4}", l.matrix.raw_spread()),
        format!(
            "info raw pass totals ms:{} denoised {:.1}",
            l.matrix
                .raw_totals_ns()
                .iter()
                .map(|&t| format!(" {:.1}", t as f64 / 1e6))
                .collect::<String>(),
            l.matrix.denoised_total_ns() as f64 / 1e6
        ),
        format!("noise steal_ticks {steal}"),
        format!("noise pinned {}", pinned()),
    ];
    if den.len() <= 32 {
        // Few, named units (`paper_apps`): the percentiles are two of
        // these, so show all of them.
        notes.push(format!(
            "info denoised unit us:{}",
            den.iter()
                .map(|&t| format!(" {:.0}", t as f64 / 1e3))
                .collect::<String>()
        ));
    }
    if metrics::too_busy(ratio, steal as f64) {
        notes.push(format!(
            "warn busy machine: raw/denoised {ratio:.2}, steal {steal} ticks — \
             timings of this run are unresolved, not a regression"
        ));
    }
    for e in knife_edges(&sorted, &[50.0, tail], 2.0, 0.05) {
        notes.push(format!(
            "warn knife_edge p{:.0} sits {:.2} points from a {:.1}% jump",
            e.percentile,
            (e.jump_at - e.percentile).abs(),
            e.jump * 100.0
        ));
    }
    for e in &errors {
        notes.push(format!("error: {e}"));
    }
    Report {
        correct: errors.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics: catalogue()
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), values[m.name.as_str()], m.unit.as_str()))
            .collect(),
        notes,
    }
}

fn run_traced(w: &dyn Workload, o: &RunOpts) -> Report {
    let steal0 = proc::steal_ticks();
    let cpu0 = ProcStat::read();
    let ctx0 = proc::ctx_switches();
    // Odd passes are traced, even ones are not: the same minutes, the
    // same machine, so their denoised throughputs differ by the tracing
    // overhead alone.
    let units = w.units();
    let mut traced = PassMatrix::new();
    let mut last: Option<(Tracer, BTreeMap<&'static str, f64>)> = None;
    // Two fifths of the run replay the schedule, the rest is probes.
    let budget = o.seconds * 0.4;
    let l = pass_loop(
        w,
        budget,
        o.passes.map(|p| 2 * p),
        |n| {
            if n % 2 == 1 {
                // Spans per unit vary by workload; 8 per op is generous
                // for all of them and one allocation either way.
                Tracer::on(units * w.ops_per_unit() * 8 + 64)
            } else {
                Tracer::off()
            }
        },
        |tr, lat, out| {
            traced.absorb(lat);
            last = Some((tr, out.counts.clone()));
        },
    );
    let ops_per_pass = units * w.ops_per_unit();
    let pass_ops = ((l.matrix.passes() + traced.passes()) * ops_per_pass) as f64;
    let cpu = ProcStat::read();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert(
        "proc.minflt_per_op",
        (cpu.minflt - cpu0.minflt) as f64 / pass_ops,
    );
    let ticks = (cpu.cpu_ticks() - cpu0.cpu_ticks()).max(1) as f64;
    v.insert(
        "proc.sys_share",
        (cpu.stime_ticks - cpu0.stime_ticks) as f64 / ticks,
    );
    v.insert(
        "proc.ctxsw_per_op",
        (proc::ctx_switches() - ctx0) as f64 / pass_ops,
    );

    let (tr, traced_counts) = last.expect("pass 1 is traced");
    let t_untraced = throughput_ops_s(l.matrix.denoised_total_ns(), ops_per_pass);
    let t_traced = throughput_ops_s(traced.denoised_total_ns(), ops_per_pass);
    v.insert(
        "bench.trace_overhead_pct",
        (t_untraced / t_traced - 1.0) * 100.0,
    );
    // `<layer>.<call>_us` is the mean duration of the span `<layer>.<call>`.
    let stats = tr.stats();
    for m in &catalogue().per_layer {
        if let Some(s) = m.name.strip_suffix("_us").and_then(|span| stats.get(span)) {
            v.insert(m.name.as_str(), s.mean_us());
        }
    }
    let layers = tr.layer_self_ns();
    let total: u64 = layers.values().sum();
    let bench = layers.get("bench").copied().unwrap_or(0);
    v.insert(
        "bench.layer_coverage_pct",
        (total - bench) as f64 / total.max(1) as f64 * 100.0,
    );
    // Counts repeat across passes; the traced pass adds what only its
    // timing wrappers can see.
    for (&k, &x) in l.first.counts.iter().chain(&traced_counts) {
        v.insert(k, x);
    }

    let mut notes = vec![format!(
        "info passes untraced {} traced {} spans {}",
        l.matrix.passes(),
        traced.passes(),
        stats.values().map(|s| s.count).sum::<u64>()
    )];
    notes.push("selftime layer                 self_ms  share".into());
    for (layer, ns) in &layers {
        notes.push(format!(
            "selftime {layer:<20} {:>9.3} {:>5.1}%",
            *ns as f64 / 1e6,
            *ns as f64 / total.max(1) as f64 * 100.0
        ));
    }
    notes.push("span name                      count   mean_us    self_ms".into());
    for (name, s) in &stats {
        notes.push(format!(
            "span {name:<24} {:>7} {:>9.3} {:>10.3}",
            s.count,
            s.mean_us(),
            s.self_ns as f64 / 1e6
        ));
    }

    let mut errors = l.errors;
    let trace_path = format!("{}/trace_{}.json", o.out_dir, o.workload);
    match std::fs::create_dir_all(&o.out_dir)
        .and_then(|()| std::fs::write(&trace_path, tr.chrome_json()))
    {
        Ok(()) => notes.push(format!("info trace written to {trace_path}")),
        Err(e) => errors.push(format!("writing {trace_path}: {e}")),
    }
    drop(tr);

    let probe_budget = match o.scale {
        Scale::Full => (o.seconds - budget) * 0.8,
        Scale::Smoke => 0.5,
    };
    w.probes(&l.first, probe_budget, &mut v);
    v.insert("noise.raw_over_min", l.matrix.raw_over_min());
    v.insert(
        "noise.steal_ticks",
        proc::steal_ticks().saturating_sub(steal0) as f64,
    );
    v.insert("noise.pinned", f64::from(pinned()));

    if l.failed > 0 {
        errors.push(format!("{} of {} operations failed", l.failed, l.attempted));
    }
    for e in &errors {
        notes.push(format!("error: {e}"));
    }
    Report {
        correct: errors.is_empty(),
        attempted: l.attempted.max(1),
        failed: l.failed,
        metrics: catalogue()
            .per_layer
            .iter()
            .map(|m| {
                let value = v.get(m.name.as_str()).copied().unwrap_or(0.0);
                (m.name.as_str(), value, m.unit.as_str())
            })
            .collect(),
        notes,
    }
}

/// Median (upper of the middle two); 0 for an empty slice.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// Whether `run.sh` managed to pin this process to one CPU.
fn pinned() -> u8 {
    u8::from(std::env::var("CTPERF_PINNED").as_deref() == Ok("1"))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// The result object plus where it was measured, for `perf/out/`.
fn context_json(o: &RunOpts, result: &str) -> String {
    let env = |k: &str| {
        std::env::var(k)
            .unwrap_or_else(|_| "unknown".into())
            .replace(['"', '\\'], "'")
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"git_sha\": \"{}\", \
         \"nproc\": \"{}\", \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"pinned\": {}, \
         \"result\": {result}}}\n",
        o.workload,
        o.seed,
        o.trace,
        env("CTPERF_GIT_SHA"),
        env("CTPERF_NPROC"),
        env("CTPERF_CPU_MODEL"),
        env("CTPERF_RUSTC"),
        pinned() == 1,
    )
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let o = parse_run(args)?;
    let w = workloads::build(&o.workload, o.seed, o.scale).ok_or_else(|| {
        format!(
            "BENCHMARK.json names a workload ctperf lacks: {}",
            o.workload
        )
    })?;
    let r = if o.trace {
        run_traced(w.as_ref(), &o)
    } else {
        run_untraced(w.as_ref(), &o)
    };
    println!(
        "workload {} seed {} trace {}",
        o.workload,
        o.seed,
        u8::from(o.trace)
    );
    for n in &r.notes {
        println!("{n}");
    }
    for (name, value, unit) in &r.metrics {
        println!("metric {name} {} {unit}", json_num(*value));
    }
    let result = result_json(&r);
    let path = format!(
        "{}/result_{}{}.json",
        o.out_dir,
        o.workload,
        if o.trace { "_trace" } else { "" }
    );
    if let Err(e) = std::fs::create_dir_all(&o.out_dir)
        .and_then(|()| std::fs::write(&path, context_json(&o, &result)))
    {
        return Err(format!("writing {path}: {e}"));
    }
    println!("{result}");
    Ok(r.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => metrics::cmd_compare(&args[1..]),
        _ => {
            Err("usage: ctperf run --workload <name> [...] | ctperf compare <a.log> <b.log>".into())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ctperf: {e}");
            ExitCode::from(2)
        }
    }
}
