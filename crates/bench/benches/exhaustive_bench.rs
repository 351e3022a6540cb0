//! Criterion benches for the branch-and-bound exhaustive search: the
//! seed-style allocating sequential scan versus the scratch-based search,
//! with and without pruning, single- and multi-threaded, on the paper's
//! 20-server × 3-variable HDFS write query (20·19·18 = 6840 bindings).
//!
//! Two load regimes are measured. `mixed` spreads mild loads across every
//! machine, so almost every binding has a similar makespan and the bound
//! rarely beats the incumbent. `lopsided` models the paper's motivating
//! scenario — a mostly idle cluster with a handful of hot machines — where
//! the incumbent forms early and whole hot-receiver subtrees are discarded
//! without touching the estimator.
//!
//! Before/after numbers are recorded in EXPERIMENTS.md.
//!
//! `--trace <path>` skips the timed runs: it answers the same HDFS query
//! once through the full [`CloudTalkServer`] exhaustive path and writes
//! the answer's span tree as Chrome `trace_event` JSON (load it in
//! `chrome://tracing` or Perfetto) plus a flat metrics dump at
//! `<path>.metrics`:
//!
//! ```text
//! cargo bench -p cloudtalk-bench --bench exhaustive_bench -- --trace trace.json
//! ```
//!
//! `--delta` also skips Criterion: it times [`EvalStrategy::Scratch`]
//! against [`EvalStrategy::Delta`] on the fig3 daisy chains and the HDFS
//! write query over the lopsided world — candidates/sec with pruning off,
//! wall time with pruning on — asserting bit-identical winners first. Add
//! `--json` to write the rows to `BENCH_exhaustive.json`, or `--smoke`
//! (CI) to run only the equivalence assertions — and the check that the
//! tie-heavy `fig3_daisy6_8addr` search stops inside 1 % of its space —
//! and skip the timing:
//!
//! ```text
//! cargo bench -p cloudtalk-bench --bench exhaustive_bench -- --delta --json
//! ```

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cloudtalk::exhaustive::{
    exhaustive_search_in, exhaustive_search_with, EvalStrategy, ExhaustiveResult, SearchOptions,
    SearchWorkspace,
};
use cloudtalk::server::{CloudTalkServer, EvalMethod, ObsConfig, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk_bench::{flag_present, flag_value, row, write_trace};
use cloudtalk_lang::builder::{daisy_chain_query, hdfs_write_query, QueryBuilder};
use cloudtalk_lang::problem::{Address, Binding, Problem};
use desim::SimTime;
use estimator::{estimate, HostState, World};

/// The seed implementation this PR replaced: plain recursion, one fresh
/// estimator allocation per leaf, no bound, no threads. Kept here verbatim
/// so the speedup is measured against the real "before", not a proxy.
fn seed_search(problem: &Problem, world: &World) -> (f64, Binding, u64) {
    fn rec(
        problem: &Problem,
        world: &World,
        current: &mut Binding,
        best: &mut Option<(f64, Binding)>,
        evaluated: &mut u64,
    ) {
        let idx = current.len();
        if idx == problem.vars.len() {
            if !current.is_empty() {
                *evaluated += 1;
                if let Ok(e) = estimate(problem, current, world) {
                    if best.as_ref().is_none_or(|(b, _)| e.makespan < *b) {
                        *best = Some((e.makespan, current.clone()));
                    }
                }
            }
            return;
        }
        let var = &problem.vars[idx];
        for &value in &var.candidates {
            if problem.distinct {
                let clash = current
                    .iter()
                    .enumerate()
                    .any(|(j, v)| problem.vars[j].pool == var.pool && *v == value);
                if clash {
                    continue;
                }
            }
            current.push(value);
            rec(problem, world, current, best, evaluated);
            current.pop();
        }
    }
    let mut current = Vec::with_capacity(problem.vars.len());
    let mut best = None;
    let mut evaluated = 0;
    rec(problem, world, &mut current, &mut best, &mut evaluated);
    let (makespan, binding) = best.expect("feasible");
    (makespan, binding, evaluated)
}

/// Mild loads everywhere: the pruning-neutral regime.
fn mixed_world(addrs: &[Address]) -> World {
    let mut world = World::uniform(addrs, HostState::gbps_idle());
    for (i, &a) in addrs.iter().enumerate() {
        world.set(
            a,
            HostState::gbps_idle()
                .with_up_load(0.08 * (i % 11) as f64)
                .with_down_load(0.06 * (i % 13) as f64),
        );
    }
    world
}

/// Mostly idle cluster with a handful of hot machines: the regime the
/// paper optimises for, and the one where the bound discards subtrees.
fn lopsided_world(addrs: &[Address]) -> World {
    let mut world = World::uniform(addrs, HostState::gbps_idle());
    for (i, &a) in addrs.iter().enumerate() {
        let load = if i % 4 != 0 { 0.9 } else { 0.05 };
        world.set(
            a,
            HostState::gbps_idle()
                .with_up_load(load)
                .with_down_load(load),
        );
    }
    world
}

fn bench_world(c: &mut Criterion, name: &str, problem: &Problem, world: &World) {
    // Sanity: every configuration must agree with the seed scan before
    // any of them is worth timing.
    let (seed_makespan, seed_binding, seed_evaluated) = seed_search(problem, world);
    for threads in [1usize, 2, 4] {
        for prune in [false, true] {
            let r = exhaustive_search_with(
                problem,
                world,
                &SearchOptions::new(1_000_000).threads(threads).prune(prune),
            )
            .expect("feasible");
            assert_eq!(r.binding, seed_binding, "threads={threads} prune={prune}");
            assert_eq!(r.makespan.to_bits(), seed_makespan.to_bits());
            if !prune {
                assert_eq!(r.evaluated, seed_evaluated);
            }
        }
    }

    let mut g = c.benchmark_group(name);
    g.bench_function("seed_sequential_allocating", |b| {
        b.iter(|| seed_search(black_box(problem), black_box(world)))
    });
    g.bench_function("scratch_sequential", |b| {
        let opts = SearchOptions::new(1_000_000).threads(1).prune(false);
        b.iter(|| exhaustive_search_with(black_box(problem), black_box(world), &opts).unwrap())
    });
    g.bench_function("scratch_pruned", |b| {
        let opts = SearchOptions::new(1_000_000).threads(1).prune(true);
        b.iter(|| exhaustive_search_with(black_box(problem), black_box(world), &opts).unwrap())
    });
    g.bench_function("scratch_pruned_2_threads", |b| {
        let opts = SearchOptions::new(1_000_000).threads(2).prune(true);
        b.iter(|| exhaustive_search_with(black_box(problem), black_box(world), &opts).unwrap())
    });
    g.bench_function("scratch_pruned_4_threads", |b| {
        let opts = SearchOptions::new(1_000_000).threads(4).prune(true);
        b.iter(|| exhaustive_search_with(black_box(problem), black_box(world), &opts).unwrap())
    });
    g.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    let nodes: Vec<Address> = (2..=21).map(Address).collect();
    let problem = hdfs_write_query(Address(1), &nodes, 3, 256.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let addrs = problem.mentioned_addresses();

    bench_world(c, "exhaustive_20x3_mixed", &problem, &mixed_world(&addrs));
    bench_world(
        c,
        "exhaustive_20x3_lopsided",
        &problem,
        &lopsided_world(&addrs),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_exhaustive
}

/// Answers the 20-server HDFS query through the server's exhaustive path
/// and exports the query trace plus the server's metrics registry.
fn export_trace(path: &str) {
    let nodes: Vec<Address> = (2..=21).map(Address).collect();
    let problem = hdfs_write_query(Address(1), &nodes, 3, 256.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let world = lopsided_world(&problem.mentioned_addresses());
    let mut status = TableStatusSource::new();
    for (&a, &s) in world.iter() {
        status.set(a, s);
    }
    let mut server = CloudTalkServer::new(ServerConfig {
        method: EvalMethod::Exhaustive { limit: 1_000_000 },
        obs: ObsConfig {
            host_timer: true,
            ..Default::default()
        },
        ..Default::default()
    });
    let a = server
        .answer_problem(&problem, &mut status, SimTime::ZERO)
        .expect("exhaustive answer succeeds");
    let mpath = write_trace(
        path,
        &[("query", &a.provenance.trace)],
        Some(server.metrics()),
    )
    .expect("trace files are writable");
    println!(
        "trace: {} spans ({} bindings evaluated, {} subtrees pruned, {} of them on ties) \
         -> {path} (metrics -> {})",
        a.provenance.trace.spans.len(),
        a.provenance.search.enumerated,
        a.provenance.search.pruned + a.provenance.search.pruned_ties,
        a.provenance.search.pruned_ties,
        mpath.as_deref().unwrap_or("-")
    );
}

/// The fig3 daisy chain generalised to `n_vars` hops: `f1 x1 -> x2 size
/// 100M`, then `f_i x_i -> x_{i+1} size sz(f_{i-1}) transfer t(f_{i-1})`.
/// Each hop is its own rate component, linked only by transfer
/// precedence — the delta evaluator's best case, since rebinding the
/// variable at depth `d` dirties at most two of the `n_vars - 1`
/// components.
fn daisy_chain(addrs: &[Address], n_vars: usize) -> Problem {
    daisy_chain_query(addrs, n_vars, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed")
}

/// The fig3 chain with hop `i` carried by `shards[i]` parallel transfers
/// of staggered sizes (a sharded pipeline), one variable per pool. All of
/// a hop's shards contend on the same two NICs, so each hop is one
/// multi-flow rate component — rebinding the deepest variable leaves
/// every other hop's rating replayable from the delta cache while the
/// scratch path re-simulates them all. Give the deepest variable the
/// widest pool and its hop a single flow (a consolidated final gather):
/// the search's inner loop then churns only that one cheap component.
fn sharded_chain(pools: &[Vec<Address>], shards: &[usize]) -> Problem {
    assert_eq!(shards.len(), pools.len() - 1, "one shard count per hop");
    let mut b = QueryBuilder::new();
    let vars: Vec<_> = pools
        .iter()
        .enumerate()
        .map(|(i, p)| b.variable(format!("x{}", i + 1), p.iter().copied()))
        .collect();
    let mut prev = Vec::new();
    for (i, &n_shards) in shards.iter().enumerate() {
        let mut cur = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let f = b
                .flow(format!("f{}_{}", i + 1, s + 1))
                .from_var(vars[i])
                .to_var(vars[i + 1])
                .size((s + 1) as f64 * 32.0 * 1024.0 * 1024.0);
            let f = match prev.get(s) {
                Some(&h) => f.transfer_of(h),
                None => f,
            };
            cur.push(f.handle());
        }
        prev = cur;
    }
    b.resolve().expect("well-formed")
}

/// One timed configuration of the scratch-vs-delta comparison.
struct DeltaRow {
    query: &'static str,
    strategy: EvalStrategy,
    prune: bool,
    wall_ms: f64,
    candidates: u64,
    cps: f64,
    rerated_per_candidate: f64,
    makespan: f64,
}

/// Repeats the search with a warm workspace until ~0.25 s of wall time
/// has accumulated and reports per-candidate throughput.
fn time_search(
    query: &'static str,
    problem: &Problem,
    world: &World,
    eval: EvalStrategy,
    prune: bool,
) -> DeltaRow {
    let opts = SearchOptions::new(1_000_000).prune(prune).eval(eval);
    let mut ws = SearchWorkspace::new();
    let mut out = ExhaustiveResult::default();
    exhaustive_search_in(problem, world, &opts, &mut ws, &mut out).expect("feasible");
    let candidates = out.evaluated;
    let rerated_per_candidate = if out.delta.estimates > 0 {
        out.delta.components_rerated as f64 / out.delta.estimates as f64
    } else {
        0.0
    };
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < 3 || start.elapsed().as_secs_f64() < 0.25 {
        exhaustive_search_in(problem, world, &opts, &mut ws, &mut out).expect("feasible");
        iters += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let wall_ms = secs * 1e3 / f64::from(iters);
    DeltaRow {
        query,
        strategy: eval,
        prune,
        wall_ms,
        candidates,
        cps: candidates as f64 * f64::from(iters) / secs,
        rerated_per_candidate,
        makespan: out.makespan,
    }
}

fn strategy_name(eval: EvalStrategy) -> &'static str {
    match eval {
        EvalStrategy::Scratch => "scratch",
        EvalStrategy::Delta => "delta",
    }
}

/// Asserts that delta and scratch return bit-identical winners on
/// `problem` for every prune × thread combination exercised by the
/// comparison (the `--smoke` CI gate).
fn assert_strategies_agree(query: &str, problem: &Problem, world: &World) {
    for prune in [false, true] {
        for threads in [1usize, 2] {
            let base = SearchOptions::new(1_000_000).prune(prune).threads(threads);
            let s = exhaustive_search_with(problem, world, &base.eval(EvalStrategy::Scratch))
                .expect("feasible");
            let d = exhaustive_search_with(problem, world, &base.eval(EvalStrategy::Delta))
                .expect("feasible");
            assert_eq!(
                d.binding, s.binding,
                "{query}: winner differs (prune={prune} threads={threads})"
            );
            assert_eq!(
                d.makespan.to_bits(),
                s.makespan.to_bits(),
                "{query}: objective differs (prune={prune} threads={threads})"
            );
        }
    }
}

/// The `--delta` mode: scratch vs delta on the lopsided world.
fn run_delta_comparison(smoke: bool, json: bool) {
    let addrs20: Vec<Address> = (1..=20).map(Address).collect();
    let addrs8: Vec<Address> = (1..=8).map(Address).collect();
    // Seven 2-wide relay stages carrying 12 shards per hop, then a
    // single-flow gather into a 15-wide final stage: the inner search
    // loop sweeps the cheap last hop while the six heavy ones stay
    // cached.
    let mut shard_pools: Vec<Vec<Address>> = (0..7u32)
        .map(|i| vec![Address(2 * i + 1), Address(2 * i + 2)])
        .collect();
    shard_pools.push((15..=29).map(Address).collect());
    let hop_shards = [12, 12, 12, 12, 12, 12, 1];
    let nodes: Vec<Address> = (2..=21).map(Address).collect();
    let hdfs = hdfs_write_query(Address(1), &nodes, 3, 256.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let cases: Vec<(&'static str, Problem)> = vec![
        ("fig3_daisy3_20addr", daisy_chain(&addrs20, 3)),
        ("fig3_daisy6_8addr", daisy_chain(&addrs8, 6)),
        ("fig3_sharded_gather", sharded_chain(&shard_pools, &hop_shards)),
        ("hdfs_write_20x3", hdfs),
    ];

    for (query, problem) in &cases {
        let world = lopsided_world(&problem.mentioned_addresses());
        assert_strategies_agree(query, problem, &world);
        println!("{query}: scratch and delta agree bit-for-bit");
        if *query == "fig3_daisy6_8addr" {
            // Every binding of this chain runs through a hot host and
            // finishes with it: a search that walks the ties evaluates
            // all 20 160 of them.
            let opts = SearchOptions::new(1_000_000).eval(EvalStrategy::Delta);
            let r = exhaustive_search_with(problem, &world, &opts).expect("feasible");
            let space = exhaustive_search_with(problem, &world, &opts.prune(false))
                .expect("feasible")
                .evaluated;
            assert!(
                r.evaluated * 100 < space,
                "{query}: pruned delta search evaluated {} of {space} bindings",
                r.evaluated
            );
            println!(
                "{query}: {} of {space} bindings evaluated, {} subtrees cut on ties",
                r.evaluated, r.pruned_ties
            );
        }
    }
    if smoke {
        println!("smoke OK: winners and objectives are strategy-independent");
        return;
    }

    let mut rows = Vec::new();
    for (query, problem) in &cases {
        let world = lopsided_world(&problem.mentioned_addresses());
        for prune in [false, true] {
            for eval in [EvalStrategy::Scratch, EvalStrategy::Delta] {
                rows.push(time_search(query, problem, &world, eval, prune));
            }
        }
    }

    let widths = [20usize, 8, 6, 10, 11, 14, 12, 10];
    println!();
    println!(
        "{}",
        row(
            &[
                "query".into(),
                "strategy".into(),
                "prune".into(),
                "wall_ms".into(),
                "candidates".into(),
                "cand_per_sec".into(),
                "rerate/cand".into(),
                "makespan".into(),
            ],
            &widths
        )
    );
    for r in &rows {
        println!(
            "{}",
            row(
                &[
                    r.query.into(),
                    strategy_name(r.strategy).into(),
                    r.prune.to_string(),
                    format!("{:.2}", r.wall_ms),
                    r.candidates.to_string(),
                    format!("{:.0}", r.cps),
                    format!("{:.2}", r.rerated_per_candidate),
                    format!("{:.3}", r.makespan),
                ],
                &widths
            )
        );
    }
    println!();
    for (query, _) in &cases {
        let find = |eval, prune| {
            rows.iter()
                .find(|r| r.query == *query && r.strategy == eval && r.prune == prune)
                .expect("row exists")
        };
        let speedup = find(EvalStrategy::Delta, false).cps / find(EvalStrategy::Scratch, false).cps;
        let pruned = find(EvalStrategy::Scratch, true).wall_ms / find(EvalStrategy::Delta, true).wall_ms;
        println!("{query}: delta {speedup:.2}x candidates/sec (unpruned), {pruned:.2}x pruned wall");
    }

    if json {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            s.push_str(&format!(
                "  {{\"query\": \"{}\", \"strategy\": \"{}\", \"prune\": {}, \"threads\": 1, \
                 \"wall_ms\": {:.3}, \"candidates\": {}, \"candidates_per_sec\": {:.1}, \
                 \"components_rerated_per_candidate\": {:.3}, \"makespan\": {:.6}}}{sep}\n",
                r.query,
                strategy_name(r.strategy),
                r.prune,
                r.wall_ms,
                r.candidates,
                r.cps,
                r.rerated_per_candidate,
                r.makespan,
            ));
        }
        s.push_str("]\n");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exhaustive.json");
        std::fs::write(path, s).expect("BENCH_exhaustive.json is writable");
        println!("\nwrote {path}");
    }
}

fn main() {
    if let Some(path) = flag_value("--trace") {
        export_trace(&path);
        return;
    }
    if flag_present("--delta") {
        run_delta_comparison(flag_present("--smoke"), flag_present("--json"));
        return;
    }
    benches();
    Criterion::default().final_summary();
}
