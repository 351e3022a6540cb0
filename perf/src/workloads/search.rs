//! `search_exact`: the exhaustive backend and the estimator under it.
//!
//! `CloudTalkServer::answer_problem` with `EvalMethod::Exhaustive`, answer
//! cache off, over a lopsided fleet (three hosts in four at 90 % load):
//! 70 % 20-host × 3-replica HDFS writes (pruned to a few hundred
//! candidates), 15 % fig3 3-variable daisy chains over 20 hosts, 15 % fig3
//! 5-variable daisy chains over 8 hosts (6 720 candidates — these carry
//! about half of the time and, at 15 %, hold the p90 well inside their
//! class). `exhaustive` and `estimator` (delta engine, `max_min_rates`
//! kernel) do nearly all the work; `lang`, `serving` and `qcache` do none.
//!
//! Every pool holds the same share of hot hosts, arranged by a fixed
//! stream of patterns (the seed decides *which* hosts fill them, where in
//! its slice each transfer size falls and the order of operations), so the
//! mix of search effort is a property of the schedule. Operations are one
//! simulated second apart: reservations (300 ms hold) have expired by the
//! next one, so each answer is the plain optimum over ground truth and can
//! be checked against the unpruned scratch search.

use std::collections::BTreeMap;
use std::time::Instant;

use cloudtalk::exhaustive::{
    exhaustive_search_in, exhaustive_search_with, EvalStrategy, ExhaustiveResult, SearchOptions,
    SearchWorkspace,
};
use cloudtalk::server::{CloudTalkServer, EvalMethod, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk_lang::builder::{hdfs_write_query, QueryBuilder};
use cloudtalk_lang::problem::{Address, Problem};
use desim::rng::{stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use estimator::{estimate, estimate_with, EstimatorScratch, HostState, World};
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::sharing::{max_min_rates_into, Demand, SharingScratch};

use super::{host_addr, min_ns, Digest, PassCtx, PassOut, Scale, Workload};

const HOSTS: usize = 1024;
const LIMIT: u64 = 1_000_000;
const MB: f64 = 1024.0 * 1024.0;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Write20x3,
    Daisy3x20,
    Daisy5x8,
}

pub struct Search {
    seed: u64,
    hosts: Vec<(Address, HostState)>,
    truth: World,
    ops: Vec<(Class, Problem)>,
}

/// The fig3 daisy chain over `n_vars` hops: `f1 x1 -> x2 size <bytes>`,
/// then `f_i x_i -> x_{i+1} size sz(f_{i-1}) transfer t(f_{i-1})`.
fn daisy_chain(addrs: &[Address], n_vars: usize, bytes: f64) -> Problem {
    let mut b = QueryBuilder::new();
    let names: Vec<String> = (1..=n_vars).map(|i| format!("x{i}")).collect();
    let vars = b.variable_group(names, addrs.iter().copied());
    let mut prev = None;
    for i in 0..n_vars - 1 {
        let f = b
            .flow(format!("f{}", i + 1))
            .from_var(vars[i])
            .to_var(vars[i + 1]);
        let f = match prev {
            None => f.size(bytes),
            Some(h) => f.size_of(h).transfer_of(h),
        };
        prev = Some(f.handle());
    }
    b.resolve().expect("builder query is well-formed")
}

impl Search {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = stream_rng(seed, 0x5EA2);
        // Lopsided: hosts 0, 4, 8, … are cool, the rest hot — then the
        // address ↔ role mapping is shuffled.
        let mut roles: Vec<bool> = (0..HOSTS).map(|i| i % 4 != 0).collect();
        roles.shuffle(&mut rng);
        let hosts: Vec<(Address, HostState)> = roles
            .iter()
            .enumerate()
            .map(|(i, &hot)| {
                let load = if hot { 0.9 } else { 0.05 };
                (
                    host_addr(i / 16, i % 16),
                    HostState::gbps_idle()
                        .with_up_load(load)
                        .with_down_load(load),
                )
            })
            .collect();
        let mut truth = World::new();
        for &(a, s) in &hosts {
            truth.set(a, s);
        }
        let hot: Vec<Address> = (0..HOSTS)
            .filter(|&i| roles[i])
            .map(|i| hosts[i].0)
            .collect();
        let cool: Vec<Address> = (0..HOSTS)
            .filter(|&i| !roles[i])
            .map(|i| hosts[i].0)
            .collect();
        // `n` hosts, three in four hot. Candidate order is search order,
        // and where the cool hosts sit decides how early an incumbent
        // forms: pruned cost spans 70 µs–1.7 ms over arrangements. So the
        // arrangements are part of the schedule — drawn from a stream that
        // ignores the seed — and the seed decides which hosts fill them.
        let mut shapes = stream_rng(0x5EA2_C4A9, 0);
        let mut pool = |n: usize, rng: &mut DetRng| -> Vec<Address> {
            let mut is_cool: Vec<bool> = (0..n).map(|i| i < n / 4).collect();
            is_cool.shuffle(&mut shapes);
            let mut cool_hosts = draw(&cool, n / 4, rng).into_iter();
            let mut hot_hosts = draw(&hot, n - n / 4, rng).into_iter();
            is_cool
                .into_iter()
                .map(|c| {
                    if c {
                        cool_hosts.next()
                    } else {
                        hot_hosts.next()
                    }
                })
                .map(|a| a.expect("as many hosts drawn as slots"))
                .collect()
        };
        let (n_write, n_d3, n_d5) = match scale {
            Scale::Full => (140, 30, 30),
            Scale::Smoke => (28, 6, 6),
        };
        let mut ops: Vec<(Class, Problem)> = Vec::with_capacity(n_write + n_d3 + n_d5);
        // Transfer sizes spread over ±10 % of the paper's: operation `i` of
        // a class of `n` draws from the middle tenth of the `i`-th of `n`
        // equal slices of that range. Every pool of a class holds the same
        // loads, so a class's optimal completion times scale with its
        // sizes, and their mean — `quality_s` — moves by parts per million
        // from seed to seed, not by the 0.3 % of an unstratified draw.
        let size = |i: usize, n: usize, rng: &mut DetRng| {
            0.9 + 0.2 * (i as f64 + rng.gen_range(0.45..0.55)) / n as f64
        };
        for i in 0..n_write {
            let p = pool(20, &mut rng);
            let client = *cool.choose(&mut rng).expect("cool hosts exist");
            let bytes = 256.0 * MB * size(i, n_write, &mut rng);
            let problem = hdfs_write_query(client, &p, 3, bytes)
                .resolve()
                .expect("well-formed");
            ops.push((Class::Write20x3, problem));
        }
        let mut daisy = |class: Class, i: usize, n: usize, rng: &mut DetRng| {
            let (hosts, vars) = if class == Class::Daisy3x20 {
                (20, 3)
            } else {
                (8, 5)
            };
            let bytes = 100.0 * MB * size(i, n, rng);
            (class, daisy_chain(&pool(hosts, rng), vars, bytes))
        };
        for i in 0..n_d3 {
            ops.push(daisy(Class::Daisy3x20, i, n_d3, &mut rng));
        }
        for i in 1..n_d5 {
            ops.push(daisy(Class::Daisy5x8, i, n_d5, &mut rng));
        }
        ops.shuffle(&mut rng);
        // The first operation is part of set-up; pin it to the dearest
        // class so set-up time means "fresh server to its first hard
        // answer" on every seed.
        ops.insert(0, daisy(Class::Daisy5x8, 0, n_d5, &mut rng));
        Search {
            seed,
            hosts,
            truth,
            ops,
        }
    }

    fn source(&self) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for &(a, st) in &self.hosts {
            s.set(a, st);
        }
        s
    }

    fn server(&self) -> CloudTalkServer {
        let mut cfg = ServerConfig {
            method: EvalMethod::Exhaustive { limit: LIMIT },
            seed: self.seed,
            ..ServerConfig::default()
        };
        cfg.cache.enabled = false;
        CloudTalkServer::new(cfg)
    }
}

/// `n` of `from`, without replacement (the `rand` stand-in has `choose`
/// and `shuffle` only).
fn draw(from: &[Address], n: usize, rng: &mut DetRng) -> Vec<Address> {
    let mut all = from.to_vec();
    all.shuffle(rng);
    all.truncate(n);
    all
}

impl Workload for Search {
    fn units(&self) -> usize {
        self.ops.len()
    }

    fn pass(&self, cx: &mut PassCtx<'_>) -> PassOut {
        let mut out = PassOut::default();
        let mut digest = Digest::new();
        let (mut q_sum, mut q_n) = (0.0f64, 0u64);
        let (mut space, mut enumerated, mut rerated) = (0u64, 0u64, 0u64);
        let mut heavy_seen = 0u32;
        let tr = &mut *cx.tr;
        let t0 = Instant::now();
        let s = tr.begin("status.table_build");
        let mut source = self.source();
        tr.end(s);
        let s = tr.begin("server.new");
        let mut server = self.server();
        tr.end(s);

        for (i, (class, problem)) in self.ops.iter().enumerate() {
            tr.set_unit(i);
            let now = SimTime::ZERO + SimDuration::from_secs(i as u64);
            let m = cx.units.begin();
            let unit = tr.begin("bench.unit");
            let s = tr.begin("server.answer_problem");
            let result = server.answer_problem(problem, &mut source, now);
            tr.end(s);
            tr.end(unit);
            cx.units.end(m);
            if i == 0 {
                out.setup_ns = t0.elapsed().as_nanos() as u64;
            }

            out.attempted += 1;
            let Ok(a) = result else {
                out.failed += 1;
                digest.u64(u64::MAX);
                continue;
            };
            digest.binding(&a.binding);
            space += a.provenance.search.space;
            enumerated += a.provenance.search.enumerated;
            rerated += a.provenance.search.delta_components_rerated;
            if !cx.score {
                continue;
            }
            let achieved = match estimate(problem, &a.binding, &self.truth) {
                Ok(e) => e.makespan,
                Err(e) => {
                    out.violation = Some(format!("op {i}: unscorable answer: {e}"));
                    continue;
                }
            };
            q_sum += achieved;
            q_n += 1;
            // Winner check on a fixed sample: every 20th operation, and
            // the first three of the dearest class.
            let heavy = *class == Class::Daisy5x8;
            heavy_seen += u32::from(heavy);
            if i % 20 == 0 || (heavy && heavy_seen <= 3) {
                let oracle = exhaustive_search_with(
                    problem,
                    &self.truth,
                    &SearchOptions::new(LIMIT)
                        .prune(false)
                        .eval(EvalStrategy::Scratch),
                );
                match oracle {
                    Ok(o)
                        if o.binding == a.binding && o.makespan.to_bits() == achieved.to_bits() => {
                    }
                    Ok(o) => {
                        out.violation = Some(format!(
                            "op {i}: winner {:?} ({achieved}) != unpruned scratch {:?} ({})",
                            a.binding, o.binding, o.makespan
                        ));
                    }
                    Err(e) => out.violation = Some(format!("op {i}: oracle failed: {e}")),
                }
            }
        }
        out.digest = digest.finish();
        if cx.score && q_n > 0 {
            out.quality_s = Some(q_sum / q_n as f64);
        }
        out.counts.insert(
            "exhaustive.pruned_share",
            1.0 - enumerated as f64 / space.max(1) as f64,
        );
        out.counts.insert(
            "estimator.delta_rerated_per_candidate",
            rerated as f64 / enumerated.max(1) as f64,
        );
        out
    }

    fn probes(&self, _first: &PassOut, _budget_s: f64, out: &mut BTreeMap<&'static str, f64>) {
        // The rows of BENCH_exhaustive.json, on this schedule's own
        // HDFS write: delta strategy, pruned and unpruned.
        let (_, problem) = self
            .ops
            .iter()
            .find(|o| o.0 == Class::Write20x3)
            .expect("schedule has writes");
        let mut ws = SearchWorkspace::new();
        let mut r = ExhaustiveResult::default();
        for (name, prune) in [
            ("exhaustive.search_us_pruned", true),
            ("exhaustive.search_us_full", false),
        ] {
            let opts = SearchOptions::new(LIMIT)
                .prune(prune)
                .eval(EvalStrategy::Delta);
            let ns = min_ns(if prune { 200 } else { 20 }, || {
                exhaustive_search_in(
                    std::hint::black_box(problem),
                    &self.truth,
                    &opts,
                    &mut ws,
                    &mut r,
                )
                .expect("feasible");
            });
            out.insert(name, ns as f64 / 1e3);
            if !prune {
                out.insert(
                    "exhaustive.candidates_per_s",
                    r.evaluated as f64 * 1e9 / ns as f64,
                );
            }
        }
        let binding = r.binding.clone();
        let mut scratch = EstimatorScratch::new();
        let ns = min_ns(200, || {
            for _ in 0..16 {
                std::hint::black_box(
                    estimate_with(
                        &mut scratch,
                        problem,
                        std::hint::black_box(&binding),
                        &self.truth,
                    )
                    .expect("winner is feasible"),
                );
            }
        });
        out.insert("estimator.estimate_us", ns as f64 / 16.0 / 1e3);

        // The kernel under the estimator: the six coupled flows of a
        // 3-replica write over their NIC and disk resources.
        let caps = [
            125e6 * 0.1,
            125e6 * 0.95,
            125e6 * 0.1,
            450e6,
            125e6 * 0.95,
            450e6,
            450e6,
        ];
        let demands = [
            Demand::elastic(vec![(0, 1.0), (1, 1.0), (3, 1.0)]),
            Demand::elastic(vec![(1, 1.0), (2, 1.0), (5, 1.0)]),
            Demand::elastic(vec![(2, 1.0), (4, 1.0), (6, 1.0)]),
        ];
        let mut sh = SharingScratch::default();
        let mut rates = Vec::new();
        let ns = min_ns(200, || {
            for _ in 0..64 {
                max_min_rates_into(&mut sh, std::hint::black_box(&caps), &demands, &mut rates);
                std::hint::black_box(&rates);
            }
        });
        out.insert("estimator.max_min_us", ns as f64 / 64.0 / 1e3);

        let addrs = problem.mentioned_addresses();
        let mut server = self.server();
        let mut source = self.source();
        let ns = min_ns(200, || {
            std::hint::black_box(server.take_snapshot(std::hint::black_box(&addrs), &mut source));
        });
        out.insert("server.take_snapshot_us", ns as f64 / 1e3);
    }
}
