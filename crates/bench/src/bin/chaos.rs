//! Chaos sweep: answer quality vs status-report loss rate.
//!
//! Drives the fig3 daisy-chain scenario through increasingly lossy
//! status collection and reports how far the recommended binding falls
//! from the fault-free recommendation, with retries disabled and with
//! the default retry/backoff policy. Loss is induced through the
//! transport's fan-out knee (the same incast model as Figure 5), so the
//! per-reply loss probability is exact and printed per row.
//!
//! ```text
//! cargo run --release -p cloudtalk-bench --bin chaos
//! # smaller/larger runs: CLOUDTALK_BENCH_SCALE=0.1
//! ```

use cloudtalk::server::{CloudTalkServer, DegradationRung, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk::transport::{loss_probability, RetryPolicy, TransportConfig};
use cloudtalk_bench::{mean, random_state, scaled, LoadDist};
use cloudtalk_lang::builder::daisy_chain_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::SimTime;
use estimator::{estimate, World};

fn source_from(world: &World) -> TableStatusSource {
    let mut s = TableStatusSource::new();
    for (&a, &st) in world.iter() {
        s.set(a, st);
    }
    s
}

struct Outcome {
    quality_pct: f64,
    missing: f64,
    full_rung_pct: f64,
}

fn run(
    problem: &Problem,
    worlds: &[World],
    transport: TransportConfig,
) -> Outcome {
    let mut quality = Vec::with_capacity(worlds.len());
    let mut missing = Vec::with_capacity(worlds.len());
    let mut full = 0usize;
    for (i, world) in worlds.iter().enumerate() {
        let seed = i as u64;
        // Fault-free baseline: same server, lossless transport.
        let base = CloudTalkServer::new(ServerConfig {
            seed,
            ..ServerConfig::default()
        })
        .answer_problem(problem, &mut source_from(world), SimTime::ZERO)
        .expect("fault-free answer");
        let base_tp = estimate(problem, &base.binding, world)
            .expect("estimable")
            .throughput;
        if base_tp <= 0.0 {
            continue;
        }
        let a = CloudTalkServer::new(ServerConfig {
            seed,
            transport,
            ..ServerConfig::default()
        })
        .answer_problem(problem, &mut source_from(world), SimTime::ZERO)
        .expect("lossy answer");
        let tp = estimate(problem, &a.binding, world)
            .map(|e| e.throughput)
            .unwrap_or(0.0);
        quality.push(100.0 * tp / base_tp);
        missing.push(a.missing as f64);
        if a.provenance.rung == DegradationRung::Full {
            full += 1;
        }
    }
    Outcome {
        quality_pct: mean(&quality),
        missing: mean(&missing),
        full_rung_pct: 100.0 * full as f64 / worlds.len() as f64,
    }
}

fn main() {
    let addrs: Vec<Address> = (1..=20).map(Address).collect();
    let problem = daisy_chain_query(&addrs, 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let states = scaled(200, 20);

    let mut rng = desim::rng::stream_rng(7, 0xC4A05);
    let worlds: Vec<World> = (0..states)
        .map(|_| random_state(&addrs, LoadDist::Bimodal, &mut rng))
        .collect();

    println!("Chaos sweep: answer quality vs status-report loss rate");
    println!("({states} bimodal 20-server states, fig3 daisy query)\n");
    println!(
        "{:>6} {:>6} | {:>9} {:>8} {:>6} | {:>9} {:>8} {:>6}",
        "knee", "loss%", "qual%", "missing", "full%", "qual%", "missing", "full%"
    );
    println!(
        "{:>6} {:>6} | {:>25} | {:>25}",
        "", "", "---- no retries ----", "- retry/backoff (2) -"
    );

    // Knees chosen so the 20-way first-round per-reply loss sweeps
    // roughly 0 → 80 %.
    for knee in [20usize, 12, 7, 4, 2] {
        let lossless = TransportConfig {
            knee,
            retry: RetryPolicy::NONE,
            ..TransportConfig::default()
        };
        let loss = loss_probability(addrs.len(), &lossless);
        let no_retry = run(&problem, &worlds, lossless);
        let retry = run(
            &problem,
            &worlds,
            TransportConfig {
                knee,
                ..TransportConfig::default()
            },
        );
        println!(
            "{:>6} {:>6.1} | {:>9.1} {:>8.2} {:>6.0} | {:>9.1} {:>8.2} {:>6.0}",
            knee,
            100.0 * loss,
            no_retry.quality_pct,
            no_retry.missing,
            no_retry.full_rung_pct,
            retry.quality_pct,
            retry.missing,
            retry.full_rung_pct,
        );
    }
}
