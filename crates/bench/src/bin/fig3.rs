//! Figure 3: how close is the heuristic to optimal?
//!
//! "We contrast the results of our algorithm against an exhaustive
//! evaluation of all possible solutions. The comparison is made for 100k
//! artificially generated network states involving 20 servers … one batch
//! where the rates follow a uniform distribution, and another where they
//! follow a bimodal distribution, with peaks at 0% and 90% utilisation."
//!
//! Query: the all-variable daisy chain
//! `x1 = x2 = x3 = (s1 … s20); f1 x1 -> x2 size 100M; f2 x2 -> x3 size
//! sz(f1) transfer t(f1)`.
//!
//! ```text
//! cargo run --release -p cloudtalk-bench --bin fig3
//! # smaller/larger runs: CLOUDTALK_BENCH_SCALE=0.1 (paper used 100k states)
//! ```

use cloudtalk::exhaustive::exhaustive_search;
use cloudtalk::heuristic::{evaluate_query, HeuristicConfig};
use cloudtalk_bench::{mean, percentile, random_binding, random_state, scaled, LoadDist};
use cloudtalk_lang::builder::daisy_chain_query;
use cloudtalk_lang::problem::Address;
use desim::rng::stream_rng;
use estimator::estimate;

fn main() {
    let addrs: Vec<Address> = (1..=20).map(Address).collect();
    let problem = daisy_chain_query(&addrs, 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    // The paper ran 100k states; scale down by default so the binary
    // finishes in about a minute (exhaustive = 6840 estimates per state).
    let states = scaled(2000, 50);

    println!("Figure 3: achieved throughput as % of exhaustive optimum");
    println!("({states} random 20-server states per distribution; paper used 100k)\n");
    println!(
        "{:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "dist", "strategy", "avg%", "p50%", "p10%", "p1%"
    );

    for dist in [LoadDist::Uniform, LoadDist::Bimodal] {
        let mut rng = stream_rng(3, dist as u64);
        let mut heur_pct: Vec<f64> = Vec::with_capacity(states);
        let mut rand_pct: Vec<f64> = Vec::with_capacity(states);
        for _ in 0..states {
            let world = random_state(&addrs, dist, &mut rng);
            let best = exhaustive_search(&problem, &world, 10_000)
                .expect("20-server space fits the limit");
            let best_tp = {
                let e = estimate(&problem, &best.binding, &world).expect("optimal is feasible");
                e.throughput
            };
            if best_tp <= 0.0 {
                continue;
            }
            let h = evaluate_query(&problem, &world, &HeuristicConfig::default());
            let h_tp = estimate(&problem, &h, &world).map(|e| e.throughput).unwrap_or(0.0);
            heur_pct.push(100.0 * h_tp / best_tp);
            let r = random_binding(&problem, &mut rng);
            let r_tp = estimate(&problem, &r, &world).map(|e| e.throughput).unwrap_or(0.0);
            rand_pct.push(100.0 * r_tp / best_tp);
        }
        for (name, pct) in [("heuristic", &heur_pct), ("random", &rand_pct)] {
            println!(
                "{:>10} {:>10} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                format!("{dist:?}"),
                name,
                mean(pct),
                percentile(pct, 50.0),
                // Low percentiles = how bad the unlucky cases get.
                low_percentile(pct, 10.0),
                low_percentile(pct, 1.0),
            );
        }
    }
    println!("\npaper shape: heuristic ≈ 95-100% of optimal throughout; random");
    println!("falls far behind, especially under bimodal load.");
}

fn low_percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
