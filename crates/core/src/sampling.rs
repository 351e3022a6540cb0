//! Sampling for scalability (paper §4.3, Figure 4).
//!
//! "CloudTalk only asks n randomly selected servers where n ≪ N … the
//! number of samples needed depends on network load and the required
//! number of servers d, but does not depend on N."
//!
//! Two tools live here:
//!
//! * [`sample_candidates`] — the runtime mechanism: restrict a query's
//!   candidate pools to a random subset before interrogating status
//!   servers.
//! * [`samples_needed`] / [`success_rate_simulated`] — the analysis that
//!   regenerates Figure 4: the smallest n such that, with probability
//!   `confidence`, a sample of n servers contains at least `d` idle ones
//!   when an `idle_fraction` of the fleet is idle.

use cloudtalk_lang::problem::{Problem, Value};
use desim::rng::DetRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Default pool size above which sampling kicks in (paper: "when N, the
/// total number of tenant VMs, is larger than one hundred").
pub(crate) const DEFAULT_SAMPLE_THRESHOLD: usize = 100;

/// Restricts every candidate pool larger than `budget` to a uniform random
/// sample of `budget` values. Returns the sampled problem (pools of size
/// ≤ `budget`) — fixed endpoints are untouched.
pub fn sample_candidates(problem: &Problem, budget: usize, rng: &mut DetRng) -> Problem {
    let mut sampled = problem.clone();
    // Pools are shared between same-decl variables; sample each pool once
    // so distinct-value semantics keep enough room (pool ids are dense).
    let n_pools = sampled.vars.iter().map(|v| v.pool).max().map_or(0, |m| m + 1);
    for pool in 0..n_pools {
        let vars_in_pool: Vec<usize> = (0..sampled.vars.len())
            .filter(|&i| sampled.vars[i].pool == pool)
            .collect();
        let Some(&first) = vars_in_pool.first() else {
            continue;
        };
        let pool_values = &sampled.vars[first].candidates;
        // Never sample below the number of variables that must bind
        // distinct values from this pool.
        let need = budget.max(vars_in_pool.len());
        if pool_values.len() <= need {
            continue;
        }
        let mut values: Vec<Value> = pool_values.clone();
        values.shuffle(rng);
        values.truncate(need);
        for &vi in &vars_in_pool {
            sampled.vars[vi].candidates = values.clone();
        }
    }
    sampled
}

/// Exact binomial computation of the smallest sample size `n` such that
/// `P(at least d idle among n) ≥ confidence` when each server is idle
/// independently with probability `idle_fraction` (the N ≫ n regime, where
/// the hypergeometric is indistinguishable from the binomial — hence the
/// paper's observation that n does not depend on N).
pub fn samples_needed(d: usize, idle_fraction: f64, confidence: f64) -> usize {
    assert!((0.0..=1.0).contains(&idle_fraction) && idle_fraction > 0.0);
    assert!((0.0..1.0).contains(&confidence));
    let mut n = d;
    loop {
        if prob_at_least(n, d, idle_fraction) >= confidence {
            return n;
        }
        n += 1;
        assert!(n < 10_000_000, "sample size diverged");
    }
}

/// `P(Binomial(n, p) ≥ d)`, computed with a numerically stable recurrence.
fn prob_at_least(n: usize, d: usize, p: f64) -> f64 {
    if d == 0 {
        return 1.0;
    }
    if d > n {
        return 0.0;
    }
    // Sum P(X = k) for k < d, then 1 - that (d is small in practice).
    let q = 1.0 - p;
    // P(X = 0) = q^n can underflow for huge n; work in log space.
    let mut log_pk = n as f64 * q.ln();
    let mut cdf = log_pk.exp();
    for k in 0..d.saturating_sub(1) {
        // P(k+1) = P(k) * (n-k)/(k+1) * p/q.
        log_pk += ((n - k) as f64 / (k + 1) as f64).ln() + (p / q).ln();
        cdf += log_pk.exp();
    }
    (1.0 - cdf).max(0.0)
}

/// Monte-Carlo validation of [`samples_needed`] against an explicit fleet
/// of `fleet` servers (the paper's N = 100 000 simulation): draws `trials`
/// samples of size `n` and returns the fraction containing ≥ `d` idle
/// servers.
pub fn success_rate_simulated(
    fleet: usize,
    idle_fraction: f64,
    n: usize,
    d: usize,
    trials: usize,
    rng: &mut DetRng,
) -> f64 {
    let idle_count = (fleet as f64 * idle_fraction).round() as usize;
    let mut successes = 0usize;
    for _ in 0..trials {
        // Sample n servers without replacement; count idles. Index < idle_count ⇔ idle.
        let mut hits = 0usize;
        let mut seen = std::collections::HashSet::new();
        while seen.len() < n {
            let pick = rng.gen_range(0..fleet);
            if seen.insert(pick) && pick < idle_count {
                hits += 1;
                if hits >= d {
                    break;
                }
            }
        }
        if hits >= d {
            successes += 1;
        }
    }
    successes as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::hdfs_write_query;
    use cloudtalk_lang::problem::Address;
    use desim::rng::stream_rng;

    #[test]
    fn paper_headline_number_19_samples() {
        // §5.2: 30% idle, d = 2, 99% confidence → the paper samples 19.
        let n = samples_needed(2, 0.3, 0.99);
        assert!(
            (15..=24).contains(&n),
            "expected ≈19 samples, got {n}"
        );
    }

    #[test]
    fn growth_is_sublinear_in_d() {
        // Figure 4: "n grows sub-linearly with d".
        let n5 = samples_needed(5, 0.3, 0.99);
        let n25 = samples_needed(25, 0.3, 0.99);
        assert!(n25 < 5 * n5, "n(25)={n25} vs 5·n(5)={}", 5 * n5);
        // And ~4 samples per needed server at 30% idle.
        let ratio = n25 as f64 / 25.0;
        assert!((2.0..=6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn idle_fraction_extremes() {
        // 70% idle → ~1.6 samples per server; 10% idle → ~20 (paper §5.2).
        let rich = samples_needed(10, 0.7, 0.99) as f64 / 10.0;
        assert!((1.0..=3.0).contains(&rich), "70% idle ratio {rich}");
        let poor = samples_needed(10, 0.1, 0.99) as f64 / 10.0;
        assert!((10.0..=30.0).contains(&poor), "10% idle ratio {poor}");
    }

    #[test]
    fn higher_confidence_needs_more_samples() {
        let n90 = samples_needed(5, 0.3, 0.90);
        let n99 = samples_needed(5, 0.3, 0.99);
        assert!(n99 > n90);
    }

    #[test]
    fn binomial_matches_simulation() {
        let mut rng = stream_rng(11, 0);
        let n = samples_needed(3, 0.3, 0.95);
        let rate = success_rate_simulated(100_000, 0.3, n, 3, 4000, &mut rng);
        assert!(
            rate >= 0.93,
            "simulated success rate {rate} too low for computed n = {n}"
        );
        // One fewer sample should do noticeably worse than the target.
        let rate_less = success_rate_simulated(100_000, 0.3, n.saturating_sub(3), 3, 4000, &mut rng);
        assert!(rate_less < rate);
    }

    #[test]
    fn sample_candidates_shrinks_pools() {
        let nodes: Vec<Address> = (2..302).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut rng = stream_rng(5, 0);
        let s = sample_candidates(&p, 19, &mut rng);
        for var in &s.vars {
            assert_eq!(var.candidates.len(), 19);
        }
        // All sampled values come from the original pool.
        for v in &s.vars[0].candidates {
            assert!(p.vars[0].candidates.contains(v));
        }
        // Same-pool variables share the identical sampled pool.
        assert_eq!(s.vars[0].candidates, s.vars[1].candidates);
    }

    #[test]
    fn sampling_never_starves_distinct_pools() {
        let nodes: Vec<Address> = (2..302).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut rng = stream_rng(6, 0);
        // Budget 1 < 3 variables: must keep at least 3 candidates.
        let s = sample_candidates(&p, 1, &mut rng);
        assert_eq!(s.vars[0].candidates.len(), 3);
    }

    #[test]
    fn small_pools_left_alone() {
        let nodes: Vec<Address> = (2..7).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut rng = stream_rng(7, 0);
        let s = sample_candidates(&p, 19, &mut rng);
        assert_eq!(s, p);
    }
}
