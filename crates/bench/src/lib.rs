//! Shared helpers for the experiment harnesses.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md for the index). The
//! binaries print the same rows/series the paper reports. Every binary
//! but `table2` prints the same bytes on every run, pinned by the files
//! under `golden/`; wall-clock costs are measured by `perf/`.
//!
//! Run sizes scale with the `CLOUDTALK_BENCH_SCALE` environment variable
//! (default 1.0): e.g. `CLOUDTALK_BENCH_SCALE=0.1 cargo run --release
//! --bin fig3` for a quick pass.

#![warn(missing_docs)]

use cloudtalk_lang::problem::{Address, Binding, Problem, Value};
use desim::rng::DetRng;
use estimator::{HostState, World};
use rand::seq::SliceRandom;
use rand::Rng;

/// Scale factor for run sizes, from `CLOUDTALK_BENCH_SCALE`.
pub(crate) fn scale() -> f64 {
    std::env::var("CLOUDTALK_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(1.0)
}

/// `n` scaled by `scale`, at least `min`.
pub fn scaled(n: usize, min: usize) -> usize {
    ((n as f64 * scale()).round() as usize).max(min)
}

/// Nearest-rank percentile of a sample (p in (0, 100]).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0);
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Load-fraction distributions for the §5.1 synthetic states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadDist {
    /// Uniform on [0, 0.9].
    Uniform,
    /// Bimodal with peaks at 0 and 0.9 (paper: "peaks at 0% and 90%").
    Bimodal,
}

impl LoadDist {
    /// Draws one load fraction.
    pub(crate) fn draw(self, rng: &mut DetRng) -> f64 {
        match self {
            LoadDist::Uniform => rng.gen_range(0.0..=0.9),
            LoadDist::Bimodal => {
                // Tight clusters around the two peaks.
                if rng.gen_bool(0.5) {
                    rng.gen_range(0.0..=0.05)
                } else {
                    rng.gen_range(0.85..=0.9)
                }
            }
        }
    }
}

/// Generates one random 20-server network state (§5.1): equal-capacity
/// NICs with independently drawn tx/rx usage.
pub fn random_state(addrs: &[Address], dist: LoadDist, rng: &mut DetRng) -> World {
    let mut world = World::new();
    for &a in addrs {
        let up = dist.draw(rng);
        let down = dist.draw(rng);
        world.set(
            a,
            HostState::gbps_idle().with_up_load(up).with_down_load(down),
        );
    }
    world
}

/// A uniformly random binding respecting same-pool distinctness — the
/// "random server choice" baseline of Figure 3.
pub fn random_binding(problem: &Problem, rng: &mut DetRng) -> Binding {
    let n_pools = problem.vars.iter().map(|v| v.pool).max().map_or(0, |m| m + 1);
    let mut taken: Vec<Vec<Value>> = vec![Vec::new(); n_pools];
    problem
        .vars
        .iter()
        .map(|var| {
            let mut avail: Vec<Value> = var
                .candidates
                .iter()
                .filter(|v| !problem.distinct || !taken[var.pool].contains(v))
                .copied()
                .collect();
            if avail.is_empty() {
                avail = var.candidates.clone();
            }
            let pick = *avail.choose(rng).expect("non-empty pool");
            taken[var.pool].push(pick);
            pick
        })
        .collect()
}

/// Value of a `--name <value>` command-line flag, if present.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Whether a boolean `--name` command-line flag is present.
pub fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Writes a Chrome `trace_event` JSON file at `path` plus a flat metrics
/// dump at `<path>.metrics` (omitted when `registry` is `None`). Returns
/// the metrics-dump path, when written.
pub fn write_trace(
    path: &str,
    traces: &[(&str, &obs::TraceReport)],
    registry: Option<&obs::MetricsRegistry>,
) -> std::io::Result<Option<String>> {
    std::fs::write(path, obs::chrome_trace_json(traces))?;
    if let Some(reg) = registry {
        let mpath = format!("{path}.metrics");
        std::fs::write(&mpath, obs::metrics_dump(reg))?;
        return Ok(Some(mpath));
    }
    Ok(None)
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::hdfs_write_query;
    use desim::rng::stream_rng;

    #[test]
    fn percentile_and_mean() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert!((mean(&xs) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn bimodal_draws_cluster_at_peaks() {
        let mut rng = stream_rng(1, 0);
        let draws: Vec<f64> = (0..1000).map(|_| LoadDist::Bimodal.draw(&mut rng)).collect();
        let low = draws.iter().filter(|&&x| x <= 0.05).count();
        let high = draws.iter().filter(|&&x| x >= 0.85).count();
        assert_eq!(low + high, 1000);
        assert!(low > 300 && high > 300);
    }

    #[test]
    fn random_binding_is_distinct_within_pool() {
        let nodes: Vec<Address> = (2..22).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
        let mut rng = stream_rng(2, 0);
        for _ in 0..50 {
            let b = random_binding(&p, &mut rng);
            let set: std::collections::HashSet<_> = b.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn scale_defaults_to_one() {
        assert_eq!(scaled(100, 10), 100);
    }
}
