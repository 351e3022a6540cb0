//! The estimator that makes wall-clock numbers repeat on a shared box.
//!
//! Interference (a busy sibling vCPU, a neighbour thrashing the shared
//! cache, hypervisor steal) only ever *adds* time, and it comes in bursts.
//! So a workload is a fixed schedule of N timed units replayed for P
//! passes from fresh state. A unit is timed as one or more consecutive
//! *segments* (a wave: each query's parse-resolve-submit, then
//! `run_until`); the denoised time of segment `i` is the minimum over
//! passes of segment `i`, and the *denoised latency* of a unit is the sum
//! over its segments. A burst has to hit the same segment in every pass to
//! survive — and the shorter the segment, the likelier one replay of it was
//! quiet. Every reported timing is computed from the denoised vector; the
//! raw per-pass totals are kept only as a noise report.

/// Per-segment minimum across passes, plus the raw per-pass totals.
#[derive(Default)]
pub struct PassMatrix {
    min_ns: Vec<u64>,
    raw_totals_ns: Vec<u64>,
}

impl PassMatrix {
    pub fn new() -> Self {
        PassMatrix::default()
    }

    /// Folds one pass in. Every pass replays the same schedule, so a
    /// length mismatch is a bug in the workload, not noise.
    pub fn absorb(&mut self, pass_ns: &[u64]) {
        if self.raw_totals_ns.is_empty() {
            self.min_ns = vec![u64::MAX; pass_ns.len()];
        }
        assert_eq!(
            pass_ns.len(),
            self.min_ns.len(),
            "a pass must time every segment of the schedule"
        );
        for (m, &x) in self.min_ns.iter_mut().zip(pass_ns) {
            *m = (*m).min(x);
        }
        self.raw_totals_ns.push(pass_ns.iter().sum());
    }

    pub fn passes(&self) -> usize {
        self.raw_totals_ns.len()
    }

    /// Denoised per-segment times, in schedule order.
    pub fn denoised(&self) -> &[u64] {
        &self.min_ns
    }

    /// Σ denoised segment times: the schedule's cost on a quiet machine.
    pub fn denoised_total_ns(&self) -> u64 {
        self.min_ns.iter().sum()
    }

    /// Raw total of every pass, ns, in the order they ran.
    pub fn raw_totals_ns(&self) -> &[u64] {
        &self.raw_totals_ns
    }

    /// Mean raw pass total over the denoised total: 1.0 on a quiet
    /// machine, and how much the machine added otherwise.
    pub fn raw_over_min(&self) -> f64 {
        let denoised = self.denoised_total_ns();
        if self.raw_totals_ns.is_empty() || denoised == 0 {
            return 0.0;
        }
        let mean_raw =
            self.raw_totals_ns.iter().sum::<u64>() as f64 / self.raw_totals_ns.len() as f64;
        mean_raw / denoised as f64
    }

    /// (max − min) / min of the raw pass totals: what a single-pass
    /// benchmark would have reported as its spread.
    pub fn raw_spread(&self) -> f64 {
        let (Some(&lo), Some(&hi)) = (
            self.raw_totals_ns.iter().min(),
            self.raw_totals_ns.iter().max(),
        ) else {
            return 0.0;
        };
        (hi - lo) as f64 / lo.max(1) as f64
    }
}

/// Per-unit sums of per-segment values; `unit_ends[u]` is the number of
/// segments in units `0..=u`.
pub fn unit_sums(segments: &[u64], unit_ends: &[usize]) -> Vec<u64> {
    let mut start = 0;
    unit_ends
        .iter()
        .map(|&end| {
            let sum = segments[start..end].iter().sum();
            start = end;
            sum
        })
        .collect()
}

/// Operations per second: `ops` ÷ Σ denoised latency.
pub fn throughput_ops_s(denoised_total_ns: u64, ops: usize) -> f64 {
    if denoised_total_ns == 0 {
        return 0.0;
    }
    ops as f64 * 1e9 / denoised_total_ns as f64
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` values.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0 && n > 0);
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    sorted_ns[nearest_rank(sorted_ns.len(), p) - 1]
}

/// The tail percentile a pass supports: p99 needs ten samples beyond it.
pub fn tail_percentile(units: usize) -> f64 {
    if units >= 1000 {
        99.0
    } else {
        90.0
    }
}

/// A reported rank that sits on a cost-class boundary.
#[derive(Debug, PartialEq)]
pub struct KnifeEdge {
    pub percentile: f64,
    /// Where the jump sits, in percentile points.
    pub jump_at: f64,
    /// Relative size of the jump.
    pub jump: f64,
}

/// Schedule lint: a reported percentile within `window` percentile points
/// of a jump larger than `max_jump` between neighbouring sorted latencies
/// flips between the two cost classes from run to run (a 50/50 mix of 1-
/// and 2-replica writes moved p50 9.1↔10.7 µs while the mean held ±0.4 %).
pub fn knife_edges(
    sorted_ns: &[u64],
    percentiles: &[f64],
    window: f64,
    max_jump: f64,
) -> Vec<KnifeEdge> {
    let n = sorted_ns.len();
    let mut out = Vec::new();
    for &p in percentiles {
        for i in 0..n.saturating_sub(1) {
            // The jump between the (i+1)-th and (i+2)-th smallest values
            // sits at the share of samples at or below it.
            let jump_at = (i + 1) as f64 / n as f64 * 100.0;
            if (jump_at - p).abs() > window {
                continue;
            }
            let (lo, hi) = (sorted_ns[i].max(1) as f64, sorted_ns[i + 1] as f64);
            let jump = hi / lo - 1.0;
            if jump > max_jump {
                out.push(KnifeEdge {
                    percentile: p,
                    jump_at,
                    jump,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_index_minimum_across_passes() {
        let mut m = PassMatrix::new();
        m.absorb(&[10, 50, 30]);
        m.absorb(&[12, 20, 90]);
        m.absorb(&[11, 25, 31]);
        assert_eq!(m.denoised(), &[10, 20, 30]);
        assert_eq!(m.denoised_total_ns(), 60);
        assert_eq!(m.passes(), 3);
        // Raw totals 90, 122, 67 → mean 93 over denoised 60.
        assert!((m.raw_over_min() - 93.0 / 60.0).abs() < 1e-12);
        assert!((m.raw_spread() - (122.0 - 67.0) / 67.0).abs() < 1e-12);
    }

    #[test]
    fn a_burst_survives_only_if_it_hits_the_same_unit_every_pass() {
        let mut m = PassMatrix::new();
        m.absorb(&[5, 500, 5, 5]);
        m.absorb(&[5, 5, 500, 5]);
        assert_eq!(m.denoised(), &[5, 5, 5, 5]);
        m = PassMatrix::new();
        m.absorb(&[5, 500]);
        m.absorb(&[5, 400]);
        assert_eq!(m.denoised(), &[5, 400]);
    }

    #[test]
    #[should_panic(expected = "every segment")]
    fn short_pass_is_rejected() {
        let mut m = PassMatrix::new();
        m.absorb(&[1, 2, 3]);
        m.absorb(&[1, 2]);
    }

    #[test]
    fn a_unit_is_the_sum_of_its_denoised_segments() {
        // Two units of three and one segments. No pass ran the first unit
        // in less than 35, yet each of its segments was quiet once.
        let mut m = PassMatrix::new();
        m.absorb(&[10, 90, 5, 7]);
        m.absorb(&[50, 20, 5, 9]);
        assert_eq!(unit_sums(m.denoised(), &[3, 4]), [35, 7]);
        assert_eq!(unit_sums(&[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&xs, 50.0), 5);
        assert_eq!(percentile(&xs, 90.0), 9);
        assert_eq!(percentile(&xs, 91.0), 10);
        assert_eq!(percentile(&xs, 100.0), 10);
        assert_eq!(percentile(&xs, 0.1), 1);
        assert_eq!(nearest_rank(24, 50.0), 12);
        assert_eq!(nearest_rank(24, 90.0), 22);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
    }

    #[test]
    fn throughput_from_denoised_sum() {
        // 4 units of 64 ops in 1 ms total → 256 000 ops/s.
        let t = throughput_ops_s(1_000_000, 4 * 64);
        assert!((t - 256_000.0).abs() < 1e-6);
        assert_eq!(throughput_ops_s(0, 1), 0.0);
    }

    #[test]
    fn lint_flags_p50_on_a_class_boundary() {
        // 50 cheap + 50 dear units: p50 is the last cheap one.
        let mut xs = vec![9_100u64; 50];
        xs.extend(vec![10_700u64; 50]);
        let edges = knife_edges(&xs, &[50.0, 90.0], 2.0, 0.05);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].percentile, 50.0);
        assert_eq!(edges[0].jump_at, 50.0);
        assert!((edges[0].jump - (10_700.0 / 9_100.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn lint_passes_when_ranks_sit_inside_a_class() {
        // 70 / 20 / 10 mix: boundaries at 70 % and 90 %; p50 and p99 are
        // both more than two points away.
        let mut xs = vec![90u64; 700];
        xs.extend(vec![120u64; 200]);
        xs.extend(vec![10_000u64; 100]);
        assert!(knife_edges(&xs, &[50.0, 99.0], 2.0, 0.05).is_empty());
        // The same mix read at p90 sits on the 120 → 10 000 boundary.
        assert_eq!(knife_edges(&xs, &[90.0], 2.0, 0.05).len(), 1);
        // A smooth ramp has no jump above 5 % anywhere near the ranks.
        let ramp: Vec<u64> = (0..1000).map(|i| 1000 + i).collect();
        assert!(knife_edges(&ramp, &[50.0, 99.0], 2.0, 0.05).is_empty());
    }
}
