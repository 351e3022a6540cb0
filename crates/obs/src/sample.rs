//! Deterministic trace sampling for the serving plane.
//!
//! A [`TraceSampler`] decides *at admission* whether a query is traced
//! end-to-end. The decision — and the 64-bit trace id it mints — is a pure
//! function of `(sampler seed, tenant, seq)`, never of scheduling state, so
//! the sampled set is bit-identical at any worker count and across
//! telemetry-on re-runs. The sampled query carries a [`TraceCtx`] through
//! the sequencer, worker, cache, and status planes; downstream components
//! key their span reports off it and the flight recorder stitches the lanes
//! back together into one Chrome trace.
//!
//! Sampling is 1-in-N by hash, not by arrival order: `hash(seed, tenant,
//! seq) % every == 0`. Counting arrivals would make the set depend on how
//! waves interleave; hashing keeps it stable under any schedule.

use desim::rng::derive_seed;

/// Trace context carried by a sampled query from admission to completion.
///
/// `trace_id` names the end-to-end trace (unique per `(tenant, seq)` for a
/// fixed sampler seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// 64-bit trace id, stable across runs and worker counts.
    pub trace_id: u64,
}

impl TraceCtx {
    /// A root context for a freshly sampled query.
    pub(crate) fn root(trace_id: u64) -> Self {
        TraceCtx { trace_id }
    }
}

/// Seeded 1-in-N sampler. Stateless between calls: every decision is a
/// hash, so it can be consulted from any thread or replayed offline.
#[derive(Clone, Debug)]
pub struct TraceSampler {
    seed: u64,
    every: u64,
}

impl TraceSampler {
    /// Sampler keyed by `seed`, keeping roughly one query in `every`.
    /// `every == 0` disables sampling entirely; `every == 1` samples all.
    pub fn new(seed: u64, every: u64) -> Self {
        TraceSampler { seed, every }
    }

    fn hash(&self, tenant: u32, seq: u64) -> u64 {
        derive_seed(derive_seed(self.seed, tenant as u64), seq)
    }

    /// The trace id `(tenant, seq)` would get *if* sampled. Pure hash —
    /// never zero, so 0 can be used as a sentinel by callers.
    pub(crate) fn trace_id(&self, tenant: u32, seq: u64) -> u64 {
        // The decision hashes the raw value; the id only forces the low
        // bit so 0 stays free as a sentinel.
        self.hash(tenant, seq) | 1
    }

    /// Sampling decision for `(tenant, seq)`: `Some(root ctx)` when the
    /// query is traced. Deterministic — identical inputs always agree.
    pub fn sample(&self, tenant: u32, seq: u64) -> Option<TraceCtx> {
        if self.every == 0 {
            return None;
        }
        if self.hash(tenant, seq).is_multiple_of(self.every) {
            Some(TraceCtx::root(self.trace_id(tenant, seq)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let a = TraceSampler::new(2017, 8);
        let b = TraceSampler::new(2017, 8);
        for tenant in 0..16 {
            for seq in 0..64 {
                assert_eq!(a.sample(tenant, seq), b.sample(tenant, seq));
            }
        }
    }

    #[test]
    fn rate_is_roughly_one_in_every() {
        let s = TraceSampler::new(7, 8);
        let hits = (0..4000u64).filter(|&q| s.sample(3, q).is_some()).count();
        // 1-in-8 by hash: expect ~500, allow generous slack.
        assert!((300..700).contains(&hits), "sampled {hits} of 4000");
    }

    #[test]
    fn every_zero_disables_and_one_samples_all() {
        let off = TraceSampler::new(7, 0);
        let all = TraceSampler::new(7, 1);
        assert!(off.sample(1, 1).is_none());
        assert!(all.sample(1, 1).is_some());
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct_across_seqs() {
        let s = TraceSampler::new(11, 4);
        let mut seen = std::collections::HashSet::new();
        for q in 0..256 {
            let id = s.trace_id(2, q);
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id for seq {q}");
        }
    }
}
