//! The canonical query-plan & answer cache.
//!
//! At storm load the serving plane is search-bound: every admitted query
//! re-runs candidate search from scratch, even though multi-tenant
//! traffic is dominated by structurally isomorphic queries. This module
//! caches *search results* (backend, effort counters, winning binding,
//! scores) so a repeat query skips the search entirely and replays the
//! stored result through the normal bind/reservation path.
//!
//! One rule decides who caches: only a serving-plane worker looks up,
//! stores or publishes an entry. A [`crate::server::CloudTalkServer`]
//! answer gathers a snapshot for itself alone, whose epoch no later
//! answer can match, so it never touches the cache.
//!
//! # Key completeness
//!
//! A cached result may be replayed only when **every** input the search
//! depends on is provably identical. The key is therefore:
//!
//! * the **exact working problem** (post-sampling), held as an
//!   `Arc<Problem>` and compared structurally — the 64-bit
//!   [`crate::canon::fingerprint_problem`] hash only buckets probes, it
//!   never decides a hit on its own, so hash collisions cannot violate
//!   bit-identity;
//! * the **snapshot epoch**: every [`crate::server::StatusSnapshot`]
//!   carries a core-unique epoch stamped at gather time, so any shard
//!   refresh moves the epoch and orphans entries keyed on the old one —
//!   invalidation is epoch-driven, never TTL-driven;
//! * the **reservation mask restricted to the query's footprint**: the
//!   sorted subset of the problem's mentioned addresses the caller's
//!   reservation view holds at evaluation time. The search consults
//!   reservations *only* through `overlay_reservations` of exactly these
//!   addresses, so ledger publications touching other addresses leave
//!   the mask — and the answer — unchanged, and hot entries survive
//!   unrelated churn;
//! * the **degradation rung** and the **shed flag**, which select the
//!   world view and can force the heuristic backend;
//! * the configured **[`EvalMethod`]**, so a core with a different
//!   backend never replays another's results.
//!
//! Anything *not* in the key provably does not feed the search: the
//! trace clock is deterministic, response-time arithmetic uses only
//! snapshot metadata recomputed on hit, and per-query RNG streams feed
//! sampling which happens *before* keying (the key holds the
//! post-sampling problem).
//!
//! # Tiers
//!
//! Both tiers are one private `Tier` type: entries bucketed by key hash,
//! verified structurally, bounded, evicted first-in first-out.
//!
//! * **L1** — per-worker, owned by the worker's `EvalCore`. Insertions
//!   are visible to the same worker immediately (within-wave repeats
//!   hit).
//! * **L2** — owned by the serving plane's sequencer. Workers read it by
//!   shared reference while a wave runs; fresh inserts are merged and
//!   dead epochs swept in place between waves, when no worker exists to
//!   hold a reference. In the steady state (all hits, no refresh)
//!   publishing touches nothing.
//!
//! Hits are audited: every hit compares the entry's recorded epoch with
//! the live snapshot's epoch and counts mismatches in `cache.stale_hit`.
//! Because the epoch is *in* the key this counter must stay zero; the
//! equivalence suite and the storm bench assert exactly that.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cloudtalk_lang::problem::{Address, Binding, Problem};
use cloudtalk_lang::{WordHasher, WordMap};

use crate::footprint::Footprint;
use crate::server::{Backend, DegradationRung, EvalMethod, SearchStats};

/// Answer-cache knobs, part of [`crate::server::ServerConfig`]. Serving
/// plane only: a [`crate::server::CloudTalkServer`] never caches.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Master switch. Off, every lookup misses and nothing is stored —
    /// the bit-exactness oracle the equivalence tests compare against.
    pub enabled: bool,
    /// Per-worker L1 capacity, entries.
    pub(crate) l1_entries: usize,
    /// Shared L2 capacity, entries.
    pub(crate) l2_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            l1_entries: 256,
            l2_entries: 4096,
        }
    }
}

/// Plane-level audit snapshot of the cache, assembled by
/// [`crate::serving::ServingPlane::cache_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Hits answered from a worker's own L1.
    pub l1_hits: u64,
    /// Hits answered from the shared L2 view.
    pub l2_hits: u64,
    /// Lookups that ran the search.
    pub misses: u64,
    /// Hits whose entry epoch mismatched the live snapshot epoch.
    /// Must be zero — the epoch is part of the key.
    pub stale_hits: u64,
    /// L2 entries dropped by epoch sweeps since the plane started.
    pub invalidated: u64,
    /// L2 entries whose epoch is no longer live. Non-zero only
    /// transiently inside a wave; zero after every drain.
    pub l2_dead: usize,
}

impl CacheStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.l1_hits + self.l2_hits
    }

    /// Hit rate over all lookups, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits() as f64 / total as f64
            }
        }
    }
}

/// The key's scalar components: everything but the problem and the
/// reservation mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct KeyScalars {
    epoch: u64,
    rung: DegradationRung,
    shed: bool,
    method: EvalMethod,
}

/// Borrowed key components of one lookup, with the bucket hash both
/// tiers and the insert share: the problem is fingerprinted once (by its
/// [`Footprint`]) and the key hashed once, here. Nothing is allocated
/// until an insert stores an entry.
pub(crate) struct KeyParts<'a> {
    fp: &'a Footprint<'a>,
    /// Mentioned addresses currently reserved in the caller's view,
    /// sorted ascending.
    reserved: &'a [Address],
    scalars: KeyScalars,
    hash: u64,
}

impl<'a> KeyParts<'a> {
    pub(crate) fn new(
        fp: &'a Footprint<'a>,
        epoch: u64,
        reserved: &'a [Address],
        rung: DegradationRung,
        shed: bool,
        method: EvalMethod,
    ) -> Self {
        let scalars = KeyScalars {
            epoch,
            rung,
            shed,
            method,
        };
        let mut h = WordHasher::default();
        fp.fingerprint().hash(&mut h);
        reserved.hash(&mut h);
        scalars.hash(&mut h);
        #[cfg(test)]
        if crate::canon::ONE_BUCKET.load(std::sync::atomic::Ordering::SeqCst) {
            h = WordHasher::default();
        }
        KeyParts {
            fp,
            reserved,
            scalars,
            hash: h.finish(),
        }
    }
}

/// What a hit replays: everything the search phase of
/// `EvalCore::answer_snapshot` produces. Deliberately *not* the whole
/// [`crate::server::Answer`] — trace, response time, and the stale-host
/// list are recomputed from the live snapshot on every hit, so the
/// assembled answer is bit-identical to the miss it replaces.
#[derive(Clone, Debug)]
pub(crate) struct CachedSearch {
    pub(crate) backend: Backend,
    pub(crate) search: SearchStats,
    pub(crate) binding: Binding,
    pub(crate) binding_scores: Vec<f64>,
    /// The snapshot epoch the search ran under — equal to the key's
    /// epoch by construction; re-checked on every hit for the
    /// `cache.stale_hit` audit.
    pub(crate) epoch: u64,
}

impl CachedSearch {
    /// Rough heap footprint, for the `cache.bytes` gauges.
    fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<CachedSearch>()
            + self.binding.len() * std::mem::size_of::<cloudtalk_lang::problem::Value>()
            + self.binding_scores.len() * 8) as u64
    }
}

/// One stored entry: the full key (problem held exactly) plus the value.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    hash: u64,
    problem: Arc<Problem>,
    reserved: Vec<Address>,
    scalars: KeyScalars,
    /// Insertion sequence within its tier, for deterministic FIFO eviction.
    seq: u64,
    value: Arc<CachedSearch>,
}

impl Entry {
    fn approx_bytes(&self) -> u64 {
        let key = std::mem::size_of::<Entry>()
            + self.reserved.len() * std::mem::size_of::<Address>()
            + self.problem.flows.len() * 64
            + self.problem.vars.len() * 48;
        key as u64 + self.value.approx_bytes()
    }
}

/// One cache tier — a worker's L1 or the plane's L2: entries bucketed by
/// key hash and verified structurally, evicted first-in first-out.
#[derive(Debug, Default)]
pub(crate) struct Tier {
    map: WordMap<u64, Vec<Entry>>,
    /// FIFO of (bucket hash, entry seq) in insertion order.
    order: VecDeque<(u64, u64)>,
    seq: u64,
    bytes: u64,
}

impl Tier {
    /// The stored entry under exactly this key, if any.
    fn find(
        &self,
        hash: u64,
        scalars: KeyScalars,
        reserved: &[Address],
        problem: &Problem,
    ) -> Option<&Entry> {
        self.map
            .get(&hash)?
            .iter()
            .find(|e| e.scalars == scalars && e.reserved == reserved && *e.problem == *problem)
    }

    pub(crate) fn lookup(&self, k: &KeyParts<'_>) -> Option<Arc<CachedSearch>> {
        self.find(k.hash, k.scalars, k.reserved, k.fp.problem())
            .map(|e| e.value.clone())
    }

    /// Stores `e` as the tier's newest entry.
    fn push(&mut self, mut e: Entry) {
        e.seq = self.seq;
        self.seq += 1;
        self.bytes += e.approx_bytes();
        self.order.push_back((e.hash, e.seq));
        self.map.entry(e.hash).or_default().push(e);
    }

    /// Evicts oldest-first down to `cap` entries.
    fn evict_to(&mut self, cap: usize) {
        while self.order.len() > cap {
            let (h, s) = self.order.pop_front().expect("order non-empty");
            let bucket = self.map.get_mut(&h).expect("ordered entry is stored");
            let i = bucket
                .iter()
                .position(|e| e.seq == s)
                .expect("ordered entry is stored");
            self.bytes -= bucket.swap_remove(i).approx_bytes();
            if bucket.is_empty() {
                self.map.remove(&h);
            }
        }
    }

    /// Drops every entry keyed on an epoch not in `live_epochs`; returns
    /// how many.
    fn sweep(&mut self, live_epochs: &[u64]) -> u64 {
        let (map, bytes) = (&mut self.map, &mut self.bytes);
        let mut dropped = 0;
        map.retain(|_, bucket| {
            bucket.retain(|e| {
                let live = live_epochs.contains(&e.scalars.epoch);
                if !live {
                    dropped += 1;
                    *bytes -= e.approx_bytes();
                }
                live
            });
            !bucket.is_empty()
        });
        if dropped > 0 {
            self.order
                .retain(|(h, s)| map.get(h).is_some_and(|b| b.iter().any(|e| e.seq == *s)));
        }
        dropped
    }

    /// Entries keyed on epochs not in `live_epochs`.
    fn dead_entries(&self, live_epochs: &[u64]) -> usize {
        self.map
            .values()
            .flatten()
            .filter(|e| !live_epochs.contains(&e.scalars.epoch))
            .count()
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// A serving-plane worker's L1. Owned by the worker's `EvalCore`; all
/// mutation is single-threaded.
pub(crate) struct QueryCache {
    cfg: CacheConfig,
    l1: Tier,
    /// Entries inserted since the last [`QueryCache::take_fresh`]; the
    /// serving plane drains these into L2 between waves.
    fresh: Vec<Entry>,
}

impl QueryCache {
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        QueryCache {
            cfg,
            l1: Tier::default(),
            fresh: Vec::new(),
        }
    }

    pub(crate) fn lookup(&self, k: &KeyParts<'_>) -> Option<Arc<CachedSearch>> {
        self.l1.lookup(k)
    }

    /// Stores a freshly computed search result under `k` and queues a copy
    /// for [`QueryCache::take_fresh`]: only plane workers insert, and the
    /// plane drains every insert into its L2. The entry (and the L2 entry
    /// after it) shares the footprint's problem, which a plane worker's
    /// footprint always owns: no copy.
    pub(crate) fn insert(&mut self, k: &KeyParts<'_>, value: Arc<CachedSearch>) {
        if !self.cfg.enabled || self.cfg.l1_entries == 0 {
            return;
        }
        let entry = Entry {
            hash: k.hash,
            problem: k.fp.share(),
            reserved: k.reserved.to_vec(),
            scalars: k.scalars,
            seq: 0,
            value,
        };
        self.fresh.push(entry.clone());
        self.l1.push(entry);
        self.l1.evict_to(self.cfg.l1_entries);
    }

    /// Drains the entries inserted since the last call (for L2 publish).
    pub(crate) fn take_fresh(&mut self) -> Vec<Entry> {
        std::mem::take(&mut self.fresh)
    }

    pub(crate) fn len(&self) -> usize {
        self.l1.len()
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.l1.bytes()
    }
}

/// The shared L2: one [`Tier`] owned by the serving plane's sequencer.
/// Workers read it by shared reference for the length of a wave; fresh
/// inserts are merged and dead epochs swept between waves, when nothing
/// borrows it — the borrow checker, not a lock, keeps the two apart.
pub(crate) struct SharedCache {
    tier: Tier,
    cap: usize,
    invalidated: u64,
}

impl SharedCache {
    pub(crate) fn new(cap: usize) -> Self {
        SharedCache {
            tier: Tier::default(),
            cap,
            invalidated: 0,
        }
    }

    /// The tier as workers read it during a wave.
    pub(crate) fn view(&self) -> &Tier {
        &self.tier
    }

    /// Merges freshly inserted entries and — when `sweep` — drops entries
    /// keyed on dead epochs, in place. `sweep` should be true when any
    /// shard refreshed since the last publish (epochs only die on
    /// refresh, so sweeping otherwise is wasted work). Returns the number
    /// of entries invalidated by the sweep. The steady state — nothing
    /// fresh, no refresh — touches nothing.
    pub(crate) fn publish(&mut self, fresh: Vec<Entry>, live_epochs: &[u64], sweep: bool) -> u64 {
        let dropped = if sweep {
            self.tier.sweep(live_epochs)
        } else {
            0
        };
        for e in fresh {
            // Skip entries another worker (or an earlier wave) already
            // published — first writer wins; values are bit-identical
            // by the determinism contract anyway.
            let dup = self.tier.find(e.hash, e.scalars, &e.reserved, &e.problem);
            if dup.is_none() {
                self.tier.push(e);
            }
        }
        self.tier.evict_to(self.cap);
        self.invalidated += dropped;
        dropped
    }

    pub(crate) fn len(&self) -> usize {
        self.tier.len()
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.tier.bytes()
    }

    pub(crate) fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// Entries keyed on epochs not in `live_epochs`. Zero after every
    /// drain — dead entries are swept the same wave their epoch dies.
    pub(crate) fn dead_entries(&self, live_epochs: &[u64]) -> usize {
        self.tier.dead_entries(live_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::QueryBuilder;

    fn problem(src: u32) -> Problem {
        let mut b = QueryBuilder::new();
        let x = b.variable("x", vec![Address(1), Address(2)]);
        b.flow("f").from_addr(Address(src)).to_var(x).size(1e4);
        b.resolve().unwrap()
    }

    fn parts<'a>(fp: &'a Footprint<'a>, epoch: u64, reserved: &'static [Address]) -> KeyParts<'a> {
        parts_with(fp, epoch, reserved, DegradationRung::Full, false)
    }

    fn parts_with<'a>(
        fp: &'a Footprint<'a>,
        epoch: u64,
        reserved: &'static [Address],
        rung: DegradationRung,
        shed: bool,
    ) -> KeyParts<'a> {
        KeyParts::new(fp, epoch, reserved, rung, shed, EvalMethod::Heuristic)
    }

    fn value(epoch: u64) -> Arc<CachedSearch> {
        Arc::new(CachedSearch {
            backend: Backend::Heuristic,
            search: SearchStats::default(),
            binding: Vec::new(),
            binding_scores: Vec::new(),
            epoch,
        })
    }

    #[test]
    fn key_components_all_matter() {
        let mut c = QueryCache::new(CacheConfig::default());
        let p = Footprint::shared(problem(10));
        c.insert(&parts(&p, 1, &[]), value(1));
        assert!(c.lookup(&parts(&p, 1, &[])).is_some());
        // Epoch, reservation mask, rung, shed, and problem all miss.
        assert!(c.lookup(&parts(&p, 2, &[])).is_none());
        assert!(c.lookup(&parts(&p, 1, &[Address(1)])).is_none());
        let k = parts_with(&p, 1, &[], DegradationRung::FreshSubset, false);
        assert!(c.lookup(&k).is_none());
        let k = parts_with(&p, 1, &[], DegradationRung::Full, true);
        assert!(c.lookup(&k).is_none());
        let other = Footprint::shared(problem(11));
        assert!(c.lookup(&parts(&other, 1, &[])).is_none());
        // An equal problem held elsewhere is the same key.
        let copy = problem(10);
        let copy = Footprint::borrowed(&copy);
        assert!(c.lookup(&parts(&copy, 1, &[])).is_some());
    }

    #[test]
    fn fifo_eviction_is_bounded() {
        let cfg = CacheConfig {
            l1_entries: 2,
            ..CacheConfig::default()
        };
        let mut c = QueryCache::new(cfg);
        let ps: Vec<Footprint<'_>> = (0..3).map(|i| Footprint::shared(problem(20 + i))).collect();
        for p in &ps {
            c.insert(&parts(p, 1, &[]), value(1));
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&parts(&ps[0], 1, &[])).is_none(), "oldest evicted");
        assert!(c.lookup(&parts(&ps[2], 1, &[])).is_some());
    }

    #[test]
    fn shared_publish_sweeps_dead_epochs_and_dedups() {
        let mut l1 = QueryCache::new(CacheConfig::default());
        let p = Footprint::shared(problem(30));
        l1.insert(&parts(&p, 1, &[]), value(1));
        let fresh = l1.take_fresh();
        let mut shared = SharedCache::new(16);
        assert_eq!(shared.publish(fresh.clone(), &[1], false), 0);
        assert_eq!(shared.len(), 1);
        assert!(shared.view().lookup(&parts(&p, 1, &[])).is_some());
        // Re-publishing the same key is a dedup no-op.
        shared.publish(fresh, &[1], false);
        assert_eq!(shared.len(), 1);
        // Epoch 1 dies: the entry is swept and counted.
        assert_eq!(shared.publish(Vec::new(), &[2], true), 1);
        assert_eq!(shared.len(), 0);
        assert_eq!(shared.invalidated(), 1);
        assert_eq!(shared.dead_entries(&[2]), 0);
        assert!(shared.view().lookup(&parts(&p, 1, &[])).is_none());
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cfg = CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        };
        let mut c = QueryCache::new(cfg);
        let p = Footprint::shared(problem(40));
        c.insert(&parts(&p, 1, &[]), value(1));
        assert_eq!(c.len(), 0);
        assert!(c.lookup(&parts(&p, 1, &[])).is_none());
    }
}
