//! Property suite pinning [`Reservations`] — the one store of §5.5 holds —
//! to the `HashMap` table it replaced, kept below as the oracle: random
//! `reserve` / `purge` / `is_reserved` / `merge` at non-monotone times,
//! with duplicate addresses inside one call and reservations made in the
//! past. After every step both agree on what is stored and on who is held
//! when; the new store's entries are strictly sorted; and no expiry ever
//! shortens. The one-pass `merge` is also held to the loop it replaced, a
//! `reserve` per entry of the other store, kept below as its oracle.
//!
//! The reservation overlay an answer is searched in is held to what it
//! was before: [`overlay_reservations`] (a reused buffer) to the
//! `overlay_reserved` clone-and-`set` it replaced, kept below verbatim.
//!
//! The serving plane's published holds, one expiry per fleet slot with no
//! purge, are held to the sorted `(Address, expiry)` store they replaced,
//! kept below verbatim as `sorted::Reservations`: random wave schedules —
//! out-of-fleet and cross-shard pools, holds extended while live, a
//! version held across publishes — are replayed on a plane, and the
//! oracle is fed every wave's answers as the plane's wave close used to
//! merge them. At every wave both agree on the live holds, on
//! `ledger_stats()` and on the `serving.ledger_live` gauge.

use std::collections::HashMap;
use std::sync::Arc;

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::reservation::{overlay_reservations, Reservations};
use cloudtalk::serving::{ServingConfig, ServingPlane, TenantId};
use cloudtalk::status::TableStatusSource;
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Value};
use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use estimator::{HostState, World};
use proptest::prelude::*;
use rand::Rng;

/// The table `CloudTalkServer` used before `Reservations`: a hash map plus
/// a monotone expiry frontier. Test-target oracle only.
mod oracle {
    use super::*;

    #[derive(Clone, Debug)]
    pub struct ReservationTable {
        hold: SimDuration,
        expiry: HashMap<Address, SimTime>,
        /// Lower bound on every live entry's expiry: no entry expires
        /// before the frontier, so a purge at `now < frontier` has nothing
        /// to drop. Extending an entry can leave the frontier conservative
        /// (too low), never wrong; a full purge recomputes it exactly.
        frontier: SimTime,
    }

    impl ReservationTable {
        pub fn new(hold: SimDuration) -> Self {
            ReservationTable {
                hold,
                expiry: HashMap::new(),
                frontier: SimTime::MAX,
            }
        }

        pub fn reserve(&mut self, addrs: impl IntoIterator<Item = Address>, now: SimTime) {
            let until = now + self.hold;
            let mut inserted = false;
            for addr in addrs {
                let e = self.expiry.entry(addr).or_insert(until);
                if *e < until {
                    *e = until;
                }
                inserted = true;
            }
            if inserted && until < self.frontier {
                self.frontier = until;
            }
        }

        pub fn is_reserved(&self, addr: Address, now: SimTime) -> bool {
            if now < self.frontier {
                return self.expiry.contains_key(&addr);
            }
            self.expiry.get(&addr).is_some_and(|&e| e > now)
        }

        pub fn purge(&mut self, now: SimTime) {
            if now < self.frontier {
                return;
            }
            self.expiry.retain(|_, &mut e| e > now);
            self.frontier = self.expiry.values().copied().min().unwrap_or(SimTime::MAX);
        }

        pub fn live_count(&self, now: SimTime) -> usize {
            if now < self.frontier {
                return self.expiry.len();
            }
            self.expiry.values().filter(|&&e| e > now).count()
        }

        pub fn len(&self) -> usize {
            self.expiry.len()
        }
    }
}

/// The sorted-vector store the plane published before holds went by fleet
/// slot, verbatim. Test-target oracle only.
mod sorted {
    use std::cmp::Ordering;

    use cloudtalk_lang::problem::Address;
    use desim::SimTime;

    /// Which hosts were recently recommended, and until when.
    ///
    /// Entries are strictly sorted by address. An address has at most one
    /// entry, whose expiry only ever extends; the entry is live at `now` iff
    /// its expiry is later than `now`.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Reservations {
        entries: Vec<(Address, SimTime)>,
    }

    impl Reservations {
        /// No holds.
        pub const fn new() -> Self {
            Reservations {
                entries: Vec::new(),
            }
        }

        /// Holds `addr` until `until`, or until its current expiry if that is
        /// later.
        pub fn reserve(&mut self, addr: Address, until: SimTime) {
            match self.entries.binary_search_by_key(&addr, |e| e.0) {
                Ok(i) => self.entries[i].1 = self.entries[i].1.max(until),
                Err(i) => self.entries.insert(i, (addr, until)),
            }
        }

        /// When the hold on `addr` ends, if there is an entry for it.
        pub fn expiry(&self, addr: Address) -> Option<SimTime> {
            let i = self.entries.binary_search_by_key(&addr, |e| e.0).ok()?;
            Some(self.entries[i].1)
        }

        /// Whether `addr` is considered in use at `now`.
        pub fn is_reserved(&self, addr: Address, now: SimTime) -> bool {
            self.expiry(addr).is_some_and(|e| e > now)
        }

        /// Takes over every hold of `other`. Max-expiry merging is commutative
        /// and associative: the result does not depend on merge order. One
        /// pass over both sorted lists, in place: the list grows by `other`'s
        /// length and is filled from the back, so no entry is overwritten
        /// before it is read; an address both hold leaves one slot spare at
        /// the front, closed up at the end.
        pub fn merge(&mut self, other: &Reservations) {
            let (n, theirs) = (self.entries.len(), other.entries.as_slice());
            if theirs.is_empty() {
                return;
            }
            self.entries.extend_from_slice(theirs);
            let e = &mut self.entries;
            // Unread: `e[..i]` and `theirs[..j]`; the next write goes to
            // `e[w - 1]`, and `w >= i + j` throughout.
            let (mut i, mut j, mut w) = (n, theirs.len(), e.len());
            while j > 0 {
                let y = theirs[j - 1];
                w -= 1;
                match (i > 0).then(|| e[i - 1].0.cmp(&y.0)) {
                    Some(Ordering::Greater) => {
                        e[w] = e[i - 1];
                        i -= 1;
                    }
                    Some(Ordering::Equal) => {
                        e[w] = (y.0, e[i - 1].1.max(y.1));
                        i -= 1;
                        j -= 1;
                    }
                    Some(Ordering::Less) | None => {
                        e[w] = y;
                        j -= 1;
                    }
                }
            }
            // `e[..i]` is in place; the merged tail starts at `w`.
            if w > i {
                let len = e.len();
                e.copy_within(w.., i);
                e.truncate(len - (w - i));
            }
        }

        /// Drops the entries no longer live at `now`.
        pub fn purge(&mut self, now: SimTime) {
            self.entries.retain(|&(_, e)| e > now);
        }

        /// The entries, strictly sorted by address.
        pub fn entries(&self) -> &[(Address, SimTime)] {
            &self.entries
        }

        /// Entries stored, live or not ([`Reservations::purge`] drops the
        /// rest).
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether there are no entries at all.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }
    }
}

const HOLD: SimDuration = SimDuration::from_millis(300);

/// A live hold: the host and when it ends.
type Hold = (Address, SimTime);
/// Few addresses and a two-second clock: entries collide, extend and
/// expire within one short run.
const ADDRS: u32 = 12;
const CLOCK_MS: u64 = 2_000;

/// One `reserve` call: the instant and the (possibly repeating) addresses.
type Call = (SimTime, Vec<Address>);

fn random_call(rng: &mut impl Rng) -> Call {
    let now = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(0..CLOCK_MS));
    let n = rng.gen_range(0..5usize);
    (
        now,
        (0..n).map(|_| Address(rng.gen_range(0..ADDRS))).collect(),
    )
}

/// Applies one call to both stores.
fn reserve(table: &mut oracle::ReservationTable, r: &mut Reservations, (now, addrs): &Call) {
    table.reserve(addrs.iter().copied(), *now);
    for &a in addrs {
        r.reserve(a, *now + HOLD);
    }
}

/// The merge `Reservations` had before it merged in one pass: one
/// `reserve` per entry of the other store. Test-target oracle only.
fn merge_by_reserve(into: &mut Reservations, other: &Reservations) {
    for &(addr, until) in other.entries() {
        into.reserve(addr, until);
    }
}

/// The overlay `EvalCore` ran before the reused buffer: returns a world
/// with reservation penalties applied to every address of the reservation
/// mask, or `None` when the mask is empty. Test-target oracle only.
fn overlay_reserved(world: &World, mask: &[Address]) -> Option<World> {
    if mask.is_empty() {
        return None;
    }
    let mut out = world.clone();
    for &addr in mask {
        let mut s = out.get(addr);
        // Recommended machines are treated as in use until real
        // feedback catches up. The penalty is *additive* (a full
        // capacity's worth of extra usage) rather than saturating:
        // every reserved machine ranks below every unreserved one,
        // but among reserved machines the measured load still
        // orders candidates — the paper's "previously considered
        // endpoints, in decreasing order of their evaluated
        // fitness" fallback.
        s.nic_up_used += s.nic_up_capacity;
        s.nic_down_used += s.nic_down_capacity;
        s.disk_read_used += s.disk_read_capacity;
        s.disk_write_used += s.disk_write_capacity;
        out.set(addr, s);
    }
    Some(out)
}

/// Distinct addresses ascending, drawn from `0..ADDRS + 4`.
fn random_sorted(rng: &mut impl Rng) -> Vec<Address> {
    let keep = rng.gen_range(0.0..1.0);
    (0..ADDRS + 4)
        .filter(|_| rng.gen_bool(keep))
        .map(Address)
        .collect()
}

/// A world over a random subset of `0..ADDRS + 4`: random states, some
/// hosts forgotten (they keep their slot).
fn random_world(rng: &mut impl Rng) -> World {
    let mut w = World::new();
    for a in random_sorted(rng) {
        let s = HostState::idle(rng.gen_range(1e6..2e8), rng.gen_range(1e6..5e8));
        w.set(a, s.with_up_load(rng.gen_range(0.0..1.0)));
        if rng.gen_bool(0.2) {
            w.remove(a);
        }
    }
    w
}

fn check(
    table: &oracle::ReservationTable,
    r: &Reservations,
    rng: &mut impl Rng,
) -> Result<(), TestCaseError> {
    prop_assert!(
        r.entries().windows(2).all(|w| w[0].0 < w[1].0),
        "entries not strictly sorted: {:?}",
        r.entries()
    );
    prop_assert_eq!(r.len(), table.len(), "stored entries");
    prop_assert_eq!(r.is_empty(), table.len() == 0);
    for _ in 0..4 {
        let at = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(0..CLOCK_MS + 400));
        for a in (0..ADDRS).map(Address) {
            prop_assert_eq!(
                r.is_reserved(a, at),
                table.is_reserved(a, at),
                "{:?} at {}",
                a,
                at
            );
        }
        let live = r.entries().iter().filter(|&&(_, e)| e > at).count();
        prop_assert_eq!(live, table.live_count(at), "live set at {}", at);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reservations_match_the_hash_map_table(seed in any::<u64>(), steps in 5usize..80) {
        let mut rng = stream_rng(seed, 0x4E5E);
        let mut table = oracle::ReservationTable::new(HOLD);
        let mut r = Reservations::new();
        for _ in 0..steps {
            let before = r.clone();
            let op = rng.gen_range(0..10u32);
            match op {
                0..=4 => reserve(&mut table, &mut r, &random_call(&mut rng)),
                5..=6 => {
                    let now = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(0..CLOCK_MS));
                    table.purge(now);
                    r.purge(now);
                    for &(a, e) in before.entries() {
                        prop_assert_eq!(r.expiry(a), (e > now).then_some(e), "purge at {}", now);
                    }
                }
                _ => {
                    // Merging another store in is replaying the calls that
                    // built it: max-expiry is commutative and associative.
                    let calls: Vec<Call> =
                        (0..rng.gen_range(0..4)).map(|_| random_call(&mut rng)).collect();
                    let mut other = Reservations::new();
                    for (now, addrs) in &calls {
                        for &a in addrs {
                            other.reserve(a, *now + HOLD);
                        }
                        table.reserve(addrs.iter().copied(), *now);
                    }
                    merge_by_reserve(&mut r, &other);
                    for &(a, e) in other.entries() {
                        prop_assert!(r.expiry(a) >= Some(e), "merge lost or shortened {:?}", a);
                    }
                }
            }
            // Only a purge removes an entry, and nothing shortens one.
            if !(5..=6).contains(&op) {
                for &(a, e) in before.entries() {
                    prop_assert!(r.expiry(a) >= Some(e), "{:?} lost or shortened", a);
                }
            }
            check(&table, &r, &mut rng)?;
        }
    }

    #[test]
    fn reused_buffer_overlay_equals_the_clone_and_set(seed in any::<u64>()) {
        let mut rng = stream_rng(seed, 0x0E41);
        // One buffer across worlds of every size, as a core keeps it.
        let mut out = World::new();
        for _ in 0..16 {
            let world = random_world(&mut rng);
            let mask = random_sorted(&mut rng);
            let Some(want) = overlay_reserved(&world, &mask) else { continue };
            let slots: Vec<usize> =
                mask.iter().map(|&a| world.slot(a).unwrap_or(usize::MAX)).collect();
            overlay_reservations(&mut out, &world, &mask, &slots);
            // `Debug` prints every field, unknown slots' states included.
            prop_assert_eq!(format!("{out:?}"), format!("{want:?}"), "mask {:?}", mask);
        }
    }

    #[test]
    fn slot_holds_match_the_sorted_store(seed in any::<u64>(), waves in 10u64..90) {
        let mut rng = stream_rng(seed, 0x5107);
        // 8 racks of 4 (hosts 1..=32), two racks a shard; 100.. is
        // outside the fleet.
        let fleet: Vec<Address> = (1..=32).map(Address).collect();
        let layout = FleetLayout::uniform(&fleet, 4);
        let mut src = TableStatusSource::new();
        for &a in &fleet {
            src.set(a, HostState::gbps_idle().with_up_load(f64::from(a.0 % 4) * 0.2));
        }
        let cfg = ServingConfig {
            racks_per_shard: 2,
            max_virtual_lag: SimDuration::from_secs_f64(1e6),
            ..ServingConfig::default()
        };
        let quantum = cfg.wave_quantum;
        let mut plane = ServingPlane::new(cfg, layout, src);
        let mut oracle = sorted::Reservations::new();
        let (mut epoch, mut collisions, mut conflicts, mut gauge) = (0u64, 0u64, 0u64, Some(0.0));
        // A version handed out, its live holds then, and when that was.
        let mut kept: Option<(Arc<Reservations>, Vec<Hold>, SimTime)> = None;
        for w in 0..waves {
            let close = SimTime::ZERO + quantum * (w + 1);
            let submitted = rng.gen_range(0..4u32);
            for t in 0..submitted {
                // A shard's hosts, two shards' (cross-shard), or hosts
                // outside the fleet (a binding that must be held by
                // address); few enough that holds repeat and extend.
                let nodes: Vec<Address> = match rng.gen_range(0..4u32) {
                    0 => (0..4).map(|_| Address(rng.gen_range(101..106))).collect(),
                    1 => (0..5).map(|_| Address(rng.gen_range(1..33))).collect(),
                    _ => {
                        let shard: u32 = rng.gen_range(0..4);
                        (0..4).map(|_| Address(1 + shard * 8 + rng.gen_range(0..8u32))).collect()
                    }
                };
                let mut pool = nodes.clone();
                pool.sort_unstable();
                pool.dedup();
                let replicas = rng.gen_range(1..=pool.len().min(2));
                let writer = Address(rng.gen_range(1..40));
                let problem = hdfs_write_query(writer, &pool, replicas, 1e6).resolve().unwrap();
                plane.submit(TenantId(t), problem, close - quantum).unwrap();
            }
            let done = plane.run_until(close);
            prop_assert_eq!(done.len() as u32, submitted);
            // The old wave close: purge, merge each tenant's holds, count.
            oracle.purge(close);
            let mut tenants: Vec<sorted::Reservations> = Vec::new();
            for c in &done {
                if tenants.len() <= c.tenant.0 as usize {
                    tenants.resize_with(c.tenant.0 as usize + 1, sorted::Reservations::new);
                }
                let own = &mut tenants[c.tenant.0 as usize];
                let binding = c.result.as_ref().map(|a| a.binding.as_slice()).unwrap_or_default();
                for v in binding {
                    if let Value::Addr(a) = v {
                        own.reserve(*a, close + HOLD);
                    }
                }
            }
            let mut wave = sorted::Reservations::new();
            for own in &tenants {
                wave.merge(own);
            }
            if !wave.is_empty() {
                let requested: usize = tenants.iter().map(sorted::Reservations::len).sum();
                collisions += (requested - wave.len()) as u64;
                oracle.merge(&wave);
                epoch += 1;
                let mut holds = tenants.iter().flat_map(|o| o.entries());
                let lost = holds.any(|&(a, e)| oracle.expiry(a) < Some(e));
                conflicts += u64::from(lost);
            }
            if submitted > 0 {
                gauge = Some(oracle.len() as f64);
            }
            let version = plane.ledger_version();
            let live = version.live(&fleet, close);
            for a in (1..=40).chain(100..106).map(Address) {
                let held = live.iter().any(|h| h.0 == a);
                prop_assert_eq!(held, oracle.is_reserved(a, close), "{:?}, wave {}", a, w);
            }
            prop_assert_eq!(live.as_slice(), oracle.entries(), "wave {}", w);
            let stats = plane.ledger_stats();
            prop_assert_eq!(
                (stats.epoch, stats.live_entries, stats.collisions, stats.conflicts),
                (epoch, oracle.len(), collisions, conflicts),
                "wave {}", w
            );
            let live_gauge = plane.metrics().gauge_named("serving.ledger_live");
            prop_assert_eq!(live_gauge, gauge, "wave {}", w);
            // A version handed out keeps what it held, publishes later.
            match &kept {
                Some((v, live, at)) => prop_assert_eq!(&v.live(&fleet, *at), live),
                None if rng.gen_bool(0.1) => kept = Some((version, live, close)),
                None => {}
            }
        }
    }
}
