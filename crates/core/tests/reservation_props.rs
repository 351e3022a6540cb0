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

use std::collections::HashMap;

use cloudtalk::reservation::{overlay_reservations, Reservations};
use cloudtalk_lang::problem::Address;
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

const HOLD: SimDuration = SimDuration::from_millis(300);
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

/// A store built from a few random calls (possibly none).
fn random_store(rng: &mut impl Rng) -> Reservations {
    let mut r = Reservations::new();
    for _ in 0..rng.gen_range(0..5) {
        let (now, addrs) = random_call(rng);
        for a in addrs {
            r.reserve(a, now + HOLD);
        }
    }
    r
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
                    r.merge(&other);
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
    fn one_pass_merge_equals_a_reserve_per_entry(seed in any::<u64>()) {
        let mut rng = stream_rng(seed, 0x3E26E);
        for _ in 0..16 {
            let (a, b) = (random_store(&mut rng), random_store(&mut rng));
            let mut merged = a.clone();
            merged.merge(&b);
            let mut oracle = a.clone();
            merge_by_reserve(&mut oracle, &b);
            prop_assert_eq!(&merged, &oracle, "{:?} merged with {:?}", a, b);
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
            overlay_reservations(&mut out, &world, &mask);
            // `Debug` prints every field, unknown slots' states included.
            prop_assert_eq!(format!("{out:?}"), format!("{want:?}"), "mask {:?}", mask);
        }
    }
}
