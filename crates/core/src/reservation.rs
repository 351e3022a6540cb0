//! Pseudo-reservations (paper §5.5, Figure 12).
//!
//! "When an answer is provided in response to a query, the server will
//! consider the machines it has recommended to be in use for a time t,
//! chosen sufficiently large to allow the relevant feedback to arrive from
//! status servers. During the Hadoop experiments, t was set to 300ms."
//!
//! Without this, a burst of queries all sees the same idle host and piles
//! onto it before any status feedback shows the load — the oscillation
//! that blows the 99th-percentile write time up by 10×.
//!
//! The mechanism is one value type, [`Reservations`], wherever holds are
//! kept: [`crate::server::CloudTalkServer`] owns one and edits it in
//! place; the serving plane publishes one behind an `Arc` and gives every
//! tenant of a wave a private one to record into, written into the
//! published one at wave close. Reading the holds into a query's
//! reservation mask and recording an answer's addresses both happen in
//! one place, `EvalCore`'s answer path.
//!
//! Live holds are bounded by the hosts one server recommends within the
//! hold time, which can be most of the fleet (`hint_cold` holds 930–1 011
//! of its 1 024 hosts at a wave close). So the plane's published set keeps
//! one expiry per fleet slot (the `FleetLayout` number a query's
//! footprint already carries): reading a hold is one array read, writing
//! one is one array write, and a hold that has ended needs no purge — it
//! is simply not later than `now`. An address no slot covers (every hold
//! of a `CloudTalkServer`, which has no layout, and a plane hold on an
//! address outside the fleet) keeps a strictly sorted `(Address, expiry)`
//! entry, found by binary search and purged when it has ended, so those
//! entries stay bounded by the live holds.

use cloudtalk_lang::problem::Address;
use desim::SimTime;
use estimator::{HostState, World};

/// A slot number meaning "no fleet slot": the address is held, if at all,
/// by an address-keyed entry.
pub(crate) const NO_SLOT: usize = usize::MAX;

/// Which hosts were recently recommended, and until when.
///
/// A host has at most one hold, whose expiry only ever extends; the hold
/// is live at `now` iff its expiry is later than `now`. The serving
/// plane's set has a slot per fleet host, and holds such a host in its
/// slot; any other address is held in an entry of a list strictly sorted
/// by address.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reservations {
    /// Per fleet slot, when its hold ends (`SimTime::ZERO`: never held).
    slots: Vec<SimTime>,
    /// Holds on addresses no slot covers, strictly sorted by address.
    entries: Vec<(Address, SimTime)>,
}

impl Reservations {
    /// No holds, and no slots: every hold is an address-keyed entry.
    pub const fn new() -> Self {
        Reservations {
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// No holds, with a slot for each of `n` fleet hosts.
    pub(crate) fn over_slots(n: usize) -> Self {
        Reservations {
            slots: vec![SimTime::ZERO; n],
            entries: Vec::new(),
        }
    }

    /// Holds `addr` until `until`, or until its current expiry if that is
    /// later, in an address-keyed entry.
    pub fn reserve(&mut self, addr: Address, until: SimTime) {
        match self.entries.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.max(until),
            Err(i) => self.entries.insert(i, (addr, until)),
        }
    }

    /// Holds fleet slot `slot` until `until`, or until its current expiry
    /// if that is later. Returns the expiry it had before.
    pub(crate) fn reserve_slot(&mut self, slot: usize, until: SimTime) -> SimTime {
        let e = &mut self.slots[slot];
        let before = *e;
        *e = before.max(until);
        before
    }

    /// When the hold on `addr`'s address-keyed entry ends, if it has one.
    pub fn expiry(&self, addr: Address) -> Option<SimTime> {
        let i = self.entries.binary_search_by_key(&addr, |e| e.0).ok()?;
        Some(self.entries[i].1)
    }

    /// When the hold in fleet slot `slot` ends (`SimTime::ZERO` if it was
    /// never held).
    pub(crate) fn slot_expiry(&self, slot: usize) -> SimTime {
        self.slots[slot]
    }

    /// Whether `addr` is considered in use at `now`, by its entry.
    pub fn is_reserved(&self, addr: Address, now: SimTime) -> bool {
        self.expiry(addr).is_some_and(|e| e > now)
    }

    /// Whether the host `addr`, at fleet slot `slot` (or [`NO_SLOT`]), is
    /// considered in use at `now`: one array read when this set has the
    /// slot, else its entry.
    pub(crate) fn holds(&self, addr: Address, slot: usize, now: SimTime) -> bool {
        match self.slots.get(slot) {
            Some(&e) => e > now,
            None => self.is_reserved(addr, now),
        }
    }

    /// Drops the address-keyed entries no longer live at `now`. Slots need
    /// no purge: an ended hold is not later than `now`.
    pub fn purge(&mut self, now: SimTime) {
        self.entries.retain(|&(_, e)| e > now);
    }

    /// Drops the address-keyed entries ended by `now`, then holds each of
    /// `holds` in an entry.
    pub(crate) fn extend_entries(&mut self, now: SimTime, holds: &[(Address, SimTime)]) {
        self.purge(now);
        for &(addr, until) in holds {
            self.reserve(addr, until);
        }
    }

    /// The address-keyed entries, strictly sorted by address.
    pub fn entries(&self) -> &[(Address, SimTime)] {
        &self.entries
    }

    /// Every hold live at `now`, ascending by address: the slots' holds,
    /// addressed through `fleet` (every fleet host, by slot; empty for a
    /// set with no slots), and the live entries.
    pub fn live(&self, fleet: &[Address], now: SimTime) -> Vec<(Address, SimTime)> {
        let slots = fleet.iter().zip(&self.slots).map(|(&a, &e)| (a, e));
        let mut out: Vec<_> = slots
            .chain(self.entries.iter().copied())
            .filter(|&(_, e)| e > now)
            .collect();
        out.sort_unstable();
        out
    }

    /// Address-keyed entries stored, live or not
    /// ([`Reservations::purge`] drops the rest).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no address-keyed entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Refills `out` with `base` plus a penalty on every address of `mask`: a
/// capacity's worth of extra usage, so every held host ranks below every
/// free one while measured load still orders the held (the paper's "in
/// decreasing order of their evaluated fitness"). `slots` holds each
/// address's slot in `base` (`usize::MAX` where `base` lacks it). Returns
/// whether a host was added ([`World::overlay`]).
pub fn overlay_reservations(
    out: &mut World,
    base: &World,
    mask: &[Address],
    slots: &[usize],
) -> bool {
    out.overlay(base, mask, slots, |mut s: HostState| {
        s.nic_up_used += s.nic_up_capacity;
        s.nic_down_used += s.nic_down_capacity;
        s.disk_read_used += s.disk_read_capacity;
        s.disk_write_used += s.disk_write_capacity;
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    /// `x` milliseconds past the epoch.
    fn ms(x: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(x)
    }

    #[test]
    fn a_hold_is_live_strictly_before_its_expiry() {
        let mut r = Reservations::new();
        r.reserve(Address(7), ms(300));
        assert!(r.is_reserved(Address(7), ms(0)));
        assert!(r.is_reserved(Address(7), ms(299)));
        assert!(!r.is_reserved(Address(7), ms(300)));
        assert!(!r.is_reserved(Address(8), ms(0)));
    }

    #[test]
    fn expiry_only_extends() {
        let mut r = Reservations::new();
        r.reserve(Address(1), ms(300));
        r.reserve(Address(1), ms(500));
        r.reserve(Address(1), ms(400));
        assert_eq!(r.len(), 1, "one entry per address");
        assert_eq!(r.expiry(Address(1)), Some(ms(500)));
    }

    #[test]
    fn purge_drops_exactly_the_expired() {
        let mut r = Reservations::new();
        r.reserve(Address(2), ms(800));
        r.reserve(Address(1), ms(300));
        r.purge(ms(100));
        assert_eq!(r.len(), 2, "nothing has expired yet");
        r.purge(ms(300));
        assert_eq!(r.entries(), [(Address(2), ms(800))]);
        r.purge(ms(900));
        assert!(r.is_empty());
    }
}
