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
//! tenant of a wave a private one to record into, merged at wave close.
//! Reading the holds into a query's reservation mask and recording an
//! answer's addresses both happen in one place, `EvalCore`'s answer path.
//!
//! Live holds are bounded by the hosts one server recommends within the
//! hold time, which can be most of the fleet (`hint_cold` holds 930–1 011
//! of its 1 024 hosts at a wave close), so a sorted `Vec` with
//! binary-search probes is the whole data structure: an answer probes it
//! once per footprint host, `O(footprint · log holds)`.

use std::cmp::Ordering;

use cloudtalk_lang::problem::Address;
use desim::SimTime;
use estimator::{HostState, World};

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

/// Refills `out` with `base` plus a penalty on every address of `mask`: a
/// capacity's worth of extra usage, so every held host ranks below every
/// free one while measured load still orders the held (the paper's "in
/// decreasing order of their evaluated fitness").
pub fn overlay_reservations(out: &mut World, base: &World, mask: &[Address]) {
    out.overlay(base, mask, |mut s: HostState| {
        s.nic_up_used += s.nic_up_capacity;
        s.nic_down_used += s.nic_down_capacity;
        s.disk_read_used += s.disk_read_capacity;
        s.disk_write_used += s.disk_write_capacity;
        s
    });
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

    #[test]
    fn merge_keeps_entries_sorted_and_takes_the_later_expiry() {
        let mut a = Reservations::new();
        a.reserve(Address(5), ms(300));
        a.reserve(Address(1), ms(300));
        let mut b = Reservations::new();
        b.reserve(Address(3), ms(200));
        b.reserve(Address(5), ms(100));
        b.reserve(Address(1), ms(400));
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(
            ab.entries(),
            [
                (Address(1), ms(400)),
                (Address(3), ms(200)),
                (Address(5), ms(300))
            ]
        );
        b.merge(&a);
        assert_eq!(ab, b, "merge order does not matter");
    }
}
