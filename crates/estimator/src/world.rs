//! The estimator's view of the world: per-host I/O state.
//!
//! This is exactly the information CloudTalk status servers report —
//! NIC capacity/usage per direction and disk capacity/usage per direction.
//! Hosts that did not answer are assumed heavily loaded (paper §4: "If
//! nothing is received from a status server, we assume that a particular
//! address is under heavy I/O load").

use cloudtalk_lang::problem::Address;

/// One host's I/O state as known to the estimator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HostState {
    /// NIC transmit capacity, bytes/second.
    pub nic_up_capacity: f64,
    /// Current transmit usage, bytes/second.
    pub nic_up_used: f64,
    /// NIC receive capacity, bytes/second.
    pub nic_down_capacity: f64,
    /// Current receive usage, bytes/second.
    pub nic_down_used: f64,
    /// Disk read capacity, bytes/second.
    pub disk_read_capacity: f64,
    /// Current disk read usage, bytes/second.
    pub disk_read_used: f64,
    /// Disk write capacity, bytes/second.
    pub disk_write_capacity: f64,
    /// Current disk write usage, bytes/second.
    pub disk_write_used: f64,
}

impl HostState {
    /// An idle host with symmetric `nic` and `disk` (read = write) speeds.
    pub fn idle(nic: f64, disk: f64) -> Self {
        HostState {
            nic_up_capacity: nic,
            nic_up_used: 0.0,
            nic_down_capacity: nic,
            nic_down_used: 0.0,
            disk_read_capacity: disk,
            disk_read_used: 0.0,
            disk_write_capacity: disk,
            disk_write_used: 0.0,
        }
    }

    /// An idle gigabit host with a fast SSD.
    pub fn gbps_idle() -> Self {
        HostState::idle(125e6, 450e6)
    }

    /// The pessimistic assumption for hosts that never answered: fully
    /// loaded in every dimension.
    pub(crate) fn assumed_overloaded() -> Self {
        HostState {
            nic_up_capacity: 125e6,
            nic_up_used: 125e6,
            nic_down_capacity: 125e6,
            nic_down_used: 125e6,
            disk_read_capacity: 450e6,
            disk_read_used: 450e6,
            disk_write_capacity: 450e6,
            disk_write_used: 450e6,
        }
    }

    /// Returns a copy with transmit usage set to `frac` of capacity.
    pub fn with_up_load(mut self, frac: f64) -> Self {
        self.nic_up_used = self.nic_up_capacity * frac;
        self
    }

    /// Returns a copy with receive usage set to `frac` of capacity.
    pub fn with_down_load(mut self, frac: f64) -> Self {
        self.nic_down_used = self.nic_down_capacity * frac;
        self
    }

    /// Residual transmit capacity.
    pub fn up_free(&self) -> f64 {
        (self.nic_up_capacity - self.nic_up_used).max(0.0)
    }

    /// Residual receive capacity.
    pub fn down_free(&self) -> f64 {
        (self.nic_down_capacity - self.nic_down_used).max(0.0)
    }

    /// Whether every field is a finite, non-negative reading with
    /// `used ≤ capacity` — what a correctly functioning status server
    /// reports, and what the estimator's arithmetic assumes.
    pub fn is_sane(&self) -> bool {
        let dim = |cap: f64, used: f64| {
            cap.is_finite() && used.is_finite() && cap >= 0.0 && (0.0..=cap).contains(&used)
        };
        dim(self.nic_up_capacity, self.nic_up_used)
            && dim(self.nic_down_capacity, self.nic_down_used)
            && dim(self.disk_read_capacity, self.disk_read_used)
            && dim(self.disk_write_capacity, self.disk_write_used)
    }

    /// Repairs a possibly corrupted status reading so the estimator and
    /// scoring arithmetic never see garbage. Per dimension:
    ///
    /// * non-finite or negative *capacity* → `0` (the dimension is treated
    ///   as having nothing to offer — indistinguishable from overloaded);
    /// * non-finite *usage* → the capacity (pessimistic: fully loaded);
    /// * negative usage → `0`; usage above capacity → saturated at
    ///   capacity.
    ///
    /// Sane states pass through bit-identical. A report is sanitised
    /// once, where it enters the system: every `cloudtalk` status source
    /// answers sane states (its `StatusSource` contract), so internal
    /// consumers (which may deliberately construct `used > capacity`
    /// overlays, e.g. reservation penalties) stay unclamped.
    #[must_use]
    pub fn sanitised(&self) -> Self {
        let dim = |cap: f64, used: f64| {
            let cap = if cap.is_finite() { cap.max(0.0) } else { 0.0 };
            let used = if used.is_finite() {
                used.clamp(0.0, cap)
            } else {
                cap
            };
            (cap, used)
        };
        let (nic_up_capacity, nic_up_used) = dim(self.nic_up_capacity, self.nic_up_used);
        let (nic_down_capacity, nic_down_used) = dim(self.nic_down_capacity, self.nic_down_used);
        let (disk_read_capacity, disk_read_used) =
            dim(self.disk_read_capacity, self.disk_read_used);
        let (disk_write_capacity, disk_write_used) =
            dim(self.disk_write_capacity, self.disk_write_used);
        HostState {
            nic_up_capacity,
            nic_up_used,
            nic_down_capacity,
            nic_down_used,
            disk_read_capacity,
            disk_read_used,
            disk_write_capacity,
            disk_write_used,
        }
    }
}

/// Per-host state for every address the estimator may encounter.
///
/// The addresses the world has met, ascending; a host's position there
/// is its **slot**, and its state sits at the same position of a parallel
/// vector, with a presence flag: a host that stops answering keeps its
/// slot and is simply not known. A caller that reads a host many times
/// (the heuristic scoring a pool, a gather filling the world) finds its
/// slot once and reads by slot from then on.
#[derive(Clone, Debug, Default)]
pub struct World {
    addrs: Vec<Address>,
    states: Vec<HostState>,
    known: Vec<bool>,
    /// How many slots are known.
    len: usize,
}

impl World {
    /// An empty world (every lookup hits the overloaded assumption).
    pub fn new() -> Self {
        World::default()
    }

    /// An empty world with room for `n` hosts.
    pub fn with_capacity(n: usize) -> Self {
        World {
            addrs: Vec::with_capacity(n),
            states: Vec::with_capacity(n),
            known: Vec::with_capacity(n),
            len: 0,
        }
    }

    /// A world with a slot for each of `addrs` (ascending, distinct) and
    /// no host known yet: [`World::set_at`] fills it.
    pub fn over(addrs: Vec<Address>) -> Self {
        debug_assert!(addrs.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        let n = addrs.len();
        World {
            addrs,
            states: vec![HostState::assumed_overloaded(); n],
            known: vec![false; n],
            len: 0,
        }
    }

    /// A world where each of `addrs` has the same `state`.
    pub fn uniform(addrs: &[Address], state: HostState) -> Self {
        let mut addrs = addrs.to_vec();
        addrs.sort_unstable();
        addrs.dedup();
        let n = addrs.len();
        World {
            addrs,
            states: vec![state; n],
            known: vec![true; n],
            len: n,
        }
    }

    /// Sets one host's state.
    pub fn set(&mut self, addr: Address, state: HostState) {
        match self.addrs.binary_search(&addr) {
            Ok(slot) => self.set_at(slot, state),
            Err(slot) => {
                self.addrs.insert(slot, addr);
                self.states.insert(slot, state);
                self.known.insert(slot, true);
                self.len += 1;
            }
        }
    }

    /// Forgets one host: lookups fall back to the overloaded assumption.
    pub fn remove(&mut self, addr: Address) {
        if let Some(slot) = self.slot(addr) {
            self.remove_at(slot);
        }
    }

    /// Gets one host's state; unknown hosts are assumed overloaded.
    pub fn get(&self, addr: Address) -> HostState {
        self.slot(addr)
            .map_or_else(HostState::assumed_overloaded, |slot| self.get_at(slot))
    }

    /// Whether the world has explicit state for `addr`.
    pub fn knows(&self, addr: Address) -> bool {
        self.slot(addr).is_some_and(|slot| self.known[slot])
    }

    /// How many hosts the world knows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the world knows no host.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all known hosts, ascending by address.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &HostState)> {
        let all = self.addrs.iter().zip(&self.states).zip(&self.known);
        all.filter_map(|(entry, &known)| known.then_some(entry))
    }

    /// The slot of `addr`, known or not, if the world has met it.
    pub fn slot(&self, addr: Address) -> Option<usize> {
        self.addrs.binary_search(&addr).ok()
    }

    /// The state at `slot`; a slot not known, or past the end, is assumed
    /// overloaded.
    pub fn get_at(&self, slot: usize) -> HostState {
        match self.known.get(slot) {
            Some(true) => self.states[slot],
            _ => HostState::assumed_overloaded(),
        }
    }

    /// Whether the host at `slot` is known.
    pub fn knows_at(&self, slot: usize) -> bool {
        self.known[slot]
    }

    /// Sets the state at `slot`.
    pub fn set_at(&mut self, slot: usize, state: HostState) {
        self.states[slot] = state;
        if !std::mem::replace(&mut self.known[slot], true) {
            self.len += 1;
        }
    }

    /// Forgets the host at `slot`; it keeps the slot.
    pub fn remove_at(&mut self, slot: usize) {
        if std::mem::replace(&mut self.known[slot], false) {
            self.len -= 1;
        }
    }

    /// The state of each of `addrs` (ascending), in order: one forward
    /// pass over the world's own ascending addresses, with no search when
    /// the two lists line up.
    pub fn states_of_sorted<'a>(
        &'a self,
        addrs: &'a [Address],
    ) -> impl Iterator<Item = HostState> + 'a {
        let mut at = 0;
        addrs.iter().map(move |&addr| {
            if self.addrs.get(at) != Some(&addr) {
                at += self.addrs[at.min(self.addrs.len())..].partition_point(|&a| a < addr);
            }
            match self.addrs.get(at) {
                Some(&a) if a == addr => self.get_at(at),
                _ => HostState::assumed_overloaded(),
            }
        })
    }

    /// Makes `self` a copy of `base` in the buffers it already has, then
    /// sets each of `addrs` to `f` of its state: the host at slot
    /// `slots[i]` of `base`, or, where that is `usize::MAX` (a host `base`
    /// has not met), a host added as [`World::set`] adds it, from the
    /// overloaded assumption. No slot is searched for. Returns whether a
    /// host was added: the slots after it have moved.
    pub fn overlay(
        &mut self,
        base: &World,
        addrs: &[Address],
        slots: &[usize],
        mut f: impl FnMut(HostState) -> HostState,
    ) -> bool {
        self.addrs.clone_from(&base.addrs);
        self.states.clone_from(&base.states);
        self.known.clone_from(&base.known);
        self.len = base.len;
        let mut added = false;
        for &slot in slots {
            if slot != usize::MAX {
                self.set_at(slot, f(self.get_at(slot)));
            }
        }
        for (&addr, &slot) in addrs.iter().zip(slots) {
            if slot == usize::MAX {
                self.set(addr, f(HostState::assumed_overloaded()));
                added = true;
            }
        }
        added
    }

    /// The slot of each of `addrs` (`usize::MAX` for `None` and for an
    /// address the world has not met), appended to `out`: one search each.
    pub fn slots_into(&self, addrs: impl Iterator<Item = Option<Address>>, out: &mut Vec<usize>) {
        out.extend(addrs.map(|a| a.and_then(|a| self.slot(a)).unwrap_or(usize::MAX)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_hosts_are_overloaded() {
        let w = World::new();
        let s = w.get(Address(42));
        assert_eq!(s.up_free(), 0.0);
        assert_eq!(s.down_free(), 0.0);
        assert!(!w.knows(Address(42)));
    }

    #[test]
    fn load_helpers_apply_fractions() {
        let s = HostState::gbps_idle().with_up_load(0.6).with_down_load(0.9);
        assert!((s.up_free() - 0.4 * 125e6).abs() < 1.0);
        assert!((s.down_free() - 0.1 * 125e6).abs() < 1.0);
    }

    #[test]
    fn sanitised_repairs_each_kind_of_garbage() {
        let mut s = HostState::gbps_idle();
        s.nic_up_used = f64::NAN;
        s.nic_down_used = -3.0;
        s.disk_read_used = s.disk_read_capacity * 2.0;
        s.disk_write_capacity = f64::INFINITY;
        let fixed = s.sanitised();
        assert!(fixed.is_sane(), "{fixed:?}");
        assert_eq!(fixed.nic_up_used, fixed.nic_up_capacity, "NaN usage → pessimistic");
        assert_eq!(fixed.nic_down_used, 0.0, "negative usage → zero");
        assert_eq!(fixed.disk_read_used, fixed.disk_read_capacity, "overflow saturates");
        assert_eq!(fixed.disk_write_capacity, 0.0, "infinite capacity → nothing to offer");
    }

    #[test]
    fn sanitised_is_identity_on_sane_states() {
        let s = HostState::gbps_idle().with_up_load(0.4);
        assert!(s.is_sane());
        assert_eq!(s.sanitised(), s);
    }

    #[test]
    fn uniform_world_covers_addrs() {
        let addrs = [Address(1), Address(2)];
        let w = World::uniform(&addrs, HostState::gbps_idle());
        assert!(w.knows(Address(1)));
        assert!(w.knows(Address(2)));
        assert_eq!(w.iter().count(), 2);
    }
}
