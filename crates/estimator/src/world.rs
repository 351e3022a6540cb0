//! The estimator's view of the world: per-host I/O state.
//!
//! This is exactly the information CloudTalk status servers report —
//! NIC capacity/usage per direction and disk capacity/usage per direction.
//! Hosts that did not answer are assumed heavily loaded (paper §4: "If
//! nothing is received from a status server, we assume that a particular
//! address is under heavy I/O load").

use cloudtalk_lang::problem::Address;
use cloudtalk_lang::WordMap;

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
    /// Sane states pass through bit-identical. The ingestion choke point
    /// for live reports is `cloudtalk::transport::scatter_gather` — every
    /// reply is sanitised there, so internal consumers (which may
    /// deliberately construct `used > capacity` overlays, e.g. reservation
    /// penalties) stay unclamped.
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
#[derive(Clone, Debug, Default)]
pub struct World {
    hosts: WordMap<Address, HostState>,
}

impl World {
    /// An empty world (every lookup hits the overloaded assumption).
    pub fn new() -> Self {
        World::default()
    }

    /// An empty world with room for `n` hosts.
    pub fn with_capacity(n: usize) -> Self {
        World {
            hosts: WordMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// A world where each of `addrs` has the same `state`.
    pub fn uniform(addrs: &[Address], state: HostState) -> Self {
        World {
            hosts: addrs.iter().map(|&a| (a, state)).collect(),
        }
    }

    /// Sets one host's state.
    pub fn set(&mut self, addr: Address, state: HostState) {
        self.hosts.insert(addr, state);
    }

    /// Forgets one host: lookups fall back to the overloaded assumption.
    pub fn remove(&mut self, addr: Address) {
        self.hosts.remove(&addr);
    }

    /// Gets one host's state; unknown hosts are assumed overloaded.
    pub fn get(&self, addr: Address) -> HostState {
        self.hosts
            .get(&addr)
            .copied()
            .unwrap_or_else(HostState::assumed_overloaded)
    }

    /// Whether the world has explicit state for `addr`.
    pub fn knows(&self, addr: Address) -> bool {
        self.hosts.contains_key(&addr)
    }

    /// Iterates over all known hosts.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &HostState)> {
        self.hosts.iter()
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
