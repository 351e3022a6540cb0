//! Status servers: the per-host measurement agents (paper §4, Figure 2).
//!
//! "The status server gathers information about disk and network interface
//! usage and relays it to the CloudTalk server upon request." In this
//! reproduction a status server is anything that can answer "what is the
//! I/O state of host X right now" — the [`StatusSource`] trait. The
//! simulated cluster implements it on top of [`simnet::NetSim`] host-load
//! snapshots; tests use an explicit table.

use cloudtalk_lang::problem::Address;
use cloudtalk_lang::{WordMap, WordSet};
use desim::{SimDuration, SimTime};
use estimator::HostState;

use crate::transport::{loss_probability, TransportConfig};

/// One status reply: the measured state plus how old the measurement is.
///
/// A healthy status server answers with a fresh reading (`age == 0`). A
/// lagging collection pipeline — or a fault-injected stale report — answers
/// with data that was true `age` ago; the CloudTalk server weighs such
/// replies down via staleness decay (see
/// [`crate::server::DegradationConfig::decay`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StatusReport {
    /// The reported I/O state.
    pub state: HostState,
    /// Age of the measurement at the time it was served.
    pub age: SimDuration,
}

impl StatusReport {
    /// A report measured just now.
    pub(crate) fn fresh(state: HostState) -> Self {
        StatusReport {
            state,
            age: SimDuration::ZERO,
        }
    }
}

/// A source of per-host status reports.
///
/// `poll` returns `None` when the host does not answer (crashed, dropped
/// datagram at the source, unknown address) — the CloudTalk server then
/// assumes the host is under heavy I/O load (§4).
pub trait StatusSource {
    /// Measures the current I/O state of `addr`.
    fn poll(&mut self, addr: Address) -> Option<HostState>;

    /// Like [`StatusSource::poll`], but also reporting the measurement's
    /// age. Sources that always serve live data (the default) report
    /// `age == 0`; decorators such as [`crate::faults::FaultySource`]
    /// override this to serve stale readings.
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        self.poll(addr).map(StatusReport::fresh)
    }

    /// Moves the source's notion of "now" to `now` before a gather.
    /// Stateless sources (the default) ignore this; time-aware sources —
    /// an [`crate::aggregate::AggregationPlane`] syncing its racks — use
    /// it so a serving plane's shard refresh sees state as of the wave
    /// clock rather than as of construction time.
    fn advance_to(&mut self, _now: SimTime) {}

    /// Takes the span report of the collection work behind the most
    /// recent polls, if the source records one (an
    /// [`crate::aggregate::AggregationPlane`] returns its last sync
    /// trace). Consumed on read so each gather's trace is stitched into
    /// at most one end-to-end query trace. Plain sources return `None`.
    fn take_sync_trace(&mut self) -> Option<obs::TraceReport> {
        None
    }

    /// The source's **change view**: appends to `changed` every address
    /// whose [`StatusSource::poll_report`] answer may differ from the one
    /// it would have given when this method was last called (since
    /// creation, on the first call) and returns `true` — or returns
    /// `false` ("cannot prove anything, poll everyone"; `changed` is then
    /// meaningless), which is the default.
    ///
    /// The contract a `true` carries: **a host not listed answers
    /// `poll_report` bit-identically to its previous answer**, silence
    /// included. Listing too much is always allowed, listing too little
    /// never. A source whose answers depend on time or on state it does
    /// not own ([`NetSimStatusSource`]) keeps the
    /// default. Draining consumes the view, so it has one consumer:
    /// whichever plane owns the source. An
    /// [`crate::aggregate::AggregationPlane`] re-polls only the listed hosts
    /// of its racks, a [`crate::serving::ServingPlane`] only those of its
    /// shards; each falls back to polling every host when the source has no
    /// view.
    fn drain_changed(&mut self, _changed: &mut Vec<Address>) -> bool {
        false
    }
}

/// A change-view consumer's bookkeeping for one unit it gathers (a rack
/// aggregator's rack, a serving plane's shard): which of the unit's hosts
/// the view listed since the unit's last full gather, each once and named
/// by its slot in the unit — or that nothing vouches for the others,
/// because the unit has not been gathered yet or the source had no view
/// at a drain since.
#[derive(Clone, Debug)]
pub(crate) struct ChangeMarks {
    /// The listed slots. `queued` keeps each in at most once, so this
    /// never outgrows the unit however long it goes ungathered.
    pending: Vec<usize>,
    queued: Vec<bool>,
    scan_all: bool,
}

impl ChangeMarks {
    /// Marks for a unit of `n` hosts that has not been gathered yet.
    pub(crate) fn new(n: usize) -> Self {
        ChangeMarks {
            pending: Vec::new(),
            queued: vec![false; n],
            scan_all: true,
        }
    }

    /// Notes that the view listed the host at `slot`.
    pub(crate) fn mark(&mut self, slot: usize) {
        if !self.scan_all && !self.queued[slot] {
            self.queued[slot] = true;
            self.pending.push(slot);
        }
    }

    /// The source had no view to offer: nothing vouches for any host
    /// until the unit is gathered in full.
    pub(crate) fn mark_all(&mut self) {
        self.scan_all = true;
    }

    /// Whether the unit's next gather may leave the unlisted hosts
    /// unpolled: the view vouches for every one of them, the last gather
    /// heard from every host (`answered_all`, which the consumer knows: a
    /// silent host is retried every time, which its silence cannot stand
    /// in for), and a round over the unit is lossless (beyond the knee a
    /// round draws randomness for every host, so none may go unpolled).
    pub(crate) fn may_skip(&self, answered_all: bool, transport: &TransportConfig) -> bool {
        !self.scan_all && answered_all && loss_probability(self.queued.len(), transport) == 0.0
    }

    /// Whether no host is listed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The listed slots, ascending.
    pub(crate) fn sorted(&mut self) -> &[usize] {
        self.pending.sort_unstable();
        &self.pending
    }

    /// The slots a gather polls, ascending: the listed ones when `skip`
    /// ([`Self::may_skip`]), otherwise every slot of the unit.
    pub(crate) fn poll_list(&mut self, skip: bool) -> &[usize] {
        if !skip {
            self.pending.clear();
            self.pending.extend(0..self.queued.len());
        }
        self.sorted()
    }

    /// The unit was just gathered: nothing is listed, and the view vouches
    /// for every host again. (A slot is queued only while it is pending.)
    pub(crate) fn clear(&mut self) {
        for slot in self.pending.drain(..) {
            self.queued[slot] = false;
        }
        self.scan_all = false;
    }
}

/// A status source backed by an explicit table (tests, static scenarios).
///
/// Offers a change view ([`StatusSource::drain_changed`]). Until somebody
/// first asks for it nothing is tracked — a table nobody drains pays
/// nothing — and the first drain lists the whole table. From then on
/// every `set` and every `silence` of a known address puts it in a *set*
/// of changed addresses until the next drain: a flag per address, not a
/// log, so the bookkeeping never outgrows the addresses ever written
/// however many writes go undrained.
#[derive(Clone, Debug, Default)]
pub struct TableStatusSource {
    table: WordMap<Address, HostState>,
    /// Addresses written since the last drain (empty while untracked).
    changed: WordSet<Address>,
    /// Whether the change view has a consumer yet.
    tracked: bool,
}

impl TableStatusSource {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the state reported for `addr`.
    pub fn set(&mut self, addr: Address, state: HostState) {
        self.table.insert(addr, state);
        if self.tracked {
            self.changed.insert(addr);
        }
    }

    /// Removes `addr` so polls for it fail (simulating an unresponsive host).
    pub fn silence(&mut self, addr: Address) {
        // An address not in the table already answers nothing: no change.
        if self.table.remove(&addr).is_some() && self.tracked {
            self.changed.insert(addr);
        }
    }
}

impl StatusSource for TableStatusSource {
    fn poll(&mut self, addr: Address) -> Option<HostState> {
        self.table.get(&addr).copied()
    }

    /// The first call lists every address in the table (any other
    /// answers nothing, then as before), later ones what was written
    /// since the previous call — in no particular order.
    fn drain_changed(&mut self, changed: &mut Vec<Address>) -> bool {
        if self.tracked {
            changed.extend(self.changed.drain());
        } else {
            self.tracked = true;
            changed.extend(self.table.keys());
        }
        true
    }
}

/// A status source that adapts a [`simnet::NetSim`]: polls read the live
/// host-load snapshot of the fluid simulation, exactly what a hypervisor
/// status server would measure.
pub struct NetSimStatusSource<'a> {
    net: &'a mut simnet::NetSim,
}

impl<'a> NetSimStatusSource<'a> {
    /// Wraps a live network simulation.
    pub fn new(net: &'a mut simnet::NetSim) -> Self {
        NetSimStatusSource { net }
    }
}

impl StatusSource for NetSimStatusSource<'_> {
    fn poll(&mut self, addr: Address) -> Option<HostState> {
        let host = self.net.topology().host_by_addr(addr.0)?;
        let load = self.net.host_load(host);
        Some(host_state_from_load(&load))
    }
}

/// Converts a simnet per-host load sample into the estimator's host state.
pub fn host_state_from_load(load: &simnet::engine::HostLoad) -> HostState {
    HostState {
        nic_up_capacity: load.nic_capacity,
        nic_up_used: load.tx_bps,
        nic_down_capacity: load.nic_capacity,
        nic_down_used: load.rx_bps,
        disk_read_capacity: load.disk_read_capacity,
        disk_read_used: load.disk_read_bps,
        disk_write_capacity: load.disk_write_capacity,
        disk_write_used: load.disk_write_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::engine::TransferSpec;
    use simnet::topology::TopoOptions;
    use simnet::{NetSim, Topology, GBPS};

    #[test]
    fn table_source_round_trips() {
        let mut s = TableStatusSource::new();
        s.set(Address(1), HostState::gbps_idle());
        assert!(s.poll(Address(1)).is_some());
        assert!(s.poll(Address(2)).is_none());
        s.silence(Address(1));
        assert!(s.poll(Address(1)).is_none());
    }

    #[test]
    fn table_source_change_view_lists_each_written_address_once() {
        let mut s = TableStatusSource::new();
        s.set(Address(1), HostState::gbps_idle());
        s.set(Address(2), HostState::gbps_idle());
        s.set(Address(1), HostState::gbps_idle().with_up_load(0.5));
        // Never set: answers nothing before and after.
        s.silence(Address(9));
        // The first drain lists the whole table, in no particular order.
        let mut changed = Vec::new();
        assert!(s.drain_changed(&mut changed));
        changed.sort_unstable_by_key(|a| a.0);
        assert_eq!(changed, vec![Address(1), Address(2)]);
        // Drained: nothing is listed until something is written again,
        // and a silenced host is a change like any other.
        changed.clear();
        assert!(s.drain_changed(&mut changed));
        assert!(changed.is_empty());
        s.silence(Address(2));
        s.silence(Address(2));
        assert!(s.drain_changed(&mut changed));
        assert_eq!(changed, vec![Address(2)]);
        assert!(s.poll(Address(2)).is_none());
        // Sources that cannot prove anything say so.
        let mut net = NetSim::new(Topology::single_switch(2, GBPS, TopoOptions::default()));
        assert!(!NetSimStatusSource::new(&mut net).drain_changed(&mut changed));
    }

    #[test]
    fn netsim_source_reports_live_load() {
        let topo = Topology::single_switch(3, GBPS, TopoOptions::default());
        let mut net = NetSim::new(topo);
        let hosts = net.hosts();
        net.start(TransferSpec::network(hosts[0], hosts[1], f64::INFINITY));
        let addr0 = Address(net.topology().host(hosts[0]).addr);
        let addr2 = Address(net.topology().host(hosts[2]).addr);
        let mut src = NetSimStatusSource::new(&mut net);
        let busy = src.poll(addr0).unwrap();
        assert!(busy.nic_up_used > 0.0);
        let idle = src.poll(addr2).unwrap();
        assert_eq!(idle.nic_up_used, 0.0);
        // Unknown address: no answer.
        assert!(src.poll(Address(0xFFFF_FFFF)).is_none());
    }

    #[test]
    fn default_poll_report_is_fresh() {
        let mut s = TableStatusSource::new();
        s.set(Address(1), HostState::gbps_idle());
        let rep = s.poll_report(Address(1)).unwrap();
        assert_eq!(rep.age, SimDuration::ZERO);
        assert_eq!(rep.state, HostState::gbps_idle());
        assert!(s.poll_report(Address(2)).is_none());
    }
}
