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

/// A source of per-host status reports — the one contract every status
/// producer honours:
///
/// * **One question**, [`StatusSource::poll_report`], the only required
///   method. `None` means the host does not answer (crashed, dropped
///   datagram, unknown address); the CloudTalk server then assumes it is
///   under heavy I/O load (§4).
/// * **One clock, set by whoever gathers.** A
///   [`crate::server::CloudTalkServer`] answer, an
///   [`crate::aggregate::AggregationPlane`] sync and a
///   [`crate::serving::ServingPlane`] wave each call
///   [`StatusSource::advance_to`] with their own `now` before they poll.
/// * **A decorator forwards all four methods** to the source it wraps
///   (where it does not answer itself), so stacked sources keep the
///   clock, the sync trace and the change view.
pub trait StatusSource {
    /// Measures the current I/O state of `addr`, with the measurement's
    /// age: 0 for a live reading, more for a stale one.
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport>;

    /// Moves the source's notion of "now" to `now` before a gather.
    /// Stateless sources (the default) ignore this; time-aware ones — a
    /// [`crate::faults::FaultySource`] evaluating its windows, an
    /// [`crate::aggregate::AggregationPlane`] syncing its racks — answer
    /// as of `now` from then on.
    fn advance_to(&mut self, _now: SimTime) {}

    /// The span report of the collection work behind the polls at the
    /// current instant, if the source records one: an
    /// [`crate::aggregate::AggregationPlane`] lends its sync's trace to
    /// every gather of that instant. Plain sources return `None`.
    fn sync_trace(&self) -> Option<&obs::TraceReport> {
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

    /// The state the table holds for `addr`, if any.
    pub fn poll(&self, addr: Address) -> Option<HostState> {
        self.table.get(&addr).copied()
    }
}

impl StatusSource for TableStatusSource {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        self.poll(addr).map(StatusReport::fresh)
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

/// Each host's last measurement and the instant it was taken, kept by the
/// owner of a [`NetSimStatusSource`] that measures periodically.
pub type Readings = WordMap<Address, (SimTime, HostState)>;

/// The status servers of a simulated cluster: polls read the per-host
/// load of a [`simnet::NetSim`], exactly what a hypervisor status server
/// would measure, at the network's own clock (`net.now()`).
///
/// By default every poll is a live read. With
/// [`NetSimStatusSource::measuring_every`] a status server measures at
/// most once per interval and serves its last reading in between — the
/// feedback delay behind the paper's Figure 12 oscillation. The reading
/// is served as fresh (`age == 0`): the status server does not say how
/// old it is.
pub struct NetSimStatusSource<'a> {
    net: &'a mut simnet::NetSim,
    measured: Option<(SimDuration, &'a mut Readings)>,
}

impl<'a> NetSimStatusSource<'a> {
    /// Live reads of a network simulation.
    pub fn new(net: &'a mut simnet::NetSim) -> Self {
        NetSimStatusSource {
            net,
            measured: None,
        }
    }

    /// Measures each host at most once per `interval`, keeping the
    /// readings in `readings` so they outlive this source.
    pub fn measuring_every(mut self, interval: SimDuration, readings: &'a mut Readings) -> Self {
        self.measured = Some((interval, readings));
        self
    }
}

impl StatusSource for NetSimStatusSource<'_> {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        let now = self.net.now();
        if let Some((interval, readings)) = &self.measured {
            if let Some(&(at, state)) = readings.get(&addr) {
                if now.saturating_since(at) < *interval {
                    return Some(StatusReport::fresh(state));
                }
            }
        }
        let host = self.net.topology().host_by_addr(addr.0)?;
        let load = self.net.host_load(host);
        let state = HostState {
            nic_up_capacity: load.nic_capacity,
            nic_up_used: load.tx_bps,
            nic_down_capacity: load.nic_capacity,
            nic_down_used: load.rx_bps,
            disk_read_capacity: load.disk_read_capacity,
            disk_read_used: load.disk_read_bps,
            disk_write_capacity: load.disk_write_capacity,
            disk_write_used: load.disk_write_bps,
        };
        if let Some((_, readings)) = &mut self.measured {
            readings.insert(addr, (now, state));
        }
        Some(StatusReport::fresh(state))
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
        // Read as a source: a fresh report of the table's state.
        let rep = s.poll_report(Address(1)).unwrap();
        assert_eq!(rep.age, SimDuration::ZERO);
        assert_eq!(rep.state, HostState::gbps_idle());
        assert!(s.poll_report(Address(2)).is_none());
        s.silence(Address(1));
        assert!(s.poll(Address(1)).is_none());
        assert!(s.poll_report(Address(1)).is_none());
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
        let busy = src.poll_report(addr0).unwrap();
        assert!(busy.state.nic_up_used > 0.0);
        let idle = src.poll_report(addr2).unwrap();
        assert_eq!(idle.state.nic_up_used, 0.0);
        // Unknown address: no answer.
        assert!(src.poll_report(Address(0xFFFF_FFFF)).is_none());
    }

    #[test]
    fn a_measuring_source_serves_its_last_reading_for_an_interval() {
        let mut net = NetSim::new(Topology::single_switch(2, GBPS, TopoOptions::default()));
        let hosts = net.hosts();
        // 0.8 s at line rate.
        net.start(TransferSpec::network(hosts[0], hosts[1], GBPS / 8.0 * 0.8));
        let addr = Address(net.topology().host(hosts[0]).addr);
        let mut readings = Readings::default();
        let mut sending = |net: &mut NetSim, at: f64| {
            net.advance_to(SimTime::from_secs_f64(at));
            let mut src = NetSimStatusSource::new(net)
                .measuring_every(SimDuration::from_secs_f64(1.0), &mut readings);
            src.poll_report(addr).unwrap().state.nic_up_used > 0.0
        };
        assert!(sending(&mut net, 0.0));
        assert!(sending(&mut net, 0.9), "done at 0.8 s, but measured at 0");
        assert!(!sending(&mut net, 1.0), "measured again");
    }
}
