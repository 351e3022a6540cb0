//! Hierarchical status plane: rack-level aggregators with failover (the
//! scale regime beyond the paper's §4.3 knee).
//!
//! Flat scatter-gather tops out near the paper's ~1000-way fan-out
//! (Figure 5): past the incast knee most replies are lost no matter how
//! many retry rounds are spent. This module splits collection into two
//! tiers, the layered datacenter/broker shape of CloudSim:
//!
//! * an aggregator per rack keeps a **delta-compressed, epoch-stamped**
//!   snapshot of its (≤ knee-sized, therefore loss-free) host set, and
//! * an [`AggregationPlane`] — the collector that lives inside the
//!   CloudTalk server process — pulls *only changed host states* from
//!   each aggregator and serves the merged fleet view through the
//!   ordinary [`StatusSource`] trait, so
//!   [`crate::server::CloudTalkServer::answer_problem`], sampling, and
//!   freshness scoring compose unchanged.
//!
//! # Epoch rules
//!
//! Every aggregator snapshot carries an [`EpochStamp`] `(node,
//! incarnation, epoch)`: `node` identifies the aggregator process
//! (primary and standby are distinct nodes), `incarnation` counts its
//! restarts, `epoch` counts state changes within one incarnation. A
//! delta (`SnapshotDelta`) names the exact stamp it was computed against
//! (`base`) and the epoch it advances to (`next_epoch`); the collector's
//! one merge, `ViewMut::apply_delta`, accepts it only when the base
//! matches the view's own stamp bit-for-bit. Everything else is handled
//! without guessing:
//!
//! * `next_epoch <= view.epoch`, same node+incarnation — a **replayed**
//!   delta; merging is idempotent (a no-op, `AlreadyApplied`).
//! * different node or incarnation — a delta from **before a crash** (or
//!   from the other aggregator); rejected (`RejectedIncarnation`), never
//!   merged, because the restarted aggregator re-observed the world from
//!   scratch and the old delta's base state no longer exists anywhere.
//! * matching incarnation but a **gap** in epochs — rejected
//!   (`RejectedEpochGap`); the collector re-pulls and the aggregator
//!   answers with a full resync.
//!
//! A rejected pull never corrupts the view: the collector keeps serving
//! its last merged state (ages growing, so freshness decays honestly)
//! until a full resync re-primes it.
//!
//! # Change-driven sync: modelled versus executed
//!
//! The plane *models* a protocol in which every sync pulls every rack and
//! every aggregator polls every one of its hosts; the ledger is charged
//! exactly that, always (a 20 000-host fleet pays 2.84 MB of host-tier
//! bytes per sync whatever happened). What a sync *executes* is
//! proportional to what changed, whenever the source can say what that
//! is:
//!
//! * **The change view.** [`StatusSource::drain_changed`] lists the
//!   addresses whose answer may differ from last time; its contract is
//!   that *a host not listed answers `poll_report` bit-identically to its
//!   previous answer*. The plane owns its source, so it consumes the
//!   view. Each sync notes, per listed host, the sync that listed it, in
//!   one fleet-wide array both aggregators of a rack read: each re-polls
//!   the hosts listed since its own last gather, so one that goes
//!   unrefreshed — partitioned, crashed, idle standby — catches up on its
//!   next refresh. A
//!   source without a view (the default: anything whose answers depend on
//!   time or on a simulation it does not own) gets every host polled, as
//!   before; the plane takes the cheap path exactly when the source
//!   offers the view, never by configuration.
//! * **A healthy rack takes rung 1, certain.** A rack is *healthy* when
//!   its trip down the ladder is certain to end at rung 1, whatever the
//!   view lists: no `agg_*` fault entry names it (so the primary answers
//!   the first pull, nothing restarts, no delayed delta is in flight), the
//!   view is at the primary's stamp, the rack is at or below the loss
//!   knee (beyond it a gather draws randomness per host) and every host
//!   answered the primary's last refresh. Such a rack skips the ladder:
//!   the primary's one refresh polls its marked hosts (the same gather
//!   and retry rounds, so each is polled once and no random draw moves)
//!   into a buffer the plane owns, and the delta the ladder would pull is
//!   exactly the slots that refresh changed, which are written into the
//!   view. Pull, reply, round and counters are charged as the ladder
//!   charges them; no delta is built, nothing is allocated.
//! * **A clean healthy rack is not visited.** A sync walks only the racks
//!   it has work in: the healthy racks the view dirtied and the unhealthy
//!   racks, both kept by the plane as one bit per rack and read 64 racks
//!   a word, so they come out in ascending rack order without a sort —
//!   the order the full scan met them in, so every poll and random draw
//!   keeps its place. The clean racks' exchange (pull, header-only reply,
//!   the rack's loss-free round) is charged in one batch from the healthy
//!   rack and host counts the plane maintains. Their two freshness
//!   instants and their pull count are plane-level while they stay
//!   clean: the last sync's instant, and the syncs since their last
//!   visit. Both are written back into the rack when it leaves the fast
//!   path — dirtied, turned unhealthy, or a new fault plan — so a
//!   straggler installed later still counts its rounds from the rack's
//!   first pull.
//! * **Every other rack walks the ladder:** a faulted or lossy rack, one
//!   holding a host that did not answer (it is retried each sync), one
//!   whose view is not at its primary's stamp (unprimed, on standby,
//!   bypassed, stale), and every rack after a drain the source could not
//!   answer. Silence thus stays distinguishable from "unchanged" by
//!   construction. There an aggregator's refresh polls only the listed
//!   hosts under the same loss-free, everyone-answered conditions, and
//!   every host otherwise; the serving plane's shards share this skip
//!   rule, `status::may_skip`.
//!
//! Views, report ages, `stale_racks`, the ledger, every other
//! `gather.agg.*` counter and the failover spans are bit-identical to the
//! full scan's (`tests/status_sync_equiv.rs` runs the two side by side).
//! How much a sync executed is reported separately:
//! `gather.agg.racks_clean` / `gather.agg.hosts_repolled`, and the
//! `clean_racks` / `dirty_hosts` arguments of the `agg.sync` span.
//!
//! # Failover ladder
//!
//! Each sync takes every unhealthy rack (see above) through an explicit
//! ladder, faulted aggregators degrading exactly as hosts do
//! today:
//!
//! 1. **retry** the primary aggregator up to [`PULL_RETRIES`] times
//!    within the sync;
//! 2. **fail over to the standby** aggregator (its own node id and
//!    incarnation stream — the first pull after failover is a full
//!    snapshot by the epoch rules above), when configured;
//! 3. **bypass** straight to the rack's hosts with the ordinary
//!    scatter-gather transport (rack-sized fan-out, so still under the
//!    knee), when configured;
//! 4. otherwise the rack is **stale**: the view keeps serving the last
//!    merged reports with honestly growing ages, which the server's
//!    freshness decay converts into a [`crate::server::DegradationRung`]
//!    for *that rack's hosts only* — a dead aggregator costs one rack's
//!    freshness, never the query.
//!
//! Observability: the plane owns a `gather.agg.*` metrics registry
//! (pulls, retries, deltas/fulls, failover and stale-delta-rejection
//! counters, clean racks and re-polled hosts) and records each sync's
//! failover events as an `agg.sync` span tree
//! (`StatusSource::sync_trace`).
//!
//! Per-host state is dense and fleet-wide: the [`FleetLayout`] numbers
//! every host once, rack after rack (each rack sorted by address), a
//! host's number is its *slot* and a rack is a range of slots. The
//! primary and standby snapshots, the collector's views and the change
//! view's listing are each one slot-indexed array over the fleet, and
//! every per-rack operation — a refresh, a delta, a resync, the ladder —
//! works on its rack's range. A served report is one hashed probe of the
//! fleet index plus one array read. A full resync copies no report from
//! the primary (the view is then *backed* by the primary's table) and
//! is a range copy from the standby.

use std::ops::Range;

use cloudtalk_lang::problem::Address;
use cloudtalk_lang::WordMap;
use desim::rng::{stream_rng, DetRng};
use desim::SimTime;
use obs::{CounterId, MetricsRegistry, Trace, TraceReport};

use crate::faults::{FaultPlan, Pull};
use crate::messages::OverheadLedger;
use crate::status::{may_skip, StatusReport, StatusSource};
use crate::transport::{gather_into, scatter_gather_retry, GatherOutcome, TransportConfig};

/// Identifies one rack of the fleet (an index into the [`FleetLayout`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RackId(pub u32);

/// The fleet's host→rack assignment, and every host's **slot**.
///
/// The hosts are numbered once, rack after rack, each rack sorted by
/// address: a host's position in that order is its slot, and a rack is a
/// contiguous range of slots. Every per-host table of the plane — the
/// primary and standby aggregators' snapshots, the collector's views,
/// the change view's listing — is one fleet-wide array indexed by slot,
/// and whatever works on one rack works on its range.
#[derive(Clone, Debug, Default)]
pub struct FleetLayout {
    /// Every host, by slot.
    hosts: Vec<Address>,
    /// Rack `r` holds slots `starts[r]..starts[r + 1]`.
    starts: Vec<usize>,
    /// Every host's rack and slot, hashed by address: a fleet-sized
    /// lookup is one probe, not a binary search's chain of cold ones.
    /// Nothing iterates it, so hash order reaches no output.
    index: WordMap<Address, (u32, u32)>,
}

impl FleetLayout {
    /// Builds a layout from explicit rack membership. Hosts are sorted
    /// within each rack; an address may appear in only one rack.
    ///
    /// # Panics
    ///
    /// Panics if an address is assigned to two racks.
    pub fn grouped(racks: Vec<Vec<Address>>) -> Self {
        let n = racks.iter().map(Vec::len).sum();
        let mut index = WordMap::with_capacity_and_hasher(n, Default::default());
        let (mut hosts, mut starts) = (Vec::with_capacity(n), vec![0]);
        for (rack, mut members) in racks.into_iter().enumerate() {
            members.sort_unstable_by_key(|a| a.0);
            members.dedup();
            for a in members {
                if index.insert(a, (rack as u32, hosts.len() as u32)).is_some() {
                    panic!("address {a:?} assigned to two racks");
                }
                hosts.push(a);
            }
            starts.push(hosts.len());
        }
        FleetLayout {
            hosts,
            starts,
            index,
        }
    }

    /// Packs `addrs` into consecutive racks of `hosts_per_rack`.
    ///
    /// # Panics
    ///
    /// Panics if `hosts_per_rack` is zero.
    pub fn uniform(addrs: &[Address], hosts_per_rack: usize) -> Self {
        assert!(hosts_per_rack > 0, "racks must hold at least one host");
        Self::grouped(addrs.chunks(hosts_per_rack).map(<[Address]>::to_vec).collect())
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Total number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The hosts of `rack`, sorted by address.
    pub fn hosts(&self, rack: RackId) -> &[Address] {
        &self.hosts[self.range(rack.0 as usize)]
    }

    /// The rack containing `addr`, if it is part of the fleet.
    pub fn rack_of(&self, addr: Address) -> Option<RackId> {
        self.locate(addr).map(|(rack, _)| RackId(rack as u32))
    }

    /// The rack containing `addr` and its slot there
    /// (`hosts(rack)[slot] == addr`), if it is part of the fleet.
    pub fn slot_of(&self, addr: Address) -> Option<(RackId, usize)> {
        let (rack, slot) = self.locate(addr)?;
        Some((RackId(rack as u32), slot - self.starts[rack]))
    }

    /// All rack ids, in order.
    pub fn rack_ids(&self) -> impl Iterator<Item = RackId> {
        (0..self.rack_count() as u32).map(RackId)
    }

    /// The fleet slots of `rack`.
    pub(crate) fn range(&self, rack: usize) -> Range<usize> {
        self.starts[rack]..self.starts[rack + 1]
    }

    /// The rack containing `addr` and its fleet slot, by one probe.
    pub(crate) fn locate(&self, addr: Address) -> Option<(usize, usize)> {
        let &(rack, slot) = self.index.get(&addr)?;
        Some((rack as usize, slot as usize))
    }
}

/// The identity of one aggregator snapshot state: which aggregator
/// process (`node`), which life of it (`incarnation`), and how many
/// state changes it has observed in this life (`epoch`).
///
/// Node `0` is reserved for "no aggregator" (an unprimed or
/// bypass-populated collector view), so a real aggregator's stamps can
/// never collide with it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EpochStamp {
    /// Aggregator process id (unique per aggregator, primaries and
    /// standbys included; 0 = no aggregator).
    pub node: u32,
    /// Restart count of that process.
    pub incarnation: u32,
    /// State-change count within the incarnation.
    pub epoch: u64,
}

/// Writes `report` into `held`, keeping `live` (the count of `Some`
/// reports) in step; `false` when it already held exactly that.
fn put(held: &mut Option<StatusReport>, live: &mut usize, report: Option<StatusReport>) -> bool {
    if *held == report {
        return false;
    }
    *live = *live + usize::from(report.is_some()) - usize::from(held.is_some());
    *held = report;
    true
}

/// A delta-compressed update: everything that changed between two epochs
/// of one aggregator incarnation.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotDelta {
    /// The rack the delta covers.
    pub(crate) rack: RackId,
    /// The exact stamp this delta was computed against; a collector may
    /// apply it only from that stamp.
    pub(crate) base: EpochStamp,
    /// The epoch the collector is at after applying (same node and
    /// incarnation as `base`).
    pub(crate) next_epoch: u64,
    /// Refresh instant of the covered hosts.
    pub(crate) fresh_as_of: SimTime,
    /// Hosts whose report changed since `base.epoch`, in address order.
    pub(crate) changed: Vec<(Address, StatusReport)>,
    /// Hosts that stopped answering since `base.epoch`, in address order.
    pub(crate) removed: Vec<Address>,
}

/// One aggregator's state but its reports, which live by slot in its
/// role's table ([`Role`]).
#[derive(Clone, Debug)]
struct AggState {
    rack: RackId,
    stamp: EpochStamp,
    /// When the covered hosts were last successfully re-polled; served
    /// report ages grow from this instant.
    fresh_as_of: SimTime,
    /// Number of hosts with a live report.
    live: usize,
    /// The sync of its last gather, against which the change view's
    /// listing is read; `None` before its first gather.
    gathered_at: Option<u32>,
    rng: DetRng,
}

impl AggState {
    /// Aggregator process `node` (non-zero) of `rack`, never gathered.
    fn new(rack: RackId, node: u32, seed: u64) -> Self {
        assert!(node != 0, "node 0 is reserved for unprimed views");
        AggState {
            rack,
            stamp: EpochStamp {
                node,
                incarnation: 0,
                epoch: 0,
            },
            fresh_as_of: SimTime::ZERO,
            live: 0,
            gathered_at: None,
            rng: stream_rng(seed, 0xA660_0000 | u64::from(node)),
        }
    }

    /// Whether a refresh of its `n` hosts may leave the unlisted ones
    /// unpolled ([`may_skip`]): the change view vouched for them at every
    /// drain since its last gather (none was blind: the last blind sync
    /// is `blind_at`), and each of them answered that gather — a
    /// restarted aggregator has heard from nobody.
    fn unmarked_are_known(&self, n: usize, blind_at: u32, transport: &TransportConfig) -> bool {
        let vouched = self.gathered_at.is_some_and(|at| blind_at <= at);
        may_skip(vouched, self.live == n, n, transport)
    }
}

/// The snapshots of one role's aggregators — the plane's primaries or
/// its standbys: per rack an [`AggState`], per host
/// its report and the epoch at which the slot last changed — a report
/// replaced or a host dropped — for delta compression (0: never since the
/// incarnation began), both by slot.
#[derive(Clone, Debug)]
struct Role {
    states: Vec<AggState>,
    reports: Vec<Option<StatusReport>>,
    touched_at: Vec<u64>,
}

impl Role {
    /// One aggregator per rack of `layout`, its process id `node_base`
    /// plus the rack's index.
    fn new(layout: &FleetLayout, racks: &[RackId], node_base: u32, seed: u64) -> Self {
        let node = |i: usize| node_base + i as u32;
        let states = racks
            .iter()
            .enumerate()
            .map(|(i, &r)| AggState::new(r, node(i), seed));
        Role {
            states: states.collect(),
            reports: vec![None; layout.host_count()],
            touched_at: vec![0; layout.host_count()],
        }
    }

    /// The aggregator of `rack` at work over its range of slots.
    fn at<'a>(
        &'a mut self,
        layout: &'a FleetLayout,
        rack: usize,
        transport: &'a TransportConfig,
    ) -> Agg<'a> {
        let range = layout.range(rack);
        Agg {
            state: &mut self.states[rack],
            hosts: &layout.hosts[range.clone()],
            reports: &mut self.reports[range.clone()],
            touched_at: &mut self.touched_at[range],
            transport,
        }
    }

    /// Answers a pull of `rack` from a collector at `base`: the delta
    /// when `base` is a stamp of this incarnation no newer than the
    /// current epoch, `None` — a full resync — otherwise (another node,
    /// another incarnation, or a base from the future, i.e. from before a
    /// crash this incarnation knows nothing about).
    fn delta_since(
        &self,
        layout: &FleetLayout,
        rack: usize,
        base: EpochStamp,
    ) -> Option<SnapshotDelta> {
        let cur = self.states[rack].stamp;
        if base.node != cur.node || base.incarnation != cur.incarnation || base.epoch > cur.epoch {
            return None;
        }
        let range = layout.range(rack);
        let mut changed = Vec::new();
        let mut removed = Vec::new();
        // At `base.epoch == cur.epoch` no slot can have changed since.
        if base.epoch < cur.epoch {
            for slot in range.filter(|&slot| self.touched_at[slot] > base.epoch) {
                match self.reports[slot] {
                    Some(report) => changed.push((layout.hosts[slot], report)),
                    None => removed.push(layout.hosts[slot]),
                }
            }
        }
        Some(SnapshotDelta {
            rack: self.states[rack].rack,
            base,
            next_epoch: cur.epoch,
            fresh_as_of: self.states[rack].fresh_as_of,
            changed,
            removed,
        })
    }
}

/// What the change view says about one rack's hosts at a sync.
#[derive(Clone, Copy)]
struct Listing<'a> {
    /// The sync running.
    sync: u32,
    /// Per slot of the rack, the sync whose drain last listed the host.
    listed_at: &'a [u32],
    /// The last sync whose source offered no change view.
    blind_at: u32,
}

/// One aggregator at work: its state and its rack's range of its role's
/// table.
struct Agg<'a> {
    state: &'a mut AggState,
    hosts: &'a [Address],
    reports: &'a mut [Option<StatusReport>],
    touched_at: &'a mut [u64],
    transport: &'a TransportConfig,
}

impl Agg<'_> {
    /// A refresh at the cost of what changed: when the listing lets the
    /// aggregator skip ([`AggState::unmarked_are_known`]), only the hosts
    /// listed since its last gather are polled — the others would answer
    /// what the snapshot holds, so the snapshot, the epoch and the ledger
    /// (still charged the whole rack's round) come out exactly as the
    /// full scan leaves them; otherwise every host is polled. The
    /// replies and silences are folded in: the epoch advances once, and
    /// only if a slot changed. The gather lands in `gathered`, by slot.
    /// Returns how many hosts the first round polled.
    fn refresh_changed(
        &mut self,
        source: &mut impl StatusSource,
        now: SimTime,
        listing: Listing<'_>,
        ledger: &mut OverheadLedger,
        gathered: &mut GatherOutcome<usize>,
        polls: &mut Vec<usize>,
    ) -> usize {
        let polled = self.poll_marked(source, now, listing, ledger, gathered, polls);
        let next = self.state.stamp.epoch + 1;
        for (slot, report) in gathered.answers() {
            if put(&mut self.reports[slot], &mut self.state.live, report) {
                self.touched_at[slot] = next;
                self.state.stamp.epoch = next;
            }
        }
        polled
    }

    /// The gather of [`Self::refresh_changed`], into `gathered` (the
    /// polled slots go through `polls`), without the fold: the snapshot
    /// is fresh as of `now` and gathered at the listing's sync, its
    /// reports untouched. Returns how many hosts the first round polled.
    fn poll_marked(
        &mut self,
        source: &mut impl StatusSource,
        now: SimTime,
        listing: Listing<'_>,
        ledger: &mut OverheadLedger,
        gathered: &mut GatherOutcome<usize>,
        polls: &mut Vec<usize>,
    ) -> usize {
        let n = self.hosts.len();
        polls.clear();
        // Ascending slots are ascending addresses: the scan's poll order.
        if self
            .state
            .unmarked_are_known(n, listing.blind_at, self.transport)
        {
            let since = self.state.gathered_at.unwrap_or(0);
            polls.extend((0..n).filter(|&slot| listing.listed_at[slot] > since));
        } else {
            polls.extend(0..n);
        }
        let (polled, hosts) = (polls.len(), self.hosts);
        let (transport, rng) = (self.transport, &mut self.state.rng);
        let (targets, host) = (polls.iter().copied(), |slot: usize| hosts[slot]);
        let unpolled = n - polled;
        gather_into(
            source, targets, host, unpolled, transport, rng, ledger, gathered,
        );
        self.state.gathered_at = Some(listing.sync);
        self.state.fresh_as_of = now;
        polled
    }

    /// A crash and restart: all in-memory state is lost, the incarnation
    /// advances, the epoch restarts from zero.
    fn restart(&mut self) {
        self.state.stamp.incarnation += 1;
        self.state.stamp.epoch = 0;
        self.reports.fill(None);
        self.state.live = 0;
        self.touched_at.fill(0);
        self.state.fresh_as_of = SimTime::ZERO;
    }
}

/// Outcome of merging a [`SnapshotDelta`] into a view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MergeOutcome {
    /// The delta advanced the view to `next_epoch`.
    Applied,
    /// The view already includes this delta (a replay); merging is
    /// idempotent and the view is untouched.
    AlreadyApplied,
    /// The delta names another node or a pre-crash incarnation; it is
    /// discarded untouched (stale-delta safety).
    RejectedIncarnation,
    /// The delta's base epoch does not match the view (an epoch gap —
    /// some intermediate delta was lost); a full resync is needed.
    RejectedEpochGap,
}

impl MergeOutcome {
    /// Whether the view is consistent after the merge attempt (applied
    /// or already present).
    pub(crate) fn accepted(self) -> bool {
        matches!(self, MergeOutcome::Applied | MergeOutcome::AlreadyApplied)
    }
}

/// The collector's merged view of one rack, as [`AggregationPlane::view`]
/// lends it: read-only, over the plane's own tables.
#[derive(Clone, Copy, Debug)]
pub struct RackView<'a> {
    /// Stamp of the last merged aggregator state (node 0 when unprimed
    /// or populated by a host bypass).
    pub stamp: EpochStamp,
    /// Refresh instant of the merged data; served ages grow from here.
    pub fresh_as_of: SimTime,
    /// The rack's hosts, sorted by address.
    hosts: &'a [Address],
    /// Their reports, by slot (empty when the view holds none).
    reports: &'a [Option<StatusReport>],
    /// Number of `Some` reports.
    live: usize,
}

impl<'a> RackView<'a> {
    /// Number of hosts with a report.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the view holds no reports.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates reports in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Address, &'a StatusReport)> {
        let slots = self.hosts.iter().zip(self.reports);
        slots.filter_map(|(&a, r)| Some((a, r.as_ref()?)))
    }
}

/// The stamp, freshness and report count of one of the plane's views,
/// and where its reports are.
#[derive(Clone, Copy, Debug, Default)]
struct ViewHead {
    stamp: EpochStamp,
    fresh_as_of: SimTime,
    live: usize,
    /// The view is at its primary's stamp and its reports are the
    /// primary's table's, not its range of the views' table.
    backed: bool,
}

/// The plane's views: per rack a [`ViewHead`], and, for views not backed
/// by their primary, each host's merged report by slot (allocated when a
/// view first needs a range of its own; until then every unbacked view
/// holds nothing).
struct Views {
    heads: Vec<ViewHead>,
    reports: Vec<Option<StatusReport>>,
}

impl Views {
    /// The view of `rack` at work over its range of the views' table.
    fn at<'a>(&'a mut self, layout: &'a FleetLayout, rack: usize) -> ViewMut<'a> {
        let range = layout.range(rack);
        ViewMut {
            head: &mut self.heads[rack],
            hosts: &layout.hosts[range.clone()],
            reports: &mut self.reports[range],
        }
    }

    /// Resyncs `rack`'s view in full from its aggregator in `role`. With
    /// `backed` (the primary) the view reads that aggregator's table and
    /// copies nothing; otherwise (the standby) the aggregator's range is
    /// copied into the view's range, which must be allocated.
    fn install_full(&mut self, layout: &FleetLayout, rack: usize, role: &Role, backed: bool) {
        let state = &role.states[rack];
        if !backed {
            let range = layout.range(rack);
            self.reports[range.clone()].copy_from_slice(&role.reports[range]);
        }
        self.heads[rack] = ViewHead {
            stamp: state.stamp,
            fresh_as_of: state.fresh_as_of,
            live: state.live,
            backed,
        };
    }
}

/// One view at work over its own range of the views' table.
struct ViewMut<'a> {
    head: &'a mut ViewHead,
    hosts: &'a [Address],
    reports: &'a mut [Option<StatusReport>],
}

impl ViewMut<'_> {
    /// Merges `delta` under the epoch rules (see the module docs): the
    /// base stamp must match bit-for-bit; replays are idempotent no-ops;
    /// anything from another node, another incarnation, or across an
    /// epoch gap is rejected without touching the view. (A delta that
    /// passes names only hosts of the rack; an address outside it is
    /// ignored.)
    fn apply_delta(&mut self, delta: &SnapshotDelta) -> MergeOutcome {
        let stamp = self.head.stamp;
        if delta.base.node != stamp.node || delta.base.incarnation != stamp.incarnation {
            return MergeOutcome::RejectedIncarnation;
        }
        if delta.next_epoch <= stamp.epoch
            && !(delta.next_epoch == stamp.epoch && delta.base.epoch == stamp.epoch)
        {
            return MergeOutcome::AlreadyApplied;
        }
        if delta.base.epoch != stamp.epoch {
            return MergeOutcome::RejectedEpochGap;
        }
        let changed = delta.changed.iter().map(|&(a, r)| (a, Some(r)));
        let removed = delta.removed.iter().map(|&a| (a, None));
        for (addr, report) in changed.chain(removed) {
            if let Ok(slot) = self.hosts.binary_search_by_key(&addr.0, |a| a.0) {
                put(&mut self.reports[slot], &mut self.head.live, report);
            }
        }
        self.head.stamp.epoch = delta.next_epoch;
        self.head.fresh_as_of = delta.fresh_as_of;
        MergeOutcome::Applied
    }

    /// Replaces the view's reports with what a host bypass gathered at
    /// `now`. Node 0: no aggregator state backs this view, so the next
    /// successful aggregator pull resyncs in full.
    fn install_bypass(&mut self, replies: &[(Address, StatusReport)], now: SimTime) {
        self.reports.fill(None);
        self.head.live = 0;
        for &(addr, report) in replies {
            if let Ok(slot) = self.hosts.binary_search_by_key(&addr.0, |a| a.0) {
                put(&mut self.reports[slot], &mut self.head.live, Some(report));
            }
        }
        self.head.stamp = EpochStamp::default();
        self.head.fresh_as_of = now;
    }
}

/// A set of racks, one bit each, read a word of 64 racks at a time in
/// ascending order.
#[derive(Clone, Debug)]
struct RackSet(Vec<u64>);

impl RackSet {
    /// No rack of `n`.
    fn none(n: usize) -> Self {
        RackSet(vec![0; n.div_ceil(64)])
    }

    /// Every rack of `n`.
    fn all(n: usize) -> Self {
        let mut set = RackSet::none(n);
        for rack in 0..n {
            set.insert(rack);
        }
        set
    }

    fn contains(&self, rack: usize) -> bool {
        self.0[rack / 64] & (1 << (rack % 64)) != 0
    }

    /// Adds `rack`; `false` when it was already in.
    fn insert(&mut self, rack: usize) -> bool {
        let was_in = self.contains(rack);
        self.0[rack / 64] |= 1 << (rack % 64);
        !was_in
    }

    fn remove(&mut self, rack: usize) {
        self.0[rack / 64] &= !(1 << (rack % 64));
    }

    /// How many words of 64 racks the set spans.
    fn words(&self) -> usize {
        self.0.len()
    }

    /// Racks `64 * word ..` as bits.
    fn word(&self, word: usize) -> u64 {
        self.0[word]
    }

    /// [`Self::word`], removing those racks from the set.
    fn take_word(&mut self, word: usize) -> u64 {
        std::mem::take(&mut self.0[word])
    }
}

/// Span-arena capacity of the per-sync trace.
const SYNC_SPAN_CAPACITY: usize = 64;

/// A silent collector→aggregator pull is retried up to this many times
/// within one sync, with no backoff: a sync charges no time.
pub const PULL_RETRIES: u32 = 2;

/// Configuration of the collector tier.
#[derive(Clone, Debug, Default)]
pub struct PlaneConfig {
    /// Maintain a standby aggregator per rack (failover rung 2). The
    /// standby is assumed to live in a different failure domain, so
    /// aggregator-scoped faults (which model the primary's rack-local
    /// deployment) do not silence it.
    pub standby: bool,
    /// Fall back to direct host scatter-gather when no aggregator
    /// answers (failover rung 3).
    pub bypass: bool,
    /// Transport for aggregator→host refreshes and for the bypass rung.
    /// Fan-out is one rack, so the default knee keeps it loss-free.
    pub host_transport: TransportConfig,
    /// RNG seed (bypass transport; aggregator streams are derived from
    /// it per node).
    pub seed: u64,
}

/// Handles to the plane's `gather.agg.*` metrics.
#[derive(Clone, Copy, Debug)]
struct PlaneMetricIds {
    syncs: CounterId,
    pulls: CounterId,
    pull_retries: CounterId,
    deltas_applied: CounterId,
    delta_hosts: CounterId,
    fulls_installed: CounterId,
    full_hosts: CounterId,
    stale_delta_rejected: CounterId,
    late_delta_applied: CounterId,
    failover_standby: CounterId,
    failover_bypass: CounterId,
    rack_stale: CounterId,
    restarts_observed: CounterId,
    mid_push_crashes: CounterId,
    racks_clean: CounterId,
    hosts_repolled: CounterId,
}

impl PlaneMetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        PlaneMetricIds {
            syncs: reg.counter("gather.agg.syncs"),
            pulls: reg.counter("gather.agg.pulls"),
            pull_retries: reg.counter("gather.agg.pull_retries"),
            deltas_applied: reg.counter("gather.agg.deltas_applied"),
            delta_hosts: reg.counter("gather.agg.delta_hosts"),
            fulls_installed: reg.counter("gather.agg.fulls_installed"),
            full_hosts: reg.counter("gather.agg.full_hosts"),
            stale_delta_rejected: reg.counter("gather.agg.stale_delta_rejected"),
            late_delta_applied: reg.counter("gather.agg.late_delta_applied"),
            failover_standby: reg.counter("gather.agg.failover_standby"),
            failover_bypass: reg.counter("gather.agg.failover_bypass"),
            rack_stale: reg.counter("gather.agg.rack_stale"),
            restarts_observed: reg.counter("gather.agg.restarts_observed"),
            mid_push_crashes: reg.counter("gather.agg.mid_push_crashes"),
            racks_clean: reg.counter("gather.agg.racks_clean"),
            hosts_repolled: reg.counter("gather.agg.hosts_repolled"),
        }
    }
}

/// The collector tier: one aggregator (plus optional standby) per rack,
/// the merged views, and the failover ladder. Implements
/// [`StatusSource`], so a [`crate::server::CloudTalkServer`] collects
/// through it unchanged — the server-side "transport" to a co-located
/// plane is an in-process call (pair it with
/// [`TransportConfig::local`]); the wire traffic of the hierarchy is the
/// plane's own ledger (aggregator pulls + host-tier refreshes).
pub struct AggregationPlane<S> {
    layout: FleetLayout,
    cfg: PlaneConfig,
    /// The racks' primary aggregators, and (with `cfg.standby`) their
    /// standbys, each role's reports in one fleet-wide table.
    primaries: Role,
    standbys: Role,
    /// The collector's merged views, reports in one fleet-wide table.
    views: Views,
    /// Per host, by slot: the sync whose change-view drain last listed
    /// it. Both roles read it: an aggregator re-polls the hosts listed
    /// since its own last gather.
    listed_at: Vec<u32>,
    /// The last sync whose source offered no change view.
    blind_at: u32,
    source: S,
    faults: FaultPlan,
    now: SimTime,
    synced_at: Option<SimTime>,
    rng: DetRng,
    metrics: MetricsRegistry,
    ids: PlaneMetricIds,
    ledger: OverheadLedger,
    /// In-flight deltas whose push was interrupted by an aggregator
    /// crash; "delivered" (and rejected) at the start of a later sync.
    delayed: Vec<SnapshotDelta>,
    mid_push_fired: Vec<bool>,
    restart_done: Vec<bool>,
    /// Per rack: pulls sent to the primary. A healthy rack's count stops
    /// at its last visit; see `settled_at`.
    pull_attempts: Vec<u32>,
    serving_standby: Vec<bool>,
    stale_now: Vec<bool>,
    /// The racks that are not healthy: every sync visits them. A rack
    /// outside it would certainly end at rung 1 (see [`Self::is_healthy`]).
    /// Decided when a rack leaves a sync; every rack is put back in when
    /// the fault plan or the change view goes.
    unhealthy: RackSet,
    /// The healthy racks the change view dirtied for the coming sync.
    dirty: RackSet,
    /// How many racks are healthy, and how many hosts they hold.
    healthy_racks: u64,
    healthy_hosts: u64,
    /// Per healthy rack: the sync that last visited it. Every later sync
    /// pulled it once and brought both its instants up to that sync, and
    /// [`Self::fold`] writes this back before the rack leaves the fast
    /// path.
    settled_at: Vec<u32>,
    /// Syncs run so far.
    syncs: u32,
    /// How many racks the latest sync visited.
    #[cfg(test)]
    visits: usize,
    /// Scratch: the addresses the source's change view listed this sync.
    changed: Vec<Address>,
    /// Scratch: the replies and silences of the latest aggregator refresh.
    gathered: GatherOutcome<usize>,
    /// Scratch: the slots the latest aggregator refresh polled.
    polls: Vec<usize>,
    last_trace: TraceReport,
}

impl<S: StatusSource> AggregationPlane<S> {
    /// Builds a plane over `layout`, collecting host data through
    /// `source` (wrap it in a [`crate::faults::FaultySource`] to inject
    /// host-level faults underneath the aggregators). The plane owns
    /// `source`, so it consumes the source's change view
    /// ([`StatusSource::drain_changed`]): whichever plane owns a source
    /// consumes its view.
    pub fn new(layout: FleetLayout, source: S, cfg: PlaneConfig) -> Self {
        let n = layout.rack_count();
        let racks: Vec<RackId> = layout.rack_ids().collect();
        let primaries = Role::new(&layout, &racks, 1, cfg.seed);
        let standbys = match cfg.standby {
            true => Role::new(&layout, &racks, 1 + n as u32, cfg.seed),
            false => Role::new(&FleetLayout::default(), &[], 1, cfg.seed),
        };
        let mut metrics = MetricsRegistry::new();
        let ids = PlaneMetricIds::register(&mut metrics);
        let rng = stream_rng(cfg.seed, 0xA66);
        AggregationPlane {
            primaries,
            standbys,
            views: Views {
                heads: vec![ViewHead::default(); n],
                reports: Vec::new(),
            },
            listed_at: vec![0; layout.host_count()],
            blind_at: 0,
            source,
            faults: FaultPlan::none(),
            now: SimTime::ZERO,
            synced_at: None,
            rng,
            metrics,
            ids,
            ledger: OverheadLedger::default(),
            delayed: Vec::new(),
            mid_push_fired: vec![false; n],
            restart_done: vec![false; n],
            pull_attempts: vec![0; n],
            serving_standby: vec![false; n],
            stale_now: vec![false; n],
            unhealthy: RackSet::all(n),
            dirty: RackSet::none(n),
            healthy_racks: 0,
            healthy_hosts: 0,
            settled_at: vec![0; n],
            syncs: 0,
            #[cfg(test)]
            visits: 0,
            changed: Vec::new(),
            gathered: GatherOutcome::default(),
            polls: Vec::new(),
            last_trace: TraceReport::default(),
            layout,
            cfg,
        }
    }

    /// Applies aggregator-scoped faults from `plan` (`agg_*` entries;
    /// host-scoped entries of the same plan belong in a `FaultySource`
    /// wrapped around the host source).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self.unsettle_all();
        self
    }

    /// The fleet layout.
    pub fn layout(&self) -> &FleetLayout {
        &self.layout
    }

    /// The wrapped host-level source.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// The plane's `gather.agg.*` metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cumulative wire-traffic ledger of the hierarchy: aggregator pulls
    /// (`agg_*`) plus host-tier refresh/bypass traffic
    /// (`status_*`/`retry_*`).
    pub fn ledger(&self) -> OverheadLedger {
        self.ledger
    }

    /// The collector's merged view of `rack`.
    pub fn view(&self, rack: RackId) -> RackView<'_> {
        let (id, rack) = (rack, rack.0 as usize);
        let head = &self.views.heads[rack];
        RackView {
            stamp: head.stamp,
            fresh_as_of: self.fresh_as_of(rack),
            hosts: self.layout.hosts(id),
            reports: self
                .served(rack)
                .get(self.layout.range(rack))
                .unwrap_or_default(),
            live: head.live,
        }
    }

    /// When `rack`'s merged data was refreshed: at the last sync, for a
    /// healthy rack, whether that sync visited it or not.
    fn fresh_as_of(&self, rack: usize) -> SimTime {
        match self.synced_at {
            Some(at) if !self.unhealthy.contains(rack) => at,
            _ => self.views.heads[rack].fresh_as_of,
        }
    }

    /// Whether `rack` is currently served by its standby aggregator.
    pub fn on_standby(&self, rack: RackId) -> bool {
        self.serving_standby[rack.0 as usize]
    }

    /// Racks whose last sync fell off the ladder entirely (no aggregator
    /// answered and bypass was unavailable): their views kept the
    /// previous data with growing ages.
    pub fn stale_racks(&self) -> Vec<RackId> {
        self.layout
            .rack_ids()
            .filter(|&r| self.stale_now[r.0 as usize])
            .collect()
    }

    /// Synchronizes the collector with the aggregator tier at `now`:
    /// takes the source's change view, delivers (and epoch-checks) any
    /// delayed deltas, then brings every rack up to `now` — a healthy
    /// rack at rung 1 for the cost of what changed in it, every other
    /// through the failover ladder. A clean healthy rack is not visited:
    /// its pull, its reply and its instants are the plane's, charged and
    /// kept in one batch. Idempotent per instant — polls at an
    /// already-synced `now` reuse the merged views.
    pub fn sync(&mut self, now: SimTime) {
        self.now = now;
        self.source.advance_to(now);
        self.metrics.inc(self.ids.syncs, 1);
        let mut trace = Trace::deterministic(SYNC_SPAN_CAPACITY);
        let root = trace.begin("agg.sync", now);
        let tracked = self.mark_changed();
        self.syncs += 1;
        self.synced_at = Some(now);

        // The network finally delivers deltas whose push a crash
        // interrupted. A delta that still matches its view (no successful
        // sync happened in between) merges fine; one from a pre-crash
        // incarnation must be rejected, never merged.
        for delta in std::mem::take(&mut self.delayed) {
            let outcome = self.view_mut(delta.rack.0 as usize).apply_delta(&delta);
            if outcome.accepted() {
                self.metrics.inc(self.ids.late_delta_applied, 1);
            } else {
                self.metrics.inc(self.ids.stale_delta_rejected, 1);
                let span = trace.begin("agg.reject", now);
                trace.set_arg(span, "rack", u64::from(delta.rack.0));
                trace.set_arg(span, "incarnation", u64::from(delta.base.incarnation));
                trace.end(span, now);
            }
        }

        // Every healthy rack takes rung 1; those not visited are clean.
        // The racks are visited in ascending order, as the full scan met
        // them, so every poll and random draw keeps its place.
        let healthy = self.healthy_racks;
        let (mut clean_racks, mut clean_hosts) = (self.healthy_racks, self.healthy_hosts);
        let mut repolled = 0;
        #[cfg(test)]
        {
            self.visits = 0;
        }
        for word in 0..self.dirty.words() {
            let mut racks = self.dirty.take_word(word) | self.unhealthy.word(word);
            while racks != 0 {
                let rack = word * 64 + racks.trailing_zeros() as usize;
                racks &= racks - 1;
                if self.unhealthy.contains(rack) {
                    repolled += self.pull_rack(rack, now, &mut trace) as u64;
                } else {
                    clean_racks -= 1;
                    clean_hosts -= self.layout.range(rack).len() as u64;
                    repolled += self.rung_one(rack, now) as u64;
                }
                self.settle(rack, tracked && self.is_healthy(rack));
                #[cfg(test)]
                {
                    self.visits += 1;
                }
            }
        }
        self.ledger.record_idle_racks(clean_racks, clean_hosts);
        self.metrics.inc(self.ids.pulls, healthy);
        self.metrics.inc(self.ids.deltas_applied, healthy);
        self.metrics.inc(self.ids.racks_clean, clean_racks);
        self.metrics.inc(self.ids.hosts_repolled, repolled);
        trace.set_arg(root, "clean_racks", clean_racks);
        trace.set_arg(root, "dirty_hosts", repolled);

        trace.end(root, now);
        self.last_trace = trace.into_report();
    }

    /// Takes the source's change view and notes, per listed host, the
    /// sync that listed it: the aggregators that will have to re-poll it
    /// read that. A healthy rack it dirties leaves the fast path
    /// ([`Self::fold`]) and joins `dirty`. `false` when the source has no
    /// view to offer: every aggregator then scans its whole rack at its
    /// next refresh and no rack counts as healthy.
    fn mark_changed(&mut self) -> bool {
        let sync = self.syncs + 1;
        self.changed.clear();
        if !self.source.drain_changed(&mut self.changed) {
            self.blind_at = sync;
            self.unsettle_all();
            return false;
        }
        let changed = std::mem::take(&mut self.changed);
        for &addr in &changed {
            let Some((rack, slot)) = self.layout.locate(addr) else {
                continue;
            };
            if !self.unhealthy.contains(rack) && self.dirty.insert(rack) {
                self.fold(rack);
            }
            self.listed_at[slot] = sync;
        }
        self.changed = changed;
        true
    }

    /// Writes a healthy rack's fast-path bookkeeping back into the rack:
    /// each sync since its last visit pulled it once and moved both its
    /// instants to that sync's.
    fn fold(&mut self, rack: usize) {
        let at = self.synced_at.unwrap_or(SimTime::ZERO);
        self.pull_attempts[rack] += self.syncs - self.settled_at[rack];
        self.settled_at[rack] = self.syncs;
        self.views.heads[rack].fresh_as_of = at;
        self.primaries.states[rack].fresh_as_of = at;
    }

    /// Records whether `rack`, just visited, leaves the sync healthy: a
    /// healthy rack stays on the fast path from this sync on, any other
    /// is visited by the next sync too.
    fn settle(&mut self, rack: usize, healthy: bool) {
        if healthy {
            self.settled_at[rack] = self.syncs;
        }
        if self.unhealthy.contains(rack) == healthy {
            let hosts = self.layout.range(rack).len() as u64;
            if healthy {
                self.unhealthy.remove(rack);
                self.healthy_racks += 1;
                self.healthy_hosts += hosts;
            } else {
                self.unhealthy.insert(rack);
                self.healthy_racks -= 1;
                self.healthy_hosts -= hosts;
            }
        }
    }

    /// The table `rack`'s merged reports are served from, by fleet slot
    /// (the views' table may still be empty). A view at its primary's
    /// stamp holds exactly the primary's reports, so a view installed in
    /// full from its primary, or refreshed with it at rung 1, is *backed*:
    /// it reads the primary's table, which alone is kept up to date.
    fn served(&self, rack: usize) -> &[Option<StatusReport>] {
        match self.views.heads[rack].backed {
            true => &self.primaries.reports,
            false => &self.views.reports,
        }
    }

    /// `rack`'s view at work over its own range of the views' table: a
    /// backed view first gets its own copy of its primary's reports.
    /// Whatever may move the primary and the view apart (the ladder, a
    /// late delta) works on this.
    fn view_mut(&mut self, rack: usize) -> ViewMut<'_> {
        if self.views.reports.is_empty() {
            self.views.reports.resize(self.layout.host_count(), None);
        }
        if std::mem::take(&mut self.views.heads[rack].backed) {
            let range = self.layout.range(rack);
            let primary = &self.primaries.reports[range.clone()];
            self.views.reports[range].copy_from_slice(primary);
        }
        self.views.at(&self.layout, rack)
    }

    /// Takes every rack off the fast path (a new fault plan, or a source
    /// without a change view): the next sync visits them all.
    fn unsettle_all(&mut self) {
        if self.healthy_racks == 0 {
            return;
        }
        for rack in 0..self.settled_at.len() {
            if !self.unhealthy.contains(rack) {
                self.fold(rack);
            }
        }
        self.unhealthy = RackSet::all(self.settled_at.len());
        (self.healthy_racks, self.healthy_hosts) = (0, 0);
    }

    /// Whether `rack`'s next trip down the ladder is certain to end at
    /// rung 1, whatever the change view lists: no aggregator-tier fault
    /// names the rack (so the primary answers the first pull, nothing
    /// restarts and no delayed delta is in flight), the primary's refresh
    /// may leave the unlisted hosts unpolled
    /// ([`AggState::unmarked_are_known`]: the rack is at or below
    /// the loss knee and every host answered the last refresh), and the
    /// view is at the primary's stamp. Any rack that could be silent —
    /// faulted, lossy, holding a host that did not answer — fails this
    /// and keeps walking the ladder.
    fn is_healthy(&self, rack: usize) -> bool {
        let (primary, n) = (&self.primaries.states[rack], self.layout.range(rack).len());
        !self.faults.names_rack(RackId(rack as u32))
            && primary.unmarked_are_known(n, self.blind_at, &self.cfg.host_transport)
            && self.views.heads[rack].stamp == primary.stamp
    }

    /// What the change view says about `rack`'s hosts at this sync.
    fn listing<'a>(
        listed_at: &'a [u32],
        layout: &FleetLayout,
        rack: usize,
        sync: u32,
        blind_at: u32,
    ) -> Listing<'a> {
        let listed_at = &listed_at[layout.range(rack)];
        Listing {
            sync,
            listed_at,
            blind_at,
        }
    }

    /// Rung 1 for a dirty healthy rack ([`Self::is_healthy`]), without
    /// the ladder: the primary's one refresh polls the listed hosts, and
    /// the delta it would answer against the view's stamp — its own stamp
    /// before that refresh — is exactly the slots the refresh changed, so
    /// those are written into the snapshot and the view together and the
    /// pull and its reply are charged as the ladder charges them. (A clean
    /// rack is not visited: [`Self::sync`] charges its exchange — pull,
    /// header-only reply, the rack's loss-free round — in one batch.)
    /// Returns how many hosts were polled.
    fn rung_one(&mut self, rack: usize, now: SimTime) -> usize {
        self.pull_attempts[rack] += 1;
        let layout = &self.layout;
        let listing = Self::listing(&self.listed_at, layout, rack, self.syncs, self.blind_at);
        let mut primary = self.primaries.at(layout, rack, &self.cfg.host_transport);
        let (source, gathered) = (&mut self.source, &mut self.gathered);
        let (ledger, polls) = (&mut self.ledger, &mut self.polls);
        let polled = primary.poll_marked(source, now, listing, ledger, gathered, polls);
        // At one stamp the view holds what the snapshot holds, so a slot
        // changes in both or in neither, and both count the same live
        // reports: the view is backed by the snapshot's table
        // ([`Self::served`]). The slot's `touched_at` is left
        // alone: a delta is only ever asked against the view's stamp, and
        // from here on that is at or past this epoch, which already holds
        // the slot.
        let next = primary.state.stamp.epoch + 1;
        let (mut entries, mut removals) = (0, 0);
        for (slot, report) in gathered.answers() {
            if put(&mut primary.reports[slot], &mut primary.state.live, report) {
                primary.state.stamp.epoch = next;
                entries += u64::from(report.is_some());
                removals += u64::from(report.is_none());
            }
        }
        let (stamp, live) = (primary.state.stamp, primary.state.live);
        self.views.heads[rack] = ViewHead {
            stamp,
            fresh_as_of: now,
            live,
            backed: true,
        };
        self.ledger.record_agg_pull();
        self.ledger.record_agg_reply(entries, removals);
        self.metrics.inc(self.ids.delta_hosts, entries);
        polled
    }

    /// One rack through the failover ladder. Returns how many hosts were
    /// polled (first rounds only).
    fn pull_rack(&mut self, rack: usize, now: SimTime, trace: &mut Trace) -> usize {
        let rid = RackId(rack as u32);
        self.stale_now[rack] = false;
        let mut polled = 0;
        // The primary may move on without the view: the view keeps its own.
        if self.views.heads[rack].backed {
            self.view_mut(rack);
        }

        // A crash window that has closed means the primary restarted with
        // empty state and a fresh incarnation (handled once per window).
        if self.faults.restarted_by(rid, now) && !self.restart_done[rack] {
            self.restart_primary(rack);
            self.restart_done[rack] = true;
            self.metrics.inc(self.ids.restarts_observed, 1);
        }

        // Rung 1: the primary, retried within the sync.
        for attempt in 0..=PULL_RETRIES {
            if attempt > 0 {
                self.metrics.inc(self.ids.pull_retries, 1);
            }
            self.pull_attempts[rack] += 1;
            self.ledger.record_agg_pull();
            self.metrics.inc(self.ids.pulls, 1);
            let pull = self.faults.pull(rid, now, self.pull_attempts[rack]);
            if pull == Pull::Silent {
                continue; // no reply within the timeout
            }
            polled += self.refresh(rack, false, now);
            let base = self.views.heads[rack].stamp;
            let answer = self.primaries.delta_since(&self.layout, rack, base);
            if pull == Pull::PushLost && !self.mid_push_fired[rack] {
                // The reply is lost in flight and the aggregator dies
                // mid-push: its next incarnation starts empty, and the
                // in-flight delta becomes a stale-epoch straggler.
                if let Some(d) = answer {
                    self.delayed.push(d);
                }
                self.restart_primary(rack);
                self.mid_push_fired[rack] = true;
                self.metrics.inc(self.ids.mid_push_crashes, 1);
                continue;
            }
            self.absorb_answer(rack, false, answer.as_ref());
            self.serving_standby[rack] = false;
            return polled;
        }

        // Rung 2: the standby aggregator (its own node/incarnation
        // stream: the first post-failover pull resyncs in full).
        if self.cfg.standby {
            let span = trace.begin("agg.failover", now);
            trace.set_arg(span, "rack", u64::from(rid.0));
            trace.set_arg(span, "rung", 2);
            self.ledger.record_agg_pull();
            self.metrics.inc(self.ids.pulls, 1);
            polled += self.refresh(rack, true, now);
            let base = self.views.heads[rack].stamp;
            let answer = self.standbys.delta_since(&self.layout, rack, base);
            self.absorb_answer(rack, true, answer.as_ref());
            self.serving_standby[rack] = true;
            self.metrics.inc(self.ids.failover_standby, 1);
            trace.end(span, now);
            return polled;
        }

        // Rung 3: bypass the aggregator tier — ordinary scatter-gather
        // straight to the rack's hosts (rack-sized fan-out).
        if self.cfg.bypass {
            let span = trace.begin("agg.failover", now);
            trace.set_arg(span, "rack", u64::from(rid.0));
            trace.set_arg(span, "rung", 3);
            let hosts = self.layout.hosts(rid);
            let outcome = scatter_gather_retry(
                &mut self.source,
                hosts,
                &self.cfg.host_transport,
                &mut self.rng,
                &mut self.ledger,
            );
            let bypassed = hosts.len();
            self.view_mut(rack).install_bypass(&outcome.replies, now);
            self.metrics.inc(self.ids.failover_bypass, 1);
            trace.end(span, now);
            return polled + bypassed;
        }

        // Rung 4: the rack is stale. Keep serving the last merged view;
        // its ages grow from fresh_as_of, so the server's freshness decay
        // degrades exactly this rack's hosts.
        let span = trace.begin("agg.stale", now);
        trace.set_arg(span, "rack", u64::from(rid.0));
        trace.end(span, now);
        self.stale_now[rack] = true;
        self.metrics.inc(self.ids.rack_stale, 1);
        polled
    }

    /// `rack`'s primary — or, with `standby`, its standby — refreshes the
    /// hosts the change view listed since its last gather (every host,
    /// when it may not skip). Returns how many hosts were polled.
    fn refresh(&mut self, rack: usize, standby: bool, now: SimTime) -> usize {
        let layout = &self.layout;
        let listing = Self::listing(&self.listed_at, layout, rack, self.syncs, self.blind_at);
        let role = match standby {
            true => &mut self.standbys,
            false => &mut self.primaries,
        };
        let mut agg = role.at(layout, rack, &self.cfg.host_transport);
        let (source, gathered) = (&mut self.source, &mut self.gathered);
        let (ledger, polls) = (&mut self.ledger, &mut self.polls);
        agg.refresh_changed(source, now, listing, ledger, gathered, polls)
    }

    /// `rack`'s primary crashes and restarts empty.
    fn restart_primary(&mut self, rack: usize) {
        let transport = &self.cfg.host_transport;
        self.primaries.at(&self.layout, rack, transport).restart();
    }

    /// Merges the answer of `rack`'s primary — or, with `from_standby`,
    /// its standby — into the rack view: a delta, or `None` for a full
    /// resync. Falls back to a full resync from that same aggregator when
    /// a delta unexpectedly fails to apply.
    fn absorb_answer(&mut self, rack: usize, from_standby: bool, answer: Option<&SnapshotDelta>) {
        match answer {
            Some(d) => {
                self.ledger
                    .record_agg_reply(d.changed.len() as u64, d.removed.len() as u64);
                if self.view_mut(rack).apply_delta(d).accepted() {
                    self.metrics.inc(self.ids.deltas_applied, 1);
                    self.metrics
                        .inc(self.ids.delta_hosts, d.changed.len() as u64);
                } else {
                    // Cannot happen through the pull path (the aggregator
                    // answers a full resync on any stamp mismatch), but a
                    // view must never be left inconsistent: resync in full
                    // from the aggregator that answered — on rung 2 the
                    // primary is the one that is down.
                    self.install_full(rack, from_standby);
                }
            }
            None => self.install_full(rack, from_standby),
        }
    }

    /// Resyncs `rack`'s view in full from its primary — or, with
    /// `from_standby`, its standby, into the view's own range
    /// ([`Views::install_full`]) — charged as a reply of every live report.
    fn install_full(&mut self, rack: usize, from_standby: bool) {
        if from_standby {
            self.view_mut(rack);
        }
        let role = match from_standby {
            true => &self.standbys,
            false => &self.primaries,
        };
        self.views
            .install_full(&self.layout, rack, role, !from_standby);
        let live = self.views.heads[rack].live as u64;
        self.ledger.record_agg_reply(live, 0);
        self.metrics.inc(self.ids.fulls_installed, 1);
        self.metrics.inc(self.ids.full_hosts, live);
    }
}

impl<S: StatusSource> StatusSource for AggregationPlane<S> {
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        if self.synced_at != Some(self.now) {
            self.sync(self.now);
        }
        let (rack, slot) = self.layout.locate(addr)?;
        let report = self.served(rack).get(slot)?.as_ref()?;
        Some(StatusReport {
            state: report.state,
            age: report.age + self.now.saturating_since(self.fresh_as_of(rack)),
        })
    }

    /// The next poll syncs at `now`, unless the plane already has.
    fn advance_to(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The aggregators' gathers sanitised what the views hold.
    fn answers_sane(&self) -> bool {
        true
    }

    /// The span tree of the sync at the current instant (failover and
    /// reject events), once a poll or [`AggregationPlane::sync`] ran it.
    fn sync_trace(&self) -> Option<&TraceReport> {
        (self.synced_at == Some(self.now)).then_some(&self.last_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultySource, Window};
    use crate::status::TableStatusSource;
    use desim::SimDuration;
    use estimator::HostState;
    use proptest::prelude::*;
    use rand::Rng;

    fn source(n: u32) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for i in 1..=n {
            s.set(Address(i), HostState::gbps_idle());
        }
        s
    }

    fn layout_3x4() -> FleetLayout {
        FleetLayout::uniform(&(1..=12).map(Address).collect::<Vec<_>>(), 4)
    }

    #[test]
    fn layout_groups_and_looks_up() {
        let l = layout_3x4();
        assert_eq!(l.rack_count(), 3);
        assert_eq!(l.host_count(), 12);
        assert_eq!(l.hosts(RackId(1)), &[5, 6, 7, 8].map(Address));
        assert_eq!(l.rack_of(Address(6)), Some(RackId(1)));
        assert_eq!(l.rack_of(Address(99)), None);
        assert_eq!(l.slot_of(Address(6)), Some((RackId(1), 1)));
        assert_eq!(l.slot_of(Address(0)), None);
        // Racks need not be given in address order.
        let l = FleetLayout::grouped(vec![vec![Address(9), Address(2)], vec![Address(5)]]);
        assert_eq!(l.hosts(RackId(0)), &[Address(2), Address(9)]);
        assert_eq!(l.slot_of(Address(9)), Some((RackId(0), 1)));
        assert_eq!(l.slot_of(Address(5)), Some((RackId(1), 0)));
    }

    #[test]
    #[should_panic(expected = "assigned to two racks")]
    fn layout_rejects_a_host_in_two_racks() {
        FleetLayout::grouped(vec![vec![Address(1), Address(2)], vec![Address(2)]]);
    }

    /// A one-rack plane over hosts `1..=n` whose standby and view are
    /// driven by hand (nothing syncs it): the epoch rules are asserted on
    /// the plane's own `Role`, `Views`, refresh, merge and standby resync.
    /// No change view vouches for any host, so every refresh polls all.
    fn one_rack(n: u32, seed: u64) -> AggregationPlane<TableStatusSource> {
        let layout = FleetLayout::grouped(vec![(1..=n).map(Address).collect()]);
        let cfg = PlaneConfig {
            standby: true,
            seed,
            ..PlaneConfig::default()
        };
        let mut plane = AggregationPlane::new(layout, source(n), cfg);
        plane.blind_at = u32::MAX;
        plane
    }

    impl AggregationPlane<TableStatusSource> {
        fn stamp(&self) -> EpochStamp {
            self.standbys.states[0].stamp
        }

        fn view_stamp(&self) -> EpochStamp {
            self.views.heads[0].stamp
        }

        /// The standby re-polls every host; `true` when the epoch
        /// advanced.
        fn refresh_standby(&mut self, now: SimTime) -> bool {
            let epoch = self.stamp().epoch;
            self.refresh(0, true, now);
            self.stamp().epoch != epoch
        }

        fn restart_standby(&mut self) {
            self.standbys
                .at(&self.layout, 0, &self.cfg.host_transport)
                .restart();
        }

        fn standby_delta(&self, base: EpochStamp) -> Option<SnapshotDelta> {
            self.standbys.delta_since(&self.layout, 0, base)
        }

        fn apply(&mut self, delta: &SnapshotDelta) -> MergeOutcome {
            self.view_mut(0).apply_delta(delta)
        }

        /// A pull from the standby: the delta against the view's stamp and
        /// what merging it did, or `None` after a full resync.
        fn pull(&mut self) -> Option<(SnapshotDelta, MergeOutcome)> {
            let Some(delta) = self.standby_delta(self.view_stamp()) else {
                self.install_full(0, true);
                return None;
            };
            let outcome = self.apply(&delta);
            Some((delta, outcome))
        }

        /// The view's stamp, freshness and reports, as `view` lends them.
        fn seen(&self) -> (EpochStamp, SimTime, Vec<(Address, StatusReport)>) {
            let view = self.view(RackId(0));
            let reports = view.iter().map(|(a, r)| (a, *r)).collect();
            (view.stamp, view.fresh_as_of, reports)
        }

        /// Whether the view holds exactly the standby's reports.
        fn matches(&self) -> bool {
            self.views.reports == self.standbys.reports
                && self.views.heads[0].live == self.standbys.states[0].live
        }
    }

    fn load(up: f64) -> HostState {
        HostState::gbps_idle().with_up_load(up)
    }

    #[test]
    fn refresh_advances_epoch_only_on_change() {
        let mut rack = one_rack(4, 7);
        assert!(rack.refresh_standby(SimTime::ZERO));
        assert_eq!(rack.stamp().epoch, 1);
        // Nothing changed: epoch holds, freshness still advances.
        let t1 = SimTime::from_secs_f64(1.0);
        assert!(!rack.refresh_standby(t1));
        assert_eq!(rack.stamp().epoch, 1);
        assert_eq!(rack.standbys.states[0].fresh_as_of, t1);
        // One host changes: epoch advances, delta carries only it.
        rack.source.set(Address(2), load(0.5));
        let before = rack.stamp();
        assert!(rack.refresh_standby(t1));
        let d = rack
            .standby_delta(before)
            .expect("same incarnation must diff");
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].0, Address(2));
        assert!(d.removed.is_empty());
    }

    #[test]
    fn delta_round_trip_reconstructs_full_snapshot() {
        let mut rack = one_rack(4, 7);
        rack.refresh_standby(SimTime::ZERO);
        // Unprimed view (node 0): the aggregator answers a full resync.
        assert!(rack.pull().is_none(), "node mismatch must resync");
        assert!(rack.matches());
        // Mutate, remove, refresh; the delta catches the view up exactly.
        rack.source.set(Address(1), load(0.9));
        rack.source.silence(Address(3));
        rack.refresh_standby(SimTime::from_secs_f64(1.0));
        let (d, outcome) = rack.pull().expect("expected a delta");
        assert_eq!(d.removed, vec![Address(3)]);
        assert_eq!(outcome, MergeOutcome::Applied);
        // Replay: idempotent no-op.
        assert_eq!(rack.apply(&d), MergeOutcome::AlreadyApplied);
        assert!(rack.matches());
        let dropped = rack.seen().2.iter().all(|&(a, _)| a != Address(3));
        assert!(dropped, "removed host dropped");
    }

    #[test]
    fn pre_crash_delta_is_rejected_after_restart() {
        let mut rack = one_rack(4, 7);
        rack.refresh_standby(SimTime::ZERO);
        assert!(rack.pull().is_none());
        // A delta is computed… and delayed in flight.
        rack.source.set(Address(2), load(0.4));
        rack.refresh_standby(SimTime::from_secs_f64(1.0));
        let delayed = rack
            .standby_delta(rack.view_stamp())
            .expect("same incarnation must diff");
        // The aggregator crashes and restarts; the collector resyncs from
        // the new incarnation.
        rack.restart_standby();
        rack.refresh_standby(SimTime::from_secs_f64(2.0));
        assert!(
            rack.pull().is_none(),
            "post-restart incarnation must resync"
        );
        let settled = rack.seen();
        // The delayed pre-crash delta finally arrives: rejected, no-op.
        assert_eq!(rack.apply(&delayed), MergeOutcome::RejectedIncarnation);
        assert_eq!(rack.seen(), settled);
        assert!(rack.matches());
    }

    #[test]
    fn epoch_gap_is_rejected_and_resynced() {
        let mut rack = one_rack(4, 7);
        rack.refresh_standby(SimTime::ZERO);
        assert!(rack.pull().is_none());
        let old_stamp = rack.view_stamp();
        // Two missed updates; a delta built against the *newer* epoch
        // cannot be applied onto the older view.
        rack.source.set(Address(1), load(0.3));
        rack.refresh_standby(SimTime::ZERO);
        let mid_stamp = rack.stamp();
        rack.source.set(Address(2), load(0.6));
        rack.refresh_standby(SimTime::ZERO);
        let tail = rack
            .standby_delta(mid_stamp)
            .expect("same incarnation must diff");
        assert_eq!(rack.view_stamp(), old_stamp);
        assert_eq!(rack.apply(&tail), MergeOutcome::RejectedEpochGap);
        // But a delta built against the view's own stamp covers the gap.
        let (_, outcome) = rack.pull().expect("same incarnation must diff");
        assert_eq!(outcome, MergeOutcome::Applied);
        assert!(rack.matches());
    }

    /// Discrete load levels: state changes are unambiguous, never
    /// floating-point coincidences.
    const LEVELS: [f64; 5] = [0.0, 0.05, 0.3, 0.6, 0.9];

    /// One random walk of mutate/silence/refresh/restart/pull/replay: the
    /// view must hold the aggregator's reports after every pull (delta
    /// compression loses nothing), replaying a merged delta must leave it
    /// bit-unchanged, and a stored old delta, delivered arbitrarily late,
    /// may apply only from its exact base and otherwise must not touch it.
    fn drive(seed: u64, steps: u64, hosts: u32) -> Result<(), TestCaseError> {
        let mut rng = stream_rng(seed, 0xA99);
        let mut rack = one_rack(hosts, seed);
        let mut old_deltas: Vec<SnapshotDelta> = Vec::new();
        let mut restarts = 0u32;
        for step in 1..=steps {
            let now = SimTime::from_nanos(step * 1_000_000);
            let host = Address(rng.gen_range(1..=hosts));
            match rng.gen_range(0..100u32) {
                // A host's load changes (or a silenced host comes back).
                0..35 => rack
                    .source
                    .set(host, load(LEVELS[rng.gen_range(0..LEVELS.len())])),
                // A host goes silent: the next refresh drops it.
                35..45 => rack.source.silence(host),
                // The aggregator crashes and restarts: state lost, fresh
                // incarnation — every outstanding delta is now stale.
                45..52 => {
                    rack.restart_standby();
                    restarts += 1;
                }
                // A refresh whose delta nobody pulls (epoch may advance).
                52..62 => _ = rack.refresh_standby(now),
                // A pull: refresh, diff against the view's stamp, merge.
                62..88 => {
                    rack.refresh_standby(now);
                    if let Some((d, outcome)) = rack.pull() {
                        prop_assert_eq!(outcome, MergeOutcome::Applied, "base matched: must apply");
                        // Idempotence: the duplicate datagram changes nothing.
                        let before = rack.seen();
                        prop_assert!(rack.apply(&d).accepted());
                        prop_assert_eq!(rack.seen(), before, "replay must be a no-op");
                        if rng.gen_bool(0.5) {
                            old_deltas.push(d);
                        }
                    }
                    // Round-trip: the delta-maintained view IS the snapshot.
                    prop_assert!(rack.matches(), "view diverged at step {}", step);
                    prop_assert_eq!(rack.view_stamp(), rack.stamp());
                }
                // The network delivers an arbitrarily delayed old delta:
                // it applies only from its exact base (a genuine, if old,
                // successor state) and otherwise leaves the view alone.
                _ if !old_deltas.is_empty() => {
                    let d = old_deltas[rng.gen_range(0..old_deltas.len())].clone();
                    let before = rack.seen();
                    match rack.apply(&d) {
                        MergeOutcome::Applied => prop_assert_eq!(d.base, before.0),
                        _ => prop_assert_eq!(rack.seen(), before, "rejected/duplicate delta"),
                    }
                }
                _ => {}
            }
        }
        // However the walk ended (mid-crash, stale view, pending deltas),
        // one clean pull converges the view to the aggregator's truth.
        rack.refresh_standby(SimTime::from_nanos((steps + 1) * 1_000_000));
        if let Some((_, outcome)) = rack.pull() {
            prop_assert!(outcome.accepted());
        }
        prop_assert!(rack.matches(), "final pull must converge");
        prop_assert_eq!(rack.view_stamp(), rack.stamp());
        // Restarts leave their mark in the incarnation counter.
        prop_assert_eq!(rack.view_stamp().incarnation, restarts);
        Ok(())
    }

    /// A delta diffed immediately before a crash must be rejected by a
    /// view that has resynced with the restarted incarnation — whatever
    /// the world did around the crash — and must leave it untouched.
    fn crash_scenario(seed: u64, hosts: u32, pre_moves: u64) -> Result<(), TestCaseError> {
        let mut rng = stream_rng(seed, 0xC4A5);
        let mut rack = one_rack(hosts, seed);
        let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
        rack.refresh_standby(ms(1));
        prop_assert!(
            rack.pull().is_none(),
            "unprimed view must get a full resync"
        );
        // Some changes happen and a delta is computed… but its push is
        // interrupted: the datagram sits in flight.
        for m in 0..pre_moves {
            let level = LEVELS[rng.gen_range(0..LEVELS.len())];
            rack.source
                .set(Address(rng.gen_range(1..=hosts)), load(level));
            rack.refresh_standby(ms(2 + m));
        }
        let Some(in_flight) = rack.standby_delta(rack.view_stamp()) else {
            return Err(TestCaseError::fail("same incarnation must diff"));
        };
        // Crash. The restarted incarnation re-observes the world (which
        // may have changed again) and the view resyncs from it.
        rack.restart_standby();
        rack.source
            .set(Address(rng.gen_range(1..=hosts)), load(0.9));
        rack.refresh_standby(ms(60));
        prop_assert!(rack.pull().is_none(), "post-crash incarnation must resync");
        let settled = rack.seen();
        // The in-flight pre-crash delta finally arrives.
        prop_assert_eq!(
            rack.apply(&in_flight),
            MergeOutcome::RejectedIncarnation,
            "pre-crash delta must be rejected after resync"
        );
        prop_assert_eq!(rack.seen(), settled);
        prop_assert!(rack.matches());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random mutate/silence/refresh/restart/replay walks: round-trip,
        /// idempotence, and stale-delta safety all hold at every step.
        #[test]
        fn delta_walks_round_trip_and_reject_stale(
            seed in any::<u64>(),
            steps in 20u64..120,
            hosts in 3u32..24,
        ) {
            drive(seed, steps, hosts)?;
        }

        /// A delayed delta from a pre-crash epoch is rejected after the
        /// view resyncs.
        #[test]
        fn pre_crash_delta_always_rejected(
            seed in any::<u64>(),
            hosts in 2u32..16,
            pre_moves in 1u64..8,
        ) {
            crash_scenario(seed, hosts, pre_moves)?;
        }
    }

    #[test]
    fn plane_serves_fleet_and_is_deterministic() {
        let run = || {
            let mut plane = AggregationPlane::new(
                layout_3x4(),
                source(12),
                PlaneConfig::default(),
            );
            let mut reports = Vec::new();
            for a in 1..=12 {
                reports.push(plane.poll_report(Address(a)));
            }
            (reports, plane.ledger())
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a, b, "plane collection is deterministic");
        assert_eq!(la, lb);
        assert!(a.iter().all(Option::is_some), "whole fleet served");
        assert!(la.agg_bytes() > 0, "aggregator pulls are accounted");
        assert!(la.status_bytes() > 0, "host refreshes are accounted");
    }

    #[test]
    fn plane_second_sync_is_delta_compressed() {
        let mut plane =
            AggregationPlane::new(layout_3x4(), source(12), PlaneConfig::default());
        plane.sync(SimTime::ZERO);
        let after_warm = plane.ledger();
        // Nothing changed: the second sync ships headers only.
        plane.sync(SimTime::from_secs_f64(1.0));
        let after_idle = plane.ledger();
        assert_eq!(
            after_idle.agg_entries, after_warm.agg_entries,
            "idle sync carries zero host entries"
        );
        assert_eq!(after_idle.agg_pulls, after_warm.agg_pulls + 3);
        // One host changes: exactly one entry crosses the wire.
        plane
            .source_mut()
            .set(Address(7), HostState::gbps_idle().with_up_load(0.8));
        plane.sync(SimTime::from_secs_f64(2.0));
        let after_change = plane.ledger();
        assert_eq!(after_change.agg_entries, after_idle.agg_entries + 1);
        assert_eq!(
            plane.metrics().counter_named("gather.agg.delta_hosts"),
            Some(1)
        );
    }

    #[test]
    fn dead_rack_goes_stale_and_ages_grow() {
        let plan = FaultPlan::none().agg_crash(RackId(1), Window::always());
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), PlaneConfig::default())
            .with_faults(plan);
        plane.sync(SimTime::ZERO);
        // Rack 1 never primed: its hosts are missing entirely.
        assert!(plane.poll_report(Address(5)).is_none());
        assert!(plane.poll_report(Address(1)).is_some());
        assert_eq!(plane.stale_racks(), vec![RackId(1)]);
        assert_eq!(
            plane.metrics().counter_named("gather.agg.rack_stale"),
            Some(1)
        );
    }

    #[test]
    fn crashed_rack_serves_aged_reports_from_last_view() {
        // Crash opens *after* a clean sync: the stale rung keeps serving
        // the old data with growing ages — one rack's freshness, not an
        // outage.
        let plan = FaultPlan::none().agg_crash(
            RackId(1),
            Window::starting_at(SimTime::from_secs_f64(0.5)),
        );
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), PlaneConfig::default())
            .with_faults(plan);
        plane.sync(SimTime::ZERO);
        let t = SimTime::from_secs_f64(3.0);
        plane.advance_to(t);
        let stale = plane.poll_report(Address(5)).expect("last view serves");
        assert_eq!(stale.age, SimDuration::from_secs_f64(3.0));
        let fresh = plane.poll_report(Address(1)).expect("healthy rack");
        assert_eq!(fresh.age, SimDuration::ZERO);
    }

    #[test]
    fn standby_failover_keeps_rack_fresh() {
        let plan = FaultPlan::none().agg_crash(RackId(0), Window::always());
        let cfg = PlaneConfig {
            standby: true,
            ..PlaneConfig::default()
        };
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), cfg).with_faults(plan);
        plane.sync(SimTime::ZERO);
        assert!(plane.on_standby(RackId(0)));
        assert!(!plane.on_standby(RackId(1)));
        assert!(plane.poll_report(Address(1)).is_some());
        assert!(plane.stale_racks().is_empty());
        assert_eq!(
            plane.metrics().counter_named("gather.agg.failover_standby"),
            Some(1)
        );
        assert!(
            plane.sync_trace().unwrap().span("agg.failover").is_some(),
            "failover recorded in the sync span tree"
        );
    }

    #[test]
    fn rejected_standby_delta_resyncs_from_the_standby() {
        // The primary is crashed for good: rack 0 lives on its standby.
        let plan = FaultPlan::none().agg_crash(RackId(0), Window::always());
        let cfg = PlaneConfig {
            standby: true,
            ..PlaneConfig::default()
        };
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), cfg).with_faults(plan);
        plane.sync(SimTime::ZERO);
        assert!(plane.on_standby(RackId(0)));
        // The standby's answer is (forged to be) a delta across an epoch
        // gap: it cannot apply, so the view resyncs in full — from the
        // aggregator that answered, not from the primary, which is down
        // and holds nothing.
        let stamp = plane.view(RackId(0)).stamp;
        let forged = SnapshotDelta {
            rack: RackId(0),
            base: EpochStamp {
                epoch: stamp.epoch + 7,
                ..stamp
            },
            next_epoch: stamp.epoch + 8,
            fresh_as_of: SimTime::ZERO,
            changed: Vec::new(),
            removed: Vec::new(),
        };
        plane.absorb_answer(0, true, Some(&forged));
        assert_eq!(plane.primaries.states[0].live, 0);
        assert_eq!(plane.view(RackId(0)).len(), 4);
        let range = plane.layout.range(0);
        assert_eq!(
            plane.views.reports[range.clone()],
            plane.standbys.reports[range]
        );
        assert_eq!(plane.view(RackId(0)).stamp, plane.standbys.states[0].stamp);
    }

    #[test]
    fn bypass_failover_collects_hosts_directly() {
        let plan = FaultPlan::none().agg_partition(RackId(2), Window::always());
        let cfg = PlaneConfig {
            bypass: true,
            ..PlaneConfig::default()
        };
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), cfg).with_faults(plan);
        plane.sync(SimTime::ZERO);
        assert!(plane.poll_report(Address(9)).is_some());
        assert!(plane.stale_racks().is_empty());
        assert_eq!(
            plane.metrics().counter_named("gather.agg.failover_bypass"),
            Some(1)
        );
        // The bypass view is unstamped; a healed aggregator resyncs it in
        // full next sync.
        assert_eq!(plane.view(RackId(2)).stamp.node, 0);
    }

    #[test]
    fn straggling_aggregator_recovers_within_retries() {
        let plan = FaultPlan::none().agg_straggle(RackId(1), 2);
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), PlaneConfig::default())
            .with_faults(plan);
        plane.sync(SimTime::ZERO);
        assert!(plane.poll_report(Address(5)).is_some());
        assert!(plane.stale_racks().is_empty());
        assert_eq!(
            plane.metrics().counter_named("gather.agg.pull_retries"),
            Some(2)
        );
    }

    #[test]
    fn crash_mid_push_rejects_late_delta_and_resyncs() {
        let w = Window::between(SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(1.5));
        let plan = FaultPlan::none().agg_crash_mid_push(RackId(0), w);
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), PlaneConfig::default())
            .with_faults(plan);
        plane.sync(SimTime::ZERO);
        // A change happens; the push of its delta is interrupted by the
        // crash, and the restarted (empty) incarnation serves a Full.
        plane
            .source_mut()
            .set(Address(2), HostState::gbps_idle().with_up_load(0.7));
        plane.sync(SimTime::from_secs_f64(1.0));
        assert_eq!(
            plane.metrics().counter_named("gather.agg.mid_push_crashes"),
            Some(1)
        );
        // The retry within the same sync already resynced from the new
        // incarnation, so the rack is fresh and correct.
        assert!(plane.stale_racks().is_empty());
        let r = plane.poll_report(Address(2)).expect("served");
        assert!(r.state.nic_up_used > 0.0, "post-change state visible");
        // Next sync delivers the delayed pre-crash delta: rejected.
        plane.sync(SimTime::from_secs_f64(2.0));
        assert_eq!(
            plane
                .metrics()
                .counter_named("gather.agg.stale_delta_rejected"),
            Some(1)
        );
        assert!(plane.sync_trace().unwrap().span("agg.reject").is_some());
    }

    #[test]
    fn crash_window_close_restarts_primary_with_full_resync() {
        let w = Window::between(SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(1.5));
        let plan = FaultPlan::none().agg_crash(RackId(0), w);
        let mut plane = AggregationPlane::new(layout_3x4(), source(12), PlaneConfig::default())
            .with_faults(plan);
        plane.sync(SimTime::ZERO);
        let fulls_before = plane
            .metrics()
            .counter_named("gather.agg.fulls_installed")
            .unwrap();
        // During the crash the rack is stale…
        plane.sync(SimTime::from_secs_f64(1.0));
        assert_eq!(plane.stale_racks(), vec![RackId(0)]);
        // …after the restart it resyncs in full (new incarnation).
        plane.sync(SimTime::from_secs_f64(2.0));
        assert!(plane.stale_racks().is_empty());
        assert_eq!(
            plane.metrics().counter_named("gather.agg.restarts_observed"),
            Some(1)
        );
        assert!(
            plane
                .metrics()
                .counter_named("gather.agg.fulls_installed")
                .unwrap()
                > fulls_before
        );
    }

    #[test]
    fn host_faults_under_aggregators_behave_as_flat() {
        // A crashed host inside a healthy rack: the aggregator drops it
        // from the snapshot, the plane reports it missing — identical to
        // flat collection semantics.
        let plan = FaultPlan::none().crash(Address(6), Window::always());
        let faulty = FaultySource::new(source(12), plan);
        let mut plane =
            AggregationPlane::new(layout_3x4(), faulty, PlaneConfig::default());
        assert!(plane.poll_report(Address(6)).is_none());
        assert!(plane.poll_report(Address(5)).is_some());
    }

    #[test]
    fn a_sync_visits_the_dirtied_and_the_unhealthy_racks_only() {
        const PER_RACK: u32 = 8;
        let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
        for racks in [50, 500] {
            let hosts = racks * PER_RACK;
            let addrs: Vec<Address> = (1..=hosts).map(Address).collect();
            let layout = FleetLayout::uniform(&addrs, PER_RACK as usize);
            let mut plane = AggregationPlane::new(layout, source(hosts), PlaneConfig::default());
            plane.sync(at(0));
            assert_eq!(plane.visits, racks as usize, "priming visits every rack");
            plane.sync(at(1));
            assert_eq!(
                plane.visits, 0,
                "{racks} racks: a clean fleet visits nobody"
            );
            // A silent host keeps rack 7 unhealthy from here on.
            let first_of = |rack: u32| rack * PER_RACK + 1;
            plane.source_mut().silence(Address(first_of(7) + 3));
            plane.sync(at(2));
            let unhealthy = |plane: &AggregationPlane<_>| {
                (0..racks as usize)
                    .filter(|&rack| plane.unhealthy.contains(rack))
                    .collect::<Vec<_>>()
            };
            assert_eq!(plane.visits, 1);
            assert_eq!(unhealthy(&plane), [7]);
            for (secs, dirtied) in [
                (3, vec![0, 20, 49]),
                (4, vec![]),
                (5, vec![7, 13]),
                (6, vec![1, 2, 3, 4, 5, 6]),
            ] {
                for &rack in &dirtied {
                    for host in [0, 5, 5] {
                        let load = HostState::gbps_idle().with_up_load(0.1 * secs as f64);
                        plane.source_mut().set(Address(first_of(rack) + host), load);
                    }
                }
                let counter = |plane: &AggregationPlane<_>, name| {
                    plane.metrics().counter_named(name).expect("registered")
                };
                let repolled = counter(&plane, "gather.agg.hosts_repolled");
                let clean = counter(&plane, "gather.agg.racks_clean");
                plane.sync(at(secs));
                let k = dirtied.iter().filter(|&&rack| rack != 7).count();
                assert_eq!(plane.visits, k + 1, "{racks} racks, churn in {dirtied:?}");
                assert_eq!(unhealthy(&plane), [7]);
                // Each dirtied healthy rack polls its two changed hosts;
                // rack 7 walks the ladder and polls all of its hosts.
                assert_eq!(
                    counter(&plane, "gather.agg.hosts_repolled") - repolled,
                    2 * k as u64 + u64::from(PER_RACK)
                );
                assert_eq!(
                    counter(&plane, "gather.agg.racks_clean") - clean,
                    u64::from(racks) - k as u64 - 1
                );
            }
        }
    }
}
