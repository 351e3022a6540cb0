//! Deterministic fault injection for the status-collection path.
//!
//! The paper's central robustness claim is that CloudTalk answers well
//! from *imperfect* data: lossy UDP scatter-gather, silent hosts "assumed
//! overloaded", and load reports that lag reality (§4, §4.3). This module
//! makes every one of those imperfections an explicit, seeded input — the
//! chaos-middleware approach of CloudSim-style simulators — so tests can
//! assert that the answer pipeline survives them:
//!
//! * **Crashed / restarting status servers** — a host answers nothing
//!   while its crash [`Window`] is open, and recovers when it closes.
//! * **Partitions** — per-host or per-rack unreachability windows; unlike
//!   a crash the host is healthy, the datagrams just never arrive.
//! * **Stragglers** — the first *k* polls of a host exceed the gather
//!   timeout (counted missing for that round); a retry recovers them.
//! * **Stale reports** — replies carry data measured `lag` ago, either by
//!   aging the live reading or by serving from a frozen
//!   [`estimator::World`] view.
//! * **Corrupted readings** — NaN, negative, or overflowed fields, which
//!   the transport's sanitisation choke point must repair.
//!
//! Everything is deterministic: a [`FaultPlan`] is plain data, and
//! [`FaultPlan::seeded`] derives one reproducibly from a `u64` seed, so a
//! failing chaos case replays bit-for-bit.
//!
//! A plan is one record per faulted host and one per faulted rack
//! aggregator, and only this module reads them: a [`FaultySource`] poll
//! looks its host up once, and the aggregation plane asks the plan what a
//! pull meets (`pull`), whether a crashed primary is back
//! (`restarted_by`) and whether it names a rack (`names_rack`).

use std::collections::BTreeMap;

use cloudtalk_lang::problem::Address;
use cloudtalk_lang::WordMap;
use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use estimator::{HostState, World};
use rand::Rng;

use crate::aggregate::RackId;
use crate::status::{StatusReport, StatusSource};

/// A simulated-time interval during which a fault is active.
///
/// Windows are **half-open**, `[from, until)`: `from` is the first
/// faulted instant (inclusive) and `until` — when present — is the first
/// healthy instant again (exclusive; "the crash restarts *at* `until`").
/// Consequently a window with `from == until` contains no instant at all
/// (`Window::is_empty`), two windows `[a, b)` and `[b, c)` compose
/// without double-faulting instant `b`, and every consumer —
/// `Window::contains`, [`FaultPlan::partition_group`], the plan's pull and
/// restart questions — uses these same edges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Window {
    from: SimTime,
    until: Option<SimTime>,
}

impl Window {
    /// A fault active for the whole run.
    pub fn always() -> Self {
        Window {
            from: SimTime::ZERO,
            until: None,
        }
    }

    /// A fault active from `from` onwards (a crash with no restart).
    pub fn starting_at(from: SimTime) -> Self {
        Window { from, until: None }
    }

    /// A fault active in the half-open interval `[from, until)`: faulted
    /// at `from`, healthy again at `until` (a crash that restarts at
    /// `until`). `from == until` yields an empty window.
    pub fn between(from: SimTime, until: SimTime) -> Self {
        Window {
            from,
            until: Some(until),
        }
    }

    /// Whether the fault is active at `now`: `from <= now < until`.
    pub(crate) fn contains(&self, now: SimTime) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }

    /// Whether the window contains no instant at all (`until <= from`).
    pub(crate) fn is_empty(&self) -> bool {
        self.until.is_some_and(|u| u <= self.from)
    }

    /// Whether the window has closed by `now` (the fault is over *and*
    /// actually happened before `now` — an empty window never "ends", it
    /// never began). Restart logic keys off this edge: at `now == until`
    /// the host/aggregator is already back.
    pub(crate) fn ended_by(&self, now: SimTime) -> bool {
        !self.is_empty() && self.until.is_some_and(|u| now >= u)
    }
}

/// A way a status reading can be garbage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Corruption {
    /// Transmit usage reads as NaN (a torn read of an uninitialised
    /// counter).
    NanUsage,
    /// Receive usage reads negative (a counter that wrapped backwards).
    NegativeUsage,
    /// Disk-read usage overflows far past capacity.
    OverflowedUsage,
    /// Disk-write capacity reads negative.
    NegativeCapacity,
    /// Transmit capacity reads infinite (a division by a zero interval).
    InfiniteCapacity,
}

impl Corruption {
    /// Every corruption kind, for seeded plan generation.
    pub(crate) const ALL: [Corruption; 5] = [
        Corruption::NanUsage,
        Corruption::NegativeUsage,
        Corruption::OverflowedUsage,
        Corruption::NegativeCapacity,
        Corruption::InfiniteCapacity,
    ];

    /// Applies the corruption to an otherwise honest reading.
    pub(crate) fn apply(self, mut state: HostState) -> HostState {
        match self {
            Corruption::NanUsage => state.nic_up_used = f64::NAN,
            Corruption::NegativeUsage => state.nic_down_used = -1e9,
            Corruption::OverflowedUsage => state.disk_read_used = f64::MAX,
            Corruption::NegativeCapacity => state.disk_write_capacity = -450e6,
            Corruption::InfiniteCapacity => state.nic_up_capacity = f64::INFINITY,
        }
        state
    }
}

/// Per-fault-class intensities for seeded plan generation. Each fraction
/// is the independent probability that a given host suffers that fault.
#[derive(Clone, Copy, Debug)]
pub struct FaultIntensity {
    /// Fraction of hosts whose status server is crashed (never answers).
    pub crash_frac: f64,
    /// Fraction of hosts cut off by a network partition.
    pub partition_frac: f64,
    /// Fraction of hosts whose first replies exceed the gather timeout.
    pub straggler_frac: f64,
    /// Rounds a straggler keeps missing before it answers (uniform in
    /// `1..=max_straggler_rounds`).
    pub max_straggler_rounds: u32,
    /// Fraction of hosts serving stale reports.
    pub stale_frac: f64,
    /// Age of stale reports.
    pub stale_age: SimDuration,
    /// Fraction of hosts returning corrupted readings.
    pub corrupt_frac: f64,
}

impl FaultIntensity {
    /// The kitchen sink: every fault class at once, at rates high enough
    /// that most answers degrade.
    pub fn chaos() -> Self {
        FaultIntensity {
            crash_frac: 0.2,
            partition_frac: 0.2,
            straggler_frac: 0.3,
            max_straggler_rounds: 4,
            stale_frac: 0.3,
            stale_age: SimDuration::from_secs_f64(5.0),
            corrupt_frac: 0.2,
        }
    }
}

/// Every fault a [`FaultPlan`] injects at one host.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct HostFaults {
    crash: Option<Window>,
    partition: Option<Window>,
    /// How many of the host's first polls exceed the gather timeout.
    straggle: u32,
    stale: Option<SimDuration>,
    corrupt: Option<Corruption>,
}

/// Every fault a [`FaultPlan`] injects at one rack's primary aggregator.
#[derive(Clone, Copy, Debug, Default)]
struct RackFaults {
    crash: Option<Window>,
    partition: Option<Window>,
    /// How many of the primary's first pulls exceed the pull timeout.
    straggle: u32,
    mid_push: Option<Window>,
}

fn open(window: Option<Window>, now: SimTime) -> bool {
    window.is_some_and(|w| w.contains(now))
}

/// What one pull of a rack's primary aggregator meets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Pull {
    /// No reply within the timeout.
    Silent,
    /// The aggregator refreshes and answers, then dies mid-push: the
    /// reply is lost in flight.
    PushLost,
    /// The reply arrives.
    Answered,
}

/// A deterministic description of every injected fault: one record per
/// faulted host, one per faulted rack aggregator.
///
/// Build one explicitly with the `crash`/`partition`/… methods, or derive
/// one reproducibly from a seed with [`FaultPlan::seeded`]; then wrap any
/// [`StatusSource`] in a [`FaultySource`] to apply it. A builder creates a
/// target's record when it sets the target's first fault, so the plan
/// names exactly the targets some builder named.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    hosts: WordMap<Address, HostFaults>,
    racks: BTreeMap<RackId, RackFaults>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    fn host(&mut self, addr: Address) -> &mut HostFaults {
        self.hosts.entry(addr).or_default()
    }

    fn rack(&mut self, rack: RackId) -> &mut RackFaults {
        self.racks.entry(rack).or_default()
    }

    /// Crashes `addr`'s status server during `window`.
    pub fn crash(mut self, addr: Address, window: Window) -> Self {
        self.host(addr).crash = Some(window);
        self
    }

    /// Partitions `addr` away from the CloudTalk server during `window`.
    pub fn partition(mut self, addr: Address, window: Window) -> Self {
        self.host(addr).partition = Some(window);
        self
    }

    /// Partitions a whole group (e.g. every host of a rack) at once.
    pub fn partition_group(
        mut self,
        addrs: impl IntoIterator<Item = Address>,
        window: Window,
    ) -> Self {
        for a in addrs {
            self.host(a).partition = Some(window);
        }
        self
    }

    /// Makes `addr`'s first `rounds` replies exceed the gather timeout.
    pub fn straggle(mut self, addr: Address, rounds: u32) -> Self {
        self.host(addr).straggle = rounds;
        self
    }

    /// Makes `addr` serve reports that are `age` old.
    pub fn stale(mut self, addr: Address, age: SimDuration) -> Self {
        self.host(addr).stale = Some(age);
        self
    }

    /// Makes `addr` serve readings corrupted by `kind`.
    pub fn corrupt(mut self, addr: Address, kind: Corruption) -> Self {
        self.host(addr).corrupt = Some(kind);
        self
    }

    /// Crashes `rack`'s primary aggregator during `window` (state lost;
    /// it restarts with a fresh incarnation when the window closes).
    pub fn agg_crash(mut self, rack: RackId, window: Window) -> Self {
        self.rack(rack).crash = Some(window);
        self
    }

    /// Partitions `rack`'s primary aggregator away from the collector
    /// during `window` (the aggregator is healthy, pulls just never
    /// complete; no state is lost).
    pub fn agg_partition(mut self, rack: RackId, window: Window) -> Self {
        self.rack(rack).partition = Some(window);
        self
    }

    /// Makes the first `rounds` pulls of `rack`'s primary aggregator
    /// exceed the pull timeout; a retry recovers it.
    pub fn agg_straggle(mut self, rack: RackId, rounds: u32) -> Self {
        self.rack(rack).straggle = rounds;
        self
    }

    /// Crashes `rack`'s primary aggregator *mid-push* once inside
    /// `window`: the delta it was sending is delayed in flight (to be
    /// rejected later by the epoch rules) and the aggregator restarts
    /// with a fresh incarnation.
    pub fn agg_crash_mid_push(mut self, rack: RackId, window: Window) -> Self {
        self.rack(rack).mid_push = Some(window);
        self
    }

    /// What the primary aggregator of `rack` does with a pull at `now`
    /// that is its `attempt`-th (counted from its first): silent while
    /// crashed, partitioned or straggling, else losing its push inside a
    /// mid-push window, else answered. A mid-push crash happens once; the
    /// plane remembers that it did.
    pub(crate) fn pull(&self, rack: RackId, now: SimTime, attempt: u32) -> Pull {
        let Some(f) = self.racks.get(&rack) else {
            return Pull::Answered;
        };
        if open(f.crash, now) || open(f.partition, now) || attempt <= f.straggle {
            Pull::Silent
        } else if open(f.mid_push, now) {
            Pull::PushLost
        } else {
            Pull::Answered
        }
    }

    /// Whether `rack`'s primary aggregator is back from a crash by `now`:
    /// its crash window has closed ([`Window::ended_by`]), so it runs a
    /// fresh incarnation with empty state.
    pub(crate) fn restarted_by(&self, rack: RackId, now: SimTime) -> bool {
        self.racks
            .get(&rack)
            .and_then(|f| f.crash)
            .is_some_and(|w| w.ended_by(now))
    }

    /// Whether the plan names `rack`, whatever its windows: such a rack
    /// always walks the whole failover ladder, it is never settled by the
    /// plane's clean-rack fast path.
    pub(crate) fn names_rack(&self, rack: RackId) -> bool {
        self.racks.contains_key(&rack)
    }

    /// Every address the plan names, sorted.
    fn host_addresses(&self) -> Vec<Address> {
        let mut named: Vec<Address> = self.hosts.keys().copied().collect();
        named.sort_unstable_by_key(|a| a.0);
        named
    }

    /// Derives a plan over `addrs` reproducibly from `seed`: each host
    /// independently rolls each fault class at the configured intensity.
    pub fn seeded(seed: u64, addrs: &[Address], intensity: &FaultIntensity) -> Self {
        let mut rng = stream_rng(seed, 0xFA17);
        let mut plan = FaultPlan::none();
        for &addr in addrs {
            if intensity.crash_frac > 0.0 && rng.gen_bool(intensity.crash_frac) {
                plan.host(addr).crash = Some(Window::always());
            }
            if intensity.partition_frac > 0.0 && rng.gen_bool(intensity.partition_frac) {
                plan.host(addr).partition = Some(Window::always());
            }
            if intensity.straggler_frac > 0.0 && rng.gen_bool(intensity.straggler_frac) {
                let rounds = rng.gen_range(1..=intensity.max_straggler_rounds.max(1));
                plan.host(addr).straggle = rounds;
            }
            if intensity.stale_frac > 0.0 && rng.gen_bool(intensity.stale_frac) {
                plan.host(addr).stale = Some(intensity.stale_age);
            }
            if intensity.corrupt_frac > 0.0 && rng.gen_bool(intensity.corrupt_frac) {
                let kind = Corruption::ALL[rng.gen_range(0..Corruption::ALL.len())];
                plan.host(addr).corrupt = Some(kind);
            }
        }
        plan
    }
}

/// A decorator applying a [`FaultPlan`] to any [`StatusSource`].
///
/// Crash and partition windows are evaluated at the time of the last
/// [`StatusSource::advance_to`], which every gatherer calls before it
/// polls and which the decorator forwards inward, along with the inner
/// source's sync trace and change view. A straggler is silent for as many
/// polls as the plan says and then answers, so a retry round recovers it.
/// A stale host serves the inner reading aged by its lag, or — with a
/// frozen world attached by [`FaultySource::with_stale_world`] — the old
/// reading itself.
///
/// Change view ([`StatusSource::drain_changed`]): the inner source's,
/// plus — always — every address the plan names, because a window
/// opening, a poll counter or a frozen world can change such a host's
/// answer without the inner source noticing. Hosts the plan does not name
/// are passed straight through, so the inner view is exact for them.
pub struct FaultySource<S> {
    inner: S,
    /// Each host the plan names: its faults, and how often it was polled.
    hosts: WordMap<Address, (HostFaults, u32)>,
    /// `plan.host_addresses()`, computed once.
    named: Vec<Address>,
    /// Whether the plan corrupts any host's readings.
    garbles: bool,
    now: SimTime,
    stale_view: Option<World>,
}

impl<S> FaultySource<S> {
    /// Wraps `inner`, applying `plan` to every poll.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySource {
            inner,
            named: plan.host_addresses(),
            garbles: plan.hosts.values().any(|f| f.corrupt.is_some()),
            hosts: plan.hosts.into_iter().map(|(a, f)| (a, (f, 0))).collect(),
            now: SimTime::ZERO,
            stale_view: None,
        }
    }

    /// Attaches a frozen world: hosts marked stale serve *these* readings
    /// (the cluster as it used to be) instead of the live ones.
    pub fn with_stale_world(mut self, world: World) -> Self {
        self.stale_view = Some(world);
        self
    }

    /// The wrapped source.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: StatusSource> StatusSource for FaultySource<S> {
    /// One lookup; an unnamed host is the inner source's. A named host
    /// counts the poll; precedence: crash or partition, straggle, stale, corrupt.
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        let Some((faults, polls)) = self.hosts.get_mut(&addr) else {
            return self.inner.poll_report(addr);
        };
        *polls += 1;
        let (faults, now) = (*faults, self.now);
        if open(faults.crash, now) || open(faults.partition, now) || *polls <= faults.straggle {
            return None; // crashed, cut off, or the reply comes after the timeout
        }
        let mut report = match faults.stale {
            Some(lag) => match &self.stale_view {
                Some(view) if view.knows(addr) => StatusReport {
                    state: view.get(addr),
                    age: lag,
                },
                _ => {
                    let mut r = self.inner.poll_report(addr)?;
                    r.age += lag;
                    r
                }
            },
            None => self.inner.poll_report(addr)?,
        };
        if let Some(kind) = faults.corrupt {
            report.state = kind.apply(report.state);
        }
        Some(report)
    }

    /// Crash and partition windows follow `now`, and so does the inner
    /// source.
    fn advance_to(&mut self, now: SimTime) {
        self.now = now;
        self.inner.advance_to(now);
    }

    fn sync_trace(&self) -> Option<&obs::TraceReport> {
        self.inner.sync_trace()
    }

    /// A corrupted or frozen reading enters the system here, unrepaired:
    /// the gather above sanitises it.
    fn answers_sane(&self) -> bool {
        self.inner.answers_sane() && self.stale_view.is_none() && !self.garbles
    }

    fn drain_changed(&mut self, changed: &mut Vec<Address>) -> bool {
        if !self.inner.drain_changed(changed) {
            return false;
        }
        changed.extend_from_slice(&self.named);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TableStatusSource;

    fn source(n: u32) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for i in 1..=n {
            s.set(Address(i), HostState::gbps_idle());
        }
        s
    }

    #[test]
    fn crash_window_silences_then_recovers() {
        let plan = FaultPlan::none().crash(
            Address(1),
            Window::between(SimTime::ZERO, SimTime::from_secs_f64(1.0)),
        );
        let mut f = FaultySource::new(source(2), plan);
        assert!(f.poll_report(Address(1)).is_none(), "crashed: silent");
        assert!(f.poll_report(Address(2)).is_some(), "others unaffected");
        f.advance_to(SimTime::from_secs_f64(2.0));
        assert!(f.poll_report(Address(1)).is_some(), "restarted: answers");
    }

    #[test]
    fn window_edges_are_half_open() {
        let t = SimTime::from_secs_f64;
        let w = Window::between(t(1.0), t(2.0));
        assert!(!w.contains(t(0.5)), "before from: healthy");
        assert!(w.contains(t(1.0)), "from is inclusive");
        assert!(w.contains(t(1.999)));
        assert!(!w.contains(t(2.0)), "until is exclusive: restarted");
        assert!(!w.is_empty());
        assert!(!w.ended_by(t(1.999)));
        assert!(w.ended_by(t(2.0)), "ends exactly when healthy again");
    }

    #[test]
    fn degenerate_window_contains_nothing_and_never_ends() {
        let t = SimTime::from_secs_f64(1.0);
        let w = Window::between(t, t);
        assert!(w.is_empty());
        assert!(!w.contains(t), "from == until: no faulted instant");
        assert!(
            !w.ended_by(SimTime::from_secs_f64(9.0)),
            "a fault that never began never ends (no restart to handle)"
        );
        // And the source agrees: an empty window silences nobody, even at
        // its own boundary instant.
        let mut f = FaultySource::new(source(2), FaultPlan::none().crash(Address(1), w));
        f.advance_to(t);
        assert!(f.poll_report(Address(1)).is_some());
    }

    #[test]
    fn aggregator_faults_have_host_window_semantics() {
        let t = SimTime::from_secs_f64;
        let plan = FaultPlan::none()
            .agg_crash(RackId(0), Window::between(t(1.0), t(2.0)))
            .agg_partition(RackId(1), Window::always())
            .agg_straggle(RackId(2), 3)
            .agg_crash_mid_push(RackId(3), Window::starting_at(t(5.0)));
        let pull = |rack, at, attempt| plan.pull(RackId(rack), t(at), attempt);
        let restarted = |rack, at| plan.restarted_by(RackId(rack), t(at));
        assert_eq!(pull(0, 0.5, 1), Pull::Answered);
        assert_eq!(pull(0, 1.0, 1), Pull::Silent);
        assert_eq!(pull(0, 2.0, 1), Pull::Answered, "until exclusive");
        assert!(!restarted(0, 1.999));
        assert!(restarted(0, 2.0), "restarted exactly when healthy again");
        assert!(!restarted(1, 99.0), "a partition restarts nothing");
        assert_eq!(pull(1, 99.0, 1), Pull::Silent);
        assert_eq!(pull(0, 99.0, 1), Pull::Answered);
        assert_eq!(pull(2, 0.0, 3), Pull::Silent);
        assert_eq!(pull(2, 0.0, 4), Pull::Answered);
        assert_eq!(pull(3, 5.0, 1), Pull::PushLost);
        assert_eq!(pull(3, 4.9, 1), Pull::Answered);
        assert!((0..4).all(|r| plan.names_rack(RackId(r))));
        assert!(!plan.names_rack(RackId(4)));
        assert_eq!(pull(4, 5.0, 1), Pull::Answered, "unnamed");
    }

    #[test]
    fn partition_group_silences_whole_rack() {
        let rack: Vec<Address> = (1..=3).map(Address).collect();
        let plan = FaultPlan::none().partition_group(rack.clone(), Window::always());
        let mut f = FaultySource::new(source(6), plan);
        for a in &rack {
            assert!(f.poll_report(*a).is_none());
        }
        assert!(f.poll_report(Address(4)).is_some());
    }

    #[test]
    fn change_view_forwards_inner_and_always_lists_planned_hosts() {
        let plan = FaultPlan::none()
            .straggle(Address(3), 1)
            .crash(Address(1), Window::always())
            .corrupt(Address(3), Corruption::NanUsage);
        let mut f = FaultySource::new(source(4), plan);
        let mut changed = Vec::new();
        assert!(f.drain_changed(&mut changed));
        changed.clear();
        // Nothing written since: only the planned hosts, each once.
        assert!(f.drain_changed(&mut changed));
        assert_eq!(changed, vec![Address(1), Address(3)]);
        changed.clear();
        f.inner_mut().set(Address(2), HostState::gbps_idle());
        assert!(f.drain_changed(&mut changed));
        assert_eq!(changed, vec![Address(2), Address(1), Address(3)]);
    }

    #[test]
    fn straggler_misses_then_answers_on_retry() {
        let plan = FaultPlan::none().straggle(Address(1), 2);
        let mut f = FaultySource::new(source(1), plan);
        assert!(f.poll_report(Address(1)).is_none(), "round 1 times out");
        assert!(f.poll_report(Address(1)).is_none(), "round 2 times out");
        assert!(f.poll_report(Address(1)).is_some(), "round 3 arrives");
        assert_eq!(f.hosts[&Address(1)].1, 3);
    }

    #[test]
    fn every_host_fault_at_once_answers_by_precedence() {
        let t = SimTime::from_secs_f64;
        let lag = SimDuration::from_secs_f64(3.0);
        let plan = FaultPlan::none()
            .crash(Address(1), Window::between(t(0.0), t(1.0)))
            .straggle(Address(1), 2)
            .stale(Address(1), lag)
            .corrupt(Address(1), Corruption::NanUsage);
        let old = World::uniform(&[Address(1)], HostState::gbps_idle().with_down_load(0.7));
        let mut f = FaultySource::new(source(1), plan).with_stale_world(old);
        f.advance_to(t(0.5));
        assert!(f.poll_report(Address(1)).is_none(), "poll 1: crashed");
        f.advance_to(t(1.0));
        assert!(
            f.poll_report(Address(1)).is_none(),
            "poll 2: the crash is over, the straggle is not"
        );
        for at in [t(1.0), t(2.0)] {
            f.advance_to(at);
            let r = f.poll_report(Address(1)).expect("answers from poll 3 on");
            assert_eq!(r.age, lag, "stale at {at:?}");
            assert!(r.state.nic_down_used > 0.0, "the frozen reading at {at:?}");
            assert!(r.state.nic_up_used.is_nan(), "then corrupted at {at:?}");
        }
        assert_eq!(f.hosts[&Address(1)].1, 4, "silent polls count");
    }

    #[test]
    fn stale_ages_live_reading_or_serves_frozen_world() {
        let lag = SimDuration::from_secs_f64(2.0);
        let plan = FaultPlan::none().stale(Address(1), lag);
        // Without a frozen world: live state, aged.
        let mut f = FaultySource::new(source(1), plan.clone());
        let r = f.poll_report(Address(1)).unwrap();
        assert_eq!(r.age, lag);
        assert_eq!(r.state, HostState::gbps_idle());
        // With one: the old reading itself.
        let old = World::uniform(&[Address(1)], HostState::gbps_idle().with_up_load(0.9));
        let mut f = FaultySource::new(source(1), plan).with_stale_world(old);
        let r = f.poll_report(Address(1)).unwrap();
        assert_eq!(r.age, lag);
        assert!(r.state.nic_up_used > 0.0, "served the frozen busy state");
    }

    #[test]
    fn corruption_kinds_each_break_sanity() {
        for kind in Corruption::ALL {
            let broken = kind.apply(HostState::gbps_idle());
            assert!(!broken.is_sane(), "{kind:?} must produce garbage");
            assert!(broken.sanitised().is_sane(), "{kind:?} must be repairable");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_scale_with_intensity() {
        let addrs: Vec<Address> = (1..=100).map(Address).collect();
        let a = FaultPlan::seeded(7, &addrs, &FaultIntensity::chaos());
        let b = FaultPlan::seeded(7, &addrs, &FaultIntensity::chaos());
        assert_eq!(a.hosts, b.hosts);
        let crashed = a.hosts.values().filter(|h| h.crash.is_some()).count();
        assert!(
            (5..=40).contains(&crashed),
            "≈20% of 100 hosts crash, got {crashed}"
        );
        let none = FaultPlan::seeded(
            7,
            &addrs,
            &FaultIntensity {
                crash_frac: 0.0,
                partition_frac: 0.0,
                straggler_frac: 0.0,
                max_straggler_rounds: 0,
                stale_frac: 0.0,
                stale_age: SimDuration::ZERO,
                corrupt_frac: 0.0,
            },
        );
        assert!(none.host_addresses().is_empty());
    }
}
