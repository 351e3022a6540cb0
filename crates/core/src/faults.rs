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
/// `Window::contains`, [`FaultPlan::partition_group`], the aggregator
/// fault accessors — uses these same edges.
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
    /// A mild plan: a few stragglers and stale reports, nothing fatal.
    pub(crate) fn mild() -> Self {
        FaultIntensity {
            crash_frac: 0.0,
            partition_frac: 0.0,
            straggler_frac: 0.1,
            max_straggler_rounds: 1,
            stale_frac: 0.1,
            stale_age: SimDuration::from_millis(500),
            corrupt_frac: 0.0,
        }
    }

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

impl Default for FaultIntensity {
    fn default() -> Self {
        FaultIntensity::mild()
    }
}

/// A deterministic description of every injected fault.
///
/// Build one explicitly with the `crash`/`partition`/… methods, or derive
/// one reproducibly from a seed with [`FaultPlan::seeded`]; then wrap any
/// [`StatusSource`] in a [`FaultySource`] to apply it.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    crashed: WordMap<Address, Window>,
    partitioned: WordMap<Address, Window>,
    stragglers: WordMap<Address, u32>,
    stale: WordMap<Address, SimDuration>,
    corrupt: WordMap<Address, Corruption>,
    // Aggregator-tier faults (BTreeMaps: iterated during the sync ladder,
    // so ordering must be deterministic).
    agg_crashed: BTreeMap<RackId, Window>,
    agg_partitioned: BTreeMap<RackId, Window>,
    agg_stragglers: BTreeMap<RackId, u32>,
    agg_mid_push: BTreeMap<RackId, Window>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crashes `addr`'s status server during `window`.
    pub fn crash(mut self, addr: Address, window: Window) -> Self {
        self.crashed.insert(addr, window);
        self
    }

    /// Partitions `addr` away from the CloudTalk server during `window`.
    pub fn partition(mut self, addr: Address, window: Window) -> Self {
        self.partitioned.insert(addr, window);
        self
    }

    /// Partitions a whole group (e.g. every host of a rack) at once.
    pub fn partition_group(
        mut self,
        addrs: impl IntoIterator<Item = Address>,
        window: Window,
    ) -> Self {
        for a in addrs {
            self.partitioned.insert(a, window);
        }
        self
    }

    /// Makes `addr`'s first `rounds` replies exceed the gather timeout.
    pub fn straggle(mut self, addr: Address, rounds: u32) -> Self {
        self.stragglers.insert(addr, rounds);
        self
    }

    /// Makes `addr` serve reports that are `age` old.
    pub fn stale(mut self, addr: Address, age: SimDuration) -> Self {
        self.stale.insert(addr, age);
        self
    }

    /// Makes `addr` serve readings corrupted by `kind`.
    pub fn corrupt(mut self, addr: Address, kind: Corruption) -> Self {
        self.corrupt.insert(addr, kind);
        self
    }

    /// Crashes `rack`'s primary aggregator during `window` (state lost;
    /// it restarts with a fresh incarnation when the window closes).
    pub fn agg_crash(mut self, rack: RackId, window: Window) -> Self {
        self.agg_crashed.insert(rack, window);
        self
    }

    /// Partitions `rack`'s primary aggregator away from the collector
    /// during `window` (the aggregator is healthy, pulls just never
    /// complete; no state is lost).
    pub fn agg_partition(mut self, rack: RackId, window: Window) -> Self {
        self.agg_partitioned.insert(rack, window);
        self
    }

    /// Makes the first `rounds` pulls of `rack`'s primary aggregator
    /// exceed the pull timeout; a retry recovers it.
    pub fn agg_straggle(mut self, rack: RackId, rounds: u32) -> Self {
        self.agg_stragglers.insert(rack, rounds);
        self
    }

    /// Crashes `rack`'s primary aggregator *mid-push* once inside
    /// `window`: the delta it was sending is delayed in flight (to be
    /// rejected later by the epoch rules) and the aggregator restarts
    /// with a fresh incarnation.
    pub fn agg_crash_mid_push(mut self, rack: RackId, window: Window) -> Self {
        self.agg_mid_push.insert(rack, window);
        self
    }

    /// Whether `rack`'s primary aggregator is crashed at `now`.
    pub(crate) fn agg_crashed_at(&self, rack: RackId, now: SimTime) -> bool {
        self.agg_crashed.get(&rack).is_some_and(|w| w.contains(now))
    }

    /// Whether `rack`'s primary aggregator is partitioned at `now`.
    pub(crate) fn agg_partitioned_at(&self, rack: RackId, now: SimTime) -> bool {
        self.agg_partitioned
            .get(&rack)
            .is_some_and(|w| w.contains(now))
    }

    /// How many pulls of `rack`'s primary aggregator straggle.
    pub(crate) fn agg_straggle_rounds(&self, rack: RackId) -> u32 {
        self.agg_stragglers.get(&rack).copied().unwrap_or(0)
    }

    /// Whether `rack`'s aggregator suffers a mid-push crash at `now`.
    pub(crate) fn agg_crash_mid_push_at(&self, rack: RackId, now: SimTime) -> bool {
        self.agg_mid_push.get(&rack).is_some_and(|w| w.contains(now))
    }

    /// Whether the plan holds any aggregator-tier entry for `rack`,
    /// whatever its window: such a rack always walks the whole failover
    /// ladder, it is never settled by the plane's clean-rack fast path.
    pub(crate) fn agg_faulted(&self, rack: RackId) -> bool {
        self.agg_crashed.contains_key(&rack)
            || self.agg_partitioned.contains_key(&rack)
            || self.agg_stragglers.contains_key(&rack)
            || self.agg_mid_push.contains_key(&rack)
    }

    /// Every address a host-tier entry names, sorted, each once.
    fn host_addresses(&self) -> Vec<Address> {
        let mut named: Vec<Address> = self
            .crashed
            .keys()
            .chain(self.partitioned.keys())
            .chain(self.stragglers.keys())
            .chain(self.stale.keys())
            .chain(self.corrupt.keys())
            .copied()
            .collect();
        named.sort_unstable_by_key(|a| a.0);
        named.dedup();
        named
    }

    /// The crash window configured for `rack`'s primary aggregator, if
    /// any (restart handling keys off [`Window::ended_by`]).
    pub(crate) fn agg_crash_window(&self, rack: RackId) -> Option<Window> {
        self.agg_crashed.get(&rack).copied()
    }

    /// Derives a plan over `addrs` reproducibly from `seed`: each host
    /// independently rolls each fault class at the configured intensity.
    pub fn seeded(seed: u64, addrs: &[Address], intensity: &FaultIntensity) -> Self {
        let mut rng = stream_rng(seed, 0xFA17);
        let mut plan = FaultPlan::none();
        for &addr in addrs {
            if intensity.crash_frac > 0.0 && rng.gen_bool(intensity.crash_frac) {
                plan.crashed.insert(addr, Window::always());
            }
            if intensity.partition_frac > 0.0 && rng.gen_bool(intensity.partition_frac) {
                plan.partitioned.insert(addr, Window::always());
            }
            if intensity.straggler_frac > 0.0 && rng.gen_bool(intensity.straggler_frac) {
                let rounds = rng.gen_range(1..=intensity.max_straggler_rounds.max(1));
                plan.stragglers.insert(addr, rounds);
            }
            if intensity.stale_frac > 0.0 && rng.gen_bool(intensity.stale_frac) {
                plan.stale.insert(addr, intensity.stale_age);
            }
            if intensity.corrupt_frac > 0.0 && rng.gen_bool(intensity.corrupt_frac) {
                let kind = Corruption::ALL[rng.gen_range(0..Corruption::ALL.len())];
                plan.corrupt.insert(addr, kind);
            }
        }
        plan
    }
}

/// A decorator applying a [`FaultPlan`] to any [`StatusSource`].
///
/// Time-dependent faults (crash/partition windows) are evaluated against
/// the time of the last [`StatusSource::advance_to`], which every gatherer
/// calls before it polls and which the decorator forwards inward, along
/// with the inner source's sync trace and change view; straggler faults are
/// evaluated against a per-host attempt counter, so a retry round
/// naturally recovers a straggler once its configured miss count is
/// exhausted. Stale faults serve either the inner source's reading aged
/// by the configured lag, or — when a frozen world was attached with
/// [`FaultySource::with_stale_world`] — the old reading itself.
///
/// Change view ([`StatusSource::drain_changed`]): the inner source's,
/// plus — always — every address the plan names, because a window
/// opening, an attempt counter or a frozen world can change such a host's
/// answer without the inner source noticing. Hosts the plan does not name
/// are passed straight through, so the inner view is exact for them.
pub struct FaultySource<S> {
    inner: S,
    plan: FaultPlan,
    /// `plan.host_addresses()`, computed once.
    named: Vec<Address>,
    now: SimTime,
    stale_view: Option<World>,
    attempts: WordMap<Address, u32>,
}

impl<S> FaultySource<S> {
    /// Wraps `inner`, applying `plan` to every poll.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySource {
            inner,
            named: plan.host_addresses(),
            plan,
            now: SimTime::ZERO,
            stale_view: None,
            attempts: WordMap::default(),
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
    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        let attempt = {
            let a = self.attempts.entry(addr).or_insert(0);
            *a += 1;
            *a
        };
        let open = |w: Option<&Window>| w.is_some_and(|w| w.contains(self.now));
        if open(self.plan.crashed.get(&addr)) || open(self.plan.partitioned.get(&addr)) {
            return None;
        }
        if self
            .plan
            .stragglers
            .get(&addr)
            .is_some_and(|&rounds| attempt <= rounds)
        {
            return None; // reply will arrive after the timeout: missed round
        }
        let mut report = match self.plan.stale.get(&addr) {
            Some(&lag) => match &self.stale_view {
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
        if let Some(&kind) = self.plan.corrupt.get(&addr) {
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

    fn take_sync_trace(&mut self) -> Option<obs::TraceReport> {
        self.inner.take_sync_trace()
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
        assert!(!plan.agg_crashed_at(RackId(0), t(0.5)));
        assert!(plan.agg_crashed_at(RackId(0), t(1.0)));
        assert!(!plan.agg_crashed_at(RackId(0), t(2.0)), "until exclusive");
        assert!(plan.agg_crash_window(RackId(0)).unwrap().ended_by(t(2.0)));
        assert!(plan.agg_partitioned_at(RackId(1), t(99.0)));
        assert!(!plan.agg_partitioned_at(RackId(0), t(99.0)));
        assert_eq!(plan.agg_straggle_rounds(RackId(2)), 3);
        assert_eq!(plan.agg_straggle_rounds(RackId(0)), 0);
        assert!(plan.agg_crash_mid_push_at(RackId(3), t(5.0)));
        assert!(!plan.agg_crash_mid_push_at(RackId(3), t(4.9)));
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
        assert_eq!(f.attempts[&Address(1)], 3);
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
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.stragglers, b.stragglers);
        assert_eq!(a.stale, b.stale);
        assert_eq!(a.corrupt, b.corrupt);
        let crashed = a.crashed.len();
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
