//! The calendar of lanes against the event core it replaced.
//!
//! [`reference_sim`] is the pre-calendar `sim.rs`: one global
//! `desim::EventQueue` holding an entry per packet in flight, RTO restarts
//! as eager cancel + push. `pktsim::PktSim` must be indistinguishable from
//! it — not just in where flows end up, but event for event: after every
//! `step()` both clocks read the same, both fire the same number of
//! events, and flows complete in the same order.

mod reference_sim;

use desim::SimTime;
use pktsim::{FlowIdx, PktSim, SimConfig, TrafficClass};
use proptest::prelude::*;
use simnet::topology::{TopoOptions, Topology};
use simnet::GBPS;

#[derive(Clone, Debug)]
enum Shape {
    Star(usize),
    /// racks, hosts per rack, oversubscribed uplinks
    TwoTier(usize, usize, bool),
    /// racks, hosts per rack
    Vl2(usize, usize),
}

impl Shape {
    fn build(&self) -> Topology {
        let opts = TopoOptions::default();
        match *self {
            Shape::Star(n) => Topology::single_switch(n, GBPS, opts),
            Shape::TwoTier(racks, per_rack, oversubscribed) => {
                let uplink = if oversubscribed { GBPS } else { f64::INFINITY };
                Topology::two_tier(racks, per_rack, GBPS, uplink, opts)
            }
            Shape::Vl2(racks, per_rack) => Topology::vl2(racks, per_rack, GBPS, opts),
        }
    }
}

/// One flow: endpoints (reduced modulo the host count, so loopbacks
/// occur), bytes, start in ns, lossless class.
type FlowSpec = (usize, usize, u64, u64, bool);

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (2usize..24).prop_map(Shape::Star),
        (2usize..5, 2usize..6, any::<bool>()).prop_map(|(r, h, o)| Shape::TwoTier(r, h, o)),
        (4usize..9, 2usize..4).prop_map(|(r, h)| Shape::Vl2(r, h)),
    ]
}

fn flow_specs() -> impl Strategy<Value = Vec<FlowSpec>> {
    // Mostly mice (they are what incast is made of), some elephants up to
    // 2 MB; starts tied at zero or staggered over 50 ms; one flow in five
    // is lossless.
    let bytes = (0u8..7, 0u64..2_000_000).prop_map(|(weight, r)| match weight {
        0..=3 => 1 + r % 20_000,
        4 | 5 => 20_000 + r % 180_000,
        _ => 200_000 + r % 1_800_000,
    });
    let start = prop_oneof![Just(0u64), 0u64..50_000_000];
    let lossless = (0u8..5).prop_map(|x| x == 0);
    proptest::collection::vec((0usize..1000, 0usize..1000, bytes, start, lossless), 1..120)
}

fn configs() -> impl Strategy<Value = SimConfig> {
    (4usize..256, any::<bool>(), any::<bool>()).prop_map(|(buffer, pfc, jitter)| {
        let mut cfg = SimConfig::default().with_buffer(buffer);
        if pfc {
            cfg = cfg.with_pfc();
        }
        if jitter {
            cfg = cfg.with_rto_jitter(0.5);
        }
        cfg
    })
}

fn class(lossless: bool) -> TrafficClass {
    if lossless {
        TrafficClass::Lossless
    } else {
        TrafficClass::Lossy
    }
}

/// Adds `specs` to either simulator (they share method names, not a
/// trait) and evaluates to the flow handles.
macro_rules! load {
    ($sim:expr, $specs:expr) => {{
        let hosts = $sim.topology().host_ids();
        $specs
            .iter()
            .map(|&(a, b, bytes, start, lossless): &FlowSpec| {
                $sim.add_flow_with_class(
                    hosts[a % hosts.len()],
                    hosts[b % hosts.len()],
                    bytes,
                    SimTime::from_nanos(start),
                    class(lossless),
                )
            })
            .collect::<Vec<FlowIdx>>()
    }};
}

/// Everything a run leaves behind that a caller can observe.
#[derive(Debug, PartialEq)]
struct Trace {
    steps: u64,
    now: SimTime,
    /// finish, retransmits, timeouts — per flow.
    flows: Vec<(Option<SimTime>, u64, u64)>,
    completed: Vec<FlowIdx>,
    data_sent: u64,
    drops: u64,
    drops_per_port: Vec<(usize, u64)>,
    timeouts: u64,
}

/// The trace of either simulator; the reference keeps no completion
/// list, so the caller supplies what it observed.
macro_rules! trace {
    ($sim:expr, $flows:expr, $steps:expr, $completed:expr) => {{
        let st = $sim.stats();
        Trace {
            steps: $steps,
            now: $sim.now(),
            flows: $flows
                .iter()
                .map(|&f| {
                    (
                        $sim.finish_time(f),
                        $sim.flow_retransmits(f),
                        $sim.flow_timeouts(f),
                    )
                })
                .collect(),
            completed: $completed,
            data_sent: st.data_sent,
            drops: st.drops,
            drops_per_port: st.drops_per_port.iter().map(|(&p, &n)| (p, n)).collect(),
            timeouts: st.timeouts,
        }
    }};
}

/// Steps both simulators in lockstep to the end, comparing clocks after
/// every event; returns the calendar simulator's trace after checking it
/// against the reference's.
fn lockstep(topo: Topology, cfg: SimConfig, specs: &[FlowSpec]) -> Result<Trace, TestCaseError> {
    let mut new = PktSim::new(topo.clone(), cfg);
    let mut old = reference_sim::PktSim::new(topo, cfg);
    let flows = load!(new, specs);
    prop_assert_eq!(&flows, &load!(old, specs));

    // The reference has no completion list: watch its flows turn finished.
    let mut old_completed = Vec::new();
    let mut unfinished = flows.clone();
    let mut steps = 0u64;
    loop {
        let (a, b) = (new.step(), old.step());
        prop_assert_eq!(a, b, "one simulator drained first, after {} steps", steps);
        if !a {
            break;
        }
        steps += 1;
        prop_assert_eq!(new.now(), old.now(), "clocks differ after step {}", steps);
        unfinished.retain(|&f| {
            let done = old.finish_time(f).is_some();
            if done {
                old_completed.push(f);
            }
            !done
        });
        prop_assert_eq!(new.completed(), &old_completed[..], "step {}", steps);
    }

    let got = trace!(new, flows, steps, new.completed().to_vec());
    let want = trace!(old, flows, steps, old_completed);
    prop_assert_eq!(&got, &want);
    prop_assert!(new.all_complete() && old.all_complete());
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event for event, the calendar of lanes is the global heap.
    #[test]
    fn calendar_fires_the_reference_order(
        shape in shapes(),
        cfg in configs(),
        specs in flow_specs(),
    ) {
        lockstep(shape.build(), cfg, &specs)?;
    }

    /// Stopping at a deadline and resuming changes nothing, and the stop
    /// itself lands where the reference's does.
    #[test]
    fn run_until_then_idle_equals_one_run(
        shape in shapes(),
        cfg in configs(),
        specs in flow_specs(),
        deadline_ns in 0u64..600_000_000,
    ) {
        let topo = shape.build();
        let deadline = SimTime::from_nanos(deadline_ns);

        let mut whole = PktSim::new(topo.clone(), cfg);
        let flows = load!(whole, specs);
        let end = whole.run_until_idle();

        let mut split = PktSim::new(topo.clone(), cfg);
        let _ = load!(split, specs);
        split.run_until(deadline);
        let mut old = reference_sim::PktSim::new(topo, cfg);
        let _ = load!(old, specs);
        old.run_until(deadline);
        prop_assert_eq!(split.now(), old.now());
        for &f in &flows {
            prop_assert_eq!(split.finish_time(f), old.finish_time(f));
        }
        prop_assert_eq!(split.stats().drops, old.stats().drops);

        prop_assert_eq!(split.run_until_idle(), end);
        // Step counts are not comparable across the two (run_until does
        // not report them); everything else is.
        let mut want = trace!(whole, flows, 0, whole.completed().to_vec());
        // A deadline past the last event leaves the clock at the deadline.
        want.now = want.now.max_of(deadline);
        prop_assert_eq!(trace!(split, flows, 0, split.completed().to_vec()), want);
    }
}

/// The one place the calendar pushes a second timer entry for a flow: an
/// RTO fires (backoff 2, stand-in armed 400 ms out), the retransmission is
/// ACKed within an RTT, the backoff resets and the timer restarts 200 ms
/// out — *ahead* of the armed stand-in, which can no longer represent it.
/// The superseded stand-in is still in the calendar when the earlier one
/// fires or is itself restarted, and must be dropped, not fired, when its
/// time comes. A 30-way incast of 40-packet flows into an 8-packet buffer
/// does this to most of its flows, several times each.
#[test]
fn rto_backoff_reset_under_a_later_stand_in() {
    let topo = Topology::single_switch(31, GBPS, TopoOptions::default());
    let specs: Vec<FlowSpec> = (0..30).map(|i| (i, 30, 60_000, 0, false)).collect();
    for jitter in [0.0, 0.5] {
        let cfg = SimConfig::default().with_buffer(8).with_rto_jitter(jitter);
        let t = lockstep(topo.clone(), cfg, &specs).expect("calendar matches the reference");
        // A 40-packet flow that timed out and still finished was ACKed
        // after the timeout with data left to send — the restart above.
        let recovered = t
            .flows
            .iter()
            .filter(|(finish, _, timeouts)| finish.is_some() && *timeouts >= 1)
            .count();
        assert!(
            recovered >= 20,
            "only {recovered} flows timed out and recovered"
        );
    }
}
