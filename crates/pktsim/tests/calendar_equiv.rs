//! The packet simulator's three event queues (the per-delay FIFO lanes of
//! packet events, the start queue, the timer queue) against the event core
//! they replaced.
//!
//! [`reference_sim`] is the pre-lane `sim.rs`: one global
//! `desim::EventQueue` holding an entry per packet in flight, RTO restarts
//! as eager cancel + push. `pktsim::PktSim` must be indistinguishable from
//! it — not just in where flows end up, but event for event: after every
//! `step()` both clocks read the same, both fire the same number of
//! events, and flows complete in the same order.

mod reference_sim;

use desim::{SimDuration, SimTime};
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
/// every event; returns `pktsim::PktSim`'s trace after checking it
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

    /// Event for event, the three queues are the global heap.
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

    /// With zero link latency a packet arrives at the instant it leaves
    /// its serialiser: its arrival waits in a zero-delay lane under the
    /// key `(now, seq)`, behind every event already due at `now`.
    #[test]
    fn zero_latency_fires_the_reference_order(
        racks in 1usize..5,
        per_rack in 2usize..6,
        cfg in configs(),
        specs in flow_specs(),
    ) {
        let opts = TopoOptions { link_latency: SimDuration::ZERO, ..TopoOptions::default() };
        lockstep(Topology::two_tier(racks, per_rack, GBPS, GBPS, opts), cfg, &specs)?;
    }
}

/// Flows scheduled *while stepping*, the way `apps::websearch::sweep_load`
/// drives the simulator for Figure 11 and the `paper_apps` benchmark: a
/// VL2 fabric of 12 racks × 10 hosts, 100 leaves split between two
/// aggregators, 3 queries at 20 qps, each leaf's response delayed by its
/// per-(query, leaf) search time. Each group's upward flow is added at
/// `now()` from inside the step loop, the moment the group's last leaf
/// flow completes — while later queries' leaf flows still wait to start
/// and earlier ones' timers are still queued. Clocks are compared after
/// every step, then the completion order and the final trace.
#[test]
fn flows_added_mid_run_fire_the_reference_order() {
    const QUERIES: usize = 3;
    const RESPONSE: u64 = 10 * 1024;
    let topo = Topology::vl2(12, 10, GBPS, TopoOptions::default());
    let hosts = topo.host_ids();
    let frontend = hosts[0];
    let groups = [(hosts[1], &hosts[20..70]), (hosts[51], &hosts[70..120])];
    let cfg = SimConfig::default();
    let mut new = PktSim::new(topo.clone(), cfg);
    let mut old = reference_sim::PktSim::new(topo, cfg);

    // Leaf flows, query by query: `owner[f]` is flow f's (query, group).
    let spacing = SimDuration::from_secs_f64(1.0 / 20.0);
    let mut owner = Vec::new();
    let mut last_start = SimTime::ZERO;
    for q in 0..QUERIES {
        for (g, &(agg, leaves)) in groups.iter().enumerate() {
            for (li, &leaf) in leaves.iter().enumerate() {
                let jitter_ns = desim::rng::derive_seed(q as u64, li as u64) % 40_000_000;
                let start = SimTime::ZERO + spacing * q as u64 + SimDuration::from_nanos(jitter_ns);
                last_start = last_start.max_of(start);
                let f = new.add_flow(leaf, agg, RESPONSE, start);
                assert_eq!(f, old.add_flow(leaf, agg, RESPONSE, start));
                owner.push((q, g));
            }
        }
    }
    let stage1 = owner.len();
    let mut left = [[groups[0].1.len(), groups[1].1.len()]; QUERIES];
    let mut upward_at = Vec::new();

    let mut flows: Vec<FlowIdx> = (0..stage1).map(FlowIdx).collect();
    let mut unfinished = flows.clone();
    let mut old_completed = Vec::new();
    let mut seen = 0;
    let mut steps = 0u64;
    loop {
        let (a, b) = (new.step(), old.step());
        assert_eq!(a, b, "one simulator drained first, after {steps} steps");
        if !a {
            break;
        }
        steps += 1;
        assert_eq!(new.now(), old.now(), "clocks differ after step {steps}");
        unfinished.retain(|&f| {
            let done = old.finish_time(f).is_some();
            if done {
                old_completed.push(f);
            }
            !done
        });
        assert_eq!(new.completed(), &old_completed[..], "step {steps}");
        while let Some(&f) = new.completed().get(seen) {
            seen += 1;
            let Some(&(q, g)) = owner.get(f.0) else {
                continue;
            };
            left[q][g] -= 1;
            if left[q][g] == 0 {
                let (agg, leaves) = groups[g];
                let combined = RESPONSE * leaves.len() as u64;
                let up = new.add_flow(agg, frontend, combined, new.now());
                assert_eq!(up, old.add_flow(agg, frontend, combined, old.now()));
                flows.push(up);
                unfinished.push(up);
                upward_at.push(new.now());
            }
        }
    }

    assert_eq!(upward_at.len(), 2 * QUERIES, "every group forwarded upward");
    assert!(
        upward_at[0] < last_start,
        "the first upward flow ({:?}) was added after every leaf had started ({last_start:?})",
        upward_at[0]
    );
    let got = trace!(new, flows, steps, new.completed().to_vec());
    let want = trace!(old, flows, steps, old_completed);
    assert_eq!(got, want);
    assert!(new.all_complete() && old.all_complete());
}

/// The one place the timer queue gets a second entry for a flow: an
/// RTO fires (backoff 2, stand-in armed 400 ms out), the retransmission is
/// ACKed within an RTT, the backoff resets and the timer restarts 200 ms
/// out — *ahead* of the armed stand-in, which can no longer represent it.
/// The superseded stand-in is still in the timer queue when the earlier one
/// fires or is itself restarted, and must be dropped, not fired, when its
/// time comes. A 30-way incast of 40-packet flows into an 8-packet buffer
/// does this to most of its flows, several times each.
#[test]
fn rto_backoff_reset_under_a_later_stand_in() {
    let topo = Topology::single_switch(31, GBPS, TopoOptions::default());
    let specs: Vec<FlowSpec> = (0..30).map(|i| (i, 30, 60_000, 0, false)).collect();
    for jitter in [0.0, 0.5] {
        let cfg = SimConfig::default().with_buffer(8).with_rto_jitter(jitter);
        let t = lockstep(topo.clone(), cfg, &specs).expect("the queues match the reference");
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
