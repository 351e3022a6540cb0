//! The contract of [`Cluster::step`], the one place a driver's calendar
//! meets the fluid network: completions before events of the same instant,
//! events a completion handler schedules for that instant drained in the
//! same step, background completions delivered when nothing else is
//! pending, and `None` once both sources are empty.

use cloudtalk::server::ServerConfig;
use cloudtalk_apps::Cluster;
use desim::{EventQueue, SimDuration, SimTime};
use simnet::engine::{TransferId, TransferSpec};
use simnet::topology::TopoOptions;
use simnet::{Topology, GBPS};

/// Drives `step` the way the HDFS and MapReduce drivers do and logs what is
/// seen, in order. A completion of `chained` schedules the event
/// `"chained"` for that same instant.
fn drive(
    c: &mut Cluster,
    events: &mut EventQueue<&'static str>,
    chained: Option<TransferId>,
) -> Vec<(SimTime, String)> {
    let mut log = Vec::new();
    let mut done = Vec::new();
    while let Some(t) = c.step(events, &mut done) {
        assert_eq!(c.now(), t);
        for completion in &done {
            assert_eq!(completion.finished, t);
            log.push((t, format!("done {}", completion.id.0)));
            if Some(completion.id) == chained {
                events.push(t, "chained");
            }
        }
        while let Some(ev) = events.pop_at(t) {
            log.push((t, ev.to_string()));
        }
    }
    log
}

#[test]
fn completions_first_then_the_instant_drained_then_none() {
    // Two disjoint transfers: `a` is done at `ta`, `b` some time later.
    let scenario = || {
        let topo = Topology::single_switch(4, GBPS, TopoOptions::default());
        let mut c = Cluster::new(topo, ServerConfig::default());
        let hosts = c.net.hosts();
        let a = c.net.start(TransferSpec::network(hosts[0], hosts[1], 1e6));
        let b = c.net.start(TransferSpec::network(hosts[2], hosts[3], 3e6));
        (c, a, b)
    };
    let tick = SimDuration::from_nanos(1);
    let early = SimTime::ZERO + tick;
    // A dry run finds `ta`; the simulation is deterministic.
    let ta = scenario().0.step(&EventQueue::<()>::new(), &mut Vec::new());
    let ta = ta.expect("a is finite");

    let (mut c, a, b) = scenario();
    let mut events = EventQueue::new();
    events.push(ta, "tied");
    events.push(ta + tick, "after");
    events.push(early, "early");
    let log = drive(&mut c, &mut events, Some(a));
    let tb = c.now();
    assert!(tb > ta + tick);
    let expect = [
        (early, "early".to_string()),
        // The completion first, then the event queued for `ta` before it
        // and the one its handler scheduled, all in one step.
        (ta, format!("done {}", a.0)),
        (ta, "tied".to_string()),
        (ta, "chained".to_string()),
        (ta + tick, "after".to_string()),
        // Nothing else pending: a background completion still arrives.
        (tb, format!("done {}", b.0)),
    ];
    assert_eq!(log, expect);
    assert_eq!(c.net.active_count(), 0);

    // Both sources are empty now, which is what ended `drive`; an unbounded
    // transfer never completes, so it is no source either.
    let hosts = c.net.hosts();
    let forever = TransferSpec::network(hosts[0], hosts[1], f64::INFINITY);
    c.net.start(forever);
    assert_eq!(c.step(&events, &mut Vec::new()), None);
    assert_eq!(c.now(), tb);
}
