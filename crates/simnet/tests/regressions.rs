//! Regression tests for bugs found while bringing the substrate up.

use desim::SimTime;
use simnet::engine::{NetSim, TransferSpec};
use simnet::sharing::{is_feasible, max_min_rates, Demand, MAX_INELASTIC_FRACTION};
use simnet::topology::{HostId, NodeId, TopoOptions, Topology};
use simnet::{GBPS, MBPS};

/// A remaining sliver whose transfer time truncates to zero integer
/// nanoseconds used to stall `advance_to` forever.
#[test]
fn sub_nanosecond_slivers_terminate() {
    let topo = Topology::single_switch(3, GBPS, TopoOptions::default());
    let mut net = NetSim::new(topo);
    let h = net.hosts();
    // Sizes chosen so repeated rate changes leave fractional-byte tails.
    let a = net.start(TransferSpec::network(h[0], h[2], 1e8 + 0.3));
    let b = net.start(TransferSpec::network(h[1], h[2], 3.33e7 + 0.7));
    let done = net.advance_to(SimTime::from_secs_f64(1e4));
    assert_eq!(done.len(), 2);
    let _ = (a, b);
}

/// A sliver re-keyed with nothing else in its batch leaves the rates
/// clean, so the re-key itself must tell the engine that its earliest
/// completion moved — or `advance_to` spins on the instant it just served.
#[test]
fn a_sliver_alone_in_its_batch_moves_the_next_completion() {
    let topo = Topology::single_switch(2, GBPS, TopoOptions::default());
    let mut net = NetSim::new(topo);
    let h = net.hosts();
    // Petabytes: after one rate change the long transfer's banked progress
    // lands an ulp (about a byte) short of its size at the computed ETA.
    let bytes = 3.14159e15 * 2.11;
    net.start(TransferSpec::network(h[0], h[1], bytes));
    net.start(TransferSpec::network(h[0], h[1], bytes / 3.0));
    let done = net.advance_to(SimTime::from_secs_f64(1e9));
    assert_eq!(done.len(), 2);
    assert_eq!(net.stats().events, 3, "the long transfer needs a second event");
}

/// An inelastic demand listing the same resource twice must be clipped
/// against its *total* usage there (found by proptest).
#[test]
fn duplicate_resource_inelastic_is_feasible() {
    let caps = [1.0];
    let demands = [Demand::inelastic(vec![(0, 0.5), (0, 0.5)], 26.29)];
    let rates = max_min_rates(&caps, &demands);
    assert!(is_feasible(&caps, &demands, &rates), "{rates:?}");
}

/// Line-rate UDP cannot permanently starve elastic traffic: MapReduce
/// fetches from a node whose uplink carries a full-rate UDP blast used to
/// hang forever at rate zero.
#[test]
fn elastic_traffic_survives_full_rate_udp() {
    let topo = Topology::single_switch(3, GBPS, TopoOptions::default());
    let mut net = NetSim::new(topo);
    let h = net.hosts();
    net.start(TransferSpec::network(h[0], h[1], f64::INFINITY).with_inelastic(2.0 * GBPS));
    let fetch = net.start(TransferSpec::network(h[0], h[2], 1e6));
    let rate = net.rate(fetch).unwrap();
    assert!(
        rate >= (1.0 - MAX_INELASTIC_FRACTION) * GBPS * 0.9,
        "elastic flow must trickle: {rate}"
    );
    let done = net.advance_to(SimTime::from_secs_f64(1e3));
    assert!(done.iter().any(|c| c.id == fetch));
}

/// `Topology::ec2` truncation across a rack boundary must drop the
/// emptied ToR cleanly (301 hosts over 20 racks of 16 removes 19).
#[test]
fn ec2_truncation_preserves_graph_invariants() {
    for (n, racks) in [(301usize, 20usize), (101, 10), (60, 6), (7, 3)] {
        let t = Topology::ec2(n, 500.0 * MBPS, racks, TopoOptions::default());
        assert_eq!(t.host_count(), n, "n={n} racks={racks}");
        for node in 0..t.node_count() {
            for &(peer, link) in t.neighbours(NodeId(node)) {
                assert!(peer.0 < t.node_count());
                assert!(link.0 < t.link_count());
                let l = t.link(link);
                assert!(l.a == NodeId(node) || l.b == NodeId(node));
            }
        }
        // Every host can route to host 0.
        let mut r = simnet::routing::Router::new();
        for i in 1..n {
            let _ = r.route(&t, HostId(0), HostId(i), 0);
        }
    }
}

/// Completion ordering is chronological even when many transfers end in
/// the same recompute round.
#[test]
fn simultaneous_completions_are_chronological() {
    let topo = Topology::single_switch(9, GBPS, TopoOptions::default());
    let mut net = NetSim::new(topo);
    let h = net.hosts();
    for i in 0..8 {
        net.start(TransferSpec::network(h[i], h[8], GBPS / 8.0));
    }
    let done = net.advance_to(SimTime::from_secs_f64(100.0));
    assert_eq!(done.len(), 8);
    for w in done.windows(2) {
        assert!(w[0].finished <= w[1].finished);
    }
}
