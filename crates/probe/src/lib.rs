//! Cloud probing toolkit and topology inference (paper §3).
//!
//! The paper reverse-engineered EC2's network with ping, traceroute and
//! iperf, clustering VMs into hosts/racks/subnets by hop counts and RTTs.
//! This crate reproduces that methodology against a [`simnet::Topology`]
//! whose ground truth is known, so the inference can be validated — and
//! the *cost* of probing (the paper's argument against it) can be
//! quantified.
//!
//! * [`Prober::ping`] — round-trip time along the routed path.
//! * [`Prober::hop_count`] — the hop *count*, which is all traceroute
//!   still reveals on a tunneled fabric (what EC2 looks like since ~2015).
//! * [`Prober::iperf`] — available-bandwidth measurement by briefly
//!   installing a greedy flow in the live network (disruptive, §3.1).
//! * [`infer_racks`] — cluster hosts into racks by mutual hop count.

#![warn(missing_docs)]

use desim::SimDuration;
use simnet::routing::Router;
use simnet::topology::{HostId, Topology};
use simnet::{engine::TransferSpec, NetSim};

/// A probing session over a live cluster.
pub struct Prober<'a> {
    net: &'a mut NetSim,
    router: Router,
    /// Probes issued (the overhead the paper worries about).
    pub probes_sent: u64,
}

impl<'a> Prober<'a> {
    /// Creates a prober over the live network.
    pub fn new(net: &'a mut NetSim) -> Self {
        Prober {
            net,
            router: Router::new(),
            probes_sent: 0,
        }
    }

    /// Round-trip time between two hosts (sum of per-hop latencies, both
    /// ways). Queueing delay is not modelled — the fluid substrate has no
    /// packet queues — so this is an unloaded-path RTT, which is exactly
    /// what hop-count clustering relies on (§3.1: "ping times are
    /// correlated with the number of traceroute hops").
    pub fn ping(&mut self, a: HostId, b: HostId) -> SimDuration {
        self.probes_sent += 1;
        let topo = self.net.topology();
        let mut rtt = SimDuration::ZERO;
        for hop in self.router.route(topo, a, b, 0) {
            rtt += topo.link(hop.link).latency * 2;
        }
        rtt
    }

    /// Measures achievable throughput from `a` to `b` right now by
    /// installing a greedy flow, reading its allocated rate, and removing
    /// it. The measurement itself perturbs every flow sharing the path —
    /// the §3.1 objection to large-scale tenant probing.
    pub fn iperf(&mut self, a: HostId, b: HostId) -> f64 {
        self.probes_sent += 1;
        let id = self.net.start(TransferSpec::network(a, b, f64::INFINITY));
        let rate = self.net.rate(id).expect("just started");
        self.net.cancel(id);
        rate
    }

    /// Hop count between two hosts (what traceroute reveals even in
    /// tunneled mode).
    pub fn hop_count(&mut self, a: HostId, b: HostId) -> usize {
        self.probes_sent += 1;
        let topo = self.net.topology();
        self.router.hop_count(topo, a, b)
    }
}

/// Result of rack inference.
#[derive(Clone, Debug)]
pub struct InferredRacks {
    /// Host groups believed to share a rack.
    pub groups: Vec<Vec<HostId>>,
    /// Probes spent on the inference (grows quadratically — the paper's
    /// scalability complaint).
    pub probes: u64,
}

/// Clusters hosts into racks: two hosts sharing a rack see each other at
/// the minimum observed hop count (host → ToR → host = 2).
pub fn infer_racks(net: &mut NetSim, hosts: &[HostId]) -> InferredRacks {
    let mut prober = Prober::new(net);
    let mut groups: Vec<Vec<HostId>> = Vec::new();
    let mut assigned: Vec<bool> = vec![false; hosts.len()];
    for i in 0..hosts.len() {
        if assigned[i] {
            continue;
        }
        let mut group = vec![hosts[i]];
        assigned[i] = true;
        for j in (i + 1)..hosts.len() {
            if !assigned[j] && prober.hop_count(hosts[i], hosts[j]) <= 2 {
                group.push(hosts[j]);
                assigned[j] = true;
            }
        }
        groups.push(group);
    }
    InferredRacks {
        groups,
        probes: prober.probes_sent,
    }
}

/// Fraction of host pairs whose inferred same-rack relation matches the
/// ground truth (1.0 = perfect inference).
pub fn rack_inference_accuracy(topo: &Topology, inferred: &InferredRacks) -> f64 {
    let mut group_of = std::collections::HashMap::new();
    for (g, hosts) in inferred.groups.iter().enumerate() {
        for &h in hosts {
            group_of.insert(h, g);
        }
    }
    let hosts: Vec<HostId> = inferred.groups.iter().flatten().copied().collect();
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            total += 1;
            let truth = topo.host(hosts[i]).rack == topo.host(hosts[j]).rack;
            let guess = group_of[&hosts[i]] == group_of[&hosts[j]];
            if truth == guess {
                correct += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    fn two_tier(racks: usize, per_rack: usize) -> NetSim {
        NetSim::new(Topology::two_tier(
            racks,
            per_rack,
            GBPS,
            f64::INFINITY,
            TopoOptions::default(),
        ))
    }

    #[test]
    fn ping_correlates_with_hops() {
        let mut net = two_tier(2, 3);
        let mut p = Prober::new(&mut net);
        let same_rack = p.ping(HostId(0), HostId(1));
        let cross_rack = p.ping(HostId(0), HostId(4));
        assert!(cross_rack > same_rack);
        assert_eq!(p.probes_sent, 2);
    }

    #[test]
    fn iperf_measures_and_releases() {
        let mut net = two_tier(2, 2);
        {
            let mut p = Prober::new(&mut net);
            let bw = p.iperf(HostId(0), HostId(2));
            assert!((bw - GBPS).abs() < 1e-3, "idle path measures NIC rate: {bw}");
        }
        assert_eq!(net.active_count(), 0, "probe flow removed");
    }

    #[test]
    fn iperf_sees_background_contention() {
        let mut net = two_tier(1, 3);
        net.start(TransferSpec::network(HostId(1), HostId(2), f64::INFINITY));
        let mut p = Prober::new(&mut net);
        let bw = p.iperf(HostId(0), HostId(2));
        assert!(
            (bw - GBPS / 2.0).abs() < 1e-3,
            "shared downlink halves the probe: {bw}"
        );
    }

    #[test]
    fn rack_inference_recovers_ground_truth() {
        let mut net = two_tier(4, 5);
        let hosts = net.hosts();
        let inferred = infer_racks(&mut net, &hosts);
        assert_eq!(inferred.groups.len(), 4);
        let accuracy = rack_inference_accuracy(net.topology(), &inferred);
        assert_eq!(accuracy, 1.0);
    }

    #[test]
    fn probe_cost_grows_quadratically() {
        let mut net = two_tier(4, 5);
        let hosts = net.hosts();
        let inferred = infer_racks(&mut net, &hosts);
        // 20 hosts → up to 190 pairwise probes; at least n-1.
        assert!(inferred.probes >= 19);
        assert!(inferred.probes <= 190);
    }
}
