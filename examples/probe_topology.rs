//! Reverse-engineering a cloud topology by probing (paper §3).
//!
//! ```text
//! cargo run --example probe_topology
//! ```

use cloudtalk_repro::probing::{infer_racks, rack_inference_accuracy, Prober};
use simnet::topology::{HostId, TopoOptions, Topology};
use simnet::{NetSim, GBPS};

fn main() {
    let topo = Topology::two_tier(4, 5, GBPS, f64::INFINITY, TopoOptions::default());
    let mut net = NetSim::new(topo);

    // Ping/traceroute a few pairs, like the paper's EC2 campaign.
    let mut prober = Prober::new(&mut net);
    for (a, b) in [(0usize, 1usize), (0, 7), (0, 19)] {
        let rtt = prober.ping(HostId(a), HostId(b));
        let hops = prober.hop_count(HostId(a), HostId(b));
        let bw = prober.iperf(HostId(a), HostId(b));
        println!(
            "host{a:>2} -> host{b:>2}: {hops} hops, rtt {:>7.1} µs, iperf {:>6.0} Mbps",
            rtt.as_micros_f64(),
            bw * 8.0 / 1e6
        );
    }
    let probes_so_far = prober.probes_sent;
    drop(prober);

    // Cluster hosts into racks from hop counts alone.
    let hosts = net.hosts();
    let inferred = infer_racks(&mut net, &hosts);
    let accuracy = rack_inference_accuracy(net.topology(), &inferred);
    println!(
        "\ninferred {} racks from {} probes (+{probes_so_far} warm-up), accuracy {:.0}%",
        inferred.groups.len(),
        inferred.probes,
        accuracy * 100.0
    );
    for (i, group) in inferred.groups.iter().enumerate() {
        let ids: Vec<usize> = group.iter().map(|h| h.0).collect();
        println!("  rack {i}: hosts {ids:?}");
    }
    println!(
        "\nprobing cost grows with the square of the fleet — the paper's\n\
         argument for an explicit provider API instead (§3.1)."
    );
}
