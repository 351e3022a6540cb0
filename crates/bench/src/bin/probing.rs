//! §3 / Figure 1: probing a cloud and inferring its topology, plus the
//! cost argument against tenant-side probing.
//!
//! ```text
//! cargo run --release -p cloudtalk-bench --bin probing
//! ```

use probe::{infer_racks, rack_inference_accuracy, Prober};
use simnet::topology::{HostId, TopoOptions, Topology};
use simnet::{NetSim, GBPS};

fn main() {
    println!("§3: probing and topology inference over a known ground truth\n");

    for (name, racks, per_rack) in [("small", 4usize, 5usize), ("medium", 10, 10), ("large", 20, 15)] {
        let topo = Topology::two_tier(racks, per_rack, GBPS, f64::INFINITY, TopoOptions::default());
        let mut net = NetSim::new(topo);
        let hosts = net.hosts();
        let inferred = infer_racks(&mut net, &hosts);
        let acc = rack_inference_accuracy(net.topology(), &inferred);
        println!(
            "{name:>7}: {:>4} hosts -> {:>3} racks inferred, accuracy {:>5.1}%, probes {:>6}",
            hosts.len(),
            inferred.groups.len(),
            acc * 100.0,
            inferred.probes
        );
    }

    println!("\nper-pair observables on the medium topology:");
    let topo = Topology::two_tier(10, 10, GBPS, f64::INFINITY, TopoOptions::default());
    let mut net = NetSim::new(topo);
    let mut prober = Prober::new(&mut net);
    for (a, b, what) in [(0usize, 1usize, "same rack"), (0, 15, "cross rack")] {
        let hops = prober.hop_count(HostId(a), HostId(b));
        let rtt = prober.ping(HostId(a), HostId(b));
        println!(
            "  host{a:<3} -> host{b:<3} ({what:<10}): {hops} hops, rtt {:>6.1} µs",
            rtt.as_micros_f64()
        );
    }

    println!("\nprobe cost is quadratic in fleet size and perturbs other tenants'");
    println!("traffic (each iperf measurement is a real greedy flow) — the paper's");
    println!("motivation for an explicit provider API (§3.1).");
}
