//! Background-traffic generators.
//!
//! The paper's evaluation loads clusters with iperf: long-running TCP
//! elephants between random host pairs (§5.2 "70% of the servers transfer
//! data among themselves … at line rate") and UDP constant-bit-rate
//! streams aimed at cluster nodes (§5.3 reduce experiments). These helpers
//! install the equivalent transfers on a [`NetSim`].

use rand::seq::SliceRandom;
use rand::Rng;

use desim::rng::DetRng;

use crate::engine::{NetSim, TransferId, TransferSpec};
use crate::topology::HostId;

/// Starts long-running elastic (TCP-like) flows among a random subset of
/// hosts, pairing each chosen "active" host with a random peer — the
/// §5.2 iperf background. Returns the started transfer ids.
///
/// `active_fraction` of hosts (excluding `exclude`) become senders.
pub fn iperf_mesh(
    net: &mut NetSim,
    rng: &mut DetRng,
    active_fraction: f64,
    exclude: &[HostId],
) -> Vec<TransferId> {
    let mut hosts: Vec<HostId> = net
        .hosts()
        .into_iter()
        .filter(|h| !exclude.contains(h))
        .collect();
    hosts.shuffle(rng);
    let n_active = ((hosts.len() as f64) * active_fraction).round() as usize;
    let mut ids = Vec::with_capacity(n_active);
    for i in 0..n_active {
        let src = hosts[i];
        // Pick a distinct receiver among the non-excluded hosts.
        let mut dst = hosts[rng.gen_range(0..hosts.len())];
        while dst == src {
            dst = hosts[rng.gen_range(0..hosts.len())];
        }
        ids.push(net.start(TransferSpec::network(src, dst, f64::INFINITY)));
    }
    ids
}

/// Starts inelastic UDP streams at `rate` towards each of `targets` from
/// per-target phantom senders outside the measured set (§5.3: "UDP iperf
/// connections from outside the Hadoop cluster arrive at a subset of the
/// machines"). `senders` provides the source pool.
pub fn udp_blast(
    net: &mut NetSim,
    rng: &mut DetRng,
    senders: &[HostId],
    targets: &[HostId],
    rate: f64,
) -> Vec<TransferId> {
    // Spread targets across senders round-robin (after a shuffle) so one
    // sender's uplink doesn't clip several streams when enough senders
    // are available.
    let mut pool: Vec<HostId> = senders.to_vec();
    pool.shuffle(rng);
    let mut ids = Vec::with_capacity(targets.len());
    for (i, &t) in targets.iter().enumerate() {
        let mut src = pool[i % pool.len()];
        if src == t && pool.len() > 1 {
            src = pool[(i + 1) % pool.len()];
        }
        ids.push(net.start(
            TransferSpec::network(src, t, f64::INFINITY).with_inelastic(rate),
        ));
    }
    ids
}

/// Keeps a fraction of hosts' *disks* busy with unbounded local reads or
/// writes (the §5.3 SSD-contention experiments).
pub fn disk_hogs(
    net: &mut NetSim,
    targets: &[HostId],
    write: bool,
) -> Vec<TransferId> {
    targets
        .iter()
        .map(|&h| {
            let spec = if write {
                TransferSpec::disk_write(h, f64::INFINITY)
            } else {
                TransferSpec::disk_read(h, f64::INFINITY)
            };
            net.start(spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoOptions;
    use crate::{Topology, GBPS};
    use desim::rng::stream_rng;

    fn star(n: usize) -> NetSim {
        NetSim::new(Topology::single_switch(n, GBPS, TopoOptions::default()))
    }

    #[test]
    fn iperf_mesh_starts_requested_fraction() {
        let mut net = star(20);
        let mut rng = stream_rng(1, 0);
        let ids = iperf_mesh(&mut net, &mut rng, 0.5, &[]);
        assert_eq!(ids.len(), 10);
        assert_eq!(net.active_count(), 10);
    }

    #[test]
    fn iperf_mesh_respects_exclusions() {
        let mut net = star(10);
        let mut rng = stream_rng(2, 0);
        let excluded = net.hosts()[0];
        iperf_mesh(&mut net, &mut rng, 1.0, &[excluded]);
        // The excluded host must carry no traffic.
        let load = net.host_load(excluded);
        assert_eq!(load.tx_bps, 0.0);
        assert_eq!(load.rx_bps, 0.0);
    }

    #[test]
    fn udp_blast_loads_targets_inelastically() {
        let mut net = star(6);
        let hosts = net.hosts();
        let mut rng = stream_rng(3, 0);
        udp_blast(
            &mut net,
            &mut rng,
            &hosts[..3],
            &hosts[3..],
            0.9 * GBPS,
        );
        for &t in &hosts[3..] {
            let load = net.host_load(t);
            assert!(load.rx_bps >= 0.9 * GBPS - 1e-3, "rx {}", load.rx_bps);
        }
    }

    #[test]
    fn disk_hogs_saturate_disks() {
        let mut net = star(4);
        let hosts = net.hosts();
        disk_hogs(&mut net, &hosts[..2], true);
        let busy = net.host_load(hosts[0]);
        assert!(busy.disk_write_bps >= busy.disk_write_capacity * 0.99);
        let idle = net.host_load(hosts[3]);
        assert_eq!(idle.disk_write_bps, 0.0);
    }
}
