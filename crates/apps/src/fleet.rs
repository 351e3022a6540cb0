//! The distributed CloudTalk deployment: one server per host (§4, §5.5).
//!
//! "CloudTalk servers are completely distributed and there is no central
//! coordination needed. However, the way applications use CloudTalk may
//! result in a single CloudTalk server having knowledge of the whole
//! network … in HDFS, write operations are handled by the NameNode [whose
//! local server] will slowly gather information from all HDFS nodes. Such
//! centralization enabled the oscillatory behaviour … HDFS reads, on the
//! other hand, are handled in a distributed manner: the clients query
//! their local CloudTalk server. There were no oscillation-related issues
//! during the read experiments, even without pseudo-reservations."
//!
//! [`FleetCluster`] runs an independent [`CloudTalkServer`] on every host:
//! each has its own pseudo-reservation table and overhead ledger, so the
//! centralisation effects above emerge rather than being assumed.

use std::collections::HashMap;

use cloudtalk::server::{Answer, CloudTalkServer, ServerConfig, ServerError};
use cloudtalk_lang::problem::{Address, Problem};
use desim::rng::derive_seed;
use desim::{SimDuration, SimTime};
use estimator::HostState;
use simnet::topology::HostId;
use simnet::NetSim;

use crate::cluster::CachedNetSource;

/// A cluster where every host runs its own CloudTalk server.
pub struct FleetCluster {
    /// The shared network substrate.
    pub net: NetSim,
    servers: Vec<CloudTalkServer>,
    measurement_interval: Option<SimDuration>,
    status_cache: HashMap<Address, (SimTime, HostState)>,
}

impl FleetCluster {
    /// Builds the fleet: one server per host, each seeded independently
    /// (deterministically) from `cfg.seed`.
    pub fn new(topo: simnet::Topology, cfg: ServerConfig) -> Self {
        Self::with_engine_mode(topo, cfg, simnet::EngineMode::default())
    }

    /// Like [`FleetCluster::new`], but selecting the network engine's rate
    /// maintenance strategy. Answers are bit-identical across modes — the
    /// incremental engine is pinned to the full-recompute oracle — so this
    /// exists for benchmarking and for cross-checking that very claim at
    /// the application layer.
    pub fn with_engine_mode(
        topo: simnet::Topology,
        cfg: ServerConfig,
        mode: simnet::EngineMode,
    ) -> Self {
        let n = topo.host_count();
        let servers = (0..n)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = derive_seed(cfg.seed, i as u64);
                CloudTalkServer::new(c)
            })
            .collect();
        FleetCluster {
            net: NetSim::with_mode(topo, mode),
            servers,
            measurement_interval: None,
            status_cache: HashMap::new(),
        }
    }

    /// Makes status servers measure every `interval` (see
    /// [`crate::cluster::Cluster::with_measurement_interval`]).
    pub fn with_measurement_interval(mut self, interval: SimDuration) -> Self {
        self.measurement_interval = Some(interval);
        self
    }

    /// The CloudTalk address of a host.
    pub fn addr(&self, host: HostId) -> Address {
        Address(self.net.topology().host(host).addr)
    }

    /// The host behind an address.
    pub fn host(&self, addr: Address) -> Option<HostId> {
        self.net.topology().host_by_addr(addr.0)
    }

    /// Direct access to one host's server (inspection, ledgers).
    pub fn server(&self, host: HostId) -> &CloudTalkServer {
        &self.servers[host.0]
    }

    /// Asks the CloudTalk server *local to `client`* — the distributed
    /// usage pattern. Reservations (if enabled) are tracked only by that
    /// server; other hosts' servers know nothing of the recommendation.
    pub fn ask_local(
        &mut self,
        client: HostId,
        problem: &Problem,
    ) -> Result<Answer, ServerError> {
        let now = self.net.now();
        let mut source = CachedNetSource {
            net: &mut self.net,
            cache: &mut self.status_cache,
            interval: self.measurement_interval,
            now,
        };
        self.servers[client.0].answer_problem(problem, &mut source, now)
    }

    /// Total status-message bytes across the whole fleet.
    pub fn fleet_status_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.ledger().status_bytes()).sum()
    }

    /// Total queries answered across the whole fleet.
    pub fn fleet_queries(&self) -> u64 {
        self.servers.iter().map(|s| s.queries_answered()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::hdfs_read_query;
    use cloudtalk_lang::problem::Value;
    use simnet::engine::TransferSpec;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    fn fleet(n: usize) -> FleetCluster {
        FleetCluster::new(
            Topology::single_switch(n, GBPS, TopoOptions::default()),
            ServerConfig::default(),
        )
    }

    #[test]
    fn every_host_gets_its_own_server() {
        let mut f = fleet(4);
        let hosts = f.net.hosts();
        let replicas = vec![f.addr(hosts[1]), f.addr(hosts[2])];
        for &client in &hosts[..2] {
            let p = hdfs_read_query(f.addr(client), &replicas, 1e6)
                .resolve()
                .unwrap();
            f.ask_local(client, &p).unwrap();
        }
        assert_eq!(f.server(hosts[0]).queries_answered(), 1);
        assert_eq!(f.server(hosts[1]).queries_answered(), 1);
        assert_eq!(f.server(hosts[2]).queries_answered(), 0);
        assert_eq!(f.fleet_queries(), 2);
        assert!(f.fleet_status_bytes() > 0);
    }

    #[test]
    fn local_servers_see_live_load() {
        let mut f = fleet(4);
        let hosts = f.net.hosts();
        f.net
            .start(TransferSpec::network(hosts[1], hosts[3], f64::INFINITY));
        let replicas = vec![f.addr(hosts[1]), f.addr(hosts[2])];
        let p = hdfs_read_query(f.addr(hosts[0]), &replicas, 256e6)
            .resolve()
            .unwrap();
        let a = f.ask_local(hosts[0], &p).unwrap();
        assert_eq!(a.binding, vec![Value::Addr(f.addr(hosts[2]))]);
    }

    #[test]
    fn reservations_do_not_leak_across_servers() {
        // Two different clients asking their own local servers about the
        // same replicas may both be told the same (genuinely idle) host:
        // per-host reservations are local state.
        let mut f = fleet(5);
        let hosts = f.net.hosts();
        let replicas = vec![f.addr(hosts[3]), f.addr(hosts[4])];
        let p0 = hdfs_read_query(f.addr(hosts[0]), &replicas, 1e6)
            .resolve()
            .unwrap();
        let p1 = hdfs_read_query(f.addr(hosts[1]), &replicas, 1e6)
            .resolve()
            .unwrap();
        let a0 = f.ask_local(hosts[0], &p0).unwrap();
        let a1 = f.ask_local(hosts[1], &p1).unwrap();
        assert_eq!(a0.binding, a1.binding, "no shared reservation state");
        // Whereas the same client asking twice in a burst is steered away
        // by its own server's reservation.
        let a0b = f.ask_local(hosts[0], &p0).unwrap();
        assert_ne!(a0.binding, a0b.binding);
    }

    #[test]
    fn fleet_answers_identical_across_engine_modes() {
        // Load the network, advance through completions, then ask servers
        // on every host: the engine mode must be unobservable all the way
        // up at the application layer — same bindings, same predicted
        // durations, byte for byte.
        use desim::SimDuration;
        use simnet::EngineMode;

        let run = |mode: EngineMode| {
            let mut f = FleetCluster::with_engine_mode(
                Topology::single_switch(8, GBPS, TopoOptions::default()),
                ServerConfig::default(),
                mode,
            );
            let hosts = f.net.hosts();
            f.net
                .start(TransferSpec::network(hosts[2], hosts[3], f64::INFINITY));
            f.net.start(TransferSpec::pipeline(
                hosts[4],
                &[hosts[5], hosts[6]],
                3e8,
            ));
            let mut out = Vec::new();
            for step in 0..6 {
                let t = f.net.now() + SimDuration::from_secs_f64(0.08);
                let done = f.net.advance_to(t);
                out.push(format!("{done:?}"));
                let client = hosts[step % 4];
                let replicas: Vec<Address> =
                    hosts[3..7].iter().map(|&h| f.addr(h)).collect();
                let p = hdfs_read_query(f.addr(client), &replicas, 64e6)
                    .resolve()
                    .unwrap();
                let a = f.ask_local(client, &p).unwrap();
                let scores: Vec<u64> =
                    a.binding_scores.iter().map(|s| s.to_bits()).collect();
                out.push(format!("{:?} {:?}", a.binding, scores));
            }
            out
        };
        assert_eq!(run(EngineMode::Incremental), run(EngineMode::FullRecompute));
    }

    #[test]
    fn fleet_is_deterministic() {
        let run = || {
            let mut f = fleet(6);
            let hosts = f.net.hosts();
            let replicas: Vec<Address> = hosts[2..].iter().map(|&h| f.addr(h)).collect();
            let mut out = Vec::new();
            for i in 0..4 {
                let client = hosts[i % 2];
                let p = hdfs_read_query(f.addr(client), &replicas, 1e6)
                    .resolve()
                    .unwrap();
                out.push(f.ask_local(client, &p).unwrap().binding);
            }
            out
        };
        assert_eq!(run(), run());
    }
}
