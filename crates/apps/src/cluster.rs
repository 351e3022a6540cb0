//! The shared application harness: a live network plus a CloudTalk server.
//!
//! Mirrors the paper's EC2 deployment mode (§5): "instead of running the
//! CloudTalk and status servers in the hypervisor, we run them as
//! processes inside our virtual machine" — i.e. the CloudTalk server reads
//! the same per-host load the hypervisor would see.

use cloudtalk::server::{Answer, CloudTalkServer, ServerConfig, ServerError};
use cloudtalk::status::{NetSimStatusSource, Readings};
use cloudtalk_lang::problem::{Address, Problem, Value};
use desim::{EventQueue, SimDuration, SimTime};
use simnet::engine::Completion;
use simnet::topology::HostId;
use simnet::NetSim;

/// A simulated cluster: the network substrate plus the CloudTalk control
/// plane.
pub struct Cluster {
    /// The fluid network/disk simulation.
    pub net: NetSim,
    /// The CloudTalk server answering tenant queries.
    pub server: CloudTalkServer,
    /// Status servers measure every interval, keeping their last
    /// readings; `None` = instantaneous reads.
    measured: Option<(SimDuration, Readings)>,
}

impl Cluster {
    /// Builds a cluster over `topo` with the given CloudTalk configuration.
    pub fn new(topo: simnet::Topology, server_cfg: ServerConfig) -> Self {
        Cluster {
            net: NetSim::new(topo),
            server: CloudTalkServer::new(server_cfg),
            measured: None,
        }
    }

    /// Makes status servers measure every `interval` instead of on demand:
    /// CloudTalk then sees load data up to `interval` old — the feedback
    /// delay behind the paper's Figure 12 oscillation.
    pub fn with_measurement_interval(mut self, interval: SimDuration) -> Self {
        self.measured = Some((interval, Readings::default()));
        self
    }

    /// The CloudTalk address of a host.
    pub fn addr(&self, host: HostId) -> Address {
        Address(self.net.topology().host(host).addr)
    }

    /// The host behind a CloudTalk address.
    pub(crate) fn host(&self, addr: Address) -> Option<HostId> {
        self.net.topology().host_by_addr(addr.0)
    }

    /// All hosts as CloudTalk addresses.
    pub fn addrs(&self) -> Vec<Address> {
        self.net
            .topology()
            .host_ids()
            .into_iter()
            .map(|h| self.addr(h))
            .collect()
    }

    /// Asks the CloudTalk server to evaluate `problem` against the live
    /// network state at the current simulated time, reserving the
    /// recommended machines.
    pub fn ask(&mut self, problem: &Problem) -> Result<Answer, ServerError> {
        self.ask_with(problem, true)
    }

    /// Like [`Cluster::ask`], but advisory: the recommendation is not
    /// reserved (for per-heartbeat fitness checks whose answer the caller
    /// may ignore).
    pub fn ask_advisory(&mut self, problem: &Problem) -> Result<Answer, ServerError> {
        self.ask_with(problem, false)
    }

    fn ask_with(&mut self, problem: &Problem, reserve: bool) -> Result<Answer, ServerError> {
        let now = self.net.now();
        let mut source = NetSimStatusSource::new(&mut self.net);
        if let Some((interval, readings)) = &mut self.measured {
            source = source.measuring_every(*interval, readings);
        }
        self.server
            .answer_problem_with(problem, &mut source, now, reserve)
    }

    /// Convenience: asks and maps the bound addresses back to hosts.
    ///
    /// # Panics
    ///
    /// Panics if the server binds a variable to `disk` or to an address
    /// outside the cluster — callers here always use address-only pools.
    pub(crate) fn ask_hosts(&mut self, problem: &Problem) -> Result<Vec<HostId>, ServerError> {
        let answer = self.ask(problem)?;
        Ok(self.binding_hosts(&answer))
    }

    /// Advisory variant of [`Cluster::ask_hosts`] (no reservation).
    pub(crate) fn ask_hosts_advisory(
        &mut self,
        problem: &Problem,
    ) -> Result<Vec<HostId>, ServerError> {
        let answer = self.ask_advisory(problem)?;
        Ok(self.binding_hosts(&answer))
    }

    fn binding_hosts(&self, answer: &Answer) -> Vec<HostId> {
        answer
            .binding
            .iter()
            .map(|v| match v {
                Value::Addr(a) => self.host(*a).expect("bound address is in the cluster"),
                Value::Disk => panic!("address-only pool bound to disk"),
            })
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// One co-simulation step of a driver's calendar and the fluid network.
    ///
    /// Advances the clock to the earlier of the next control event in
    /// `events` and the next transfer completion, fills `done` with the
    /// transfers that complete at that instant (none when an event came
    /// first) and returns the instant; `None` when neither source has
    /// anything left. The caller handles `done` first and then drains
    /// `events.pop_at(t)`, which also takes what the completion handlers
    /// scheduled for `t`: at a tie the completions are always seen first,
    /// and nothing completes on the way to an event unrecorded.
    pub fn step<E>(
        &mut self,
        events: &EventQueue<E>,
        done: &mut Vec<Completion>,
    ) -> Option<SimTime> {
        let t = match (events.peek_time(), self.net.next_completion_time()) {
            (Some(event), Some(completion)) => event.min(completion),
            (event, completion) => event.or(completion)?,
        };
        self.net.advance_into(t, done);
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::hdfs_read_query;
    use simnet::engine::TransferSpec;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    #[test]
    fn ask_sees_live_load() {
        let topo = Topology::single_switch(4, GBPS, TopoOptions::default());
        let mut c = Cluster::new(topo, ServerConfig::default());
        let hosts = c.net.hosts();
        // Saturate host 1's uplink.
        c.net
            .start(TransferSpec::network(hosts[1], hosts[3], f64::INFINITY));
        let replicas = vec![c.addr(hosts[1]), c.addr(hosts[2])];
        let p = hdfs_read_query(c.addr(hosts[0]), &replicas, 256e6)
            .resolve()
            .unwrap();
        let chosen = c.ask_hosts(&p).unwrap();
        assert_eq!(chosen, vec![hosts[2]], "busy host 1 must be avoided");
    }

    #[test]
    fn addr_host_round_trip() {
        let topo = Topology::single_switch(3, GBPS, TopoOptions::default());
        let c = Cluster::new(topo, ServerConfig::default());
        for h in c.net.topology().host_ids() {
            assert_eq!(c.host(c.addr(h)), Some(h));
        }
        assert_eq!(c.addrs().len(), 3);
    }
}
