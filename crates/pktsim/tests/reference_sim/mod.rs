//! The packet simulator's event core as it was before the calendar of
//! lanes: every packet in flight, every serialiser and every armed timer is
//! one entry of a single global queue, and a restarted RTO is an eager
//! cancel + push. Moved here verbatim (only `pump` reads the sendable
//! range's `.end` now that `TcpState::sendable` returns a range) and kept
//! as the oracle `calendar_equiv` compares `pktsim::PktSim` against, event
//! for event. The queue is the private [`Calendar`] below: `desim`'s queue
//! does not cancel, and nothing but this oracle needs it to.

#![allow(dead_code)]

use std::collections::{BTreeMap, VecDeque};

use desim::{SimDuration, SimTime};
use pktsim::config::SimConfig;
use pktsim::stats::Stats;
use pktsim::tcp::{AckAction, TcpState};
use pktsim::{FlowIdx, TrafficClass};
use simnet::routing::Router;
use simnet::topology::{HostId, LinkDir, Topology};

#[derive(Clone, Copy, Debug)]
struct Packet {
    flow: usize,
    /// Data sequence number, or cumulative ACK value for ACK packets.
    seq: u64,
    is_ack: bool,
    /// Index of the next port (into the flow's path) after the current one.
    hop: usize,
    size: u32,
}

struct PortState {
    queue: VecDeque<Packet>,
    busy: bool,
    rate_bps: f64,
    latency: SimDuration,
}

struct Flow {
    path: Vec<usize>,
    rpath: Vec<usize>,
    tcp: TcpState,
    finish: Option<SimTime>,
    rto: Option<EventHandle>,
    class: TrafficClass,
}

enum Event {
    Start(usize),
    /// The head packet of this port finished serialising.
    TxDone(usize),
    /// A packet arrived at the far end of the port it just crossed.
    Arrive(Packet),
    Rto(usize),
}

/// The key an event was scheduled under; cancelling removes that entry.
type EventHandle = (SimTime, u64);

/// Events ordered by `(time, push order)`: the earliest pops first, equal
/// times in insertion order, and a cancelled event is gone at once.
struct Calendar {
    events: BTreeMap<EventHandle, Event>,
    next_seq: u64,
}

impl Calendar {
    fn push(&mut self, at: SimTime, event: Event) -> EventHandle {
        let key = (at, self.next_seq);
        self.next_seq += 1;
        self.events.insert(key, event);
        key
    }

    fn cancel(&mut self, handle: EventHandle) {
        self.events.remove(&handle);
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.events.pop_first().map(|((at, _), event)| (at, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.events.keys().next().map(|&(at, _)| at)
    }
}

/// The packet-level simulator.
pub struct PktSim {
    topo: Topology,
    router: Router,
    cfg: SimConfig,
    queue: Calendar,
    now: SimTime,
    ports: Vec<PortState>,
    flows: Vec<Flow>,
    stats: Stats,
}

impl PktSim {
    /// Creates a simulator over `topo`.
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        let mut ports = Vec::with_capacity(2 * topo.link_count());
        for l in 0..topo.link_count() {
            let link = topo.link(simnet::LinkId(l));
            for _ in 0..2 {
                ports.push(PortState {
                    queue: VecDeque::new(),
                    busy: false,
                    rate_bps: link.capacity_bps,
                    latency: link.latency,
                });
            }
        }
        PktSim {
            topo,
            router: Router::new(),
            cfg,
            queue: Calendar {
                events: BTreeMap::new(),
                next_seq: 0,
            },
            now: SimTime::ZERO,
            ports,
            flows: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Rewinds the simulator to an empty, time-zero state over the same
    /// topology, keeping every allocation that is worth keeping: the port
    /// table, each port's queue buffer and — most importantly — the router's
    /// route cache, so repeated evaluations of different flow sets over one
    /// topology stop paying BFS per flow.
    ///
    /// After `reset` the simulator behaves exactly like a freshly
    /// constructed one: flows, stats, and pending events are gone.
    pub fn reset(&mut self) {
        self.queue.events.clear();
        self.now = SimTime::ZERO;
        self.flows.clear();
        self.stats = Stats::default();
        for port in &mut self.ports {
            port.queue.clear();
            port.busy = false;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate loss/retransmission statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Adds a TCP flow of `bytes` from `src` to `dst`, starting at `start`.
    pub fn add_flow(&mut self, src: HostId, dst: HostId, bytes: u64, start: SimTime) -> FlowIdx {
        self.add_flow_with_class(src, dst, bytes, start, TrafficClass::Lossy)
    }

    /// Adds a TCP flow with an explicit traffic class: `Lossless` flows
    /// are PFC-protected (per-tenant selective lossless service), even
    /// when [`SimConfig::pfc`] is off globally.
    pub fn add_flow_with_class(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: u64,
        start: SimTime,
        class: TrafficClass,
    ) -> FlowIdx {
        let id = self.flows.len();
        let hash = id as u64;
        let path = self.port_path(src, dst, hash);
        let rpath = self.port_path(dst, src, hash);
        self.flows.push(Flow {
            path,
            rpath,
            tcp: TcpState::new(bytes, self.cfg.mss, self.cfg.init_cwnd, self.cfg.init_ssthresh),
            finish: None,
            rto: None,
            class,
        });
        self.queue.push(start.max_of(self.now), Event::Start(id));
        FlowIdx(id)
    }

    /// When `flow` finished, if it has.
    pub fn finish_time(&self, flow: FlowIdx) -> Option<SimTime> {
        self.flows[flow.0].finish
    }

    /// Retransmission count of a flow.
    pub fn flow_retransmits(&self, flow: FlowIdx) -> u64 {
        self.flows[flow.0].tcp.retransmits
    }

    /// Timeout count of a flow.
    pub fn flow_timeouts(&self, flow: FlowIdx) -> u64 {
        self.flows[flow.0].tcp.timeouts
    }

    /// Processes a single event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.now);
        self.now = t;
        match ev {
            Event::Start(f) => self.on_start(f),
            Event::TxDone(port) => self.on_tx_done(port),
            Event::Arrive(pkt) => self.on_arrive(pkt),
            Event::Rto(f) => self.on_rto(f),
        }
        true
    }

    /// Runs until no events remain; returns the finish time of the last
    /// flow to complete (if any completed).
    pub fn run_until_idle(&mut self) -> Option<SimTime> {
        while self.step() {}
        self.flows.iter().filter_map(|f| f.finish).max()
    }

    /// Runs until `deadline`, leaving later events queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max_of(deadline);
    }

    /// True if all flows completed.
    pub fn all_complete(&self) -> bool {
        self.flows.iter().all(|f| f.finish.is_some())
    }

    // --- event handlers ---------------------------------------------------

    fn on_start(&mut self, f: usize) {
        if self.flows[f].path.is_empty() {
            // Loopback: complete instantly.
            self.flows[f].finish = Some(self.now);
            return;
        }
        self.pump(f);
    }

    fn on_tx_done(&mut self, port: usize) {
        // The head packet leaves the wire-side of the port now.
        let pkt = self.ports[port]
            .queue
            .pop_front()
            .expect("TxDone implies a head packet");
        let latency = self.ports[port].latency;
        self.queue.push(self.now + latency, Event::Arrive(pkt));
        if let Some(next) = self.ports[port].queue.front() {
            let ser = serialize_time(next.size, self.ports[port].rate_bps);
            self.queue.push(self.now + ser, Event::TxDone(port));
        } else {
            self.ports[port].busy = false;
        }
    }

    fn on_arrive(&mut self, mut pkt: Packet) {
        let flow = pkt.flow;
        let path_len = if pkt.is_ack {
            self.flows[flow].rpath.len()
        } else {
            self.flows[flow].path.len()
        };
        if pkt.hop < path_len {
            // Still inside the network: forward out of the next port.
            let port = if pkt.is_ack {
                self.flows[flow].rpath[pkt.hop]
            } else {
                self.flows[flow].path[pkt.hop]
            };
            pkt.hop += 1;
            self.enqueue(port, pkt);
            return;
        }
        // Terminated at an end host.
        if pkt.is_ack {
            self.on_sender_ack(flow, pkt.seq);
        } else {
            let ack = self.flows[flow].tcp.on_data(pkt.seq);
            let ack_pkt = Packet {
                flow,
                seq: ack,
                is_ack: true,
                hop: 1,
                size: self.cfg.ack_size,
            };
            let first = self.flows[flow].rpath[0];
            self.enqueue(first, ack_pkt);
        }
    }

    fn on_sender_ack(&mut self, f: usize, ack: u64) {
        match self.flows[f].tcp.on_ack(ack) {
            AckAction::None => {}
            AckAction::SendNew => {
                self.restart_rto(f);
                self.pump(f);
            }
            AckAction::FastRetransmit(seq) => {
                self.send_data(f, seq);
                self.restart_rto(f);
            }
            AckAction::Complete => {
                self.flows[f].finish = Some(self.now);
                if let Some(h) = self.flows[f].rto.take() {
                    self.queue.cancel(h);
                }
            }
        }
    }

    fn on_rto(&mut self, f: usize) {
        self.flows[f].rto = None;
        if self.flows[f].finish.is_some() {
            return;
        }
        let seq = self.flows[f].tcp.on_timeout();
        self.stats.timeouts += 1;
        self.send_data(f, seq);
        self.flows[f].tcp.note_sent(seq + 1);
        self.restart_rto(f);
    }

    // --- sending ------------------------------------------------------------

    /// Sends all currently window-permitted new data.
    fn pump(&mut self, f: usize) {
        let sendable = self.flows[f].tcp.sendable();
        if sendable.is_empty() {
            return;
        }
        let highest = sendable.end;
        for seq in sendable {
            self.send_data(f, seq);
        }
        self.flows[f].tcp.note_sent(highest);
        if self.flows[f].rto.is_none() {
            self.restart_rto(f);
        }
    }

    fn send_data(&mut self, f: usize, seq: u64) {
        let pkt = Packet {
            flow: f,
            seq,
            is_ack: false,
            hop: 1,
            size: self.cfg.mss,
        };
        let first = self.flows[f].path[0];
        self.enqueue(first, pkt);
        self.stats.data_sent += 1;
    }

    fn restart_rto(&mut self, f: usize) {
        if let Some(h) = self.flows[f].rto.take() {
            self.queue.cancel(h);
        }
        let backoff = self.flows[f].tcp.rto_backoff as u64;
        let base = self
            .cfg
            .min_rto
            .saturating_mul(backoff)
            .min(self.cfg.max_rto);
        // Optional per-flow deterministic jitter standing in for the
        // RTT-dependent component of real RTO estimators; the default of
        // zero keeps timeouts synchronized like htsim, which is what makes
        // repeated incast collapse rounds (and the paper's §5.4 numbers)
        // appear.
        let jitter_ppm = if self.cfg.rto_jitter > 0.0 {
            let max_ppm = (self.cfg.rto_jitter * 1_000_000.0) as u64;
            desim::rng::derive_seed(f as u64, self.flows[f].tcp.timeouts) % max_ppm.max(1)
        } else {
            0
        };
        let rto = base + SimDuration::from_nanos(base.as_nanos() / 1_000_000 * jitter_ppm);
        let h = self.queue.push(self.now + rto, Event::Rto(f));
        self.flows[f].rto = Some(h);
    }

    fn enqueue(&mut self, port: usize, pkt: Packet) {
        let lossless =
            self.cfg.pfc || self.flows[pkt.flow].class == TrafficClass::Lossless;
        let p = &mut self.ports[port];
        if !lossless && p.queue.len() >= self.cfg.buffer_pkts {
            self.stats.drops += 1;
            *self.stats.drops_per_port.entry(port).or_insert(0) += 1;
            return;
        }
        p.queue.push_back(pkt);
        if !p.busy {
            p.busy = true;
            let ser = serialize_time(pkt.size, p.rate_bps);
            self.queue.push(self.now + ser, Event::TxDone(port));
        }
    }

    fn port_path(&mut self, src: HostId, dst: HostId, hash: u64) -> Vec<usize> {
        self.router
            .route(&self.topo, src, dst, hash)
            .into_iter()
            .map(|hop| {
                2 * hop.link.0
                    + match hop.dir {
                        LinkDir::Forward => 0,
                        LinkDir::Backward => 1,
                    }
            })
            .collect()
    }
}

fn serialize_time(bytes: u32, rate_bps: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / rate_bps)
}
