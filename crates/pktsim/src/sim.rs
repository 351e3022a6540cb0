//! The event-driven packet simulation core.
//!
//! Every directed link is an output-queued *port*: a drop-tail FIFO plus a
//! serialiser running at the link rate. Packets carry their flow id and a
//! hop index into the flow's precomputed path; switches forward, end hosts
//! terminate (data → cumulative ACK back, ACK → sender window logic).
//!
//! # Event order: three queues, one total order
//!
//! Every event has a [`Key`] — its fire time, then a sequence number drawn
//! from one counter at the moment it is scheduled — and events fire in key
//! order, so equal timestamps resolve in scheduling order. That total order
//! is the simulator's whole notion of "what happens next"; where the
//! pending events *live* is free, so each kind waits where it is cheapest:
//!
//! * **The port heap** holds the events a packet moves on. A port's
//!   packets in flight are scheduled at `now + latency` with `now`
//!   non-decreasing, so their keys already ascend: they wait in the port's
//!   `wire` FIFO and only the head (`Wire`) is in the heap. A port has at
//!   most one `TxDone` pending. So the heap holds at most two entries per
//!   busy port, whatever the number of packets in flight.
//! * **The start queue** holds the flows that have not started, each
//!   under the key [`PktSim::add_flow`] drew for its start.
//! * **The timer queue** holds retransmission-timer *stand-ins*. A flow's
//!   timer is the field `rto`, represented here by at most one live
//!   stand-in (`armed`). Restarting the timer just overwrites `rto` — a
//!   stand-in that comes due before the deadline it stands for re-arms
//!   itself at the current one, and one that finds the timer disarmed is
//!   dropped. Only a restart that moves the deadline *earlier* (an ACK
//!   resetting the backoff) pushes a new stand-in; the superseded one is
//!   recognised by its key and dropped when it comes due. Neither a re-arm
//!   nor a drop is an event: both happen inside [`PktSim::step`] on the
//!   way to the next real one.
//!
//! The next event is the least key of the three heads, and a stand-in is
//! settled only when the timer queue's head *is* that least key — exactly
//! when it would have reached the head of one heap holding all three
//! queues' entries. Every key is drawn at the program point where the
//! original core's one global event queue drew it, so events fire in that
//! queue's order (`tests/calendar_equiv.rs` holds the old core as the
//! oracle). What the
//! split buys is the port heap's depth: unstarted flows, and stand-ins
//! that linger up to a backed-off RTO after their flow finished, are
//! usually the bulk of the pending entries, and now no port event sifts
//! past them.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use desim::{SimDuration, SimTime};
use simnet::routing::Router;
use simnet::topology::{HostId, LinkDir, Topology};

use crate::config::SimConfig;
use crate::stats::Stats;
use crate::tcp::{AckAction, TcpState};

/// Index of a flow within a [`PktSim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowIdx(pub usize);

/// Loss treatment of one flow's packets (the provider "enabling network
/// features selectively" for chosen tenant traffic, paper §2/§5.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TrafficClass {
    /// Ordinary drop-tail service.
    #[default]
    Lossy,
    /// PFC-protected: never dropped, queues beyond the buffer limit
    /// instead (the lossless-class approximation of pause frames).
    Lossless,
}

/// An event's place in the total order: fire time, then the sequence
/// number drawn when it was scheduled.
type Key = (SimTime, u64);

/// Entries in key order, least first. Keys are unique, so the payload
/// never decides an order.
type Queue<T> = BinaryHeap<Reverse<(Key, T)>>;

/// A port-heap entry: which of a port's two heads is due.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum PortEvent {
    /// The head packet of this port's queue finished serialising.
    TxDone(u32),
    /// The head packet of this port's wire reaches the far end.
    Wire(u32),
}

/// Which queue holds the next event.
#[derive(Clone, Copy)]
enum Next {
    Port,
    Start,
    Timer,
}

/// The key at the head of `queue`.
fn head<T: Ord>(queue: &Queue<T>) -> Option<Key> {
    queue.peek().map(|Reverse((key, _))| *key)
}

/// 16 bytes: a packet's wire size is [`SimConfig::ack_size`] or
/// [`SimConfig::mss`] by `is_ack`.
#[derive(Clone, Copy, Debug)]
struct Packet {
    /// Data sequence number, or cumulative ACK value for ACK packets.
    seq: u64,
    flow: u32,
    /// Index of the next port (into the flow's path) after the current one.
    hop: u16,
    is_ack: bool,
}

struct PortState {
    queue: VecDeque<Packet>,
    /// Packets crossing the link, each with the key of its arrival; keys
    /// ascend, and the head's is in the port heap.
    wire: VecDeque<(Key, Packet)>,
    busy: bool,
    /// Time to serialise a data packet and an ACK at the link rate.
    ser: [SimDuration; 2],
    latency: SimDuration,
}

impl PortState {
    fn ser(&self, pkt: &Packet) -> SimDuration {
        self.ser[pkt.is_ack as usize]
    }
}

struct Flow {
    /// Where the flow's ports sit in [`PktSim::paths`]: `hops` of the
    /// forward path from `path`, then as many of the reverse path.
    path: u32,
    hops: u16,
    tcp: TcpState,
    finish: Option<SimTime>,
    /// Key of the pending retransmission timeout, if the timer is running.
    rto: Option<Key>,
    /// Key of the flow's live stand-in in the timer queue (never later
    /// than `rto`); its entries under any other key are stale.
    armed: Option<Key>,
    class: TrafficClass,
}

/// The packet-level simulator.
pub struct PktSim {
    topo: Topology,
    router: Router,
    cfg: SimConfig,
    /// `TxDone` and `Wire` heads, at most one of each per port.
    port_events: Queue<PortEvent>,
    /// Flows that have not started.
    starts: Queue<u32>,
    /// Retransmission-timer stand-ins, live and superseded.
    timers: Queue<u32>,
    next_seq: u64,
    now: SimTime,
    ports: Vec<PortState>,
    flows: Vec<Flow>,
    /// Every flow's forward and reverse port path, end to end.
    paths: Vec<u32>,
    completed: Vec<FlowIdx>,
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
                    wire: VecDeque::new(),
                    busy: false,
                    ser: [cfg.mss, cfg.ack_size]
                        .map(|bytes| SimDuration::from_secs_f64(bytes as f64 / link.capacity_bps)),
                    latency: link.latency,
                });
            }
        }
        PktSim {
            topo,
            router: Router::new(),
            cfg,
            port_events: BinaryHeap::new(),
            starts: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            ports,
            flows: Vec::new(),
            paths: Vec::new(),
            completed: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Rewinds the simulator to an empty, time-zero state over the same
    /// topology, keeping every allocation that is worth keeping: the port
    /// table, each port's queue and wire buffers, the three event queues,
    /// the completion list, and — most importantly — the router's route cache,
    /// so repeated evaluations of different flow sets over one topology
    /// stop paying BFS per flow.
    ///
    /// After `reset` the simulator behaves exactly like a freshly
    /// constructed one: flows, stats, and pending events are gone and the
    /// sequence counter is back at zero.
    pub fn reset(&mut self) {
        self.port_events.clear();
        self.starts.clear();
        self.timers.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.flows.clear();
        self.paths.clear();
        self.completed.clear();
        self.stats = Stats::default();
        for port in &mut self.ports {
            port.queue.clear();
            port.wire.clear();
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
        let path = self.paths.len();
        self.push_port_path(src, dst, hash);
        let hops = self.paths.len() - path;
        self.push_port_path(dst, src, hash);
        debug_assert_eq!(self.paths.len() - path, 2 * hops, "shortest paths are symmetric");
        self.flows.push(Flow {
            path: path as u32,
            hops: hops as u16,
            tcp: TcpState::new(bytes, self.cfg.mss, self.cfg.init_cwnd, self.cfg.init_ssthresh),
            finish: None,
            rto: None,
            armed: None,
            class,
        });
        let key = self.key_at(start.max_of(self.now));
        self.starts.push(Reverse((key, id as u32)));
        FlowIdx(id)
    }

    /// When `flow` finished, if it has.
    pub fn finish_time(&self, flow: FlowIdx) -> Option<SimTime> {
        self.flows[flow.0].finish
    }

    /// Every finished flow, in completion order. One event completes at
    /// most one flow, so a driver that remembers how much of this it has
    /// read learns what each [`PktSim::step`] finished without polling
    /// every flow's [`PktSim::finish_time`].
    pub fn completed(&self) -> &[FlowIdx] {
        &self.completed
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
        let Some(((at, _), next)) = self.next_event() else {
            return false;
        };
        debug_assert!(at >= self.now);
        self.now = at;
        match next {
            Next::Start => {
                let Reverse((_, f)) = self.starts.pop().expect("peeked above");
                self.on_start(f as usize);
            }
            Next::Timer => {
                let Reverse((_, f)) = self.timers.pop().expect("peeked above");
                self.flows[f as usize].armed = None;
                self.on_rto(f as usize);
            }
            Next::Port => {
                let Reverse((_, event)) = self.port_events.pop().expect("peeked above");
                match event {
                    PortEvent::TxDone(port) => self.on_tx_done(port as usize),
                    PortEvent::Wire(port) => {
                        let wire = &mut self.ports[port as usize].wire;
                        let (_, pkt) = wire.pop_front().expect("Wire implies a packet in flight");
                        if let Some(&(next, _)) = wire.front() {
                            self.port_events.push(Reverse((next, event)));
                        }
                        self.on_arrive(pkt);
                    }
                }
            }
        }
        true
    }

    /// Key and queue of the next event, after settling the timer stand-ins
    /// in front of it: a superseded one is dropped, a live one whose timer
    /// was restarted (or disarmed) since it was pushed moves to the current
    /// deadline (or goes). A stand-in is settled only when its key is the
    /// least of the three heads, so what is returned is a real event.
    fn next_event(&mut self) -> Option<(Key, Next)> {
        let other = match (head(&self.port_events), head(&self.starts)) {
            (Some(port), Some(start)) if start < port => Some((start, Next::Start)),
            (Some(port), _) => Some((port, Next::Port)),
            (None, start) => start.map(|start| (start, Next::Start)),
        };
        while let Some(mut top) = self.timers.peek_mut() {
            let Reverse((key, f)) = *top;
            if other.is_some_and(|(least, _)| least < key) {
                break;
            }
            let flow = &mut self.flows[f as usize];
            if flow.armed == Some(key) {
                if flow.rto == flow.armed {
                    return Some((key, Next::Timer));
                }
                flow.armed = flow.rto;
                if let Some(deadline) = flow.rto {
                    top.0 .0 = deadline;
                    continue;
                }
            }
            PeekMut::pop(top);
        }
        other
    }

    /// Runs until no events remain; returns the finish time of the last
    /// flow to complete (if any completed).
    pub fn run_until_idle(&mut self) -> Option<SimTime> {
        while self.step() {}
        self.flows.iter().filter_map(|f| f.finish).max()
    }

    /// Runs until `deadline`, leaving later events queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.next_event().is_some_and(|((t, _), _)| t <= deadline) {
            self.step();
        }
        self.now = self.now.max_of(deadline);
    }

    /// True if all flows completed.
    pub fn all_complete(&self) -> bool {
        self.completed.len() == self.flows.len()
    }

    /// Draws the key of an event scheduled now to fire at `at`.
    fn key_at(&mut self, at: SimTime) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        (at, seq)
    }

    /// Schedules `port`'s serialiser to finish its head packet at `at`.
    fn schedule_tx_done(&mut self, at: SimTime, port: usize) {
        let key = self.key_at(at);
        self.port_events
            .push(Reverse((key, PortEvent::TxDone(port as u32))));
    }

    // --- event handlers ---------------------------------------------------

    fn on_start(&mut self, f: usize) {
        if self.flows[f].hops == 0 {
            // Loopback: complete instantly.
            self.complete(f);
            return;
        }
        self.pump(f);
    }

    fn complete(&mut self, f: usize) {
        let flow = &mut self.flows[f];
        // Duplicate ACKs trailing the final one can fast-retransmit a
        // packet one past the end, whose ACK completes the flow again: the
        // finish time moves, the flow is reported once.
        if flow.finish.is_none() {
            self.completed.push(FlowIdx(f));
        }
        flow.finish = Some(self.now);
        flow.rto = None;
    }

    fn on_tx_done(&mut self, port: usize) {
        // The head packet leaves the wire-side of the port now.
        let arrive = self.key_at(self.now + self.ports[port].latency);
        let p = &mut self.ports[port];
        let pkt = p.queue.pop_front().expect("TxDone implies a head packet");
        let wire_was_idle = p.wire.is_empty();
        p.wire.push_back((arrive, pkt));
        let next_tx = p.queue.front().map(|next| self.now + p.ser(next));
        p.busy = next_tx.is_some();
        if wire_was_idle {
            self.port_events
                .push(Reverse((arrive, PortEvent::Wire(port as u32))));
        }
        if let Some(at) = next_tx {
            self.schedule_tx_done(at, port);
        }
    }

    fn on_arrive(&mut self, mut pkt: Packet) {
        let f = pkt.flow as usize;
        let flow = &mut self.flows[f];
        let rpath = (flow.path + flow.hops as u32) as usize;
        if pkt.hop < flow.hops {
            // Still inside the network: forward out of the next port.
            let path = if pkt.is_ack { rpath } else { flow.path as usize };
            let port = self.paths[path + pkt.hop as usize];
            pkt.hop += 1;
            self.enqueue(port as usize, pkt);
            return;
        }
        // Terminated at an end host.
        if pkt.is_ack {
            self.on_sender_ack(f, pkt.seq);
        } else {
            let ack_pkt = Packet {
                seq: flow.tcp.on_data(pkt.seq),
                flow: pkt.flow,
                hop: 1,
                is_ack: true,
            };
            let first = self.paths[rpath];
            self.enqueue(first as usize, ack_pkt);
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
            AckAction::Complete => self.complete(f),
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
            seq,
            flow: f as u32,
            hop: 1,
            is_ack: false,
        };
        let first = self.paths[self.flows[f].path as usize];
        self.enqueue(first as usize, pkt);
        self.stats.data_sent += 1;
    }

    fn restart_rto(&mut self, f: usize) {
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
        let key = self.key_at(self.now + rto);
        let flow = &mut self.flows[f];
        flow.rto = Some(key);
        // The live stand-in re-arms itself when it pops early; only a
        // deadline *ahead* of it needs a stand-in of its own.
        if flow.armed.is_none_or(|armed| key < armed) {
            flow.armed = Some(key);
            self.timers.push(Reverse((key, f as u32)));
        }
    }

    fn enqueue(&mut self, port: usize, pkt: Packet) {
        let lossless =
            self.cfg.pfc || self.flows[pkt.flow as usize].class == TrafficClass::Lossless;
        let p = &mut self.ports[port];
        if !lossless && p.queue.len() >= self.cfg.buffer_pkts {
            self.stats.drops += 1;
            *self.stats.drops_per_port.entry(port).or_insert(0) += 1;
            return;
        }
        p.queue.push_back(pkt);
        if !p.busy {
            p.busy = true;
            let at = self.now + p.ser(&pkt);
            self.schedule_tx_done(at, port);
        }
    }

    /// Appends the ports of the route from `src` to `dst` to `paths`.
    fn push_port_path(&mut self, src: HostId, dst: HostId, hash: u64) {
        let route = self.router.route_ref(&self.topo, src, dst, hash);
        self.paths.extend(route.iter().map(|hop| {
            let dir = match hop.dir {
                LinkDir::Forward => 0,
                LinkDir::Backward => 1,
            };
            (2 * hop.link.0 + dir) as u32
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    fn star(n: usize, cfg: SimConfig) -> PktSim {
        PktSim::new(
            Topology::single_switch(n, GBPS, TopoOptions::default()),
            cfg,
        )
    }

    #[test]
    fn single_flow_completes_near_line_rate() {
        let mut sim = star(2, SimConfig::default());
        let h = sim.topology().host_ids();
        // 1.5 MB = 1000 packets ≈ 12 ms of wire time at 1 Gbps.
        let f = sim.add_flow(h[0], h[1], 1_500_000, SimTime::ZERO);
        sim.run_until_idle();
        let t = sim.finish_time(f).expect("flow completes").as_secs_f64();
        assert!(t > 0.012, "cannot beat the wire: {t}");
        assert!(t < 0.1, "should be within a few RTT-driven factors: {t}");
        // Slow-start overshoot of the 50-packet buffer may drop packets,
        // but NewReno recovery must avoid timeouts for a lone flow.
        assert_eq!(sim.flow_timeouts(f), 0);
    }

    #[test]
    fn loopback_completes_instantly() {
        let mut sim = star(2, SimConfig::default());
        let h = sim.topology().host_ids();
        let f = sim.add_flow(h[0], h[0], 1_000_000, SimTime::ZERO);
        sim.run_until_idle();
        assert_eq!(sim.finish_time(f), Some(SimTime::ZERO));
    }

    #[test]
    fn two_flows_share_fairly() {
        // Long flows (60 MB, ~0.5 s solo) so a single 200 ms RTO cannot
        // dominate the comparison.
        let mut sim = star(3, SimConfig::default());
        let h = sim.topology().host_ids();
        let bytes = 60_000_000u64;
        let a = sim.add_flow(h[0], h[2], bytes, SimTime::ZERO);
        let b = sim.add_flow(h[1], h[2], bytes, SimTime::ZERO);
        sim.run_until_idle();
        let ta = sim.finish_time(a).unwrap().as_secs_f64();
        let tb = sim.finish_time(b).unwrap().as_secs_f64();
        let solo = bytes as f64 / GBPS;
        for t in [ta, tb] {
            assert!(t > 1.5 * solo, "sharing must slow both: {t} vs solo {solo}");
        }
        assert!(
            ta.max(tb) < 2.0 * ta.min(tb),
            "roughly fair: {ta} vs {tb}"
        );
    }

    #[test]
    fn incast_causes_drops_and_timeouts() {
        let mut sim = star(51, SimConfig::default());
        let h = sim.topology().host_ids();
        let sink = h[50];
        let flows: Vec<FlowIdx> = (0..50)
            .map(|i| sim.add_flow(h[i], sink, 10 * 1024, SimTime::ZERO))
            .collect();
        sim.run_until_idle();
        assert!(sim.stats().drops > 0, "50-way incast into a 50-pkt buffer must drop");
        let total_timeouts: u64 = flows.iter().map(|&f| sim.flow_timeouts(f)).sum();
        assert!(total_timeouts > 0, "some flows must hit RTO");
        let worst = flows
            .iter()
            .map(|&f| sim.finish_time(f).unwrap().as_secs_f64())
            .fold(0.0f64, f64::max);
        // Data alone is ~4 ms of wire time; incast pushes completion past
        // at least one 200 ms RTO.
        assert!(worst > 0.2, "incast tail must exceed one min-RTO: {worst}");
    }

    #[test]
    fn pfc_eliminates_incast_losses() {
        let mut sim = star(51, SimConfig::default().with_pfc());
        let h = sim.topology().host_ids();
        let sink = h[50];
        let flows: Vec<FlowIdx> = (0..50)
            .map(|i| sim.add_flow(h[i], sink, 10 * 1024, SimTime::ZERO))
            .collect();
        sim.run_until_idle();
        assert_eq!(sim.stats().drops, 0);
        let worst = flows
            .iter()
            .map(|&f| sim.finish_time(f).unwrap().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.2, "lossless incast stays below the RTO: {worst}");
    }

    #[test]
    fn bigger_buffers_reduce_drops() {
        let run = |buffer: usize| {
            let mut sim = star(33, SimConfig::default().with_buffer(buffer));
            let h = sim.topology().host_ids();
            for i in 0..32 {
                sim.add_flow(h[i], h[32], 15_000, SimTime::ZERO);
            }
            sim.run_until_idle();
            sim.stats().drops
        };
        assert!(run(16) > run(256));
    }

    #[test]
    fn delayed_start_respected() {
        let mut sim = star(2, SimConfig::default());
        let h = sim.topology().host_ids();
        let f = sim.add_flow(h[0], h[1], 1500, SimTime::from_secs_f64(1.0));
        sim.run_until_idle();
        assert!(sim.finish_time(f).unwrap().as_secs_f64() > 1.0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = star(2, SimConfig::default());
        let h = sim.topology().host_ids();
        sim.add_flow(h[0], h[1], 150_000_000, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(0.01));
        assert!(!sim.all_complete());
        assert!(sim.now() >= SimTime::from_secs_f64(0.01));
    }

    #[test]
    fn byte_conservation_per_flow() {
        // Every flow eventually delivers exactly total_pkts in-order packets.
        let mut sim = star(9, SimConfig::default().with_buffer(8));
        let h = sim.topology().host_ids();
        let flows: Vec<FlowIdx> = (0..8)
            .map(|i| sim.add_flow(h[i], h[8], 50_000, SimTime::ZERO))
            .collect();
        sim.run_until_idle();
        for f in flows {
            let tcp = &sim.flows[f.0].tcp;
            assert!(tcp.complete());
            assert_eq!(tcp.rcv_next, tcp.total_pkts, "all data delivered in order");
            assert!(sim.finish_time(f).is_some());
        }
    }

    #[test]
    fn reset_reproduces_fresh_sim_bit_for_bit() {
        // Three different flow sets: a 19-way incast, the same with other
        // sizes, and pairwise traffic with staggered starts — so what a
        // reset must forget (timers, lanes, sequence numbers) differs from
        // what the next run sets up.
        let load = |sim: &mut PktSim, round: u64| -> Vec<FlowIdx> {
            let h = sim.topology().host_ids();
            (0..19)
                .map(|i| {
                    let bytes = 20_000 + (i as u64 + round) * 1000;
                    if round == 2 {
                        let start = SimTime::from_nanos(i as u64 * 700_000);
                        sim.add_flow(h[i], h[(i + 7) % 20], 4 * bytes, start)
                    } else {
                        sim.add_flow(h[i], h[19], bytes, SimTime::ZERO)
                    }
                })
                .collect()
        };
        let outcome = |sim: &mut PktSim, round: u64| {
            let flows = load(sim, round);
            let mut steps = 0u64;
            while sim.step() {
                steps += 1;
            }
            let finishes: Vec<_> = flows.iter().map(|&f| sim.finish_time(f)).collect();
            (steps, finishes, sim.completed().to_vec(), sim.stats().drops_per_port.clone())
        };

        let mut reused = star(20, SimConfig::default());
        for round in [0, 1, 2, 0] {
            reused.reset();
            let fresh = outcome(&mut star(20, SimConfig::default()), round);
            assert_eq!(
                outcome(&mut reused, round),
                fresh,
                "reset run of flow set {round} diverged from a fresh simulator"
            );
        }
    }

    /// White-box view of the lazy timer: an ACK after a timeout restarts
    /// the RTO *ahead* of the armed stand-in, so a second entry is pushed
    /// and the first goes stale; stale entries never fire, and a drained
    /// simulator has dropped them all.
    #[test]
    fn superseded_stand_ins_are_dropped_not_fired() {
        let mut sim = star(31, SimConfig::default().with_buffer(8));
        let h = sim.topology().host_ids();
        for i in 0..30 {
            sim.add_flow(h[i], h[30], 60_000, SimTime::ZERO);
        }
        let mut most = 0;
        while sim.step() {
            for (f, flow) in sim.flows.iter().enumerate() {
                let stand_ins: Vec<Key> = sim
                    .timers
                    .iter()
                    .filter(|e| e.0 .1 == f as u32)
                    .map(|e| e.0 .0)
                    .collect();
                most = most.max(stand_ins.len());
                // The live stand-in is in the timer queue, at or before the
                // deadline it stands for.
                if let Some(armed) = flow.armed {
                    assert!(stand_ins.contains(&armed), "flow {f}: live stand-in gone");
                }
                match (flow.rto, flow.armed) {
                    (Some(rto), Some(armed)) => assert!(armed <= rto),
                    (Some(_), None) => panic!("a running timer has no stand-in"),
                    (None, _) => {}
                }
            }
        }
        assert!(most >= 2, "no restart ever overtook its stand-in");
        assert!(sim.stats().timeouts > 0);
        assert!(sim.timers.is_empty(), "stale stand-ins outlived the run");
        assert!(sim.all_complete());
    }

    /// What each queue may hold, checked after every event of a 30-way
    /// incast whose starts are staggered over the run: the port heap holds
    /// at most one `TxDone` and one `Wire` per port, each for a port with
    /// work behind it (its type admits no start and no timer), and the
    /// start queue holds exactly the flows that have not started.
    #[test]
    fn each_queue_holds_only_its_own_events() {
        let mut sim = star(31, SimConfig::default().with_buffer(8));
        let h = sim.topology().host_ids();
        for i in 0..30 {
            let start = SimTime::from_nanos(i as u64 * 50_000);
            sim.add_flow(h[i], h[30], 60_000, start);
        }
        let mut started_late = 0;
        while sim.step() {
            let mut heads = vec![[0u32; 2]; sim.ports.len()];
            for Reverse((_, event)) in sim.port_events.iter() {
                match *event {
                    PortEvent::TxDone(p) => {
                        heads[p as usize][0] += 1;
                        assert!(sim.ports[p as usize].busy, "TxDone on idle port {p}");
                    }
                    PortEvent::Wire(p) => {
                        heads[p as usize][1] += 1;
                        assert!(!sim.ports[p as usize].wire.is_empty(), "port {p}");
                    }
                }
            }
            for (p, [tx, wire]) in heads.into_iter().enumerate() {
                assert!(tx <= 1 && wire <= 1, "port {p}: {tx} TxDone, {wire} Wire");
                assert_eq!(tx == 1, sim.ports[p].busy, "port {p}");
                assert_eq!(wire == 1, !sim.ports[p].wire.is_empty(), "port {p}");
            }
            let mut waiting: Vec<u32> = sim.starts.iter().map(|e| e.0 .1).collect();
            waiting.sort_unstable();
            let unstarted: Vec<u32> = (0..sim.flows.len() as u32)
                .filter(|&f| sim.flows[f as usize].tcp.next_seq == 0)
                .collect();
            assert_eq!(waiting, unstarted, "at {:?}", sim.now());
            if !waiting.is_empty() && sim.stats().drops > 0 {
                started_late += 1;
            }
        }
        assert!(started_late > 0, "every flow started before drops");
        assert!(sim.starts.is_empty() && sim.port_events.is_empty() && sim.timers.is_empty());
        assert!(sim.all_complete());
    }

    #[test]
    fn reset_clears_flows_stats_and_time() {
        let mut sim = star(51, SimConfig::default());
        let h = sim.topology().host_ids();
        for i in 0..50 {
            sim.add_flow(h[i], h[50], 10 * 1024, SimTime::ZERO);
        }
        sim.run_until_idle();
        assert!(sim.stats().drops > 0);
        sim.reset();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.stats().drops, 0);
        assert!(sim.all_complete(), "no flows = vacuously complete");
        assert!(!sim.step(), "no events pending after reset");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = star(20, SimConfig::default());
            let h = sim.topology().host_ids();
            for i in 0..19 {
                sim.add_flow(h[i], h[19], 20_000 + i as u64 * 1000, SimTime::ZERO);
            }
            sim.run_until_idle().unwrap()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod class_tests {
    use super::*;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    /// Selective PFC: a lossless tenant sails through an incast that
    /// cripples lossy flows sharing the same port.
    #[test]
    fn lossless_class_survives_incast() {
        let topo = Topology::single_switch(62, GBPS, TopoOptions::default());
        let mut sim = PktSim::new(topo, SimConfig::default());
        let h = sim.topology().host_ids();
        let sink = h[61];
        let lossy: Vec<FlowIdx> = (0..50)
            .map(|i| sim.add_flow(h[i], sink, 10 * 1024, SimTime::ZERO))
            .collect();
        let protected: Vec<FlowIdx> = (50..60)
            .map(|i| {
                sim.add_flow_with_class(h[i], sink, 10 * 1024, SimTime::ZERO, TrafficClass::Lossless)
            })
            .collect();
        sim.run_until_idle();
        let worst_protected = protected
            .iter()
            .map(|&f| sim.finish_time(f).unwrap().as_secs_f64())
            .fold(0.0f64, f64::max);
        let worst_lossy = lossy
            .iter()
            .map(|&f| sim.finish_time(f).unwrap().as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            worst_protected < 0.2,
            "lossless tenant must dodge the RTO: {worst_protected}"
        );
        assert!(worst_lossy > 0.2, "lossy flows still collapse: {worst_lossy}");
        for &f in &protected {
            assert_eq!(sim.flow_timeouts(f), 0);
        }
    }

    /// The lossless class never loses a packet even at extreme fan-in.
    #[test]
    fn lossless_class_never_drops() {
        let topo = Topology::single_switch(101, GBPS, TopoOptions::default());
        let mut sim = PktSim::new(topo, SimConfig::default());
        let h = sim.topology().host_ids();
        for i in 0..100 {
            sim.add_flow_with_class(
                h[i],
                h[100],
                15_000,
                SimTime::ZERO,
                TrafficClass::Lossless,
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.stats().drops, 0);
    }
}
