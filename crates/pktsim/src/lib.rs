//! Packet-level network simulator (htsim-style).
//!
//! The paper's CloudTalk server offers two evaluation backends: the fast
//! flow-level estimator and "a packet level simulator … very accurate and
//! captures packet-level effects such as incast" (§4) — the authors use
//! htsim with a VL2 topology for the web-search placement query (§5.4).
//! This crate is that backend, built from scratch:
//!
//! * [`sim::PktSim`] — event-driven simulation over a [`simnet::Topology`]:
//!   output-queued switch ports with drop-tail buffers (50 packets by
//!   default, as in §5.4), per-hop serialisation + propagation delay. The
//!   paper runs htsim *inside* CloudTalk, so this loop's speed is query
//!   latency: events fire in one `(time, scheduling order)` total order
//!   out of three queues — a heap of at most two entries per busy port
//!   (not one per packet in flight), the flows that have not started, and
//!   the retransmission timers (see [`sim`]) — and
//!   [`sim::PktSim::completed`] tells a driver what each step finished.
//! * [`tcp`] — TCP Reno endpoints: slow start, congestion avoidance,
//!   triple-duplicate-ACK fast retransmit, retransmission timeouts with
//!   exponential backoff and a 200 ms minimum RTO (the parameter that
//!   makes incast collapse hurt).
//! * [`workload`] — scatter-gather (incast) workload helpers.
//! * An optional lossless **PFC mode** ([`config::SimConfig::pfc`]): queues
//!   stop dropping, modelling the paper's suggestion that providers could
//!   "enable priority flow control (PFC) for selected tenant traffic".
//!
//! # Examples
//!
//! ```
//! use pktsim::{PktSim, SimConfig};
//! use simnet::topology::{TopoOptions, Topology};
//!
//! let topo = Topology::single_switch(3, simnet::GBPS, TopoOptions::default());
//! let mut sim = PktSim::new(topo, SimConfig::default());
//! let hosts = sim.topology().host_ids();
//! let f = sim.add_flow(hosts[0], hosts[2], 150_000, desim::SimTime::ZERO);
//! sim.run_until_idle();
//! assert!(sim.finish_time(f).is_some());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod workload;

pub use config::SimConfig;
pub use sim::{FlowIdx, PktSim, TrafficClass};
