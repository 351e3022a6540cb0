//! Simulated datacenter substrate for the CloudTalk reproduction.
//!
//! The paper evaluates CloudTalk on a 20-machine local cluster and on
//! Amazon EC2; neither is available here, so this crate provides the
//! equivalent substrate as a deterministic fluid (flow-level) simulation:
//!
//! * [`topology`] — hosts, switches, links; builders for the topologies the
//!   paper uses (single switch, two-tier rack/core, VL2-like full-bisection,
//!   EC2-style rate-limited star).
//! * [`disk`] — disk models (SSD/HDD read/write bandwidth).
//! * [`routing`] — shortest-path route computation with deterministic ECMP.
//! * [`sharing`] — the max-min fair (progressive-filling) bandwidth
//!   allocator, supporting rate caps, inelastic (UDP-like) traffic, and
//!   *coupled groups* whose members share one rate (pipelined transfers).
//! * [`engine`] — [`engine::NetSim`]: live transfers over the topology,
//!   fluid progression, completion events, and per-host load snapshots
//!   (what CloudTalk status servers measure).
//! * [`traffic`] — background traffic generators (iperf-style elephants,
//!   UDP constant-bit-rate interference).
//!
//! Full-bisection datacenter networks bottleneck at host access links
//! (paper §3.1/§4), which is exactly the regime a fluid simulation with
//! per-link max-min sharing captures faithfully.
//!
//! # Examples
//!
//! ```
//! use simnet::topology::Topology;
//! use simnet::engine::{NetSim, TransferSpec};
//!
//! // Two hosts on one switch, 1 Gbps NICs.
//! let topo = Topology::single_switch(2, simnet::GBPS, Default::default());
//! let mut net = NetSim::new(topo);
//! let h = net.hosts()[0];
//! let g = net.hosts()[1];
//! let t = net.start(TransferSpec::network(h, g, 125_000_000.0)); // 1 Gbit of payload
//! let done = net.run_until_idle();
//! assert_eq!(done, vec![t]);
//! assert!((net.now().as_secs_f64() - 1.0).abs() < 0.01);
//! ```

#![warn(missing_docs)]

pub mod disk;
pub mod engine;
pub mod routing;
pub mod sharing;
pub mod topology;
pub mod traffic;

pub use engine::{Completion, EngineStats, NetSim, TransferId, TransferSpec};
pub use topology::{HostId, LinkId, NodeId, Topology};

/// One gigabit per second, in bytes per second (the unit used throughout).
pub const GBPS: f64 = 1e9 / 8.0;

/// One megabit per second, in bytes per second.
pub const MBPS: f64 = 1e6 / 8.0;

/// Effective rate for transfers that never touch a shared resource
/// (loopback / intra-host copies): 100 Gbps.
pub const LOCAL_RATE: f64 = 100.0 * GBPS;
