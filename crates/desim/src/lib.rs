//! Deterministic discrete-event simulation kernel.
//!
//! Everything in the CloudTalk reproduction runs on simulated time: the
//! datacenter substrate ([`simnet`]), the packet-level simulator
//! ([`pktsim`]), and the CloudTalk control plane all schedule work through
//! the primitives in this crate.
//!
//! The kernel is intentionally small:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * [`EventQueue`] — a binary heap of typed events keyed by `(time, push
//!   order)`: FIFO at equal timestamps, [`EventQueue::pop_at`] drains one
//!   instant, nothing is cancelled (a re-armed timer keeps its deadline in
//!   the simulator's own state and lets the stale entry fire as a no-op).
//! * [`rng`] — seed-derivation utilities so every component draws from an
//!   independent, reproducible random stream.
//!
//! The kernel deliberately does *not* own the event loop: each simulator
//! owns its world state and drives `EventQueue::pop` itself, which keeps
//! borrows simple and avoids callback-ownership knots (`apps::Cluster::step`
//! is where the HDFS and MapReduce drivers' queues meet the fluid network).
//!
//! # Examples
//!
//! ```
//! use desim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_secs_f64(1.0), "later");
//! q.push(SimTime::ZERO, "now");
//! assert_eq!(q.pop().unwrap().1, "now");
//! assert_eq!(q.pop().unwrap().1, "later");
//! ```
//!
//! [`simnet`]: ../simnet/index.html
//! [`pktsim`]: ../pktsim/index.html

#![warn(missing_docs)]

mod queue;
pub mod rng;
mod time;

pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
