//! Flow-level completion-time estimator (paper §4).
//!
//! > "The flow-level estimator arithmetically allocates a rate to each flow
//! > using the assumption that bottleneck links are shared equally (while
//! > also taking any restrictions into account) … The algorithm iteratively
//! > computes flow rates until they stabilize. It is accurate for large
//! > transfers and much faster than the packet level simulator."
//!
//! Given a resolved `cloudtalk_lang::Problem`, a variable binding and
//! a [`World`] of per-host I/O state (what the status servers report), the
//! estimator computes each flow's completion time under max-min fair
//! sharing of host NIC and disk resources — the only places a
//! full-bisection datacenter network can bottleneck (§3.1/§4).
//!
//! Restrictions honoured:
//!
//! * `rate <literal>` — a hard rate cap;
//! * `rate r(f)` — rate *coupling*: both flows form one group progressing
//!   at a single common rate (the paper's pipelined-transfer idiom);
//! * `size sz(f)` (and arithmetic over literals/sizes) — resolved statically;
//! * `start <literal>` — delayed start;
//! * `transfer t(f)` — store-and-forward precedence: the flow cannot finish
//!   before its upstream does.
//!
//! Background load in the [`World`] is inelastic: query flows only get the
//! residual capacity, as in the paper's §5.1 evaluation setup.
//!
//! # Examples
//!
//! ```
//! use cloudtalk_lang::builder::hdfs_read_query;
//! use cloudtalk_lang::problem::{Address, Value};
//! use estimator::{estimate, World};
//!
//! let replicas = [Address(2), Address(3)];
//! let problem = hdfs_read_query(Address(1), &replicas, 256e6).resolve().unwrap();
//! let world = World::uniform(&problem.mentioned_addresses(), estimator::HostState::gbps_idle());
//! let est = estimate(&problem, &vec![Value::Addr(Address(2))], &world).unwrap();
//! assert!(est.makespan > 0.0);
//! ```

#![warn(missing_docs)]

mod delta;
mod model;
mod world;

pub use delta::{CapacityTable, DeltaEstimator, DeltaStats, Resource};
pub use model::{
    estimate, estimate_with, resolve_sizes_into, resolve_static_sizes, EstimateError,
    EstimatorScratch,
};
pub use world::{HostState, World};
