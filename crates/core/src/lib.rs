//! CloudTalk: the cloud–tenant hint API (the paper's core contribution).
//!
//! A tenant describes a communication scenario — flows with free variables
//! over candidate endpoints — in the CloudTalk language; the provider-side
//! server answers with the binding that minimises task completion time,
//! using live I/O information gathered from per-host *status servers*.
//!
//! Architecture (paper §4, Figure 2):
//!
//! * [`status`] — status servers measuring NIC/disk capacity and usage.
//! * [`transport`] — the UDP scatter-gather used to interrogate status
//!   servers, with fan-out-dependent loss (the motivation for sampling).
//! * [`score`] — the `evalRx`/`evalTx`/`diskRead`/`diskWrite` fitness
//!   functions with the selectable weight `W` (default 2).
//! * [`heuristic`] — the scalable query evaluation algorithm of Listing 1
//!   (priority binding + best-resource scoring), `O(max(m, n·p))`.
//! * [`exhaustive`] — brute-force search over all bindings, scored by the
//!   flow-level estimator; the accuracy baseline of §5.1.
//! * [`pkteval`] — the packet-level evaluation backend (§5.4 web search).
//! * [`pktsearch`] — the packet-level *search* backend: the same binding
//!   enumeration with symmetry memoisation and incumbent early-abort.
//!   (Both searches are evaluators handed to one private walk, which also
//!   holds the crate's only thread spawn.)
//! * [`canon`] — canonical query fingerprinting: host equivalence
//!   classes (shared with the pktsearch memoiser) and structural
//!   problem hashes, the identity half of every answer-cache key.
//! * `qcache` — the serving plane's two-tier answer cache: per-worker
//!   L1 plus a shared L2 (one tier type) keyed on (exact problem,
//!   snapshot epoch, footprint-restricted reservation mask, rung,
//!   backend); invalidation is epoch-driven, hits are bit-identical to
//!   misses. [`server::CloudTalkServer`] answers never touch it.
//! * [`sampling`] — §4.3: how many servers to sample for near-optimal
//!   answers, plus the analytic n(d, p, confidence) calculator (Figure 4).
//! * [`reservation`] — §5.5 pseudo-reservations preventing oscillation:
//!   one [`reservation::Reservations`] value type behind both front doors,
//!   holding a hold by fleet slot on the plane and by address elsewhere.
//! * [`server`] — [`server::CloudTalkServer`] tying it all together.
//! * [`messages`] — wire-format sizes for the §5.5 overhead accounting,
//!   hosted in the server's [`obs`] metrics registry.
//! * [`faults`] — deterministic fault injection (crashed status servers,
//!   partitions, stragglers, stale and corrupted reports, plus
//!   aggregator-scoped crash/partition/straggler/mid-push faults) for
//!   chaos testing the collection/answer path; the server survives all
//!   of it via retry/backoff, staleness decay, and a
//!   graceful-degradation ladder ([`server::DegradationRung`]).
//! * [`serving`] — the multi-tenant serving plane: wave-batched
//!   admission over sharded snapshots, per-tenant holds written by fleet
//!   slot into one published [`reservation::Reservations`] at wave close,
//!   and load-shedding
//!   backpressure — bit-identical answers at any worker count.
//! * [`aggregate`] — the hierarchical status plane for 100k+ hosts:
//!   rack-level aggregators keeping delta-compressed, epoch-stamped
//!   snapshots of their racks, merged by an [`aggregate::AggregationPlane`]
//!   that serves the fleet through [`status::StatusSource`] with an
//!   explicit failover ladder (retry → standby → bypass → stale rack).
//!
//! Observability: every answer carries a structured
//! [`server::Provenance`] — rung, backend, search-effort counters, gather
//! bytes, stale-host list, and a per-phase span tree recorded with the
//! `obs` crate (deterministic by default; see [`server::ObsConfig`]).
//! [`server::CloudTalkServer::metrics`] exposes the server's metrics
//! registry for flat dumps.
//!
//! The paper's §7 future-work directions (workload-described price
//! quotes, CPU/memory requirements filtering candidate pools) are
//! extensions built on this crate, not part of it: they live in the root
//! package's `examples/billing_quote.rs`.
//!
//! # Examples
//!
//! ```
//! use cloudtalk::server::{CloudTalkServer, ServerConfig};
//! use cloudtalk::status::TableStatusSource;
//! use cloudtalk_lang::problem::Address;
//! use estimator::HostState;
//!
//! // Three datanodes; 10.0.0.3 is busy transmitting.
//! let mut status = TableStatusSource::new();
//! status.set(Address(0x0A000002), HostState::gbps_idle());
//! status.set(Address(0x0A000003), HostState::gbps_idle().with_up_load(0.9));
//! status.set(Address(0x0A000004), HostState::gbps_idle());
//!
//! let mut server = CloudTalkServer::new(ServerConfig::default());
//! let answer = server
//!     .answer_text(
//!         "src = (10.0.0.2 10.0.0.3 10.0.0.4)\nf1 src -> 10.0.0.1 size 256M",
//!         &mut status,
//!         desim::SimTime::ZERO,
//!     )
//!     .unwrap();
//! // The busy replica is avoided.
//! assert_ne!(
//!     answer.binding[0],
//!     cloudtalk_lang::problem::Value::Addr(Address(0x0A000003))
//! );
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod canon;
pub mod exhaustive;
pub mod faults;
mod footprint;
pub mod heuristic;
pub mod messages;
pub mod pkteval;
pub mod pktsearch;
pub(crate) mod qcache;
pub mod reservation;
pub mod sampling;
pub mod score;
pub mod server;
pub mod serving;
pub mod status;
pub mod transport;
mod walk;

pub use faults::FaultySource;
pub use server::Backend;
