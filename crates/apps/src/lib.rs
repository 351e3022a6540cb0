//! CloudTalk-enabled applications (paper §5).
//!
//! The paper modifies three applications to issue CloudTalk queries
//! "whenever they have a choice" (100–300 LOC per app). This crate holds
//! the simulated equivalents, each with both its vanilla decision policy
//! and the CloudTalk-optimised one:
//!
//! * [`hdfs`] — a distributed filesystem: NameNode block placement,
//!   pipelined (daisy-chained) replicated writes, replica-selection reads.
//! * [`mapreduce`] — a Hadoop-style MapReduce runtime: heartbeat-driven
//!   task assignment, data-local maps, shuffle, speculative execution.
//! * [`websearch`] — Solr-style scatter-gather search over aggregators,
//!   evaluated on the packet-level simulator (incast-dominated).
//! * [`Cluster`] — the shared harness tying a [`simnet::NetSim`] to a
//!   [`cloudtalk::server::CloudTalkServer`].

#![warn(missing_docs)]

pub(crate) mod cluster;
pub mod hdfs;
pub mod mapreduce;
pub mod websearch;

pub use cluster::Cluster;
