//! A Hadoop-style MapReduce runtime over the simulated cluster (§5.3).
//!
//! The model follows Hadoop 1.x: every node runs a TaskTracker with map
//! and reduce slots and sends periodic heartbeats; the JobTracker assigns
//! at most one task of each kind per heartbeat. Maps read their input
//! split (locally when data-local, over the network otherwise), compute,
//! and spill output to local disk; reducers fetch every map's partition as
//! it becomes available (the shuffle), compute, and write their output —
//! optionally as replicated HDFS blocks. Stragglers trigger speculative
//! duplicates.
//!
//! CloudTalk integration (§5.3):
//!
//! * **Reduce placement** — on a heartbeat, the node's fitness is checked
//!   against the answer to the `m`-variable reduce query; tasks go only to
//!   recommended nodes (with an anti-starvation override).
//! * **Map placement** — the map query picks which split holder the
//!   current node should pull from.
//! * **HDFS output** — reduce output pipelines are placed by the write
//!   query when [`MrConfig::replicate_output`] is on.

pub(crate) mod runtime;

pub use runtime::{run_sort_job, run_sort_job_on, MrConfig, SchedPolicy, SortJob};
