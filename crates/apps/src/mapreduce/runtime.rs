//! The MapReduce event-driven runtime.

use cloudtalk_lang::builder::{map_placement_query, reduce_placement_query};
use cloudtalk_lang::WordMap;
use desim::rng::{stream_rng, DetRng};
use desim::{EventQueue, SimDuration, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::engine::{Segment, TransferId, TransferSpec};
use simnet::topology::HostId;

use crate::cluster::Cluster;
use crate::hdfs::{place_write, start_block_write, HdfsConfig, Policy as HdfsPolicy};

/// Scheduling policy for task placement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// Stock Hadoop: data-local maps when possible, reducers to whoever
    /// asks first.
    Vanilla,
    /// Ask CloudTalk for map and reduce placement (§5.3).
    CloudTalk,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct MrConfig {
    /// Map slots per TaskTracker.
    pub map_slots: usize,
    /// Reduce slots per TaskTracker.
    pub reduce_slots: usize,
    /// Heartbeat interval, seconds (Hadoop default 3 s; scaled down so
    /// simulated jobs stay short).
    pub heartbeat_secs: f64,
    /// CPU time per map task, seconds.
    pub map_cpu_secs: f64,
    /// CPU time per reduce task, seconds.
    pub reduce_cpu_secs: f64,
    /// Enable speculative execution of stragglers.
    pub speculative: bool,
    /// A running task slower than this factor × the median completed
    /// duration gets a speculative duplicate.
    pub spec_factor: f64,
    /// Task scheduling policy.
    pub policy: SchedPolicy,
    /// Write reduce output as replicated HDFS blocks (Figure 9) instead of
    /// a plain local spill (Figures 7/8).
    pub replicate_output: bool,
    /// A reduce task left unassigned for this many full heartbeat rounds
    /// (every node declined once per round) is given to the next asker
    /// regardless of fitness (anti-starvation, §5.3: "a mechanism that
    /// prevents endlessly waiting for the best node").
    pub starvation_limit: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            map_slots: 2,
            reduce_slots: 2,
            heartbeat_secs: 0.5,
            map_cpu_secs: 0.5,
            reduce_cpu_secs: 1.0,
            speculative: true,
            spec_factor: 1.8,
            policy: SchedPolicy::Vanilla,
            replicate_output: false,
            starvation_limit: 6,
            seed: 0,
        }
    }
}

/// The sort workload (§5.3): `randomwriter` data on every node, shuffled
/// entirely to the reducers.
#[derive(Clone, Copy, Debug)]
pub struct SortJob {
    /// Input bytes generated per cluster node (512 MB local, 256 MB EC2).
    pub input_per_node: f64,
    /// Number of reduce tasks (10–70 % of cluster size in the paper).
    pub n_reducers: usize,
    /// Split size (one map task per split; paper uses 128 MB splits).
    pub split_bytes: f64,
}

/// What the job measured.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Wall-clock job completion: last reduce finished computing and
    /// handed its output to storage, seconds.
    pub finish_secs: f64,
    /// All output durable on disk (the §5.3 "sync" metric), seconds.
    pub sync_secs: f64,
    /// Per-reducer shuffle durations (first fetch start → last fetch end).
    pub shuffle_secs: Vec<f64>,
}

struct MapTask {
    /// Nodes holding a replica of this split (HDFS replication).
    holders: Vec<HostId>,
    /// Nodes that were given an attempt of this task.
    attempts: Vec<HostId>,
    /// The node whose attempt completed first.
    winner: Option<HostId>,
    /// When the first attempt was launched; `None` while the task is pending.
    started: Option<SimTime>,
}

struct ReduceTask {
    /// Where the task was placed; `None` while it is pending.
    node: Option<HostId>,
    fetches_pending: usize,
    shuffle_start: Option<SimTime>,
    shuffle_end: Option<SimTime>,
    skipped: u32,
    output_done: Option<SimTime>,
}

enum Event {
    Heartbeat(usize),
    MapCpuDone { task: usize, node: HostId },
    ReduceCpuDone { task: usize },
}

enum IoTag {
    MapRead { task: usize, node: HostId },
    MapSpill { task: usize, node: HostId },
    Fetch { reduce: usize },
    Output { reduce: usize },
}

/// Runs one sort job over every cluster host.
pub fn run_sort_job(cluster: &mut Cluster, cfg: &MrConfig, job: &SortJob) -> JobResult {
    let nodes = cluster.net.hosts();
    run_sort_job_on(cluster, cfg, job, &nodes)
}

/// Runs one sort job restricted to `nodes` (the Hadoop cluster may be a
/// subset of the machines, as in the §5.3 UDP-interference experiments).
pub fn run_sort_job_on(
    cluster: &mut Cluster,
    cfg: &MrConfig,
    job: &SortJob,
    nodes: &[HostId],
) -> JobResult {
    let t0 = cluster.now();
    let mut run = JobRun::new(cluster, cfg, job, nodes);
    run.run(cluster);

    let finish_t = run.finish.unwrap_or_else(|| cluster.now());
    let sync_t = run.sync.unwrap_or(finish_t);
    JobResult {
        finish_secs: (finish_t - t0).as_secs_f64(),
        sync_secs: (sync_t - t0).as_secs_f64(),
        shuffle_secs: run
            .reduces
            .iter()
            .filter_map(|r| match (r.shuffle_start, r.shuffle_end) {
                (Some(s), Some(e)) => Some((e - s).as_secs_f64()),
                _ => None,
            })
            .collect(),
    }
}

/// One job in flight: the JobTracker's tables, the TaskTrackers' slots and
/// the calendar of control events.
struct JobRun<'a> {
    cfg: &'a MrConfig,
    nodes: Vec<HostId>,
    maps: Vec<MapTask>,
    reduces: Vec<ReduceTask>,
    /// Free slots per TaskTracker, indexed by `HostId.0`.
    map_slots_free: Vec<usize>,
    reduce_slots_free: Vec<usize>,
    /// What each transfer in flight is doing for the job.
    io: WordMap<TransferId, IoTag>,
    events: EventQueue<Event>,
    rng: DetRng,
    split_bytes: f64,
    /// One map's partition for one reducer (sort: everything is shuffled).
    fetch_bytes: f64,
    /// Durations of the maps completed so far, ascending (the speculation
    /// baseline: its median is the middle element).
    map_durations: Vec<f64>,
    speculative_launched: usize,
    /// Reduces that have not finished computing yet.
    reduces_computing: usize,
    /// When the last reduce handed its output to storage.
    finish: Option<SimTime>,
    /// When the last output was durable.
    sync: Option<SimTime>,
}

impl<'a> JobRun<'a> {
    fn new(cluster: &Cluster, cfg: &'a MrConfig, job: &SortJob, nodes: &[HostId]) -> Self {
        let nodes = nodes.to_vec();
        let n_nodes = nodes.len();
        let mut rng = stream_rng(cfg.seed, 0x4D52);

        // Input: every node generated `input_per_node` bytes of randomwriter
        // data into HDFS, so each split has `replication` replicas: one local
        // to its generator plus the rest on random nodes ("Optimisations are
        // disabled during input generation", §5.3).
        let splits_per_node = ((job.input_per_node / job.split_bytes).ceil() as usize).max(1);
        let split_bytes = job.input_per_node / splits_per_node as f64;
        let replication = 3.min(n_nodes);
        let mut maps: Vec<MapTask> = Vec::new();
        for &generator in &nodes {
            for _ in 0..splits_per_node {
                let mut holders = vec![generator];
                while holders.len() < replication {
                    let pick = nodes[rng.gen_range(0..n_nodes)];
                    if !holders.contains(&pick) {
                        holders.push(pick);
                    }
                }
                maps.push(MapTask {
                    holders,
                    attempts: Vec::new(),
                    winner: None,
                    started: None,
                });
            }
        }
        let reduces = (0..job.n_reducers)
            .map(|_| ReduceTask {
                node: None,
                fetches_pending: maps.len(),
                shuffle_start: None,
                shuffle_end: None,
                skipped: 0,
                output_done: None,
            })
            .collect();

        // Stagger heartbeats across the interval in a seeded random order, so
        // first-asker-wins assignment does not systematically favour (or
        // punish) low-index nodes.
        let mut events = EventQueue::new();
        let mut hb_order: Vec<usize> = (0..n_nodes).collect();
        hb_order.shuffle(&mut rng);
        for (slot, &i) in hb_order.iter().enumerate() {
            let offset = cfg.heartbeat_secs * (slot as f64 / n_nodes as f64);
            let at = cluster.now() + SimDuration::from_secs_f64(offset);
            events.push(at, Event::Heartbeat(i));
        }

        let n_hosts = cluster.net.topology().host_count();
        JobRun {
            cfg,
            nodes,
            maps,
            reduces,
            map_slots_free: vec![cfg.map_slots; n_hosts],
            reduce_slots_free: vec![cfg.reduce_slots; n_hosts],
            io: WordMap::default(),
            events,
            rng,
            split_bytes,
            fetch_bytes: split_bytes / job.n_reducers as f64,
            map_durations: Vec::new(),
            speculative_launched: 0,
            reduces_computing: job.n_reducers,
            finish: None,
            sync: None,
        }
    }

    /// Steps the calendar and the network together until every reduce's
    /// output is durable. Heartbeats re-arm themselves, so the calendar
    /// never runs dry before that.
    fn run(&mut self, cluster: &mut Cluster) {
        let hdfs_cfg = HdfsConfig::default();
        let mut done = Vec::new();
        while let Some(t) = cluster.step(&self.events, &mut done) {
            for completion in &done {
                let Some(tag) = self.io.remove(&completion.id) else {
                    continue;
                };
                match tag {
                    IoTag::MapRead { task, node } => {
                        if self.maps[task].winner.is_some() {
                            // Lost to a speculative twin; release the slot.
                            self.map_slots_free[node.0] += 1;
                            continue;
                        }
                        self.events.push(
                            t + SimDuration::from_secs_f64(self.cfg.map_cpu_secs),
                            Event::MapCpuDone { task, node },
                        );
                    }
                    IoTag::MapSpill { task, node } => {
                        // Winner or loser, the attempt is over.
                        self.map_slots_free[node.0] += 1;
                        if self.maps[task].winner.is_some() {
                            continue;
                        }
                        self.maps[task].winner = Some(node);
                        if let Some(s) = self.maps[task].started {
                            insert_sorted(&mut self.map_durations, (t - s).as_secs_f64());
                        }
                        // Feed every placed reducer its partition.
                        for ri in 0..self.reduces.len() {
                            if self.reduces[ri].node.is_some() {
                                self.start_fetch(cluster, ri, task);
                            }
                        }
                    }
                    IoTag::Fetch { reduce } => {
                        let r = &mut self.reduces[reduce];
                        r.fetches_pending -= 1;
                        if r.fetches_pending == 0 {
                            r.shuffle_end = Some(t);
                            self.events.push(
                                t + SimDuration::from_secs_f64(self.cfg.reduce_cpu_secs),
                                Event::ReduceCpuDone { task: reduce },
                            );
                        }
                    }
                    IoTag::Output { reduce } => {
                        self.reduces[reduce].output_done = Some(t);
                        if self.reduces.iter().all(|r| r.output_done.is_some()) {
                            self.sync = self.reduces.iter().filter_map(|r| r.output_done).max();
                            return;
                        }
                    }
                }
            }

            while let Some(ev) = self.events.pop_at(t) {
                match ev {
                    Event::Heartbeat(node_idx) => {
                        self.heartbeat(cluster, node_idx);
                        self.events.push(
                            t + SimDuration::from_secs_f64(self.cfg.heartbeat_secs),
                            Event::Heartbeat(node_idx),
                        );
                    }
                    Event::MapCpuDone { task, node } => {
                        if self.maps[task].winner.is_some() {
                            self.map_slots_free[node.0] += 1;
                            continue;
                        }
                        // Sort: a map's output is as large as its input.
                        let spill = TransferSpec::disk_write(node, self.split_bytes);
                        let tid = cluster.net.start(spill);
                        self.io.insert(tid, IoTag::MapSpill { task, node });
                    }
                    Event::ReduceCpuDone { task } => {
                        let node = self.reduces[task].node.expect("computing reduce is placed");
                        self.reduces_computing -= 1;
                        if self.reduces_computing == 0 {
                            self.finish = Some(t);
                        }
                        let out_bytes = self.maps.len() as f64 * self.fetch_bytes;
                        let tid = if self.cfg.replicate_output {
                            let policy = match self.cfg.policy {
                                SchedPolicy::Vanilla => HdfsPolicy::Vanilla,
                                SchedPolicy::CloudTalk => HdfsPolicy::CloudTalk,
                            };
                            let replicas = place_write(
                                cluster,
                                &hdfs_cfg,
                                node,
                                &self.nodes,
                                policy,
                                &mut self.rng,
                            );
                            start_block_write(cluster, out_bytes, node, &replicas)
                        } else {
                            cluster.net.start(TransferSpec::disk_write(node, out_bytes))
                        };
                        self.io.insert(tid, IoTag::Output { reduce: task });
                        self.reduce_slots_free[node.0] += 1;
                    }
                }
            }
        }
    }

    /// Starts reducer `reduce`'s fetch of finished map `map`'s partition.
    fn start_fetch(&mut self, cluster: &mut Cluster, reduce: usize, map: usize) {
        let src = self.maps[map]
            .winner
            .expect("fetch only from finished maps");
        let r = &mut self.reduces[reduce];
        let dst = r.node.expect("fetch only for placed reduce");
        r.shuffle_start.get_or_insert(cluster.now());
        let spec = TransferSpec {
            segments: vec![
                Segment::DiskRead(src),
                Segment::Net { src, dst },
                Segment::DiskWrite(dst),
            ],
            bytes: self.fetch_bytes,
            cap: None,
            inelastic_rate: None,
        };
        let tid = cluster.net.start(spec);
        self.io.insert(tid, IoTag::Fetch { reduce });
    }

    /// One TaskTracker heartbeat: the JobTracker hands `nodes[node_idx]` at
    /// most one map and one reduce task.
    fn heartbeat(&mut self, cluster: &mut Cluster, node_idx: usize) {
        let cfg = self.cfg;
        let node = self.nodes[node_idx];
        // --- map assignment (one per heartbeat) ----------------------------
        if self.map_slots_free[node.0] > 0 {
            let maps = &self.maps;
            let pending: Vec<usize> = (0..maps.len())
                .filter(|&i| maps[i].started.is_none())
                .collect();
            if !pending.is_empty() {
                // (task index, replica to read from).
                let (task, source): (usize, HostId) = match cfg.policy {
                    SchedPolicy::Vanilla => {
                        // Data-local first (read the local replica), else the
                        // first pending split from a random replica.
                        let local = pending
                            .iter()
                            .copied()
                            .find(|&i| maps[i].holders.contains(&node));
                        match local {
                            Some(i) => (i, node),
                            None => {
                                let i = pending[0];
                                let hs = &maps[i].holders;
                                (i, hs[self.rng.gen_range(0..hs.len())])
                            }
                        }
                    }
                    SchedPolicy::CloudTalk => {
                        // §5.3: "The possible values for variable X are nodes
                        // which store a data split that must be processed by a
                        // pending map task" — then take any pending task with
                        // input at the recommended location.
                        let mut holders: Vec<HostId> = pending
                            .iter()
                            .flat_map(|&i| maps[i].holders.iter().copied())
                            .collect();
                        holders.sort_unstable();
                        holders.dedup();
                        let pool: Vec<_> = holders.iter().map(|&h| cluster.addr(h)).collect();
                        let q = map_placement_query(cluster.addr(node), &pool, self.split_bytes);
                        let problem = q.resolve().expect("map query well-formed");
                        let best = cluster.ask_hosts_advisory(&problem).ok().map(|b| b[0]);
                        best.and_then(|b| {
                            let at_best = |&i: &usize| maps[i].holders.contains(&b);
                            pending.iter().copied().find(at_best).map(|i| (i, b))
                        })
                        .unwrap_or((pending[0], maps[pending[0]].holders[0]))
                    }
                };
                self.launch_map(cluster, task, node, source);
            } else if cfg.speculative && !self.map_durations.is_empty() {
                // Stragglers: duplicate the slowest over-median running map.
                let median = self.map_durations[self.map_durations.len() / 2];
                let threshold = median * cfg.spec_factor;
                let now = cluster.now();
                let candidate = maps.iter().position(|m| {
                    m.winner.is_none()
                        && m.attempts.len() == 1
                        && !m.attempts.contains(&node)
                        && m.started
                            .is_some_and(|s| (now - s).as_secs_f64() > threshold)
                });
                if let Some(task) = candidate {
                    let source = if maps[task].holders.contains(&node) {
                        node
                    } else {
                        maps[task].holders[0]
                    };
                    self.launch_map(cluster, task, node, source);
                    self.speculative_launched += 1;
                }
            }
        }

        // --- reduce assignment (at most one per heartbeat) ------------------
        if self.reduce_slots_free[node.0] > 0 {
            let pending: Vec<usize> = (0..self.reduces.len())
                .filter(|&i| self.reduces[i].node.is_none())
                .collect();
            if let Some(&task) = pending.first() {
                let assign = match cfg.policy {
                    SchedPolicy::Vanilla => true,
                    SchedPolicy::CloudTalk => {
                        // Rotate the candidate pool so the asking node comes
                        // first: the heuristic breaks score ties in pool order,
                        // so a node as fit as the best is recommended work
                        // when *it* asks (otherwise equally-idle high-index
                        // nodes would never appear in S and the starvation
                        // override would push tasks onto loaded machines).
                        let pool: Vec<_> = self.nodes[node_idx..]
                            .iter()
                            .chain(&self.nodes[..node_idx])
                            .map(|&h| cluster.addr(h))
                            .collect();
                        let q = reduce_placement_query(&pool, pending.len(), 1e9);
                        let problem = q.resolve().expect("reduce query well-formed");
                        // Advisory: only the asking node may act on the answer,
                        // and only when its recommended fitness is competitive
                        // ("its fitness is evaluated after receiving a
                        // response", §5.3) — pool exhaustion can force weak
                        // nodes into the answer set, and those should wait.
                        match cluster.ask_advisory(&problem) {
                            Ok(answer) => {
                                let mine = answer
                                    .binding
                                    .iter()
                                    .zip(&answer.binding_scores)
                                    .find(|(v, _)| {
                                        matches!(v, cloudtalk_lang::problem::Value::Addr(a)
                                            if cluster.host(*a) == Some(node))
                                    })
                                    .map(|(_, s)| *s);
                                let best = answer
                                    .binding_scores
                                    .iter()
                                    .copied()
                                    .fold(f64::NEG_INFINITY, f64::max);
                                let fit = match mine {
                                    Some(s) if s.is_infinite() || best.is_infinite() => {
                                        s.is_infinite()
                                    }
                                    Some(s) => s >= 0.8 * best,
                                    None => false,
                                };
                                if fit {
                                    true
                                } else {
                                    let r = &mut self.reduces[task];
                                    r.skipped += 1;
                                    // One "round" of skips ≈ every node declining once.
                                    r.skipped > cfg.starvation_limit * self.nodes.len() as u32
                                }
                            }
                            Err(_) => true,
                        }
                    }
                };
                if assign {
                    self.reduces[task].node = Some(node);
                    self.reduce_slots_free[node.0] -= 1;
                    // Fetch everything already finished.
                    for m in 0..self.maps.len() {
                        if self.maps[m].winner.is_some() {
                            self.start_fetch(cluster, task, m);
                        }
                    }
                    // Degenerate case: zero maps (not possible for sort jobs,
                    // but keep the invariant).
                    debug_assert!(self.reduces[task].fetches_pending > 0);
                }
            }
        }
    }

    /// Starts an attempt of map `task` on `node`, reading the split from
    /// `source`, and takes one of `node`'s map slots for it.
    fn launch_map(&mut self, cluster: &mut Cluster, task: usize, node: HostId, source: HostId) {
        let m = &mut self.maps[task];
        m.attempts.push(node);
        m.started.get_or_insert(cluster.now());
        let spec = if source == node {
            // Data-local: read the split from the local disk.
            TransferSpec::disk_read(node, self.split_bytes)
        } else {
            // Remote: the chosen replica's disk + network into this node.
            TransferSpec::read_and_send(source, node, self.split_bytes)
        };
        let tid = cluster.net.start(spec);
        self.io.insert(tid, IoTag::MapRead { task, node });
        self.map_slots_free[node.0] -= 1;
    }
}

/// Inserts `duration` into the ascending `sorted`, after any equal ones.
fn insert_sorted(sorted: &mut Vec<f64>, duration: f64) {
    let at = sorted.partition_point(|&d| d <= duration);
    sorted.insert(at, duration);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk::server::ServerConfig;
    use simnet::topology::TopoOptions;
    use simnet::traffic::udp_blast;
    use simnet::{Topology, GBPS};

    const MB: f64 = 1024.0 * 1024.0;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(
            Topology::single_switch(n, GBPS, TopoOptions::default()),
            ServerConfig::default(),
        )
    }

    fn small_job() -> SortJob {
        SortJob {
            input_per_node: 64.0 * MB,
            n_reducers: 2,
            split_bytes: 64.0 * MB,
        }
    }

    #[test]
    fn sort_job_completes_with_vanilla_scheduler() {
        let mut c = cluster(4);
        let cfg = MrConfig::default();
        let r = run_sort_job(&mut c, &cfg, &small_job());
        assert!(r.finish_secs > 0.0);
        assert!(r.sync_secs >= r.finish_secs);
        assert_eq!(r.shuffle_secs.len(), 2);
        for s in &r.shuffle_secs {
            assert!(*s > 0.0);
        }
    }

    #[test]
    fn sort_job_completes_with_cloudtalk_scheduler() {
        let mut c = cluster(4);
        let cfg = MrConfig {
            policy: SchedPolicy::CloudTalk,
            ..Default::default()
        };
        let r = run_sort_job(&mut c, &cfg, &small_job());
        assert!(r.finish_secs > 0.0);
        assert_eq!(r.shuffle_secs.len(), 2);
    }

    #[test]
    fn cloudtalk_shuffles_faster_under_udp_interference() {
        // §5.3: UDP iperf at some nodes; CloudTalk reduce placement should
        // cut shuffle time versus heartbeat-order placement.
        let run = |policy: SchedPolicy| {
            let mut c = cluster(12);
            let hosts = c.net.hosts();
            let mut rng = stream_rng(77, 0);
            // UDP blast into 5 of 12 nodes from the others.
            let targets: Vec<HostId> = hosts[..5].to_vec();
            let senders: Vec<HostId> = hosts[10..].to_vec();
            udp_blast(&mut c.net, &mut rng, &senders, &targets, 0.9 * GBPS);
            let cfg = MrConfig {
                policy,
                seed: 9,
                ..Default::default()
            };
            let job = SortJob {
                input_per_node: 32.0 * MB,
                n_reducers: 4,
                split_bytes: 32.0 * MB,
            };
            // The Hadoop cluster excludes the UDP senders ("connections
            // from outside the Hadoop cluster", §5.3).
            let r = run_sort_job_on(&mut c, &cfg, &job, &hosts[..10]);
            r.shuffle_secs.iter().copied().sum::<f64>() / r.shuffle_secs.len() as f64
        };
        let vanilla = run(SchedPolicy::Vanilla);
        let cloudtalk = run(SchedPolicy::CloudTalk);
        assert!(
            cloudtalk < vanilla,
            "CloudTalk shuffle {cloudtalk:.2}s must beat vanilla {vanilla:.2}s"
        );
    }

    #[test]
    fn replicated_output_extends_sync_time() {
        let mut c = cluster(4);
        let cfg = MrConfig {
            replicate_output: true,
            ..Default::default()
        };
        let r = run_sort_job(&mut c, &cfg, &small_job());
        assert!(r.sync_secs >= r.finish_secs);
    }

    #[test]
    fn jobs_are_deterministic() {
        let run = || {
            let mut c = cluster(6);
            let cfg = MrConfig {
                seed: 3,
                ..Default::default()
            };
            let r = run_sort_job(&mut c, &cfg, &small_job());
            (r.finish_secs, r.sync_secs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_map_slot_is_free_or_running_an_attempt_at_job_exit() {
        // Node 0's disk is slow to write only, so its two attempts read and
        // compute on time and then crawl through their spills (done at
        // ≈ 2.55 s and 3.05 s) while speculative twins elsewhere start late,
        // spill fast and win (≈ 2.31 s and 2.63 s), well before the reduces'
        // 3 s of CPU let the job exit. A loser at the spill stage hands its
        // slot back like a loser at any other.
        let mut topo = Topology::single_switch(4, GBPS, TopoOptions::default());
        let slow_writes = simnet::disk::DiskModel {
            write_bps: 30e6,
            ..Default::default()
        };
        topo.set_disk(HostId(0), slow_writes);
        let mut c = Cluster::new(topo, ServerConfig::default());
        let cfg = MrConfig {
            spec_factor: 1.2,
            reduce_cpu_secs: 3.0,
            ..Default::default()
        };
        let job = SortJob {
            input_per_node: 64.0 * MB,
            n_reducers: 2,
            split_bytes: 32.0 * MB,
        };
        let nodes = c.net.hosts();
        let mut run = JobRun::new(&c, &cfg, &job, &nodes);
        run.run(&mut c);
        assert!(run.speculative_launched > 0, "no twin, nothing to lose");

        let mut running = vec![0; nodes.len()];
        for tag in run.io.values() {
            if let IoTag::MapRead { node, .. } | IoTag::MapSpill { node, .. } = tag {
                running[node.0] += 1;
            }
        }
        while let Some((_, ev)) = run.events.pop() {
            if let Event::MapCpuDone { node, .. } = ev {
                running[node.0] += 1;
            }
        }
        for node in nodes {
            let free = run.map_slots_free[node.0];
            assert_eq!(free + running[node.0], cfg.map_slots, "{node:?}");
        }
    }

    /// The straggler threshold's median, read by index from durations kept
    /// sorted on insert, equals the clone-and-sort median the heartbeat
    /// used to compute (kept here as the oracle) bit for bit, at every
    /// length, for durations arriving in any order — ties included, since
    /// maps that finish alike tie. End to end the pin is `fig9`
    /// (speculative execution on), whose golden output must not move.
    #[test]
    fn median_by_index_equals_clone_and_sort() {
        let clone_and_sort = |durations: &[f64]| {
            let mut sorted = durations.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            sorted[sorted.len() / 2]
        };
        let mut rng = stream_rng(26, 0);
        for _ in 0..40 {
            let (mut arrived, mut sorted) = (Vec::new(), Vec::new());
            for _ in 0..150 {
                let d = if rng.gen_bool(0.3) {
                    0.25 * rng.gen_range(1..12) as f64
                } else {
                    rng.gen_range(1e-9..30.0)
                };
                arrived.push(d);
                insert_sorted(&mut sorted, d);
                let by_index = sorted[sorted.len() / 2];
                assert_eq!(by_index.to_bits(), clone_and_sort(&arrived).to_bits());
            }
        }
    }

    #[test]
    fn speculative_execution_can_trigger_on_slow_disk() {
        // One node with a pathologically slow disk holding many splits.
        let mut topo = Topology::single_switch(4, GBPS, TopoOptions::default());
        topo.set_disk(HostId(0), simnet::disk::DiskModel::hdd().scaled(0.05));
        let mut c = Cluster::new(topo, ServerConfig::default());
        let cfg = MrConfig {
            speculative: true,
            spec_factor: 1.2,
            ..Default::default()
        };
        let job = SortJob {
            input_per_node: 64.0 * MB,
            n_reducers: 2,
            split_bytes: 32.0 * MB,
        };
        let nodes = c.net.hosts();
        let mut run = JobRun::new(&c, &cfg, &job, &nodes);
        run.run(&mut c);
        assert!(run.finish.is_some());
        // Not guaranteed, but with a 20x-slow disk it should fire.
        assert!(
            run.speculative_launched > 0,
            "expected speculative attempts against the slow node"
        );
    }
}
