//! The MapReduce event-driven runtime.

use std::collections::HashMap;

use cloudtalk_lang::builder::{map_placement_query, reduce_placement_query};
use desim::rng::{stream_rng, DetRng};
use desim::{EventQueue, SimDuration, SimTime};
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
    /// Speculative attempts launched.
    pub speculative_launched: usize,
    /// When the last map task finished, seconds.
    pub maps_done_secs: f64,
    /// Per-reducer `(node index, placed at, shuffle end)` diagnostics.
    pub reduce_trace: Vec<(usize, f64, f64)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MapStage {
    Pending,
    Reading,
    Computing,
    Spilling,
    Done,
}

struct MapTask {
    /// Nodes holding a replica of this split (HDFS replication).
    holders: Vec<HostId>,
    stage: MapStage,
    /// Nodes currently running an attempt of this task.
    attempts: Vec<HostId>,
    /// The node whose attempt completed first.
    winner: Option<HostId>,
    started: Option<SimTime>,
    finished: Option<SimTime>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReduceStage {
    Pending,
    Shuffling,
    Computing,
    Writing,
    Done,
}

struct ReduceTask {
    node: Option<HostId>,
    stage: ReduceStage,
    fetches_pending: usize,
    fetches_started: usize,
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
                use rand::Rng;
                let pick = nodes[rng.gen_range(0..n_nodes)];
                if !holders.contains(&pick) {
                    holders.push(pick);
                }
            }
            maps.push(MapTask {
                holders,
                stage: MapStage::Pending,
                attempts: Vec::new(),
                winner: None,
                started: None,
                finished: None,
            });
        }
    }
    let n_maps = maps.len();
    let map_out_bytes = split_bytes; // sort: shuffle everything
    let fetch_bytes = map_out_bytes / job.n_reducers as f64;

    let mut reduces: Vec<ReduceTask> = (0..job.n_reducers)
        .map(|_| ReduceTask {
            node: None,
            stage: ReduceStage::Pending,
            fetches_pending: n_maps,
            fetches_started: 0,
            shuffle_start: None,
            shuffle_end: None,
            skipped: 0,
            output_done: None,
        })
        .collect();

    let mut map_slots_free: HashMap<HostId, usize> =
        nodes.iter().map(|&h| (h, cfg.map_slots)).collect();
    let mut reduce_slots_free: HashMap<HostId, usize> =
        nodes.iter().map(|&h| (h, cfg.reduce_slots)).collect();

    let mut events: EventQueue<Event> = EventQueue::new();
    let t0 = cluster.now();
    // Stagger heartbeats across the interval in a seeded random order, so
    // first-asker-wins assignment does not systematically favour (or
    // punish) low-index nodes.
    let mut hb_order: Vec<usize> = (0..n_nodes).collect();
    {
        use rand::seq::SliceRandom;
        hb_order.shuffle(&mut rng);
    }
    for (slot, &i) in hb_order.iter().enumerate() {
        let offset = cfg.heartbeat_secs * (slot as f64 / n_nodes as f64);
        events.push(t0 + SimDuration::from_secs_f64(offset), Event::Heartbeat(i));
    }

    let mut io: HashMap<TransferId, IoTag> = HashMap::new();
    let hdfs_cfg = HdfsConfig::default();
    let mut finish: Option<SimTime> = None;
    let mut sync: Option<SimTime> = None;
    let mut speculative_launched = 0usize;
    let mut map_durations: Vec<f64> = Vec::new();
    let mut done = Vec::new();

    macro_rules! all_done {
        () => {
            reduces.iter().all(|r| r.stage == ReduceStage::Done)
        };
    }

    'outer: loop {
        let t_ev = events.peek_time();
        let t_net = cluster.net.next_completion_time();
        let next = match (t_ev, t_net) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };

        // Network completions strictly before the next control event.
        if t_net.is_some_and(|tn| tn <= next) {
            cluster.net.advance_into(next, &mut done);
            for completion in &done {
                let Some(tag) = io.remove(&completion.id) else {
                    continue;
                };
                match tag {
                    IoTag::MapRead { task, node } => {
                        if maps[task].winner.is_some() {
                            // Lost to a speculative twin; release the slot.
                            map_slots_free.entry(node).and_modify(|s| *s += 1);
                            continue;
                        }
                        maps[task].stage = MapStage::Computing;
                        events.push(
                            completion.finished
                                + SimDuration::from_secs_f64(cfg.map_cpu_secs),
                            Event::MapCpuDone { task, node },
                        );
                    }
                    IoTag::MapSpill { task, node } => {
                        if maps[task].winner.is_some() {
                            continue;
                        }
                        maps[task].winner = Some(node);
                        maps[task].stage = MapStage::Done;
                        maps[task].finished = Some(completion.finished);
                        if let Some(s) = maps[task].started {
                            map_durations.push((completion.finished - s).as_secs_f64());
                        }
                        map_slots_free
                            .entry(node)
                            .and_modify(|s| *s += 1);
                        // Feed every placed reducer its partition.
                        for ri in 0..reduces.len() {
                            if reduces[ri].node.is_some() {
                                start_fetch(
                                    cluster, &mut io, &mut reduces, ri, task, &maps,
                                    fetch_bytes,
                                );
                            }
                        }
                    }
                    IoTag::Fetch { reduce } => {
                        let r = &mut reduces[reduce];
                        r.fetches_pending -= 1;
                        if r.fetches_pending == 0 {
                            r.shuffle_end = Some(completion.finished);
                            r.stage = ReduceStage::Computing;
                            events.push(
                                completion.finished
                                    + SimDuration::from_secs_f64(cfg.reduce_cpu_secs),
                                Event::ReduceCpuDone { task: reduce },
                            );
                        }
                    }
                    IoTag::Output { reduce } => {
                        reduces[reduce].output_done = Some(completion.finished);
                        reduces[reduce].stage = ReduceStage::Done;
                        if all_done!() {
                            sync = Some(
                                reduces
                                    .iter()
                                    .filter_map(|r| r.output_done)
                                    .max()
                                    .expect("all reduces have outputs"),
                            );
                            break 'outer;
                        }
                    }
                }
            }
            if cluster.now() < next {
                cluster.net.advance_into(next, &mut done);
            }
        } else {
            cluster.net.advance_into(next, &mut done);
        }

        // Control events at `next`.
        while events.peek_time() == Some(next) {
            let (_, ev) = events.pop().expect("peeked");
            match ev {
                Event::Heartbeat(node_idx) => {
                    let node = nodes[node_idx];
                    heartbeat(
                        cluster,
                        cfg,
                        &nodes,
                        node,
                        &mut maps,
                        &mut reduces,
                        &mut map_slots_free,
                        &mut reduce_slots_free,
                        &mut io,
                        &mut rng,
                        &map_durations,
                        &mut speculative_launched,
                        split_bytes,
                        fetch_bytes,
                    );
                    events.push(
                        next + SimDuration::from_secs_f64(cfg.heartbeat_secs),
                        Event::Heartbeat(node_idx),
                    );
                }
                Event::MapCpuDone { task, node } => {
                    if maps[task].winner.is_some() {
                        map_slots_free.entry(node).and_modify(|s| *s += 1);
                        continue;
                    }
                    maps[task].stage = MapStage::Spilling;
                    let tid = cluster
                        .net
                        .start(TransferSpec::disk_write(node, map_out_bytes));
                    io.insert(tid, IoTag::MapSpill { task, node });
                }
                Event::ReduceCpuDone { task } => {
                    let node = reduces[task].node.expect("computing reduce is placed");
                    reduces[task].stage = ReduceStage::Writing;
                    if finish.is_none()
                        && reduces
                            .iter()
                            .all(|r| matches!(r.stage, ReduceStage::Writing | ReduceStage::Done))
                    {
                        finish = Some(next);
                    }
                    let out_bytes = n_maps as f64 * fetch_bytes;
                    let tid = if cfg.replicate_output {
                        let policy = match cfg.policy {
                            SchedPolicy::Vanilla => HdfsPolicy::Vanilla,
                            SchedPolicy::CloudTalk => HdfsPolicy::CloudTalk,
                        };
                        let replicas =
                            place_write(cluster, &hdfs_cfg, node, &nodes, policy, &mut rng);
                        start_block_write(cluster, out_bytes, node, &replicas)
                    } else {
                        cluster.net.start(TransferSpec::disk_write(node, out_bytes))
                    };
                    io.insert(tid, IoTag::Output { reduce: task });
                    reduce_slots_free.entry(node).and_modify(|s| *s += 1);
                }
            }
        }
    }

    let finish_t = finish.unwrap_or_else(|| cluster.now());
    let sync_t = sync.unwrap_or(finish_t);
    let maps_done = maps
        .iter()
        .filter_map(|m| m.finished)
        .max()
        .unwrap_or(t0);
    JobResult {
        finish_secs: (finish_t - t0).as_secs_f64(),
        sync_secs: (sync_t - t0).as_secs_f64(),
        shuffle_secs: reduces
            .iter()
            .filter_map(|r| match (r.shuffle_start, r.shuffle_end) {
                (Some(s), Some(e)) => Some((e - s).as_secs_f64()),
                _ => None,
            })
            .collect(),
        speculative_launched,
        maps_done_secs: (maps_done - t0).as_secs_f64(),
        reduce_trace: reduces
            .iter()
            .map(|r| {
                (
                    r.node
                        .and_then(|n| nodes.iter().position(|&x| x == n))
                        .unwrap_or(usize::MAX),
                    r.shuffle_start.map_or(-1.0, |s| (s - t0).as_secs_f64()),
                    r.shuffle_end.map_or(-1.0, |e| (e - t0).as_secs_f64()),
                )
            })
            .collect(),
    }
}

fn start_fetch(
    cluster: &mut Cluster,
    io: &mut HashMap<TransferId, IoTag>,
    reduces: &mut [ReduceTask],
    reduce: usize,
    map: usize,
    maps: &[MapTask],
    fetch_bytes: f64,
) {
    let src = maps[map].winner.expect("fetch only from finished maps");
    let dst = reduces[reduce].node.expect("fetch only for placed reduce");
    if reduces[reduce].shuffle_start.is_none() {
        reduces[reduce].shuffle_start = Some(cluster.now());
        reduces[reduce].stage = ReduceStage::Shuffling;
    }
    reduces[reduce].fetches_started += 1;
    let spec = TransferSpec {
        segments: vec![
            Segment::DiskRead(src),
            Segment::Net { src, dst },
            Segment::DiskWrite(dst),
        ],
        bytes: fetch_bytes,
        cap: None,
        inelastic_rate: None,
    };
    let tid = cluster.net.start(spec);
    io.insert(tid, IoTag::Fetch { reduce });
}

#[allow(clippy::too_many_arguments)]
fn heartbeat(
    cluster: &mut Cluster,
    cfg: &MrConfig,
    nodes: &[HostId],
    node: HostId,
    maps: &mut [MapTask],
    reduces: &mut [ReduceTask],
    map_slots_free: &mut HashMap<HostId, usize>,
    reduce_slots_free: &mut HashMap<HostId, usize>,
    io: &mut HashMap<TransferId, IoTag>,
    rng: &mut DetRng,
    map_durations: &[f64],
    speculative_launched: &mut usize,
    split_bytes: f64,
    fetch_bytes: f64,
) {
    // --- map assignment (one per heartbeat) ----------------------------
    if map_slots_free.get(&node).copied().unwrap_or(0) > 0 {
        let pending: Vec<usize> = (0..maps.len())
            .filter(|&i| maps[i].stage == MapStage::Pending)
            .collect();
        if !pending.is_empty() {
            // (task index, replica to read from).
            let pick: Option<(usize, HostId)> = match cfg.policy {
                SchedPolicy::Vanilla => {
                    // Data-local first (read the local replica), else the
                    // first pending split from a random replica.
                    pending
                        .iter()
                        .copied()
                        .find(|&i| maps[i].holders.contains(&node))
                        .map(|i| (i, node))
                        .or_else(|| {
                            use rand::Rng;
                            let i = pending[0];
                            let hs = &maps[i].holders;
                            Some((i, hs[rng.gen_range(0..hs.len())]))
                        })
                }
                SchedPolicy::CloudTalk => {
                    // §5.3: "The possible values for variable X are nodes
                    // which store a data split that must be processed by a
                    // pending map task" — then take any pending task with
                    // input at the recommended location.
                    let holders: Vec<_> = {
                        let mut hs: Vec<HostId> = pending
                            .iter()
                            .flat_map(|&i| maps[i].holders.iter().copied())
                            .collect();
                        hs.sort_unstable();
                        hs.dedup();
                        hs
                    };
                    let pool: Vec<_> = holders.iter().map(|&h| cluster.addr(h)).collect();
                    let q = map_placement_query(cluster.addr(node), &pool, split_bytes);
                    let problem = q.resolve().expect("map query well-formed");
                    match cluster.ask_hosts_advisory(&problem) {
                        Ok(best) => pending
                            .iter()
                            .copied()
                            .find(|&i| maps[i].holders.contains(&best[0]))
                            .map(|i| (i, best[0]))
                            .or_else(|| {
                                let i = pending[0];
                                Some((i, maps[i].holders[0]))
                            }),
                        Err(_) => {
                            let i = pending[0];
                            Some((i, maps[i].holders[0]))
                        }
                    }
                }
            };
            if let Some((task, source)) = pick {
                launch_map(cluster, io, maps, task, node, source, split_bytes);
                *map_slots_free.get_mut(&node).expect("known node") -= 1;
            }
        } else if cfg.speculative && !map_durations.is_empty() {
            // Stragglers: duplicate the slowest over-median running map.
            let mut sorted = map_durations.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = sorted[sorted.len() / 2];
            let threshold = median * cfg.spec_factor;
            let candidate = (0..maps.len()).find(|&i| {
                maps[i].winner.is_none()
                    && maps[i].attempts.len() == 1
                    && !maps[i].attempts.contains(&node)
                    && maps[i]
                        .started
                        .is_some_and(|s| (cluster.now() - s).as_secs_f64() > threshold)
            });
            if let Some(task) = candidate {
                let source = if maps[task].holders.contains(&node) {
                    node
                } else {
                    maps[task].holders[0]
                };
                launch_map(cluster, io, maps, task, node, source, split_bytes);
                *map_slots_free.get_mut(&node).expect("known node") -= 1;
                *speculative_launched += 1;
            }
        }
    }

    // --- reduce assignment (at most one per heartbeat) ------------------
    if reduce_slots_free.get(&node).copied().unwrap_or(0) > 0 {
        let pending: Vec<usize> = (0..reduces.len())
            .filter(|&i| reduces[i].stage == ReduceStage::Pending)
            .collect();
        if let Some(&first) = pending.first() {
            let assign = match cfg.policy {
                SchedPolicy::Vanilla => true,
                SchedPolicy::CloudTalk => {
                    // Rotate the candidate pool so the asking node comes
                    // first: the heuristic breaks score ties in pool order,
                    // so a node as fit as the best is recommended work
                    // when *it* asks (otherwise equally-idle high-index
                    // nodes would never appear in S and the starvation
                    // override would push tasks onto loaded machines).
                    let rot = nodes.iter().position(|&h| h == node).unwrap_or(0);
                    let pool: Vec<_> = nodes[rot..]
                        .iter()
                        .chain(&nodes[..rot])
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
                                reduces[first].skipped += 1;
                                // One "round" of skips ≈ every node declining once.
                                reduces[first].skipped
                                    > cfg.starvation_limit * nodes.len() as u32
                            }
                        }
                        Err(_) => true,
                    }
                }
            };
            if assign {
                let task = first;
                reduces[task].node = Some(node);
                reduces[task].stage = ReduceStage::Shuffling;
                *reduce_slots_free.get_mut(&node).expect("known node") -= 1;
                // Fetch everything already finished.
                let ready: Vec<usize> = (0..maps.len())
                    .filter(|&i| maps[i].winner.is_some())
                    .collect();
                for m in ready {
                    start_fetch(cluster, io, reduces, task, m, maps, fetch_bytes);
                }
                // Degenerate case: zero maps (not possible for sort jobs,
                // but keep the invariant).
                debug_assert!(reduces[task].fetches_pending > 0);
            }
        }
    }
}

fn launch_map(
    cluster: &mut Cluster,
    io: &mut HashMap<TransferId, IoTag>,
    maps: &mut [MapTask],
    task: usize,
    node: HostId,
    source: HostId,
    split_bytes: f64,
) {
    maps[task].attempts.push(node);
    if maps[task].stage == MapStage::Pending {
        maps[task].stage = MapStage::Reading;
        maps[task].started = Some(cluster.now());
    }
    let spec = if source == node {
        // Data-local: read the split from the local disk.
        TransferSpec::disk_read(node, split_bytes)
    } else {
        // Remote: the chosen replica's disk + network into this node.
        TransferSpec {
            segments: vec![
                Segment::DiskRead(source),
                Segment::Net {
                    src: source,
                    dst: node,
                },
            ],
            bytes: split_bytes,
            cap: None,
            inelastic_rate: None,
        }
    };
    let tid = cluster.net.start(spec);
    io.insert(tid, IoTag::MapRead { task, node });
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
        let r = run_sort_job(&mut c, &cfg, &job);
        assert!(r.finish_secs > 0.0);
        // Not guaranteed, but with a 20x-slow disk it should fire.
        assert!(
            r.speculative_launched > 0,
            "expected speculative attempts against the slow node"
        );
    }
}
