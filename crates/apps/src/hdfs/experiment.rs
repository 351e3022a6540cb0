//! The HDFS copy-experiment driver (paper §5.2/§5.3, Figures 5, 6, 12).
//!
//! "At each step, a percentage of servers become active. In this state, a
//! server will attempt to copy three files, chosen at random, from HDFS to
//! local storage. There is an idle period of up to three seconds (also
//! random) between copy operations."
//!
//! The driver interleaves per-server operation state machines with the
//! fluid network: operation starts are scheduled on a [`desim`] event
//! queue, transfers complete inside [`simnet::NetSim`], the two advance
//! together through [`Cluster::step`], and each finished file copy is
//! recorded with start/finish times.

use cloudtalk_lang::WordMap;
use desim::rng::{stream_rng, DetRng};
use desim::{EventQueue, SimDuration, SimTime};
use rand::Rng;
use simnet::engine::TransferId;
use simnet::topology::HostId;

use super::{
    place_read, place_write, start_block_read, start_block_write, Hdfs, HdfsConfig, Policy,
};
use crate::cluster::Cluster;

/// Which operation active servers perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Copy a file from HDFS to local storage.
    Read,
    /// Copy a local file into HDFS.
    Write,
}

/// One completed file copy.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// The server that performed the copy.
    pub server: HostId,
    /// When the copy started.
    pub start: SimTime,
    /// When its last block finished.
    pub finish: SimTime,
}

impl OpRecord {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.finish - self.start).as_secs_f64()
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct CopyExperiment {
    /// Servers performing copies.
    pub active: Vec<HostId>,
    /// Copies per active server (paper: 3).
    pub ops_per_server: usize,
    /// Maximum random idle time between copies, seconds (paper: 3).
    pub think_max: f64,
    /// File size in bytes (768 MB local, 512 MB EC2).
    pub file_bytes: f64,
    /// Read or write.
    pub kind: OpKind,
    /// Decision policy under test.
    pub policy: Policy,
    /// RNG seed.
    pub seed: u64,
}

/// Pre-populates HDFS: every host writes one file (vanilla placement, not
/// timed) — the "each node copies a 768MB file from local storage to
/// HDFS" setup step.
pub fn populate(
    cluster: &mut Cluster,
    cfg: &HdfsConfig,
    writers: &[HostId],
    file_bytes: f64,
    seed: u64,
) -> Hdfs {
    let mut fs = Hdfs::new();
    let mut rng = stream_rng(seed, 0xF11E);
    let datanodes = cluster.net.hosts();
    for (i, &w) in writers.iter().enumerate() {
        let name = format!("file-{i}");
        let n_blocks = Hdfs::blocks_for(cfg, file_bytes);
        let block_bytes = file_bytes / n_blocks as f64;
        for _ in 0..n_blocks {
            let replicas = place_write(cluster, cfg, w, &datanodes, Policy::Vanilla, &mut rng);
            start_block_write(cluster, block_bytes, w, &replicas);
            fs.commit_block(&name, replicas);
        }
    }
    cluster.net.run_until_idle();
    fs
}

struct OpProgress {
    server_idx: usize,
    op_start: SimTime,
    blocks_left: Vec<PendingBlock>,
}

enum PendingBlock {
    Read(super::BlockId),
    Write,
}

/// What every operation of one experiment shares.
struct CopyDriver<'a> {
    exp: &'a CopyExperiment,
    cfg: HdfsConfig,
    /// Blocks per copied file, and the bytes of each.
    n_blocks: usize,
    block_bytes: f64,
    datanodes: Vec<HostId>,
    rng: DetRng,
    /// The block each operation is moving right now.
    in_flight: WordMap<TransferId, OpProgress>,
}

/// Runs the copy experiment, returning one record per completed copy.
pub fn run_copy_experiment(
    cluster: &mut Cluster,
    fs: &mut Hdfs,
    exp: &CopyExperiment,
) -> Vec<OpRecord> {
    let cfg = HdfsConfig::default();
    let n_blocks = Hdfs::blocks_for(&cfg, exp.file_bytes);
    let mut driver = CopyDriver {
        exp,
        cfg,
        n_blocks,
        block_bytes: exp.file_bytes / n_blocks as f64,
        datanodes: cluster.net.hosts(),
        rng: stream_rng(exp.seed, 0xC0B1),
        in_flight: WordMap::default(),
    };

    let mut starts: EventQueue<usize> = EventQueue::new();
    let mut ops_left: Vec<usize> = vec![exp.ops_per_server; exp.active.len()];
    for idx in 0..exp.active.len() {
        let think = driver.rng.gen_range(0.0..=exp.think_max);
        starts.push(cluster.now() + SimDuration::from_secs_f64(think), idx);
    }

    let mut records = Vec::new();
    let mut done = Vec::new();
    // Until the last copy is recorded — not until the network is idle, which
    // would wait for background transfers that are none of the experiment's.
    while !(starts.is_empty() && driver.in_flight.is_empty()) {
        let Some(t) = cluster.step(&starts, &mut done) else {
            break;
        };
        for completion in &done {
            let Some(prog) = driver.in_flight.remove(&completion.id) else {
                continue; // background traffic, not ours
            };
            if prog.blocks_left.is_empty() {
                let idx = prog.server_idx;
                records.push(OpRecord {
                    server: exp.active[idx],
                    start: prog.op_start,
                    finish: completion.finished,
                });
                if ops_left[idx] > 0 {
                    let think = driver.rng.gen_range(0.0..=exp.think_max);
                    starts.push(t + SimDuration::from_secs_f64(think), idx);
                }
            } else {
                driver.launch_next_block(cluster, fs, prog);
            }
        }
        // Servers begin their next copy.
        while let Some(idx) = starts.pop_at(t) {
            let progress = driver.begin_op(fs, t, idx);
            ops_left[idx] -= 1;
            driver.launch_next_block(cluster, fs, progress);
        }
    }
    records
}

impl CopyDriver<'_> {
    fn begin_op(&mut self, fs: &Hdfs, now: SimTime, server_idx: usize) -> OpProgress {
        let blocks_left = match self.exp.kind {
            OpKind::Write => std::iter::repeat_with(|| PendingBlock::Write)
                .take(self.n_blocks)
                .collect(),
            OpKind::Read => {
                // Pick a random existing file and read its blocks in order.
                let names = fs.file_names();
                let name = &names[self.rng.gen_range(0..names.len())];
                fs.file_blocks(name)
                    .expect("file exists")
                    .iter()
                    .map(|&b| PendingBlock::Read(b))
                    .collect()
            }
        };
        OpProgress {
            server_idx,
            op_start: now,
            blocks_left,
        }
    }

    /// Starts the transfer of `prog`'s next block; there must be one (a new
    /// operation has at least one, a finished one is recorded instead).
    fn launch_next_block(&mut self, cluster: &mut Cluster, fs: &mut Hdfs, mut prog: OpProgress) {
        let block = prog.blocks_left.pop().expect("a block is left to move");
        let server = self.exp.active[prog.server_idx];
        let policy = self.exp.policy;
        let tid = match block {
            PendingBlock::Write => {
                let replicas = place_write(
                    cluster,
                    &self.cfg,
                    server,
                    &self.datanodes,
                    policy,
                    &mut self.rng,
                );
                let tid = start_block_write(cluster, self.block_bytes, server, &replicas);
                fs.commit_block(&format!("w-{:?}-{}", server, cluster.now()), replicas);
                tid
            }
            PendingBlock::Read(b) => {
                let replicas: Vec<HostId> = fs.replicas(b).to_vec();
                let replica =
                    place_read(cluster, &self.cfg, server, &replicas, policy, &mut self.rng);
                start_block_read(cluster, self.block_bytes, server, replica)
            }
        };
        self.in_flight.insert(tid, prog);
    }
}

/// Mean duration in seconds.
pub fn mean_secs(records: &[OpRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(OpRecord::secs).sum::<f64>() / records.len() as f64
}

/// The `p`-th percentile duration in seconds (0 < p ≤ 100), by
/// nearest-rank on the sorted durations.
pub fn percentile_secs(records: &[OpRecord], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p) && p > 0.0);
    if records.is_empty() {
        return 0.0;
    }
    let mut durs: Vec<f64> = records.iter().map(OpRecord::secs).collect();
    durs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let rank = ((p / 100.0) * durs.len() as f64).ceil() as usize;
    durs[rank.clamp(1, durs.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk::server::ServerConfig;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    const MB: f64 = 1024.0 * 1024.0;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(
            Topology::single_switch(n, GBPS, TopoOptions::default()),
            ServerConfig::default(),
        )
    }

    #[test]
    fn populate_creates_one_file_per_writer() {
        let mut c = cluster(6);
        let hosts = c.net.hosts();
        let cfg = HdfsConfig::default();
        let fs = populate(&mut c, &cfg, &hosts, 768.0 * MB, 1);
        assert_eq!(fs.file_names().len(), 6);
        for name in fs.file_names() {
            assert_eq!(fs.file_blocks(&name).unwrap().len(), 3, "768MB = 3 blocks");
        }
        assert_eq!(c.net.active_count(), 0, "population ran to completion");
    }

    #[test]
    fn read_experiment_produces_records() {
        let mut c = cluster(8);
        let hosts = c.net.hosts();
        let cfg = HdfsConfig::default();
        let mut fs = populate(&mut c, &cfg, &hosts, 512.0 * MB, 2);
        let exp = CopyExperiment {
            active: hosts[..4].to_vec(),
            ops_per_server: 2,
            think_max: 1.0,
            file_bytes: 512.0 * MB,
            kind: OpKind::Read,
            policy: Policy::Vanilla,
            seed: 3,
        };
        let records = run_copy_experiment(&mut c, &mut fs, &exp);
        assert_eq!(records.len(), 8);
        for r in &records {
            assert!(r.finish > r.start);
            assert!(r.secs() > 0.0);
        }
    }

    #[test]
    fn write_experiment_cloudtalk_beats_vanilla_under_skewed_load() {
        // 12 nodes, half carrying heavy background traffic, 3 writers:
        // CloudTalk steers replicas away from the hot half; random
        // placement keeps colliding with it.
        let run = |policy: Policy| {
            let mut c = cluster(12);
            let hosts = c.net.hosts();
            let cfg = HdfsConfig::default();
            let mut fs = populate(&mut c, &cfg, &hosts, 256.0 * MB, 4);
            // Saturate the uplink+downlink of hosts 3..9 with elephants.
            for i in 3..9 {
                c.net.start(
                    simnet::engine::TransferSpec::network(
                        hosts[i],
                        hosts[(i + 1 - 3) % 3 + 9],
                        f64::INFINITY,
                    )
                    .with_inelastic(simnet::GBPS * 0.9),
                );
            }
            let exp = CopyExperiment {
                active: hosts[..3].to_vec(),
                ops_per_server: 2,
                think_max: 0.5,
                file_bytes: 256.0 * MB,
                kind: OpKind::Write,
                policy,
                seed: 5,
            };
            let records = run_copy_experiment(&mut c, &mut fs, &exp);
            assert_eq!(records.len(), 6);
            mean_secs(&records)
        };
        let vanilla = run(Policy::Vanilla);
        let cloudtalk = run(Policy::CloudTalk);
        assert!(
            cloudtalk <= vanilla,
            "CloudTalk {cloudtalk:.2}s should not lose to vanilla {vanilla:.2}s"
        );
    }

    #[test]
    fn a_start_at_the_instant_of_a_completion_loses_no_copy() {
        // Copies far below one tick's worth of bytes take exactly one
        // nanosecond (the engine's one-tick floor) and think times
        // truncate to 0 or 1 ns, so some server's start falls on the very
        // instant another's copy completes, with the clock still behind
        // both. The start used to win that tie and advance the clock
        // through the completion, whose record was dropped.
        let mut c = cluster(8);
        let hosts = c.net.hosts();
        let t0 = c.now();
        let exp = CopyExperiment {
            active: hosts.clone(),
            ops_per_server: 2,
            think_max: 2e-9,
            file_bytes: 0.01,
            kind: OpKind::Write,
            policy: Policy::Vanilla,
            seed: 7,
        };
        let records = run_copy_experiment(&mut c, &mut Hdfs::new(), &exp);
        // Initial starts are all queued up front: one at `t0` (done a tick
        // later) and one a tick after `t0` make the tie.
        let first_start = |h: HostId| {
            let own = records.iter().filter(|r| r.server == h);
            own.map(|r| r.start).min().expect("every server copies")
        };
        let tick = SimDuration::from_nanos(1);
        assert!(hosts.iter().any(|&h| first_start(h) == t0), "no start at t0");
        assert!(hosts.iter().any(|&h| first_start(h) == t0 + tick), "no tie");
        assert_eq!(records.len(), 16, "every copy is recorded");
        assert_eq!(c.net.active_count(), 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mk = |secs: f64| OpRecord {
            server: HostId(0),
            start: SimTime::ZERO,
            finish: SimTime::from_secs_f64(secs),
        };
        let records: Vec<OpRecord> = (1..=100).map(|i| mk(i as f64)).collect();
        assert_eq!(percentile_secs(&records, 99.0), 99.0);
        assert_eq!(percentile_secs(&records, 50.0), 50.0);
        assert_eq!(percentile_secs(&records, 100.0), 100.0);
        assert!((mean_secs(&records) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_records_are_safe() {
        assert_eq!(mean_secs(&[]), 0.0);
        assert_eq!(percentile_secs(&[], 99.0), 0.0);
    }
}
