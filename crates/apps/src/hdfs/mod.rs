//! A simulated HDFS: NameNode placement, pipelined writes, replica reads.
//!
//! Files are split into blocks (default 256 MB, §5.3) replicated three
//! ways. Writes daisy-chain through the replica pipeline; reads pick one
//! replica per block. Both decision points exist in two flavours:
//!
//! * [`Policy::Vanilla`] — stock HDFS behaviour: first replica local to
//!   the writer, the rest random; reads pick a random replica.
//! * [`Policy::CloudTalk`] — the §5.3 integration: the NameNode issues the
//!   daisy-chain write query, clients issue the replica-selection read
//!   query, and both follow the server's recommendation.

pub mod experiment;

use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query};
use desim::rng::DetRng;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::engine::{Segment, TransferId, TransferSpec};
use simnet::topology::HostId;

use crate::cluster::Cluster;

/// HDFS tuning.
#[derive(Clone, Copy, Debug)]
pub struct HdfsConfig {
    /// Replication factor (paper default: 3).
    pub(crate) replication: usize,
    /// Block size in bytes (paper: 256 MB).
    pub(crate) block_bytes: f64,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            replication: 3,
            block_bytes: 256.0 * 1024.0 * 1024.0,
        }
    }
}

/// How placement decisions are made.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Stock HDFS: local-first writes, random elsewhere; random reads.
    Vanilla,
    /// Ask CloudTalk at every choice point.
    CloudTalk,
}

/// Identifier of a stored block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct BlockId(pub(crate) usize);

/// The filesystem metadata (a NameNode's view).
#[derive(Clone, Debug, Default)]
pub struct Hdfs {
    blocks: Vec<Vec<HostId>>,
    files: std::collections::HashMap<String, Vec<BlockId>>,
}

impl Hdfs {
    /// Creates an empty filesystem.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Blocks of a file, if it exists.
    pub(crate) fn file_blocks(&self, name: &str) -> Option<&[BlockId]> {
        self.files.get(name).map(|b| b.as_slice())
    }

    /// Replica locations of a block.
    pub(crate) fn replicas(&self, block: BlockId) -> &[HostId] {
        &self.blocks[block.0]
    }

    /// All file names (deterministic order).
    pub(crate) fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.keys().cloned().collect();
        names.sort();
        names
    }

    /// Registers a new block at `replicas`, appending it to `file`.
    pub(crate) fn commit_block(&mut self, file: &str, replicas: Vec<HostId>) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(replicas);
        self.files.entry(file.to_string()).or_default().push(id);
        id
    }

    /// Number of blocks a file of `bytes` occupies under `cfg`.
    pub(crate) fn blocks_for(cfg: &HdfsConfig, bytes: f64) -> usize {
        ((bytes / cfg.block_bytes).ceil() as usize).max(1)
    }
}

/// Chooses the write pipeline for one block.
pub(crate) fn place_write(
    cluster: &mut Cluster,
    cfg: &HdfsConfig,
    client: HostId,
    datanodes: &[HostId],
    policy: Policy,
    rng: &mut DetRng,
) -> Vec<HostId> {
    match policy {
        Policy::Vanilla => {
            // First replica local (stock HDFS when the writer is a
            // datanode), remaining replicas random distinct nodes.
            let mut replicas = vec![client];
            let mut pool: Vec<HostId> = datanodes.iter().copied().filter(|&h| h != client).collect();
            pool.shuffle(rng);
            replicas.extend(pool.into_iter().take(cfg.replication.saturating_sub(1)));
            replicas
        }
        Policy::CloudTalk => {
            let pool: Vec<_> = datanodes.iter().map(|&h| cluster.addr(h)).collect();
            let q = hdfs_write_query(
                cluster.addr(client),
                &pool,
                cfg.replication.min(datanodes.len()),
                cfg.block_bytes,
            );
            let problem = q.resolve().expect("write query is well-formed");
            match cluster.ask_hosts(&problem) {
                Ok(hosts) => hosts,
                Err(_) => {
                    // Fall back to vanilla on server failure.
                    place_write(cluster, cfg, client, datanodes, Policy::Vanilla, rng)
                }
            }
        }
    }
}

/// Chooses the replica to read one block from.
pub(crate) fn place_read(
    cluster: &mut Cluster,
    cfg: &HdfsConfig,
    client: HostId,
    replicas: &[HostId],
    policy: Policy,
    rng: &mut DetRng,
) -> HostId {
    match policy {
        Policy::Vanilla => replicas[rng.gen_range(0..replicas.len())],
        Policy::CloudTalk => {
            let pool: Vec<_> = replicas.iter().map(|&h| cluster.addr(h)).collect();
            let q = hdfs_read_query(cluster.addr(client), &pool, cfg.block_bytes);
            let problem = q.resolve().expect("read query is well-formed");
            match cluster.ask_hosts(&problem) {
                Ok(hosts) => hosts[0],
                Err(_) => replicas[rng.gen_range(0..replicas.len())],
            }
        }
    }
}

/// Starts the network/disk transfer realising one block write: the client
/// reads the source data from local storage while the pipeline fans it
/// out, every hop rate-coupled (the daisy chain of §5.3).
pub(crate) fn start_block_write(
    cluster: &mut Cluster,
    bytes: f64,
    client: HostId,
    replicas: &[HostId],
) -> TransferId {
    let mut spec = TransferSpec::pipeline(client, replicas, bytes);
    // The client reads the file from its local disk as it streams.
    spec.segments.insert(0, Segment::DiskRead(client));
    cluster.net.start(spec)
}

/// Starts the transfer realising one block read: replica disk → network →
/// client disk, coupled.
pub(crate) fn start_block_read(
    cluster: &mut Cluster,
    bytes: f64,
    client: HostId,
    replica: HostId,
) -> TransferId {
    let spec = TransferSpec {
        segments: vec![
            Segment::DiskRead(replica),
            Segment::Net {
                src: replica,
                dst: client,
            },
            Segment::DiskWrite(client),
        ],
        bytes,
        cap: None,
        inelastic_rate: None,
    };
    cluster.net.start(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk::server::ServerConfig;
    use desim::rng::stream_rng;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    fn cluster(n: usize) -> Cluster {
        Cluster::new(
            Topology::single_switch(n, GBPS, TopoOptions::default()),
            ServerConfig::default(),
        )
    }

    #[test]
    fn vanilla_write_is_local_first_and_distinct() {
        let mut c = cluster(6);
        let hosts = c.net.hosts();
        let cfg = HdfsConfig::default();
        let mut rng = stream_rng(1, 0);
        let replicas = place_write(&mut c, &cfg, hosts[2], &hosts, Policy::Vanilla, &mut rng);
        assert_eq!(replicas.len(), 3);
        assert_eq!(replicas[0], hosts[2], "first replica is local");
        let set: std::collections::HashSet<_> = replicas.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn cloudtalk_write_avoids_loaded_nodes() {
        let mut c = cluster(8);
        let hosts = c.net.hosts();
        // Load hosts 1..=4 heavily.
        for i in 1..=4 {
            c.net.start(
                simnet::engine::TransferSpec::network(hosts[i], hosts[(i + 1) % 8], f64::INFINITY)
                    .with_inelastic(GBPS),
            );
        }
        let cfg = HdfsConfig::default();
        let mut rng = stream_rng(2, 0);
        let replicas = place_write(&mut c, &cfg, hosts[0], &hosts, Policy::CloudTalk, &mut rng);
        assert_eq!(replicas.len(), 3);
        for r in &replicas {
            assert!(
                !(1..=4).contains(&r.0) || replicas.iter().filter(|x| (1..=4).contains(&x.0)).count() <= 1,
                "loaded nodes should be mostly avoided: {replicas:?}"
            );
        }
    }

    #[test]
    fn cloudtalk_read_picks_idle_replica() {
        let mut c = cluster(5);
        let hosts = c.net.hosts();
        c.net.start(
            simnet::engine::TransferSpec::network(hosts[1], hosts[4], f64::INFINITY)
                .with_inelastic(GBPS),
        );
        let cfg = HdfsConfig::default();
        let mut rng = stream_rng(3, 0);
        let chosen = place_read(
            &mut c,
            &cfg,
            hosts[0],
            &[hosts[1], hosts[2]],
            Policy::CloudTalk,
            &mut rng,
        );
        assert_eq!(chosen, hosts[2]);
    }

    #[test]
    fn block_metadata_round_trips() {
        let mut fs = Hdfs::new();
        let b1 = fs.commit_block("f", vec![HostId(0), HostId(1)]);
        let b2 = fs.commit_block("f", vec![HostId(2)]);
        assert_eq!(fs.file_blocks("f"), Some(&[b1, b2][..]));
        assert_eq!(fs.replicas(b1), &[HostId(0), HostId(1)]);
        assert_eq!(fs.file_names(), vec!["f".to_string()]);
        assert!(fs.file_blocks("missing").is_none());
    }

    #[test]
    fn blocks_for_rounds_up() {
        let cfg = HdfsConfig::default();
        assert_eq!(Hdfs::blocks_for(&cfg, 1.0), 1);
        assert_eq!(Hdfs::blocks_for(&cfg, cfg.block_bytes), 1);
        assert_eq!(Hdfs::blocks_for(&cfg, cfg.block_bytes * 3.0), 3);
        assert_eq!(Hdfs::blocks_for(&cfg, cfg.block_bytes * 2.5), 3);
    }

    #[test]
    fn write_transfer_touches_all_disks() {
        let mut c = cluster(4);
        let hosts = c.net.hosts();
        start_block_write(&mut c, 256e6, hosts[0], &[hosts[1], hosts[2], hosts[3]]);
        for &h in &hosts[1..] {
            let load = c.net.host_load(h);
            assert!(load.disk_write_bps > 0.0, "replica {h:?} must be writing");
        }
        let client = c.net.host_load(hosts[0]);
        assert!(client.disk_read_bps > 0.0, "client reads source data");
    }

    #[test]
    fn read_transfer_couples_disk_and_net() {
        let mut c = cluster(3);
        let hosts = c.net.hosts();
        start_block_read(&mut c, 256e6, hosts[0], hosts[1]);
        assert!(c.net.host_load(hosts[1]).disk_read_bps > 0.0);
        assert!(c.net.host_load(hosts[0]).disk_write_bps > 0.0);
        assert!(c.net.host_load(hosts[1]).tx_bps > 0.0);
    }
}
