//! `status_fleet`: the hierarchical status plane at fleet size.
//!
//! 20 000 hosts in 40-host racks behind an `AggregationPlane`. One
//! operation = 64 seeded hosts change load (the world moving; untimed),
//! then — timed — `sync` and one 3-replica write over a 300-host pool
//! answered by a `CloudTalkServer` reading the plane's view. `aggregate`,
//! `transport` and `status` do the work (a sync re-polls every rack; the
//! answer is two orders of magnitude cheaper) — the only workload where
//! they do. Quality is scored against the *source's* state at decision
//! time, not the plane's view, so a faster-but-staler plane shows. The seed
//! draws the fleet's loads (a fifth of the hosts at each level), the pools
//! and the churn; the writer's load and block size are the schedule's.

use std::collections::BTreeMap;
use std::time::Instant;

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig};
use cloudtalk::messages::OverheadLedger;
use cloudtalk::server::{CloudTalkServer, ServerConfig};
use cloudtalk::status::{StatusSource, TableStatusSource};
use cloudtalk::transport::{scatter_gather_retry, TransportConfig};
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use estimator::{estimate, HostState, World};
use rand::Rng;

use super::{
    host_addr, loaded, min_ns, stratified_states, Digest, PassCtx, PassOut, Scale, Workload, LEVELS,
};

const HOSTS_PER_RACK: usize = 40;
const CHURN: usize = 64;
const POOL: usize = 300;
const MB: f64 = 1024.0 * 1024.0;

struct Op {
    churn: Vec<(Address, HostState)>,
    problem: Problem,
}

pub struct Fleet {
    seed: u64,
    hosts: Vec<(Address, HostState)>,
    ops: Vec<Op>,
}

impl Fleet {
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = stream_rng(seed, 0xF1EE7);
        let (n_hosts, n_ops) = match scale {
            Scale::Full => (20_000, 40),
            Scale::Smoke => (2_000, 12),
        };
        let hosts: Vec<(Address, HostState)> = stratified_states(n_hosts, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, st)| (host_addr(i / HOSTS_PER_RACK, i % HOSTS_PER_RACK), st))
            .collect();
        let ops = (0..n_ops)
            .map(|op| {
                // 301 distinct hosts: a client and its candidate pool.
                let mut picked: Vec<usize> = Vec::with_capacity(POOL + 1);
                while picked.len() < POOL + 1 {
                    let i = rng.gen_range(0..n_hosts);
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                let addrs: Vec<Address> = picked.into_iter().map(|i| hosts[i].0).collect();
                // Block sizes spread over ±10 % of the paper's 256 MB, one
                // from the middle tenth of each of `n_ops` equal slices, in a
                // fixed pairing with the writer's load level below (slice
                // `7·op mod n_ops`: 7 is coprime to both op counts). The
                // three replicas are always idle hosts — a 100-host sample
                // of a pool that is one fifth idle holds twenty — so the
                // writer and the size decide a completion time, and
                // `quality_s` moves by parts per million between seeds.
                let slice = (7 * op % n_ops) as f64 + rng.gen_range(0.45..0.55);
                let bytes = 256.0 * MB * (0.9 + 0.2 * slice / n_ops as f64);
                let problem = hdfs_write_query(addrs[0], &addrs[1..], 3, bytes)
                    .resolve()
                    .expect("well-formed");
                let mut churn: Vec<(Address, HostState)> = (1..CHURN)
                    .map(|_| {
                        let a = hosts[rng.gen_range(0..n_hosts)].0;
                        (a, loaded(LEVELS[rng.gen_range(0..LEVELS.len())]))
                    })
                    .collect();
                // The writer's uplink decides most of a write's completion
                // time, so it is part of the churn, cycling through the
                // load levels: every seed asks the same mix of easy and
                // hard questions. Applied last, so it is what the source
                // holds at decision time.
                churn.push((addrs[0], loaded(LEVELS[op % LEVELS.len()])));
                Op { churn, problem }
            })
            .collect();
        Fleet { seed, hosts, ops }
    }

    fn table(&self) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for &(a, st) in &self.hosts {
            s.set(a, st);
        }
        s
    }

    fn layout(&self) -> FleetLayout {
        let addrs: Vec<Address> = self.hosts.iter().map(|h| h.0).collect();
        FleetLayout::uniform(&addrs, HOSTS_PER_RACK)
    }

    fn plane_config(&self) -> PlaneConfig {
        PlaneConfig {
            seed: self.seed,
            ..PlaneConfig::default()
        }
    }

    fn run(&self, cx: &mut PassCtx<'_>) -> PassOut {
        let mut out = PassOut::default();
        let mut digest = Digest::new();
        let (mut q_sum, mut q_n, mut sampled) = (0.0f64, 0u64, 0u64);
        let tr = &mut *cx.tr;
        let t0 = Instant::now();
        let s = tr.begin("status.table_build");
        let source = self.table();
        tr.end(s);
        let s = tr.begin("aggregate.layout_build");
        let layout = self.layout();
        tr.end(s);
        let s = tr.begin("aggregate.new");
        let mut plane = AggregationPlane::new(layout, source, self.plane_config());
        tr.end(s);
        let s = tr.begin("aggregate.prime");
        plane.sync(SimTime::ZERO);
        tr.end(s);
        let primed = plane.ledger();
        let s = tr.begin("server.new");
        // The plane is in-process: the server's own transport is local,
        // the wire traffic is what the plane accounts in its ledger.
        let mut server = CloudTalkServer::new(ServerConfig {
            transport: TransportConfig::local(),
            seed: self.seed,
            ..ServerConfig::default()
        });
        tr.end(s);

        for (i, op) in self.ops.iter().enumerate() {
            tr.set_unit(i);
            let now = SimTime::ZERO + SimDuration::from_secs(i as u64 + 1);
            for &(a, st) in &op.churn {
                plane.source_mut().set(a, st);
            }
            let m = cx.units.begin();
            let unit = tr.begin("bench.unit");
            let s = tr.begin("aggregate.sync");
            plane.sync(now);
            tr.end(s);
            let s = tr.begin("server.answer_problem");
            let result = server.answer_problem(&op.problem, &mut plane, now);
            tr.end(s);
            tr.end(unit);
            cx.units.end(m);
            if i == 0 {
                out.setup_ns = t0.elapsed().as_nanos() as u64;
            }

            out.attempted += 1;
            let Ok(a) = result else {
                out.failed += 1;
                digest.u64(u64::MAX);
                continue;
            };
            digest.binding(&a.binding);
            sampled += u64::from(a.sampled);
            if !cx.score {
                continue;
            }
            // Delta collection must lose nothing: after a sync the view
            // serves every host's exact current state.
            for &(addr, _) in &self.hosts {
                let want = plane.source_mut().poll(addr);
                let got = plane.poll_report(addr).map(|r| r.state);
                if want != got {
                    out.violation = Some(format!("op {i}: plane view of {addr} diverged"));
                    break;
                }
            }
            let mut truth = World::new();
            for addr in op.problem.mentioned_addresses() {
                if let Some(st) = plane.source_mut().poll(addr) {
                    truth.set(addr, st);
                }
            }
            match estimate(&op.problem, &a.binding, &truth) {
                Ok(e) => {
                    q_sum += e.makespan;
                    q_n += 1;
                }
                Err(e) => out.violation = Some(format!("op {i}: unscorable answer: {e}")),
            }
        }

        out.digest = digest.finish();
        if cx.score && q_n > 0 {
            out.quality_s = Some(q_sum / q_n as f64);
        }
        let n = self.ops.len().max(1) as f64;
        let total = plane.ledger();
        let host_bytes = |l: &OverheadLedger| l.status_bytes() + l.retry_bytes();
        let c = &mut out.counts;
        c.insert(
            "aggregate.agg_bytes_per_sync",
            (total.agg_bytes() - primed.agg_bytes()) as f64 / n,
        );
        c.insert(
            "aggregate.host_bytes_per_sync",
            (host_bytes(&total) - host_bytes(&primed)) as f64 / n,
        );
        c.insert("sampling.sampled_share", sampled as f64 / n);
        out
    }
}

impl Workload for Fleet {
    fn units(&self) -> usize {
        self.ops.len()
    }

    fn pass(&self, cx: &mut PassCtx<'_>) -> PassOut {
        self.run(cx)
    }

    fn probes(&self, _first: &PassOut, _budget_s: f64, out: &mut BTreeMap<&'static str, f64>) {
        // Time inside the plane's `StatusSource` calls per sync. Every
        // rack aggregator re-polls each of its hosts once per sync and
        // 40-host racks sit below the transport's loss knee, so that is one
        // `poll` per host: the table walked once in fleet order.
        let mut table = self.table();
        let ns = min_ns(20, || {
            for &(a, _) in &self.hosts {
                std::hint::black_box(table.poll(std::hint::black_box(a)));
            }
        });
        out.insert("status.gather_us", ns as f64 / 1e3);

        // One rack-sized gather through the default (lossy-beyond-the-
        // knee) transport, as a rack aggregator issues it.
        let rack: Vec<Address> = self.hosts[..HOSTS_PER_RACK].iter().map(|h| h.0).collect();
        let cfg = TransportConfig::default();
        let mut rng = stream_rng(self.seed, 0x7A7);
        let mut ledger = OverheadLedger::default();
        let (mut gathers, mut rounds) = (0u64, 0u64);
        let ns = min_ns(200, || {
            let o = scatter_gather_retry(
                &mut table,
                std::hint::black_box(&rack),
                &cfg,
                &mut rng,
                &mut ledger,
            );
            gathers += 1;
            rounds += u64::from(o.rounds);
            std::hint::black_box(o);
        });
        out.insert("transport.gather_us", ns as f64 / 1e3);
        out.insert(
            "transport.bytes_per_gather",
            ledger.total_bytes() as f64 / gathers as f64,
        );
        out.insert("transport.rounds", rounds as f64 / gathers as f64);

        // Reading the merged view back, per host.
        let mut plane = AggregationPlane::new(self.layout(), table, self.plane_config());
        plane.sync(SimTime::ZERO);
        let sample: Vec<Address> = self.hosts.iter().step_by(16).map(|h| h.0).collect();
        let ns = min_ns(50, || {
            for &a in &sample {
                std::hint::black_box(plane.poll_report(std::hint::black_box(a)));
            }
        });
        out.insert(
            "aggregate.view_poll_us",
            ns as f64 / sample.len() as f64 / 1e3,
        );
    }
}
