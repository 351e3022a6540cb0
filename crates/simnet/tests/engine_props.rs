//! Property suite for the rate engine: random operation sequences (starts
//! of every transfer shape, cancels, partial advances, snapshots) on three
//! topologies, held to what one engine can be held to —
//!
//! * a replay of the same ops is **bit-identical** in everything a caller
//!   can observe (ids, cancels, completion stream, rate and progress bits,
//!   load snapshots, `next_completion_time`, end state);
//! * completions are time-ordered; `progress` never decreases, never
//!   exceeds `bytes`, and is within one tick's worth of `bytes` a
//!   nanosecond before the transfer completes;
//! * no host's tx / rx / disk load exceeds its capacity;
//! * on the single-switch topology, after every op, every live transfer's
//!   rate equals a from-scratch [`max_min_rates`] over demands this file
//!   builds from the specs alone. That check shares the allocator with the
//!   engine (`sharing_props` covers it) and none of its bookkeeping:
//!   routing, usage coalescing, slab, dirty flag, settle and re-key;
//! * looking steers nothing: the same ops with every host's load, every
//!   rate and the next completion time read after each op, and with none
//!   of them read outside a snapshot, give the same completion stream,
//!   snapshots, final loads and progress bits — what the engine derives
//!   lazily (the cached earliest ETA, per-resource load) is a function of
//!   the passes alone. Both replays re-rate after every op: *when* passes
//!   run is not unobservable (two passes at one instant can split a
//!   progress sum one pass leaves whole), so that is held equal.
//!
//! Not asserted: "every finite transfer completes" — an unbounded
//! inelastic blast legitimately starves an elastic flow.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::Rng;

use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use simnet::engine::{Completion, NetSim, Segment, TransferId, TransferSpec};
use simnet::sharing::{max_min_rates, Demand};
use simnet::topology::{TopoOptions, Topology};
use simnet::{GBPS, LOCAL_RATE};

#[derive(Clone, Debug)]
enum Op {
    Start(TransferSpec),
    /// Cancel the k-th transfer ever started (if still known).
    Cancel(usize),
    Advance(SimDuration),
    Snapshot,
}

/// Generates a deterministic op sequence from a root seed. Byte counts and
/// rates come from small discrete sets.
fn gen_ops(seed: u64, steps: usize, n_hosts: usize) -> Vec<Op> {
    let mut rng = stream_rng(seed, 0xE17);
    let host = |rng: &mut desim::rng::DetRng| simnet::HostId(rng.gen_range(0..n_hosts));
    let bytes = |rng: &mut desim::rng::DetRng| {
        [1.0e7, 5.0e7, 1.0e8, 3.0e8][rng.gen_range(0..4usize)]
    };
    let mut started = 0usize;
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let roll = rng.gen_range(0..100u32);
        let op = if roll < 45 || started == 0 {
            let src = host(&mut rng);
            let dst = host(&mut rng);
            let shape = rng.gen_range(0..10u32);
            let mut spec = match shape {
                // Pipelined multi-hop replication groups couple many
                // resources into one demand.
                0 | 1 => {
                    let n_rep = rng.gen_range(1..4usize);
                    let replicas: Vec<simnet::HostId> =
                        (0..n_rep).map(|_| host(&mut rng)).collect();
                    TransferSpec::pipeline(src, &replicas, bytes(&mut rng))
                }
                2 => TransferSpec::read_and_send(src, dst, bytes(&mut rng)),
                3 => TransferSpec::send_and_store(src, dst, bytes(&mut rng)),
                4 => TransferSpec::disk_write(src, bytes(&mut rng)),
                // Inelastic UDP interference, sometimes unbounded.
                5 | 6 => {
                    let b = if rng.gen_bool(0.5) {
                        f64::INFINITY
                    } else {
                        bytes(&mut rng)
                    };
                    TransferSpec::network(src, dst, b)
                        .with_inelastic([0.3, 0.5, 0.8][rng.gen_range(0..3usize)] * GBPS)
                }
                // Plain flows (dst == src exercises loopback).
                _ => TransferSpec::network(src, dst, bytes(&mut rng)),
            };
            if rng.gen_bool(0.2) {
                spec = spec.with_cap([0.25, 0.4][rng.gen_range(0..2usize)] * GBPS);
            }
            started += 1;
            Op::Start(spec)
        } else if roll < 60 {
            Op::Cancel(rng.gen_range(0..started))
        } else if roll < 90 {
            let ms = rng.gen_range(1..400u64);
            Op::Advance(SimDuration::from_nanos(ms * 1_000_000))
        } else {
            Op::Snapshot
        };
        ops.push(op);
    }
    ops
}

/// The demand the *test* derives from a spec on the single-switch
/// topology, over four resources per host: uplink, downlink, disk read,
/// disk write. A hop uses its sender's uplink and its receiver's downlink;
/// loopback uses nothing.
fn model_demand(spec: &TransferSpec) -> Demand {
    let mut usage: BTreeMap<usize, f64> = BTreeMap::new();
    let mut touch = |r: usize| *usage.entry(r).or_default() += 1.0;
    for seg in &spec.segments {
        match *seg {
            Segment::Net { src, dst } if src == dst => {}
            Segment::Net { src, dst } => {
                touch(4 * src.0);
                touch(4 * dst.0 + 1);
            }
            Segment::DiskRead(h) => touch(4 * h.0 + 2),
            Segment::DiskWrite(h) => touch(4 * h.0 + 3),
        }
    }
    Demand {
        usages: usage.into_iter().collect(),
        cap: spec.cap,
        inelastic: spec.inelastic_rate,
    }
}

/// Holds every live transfer's rate to a from-scratch allocation over the
/// test's own demands, in start order (single-switch topology only).
fn check_rates_against_model(net: &mut NetSim, ids: &[TransferId], specs: &[TransferSpec]) {
    let capacities: Vec<f64> = net
        .hosts()
        .iter()
        .flat_map(|&h| {
            let disk = net.topology().host(h).disk;
            [GBPS, GBPS, disk.read_bps, disk.write_bps]
        })
        .collect();
    let live: Vec<usize> = (0..ids.len())
        .filter(|&k| net.rate(ids[k]).is_some())
        .collect();
    let demands: Vec<Demand> = live.iter().map(|&k| model_demand(&specs[k])).collect();
    for (&k, want) in live.iter().zip(max_min_rates(&capacities, &demands)) {
        let want = if want.is_finite() { want } else { LOCAL_RATE };
        let got = net.rate(ids[k]).expect("live");
        assert!(
            (got - want).abs() <= 1e-9 * want.max(1.0),
            "transfer {k} ({:?}): engine rates {got}, model {want}",
            specs[k]
        );
    }
}

/// Applies one op stream to a fresh engine, recording everything a caller
/// can observe (rates and progress as raw bits) and asserting the
/// invariants of the module header on the way.
fn run(topo: Topology, single_switch: bool, ops: &[Op]) -> Trace {
    let mut net = NetSim::new(topo);
    let mut trace = Trace::default();
    let mut ids: Vec<TransferId> = Vec::new();
    let mut specs: Vec<TransferSpec> = Vec::new();
    let mut last_progress: Vec<f64> = Vec::new();
    let mut buf = Vec::new();
    for op in ops {
        match op {
            Op::Start(spec) => {
                let id = net.start(spec.clone());
                ids.push(id);
                specs.push(spec.clone());
                last_progress.push(0.0);
                trace.ids.push(id);
            }
            Op::Cancel(k) => {
                trace.cancels.push(net.cancel(ids[*k]));
            }
            Op::Advance(d) => {
                let t = net.now() + *d;
                net.advance_into(t, &mut buf);
                trace.completions.extend(buf.iter().copied());
                trace.next = net.next_completion_time();
            }
            Op::Snapshot => {
                let mut loads: Vec<(u32, [u64; 4])> = Vec::new();
                for h in net.hosts() {
                    let addr = net.topology().host(h).addr;
                    let l = net.host_load(h);
                    for (used, capacity) in [
                        (l.tx_bps, l.nic_capacity),
                        (l.rx_bps, l.nic_capacity),
                        (l.disk_read_bps, l.disk_read_capacity),
                        (l.disk_write_bps, l.disk_write_capacity),
                    ] {
                        assert!(used <= capacity * (1.0 + 1e-9), "host {addr}: {l:?}");
                    }
                    loads.push((
                        addr,
                        [
                            l.tx_bps.to_bits(),
                            l.rx_bps.to_bits(),
                            l.disk_read_bps.to_bits(),
                            l.disk_write_bps.to_bits(),
                        ],
                    ));
                }
                trace.snapshots.push((net.now(), loads));
            }
        }
        // Rates and progress of every transfer ever started, after every op.
        for (k, &id) in ids.iter().enumerate() {
            trace.rates.push(net.rate(id).map(f64::to_bits));
            let progress = net.progress(id);
            if let Some(p) = progress {
                assert!(p >= last_progress[k], "transfer {k} went backwards");
                assert!(p <= specs[k].bytes, "transfer {k} overshot");
                last_progress[k] = p;
            }
            trace.progress.push(progress.map(f64::to_bits));
        }
        if single_switch {
            check_rates_against_model(&mut net, &ids, &specs);
        }
    }
    // Drain to idle one event at a time, so late completions are compared
    // too and each is seen one tick before it happens: by then all but a
    // tick's worth of its bytes (and the engine's 1e-6 sliver) has moved.
    let limit = net.now() + SimDuration::from_secs_f64(3600.0);
    let tick = SimDuration::from_nanos(1);
    while let Some(t) = net.next_completion_time().filter(|&t| t <= limit) {
        if t - tick > net.now() {
            net.advance_into(t - tick, &mut buf);
            assert!(buf.is_empty(), "completion before the earliest ETA");
        }
        let eve: Vec<_> = ids
            .iter()
            .map(|&id| (net.progress(id), net.rate(id)))
            .collect();
        net.advance_into(t, &mut buf);
        for c in &buf {
            let k = ids.iter().position(|&id| id == c.id).expect("known id");
            let (progress, rate) = (eve[k].0.expect("live"), eve[k].1.expect("live"));
            assert!(
                specs[k].bytes - progress <= rate * 1.000_001e-9 + 1e-6,
                "transfer {k} completed {} bytes short",
                specs[k].bytes - progress
            );
        }
        trace.completions.extend(buf.iter().copied());
    }
    net.advance_into(limit, &mut buf);
    assert!(buf.is_empty());
    assert!(
        trace
            .completions
            .windows(2)
            .all(|w| w[0].finished <= w[1].finished),
        "completions out of order"
    );
    trace.active_at_end = net.active_count();
    trace.end = net.now();
    trace
}

/// Per-host load snapshot at a point in sim time: `(host, [tx, rx, read, write])`.
type LoadSnapshot = (SimTime, Vec<(u32, [u64; 4])>);

#[derive(Default, PartialEq, Debug)]
struct Trace {
    ids: Vec<TransferId>,
    cancels: Vec<bool>,
    completions: Vec<Completion>,
    rates: Vec<Option<u64>>,
    progress: Vec<Option<u64>>,
    snapshots: Vec<LoadSnapshot>,
    next: Option<SimTime>,
    active_at_end: usize,
    end: SimTime,
}

/// What a run leaves behind, whether or not anyone looked on the way.
#[derive(PartialEq, Debug)]
struct Outcome {
    cancels: Vec<bool>,
    completions: Vec<Completion>,
    snapshots: Vec<Vec<[u64; 4]>>,
    progress: Vec<Option<u64>>,
    loads: Vec<[u64; 4]>,
    active_at_end: usize,
}

fn load_bits(net: &mut NetSim) -> Vec<[u64; 4]> {
    let loads = net.hosts().into_iter().map(|h| net.host_load(h));
    loads
        .map(|l| [l.tx_bps, l.rx_bps, l.disk_read_bps, l.disk_write_bps].map(f64::to_bits))
        .collect()
}

/// Applies `ops`, re-rating after each (one `rate` read), and runs an hour
/// past the last one. With `watch`, everything a caller can read is read
/// after every op; without, loads are read at snapshots only and the next
/// completion time never.
fn run_watched(topo: Topology, ops: &[Op], watch: bool) -> Outcome {
    let mut net = NetSim::new(topo);
    let mut ids: Vec<TransferId> = Vec::new();
    let mut cancels = Vec::new();
    let mut completions = Vec::new();
    let mut snapshots = Vec::new();
    let mut buf = Vec::new();
    for op in ops {
        match op {
            Op::Start(spec) => ids.push(net.start(spec.clone())),
            Op::Cancel(k) => cancels.push(net.cancel(ids[*k])),
            Op::Advance(d) => {
                let t = net.now() + *d;
                net.advance_into(t, &mut buf);
                completions.extend(buf.iter().copied());
            }
            Op::Snapshot => snapshots.push(load_bits(&mut net)),
        }
        net.rate(ids[0]);
        if watch {
            load_bits(&mut net);
            for &id in &ids {
                net.rate(id);
            }
            net.next_completion_time();
        }
    }
    let end = net.now() + SimDuration::from_secs_f64(3600.0);
    net.advance_into(end, &mut buf);
    completions.extend(buf.iter().copied());
    Outcome {
        cancels,
        completions,
        snapshots,
        progress: ids
            .iter()
            .map(|&id| net.progress(id).map(f64::to_bits))
            .collect(),
        loads: load_bits(&mut net),
        active_at_end: net.active_count(),
    }
}

fn topo_for(pick: u8) -> Topology {
    match pick % 3 {
        0 => Topology::single_switch(8, GBPS, TopoOptions::default()),
        1 => Topology::two_tier(3, 4, GBPS, 2.0 * GBPS, TopoOptions::default()),
        _ => Topology::vl2(4, 2, GBPS, TopoOptions::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every invariant `run` asserts holds, and a replay is bit-identical.
    #[test]
    fn engine_is_deterministic_and_matches_the_model(
        seed in any::<u64>(),
        steps in 20usize..120,
        topo_pick in 0u8..3,
    ) {
        let n_hosts = topo_for(topo_pick).host_count();
        let ops = gen_ops(seed, steps, n_hosts);
        let first = run(topo_for(topo_pick), topo_pick == 0, &ops);
        let replay = run(topo_for(topo_pick), topo_pick == 0, &ops);
        prop_assert_eq!(first, replay);
    }

    /// Reading loads, rates and the next completion time after every op
    /// changes nothing a run that hardly looked can tell.
    #[test]
    fn looking_steers_nothing(
        seed in any::<u64>(),
        steps in 20usize..120,
        topo_pick in 0u8..3,
    ) {
        let n_hosts = topo_for(topo_pick).host_count();
        let ops = gen_ops(seed, steps, n_hosts);
        let watched = run_watched(topo_for(topo_pick), &ops, true);
        let unwatched = run_watched(topo_for(topo_pick), &ops, false);
        prop_assert_eq!(watched, unwatched);
    }
}
