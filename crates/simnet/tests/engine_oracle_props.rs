//! Property suite pinning the incremental engine to its full-recompute
//! oracle: random operation sequences (starts of every transfer shape,
//! cancels, partial advances, snapshots) must produce **bit-identical**
//! observable behaviour in both [`EngineMode`]s — completion streams (ids,
//! times), per-transfer rates, per-host loads, and id allocation.
//!
//! This is the correctness bar of the component-aware re-rating rework:
//! per-component allocator runs perform the same floating-point operations
//! as that component's slice of a global run, so nothing may diverge, ever
//! — not even in the last mantissa bit.

use proptest::prelude::*;
use rand::Rng;

use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use simnet::engine::{Completion, EngineMode, NetSim, TransferId, TransferSpec};
use simnet::topology::{TopoOptions, Topology};
use simnet::GBPS;

#[derive(Clone, Debug)]
enum Op {
    Start(TransferSpec),
    /// Cancel the k-th transfer ever started (if still known).
    Cancel(usize),
    Advance(SimDuration),
    Snapshot,
}

/// Generates a deterministic op sequence from a root seed. Byte counts and
/// rates come from small discrete sets so cross-component floating-point
/// coincidences (which could legitimately reorder EPS-close bottleneck
/// freezes) cannot occur by accident.
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
                // resources into one demand — the component-merging case.
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

/// Applies one op stream to a fresh engine, recording everything a caller
/// can observe. Rates are captured as raw bits. Alongside the equality
/// trace, returns the engine's exported `engine.demands_rated` metric —
/// kept out of [`Trace`] because the two modes legitimately differ in how
/// much allocator work they perform.
fn run(mode: EngineMode, topo: Topology, ops: &[Op]) -> (Trace, u64) {
    let mut net = NetSim::with_mode(topo, mode);
    let mut trace = Trace::default();
    let mut ids: Vec<TransferId> = Vec::new();
    let mut buf = Vec::new();
    for op in ops {
        match op {
            Op::Start(spec) => {
                let id = net.start(spec.clone());
                ids.push(id);
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
        for &id in &ids {
            trace.rates.push(net.rate(id).map(f64::to_bits));
            trace.progress.push(net.progress(id).map(f64::to_bits));
        }
    }
    // Drain to idle so late completions are compared too.
    trace.completions.extend(net.advance_to(
        net.now() + SimDuration::from_secs_f64(3600.0),
    ));
    trace.active_at_end = net.active_count();
    trace.end = net.now();
    let rated = net
        .metrics()
        .counter_named("engine.demands_rated")
        .expect("engine exports demands_rated");
    (trace, rated)
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

fn topo_for(pick: u8) -> Topology {
    match pick % 3 {
        0 => Topology::single_switch(8, GBPS, TopoOptions::default()),
        1 => Topology::two_tier(3, 4, GBPS, 2.0 * GBPS, TopoOptions::default()),
        _ => Topology::vl2(4, 2, GBPS, TopoOptions::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline invariant: incremental == oracle, bit for bit.
    #[test]
    fn incremental_matches_oracle_bitwise(
        seed in any::<u64>(),
        steps in 20usize..120,
        topo_pick in 0u8..3,
    ) {
        let n_hosts = topo_for(topo_pick).host_count();
        let ops = gen_ops(seed, steps, n_hosts);
        let (inc, inc_rated) = run(EngineMode::Incremental, topo_for(topo_pick), &ops);
        let (orc, orc_rated) = run(EngineMode::FullRecompute, topo_for(topo_pick), &ops);
        prop_assert_eq!(&inc.ids, &orc.ids, "id allocation diverged");
        prop_assert_eq!(&inc.cancels, &orc.cancels);
        prop_assert_eq!(&inc.completions, &orc.completions, "completion streams diverged");
        prop_assert_eq!(&inc.rates, &orc.rates, "rates diverged");
        prop_assert_eq!(&inc.progress, &orc.progress);
        prop_assert_eq!(&inc.snapshots, &orc.snapshots, "load snapshots diverged");
        prop_assert_eq!(inc.next, orc.next);
        prop_assert_eq!(inc.active_at_end, orc.active_at_end);
        prop_assert_eq!(inc.end, orc.end);
        // Component-aware re-rating must never do more allocator work than
        // the global oracle (exported-metric view).
        prop_assert!(inc_rated <= orc_rated, "inc rated {} > oracle {}", inc_rated, orc_rated);
    }
}
