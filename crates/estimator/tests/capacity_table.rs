//! Property suite for [`CapacityTable`], the one place a search turns an
//! address into a slot: on random problems every slot it records — for
//! every candidate of every variable and for every fixed flow endpoint —
//! is the address's [`CapacityTable::slot`], its address list is the
//! sorted, deduplicated set of candidate and fixed addresses, and each
//! host's four capacities are the residual rates the world reports.
//!
//! The problems are built directly, not through the language, so they can
//! hold what a search must cope with: chained copies of one pool
//! (`B = C = (…)`), one pool id shared by variables with different
//! candidates, a value repeated within a pool, `disk` candidates, fixed
//! endpoints that no pool mentions and the unknown endpoint. The table is
//! rebuilt over a different problem first, so stale buffers would show.

use std::collections::BTreeSet;

use cloudtalk_lang::problem::{
    Address, BoundEndpoint, Endpoint, Flow, Problem, Value, VarId, Variable,
};
use estimator::{CapacityTable, HostState, Resource, World};
use proptest::prelude::*;

/// One variable: how it relates to the one before it, a candidate bitmask
/// over the address universe, whether its first candidate is repeated at
/// the end, and whether `disk` is a candidate.
type VarSpec = (u8, u16, bool, bool);

/// Addresses far apart and out of order, so ascending order is not
/// declaration order.
fn universe(n: u32) -> Vec<Address> {
    (0..n)
        .map(|k| Address(0x0A00_0000 + (k * 7919) % 1000))
        .collect()
}

fn build_problem(universe: &[Address], var_specs: &[VarSpec], flow_specs: &[(u8, u8)]) -> Problem {
    let mut vars: Vec<Variable> = Vec::new();
    for (i, &(relation, mask, repeat_first, disk)) in var_specs.iter().enumerate() {
        let copy = relation % 3 == 0 && i > 0;
        let mut var = match (relation % 3, vars.last()) {
            // A copy of the previous variable's pool: `B = C = (…)`.
            (0, Some(prev)) => Variable::new(format!("x{i}"), prev.candidates.clone(), prev.pool),
            // The previous variable's pool id, its own candidates.
            (1, Some(prev)) => Variable::new(format!("x{i}"), Vec::new(), prev.pool),
            _ => Variable::new(format!("x{i}"), Vec::new(), i),
        };
        if !copy {
            var.candidates = (0..universe.len())
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| Value::Addr(universe[b]))
                .collect();
            if repeat_first {
                if let Some(&first) = var.candidates.first() {
                    var.candidates.push(first);
                }
            }
            if disk {
                var.candidates.push(Value::Disk);
            }
        }
        vars.push(var);
    }
    let endpoint = |sel: u8| match sel % 8 {
        0..=3 if !vars.is_empty() => Endpoint::Var(VarId(usize::from(sel) % vars.len())),
        6 => Endpoint::Unknown,
        7 => Endpoint::Disk,
        // Fixed addresses, from beyond the pools' part of the universe too.
        _ => Endpoint::Addr(universe[usize::from(sel) % universe.len()]),
    };
    let flows = flow_specs
        .iter()
        .map(|&(src, dst)| Flow::new(None, endpoint(src), endpoint(dst)))
        .collect();
    Problem {
        vars,
        flows,
        distinct: true,
    }
}

fn build_world(universe: &[Address], loads: &[Option<(u8, u8)>]) -> World {
    let mut w = World::new();
    for (i, &a) in universe.iter().enumerate() {
        // `None`: the host never answered, and the world assumes the worst.
        if let Some((up, down)) = loads[i % loads.len()] {
            let mut s = HostState::gbps_idle()
                .with_up_load(f64::from(up % 11) / 10.0)
                .with_down_load(f64::from(down % 11) / 10.0);
            s.disk_write_used = f64::from(up) * 2e6;
            w.set(a, s);
        }
    }
    w
}

/// `value` as the table must record it.
fn slotted(table: &CapacityTable, value: Value) -> BoundEndpoint<usize> {
    match value {
        Value::Addr(a) => BoundEndpoint::Host(table.slot(a)),
        Value::Disk => BoundEndpoint::Disk,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_recorded_slot_is_the_slot_of_its_address(
        n_addrs in 1u32..=12,
        var_specs in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<bool>(), any::<bool>()),
            0..=5,
        ),
        flow_specs in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..=6),
        loads in proptest::collection::vec(
            proptest::option::of((any::<u8>(), any::<u8>())),
            1..6,
        ),
        picks in proptest::collection::vec(any::<usize>(), 5),
    ) {
        let universe = universe(n_addrs);
        let problem = build_problem(&universe, &var_specs, &flow_specs);
        let world = build_world(&universe, &loads);
        let mut table = CapacityTable::default();
        // A different problem first: nothing of it may survive.
        let mut other = problem.clone();
        other.vars.reverse();
        other.flows.truncate(1);
        table.rebuild(&other, &world);
        table.rebuild(&problem, &world);

        // The address list: candidate and fixed addresses, sorted, once.
        let mut want: BTreeSet<Address> = BTreeSet::new();
        for var in &problem.vars {
            want.extend(var.candidates.iter().filter_map(|v| match v {
                Value::Addr(a) => Some(*a),
                Value::Disk => None,
            }));
        }
        for flow in &problem.flows {
            for ep in [flow.src, flow.dst] {
                if let Endpoint::Addr(a) = ep {
                    want.insert(a);
                }
            }
        }
        prop_assert_eq!(table.addrs(), want.into_iter().collect::<Vec<_>>().as_slice());

        // Every candidate's slot, in pool order.
        for (v, var) in problem.vars.iter().enumerate() {
            let got = table.candidates(v);
            prop_assert_eq!(got.len(), var.candidates.len(), "variable {}", v);
            for (k, &value) in var.candidates.iter().enumerate() {
                prop_assert_eq!(got[k], slotted(&table, value), "variable {} candidate {}", v, k);
            }
        }

        // Every fixed endpoint's slot, under a binding of arbitrary
        // candidates (a variable with an empty pool stays `Unknown`, and
        // no flow of it is asked for).
        let bound: Vec<BoundEndpoint<usize>> = problem
            .vars
            .iter()
            .enumerate()
            .map(|(v, var)| match var.candidates.len() {
                0 => BoundEndpoint::Unknown,
                n => table.candidates(v)[picks[v] % n],
            })
            .collect();
        for (f, flow) in problem.flows.iter().enumerate() {
            let end = |ep: Endpoint| match ep {
                Endpoint::Addr(a) => BoundEndpoint::Host(table.slot(a)),
                Endpoint::Disk => BoundEndpoint::Disk,
                Endpoint::Unknown => BoundEndpoint::Unknown,
                Endpoint::Var(v) => bound[v.0],
            };
            prop_assert_eq!(table.flow_ends(f, &bound), (end(flow.src), end(flow.dst)), "flow {}", f);
        }

        // Each host's four residual rates, bit for bit.
        for (slot, &a) in table.addrs().iter().enumerate() {
            prop_assert_eq!(table.slot(a), slot);
            let s = world.get(a);
            let want = [
                s.up_free(),
                s.down_free(),
                (s.disk_read_capacity - s.disk_read_used).max(0.0),
                (s.disk_write_capacity - s.disk_write_used).max(0.0),
            ];
            let got = [Resource::Up, Resource::Down, Resource::DiskRead, Resource::DiskWrite]
                .map(|r| table.capacity(slot, r));
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{:?}", a);
        }
    }
}
