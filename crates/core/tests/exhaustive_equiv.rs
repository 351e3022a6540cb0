//! Equivalence properties for the branch-and-bound exhaustive search:
//! whatever the thread count {1, 2, 8}, the evaluation strategy and
//! whether pruning is on, the search must return the same winner (same binding, makespan bit for
//! bit) as the plain sequential no-pruning scan — on randomly generated
//! problems covering fixed/variable/unknown/disk endpoints, start delays,
//! rate caps, rate coupling and transfer precedence.

use cloudtalk::exhaustive::{exhaustive_search_with, EvalStrategy, SearchOptions};
use cloudtalk_lang::ast::{AttrKind, RefAttr};
use cloudtalk_lang::problem::{
    Address, Endpoint, ExprR, Flow, FlowId, Problem, Value, VarId, Variable,
};
use estimator::{HostState, World};
use proptest::prelude::*;

const MB: f64 = 1024.0 * 1024.0;

/// Raw generated description of one variable: shared-pool id and a
/// candidate bitmask over the address pool (bit 7 adds `disk`).
type VarSpec = (u8, u8);

/// Raw generated description of one flow: endpoint selectors, optional
/// size (MB), optional start (s), rate selector, transfer selector.
type FlowSpec = (u8, u8, Option<u16>, Option<u8>, u8, u8);

fn endpoint(sel: u8, n_vars: usize, n_addrs: u32) -> Endpoint {
    match sel % 8 {
        0..=3 => Endpoint::Var(VarId(sel as usize % n_vars)),
        4 | 5 => Endpoint::Addr(Address(1 + u32::from(sel) % n_addrs)),
        6 => Endpoint::Unknown,
        _ => Endpoint::Disk,
    }
}

fn build_problem(
    n_addrs: u32,
    var_specs: &[VarSpec],
    flow_specs: &[FlowSpec],
    distinct: bool,
) -> Problem {
    let n_vars = var_specs.len();
    let vars: Vec<Variable> = var_specs
        .iter()
        .enumerate()
        .map(|(i, &(pool, mask))| {
            let mut candidates: Vec<Value> = (0..7u32)
                .filter(|b| mask & (1 << b) != 0 && *b < n_addrs)
                .map(|b| Value::Addr(Address(b + 1)))
                .collect();
            if mask & 0x80 != 0 {
                candidates.push(Value::Disk);
            }
            if candidates.is_empty() {
                candidates.push(Value::Addr(Address(1)));
            }
            Variable::new(format!("x{i}"), candidates, usize::from(pool % 2))
        })
        .collect();

    let n_flows = flow_specs.len();
    let flows: Vec<Flow> = flow_specs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, size_mb, start, rate_sel, transfer_sel))| {
            let mut f = Flow::new(
                Some(format!("f{i}").into()),
                endpoint(src, n_vars, n_addrs),
                endpoint(dst, n_vars, n_addrs),
            );
            if let Some(mb) = size_mb {
                f.set_attr(AttrKind::Size, ExprR::Literal(f64::from(mb) * MB));
            }
            if let Some(s) = start {
                f.set_attr(AttrKind::Start, ExprR::Literal(f64::from(s % 4)));
            }
            match rate_sel % 4 {
                0 => {} // no rate attribute
                1 => f.set_attr(AttrKind::Rate, ExprR::Literal(2e6 * f64::from(rate_sel))),
                2 => f.set_attr(
                    AttrKind::Rate,
                    ExprR::Ref(RefAttr::Rate, FlowId(usize::from(rate_sel) % n_flows)),
                ),
                _ => {}
            }
            match transfer_sel % 4 {
                1 => f.set_attr(
                    AttrKind::Transfer,
                    ExprR::Literal(f64::from(transfer_sel) * MB),
                ),
                2 => f.set_attr(
                    AttrKind::Transfer,
                    ExprR::Ref(
                        RefAttr::Transferred,
                        FlowId(usize::from(transfer_sel) % n_flows),
                    ),
                ),
                _ => {}
            }
            f
        })
        .collect();

    Problem {
        vars,
        flows,
        distinct,
    }
}

fn build_world(n_addrs: u32, loads: &[(u8, u8)]) -> World {
    let addrs: Vec<Address> = (1..=n_addrs).map(Address).collect();
    let mut w = World::uniform(&addrs, HostState::gbps_idle());
    if loads.is_empty() {
        return w;
    }
    for (i, &a) in addrs.iter().enumerate() {
        let (up, down) = loads[i % loads.len()];
        w.set(
            a,
            HostState::gbps_idle()
                .with_up_load(f64::from(up % 10) / 10.0)
                .with_down_load(f64::from(down % 10) / 10.0),
        );
    }
    w
}

/// Every thread count × pruning × strategy against the sequential
/// unpruned scratch scan; `Err` carries the first disagreement.
fn check_against_reference(p: &Problem, w: &World) -> Result<(), String> {
    let reference =
        exhaustive_search_with(p, w, &SearchOptions::new(100_000).threads(1).prune(false));
    for threads in [1usize, 2, 8] {
        for prune in [false, true] {
            for eval in [EvalStrategy::Scratch, EvalStrategy::Delta] {
                let opts = SearchOptions::new(100_000)
                    .threads(threads)
                    .prune(prune)
                    .eval(eval);
                let r = exhaustive_search_with(p, w, &opts);
                let at = format!("threads={threads} prune={prune} eval={eval:?}");
                match (&reference, &r) {
                    (Ok(a), Ok(b)) => {
                        if a.binding != b.binding {
                            return Err(format!(
                                "winner drifted ({at}): {:?} vs {:?}",
                                a.binding, b.binding
                            ));
                        }
                        if a.makespan.to_bits() != b.makespan.to_bits() {
                            return Err(format!(
                                "makespan {} vs {} ({at})",
                                a.makespan, b.makespan
                            ));
                        }
                        let effort_ok = if prune {
                            b.evaluated <= a.evaluated
                        } else {
                            b.evaluated == a.evaluated
                        };
                        if !effort_ok {
                            return Err(format!(
                                "evaluated {} vs {} ({at})",
                                b.evaluated, a.evaluated
                            ));
                        }
                    }
                    (Err(ea), Err(eb)) if ea == eb => {}
                    _ => return Err(format!("outcome mismatch ({at}): {reference:?} vs {r:?}")),
                }
            }
        }
    }
    Ok(())
}

/// Found by this file's property at 20 000 cases: every binding's makespan
/// is the capped flow `f1`'s finish time, to the last bit or one short of
/// it. Rated alone, `f1` finishes in one step; sharing `x0`'s NIC with
/// `f0` or `f2` it is rated in two, and the split moves the last bit of
/// its finish — downwards for the sequential winner `[6, 1]`. A bound
/// taken from the lone rating therefore sits one ulp *above* a leaf below
/// it: only components that no open flow can join may bound a subtree.
#[test]
fn a_flow_joining_a_rated_component_moves_its_last_bit() {
    let p = build_problem(
        7,
        &[(100, 37), (255, 85)],
        &[
            (236, 41, None, Some(128), 105, 9),
            (154, 13, Some(381), Some(141), 9, 173),
            (28, 228, Some(114), None, 191, 93),
        ],
        true,
    );
    let loads = [
        (131, 166),
        (253, 122),
        (235, 73),
        (201, 151),
        (152, 128),
        (90, 124),
        (13, 55),
        (30, 34),
        (91, 44),
    ];
    check_against_reference(&p, &build_world(7, &loads)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Parallel + pruned search ≡ the sequential reference, across thread
    /// counts {1, 2, 8} and both strategies, on arbitrary problems and
    /// worlds.
    #[test]
    fn branch_and_bound_matches_sequential_reference(
        n_addrs in 4u32..=8,
        var_specs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..=3),
        flow_specs in proptest::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                proptest::option::of(1u16..400),
                proptest::option::of(any::<u8>()),
                any::<u8>(),
                any::<u8>(),
            ),
            1..=5,
        ),
        distinct in any::<bool>(),
        loads in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..10),
    ) {
        let p = build_problem(n_addrs, &var_specs, &flow_specs, distinct);
        let w = build_world(n_addrs, &loads);
        let checked = check_against_reference(&p, &w);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
