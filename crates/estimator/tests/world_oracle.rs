//! The dense `World` (addresses ascending, states by slot, a presence
//! flag per slot) against the hash-map world it replaced, kept here as
//! the oracle: every `get`, `set`, `remove`, `knows` and `len` answers
//! alike over random operation sequences, absent hosts and the
//! pessimistic default included, and the slot reads agree with the
//! address reads.

use std::collections::HashMap;

use cloudtalk_lang::problem::Address;
use estimator::{HostState, World};
use proptest::prelude::*;

/// The replaced world: a hash map, and the overloaded assumption for
/// every host it does not hold.
#[derive(Default)]
struct MapWorld {
    hosts: HashMap<Address, HostState>,
}

impl MapWorld {
    fn assumed_overloaded() -> HostState {
        HostState {
            nic_up_capacity: 125e6,
            nic_up_used: 125e6,
            nic_down_capacity: 125e6,
            nic_down_used: 125e6,
            disk_read_capacity: 450e6,
            disk_read_used: 450e6,
            disk_write_capacity: 450e6,
            disk_write_used: 450e6,
        }
    }

    fn set(&mut self, addr: Address, state: HostState) {
        self.hosts.insert(addr, state);
    }

    fn remove(&mut self, addr: Address) {
        self.hosts.remove(&addr);
    }

    fn get(&self, addr: Address) -> HostState {
        self.hosts
            .get(&addr)
            .copied()
            .unwrap_or_else(Self::assumed_overloaded)
    }

    fn knows(&self, addr: Address) -> bool {
        self.hosts.contains_key(&addr)
    }

    fn len(&self) -> usize {
        self.hosts.len()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Set(u32, f64),
    Remove(u32),
}

fn op() -> impl Strategy<Value = Op> {
    // A small address space, so sets, removes and reads collide; two
    // sets to a remove.
    let set = || (0u32..24, 0.0f64..=1.0).prop_map(|(a, load)| Op::Set(a, load));
    prop_oneof![set(), set(), (0u32..24).prop_map(Op::Remove)]
}

fn assert_same(world: &World, oracle: &MapWorld) -> Result<(), TestCaseError> {
    prop_assert_eq!(world.len(), oracle.len());
    prop_assert_eq!(world.is_empty(), oracle.len() == 0);
    for a in (0u32..26).map(Address) {
        prop_assert_eq!(world.get(a), oracle.get(a), "get({:?})", a);
        prop_assert_eq!(world.knows(a), oracle.knows(a), "knows({:?})", a);
        let by_slot = world.slot(a).map(|slot| world.get_at(slot));
        prop_assert_eq!(
            by_slot.unwrap_or(oracle.get(a)),
            oracle.get(a),
            "get_at({:?})",
            a
        );
    }
    let mut known: Vec<(Address, HostState)> = oracle.hosts.iter().map(|(&a, &s)| (a, s)).collect();
    known.sort_unstable_by_key(|&(a, _)| a);
    let iterated: Vec<(Address, HostState)> = world.iter().map(|(&a, &s)| (a, s)).collect();
    prop_assert_eq!(iterated, known);
    let wanted: Vec<Address> = (0u32..26).step_by(3).map(Address).collect();
    let read: Vec<HostState> = world.states_of_sorted(&wanted).collect();
    let want: Vec<HostState> = wanted.iter().map(|&a| oracle.get(a)).collect();
    prop_assert_eq!(read, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_dense_world_answers_as_the_hash_map(
        seeded in proptest::collection::vec(0u32..24, 0..8),
        ops in proptest::collection::vec(op(), 0..64),
    ) {
        let seed_addrs: Vec<Address> = seeded.iter().copied().map(Address).collect();
        let mut world = World::uniform(&seed_addrs, HostState::gbps_idle());
        let mut oracle = MapWorld::default();
        for &a in &seed_addrs {
            oracle.set(a, HostState::gbps_idle());
        }
        assert_same(&world, &oracle)?;
        for op in ops {
            match op {
                Op::Set(a, load) => {
                    let state = HostState::gbps_idle().with_up_load(load);
                    world.set(Address(a), state);
                    oracle.set(Address(a), state);
                }
                Op::Remove(a) => {
                    world.remove(Address(a));
                    oracle.remove(Address(a));
                }
            }
            assert_same(&world, &oracle)?;
        }
    }
}

#[test]
fn an_empty_world_assumes_every_host_overloaded() {
    let (world, oracle) = (World::new(), MapWorld::default());
    for a in [0, 1, u32::MAX].map(Address) {
        assert_eq!(world.get(a), oracle.get(a));
        assert!(!world.knows(a));
    }
    assert_eq!(world.get_at(0), MapWorld::assumed_overloaded());
}
