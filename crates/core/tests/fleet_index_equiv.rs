//! The fleet index behind `FleetLayout::{slot_of, rack_of, host_count}` is
//! a hash table. This suite holds it to the index it replaced, kept here as
//! the oracle: every host as `(address, rack, slot)` in a `Vec` sorted by
//! address and binary-searched.
//!
//! Layouts are random `FleetLayout::grouped` inputs — racks listed out of
//! address order, hosts repeated inside a rack, addresses scattered over
//! the whole `u32` range with `0` and `u32::MAX` sometimes members — and
//! every member, a sample of absent addresses and both ends of the range
//! are probed.

use std::collections::BTreeSet;

use cloudtalk::aggregate::{FleetLayout, RackId};
use cloudtalk_lang::problem::Address;
use desim::rng::{stream_rng, DetRng};
use proptest::prelude::*;
use rand::prelude::*;

/// The replaced index.
struct SortedIndex(Vec<(Address, u32, u32)>);

impl SortedIndex {
    fn of(racks: &[Vec<Address>]) -> Self {
        let mut index = Vec::new();
        for (rack, hosts) in racks.iter().enumerate() {
            let mut hosts = hosts.clone();
            hosts.sort_unstable();
            hosts.dedup();
            index.extend(
                hosts
                    .iter()
                    .enumerate()
                    .map(|(slot, &a)| (a, rack as u32, slot as u32)),
            );
        }
        index.sort_unstable_by_key(|e| e.0);
        SortedIndex(index)
    }

    fn slot_of(&self, addr: Address) -> Option<(RackId, usize)> {
        let i = self.0.binary_search_by_key(&addr, |e| e.0).ok()?;
        let (_, rack, slot) = self.0[i];
        Some((RackId(rack), slot as usize))
    }
}

/// An address from one of three shapes: anywhere, a datacenter-like
/// `10.r.r.h`, or one of the range's two ends.
fn draw_addr(rng: &mut DetRng) -> Address {
    match rng.gen_range(0..10u32) {
        0..=4 => Address(rng.gen()),
        5..=8 => Address(0x0A00_0000 + rng.gen_range(0..64u32) * 256 + rng.gen_range(1..48u32)),
        _ => Address(if rng.gen_bool(0.5) { 0 } else { u32::MAX }),
    }
}

/// Racks of pairwise-disjoint host sets, each listed shuffled, with
/// repeats, and possibly empty.
fn random_racks(rng: &mut DetRng) -> Vec<Vec<Address>> {
    let mut hosts: Vec<Address> = (0..rng.gen_range(0..400usize))
        .map(|_| draw_addr(rng))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    hosts.shuffle(rng);
    let n_racks = rng.gen_range(1..12usize);
    let mut racks = vec![Vec::new(); n_racks];
    for a in hosts {
        racks[rng.gen_range(0..n_racks)].push(a);
    }
    for rack in &mut racks {
        for _ in 0..rng.gen_range(0..=rack.len()) {
            let again = rack[rng.gen_range(0..rack.len())];
            rack.push(again);
        }
        rack.shuffle(rng);
    }
    racks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `slot_of`, `rack_of` and `host_count` answer as the sorted index
    /// does, for members, absent addresses and both ends of the range.
    #[test]
    fn hashed_index_answers_like_the_sorted_one(seed in any::<u64>()) {
        let mut rng = stream_rng(seed, 0xF1EE7);
        let racks = random_racks(&mut rng);
        let oracle = SortedIndex::of(&racks);
        let layout = FleetLayout::grouped(racks.clone());

        prop_assert_eq!(layout.host_count(), oracle.0.len());
        prop_assert_eq!(layout.rack_count(), racks.len());
        let absent = (0..200).map(|_| draw_addr(&mut rng));
        let probes = racks.iter().flatten().copied().chain(absent);
        for addr in probes.chain([Address(0), Address(u32::MAX)]) {
            let want = oracle.slot_of(addr);
            prop_assert_eq!(layout.slot_of(addr), want, "slot_of({:?})", addr);
            prop_assert_eq!(layout.rack_of(addr), want.map(|(r, _)| r), "rack_of({:?})", addr);
            if let Some((rack, slot)) = want {
                prop_assert_eq!(layout.hosts(rack)[slot], addr);
            }
        }
    }
}

#[test]
#[should_panic(expected = "address Address(7) assigned to two racks")]
fn a_host_in_two_racks_is_refused_after_in_rack_repeats_collapse() {
    // Rack 0 repeats 7 (allowed, collapsed); rack 1 claims it too.
    FleetLayout::grouped(vec![
        vec![Address(9), Address(7), Address(7)],
        vec![Address(3), Address(7)],
    ]);
}
