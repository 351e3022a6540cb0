//! Canonicalisation regression: what the symmetry memoiser considers
//! equivalent, pinned on the §5.4 web-search aggregator placement.
//!
//! * The CI-sized single-switch scenario runs the real packet-level
//!   search and checks the memo hit/miss counters end-to-end.
//! * The full 80-leaf two-tier scenario (132 ordered candidate pairs)
//!   checks the class structure that *determines* those counters without
//!   paying for full packet simulations in a debug-profile test: 4
//!   host-level classes over the 12 candidates (one per rack), and — the
//!   three leaf-free, frontend-free candidate racks being interchangeable
//!   — **5** canonical keys over the 132 pairs. Given the memoiser (first
//!   binding of a key simulates, the rest replay), that pins misses = 5
//!   and hits = 127.
//! * The rack relation's preconditions, each on a real mirror where it
//!   fails: equal-cost multipath (`vl2`), an odd NIC, a truncated rack, a
//!   pinned leaf among the candidates. Every one must fall back to
//!   per-rack identity.

use std::collections::HashSet;

use cloudtalk::canon::{CanonKey, HostClasses};
use cloudtalk::pktsearch::{host_classes, pkt_search, MirrorTopology, PktSearchOptions};
use cloudtalk_apps::websearch::aggregator_placement_query;
use cloudtalk_lang::problem::Value;
use simnet::topology::{HostId, TopoOptions, Topology};
use simnet::GBPS;

/// CI-sized: 8 leaves and 4 interchangeable candidates on one switch —
/// 12 ordered pairs, all in one symmetry class.
#[test]
fn smoke_scenario_memo_counters_unchanged() {
    let topo = Topology::single_switch(16, GBPS, TopoOptions::default());
    let hosts = topo.host_ids();
    let frontend = hosts[0];
    let leaves: Vec<HostId> = hosts[1..9].to_vec();
    let candidates: Vec<HostId> = hosts[10..14].to_vec();
    let problem = aggregator_placement_query(&topo, frontend, &leaves, &candidates);
    let mirror = MirrorTopology::new(topo);

    let classes = host_classes(&problem, &mirror);
    assert_eq!(
        classes.classes(),
        1,
        "four co-switched candidates collapse to one class"
    );

    let r = pkt_search(&problem, &mirror, &PktSearchOptions::new(16))
        .expect("smoke placement search succeeds");
    assert_eq!(r.memo_misses, 1, "one class → one simulated key");
    assert_eq!(r.memo_hits, 11, "remaining 11 ordered pairs replay");
    assert_eq!(r.evaluated, 1, "only the class representative simulates");
}

/// The §5.4 candidate pool: three hosts in each of racks 0–3 of a
/// 12-rack, 10-per-rack fabric.
const POOL: [usize; 12] = [1, 2, 3, 10, 11, 12, 20, 21, 22, 30, 31, 32];

/// Canonical keys of every ordered distinct candidate pair of the
/// placement query over `topo`, with the candidate addresses.
fn placement_keys(
    topo: Topology,
    frontend: usize,
    leaves: std::ops::Range<usize>,
    pool: &[usize],
) -> (HashSet<CanonKey>, HostClasses, Vec<Value>) {
    let hosts = topo.host_ids();
    let leaves: Vec<HostId> = hosts[leaves].to_vec();
    let candidates: Vec<HostId> = pool.iter().map(|&i| hosts[i]).collect();
    let problem = aggregator_placement_query(&topo, hosts[frontend], &leaves, &candidates);
    let mirror = MirrorTopology::new(topo);
    let classes = host_classes(&problem, &mirror);
    let pool = problem.vars[0].candidates.clone();
    let mut keys = HashSet::new();
    for &a in &pool {
        for &b in &pool {
            if a != b {
                keys.insert(classes.key(&vec![a, b]));
            }
        }
    }
    (keys, classes, pool)
}

fn two_tier() -> Topology {
    Topology::two_tier(12, 10, GBPS, f64::INFINITY, TopoOptions::default())
}

/// Full scale: the frontend pins rack 0, the leaves fill racks 4–11, and
/// candidate racks 1–3 are interchangeable. The 132 ordered distinct
/// pairs collapse to 5 canonical keys: (r0, r0), (r0, rX), (rX, r0),
/// (rX, rX) and (rX, rY).
#[test]
fn full_websearch_placement_class_structure_unchanged() {
    let (keys, classes, pool) = placement_keys(two_tier(), 0, 40..120, &POOL);
    assert_eq!(
        classes.classes(),
        4,
        "one host-level class per candidate rack"
    );
    assert_eq!(pool.len() * (pool.len() - 1), 132);
    assert_eq!(
        keys.len(),
        5,
        "132 ordered pairs collapse to 5 canonical keys → memoised \
         search simulates 5 and replays 127"
    );
    let key = |a: usize, b: usize| classes.key(&vec![pool[a], pool[b]]);
    // pool[0..3] sit in rack 0, [3..6] in rack 1, [6..9] in rack 2.
    assert_eq!(key(3, 6), key(6, 3), "(rX, rY) == (rY, rX)");
    assert_eq!(key(3, 6), key(9, 4), "any two interchangeable racks");
    assert_eq!(key(3, 4), key(7, 6), "(rX, rX) wherever X is");
    assert_ne!(key(3, 4), key(3, 6), "one rack is not two");
    assert_ne!(
        key(0, 3),
        key(3, 0),
        "(r0, rX) != (rX, r0): the halves are asymmetric and rack 0 is pinned"
    );
    assert_ne!(key(0, 1), key(3, 4), "the frontend's rack is not any rack");
}

/// With the frontend in a leaf rack nothing pins racks 0–3: same rack or
/// two racks is all a pair can be.
#[test]
fn frontend_in_a_leaf_rack_leaves_two_keys() {
    let (keys, classes, _) = placement_keys(two_tier(), 40, 41..120, &POOL);
    assert_eq!(classes.classes(), 4);
    assert_eq!(keys.len(), 2);
}

/// What the full layout collapsed to before racks were interchangeable,
/// and must still collapse to wherever they are not: 4 same-rack keys
/// plus 12 ordered cross-rack ones.
const PER_RACK_KEYS: usize = 16;

/// `vl2` has equal-cost paths: the route of a flow depends on a hash over
/// switch ids, which a rack swap changes — no rack may trade places.
#[test]
fn multipath_mirror_keeps_per_rack_identity() {
    let topo = Topology::vl2(12, 10, GBPS, TopoOptions::default());
    let (keys, _, _) = placement_keys(topo, 0, 40..120, &POOL);
    assert_eq!(keys.len(), PER_RACK_KEYS);
}

/// One slower NIC in rack 2 — on a host that is not even a candidate —
/// changes the rack's host multiset: racks 1 and 3 still trade places,
/// rack 2 stands alone.
#[test]
fn an_odd_nic_keeps_its_rack_apart() {
    let mut topo = two_tier();
    topo.set_nic(HostId(25), GBPS / 10.0);
    let (keys, _, _) = placement_keys(topo, 0, 40..120, &POOL);
    // Rack classes {0}, {1, 3}, {2}: three same-rack keys, both orders of
    // 0–X, 0–2 and X–2, and the unordered X–Y.
    assert_eq!(keys.len(), 3 + 6 + 1);
}

/// `ec2(n, ..)` trims the last rack: with candidates in it, its shorter
/// host list keeps it apart from the full racks.
#[test]
fn a_truncated_rack_keeps_its_identity() {
    // 4 racks of 9, the last cut to 8 hosts; frontend and leaves live in
    // rack 0, so racks 1–3 hold no pinned address.
    let topo = Topology::ec2(35, GBPS, 4, TopoOptions::default());
    let (keys, _, _) = placement_keys(topo, 0, 2..8, &[9, 10, 18, 19, 27, 28]);
    // Rack classes {1, 2}, {3}: two same-rack keys, the unordered X–Y,
    // and both orders of X–3.
    assert_eq!(keys.len(), 2 + 1 + 2);
}

/// A leaf in candidate rack 3 pins the rack: only racks 1 and 2 are left
/// to trade places.
#[test]
fn a_pinned_leaf_keeps_its_rack_apart() {
    let (keys, _, _) = placement_keys(two_tier(), 0, 39..120, &POOL);
    // Rack classes {0}, {1, 2}, {3}: as with the odd NIC.
    assert_eq!(keys.len(), 3 + 6 + 1);
}
