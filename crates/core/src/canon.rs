//! Canonical query fingerprinting shared by the search backends and the
//! answer cache.
//!
//! Two distinct notions live here, both extracted from the symmetry
//! memoisation that used to be private to [`crate::pktsearch`]:
//!
//! * **Host classes** ([`HostClasses`]) — the topology equivalence
//!   relation over candidate hosts. Two hosts are interchangeable when
//!   an automorphism of the mirrored topology can swap them (same rack,
//!   identical access-link capacity and latency) and neither is pinned
//!   by a fixed endpoint of the query. Only the packet-level search uses
//!   them: its memoiser keys its per-binding cache on the
//!   [`CanonKey`], which knows a second relation: whole *racks* are
//!   interchangeable when they have equal `RackShape`s and hold no
//!   pinned address, so a binding is canonical up to a permutation of
//!   such racks as well as of the hosts inside each.
//! * **Problem fingerprints** — structural hashes of a resolved
//!   [`Problem`]. [`fingerprint_problem`] hashes the *exact* problem
//!   (addresses included) and is the first component of every
//!   answer-cache key.
//!
//! Hashes are 64-bit and therefore *not* proof of equality: every cache
//! that keys on a fingerprint must verify with a structural comparison
//! of the problems before treating a probe as a hit (the answer cache
//! stores the full `Arc<Problem>` alongside the hash for exactly this).

use std::hash::{Hash, Hasher};

use cloudtalk_lang::ast::AttrKind;
use cloudtalk_lang::problem::{Address, Binding, Endpoint, ExprR, Problem, Value};
use cloudtalk_lang::{WordHasher, WordMap};

/// Class id of a binding position bound to `Value::Disk`. Class ids are
/// dense from zero, so the max id can never collide with it.
pub const DISK_CLASS: u32 = u32::MAX;

/// One position of a canonical binding key: the class of the value's
/// rack, the first position bound into the *same rack*, the kind of host
/// within it, and the first position bound to the *same value* (both
/// "first" indices are the position's own for first occurrences). The two
/// equality patterns are what the classes cannot say: `(h, h)` shares one
/// NIC and `(h, h')` does not even when `h` and `h'` are interchangeable,
/// and two hosts of one rack share an uplink that hosts of two
/// interchangeable racks do not.
pub type CanonKey = Vec<[u32; 4]>;

/// What makes a rack interchangeable with another: two racks with equal
/// shapes, neither holding a pinned address, can be swapped whole by a
/// topology automorphism. Whoever describes the mirror must only offer a
/// shape for a rack whose hosts all hang off one top-of-rack switch that
/// has a single further link, to `parent`, in a mirror with unique routes
/// (a tree) — with equal-cost multipath the route of a flow depends on
/// the ids of the switches it crosses, which a swap changes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct RackShape {
    /// The switch the rack's top-of-rack switch hangs off.
    pub(crate) parent: usize,
    /// Capacity (bit pattern) and latency (ns) of the link to it.
    pub(crate) uplink: (u64, u64),
    /// Capacity and latency of every host access link in the rack, sorted.
    pub(crate) hosts: Vec<(u64, u64)>,
}

/// Where a candidate address sits in both relations.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The rack itself (dense index), for the same-rack pattern.
    rack: u32,
    /// Class of the rack: shared by interchangeable racks.
    rack_class: u32,
    /// Kind of host, whatever its rack: same access link, not pinned.
    kind: u32,
}

/// The topology equivalence classes of a query's candidate hosts.
///
/// Built once per (problem, topology) pair and consulted per binding;
/// see `HostClasses::build` for the exact relation.
#[derive(Clone, Debug)]
pub struct HostClasses {
    slots: WordMap<Address, Slot>,
    /// Number of host-level classes assigned (ids are dense from zero).
    classes: u32,
}

/// Hands out dense ids: one per distinct key, or a fresh one on demand.
struct Interner<K> {
    ids: WordMap<K, u32>,
    next: u32,
}

impl<K: Hash + Eq> Interner<K> {
    fn new() -> Self {
        Interner {
            ids: WordMap::default(),
            next: 0,
        }
    }

    fn fresh(&mut self) -> u32 {
        self.next += 1;
        self.next - 1
    }

    /// The id of `key`; `None` always gets an id of its own.
    fn id(&mut self, key: Option<K>) -> u32 {
        let Some(key) = key else { return self.fresh() };
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.fresh();
        self.ids.insert(key, id);
        id
    }
}

impl HostClasses {
    /// Assigns classes to every candidate address of `problem`. The
    /// caller describes the topology through two closures. `describe`
    /// returns the rack an address sits in and a hashable descriptor of
    /// its access link — hosts of one rack with equal descriptors are
    /// interchangeable — or `None` when the address is not in the
    /// described topology. `rack_shape` returns the [`RackShape`] of a
    /// rack, or `None` for a rack that must keep its identity. Pinned
    /// addresses (fixed endpoints of the query) and undescribed addresses
    /// get singleton classes regardless of their descriptor, and a rack
    /// holding a pinned address keeps its identity regardless of its
    /// shape: an automorphism must map a pinned host to itself.
    ///
    /// Ids are assigned in candidate declaration order, so they are
    /// stable across runs and thread counts.
    pub(crate) fn build<D, F, G>(problem: &Problem, describe: F, rack_shape: G) -> HostClasses
    where
        D: Hash + Eq + Clone,
        F: Fn(Address) -> Option<(usize, D)>,
        G: Fn(usize) -> Option<RackShape>,
    {
        let mut pinned: Vec<Address> = Vec::new();
        for flow in &problem.flows {
            for ep in [flow.src, flow.dst] {
                if let Endpoint::Addr(a) = ep {
                    if !pinned.contains(&a) {
                        pinned.push(a);
                    }
                }
            }
        }
        let pinned_racks: Vec<usize> = pinned
            .iter()
            .filter_map(|&a| describe(a).map(|(rack, _)| rack))
            .collect();

        let mut slots: WordMap<Address, Slot> = WordMap::default();
        let mut classes = Interner::new();
        let mut kinds = Interner::new();
        let mut rack_ids = Interner::new();
        let mut rack_classes = Interner::new();
        // Class of each rack seen so far, by its dense index.
        let mut class_of_rack: Vec<u32> = Vec::new();
        for var in &problem.vars {
            for value in &var.candidates {
                let Value::Addr(a) = value else { continue };
                if slots.contains_key(a) {
                    continue;
                }
                // An undescribed host is in a rack of its own.
                let described = describe(*a);
                let topo_rack = described.as_ref().map(|(rack, _)| *rack);
                let rack = rack_ids.id(topo_rack);
                if rack as usize == class_of_rack.len() {
                    let shape = topo_rack
                        .filter(|r| !pinned_racks.contains(r))
                        .and_then(&rack_shape);
                    class_of_rack.push(rack_classes.id(shape));
                }
                let rack_class = class_of_rack[rack as usize];
                // Pinned (or undescribed) hosts are singleton classes.
                let free = described.filter(|_| !pinned.contains(a));
                // Only the number of host-level classes is kept (`classes()`).
                classes.id(free.clone());
                let slot = Slot {
                    rack,
                    rack_class,
                    kind: kinds.id(free.map(|(_, link)| link)),
                };
                slots.insert(*a, slot);
            }
        }
        HostClasses {
            slots,
            classes: classes.next,
        }
    }

    /// Number of distinct host-level classes.
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// The canonical key of `binding`. Panics if the binding mentions an
    /// address that was not a candidate of the problem the classes were
    /// built from.
    pub fn key(&self, binding: &Binding) -> CanonKey {
        let slot = |v: &Value| match v {
            Value::Addr(a) => Some(self.slots[a]),
            Value::Disk => None,
        };
        binding
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let first = first_like(binding, i, |w| w == v);
                match slot(v) {
                    Some(s) => {
                        let same_rack = |w: &Value| slot(w).is_some_and(|t| t.rack == s.rack);
                        [s.rack_class, first_like(binding, i, same_rack), s.kind, first]
                    }
                    None => [DISK_CLASS, first, DISK_CLASS, first],
                }
            })
            .collect()
    }
}

/// The first position of `binding` that is `like` position `i` (which is
/// like itself).
fn first_like(binding: &Binding, i: usize, like: impl Fn(&Value) -> bool) -> u32 {
    binding[..i].iter().position(like).unwrap_or(i) as u32
}

/// All five attribute kinds, in the order `Flow` stores them.
const ATTR_KINDS: [AttrKind; 5] = [
    AttrKind::Start,
    AttrKind::End,
    AttrKind::Size,
    AttrKind::Rate,
    AttrKind::Transfer,
];

/// Structural hash of the *exact* problem: variables (names, pools,
/// candidate values including concrete addresses), flows (names,
/// endpoints, attribute expressions with `f64` literals hashed by bit
/// pattern), and the distinctness flag. Two equal problems always hash
/// equal; unequal problems collide with 2^-64 probability, which is why
/// consumers must back the hash with a structural equality check.
pub fn fingerprint_problem(problem: &Problem) -> u64 {
    #[cfg(test)]
    {
        FINGERPRINT_CALLS.with(|c| c.set(c.get() + 1));
        if ONE_BUCKET.load(std::sync::atomic::Ordering::SeqCst) {
            return 0;
        }
    }
    exact_hash(problem)
}

fn exact_hash(problem: &Problem) -> u64 {
    let mut h = WordHasher::default();
    hash_problem(problem, &mut h);
    h.finish()
}

#[cfg(test)]
thread_local! {
    /// Calls to [`fingerprint_problem`] on this thread, so tests can pin
    /// how often a query is hashed.
    pub(crate) static FINGERPRINT_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// While set, every fingerprint and every answer-cache key hashes to zero,
/// on every thread: all probes land in one bucket and only the structural
/// comparison tells entries apart. Tests of the hash itself call
/// `exact_hash`, which does not look.
#[cfg(test)]
pub(crate) static ONE_BUCKET: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

fn hash_problem(problem: &Problem, h: &mut impl Hasher) {
    problem.vars.len().hash(h);
    for var in &problem.vars {
        var.name.hash(h);
        var.pool.hash(h);
        var.candidates.len().hash(h);
        for v in &var.candidates {
            hash_value(*v, h);
        }
    }
    problem.flows.len().hash(h);
    for flow in &problem.flows {
        flow.name.hash(h);
        hash_endpoint(flow.src, h);
        hash_endpoint(flow.dst, h);
        for kind in ATTR_KINDS {
            match flow.attr(kind) {
                Some(e) => {
                    1u8.hash(h);
                    hash_expr(e, h);
                }
                None => 0u8.hash(h),
            }
        }
    }
    problem.distinct.hash(h);
}

fn hash_value(v: Value, h: &mut impl Hasher) {
    match v {
        Value::Addr(a) => {
            0u8.hash(h);
            a.hash(h);
        }
        Value::Disk => 1u8.hash(h),
    }
}

fn hash_endpoint(ep: Endpoint, h: &mut impl Hasher) {
    match ep {
        Endpoint::Addr(a) => {
            0u8.hash(h);
            a.hash(h);
        }
        Endpoint::Var(v) => {
            1u8.hash(h);
            v.hash(h);
        }
        Endpoint::Disk => 2u8.hash(h),
        Endpoint::Unknown => 3u8.hash(h),
    }
}

fn hash_expr(e: &ExprR, h: &mut impl Hasher) {
    match e {
        ExprR::Literal(v) => {
            0u8.hash(h);
            v.to_bits().hash(h);
        }
        ExprR::Ref(attr, flow) => {
            1u8.hash(h);
            attr.hash(h);
            flow.hash(h);
        }
        ExprR::Binary(op, lhs, rhs) => {
            2u8.hash(h);
            op.hash(h);
            hash_expr(lhs, h);
            hash_expr(rhs, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::QueryBuilder;

    fn two_var_problem(pool_a: Vec<Address>, pool_b: Vec<Address>, size: f64) -> Problem {
        let mut b = QueryBuilder::new();
        let x = b.variable("x", pool_a);
        let y = b.variable("y", pool_b);
        b.flow("f").from_var(x).to_var(y).size(size);
        b.resolve().unwrap()
    }

    #[test]
    fn exact_fingerprint_separates_addresses_and_literals() {
        let p1 = two_var_problem(vec![Address(1), Address(2)], vec![Address(3)], 1e4);
        let p2 = two_var_problem(vec![Address(1), Address(2)], vec![Address(4)], 1e4);
        let p3 = two_var_problem(vec![Address(1), Address(2)], vec![Address(3)], 2e4);
        assert_eq!(exact_hash(&p1), exact_hash(&p1.clone()));
        assert_ne!(exact_hash(&p1), exact_hash(&p2));
        assert_ne!(exact_hash(&p1), exact_hash(&p3));
    }

    #[test]
    fn ten_thousand_distinct_problems_keep_their_fingerprints_apart() {
        // Neighbours in every field the hash folds: pool addresses, the
        // fixed endpoint, literal bits, the flow's name.
        let mut seen = std::collections::BTreeSet::new();
        let mut problems = 0u32;
        for a in 1..=25u32 {
            for b in 1..=20u32 {
                for k in 1..=20u32 {
                    let (size, name) = (f64::from(k) * 1e6, format!("f{}", k % 5));
                    let mut q = QueryBuilder::new();
                    let x = q.variable("x", [Address(a), Address(a + 1), Address(0x0A00_0000 + b)]);
                    q.flow(name).from_var(x).to_addr(Address(b << 8)).size(size);
                    seen.insert(exact_hash(&q.resolve().unwrap()));
                    problems += 1;
                }
            }
        }
        assert_eq!(problems, 10_000);
        assert!(seen.len() >= 9_990, "{} distinct fingerprints", seen.len());
    }

    #[test]
    fn pinned_addresses_get_singleton_classes() {
        let mut b = QueryBuilder::new();
        let x = b.variable("x", vec![Address(1), Address(2), Address(3)]);
        b.flow("f").from_addr(Address(1)).to_var(x).size(1e4);
        let p = b.resolve().unwrap();
        let classes = HostClasses::build(&p, |_| Some((0usize, 0u8)), |_| None);
        // Address 1 is pinned by the fixed src endpoint: it is a class of
        // its own beside the interchangeable pair {2, 3}.
        assert_eq!(classes.classes(), 2);
    }

    #[test]
    fn canon_key_tracks_equality_pattern() {
        let p = two_var_problem(vec![Address(1), Address(2)], vec![Address(1), Address(2)], 1e4);
        let classes = HostClasses::build(&p, |_| Some((0usize, 0u8)), |_| None);
        let same = classes.key(&vec![Value::Addr(Address(1)), Value::Addr(Address(1))]);
        let diff = classes.key(&vec![Value::Addr(Address(1)), Value::Addr(Address(2))]);
        assert_ne!(same, diff, "(h, h) and (h, h') must not share a key");
        let diff2 = classes.key(&vec![Value::Addr(Address(2)), Value::Addr(Address(1))]);
        assert_eq!(diff, diff2, "isomorphic distinct pairs share a key");
    }

    /// Synthetic mirror for the rack relation: address `a` sits in rack
    /// `a / 10` behind a unit access link.
    fn by_tens(a: Address) -> Option<(usize, u8)> {
        Some(((a.0 / 10) as usize, 0))
    }

    fn shape(parent: usize, uplink: u64, hosts: usize) -> Option<RackShape> {
        Some(RackShape {
            parent,
            uplink: (uplink, 10),
            hosts: vec![(1, 10); hosts],
        })
    }

    /// Keys of every ordered distinct pair over `pool`, as a set.
    fn pair_keys(classes: &HostClasses, pool: &[Address]) -> std::collections::HashSet<CanonKey> {
        let mut keys = std::collections::HashSet::new();
        for &a in pool {
            for &b in pool {
                if a != b {
                    keys.insert(classes.key(&vec![Value::Addr(a), Value::Addr(b)]));
                }
            }
        }
        keys
    }

    /// Two candidates in each of racks 1, 2 and 3.
    fn three_racks() -> (Problem, Vec<Address>) {
        let pool: Vec<Address> = [10, 11, 20, 21, 30, 31].map(Address).to_vec();
        (two_var_problem(pool.clone(), pool.clone(), 1e4), pool)
    }

    #[test]
    fn racks_of_equal_shape_are_interchangeable() {
        let (p, pool) = three_racks();
        let classes = HostClasses::build(&p, by_tens, |_| shape(0, 40, 4));
        // Host-level classes still tell the racks apart…
        assert_eq!(classes.classes(), 3);
        // …the keys do not: one for "same rack", one for "two racks".
        assert_eq!(pair_keys(&classes, &pool).len(), 2);
        let key = |a: u32, b: u32| classes.key(&vec![Value::Addr(Address(a)), Value::Addr(Address(b))]);
        assert_eq!(key(10, 20), key(30, 21));
        assert_eq!(key(10, 20), key(20, 10), "(rX, rY) == (rY, rX)");
        assert_eq!(key(10, 11), key(31, 30));
        assert_ne!(key(10, 11), key(10, 20), "sharing an uplink is not crossing two");
        // Without shapes every rack keeps its identity: 3 same-rack keys
        // plus 6 ordered cross-rack ones, as before the rack relation.
        let plain = HostClasses::build(&p, by_tens, |_| None);
        assert_eq!(pair_keys(&plain, &pool).len(), 9);
    }

    #[test]
    fn a_different_uplink_parent_or_host_set_keeps_a_rack_apart() {
        let (p, pool) = three_racks();
        let odd_rack_3 = |odd: Option<RackShape>| {
            let classes = HostClasses::build(&p, by_tens, |rack| {
                if rack == 3 { odd.clone() } else { shape(0, 40, 4) }
            });
            pair_keys(&classes, &pool).len()
        };
        // Racks 1 and 2 collapse (same-rack, cross-rack); rack 3 adds its
        // own same-rack key and both orders against the collapsed pair.
        assert_eq!(odd_rack_3(shape(0, 40, 4)), 2, "control: all alike");
        assert_eq!(odd_rack_3(shape(0, 10, 4)), 5, "slower uplink");
        assert_eq!(odd_rack_3(shape(7, 40, 4)), 5, "another parent switch");
        assert_eq!(odd_rack_3(shape(0, 40, 3)), 5, "one host fewer");
        assert_eq!(odd_rack_3(None), 5, "no shape offered");
    }

    #[test]
    fn a_pinned_address_pins_its_rack() {
        // Address 32 is a fixed endpoint, not a candidate: rack 3 can no
        // longer trade places with racks 1 and 2, whatever its shape.
        let pool: Vec<Address> = [10, 11, 20, 21, 30, 31].map(Address).to_vec();
        let mut b = QueryBuilder::new();
        let x = b.variable("x", pool.clone());
        let y = b.variable("y", pool.clone());
        b.flow("f").from_var(x).to_var(y).size(1e4);
        b.flow("g").from_addr(Address(32)).to_var(x).size(1e4);
        let p = b.resolve().unwrap();
        let classes = HostClasses::build(&p, by_tens, |_| shape(0, 40, 4));
        assert_eq!(pair_keys(&classes, &pool).len(), 5);
    }
}
