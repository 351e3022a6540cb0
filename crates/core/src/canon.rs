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
//!   by a fixed endpoint of the query. The packet-level memoiser keys
//!   its per-binding cache on the induced [`CanonKey`]; the answer
//!   cache reuses the same classes to report how collapsed a tenant mix
//!   is (`cache.shapes`).
//! * **Problem fingerprints** — structural hashes of a resolved
//!   [`Problem`]. [`fingerprint_problem`] hashes the *exact* problem
//!   (addresses included) and is the first component of every
//!   answer-cache key; [`shape_hash`] hashes the problem with every
//!   address replaced by its host class, so structurally isomorphic
//!   queries over interchangeable hosts collide — the statistic the
//!   qps benchmarks report as "distinct shapes".
//!
//! Hashes are 64-bit and therefore *not* proof of equality: every cache
//! that keys on a fingerprint must verify with a structural comparison
//! of the problems before treating a probe as a hit (the answer cache
//! stores the full `Arc<Problem>` alongside the hash for exactly this).

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use cloudtalk_lang::ast::AttrKind;
use cloudtalk_lang::problem::{Address, Binding, Endpoint, ExprR, Problem, Value};

/// Class id of a binding position bound to `Value::Disk`. Host classes
/// are dense from zero, so the max id can never collide with it.
pub const DISK_CLASS: u32 = u32::MAX;

/// One position of a canonical binding key: the host's equivalence class
/// plus the index of the first position bound to the *same* value (self
/// for first occurrences). The equality pattern distinguishes `(h, h)`
/// from `(h, h')` even when `h` and `h'` share a class — the former
/// shares one NIC, the latter does not.
pub type CanonKey = Vec<(u32, u32)>;

/// The topology equivalence classes of a query's candidate hosts.
///
/// Built once per (problem, topology) pair and consulted per binding;
/// see [`HostClasses::build`] for the exact relation.
#[derive(Clone, Debug)]
pub struct HostClasses {
    /// Class of each candidate address.
    class_of: HashMap<Address, u32>,
    /// Number of classes assigned (ids are dense from zero).
    classes: u32,
}

impl HostClasses {
    /// Assigns classes to every candidate address of `problem`. The
    /// caller describes the topology through `describe`: it returns a
    /// hashable descriptor of the host behind an address — hosts with
    /// equal descriptors are interchangeable — or `None` when the
    /// address is not in the described topology. Pinned addresses
    /// (fixed endpoints of the query) and undescribed addresses get
    /// singleton classes regardless of their descriptor: an
    /// automorphism must map a pinned host to itself.
    ///
    /// Ids are assigned in candidate declaration order, so they are
    /// stable across runs and thread counts.
    pub fn build<D, F>(problem: &Problem, describe: F) -> HostClasses
    where
        D: Hash + Eq,
        F: Fn(Address) -> Option<D>,
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
        let mut class_of: HashMap<Address, u32> = HashMap::new();
        let mut interned: HashMap<D, u32> = HashMap::new();
        let mut next = 0u32;
        for var in &problem.vars {
            for value in &var.candidates {
                let Value::Addr(a) = value else { continue };
                if class_of.contains_key(a) {
                    continue;
                }
                let id = match describe(*a) {
                    Some(key) if !pinned.contains(a) => *interned.entry(key).or_insert_with(|| {
                        let id = next;
                        next += 1;
                        id
                    }),
                    // Pinned (or undescribed) hosts are singleton classes.
                    _ => {
                        let id = next;
                        next += 1;
                        id
                    }
                };
                class_of.insert(*a, id);
            }
        }
        HostClasses {
            class_of,
            classes: next,
        }
    }

    /// The class of a candidate address, if it was classified.
    pub fn class_of(&self, a: Address) -> Option<u32> {
        self.class_of.get(&a).copied()
    }

    /// Number of distinct classes.
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// The canonical key of `binding`. Panics if the binding mentions an
    /// address that was not a candidate of the problem the classes were
    /// built from.
    pub fn key(&self, binding: &Binding) -> CanonKey {
        binding
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let class = match v {
                    Value::Addr(a) => self.class_of[a],
                    Value::Disk => DISK_CLASS,
                };
                let first = binding[..i].iter().position(|w| w == v).unwrap_or(i) as u32;
                (class, first)
            })
            .collect()
    }
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
    FINGERPRINT_CALLS.with(|c| c.set(c.get() + 1));
    let mut h = DefaultHasher::new();
    hash_problem(problem, AddrToken::Exact, &mut h);
    h.finish()
}

#[cfg(test)]
thread_local! {
    /// Calls to [`fingerprint_problem`] on this thread, so tests can pin
    /// how often a query is hashed.
    pub(crate) static FINGERPRINT_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Address-blind shape hash: every address is replaced by its host
/// class (unclassified addresses hash as themselves, pinning them).
/// Isomorphic queries — the same application shape bound over
/// interchangeable hosts — collide, which makes the hash a workload
/// statistic, *not* a cache key.
pub fn shape_hash(problem: &Problem, classes: &HostClasses) -> u64 {
    let mut h = DefaultHasher::new();
    hash_problem(
        problem,
        |a| match classes.class_of(a) {
            Some(c) => AddrToken::Class(c),
            None => AddrToken::Exact(a),
        },
        &mut h,
    );
    h.finish()
}

/// How an address is folded into a hash: exactly, or by its class.
#[derive(Hash)]
enum AddrToken {
    Exact(Address),
    Class(u32),
}

fn hash_problem<F>(problem: &Problem, token: F, h: &mut impl Hasher)
where
    F: Fn(Address) -> AddrToken,
{
    problem.vars.len().hash(h);
    for var in &problem.vars {
        var.name.hash(h);
        var.pool.hash(h);
        var.candidates.len().hash(h);
        for v in &var.candidates {
            hash_value(*v, &token, h);
        }
    }
    problem.flows.len().hash(h);
    for flow in &problem.flows {
        flow.name.hash(h);
        hash_endpoint(flow.src, &token, h);
        hash_endpoint(flow.dst, &token, h);
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

fn hash_value<F: Fn(Address) -> AddrToken>(v: Value, token: &F, h: &mut impl Hasher) {
    match v {
        Value::Addr(a) => {
            0u8.hash(h);
            token(a).hash(h);
        }
        Value::Disk => 1u8.hash(h),
    }
}

fn hash_endpoint<F: Fn(Address) -> AddrToken>(ep: Endpoint, token: &F, h: &mut impl Hasher) {
    match ep {
        Endpoint::Addr(a) => {
            0u8.hash(h);
            token(a).hash(h);
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
        assert_eq!(fingerprint_problem(&p1), fingerprint_problem(&p1.clone()));
        assert_ne!(fingerprint_problem(&p1), fingerprint_problem(&p2));
        assert_ne!(fingerprint_problem(&p1), fingerprint_problem(&p3));
    }

    #[test]
    fn shape_hash_collapses_interchangeable_hosts() {
        // Hosts 1-4 are all "identical" per the descriptor; queries over
        // {1,2} and {3,4} are isomorphic, so their shapes collide while
        // their exact fingerprints do not.
        let describe = |a: Address| (a.0 <= 4).then_some(0u8);
        let p1 = two_var_problem(vec![Address(1)], vec![Address(2)], 1e4);
        let p2 = two_var_problem(vec![Address(3)], vec![Address(4)], 1e4);
        let c1 = HostClasses::build(&p1, describe);
        let c2 = HostClasses::build(&p2, describe);
        assert_ne!(fingerprint_problem(&p1), fingerprint_problem(&p2));
        assert_eq!(shape_hash(&p1, &c1), shape_hash(&p2, &c2));
        // A different flow size is a different shape.
        let p3 = two_var_problem(vec![Address(1)], vec![Address(2)], 5e4);
        let c3 = HostClasses::build(&p3, describe);
        assert_ne!(shape_hash(&p1, &c1), shape_hash(&p3, &c3));
    }

    #[test]
    fn pinned_addresses_get_singleton_classes() {
        let mut b = QueryBuilder::new();
        let x = b.variable("x", vec![Address(1), Address(2), Address(3)]);
        b.flow("f").from_addr(Address(1)).to_var(x).size(1e4);
        let p = b.resolve().unwrap();
        let classes = HostClasses::build(&p, |_| Some(0u8));
        // Address 1 is pinned by the fixed src endpoint: its class must
        // differ from the interchangeable pair {2, 3}.
        let c1 = classes.class_of(Address(1)).unwrap();
        let c2 = classes.class_of(Address(2)).unwrap();
        let c3 = classes.class_of(Address(3)).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(c2, c3);
        assert_eq!(classes.classes(), 2);
    }

    #[test]
    fn canon_key_tracks_equality_pattern() {
        let p = two_var_problem(vec![Address(1), Address(2)], vec![Address(1), Address(2)], 1e4);
        let classes = HostClasses::build(&p, |_| Some(0u8));
        let same = classes.key(&vec![Value::Addr(Address(1)), Value::Addr(Address(1))]);
        let diff = classes.key(&vec![Value::Addr(Address(1)), Value::Addr(Address(2))]);
        assert_ne!(same, diff, "(h, h) and (h, h') must not share a key");
        let diff2 = classes.key(&vec![Value::Addr(Address(2)), Value::Addr(Address(1))]);
        assert_eq!(diff, diff2, "isomorphic distinct pairs share a key");
    }
}
