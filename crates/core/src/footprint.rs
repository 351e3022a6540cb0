//! What one walk over a problem yields, computed once per query.
//!
//! Every stage between admission and the answer needs some view of *which
//! hosts a problem touches*: shard routing wants the lowest in-fleet
//! address, the gather wants every address in a stable order, the
//! reservation mask and the stale-host list want them sorted, and the
//! answer cache wants the problem's fingerprint and a shareable handle to
//! the problem itself. A [`Footprint`] is those views, each derived on its
//! first use and read by every stage after: a problem that §4.3 sampling
//! will replace is routed by one scan for its lowest address
//! ([`Footprint::lowest`]) and never builds the roster its sampled problem
//! brings. The gather order and the ascending order come from one sort,
//! which also gives each address its slot in the snapshot's world.

use std::sync::{Arc, OnceLock};

use cloudtalk_lang::problem::{Address, Endpoint, Problem, Value};

use crate::canon::fingerprint_problem;
use crate::server::Roster;

/// How the front end holds the problem: the serving plane owns it and
/// shares the `Arc` with cache entries; the single-server front door
/// borrows its caller's.
#[derive(Debug)]
enum Held<'a> {
    Shared(Arc<Problem>),
    Borrowed(&'a Problem),
}

impl Held<'_> {
    fn get(&self) -> &Problem {
        match self {
            Held::Shared(p) => p,
            Held::Borrowed(p) => p,
        }
    }
}

/// A problem together with its address footprint and (on first use) its
/// fingerprint.
#[derive(Debug)]
pub(crate) struct Footprint<'a> {
    problem: Held<'a>,
    /// Distinct mentioned addresses in first-mention order — load-bearing:
    /// this is gather order, and the transport draws its loss randomness
    /// in gather order — with the same addresses ascending and each one's
    /// slot there; built on first use.
    hosts: OnceLock<Roster>,
    /// [`fingerprint_problem`], computed when the cache first asks.
    fingerprint: OnceLock<u64>,
}

impl<'a> Footprint<'a> {
    /// The footprint of a problem the caller keeps.
    pub(crate) fn borrowed(problem: &'a Problem) -> Self {
        Self::of(Held::Borrowed(problem))
    }

    fn of(problem: Held<'a>) -> Self {
        Footprint {
            problem,
            hosts: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The problem.
    pub(crate) fn problem(&self) -> &Problem {
        self.problem.get()
    }

    /// A shareable handle to the problem: a reference-count bump when the
    /// front end owns it, the one deep clone when it was borrowed.
    pub(crate) fn share(&self) -> Arc<Problem> {
        match &self.problem {
            Held::Shared(p) => Arc::clone(p),
            Held::Borrowed(p) => Arc::new((*p).clone()),
        }
    }

    /// Distinct mentioned addresses, ascending.
    pub(crate) fn sorted(&self) -> &[Address] {
        &self.hosts().sorted
    }

    /// The addresses as a gather polls them.
    pub(crate) fn hosts(&self) -> &Roster {
        self.hosts.get_or_init(|| {
            let (addrs, sorted, slots) = self.problem().mentioned_addresses_ranked();
            Roster {
                addrs,
                sorted,
                slots,
            }
        })
    }

    /// The lowest mentioned address (`sorted()[0]`), by one scan of the
    /// problem that builds nothing.
    pub(crate) fn lowest(&self) -> Option<Address> {
        let p = self.problem();
        let pools = (0..p.vars.len()).filter(|&i| !p.repeats_pool(i));
        let values = pools.flat_map(|i| &p.vars[i].candidates).map(|v| match v {
            Value::Addr(a) => *a,
            Value::Disk => Address::UNKNOWN,
        });
        let ends = p.flows.iter().flat_map(|f| [f.src, f.dst]);
        let ends = ends.map(|e| match e {
            Endpoint::Addr(a) => a,
            _ => Address::UNKNOWN,
        });
        values.chain(ends).filter(|&a| a != Address::UNKNOWN).min()
    }

    /// The problem's exact fingerprint, hashed on the first call only.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| fingerprint_problem(self.problem()))
    }
}

impl Footprint<'static> {
    /// The footprint of a problem the front end owns.
    pub(crate) fn shared(problem: Problem) -> Self {
        Self::of(Held::Shared(Arc::new(problem)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::hdfs_write_query;

    #[test]
    fn views_agree_with_the_problem() {
        let nodes: Vec<Address> = [9, 4, 7, 5].map(Address).to_vec();
        let p = hdfs_write_query(Address(6), &nodes, 2, 1e6)
            .resolve()
            .unwrap();
        let fp = Footprint::borrowed(&p);
        assert_eq!(fp.lowest(), Some(Address(4)), "before the roster is built");
        assert_eq!(fp.hosts().addrs, p.mentioned_addresses());
        assert_eq!(fp.sorted(), [4, 5, 6, 7, 9].map(Address));
        assert_eq!(fp.hosts().slots, [4, 0, 3, 1, 2]);
        assert_eq!(fp.fingerprint(), fingerprint_problem(&p));
        assert_eq!(*fp.share(), p);
    }

    #[test]
    fn a_sampled_write_sorts_its_footprint_ascending_without_repeats() {
        use crate::sampling::sample_candidates;
        use desim::rng::stream_rng;
        // Scattered, not ascending, and the writer is also in the pool.
        let nodes: Vec<Address> = (0..300u32).map(|i| Address(1 + (i * 7919) % 997)).collect();
        let p = hdfs_write_query(nodes[150], &nodes, 3, 1e6)
            .resolve()
            .unwrap();
        let sampled = sample_candidates(&p, 100, &mut stream_rng(7, 0x5A));
        for problem in [p, sampled] {
            let fp = Footprint::shared(problem);
            let hosts = fp.hosts();
            assert!(hosts.addrs.len() > 32, "the sorting path, not the scan");
            assert!(fp.sorted().windows(2).all(|w| w[0] < w[1]));
            let mut want = hosts.addrs.to_vec();
            want.sort_unstable();
            assert_eq!(fp.sorted(), want);
            for (a, &slot) in hosts.addrs.iter().zip(&hosts.slots) {
                assert_eq!(hosts.sorted[slot as usize], *a);
            }
        }
    }

    #[test]
    fn an_owned_problem_is_shared_not_cloned() {
        let p = hdfs_write_query(Address(1), &[Address(2), Address(3)], 1, 1e6)
            .resolve()
            .unwrap();
        let fp = Footprint::shared(p);
        assert!(std::ptr::eq(&*fp.share(), fp.problem()));
    }
}
