//! What one walk over a problem yields, computed once per query.
//!
//! Every stage between admission and the answer needs some view of *which
//! hosts a problem touches*: shard routing wants the lowest in-fleet
//! address, the gather wants every address in a stable order, the
//! reservation mask and the stale-host list want them sorted, and the
//! answer cache wants the problem's fingerprint and a shareable handle to
//! the problem itself. A [`Footprint`] is those views, derived once — at
//! admission for the submitted problem, once more only when §4.3 sampling
//! produces a new working problem — and read by every stage after.

use std::sync::{Arc, OnceLock};

use cloudtalk_lang::problem::{Address, Problem};

use crate::canon::fingerprint_problem;

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
    /// Distinct mentioned addresses in first-mention order. Load-bearing:
    /// this is gather order, and the transport draws its loss randomness
    /// in gather order.
    addrs: Vec<Address>,
    /// The same addresses, ascending.
    sorted: Vec<Address>,
    /// [`fingerprint_problem`], computed when the cache first asks.
    fingerprint: OnceLock<u64>,
}

impl<'a> Footprint<'a> {
    /// The footprint of a problem the caller keeps.
    pub(crate) fn borrowed(problem: &'a Problem) -> Self {
        Self::of(Held::Borrowed(problem))
    }

    fn of(problem: Held<'a>) -> Self {
        let (addrs, sorted) = problem.get().mentioned_addresses_and_sorted();
        Footprint {
            problem,
            addrs,
            sorted,
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

    /// Distinct mentioned addresses, in first-mention (gather) order.
    pub(crate) fn addrs(&self) -> &[Address] {
        &self.addrs
    }

    /// Distinct mentioned addresses, ascending.
    pub(crate) fn sorted(&self) -> &[Address] {
        &self.sorted
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
        assert_eq!(fp.addrs(), p.mentioned_addresses());
        assert_eq!(fp.sorted(), [4, 5, 6, 7, 9].map(Address));
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
            assert!(fp.addrs().len() > 32, "the sorting path, not the scan");
            assert!(fp.sorted().windows(2).all(|w| w[0] < w[1]));
            let mut want = fp.addrs().to_vec();
            want.sort_unstable();
            assert_eq!(fp.sorted(), want);
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
