//! What one walk over a problem yields, computed once per query.
//!
//! Every stage between admission and the answer needs some view of *which
//! hosts a problem touches*: shard routing wants the lowest in-fleet
//! address, the reservation mask wants every host's hold, the overlay and
//! the heuristic want every host's slot in the snapshot's world, and the
//! answer cache wants the problem's fingerprint and a shareable handle to
//! the problem itself. A [`Footprint`] is those views, each derived once
//! and read by every stage after.
//!
//! On the serving plane a footprint is *placed* ([`Footprint::placed`]):
//! one pass over the problem's mentions looks each up in the
//! `FleetLayout` (one hashed probe), deduplicates by the fleet slot with a
//! [`Stamps`] array instead of a sort, and notes the lowest in-fleet
//! address the plane routes by. Settling it on its home shard
//! ([`Footprint::settle`]) turns every fleet slot into the slot of the
//! shard's world by one array read. Off the plane (the single-server
//! front door gathers exactly the hosts a problem mentions) the
//! footprint's roster gives the gather order, and one sort ranks it into
//! the world's ascending order.

use std::sync::{Arc, OnceLock};

use cloudtalk_lang::problem::{Address, Endpoint, Problem, Value};

use crate::aggregate::FleetLayout;
use crate::canon::fingerprint_problem;
use crate::reservation::NO_SLOT;
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
    /// The hosts placed on a fleet, when the serving plane admitted it.
    placed: Option<Placed>,
    /// [`fingerprint_problem`], computed when the cache first asks.
    fingerprint: OnceLock<u64>,
}

/// A footprint's hosts placed on a fleet and settled on a shard's world.
/// Slots are [`NO_SLOT`] where a host has none.
#[derive(Debug, Default)]
struct Placed {
    /// Distinct mentioned hosts, in first-mention order.
    hosts: Vec<PlacedHost>,
    /// Per candidate of every pool that does not repeat the one before,
    /// its fleet slot, then (once settled) its world slot: the
    /// heuristic's candidate slots, in the order it lists them.
    cands: Vec<usize>,
    /// The lowest in-fleet address's rack.
    home_rack: Option<(Address, usize)>,
}

/// One distinct host of a placed footprint.
#[derive(Clone, Copy, Debug)]
struct PlacedHost {
    addr: Address,
    fleet: usize,
    /// Its slot in the home shard's world, once settled.
    world: usize,
}

/// Per fleet slot, the pass that last met it: a pass deduplicates fleet
/// hosts by one array read each and clears nothing between passes.
#[derive(Debug)]
pub(crate) struct Stamps {
    met: Vec<u32>,
    pass: u32,
}

impl Stamps {
    /// Stamps for `n` fleet slots.
    pub(crate) fn new(n: usize) -> Self {
        Stamps {
            met: vec![0; n],
            pass: 0,
        }
    }

    /// Starts a pass: no slot has been met in it.
    pub(crate) fn begin(&mut self) {
        self.pass = self.pass.wrapping_add(1);
        if self.pass == 0 {
            self.met.fill(0);
            self.pass = 1;
        }
    }

    /// Whether this pass meets `slot` for the first time; it has met it
    /// from now on.
    pub(crate) fn first_meeting(&mut self, slot: usize) -> bool {
        std::mem::replace(&mut self.met[slot], self.pass) != self.pass
    }
}

#[cfg(test)]
thread_local! {
    /// Rosters sorted on this thread: the one sort a footprint can cost.
    pub(crate) static ROSTER_SORTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
            placed: None,
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

    /// The addresses as a gather polls them.
    pub(crate) fn hosts(&self) -> &Roster {
        self.hosts.get_or_init(|| {
            #[cfg(test)]
            ROSTER_SORTS.with(|n| n.set(n.get() + 1));
            let (addrs, sorted, slots) = self.problem().mentioned_addresses_ranked();
            Roster {
                addrs,
                sorted,
                slots,
            }
        })
    }

    /// Calls `f` with every distinct host, its fleet slot and, where the
    /// footprint was settled on a shard, its slot in that shard's world
    /// (`None`: not known without a search). A placed footprint lists its
    /// hosts in first-mention order, any other in gather order.
    pub(crate) fn for_each_host(&self, mut f: impl FnMut(Address, usize, Option<usize>)) {
        match &self.placed {
            Some(p) => p
                .hosts
                .iter()
                .for_each(|h| f(h.addr, h.fleet, Some(h.world))),
            None => self.hosts().addrs.iter().for_each(|&a| f(a, NO_SLOT, None)),
        }
    }

    /// Each candidate's slot in the home shard's world, in the order the
    /// heuristic lists candidates, when the footprint was settled.
    pub(crate) fn candidate_slots(&self) -> Option<&[usize]> {
        self.placed.as_ref().map(|p| p.cands.as_slice())
    }

    /// The rack of the lowest mentioned in-fleet address, once placed.
    pub(crate) fn home_rack(&self) -> Option<usize> {
        self.placed.as_ref()?.home_rack.map(|(_, rack)| rack)
    }

    /// Settles a placed footprint on the shard whose hosts are the fleet
    /// slots `first..first + world_of.len()`, the `i`-th of them at world
    /// slot `world_of[i]`: every host and candidate outside it has no
    /// world slot.
    pub(crate) fn settle(&mut self, first: usize, world_of: &[u32]) {
        let Some(p) = &mut self.placed else { return };
        let to_world = |f: usize| match f.checked_sub(first).and_then(|i| world_of.get(i)) {
            Some(&w) => w as usize,
            None => NO_SLOT,
        };
        p.hosts.iter_mut().for_each(|h| h.world = to_world(h.fleet));
        p.cands.iter_mut().for_each(|c| *c = to_world(*c));
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

    /// The footprint of a problem the serving plane owns, its hosts
    /// placed on `layout` in one pass over the mentions: one hashed probe
    /// each, deduplicated by `stamps` (fleet hosts) or by a scan of the
    /// few outside it. Settle it before answering.
    pub(crate) fn placed(problem: Problem, layout: &FleetLayout, stamps: &mut Stamps) -> Self {
        let mut p = Placed::default();
        // Room for every flow's two ends, reserved with the first pool.
        let mut ends = 2 * problem.flows.len();
        stamps.begin();
        for (i, var) in problem.vars.iter().enumerate() {
            if problem.repeats_pool(i) {
                continue;
            }
            p.cands.reserve(var.candidates.len());
            p.hosts
                .reserve(var.candidates.len() + std::mem::take(&mut ends));
            for v in &var.candidates {
                let fleet = match *v {
                    Value::Addr(a) if a != Address::UNKNOWN => p.meet(a, layout, stamps),
                    _ => NO_SLOT,
                };
                p.cands.push(fleet);
            }
        }
        p.hosts.reserve(ends);
        for f in &problem.flows {
            for e in [f.src, f.dst] {
                if let Endpoint::Addr(a) = e {
                    if a != Address::UNKNOWN {
                        p.meet(a, layout, stamps);
                    }
                }
            }
        }
        let mut fp = Self::shared(problem);
        fp.placed = Some(p);
        fp
    }
}

impl Placed {
    /// Meets a mention of `a`: a host the first time, its fleet slot
    /// every time.
    fn meet(&mut self, a: Address, layout: &FleetLayout, stamps: &mut Stamps) -> usize {
        let Some((rack, fleet)) = layout.locate(a) else {
            if !self.hosts.iter().any(|h| h.fleet == NO_SLOT && h.addr == a) {
                self.hosts.push(PlacedHost {
                    addr: a,
                    fleet: NO_SLOT,
                    world: NO_SLOT,
                });
            }
            return NO_SLOT;
        };
        if stamps.first_meeting(fleet) {
            self.hosts.push(PlacedHost {
                addr: a,
                fleet,
                world: NO_SLOT,
            });
            if self.home_rack.is_none_or(|(low, _)| a < low) {
                self.home_rack = Some((a, rack));
            }
        }
        fleet
    }
}

/// The lowest address `p` mentions, by one scan that builds nothing.
pub(crate) fn lowest_address(p: &Problem) -> Option<Address> {
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
        assert_eq!(
            lowest_address(&p),
            Some(Address(4)),
            "before the roster is built"
        );
        assert_eq!(fp.hosts().addrs, p.mentioned_addresses());
        assert_eq!(fp.hosts().sorted, [4, 5, 6, 7, 9].map(Address));
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
            assert!(hosts.sorted.windows(2).all(|w| w[0] < w[1]));
            let mut want = hosts.addrs.to_vec();
            want.sort_unstable();
            assert_eq!(hosts.sorted, want);
            for (a, &slot) in hosts.addrs.iter().zip(&hosts.slots) {
                assert_eq!(hosts.sorted[slot as usize], *a);
            }
        }
    }

    #[test]
    fn a_placed_footprint_finds_each_host_once_and_sorts_nothing() {
        // Racks {4, 5} and {7, 9}; the writer 6 is outside the fleet and
        // mentioned by every flow, 9 twice in the pool.
        let layout = FleetLayout::grouped(vec![
            vec![Address(5), Address(4)],
            vec![Address(9), Address(7)],
        ]);
        let nodes: Vec<Address> = [9, 4, 7, 9, 5].map(Address).to_vec();
        let p = hdfs_write_query(Address(6), &nodes, 2, 1e6)
            .resolve()
            .unwrap();
        let want = p.mentioned_addresses();
        let sorts = ROSTER_SORTS.with(std::cell::Cell::get);
        let mut fp = Footprint::placed(p, &layout, &mut Stamps::new(4));
        assert_eq!(
            fp.home_rack(),
            Some(0),
            "the rack of 4, the lowest in the fleet"
        );
        // The second rack's world: 7 and 9 at world slots 0 and 1.
        fp.settle(2, &[0, 1]);
        let mut hosts = Vec::new();
        fp.for_each_host(|a, fleet, world| hosts.push((a, fleet, world)));
        let n = NO_SLOT;
        let at = |a, f, w| (Address(a), f, Some(w));
        assert_eq!(
            hosts,
            [
                at(9, 3, 1),
                at(4, 0, n),
                at(7, 2, 0),
                at(5, 1, n),
                at(6, n, n)
            ]
        );
        assert_eq!(hosts.iter().map(|h| h.0).collect::<Vec<_>>(), want);
        // Replica pools repeat the first: one list of five candidates.
        assert_eq!(fp.candidate_slots(), Some(&[1, n, 0, 1, n][..]));
        assert_eq!(
            ROSTER_SORTS.with(std::cell::Cell::get),
            sorts,
            "no roster was sorted"
        );
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
