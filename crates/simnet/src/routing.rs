//! Route computation: BFS shortest paths with deterministic ECMP.
//!
//! Routes are computed lazily per `(src, dst, ECMP bucket)` and cached. When
//! several shortest paths exist (VL2 core), one is picked by hashing a
//! caller-supplied flow discriminator, mirroring per-flow ECMP hashing.
//! The BFS behind a route depends on the destination alone — in fact on the
//! switch the destination hangs off, one hop short of it — so its result,
//! every node's hop distance to that switch, is cached too, and a route that
//! misses the cache is a walk down an existing field.

use std::collections::HashMap;

use crate::topology::{HostId, LinkDir, LinkId, NodeId, Topology};

/// A directed hop along a route.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Hop {
    /// The link traversed.
    pub link: LinkId,
    /// Which direction of the link.
    pub dir: LinkDir,
}

/// Route cache; the topology is passed per call so the cache can live
/// inside owning structures without self-referential lifetimes.
#[derive(Default)]
pub struct Router {
    cache: HashMap<(NodeId, NodeId, u64), Vec<Hop>>,
    /// Hop distance of every node to each anchor routed towards so far. A
    /// destination with a single link is, for every other node, one hop
    /// beyond its neighbour: all hosts of a switch share the switch's
    /// field, so the cache holds one field per switch with hosts, not one
    /// per host.
    fields: HashMap<NodeId, Vec<Dist>>,
}

impl Router {
    /// Creates an empty route cache.
    pub fn new() -> Self {
        Router::default()
    }

    /// Returns the hops from `src` to `dst` over `topo`, choosing
    /// deterministically among equal-cost shortest paths using `flow_hash`.
    ///
    /// Returns an empty route when `src == dst` (loopback).
    pub fn route(&mut self, topo: &Topology, src: HostId, dst: HostId, flow_hash: u64) -> Vec<Hop> {
        self.route_ref(topo, src, dst, flow_hash).to_vec()
    }

    /// Borrowing form of [`Router::route`]: returns the cached hop slice
    /// without cloning, computing and caching the path on first use. This
    /// is the engine's hot path — a cache hit performs no allocation.
    pub fn route_ref(&mut self, topo: &Topology, src: HostId, dst: HostId, flow_hash: u64) -> &[Hop] {
        let s = topo.host(src).node;
        let d = topo.host(dst).node;
        if s == d {
            return &[];
        }
        let bucket = flow_hash % ECMP_BUCKETS;
        let fields = &mut self.fields;
        self.cache.entry((s, d, bucket)).or_insert_with(|| {
            let anchor = match topo.neighbours(d) {
                [(only, _)] => *only,
                _ => d,
            };
            let field = fields
                .entry(anchor)
                .or_insert_with(|| distance_field(topo, anchor));
            walk(topo, field, anchor, s, d, bucket)
        })
    }

    /// Number of hops on the (any) shortest path between two hosts —
    /// what `traceroute` would report (§3.1 probing).
    pub fn hop_count(&mut self, topo: &Topology, src: HostId, dst: HostId) -> usize {
        self.route(topo, src, dst, 0).len()
    }
}

const ECMP_BUCKETS: u64 = 64;

/// A hop distance. Every routed-to destination keeps one per node, so it
/// is as narrow as a datacenter's diameter allows.
type Dist = u16;
const UNREACHED: Dist = Dist::MAX;

/// Hop distance of every node to `anchor`, by BFS from it so that a walk
/// towards smaller distances moves forward.
fn distance_field(topo: &Topology, anchor: NodeId) -> Vec<Dist> {
    let mut dist = vec![UNREACHED; topo.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[anchor.0] = 0;
    queue.push_back(anchor);
    while let Some(node) = queue.pop_front() {
        for &(peer, _) in topo.neighbours(node) {
            if dist[peer.0] == UNREACHED {
                dist[peer.0] = dist[node.0] + 1;
                assert_ne!(dist[peer.0], UNREACHED, "topology diameter overflows");
                queue.push_back(peer);
            }
        }
    }
    dist
}

/// Walks from `src` to `dst` down `field`, the distance field of `anchor`
/// — `dst` itself, or the only neighbour it can be reached through — at
/// each step choosing among neighbours one hop closer to `dst`; ties broken
/// by a deterministic hash of `(tie_break, node)` so different flows spread
/// over the ECMP fan.
fn walk(
    topo: &Topology,
    field: &[Dist],
    anchor: NodeId,
    src: NodeId,
    dst: NodeId,
    tie_break: u64,
) -> Vec<Hop> {
    assert_ne!(field[src.0], UNREACHED, "topology is disconnected");
    let beyond = u32::from(anchor != dst);
    let dist = |n: NodeId| if n == dst { 0 } else { u32::from(field[n.0]) + beyond };
    let mut hops = Vec::with_capacity(dist(src) as usize);
    let mut node = src;
    while node != dst {
        let next = topo
            .neighbours(node)
            .iter()
            .filter(|(peer, _)| dist(*peer) + 1 == dist(node))
            .min_by_key(|(peer, link)| mix(tie_break, peer.0 as u64, link.0 as u64))
            .copied()
            .expect("BFS guarantees a next hop");
        let (peer, link) = next;
        let l = topo.link(link);
        let dir = if l.a == node {
            LinkDir::Forward
        } else {
            LinkDir::Backward
        };
        hops.push(Hop { link, dir });
        node = peer;
    }
    hops
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    desim::rng::derive_seed(a.wrapping_mul(0x9E37).wrapping_add(b), c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoOptions;
    use crate::Topology;

    #[test]
    fn single_switch_routes_are_two_hops() {
        let t = Topology::single_switch(4, crate::GBPS, TopoOptions::default());
        let mut r = Router::new();
        let hops = r.route(&t, HostId(0), HostId(3), 0);
        assert_eq!(hops.len(), 2);
        // First hop leaves host 0 over its access link.
        assert_eq!(hops[0].link, t.host(HostId(0)).access_link);
        assert_eq!(hops[1].link, t.host(HostId(3)).access_link);
    }

    #[test]
    fn loopback_is_empty() {
        let t = Topology::single_switch(2, crate::GBPS, TopoOptions::default());
        let mut r = Router::new();
        assert!(r.route(&t, HostId(1), HostId(1), 7).is_empty());
    }

    #[test]
    fn two_tier_intra_vs_inter_rack_hops() {
        let t = Topology::two_tier(2, 3, crate::GBPS, crate::GBPS, TopoOptions::default());
        let mut r = Router::new();
        // Same rack: host -> ToR -> host = 2 hops.
        assert_eq!(r.hop_count(&t, HostId(0), HostId(1)), 2);
        // Cross rack: host -> ToR -> core -> ToR -> host = 4 hops.
        assert_eq!(r.hop_count(&t, HostId(0), HostId(4)), 4);
    }

    #[test]
    fn routes_are_deterministic() {
        let t = Topology::vl2(4, 4, crate::GBPS, TopoOptions::default());
        let mut r1 = Router::new();
        let mut r2 = Router::new();
        for flow in 0..16u64 {
            assert_eq!(
                r1.route(&t, HostId(0), HostId(15), flow),
                r2.route(&t, HostId(0), HostId(15), flow)
            );
        }
    }

    #[test]
    fn ecmp_spreads_across_core() {
        // vl2(8, 2) has 4 aggregation switches; rack 0 uplinks to agg {0,1}
        // and rack 2 to agg {2,3}, so every path crosses the intermediate
        // layer and several equal-cost choices exist.
        let t = Topology::vl2(8, 2, crate::GBPS, TopoOptions::default());
        let mut r = Router::new();
        let mut distinct = std::collections::HashSet::new();
        for flow in 0..64u64 {
            distinct.insert(r.route(&t, HostId(0), HostId(4), flow));
        }
        assert!(
            distinct.len() > 1,
            "ECMP should use more than one core path"
        );
    }

    /// The cached, switch-anchored distance fields change where a route
    /// comes from, never the route: every host pair on every ECMP bucket
    /// equals a fresh BFS from the destination itself and a walk down it.
    #[test]
    fn cached_fields_route_like_a_fresh_bfs() {
        for t in [
            Topology::vl2(8, 2, crate::GBPS, TopoOptions::default()),
            Topology::two_tier(4, 3, crate::GBPS, crate::GBPS, TopoOptions::default()),
        ] {
            let mut r = Router::new();
            for a in t.host_ids() {
                for b in t.host_ids() {
                    for bucket in 0..ECMP_BUCKETS {
                        let (s, d) = (t.host(a).node, t.host(b).node);
                        let fresh = if a == b {
                            Vec::new()
                        } else {
                            walk(&t, &distance_field(&t, d), d, s, d, bucket)
                        };
                        assert_eq!(r.route_ref(&t, a, b, bucket), &fresh[..], "{a:?}->{b:?} #{bucket}");
                    }
                }
            }
        }
    }

    #[test]
    fn route_endpoints_touch_access_links() {
        let t = Topology::vl2(4, 4, crate::GBPS, TopoOptions::default());
        let mut r = Router::new();
        for (a, b) in [(0, 5), (3, 12), (7, 8)] {
            let hops = r.route(&t, HostId(a), HostId(b), 1);
            assert_eq!(hops.first().unwrap().link, t.host(HostId(a)).access_link);
            assert_eq!(hops.last().unwrap().link, t.host(HostId(b)).access_link);
        }
    }
}
