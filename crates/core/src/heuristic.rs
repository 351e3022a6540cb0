//! The scalable query evaluation heuristic (paper §4.2, Listing 1).
//!
//! "One heuristic that works very well in practice is to simply pick the
//! n-best servers for each query … The algorithm examines the type of
//! operation each variable is involved in … and picks the server whose
//! I/O availability is best suited for that scenario."
//!
//! Shape of the algorithm:
//!
//! 1. Build per-variable `to`/`from` endpoint sets from the flows, then
//!    network-only `tx`/`rx` (disk endpoints removed).
//! 2. Variables that communicate with exactly one endpoint which is also
//!    one of their candidate values are bound *first* (the priority rule of
//!    Listing 1 lines 8–9: binding `Z` to `a` makes `f2` run locally and
//!    free network resources).
//! 3. Each candidate value is scored by the *least* fit resource dimension
//!    it would use (`min(netRx, netTx, diskRead, diskWrite)`); a dimension
//!    the variable does not exercise contributes [`MAX_SCORE`].
//! 4. Same-pool variables are bound to distinct values (the default;
//!    pools are reused round-robin when exhausted, so reduce placement
//!    with more tasks than nodes still assigns everyone work).
//!
//! Running time: expected `O(max(m, n·p))` for `m` flows, `n` variables,
//! and at most `p` candidates per variable. The flows are walked once,
//! into per-variable profiles (peers deduplicated through one hash map);
//! after that a candidate is scored from its variable's profile and one
//! status lookup, and checked against its pool's taken set, in constant
//! expected time. A [`HeuristicScratch`] kept across calls makes a warmed
//! evaluation allocate only the binding and the scores it returns.

use cloudtalk_lang::problem::{Address, Binding, Endpoint, Problem, Value, VarId};
use cloudtalk_lang::{WordMap, WordSet};
use estimator::World;

use crate::score::{self, MAX_SCORE};

/// Tuning knobs for the heuristic.
#[derive(Clone, Copy, Debug)]
pub struct HeuristicConfig {
    /// The capacity-vs-contention weight `W` (paper default 2).
    pub weight: f64,
    /// Disable the priority pass (ablation; always on in the paper).
    pub priority_binding: bool,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            weight: score::DEFAULT_WEIGHT,
            priority_binding: true,
        }
    }
}

/// Per-variable communication profile derived from the flows.
#[derive(Clone, Debug, Default)]
struct VarProfile {
    /// Fixed network peers this variable transmits to, in first-flow order.
    tx_peers: Vec<Address>,
    /// Fixed network peers this variable receives from, in first-flow order.
    rx_peers: Vec<Address>,
    /// Whether the variable transmits to anything over the network
    /// (including other variables / unknown).
    any_tx: bool,
    /// Whether the variable receives anything over the network.
    any_rx: bool,
    /// Whether the variable reads its local disk (`disk -> v` flows).
    reads_disk: bool,
    /// Whether the variable writes its local disk (`v -> disk` flows).
    writes_disk: bool,
    /// Total number of distinct network peer endpoints (fixed or not).
    peer_endpoints: usize,
}

impl VarProfile {
    /// Back to the no-flows profile, keeping the peer lists' storage.
    fn reset(&mut self) {
        self.tx_peers.clear();
        self.rx_peers.clear();
        self.any_tx = false;
        self.any_rx = false;
        self.reads_disk = false;
        self.writes_disk = false;
        self.peer_endpoints = 0;
    }
}

/// Direction bits recorded per `(variable, peer)` while profiling.
const TX: u8 = 1;
const RX: u8 = 2;

/// Reusable per-evaluation state: the variables' profiles, the peer
/// dedup table, the binding order and the per-pool taken sets. Holding
/// one across [`evaluate_query_scored_in`] calls — every `EvalCore` does —
/// makes a warmed evaluation allocate nothing but its result (pinned by
/// `tests/heuristic_alloc.rs`).
#[derive(Debug, Default)]
pub struct HeuristicScratch {
    profiles: Vec<VarProfile>,
    /// Which directions each `(variable, network peer)` pair was seen in.
    peers: WordMap<(usize, Endpoint), u8>,
    /// Binding order: priority variables first, then declaration order.
    order: Vec<usize>,
    /// Whether a variable went into `order` with the priority ones.
    prioritised: Vec<bool>,
    /// Values already taken, per pool (distinct-by-default semantics).
    taken: Vec<WordSet<Value>>,
}

impl HeuristicScratch {
    /// An empty scratch; buffers grow on first use and are kept.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Evaluates a query: binds every variable, minimising expected completion
/// time per the Listing 1 heuristic. Always returns a complete binding.
pub fn evaluate_query(problem: &Problem, world: &World, cfg: &HeuristicConfig) -> Binding {
    evaluate_query_scored(problem, world, cfg).0
}

/// Like [`evaluate_query`], also returning each bound value's fitness
/// score (the `min` over its exercised resource dimensions). Clients use
/// the scores to judge *how good* a recommendation is — e.g. the paper's
/// reduce scheduler evaluates the asking node's fitness from the reply.
pub fn evaluate_query_scored(
    problem: &Problem,
    world: &World,
    cfg: &HeuristicConfig,
) -> (Binding, Vec<f64>) {
    evaluate_query_scored_in(problem, world, cfg, &mut HeuristicScratch::new())
}

/// [`evaluate_query_scored`] over caller-held scratch.
pub fn evaluate_query_scored_in(
    problem: &Problem,
    world: &World,
    cfg: &HeuristicConfig,
    scratch: &mut HeuristicScratch,
) -> (Binding, Vec<f64>) {
    let mut binding = Binding::new();
    let mut scores = Vec::new();
    evaluate_query_scored_into(problem, world, cfg, scratch, &mut binding, &mut scores);
    (binding, scores)
}

/// [`evaluate_query_scored_in`] writing the binding and its scores into
/// caller-held buffers (overwritten), so a warmed evaluation allocates
/// nothing at all — the exhaustive search scores its seed incumbent this
/// way.
pub(crate) fn evaluate_query_scored_into(
    problem: &Problem,
    world: &World,
    cfg: &HeuristicConfig,
    scratch: &mut HeuristicScratch,
    binding: &mut Binding,
    scores: &mut Vec<f64>,
) {
    let n = problem.vars.len();
    build_profiles(problem, scratch);
    let HeuristicScratch {
        profiles,
        order,
        prioritised,
        taken,
        ..
    } = scratch;

    // Priority: variables whose single network peer is in their pool.
    order.clear();
    prioritised.clear();
    prioritised.resize(n, false);
    if cfg.priority_binding {
        for (i, p) in profiles.iter().enumerate() {
            if is_priority(problem, VarId(i), p) {
                prioritised[i] = true;
                order.push(i);
            }
        }
    }
    order.extend((0..n).filter(|&i| !prioritised[i]));

    let pools = problem.vars.iter().map(|v| v.pool).max().map_or(0, |m| m + 1);
    taken.resize_with(pools, WordSet::default);
    taken.iter_mut().for_each(WordSet::clear);

    // Every slot is overwritten below: `order` holds each variable once.
    binding.clear();
    binding.resize(n, Value::Disk);
    scores.clear();
    scores.resize(n, 0.0);
    for &vi in order.iter() {
        let var = &problem.vars[vi];
        let profile = &profiles[vi];
        let pool_taken = &mut taken[var.pool];
        // Scored at most once per variable, whatever the pool repeats.
        let mut disk_score: Option<f64> = None;
        let mut best: Option<(f64, Value)> = None;
        let mut consider = |value: Value| {
            let s = match value {
                Value::Addr(addr) => score_addr(addr, profile, world, cfg),
                Value::Disk => *disk_score.get_or_insert_with(|| score_disk(profile, world)),
            };
            // Strict `>` keeps the earliest candidate on ties (deterministic).
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, value));
            }
        };
        let exclude = problem.distinct && !pool_taken.is_empty();
        let mut available = false;
        for &value in &var.candidates {
            if !(exclude && pool_taken.contains(&value)) {
                available = true;
                consider(value);
            }
        }
        if !available {
            // Pool exhausted: reuse values (everyone gets work). A pool
            // that is empty outright has no values to reuse — the server
            // rejects such problems with `ServerError::EmptyCandidates`
            // before evaluation; direct callers must do the same.
            var.candidates.iter().for_each(|&value| consider(value));
        }
        let (score, value) = best.expect("candidate pools are never empty");
        binding[vi] = value;
        scores[vi] = score;
        if problem.distinct {
            pool_taken.insert(value);
        }
    }
}

/// Scores binding a variable to the server `addr`: the least-fit resource
/// dimension it would exercise there.
fn score_addr(addr: Address, profile: &VarProfile, world: &World, cfg: &HeuristicConfig) -> f64 {
    let state = world.get(addr);
    let w = cfg.weight;
    // Listing 1 lines 8–9 / 27: a variable that exchanges data with exactly
    // one network endpoint, the candidate itself, uses no network there.
    let only_peer_is =
        |direction_peers: &[Address]| profile.peer_endpoints == 1 && direction_peers == [addr];
    let net_rx = if !profile.any_rx || only_peer_is(&profile.rx_peers) {
        MAX_SCORE
    } else {
        score::eval_rx(&state, w)
    };
    let net_tx = if !profile.any_tx || only_peer_is(&profile.tx_peers) {
        MAX_SCORE
    } else {
        score::eval_tx(&state, w)
    };
    let disk_read = if profile.reads_disk {
        score::eval_disk_read(&state, w)
    } else {
        MAX_SCORE
    };
    let disk_write = if profile.writes_disk {
        score::eval_disk_write(&state, w)
    } else {
        MAX_SCORE
    };
    net_rx.min(net_tx).min(disk_read).min(disk_write)
}

/// Scores binding a variable to "disk": its network flows become
/// local-disk accesses at the fixed peer, so the score is the peer's disk
/// fitness (worst relevant dimension). Disk-vs-address comparisons cross
/// resource types, where the W·capacity term would let a
/// large-but-saturated disk outrank an idle NIC, so this one comparison
/// uses residual capacity (W = 1).
fn score_disk(profile: &VarProfile, world: &World) -> f64 {
    if profile.tx_peers.is_empty() && profile.rx_peers.is_empty() {
        // No fixed peer to attribute the disk to: assume overloaded.
        return 0.0;
    }
    let w = 1.0;
    let mut s = MAX_SCORE;
    for &peer in &profile.tx_peers {
        // v -> peer with v = disk: peer reads its local disk.
        s = s.min(score::eval_disk_read(&world.get(peer), w));
    }
    for &peer in &profile.rx_peers {
        // peer -> v with v = disk: peer writes its local disk.
        s = s.min(score::eval_disk_write(&world.get(peer), w));
    }
    s
}

fn is_priority(problem: &Problem, var: VarId, profile: &VarProfile) -> bool {
    if profile.peer_endpoints != 1 {
        return false;
    }
    let in_pool = |addr: Address| {
        problem.vars[var.0]
            .candidates
            .contains(&Value::Addr(addr))
    };
    let rx_ok = profile.rx_peers.len() == 1 && in_pool(profile.rx_peers[0]);
    let tx_ok = profile.tx_peers.len() == 1 && in_pool(profile.tx_peers[0]);
    rx_ok || tx_ok
}

/// One walk over the flows fills `scratch.profiles`.
fn build_profiles(problem: &Problem, scratch: &mut HeuristicScratch) {
    let HeuristicScratch {
        profiles, peers, ..
    } = scratch;
    profiles.truncate(problem.vars.len());
    profiles.iter_mut().for_each(VarProfile::reset);
    profiles.resize_with(problem.vars.len(), VarProfile::default);
    peers.clear();

    // Records that `var` talks to `other` in direction `dir`.
    let mut note = |var: VarId, other: Endpoint, dir: u8| {
        let p = &mut profiles[var.0];
        if other == Endpoint::Disk {
            if dir == TX {
                p.writes_disk = true;
            } else {
                p.reads_disk = true;
            }
            return;
        }
        if dir == TX {
            p.any_tx = true;
        } else {
            p.any_rx = true;
        }
        let seen = peers.entry((var.0, other)).or_insert_with(|| {
            p.peer_endpoints += 1;
            0
        });
        if *seen & dir == 0 {
            *seen |= dir;
            if let Endpoint::Addr(a) = other {
                if dir == TX {
                    p.tx_peers.push(a);
                } else {
                    p.rx_peers.push(a);
                }
            }
        }
    };
    for flow in &problem.flows {
        if let Endpoint::Var(v) = flow.src {
            note(v, flow.dst, TX);
        }
        if let Endpoint::Var(v) = flow.dst {
            note(v, flow.src, RX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::{
        hdfs_read_query, hdfs_write_query, reduce_placement_query, QueryBuilder,
    };
    use cloudtalk_lang::units::sizes::MB;
    use estimator::HostState;

    fn world_with(loads: &[(u32, f64)]) -> World {
        // Hosts 1..=16 idle gigabit, with per-addr up+down loads applied.
        let addrs: Vec<Address> = (1..=16).map(Address).collect();
        let mut w = World::uniform(&addrs, HostState::gbps_idle());
        for &(a, frac) in loads {
            w.set(
                Address(a),
                HostState::gbps_idle().with_up_load(frac).with_down_load(frac),
            );
        }
        w
    }

    #[test]
    fn read_query_avoids_busy_replica() {
        let p = hdfs_read_query(Address(1), &[Address(2), Address(3), Address(4)], 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world_with(&[(2, 0.9), (4, 0.5)]);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        assert_eq!(b, vec![Value::Addr(Address(3))]);
    }

    #[test]
    fn write_query_binds_distinct_idle_replicas() {
        let nodes: Vec<Address> = (2..10).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 3, 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world_with(&[(2, 0.95), (3, 0.95), (4, 0.95)]);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        let set: std::collections::HashSet<&Value> = b.iter().collect();
        assert_eq!(set.len(), 3, "replicas must be distinct: {b:?}");
        for v in &b {
            assert!(
                !matches!(v, Value::Addr(Address(a)) if (2..=4).contains(a)),
                "busy nodes must be avoided: {b:?}"
            );
        }
    }

    #[test]
    fn paper_priority_example_binds_z_to_a() {
        // X = Y = Z = (a b c); f1: X -> Y; f2: Z -> a.
        // Z must be bound to `a` so f2 runs locally.
        let a = Address(1);
        let bb = Address(2);
        let c = Address(3);
        let mut q = QueryBuilder::new();
        let vars = q.variable_group(
            ["X".into(), "Y".into(), "Z".into()],
            [a, bb, c],
        );
        q.flow("f1").from_var(vars[0]).to_var(vars[1]).size(100.0 * MB);
        q.flow("f2").from_var(vars[2]).to_addr(a).size(100.0 * MB);
        let p = q.resolve().unwrap();
        let w = world_with(&[]);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        assert_eq!(b[2], Value::Addr(a), "Z must take the local binding: {b:?}");
        // X and Y take the remaining two distinct servers.
        assert_ne!(b[0], b[1]);
        assert_ne!(b[0], b[2]);
    }

    #[test]
    fn priority_disabled_can_miss_local_binding() {
        // Same scenario with the ablation knob off and `a` listed last:
        // X (bound first) may grab a value Z needed. We only assert the
        // knob changes evaluation order, not that results are worse.
        let a = Address(1);
        let mut q = QueryBuilder::new();
        let vars = q.variable_group(
            ["X".into(), "Y".into(), "Z".into()],
            [a, Address(2), Address(3)],
        );
        q.flow("f1").from_var(vars[0]).to_var(vars[1]).size(100.0 * MB);
        q.flow("f2").from_var(vars[2]).to_addr(a).size(100.0 * MB);
        let p = q.resolve().unwrap();
        let w = world_with(&[]);
        let cfg = HeuristicConfig {
            priority_binding: false,
            ..Default::default()
        };
        let b = evaluate_query(&p, &w, &cfg);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn reduce_query_prefers_unloaded_receivers() {
        let nodes: Vec<Address> = (1..=10).map(Address).collect();
        let p = reduce_placement_query(&nodes, 3, 1e9).resolve().unwrap();
        // Nodes 1-5 receive heavy UDP traffic.
        let w = world_with(&[(1, 0.9), (2, 0.9), (3, 0.9), (4, 0.9), (5, 0.9)]);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        for v in &b {
            assert!(
                matches!(v, Value::Addr(Address(a)) if *a > 5),
                "reducers must land on unloaded nodes: {b:?}"
            );
        }
    }

    #[test]
    fn pool_exhaustion_reuses_values() {
        // 4 reducers, 2 nodes: everyone still gets an assignment.
        let nodes = [Address(1), Address(2)];
        let p = reduce_placement_query(&nodes, 4, 1e9).resolve().unwrap();
        let w = world_with(&[]);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        assert_eq!(b.len(), 4);
        let distinct: std::collections::HashSet<&Value> = b.iter().collect();
        assert_eq!(distinct.len(), 2, "both nodes used");
    }

    #[test]
    fn disk_candidate_scored_by_peer_disk() {
        // X = (disk 10.0.0.2); f X -> 10.0.0.1: reading locally at .1
        // competes with reading over the network from .2.
        let mut q = QueryBuilder::new();
        let reader = Address(1);
        let x = q.variable("X", [Address(2)]);
        q.flow("f1").from_var(x).to_addr(reader).size(256.0 * MB);
        let mut p = q.resolve().unwrap();
        // Manually extend the pool with Disk (builder pools are addresses).
        p.vars[0].candidates.push(Value::Disk);

        // Case 1: remote idle, local disk trashed → pick remote.
        let mut w = world_with(&[]);
        let mut busy_disk = HostState::gbps_idle();
        busy_disk.disk_read_used = busy_disk.disk_read_capacity;
        w.set(reader, busy_disk);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        assert_eq!(b[0], Value::Addr(Address(2)));

        // Case 2: remote fully busy, local disk idle → pick disk.
        let w2 = world_with(&[(2, 1.0)]);
        let b2 = evaluate_query(&p, &w2, &HeuristicConfig::default());
        assert_eq!(b2[0], Value::Disk);
    }

    #[test]
    fn unanswered_hosts_are_avoided() {
        let p = hdfs_read_query(Address(1), &[Address(2), Address(3)], 256.0 * MB)
            .resolve()
            .unwrap();
        // Only 3 answered; 2 is missing → assumed overloaded.
        let mut w = World::new();
        w.set(Address(1), HostState::gbps_idle());
        w.set(Address(3), HostState::gbps_idle());
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        assert_eq!(b, vec![Value::Addr(Address(3))]);
    }

    #[test]
    fn deterministic_tie_break_prefers_pool_order() {
        let p = hdfs_read_query(Address(1), &[Address(5), Address(6)], 256.0 * MB)
            .resolve()
            .unwrap();
        let w = world_with(&[]);
        let b = evaluate_query(&p, &w, &HeuristicConfig::default());
        assert_eq!(b, vec![Value::Addr(Address(5))]);
    }

    #[test]
    fn empty_problem_yields_empty_binding() {
        let p = Problem::default();
        let w = World::new();
        assert!(evaluate_query(&p, &w, &HeuristicConfig::default()).is_empty());
    }
}
