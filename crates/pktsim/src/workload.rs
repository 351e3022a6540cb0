//! Scatter-gather (incast) workload helpers.
//!
//! Web search's "scatter-gather" pattern (paper §5.4): a query fans out to
//! leaf servers, each replies with a small result, and an aggregator
//! forwards the merged result upward. The fan-in is what triggers incast.

use desim::SimTime;
use simnet::topology::HostId;

use crate::sim::{FlowIdx, PktSim};

/// Result of a scatter-gather round.
#[derive(Clone, Debug)]
pub struct GatherResult {
    /// When the last response arrived.
    pub finish: SimTime,
}

/// Runs one synchronized fan-in: each of `senders` transmits
/// `response_bytes` to `sink` starting at `at`; returns when all complete.
///
/// The simulation is driven to completion of *these* flows; other queued
/// flows keep whatever state they reach.
pub fn gather(
    sim: &mut PktSim,
    senders: &[HostId],
    sink: HostId,
    response_bytes: u64,
    at: SimTime,
) -> GatherResult {
    let flows: Vec<FlowIdx> = senders
        .iter()
        .map(|&s| sim.add_flow(s, sink, response_bytes, at))
        .collect();
    // Run until all our flows are done: they are the newest in `sim`, so
    // every completion from `first` up is one of ours.
    let first = flows.first().map_or(0, |f| f.0);
    let mut seen = sim.completed().len();
    let mut left = flows.len();
    while left > 0 {
        if !sim.step() {
            panic!("simulation drained before gather completed");
        }
        left -= sim.completed()[seen..].iter().filter(|f| f.0 >= first).count();
        seen = sim.completed().len();
    }
    let finish = flows
        .iter()
        .map(|&f| sim.finish_time(f).expect("completed above"))
        .max()
        .expect("non-empty gather");
    GatherResult { finish }
}

/// A two-stage aggregation query: leaves respond to their aggregator, then
/// each aggregator forwards the combined payload to the frontend. Returns
/// the total query latency.
///
/// All groups' fan-ins run concurrently (they are independent parts of
/// one query); each aggregator forwards upward as soon as its own leaves
/// are in.
///
/// `groups` maps each aggregator to its leaf set.
pub fn two_level_query(
    sim: &mut PktSim,
    frontend: HostId,
    groups: &[(HostId, Vec<HostId>)],
    response_bytes: u64,
    at: SimTime,
) -> SimTime {
    // Stage 1: add every group's leaf flows up front so the gathers
    // overlap in time. The flows are consecutive in `sim`, so `owner` maps
    // a completion back to its group by offset from the first.
    let mut seen = sim.completed().len();
    let mut owner: Vec<usize> = Vec::new();
    let mut base = usize::MAX;
    for (g, (agg, leaves)) in groups.iter().enumerate() {
        assert!(!leaves.is_empty(), "non-empty group");
        for &leaf in leaves {
            base = base.min(sim.add_flow(leaf, *agg, response_bytes, at).0);
            owner.push(g);
        }
    }
    let mut left: Vec<usize> = groups.iter().map(|(_, leaves)| leaves.len()).collect();
    // Stage 2: launch each aggregator's upward flow the moment its own
    // gather completes — the instant its last leaf flow finishes, which is
    // the step that just ran.
    let mut stage2: Vec<Option<FlowIdx>> = vec![None; groups.len()];
    let mut pending = groups.len();
    while pending > 0 {
        if !sim.step() {
            panic!("simulation drained before aggregation completed");
        }
        while let Some(&done) = sim.completed().get(seen) {
            seen += 1;
            if stage2.contains(&Some(done)) {
                pending -= 1;
            } else if let Some(&g) = done.0.checked_sub(base).and_then(|i| owner.get(i)) {
                left[g] -= 1;
                if left[g] == 0 {
                    let (agg, leaves) = &groups[g];
                    let combined = response_bytes * leaves.len() as u64;
                    stage2[g] = Some(sim.add_flow(*agg, frontend, combined, sim.now()));
                }
            }
        }
    }
    stage2
        .iter()
        .map(|s| sim.finish_time(s.expect("launched")).expect("finished"))
        .max()
        .expect("non-empty query")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use simnet::topology::TopoOptions;
    use simnet::{Topology, GBPS};

    #[test]
    fn gather_completes_and_reports_tail() {
        let topo = Topology::single_switch(11, GBPS, TopoOptions::default());
        let mut sim = PktSim::new(topo, SimConfig::default());
        let h = sim.topology().host_ids();
        let r = gather(&mut sim, &h[..10], h[10], 10 * 1024, SimTime::ZERO);
        assert_eq!(sim.completed().len(), 10);
        let last = sim
            .completed()
            .iter()
            .map(|&f| sim.finish_time(f).unwrap())
            .max();
        assert_eq!(last, Some(r.finish));
    }

    #[test]
    fn wide_fanin_worse_than_narrow() {
        let run = |n: usize| {
            let topo = Topology::single_switch(101, GBPS, TopoOptions::default());
            let mut sim = PktSim::new(topo, SimConfig::default());
            let h = sim.topology().host_ids();
            gather(&mut sim, &h[..n], h[100], 10 * 1024, SimTime::ZERO)
                .finish
                .as_secs_f64()
        };
        let narrow = run(10);
        let wide = run(100);
        assert!(
            wide > narrow * 2.0,
            "100-way incast ({wide}s) must beat 10-way ({narrow}s) by a lot"
        );
    }

    #[test]
    fn two_level_runs_stages_in_order() {
        let topo = Topology::two_tier(4, 6, GBPS, f64::INFINITY, TopoOptions::default());
        let mut sim = PktSim::new(topo, SimConfig::default());
        let h = sim.topology().host_ids();
        let frontend = h[0];
        let groups = vec![
            (h[1], h[2..7].to_vec()),
            (h[7], h[8..13].to_vec()),
        ];
        let t = two_level_query(&mut sim, frontend, &groups, 10 * 1024, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
    }
}
