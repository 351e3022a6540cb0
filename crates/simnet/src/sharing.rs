//! Max-min fair bandwidth allocation (progressive filling).
//!
//! The paper's flow-level estimator "arithmetically allocates a rate to
//! each flow using the assumption that bottleneck links are shared equally
//! (while also taking any restrictions into account) … The algorithm
//! iteratively computes flow rates until they stabilize" (§4). This module
//! is that algorithm, shared by the live substrate ([`crate::engine`]) and
//! the estimator crate.
//!
//! Demands are *groups*: a group is a set of `(resource, multiplicity)`
//! usages that all proceed at one common rate. A plain flow is a group
//! over the links of its path; a pipelined (daisy-chained) transfer whose
//! hops are rate-coupled (`rate r(f)` cross-references) is a single group
//! spanning every hop's links and every replica's disk — exactly the
//! coupling semantics of the CloudTalk language.
//!
//! Inelastic groups (UDP-style) take their fixed rate off the top; elastic
//! groups share what remains via progressive filling with optional rate
//! caps.

/// Index of a capacity resource (a directed link, a disk direction, …).
pub type ResourceIdx = usize;

/// One bandwidth demand: a set of resource usages sharing a single rate.
#[derive(Clone, Debug)]
pub struct Demand {
    /// `(resource, multiplicity)` pairs: the group consumes
    /// `rate × multiplicity` on each listed resource.
    pub usages: Vec<(ResourceIdx, f64)>,
    /// Optional maximum rate (the language's `rate` restriction).
    pub cap: Option<f64>,
    /// If set, the group is inelastic: it takes exactly this rate (clipped
    /// to available capacity) regardless of fairness.
    pub inelastic: Option<f64>,
}

impl Demand {
    /// An elastic demand over `usages` with no cap.
    pub fn elastic(usages: Vec<(ResourceIdx, f64)>) -> Self {
        Demand {
            usages,
            cap: None,
            inelastic: None,
        }
    }

    /// An elastic demand with a rate cap.
    pub fn capped(usages: Vec<(ResourceIdx, f64)>, cap: f64) -> Self {
        Demand {
            usages,
            cap: Some(cap),
            inelastic: None,
        }
    }

    /// An inelastic (UDP-like) demand at `rate`.
    pub fn inelastic(usages: Vec<(ResourceIdx, f64)>, rate: f64) -> Self {
        Demand {
            usages,
            cap: None,
            inelastic: Some(rate),
        }
    }
}

/// Largest fraction of a resource inelastic (UDP-like) traffic may claim.
/// Real congestion-responsive flows competing with a line-rate UDP blast
/// still get a trickle of service; capping inelastic usage below 100%
/// models that and guarantees elastic flows always make progress.
pub const MAX_INELASTIC_FRACTION: f64 = 0.98;

/// Reusable buffers for [`max_min_rates_into`].
///
/// The estimator calls the allocator once per simulation round, and the
/// exhaustive search calls the estimator once per candidate binding —
/// hundreds of thousands of allocator invocations per figure. Keeping the
/// working set in a scratch that the caller threads through makes the
/// steady-state allocator entirely allocation-free: every `Vec` below
/// reaches its high-water capacity during the first call and is reused
/// (cleared, never shrunk) afterwards.
#[derive(Clone, Debug, Default)]
pub struct SharingScratch {
    /// Residual capacity per resource.
    remaining: Vec<f64>,
    /// Elastic demands not yet frozen at a final rate, in input order.
    unfrozen: Vec<Span>,
    /// The usages of every demand that entered the filling loop, back to
    /// back: a round walks one array instead of one heap block per demand.
    flat: Vec<(ResourceIdx, f64)>,
    /// Dense per-resource total multiplicity among unfrozen groups.
    /// `0.0` doubles as the "untouched this round" sentinel (loads are
    /// sums of strictly positive multiplicities).
    load: Vec<f64>,
    /// Resources with non-zero load this round.
    touched: Vec<ResourceIdx>,
    /// Dense per-resource equal share, valid for this round's touched
    /// resources.
    share: Vec<f64>,
    /// Per-demand aggregation of inelastic usages.
    per_res: Vec<(ResourceIdx, f64)>,
}

/// An unfrozen demand and where its usages sit in `SharingScratch::flat`.
#[derive(Clone, Copy, Debug)]
struct Span {
    demand: u32,
    start: u32,
    end: u32,
}

/// Computes max-min fair rates for `demands` over `capacities`.
///
/// Returns one rate per demand, in input order. Inelastic demands are
/// admitted greedily in input order (each clipped to what its resources
/// have left); elastic demands then share the residual capacity max-min,
/// honouring caps. Groups with no resource usages get `f64::INFINITY`
/// (or their cap): nothing constrains them.
///
/// This is a thin wrapper over [`max_min_rates_into`] that allocates a
/// fresh scratch and output vector; hot paths should hold a
/// [`SharingScratch`] and call the `_into` form directly.
///
/// # Examples
///
/// ```
/// use simnet::sharing::{max_min_rates, Demand};
///
/// // Two flows share one 100-unit link; a third has the other link alone.
/// let rates = max_min_rates(
///     &[100.0, 100.0],
///     &[
///         Demand::elastic(vec![(0, 1.0)]),
///         Demand::elastic(vec![(0, 1.0)]),
///         Demand::elastic(vec![(1, 1.0)]),
///     ],
/// );
/// assert_eq!(rates, vec![50.0, 50.0, 100.0]);
/// ```
pub fn max_min_rates(capacities: &[f64], demands: &[Demand]) -> Vec<f64> {
    let mut scratch = SharingScratch::default();
    let mut rates = Vec::new();
    max_min_rates_into(&mut scratch, capacities, demands, &mut rates);
    rates
}

/// Allocation-free form of [`max_min_rates`]: writes one rate per demand
/// into `rates` (cleared first), reusing `scratch` buffers across calls.
///
/// Bit-identical to the plain progressive-filling loop kept under
/// `tests/reference_sharing/` (`tests/sharing_equiv.rs` holds it to that):
/// every sum, quotient, subtraction and comparison is taken in that loop's
/// order. What differs is how often memory is walked — a round computes
/// each touched resource's share once, and one pass over the flat usage
/// array both freezes this round's demands and counts the survivors' loads
/// for the next.
pub fn max_min_rates_into(
    scratch: &mut SharingScratch,
    capacities: &[f64],
    demands: &[Demand],
    rates: &mut Vec<f64>,
) {
    rates.clear();
    rates.resize(demands.len(), 0.0);

    let SharingScratch {
        remaining,
        unfrozen,
        flat,
        load,
        touched,
        share,
        per_res,
    } = scratch;
    remaining.clear();
    remaining.extend_from_slice(capacities);
    if load.len() < capacities.len() {
        load.resize(capacities.len(), 0.0);
        share.resize(capacities.len(), 0.0);
    }

    // Phase 1: inelastic demands, greedy in input order. Multiplicities
    // are aggregated per resource first so a demand listing the same
    // resource twice is clipped against its *total* usage there.
    for (i, d) in demands.iter().enumerate() {
        if let Some(want) = d.inelastic {
            per_res.clear();
            for &(r, mult) in &d.usages {
                if mult <= 0.0 {
                    continue;
                }
                if let Some(e) = per_res.iter_mut().find(|(res, _)| *res == r) {
                    e.1 += mult;
                } else {
                    per_res.push((r, mult));
                }
            }
            let mut rate = want;
            for &(r, total) in per_res.iter() {
                rate = rate.min((MAX_INELASTIC_FRACTION * remaining[r] / total).max(0.0));
            }
            if let Some(cap) = d.cap {
                rate = rate.min(cap);
            }
            rates[i] = rate;
            for &(r, total) in per_res.iter() {
                remaining[r] = (remaining[r] - rate * total).max(0.0);
            }
        }
    }

    // Phase 2: elastic demands via progressive filling. Groups with no
    // usages are unconstrained and never enter the loop; the others are
    // flattened, and the first round's loads counted, in input order.
    for &r in touched.iter() {
        load[r] = 0.0; // only after a round that froze nothing
    }
    touched.clear();
    unfrozen.clear();
    flat.clear();
    let mut capped = 0usize;
    for (i, d) in demands.iter().enumerate() {
        if d.inelastic.is_some() {
            continue;
        }
        if d.usages.iter().all(|&(_, m)| m <= 0.0) {
            rates[i] = d.cap.unwrap_or(f64::INFINITY);
            continue;
        }
        let start = flat.len();
        flat.extend_from_slice(&d.usages);
        count_loads(&d.usages, load, touched);
        capped += d.cap.is_some() as usize;
        unfrozen.push(Span {
            demand: i as u32,
            start: start as u32,
            end: flat.len() as u32,
        });
    }

    while !unfrozen.is_empty() {
        // Water level: the lowest per-resource equal share. Taking a share
        // hands its load back, so the decide pass below counts the next
        // round's loads into zeroes.
        let mut level = f64::INFINITY;
        for &r in touched.iter() {
            let s = (remaining[r] / load[r]).max(0.0);
            share[r] = s;
            load[r] = 0.0;
            if s < level {
                level = s;
            }
        }
        touched.clear();
        // Any cap at or below the level freezes first, alone; otherwise
        // every group using a bottleneck resource freezes at the level.
        //
        // The bottleneck comparison is EXACT (bit-wise), not
        // tolerance-banded: the level is itself one of the shares, so the
        // argmin always freezes and the loop terminates in ≤ n rounds. A
        // tolerance band would let a share that is mathematically equal
        // but a few ULPs above the level freeze at another resource's
        // level, coupling unrelated flows at the last mantissa bit.
        let cap_of = |s: &Span| demands[s.demand as usize].cap;
        let by_cap = capped > 0 && {
            let caps = unfrozen.iter().filter_map(cap_of);
            caps.fold(f64::INFINITY, f64::min) <= level
        };
        let before = unfrozen.len();
        let mut kept = 0;
        capped = 0;
        for k in 0..before {
            let span = unfrozen[k];
            let cap = cap_of(&span);
            let usages = &flat[span.start as usize..span.end as usize];
            let frozen_at = if by_cap {
                cap.filter(|&cap| cap <= level)
            } else {
                let at_level = |&(r, mult): &(ResourceIdx, f64)| mult > 0.0 && share[r] <= level;
                usages.iter().any(at_level).then_some(level)
            };
            match frozen_at {
                Some(rate) => {
                    rates[span.demand as usize] = rate;
                    for &(r, mult) in usages {
                        remaining[r] = (remaining[r] - rate * mult).max(0.0);
                    }
                }
                None => {
                    count_loads(usages, load, touched);
                    capped += cap.is_some() as usize;
                    unfrozen[kept] = span;
                    kept += 1;
                }
            }
        }
        unfrozen.truncate(kept);
        debug_assert!(kept < before, "progressive filling must freeze each round");
        if kept == before {
            // Defensive: avoid an infinite loop if float trouble strikes.
            for span in unfrozen.iter() {
                rates[span.demand as usize] = level;
            }
            break;
        }
    }
}

/// Adds a demand's positive multiplicities to the per-resource loads,
/// listing each resource the first time it is touched.
#[inline]
fn count_loads(usages: &[(ResourceIdx, f64)], load: &mut [f64], touched: &mut Vec<ResourceIdx>) {
    for &(r, mult) in usages {
        if mult > 0.0 {
            if load[r] == 0.0 {
                touched.push(r);
            }
            load[r] += mult;
        }
    }
}

/// Sorts a usage list by resource index and merges duplicate entries by
/// summing their multiplicities, in place and allocation-free.
///
/// Both the engine and the estimator assemble demand usage lists from
/// route hops and disk legs, where the same directed resource can appear
/// several times (a pipeline crossing a link twice). Coalescing to a
/// sorted, duplicate-free form makes demand contents deterministic
/// regardless of assembly order and replaces the quadratic
/// `iter_mut().find` dedup previously scattered across callers.
pub fn coalesce_usages(usages: &mut Vec<(ResourceIdx, f64)>) {
    usages.sort_unstable_by_key(|&(r, _)| r);
    usages.dedup_by(|later, kept| {
        if kept.0 == later.0 {
            kept.1 += later.1;
            true
        } else {
            false
        }
    });
}

/// Checks that `rates` is feasible: no resource is used beyond capacity
/// (within tolerance). Used by tests and debug assertions.
pub fn is_feasible(capacities: &[f64], demands: &[Demand], rates: &[f64]) -> bool {
    let mut used = vec![0.0f64; capacities.len()];
    for (d, &rate) in demands.iter().zip(rates) {
        if !rate.is_finite() {
            continue;
        }
        for &(r, mult) in &d.usages {
            used[r] += rate * mult;
        }
    }
    used.iter()
        .zip(capacities)
        .all(|(&u, &c)| u <= c * (1.0 + 1e-6) + 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_share_on_one_link() {
        let rates = max_min_rates(
            &[90.0],
            &[
                Demand::elastic(vec![(0, 1.0)]),
                Demand::elastic(vec![(0, 1.0)]),
                Demand::elastic(vec![(0, 1.0)]),
            ],
        );
        assert_eq!(rates, vec![30.0, 30.0, 30.0]);
    }

    #[test]
    fn classic_max_min_example() {
        // Link 0: cap 10 shared by A,B.  Link 1: cap 100 shared by B,C.
        // A gets 5, B gets 5 (bottlenecked at link 0), C gets 95.
        let rates = max_min_rates(
            &[10.0, 100.0],
            &[
                Demand::elastic(vec![(0, 1.0)]),
                Demand::elastic(vec![(0, 1.0), (1, 1.0)]),
                Demand::elastic(vec![(1, 1.0)]),
            ],
        );
        assert!((rates[0] - 5.0).abs() < 1e-6);
        assert!((rates[1] - 5.0).abs() < 1e-6);
        assert!((rates[2] - 95.0).abs() < 1e-6);
    }

    #[test]
    fn caps_redistribute_surplus() {
        // Two flows on a 100 link, one capped at 10: the other gets 90.
        let rates = max_min_rates(
            &[100.0],
            &[
                Demand::capped(vec![(0, 1.0)], 10.0),
                Demand::elastic(vec![(0, 1.0)]),
            ],
        );
        assert!((rates[0] - 10.0).abs() < 1e-6);
        assert!((rates[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn inelastic_takes_priority() {
        // UDP at 70 on a 100 link leaves 30 for two TCP flows.
        let rates = max_min_rates(
            &[100.0],
            &[
                Demand::inelastic(vec![(0, 1.0)], 70.0),
                Demand::elastic(vec![(0, 1.0)]),
                Demand::elastic(vec![(0, 1.0)]),
            ],
        );
        assert!((rates[0] - 70.0).abs() < 1e-6);
        assert!((rates[1] - 15.0).abs() < 1e-6);
        assert!((rates[2] - 15.0).abs() < 1e-6);
    }

    #[test]
    fn inelastic_clipped_below_full_capacity() {
        let rates = max_min_rates(
            &[100.0],
            &[
                Demand::inelastic(vec![(0, 1.0)], 80.0),
                Demand::inelastic(vec![(0, 1.0)], 80.0),
            ],
        );
        assert!((rates[0] - 80.0).abs() < 1e-6);
        // Second UDP only gets MAX_INELASTIC_FRACTION of the residual.
        assert!((rates[1] - MAX_INELASTIC_FRACTION * 20.0).abs() < 1e-6);
    }

    #[test]
    fn elastic_always_progresses_past_udp_blast() {
        // Line-rate UDP cannot fully starve an elastic flow.
        let rates = max_min_rates(
            &[100.0],
            &[
                Demand::inelastic(vec![(0, 1.0)], 1000.0),
                Demand::elastic(vec![(0, 1.0)]),
            ],
        );
        assert!(rates[1] > 0.0, "elastic flow must trickle: {rates:?}");
    }

    #[test]
    fn duplicate_resource_entries_aggregate_for_inelastic() {
        // A demand using the same resource twice at 0.5 each consumes
        // 1.0 per unit rate; the clip must see the total.
        let rates = max_min_rates(
            &[1.0],
            &[Demand::inelastic(vec![(0, 0.5), (0, 0.5)], 26.0)],
        );
        assert!(
            is_feasible(&[1.0], &[Demand::inelastic(vec![(0, 0.5), (0, 0.5)], 26.0)], &rates),
            "{rates:?}"
        );
        assert!((rates[0] - MAX_INELASTIC_FRACTION).abs() < 1e-6);
    }

    #[test]
    fn coupled_group_bottlenecked_by_worst_resource() {
        // A pipelined transfer crossing a 100 link and a 40 disk moves at 40.
        let rates = max_min_rates(
            &[100.0, 40.0],
            &[Demand::elastic(vec![(0, 1.0), (1, 1.0)])],
        );
        assert!((rates[0] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn multiplicity_counts_double() {
        // A group crossing the same resource twice gets half of it.
        let rates = max_min_rates(&[100.0], &[Demand::elastic(vec![(0, 2.0)])]);
        assert!((rates[0] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn empty_usages_are_unconstrained() {
        let rates = max_min_rates(&[], &[Demand::elastic(vec![])]);
        assert_eq!(rates, vec![f64::INFINITY]);
        let rates = max_min_rates(&[], &[Demand::capped(vec![], 7.0)]);
        assert_eq!(rates, vec![7.0]);
    }

    #[test]
    fn zero_capacity_resource_gives_zero_rate() {
        let rates = max_min_rates(&[0.0], &[Demand::elastic(vec![(0, 1.0)])]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn unbounded_resources_leave_demands_unconstrained() {
        // No finite share and no cap left to freeze on: the level is
        // infinite and the round freezes at it (the loop this kernel
        // replaced never left that round).
        let rates = max_min_rates(
            &[f64::INFINITY, 10.0],
            &[
                Demand::elastic(vec![(0, 1.0)]),
                Demand::capped(vec![(0, 2.0)], 7.0),
                Demand::elastic(vec![(0, 1.0), (1, 1.0)]),
            ],
        );
        assert_eq!(rates, vec![f64::INFINITY, 7.0, 10.0]);
    }

    #[test]
    fn no_demands_is_fine() {
        assert!(max_min_rates(&[5.0], &[]).is_empty());
    }

    #[test]
    fn result_is_always_feasible() {
        let caps = [100.0, 50.0, 25.0, 10.0];
        let demands = vec![
            Demand::elastic(vec![(0, 1.0), (1, 1.0)]),
            Demand::capped(vec![(1, 1.0), (2, 1.0)], 8.0),
            Demand::inelastic(vec![(2, 1.0), (3, 1.0)], 9.0),
            Demand::elastic(vec![(0, 2.0), (3, 1.0)]),
            Demand::elastic(vec![(0, 1.0)]),
        ];
        let rates = max_min_rates(&caps, &demands);
        assert!(is_feasible(&caps, &demands, &rates));
        // Max-min should saturate at least one resource.
        let mut used = [0.0f64; 4];
        for (d, &rate) in demands.iter().zip(&rates) {
            for &(r, m) in &d.usages {
                used[r] += rate * m;
            }
        }
        assert!(used
            .iter()
            .zip(&caps)
            .any(|(u, c)| (u - c).abs() < 1e-6 * c));
    }

    #[test]
    fn reused_scratch_matches_fresh_allocation() {
        // One scratch threaded through dissimilar problems (different
        // resource counts, demand counts, and demand kinds) must give the
        // same rates as fresh calls — stale buffer contents never leak.
        let problems: Vec<(Vec<f64>, Vec<Demand>)> = vec![
            (
                vec![100.0, 50.0, 25.0, 10.0],
                vec![
                    Demand::elastic(vec![(0, 1.0), (1, 1.0)]),
                    Demand::capped(vec![(1, 1.0), (2, 1.0)], 8.0),
                    Demand::inelastic(vec![(2, 1.0), (3, 1.0)], 9.0),
                    Demand::elastic(vec![(0, 2.0), (3, 1.0)]),
                ],
            ),
            (vec![90.0], vec![Demand::elastic(vec![(0, 1.0)])]),
            (
                vec![10.0, 100.0],
                vec![
                    Demand::elastic(vec![(0, 1.0)]),
                    Demand::elastic(vec![(0, 1.0), (1, 1.0)]),
                    Demand::elastic(vec![(1, 1.0)]),
                    Demand::elastic(vec![]),
                ],
            ),
            (vec![], vec![Demand::capped(vec![], 7.0)]),
            (vec![0.0], vec![Demand::elastic(vec![(0, 1.0)])]),
        ];
        let mut scratch = SharingScratch::default();
        let mut rates = Vec::new();
        for (caps, demands) in &problems {
            max_min_rates_into(&mut scratch, caps, demands, &mut rates);
            let fresh = max_min_rates(caps, demands);
            assert_eq!(rates, fresh, "caps {caps:?}");
        }
    }

    #[test]
    fn pareto_optimal_no_slack_for_single_bottleneck() {
        // n flows on one link must exactly fill it.
        for n in 1..20 {
            let demands: Vec<Demand> =
                (0..n).map(|_| Demand::elastic(vec![(0, 1.0)])).collect();
            let rates = max_min_rates(&[1.0], &demands);
            let total: f64 = rates.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} total={total}");
        }
    }
}
