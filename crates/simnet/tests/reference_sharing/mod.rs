//! The progressive-filling kernel as it stood before the flat rewrite,
//! body verbatim, kept as the oracle `sharing_equiv` holds
//! `simnet::sharing::max_min_rates_into` to, bit for bit. It shares the
//! `Demand` type and `MAX_INELASTIC_FRACTION` with the crate and nothing
//! else. Do not optimise it.
//!
//! One input class it does not survive: an unfrozen, uncapped demand all of
//! whose positive-multiplicity resources have infinite residual capacity
//! makes `level` and `min_cap` both infinite, the cap branch freezes nothing
//! and the loop never ends (a `debug_assert!` in debug builds). The engine
//! cannot produce it (every topology capacity is finite); `sharing_equiv`
//! does not generate it.

use simnet::sharing::{Demand, ResourceIdx, MAX_INELASTIC_FRACTION};

/// The reference's working set (the former `SharingScratch` fields).
#[derive(Clone, Debug, Default)]
pub struct RefScratch {
    /// Residual capacity per resource.
    remaining: Vec<f64>,
    /// Indices of elastic demands not yet frozen at a final rate.
    unfrozen: Vec<usize>,
    /// Dense per-resource total multiplicity among unfrozen groups.
    /// `0.0` doubles as the "untouched this round" sentinel (loads are
    /// sums of strictly positive multiplicities).
    load: Vec<f64>,
    /// Resources with non-zero load this round (for sparse resets).
    touched: Vec<ResourceIdx>,
    /// Dense bottleneck flags, only ever set for touched resources.
    bottleneck: Vec<bool>,
    /// Per-demand aggregation of inelastic usages.
    per_res: Vec<(ResourceIdx, f64)>,
}

/// The reference kernel: one rate per demand into `rates` (cleared first).
pub fn max_min_rates_into(
    scratch: &mut RefScratch,
    capacities: &[f64],
    demands: &[Demand],
    rates: &mut Vec<f64>,
) {
    rates.clear();
    rates.resize(demands.len(), 0.0);

    let remaining = &mut scratch.remaining;
    remaining.clear();
    remaining.extend_from_slice(capacities);
    if scratch.load.len() < capacities.len() {
        scratch.load.resize(capacities.len(), 0.0);
        scratch.bottleneck.resize(capacities.len(), false);
    }

    // Phase 1: inelastic demands, greedy in input order. Multiplicities
    // are aggregated per resource first so a demand listing the same
    // resource twice is clipped against its *total* usage there.
    for (i, d) in demands.iter().enumerate() {
        if let Some(want) = d.inelastic {
            let per_res = &mut scratch.per_res;
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
    // usages are unconstrained and never enter the loop.
    let unfrozen = &mut scratch.unfrozen;
    unfrozen.clear();
    for (i, d) in demands.iter().enumerate() {
        if d.inelastic.is_some() {
            continue;
        }
        if d.usages.iter().all(|&(_, m)| m <= 0.0) {
            rates[i] = d.cap.unwrap_or(f64::INFINITY);
        } else {
            unfrozen.push(i);
        }
    }

    while !unfrozen.is_empty() {
        // Total multiplicity per resource among unfrozen groups.
        for &r in &scratch.touched {
            scratch.load[r] = 0.0;
            scratch.bottleneck[r] = false;
        }
        scratch.touched.clear();
        for &i in unfrozen.iter() {
            for &(r, mult) in &demands[i].usages {
                if mult > 0.0 {
                    if scratch.load[r] == 0.0 {
                        scratch.touched.push(r);
                    }
                    scratch.load[r] += mult;
                }
            }
        }
        // Water level: the lowest per-resource equal share.
        let mut level = f64::INFINITY;
        for &r in &scratch.touched {
            let share = (remaining[r] / scratch.load[r]).max(0.0);
            if share < level {
                level = share;
            }
        }
        // Any cap below the level freezes first.
        let min_cap = unfrozen
            .iter()
            .filter_map(|&i| demands[i].cap)
            .fold(f64::INFINITY, f64::min);

        if min_cap <= level {
            // Freeze all capped groups whose cap is at/below the level.
            let mut froze = false;
            unfrozen.retain(|&i| match demands[i].cap {
                Some(cap) if cap <= level => {
                    rates[i] = cap;
                    for &(r, mult) in &demands[i].usages {
                        remaining[r] = (remaining[r] - cap * mult).max(0.0);
                    }
                    froze = true;
                    false
                }
                _ => true,
            });
            debug_assert!(froze, "min_cap <= level implies at least one freeze");
            continue;
        }

        // Freeze every group using a bottleneck resource at the level.
        //
        // The comparison is EXACT (bit-wise), not tolerance-banded: the
        // level is itself one of the computed shares, so the argmin always
        // freezes and the loop still terminates in ≤ n rounds. Exactness
        // is what makes per-component progressive filling bit-identical
        // to a global run — a tolerance band would let a share that is
        // mathematically equal but a few ULPs above the level (computed
        // through a different operation order in another component)
        // freeze at the *other* component's level, coupling components
        // at the last mantissa bit.
        for &r in &scratch.touched {
            if (remaining[r] / scratch.load[r]).max(0.0) <= level {
                scratch.bottleneck[r] = true;
            }
        }
        let bottleneck = &scratch.bottleneck;
        let mut froze = false;
        unfrozen.retain(|&i| {
            let uses_bottleneck = demands[i]
                .usages
                .iter()
                .any(|&(r, mult)| mult > 0.0 && bottleneck[r]);
            if uses_bottleneck {
                rates[i] = level;
                for &(r, mult) in &demands[i].usages {
                    remaining[r] = (remaining[r] - level * mult).max(0.0);
                }
                froze = true;
                false
            } else {
                true
            }
        });
        debug_assert!(froze, "progressive filling must freeze each round");
        if !froze {
            // Defensive: avoid an infinite loop if float trouble strikes.
            for &i in unfrozen.iter() {
                rates[i] = level;
            }
            break;
        }
    }
}
