//! Holds `simnet::sharing::max_min_rates_into` to the plain
//! progressive-filling loop in `reference_sharing/`, bit for bit, on seeded
//! random problems far outside what the engine builds: 1–250 demands over
//! 1–120 resources, caps, inelastic demands, a resource listed twice in one
//! demand, zero / negative / fractional multiplicities, zero and infinite
//! capacities, empty usage lists — and one scratch on each side reused
//! across all cases, so nothing may leak from a large problem into the
//! small one after it.
//!
//! The one class left out is the one the reference does not return from
//! (see its header): every demand here that loads an infinite resource also
//! loads a finite one. What the kernel does there is pinned by
//! `sharing::tests::unbounded_resources_leave_demands_unconstrained`.

mod reference_sharing;

use rand::Rng;

use desim::rng::{stream_rng, DetRng};
use simnet::sharing::{max_min_rates_into, Demand, SharingScratch};

const CASES: u64 = 20_000;

/// One problem. Sizes are drawn small-heavy so most cases are quick and a
/// few reach the top of the range.
fn gen_case(rng: &mut DetRng) -> (Vec<f64>, Vec<Demand>) {
    let (max_res, max_demands) = match rng.gen_range(0..10u32) {
        0 => (120, 250),
        1..=3 => (40, 60),
        _ => (8, 12),
    };
    let n_res = rng.gen_range(1..=max_res);
    let n_demands = rng.gen_range(1..=max_demands);
    // Integer capacities on some cases (equal shares tie exactly, so many
    // resources bottleneck in one round), arbitrary ones on the others.
    let integral = rng.gen_bool(0.5);
    let mut capacities: Vec<f64> = (0..n_res)
        .map(|_| match rng.gen_range(0..20u32) {
            0 => 0.0,
            1 => f64::INFINITY,
            _ if integral => rng.gen_range(1..=12u32) as f64 * 10.0,
            _ => rng.gen_range(0.5..1000.0),
        })
        .collect();
    // Resource 0 stays finite: it is what a demand on an infinite resource
    // is tied to below.
    if capacities[0].is_infinite() {
        capacities[0] = 100.0;
    }
    let demands = (0..n_demands)
        .map(|_| {
            let n_usages = match rng.gen_range(0..12u32) {
                0 => 0,
                1 => rng.gen_range(5..=9usize),
                _ => rng.gen_range(1..=4usize),
            };
            let mut usages: Vec<(usize, f64)> = (0..n_usages)
                .map(|_| {
                    let mult = match rng.gen_range(0..12u32) {
                        0 => 0.0,
                        1 => -rng.gen_range(0.25f64..2.0),
                        2 | 3 => rng.gen_range(0.1..3.0),
                        4 => 2.0,
                        _ => 1.0,
                    };
                    (rng.gen_range(0..n_res), mult)
                })
                .collect();
            if n_usages > 1 && rng.gen_bool(0.15) {
                // The same resource twice in one demand.
                let again = usages[0].0;
                usages[n_usages - 1].0 = again;
            }
            let loads = |finite: bool| {
                let hit = |&(r, m): &(usize, f64)| m > 0.0 && capacities[r].is_finite() == finite;
                usages.iter().any(hit)
            };
            if loads(false) && !loads(true) {
                usages.push((0, 1.0));
            }
            let cap = rng
                .gen_bool(0.25)
                .then(|| rng.gen_range(1..=40u32) as f64 * 2.5);
            let inelastic = rng.gen_bool(0.12).then(|| rng.gen_range(1.0..300.0));
            Demand {
                usages,
                cap,
                inelastic,
            }
        })
        .collect();
    (capacities, demands)
}

#[test]
fn flat_kernel_is_bit_identical_to_the_reference() {
    let mut rng = stream_rng(0x5EED_CA5E, 0x5A);
    let mut scratch = SharingScratch::default();
    let mut reference_scratch = reference_sharing::RefScratch::default();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut rounds_seen = 0usize;
    for case in 0..CASES {
        let (capacities, demands) = gen_case(&mut rng);
        max_min_rates_into(&mut scratch, &capacities, &demands, &mut got);
        reference_sharing::max_min_rates_into(
            &mut reference_scratch,
            &capacities,
            &demands,
            &mut want,
        );
        assert_eq!(got.len(), want.len(), "case {case}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "case {case}, demand {i} ({:?}): kernel {g}, reference {w}\ncapacities {capacities:?}",
                demands[i]
            );
        }
        // Distinct finite rates ~ filling rounds: the cases must not all
        // collapse into one-round problems.
        let mut distinct: Vec<u64> = want.iter().map(|r| r.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        rounds_seen = rounds_seen.max(distinct.len());
    }
    assert!(
        rounds_seen >= 20,
        "deepest case froze at {rounds_seen} levels"
    );
}
