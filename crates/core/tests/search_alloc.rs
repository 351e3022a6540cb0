//! Pins the zero-allocation invariant of the search loop: with a warm
//! [`SearchWorkspace`], repeating an exhaustive search on one thread must
//! not touch the heap, under [`EvalStrategy::Delta`] and under
//! [`EvalStrategy::Scratch`] alike — the workspace holds both strategies'
//! capacity table, binding and stack of host slots. This is what makes
//! per-candidate cost `O(dirty components)` in practice — a single
//! allocation per candidate would dominate small components.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use cloudtalk::exhaustive::{
    exhaustive_search_in, exhaustive_search_with, EvalStrategy, ExhaustiveResult, SearchOptions,
    SearchWorkspace,
};
use cloudtalk_lang::builder::daisy_chain_query;
use cloudtalk_lang::problem::Address;
use estimator::{HostState, World};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

#[test]
fn search_is_allocation_free_after_warmup() {
    let addrs: Vec<Address> = (1..=7).map(Address).collect();
    let problem = daisy_chain_query(&addrs, 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed");
    let mut world = World::uniform(&addrs, HostState::gbps_idle());
    // Lopsided loads: bindings land on differently-shaped components and
    // the incumbent tightens mid-search, exercising pruning paths.
    for (i, &a) in addrs.iter().enumerate() {
        world.set(
            a,
            HostState::gbps_idle()
                .with_up_load(0.12 * (i % 5) as f64)
                .with_down_load(0.09 * (i % 4) as f64),
        );
    }

    for eval in [EvalStrategy::Delta, EvalStrategy::Scratch] {
        let opts = SearchOptions::new(1 << 20).eval(eval);
        let mut ws = SearchWorkspace::new();
        let mut out = ExhaustiveResult::default();

        // Warm-up: one full search sizes every retained buffer (scratch,
        // delta caches and undo log, capacity table, slot stack, bounder
        // tables, locals) to its high-water mark. Also cross-check
        // against the allocating wrapper.
        exhaustive_search_in(&problem, &world, &opts, &mut ws, &mut out).expect("feasible");
        let fresh = exhaustive_search_with(&problem, &world, &opts).expect("feasible");
        assert_eq!(out.binding, fresh.binding, "{eval:?}");
        assert_eq!(out.makespan.to_bits(), fresh.makespan.to_bits(), "{eval:?}");
        assert_eq!(
            out.delta.components_rerated > 0,
            eval == EvalStrategy::Delta,
            "the delta path is live under Delta only"
        );

        // Measured: the identical search replays the identical allocation
        // pattern — which, with warm buffers, must be empty.
        let (allocs, _, acc) = testkit::allocs_of(|| {
            let mut acc = 0.0f64;
            for _ in 0..3 {
                exhaustive_search_in(&problem, &world, &opts, &mut ws, &mut out).expect("feasible");
                acc += out.makespan;
            }
            acc
        });
        assert!(acc > 0.0, "searches must be non-trivial");
        assert_eq!(
            out.binding, fresh.binding,
            "{eval:?}: warm reruns agree with fresh"
        );
        assert_eq!(
            allocs, 0,
            "{eval:?} search allocated {allocs} times after warm-up"
        );
    }
}
