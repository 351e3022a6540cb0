//! Packet-level search backend work: serial full-run baseline vs the
//! optimised backend (simulator reuse, incumbent early-abort, symmetry
//! memoisation, parallel fan-out) on the §5.4 web-search aggregator
//! placement.
//!
//! Every arm must return a **bit-identical** winning binding and makespan
//! — the optimisations trade work, never answers. The binary verifies
//! this and prints each arm's simulation counts. It prints no wall-clock
//! time, so its stdout is deterministic; the backend's speed is the
//! `pktsearch.*` rows of `perf/`'s `paper_apps` workload.
//!
//! ```text
//! cargo run --release -p cloudtalk-bench --bin pktsearch          # full table
//! cargo run --release -p cloudtalk-bench --bin pktsearch -- --smoke  # CI-sized
//! cargo run --release -p cloudtalk-bench --bin pktsearch -- --smoke --trace t.json
//! ```
//!
//! `--trace <path>` answers the scenario once through the full
//! [`CloudTalkServer`] packet-level path and writes the answer's span tree
//! as Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto)
//! plus a flat metrics dump at `<path>.metrics`.

use std::sync::Arc;

use cloudtalk::pktsearch::{pkt_search, MirrorTopology, PktSearchOptions, PktSearchResult};
use cloudtalk::pkteval::pkt_evaluate;
use cloudtalk::server::{CloudTalkServer, EvalMethod, ObsConfig, PktBackendConfig, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk_apps::websearch::aggregator_placement_query;
use cloudtalk_bench::{flag_value, write_trace};
use cloudtalk_lang::problem::{Binding, Problem, Value};
use desim::SimTime;
use estimator::HostState;
use pktsim::SimConfig;
use simnet::topology::{HostId, TopoOptions, Topology};
use simnet::GBPS;

struct Scenario {
    mirror: MirrorTopology,
    problem: Problem,
    pairs: usize,
}

/// Worker threads of the parallel arm and of the traced server. The
/// arm's simulation counts depend on how the threads interleave, so the
/// table prints only its winner.
const THREADS: usize = 4;

/// Full scale: 80 leaves over a two-tier fabric, 12 aggregator
/// candidates drawn 3-per-rack from 4 leaf-free racks. The frontend pins
/// rack 0 and the other three candidate racks are interchangeable, so
/// symmetry collapses the 132 ordered pairs into 5 equivalence classes.
fn full_scenario() -> Scenario {
    let topo = Topology::two_tier(12, 10, GBPS, f64::INFINITY, TopoOptions::default());
    let hosts = topo.host_ids();
    let frontend = hosts[0];
    let leaves: Vec<HostId> = hosts[40..120].to_vec();
    let candidates: Vec<HostId> = [1usize, 2, 3, 10, 11, 12, 20, 21, 22, 30, 31, 32]
        .iter()
        .map(|&i| hosts[i])
        .collect();
    let problem = aggregator_placement_query(&topo, frontend, &leaves, &candidates);
    let pairs = candidates.len() * (candidates.len() - 1);
    Scenario {
        mirror: MirrorTopology::new(topo),
        problem,
        pairs,
    }
}

/// CI-sized: 8 leaves on one switch, 4 candidates (12 ordered pairs),
/// finishes in seconds.
fn smoke_scenario() -> Scenario {
    let topo = Topology::single_switch(16, GBPS, TopoOptions::default());
    let hosts = topo.host_ids();
    let frontend = hosts[0];
    let leaves: Vec<HostId> = hosts[1..9].to_vec();
    let candidates: Vec<HostId> = hosts[10..14].to_vec();
    let problem = aggregator_placement_query(&topo, frontend, &leaves, &candidates);
    let pairs = candidates.len() * (candidates.len() - 1);
    Scenario {
        mirror: MirrorTopology::new(topo),
        problem,
        pairs,
    }
}

/// CI-sized rack symmetry: 12 leaves over a two-tier fabric, 3 candidates
/// in each of 4 racks, frontend in rack 0 — the full scenario's class
/// structure (5 classes over 132 ordered pairs) at a size the memo-off
/// scan finishes in well under a second.
fn rack_smoke_scenario() -> Scenario {
    let topo = Topology::two_tier(7, 4, GBPS, f64::INFINITY, TopoOptions::default());
    let hosts = topo.host_ids();
    let frontend = hosts[0];
    let leaves: Vec<HostId> = hosts[16..28].to_vec();
    let candidates: Vec<HostId> = [1usize, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15]
        .iter()
        .map(|&i| hosts[i])
        .collect();
    let problem = aggregator_placement_query(&topo, frontend, &leaves, &candidates);
    let pairs = candidates.len() * (candidates.len() - 1);
    Scenario {
        mirror: MirrorTopology::new(topo),
        problem,
        pairs,
    }
}

/// Fails unless the memoised search returns the unmemoised winner bit for
/// bit while simulating at most one binding per rack-symmetric class.
fn rack_symmetry_smoke() {
    let s = rack_smoke_scenario();
    let n_cands = s.problem.vars[0].candidates.len() as u64;
    let opts = PktSearchOptions::new(n_cands * n_cands);
    let off = run_arm(&s, &opts.memoise(false));
    let on = run_arm(&s, &opts);
    assert_eq!(on.binding, off.binding, "rack symmetry changed the winner");
    assert_eq!(
        on.makespan.to_bits(),
        off.makespan.to_bits(),
        "rack symmetry changed the makespan"
    );
    let sims = on.evaluated + on.aborted;
    assert!(sims <= 5, "{sims} simulations for 5 rack-symmetric classes");
    println!(
        "\nrack symmetry (two-tier, {} ordered pairs): memo off {} sims, memo on {} sims + {} memo hits; \
         winner ({}) makespan {:.4}s — bit-identical",
        s.pairs,
        off.evaluated + off.aborted,
        sims,
        on.memo_hits,
        fmt_binding(&on.binding),
        on.makespan
    );
}

/// The unoptimised reference: enumerate bindings in declaration order and
/// run every one through the one-shot [`pkt_evaluate`] — a fresh
/// simulator per binding, no deadline, no cache, one thread.
fn serial_baseline(s: &Scenario) -> (Binding, f64, u64) {
    let cands = &s.problem.vars[0].candidates;
    let mut best: Option<(f64, Binding)> = None;
    let mut evaluated = 0u64;
    for &a in cands {
        for &b in cands {
            if a == b {
                continue;
            }
            let binding: Binding = vec![a, b];
            let r = pkt_evaluate(
                &s.problem,
                &binding,
                s.mirror.topology(),
                s.mirror.addr_to_host(),
                SimConfig::default(),
            )
            .expect("placement binding simulates");
            evaluated += 1;
            if best.as_ref().is_none_or(|(m, _)| r.makespan < *m) {
                best = Some((r.makespan, binding));
            }
        }
    }
    let (makespan, binding) = best.expect("non-empty candidate pool");
    (binding, makespan, evaluated)
}

fn run_arm(s: &Scenario, opts: &PktSearchOptions) -> PktSearchResult {
    pkt_search(&s.problem, &s.mirror, opts).expect("search succeeds")
}

fn fmt_binding(b: &Binding) -> String {
    b.iter()
        .map(|v| match v {
            Value::Addr(a) => a.to_string(),
            Value::Disk => "disk".to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Answers once through a traced server on the packet-level backend and
/// exports the query's span tree and the server's metrics registry.
fn export_trace(s: Scenario, path: &str) {
    let Scenario {
        mirror, problem, ..
    } = s;
    let n_cands = problem.vars[0].candidates.len() as u64;
    let mut server = CloudTalkServer::new(ServerConfig {
        method: EvalMethod::PacketLevel {
            limit: n_cands * n_cands,
        },
        pkt: PktBackendConfig {
            mirror: Some(Arc::new(mirror)),
            threads: THREADS,
            ..Default::default()
        },
        obs: ObsConfig {
            tracing: true,
            host_timer: true,
        },
        ..Default::default()
    });
    let mut status = TableStatusSource::new();
    for &a in &problem.mentioned_addresses() {
        status.set(a, HostState::gbps_idle());
    }
    let a = server
        .answer_problem(&problem, &mut status, SimTime::ZERO)
        .expect("packet-level answer succeeds");
    let mpath = write_trace(
        path,
        &[("query", &a.provenance.trace)],
        Some(server.metrics()),
    )
    .expect("trace files are writable");
    println!(
        "trace: {} spans -> {path} (metrics -> {})",
        a.provenance.trace.spans.len(),
        mpath.as_deref().unwrap_or("-")
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if let Some(path) = flag_value("--trace") {
        let s = if smoke { smoke_scenario() } else { full_scenario() };
        export_trace(s, &path);
        return;
    }
    let s = if smoke { smoke_scenario() } else { full_scenario() };
    println!(
        "pktsearch: web-search aggregator placement, {} ordered pairs{}\n",
        s.pairs,
        if smoke { " (smoke)" } else { "" }
    );

    let (base_binding, base_makespan, base_evals) = serial_baseline(&s);
    println!("{:<34}  ({} sims)", "serial full-run baseline", base_evals);

    // The space guard counts the raw product (distinctness not yet
    // applied), so bound by |candidates|^2.
    let n_cands = s.problem.vars[0].candidates.len() as u64;
    let limit = n_cands * n_cands;
    let arms: [(&str, PktSearchOptions); 4] = [
        (
            "+ sim reuse (compiled program)",
            PktSearchOptions::new(limit).memoise(false).early_abort(false),
        ),
        (
            "+ incumbent early-abort",
            PktSearchOptions::new(limit).memoise(false),
        ),
        ("+ symmetry memoisation", PktSearchOptions::new(limit)),
        (
            "+ parallel fan-out",
            PktSearchOptions::new(limit).threads(THREADS),
        ),
    ];

    for (label, opts) in &arms {
        let r = run_arm(&s, opts);
        assert_eq!(
            r.binding, base_binding,
            "{label}: winner differs from the serial baseline"
        );
        assert_eq!(
            r.makespan.to_bits(),
            base_makespan.to_bits(),
            "{label}: makespan not bit-identical"
        );
        if opts.threads > 1 {
            println!(
                "{label:<34}  (winner ({}) makespan {:.4}s)",
                fmt_binding(&r.binding),
                r.makespan
            );
        } else {
            println!(
                "{label:<34}  ({} sims, {} aborted, {} memo hits)",
                r.evaluated, r.aborted, r.memo_hits
            );
        }
    }

    println!(
        "\nwinner: ({}) makespan {:.4}s — bit-identical across all arms",
        fmt_binding(&base_binding),
        base_makespan
    );
    if smoke {
        rack_symmetry_smoke();
    }
}
