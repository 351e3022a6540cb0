//! Overhead-vs-fleet-size benchmark for the hierarchical status plane.
//!
//! The paper's §5.5 arithmetic prices flat status collection at 142 B per
//! interrogated host (64 B query + 78 B response): ~14.2 KB per 100-node
//! round, and — if one dared — ~14.2 MB per query at 100k hosts, *before*
//! counting the retry traffic that incast loss forces past the §4.3 knee
//! (Figure 5: beyond ~1000-way fan-out most replies are lost no matter
//! how many rounds are spent). This bench measures what the two-tier
//! plane (`cloudtalk::aggregate`) does to that curve at 1k / 10k / 100k
//! hosts:
//!
//! * **flat** — one `scatter_gather_retry` over the whole fleet per
//!   query: bytes/query, recovered fraction, rounds.
//! * **hierarchical** — rack aggregators (40 hosts per rack, under the
//!   knee, loss-free) with the collector pulling epoch-stamped deltas:
//!   collector-facing bytes/query (pull + header + changed entries only)
//!   and the rack-local host-refresh bytes, reported separately — that
//!   traffic never crosses the aggregation switch.
//!
//! Steady state churns a bounded set of hosts (64) between queries, so
//! delta compression is measured against realistic drift, not an idle
//! fleet. Everything is seeded; two runs produce bit-identical ledgers.
//!
//! ```text
//! cargo run --release -p cloudtalk-bench --bin fleet_scale            # full table
//! cargo run --release -p cloudtalk-bench --bin fleet_scale -- --smoke # CI gate
//! ```
//!
//! `--smoke` runs the 1k-host point only and asserts: the merged plane
//! view serves every host's exact state (delta collection loses
//! nothing), the collector-facing bytes are ≥ 10× below flat, and
//! repeated runs are bit-identical. The full run additionally asserts
//! bytes/query grows sublinearly from 1k to 100k.

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig};
use cloudtalk::messages::OverheadLedger;
use cloudtalk::status::{StatusSource, TableStatusSource};
use cloudtalk::transport::{scatter_gather_retry, TransportConfig};
use cloudtalk_bench::{flag_present, row};
use cloudtalk_lang::problem::Address;
use desim::rng::stream_rng;
use desim::SimTime;
use estimator::HostState;
use rand::Rng;

const SEED: u64 = 2017;
const HOSTS_PER_RACK: usize = 40;
/// Hosts whose load changes between consecutive queries (bounded drift).
const CHURN: usize = 64;
/// Steady-state queries measured per scale (after the priming sync).
const QUERIES: usize = 5;

const LEVELS: [f64; 5] = [0.0, 0.05, 0.3, 0.6, 0.9];

fn addrs(n: usize) -> Vec<Address> {
    (1..=n as u32).map(Address).collect()
}

fn build_source(n: usize) -> TableStatusSource {
    let mut rng = stream_rng(SEED, 0xF1EE7);
    let mut s = TableStatusSource::new();
    for a in addrs(n) {
        let load = LEVELS[rng.gen_range(0..LEVELS.len())];
        s.set(a, HostState::gbps_idle().with_up_load(load));
    }
    s
}

/// Applies query-round `q`'s churn to a source: the same seeded edits
/// whatever collection scheme is observing them.
fn churn(source: &mut TableStatusSource, n: usize, q: usize) {
    let mut rng = stream_rng(SEED ^ 0xC4, q as u64);
    for _ in 0..CHURN {
        let a = Address(rng.gen_range(1..=n as u32));
        let load = LEVELS[rng.gen_range(0..LEVELS.len())];
        source.set(a, HostState::gbps_idle().with_up_load(load));
    }
}

struct FlatRun {
    bytes_per_query: u64,
    recovered_frac: f64,
    rounds: f64,
}

/// Flat baseline: every query re-interrogates the entire fleet through
/// the lossy wide-fan-out transport.
fn run_flat(n: usize) -> FlatRun {
    let fleet = addrs(n);
    let mut source = build_source(n);
    let cfg = TransportConfig::default();
    let mut ledger = OverheadLedger::default();
    let mut recovered = 0usize;
    let mut rounds = 0u64;
    for q in 1..=QUERIES {
        churn(&mut source, n, q);
        let mut rng = stream_rng(SEED, 0xF7A7 ^ q as u64);
        let out = scatter_gather_retry(&mut source, &fleet, &cfg, &mut rng, &mut ledger);
        recovered += out.replies.len();
        rounds += u64::from(out.rounds);
    }
    FlatRun {
        bytes_per_query: ledger.total_bytes() / QUERIES as u64,
        recovered_frac: recovered as f64 / (n * QUERIES) as f64,
        rounds: rounds as f64 / QUERIES as f64,
    }
}

struct HierRun {
    /// Collector-facing steady-state bytes/query (pulls + headers +
    /// changed entries): the traffic that crosses the aggregation tier.
    agg_bytes_per_query: u64,
    /// Rack-local host-refresh bytes/query (each aggregator re-polling
    /// its own ≤ knee-sized rack; never crosses the aggregation switch).
    host_bytes_per_query: u64,
    /// Priming cost: the first sync's full-snapshot installs.
    prime_bytes: u64,
    ledger: OverheadLedger,
}

/// Hierarchical plane: prime once, then measure steady-state syncs under
/// the same churn the flat baseline saw.
fn run_hier(n: usize) -> HierRun {
    let layout = FleetLayout::uniform(&addrs(n), HOSTS_PER_RACK);
    let mut plane = AggregationPlane::new(
        layout,
        build_source(n),
        PlaneConfig {
            seed: SEED,
            ..PlaneConfig::default()
        },
    );
    plane.sync(SimTime::ZERO);
    let primed = plane.ledger();
    for q in 1..=QUERIES {
        churn(plane.source_mut(), n, q);
        plane.sync(SimTime::from_secs_f64(q as f64));
    }
    let total = plane.ledger();
    let steady_agg = total.agg_bytes() - primed.agg_bytes();
    let steady_host =
        (total.status_bytes() + total.retry_bytes()) - (primed.status_bytes() + primed.retry_bytes());
    HierRun {
        agg_bytes_per_query: steady_agg / QUERIES as u64,
        host_bytes_per_query: steady_host / QUERIES as u64,
        prime_bytes: primed.agg_bytes(),
        ledger: total,
    }
}

fn kb(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else {
        format!("{:.1} KB", b as f64 / 1e3)
    }
}

fn smoke() {
    let n = 1_000;
    // Delta collection loses nothing: after a sync, the plane serves
    // every host's exact current state (racks sit under the knee, so the
    // aggregator tier is loss-free by construction).
    let layout = FleetLayout::uniform(&addrs(n), HOSTS_PER_RACK);
    let mut plane = AggregationPlane::new(
        layout,
        build_source(n),
        PlaneConfig {
            seed: SEED,
            ..PlaneConfig::default()
        },
    );
    plane.sync(SimTime::ZERO);
    churn(plane.source_mut(), n, 1);
    let t = SimTime::from_secs_f64(1.0);
    plane.advance_to(t);
    let mut truth = build_source(n);
    churn(&mut truth, n, 1);
    for a in addrs(n) {
        let served = plane
            .poll_report(a)
            .unwrap_or_else(|| panic!("host {a:?} missing from plane view"));
        let want = truth.poll_report(a).expect("truth source knows every host");
        assert_eq!(served.state, want.state, "host {a:?}: plane view diverged");
        assert_eq!(served.age, desim::SimDuration::ZERO, "freshly synced");
    }

    // The §5.5 advantage: collector-facing steady bytes at least 10x
    // below re-polling the fleet flat.
    let hier = run_hier(n);
    let flat = run_flat(n);
    assert!(
        hier.agg_bytes_per_query * 10 <= flat.bytes_per_query,
        "hier {} vs flat {}: advantage must be >= 10x",
        hier.agg_bytes_per_query,
        flat.bytes_per_query
    );
    // And flat is already paying the Figure-5 cliff at 1k-way fan-out:
    // most first-round replies are lost, so even after its retry budget
    // it cannot recover the full fleet — while the plane (rack-sized
    // fan-out) serves everyone, as asserted exactly above.
    assert!(
        flat.recovered_frac < 1.0 && flat.rounds > 1.0,
        "1000-way fan-out must lose replies and burn retries \
         (recovered {:.2}, rounds {:.1})",
        flat.recovered_frac,
        flat.rounds
    );

    // Bit-identical repeats: the whole measurement is seeded.
    let again = run_hier(n);
    assert_eq!(hier.ledger, again.ledger, "hier run must be deterministic");

    println!(
        "fleet_scale smoke OK: 1k hosts, hier {}/query (host-tier {}), flat {} at {:.0}% recovery",
        kb(hier.agg_bytes_per_query),
        kb(hier.host_bytes_per_query),
        kb(flat.bytes_per_query),
        flat.recovered_frac * 100.0
    );
}

fn main() {
    if flag_present("--smoke") {
        smoke();
        return;
    }

    let scales = [1_000usize, 10_000, 100_000];
    let widths = [8, 12, 10, 7, 14, 14, 12, 9];
    println!(
        "{}",
        row(
            &[
                "hosts".into(),
                "flat B/q".into(),
                "flat rec".into(),
                "rounds".into(),
                "hier agg B/q".into(),
                "hier host B/q".into(),
                "prime B".into(),
                "flat/agg".into(),
            ],
            &widths
        )
    );
    let mut agg_curve = Vec::new();
    for n in scales {
        let flat = run_flat(n);
        let hier = run_hier(n);
        agg_curve.push((n as f64, hier.agg_bytes_per_query as f64));
        println!(
            "{}",
            row(
                &[
                    format!("{n}"),
                    kb(flat.bytes_per_query),
                    format!("{:.0}%", flat.recovered_frac * 100.0),
                    format!("{:.1}", flat.rounds),
                    kb(hier.agg_bytes_per_query),
                    kb(hier.host_bytes_per_query),
                    kb(hier.prime_bytes),
                    format!(
                        "{:.0}x",
                        flat.bytes_per_query as f64 / hier.agg_bytes_per_query as f64
                    ),
                ],
                &widths
            )
        );
    }
    // Sublinear growth: 100x the fleet must cost well under 100x the
    // collector-facing bytes (churn is bounded, so only the per-rack
    // headers scale with n).
    let (n0, b0) = agg_curve[0];
    let (n1, b1) = agg_curve[agg_curve.len() - 1];
    let fleet_growth = n1 / n0;
    let bytes_growth = b1 / b0;
    println!(
        "\ncollector bytes/query growth {bytes_growth:.1}x across a {fleet_growth:.0}x fleet \
         (sublinear: {})",
        bytes_growth < fleet_growth
    );
    assert!(
        bytes_growth < fleet_growth * 0.6,
        "hier bytes/query must grow sublinearly ({bytes_growth:.1}x vs {fleet_growth:.0}x)"
    );
    println!(
        "§5.5 anchor: flat 100-node round = 14.2 KB; flat 100k-host query would be ≥ 14.2 MB \
         before retries — the plane's steady state above replaces it with per-rack headers \
         plus only the churned entries."
    );
}
