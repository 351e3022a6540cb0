//! Deterministic chaos suite: the answer pipeline under injected faults.
//!
//! For seeded [`FaultPlan`]s spanning every fault class — transport loss,
//! partitions, stale reports, corrupted readings, stragglers — the server
//! must never panic, always return a valid binding, report which rung of
//! the degradation ladder answered, and (when the faults are transient)
//! recover ≥ 90 % of initially-missing hosts via retry/backoff. Answer
//! quality is measured on the fig3-style daisy-chain scenario by
//! estimating the recommended binding against the *true* world and
//! comparing with the fault-free recommendation.

use cloudtalk::faults::{FaultIntensity, FaultPlan, FaultySource, Window};
use cloudtalk::server::{CloudTalkServer, DegradationRung, ServerConfig};
use cloudtalk::status::TableStatusSource;
use cloudtalk::transport::{RetryPolicy, TransportConfig};
use cloudtalk_lang::builder::daisy_chain_query;
use cloudtalk_lang::problem::{Address, Problem, Value};
use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use estimator::{estimate, HostState, World};
use rand::Rng;

const N_HOSTS: u32 = 20;
const SEEDS: [u64; 3] = [11, 29, 47];

/// The fig3 daisy chain: three variables over the full fleet,
/// `f1 x1 -> x2 size 100M; f2 x2 -> x3 size sz(f1) transfer t(f1)`.
fn daisy_problem(addrs: &[Address]) -> Problem {
    daisy_chain_query(addrs, 3, 100.0 * 1024.0 * 1024.0)
        .resolve()
        .expect("well-formed")
}

fn addrs() -> Vec<Address> {
    (1..=N_HOSTS).map(Address).collect()
}

/// A bimodal true world (the fig3 setup): each host idle or ~90 % loaded.
fn bimodal_world(seed: u64) -> World {
    let mut rng = stream_rng(seed, 0xB1);
    let mut w = World::new();
    for a in addrs() {
        let s = if rng.gen_bool(0.5) {
            HostState::gbps_idle()
        } else {
            HostState::gbps_idle().with_up_load(0.9).with_down_load(0.9)
        };
        w.set(a, s);
    }
    w
}

fn source_from(world: &World) -> TableStatusSource {
    let mut s = TableStatusSource::new();
    for (&a, &st) in world.iter() {
        s.set(a, st);
    }
    s
}

/// The world with every load inverted — what stale reports claim.
fn inverted(world: &World) -> World {
    let mut out = World::new();
    for (&a, &s) in world.iter() {
        let flipped = if s.nic_up_used > 0.0 {
            HostState::gbps_idle()
        } else {
            HostState::gbps_idle().with_up_load(0.9).with_down_load(0.9)
        };
        out.set(a, flipped);
    }
    out
}

fn server(seed: u64) -> CloudTalkServer {
    server_with(seed, TransportConfig::default())
}

fn server_with(seed: u64, transport: TransportConfig) -> CloudTalkServer {
    CloudTalkServer::new(ServerConfig {
        seed,
        transport,
        ..ServerConfig::default()
    })
}

/// Asserts the binding is structurally valid for the daisy problem:
/// complete, drawn from the candidate pools, distinct within the pool.
fn assert_valid_binding(problem: &Problem, binding: &[Value]) {
    assert_eq!(binding.len(), problem.vars.len(), "complete binding");
    for (i, v) in binding.iter().enumerate() {
        assert!(
            problem.vars[i].candidates.contains(v),
            "binding[{i}] = {v:?} not a declared candidate"
        );
    }
    let distinct: std::collections::HashSet<&Value> = binding.iter().collect();
    assert_eq!(distinct.len(), binding.len(), "distinct-pool values reused");
}

/// Estimated daisy-chain throughput of `binding` on the true world.
fn true_throughput(problem: &Problem, binding: &[Value], world: &World) -> f64 {
    estimate(problem, &binding.to_vec(), world)
        .expect("daisy binding is always estimable")
        .throughput
}

/// Runs one faulted query and the matching fault-free baseline; returns
/// (quality ratio, answer) where the ratio is faulted throughput over
/// fault-free throughput, both measured on the true world.
fn quality_under(
    seed: u64,
    plan: FaultPlan,
    stale_view: Option<World>,
    transport: TransportConfig,
) -> (f64, cloudtalk::server::Answer) {
    let world = bimodal_world(seed);
    let problem = daisy_problem(&addrs());

    let baseline = server_with(seed, transport)
        .answer_problem(&problem, &mut source_from(&world), SimTime::ZERO)
        .expect("fault-free answer");
    assert_eq!(baseline.provenance.rung, DegradationRung::Full);
    let tp_free = true_throughput(&problem, &baseline.binding, &world);
    assert!(tp_free > 0.0, "baseline must make progress");

    let mut faulty = FaultySource::new(source_from(&world), plan);
    if let Some(view) = stale_view {
        faulty = faulty.with_stale_world(view);
    }
    let answer = server_with(seed, transport)
        .answer_problem(&problem, &mut faulty, SimTime::ZERO)
        .expect("faulted queries still answer");
    assert_valid_binding(&problem, &answer.binding);
    let tp_faulty = true_throughput(&problem, &answer.binding, &world);
    (tp_faulty / tp_free, answer)
}

#[test]
fn transient_loss_recovers_and_quality_holds() {
    // knee 8 at 20-way fan-out → ~33 % per-reply loss in round one;
    // retries shrink the target set, so four retries recover everyone.
    let transport = TransportConfig {
        knee: 8,
        retry: RetryPolicy {
            max_retries: 4,
            ..RetryPolicy::default()
        },
        ..TransportConfig::default()
    };
    for seed in SEEDS {
        let (ratio, a) = quality_under(seed, FaultPlan::none(), None, transport);
        let recovered = a.interrogated - a.missing;
        assert!(
            a.missing * 10 <= a.interrogated,
            "seed {seed}: transient loss must recover ≥90% of hosts \
             ({recovered}/{} answered over {} rounds)",
            a.interrogated,
            a.provenance.gather_rounds
        );
        assert!(a.provenance.gather_rounds > 1, "loss must trigger retries");
        assert!(
            ratio >= 0.9,
            "seed {seed}: recovered data must give a near-fault-free answer, got {ratio:.2}"
        );
    }
}

#[test]
fn stragglers_are_recovered_by_retries() {
    for seed in SEEDS {
        // Every host misses the first round; all answer on the retry.
        let mut plan = FaultPlan::none();
        for a in addrs() {
            plan = plan.straggle(a, 1);
        }
        let (ratio, a) = quality_under(seed, plan, None, TransportConfig::default());
        assert_eq!(a.missing, 0, "seed {seed}: stragglers fully recovered");
        assert_eq!(a.provenance.gather_rounds, 2, "one retry sufficed");
        assert_eq!(a.provenance.rung, DegradationRung::Full);
        assert!(
            ratio >= 0.999,
            "seed {seed}: full recovery must reproduce the fault-free answer, got {ratio:.3}"
        );
    }
}

#[test]
fn rack_partition_degrades_gracefully() {
    for seed in SEEDS {
        // One "rack" (a quarter of the fleet) partitioned away, plus one
        // extra crashed host — none of them can ever answer.
        let rack: Vec<Address> = (1..=5).map(Address).collect();
        let plan = FaultPlan::none()
            .partition_group(rack, Window::always())
            .crash(Address(6), Window::always());
        let (ratio, a) = quality_under(seed, plan, None, TransportConfig::default());
        assert_eq!(a.missing, 6, "silenced hosts stay missing after retries");
        // 14 of 20 fresh → freshness 0.7: still answers, possibly degraded.
        assert!(
            matches!(
                a.provenance.rung,
                DegradationRung::Full | DegradationRung::FreshSubset
            ),
            "seed {seed}: rung {:?}",
            a.provenance.rung
        );
        // The answer can only place on the surviving 14 hosts; the best
        // binding may be lost with them, but a bounded-quality one remains.
        assert!(
            ratio >= 0.3,
            "seed {seed}: partition answer too far from fault-free: {ratio:.2}"
        );
        for v in &a.binding {
            let Value::Addr(addr) = v else { panic!("disk binding") };
            assert!(addr.0 > 6, "placed on a silenced host: {addr:?}");
        }
    }
}

#[test]
fn stale_reports_are_discounted_not_trusted() {
    for seed in SEEDS {
        let world = bimodal_world(seed);
        // Half the fleet serves 5-second-old reports from an *inverted*
        // world — trusting them would steer flows onto the busiest hosts.
        let mut plan = FaultPlan::none();
        for a in addrs().into_iter().filter(|a| a.0 % 2 == 0) {
            plan = plan.stale(a, SimDuration::from_secs_f64(5.0));
        }
        let (ratio, a) =
            quality_under(seed, plan, Some(inverted(&world)), TransportConfig::default());
        assert_eq!(
            a.provenance.rung,
            DegradationRung::FreshSubset,
            "seed {seed}: freshness {:.2}",
            a.freshness
        );
        assert!(a.freshness > 0.2 && a.freshness < 0.7);
        assert!(
            ratio >= 0.3,
            "seed {seed}: fresh-subset answer too far off: {ratio:.2}"
        );
    }
}

#[test]
fn provenance_names_exactly_the_staleness_dropped_hosts() {
    // Same fault plan as `stale_reports_are_discounted_not_trusted`: every
    // even-numbered host serves 5-second-old reports (fresh_max_age is
    // 1 s), the odd half stays fresh. The answer's provenance must name
    // exactly the dropped hosts — sorted, no duplicates, nobody missing.
    for seed in SEEDS {
        let world = bimodal_world(seed);
        let mut plan = FaultPlan::none();
        for a in addrs().into_iter().filter(|a| a.0 % 2 == 0) {
            plan = plan.stale(a, SimDuration::from_secs_f64(5.0));
        }
        let (_, a) =
            quality_under(seed, plan, Some(inverted(&world)), TransportConfig::default());
        assert_eq!(a.provenance.rung, DegradationRung::FreshSubset);
        // Degraded rungs answer with the heuristic.
        assert_eq!(a.provenance.backend, cloudtalk::Backend::Heuristic);
        let expected: Vec<Address> =
            addrs().into_iter().filter(|a| a.0 % 2 == 0).collect();
        assert_eq!(
            a.provenance.stale_dropped, expected,
            "seed {seed}: stale_dropped must be exactly the stale half, sorted"
        );
        // The per-phase span tree is recorded by default.
        for name in ["answer", "collect", "sanitise", "search", "bind"] {
            assert!(
                a.provenance.trace.span(name).is_some(),
                "seed {seed}: missing span {name:?}"
            );
        }
    }
}

#[test]
fn corrupted_readings_are_sanitised_before_evaluation() {
    for seed in SEEDS {
        // 40 % of hosts return garbage; the sanitisation choke point must
        // keep the evaluation finite and the answer close to fault-free.
        let plan = FaultPlan::seeded(
            seed,
            &addrs(),
            &FaultIntensity {
                corrupt_frac: 0.4,
                crash_frac: 0.0,
                partition_frac: 0.0,
                straggler_frac: 0.0,
                max_straggler_rounds: 0,
                stale_frac: 0.0,
                stale_age: SimDuration::ZERO,
            },
        );
        let (ratio, a) = quality_under(seed, plan, None, TransportConfig::default());
        let rung = a.provenance.rung;
        assert_eq!(rung, DegradationRung::Full, "corruption is invisible to freshness");
        assert!(ratio > 0.0, "seed {seed}: corrupted data must not zero the answer");
        assert!(
            ratio.is_finite(),
            "seed {seed}: garbage leaked into the quality arithmetic"
        );
    }
}

#[test]
fn kitchen_sink_chaos_never_panics_and_always_answers() {
    // Every fault class at once, many seeds: the server must answer every
    // time with a valid binding and a reported rung — never panic, never
    // return garbage.
    let problem = daisy_problem(&addrs());
    for seed in 0..12u64 {
        let world = bimodal_world(seed);
        let plan = FaultPlan::seeded(seed, &addrs(), &FaultIntensity::chaos());
        let mut src = FaultySource::new(source_from(&world), plan)
            .with_stale_world(inverted(&world));
        let a = server(seed)
            .answer_problem(&problem, &mut src, SimTime::ZERO)
            .expect("chaos must not break the answer path");
        assert_valid_binding(&problem, &a.binding);
        assert!((0.0..=1.0).contains(&a.freshness), "freshness {}", a.freshness);
        // The rung must be consistent with the observed freshness.
        let expected = ServerConfig::default().degradation.rung_for(a.freshness);
        assert_eq!(a.provenance.rung, expected);
        let tp = true_throughput(&problem, &a.binding, &world);
        assert!(tp.is_finite() && tp > 0.0, "seed {seed}: throughput {tp}");
    }
}

#[test]
fn crashed_server_recovers_after_restart_window() {
    let world = bimodal_world(3);
    let problem = daisy_problem(&addrs());
    // Host 1 crashed until t = 1 s.
    let plan = FaultPlan::none().crash(
        Address(1),
        Window::between(SimTime::ZERO, SimTime::from_secs_f64(1.0)),
    );
    let mut src = FaultySource::new(source_from(&world), plan);
    let mut srv = server(3);
    let a = srv.answer_problem(&problem, &mut src, SimTime::ZERO).unwrap();
    assert_eq!(a.missing, 1, "crashed host missing before restart");
    let b = srv
        .answer_problem(&problem, &mut src, SimTime::from_secs_f64(2.0))
        .unwrap();
    assert_eq!(b.missing, 0, "restarted host answers again");
    assert_eq!(b.provenance.rung, DegradationRung::Full);
}

#[test]
fn chaos_is_deterministic_given_seed() {
    let problem = daisy_problem(&addrs());
    let run = |seed: u64| {
        let world = bimodal_world(seed);
        let plan = FaultPlan::seeded(seed, &addrs(), &FaultIntensity::chaos());
        let mut src =
            FaultySource::new(source_from(&world), plan).with_stale_world(inverted(&world));
        server(seed)
            .answer_problem(&problem, &mut src, SimTime::ZERO)
            .unwrap()
    };
    for seed in SEEDS {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.binding, b.binding);
        assert_eq!(a.provenance.rung, b.provenance.rung);
        assert_eq!(a.freshness, b.freshness);
        assert_eq!(a.provenance.gather_rounds, b.provenance.gather_rounds);
    }
}
