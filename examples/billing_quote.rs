//! Workload-described billing and scalar CPU/memory requirements — the
//! §7 future-work features.
//!
//! Both are extensions built on the CloudTalk core, not part of it: they
//! live here, in the `billing` and `scalar` modules below, and the
//! library crates know nothing of them. `cargo test --example
//! billing_quote` runs their unit tests (tier-1 `cargo test` does too).
//!
//! ```text
//! cargo run --example billing_quote
//! ```

use billing::{quote, PriceSchedule};
use cloudtalk_repro::core::heuristic::{evaluate_query, HeuristicConfig};
use cloudtalk_repro::lang::builder::hdfs_write_query;
use cloudtalk_repro::lang::problem::Address;
use estimator::{HostState, World};
use scalar::{filter_candidates, Requirement, ScalarState, ScalarTable};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

fn main() {
    // A tenant wants to write a 1 GiB file, 3-way replicated, and asks
    // for a price quote up front (§7: "request a price quota from the
    // provider, given the communication will terminate with respect to
    // the specified parameters").
    let nodes: Vec<Address> = (2..10).map(Address).collect();
    let builder = hdfs_write_query(Address(1), &nodes, 3, GIB);
    println!("query:\n{}\n", builder.text());
    let problem = builder.resolve().expect("well-formed");

    // The provider also knows each host's free CPU/memory; the tenant's
    // task needs 2 cores and 4 GiB wherever it lands.
    let mut scalars = ScalarTable::new();
    for (i, &a) in nodes.iter().enumerate() {
        scalars.set(
            a,
            ScalarState {
                cores_free: if i % 3 == 0 { 1.0 } else { 8.0 },
                mem_free: 16.0 * GIB,
            },
        );
    }
    let req = Requirement {
        cores: 2.0,
        mem: 4.0 * GIB,
    };
    let feasible = filter_candidates(&problem, &scalars, &req).expect("some hosts fit");
    println!(
        "scalar filter: {} of {} candidates have >=2 cores and >=4 GiB free",
        feasible.vars[0].candidates.len(),
        problem.vars[0].candidates.len()
    );

    // Evaluate placement on the filtered problem, then quote it.
    let world = World::uniform(&problem.mentioned_addresses(), HostState::gbps_idle());
    let binding = evaluate_query(&feasible, &world, &HeuristicConfig::default());
    let schedule = PriceSchedule::default();
    let q = quote(&feasible, &binding, &world, &schedule).expect("feasible binding");

    println!("\nrecommended pipeline: {binding:?}");
    println!("quote:");
    println!("  network volume: {:>7.2} GiB", q.network_gib);
    println!("  disk volume:    {:>7.2} GiB", q.disk_gib);
    println!("  servers:        {:>7}", q.servers);
    println!("  est. duration:  {:>7.2} s", q.duration_secs);
    println!(
        "  price:          {:>9.6} (after the {:.0}% described-workload discount)",
        q.price,
        (1.0 - schedule.described_workload_discount) * 100.0
    );
}

mod billing {
    //! Workload-described billing (paper §7, future work).
    //!
    //! "CloudTalk can also enable new billing possibilities. Cloud providers
    //! can offer lower rates to incentivise clients to describe their
    //! workloads (potentially in advance) using queries; this information can
    //! be used for better resource planning. Clients could also use CloudTalk
    //! queries to describe a particular workload, and then request a price
    //! quota from the provider, given the communication will terminate with
    //! respect to the specified parameters."
    //!
    //! A [`PriceSchedule`] turns a bound problem into a [`Quote`]: data
    //! volumes from the query's flow sizes, duration from the flow-level
    //! estimator, and a transparency discount for workloads described up
    //! front.

    use cloudtalk_lang::ast::AttrKind;
    use cloudtalk_lang::problem::{Binding, BoundEndpoint, Problem};
    use estimator::{estimate, resolve_static_sizes, EstimateError, World};

    /// Provider pricing, in currency units.
    #[derive(Clone, Copy, Debug)]
    pub struct PriceSchedule {
        /// Price per GiB crossing the network.
        pub per_network_gib: f64,
        /// Price per GiB read from or written to local disks.
        pub per_disk_gib: f64,
        /// Price per server-second of occupancy (each distinct server involved
        /// in the task, for the task's estimated duration).
        pub per_server_second: f64,
        /// Multiplier applied when the workload was described via a CloudTalk
        /// query (< 1: the §7 incentive; the provider gains planning insight).
        pub described_workload_discount: f64,
    }

    impl Default for PriceSchedule {
        fn default() -> Self {
            PriceSchedule {
                per_network_gib: 0.01,
                per_disk_gib: 0.002,
                per_server_second: 0.0001,
                described_workload_discount: 0.85,
            }
        }
    }

    /// A binding's price quote.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Quote {
        /// GiB moved over the network.
        pub network_gib: f64,
        /// GiB moved to/from disks.
        pub disk_gib: f64,
        /// Distinct servers occupied.
        pub servers: usize,
        /// Estimated task duration, seconds.
        pub duration_secs: f64,
        /// Total price, after the description discount.
        pub price: f64,
    }

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    /// Quotes a bound problem under `schedule`, with completion time estimated
    /// against `world`.
    pub fn quote(
        problem: &Problem,
        binding: &Binding,
        world: &World,
        schedule: &PriceSchedule,
    ) -> Result<Quote, EstimateError> {
        let sizes = resolve_static_sizes(problem)?;
        let est = estimate(problem, binding, world)?;

        let mut network_gib = 0.0;
        let mut disk_gib = 0.0;
        let mut servers: Vec<BoundEndpoint> = Vec::new();
        for (flow, &size) in problem.flows.iter().zip(&sizes) {
            let src = flow.src.bound(binding);
            let dst = flow.dst.bound(binding);
            let is_disk = matches!(src, BoundEndpoint::Disk) || matches!(dst, BoundEndpoint::Disk);
            // `transfer` constants are work already done; don't bill it twice.
            let already = flow
                .attr(AttrKind::Transfer)
                .and_then(|e| e.as_const())
                .unwrap_or(0.0);
            let billable = (size - already).max(0.0) / GIB;
            if is_disk {
                disk_gib += billable;
            } else if src != dst {
                network_gib += billable;
            }
            for ep in [src, dst] {
                if matches!(ep, BoundEndpoint::Host(_)) && !servers.contains(&ep) {
                    servers.push(ep);
                }
            }
        }

        let raw = network_gib * schedule.per_network_gib
            + disk_gib * schedule.per_disk_gib
            + servers.len() as f64 * est.makespan * schedule.per_server_second;
        Ok(Quote {
            network_gib,
            disk_gib,
            servers: servers.len(),
            duration_secs: est.makespan,
            price: raw * schedule.described_workload_discount,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query};
        use cloudtalk_lang::problem::{Address, Value};
        use estimator::HostState;

        fn world(p: &Problem) -> World {
            World::uniform(&p.mentioned_addresses(), HostState::gbps_idle())
        }

        #[test]
        fn read_quote_counts_one_network_crossing() {
            let p = hdfs_read_query(Address(1), &[Address(2)], GIB)
                .resolve()
                .unwrap();
            let q = quote(
                &p,
                &vec![Value::Addr(Address(2))],
                &world(&p),
                &PriceSchedule::default(),
            )
            .unwrap();
            assert!((q.network_gib - 1.0).abs() < 1e-9);
            assert_eq!(q.disk_gib, 0.0);
            assert_eq!(q.servers, 2);
            assert!(q.duration_secs > 0.0);
            assert!(q.price > 0.0);
        }

        #[test]
        fn write_quote_includes_disk_volume() {
            let nodes: Vec<Address> = (2..8).map(Address).collect();
            let p = hdfs_write_query(Address(1), &nodes, 3, GIB)
                .resolve()
                .unwrap();
            let binding = vec![
                Value::Addr(Address(2)),
                Value::Addr(Address(3)),
                Value::Addr(Address(4)),
            ];
            let q = quote(&p, &binding, &world(&p), &PriceSchedule::default()).unwrap();
            // 3 network hops + 3 disk writes of 1 GiB each.
            assert!((q.network_gib - 3.0).abs() < 1e-9, "{q:?}");
            assert!((q.disk_gib - 3.0).abs() < 1e-9, "{q:?}");
            assert_eq!(q.servers, 4, "client + 3 replicas");
        }

        #[test]
        fn discount_lowers_price() {
            let p = hdfs_read_query(Address(1), &[Address(2)], GIB)
                .resolve()
                .unwrap();
            let b = vec![Value::Addr(Address(2))];
            let w = world(&p);
            let list = PriceSchedule {
                described_workload_discount: 1.0,
                ..Default::default()
            };
            let discounted = PriceSchedule::default();
            let q_list = quote(&p, &b, &w, &list).unwrap();
            let q_disc = quote(&p, &b, &w, &discounted).unwrap();
            assert!(q_disc.price < q_list.price);
            assert!((q_disc.price / q_list.price - 0.85).abs() < 1e-9);
        }

        #[test]
        fn loopback_flows_are_free_on_the_network() {
            let mut b = cloudtalk_lang::builder::QueryBuilder::new();
            b.flow("f1")
                .from_addr(Address(1))
                .to_addr(Address(1))
                .size(GIB);
            let p = b.resolve().unwrap();
            let q = quote(&p, &vec![], &world(&p), &PriceSchedule::default()).unwrap();
            assert_eq!(q.network_gib, 0.0);
        }

        #[test]
        fn better_binding_quotes_cheaper() {
            // A busy replica takes longer → more server-seconds → pricier.
            let p = hdfs_read_query(Address(1), &[Address(2), Address(3)], GIB)
                .resolve()
                .unwrap();
            let mut w = world(&p);
            w.set(Address(2), HostState::gbps_idle().with_up_load(0.9));
            let sched = PriceSchedule::default();
            let busy = quote(&p, &vec![Value::Addr(Address(2))], &w, &sched).unwrap();
            let idle = quote(&p, &vec![Value::Addr(Address(3))], &w, &sched).unwrap();
            assert!(busy.price > idle.price);
        }
    }
}

mod scalar {
    //! Scalar CPU/memory resources (paper §7, future work).
    //!
    //! "One way to introduce these resources without too much added
    //! complexity is to consider both as scalar values: an endpoint may
    //! require some number of CPU cores, and a certain amount of memory.
    //! Together with the other CloudTalk features, this could enable a more
    //! precise offline description of workload requirements, which can guide
    //! the VM acquisition process."
    //!
    //! A [`ScalarTable`] records each host's free cores and memory; a
    //! [`Requirement`] filters a problem's candidate pools down to hosts that
    //! can actually host the task, *before* the I/O heuristic ranks them.

    use cloudtalk_lang::problem::{Address, Problem, Value};
    use cloudtalk_lang::WordMap;

    /// Free scalar resources on one host.
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub struct ScalarState {
        /// Unallocated CPU cores.
        pub cores_free: f64,
        /// Unallocated memory, bytes.
        pub mem_free: f64,
    }

    /// What a task needs from the host it lands on.
    #[derive(Clone, Copy, PartialEq, Debug, Default)]
    pub struct Requirement {
        /// CPU cores required.
        pub cores: f64,
        /// Memory required, bytes.
        pub mem: f64,
    }

    impl ScalarState {
        /// Whether this host satisfies `req`.
        pub fn satisfies(&self, req: &Requirement) -> bool {
            self.cores_free >= req.cores && self.mem_free >= req.mem
        }
    }

    /// Per-host scalar resource inventory.
    #[derive(Clone, Debug, Default)]
    pub struct ScalarTable {
        hosts: WordMap<Address, ScalarState>,
    }

    impl ScalarTable {
        /// An empty inventory (unknown hosts are assumed to satisfy nothing).
        pub fn new() -> Self {
            Self::default()
        }

        /// Sets one host's free resources.
        pub fn set(&mut self, addr: Address, state: ScalarState) {
            self.hosts.insert(addr, state);
        }

        /// One host's state, if known.
        pub fn get(&self, addr: Address) -> Option<ScalarState> {
            self.hosts.get(&addr).copied()
        }
    }

    /// Errors from scalar filtering.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ScalarError {
        /// A variable's pool has no candidate satisfying the requirement.
        NoFeasibleCandidate {
            /// The variable's name.
            variable: String,
        },
    }

    impl std::fmt::Display for ScalarError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ScalarError::NoFeasibleCandidate { variable } => {
                    write!(
                        f,
                        "no candidate for `{variable}` satisfies the CPU/memory requirement"
                    )
                }
            }
        }
    }

    impl std::error::Error for ScalarError {}

    /// Returns a copy of `problem` whose candidate pools contain only hosts
    /// with enough free cores/memory for `req`. Run this before the I/O
    /// evaluation; unknown hosts are filtered out (pessimistic).
    pub fn filter_candidates(
        problem: &Problem,
        table: &ScalarTable,
        req: &Requirement,
    ) -> Result<Problem, ScalarError> {
        let mut filtered = problem.clone();
        for var in &mut filtered.vars {
            let kept: Vec<Value> = var
                .candidates
                .iter()
                .filter(|v| match v {
                    Value::Addr(a) => table.get(*a).is_some_and(|s| s.satisfies(req)),
                    // `disk` candidates don't occupy a new host.
                    Value::Disk => true,
                })
                .copied()
                .collect();
            if kept.is_empty() {
                return Err(ScalarError::NoFeasibleCandidate {
                    variable: var.name.to_string(),
                });
            }
            var.candidates = kept;
        }
        Ok(filtered)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use cloudtalk_lang::builder::hdfs_write_query;

        fn table(entries: &[(u32, f64, f64)]) -> ScalarTable {
            let mut t = ScalarTable::new();
            for &(a, cores, mem) in entries {
                t.set(
                    Address(a),
                    ScalarState {
                        cores_free: cores,
                        mem_free: mem,
                    },
                );
            }
            t
        }

        const GB: f64 = 1e9;

        #[test]
        fn filters_out_full_hosts() {
            let nodes: Vec<Address> = (2..6).map(Address).collect();
            let p = hdfs_write_query(Address(1), &nodes, 3, 1e6)
                .resolve()
                .unwrap();
            let t = table(&[
                (2, 4.0, 8.0 * GB),
                (3, 0.0, 8.0 * GB), // no cores left
                (4, 4.0, 0.5 * GB), // not enough memory
                (5, 2.0, 4.0 * GB),
            ]);
            let req = Requirement {
                cores: 1.0,
                mem: GB,
            };
            let f = filter_candidates(&p, &t, &req).unwrap();
            for var in &f.vars {
                assert_eq!(
                    var.candidates,
                    vec![Value::Addr(Address(2)), Value::Addr(Address(5))]
                );
            }
        }

        #[test]
        fn unknown_hosts_are_pessimistically_dropped() {
            let nodes: Vec<Address> = (2..5).map(Address).collect();
            let p = hdfs_write_query(Address(1), &nodes, 2, 1e6)
                .resolve()
                .unwrap();
            let t = table(&[(2, 8.0, 8.0 * GB), (3, 8.0, 8.0 * GB)]); // 4 unknown
            let f = filter_candidates(
                &p,
                &t,
                &Requirement {
                    cores: 1.0,
                    mem: GB,
                },
            )
            .unwrap();
            assert_eq!(f.vars[0].candidates.len(), 2);
        }

        #[test]
        fn infeasible_pool_is_an_error() {
            let nodes: Vec<Address> = (2..4).map(Address).collect();
            let p = hdfs_write_query(Address(1), &nodes, 2, 1e6)
                .resolve()
                .unwrap();
            let t = table(&[(2, 0.5, GB), (3, 0.5, GB)]);
            let err = filter_candidates(
                &p,
                &t,
                &Requirement {
                    cores: 1.0,
                    mem: 0.0,
                },
            )
            .unwrap_err();
            assert!(matches!(err, ScalarError::NoFeasibleCandidate { .. }));
        }

        #[test]
        fn zero_requirement_keeps_known_hosts() {
            let nodes: Vec<Address> = (2..4).map(Address).collect();
            let p = hdfs_write_query(Address(1), &nodes, 2, 1e6)
                .resolve()
                .unwrap();
            let t = table(&[(2, 0.0, 0.0), (3, 0.0, 0.0)]);
            let f = filter_candidates(&p, &t, &Requirement::default()).unwrap();
            assert_eq!(f.vars[0].candidates.len(), 2);
        }
    }
}
