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

    /// Records that `req` was placed on `addr` (deducts the resources).
    pub fn commit(&mut self, addr: Address, req: &Requirement) {
        if let Some(s) = self.hosts.get_mut(&addr) {
            s.cores_free = (s.cores_free - req.cores).max(0.0);
            s.mem_free = (s.mem_free - req.mem).max(0.0);
        }
    }

    /// Releases `req` from `addr` (the task finished).
    pub fn release(&mut self, addr: Address, req: &Requirement) {
        if let Some(s) = self.hosts.get_mut(&addr) {
            s.cores_free += req.cores;
            s.mem_free += req.mem;
        }
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
                write!(f, "no candidate for `{variable}` satisfies the CPU/memory requirement")
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
        let p = hdfs_write_query(Address(1), &nodes, 3, 1e6).resolve().unwrap();
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
        let p = hdfs_write_query(Address(1), &nodes, 2, 1e6).resolve().unwrap();
        let t = table(&[(2, 8.0, 8.0 * GB), (3, 8.0, 8.0 * GB)]); // 4 unknown
        let f = filter_candidates(&p, &t, &Requirement { cores: 1.0, mem: GB }).unwrap();
        assert_eq!(f.vars[0].candidates.len(), 2);
    }

    #[test]
    fn infeasible_pool_is_an_error() {
        let nodes: Vec<Address> = (2..4).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 2, 1e6).resolve().unwrap();
        let t = table(&[(2, 0.5, GB), (3, 0.5, GB)]);
        let err = filter_candidates(&p, &t, &Requirement { cores: 1.0, mem: 0.0 }).unwrap_err();
        assert!(matches!(err, ScalarError::NoFeasibleCandidate { .. }));
    }

    #[test]
    fn commit_and_release_track_occupancy() {
        let mut t = table(&[(2, 2.0, 4.0 * GB)]);
        let req = Requirement { cores: 1.5, mem: GB };
        t.commit(Address(2), &req);
        assert!(!t.get(Address(2)).unwrap().satisfies(&Requirement {
            cores: 1.0,
            mem: 0.0
        }));
        t.release(Address(2), &req);
        assert!(t.get(Address(2)).unwrap().satisfies(&req));
    }

    #[test]
    fn zero_requirement_keeps_known_hosts() {
        let nodes: Vec<Address> = (2..4).map(Address).collect();
        let p = hdfs_write_query(Address(1), &nodes, 2, 1e6).resolve().unwrap();
        let t = table(&[(2, 0.0, 0.0), (3, 0.0, 0.0)]);
        let f = filter_candidates(&p, &t, &Requirement::default()).unwrap();
        assert_eq!(f.vars[0].candidates.len(), 2);
    }
}
