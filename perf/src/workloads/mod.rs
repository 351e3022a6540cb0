//! The five workloads and what they share: the pass contract, the answer
//! digest, and the seeded fleet generator.
//!
//! Every workload is a fixed schedule of timed units. A *pass* constructs
//! fresh state (that construction plus the first unit is the set-up
//! time), then runs the whole schedule on one closed-loop driver thread —
//! one operation in flight, every backend single-threaded — timing each
//! unit with `Instant`.
//!
//! The contract compares runs on *different* seeds, `quality_s` to
//! 0.1 %. So whatever decides a decision — which shapes meet which loads,
//! which pools overlap, what the applications randomise — is fixed by the
//! schedule, and the seed chooses among inputs the program must treat
//! alike: which address plays which part, the order of independent
//! operations, the last digits of a size. Each workload's module says
//! what its seed moves.

use std::collections::BTreeMap;
use std::time::Instant;

use cloudtalk_lang::problem::{Address, Binding, Value};
use desim::rng::DetRng;
use estimator::HostState;
use rand::seq::SliceRandom;

use crate::proc;
use crate::trace::Tracer;

pub mod apps;
pub mod fleet;
pub mod hint;
pub mod search;

/// Scale of the schedules: `Full` for measurement, `Smoke` for a < 10 s
/// end-to-end check of every code path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// What a pass hands the workload.
pub struct PassCtx<'a> {
    /// Re-score every decision against ground truth and run the checks
    /// that are too dear for every pass. Scoring happens between timed
    /// units, never inside one.
    pub score: bool,
    pub tr: &'a mut Tracer,
    pub units: &'a mut Units,
}

/// Wall-clock and process CPU time of every timed segment of a pass, in
/// schedule order, and where the timed units end. A unit is one or more
/// back-to-back segments; see [`crate::denoise`].
#[derive(Default)]
pub struct Units {
    pub lat_ns: Vec<u64>,
    pub cpu_ns: Vec<u64>,
    /// `unit_ends[u]`: segments in units `0..=u`.
    pub unit_ends: Vec<usize>,
}

/// The open segment of the open unit; see [`Units::begin`].
pub struct Mark {
    cpu_ns: u64,
    t: Instant,
}

impl Units {
    pub fn with_capacity(n: usize) -> Self {
        Units {
            lat_ns: Vec::with_capacity(n),
            cpu_ns: Vec::with_capacity(n),
            unit_ends: Vec::with_capacity(n),
        }
    }

    pub fn clear(&mut self) {
        self.lat_ns.clear();
        self.cpu_ns.clear();
        self.unit_ends.clear();
    }

    /// Opens a timed unit and its first segment. The CPU clock is a system
    /// call, so it is read outside the wall-clock window.
    #[inline]
    pub fn begin(&self) -> Mark {
        let cpu_ns = proc::cpu_ns();
        Mark {
            cpu_ns,
            t: Instant::now(),
        }
    }

    /// Closes the open segment and opens the next one of the same unit.
    #[inline]
    pub fn split(&mut self, m: &mut Mark) {
        self.lat_ns.push(m.t.elapsed().as_nanos() as u64);
        let cpu_ns = proc::cpu_ns();
        self.cpu_ns.push(cpu_ns.saturating_sub(m.cpu_ns));
        m.cpu_ns = cpu_ns;
        m.t = Instant::now();
    }

    /// Closes the open segment and the unit.
    #[inline]
    pub fn end(&mut self, mut m: Mark) {
        self.split(&mut m);
        self.unit_ends.push(self.lat_ns.len());
    }
}

/// What a pass hands back.
#[derive(Default, Debug)]
pub struct PassOut {
    /// Fresh state constructed, primed, and the first unit answered.
    pub setup_ns: u64,
    /// Hash of every answer, in schedule order; must repeat across passes.
    pub digest: u64,
    pub attempted: u64,
    /// Errors and `Overloaded` rejections.
    pub failed: u64,
    /// Mean simulated completion time of the decisions (scored passes).
    pub quality_s: Option<f64>,
    /// Counts read from the layers' public stats at the end of the pass.
    pub counts: BTreeMap<&'static str, f64>,
    /// A correctness gate that failed during the pass.
    pub violation: Option<String>,
}

pub trait Workload {
    /// Timed units per pass.
    fn units(&self) -> usize;
    /// Operations per timed unit (64 for a wave, else 1).
    fn ops_per_unit(&self) -> usize {
        1
    }
    fn pass(&self, cx: &mut PassCtx<'_>) -> PassOut;
    /// Gates beyond the per-pass digest that need a replay of their own,
    /// run once per run against the first (scored) pass.
    fn verify(&self, _first: &PassOut) -> Result<(), String> {
        Ok(())
    }
    /// Direct layer probes homed on this workload, for the traced run:
    /// `first` is the scored pass, `budget_s` the wall-clock they may spend.
    fn probes(&self, first: &PassOut, budget_s: f64, out: &mut BTreeMap<&'static str, f64>);
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hint_cold" => Box::new(hint::Hint::generate(seed, false, scale)),
        "hint_hot" => Box::new(hint::Hint::generate(seed, true, scale)),
        "search_exact" => Box::new(search::Search::generate(seed, scale)),
        "status_fleet" => Box::new(fleet::Fleet::generate(seed, scale)),
        "paper_apps" => Box::new(apps::Apps::generate(seed, scale)),
        _ => return None,
    })
}

/// FNV-1a over the answers of a pass.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn binding(&mut self, b: &Binding) {
        self.u64(b.len() as u64);
        for v in b {
            self.u64(match v {
                Value::Addr(a) => u64::from(a.0),
                Value::Disk => u64::MAX,
            });
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Min-of-`reps` wall-clock of `f`, ns — the probe-sized version of the
/// per-unit minimum.
pub fn min_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// The five load levels of the repo's fleet benches, as NIC-usage shares.
pub const LEVELS: [f64; 5] = [0.0, 0.05, 0.3, 0.6, 0.9];

/// A gigabit host whose NIC is `level` busy in both directions.
pub fn loaded(level: f64) -> HostState {
    HostState::gbps_idle()
        .with_up_load(level)
        .with_down_load(level)
}

/// `n` host states with every load level held by exactly a fifth of the
/// hosts, in seeded order.
pub fn stratified_states(n: usize, rng: &mut DetRng) -> Vec<HostState> {
    let mut levels: Vec<f64> = (0..n).map(|i| LEVELS[i % LEVELS.len()]).collect();
    levels.shuffle(rng);
    levels.into_iter().map(loaded).collect()
}

/// Address of host `h` in rack `rack`: `10.<rack/256>.<rack%256>.<h+1>`,
/// so address order is rack order and a text query shows the topology.
pub fn host_addr(rack: usize, h: usize) -> Address {
    Address(0x0A00_0000 + (rack as u32) * 256 + h as u32 + 1)
}
