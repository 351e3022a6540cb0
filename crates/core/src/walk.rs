//! The one walk over a binding space, and the one place this crate
//! spawns a thread.
//!
//! The paper has one search with two evaluators — a flow-level estimator
//! and a packet-level simulator scoring the same enumeration of bindings
//! (§4, §5.1) — and so has this crate: [`search`] enumerates, a
//! [`Walker`] scores. [`crate::exhaustive`] and [`crate::pktsearch`] are
//! walkers; [`crate::serving`] borrows only [`fan_out`].
//!
//! * **Branch** — the first variable's candidates are split into
//!   contiguous chunks, one per worker. The calling thread is worker 0
//!   and walks chunk 0 with the caller's own walker; a thread is spawned
//!   only from the second worker on, so a one-worker search (or wave)
//!   spawns nothing and allocates nothing.
//! * **Cut** — with pruning on, a prefix whose lower bound is `lb` is
//!   skipped when `lb > G` or `lb >= L` (the two-part rule, below). `G` is
//!   the incumbent shared across workers through an [`AtomicU64`] holding
//!   the `f64` bit pattern — for non-negative IEEE floats the bit order
//!   equals the numeric order, so `fetch_min` on the bits is `min` on the
//!   values — and `L` is the best score *this worker* has found so far.
//!   With pruning off no bound is asked for and nothing is compared: a
//!   walker that knows no bound answers `0.0`, which would tie-cut a
//!   `0.0` score.
//!
//! Determinism — the winner is the binding the plain sequential scan
//! returns: the first, in scan order, among those of least score. A leaf
//! replaces a worker's best only on a strict `<`, and later chunks are
//! folded into the first in first-variable order with a strict `<`. The
//! two halves of the cut rule keep that winner for different reasons:
//!
//! * `lb >= L` compares against a leaf this worker has *already scanned*.
//!   Every leaf behind `L` precedes the subtree in scan order, and no leaf
//!   of the subtree is strictly better than `L`, so none of them could
//!   have displaced it: the cut skips only leaves the scan would have
//!   looked at and passed over. This is the half that ends a search on a
//!   world full of ties. `L` starts at `INFINITY`, so before any leaf has
//!   landed the rule cuts exactly the subtrees whose bound is infinite.
//! * `lb > G` compares against a score found *anywhere* — another
//!   worker's chunk, later in scan order, or the caller's seed, which is
//!   no scanned leaf at all. Such a value says nothing about order, so
//!   equality must not cut: a subtree that merely ties `G` may hold the
//!   first-found winner. Strictly worse subtrees hold no winner at all.
//!
//! A walker may also read `G` while it scores (the packet-level walker
//! abandons a simulation that runs past it); a leaf it gives up on that
//! way is strictly worse than `G` and is reported as unscored. Only the
//! effort counters depend on the thread count — how sharp the bounds are
//! and how fast `G` propagates — never the winner.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};

use cloudtalk_lang::problem::{Binding, Problem, Value};

/// Runs `first` on the calling thread and each job of `rest` on a scoped
/// thread of its own, returning `first`'s result and `rest`'s in job
/// order. A job's panic is re-raised on the caller with its own payload.
/// With an empty `rest` no scope is opened — `thread::scope` allocates —
/// so the call costs what `first` costs.
pub(crate) fn fan_out<A, T: Send>(
    first: impl FnOnce() -> A,
    rest: impl IntoIterator<Item = impl FnOnce() -> T + Send>,
) -> (A, Vec<T>) {
    let mut rest = rest.into_iter().peekable();
    if rest.peek().is_none() {
        return (first(), Vec::new());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest.map(|job| scope.spawn(job)).collect();
        let head = first();
        let tail = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        (head, tail.collect())
    })
}

/// Refuses a binding space of more than `limit` bindings with the partial
/// product that crossed it. Runs in O(|vars|) and looks at no flow, so a
/// caller that guards first rejects a pathological query before it builds
/// or compiles anything.
pub(crate) fn space_guard(problem: &Problem, limit: u64) -> Result<(), u128> {
    let mut space: u128 = 1;
    for var in &problem.vars {
        space = space.saturating_mul(var.candidates.len() as u128);
        if space > u128::from(limit) {
            return Err(space);
        }
    }
    Ok(())
}

/// Whether binding variable `var` to `value` repeats a value one of the
/// already-bound `prefix` variables of its pool holds, in a problem that
/// wants same-pool variables distinct.
pub(crate) fn clashes(problem: &Problem, prefix: &[Value], var: usize, value: Value) -> bool {
    problem.distinct
        && prefix
            .iter()
            .enumerate()
            .any(|(j, v)| problem.vars[j].pool == problem.vars[var].pool && *v == value)
}

/// What the walk needs of a candidate evaluator: a partial binding it can
/// extend and retract, lower bounds on the prefix it stands on, and a
/// score at the leaves.
pub(crate) trait Walker {
    /// The current (partial) binding.
    fn binding(&self) -> &Binding;
    /// Binds the next variable to `value`, candidate `index` of its pool
    /// (its position in the variable's whole pool, whatever chunk the
    /// walk is in).
    fn push(&mut self, value: Value, index: usize);
    /// Unbinds the last one.
    fn pop(&mut self);
    /// `lb`, raised by whatever the current prefix newly determines —
    /// cheap enough to ask at every node. Knows nothing by default.
    fn quick_bound(&self, lb: f64) -> f64 {
        lb
    }
    /// A dearer bound on every completion of the current prefix, asked
    /// only where the quick one did not cut. `0.0` when it knows none.
    fn rated_bound(&mut self) -> f64 {
        0.0
    }
    /// Score of the (complete) binding, lower is better; `None` when it
    /// has none, or none that could still beat or tie `incumbent`.
    fn score(&mut self, incumbent: &AtomicU64) -> Option<f64>;
}

/// One worker's accumulation, and — once later chunks are folded in — the
/// search's. The best binding lives in a reused buffer (`clone_from`) so
/// recording a new best in steady state does not allocate.
#[derive(Debug, Default)]
pub(crate) struct Local {
    /// `L` of the cut rule, once a leaf has landed.
    best_score: Option<f64>,
    best_binding: Binding,
    /// Leaves handed to [`Walker::score`].
    pub(crate) leaves: u64,
    /// Prefixes cut because their bound strictly exceeded `G`.
    pub(crate) pruned: u64,
    /// Prefixes cut only because their bound reached `L`.
    pub(crate) pruned_ties: u64,
}

impl Local {
    /// The winner and its score, if any leaf scored.
    pub(crate) fn best(&self) -> Option<(&Binding, f64)> {
        self.best_score.map(|score| (&self.best_binding, score))
    }

    fn reset(&mut self) {
        let mut best_binding = std::mem::take(&mut self.best_binding);
        best_binding.clear();
        *self = Local {
            best_binding,
            ..Local::default()
        };
    }

    /// The two-part cut rule (module docs), counting the cut it makes.
    fn cuts(&mut self, lb: f64, incumbent: &AtomicU64) -> bool {
        // Strict against the shared incumbent, which may come from
        // anywhere in scan order …
        if lb > f64::from_bits(incumbent.load(Ordering::Relaxed)) {
            self.pruned += 1;
            return true;
        }
        // … and `>=` against this worker's own best only: that leaf was
        // scanned before the subtree, and nothing below beats it.
        if lb >= self.best_score.unwrap_or(f64::INFINITY) {
            self.pruned_ties += 1;
            return true;
        }
        false
    }

    /// Strict `<`: the earliest binding wins exact ties, matching the
    /// sequential scan.
    fn offer(&mut self, score: f64, binding: &Binding, incumbent: &AtomicU64) {
        if self.best_score.is_none_or(|best| score < best) {
            self.best_score = Some(score);
            self.best_binding.clone_from(binding);
            incumbent.fetch_min(score.to_bits(), Ordering::Relaxed);
        }
    }

    /// Folds in the chunk that follows this one in first-variable order:
    /// strict `<` again, so ties resolve to the earlier chunk.
    fn fold(&mut self, later: Local) {
        self.leaves += later.leaves;
        self.pruned += later.pruned;
        self.pruned_ties += later.pruned_ties;
        if let Some(score) = later.best_score {
            if self.best_score.is_none_or(|best| score < best) {
                (self.best_score, self.best_binding) = (later.best_score, later.best_binding);
            }
        }
    }
}

/// What every worker of one search shares.
#[derive(Clone, Copy)]
struct Walk<'a> {
    problem: &'a Problem,
    prune: bool,
    incumbent: &'a AtomicU64,
}

impl Walk<'_> {
    /// Scans one chunk: the subtrees under `firsts`, a contiguous run of
    /// the first variable's candidates (by index), in order.
    fn chunk<W: Walker>(self, w: &mut W, firsts: Range<usize>, local: &mut Local) {
        let lb = if self.prune { w.quick_bound(0.0) } else { 0.0 };
        self.descend(w, &firsts, lb, local);
    }

    /// Scans the subtree under the prefix `w` stands on, whose bound is
    /// `lb`. A problem with no variables is one leaf at depth 0.
    fn descend<W: Walker>(self, w: &mut W, firsts: &Range<usize>, lb: f64, local: &mut Local) {
        let depth = w.binding().len();
        if depth == self.problem.vars.len() {
            local.leaves += 1;
            if let Some(score) = w.score(self.incumbent) {
                local.offer(score, w.binding(), self.incumbent);
            }
            return;
        }
        let pool = &self.problem.vars[depth].candidates;
        let indices = if depth == 0 {
            firsts.clone()
        } else {
            0..pool.len()
        };
        for (index, &value) in indices.clone().zip(&pool[indices]) {
            if clashes(self.problem, w.binding(), depth, value) {
                continue;
            }
            w.push(value, index);
            if let Some(lb) = self.bound(w, lb, local) {
                self.descend(w, firsts, lb, local);
            }
            w.pop();
        }
    }

    /// The bound of the prefix `w` has just stepped onto, given its
    /// parent's; `None` when the prefix is cut.
    fn bound<W: Walker>(self, w: &mut W, lb: f64, local: &mut Local) -> Option<f64> {
        if !self.prune {
            return Some(lb);
        }
        // Only a prefix the quick bound cannot cut is worth the rated one.
        let lb = w.quick_bound(lb);
        if local.cuts(lb, self.incumbent) {
            return None;
        }
        let lb = lb.max(w.rated_bound());
        (!local.cuts(lb, self.incumbent)).then_some(lb)
    }
}

/// Walks every binding of `problem` (same-pool variables distinct where
/// it says so) on up to `threads` workers, leaving the winner and the
/// walk's counters in `local`. The caller walks chunk 0 with `own` — a
/// type of its own, since it may borrow what a worker thread must own —
/// and each later chunk gets a walker from `spawn`, made on the thread
/// that uses it and returned, in chunk order, once the search is over: what
/// a walker counted beside the walk comes back with it. `seed` is the
/// incumbent's starting value: any upper bound on the optimum, or
/// `INFINITY`. The caller guards the space ([`space_guard`]).
pub(crate) fn search<W0: Walker, W: Walker + Send>(
    problem: &Problem,
    threads: usize,
    prune: bool,
    seed: f64,
    local: &mut Local,
    own: &mut W0,
    spawn: impl Fn() -> W + Sync,
) -> Vec<W> {
    local.reset();
    let incumbent = AtomicU64::new(seed.to_bits());
    let walk = Walk {
        problem,
        prune,
        incumbent: &incumbent,
    };
    let firsts = problem.vars.first().map_or(0, |v| v.candidates.len());
    let threads = threads.clamp(1, firsts.max(1));
    // Contiguous chunks keep the first-variable order intact, so folding
    // them in order reproduces the sequential first-found tie-break.
    let (len, extra) = (firsts / threads, firsts % threads);
    let start = |k: usize| k * len + k.min(extra);
    let chunk = |k: usize| start(k)..start(k + 1);
    let spawn = &spawn;
    let later = (1..threads).map(|k| {
        move || {
            let (mut walker, mut local) = (spawn(), Local::default());
            walk.chunk(&mut walker, chunk(k), &mut local);
            (local, walker)
        }
    });
    let ((), later) = fan_out(|| walk.chunk(own, chunk(0), local), later);
    later
        .into_iter()
        .map(|(chunk_local, walker)| {
            local.fold(chunk_local);
            walker
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtalk_lang::builder::QueryBuilder;
    use cloudtalk_lang::problem::Address;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::{self, ThreadId};

    #[global_allocator]
    static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

    #[test]
    fn fan_out_keeps_job_order_and_runs_first_on_the_caller() {
        let job = |k: usize| move || (k, thread::current().id());
        let (head, tail) = fan_out(job(0), (1..5).map(job));
        let here = thread::current().id();
        assert_eq!(head, (0, here));
        assert_eq!(tail.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert!(tail.iter().all(|r| r.1 != here), "only `first` runs on the caller");
    }

    #[test]
    fn fan_out_alone_allocates_nothing() {
        let none = std::iter::empty::<fn() -> ThreadId>();
        let (allocs, _, (id, rest)) =
            testkit::allocs_of(|| fan_out(|| thread::current().id(), none));
        assert_eq!((id, rest.len()), (thread::current().id(), 0));
        assert_eq!(allocs, 0, "no scope without a second job");
    }

    #[test]
    fn fan_out_re_raises_a_jobs_own_panic() {
        let boom = |k: usize| move || assert!(k != 2, "boom");
        let from_rest = catch_unwind(AssertUnwindSafe(|| fan_out(boom(0), (1..4).map(boom))));
        let from_first = catch_unwind(AssertUnwindSafe(|| fan_out(boom(2), (3..5).map(boom))));
        for caught in [from_rest, from_first] {
            let payload = caught.expect_err("the job panicked");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        }
    }

    /// Scores a binding by a table full of ties; knows no bound. Checks
    /// that every value comes with its own index in its variable's pool.
    struct Toy<'a>(&'a Problem, Binding);

    fn toy_score(b: &[Value]) -> f64 {
        let v = |i: usize| match b[i] {
            Value::Addr(a) => a.0,
            Value::Disk => 0,
        };
        f64::from((v(0) * 7 + v(1) * 3 + v(2)) % 4)
    }

    impl Walker for Toy<'_> {
        fn binding(&self) -> &Binding {
            &self.1
        }
        fn push(&mut self, value: Value, index: usize) {
            assert_eq!(self.0.vars[self.1.len()].candidates[index], value);
            self.1.push(value);
        }
        fn pop(&mut self) {
            self.1.pop();
        }
        fn score(&mut self, _: &AtomicU64) -> Option<f64> {
            Some(toy_score(&self.1))
        }
    }

    #[test]
    fn search_finds_the_first_least_binding_at_any_thread_count() {
        // 3 × 3 × 2, the first two variables sharing a pool: 12 distinct
        // bindings of the 18.
        let mut b = QueryBuilder::new();
        b.variable_group(["x1".into(), "x2".into()], (1..4).map(Address));
        b.variable("x3", (4..6).map(Address));
        let problem = b.resolve().expect("well-formed");
        assert_eq!(space_guard(&problem, 18), Ok(()));
        assert_eq!(space_guard(&problem, 17), Err(18));

        // The plain scan: first-found strict `<`.
        let mut scan: Vec<(Binding, f64)> = Vec::new();
        for a in &problem.vars[0].candidates {
            for b in problem.vars[1].candidates.iter().filter(|b| *b != a) {
                for c in &problem.vars[2].candidates {
                    let binding = vec![*a, *b, *c];
                    let score = toy_score(&binding);
                    scan.push((binding, score));
                }
            }
        }
        let least = scan.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min);
        let mut winners = scan.iter().filter(|(_, s)| *s == least);
        let (binding, score) = winners.next().expect("the space is not empty");
        assert_eq!(winners.count(), 3, "a tie under every first candidate");
        assert_eq!(scan.len(), 12);

        for threads in [1usize, 2, 8] {
            let mut local = Local::default();
            let new = || Toy(&problem, Binding::new());
            let later = search(&problem, threads, false, f64::INFINITY, &mut local, &mut new(), new);
            assert_eq!(local.best(), Some((binding, *score)), "threads={threads}");
            assert_eq!(local.leaves, scan.len() as u64, "threads={threads}");
            assert_eq!((local.pruned, local.pruned_ties), (0, 0));
            assert_eq!(later.len(), threads.min(3) - 1, "one walker per later chunk");
        }
    }
}
