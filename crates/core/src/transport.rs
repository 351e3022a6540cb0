//! Simulated UDP scatter-gather status collection (paper §4/§4.3).
//!
//! "UDP is used as transport, to minimize incast related problems … Our
//! experiments show that querying one hundred servers gives low packet
//! loss with our UDP-based solution, while for a thousand servers, there
//! is high packet loss." The per-reply loss probability here grows with
//! fan-out beyond a knee, reproducing exactly the behaviour that makes
//! sampling (§4.3) necessary.
//!
//! Resilience: a single round answers with whatever arrived before the
//! timeout, silently treating everyone else as overloaded — one burst of
//! loss skews the whole placement. [`scatter_gather_retry`] therefore
//! re-queries **only the missing set** for a bounded number of rounds with
//! exponential backoff; because retry fan-out shrinks to the missing set,
//! the incast-driven loss probability drops with every round, so transient
//! loss and stragglers are recovered quickly while crashed hosts stay
//! missing. Elapsed time and [`OverheadLedger`] bytes are accounted per
//! round.
//!
//! A reading is sanitised once, where it enters the system: here, for a
//! source whose readings are raw, and nowhere for one that repaired its
//! own ([`StatusSource::answers_sane`]). So no garbage reading (NaN,
//! negative, overflowed) ever reaches the estimator or the scoring
//! arithmetic, and no gather pays to repair it a second time.

use cloudtalk_lang::problem::Address;
use desim::rng::DetRng;
use desim::SimDuration;
use rand::Rng;

use crate::messages::OverheadLedger;
use crate::status::{StatusReport, StatusSource};

/// The saturation point of the loss model: beyond this, extra fan-out
/// cannot make things worse (some replies always squeak through).
pub(crate) const MAX_LOSS_PROBABILITY: f64 = 0.9;

/// Retry/backoff policy for re-querying hosts that missed a round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Extra rounds after the first (0 = the paper's one-shot behaviour).
    pub max_retries: u32,
    /// Wait before the first retry.
    pub backoff: SimDuration,
    /// Backoff multiplier per further retry (exponential, saturating).
    pub backoff_multiplier: u32,
    /// Seeded jitter, as a percentage of the base backoff: each wait is
    /// stretched by a uniformly drawn factor in `[1, 1 + jitter_pct/100]`.
    /// Spreads otherwise-synchronized retries without ever shortening a
    /// backoff below its deterministic base. `0` (the default) draws nothing from the
    /// RNG, so existing seeded runs stay bit-identical.
    pub jitter_pct: u32,
}

impl RetryPolicy {
    /// No retries: single-round scatter-gather.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        backoff: SimDuration::ZERO,
        backoff_multiplier: 1,
        jitter_pct: 0,
    };

    /// The deterministic base backoff to wait before retry number `retry`
    /// (1-based), jitter excluded.
    pub(crate) fn backoff_before(&self, retry: u32) -> SimDuration {
        let mut factor: u64 = 1;
        for _ in 1..retry {
            factor = factor.saturating_mul(self.backoff_multiplier.max(1) as u64);
        }
        self.backoff.saturating_mul(factor)
    }

    /// The backoff before retry number `retry` with seeded jitter applied:
    /// the base backoff stretched by `1 + U(0..=jitter_pct)/100`.
    ///
    /// With `jitter_pct == 0` the RNG is **not** consulted — the stream
    /// position is untouched and the result equals
    /// [`RetryPolicy::backoff_before`] exactly, keeping jitter-free
    /// configurations bit-stable.
    pub(crate) fn backoff_before_jittered(&self, retry: u32, rng: &mut DetRng) -> SimDuration {
        let base = self.backoff_before(retry);
        if self.jitter_pct == 0 {
            return base;
        }
        let stretch_pct = rng.gen_range(0..=u64::from(self.jitter_pct));
        base + SimDuration::from_nanos(base.as_nanos() / 100 * stretch_pct)
    }
}

impl Default for RetryPolicy {
    /// Two retries, 2 ms initial backoff, doubling, no jitter.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: SimDuration::from_millis(2),
            backoff_multiplier: 2,
            jitter_pct: 0,
        }
    }
}

/// Scatter-gather parameters.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Fan-out below which replies are essentially loss-free.
    pub knee: usize,
    /// Per-reply loss probability gained for each doubling beyond the knee.
    pub loss_per_doubling: f64,
    /// Time the CloudTalk server waits for stragglers before answering
    /// with whatever arrived ("waiting for a predefined amount of time,
    /// or until all responses arrive").
    pub timeout: SimDuration,
    /// Network round-trip for one status exchange under no loss.
    pub rtt: SimDuration,
    /// Retry/backoff policy for missing hosts.
    pub retry: RetryPolicy,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            knee: 100,
            loss_per_doubling: 0.25,
            timeout: SimDuration::from_millis(10),
            rtt: SimDuration::from_micros(200),
            retry: RetryPolicy::default(),
        }
    }
}

impl TransportConfig {
    /// An in-process "transport": no incast knee, no loss, no retries.
    /// Use when the status source is co-located with the server (e.g. a
    /// [`crate::aggregate::AggregationPlane`] inside the server process)
    /// — the real wire traffic is then whatever that source accounts in
    /// its own ledger.
    pub fn local() -> Self {
        TransportConfig {
            knee: usize::MAX,
            loss_per_doubling: 0.0,
            timeout: SimDuration::ZERO,
            rtt: SimDuration::ZERO,
            retry: RetryPolicy::NONE,
        }
    }
}

/// Result of a scatter-gather exchange (one round or several). `T` names
/// a polled host: its address, or whatever the caller polls it by (a rack
/// aggregator polls its rack's slots).
#[derive(Clone, Debug)]
pub struct GatherOutcome<T = Address> {
    /// Replies that made it back, in query order (first round first, then
    /// each retry round's recoveries).
    pub replies: Vec<(T, StatusReport)>,
    /// Hosts that never answered (lost datagram or silent host).
    pub(crate) missing: Vec<T>,
    /// Addresses missing after the *first* round — the set retries had to
    /// recover. `missing.len() / first_round_missing` is the unrecovered
    /// fraction.
    pub(crate) first_round_missing: usize,
    /// Rounds performed (1 = no retries needed or allowed).
    pub rounds: u32,
    /// Total time: per-round RTT/timeout plus inter-round backoff.
    pub(crate) elapsed: SimDuration,
}

impl<T> Default for GatherOutcome<T> {
    fn default() -> Self {
        GatherOutcome {
            replies: Vec::new(),
            missing: Vec::new(),
            first_round_missing: 0,
            rounds: 0,
            elapsed: SimDuration::ZERO,
        }
    }
}

impl<T: Copy> GatherOutcome<T> {
    /// Every polled host with its final answer (`None`: it never
    /// answered), replies first.
    pub(crate) fn answers(&self) -> impl Iterator<Item = (T, Option<StatusReport>)> + '_ {
        let heard = self.replies.iter().map(|&(t, r)| (t, Some(r)));
        heard.chain(self.missing.iter().map(|&t| (t, None)))
    }
}

/// One query/reply round against `targets`, each polled at `host(t)`;
/// replies are sanitised here unless the source
/// [`StatusSource::answers_sane`]. Retry rounds (`retry = true`) account their
/// traffic in the ledger's distinct retry counters so re-sends never
/// inflate the §5.5 bytes. `unchanged` further hosts belong to the round
/// without being polled (see [`gather_into`]): queried and
/// answered on the modelled wire, absent from `out`.
#[allow(clippy::too_many_arguments)]
fn gather_round<T: Copy>(
    source: &mut impl StatusSource,
    targets: impl ExactSizeIterator<Item = T>,
    host: &impl Fn(T) -> Address,
    unchanged: usize,
    cfg: &TransportConfig,
    rng: &mut DetRng,
    ledger: &mut OverheadLedger,
    out: &mut GatherOutcome<T>,
    retry: bool,
) -> SimDuration {
    let n = targets.len() + unchanged;
    let loss_p = loss_probability(n, cfg);
    assert!(
        unchanged == 0 || loss_p == 0.0,
        "a lossy round draws per host: it cannot skip any"
    );
    let before = out.replies.len();
    let raw = !source.answers_sane();
    for target in targets {
        let lost = loss_p > 0.0 && rng.gen_bool(loss_p);
        match (lost, source.poll_report(host(target))) {
            (false, Some(mut report)) => {
                if raw {
                    report.state = report.state.sanitised();
                }
                out.replies.push((target, report));
            }
            _ => out.missing.push(target),
        }
    }
    let received = (out.replies.len() - before + unchanged) as u64;
    if retry {
        ledger.record_retry_round(n as u64, received);
    } else {
        ledger.record_round(n as u64, received);
    }
    if out.missing.is_empty() {
        cfg.rtt
    } else {
        cfg.timeout
    }
}

/// Scatter-gather with bounded retries: after the first round, up to
/// `cfg.retry.max_retries` further rounds re-query **only** the hosts
/// still missing, waiting an exponentially growing backoff before each.
/// Stops early once everyone answered. The first round's queries and
/// replies land in the ledger's `status_*` counters, retry rounds in its
/// distinct `retry_*` counters (so §5.5 `status_bytes` never double-counts
/// a re-queried host); every round's duration (and each backoff) accrues
/// into `elapsed`.
pub fn scatter_gather_retry(
    source: &mut impl StatusSource,
    addrs: &[Address],
    cfg: &TransportConfig,
    rng: &mut DetRng,
    ledger: &mut OverheadLedger,
) -> GatherOutcome {
    let mut out = GatherOutcome {
        replies: Vec::with_capacity(addrs.len()),
        ..GatherOutcome::default()
    };
    let addrs = addrs.iter().copied();
    gather_into(source, addrs, |a| a, 0, cfg, rng, ledger, &mut out);
    out
}

/// [`scatter_gather_retry`] over `targets`, each polled at `host(t)`,
/// into `out` (emptied first): a caller that gathers again and again
/// keeps one buffer and names its hosts as it likes.
///
/// The fan-out is `targets.len() + unchanged` hosts of which only
/// `targets` are polled. The caller vouches — from the source's change
/// view ([`StatusSource::drain_changed`]) — that each of the `unchanged`
/// others answers, and answers exactly what the caller already holds.
/// The *modelled* exchange is the full one: the ledger is charged a query
/// and a reply for every host and the timing is that of the whole round;
/// only the polls whose result is known are not *executed*, and the
/// outcome lists the polled hosts alone.
///
/// # Panics
///
/// Panics if `unchanged > 0` at a fan-out beyond the loss knee: a lossy
/// round draws randomness per host, so none can be skipped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_into<T: Copy>(
    source: &mut impl StatusSource,
    targets: impl ExactSizeIterator<Item = T>,
    host: impl Fn(T) -> Address,
    unchanged: usize,
    cfg: &TransportConfig,
    rng: &mut DetRng,
    ledger: &mut OverheadLedger,
    out: &mut GatherOutcome<T>,
) {
    out.replies.clear();
    out.missing.clear();
    out.rounds = 1;
    out.elapsed = gather_round(
        source, targets, &host, unchanged, cfg, rng, ledger, out, false,
    );
    out.first_round_missing = out.missing.len();
    for retry in 1..=cfg.retry.max_retries {
        if out.missing.is_empty() {
            break;
        }
        let targets = std::mem::take(&mut out.missing);
        out.elapsed += cfg.retry.backoff_before_jittered(retry, rng);
        let targets = targets.into_iter();
        let round = gather_round(source, targets, &host, 0, cfg, rng, ledger, out, true);
        out.elapsed += round;
        out.rounds += 1;
    }
}

/// The per-reply loss probability at fan-out `n`.
///
/// Edge cases, made explicit:
///
/// * `n == 0` — no queries are sent, so nothing can be lost: `0.0`.
/// * `knee == 0` — every positive fan-out is infinitely far beyond the
///   knee; the former `log2(n / 0) = ∞` relied on the `min` clamp by
///   accident, now it returns `MAX_LOSS_PROBABILITY` directly.
/// * The probability never exceeds `MAX_LOSS_PROBABILITY` (0.9): even
///   catastrophic incast lets some replies through.
pub fn loss_probability(n: usize, cfg: &TransportConfig) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if cfg.knee == 0 {
        return MAX_LOSS_PROBABILITY;
    }
    if n <= cfg.knee {
        0.0
    } else {
        (cfg.loss_per_doubling * (n as f64 / cfg.knee as f64).log2()).min(MAX_LOSS_PROBABILITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultySource};
    use crate::status::TableStatusSource;
    use desim::rng::stream_rng;
    use estimator::HostState;

    fn source(n: u32) -> TableStatusSource {
        let mut s = TableStatusSource::new();
        for i in 1..=n {
            s.set(Address(i), HostState::gbps_idle());
        }
        s
    }

    /// Single-round config (the paper's one-shot behaviour) so the legacy
    /// loss-shape tests are unaffected by retries.
    fn one_shot() -> TransportConfig {
        TransportConfig {
            retry: RetryPolicy::NONE,
            ..TransportConfig::default()
        }
    }

    #[test]
    fn small_fanout_is_lossless() {
        assert_eq!(loss_probability(100, &TransportConfig::default()), 0.0);
        let mut src = source(100);
        let addrs: Vec<Address> = (1..=100).map(Address).collect();
        let mut ledger = OverheadLedger::default();
        let out = scatter_gather_retry(
            &mut src,
            &addrs,
            &one_shot(),
            &mut stream_rng(1, 0),
            &mut ledger,
        );
        assert_eq!(out.replies.len(), 100);
        assert!(out.missing.is_empty());
        assert_eq!(out.rounds, 1);
        assert_eq!(out.elapsed, TransportConfig::default().rtt);
        assert_eq!(ledger.status_bytes(), 100 * (64 + 78));
        assert_eq!(ledger.rounds, 1);
    }

    #[test]
    fn thousand_way_fanout_loses_many() {
        let cfg = one_shot();
        let p = loss_probability(1000, &cfg);
        assert!(p > 0.5, "1000-way loss probability {p}");
        let mut src = source(1000);
        let addrs: Vec<Address> = (1..=1000).map(Address).collect();
        let mut ledger = OverheadLedger::default();
        let out = scatter_gather_retry(&mut src, &addrs, &cfg, &mut stream_rng(2, 0), &mut ledger);
        assert!(
            out.missing.len() > 300,
            "expected heavy loss, missing only {}",
            out.missing.len()
        );
        assert_eq!(out.elapsed, cfg.timeout, "stragglers trigger the timeout");
    }

    #[test]
    fn silent_hosts_are_reported_missing() {
        let mut src = source(3);
        src.silence(Address(2));
        let addrs = [Address(1), Address(2), Address(3)];
        let mut ledger = OverheadLedger::default();
        let out = scatter_gather_retry(
            &mut src,
            &addrs,
            &one_shot(),
            &mut stream_rng(3, 0),
            &mut ledger,
        );
        assert_eq!(out.replies.len(), 2);
        assert_eq!(out.missing, vec![Address(2)]);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = one_shot();
        let addrs: Vec<Address> = (1..=500).map(Address).collect();
        let run = || {
            let mut src = source(500);
            let mut ledger = OverheadLedger::default();
            scatter_gather_retry(&mut src, &addrs, &cfg, &mut stream_rng(7, 1), &mut ledger)
                .missing
                .len()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_probability_zero_fanout_is_lossless() {
        for knee in [0, 1, 100] {
            let cfg = TransportConfig {
                knee,
                ..TransportConfig::default()
            };
            assert_eq!(loss_probability(0, &cfg), 0.0, "knee {knee}");
        }
    }

    #[test]
    fn loss_probability_zero_knee_saturates_explicitly() {
        let cfg = TransportConfig {
            knee: 0,
            ..TransportConfig::default()
        };
        for n in [1, 10, 1_000_000] {
            let p = loss_probability(n, &cfg);
            assert_eq!(p, MAX_LOSS_PROBABILITY, "n = {n}");
            assert!(p.is_finite());
        }
    }

    #[test]
    fn loss_probability_clamp_boundary() {
        let cfg = TransportConfig::default(); // knee 100, 0.25/doubling
        // 0.25 · log2(n/100) reaches 0.9 at n = 100 · 2^3.6 ≈ 1213.
        let below = loss_probability(1200, &cfg);
        assert!(below < MAX_LOSS_PROBABILITY, "1200-way {below}");
        let above = loss_probability(1300, &cfg);
        assert_eq!(above, MAX_LOSS_PROBABILITY, "clamp engaged");
        // Exactly at the knee: still lossless; one past it: positive.
        assert_eq!(loss_probability(cfg.knee, &cfg), 0.0);
        assert!(loss_probability(cfg.knee + 1, &cfg) > 0.0);
    }

    #[test]
    fn retry_recovers_stragglers_and_leaves_crashed_missing() {
        // Hosts 1-4 straggle for one round; host 5 is crashed for good.
        let mut plan = FaultPlan::none().crash(Address(5), crate::faults::Window::always());
        for i in 1..=4 {
            plan = plan.straggle(Address(i), 1);
        }
        let mut src = FaultySource::new(source(5), plan);
        let addrs: Vec<Address> = (1..=5).map(Address).collect();
        let cfg = TransportConfig::default();
        let mut ledger = OverheadLedger::default();
        let out =
            scatter_gather_retry(&mut src, &addrs, &cfg, &mut stream_rng(1, 0), &mut ledger);
        assert_eq!(out.first_round_missing, 5);
        assert_eq!(out.replies.len(), 4, "stragglers recovered on retry");
        assert_eq!(out.missing, vec![Address(5)], "crashed host stays missing");
        assert_eq!(out.rounds, 3, "two retries spent on the crashed host");
        // Elapsed: three timed-out rounds plus exponentially growing backoff.
        let expected = cfg.timeout * 3
            + cfg.retry.backoff_before(1)
            + cfg.retry.backoff_before(2);
        assert_eq!(out.elapsed, expected);
    }

    #[test]
    fn retry_stops_early_when_everyone_answered() {
        let plan = FaultPlan::none().straggle(Address(2), 1);
        let mut src = FaultySource::new(source(3), plan);
        let addrs: Vec<Address> = (1..=3).map(Address).collect();
        let mut ledger = OverheadLedger::default();
        let out = scatter_gather_retry(
            &mut src,
            &addrs,
            &TransportConfig::default(),
            &mut stream_rng(1, 0),
            &mut ledger,
        );
        assert_eq!(out.rounds, 2, "no third round once complete");
        assert!(out.missing.is_empty());
        assert_eq!(out.first_round_missing, 1);
        assert_eq!(ledger.rounds, 2);
        // Round 1 queried 3 hosts; round 2's re-send of the missing one
        // lands in the retry counters, not the first-round ones.
        assert_eq!(ledger.status_queries, 3);
        assert_eq!(ledger.status_responses, 2);
        assert_eq!(ledger.retry_queries, 1);
        assert_eq!(ledger.retry_responses, 1);
        assert_eq!(ledger.status_bytes(), 3 * 64 + 2 * 78);
        assert_eq!(ledger.retry_bytes(), 64 + 78);
    }

    #[test]
    fn ledger_accounts_bytes_and_rounds_across_retries() {
        // 1000-way fan-out with heavy loss: every retry targets only the
        // missing set, and the ledger must sum queries/replies/rounds over
        // every round, not just the first.
        let cfg = TransportConfig::default(); // 2 retries
        let addrs: Vec<Address> = (1..=1000).map(Address).collect();
        let mut src = source(1000);
        let mut ledger = OverheadLedger::default();
        let out =
            scatter_gather_retry(&mut src, &addrs, &cfg, &mut stream_rng(2, 0), &mut ledger);
        assert_eq!(out.rounds, 3, "heavy loss forces both retries");
        assert_eq!(ledger.rounds, u64::from(out.rounds));
        assert!(out.first_round_missing > 300);
        // Retry fan-out shrinks (1000 → ~840 → ~640), so the per-reply
        // loss probability drops each round and hosts keep recovering —
        // but at this scale it stays beyond the knee, so recovery is
        // partial (sampling, §4.3, remains the real fix at 1000-way).
        assert!(
            (out.missing.len() as f64) < 0.65 * out.first_round_missing as f64,
            "retries at shrinking fan-out recover hosts: {} of {} still missing",
            out.missing.len(),
            out.first_round_missing
        );
        // Exact conservation: the first round queried every host exactly
        // once; retries re-queried only missing sets, in their own bucket.
        assert_eq!(ledger.status_queries, 1000, "first round, counted once");
        assert_eq!(
            (ledger.status_responses + ledger.retry_responses) as usize,
            out.replies.len(),
            "responses sum over first-round and retry buckets"
        );
        // Retry 1 re-asked the whole first-round missing set; retry 2 only
        // what was still missing after that — strictly fewer than 2·M1.
        assert!(ledger.retry_queries as usize > out.first_round_missing);
        assert!((ledger.retry_queries as usize) < 2 * out.first_round_missing);
        assert_eq!(
            ledger.retry_responses as usize,
            out.first_round_missing - out.missing.len(),
            "every recovered host answered exactly one retry"
        );
        assert_eq!(
            ledger.status_bytes(),
            1000 * 64 + ledger.status_responses * 78
        );
        assert_eq!(
            ledger.retry_bytes(),
            ledger.retry_queries * 64 + ledger.retry_responses * 78
        );
        assert_eq!(
            ledger.total_bytes(),
            ledger.status_bytes() + ledger.retry_bytes()
        );
    }

    #[test]
    fn replies_are_sanitised_at_the_choke_point() {
        use crate::faults::Corruption;
        let plan = FaultPlan::none()
            .corrupt(Address(1), Corruption::NanUsage)
            .corrupt(Address(2), Corruption::NegativeCapacity);
        let mut src = FaultySource::new(source(3), plan);
        let addrs: Vec<Address> = (1..=3).map(Address).collect();
        let mut ledger = OverheadLedger::default();
        let out = scatter_gather_retry(
            &mut src,
            &addrs,
            &one_shot(),
            &mut stream_rng(1, 0),
            &mut ledger,
        );
        assert_eq!(out.replies.len(), 3);
        for (addr, report) in &out.replies {
            assert!(
                report.state.is_sane(),
                "garbage leaked past the choke point for {addr:?}: {:?}",
                report.state
            );
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before(1), SimDuration::from_millis(2));
        assert_eq!(p.backoff_before(2), SimDuration::from_millis(4));
        assert_eq!(p.backoff_before(3), SimDuration::from_millis(8));
        let huge = RetryPolicy {
            max_retries: 100,
            backoff: SimDuration::from_secs_f64(1e6),
            backoff_multiplier: u32::MAX,
            ..RetryPolicy::default()
        };
        let _ = huge.backoff_before(90); // must not overflow/panic
    }

    #[test]
    fn zero_jitter_leaves_rng_untouched_and_matches_base() {
        // jitter_pct = 0 must not consume RNG state: the stream a zero-
        // jitter retry loop sees is bit-identical to one that never heard
        // of jitter, so every pre-jitter seeded test stays stable.
        let p = RetryPolicy::default();
        let mut rng = stream_rng(5, 0);
        let before: u64 = rng.gen();
        let mut a = stream_rng(5, 0);
        assert_eq!(a.gen::<u64>(), before, "sanity: streams line up");
        for retry in 1..=4 {
            assert_eq!(
                p.backoff_before_jittered(retry, &mut a),
                p.backoff_before(retry)
            );
        }
        // The jittered calls drew nothing: the next draw still matches a
        // fresh stream advanced by exactly one gen().
        let mut b = stream_rng(5, 0);
        let _ = b.gen::<u64>();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_never_shortens() {
        let p = RetryPolicy {
            jitter_pct: 50,
            ..RetryPolicy::default()
        };
        let draw = |seed: u64| {
            let mut rng = stream_rng(seed, 9);
            (1..=6)
                .map(|r| p.backoff_before_jittered(r, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1), "same seed, same jitter");
        assert_ne!(a, draw(2), "different seeds de-synchronize retries");
        for (i, &j) in a.iter().enumerate() {
            let base = p.backoff_before(i as u32 + 1);
            assert!(j >= base, "jitter never shortens the base backoff");
            let cap = base + SimDuration::from_nanos(base.as_nanos() / 2);
            assert!(j <= cap, "jitter bounded by jitter_pct: {j:?} > {cap:?}");
        }
    }
}
