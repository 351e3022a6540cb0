//! Wire-format sizes and overhead accounting (paper §5.5).
//!
//! The paper reports status queries of 64 bytes and responses of 78 bytes,
//! and quantifies per-operation CloudTalk overhead (HDFS read 1.3 KB,
//! 100-node HDFS write 45 KB, 50-reducer placement 43 KB). This module
//! reproduces that accounting.
//!
//! [`OverheadLedger`] is the portable accounting record: a plain `Copy`
//! struct that collection code fills in as traffic happens. The server
//! re-hosts these totals in its [`obs::MetricsRegistry`] via
//! [`LedgerCounters`], so the same numbers are visible through the
//! exported-metrics surface; `CloudTalkServer::ledger()` reconstructs an
//! `OverheadLedger` from the registry, keeping the §5.5 API intact.
//!
//! First-round and retry traffic are accounted separately: a retry re-send
//! in `scatter_gather_retry` bumps `retry_queries`/`retry_responses`, never
//! the first-round counters, so [`OverheadLedger::status_bytes`] (the §5.5
//! per-operation figure) cannot double-count a host that had to be asked
//! twice. [`OverheadLedger::total_bytes`] includes both.

use obs::{CounterId, MetricsRegistry};

/// Bytes of one status query on the wire.
pub const STATUS_QUERY_BYTES: u64 = 64;

/// Bytes of one status response on the wire.
pub const STATUS_RESPONSE_BYTES: u64 = 78;

/// Bytes of one collector→aggregator pull request: the status query plus
/// the collector's epoch stamp (node + incarnation + epoch).
pub const AGG_PULL_BYTES: u64 = 80;

/// Bytes of one aggregator reply header (stamp pair, rack id, freshness
/// instant, entry counts) — paid per pull whether or not anything changed.
pub const AGG_REPLY_HEADER_BYTES: u64 = 48;

/// Bytes of one host entry inside an aggregator reply: an address plus a
/// status response body (delta-compressed replies carry only the changed
/// entries; full snapshots carry them all).
pub const AGG_ENTRY_BYTES: u64 = 8 + STATUS_RESPONSE_BYTES;

/// Bytes of one removal notice (an address) inside an aggregator delta.
pub const AGG_REMOVAL_BYTES: u64 = 8;

/// Running totals of CloudTalk-related network overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadLedger {
    /// Status queries sent in first rounds.
    pub status_queries: u64,
    /// Status responses received in first rounds.
    pub status_responses: u64,
    /// Scatter-gather rounds performed (retries count as extra rounds, so
    /// multi-round gathers are visible in the accounting).
    pub rounds: u64,
    /// Status queries re-sent by retry rounds (distinct from
    /// `status_queries` so retries can never double-count §5.5 bytes).
    pub retry_queries: u64,
    /// Status responses received by retry rounds.
    pub retry_responses: u64,
    /// Bytes of client query text received.
    pub query_text_bytes: u64,
    /// Bytes of answers returned to clients.
    pub answer_bytes: u64,
    /// Packet-level search: bindings answered from the symmetry cache.
    pub pkt_memo_hits: u64,
    /// Packet-level search: bindings that had to simulate.
    pub pkt_memo_misses: u64,
    /// Collector→aggregator pulls sent (hierarchical status plane).
    pub agg_pulls: u64,
    /// Aggregator replies received (each pays a header; delta or full).
    pub agg_replies: u64,
    /// Host entries carried in aggregator replies (delta-changed plus
    /// full-snapshot entries — the payload that shrinks with delta
    /// compression).
    pub agg_entries: u64,
    /// Removal notices carried in aggregator deltas.
    pub agg_removals: u64,
}

impl OverheadLedger {
    /// Records one first-round scatter-gather exchange: `sent` queries,
    /// `received` replies.
    pub fn record_round(&mut self, sent: u64, received: u64) {
        self.status_queries += sent;
        self.status_responses += received;
        self.rounds += 1;
    }

    /// Records one *retry* round. Retry traffic lands in its own counters:
    /// folding re-sends into `status_queries` would double-count hosts in
    /// the §5.5 `status_bytes` figure.
    pub fn record_retry_round(&mut self, sent: u64, received: u64) {
        self.retry_queries += sent;
        self.retry_responses += received;
        self.rounds += 1;
    }

    /// Records one packet-level search's symmetry-cache counters.
    pub fn record_pkt_memo(&mut self, hits: u64, misses: u64) {
        self.pkt_memo_hits += hits;
        self.pkt_memo_misses += misses;
    }

    /// Records a client interaction.
    pub fn record_client(&mut self, query_text_bytes: u64, answer_bytes: u64) {
        self.query_text_bytes += query_text_bytes;
        self.answer_bytes += answer_bytes;
    }

    /// Records one collector→aggregator pull request.
    pub fn record_agg_pull(&mut self) {
        self.agg_pulls += 1;
    }

    /// Records one aggregator reply carrying `entries` host entries and
    /// `removals` removal notices (0/0 for an idle "nothing changed"
    /// header).
    pub fn record_agg_reply(&mut self, entries: u64, removals: u64) {
        self.agg_replies += 1;
        self.agg_entries += entries;
        self.agg_removals += removals;
    }

    /// Records, in one step, `racks` idle collector↔aggregator exchanges
    /// covering `hosts` hosts in total: per rack a pull, a header-only
    /// reply and the aggregator's loss-free poll round of all its hosts —
    /// what [`Self::record_agg_pull`], [`Self::record_round`]`(n, n)` and
    /// [`Self::record_agg_reply`]`(0, 0)` add up to rack by rack.
    pub fn record_idle_racks(&mut self, racks: u64, hosts: u64) {
        self.agg_pulls += racks;
        self.agg_replies += racks;
        self.status_queries += hosts;
        self.status_responses += hosts;
        self.rounds += racks;
    }

    /// First-round status-traffic bytes (the §5.5 numbers: each
    /// interrogated host counted once).
    pub fn status_bytes(&self) -> u64 {
        self.status_queries * STATUS_QUERY_BYTES + self.status_responses * STATUS_RESPONSE_BYTES
    }

    /// Extra bytes spent re-querying stragglers in retry rounds.
    pub fn retry_bytes(&self) -> u64 {
        self.retry_queries * STATUS_QUERY_BYTES + self.retry_responses * STATUS_RESPONSE_BYTES
    }

    /// Aggregator-tier bytes of the hierarchical status plane: pulls plus
    /// reply headers plus the delta-compressed entry payload.
    pub fn agg_bytes(&self) -> u64 {
        self.agg_pulls * AGG_PULL_BYTES
            + self.agg_replies * AGG_REPLY_HEADER_BYTES
            + self.agg_entries * AGG_ENTRY_BYTES
            + self.agg_removals * AGG_REMOVAL_BYTES
    }

    /// Total bytes attributable to CloudTalk, retries and the aggregator
    /// tier included.
    pub fn total_bytes(&self) -> u64 {
        self.status_bytes()
            + self.retry_bytes()
            + self.agg_bytes()
            + self.query_text_bytes
            + self.answer_bytes
    }
}

/// The ledger's counters hosted in an [`obs::MetricsRegistry`].
///
/// The server registers these once (names under `overhead.`), absorbs each
/// gather's [`OverheadLedger`] delta into them, and reconstructs a ledger
/// on demand — so tests and exporters read overhead through the same
/// metrics surface as everything else while `OverheadLedger` stays the
/// API-compatible value type.
#[derive(Clone, Copy, Debug)]
pub struct LedgerCounters {
    status_queries: CounterId,
    status_responses: CounterId,
    rounds: CounterId,
    retry_queries: CounterId,
    retry_responses: CounterId,
    query_text_bytes: CounterId,
    answer_bytes: CounterId,
    pkt_memo_hits: CounterId,
    pkt_memo_misses: CounterId,
    agg_pulls: CounterId,
    agg_replies: CounterId,
    agg_entries: CounterId,
    agg_removals: CounterId,
}

impl LedgerCounters {
    /// Registers the overhead counters in `reg` (idempotent).
    pub fn register(reg: &mut MetricsRegistry) -> Self {
        LedgerCounters {
            status_queries: reg.counter("overhead.status_queries"),
            status_responses: reg.counter("overhead.status_responses"),
            rounds: reg.counter("overhead.rounds"),
            retry_queries: reg.counter("overhead.retry_queries"),
            retry_responses: reg.counter("overhead.retry_responses"),
            query_text_bytes: reg.counter("overhead.query_text_bytes"),
            answer_bytes: reg.counter("overhead.answer_bytes"),
            pkt_memo_hits: reg.counter("overhead.pkt_memo_hits"),
            pkt_memo_misses: reg.counter("overhead.pkt_memo_misses"),
            agg_pulls: reg.counter("overhead.agg_pulls"),
            agg_replies: reg.counter("overhead.agg_replies"),
            agg_entries: reg.counter("overhead.agg_entries"),
            agg_removals: reg.counter("overhead.agg_removals"),
        }
    }

    /// Adds an accounting delta (one gather, one client exchange, …) to the
    /// registry-hosted totals.
    pub fn absorb(&self, reg: &mut MetricsRegistry, delta: &OverheadLedger) {
        reg.inc(self.status_queries, delta.status_queries);
        reg.inc(self.status_responses, delta.status_responses);
        reg.inc(self.rounds, delta.rounds);
        reg.inc(self.retry_queries, delta.retry_queries);
        reg.inc(self.retry_responses, delta.retry_responses);
        reg.inc(self.query_text_bytes, delta.query_text_bytes);
        reg.inc(self.answer_bytes, delta.answer_bytes);
        reg.inc(self.pkt_memo_hits, delta.pkt_memo_hits);
        reg.inc(self.pkt_memo_misses, delta.pkt_memo_misses);
        reg.inc(self.agg_pulls, delta.agg_pulls);
        reg.inc(self.agg_replies, delta.agg_replies);
        reg.inc(self.agg_entries, delta.agg_entries);
        reg.inc(self.agg_removals, delta.agg_removals);
    }

    /// Reconstructs the accumulated ledger from the registry.
    pub fn ledger(&self, reg: &MetricsRegistry) -> OverheadLedger {
        OverheadLedger {
            status_queries: reg.counter_value(self.status_queries),
            status_responses: reg.counter_value(self.status_responses),
            rounds: reg.counter_value(self.rounds),
            retry_queries: reg.counter_value(self.retry_queries),
            retry_responses: reg.counter_value(self.retry_responses),
            query_text_bytes: reg.counter_value(self.query_text_bytes),
            answer_bytes: reg.counter_value(self.answer_bytes),
            pkt_memo_hits: reg.counter_value(self.pkt_memo_hits),
            pkt_memo_misses: reg.counter_value(self.pkt_memo_misses),
            agg_pulls: reg.counter_value(self.agg_pulls),
            agg_replies: reg.counter_value(self.agg_replies),
            agg_entries: reg.counter_value(self.agg_entries),
            agg_removals: reg.counter_value(self.agg_removals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdfs_read_overhead_matches_paper_order() {
        // An HDFS read interrogates ~3 replica status servers plus a ~100 B
        // query/answer exchange: the paper reports ~1.3 KB.
        let mut ledger = OverheadLedger::default();
        ledger.record_round(3, 3);
        ledger.record_client(80, 40);
        let total = ledger.total_bytes();
        assert!(total < 1500, "read overhead {total} must stay near 1.3KB");
    }

    #[test]
    fn hundred_node_round_is_about_14_kb() {
        // 100 queries + 100 responses = 14.2 KB of status traffic; a write
        // (which the paper pegs at 45 KB for 100 nodes) performs several
        // such rounds.
        let mut ledger = OverheadLedger::default();
        ledger.record_round(100, 100);
        assert_eq!(ledger.status_bytes(), 100 * (64 + 78));
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = OverheadLedger::default();
        ledger.record_round(10, 8);
        ledger.record_round(5, 5);
        assert_eq!(ledger.status_queries, 15);
        assert_eq!(ledger.status_responses, 13);
        assert_eq!(ledger.rounds, 2, "each retry round is counted");
        ledger.record_client(100, 20);
        assert_eq!(ledger.total_bytes(), 15 * 64 + 13 * 78 + 120);
    }

    #[test]
    fn retry_rounds_split_from_first_round_bytes() {
        // Pin the double-counting fix: 10 hosts queried, 8 answer; the
        // retry re-asks the 2 stragglers and recovers them. First-round
        // bytes must reflect 10 queries / 8 responses exactly once, with
        // the re-sends in their own bucket.
        let mut ledger = OverheadLedger::default();
        ledger.record_round(10, 8);
        ledger.record_retry_round(2, 2);
        assert_eq!(ledger.status_queries, 10, "retries must not inflate §5.5 queries");
        assert_eq!(ledger.status_responses, 8);
        assert_eq!(ledger.retry_queries, 2);
        assert_eq!(ledger.retry_responses, 2);
        assert_eq!(ledger.rounds, 2);
        assert_eq!(ledger.status_bytes(), 10 * 64 + 8 * 78);
        assert_eq!(ledger.retry_bytes(), 2 * 64 + 2 * 78);
        assert_eq!(ledger.total_bytes(), ledger.status_bytes() + ledger.retry_bytes());
    }

    #[test]
    fn idle_racks_batch_equals_rack_by_rack_accounting() {
        let mut one_by_one = OverheadLedger::default();
        for hosts in [40, 40, 7] {
            one_by_one.record_agg_pull();
            one_by_one.record_round(hosts, hosts);
            one_by_one.record_agg_reply(0, 0);
        }
        let mut batched = OverheadLedger::default();
        batched.record_idle_racks(3, 87);
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn aggregator_tier_bytes_are_header_plus_payload() {
        // One pull answered with a 3-entry/1-removal delta, one idle pull
        // answered with a bare header: the idle exchange costs pull +
        // header only — the saving delta compression exists to deliver.
        let mut ledger = OverheadLedger::default();
        ledger.record_agg_pull();
        ledger.record_agg_reply(3, 1);
        ledger.record_agg_pull();
        ledger.record_agg_reply(0, 0);
        assert_eq!(
            ledger.agg_bytes(),
            2 * AGG_PULL_BYTES + 2 * AGG_REPLY_HEADER_BYTES + 3 * AGG_ENTRY_BYTES + AGG_REMOVAL_BYTES
        );
        assert_eq!(ledger.total_bytes(), ledger.agg_bytes());
        // An idle aggregator exchange is ~20x cheaper than re-polling a
        // 40-host rack flat.
        assert!(AGG_PULL_BYTES + AGG_REPLY_HEADER_BYTES < 40 * (64 + 78) / 20);
    }

    #[test]
    fn ledger_counters_round_trip_through_registry() {
        let mut reg = MetricsRegistry::new();
        let lc = LedgerCounters::register(&mut reg);
        let mut delta = OverheadLedger::default();
        delta.record_round(7, 6);
        delta.record_retry_round(1, 1);
        delta.record_client(120, 40);
        delta.record_pkt_memo(3, 2);
        delta.record_agg_pull();
        delta.record_agg_reply(5, 2);
        lc.absorb(&mut reg, &delta);
        lc.absorb(&mut reg, &delta);

        let total = lc.ledger(&reg);
        assert_eq!(total.status_queries, 14);
        assert_eq!(total.retry_responses, 2);
        assert_eq!(total.rounds, 4);
        assert_eq!(total.pkt_memo_hits, 6);
        assert_eq!(total.agg_pulls, 2);
        assert_eq!(total.agg_entries, 10);
        assert_eq!(total.agg_removals, 4);
        assert_eq!(total.total_bytes(), 2 * delta.total_bytes());
        // The same numbers are visible through the exported-metrics surface.
        assert_eq!(reg.counter_named("overhead.status_queries"), Some(14));
        assert_eq!(reg.counter_named("overhead.retry_queries"), Some(2));
    }
}
