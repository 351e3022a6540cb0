//! `hint_cold` and `hint_hot`: the paper's bread-and-butter path.
//!
//! 32 tenants send text queries of the paper's shapes as text →
//! `parse_query` → `resolve` → `ServingPlane::submit`, then `run_until`;
//! 1 024-host fleet (64 racks × 16, 4 racks per shard), default serving
//! config, one worker. The timed unit is a wave, cut into one segment per
//! query (parse, resolve, submit) and one for `run_until`; every query in
//! it takes the wave's latency.
//!
//! **Cadence.** One worker serves 50 ms ÷ 450 µs ≈ 111 modelled misses per
//! snapshot epoch before `max_virtual_lag` starts refusing, so the plane's
//! design point at `workers = 1` is about a hundred queries per epoch
//! spread over its 5 ms waves. The schedule sends 20 queries every 10 ms:
//! five waves per epoch (and five idle ones between them), 100 queries per
//! epoch, every wave the same mix. One wave of an epoch carries the
//! refresh of all 16 shards and meets an empty cache; the other four reuse
//! what earlier waves of the epoch left in the cache. A fifth of the units
//! are therefore dear, which puts p50 well inside the ordinary waves and
//! the tail (p90 of 125 waves) in the middle of the refresh-carrying ones.
//!
//! `hint_cold` sends distinct texts — `lang`, `serving`, `heuristic` and
//! `sampling` do the work and the cache can only cost (every lookup
//! misses, inserts, and after 256 entries evicts from L1; an epoch's 100
//! entries are swept from L2 at the next refresh). `hint_hot` draws 18 of
//! every 20 queries from 8 hot texts in Zipf proportions — `qcache`,
//! `canon` and `lang` do the work and `heuristic` little.
//!
//! **Seed.** Which query goes where, which hosts are loaded and which
//! pools overlap decide `quality_s` to a percent or so, and the contract
//! compares different seeds at 0.1 %. So the schedule's *structure* comes
//! from a fixed stream: shapes, pools as slots of a shard, load level of
//! every slot, tenants, order. The seed decides which address sits in
//! which slot (a permutation inside every shard) and the last digits of
//! every transfer size. The plane breaks ties by candidate order, never by
//! address, so decisions map one to one and `quality_s` moves by parts per
//! million; texts, hashes and cache buckets are new on every seed.
//!
//! A wave's content is a pure function of its index, generated between
//! timed units and dropped after: the benchmark keeps no schedule in
//! memory, so `peak_rss_mb` is the plane's.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use cloudtalk::aggregate::FleetLayout;
use cloudtalk::canon::fingerprint_problem;
use cloudtalk::heuristic::{evaluate_query, HeuristicConfig};
use cloudtalk::serving::{ServingConfig, ServingPlane, TelemetryConfig, TenantId};
use cloudtalk::status::TableStatusSource;
use cloudtalk_lang::builder::{hdfs_read_query, hdfs_write_query, reduce_placement_query};
use cloudtalk_lang::problem::{Address, Problem};
use cloudtalk_lang::{parse_query, resolve, MapResolver};
use desim::rng::{derive_seed, stream_rng, DetRng};
use desim::{SimDuration, SimTime};
use estimator::{estimate, HostState, World};
use rand::seq::SliceRandom;
use rand::Rng;

use super::{host_addr, loaded, min_ns, Digest, PassCtx, PassOut, Scale, Units, Workload, LEVELS};
use crate::denoise::PassMatrix;
use crate::trace::Tracer;

const RACKS: usize = 64;
const HOSTS_PER_RACK: usize = 16;
/// `ServingConfig::default().racks_per_shard` × `HOSTS_PER_RACK`.
const SHARD_HOSTS: usize = 64;
const SHARDS: usize = RACKS * HOSTS_PER_RACK / SHARD_HOSTS;
const TENANTS: u32 = 32;
/// Queries per wave, each from a different tenant.
const WAVE: usize = 20;
/// Virtual time between waves: two wave quanta.
const SPACING: SimDuration = SimDuration::from_millis(10);
/// `snapshot_refresh` ÷ `SPACING`.
const WAVES_PER_EPOCH: usize = 5;
const MB: f64 = 1024.0 * 1024.0;
/// Root of every stream that shapes the schedule; the run's seed is not.
const PLAN: u64 = 0xC10D_7A1C;

/// The paper's query shapes.
#[derive(Clone, Copy)]
enum Shape {
    /// 3-replica HDFS write over a 20-host pool.
    Write20,
    /// Read from one of 3 replicas.
    Read3,
    /// Reduce placement, m = 4 over 20 hosts.
    Reduce4,
    /// 3-replica write over a 300-host pool: §4.3 sampling engages.
    Write300,
}
use Shape::{Read3, Reduce4, Write20, Write300};

/// Cold mix per wave of 20: 60 % / 25 % / 10 % / 5 %.
const COLD_MIX: [(Shape, usize); 4] = [(Write20, 12), (Read3, 5), (Reduce4, 2), (Write300, 1)];
/// Hot workload: the two cold queries left in a wave, cycling over ten
/// waves through the same 12 : 5 : 2 : 1.
const HOT_RESIDUE: [[Shape; 2]; 10] = [
    [Write20, Write20],
    [Write20, Read3],
    [Write20, Read3],
    [Write20, Write20],
    [Write20, Reduce4],
    [Write20, Read3],
    [Write20, Write20],
    [Write20, Read3],
    [Write20, Reduce4],
    [Read3, Write300],
];
/// Shapes of the 8 hot texts (no 300-host pool: a hot query is a small one).
const HOT_SHAPES: [Shape; 8] = [
    Write20, Write20, Read3, Write20, Reduce4, Write20, Read3, Write20,
];
/// Hot queries per wave, each drawn from the 8 texts with Zipf(1) odds.
const HOT_PER_WAVE: usize = 18;

pub struct Hint {
    hot: bool,
    seed: u64,
    /// In slot order: slot `64·s + j` is the `j`-th host of shard `s`. The
    /// load is the slot's, the address the seed's.
    hosts: Vec<(Address, HostState)>,
    truth: World,
    hot_texts: Vec<String>,
    n_waves: usize,
}

/// Serving-plane variants the traced run compares.
#[derive(Clone, Copy)]
enum Variant {
    Default,
    CacheOff,
    TracingOff,
    TelemetryOn,
    /// A second worker with an L1 of its own: the only way a lookup can
    /// be served by the shared L2 (one worker's L1 outlives waves and
    /// epochs, so it serves every repeat itself).
    TwoWorkers,
}

impl Hint {
    pub fn generate(seed: u64, hot: bool, scale: Scale) -> Self {
        let mut plan = stream_rng(PLAN, 0);
        let mut rng = stream_rng(seed, 0x407);
        let mut hosts = Vec::with_capacity(RACKS * HOSTS_PER_RACK);
        for shard in 0..SHARDS {
            // Every shard offers the same load mix…
            let mut levels: Vec<f64> = (0..SHARD_HOSTS).map(|i| LEVELS[i % LEVELS.len()]).collect();
            levels.shuffle(&mut plan);
            // …on hosts the seed picks.
            let mut at: Vec<usize> = (0..SHARD_HOSTS).collect();
            at.shuffle(&mut rng);
            for (level, i) in levels.into_iter().zip(at) {
                let idx = shard * SHARD_HOSTS + i;
                hosts.push((
                    host_addr(idx / HOSTS_PER_RACK, idx % HOSTS_PER_RACK),
                    loaded(level),
                ));
            }
        }
        let mut truth = World::new();
        for &(a, s) in &hosts {
            truth.set(a, s);
        }
        let mut h = Hint {
            hot,
            seed,
            hosts,
            truth,
            hot_texts: Vec::new(),
            n_waves: match scale {
                Scale::Full => 125,
                Scale::Smoke => 50,
            },
        };
        if hot {
            h.hot_texts = HOT_SHAPES
                .iter()
                .enumerate()
                .map(|(i, &shape)| {
                    let pool = h.hot_pool(shape, &mut plan);
                    h.text_of(shape, &pool, i as u64)
                })
                .collect();
        }
        h
    }

    fn config(v: Variant) -> ServingConfig {
        let mut cfg = ServingConfig {
            // Sampling and gather streams are part of the schedule.
            seed: PLAN,
            ..ServingConfig::default()
        };
        assert_eq!(cfg.workers, 1, "one closed-loop driver, one worker");
        assert_eq!(cfg.wave_quantum * 2, SPACING);
        assert_eq!(cfg.snapshot_refresh, SPACING * WAVES_PER_EPOCH as u64);
        match v {
            Variant::Default => {}
            Variant::CacheOff => cfg.server.cache.enabled = false,
            Variant::TracingOff => cfg.server.obs.tracing = false,
            Variant::TelemetryOn => cfg.telemetry = TelemetryConfig::enabled(),
            Variant::TwoWorkers => cfg.workers = 2,
        }
        cfg
    }

    /// Wave `k`: its (tenant, text) pairs in submission order.
    fn wave(&self, k: usize) -> Vec<(TenantId, String)> {
        let mut plan = stream_rng(PLAN, 1 + k as u64);
        let mut texts: Vec<String> = Vec::with_capacity(WAVE);
        if self.hot {
            // Rank r is drawn with odds 1/r. A rare text skips waves, so
            // the eight do not walk through their pools in lockstep.
            let total: f64 = (1..=self.hot_texts.len()).map(|r| 1.0 / r as f64).sum();
            for _ in 0..HOT_PER_WAVE {
                let mut u = plan.gen_range(0.0..total);
                let rank = (1..self.hot_texts.len())
                    .find(|&r| {
                        u -= 1.0 / r as f64;
                        u < 0.0
                    })
                    .unwrap_or(self.hot_texts.len());
                texts.push(self.hot_texts[rank - 1].clone());
            }
        }
        let cold: Vec<Shape> = if self.hot {
            HOT_RESIDUE[k % HOT_RESIDUE.len()].to_vec()
        } else {
            COLD_MIX
                .iter()
                .flat_map(|&(shape, n)| std::iter::repeat_n(shape, n))
                .collect()
        };
        for (j, shape) in cold.into_iter().enumerate() {
            // The fixed endpoint's load decides most of a completion
            // time, so it cycles through the load levels.
            let level = LEVELS[(k + j) % LEVELS.len()];
            let pool = self.cold_pool(shape, level, &mut plan);
            texts.push(self.text_of(shape, &pool, (k * WAVE + j) as u64));
        }
        assert_eq!(texts.len(), WAVE);
        texts.shuffle(&mut plan);
        let mut tenants: Vec<u32> = (0..TENANTS).collect();
        tenants.shuffle(&mut plan);
        tenants.into_iter().map(TenantId).zip(texts).collect()
    }

    /// The slots of shards `first..first + span`, shuffled.
    fn shard_slots(first: usize, span: usize, plan: &mut DetRng) -> Vec<usize> {
        let mut slots: Vec<usize> = (first * SHARD_HOSTS..(first + span) * SHARD_HOSTS).collect();
        slots.shuffle(plan);
        slots
    }

    /// A slot's load level: the busy share of its NIC (both directions alike).
    fn level(&self, slot: usize) -> f64 {
        let st = &self.hosts[slot].1;
        st.nic_up_used / st.nic_up_capacity
    }

    /// The slots of one cold query of `shape`, its fixed endpoint (first,
    /// if the shape has one) a host at load `level`. Small pools sit inside
    /// one shard (the plane answers a query against its home shard and is
    /// pessimistic about hosts outside it); the 300-host pool spans five.
    fn cold_pool(&self, shape: Shape, level: f64, plan: &mut DetRng) -> Vec<usize> {
        let (span, n) = match shape {
            Write20 => (1, 21),
            Read3 => (1, 4),
            Reduce4 => (1, 20),
            Write300 => (5, 301),
        };
        let mut slots = Self::shard_slots(plan.gen_range(0..=SHARDS - span), span, plan);
        if !matches!(shape, Reduce4) {
            let at_level = slots
                .iter()
                .position(|&s| (self.level(s) - level).abs() < 1e-9)
                .expect("every shard holds every load level");
            slots.swap(0, at_level);
        }
        slots.truncate(n);
        slots
    }

    /// The slots of a hot text. Eight texts carry nine tenths of
    /// `hint_hot`, and each is asked so often that reservations walk
    /// through its whole pool, so its loads are set, not drawn: the writer
    /// or reader sits at the middle load level, a read's three replicas are
    /// one lightly, one half and one heavily loaded sender, and a 20-host
    /// pool holds four hosts of each level.
    fn hot_pool(&self, shape: Shape, plan: &mut DetRng) -> Vec<usize> {
        let shard = Self::shard_slots(plan.gen_range(0..SHARDS), 1, plan);
        let mut pool: Vec<usize> = Vec::new();
        let take = |want: f64, pool: &mut Vec<usize>| {
            let s = *shard
                .iter()
                .find(|&&s| (self.level(s) - want).abs() < 1e-9 && !pool.contains(&s))
                .expect("every shard holds a dozen hosts of every load level");
            pool.push(s);
        };
        let wants: Vec<f64> = match shape {
            Write20 => std::iter::once(0.3)
                .chain(LEVELS.iter().flat_map(|&l| [l; 4]))
                .collect(),
            Read3 => vec![0.3, 0.05, 0.6, 0.9],
            Reduce4 => LEVELS.iter().flat_map(|&l| [l; 4]).collect(),
            Write300 => unreachable!("no hot text has a 300-host pool"),
        };
        for want in wants {
            take(want, &mut pool);
        }
        // Candidate order is the search order: shuffle it, keep the fixed
        // endpoint first.
        let fixed = usize::from(!matches!(shape, Reduce4));
        pool[fixed..].shuffle(plan);
        pool
    }

    /// The query of `shape` over `slots` as the text a tenant would send:
    /// the fixed endpoint first (unless the shape has none), then the
    /// candidate pool. `nth` numbers the query within the run's seed stream,
    /// which moves the transfer size by up to ±0.01 %.
    fn text_of(&self, shape: Shape, slots: &[usize], nth: u64) -> String {
        let h: Vec<Address> = slots.iter().map(|&s| self.hosts[s].0).collect();
        let u = derive_seed(self.seed, nth) as f64 / u64::MAX as f64;
        let jitter = 1.0 + 2e-4 * (u - 0.5);
        let bytes = |mb: f64| (mb * MB * jitter).round();
        match shape {
            Write20 | Write300 => hdfs_write_query(h[0], &h[1..], 3, bytes(256.0)).text(),
            Read3 => hdfs_read_query(h[0], &h[1..], bytes(256.0)).text(),
            Reduce4 => reduce_placement_query(&h, 4, bytes(64.0)).text(),
        }
    }

    /// One pass of `variant` over the first `n_waves` waves, submitting the
    /// first `take` queries of each.
    fn run(&self, v: Variant, n_waves: usize, take: usize, cx: &mut PassCtx<'_>) -> PassOut {
        let mut out = PassOut::default();
        let mut digest = Digest::new();
        let (mut q_sum, mut q_n, mut sampled) = (0.0f64, 0u64, 0u64);
        let tr = &mut *cx.tr;
        let t0 = Instant::now();

        let s = tr.begin("status.table_build");
        let mut source = TableStatusSource::new();
        for &(a, st) in &self.hosts {
            source.set(a, st);
        }
        tr.end(s);
        let s = tr.begin("aggregate.layout_build");
        let addrs: Vec<Address> = self.hosts.iter().map(|h| h.0).collect();
        let layout = FleetLayout::uniform(&addrs, HOSTS_PER_RACK);
        tr.end(s);
        let s = tr.begin("serving.new");
        let mut plane = ServingPlane::new(Self::config(v), layout, source);
        tr.end(s);
        let quantum = plane.config().wave_quantum;

        let resolver = MapResolver::new();
        for k in 0..n_waves {
            let mut wave = self.wave(k);
            wave.truncate(take);
            tr.set_unit(k);
            let at = SimTime::ZERO + SPACING * k as u64;
            let mut m = cx.units.begin();
            let unit = tr.begin("bench.unit");
            let mut refused = 0u64;
            for (tenant, text) in &wave {
                let s = tr.begin("lang.parse");
                let query = parse_query(text);
                tr.end(s);
                let s = tr.begin("lang.resolve");
                let problem = query.and_then(|q| resolve(&q, &resolver));
                tr.end(s);
                let s = tr.begin("serving.submit");
                let accepted = match problem {
                    Ok(p) => plane.submit(*tenant, p, at).is_ok(),
                    Err(_) => false,
                };
                tr.end(s);
                refused += u64::from(!accepted);
                // One segment per query, one more for `run_until`.
                cx.units.split(&mut m);
            }
            let s = tr.begin("serving.run_until");
            let done = plane.run_until(at + quantum);
            tr.end(s);
            tr.end(unit);
            cx.units.end(m);
            if k == 0 {
                out.setup_ns = t0.elapsed().as_nanos() as u64;
            }

            // Untimed: digest, failures, and (scored pass) quality.
            out.attempted += wave.len() as u64;
            out.failed += refused;
            if done.len() as u64 + refused != wave.len() as u64 {
                out.violation = Some(format!(
                    "wave {k}: {} submitted, {} refused, {} completed",
                    wave.len(),
                    refused,
                    done.len()
                ));
            }
            for c in &done {
                digest.u64(u64::from(c.tenant.0));
                digest.u64(c.seq);
                let Ok(a) = &c.result else {
                    out.failed += 1;
                    digest.u64(u64::MAX);
                    continue;
                };
                digest.binding(&a.binding);
                sampled += u64::from(a.sampled);
                if cx.score {
                    // A wave holds one query per tenant.
                    let text = &wave
                        .iter()
                        .find(|q| q.0 == c.tenant)
                        .expect("completion matches a submission")
                        .1;
                    match estimate(&resolve_text(text), &a.binding, &self.truth) {
                        Ok(e) => {
                            q_sum += e.makespan;
                            q_n += 1;
                        }
                        Err(e) => out.violation = Some(format!("wave {k}: unscorable answer: {e}")),
                    }
                }
            }
        }

        out.digest = digest.finish();
        if cx.score && q_n > 0 {
            out.quality_s = Some(q_sum / q_n as f64);
        }
        let m = plane.metrics();
        let named = |n: &str| m.counter_named(n).unwrap_or(0) as f64;
        let cs = plane.cache_stats();
        let c = &mut out.counts;
        c.insert("serving.waves", named("serving.waves"));
        c.insert("serving.shed_waves", named("serving.shed_waves"));
        c.insert(
            "serving.rejected",
            named("serving.rejected_queue_full") + named("serving.rejected_overload"),
        );
        c.insert(
            "serving.ledger_conflicts",
            plane.ledger_stats().conflicts as f64,
        );
        c.insert("qcache.hit_rate", cs.hit_rate());
        c.insert("qcache.l1_hits", cs.l1_hits as f64);
        c.insert("qcache.l2_hits", cs.l2_hits as f64);
        c.insert("qcache.misses", cs.misses as f64);
        c.insert("qcache.invalidated", cs.invalidated as f64);
        c.insert("qcache.stale_hits", cs.stale_hits as f64);
        c.insert(
            "sampling.sampled_share",
            sampled as f64 / out.attempted.max(1) as f64,
        );
        if cs.stale_hits != 0 || plane.ledger_stats().conflicts != 0 {
            out.violation = Some(format!(
                "{} stale cache hits, {} ledger conflicts",
                cs.stale_hits,
                plane.ledger_stats().conflicts
            ));
        }
        out
    }

    /// One untraced, unscored pass of `variant` over the whole schedule.
    fn replay_all(&self, variant: Variant) -> PassOut {
        self.run(
            variant,
            self.n_waves,
            WAVE,
            &mut PassCtx {
                score: false,
                tr: &mut Tracer::off(),
                units: &mut Units::with_capacity(self.n_waves),
            },
        )
    }

    /// One untraced, unscored pass of `variant`, folded into `m`.
    fn replay(&self, variant: Variant, n_waves: usize, take: usize, m: &mut PassMatrix) {
        let mut units = Units::with_capacity(n_waves);
        self.run(
            variant,
            n_waves,
            take,
            &mut PassCtx {
                score: false,
                tr: &mut Tracer::off(),
                units: &mut units,
            },
        );
        m.absorb(&units.lat_ns);
    }

    /// Denoised mean ns per wave of the default config and of `variant`,
    /// from interleaved passes over the first `n_waves` waves (at least two
    /// of each, then until `budget_s` is spent): the same minutes, the same
    /// machine.
    fn against_default(&self, variant: Variant, n_waves: usize, budget_s: f64) -> (f64, f64) {
        let start = Instant::now();
        let mut base = PassMatrix::new();
        let mut var = PassMatrix::new();
        while base.passes() < 2 || start.elapsed().as_secs_f64() < budget_s {
            self.replay(Variant::Default, n_waves, WAVE, &mut base);
            self.replay(variant, n_waves, WAVE, &mut var);
        }
        let per_wave = |m: &PassMatrix| m.denoised_total_ns() as f64 / n_waves as f64;
        (per_wave(&base), per_wave(&var))
    }
}

impl Workload for Hint {
    fn units(&self) -> usize {
        self.n_waves
    }

    fn ops_per_unit(&self) -> usize {
        WAVE
    }

    fn pass(&self, cx: &mut PassCtx<'_>) -> PassOut {
        self.run(Variant::Default, self.n_waves, WAVE, cx)
    }

    fn verify(&self, scored: &PassOut) -> Result<(), String> {
        if !self.hot {
            return Ok(());
        }
        // A hit must be bit-identical to the miss it replaces, from either
        // tier, and repeats must be found across waves, not only within one.
        let off = self.replay_all(Variant::CacheOff);
        let two = self.replay_all(Variant::TwoWorkers);
        for (what, replay) in [("cache-off", &off), ("two-worker", &two)] {
            if replay.digest != scored.digest {
                return Err(format!(
                    "{what} replay digest {:016x} != default {:016x}",
                    replay.digest, scored.digest
                ));
            }
        }
        let within_wave: usize = (0..self.n_waves)
            .map(|k| {
                let wave = self.wave(k);
                let distinct: BTreeSet<&str> = wave.iter().map(|q| q.1.as_str()).collect();
                wave.len() - distinct.len()
            })
            .sum();
        if scored.counts["qcache.l1_hits"] <= within_wave as f64 {
            return Err("hint_hot: no hit outlived its wave".into());
        }
        if two.counts["qcache.l2_hits"] == 0.0 {
            return Err("hint_hot: the two-worker replay never hit the shared L2".into());
        }
        Ok(())
    }

    fn probes(&self, _first: &PassOut, budget_s: f64, out: &mut BTreeMap<&'static str, f64>) {
        // Whole-plane variants against the default config, on the first
        // two fifths of the schedule, a quarter of the budget each.
        let n = self.n_waves * 2 / 5;
        let share = budget_s / 4.0;
        let per_query_us = |wave_ns: f64| wave_ns / WAVE as f64 / 1e3;
        let pct = |with: f64, without: f64| (with / without - 1.0) * 100.0;
        let (on, cache_off) = self.against_default(Variant::CacheOff, n, share);
        if !self.hot {
            // Misses only: what the cache costs when it cannot help.
            out.insert(
                "qcache.miss_overhead_us",
                per_query_us(on) - per_query_us(cache_off),
            );
        }
        let (on, tracing_off) = self.against_default(Variant::TracingOff, n, share);
        out.insert("obs.tracing_overhead_pct", pct(on, tracing_off));
        let (off, telemetry_on) = self.against_default(Variant::TelemetryOn, n, share);
        out.insert("obs.telemetry_overhead_pct", pct(telemetry_on, off));
        // With one worker `qcache.l2_hits` is 0 by construction; report
        // what the shared tier serves once a second worker exists.
        let two = self.replay_all(Variant::TwoWorkers);
        out.insert("qcache.l2_hits", two.counts["qcache.l2_hits"]);

        // Wave cost = fixed + per_query × size, from 1-query against
        // full waves: the per-wave thread spawn, refresh, ledger and cache
        // publish live in the intercept.
        let mut m1 = PassMatrix::new();
        let start = Instant::now();
        while m1.passes() < 2 || start.elapsed().as_secs_f64() < share / 4.0 {
            self.replay(Variant::Default, n, 1, &mut m1);
        }
        let single = m1.denoised_total_ns() as f64 / n as f64;
        let slope = (off - single) / (WAVE - 1) as f64;
        out.insert("serving.per_query_us", slope / 1e3);
        out.insert("serving.wave_fixed_us", (single - slope) / 1e3);

        // Direct layer probes on fresh problems of this schedule's shapes.
        let mut plan = stream_rng(PLAN, u64::MAX);
        let cfg = HeuristicConfig::default();
        for (name, shape) in [
            ("heuristic.eval_us_n20", Write20),
            ("heuristic.eval_us_n300", Write300),
        ] {
            let problems: Vec<Problem> = (0..16)
                .map(|i| {
                    resolve_text(&self.text_of(shape, &self.cold_pool(shape, 0.3, &mut plan), i))
                })
                .collect();
            let ns = min_ns(100, || {
                for p in &problems {
                    black_box(evaluate_query(black_box(p), &self.truth, &cfg));
                }
            });
            out.insert(name, ns as f64 / problems.len() as f64 / 1e3);
        }
        let sample: Vec<Problem> = self.wave(0).iter().map(|q| resolve_text(&q.1)).collect();
        let ns = min_ns(20, || {
            for p in &sample {
                black_box(fingerprint_problem(black_box(p)));
            }
        });
        out.insert(
            "canon.fingerprint_us",
            ns as f64 / sample.len() as f64 / 1e3,
        );
    }
}

fn resolve_text(text: &str) -> Problem {
    let q = parse_query(text).expect("generated text parses");
    resolve(&q, &MapResolver::new()).expect("generated text resolves")
}
