//! A small, allocation-conscious metrics registry.
//!
//! Metrics are registered once by name (cold path, may allocate) and then
//! updated through dense index handles ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) — each update is a single array write, cheap enough
//! for the simulation engine's event loop and pinned allocation-free by
//! the counting-allocator suites.
//!
//! The registry is owned, not global: each subsystem (a `CloudTalkServer`,
//! a `NetSim`) carries its own, so tests can read exported values without
//! reaching into private fields and parallel instances never contend.

/// The `q`-quantile (`q` in `[0, 1]`) estimated from raw bucket counts by
/// linear interpolation inside the bucket holding the target rank — the
/// Prometheus `histogram_quantile` estimator. `counts` must have
/// `bounds.len() + 1` entries (the last is the overflow bucket); ranks
/// landing in overflow clamp to the highest finite edge, the honest answer
/// a fixed-bucket histogram can give. Returns 0 for an empty distribution.
///
/// This is the shared estimator behind [`Histogram::quantile`] and the
/// windowed time-series summaries in [`crate::timeseries`], which keep raw
/// bucket arrays rather than `Histogram` values on their hot path.
pub(crate) fn quantile_from_counts(bounds: &[f64], counts: &[u64], total: u64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let next = seen + c as f64;
        if next >= rank && c > 0 {
            if i >= bounds.len() {
                // Overflow bucket: no finite upper edge to interpolate
                // towards.
                return bounds.last().copied().unwrap_or(0.0);
            }
            let hi = bounds[i];
            let lo = if i == 0 {
                if hi > 0.0 {
                    0.0
                } else {
                    hi
                }
            } else {
                bounds[i - 1]
            };
            let frac = ((rank - seen) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        seen = next;
    }
    bounds.last().copied().unwrap_or(0.0)
}

/// Handle to a registered counter (monotonic `u64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge (`f64`, last/max semantics chosen per call).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered fixed-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(u32);

/// A fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// first `bounds.len()` buckets; one extra overflow bucket catches the rest.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0.0;
    }

    /// Inclusive upper edges of the finite buckets.
    pub(crate) fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from the bucket
    /// counts by linear interpolation inside the bucket holding the
    /// target rank — the Prometheus `histogram_quantile` estimator. The
    /// first bucket interpolates from 0 (or from its upper edge when that
    /// edge is negative); ranks landing in the overflow bucket clamp to
    /// the highest finite edge, the honest answer a fixed-bucket
    /// histogram can give. Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        quantile_from_counts(self.bounds, &self.counts, self.total, q)
    }

    /// Median estimate ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Adds `other`'s observations into this histogram. Both histograms
    /// must have been registered with the same bucket edges — merging
    /// per-worker registries of the same subsystem always satisfies this.
    ///
    /// # Panics
    /// If the bucket edges differ.
    pub(crate) fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket edges"
        );
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Registry of named counters, gauges, and histograms.
///
/// Registration is idempotent per name and kind (registering the same name
/// twice returns the same handle); iteration order is registration order,
/// which is deterministic for a deterministic program.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<f64>,
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a counter named `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|&n| n == name) {
            return CounterId(i as u32);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Registers (or looks up) a gauge named `name`.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|&n| n == name) {
            return GaugeId(i as u32);
        }
        self.gauge_names.push(name);
        self.gauges.push(0.0);
        GaugeId((self.gauges.len() - 1) as u32)
    }

    /// Registers (or looks up) a histogram named `name` with the given
    /// bucket upper edges (must be sorted ascending; an overflow bucket is
    /// added automatically).
    pub fn histogram(&mut self, name: &'static str, bounds: &'static [f64]) -> HistogramId {
        if let Some(i) = self.hist_names.iter().position(|&n| n == name) {
            return HistogramId(i as u32);
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds not sorted");
        self.hist_names.push(name);
        self.hists.push(Histogram::new(bounds));
        HistogramId((self.hists.len() - 1) as u32)
    }

    /// Adds `n` to a counter. Hot path: one array write.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Current value of a counter.
    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Raises a gauge to `v` if `v` is larger (high-watermark semantics).
    #[inline]
    pub fn gauge_max(&mut self, id: GaugeId, v: f64) {
        let g = &mut self.gauges[id.0 as usize];
        if v > *g {
            *g = v;
        }
    }

    /// Current value of a gauge.
    #[inline]
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize]
    }

    /// Records an observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        self.hists[id.0 as usize].observe(v);
    }

    /// Read access to a histogram.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        &self.hists[id.0 as usize]
    }

    /// Looks up a counter's value by name — the exported-metrics read used
    /// by tests that must not reach into private fields.
    pub fn counter_named(&self, name: &str) -> Option<u64> {
        self.counter_names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.counters[i])
    }

    /// Looks up a gauge's value by name.
    pub fn gauge_named(&self, name: &str) -> Option<f64> {
        self.gauge_names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.gauges[i])
    }

    /// Zeroes every metric, keeping registrations (and handles) intact.
    /// Allocation-free.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.gauges.iter_mut().for_each(|g| *g = 0.0);
        self.hists.iter_mut().for_each(|h| h.reset());
    }

    /// Registered counters as `(name, value)` in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_names
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
    }

    /// Registered gauges as `(name, value)` in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauge_names
            .iter()
            .copied()
            .zip(self.gauges.iter().copied())
    }

    /// Registered histograms as `(name, histogram)` in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hist_names.iter().copied().zip(self.hists.iter())
    }

    /// Folds `other` into this registry by metric name: counters add,
    /// gauges keep the maximum (high-watermark semantics — the only
    /// cross-instance reduction that is order-independent), histograms
    /// merge bucket-wise. Names missing here are registered first, so
    /// merging a worker pool's per-worker registries into one view needs
    /// no pre-registration. Same-named histograms must share bucket
    /// edges (see `Histogram::merge_from`).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (i, &name) in other.counter_names.iter().enumerate() {
            let id = self.counter(name);
            self.counters[id.0 as usize] += other.counters[i];
        }
        for (i, &name) in other.gauge_names.iter().enumerate() {
            let id = self.gauge(name);
            self.gauge_max(id, other.gauges[i]);
        }
        for (i, &name) in other.hist_names.iter().enumerate() {
            let id = self.histogram(name, other.hists[i].bounds);
            self.hists[id.0 as usize].merge_from(&other.hists[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a, 2);
        r.inc(b, 3);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.counter_named("x"), Some(5));
        assert_eq!(r.counter_named("y"), None);
    }

    #[test]
    fn gauges_track_set_and_max() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("g");
        r.gauge_set(g, 4.0);
        r.gauge_max(g, 2.0);
        assert_eq!(r.gauge_value(g), 4.0);
        r.gauge_max(g, 9.0);
        assert_eq!(r.gauge_value(g), 9.0);
        assert_eq!(r.gauge_named("g"), Some(9.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("h", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            r.observe(h, v);
        }
        let hist = r.histogram_value(h);
        assert_eq!(hist.counts(), &[2, 1, 1, 1]);
        assert_eq!(hist.total(), 5);
        assert_eq!(hist.sum(), 106.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat", &[1.0, 2.0, 4.0, 8.0]);
        // 100 observations spread 25/25/25/25 over the four finite buckets.
        for i in 0..100 {
            let v = match i % 4 {
                0 => 0.5,
                1 => 1.5,
                2 => 3.0,
                _ => 6.0,
            };
            r.observe(h, v);
        }
        let hist = r.histogram_value(h);
        // Rank 50 sits exactly at the top of the second bucket.
        assert!((hist.p50() - 2.0).abs() < 1e-9, "p50 {}", hist.p50());
        // Rank 25 is the top of the first bucket (interpolated from 0).
        assert!((hist.quantile(0.25) - 1.0).abs() < 1e-9);
        // Rank 99 is 24/25 into the last finite bucket: 4 + 4·(24/25).
        assert!((hist.p99() - 7.84).abs() < 1e-9, "p99 {}", hist.p99());
        // Extremes.
        assert_eq!(hist.quantile(0.0), 0.0);
        assert_eq!(hist.quantile(1.0), 8.0);
    }

    #[test]
    fn quantile_clamps_to_highest_edge_in_overflow() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("h", &[1.0, 2.0]);
        r.observe(h, 100.0);
        r.observe(h, 200.0);
        let hist = r.histogram_value(h);
        assert_eq!(hist.p50(), 2.0);
        assert_eq!(hist.p999(), 2.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("h", &[1.0]);
        assert_eq!(r.histogram_value(h).p99(), 0.0);
    }

    #[test]
    fn merge_folds_counters_gauges_and_histograms() {
        let mut a = MetricsRegistry::new();
        let ca = a.counter("c");
        let ga = a.gauge("g");
        let ha = a.histogram("h", &[1.0, 2.0]);
        a.inc(ca, 3);
        a.gauge_set(ga, 5.0);
        a.observe(ha, 0.5);

        let mut b = MetricsRegistry::new();
        // Different registration order and an extra name: both must merge.
        let hb = b.histogram("h", &[1.0, 2.0]);
        let cb = b.counter("c");
        let xb = b.counter("only_in_b");
        let gb = b.gauge("g");
        b.inc(cb, 4);
        b.inc(xb, 7);
        b.gauge_set(gb, 2.0);
        b.observe(hb, 1.5);
        b.observe(hb, 9.0);

        a.merge_from(&b);
        assert_eq!(a.counter_named("c"), Some(7));
        assert_eq!(a.counter_named("only_in_b"), Some(7));
        assert_eq!(a.gauge_named("g"), Some(5.0), "gauges keep the max");
        let h = a.histogram_value(ha);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.sum(), 11.0);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h", &[1.0]);
        r.inc(c, 1);
        r.gauge_set(g, 1.0);
        r.observe(h, 0.5);
        r.reset();
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.gauge_value(g), 0.0);
        assert_eq!(r.histogram_value(h).total(), 0);
        r.inc(c, 7);
        assert_eq!(r.counter_named("c"), Some(7));
    }
}
