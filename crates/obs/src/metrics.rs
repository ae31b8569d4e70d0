//! The metrics registry: counters, gauges, fixed-bucket histograms and
//! mergeable quantile sketches.
//!
//! Metrics are addressed by `&'static str` names and stored in small
//! vectors in registration order. An update finds its metric through a
//! small direct-mapped cache keyed by the name's address, so a repeat
//! update with the same literal costs O(1); a miss (a first use, or the
//! same text at another address) falls back to a linear scan that compares
//! names. Updating an already registered metric performs no heap
//! allocation at all (the property the zero-allocation tests rely on).
//! Registration order is deterministic for a given code path, so
//! serialized snapshots of two identical runs are byte-identical.

use crate::event::Value;
use crate::recorder::Recorder;
use crate::sketch::QuantileSketch;

/// A fixed-bucket histogram: cumulative-style bucket upper bounds plus an
/// overflow bucket, with running count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending bucket upper bounds (a value
    /// `v` lands in the first bucket with `v <= bound`, or the overflow
    /// bucket past the last bound).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending — a
    /// programming error in instrumentation code.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default shape: powers of four from 1 to 4²⁰ (≈ 10¹²). Spans
    /// nanosecond wall timings from sub-microsecond to ~18 minutes, and
    /// small integer scales (rounds, set sizes) with exact low buckets.
    pub fn exponential() -> Self {
        let bounds: Vec<f64> = (0..=20).map(|i| 4f64.powi(i)).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let slot = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The quantile `q ∈ [0, 1]` estimated from the buckets: the upper
    /// bound of the bucket containing the `⌈q·count⌉`-th observation,
    /// clamped to the observed `[min, max]` range. Exact whenever bucket
    /// bounds are exact for the data (e.g. integer-valued observations
    /// with unit buckets); otherwise an upper estimate. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = self.bounds.get(slot).copied().unwrap_or(self.max);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Folds `other` into `self`: bucket counts add element-wise,
    /// count/sum accumulate, min/max widen. Returns `false` (and leaves
    /// `self` untouched) when the two histograms have different bucket
    /// shapes — merging is only defined across same-shape histograms,
    /// which same-name histograms from the same instrumentation always
    /// are.
    #[must_use]
    pub fn merge_from(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (slot, c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        true
    }
}

/// Cache slots per metric kind (a power of two).
const NAME_SLOTS: usize = 16;

/// A direct-mapped cache from a `&'static str` name's address and length to
/// the name's index in one of the registry's vectors. Entries are only
/// ever pushed onto those vectors, so a cached index stays valid; two
/// names with the same address and length are the same text.
#[derive(Clone, Default)]
struct NameCache {
    slots: [Option<(usize, usize, usize)>; NAME_SLOTS],
}

impl NameCache {
    fn slot(name: &'static str) -> usize {
        // Fibonacci hashing of the address: literals sit at arbitrary
        // byte offsets, so take the product's top bits.
        let hash = (name.as_ptr() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (hash >> (64 - NAME_SLOTS.trailing_zeros())) as usize
    }

    /// The index of `name` in `entries`: from the cache when this address
    /// was seen last in its slot, else by comparing names (and caching
    /// the hit).
    fn find<T>(&mut self, entries: &[(&'static str, T)], name: &'static str) -> Option<usize> {
        let slot = Self::slot(name);
        if let Some((addr, len, index)) = self.slots[slot] {
            if addr == name.as_ptr() as usize && len == name.len() {
                return Some(index);
            }
        }
        let index = entries.iter().position(|(n, _)| *n == name)?;
        self.slots[slot] = Some((name.as_ptr() as usize, name.len(), index));
        Some(index)
    }

    /// Pushes a new entry for `name` and caches its index.
    fn push<T>(&mut self, entries: &mut Vec<(&'static str, T)>, name: &'static str, value: T) {
        self.slots[Self::slot(name)] = Some((name.as_ptr() as usize, name.len(), entries.len()));
        entries.push((name, value));
    }
}

/// The cache is derived from the entries: registries holding the same
/// metrics are equal whatever their caches hold.
impl PartialEq for NameCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for NameCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameCache").finish_non_exhaustive()
    }
}

/// Counters, gauges and histograms under one roof.
///
/// Implements [`Recorder`] directly (events and timestamps are ignored),
/// so a registry can serve as the no-frills metrics sink — the chaos
/// simulator keeps one internally to build its fault summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Histogram)>,
    sketches: Vec<(&'static str, QuantileSketch)>,
    counter_names: NameCache,
    gauge_names: NameCache,
    histogram_names: NameCache,
    sketch_names: NameCache,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name`, registering it at zero first if
    /// needed. Allocation-free once registered.
    pub fn incr(&mut self, name: &'static str, delta: u64) {
        match self.counter_names.find(&self.counters, name) {
            Some(i) => self.counters[i].1 += delta,
            None => self.counter_names.push(&mut self.counters, name, delta),
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        match self.gauge_names.find(&self.gauges, name) {
            Some(i) => self.gauges[i].1 = value,
            None => self.gauge_names.push(&mut self.gauges, name, value),
        }
    }

    /// Records `value` into histogram `name`, creating it with the
    /// [`Histogram::exponential`] shape on first use.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        match self.histogram_names.find(&self.histograms, name) {
            Some(i) => self.histograms[i].1.observe(value),
            None => {
                let mut h = Histogram::exponential();
                h.observe(value);
                self.histogram_names.push(&mut self.histograms, name, h);
            }
        }
    }

    /// Registers histogram `name` with explicit bucket bounds. Call before
    /// the first observation to choose the shape. A histogram of that name
    /// whose bounds already equal `bounds` is kept with its observations,
    /// so repeated runs into one registry accumulate; one of another shape
    /// (such as the default shape an earlier [`observe`](Self::observe)
    /// auto-created) is replaced.
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        match self.histogram_names.find(&self.histograms, name) {
            Some(i) if self.histograms[i].1.bounds() == bounds => {}
            Some(i) => self.histograms[i].1 = Histogram::with_bounds(bounds),
            None => {
                let hist = Histogram::with_bounds(bounds);
                self.histogram_names.push(&mut self.histograms, name, hist);
            }
        }
    }

    /// Records `value` into quantile sketch `name`, creating it with
    /// [`DEFAULT_SKETCH_ACCURACY`](crate::DEFAULT_SKETCH_ACCURACY) on first
    /// use.
    pub fn observe_sketch(&mut self, name: &'static str, value: f64) {
        match self.sketch_names.find(&self.sketches, name) {
            Some(i) => self.sketches[i].1.observe(value),
            None => {
                let mut s = QuantileSketch::default();
                s.observe(value);
                self.sketch_names.push(&mut self.sketches, name, s);
            }
        }
    }

    /// Registers sketch `name` with an explicit relative accuracy
    /// (replacing any default-accuracy sketch auto-created earlier). Call
    /// before the first observation to choose the accuracy.
    pub fn register_sketch(&mut self, name: &'static str, relative_accuracy: f64) {
        let sketch = QuantileSketch::new(relative_accuracy);
        match self.sketch_names.find(&self.sketches, name) {
            Some(i) => self.sketches[i].1 = sketch,
            None => self.sketch_names.push(&mut self.sketches, name, sketch),
        }
    }

    /// The value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// The value of gauge `name`, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Histogram `name`, if any observation or registration created it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All gauges in registration order.
    pub fn gauges(&self) -> &[(&'static str, f64)] {
        &self.gauges
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (*n, h))
    }

    /// Sketch `name`, if any observation or registration created it.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// All sketches in registration order.
    pub fn sketches(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> {
        self.sketches.iter().map(|(n, s)| (*n, s))
    }

    /// True when nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.sketches.is_empty()
    }

    /// Folds an already-aggregated histogram into histogram `name`,
    /// creating it as a copy of `other` on first merge. A shape mismatch
    /// (different bucket bounds under the same name — an instrumentation
    /// bug) is ignored in release builds and trips a debug assertion.
    pub fn merge_histogram(&mut self, name: &'static str, other: &Histogram) {
        match self.histogram_names.find(&self.histograms, name) {
            Some(i) => {
                let merged = self.histograms[i].1.merge_from(other);
                debug_assert!(merged, "histogram '{name}' merged with a different bucket shape");
            }
            None => self.histogram_names.push(&mut self.histograms, name, other.clone()),
        }
    }

    /// Folds an already-aggregated sketch into sketch `name`, creating it
    /// as a copy of `other` on first merge. An accuracy mismatch under the
    /// same name (an instrumentation bug) is ignored in release builds and
    /// trips a debug assertion — mirroring [`Self::merge_histogram`].
    pub fn merge_sketch(&mut self, name: &'static str, other: &QuantileSketch) {
        match self.sketch_names.find(&self.sketches, name) {
            Some(i) => {
                let merged = self.sketches[i].1.merge_from(other);
                debug_assert!(merged, "sketch '{name}' merged with a different accuracy");
            }
            None => self.sketch_names.push(&mut self.sketches, name, other.clone()),
        }
    }

    /// Replays this registry's contents into `sink` through the
    /// [`Recorder`] interface: every counter as one `incr`, every gauge as
    /// one `gauge`, every histogram as one `merge_histogram` — all in
    /// registration order, so the replay is deterministic.
    ///
    /// This is the fan-in primitive of the serving layer: per-shard
    /// registries are replayed, shard by shard in index order, into the
    /// caller's recorder.
    pub fn replay_into(&self, sink: &mut dyn Recorder) {
        for (name, value) in &self.counters {
            sink.incr(name, *value);
        }
        for (name, value) in &self.gauges {
            sink.gauge(name, *value);
        }
        for (name, hist) in &self.histograms {
            sink.merge_histogram(name, hist);
        }
        for (name, sketch) in &self.sketches {
            sink.merge_sketch(name, sketch);
        }
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value (last-merged-wins, deterministic under an ordered fan-in),
    /// histograms fold bucket-wise.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        other.replay_into(self);
    }

    /// Renders a fixed-width, end-of-run summary table (counters, gauges,
    /// then histograms with count/mean/p50/p99/max).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter  {name:<34} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge    {name:<34} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist     {name:<34} count={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                if h.count() == 0 { 0.0 } else { h.max() },
            );
        }
        for (name, s) in &self.sketches {
            let _ = writeln!(
                out,
                "sketch   {name:<34} count={} p50={:.3} p99={:.3} max={:.3}",
                s.count(),
                s.quantile(0.5),
                s.quantile(0.99),
                s.max(),
            );
        }
        out
    }
}

impl Recorder for MetricsRegistry {
    fn is_enabled(&self) -> bool {
        true
    }

    fn incr(&mut self, name: &'static str, delta: u64) {
        MetricsRegistry::incr(self, name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        MetricsRegistry::gauge(self, name, value);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        MetricsRegistry::observe(self, name, value);
    }

    fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        MetricsRegistry::register_histogram(self, name, bounds);
    }

    fn merge_histogram(&mut self, name: &'static str, other: &Histogram) {
        MetricsRegistry::merge_histogram(self, name, other);
    }

    fn observe_sketch(&mut self, name: &'static str, value: f64) {
        MetricsRegistry::observe_sketch(self, name, value);
    }

    fn register_sketch(&mut self, name: &'static str, relative_accuracy: f64) {
        MetricsRegistry::register_sketch(self, name, relative_accuracy);
    }

    fn merge_sketch(&mut self, name: &'static str, other: &QuantileSketch) {
        MetricsRegistry::merge_sketch(self, name, other);
    }

    fn keeps_events(&self) -> bool {
        false
    }

    fn emit(&mut self, _name: &'static str, _fields: &[(&'static str, Value)]) {}

    fn set_time(&mut self, _tick: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = MetricsRegistry::new();
        r.incr("a", 1);
        r.incr("a", 2);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn cached_lookups_agree_with_the_name_scan() {
        // The same text at two addresses, and more names than cache slots,
        // so slots collide and get overwritten.
        let owned = String::from("a");
        let second_a: &'static str = Box::leak(owned.into_boxed_str());
        let names: Vec<&'static str> = (0..3 * NAME_SLOTS)
            .map(|i| &*Box::leak(format!("metric.{i}").into_boxed_str()))
            .chain(["a", second_a])
            .collect();
        let mut r = MetricsRegistry::new();
        for round in 0..3u64 {
            for (k, name) in names.iter().enumerate() {
                r.incr(name, k as u64 + round);
                r.gauge(name, k as f64);
                r.observe(name, k as f64);
                r.observe_sketch(name, k as f64 + 1.0);
            }
        }
        let expected: Vec<&str> = names[..3 * NAME_SLOTS + 1].to_vec();
        let counter_names: Vec<&str> = r.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(counter_names, expected, "registration order");
        for name in &expected {
            let same: Vec<u64> =
                (0..names.len() as u64).filter(|&k| names[k as usize] == *name).collect();
            let total: u64 = same.iter().map(|k| 3 * k + 3).sum();
            assert_eq!(r.counter(name), total, "{name}");
            let updates = 3 * same.len() as u64;
            assert_eq!(r.histogram(name).unwrap().count(), updates, "{name}");
            assert_eq!(r.sketch(name).unwrap().count(), updates, "{name}");
        }
        // A registry rebuilt without any cache hits is equal.
        let mut replayed = MetricsRegistry::new();
        r.replay_into(&mut replayed);
        assert_eq!(replayed, r);
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let mut r = MetricsRegistry::new();
        r.gauge("threads", 4.0);
        r.gauge("threads", 8.0);
        assert_eq!(r.gauge_value("threads"), Some(8.0));
        assert_eq!(r.gauge_value("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats_are_exact_for_unit_bounds() {
        let mut h = Histogram::with_bounds(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        for v in [0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 9.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.99), 9.0);
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn re_registering_a_histogram_keeps_its_observations_unless_reshaped() {
        let mut r = MetricsRegistry::new();
        r.register_histogram("lat", &[1.0, 2.0]);
        r.observe("lat", 1.0);
        r.register_histogram("lat", &[1.0, 2.0]);
        r.observe("lat", 3.0);
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count(), 2, "a same-shape registration must not wipe the histogram");
        assert_eq!(h.sum(), 4.0);
        // Another shape replaces it, as does an explicit shape over the
        // default one `observe` auto-created.
        r.register_histogram("lat", &[5.0]);
        assert_eq!(r.histogram("lat").unwrap().count(), 0);
        assert_eq!(r.histogram("lat").unwrap().bounds(), &[5.0]);
        r.observe("auto", 1.0);
        r.register_histogram("auto", &[1.0]);
        assert_eq!(r.histogram("auto").unwrap().count(), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::exponential();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn registering_explicit_bounds_replaces_the_default_shape() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", 0.0);
        r.register_histogram("lat", &[0.0, 1.0, 2.0]);
        assert_eq!(r.histogram("lat").unwrap().count(), 0);
        r.observe("lat", 0.0);
        assert_eq!(r.histogram("lat").unwrap().quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_bounds() {
        let _ = Histogram::with_bounds(&[2.0, 1.0]);
    }

    #[test]
    fn summary_lists_every_metric() {
        let mut r = MetricsRegistry::new();
        r.incr("sim.dropped", 3);
        r.gauge("threads", 2.0);
        r.observe("lat", 1.0);
        let s = r.summary();
        assert!(s.contains("sim.dropped"));
        assert!(s.contains("threads"));
        assert!(s.contains("count=1"));
    }

    #[test]
    fn histogram_merge_adds_buckets_and_widens_extremes() {
        let mut a = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        let mut b = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        a.observe(0.5);
        a.observe(5.0);
        b.observe(50.0);
        b.observe(500.0);
        assert!(a.merge_from(&b));
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 555.5);
        assert_eq!(a.min(), 0.5);
        assert_eq!(a.max(), 500.0);
        assert_eq!(a.quantile(0.99), 500.0);
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut a = Histogram::exponential();
        a.observe(3.0);
        let before = a.clone();
        assert!(a.merge_from(&Histogram::exponential()));
        assert_eq!(a, before);
        // And merging *into* an empty one adopts the observations.
        let mut empty = Histogram::exponential();
        assert!(empty.merge_from(&before));
        assert_eq!(empty, before);
    }

    #[test]
    fn merge_rejects_mismatched_bucket_shapes() {
        let mut a = Histogram::with_bounds(&[1.0, 2.0]);
        let b = Histogram::with_bounds(&[1.0, 2.0, 3.0]);
        let before = a.clone();
        assert!(!a.merge_from(&b));
        assert_eq!(a, before, "a failed merge must leave the target untouched");
    }

    #[test]
    fn replay_reconstructs_the_registry_in_another_sink() {
        let mut shard = MetricsRegistry::new();
        shard.incr("serve.requests", 7);
        shard.gauge("serve.shards", 2.0);
        shard.observe("serve.iters", 3.0);
        shard.observe("serve.iters", 9.0);

        let mut aggregate = MetricsRegistry::new();
        aggregate.incr("serve.requests", 1);
        shard.replay_into(&mut aggregate);

        assert_eq!(aggregate.counter("serve.requests"), 8);
        assert_eq!(aggregate.gauge_value("serve.shards"), Some(2.0));
        let h = aggregate.histogram("serve.iters").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12.0);
    }

    #[test]
    fn sketches_register_observe_and_replay() {
        let mut shard = MetricsRegistry::new();
        shard.register_sketch("served.wait", 0.02);
        shard.observe_sketch("served.wait", 4.0);
        shard.observe_sketch("served.wait", 16.0);
        shard.observe_sketch("served.predicted_wait", 5.0);

        let mut aggregate = MetricsRegistry::new();
        shard.replay_into(&mut aggregate);
        shard.replay_into(&mut aggregate);

        let wait = aggregate.sketch("served.wait").unwrap();
        assert_eq!(wait.count(), 4);
        assert_eq!(wait.relative_accuracy(), 0.02);
        assert_eq!(wait.max(), 16.0);
        assert_eq!(aggregate.sketch("served.predicted_wait").unwrap().count(), 2);
        assert!(aggregate.sketch("missing").is_none());
        assert!(aggregate.summary().contains("served.wait"));
    }

    #[test]
    fn registering_sketch_accuracy_replaces_the_default() {
        let mut r = MetricsRegistry::new();
        r.observe_sketch("lat", 1.0);
        r.register_sketch("lat", 0.05);
        assert_eq!(r.sketch("lat").unwrap().count(), 0);
        assert_eq!(r.sketch("lat").unwrap().relative_accuracy(), 0.05);
    }

    #[test]
    fn shard_fan_in_is_order_independent_for_counters_and_histograms() {
        let mut shards = Vec::new();
        for s in 0..3u64 {
            let mut r = MetricsRegistry::new();
            r.incr("serve.requests", s + 1);
            r.observe("serve.iters", s as f64);
            shards.push(r);
        }
        let mut forward = MetricsRegistry::new();
        for s in &shards {
            forward.merge_from(s);
        }
        let mut backward = MetricsRegistry::new();
        for s in shards.iter().rev() {
            backward.merge_from(s);
        }
        assert_eq!(forward.counter("serve.requests"), backward.counter("serve.requests"));
        assert_eq!(
            forward.histogram("serve.iters").unwrap().count(),
            backward.histogram("serve.iters").unwrap().count()
        );
        assert_eq!(
            forward.histogram("serve.iters").unwrap().sum(),
            backward.histogram("serve.iters").unwrap().sum()
        );
    }
}
