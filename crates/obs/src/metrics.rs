//! Named counters, gauges and log-bucketed histograms with JSON export.
//!
//! Metrics live in a [`Registry`] — normally the process-wide default
//! reached through the free functions [`counter`], [`gauge`] and
//! [`histogram`], but tests build isolated `Registry::new()` instances.
//! Handles are `Arc`s, so call sites can cache them across hot loops.
//!
//! Export is deliberately dependency-free: [`Registry::export_jsonl`]
//! emits one JSON object per line, with metrics sorted by name so
//! output is stable and diffable. Non-finite floats export as `null` to
//! stay valid JSON.

#![warn(clippy::cast_possible_truncation)]

use crate::json::{json_number, json_opt_number, json_string};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float metric.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Buckets per decade of the histogram's log scale.
const BUCKETS_PER_DECADE: usize = 8;
/// Lower edge of the first regular bucket.
const FIRST_EDGE: f64 = 1e-9;
/// Decades covered by regular buckets: [1e-9, 1e9).
const DECADES: usize = 18;
/// Number of regular buckets.
const NUM_BUCKETS: usize = BUCKETS_PER_DECADE * DECADES;

/// Interior, mutex-guarded histogram state.
#[derive(Debug)]
struct HistogramData {
    /// Regular log-scale buckets plus dedicated under/overflow.
    buckets: Box<[u64; NUM_BUCKETS]>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A fixed-bucket histogram on a log scale covering `[1e-9, 1e9)` with
/// eight buckets per decade (~33% relative resolution), suitable for
/// durations in seconds, residuals, degrees, and similar positive
/// quantities. Values at or below `1e-9` (including zero and
/// negatives) land in an underflow bucket; values `>= 1e9` overflow.
#[derive(Debug)]
pub struct Histogram {
    data: Mutex<HistogramData>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            data: Mutex::new(HistogramData {
                buckets: Box::new([0; NUM_BUCKETS]),
                underflow: 0,
                overflow: 0,
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }),
        }
    }
}

/// Index of the regular bucket for `value`, if it has one.
fn bucket_index(value: f64) -> Option<usize> {
    if value.is_nan() || value <= FIRST_EDGE {
        return None; // underflow (also zero, negatives, NaN)
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "value > FIRST_EDGE, so the floored log is a small non-negative integer, or +inf, which saturates into the overflow arm"
    )]
    let idx = ((value / FIRST_EDGE).log10() * BUCKETS_PER_DECADE as f64).floor() as isize;
    if idx < 0 {
        None
    } else if (idx as usize) < NUM_BUCKETS {
        Some(idx as usize)
    } else {
        None // overflow — caller distinguishes by value > FIRST_EDGE
    }
}

/// Bucket edges `[lower, upper)` for regular bucket `i`.
fn bucket_edges(i: usize) -> (f64, f64) {
    let lower = FIRST_EDGE * 10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64);
    let upper = FIRST_EDGE * 10f64.powf((i + 1) as f64 / BUCKETS_PER_DECADE as f64);
    (lower, upper)
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: f64) {
        self.record_many(value, 1);
    }

    /// Record `n` identical observations in one lock acquisition.
    pub fn record_many(&self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let mut data = crate::acquire(&self.data);
        match bucket_index(value) {
            Some(i) => data.buckets[i] += n,
            None if value > FIRST_EDGE => data.overflow += n,
            None => data.underflow += n,
        }
        data.count += n;
        if value.is_finite() {
            data.sum += value * n as f64;
            data.min = data.min.min(value);
            data.max = data.max.max(value);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        crate::acquire(&self.data).count
    }

    /// Sum of recorded (finite) observations.
    pub fn sum(&self) -> f64 {
        crate::acquire(&self.data).sum
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        let data = crate::acquire(&self.data);
        data.min.is_finite().then_some(data.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        let data = crate::acquire(&self.data);
        data.max.is_finite().then_some(data.max)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`). Total — every input
    /// has a defined answer:
    ///
    /// * empty histogram (or one that has seen only non-finite
    ///   values) → `0.0`;
    /// * all recorded finite values equal (the single-sample case in
    ///   particular) → exactly that value, never a bucket midpoint;
    /// * otherwise the geometric midpoint of the bucket holding the
    ///   rank-`⌈q·count⌉` observation, clamped to the exact observed
    ///   `[min, max]`, so the relative error is bounded by the bucket
    ///   width (one eighth of a decade, ~15% from midpoint to edge).
    ///
    /// Monotone by construction: the rank is nondecreasing in `q`, the
    /// bucket scan returns nondecreasing midpoints over ranks, and the
    /// final clamp applies fixed bounds — so `q1 <= q2` implies
    /// `quantile(q1) <= quantile(q2)` on any histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let data = crate::acquire(&self.data);
        if data.count == 0 || data.min > data.max {
            // empty, or no finite observation ever landed: a defined
            // floor beats a NaN-poisoned readout downstream
            return 0.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "min and max are copies of observed values, so equal bits mean exactly one distinct value"
        )]
        if data.min == data.max {
            // one distinct finite value — report it exactly
            return data.min;
        }
        let clamp = |v: f64| v.clamp(data.min, data.max);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is clamped to [0, 1], so the rank lies in [0, count] and fits u64"
        )]
        let rank = ((q.clamp(0.0, 1.0) * data.count as f64).ceil() as u64).max(1);
        let mut seen = data.underflow;
        if rank <= seen {
            return clamp(FIRST_EDGE);
        }
        for (i, &n) in data.buckets.iter().enumerate() {
            seen += n;
            if rank <= seen {
                let (lower, upper) = bucket_edges(i);
                return clamp((lower * upper).sqrt());
            }
        }
        clamp(data.max)
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A named collection of metrics.
///
/// `Registry::global()` is the process-wide default used by the free
/// functions; `Registry::new()` gives tests an isolated instance.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide default registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(crate::acquire(&self.counters).entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(crate::acquire(&self.gauges).entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(crate::acquire(&self.histograms).entry(name.to_string()).or_default())
    }

    /// One JSONL line per metric, sorted by (type, name):
    ///
    /// ```json
    /// {"type":"counter","name":"...","value":N}
    /// {"type":"gauge","name":"...","value":X}
    /// {"type":"histogram","name":"...","count":N,"sum":X,"min":X,"max":X,"p50":X,"p95":X,"p99":X}
    /// ```
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, c) in crate::acquire(&self.counters).iter() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}\n",
                json_string(name),
                c.get(),
            ));
        }
        for (name, g) in crate::acquire(&self.gauges).iter() {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json_string(name),
                json_number(g.get()),
            ));
        }
        for (name, h) in crate::acquire(&self.histograms).iter() {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}\n",
                json_string(name),
                h.count(),
                json_number(h.sum()),
                json_opt_number(h.min()),
                json_opt_number(h.max()),
                json_number(h.p50()),
                json_number(h.p95()),
                json_number(h.p99()),
            ));
        }
        out
    }
}

/// The global counter named `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    Registry::global().counter(name)
}

/// The global gauge named `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    Registry::global().gauge(name)
}

/// The global histogram named `name`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    Registry::global().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let registry = Registry::new();
        let c = registry.counter("edges");
        c.incr();
        c.add(4);
        assert_eq!(registry.counter("edges").get(), 5);
        let g = registry.gauge("loss");
        g.set(-1.5);
        assert!((registry.gauge("loss").get() + 1.5).abs() < 1e-15);
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "the oracle rank is < 5000")]
    fn histogram_quantiles_match_sorted_vector_oracle() {
        // mixed-magnitude sample spanning several decades
        let h = Histogram::default();
        let mut values = Vec::new();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..5000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // log-uniform over roughly [1e-6, 1e2]
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v = 10f64.powf(-6.0 + 8.0 * u);
            values.push(v);
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let oracle =
                values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let estimate = h.quantile(q);
            let ratio = estimate / oracle;
            // one log-scale bucket is a factor 10^(1/8) ≈ 1.33 wide;
            // midpoint estimate must land within ~±1 bucket of truth
            assert!(
                (0.70..=1.40).contains(&ratio),
                "q={q}: estimate {estimate} vs oracle {oracle} (ratio {ratio})"
            );
        }
        assert_eq!(h.count(), 5000);
        let min = h.min().unwrap();
        let max = h.max().unwrap();
        assert!(h.quantile(0.0) >= min);
        assert!(h.quantile(1.0) <= max);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            h.record(10f64.powf(-8.0 + 12.0 * u));
        }
        let mut last = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} dropped below {last}");
            last = v;
        }
    }

    #[test]
    fn histogram_handles_edge_values() {
        let h = Histogram::default();
        h.record(0.0); // underflow
        h.record(-3.0); // underflow
        h.record(1e12); // overflow
        h.record_many(2.0, 7);
        assert_eq!(h.count(), 10);
        assert!((h.min().unwrap() + 3.0).abs() < 1e-15);
        assert!((h.max().unwrap() - 1e12).abs() < 1e-3);
        // median falls among the 2.0 observations
        let p50 = h.p50();
        assert!((1.5..3.0).contains(&p50), "p50 {p50}");
        assert!(h.quantile(1.0) <= 1e12);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert!(h.min().is_none());
        assert!(h.max().is_none());
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::default();
        h.record(3.7);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.7, "q={q} must be the sample, not a bucket midpoint");
        }
        // repeated identical samples are equally exact
        h.record_many(3.7, 99);
        assert_eq!(h.p50(), 3.7);
        assert_eq!(h.p99(), 3.7);
    }

    #[test]
    fn export_schema_is_stable() {
        // exact-string comparison: any schema change must be deliberate
        let registry = Registry::new();
        registry.counter("knn.candidate_pairs").add(42);
        registry.gauge("lbfgs.objective").set(2.5);
        let h = registry.histogram("graph.degree");
        h.record_many(4.0, 3);
        let jsonl = registry.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"knn.candidate_pairs\",\"value\":42}"
        );
        assert_eq!(lines[1], "{\"type\":\"gauge\",\"name\":\"lbfgs.objective\",\"value\":2.5}");
        assert!(lines[2].starts_with(
            "{\"type\":\"histogram\",\"name\":\"graph.degree\",\"count\":3,\"sum\":12,"
        ));
        assert!(lines[2].ends_with("}"));
    }

    #[test]
    fn export_sorted_by_name_and_escaped() {
        let registry = Registry::new();
        registry.counter("zzz").incr();
        registry.counter("aaa \"x\"\n").incr();
        let jsonl = registry.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines[0], "{\"type\":\"counter\",\"name\":\"aaa \\\"x\\\"\\n\",\"value\":1}");
        assert!(lines[1].contains("\"zzz\""));
    }

    #[test]
    fn global_registry_free_functions() {
        counter("obs.test.global_counter").add(2);
        assert!(counter("obs.test.global_counter").get() >= 2);
        gauge("obs.test.global_gauge").set(1.0);
        histogram("obs.test.global_hist").record(0.5);
        assert!(Registry::global().export_jsonl().contains("obs.test.global_counter"));
    }
}
