//! The metrics registry: counters, max-gauges, and log-bucketed histograms.
//!
//! Everything here is built for the transaction hot path:
//!
//! * [`Counter`] is a few relaxed atomics, one per recording stripe and
//!   each on its own cache line, summed on read — exact, and an increment
//!   from one worker thread does not take the line from another;
//! * [`MaxGauge`] is a single relaxed atomic that is only *written* when an
//!   observation raises it;
//! * [`Histogram`] is a log-bucketed (HDR-style) histogram striped across a
//!   few cache-line-independent shards, so concurrent recorders from
//!   different worker threads do not serialize on one cache line. Recording
//!   is lock-free: one relaxed `fetch_add` into the bucket plus count/sum
//!   bookkeeping. Merging happens only at snapshot time.
//!
//! Buckets cover `0..2^40` nanoseconds (~18 minutes) with 64 sub-buckets
//! per power of two, bounding the relative quantile error at ~1.6%. The
//! exact maximum is tracked separately so `max` never suffers bucketing
//! error.
//!
//! A [`MetricsRegistry`] names instruments and snapshots them into the
//! serializable [`MetricsSnapshot`], which merges across shards and renders
//! as Prometheus-style text. Registries can be created *disabled*:
//! histograms then drop samples at the first branch (the obs-off leg of the
//! overhead benchmark), while counters stay live — they back engine
//! statistics that must always be correct.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One stripe's share of a [`Counter`], alone on its cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CounterCell(AtomicU64);

/// A monotonically increasing counter, striped like [`Histogram`]: a thread
/// adds to its own stripe's cell, a reader sums the cells.
#[derive(Debug, Default)]
pub struct Counter([CounterCell; STRIPES]);

impl Counter {
    /// A fresh zeroed counter (standalone, not registered anywhere).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[stripe_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: every `add` that happened-before the call is in it.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A gauge that keeps the maximum value ever observed.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// A fresh zeroed gauge (standalone, not registered anywhere).
    pub fn new() -> Self {
        MaxGauge::default()
    }

    /// Raises the gauge to `v` if larger than anything seen so far. A value
    /// that does not raise it only *loads* the cell, so a gauge observed on
    /// a hot path from many threads stays a shared, unwritten cache line
    /// once it has warmed up.
    #[inline]
    pub fn observe(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The maximum observed so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per power of two.
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Highest covered power of two; values at or above 2^(MAX_POW+1) clamp
/// into the top bucket.
const MAX_POW: u32 = 39;
/// Total bucket count: one linear region below 64, then 64 sub-buckets for
/// each power of two from 6 through 39.
const BUCKET_COUNT: usize = SUB_BUCKETS + ((MAX_POW - SUB_BITS + 1) as usize) * SUB_BUCKETS;
/// Number of independent recording stripes (threads hash onto one).
const STRIPES: usize = 4;

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    if msb > MAX_POW {
        return BUCKET_COUNT - 1;
    }
    let sub = (value >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
    SUB_BUCKETS + ((msb - SUB_BITS) as usize) * SUB_BUCKETS + sub as usize
}

/// The midpoint of a bucket's value range (its representative value).
fn bucket_value(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let m = SUB_BITS + ((index - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let width = 1u64 << (m - SUB_BITS);
    let low = (1u64 << m) + sub * width;
    low + width / 2
}

/// One recording stripe: an independent set of bucket cells.
struct Stripe {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The stripe this thread records into. Assigned round-robin on first use
/// so recorder threads spread across stripes without hashing per sample.
#[inline]
fn stripe_id() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|cell| {
        let mut id = cell.get();
        if id == usize::MAX {
            id = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            cell.set(id);
        }
        id
    })
}

/// A striped, log-bucketed histogram of `u64` values (nanoseconds by
/// convention). Recording is lock-free and wait-free; snapshots merge the
/// stripes.
pub struct Histogram {
    enabled: AtomicBool,
    stripes: Vec<Stripe>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("enabled", &self.is_enabled())
            .field("count", &self.snapshot().count)
            .finish()
    }
}

impl Histogram {
    /// An enabled histogram.
    pub fn new() -> Self {
        Histogram::with_enabled(true)
    }

    /// A histogram with an explicit enabled flag; a disabled histogram
    /// drops samples at the first branch of [`record`](Histogram::record).
    pub fn with_enabled(enabled: bool) -> Self {
        Histogram {
            enabled: AtomicBool::new(enabled),
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one value (no-op when disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let stripe = &self.stripes[stripe_id()];
        stripe.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        stripe.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds a snapshot's samples into this histogram, exactly: bucket
    /// counts land in their original buckets and count/sum/max carry over
    /// unchanged. Used to merge per-thread recorders (and snapshots that
    /// arrived over the wire) back into a live histogram. Recorded even
    /// when the histogram is disabled — a snapshot holds already-collected
    /// data, not a new sample on the hot path.
    pub fn merge_snapshot(&self, other: &HistogramSnapshot) {
        let stripe = &self.stripes[stripe_id()];
        for &(index, n) in &other.buckets {
            let index = (index as usize).min(BUCKET_COUNT - 1);
            stripe.buckets[index].fetch_add(n, Ordering::Relaxed);
        }
        stripe.count.fetch_add(other.count, Ordering::Relaxed);
        stripe.sum.fetch_add(other.sum, Ordering::Relaxed);
        stripe.max.fetch_max(other.max, Ordering::Relaxed);
    }

    /// Merges the stripes into a serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut dense = vec![0u64; BUCKET_COUNT];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for stripe in &self.stripes {
            for (cell, slot) in stripe.buckets.iter().zip(dense.iter_mut()) {
                *slot += cell.load(Ordering::Relaxed);
            }
            count += stripe.count.load(Ordering::Relaxed);
            sum = sum.saturating_add(stripe.sum.load(Ordering::Relaxed));
            max = max.max(stripe.max.load(Ordering::Relaxed));
        }
        let buckets = dense
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (i as u32, n))
            .collect();
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A merged, serializable view of a [`Histogram`]: sparse `(bucket index,
/// count)` pairs plus exact count/sum/max.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples (saturating).
    pub sum: u64,
    /// Exact maximum sample (no bucketing error).
    pub max: u64,
    /// Occupied buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (`0.0..=1.0`), within ~1.6% relative
    /// error; returns 0 when empty. The result is capped at the exact
    /// maximum, so `quantile(1.0) == max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            // The top of the distribution is tracked exactly; bucket
            // midpoints would undershoot a max in its bucket's upper half.
            return self.max;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(index, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bucket_value(index as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds another snapshot's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A named set of instruments. Cloned handles ([`Arc`]) are cached by
/// callers; the registry lock is only taken at get-or-create and snapshot
/// time, never per sample.
pub struct MetricsRegistry {
    enabled: bool,
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<MaxGauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl MetricsRegistry {
    /// A fully enabled registry.
    pub fn new() -> Self {
        MetricsRegistry::with_enabled(true)
    }

    /// A registry whose histograms drop samples (the obs-off leg).
    /// Counters and gauges stay live: they back engine statistics
    /// (`DurabilityStats`, pipeline stats, `ClusterStats`) whose
    /// correctness is not optional.
    pub fn disabled() -> Self {
        MetricsRegistry::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
        }
    }

    /// Whether histograms record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the max-gauge `name`.
    pub fn max_gauge(&self, name: &str) -> Arc<MaxGauge> {
        let mut map = self.gauges.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(MaxGauge::new())),
        )
    }

    /// Get-or-create the histogram `name` (created disabled when the
    /// registry is disabled).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_enabled(self.enabled))),
        )
    }

    /// Snapshots every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64)> = self
            .gauges
            .lock()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A serializable snapshot of one registry (or a merge of several).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Max-gauge values, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merges another snapshot: counters add, gauges max, histograms
    /// merge; instruments unique to either side are kept.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn fold<V: Clone>(
            into: &mut Vec<(String, V)>,
            from: &[(String, V)],
            combine: impl Fn(&mut V, &V),
        ) {
            for (name, value) in from {
                match into.iter_mut().find(|(n, _)| n == name) {
                    Some((_, existing)) => combine(existing, value),
                    None => into.push((name.clone(), value.clone())),
                }
            }
            into.sort_by(|a, b| a.0.cmp(&b.0));
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += *b);
        fold(&mut self.gauges, &other.gauges, |a, b| *a = (*a).max(*b));
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// Renders the snapshot as Prometheus-style exposition text. Metric
    /// names have `.` replaced with `_`; histograms expose
    /// `_count`/`_sum`/`_max` plus p50/p95/p99 quantile gauges (full
    /// bucket exposition would defeat the point of a human-readable dump).
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", h.p50()));
            out.push_str(&format!("{name}{{quantile=\"0.95\"}} {}\n", h.p95()));
            out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", h.p99()));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_max {}\n", h.max));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(7);
        g.observe(5);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_and_value_are_consistent() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            100,
            1_000,
            50_000_000,
            99_000_000,
            (1 << 39) + 12345,
            (1 << 40) - 1,
        ] {
            let idx = bucket_index(v);
            let mid = bucket_value(idx);
            let err = (mid as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.016, "value {v}: bucket mid {mid} off by {err}");
        }
        // Overflow clamps to the top bucket instead of panicking.
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(1 << 40), BUCKET_COUNT - 1);
    }

    #[test]
    fn quantiles_within_error_bound() {
        let h = Histogram::new();
        for ms in 1..=100u64 {
            h.record(ms * 1_000_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 100_000_000);
        let p50_ms = snap.p50() as f64 / 1e6;
        assert!((49.0..=52.0).contains(&p50_ms), "p50 {p50_ms}");
        let p99_ms = snap.p99() as f64 / 1e6;
        assert!(p99_ms >= 98.0, "p99 {p99_ms}");
        assert!((snap.mean() / 1e6 - 50.5).abs() < 0.5);
        assert_eq!(snap.quantile(1.0), snap.max);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let h = Histogram::with_enabled(false);
        h.record(42);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn snapshot_merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in [1u64, 70, 4_096, 1_000_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [2u64, 70, 9_999_999] {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn merge_snapshot_is_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 777, 1_000_000] {
            a.record(v);
        }
        for v in [70u64, 50_000_000] {
            b.record(v);
        }
        let combined = Histogram::new();
        combined.merge_snapshot(&a.snapshot());
        combined.merge_snapshot(&b.snapshot());
        let snap = combined.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 3 + 777 + 1_000_000 + 70 + 50_000_000);
        assert_eq!(snap.max, 50_000_000);
        let mut expected = a.snapshot();
        expected.merge(&b.snapshot());
        assert_eq!(snap, expected);
    }

    #[test]
    fn registry_snapshot_and_merge() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(3);
        reg.max_gauge("a.depth").observe(9);
        reg.histogram("a.lat_ns").record(100);
        let mut snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), Some(3));
        assert_eq!(snap.gauge("a.depth"), Some(9));
        assert_eq!(snap.histogram("a.lat_ns").unwrap().count, 1);

        let other = MetricsRegistry::new();
        other.counter("a.count").add(2);
        other.counter("b.count").add(1);
        other.max_gauge("a.depth").observe(4);
        other.histogram("a.lat_ns").record(200);
        snap.merge(&other.snapshot());
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.counter("b.count"), Some(1));
        assert_eq!(snap.gauge("a.depth"), Some(9));
        assert_eq!(snap.histogram("a.lat_ns").unwrap().count, 2);

        let text = snap.to_prometheus();
        assert!(text.contains("a_count 5"));
        assert!(text.contains("a_lat_ns_count 2"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn disabled_registry_histograms_drop_counters_live() {
        let reg = MetricsRegistry::disabled();
        reg.counter("c").inc();
        reg.histogram("h").record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(1));
        assert_eq!(snap.histogram("h").unwrap().count, 0);
    }
}
