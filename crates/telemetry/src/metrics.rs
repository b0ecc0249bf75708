//! The metrics half of the substrate: named counters, gauges and
//! mergeable log-bucket histograms behind pre-interned integer handles.
//!
//! Registration (name → id) happens once, at instrumentation setup, under
//! the registry lock. Hot paths then carry only `Copy` ids: recording is a
//! lock + `Vec` index, and the thread-shard variant ([`MetricShard`]) is a
//! plain `Vec` index with no lock and no allocation at all, merged into
//! the shared registry when the shard guard drops.

use std::cell::Cell;
use std::collections::BTreeMap;

use osdc_sim::stats::Log2Histogram;

use crate::Telemetry;

/// Handle to a named monotonic counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(pub(crate) u32);

/// Handle to a named last-value gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a named power-of-two-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistogramId(pub(crate) u32);

/// A metric id interned on first use and reused after. The name is
/// registered at the moment an uncached `Telemetry::counter(name)` call
/// would have registered it, so registration order — and with it every
/// export — is unchanged; later calls skip formatting the name, the
/// registry lock and the lookup. An id belongs to one [`Telemetry`], so
/// a holder that swaps its handle must reset its `LazyId`s too.
pub struct LazyId<I>(Cell<Option<I>>);

impl<I> Default for LazyId<I> {
    fn default() -> Self {
        LazyId(Cell::new(None))
    }
}

impl<I: Copy> LazyId<I> {
    fn get_or(&self, intern: impl FnOnce() -> I) -> I {
        if let Some(id) = self.0.get() {
            return id;
        }
        let id = intern();
        self.0.set(Some(id));
        id
    }
}

impl LazyId<CounterId> {
    pub fn counter<S: AsRef<str>>(&self, tele: &Telemetry, name: impl FnOnce() -> S) -> CounterId {
        self.get_or(|| tele.counter(name().as_ref()))
    }
}

impl LazyId<HistogramId> {
    pub fn histogram<S: AsRef<str>>(
        &self,
        tele: &Telemetry,
        name: impl FnOnce() -> S,
    ) -> HistogramId {
        self.get_or(|| tele.histogram(name().as_ref()))
    }
}

/// One kind's name table plus value slots, indexed by id.
#[derive(Debug, Default)]
pub(crate) struct Table<T> {
    index: BTreeMap<String, u32>,
    pub(crate) names: Vec<String>,
    pub(crate) values: Vec<T>,
}

impl<T: Default> Table<T> {
    /// Idempotent name → id interning.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.index.insert(name.to_string(), id);
        self.names.push(name.to_string());
        self.values.push(T::default());
        id
    }
}

/// The shared metric state, owned by `Telemetry` behind a `parking_lot`
/// mutex.
#[derive(Debug, Default)]
pub(crate) struct MetricsCore {
    pub(crate) counters: Table<u64>,
    pub(crate) gauges: Table<f64>,
    pub(crate) histograms: Table<Log2Histogram>,
}

impl MetricsCore {
    pub(crate) fn add(&mut self, id: CounterId, n: u64) {
        if let Some(v) = self.counters.values.get_mut(id.0 as usize) {
            *v += n;
        }
    }

    pub(crate) fn set(&mut self, id: GaugeId, value: f64) {
        if let Some(v) = self.gauges.values.get_mut(id.0 as usize) {
            *v = value;
        }
    }

    pub(crate) fn observe(&mut self, id: HistogramId, value: f64) {
        if let Some(h) = self.histograms.values.get_mut(id.0 as usize) {
            h.record(value);
        }
    }

    /// Fold another registry into this one, interning names in the other's
    /// registration order: counters add, gauges take the other's value
    /// (last-writer-wins, matching a later serial scenario overwriting an
    /// earlier one), histograms merge. Absorbing per-scenario registries in
    /// submission order therefore reproduces the name order and values a
    /// single shared registry would hold after the same scenarios ran
    /// serially — given the workspace convention that a scenario writes
    /// every gauge it registers.
    pub(crate) fn absorb(&mut self, other: &MetricsCore) {
        for (name, &v) in other.counters.names.iter().zip(&other.counters.values) {
            let id = self.counters.intern(name);
            self.add(CounterId(id), v);
        }
        for (name, &v) in other.gauges.names.iter().zip(&other.gauges.values) {
            let id = self.gauges.intern(name);
            self.set(GaugeId(id), v);
        }
        for (name, h) in other.histograms.names.iter().zip(&other.histograms.values) {
            let id = self.histograms.intern(name);
            if let Some(dst) = self.histograms.values.get_mut(id as usize) {
                dst.merge(h);
            }
        }
    }

    pub(crate) fn merge_shard(&mut self, shard: &MetricShard) {
        for (i, &n) in shard.counters.iter().enumerate() {
            if n > 0 {
                self.add(CounterId(i as u32), n);
            }
        }
        for (i, g) in shard.gauges.iter().enumerate() {
            if let Some(v) = g {
                self.set(GaugeId(i as u32), *v);
            }
        }
        for (i, h) in shard.histograms.iter().enumerate() {
            if h.count() > 0 {
                if let Some(dst) = self.histograms.values.get_mut(i) {
                    dst.merge(h);
                }
            }
        }
    }
}

/// A private, lock-free slice of the metric space for one thread or one
/// tight loop. Recording indexes a `Vec` directly; the owning
/// [`ShardGuard`](crate::ShardGuard) folds everything back into the shared
/// registry exactly once, when it drops.
///
/// Gauges keep last-write-wins semantics: only gauges the shard actually
/// touched are written back.
#[derive(Debug, Default)]
pub struct MetricShard {
    pub(crate) enabled: bool,
    pub(crate) counters: Vec<u64>,
    pub(crate) gauges: Vec<Option<f64>>,
    pub(crate) histograms: Vec<Log2Histogram>,
}

impl MetricShard {
    pub(crate) fn sized(n_counters: usize, n_gauges: usize, n_histograms: usize) -> Self {
        MetricShard {
            enabled: true,
            counters: vec![0; n_counters],
            gauges: vec![None; n_gauges],
            histograms: (0..n_histograms).map(|_| Log2Histogram::new()).collect(),
        }
    }

    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        if i >= self.counters.len() {
            self.counters.resize(i + 1, 0);
        }
        self.counters[i] += n;
    }

    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        if i >= self.gauges.len() {
            self.gauges.resize(i + 1, None);
        }
        self.gauges[i] = Some(value);
    }

    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        while i >= self.histograms.len() {
            self.histograms.push(Log2Histogram::new());
        }
        self.histograms[i].record(value);
    }
}

/// Exporter-facing snapshot of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    /// `(bucket index, count)` for non-empty buckets only.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    pub(crate) fn from(name: &str, h: &Log2Histogram) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.quantile_upper_bound(0.5),
            p99: h.quantile_upper_bound(0.99),
            buckets: h
                .bucket_counts()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
        }
    }
}
