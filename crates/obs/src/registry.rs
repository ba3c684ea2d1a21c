//! The process-wide metric registry: named counters, gauges, and
//! histograms behind cheap cloneable handles.
//!
//! Registration is idempotent — asking for `dpsan_ingest_rows_total`
//! twice returns handles to the *same* atomic — so every layer can
//! lazily cache its handles in a `OnceLock` without coordinating
//! initialization order. Handle operations are lock-free atomic
//! updates; the registry lock is only taken at registration and
//! snapshot time, never on the hot path.
//!
//! Series names follow Prometheus conventions
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`), optionally with a single
//! `{key="value"}` label pair appended by [`Registry::counter_with`] —
//! enough to model e.g. the solver-path family
//! `dpsan_solves_total{path="cold_primal"}` without a full label
//! engine. Snapshots iterate in sorted name order, so two snapshots of
//! identical state render byte-identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotone event counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A float-valued gauge (settable, also additively updatable).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the gauge (compare-exchange loop; gauges are not on
    /// hot paths).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raise the gauge to `v` if `v` is larger (running-maximum gauges,
    /// e.g. peak shard size).
    pub fn max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; tests construct their own with
/// [`Registry::new`] for isolation.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

fn assert_valid_name(name: &str) {
    let (base, label) = match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    };
    let mut chars = base.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(head_ok && tail_ok, "invalid metric name {name:?}");
    if !label.is_empty() {
        assert!(
            label.starts_with('{') && label.ends_with("\"}") && label.contains("=\""),
            "invalid label suffix in metric name {name:?}"
        );
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is not a valid series name, or is already registered
    /// as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        assert_valid_name(name);
        let mut metrics = self.metrics.lock().expect("registry lock");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match metric {
            Metric::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("metric {name:?} is already registered with a different type"),
        }
    }

    /// Get or register the counter `name{key="value"}` — one series of
    /// a labeled family.
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Counter {
        self.counter(&format!("{name}{{{key}=\"{value}\"}}"))
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        assert_valid_name(name);
        let mut metrics = self.metrics.lock().expect("registry lock");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match metric {
            Metric::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("metric {name:?} is already registered with a different type"),
        }
    }

    /// Get or register the histogram `name` over `bounds` (see
    /// [`crate::histogram::default_latency_bounds`]). Re-registration
    /// must use the same bounds.
    pub fn histogram(&self, name: &str, bounds: Vec<f64>) -> Arc<Histogram> {
        assert_valid_name(name);
        let mut metrics = self.metrics.lock().expect("registry lock");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is already registered with a different type"),
        }
    }

    /// A deterministic point-in-time copy of every registered series,
    /// in sorted name order.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry lock");
        let values = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => SnapValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => SnapValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Metric::Histogram(h) => SnapValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { values }
    }
}

/// The process-wide registry every production code path reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One series' value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(f64),
    /// A histogram's state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a registry: plain data, ordered by series
/// name, safe to diff, render, and ship across threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Series name → value, sorted by name.
    pub values: BTreeMap<String, SnapValue>,
}

impl Snapshot {
    /// The counter `name`, or 0 if the series does not exist (metrics
    /// register lazily, so "never incremented" and "absent" coincide).
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(SnapValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge `name`, or 0.0 if absent.
    pub fn gauge(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(SnapValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(SnapValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The activity between `earlier` and `self`: counters and
    /// histograms subtract (what happened in between), gauges keep
    /// their later value (their "delta" is their current reading).
    /// Series absent from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let values = self
            .values
            .iter()
            .map(|(name, value)| {
                let dv = match (value, earlier.values.get(name)) {
                    (SnapValue::Counter(now), Some(SnapValue::Counter(then))) => {
                        SnapValue::Counter(now.saturating_sub(*then))
                    }
                    (SnapValue::Histogram(now), Some(SnapValue::Histogram(then))) => {
                        SnapValue::Histogram(now.delta(then))
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), dv)
            })
            .collect();
        Snapshot { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("dpsan_test_total");
        let b = r.counter("dpsan_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("dpsan_test_total"), 3);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let r = Registry::new();
        r.counter_with("dpsan_solves_total", "path", "cold_primal_sparse").inc();
        r.counter_with("dpsan_solves_total", "path", "cold_primal").add(2);
        let s = r.snapshot();
        assert_eq!(s.counter("dpsan_solves_total{path=\"cold_primal_sparse\"}"), 1);
        assert_eq!(s.counter("dpsan_solves_total{path=\"cold_primal\"}"), 2);
    }

    #[test]
    fn gauges_set_add_and_max() {
        let r = Registry::new();
        let g = r.gauge("dpsan_test_gauge");
        g.set(1.5);
        g.add(0.5);
        assert!((g.get() - 2.0).abs() < 1e-12);
        g.max(1.0);
        assert!((g.get() - 2.0).abs() < 1e-12, "max() never lowers");
        g.max(3.0);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("dpsan_test_total");
        r.gauge("dpsan_test_total");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        Registry::new().counter("0bad name");
    }

    #[test]
    fn snapshot_without_activity_is_identical() {
        let r = Registry::new();
        r.counter("dpsan_a_total").inc();
        r.gauge("dpsan_b").set(4.25);
        r.histogram("dpsan_c_seconds", vec![0.1, 1.0]).record(0.05);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter("dpsan_a_total");
        let g = r.gauge("dpsan_b");
        c.add(5);
        g.set(1.0);
        let before = r.snapshot();
        c.add(3);
        g.set(9.0);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("dpsan_a_total"), 3);
        assert!((d.gauge("dpsan_b") - 9.0).abs() < 1e-12);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("dpsan_global_singleton_test_total");
        c.inc();
        assert_eq!(global().snapshot().counter("dpsan_global_singleton_test_total"), 1);
    }
}
