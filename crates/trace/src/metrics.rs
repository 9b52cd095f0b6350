//! A small metrics registry: named counters and gauges.
//!
//! Latency distributions live in [`QuantileSketch`](crate::QuantileSketch)es
//! (`LatencyStats` in the serving runtime), which
//! [`prometheus_text`](crate::prometheus_text) renders beside the
//! registry's series.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A registry of named metrics. Cloning is cheap and shares the
/// underlying metrics (tests and exporters read what hot paths write).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.lock().unwrap().len())
            .field("gauges", &self.inner.gauges.lock().unwrap().len())
            .finish()
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Snapshot of every counter as `(name, handle)`, sorted by name.
    pub fn counters(&self) -> Vec<(String, Arc<Counter>)> {
        let map = self.inner.counters.lock().unwrap();
        map.iter().map(|(n, c)| (n.clone(), c.clone())).collect()
    }

    /// Snapshot of every gauge as `(name, handle)`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, Arc<Gauge>)> {
        let map = self.inner.gauges.lock().unwrap();
        map.iter().map(|(n, g)| (n.clone(), g.clone())).collect()
    }

    /// A plain-text snapshot of every metric, one line each, sorted by
    /// name within each kind.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.inner.counters.lock().unwrap().iter() {
            out.push_str(&format!("counter {name} {}\n", c.get()));
        }
        for (name, g) in self.inner.gauges.lock().unwrap().iter() {
            out.push_str(&format!("gauge {name} {:.6}\n", g.get()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("decisions").inc();
        reg.counter("decisions").add(4);
        assert_eq!(reg.counter("decisions").get(), 5);
        reg.gauge("depth").set(3.5);
        assert_eq!(reg.gauge("depth").get(), 3.5);
        let text = reg.render();
        assert!(text.contains("counter decisions 5"), "{text}");
    }
}
