//! Prometheus-style telemetry.
//!
//! The framework relies on cluster telemetry (the paper deploys Prometheus) to
//! drive scheduling decisions: node busy/available state, queue depths, request
//! counts and latency histograms. This module provides a small, thread-safe
//! metrics registry with the same counter/gauge/histogram vocabulary.

use std::collections::HashMap;
use std::sync;

/// Thin wrapper over [`std::sync::RwLock`] with `parking_lot`-style ergonomics
/// (guards returned directly, poisoning treated as a bug).
#[derive(Debug, Default)]
struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().expect("telemetry lock poisoned")
    }

    fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().expect("telemetry lock poisoned")
    }
}

/// A metrics registry keyed by metric name.
///
/// ```
/// use dscs_faas::telemetry::Telemetry;
/// let t = Telemetry::new();
/// t.inc_counter("requests_total");
/// t.set_gauge("queue_depth", 7.0);
/// t.observe("latency_seconds", 0.120);
/// assert_eq!(t.counter("requests_total"), 1);
/// assert_eq!(t.gauge("queue_depth"), Some(7.0));
/// ```
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: RwLock<HashMap<String, u64>>,
    gauges: RwLock<HashMap<String, f64>>,
    observations: RwLock<HashMap<String, Vec<f64>>>,
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Increments a counter by one.
    pub fn inc_counter(&self, name: &str) {
        self.add_counter(name, 1);
    }

    /// Increments a counter by `delta`.
    pub fn add_counter(&self, name: &str, delta: u64) {
        *self.counters.write().entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.read().get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge.
    ///
    /// # Panics
    /// Panics if `value` is not finite.
    pub fn set_gauge(&self, name: &str, value: f64) {
        assert!(value.is_finite(), "gauge values must be finite");
        self.gauges.write().insert(name.to_string(), value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.read().get(name).copied()
    }

    /// Records an observation (e.g. one request latency).
    ///
    /// # Panics
    /// Panics if `value` is not finite.
    pub fn observe(&self, name: &str, value: f64) {
        assert!(value.is_finite(), "observations must be finite");
        self.observations
            .write()
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Renders all metrics in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.read();
        let mut names: Vec<&String> = counters.keys().collect();
        names.sort();
        for name in names {
            out.push_str(&format!(
                "# TYPE {name} counter\n{name} {}\n",
                counters[name]
            ));
        }
        let gauges = self.gauges.read();
        let mut names: Vec<&String> = gauges.keys().collect();
        names.sort();
        for name in names {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", gauges[name]));
        }
        let observations = self.observations.read();
        let mut names: Vec<&String> = observations.keys().collect();
        names.sort();
        for name in names {
            let values = &observations[name];
            let sum: f64 = values.iter().sum();
            out.push_str(&format!(
                "# TYPE {name} summary\n{name}_count {}\n{name}_sum {sum}\n",
                values.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.inc_counter("reqs");
        t.add_counter("reqs", 4);
        assert_eq!(t.counter("reqs"), 5);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let t = Telemetry::new();
        t.set_gauge("busy_nodes", 3.0);
        t.set_gauge("busy_nodes", 5.0);
        assert_eq!(t.gauge("busy_nodes"), Some(5.0));
        assert_eq!(t.gauge("missing"), None);
    }

    #[test]
    fn observations_collect() {
        let t = Telemetry::new();
        t.observe("lat", 0.1);
        t.observe("lat", 0.3);
        let text = t.render();
        assert!(text.contains("lat_count 2\n"), "{text}");
        assert!(text.contains("lat_sum 0.4\n"), "{text}");
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let t = Telemetry::new();
        t.inc_counter("requests_total");
        t.set_gauge("queue_depth", 2.0);
        t.observe("latency_seconds", 0.5);
        let text = t.render();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("queue_depth 2"));
        assert!(text.contains("latency_seconds_count 1"));
        assert!(text.contains("latency_seconds_sum 0.5"));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        use std::sync::Arc;
        let t = Arc::new(Telemetry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.inc_counter("par");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(t.counter("par"), 8000);
    }
}
