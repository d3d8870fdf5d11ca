//! A registry of named metrics with Prometheus-style text exposition.
//!
//! Naming convention: `fj_<subsystem>_<metric>`, lowercase, underscores —
//! e.g. `fj_cache_trie_hits`, `fj_sched_tasks_spawned`,
//! `fj_serve_requests_served`. Names are validated at registration
//! (`[a-zA-Z_][a-zA-Z0-9_]*`), and registering the same name twice returns a
//! handle to the same underlying cell (or panics if the kind differs), so a
//! series can never be exported twice with conflicting values.
//!
//! Rendering emits plain `name value` lines sorted by name — no `# TYPE` /
//! `# HELP` comments — which keeps the exposition line-per-series and
//! trivially diffable. Histograms render as cumulative
//! `name_bucket{le="..."}` series plus `name_sum` / `name_count`, the
//! standard Prometheus histogram shape.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that is set, not accumulated. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last.
    bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` slots).
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bound histogram. Cloning shares the underlying buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.0.bounds.partition_point(|&b| b < value);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q·n)` observation; 0 with no observations. A
    /// rank in the `+Inf` bucket reports the last finite bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (&bound, count) in self.0.bounds.iter().zip(&self.0.counts) {
            cumulative += count.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bound;
            }
        }
        *self.0.bounds.last().expect("histogram bounds are non-empty")
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. See the module docs for the naming scheme
/// and exposition format.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) a counter.
    ///
    /// # Panics
    /// Panics if `name` is not a valid metric name, or is already registered
    /// as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        let mut inner = self.inner.lock().expect("no poisoned metrics registry");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Register (or fetch) a gauge.
    ///
    /// # Panics
    /// Panics if `name` is not a valid metric name, or is already registered
    /// as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        let mut inner = self.inner.lock().expect("no poisoned metrics registry");
        match inner.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Convenience: register-or-fetch a gauge and set it in one call. Used by
    /// snapshot-style exporters that re-publish a batch of values.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).set(value);
    }

    /// Register (or fetch) a histogram with the given inclusive upper
    /// bounds; an implicit `+Inf` bucket is always appended.
    ///
    /// # Panics
    /// Panics if `name` is invalid, `bounds` is empty or not strictly
    /// increasing, or the name is already registered as a different kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            !bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be non-empty and strictly increasing"
        );
        let mut inner = self.inner.lock().expect("no poisoned metrics registry");
        match inner.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is already registered with a different kind"),
        }
    }

    /// Render every registered metric as Prometheus-style text, one series
    /// per line, sorted by metric name (deterministic output).
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("no poisoned metrics registry");
        let mut out = String::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => writeln!(out, "{name} {}", c.get()).expect("write to string"),
                Metric::Gauge(g) => writeln!(out, "{name} {}", g.get()).expect("write to string"),
                Metric::Histogram(h) => {
                    let core = &h.0;
                    let mut cumulative = 0u64;
                    for (i, bound) in core.bounds.iter().enumerate() {
                        cumulative += core.counts[i].load(Ordering::Relaxed);
                        writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}")
                            .expect("write to string");
                    }
                    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count())
                        .expect("write to string");
                    writeln!(out, "{name}_sum {}", h.sum()).expect("write to string");
                    writeln!(out, "{name}_count {}", h.count()).expect("write to string");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_render() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("fj_test_ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering returns the same cell.
        reg.counter("fj_test_ops").inc();
        assert_eq!(c.get(), 6);
        reg.set_gauge("fj_test_depth", 17);
        let text = reg.render();
        assert!(text.contains("fj_test_ops 6\n"));
        assert!(text.contains("fj_test_depth 17\n"));
        // Sorted by name: depth before ops.
        let depth = text.find("fj_test_depth").unwrap();
        let ops = text.find("fj_test_ops").unwrap();
        assert!(depth < ops);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("fj_test_latency", &[10, 100, 1000]);
        for v in [1, 5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5127);
        let text = reg.render();
        assert!(text.contains("fj_test_latency_bucket{le=\"10\"} 3\n"), "{text}");
        assert!(text.contains("fj_test_latency_bucket{le=\"100\"} 5\n"), "{text}");
        assert!(text.contains("fj_test_latency_bucket{le=\"1000\"} 5\n"), "{text}");
        assert!(text.contains("fj_test_latency_bucket{le=\"+Inf\"} 6\n"), "{text}");
        assert!(text.contains("fj_test_latency_count 6\n"), "{text}");
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("fj_test_quantiles", &[10, 100, 1000]);
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [1, 5, 10, 50, 500] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 10, "rank floors at 1");
        assert_eq!(h.quantile(0.6), 10, "rank 3 is the last value in the first bucket");
        assert_eq!(h.quantile(0.8), 100);
        assert_eq!(h.quantile(1.0), 1000);
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), 1000, "+Inf reports the last finite bound");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("fj_test_x");
        reg.gauge("fj_test_x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new().counter("9starts-with-digit");
    }

    #[test]
    fn updates_are_shared_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("fj_test_parallel");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
