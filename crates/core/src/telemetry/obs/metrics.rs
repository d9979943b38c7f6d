//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with Prometheus text exposition.
//!
//! Metric handles are cheap `Arc`-backed cells: look one up (or create
//! it) once through the [`MetricsRegistry`], then update it with plain
//! atomic operations from any thread. A metric name may carry a label
//! set in Prometheus syntax (`jsweep_epoch_wall_seconds{rank="0"}`);
//! the renderer groups series of one base name under a single
//! `# HELP`/`# TYPE` header and merges histogram `le` labels into the
//! series' own labels.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing `u64` counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `by` to the counter.
    pub fn add(&self, by: u64) {
        self.cell.fetch_add(by, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` gauge (stored as bits in an atomic).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

struct HistogramCore {
    /// Upper bounds of the finite buckets, ascending; an implicit
    /// `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` cells,
    /// NON-cumulative; the renderer accumulates).
    buckets: Vec<AtomicU64>,
    /// Sum of observations, as `f64` bits (CAS loop on update).
    sum_bits: AtomicU64,
}

/// Fixed-bucket histogram of `f64` observations.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let i = self
            .core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.buckets[i].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }
}

/// Suggested bucket bounds for wall-time observations (seconds):
/// 100 µs to 30 s, roughly 1-2-5 per decade.
pub const SECONDS_BUCKETS: &[f64] = &[
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
];

/// Suggested bucket bounds for payload sizes (bytes): 64 B to 16 MiB
/// in powers of four.
pub const BYTES_BUCKETS: &[f64] = &[
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
];

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Named registry of every metric one [`super::Telemetry`] owns.
///
/// Lookup-or-create takes a lock; updates through the returned handles
/// are lock-free. Re-requesting a name returns the same underlying
/// cell. Requesting an existing name as a *different* metric type is a
/// configuration bug and panics.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
    /// Optional help text per base (label-stripped) name.
    help: Mutex<BTreeMap<String, &'static str>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Attach help text to a base metric name (shown as `# HELP`).
    /// Idempotent; the first registration wins.
    pub fn describe(&self, base: &str, help: &'static str) {
        self.help
            .lock()
            .unwrap()
            .entry(base.to_string())
            .or_insert(help);
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock().unwrap();
        match g.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered as a non-counter"),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock().unwrap();
        match g.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge {
                bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            })
        }) {
            Metric::Gauge(v) => v.clone(),
            _ => panic!("metric {name:?} already registered as a non-gauge"),
        }
    }

    /// Get or create a histogram series with the given finite bucket
    /// bounds (ascending; a `+Inf` bucket is implicit). Bounds are
    /// fixed at first creation; later calls may pass the same bounds
    /// (or anything — they are ignored once the series exists).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut g = self.inner.lock().unwrap();
        match g.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                }),
            })
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered as a non-histogram"),
        }
    }

    /// Render every metric in Prometheus text exposition format
    /// (series sorted by name; one `# HELP`/`# TYPE` header per base
    /// name; histograms as cumulative `_bucket`/`_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let g = self.inner.lock().unwrap();
        let help = self.help.lock().unwrap();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in g.iter() {
            let (base, labels) = split_name(name);
            if base != last_base {
                let text = help.get(base).copied().unwrap_or("(no help recorded)");
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {base} {text}\n# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{} {}\n", series(base, labels, None), c.get()));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!("{} {}\n", series(base, labels, None), v.get()));
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, bound) in h.core.bounds.iter().enumerate() {
                        cum += h.core.buckets[i].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{} {cum}\n",
                            series(&format!("{base}_bucket"), labels, Some(&fmt_le(*bound)))
                        ));
                    }
                    cum += h.core.buckets[h.core.bounds.len()].load(Ordering::Relaxed);
                    out.push_str(&format!(
                        "{} {cum}\n",
                        series(&format!("{base}_bucket"), labels, Some("+Inf"))
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        series(&format!("{base}_sum"), labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{} {cum}\n",
                        series(&format!("{base}_count"), labels, None)
                    ));
                }
            }
        }
        out
    }
}

/// Split `name{labels}` into `(base, labels-without-braces)`.
fn split_name(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Assemble one series line's name part, merging an optional `le`
/// label into the series' own labels.
fn series(base: &str, labels: &str, le: Option<&str>) -> String {
    match (labels.is_empty(), le) {
        (true, None) => base.to_string(),
        (true, Some(le)) => format!("{base}{{le=\"{le}\"}}"),
        (false, None) => format!("{base}{{{labels}}}"),
        (false, Some(le)) => format!("{base}{{{labels},le=\"{le}\"}}"),
    }
}

/// Format a bucket bound the way Prometheus clients expect (shortest
/// round-trip `f64` formatting).
fn fmt_le(bound: f64) -> String {
    format!("{bound}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("jsweep_epochs_total");
        let b = reg.counter("jsweep_epochs_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("jsweep_plan_cache_bytes");
        g.set(12.5);
        g.set(7.25);
        assert_eq!(g.get(), 7.25);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.55).abs() < 1e-12);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE wait histogram"), "{text}");
        assert!(text.contains("wait_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("wait_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("wait_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("wait_count 3"), "{text}");
    }

    #[test]
    fn labeled_series_share_one_header() {
        let reg = MetricsRegistry::new();
        reg.describe("epochs", "epochs run per rank");
        reg.counter("epochs{rank=\"0\"}").add(2);
        reg.counter("epochs{rank=\"1\"}").add(3);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE epochs counter").count(), 1, "{text}");
        assert!(text.contains("# HELP epochs epochs run per rank"));
        assert!(text.contains("epochs{rank=\"0\"} 2"));
        assert!(text.contains("epochs{rank=\"1\"} 3"));
    }

    #[test]
    fn labeled_histogram_merges_le_into_labels() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("w{rank=\"2\"}", &[1.0]);
        h.observe(0.5);
        let text = reg.render_prometheus();
        assert!(text.contains("w_bucket{rank=\"2\",le=\"1\"} 1"), "{text}");
        assert!(
            text.contains("w_bucket{rank=\"2\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("w_sum{rank=\"2\"} 0.5"), "{text}");
        assert!(text.contains("w_count{rank=\"2\"} 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn type_mismatch_is_a_configuration_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.gauge("x");
        let _ = reg.counter("x");
    }
}
