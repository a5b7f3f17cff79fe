//! The labeled metrics registry: counters, gauges, and HDR-style
//! histograms, rendered in Prometheus text exposition format.
//!
//! Handles returned by the registry are `Arc`-backed and lock-free to
//! update, so hot paths (rule evaluation, rate recomputation, per-flow
//! bookkeeping) pay one relaxed atomic op per observation. Registration
//! takes a lock; callers cache handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power of two,
/// giving ≤ 12.5% relative quantile error over the full `u64` range with
/// 496 buckets.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering all of `u64` (indexes `0..=bucket_index(u64::MAX)`).
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

/// HDR-style log-bucketed bucket index for `v`; monotone in `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let shift = msb - SUB_BITS as u64;
    let sub = (v >> shift) & (SUB - 1);
    ((msb - SUB_BITS as u64 + 1) * SUB + sub) as usize
}

/// Largest value mapping to bucket `i` (its inclusive upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let octave = (i as u64) / SUB; // >= 1
    let sub = (i as u64) % SUB;
    let shift = octave - 1;
    ((SUB + sub) << shift) + ((1u64 << shift) - 1)
}

#[derive(Debug)]
struct HistogramCells {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// An HDR-style histogram of `u64` observations (log-bucketed, ≤ 12.5%
/// relative error), one atomic per bucket. Its recorders in this workspace
/// record under their shard's lock, so the buckets see no contention to
/// spread.
///
/// Record values in integer units (microseconds, bytes); the metric name
/// carries the unit (`*_micros`, `*_bytes`).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket counts, each read once, so the exposition's buckets and
    /// count agree.
    fn counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label set (`k1="v1",k2="v2"`, keys sorted), so
    /// iteration order is the exposition order.
    series: BTreeMap<String, Series>,
}

/// The metric registry: named families of labeled series.
///
/// Cloning is cheap and clones share state. Handle lookups
/// ([`Registry::counter`] etc.) are get-or-create: the same
/// (name, label set) always returns a handle to the same underlying series.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

/// Render a label set as it appears inside `{}`: keys sorted, values
/// escaped. Up to eight labels are sorted on the stack and every value is
/// escaped straight into the key, so the key's own buffer is all a lookup
/// allocates.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut few = [("", ""); 8];
    let mut many = Vec::new();
    let sorted = match labels.len() {
        n @ 0..=8 => &mut few[..n],
        n => {
            many.resize(n, ("", ""));
            &mut many[..]
        }
    };
    sorted.copy_from_slice(labels);
    sorted.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value_onto(v, &mut out);
        out.push('"');
    }
    out
}

/// Escape a label value per the Prometheus text format: backslash, double
/// quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    escape_label_value_onto(v, &mut out);
    out
}

fn escape_label_value_onto(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escape a HELP string per the Prometheus text format: backslash and
/// newline.
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().expect("registry lock");
        if !families.contains_key(name) {
            let family = Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            };
            families.insert(name.to_string(), family);
        }
        let family = families.get_mut(name).expect("inserted above");
        assert_eq!(
            family.kind, kind,
            "metric {name:?} registered twice with different kinds"
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Counter::default())
        }) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, || {
            Series::Gauge(Gauge::default())
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Histogram::default())
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Render every family in Prometheus text exposition format, families
    /// and series in sorted order (deterministic output).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let families = self.families.lock().expect("registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", name, braced(labels), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", name, braced(labels), g.get());
                    }
                    Series::Histogram(h) => {
                        let mut cumulative = 0u64;
                        let counts = h.counts().into_iter().enumerate();
                        for (i, count) in counts.filter(|&(_, count)| count > 0) {
                            cumulative += count;
                            let le = braced_with(labels, "le", &bucket_upper(i).to_string());
                            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        }
                        let le = braced_with(labels, "le", "+Inf");
                        let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        let (labels, sum) = (braced(labels), h.0.sum.load(Ordering::Relaxed));
                        let _ = writeln!(out, "{name}_sum{labels} {sum}");
                        let _ = writeln!(out, "{name}_count{labels} {cumulative}");
                    }
                }
            }
        }
        out
    }
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn braced_with(labels: &str, extra_key: &str, extra_value: &str) -> String {
    let extra = format!("{extra_key}=\"{}\"", escape_label_value(extra_value));
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{labels},{extra}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exact for small values, continuous across the linear/log seam.
        for v in 0..1024u64 {
            assert!(bucket_index(v + 1) >= bucket_index(v));
            assert!(bucket_upper(bucket_index(v)) >= v, "upper covers {v}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_upper_inverts_index() {
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "upper bound of {i} maps back");
            if upper < u64::MAX {
                assert!(bucket_index(upper + 1) > i, "upper+1 leaves bucket {i}");
            }
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::default();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.counts().iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        let a = r.counter("pwm_x_total", "x", &[("k", "v")]);
        let b = r.counter("pwm_x_total", "x", &[("k", "v")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let other = r.counter("pwm_x_total", "x", &[("k", "w")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("pwm_b_total", "second", &[]).inc();
        r.gauge("pwm_a_ratio", "first", &[("link", "wan")]).set(0.5);
        let h = r.histogram("pwm_c_micros", "third", &[]);
        h.record(3);
        h.record(900);
        let text = r.render_prometheus();
        let a = text.find("pwm_a_ratio").unwrap();
        let b = text.find("pwm_b_total").unwrap();
        let c = text.find("pwm_c_micros").unwrap();
        assert!(a < b && b < c, "families sorted");
        assert!(text.contains("# TYPE pwm_a_ratio gauge"));
        assert!(text.contains("# TYPE pwm_b_total counter"));
        assert!(text.contains("# TYPE pwm_c_micros histogram"));
        assert!(text.contains("pwm_a_ratio{link=\"wan\"} 0.5"));
        assert!(text.contains("pwm_b_total 1"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("pwm_c_micros_sum 903"));
        assert!(text.contains("pwm_c_micros_count 2"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(
            escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd",
            "backslash, quote, newline"
        );
        assert_eq!(escape_help("line\nwith \\ slash"), "line\\nwith \\\\ slash");
        let r = Registry::new();
        r.counter(
            "pwm_esc_total",
            "tricky \"help\"\nsecond",
            &[("p", "a\"b\nc\\d")],
        )
        .inc();
        let text = r.render_prometheus();
        assert!(text.contains("# HELP pwm_esc_total tricky \"help\"\\nsecond"));
        assert!(text.contains("pwm_esc_total{p=\"a\\\"b\\nc\\\\d\"} 1"));
    }

    #[test]
    fn labels_sorted_regardless_of_call_order() {
        let r = Registry::new();
        let a = r.counter("pwm_l_total", "l", &[("z", "1"), ("a", "2")]);
        let b = r.counter("pwm_l_total", "l", &[("a", "2"), ("z", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same series regardless of label order");
        assert!(r
            .render_prometheus()
            .contains("pwm_l_total{a=\"2\",z=\"1\"} 2"));
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("pwm_k_total", "k", &[]);
        r.gauge("pwm_k_total", "k", &[]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every u64 lands in a bucket whose bounds contain it.
        #[test]
        fn bucket_bounds_contain_value(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(i < BUCKETS);
            prop_assert!(bucket_upper(i) >= v);
            if i > 0 {
                prop_assert!(bucket_upper(i - 1) < v);
            }
        }
    }
}
