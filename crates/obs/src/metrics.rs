//! Counters, gauges, log-bucketed histograms, and the named registry that
//! renders (and parses) Prometheus text exposition format v0.0.4.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A monotonically increasing event count. Incrementing is a single relaxed
/// `fetch_add`; reads are single atomic loads, so concurrent scrapes are
/// never torn.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depth, active streams).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Finite bucket upper bounds: `2^i` microseconds for `i in 0..28`, i.e.
/// 1 µs up to ~134 s (past the default 120 s handler deadline); slower
/// observations land in the implicit `+Inf` bucket.
const FINITE_BUCKETS: usize = 28;

/// A log-bucketed latency histogram. Buckets are powers of two over
/// microseconds, so one observation costs one leading-zeros computation and
/// three relaxed atomic adds — no locks, no allocation, no online
/// percentile state. The exposition renders the cumulative buckets; a
/// scraper derives quantiles from them.
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts observations in `(2^(i-1), 2^i]` µs (bucket 0 is
    /// `(0, 1]` µs); the last slot is the `+Inf` overflow.
    buckets: [AtomicU64; FINITE_BUCKETS + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one duration given in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = Self::bucket_index(ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The first bucket whose upper bound (in ns) is ≥ `ns`.
    fn bucket_index(ns: u64) -> usize {
        let us = ns.div_ceil(1000).max(1);
        // ceil(log2(us)): the smallest i with us <= 2^i.
        let idx = (64 - (us - 1).leading_zeros()) as usize;
        idx.min(FINITE_BUCKETS) // overflow slot
    }

    /// Upper bound of finite bucket `i`, in seconds.
    fn bound_secs(i: usize) -> f64 {
        (1u64 << i) as f64 * 1e-6
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    #[must_use]
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Per-bucket counts including the overflow slot (test/debug aid).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// What a metric family measures — drives the `# TYPE` line and the sample
/// layout (histograms expand to `_bucket`/`_sum`/`_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Bucketed distribution.
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
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One named family: a kind, optional help text, and one metric per label
/// set. Label sets are kept sorted so exposition output is stable.
#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    metrics: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A process-wide named metric store. Registration (first use of a
/// `(name, labels)` pair) takes the write lock once; every later lookup is
/// an uncontended read-lock clone of the `Arc` handle, and the increments
/// themselves are pure atomics. Families render in name order, label sets
/// in sorted order — byte-stable output for a fixed state.
#[derive(Debug, Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches help text to `name` (rendered as `# HELP`). Creates the
    /// family lazily if no metric was registered yet.
    ///
    /// # Panics
    /// Panics if `name` is not a valid metric name.
    pub fn describe(&self, name: &str, kind: MetricKind, help: &str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let mut families = self.families.write().expect("registry lock poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: String::new(),
            metrics: BTreeMap::new(),
        });
        assert!(family.kind == kind, "metric `{name}` re-described with a different kind");
        family.help = help.to_string();
    }

    /// The counter for `(name, labels)`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already registered as another kind.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.handle(name, labels, MetricKind::Counter) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in handle()"),
        }
    }

    /// The gauge for `(name, labels)`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already registered as another kind.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.handle(name, labels, MetricKind::Gauge) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in handle()"),
        }
    }

    /// The histogram for `(name, labels)`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already registered as another kind.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.handle(name, labels, MetricKind::Histogram) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in handle()"),
        }
    }

    fn handle(&self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> Handle {
        let key: Vec<(String, String)> = {
            let mut key: Vec<(String, String)> =
                labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
            key.sort();
            key
        };
        // Fast path: the metric already exists.
        {
            let families = self.families.read().expect("registry lock poisoned");
            if let Some(family) = families.get(name) {
                assert!(
                    family.kind == kind,
                    "metric `{name}` registered as {:?}, requested as {kind:?}",
                    family.kind
                );
                if let Some(handle) = family.metrics.get(&key) {
                    return handle.clone();
                }
            }
        }
        assert!(valid_name(name), "invalid metric name `{name}`");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name `{k}`");
        }
        let mut families = self.families.write().expect("registry lock poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: String::new(),
            metrics: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {:?}, requested as {kind:?}",
            family.kind
        );
        family
            .metrics
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Handle::Counter(Arc::new(Counter::default())),
                MetricKind::Gauge => Handle::Gauge(Arc::new(Gauge::default())),
                MetricKind::Histogram => Handle::Histogram(Arc::new(Histogram::default())),
            })
            .clone()
    }

    /// Sums a counter family across all label sets (0 when absent).
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        let families = self.families.read().expect("registry lock poisoned");
        families.get(name).map_or(0, |family| {
            family
                .metrics
                .values()
                .map(|h| match h {
                    Handle::Counter(c) => c.get(),
                    _ => 0,
                })
                .sum()
        })
    }

    /// Renders every family in Prometheus text exposition format v0.0.4:
    /// `# HELP`/`# TYPE` per family, samples sorted by name then labels,
    /// histograms expanded to cumulative `_bucket{le=…}`, `_sum`, `_count`.
    #[must_use]
    pub fn render(&self) -> String {
        let families = self.families.read().expect("registry lock poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            if !family.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            }
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, handle) in &family.metrics {
                match handle {
                    Handle::Counter(c) => {
                        out.push_str(&sample_line(name, labels, None, &c.get().to_string()));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&sample_line(name, labels, None, &g.get().to_string()));
                    }
                    Handle::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, &n) in counts.iter().enumerate().take(FINITE_BUCKETS) {
                            cumulative += n;
                            let le = format!("{:?}", Histogram::bound_secs(i));
                            out.push_str(&sample_line(
                                &format!("{name}_bucket"),
                                labels,
                                Some(("le", &le)),
                                &cumulative.to_string(),
                            ));
                        }
                        out.push_str(&sample_line(
                            &format!("{name}_bucket"),
                            labels,
                            Some(("le", "+Inf")),
                            &h.count().to_string(),
                        ));
                        out.push_str(&sample_line(
                            &format!("{name}_sum"),
                            labels,
                            None,
                            &format!("{:?}", h.sum_secs()),
                        ));
                        out.push_str(&sample_line(
                            &format!("{name}_count"),
                            labels,
                            None,
                            &h.count().to_string(),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// One rendered sample line.
fn sample_line(
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) -> String {
    let mut rendered: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        rendered.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if rendered.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{}}} {value}\n", rendered.join(","))
    }
}

/// Valid metric/label name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_help(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\n', "\\n")
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (for histograms this includes the `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed scrape: every sample plus the declared `# TYPE` per family.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All samples, in document order.
    pub samples: Vec<Sample>,
    /// Family name → declared type.
    pub types: BTreeMap<String, String>,
}

impl Snapshot {
    /// The value of the sample matching `name` and exactly `labels`
    /// (order-insensitive).
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        want.sort();
        self.samples.iter().find(|s| s.name == name && s.labels == want).map(|s| s.value)
    }

    /// Sums every sample named `name`, whatever its labels.
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }

    /// Whether any sample with this exact name exists.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.samples.iter().any(|s| s.name == name)
    }
}

/// Parses Prometheus text exposition format (the subset [`Registry::render`]
/// emits: `# HELP`/`# TYPE` comments and `name{labels} value` samples).
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn parse_text(text: &str) -> Result<Snapshot, String> {
    let mut snapshot = Snapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or(format!("line {}: bare # TYPE", lineno + 1))?;
                let kind =
                    parts.next().ok_or(format!("line {}: # TYPE without kind", lineno + 1))?;
                snapshot.types.insert(name.to_string(), kind.to_string());
            }
            continue; // HELP and other comments
        }
        let (name, labels, value_text) = split_sample(line, lineno + 1)?;
        let value: f64 = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse().map_err(|_| format!("line {}: bad value `{v}`", lineno + 1))?,
        };
        snapshot.samples.push(Sample { name, labels, value });
    }
    Ok(snapshot)
}

/// One split sample line: `(name, sorted labels, value text)`.
type SplitSample<'a> = (String, Vec<(String, String)>, &'a str);

/// Splits one sample line into its name, sorted labels, and value text.
fn split_sample(line: &str, lineno: usize) -> Result<SplitSample<'_>, String> {
    let bad = |what: &str| format!("line {lineno}: {what} in `{line}`");
    if let Some(brace) = line.find('{') {
        let name = line[..brace].to_string();
        let close = line.rfind('}').ok_or_else(|| bad("unterminated label set"))?;
        if close < brace {
            return Err(bad("unterminated label set"));
        }
        let mut labels = parse_labels(&line[brace + 1..close]).map_err(|e| bad(&e))?;
        labels.sort();
        let value_text = line[close + 1..].trim();
        if value_text.is_empty() {
            return Err(bad("sample without value"));
        }
        Ok((name, labels, value_text))
    } else {
        let (name, value_text) =
            line.split_once(char::is_whitespace).ok_or_else(|| bad("sample without value"))?;
        Ok((name.to_string(), Vec::new(), value_text.trim()))
    }
}

/// Parses `k="v",k2="v2"` with `\\`, `\"`, `\n` escapes.
fn parse_labels(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = raw.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{key}` value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape `\\{other:?}`")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((key.trim().to_string(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(10);
        g.add(3);
        g.sub(5);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_cumulative() {
        let h = Histogram::default();
        h.observe_ns(500); // ≤ 1µs → bucket 0
        h.observe_ns(1_000); // exactly 1µs → bucket 0
        h.observe_ns(1_001); // just over → bucket 1 (≤ 2µs)
        h.observe_ns(1_000_000); // 1ms → bucket 10 (1024µs)
        h.observe(Duration::from_secs(500)); // past the last bound → +Inf
        assert_eq!(h.count(), 5);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[10], 1);
        assert_eq!(counts[FINITE_BUCKETS], 1, "overflow goes to +Inf");
        assert!((h.sum_secs() - 500.001_002_501).abs() < 1e-6);
    }

    #[test]
    fn registry_round_trips_through_the_parser() {
        let reg = Registry::new();
        reg.describe("test_requests_total", MetricKind::Counter, "Requests by endpoint/status");
        reg.counter("test_requests_total", &[("endpoint", "synth"), ("status", "200")]).add(7);
        reg.counter("test_requests_total", &[("endpoint", "fit"), ("status", "402")]).inc();
        reg.gauge("test_queue_depth", &[]).set(3);
        reg.histogram("test_stage_seconds", &[("stage", "parse")]).observe_ns(2_000_000);

        let text = reg.render();
        assert!(text.contains("# TYPE test_requests_total counter"));
        assert!(text.contains("# HELP test_requests_total Requests by endpoint/status"));
        assert!(text.contains("# TYPE test_queue_depth gauge"));
        assert!(text.contains("# TYPE test_stage_seconds histogram"));

        let snap = parse_text(&text).expect("own output must parse");
        assert_eq!(
            snap.value("test_requests_total", &[("endpoint", "synth"), ("status", "200")]),
            Some(7.0)
        );
        assert_eq!(snap.sum("test_requests_total"), 8.0);
        assert_eq!(snap.value("test_queue_depth", &[]), Some(3.0));
        assert_eq!(snap.value("test_stage_seconds_count", &[("stage", "parse")]), Some(1.0));
        assert_eq!(
            snap.value("test_stage_seconds_bucket", &[("stage", "parse"), ("le", "+Inf")]),
            Some(1.0)
        );
        assert_eq!(snap.types.get("test_queue_depth").map(String::as_str), Some("gauge"));
        // Cumulative buckets: each le count ≥ the previous one.
        let buckets: Vec<f64> = snap
            .samples
            .iter()
            .filter(|s| s.name == "test_stage_seconds_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets must be cumulative");
    }

    #[test]
    fn rendering_is_stable_and_label_escaped() {
        let reg = Registry::new();
        reg.counter("weird_total", &[("msg", "a\"b\\c\nd")]).inc();
        let a = reg.render();
        let b = reg.render();
        assert_eq!(a, b, "render is deterministic for a fixed state");
        let snap = parse_text(&a).unwrap();
        assert_eq!(snap.value("weird_total", &[("msg", "a\"b\\c\nd")]), Some(1.0));
    }

    #[test]
    fn counter_total_sums_families() {
        let reg = Registry::new();
        reg.counter("x_total", &[("a", "1")]).add(2);
        reg.counter("x_total", &[("a", "2")]).add(3);
        assert_eq!(reg.counter_total("x_total"), 5);
        assert_eq!(reg.counter_total("missing_total"), 0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        let _ = reg.counter("dual", &[]);
        let _ = reg.gauge("dual", &[]);
    }

    #[test]
    fn handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("shared_total", &[("x", "1")]);
        let b = reg.counter("shared_total", &[("x", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) returns the same counter");
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("privbayes_requests_total"));
        assert!(valid_name("_hidden"));
        assert!(!valid_name("9starts_with_digit"));
        assert!(!valid_name("has-dash"));
        assert!(!valid_name(""));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_text("name{unclosed 1").is_err());
        assert!(parse_text("name{k=unquoted} 1").is_err());
        assert!(parse_text("name_without_value").is_err());
        assert!(parse_text("name notanumber").is_err());
        assert!(parse_text("ok 1\n# arbitrary comment\n").is_ok());
    }
}
