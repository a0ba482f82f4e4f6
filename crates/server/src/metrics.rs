//! Server-side observability: the process-wide metric registry, request
//! contexts (ids + per-stage timing), and the JSON-lines access log.
//!
//! One [`ServerMetrics`] lives inside the server's shared state and is the
//! single source of truth for `GET /metrics`, `GET /healthz`, the live
//! [`ServerStats`] view, and the final stats returned by
//! [`ServerHandle::join`] — they all read the same atomics, so the numbers
//! can never drift apart. Hot-path cost is one relaxed atomic add per
//! event: handles for the label-free metrics are pre-registered `Arc`s, and
//! the per-chunk streaming path touches no locks at all (row/byte totals
//! are accumulated locally and added once per request).
//!
//! [`ServerStats`]: crate::server::ServerStats
//! [`ServerHandle::join`]: crate::server::ServerHandle::join

use std::cell::Cell;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use privbayes_model::Json;
use privbayes_obs::{Counter, Gauge, Histogram, MetricKind, Registry};

use crate::client::splitmix64;
use crate::ledger::TenantBudget;
use crate::registry::ModelEntry;

/// The response header carrying the request id (echoed from the request
/// when the client sent a valid one, generated otherwise).
pub const REQUEST_ID_HEADER: &str = "X-PrivBayes-Request-Id";

/// All request stages recorded under `privbayes_stage_seconds`.
pub const STAGES: &[&str] =
    &["parse", "ledger", "fit", "lookup", "journal", "append", "sample", "write"];

/// Pre-registered handles over one [`Registry`] — the process-wide metric
/// surface of a server instance.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// Open connections, idle kept-alive ones included: the count the
    /// admission cap checks.
    pub(crate) open_connections: Arc<Gauge>,
    /// Connections answered 503 by the acceptor because the cap was reached.
    pub(crate) queue_rejected: Arc<Counter>,
    /// Handler panics caught and isolated.
    pub(crate) panics: Arc<Counter>,
    /// Chunked row streams currently in flight.
    pub(crate) active_streams: Arc<Gauge>,
    /// Synthetic rows streamed to clients.
    pub(crate) rows_streamed: Arc<Counter>,
    /// Response-body bytes of streamed rows.
    pub(crate) bytes_streamed: Arc<Counter>,
    /// Wall time of ledger persist attempts.
    pub(crate) ledger_persist_seconds: Arc<Histogram>,
    /// Wall time of whole fit requests (parse to registration).
    pub(crate) fit_seconds: Arc<Histogram>,
    /// Wall time spent compiling alias tables at model load/registration.
    pub(crate) alias_build_seconds: Arc<Histogram>,
    /// Requests served over an already-used (kept-alive) connection.
    pub(crate) connections_reused: Arc<Counter>,
    access_log: Option<Mutex<File>>,
    id_base: u64,
    id_seq: AtomicU64,
}

impl ServerMetrics {
    /// A fresh registry with every metric family described up front, so a
    /// scrape before the first request already lists the full catalogue.
    /// `access_log` is an already-opened sink for JSON access lines; `None`
    /// writes no access log.
    #[must_use]
    pub fn new(access_log: Option<File>) -> Self {
        let registry = Registry::new();
        registry.describe(
            "privbayes_requests_total",
            MetricKind::Counter,
            "Requests answered, by endpoint and status (acceptor-level 503 \
             rejections appear under endpoint=\"acceptor\")",
        );
        registry.describe(
            "privbayes_request_seconds",
            MetricKind::Histogram,
            "End-to-end request wall time, by endpoint",
        );
        registry.describe(
            "privbayes_stage_seconds",
            MetricKind::Histogram,
            "Per-request stage wall time (parse, ledger, fit, lookup, journal, append, \
             sample, write)",
        );
        registry.describe(
            "privbayes_ledger_persist_total",
            MetricKind::Counter,
            "Ledger persist attempts by outcome (ok, rolled_back, durable_failure)",
        );
        registry.describe(
            "privbayes_engine_scans_total",
            MetricKind::Counter,
            "CountEngine requests that scanned the rows",
        );
        registry.describe(
            "privbayes_engine_bytes_materialized_total",
            MetricKind::Counter,
            "Bytes of count tables materialized by CountEngine scans",
        );
        registry.describe(
            "privbayes_engine_subsets_total",
            MetricKind::Counter,
            "Binary attribute subsets counted by CountEngine's subset walk, one AND + popcount \
             pass each",
        );
        registry.describe(
            "privbayes_ingest_rows_total",
            MetricKind::Counter,
            "Rows accepted by POST /v1/tenants/{t}/ingest, by tenant",
        );
        registry.describe(
            "privbayes_refits_total",
            MetricKind::Counter,
            "Background refits by outcome (ok, failed, exhausted, charge-failed)",
        );
        let describe_gauge = |name: &str, help: &str| {
            registry.describe(name, MetricKind::Gauge, help);
            registry.gauge(name, &[])
        };
        let describe_counter = |name: &str, help: &str| {
            registry.describe(name, MetricKind::Counter, help);
            registry.counter(name, &[])
        };
        let describe_histogram = |name: &str, help: &str| {
            registry.describe(name, MetricKind::Histogram, help);
            registry.histogram(name, &[])
        };
        let open_connections = describe_gauge(
            "privbayes_open_connections",
            "Open client connections, idle kept-alive ones included (the count the cap checks)",
        );
        let queue_rejected = describe_counter(
            "privbayes_queue_rejected_total",
            "Connections answered 503 because the connection cap was reached",
        );
        let panics =
            describe_counter("privbayes_worker_panics_total", "Handler panics caught and isolated");
        let active_streams =
            describe_gauge("privbayes_active_streams", "Chunked row streams currently in flight");
        let rows_streamed =
            describe_counter("privbayes_rows_streamed_total", "Synthetic rows streamed to clients");
        let bytes_streamed = describe_counter(
            "privbayes_bytes_streamed_total",
            "Response-body bytes of streamed rows (headers and fixed responses excluded)",
        );
        let ledger_persist_seconds = describe_histogram(
            "privbayes_ledger_persist_seconds",
            "Wall time of ledger persist attempts (write, fsync, rename, dir sync)",
        );
        let fit_seconds = describe_histogram(
            "privbayes_fit_seconds",
            "Wall time of fits (POST /fit and ingest refits), the model load excluded",
        );
        let alias_build_seconds = describe_histogram(
            "privbayes_alias_build_seconds",
            "Wall time compiling alias tables at model load/registration",
        );
        let connections_reused = describe_counter(
            "privbayes_connections_reused_total",
            "Requests served over an already-used (kept-alive) connection",
        );
        // A process-stable base for generated request ids: wall-clock nanos
        // folded with the pid, SplitMix64-mixed so ids from two servers
        // started in the same nanosecond still differ.
        let mut seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
            ^ (u64::from(std::process::id()) << 32);
        Self {
            registry,
            open_connections,
            queue_rejected,
            panics,
            active_streams,
            rows_streamed,
            bytes_streamed,
            ledger_persist_seconds,
            fit_seconds,
            alias_build_seconds,
            connections_reused,
            access_log: access_log.map(Mutex::new),
            id_base: splitmix64(&mut seed),
            id_seq: AtomicU64::new(0),
        }
    }

    /// The underlying registry (render it, look up families, share handles).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The full `/metrics` exposition: every registered family plus the
    /// per-tenant ε gauges, which are rendered fresh from the ledger
    /// snapshot at scrape time — the ledger stays the source of truth for
    /// accounting; these gauges only mirror it.
    #[must_use]
    pub fn render(&self, tenants: &[TenantBudget]) -> String {
        let mut out = self.registry.render();
        out.push_str("# HELP privbayes_tenant_epsilon_spent Privacy budget spent, by tenant (mirrors the ledger)\n");
        out.push_str("# TYPE privbayes_tenant_epsilon_spent gauge\n");
        for row in tenants {
            out.push_str(&format!(
                "privbayes_tenant_epsilon_spent{{tenant=\"{}\"}} {:?}\n",
                escape_label(&row.tenant),
                row.spent
            ));
        }
        out.push_str("# HELP privbayes_tenant_epsilon_remaining Privacy budget remaining, by tenant (mirrors the ledger)\n");
        out.push_str("# TYPE privbayes_tenant_epsilon_remaining gauge\n");
        for row in tenants {
            out.push_str(&format!(
                "privbayes_tenant_epsilon_remaining{{tenant=\"{}\"}} {:?}\n",
                escape_label(&row.tenant),
                row.remaining()
            ));
        }
        out
    }

    /// The id for one request: the client's `X-PrivBayes-Request-Id` when
    /// it is well-formed (1..=64 chars of `[A-Za-z0-9._-]`), a generated
    /// `req-`-prefixed id otherwise — so every response carries exactly one
    /// id and a hostile header can never inject log or header content.
    #[must_use]
    pub fn request_id(&self, inbound: Option<&str>) -> String {
        if let Some(id) = inbound {
            let valid = !id.is_empty()
                && id.len() <= 64
                && id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
            if valid {
                return id.to_string();
            }
        }
        let seq = self.id_seq.fetch_add(1, Ordering::Relaxed);
        format!("req-{:016x}-{seq:06x}", self.id_base)
    }

    /// Records one closed stage into `privbayes_stage_seconds{stage=…}`.
    pub fn observe_stage(&self, stage: &'static str, elapsed: Duration) {
        self.registry.histogram("privbayes_stage_seconds", &[("stage", stage)]).observe(elapsed);
    }

    /// Accumulates one fit's engine counters into the process totals.
    pub fn record_engine(&self, stats: &privbayes_synth::EngineStats) {
        self.registry.counter("privbayes_engine_scans_total", &[]).add(stats.scans as u64);
        self.registry
            .counter("privbayes_engine_bytes_materialized_total", &[])
            .add(stats.bytes_materialized);
        self.registry.counter("privbayes_engine_subsets_total", &[]).add(stats.subsets as u64);
    }

    /// Records one accepted ingest batch into the per-tenant row counter.
    pub fn record_ingest(&self, tenant: &str, rows: u64) {
        self.registry.counter("privbayes_ingest_rows_total", &[("tenant", tenant)]).add(rows);
    }

    /// Counts one finished background refit under its outcome label.
    pub fn record_refit(&self, status: &'static str) {
        self.registry.counter("privbayes_refits_total", &[("status", status)]).inc();
    }

    /// Finishes one request: the by-endpoint/status counter, the
    /// per-endpoint latency histogram, and, when an access-log sink is
    /// configured, one JSON line into it. `bytes` is what actually reached
    /// the wire, so torn responses are visible in the log.
    pub fn finish_request(&self, ctx: &RequestCtx<'_>, method: &str, path: &str, bytes: u64) {
        let endpoint = ctx.endpoint.get();
        let status = ctx.status.get();
        let elapsed = ctx.started.elapsed();
        self.registry
            .counter(
                "privbayes_requests_total",
                &[("endpoint", endpoint), ("status", &status.to_string())],
            )
            .inc();
        self.registry
            .histogram("privbayes_request_seconds", &[("endpoint", endpoint)])
            .observe(elapsed);
        let Some(sink) = &self.access_log else {
            return;
        };
        let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        let line = Json::object(vec![
            ("ts", Json::Number(ts as f64)),
            ("id", Json::String(ctx.id.clone())),
            ("method", Json::String(method.to_string())),
            ("path", Json::String(path.to_string())),
            ("endpoint", Json::String(endpoint.to_string())),
            ("status", Json::Number(f64::from(status))),
            ("bytes", Json::Number(bytes as f64)),
            ("micros", Json::Number(elapsed.as_micros() as f64)),
        ])
        .to_string_compact()
        .expect("every field is finite");
        let mut file = sink.lock().expect("access log lock poisoned");
        // Log-sink failures must never fail the request that triggered them.
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }
}

/// Per-request bookkeeping threaded through the route handlers. `Cell`
/// fields let the `catch_unwind` closure borrow the context immutably while
/// the post-panic path still reads what the handler managed to record.
#[derive(Debug)]
pub struct RequestCtx<'m> {
    /// The metrics sink (also reachable by handlers for stage timing).
    pub metrics: &'m ServerMetrics,
    /// The id echoed on this request's response.
    pub id: String,
    /// The routed endpoint label (`"unknown"` until dispatch).
    pub endpoint: Cell<&'static str>,
    /// The status actually written (0 until a response line goes out).
    pub status: Cell<u16>,
    /// Whether the connection stays open after this response (decided by
    /// the serving loop before routing; response writers advertise it).
    pub keep_alive: Cell<bool>,
    started: Instant,
    last_mark: Cell<Instant>,
}

impl<'m> RequestCtx<'m> {
    /// A context started now.
    #[must_use]
    pub fn new(metrics: &'m ServerMetrics, id: String) -> Self {
        let now = Instant::now();
        Self {
            metrics,
            id,
            endpoint: Cell::new("unknown"),
            status: Cell::new(0),
            keep_alive: Cell::new(false),
            started: now,
            last_mark: Cell::new(now),
        }
    }

    /// Closes the stage that started at the previous mark (or at
    /// construction) under `stage`, recording it into the stage histogram.
    pub fn stage(&self, stage: &'static str) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_mark.get());
        self.last_mark.set(now);
        self.metrics.observe_stage(stage, elapsed);
    }

    /// Records a stage measured by the caller (for interleaved work like
    /// the sample/write split of a chunked stream, where stages are not
    /// sequential). Also advances the mark so a following [`stage`] call
    /// does not double-count.
    ///
    /// [`stage`]: RequestCtx::stage
    pub fn observe_stage(&self, stage: &'static str, elapsed: Duration) {
        self.last_mark.set(Instant::now());
        self.metrics.observe_stage(stage, elapsed);
    }
}

/// Appends the `privbayes_model_generation` family to a `/metrics` body: one
/// sample per loaded model id, at the generation it serves. Rendered from
/// the registry at scrape time, as [`ServerMetrics::render`] renders the
/// tenant ε gauges from the ledger, so it lists exactly the ids loaded now —
/// `serve --model` loads and evictions included.
pub(crate) fn render_model_generations(out: &mut String, models: &[Arc<ModelEntry>]) {
    out.push_str("# HELP privbayes_model_generation Registry generation serving each model id (mirrors the registry)\n");
    out.push_str("# TYPE privbayes_model_generation gauge\n");
    for entry in models {
        out.push_str(&format!(
            "privbayes_model_generation{{model=\"{}\"}} {}\n",
            escape_label(&entry.id),
            entry.generation
        ));
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_obs::parse_text;

    #[test]
    fn catalogue_is_scrapeable_before_any_traffic() {
        let metrics = ServerMetrics::new(None);
        let text = metrics.render(&[]);
        let snapshot = parse_text(&text).expect("fresh exposition parses");
        for name in [
            "privbayes_open_connections",
            "privbayes_queue_rejected_total",
            "privbayes_worker_panics_total",
            "privbayes_active_streams",
            "privbayes_rows_streamed_total",
            "privbayes_bytes_streamed_total",
            "privbayes_connections_reused_total",
        ] {
            assert!(snapshot.has(name), "missing {name} in:\n{text}");
        }
        for family in [
            "privbayes_requests_total",
            "privbayes_stage_seconds",
            "privbayes_tenant_epsilon_spent",
            "privbayes_tenant_epsilon_remaining",
            "privbayes_ingest_rows_total",
            "privbayes_refits_total",
        ] {
            assert!(snapshot.types.contains_key(family), "no TYPE line for {family}");
        }
    }

    #[test]
    fn ingest_and_refit_metrics_accumulate() {
        let metrics = ServerMetrics::new(None);
        metrics.record_ingest("acme", 128);
        metrics.record_ingest("acme", 64);
        metrics.record_ingest("globex", 1);
        metrics.record_refit("ok");
        metrics.record_refit("ok");
        metrics.record_refit("failed");
        let snapshot = parse_text(&metrics.render(&[])).unwrap();
        assert_eq!(
            snapshot.value("privbayes_ingest_rows_total", &[("tenant", "acme")]),
            Some(192.0)
        );
        assert_eq!(
            snapshot.value("privbayes_ingest_rows_total", &[("tenant", "globex")]),
            Some(1.0)
        );
        assert_eq!(snapshot.value("privbayes_refits_total", &[("status", "ok")]), Some(2.0));
        assert_eq!(snapshot.value("privbayes_refits_total", &[("status", "failed")]), Some(1.0));
    }

    #[test]
    fn tenant_gauges_mirror_the_snapshot() {
        let metrics = ServerMetrics::new(None);
        let rows = vec![
            TenantBudget { tenant: "acme".into(), total: 2.0, spent: 0.5 },
            TenantBudget { tenant: "globex".into(), total: 1.0, spent: 1.0 },
        ];
        let snapshot = parse_text(&metrics.render(&rows)).unwrap();
        assert_eq!(
            snapshot.value("privbayes_tenant_epsilon_spent", &[("tenant", "acme")]),
            Some(0.5)
        );
        assert_eq!(
            snapshot.value("privbayes_tenant_epsilon_remaining", &[("tenant", "acme")]),
            Some(1.5)
        );
        assert_eq!(
            snapshot.value("privbayes_tenant_epsilon_remaining", &[("tenant", "globex")]),
            Some(0.0)
        );
    }

    #[test]
    fn request_ids_honor_valid_inbound_and_reject_hostile_ones() {
        let metrics = ServerMetrics::new(None);
        assert_eq!(metrics.request_id(Some("abc-123_x.y")), "abc-123_x.y");
        for hostile in ["", "has space", "a\r\nInjected: yes", &"x".repeat(65)] {
            let id = metrics.request_id(Some(hostile));
            assert!(id.starts_with("req-"), "hostile id `{hostile}` must be replaced, got {id}");
        }
        let a = metrics.request_id(None);
        let b = metrics.request_id(None);
        assert_ne!(a, b, "generated ids are unique per request");
    }

    #[test]
    fn finish_request_counts_and_logs() {
        let dir = std::env::temp_dir()
            .join(format!("privbayes-metrics-access-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let sink = File::create(&path).unwrap();
        let metrics = ServerMetrics::new(Some(sink));
        let ctx = RequestCtx::new(&metrics, "req-test".into());
        ctx.endpoint.set("healthz");
        ctx.status.set(200);
        ctx.stage("parse");
        metrics.finish_request(&ctx, "GET", "/healthz", 42);
        let snapshot = parse_text(&metrics.render(&[])).unwrap();
        assert_eq!(
            snapshot
                .value("privbayes_requests_total", &[("endpoint", "healthz"), ("status", "200")]),
            Some(1.0)
        );
        assert_eq!(
            snapshot.value("privbayes_request_seconds_count", &[("endpoint", "healthz")]),
            Some(1.0)
        );
        let log = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1, "{log}");
        assert!(lines[0].contains("\"id\":\"req-test\""), "{}", lines[0]);
        assert!(lines[0].contains("\"status\":200"), "{}", lines[0]);
        assert!(lines[0].contains("\"bytes\":42"), "{}", lines[0]);
    }

    #[test]
    fn escaping_covers_json_specials() {
        // Every field goes through `Json`, so quotes, backslashes and
        // control characters stay inside one line that reads back exactly.
        let dir = std::env::temp_dir()
            .join(format!("privbayes-metrics-access-escape-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let metrics = ServerMetrics::new(Some(File::create(&path).unwrap()));
        let ctx = RequestCtx::new(&metrics, "req-escape".into());
        let hostile = "/a\"b\\c\u{1}\n\t";
        metrics.finish_request(&ctx, "GET", hostile, 0);
        let log = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1, "{log}");
        let entry = Json::parse(lines[0]).unwrap();
        assert_eq!(entry.get("path").and_then(Json::as_str), Some(hostile));
        assert_eq!(entry.get("id").and_then(Json::as_str), Some("req-escape"));
    }
}
