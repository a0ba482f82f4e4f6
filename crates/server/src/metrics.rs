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

use privbayes_obs::{json_escape, Counter, EventLog, Gauge, Histogram, MetricKind, Registry};

use crate::ledger::TenantBudget;

/// The response header carrying the request id (echoed from the request
/// when the client sent a valid one, generated otherwise).
pub const REQUEST_ID_HEADER: &str = "X-PrivBayes-Request-Id";

/// Events kept in the in-memory access-log ring (the file, when configured,
/// keeps everything).
const EVENT_RING: usize = 1024;

/// All request stages recorded under `privbayes_stage_seconds`.
pub const STAGES: &[&str] = &["parse", "ledger", "lookup", "journal", "append", "sample", "write"];

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
    events: EventLog,
    access_log: Option<Mutex<File>>,
    id_base: u64,
    id_seq: AtomicU64,
}

impl ServerMetrics {
    /// A fresh registry with every metric family described up front, so a
    /// scrape before the first request already lists the full catalogue.
    /// `access_log` is an already-opened sink for JSON access lines (the
    /// in-memory ring is always kept regardless).
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
            "Per-request stage wall time (parse, ledger, lookup, journal, append, sample, \
             write)",
        );
        registry.describe(
            "privbayes_ledger_persist_total",
            MetricKind::Counter,
            "Ledger persist attempts by outcome (ok, rolled_back, durable_failure)",
        );
        registry.describe(
            "privbayes_engine_cache_hits_total",
            MetricKind::Counter,
            "CountEngine requests answered from cache across all fits",
        );
        registry.describe(
            "privbayes_engine_projections_total",
            MetricKind::Counter,
            "CountEngine requests answered by projecting a cached superset",
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
            "privbayes_ingest_rows_total",
            MetricKind::Counter,
            "Rows accepted by POST /v1/tenants/{t}/ingest, by tenant",
        );
        registry.describe(
            "privbayes_ingest_batch_rows",
            MetricKind::Histogram,
            "Rows per accepted ingest batch (power-of-two buckets; one \
             \"microsecond\" stands for one row)",
        );
        registry.describe(
            "privbayes_refits_total",
            MetricKind::Counter,
            "Background refits by outcome (ok, failed, exhausted, charge-failed)",
        );
        registry.describe(
            "privbayes_model_generation",
            MetricKind::Gauge,
            "Newest registry generation serving each model id",
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
        let fit_seconds = describe_histogram("privbayes_fit_seconds", "Wall time of fit requests");
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
        let seed = SystemTime::now()
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
            events: EventLog::new(EVENT_RING),
            access_log: access_log.map(Mutex::new),
            id_base: mix64(seed),
            id_seq: AtomicU64::new(0),
        }
    }

    /// The underlying registry (render it, look up families, share handles).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The in-memory ring of recent access-log lines, oldest first.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
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
        self.registry.counter("privbayes_engine_cache_hits_total", &[]).add(stats.hits as u64);
        self.registry
            .counter("privbayes_engine_projections_total", &[])
            .add(stats.projections as u64);
        self.registry.counter("privbayes_engine_scans_total", &[]).add(stats.scans as u64);
        self.registry
            .counter("privbayes_engine_bytes_materialized_total", &[])
            .add(stats.bytes_materialized);
    }

    /// Records one accepted ingest batch: the per-tenant row counter and
    /// the batch-size histogram.
    pub fn record_ingest(&self, tenant: &str, rows: u64) {
        self.registry.counter("privbayes_ingest_rows_total", &[("tenant", tenant)]).add(rows);
        // The histogram buckets are powers of two over "microseconds"; by
        // feeding one row as one microsecond the family doubles as a
        // batch-size distribution without a second histogram type.
        self.registry
            .histogram("privbayes_ingest_batch_rows", &[])
            .observe_ns(rows.saturating_mul(1000));
    }

    /// Counts one finished background refit under its outcome label.
    pub fn record_refit(&self, status: &'static str) {
        self.registry.counter("privbayes_refits_total", &[("status", status)]).inc();
    }

    /// Mirrors the newest generation serving `model` after a (re)load.
    pub fn set_model_generation(&self, model: &str, generation: u64) {
        let clamped = i64::try_from(generation).unwrap_or(i64::MAX);
        self.registry.gauge("privbayes_model_generation", &[("model", model)]).set(clamped);
    }

    /// Finishes one request: the by-endpoint/status counter, the
    /// per-endpoint latency histogram, and a JSON access line into the ring
    /// (and the file sink when configured). `bytes` is what actually
    /// reached the wire, so torn responses are visible in the log.
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
        let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        let line = format!(
            "{{\"ts\":{ts},\"id\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\
             \"endpoint\":\"{endpoint}\",\"status\":{status},\"bytes\":{bytes},\
             \"micros\":{}}}",
            json_escape(&ctx.id),
            json_escape(method),
            json_escape(path),
            elapsed.as_micros()
        );
        self.events.append(line.clone());
        if let Some(sink) = &self.access_log {
            let mut file = sink.lock().expect("access log lock poisoned");
            // Log-sink failures must never fail the request that triggered
            // them; the in-memory ring still has the line.
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
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

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// SplitMix64 finalizer — spreads the id seed over the whole word.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
            "privbayes_ingest_batch_rows",
            "privbayes_refits_total",
            "privbayes_model_generation",
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
        metrics.set_model_generation("census", 3);
        metrics.set_model_generation("census", 7);
        let snapshot = parse_text(&metrics.render(&[])).unwrap();
        assert_eq!(
            snapshot.value("privbayes_ingest_rows_total", &[("tenant", "acme")]),
            Some(192.0)
        );
        assert_eq!(
            snapshot.value("privbayes_ingest_rows_total", &[("tenant", "globex")]),
            Some(1.0)
        );
        assert_eq!(snapshot.value("privbayes_ingest_batch_rows_count", &[]), Some(3.0));
        assert_eq!(snapshot.value("privbayes_refits_total", &[("status", "ok")]), Some(2.0));
        assert_eq!(snapshot.value("privbayes_refits_total", &[("status", "failed")]), Some(1.0));
        assert_eq!(snapshot.value("privbayes_model_generation", &[("model", "census")]), Some(7.0));
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
        let metrics = ServerMetrics::new(None);
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
        let events = metrics.events().snapshot();
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("\"id\":\"req-test\""), "{}", events[0]);
        assert!(events[0].contains("\"status\":200"), "{}", events[0]);
        assert!(events[0].contains("\"bytes\":42"), "{}", events[0]);
    }
}
