//! The observability tier: the metric surface as a contract.
//!
//! Every test drives a real server over real sockets and checks that the
//! numbers it exposes are *exact*, not merely plausible:
//!
//! 1. **Exposition** — `GET /metrics` serves parseable Prometheus text
//!    (v0.0.4) listing every family, with the correct content type and the
//!    per-tenant ε gauges mirroring the ledger.
//! 2. **Exact deltas** — N requests move the request counter by exactly N;
//!    row and byte counters equal what was actually streamed; N journaled
//!    ingests close exactly N `journal` and N `append` stages; the
//!    connection-reuse counter moves exactly with a known keep-alive
//!    workload.
//! 3. **Coherence under load** — scrapes taken *during* a storm parse and
//!    stay monotone; the post-storm totals are exact.
//! 4. **Request ids** — every response shape (200/400/402/404/405/408/500/
//!    503) carries `X-PrivBayes-Request-Id`; valid inbound ids are echoed,
//!    hostile ones replaced.
//! 5. **One surface** — `ServerHandle::stats`, `/healthz`, and `/metrics`
//!    read the same registry and can never disagree.
//! 6. **Non-interference** — instrumented streaming with the access log
//!    enabled stays byte-identical to the direct batch sampler, and the
//!    instrumentation costs under 1% of a streamed request's latency.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use privbayes_suite::data::csv::write_csv;
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::model::{Json, ReleasedModel};
use privbayes_suite::server::{
    BudgetLedger, Client, Fault, FaultPlan, FaultSite, ModelRegistry, RetryPolicy, Server,
    ServerConfig, ServerError, ServerHandle, Snapshot,
};
use privbayes_suite::synth::{fit_method, FitSettings, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Injected handler panics are part of the test plan; keep them out of the
/// test output while still reporting any *unexpected* panic in full.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected handler panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("privbayes-obs-{tag}-{}.log", std::process::id()))
}

/// A small fixture model (3 attributes, 400 source rows).
fn fixture_model(seed: u64) -> ReleasedModel {
    let schema = Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::categorical("region", 3).unwrap(),
        Attribute::binary("disease"),
    ])
    .unwrap();
    let rows: Vec<Vec<u32>> =
        (0..400u32).map(|i| vec![i % 2, (i / 2) % 3, u32::from(i % 2 == 1)]).collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let settings =
        FitSettings { comment: "observability fixture".into(), ..FitSettings::default() };
    fit_method(Method::PrivBayes, &data, 1.0, seed, &settings).unwrap().artifact
}

/// Starts a server with model `m` loaded; returns the handle, a plain
/// (non-retrying) client, the registry, and the live fault slot.
fn start_server(
    config: ServerConfig,
) -> (ServerHandle, Client, Arc<ModelRegistry>, privbayes_suite::server::server::FaultSlot) {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", fixture_model(1)).unwrap();
    let ledger = Arc::new(BudgetLedger::in_memory());
    let server = Server::bind("127.0.0.1:0", config, Arc::clone(&registry), ledger).unwrap();
    let slot = server.fault_slot();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    (handle, client, registry, slot)
}

/// A fast-but-persistent retry policy for tests.
fn fast_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        jitter_seed: 7,
    }
}

/// A sample's value, defaulting to 0 when the label set has not appeared
/// yet (a counter that was never incremented is semantically zero).
fn counter(snapshot: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    snapshot.value(name, labels).unwrap_or(0.0)
}

/// Polls `cond` for up to two seconds. Request counters are bumped *after*
/// the response bytes reach the wire, so a client that just read a
/// response can observe the counter a few microseconds before it moves.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..400 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// The server's open-connection gauge, read in-process.
fn open_connections(handle: &ServerHandle) -> f64 {
    let text = handle.metrics().render(&[]);
    privbayes_suite::server::parse_text(&text)
        .unwrap()
        .value("privbayes_open_connections", &[])
        .unwrap_or(0.0)
}

/// Sends raw `bytes`, half-closes the write side, and returns the full
/// response text.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text
}

// ---------------------------------------------------------------------------
// 1. Exposition conformance
// ---------------------------------------------------------------------------

/// `GET /metrics` serves Prometheus text v0.0.4: correct content type,
/// `# TYPE` lines for every family, histogram bucket/sum/count triples,
/// and per-tenant ε gauges rendered fresh from the ledger.
#[test]
fn the_exposition_is_conformant_and_lists_every_family() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    client.register_tenant("acme", 2.0).unwrap();
    assert_eq!(client.synth("m", 400, 7, "csv").unwrap().lines().count(), 401);
    // The synth increment lands just after its bytes leave the wire.
    assert!(eventually(|| handle.stats().requests >= 2));

    let response = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(response.code, 200);
    assert_eq!(
        response.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8"),
        "the exposition must declare the text format version"
    );
    let text = response.text();
    let snapshot = privbayes_suite::server::parse_text(&text).expect("exposition must parse");

    // Every family is present even when idle — a scrape before the first
    // fit still lists the whole catalogue.
    for family in [
        "privbayes_requests_total",
        "privbayes_request_seconds",
        "privbayes_stage_seconds",
        "privbayes_open_connections",
        "privbayes_queue_rejected_total",
        "privbayes_worker_panics_total",
        "privbayes_active_streams",
        "privbayes_rows_streamed_total",
        "privbayes_bytes_streamed_total",
        "privbayes_ledger_persist_total",
        "privbayes_ledger_persist_seconds",
        "privbayes_fit_seconds",
        "privbayes_alias_build_seconds",
        "privbayes_engine_scans_total",
        "privbayes_engine_bytes_materialized_total",
        "privbayes_engine_subsets_total",
        "privbayes_connections_reused_total",
        "privbayes_tenant_epsilon_spent",
        "privbayes_tenant_epsilon_remaining",
        "privbayes_ingest_rows_total",
        "privbayes_refits_total",
        "privbayes_model_generation",
    ] {
        assert!(snapshot.types.contains_key(family), "no TYPE line for {family} in:\n{text}");
    }
    // The count engine neither projects nor caches, so no counter pretends
    // it might.
    assert!(!text.contains("privbayes_engine_projections_total"), "{text}");
    assert!(!text.contains("privbayes_engine_cache_hits"), "{text}");
    assert_eq!(snapshot.types["privbayes_requests_total"], "counter");
    assert_eq!(snapshot.types["privbayes_open_connections"], "gauge");
    assert_eq!(snapshot.types["privbayes_ingest_rows_total"], "counter");
    assert_eq!(snapshot.types["privbayes_model_generation"], "gauge");
    assert_eq!(snapshot.types["privbayes_request_seconds"], "histogram");
    assert_eq!(snapshot.types["privbayes_connections_reused_total"], "counter");
    assert_eq!(snapshot.types["privbayes_engine_subsets_total"], "counter");

    // Histograms follow the bucket/sum/count convention with an +Inf bucket.
    assert!(text.contains("privbayes_request_seconds_bucket"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    assert_eq!(
        counter(&snapshot, "privbayes_request_seconds_count", &[("endpoint", "synth")]),
        1.0
    );

    // Tenant gauges mirror the ledger: registered, nothing spent yet.
    assert_eq!(snapshot.value("privbayes_tenant_epsilon_spent", &[("tenant", "acme")]), Some(0.0));
    assert_eq!(
        snapshot.value("privbayes_tenant_epsilon_remaining", &[("tenant", "acme")]),
        Some(2.0)
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 2. Exact counter deltas
// ---------------------------------------------------------------------------

/// Between two scrapes, a workload of exactly N synth requests moves the
/// synth/200 counter by exactly N, the row counter by exactly the rows
/// requested, and the byte counter by exactly the body bytes the clients
/// received. A scrape never includes its own increment, so the deltas are
/// deterministic — not lower bounds.
#[test]
fn counter_deltas_match_a_known_workload_exactly() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    let requests = 5usize;
    let rows = 400usize;

    let before = client.metrics().unwrap();
    let synth_before =
        counter(&before, "privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")]);

    let mut body_bytes = 0u64;
    for seed in 0..requests as u64 {
        let body = client.synth("m", rows, seed, "csv").unwrap();
        assert_eq!(body.lines().count(), rows + 1);
        body_bytes += body.len() as u64;
    }

    // The Nth finish runs just after the Nth response hits the wire; wait
    // for it, then assert *equality* — the counters must not overshoot.
    assert!(
        eventually(|| {
            let snap = client.metrics().unwrap();
            counter(&snap, "privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")])
                - synth_before
                >= requests as f64
        }),
        "the synth counter must reach the workload size"
    );
    let after = client.metrics().unwrap();

    let delta = |name: &str, labels: &[(&str, &str)]| {
        counter(&after, name, labels) - counter(&before, name, labels)
    };
    assert_eq!(
        delta("privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")]),
        requests as f64,
        "N requests must move the counter by exactly N"
    );
    assert_eq!(delta("privbayes_request_seconds_count", &[("endpoint", "synth")]), requests as f64);
    assert_eq!(
        delta("privbayes_rows_streamed_total", &[]),
        (requests * rows) as f64,
        "row counter must equal the rows streamed"
    );
    assert_eq!(
        delta("privbayes_bytes_streamed_total", &[]),
        body_bytes as f64,
        "byte counter must equal the body bytes the client received"
    );
    // Each request closed a sample and a write stage.
    assert!(delta("privbayes_stage_seconds_count", &[("stage", "sample")]) >= requests as f64);
    assert!(delta("privbayes_stage_seconds_count", &[("stage", "write")]) >= requests as f64);
    // The in-flight gauge is back to zero between requests.
    assert_eq!(after.value("privbayes_active_streams", &[]), Some(0.0));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A stream the client abandons mid-transfer still records what it did:
/// once the server has counted the request, it closed one `sample` stage
/// and counted at least the chunk the client read among the rows streamed.
/// The stream is too long to fit in the socket buffers, so the server is
/// still writing when the client hangs up.
#[test]
fn an_interrupted_stream_records_its_stages_and_rows() {
    let (handle, _client, _registry, _slot) = start_server(ServerConfig::default());
    let scrape = || privbayes_suite::server::parse_text(&handle.metrics().render(&[])).unwrap();
    let finished =
        |s: &Snapshot| counter(s, "privbayes_request_seconds_count", &[("endpoint", "synth")]);
    let before = scrape();

    let body = r#"{"rows": 2000000, "seed": 4}"#;
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        stream,
        "POST /v1/models/m/synth HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // The head, the CSV header's chunk and the first chunk of rows.
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    while line != "\r\n" {
        line.clear();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    }
    for _ in 0..2 {
        line.clear();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        let size = usize::from_str_radix(line.trim_end(), 16).unwrap();
        let mut chunk = vec![0; size + 2];
        reader.read_exact(&mut chunk).unwrap();
    }
    drop(reader);

    assert!(eventually(|| finished(&scrape()) - finished(&before) >= 1.0));
    let after = scrape();
    let delta = |name: &str, labels: &[(&str, &str)]| {
        counter(&after, name, labels) - counter(&before, name, labels)
    };
    assert_eq!(delta("privbayes_stage_seconds_count", &[("stage", "sample")]), 1.0);
    assert_eq!(delta("privbayes_stage_seconds_count", &[("stage", "write")]), 1.0);
    let rows = delta("privbayes_rows_streamed_total", &[]);
    assert!(rows >= privbayes_suite::core::CHUNK_ROWS as f64, "{rows} rows counted");
    assert!(rows < 2_000_000.0, "the stream was cut short: {rows} rows counted");
    assert!(delta("privbayes_bytes_streamed_total", &[]) > 0.0);
    assert_eq!(after.value("privbayes_active_streams", &[]), Some(0.0));
    Client::new(handle.addr().to_string()).shutdown().unwrap();
    handle.join().unwrap();
}

/// A journaled ingest records its log write under a `journal` stage and
/// its engine append under an `append` stage, so the `write` stage holds
/// only the response: N ingests raise the `journal` and `append` counts by
/// exactly N, and the stages a request closes never add up to more than
/// its wall time.
#[test]
fn journaled_ingests_record_journal_and_append_stages() {
    let dir = std::env::temp_dir().join(format!("privbayes-obs-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, client, _registry, _slot) = start_server(ServerConfig {
        fit_threads: Some(1),
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let schema = fixture_model(1).schema.clone();
    let batch = |start: u32| {
        let rows: Vec<Vec<u32>> =
            (start..start + 50).map(|i| vec![i % 2, (i / 2) % 3, i % 2]).collect();
        let mut csv = Vec::new();
        write_csv(&Dataset::from_rows(schema.clone(), &rows).unwrap(), &mut csv).unwrap();
        Json::String(String::from_utf8(csv).unwrap())
    };
    // Scrapes render in-process, so the ingests are the only requests.
    let scrape = || privbayes_suite::server::parse_text(&handle.metrics().render(&[])).unwrap();
    let before = scrape();
    let ingests = 5u32;
    for i in 0..ingests {
        let mut fields = vec![("csv", batch(i * 50))];
        if i == 0 {
            fields.push(("schema", privbayes_suite::model::schema_to_json(&schema)));
            fields.push(("model_id", Json::String("acme-model".into())));
            fields.push(("epsilon", Json::Number(1.0)));
        }
        let response = client.ingest("acme", &Json::object(fields)).unwrap();
        assert_eq!(response.code, 200, "{}", response.text());
    }
    let finished =
        |s: &Snapshot| counter(s, "privbayes_request_seconds_count", &[("endpoint", "ingest")]);
    assert!(eventually(|| finished(&scrape()) - finished(&before) >= f64::from(ingests)));
    let after = scrape();
    let delta = |name: &str, labels: &[(&str, &str)]| {
        counter(&after, name, labels) - counter(&before, name, labels)
    };

    for stage in ["journal", "append"] {
        assert_eq!(
            delta("privbayes_stage_seconds_count", &[("stage", stage)]),
            f64::from(ingests),
            "every journaled ingest closes exactly one {stage} stage"
        );
    }
    let staged: f64 = privbayes_suite::server::metrics::STAGES
        .iter()
        .map(|stage| delta("privbayes_stage_seconds_sum", &[("stage", stage)]))
        .sum();
    let requests = delta("privbayes_request_seconds_sum", &[("endpoint", "ingest")]);
    assert!(staged > 0.0, "the ingests closed no stage time");
    assert!(
        staged <= requests + 1e-9,
        "stage seconds {staged} exceed the requests' wall seconds {requests}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The connection-reuse counter is exact, not merely monotone. One pooled
/// client issues five sequential requests on a single kept-alive
/// connection: every request after the first counts exactly one
/// `privbayes_connections_reused_total` (the reuse is counted when the
/// request is *read*, so a scrape includes its own), and a repeated
/// two-chunk synth on the reused connection returns the same bytes.
#[test]
fn connection_reuse_counters_are_exact() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });

    // Request 1 parks the pooled connection; everything below rides it.
    let before = client.metrics().unwrap();
    assert_eq!(counter(&before, "privbayes_connections_reused_total", &[]), 0.0);

    // Request 2: a synth spanning a full chunk plus a remainder.
    let rows = privbayes_suite::core::CHUNK_ROWS + 123;
    let first = client.synth("m", rows, 31, "csv").unwrap();
    assert_eq!(first.lines().count(), rows + 1);

    // Request 3: the scrape counts requests 2 and 3 as reuses.
    let mid = client.metrics().unwrap();
    assert_eq!(counter(&mid, "privbayes_connections_reused_total", &[]), 2.0);

    // Request 4: the identical synth, byte-identical.
    let again = client.synth("m", rows, 31, "csv").unwrap();
    assert_eq!(again, first, "a repeated stream must not change a single byte");

    // Request 5.
    let after = client.metrics().unwrap();
    assert_eq!(
        counter(&after, "privbayes_connections_reused_total", &[]),
        4.0,
        "every pooled request after the first must count exactly one reuse"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 3. Coherence under concurrent load
// ---------------------------------------------------------------------------

/// Scrapes taken *while* 8 clients hammer the server all parse, stay
/// monotone, and the post-storm totals are exact — concurrent scraping
/// neither corrupts the exposition nor loses increments.
#[test]
fn a_concurrent_scrape_during_a_storm_stays_coherent() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    let clients = 8usize;
    let per_client = 4usize;
    let rows = 1200usize;

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    for seed in 0..per_client as u64 {
                        let body = client.synth("m", rows, seed, "csv").unwrap();
                        assert_eq!(body.lines().count(), rows + 1);
                    }
                })
            })
            .collect();
        // The scraper races the storm: every snapshot must parse and the
        // totals must never step backwards.
        let scraper = {
            let client = client.clone();
            scope.spawn(move || {
                let mut last_requests = 0.0f64;
                let mut last_rows = 0.0f64;
                for _ in 0..25 {
                    let snap = client.metrics().expect("scrape during storm must succeed");
                    let requests = snap.sum("privbayes_requests_total");
                    let rows = counter(&snap, "privbayes_rows_streamed_total", &[]);
                    assert!(requests >= last_requests, "{requests} < {last_requests}");
                    assert!(rows >= last_rows, "{rows} < {last_rows}");
                    last_requests = requests;
                    last_rows = rows;
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        scraper.join().unwrap();
    });

    let total = clients * per_client;
    assert!(eventually(|| {
        let snap = client.metrics().unwrap();
        counter(&snap, "privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")])
            >= total as f64
    }));
    let snap = client.metrics().unwrap();
    assert_eq!(
        counter(&snap, "privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")]),
        total as f64,
        "the storm must be counted exactly once per request"
    );
    assert_eq!(counter(&snap, "privbayes_rows_streamed_total", &[]), (total * rows) as f64);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 4. Request ids on every response shape
// ---------------------------------------------------------------------------

/// 200, 400, 402, 404, 405, and panic-500 responses all carry
/// `X-PrivBayes-Request-Id` — the error paths included, because an id that
/// only exists on success is useless for debugging.
#[test]
fn every_response_shape_carries_a_request_id() {
    quiet_injected_panics();
    let (handle, client, _registry, slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    client.register_tenant("tiny", 0.05).unwrap();

    let schema_json =
        Json::parse(r#"[{"name": "a", "kind": "binary"}, {"name": "b", "kind": "binary"}]"#)
            .unwrap();
    let csv: String = std::iter::once("a,b".to_string())
        .chain((0..50).map(|i| format!("{},{}", i % 2, i % 2)))
        .collect::<Vec<_>>()
        .join("\n");
    let over_budget = Json::object(vec![
        ("tenant", Json::String("tiny".into())),
        ("model_id", Json::String("f1".into())),
        ("epsilon", Json::Number(0.5)),
        ("seed", Json::from_usize(5)),
        ("schema", schema_json),
        ("csv", Json::String(csv)),
    ]);

    let synth = |model: &str, body: &str| {
        let path = format!("/v1/models/{model}/synth");
        client.request("POST", &path, Some(("application/json", body.as_bytes()))).unwrap()
    };
    let shapes: Vec<(u16, privbayes_suite::server::http::Response)> = vec![
        (200, client.request("GET", "/healthz", None).unwrap()),
        (400, synth("m", r#"{"rows": "abc"}"#)),
        (402, client.fit_raw(&over_budget).unwrap()),
        (404, synth("ghost", r#"{"rows": 5, "seed": 1}"#)),
        (405, client.request("POST", "/healthz", None).unwrap()),
    ];
    for (expected, response) in &shapes {
        assert_eq!(response.code, *expected, "{}", response.text());
        let id = response
            .header("x-privbayes-request-id")
            .unwrap_or_else(|| panic!("a {expected} response must carry a request id"));
        assert!(!id.is_empty());
    }

    // A handler panic: the catch_unwind 500 still carries an id.
    *slot.write().unwrap() =
        Some(Arc::new(FaultPlan::new().inject(FaultSite::Handler, 0, Fault::Panic)));
    let response = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(response.code, 500, "{}", response.text());
    assert!(response.header("x-privbayes-request-id").is_some(), "500s carry ids too");
    *slot.write().unwrap() = None;

    // The panic and every shape above are all counted, each under its
    // endpoint and status (tenant PUT + five shapes + the 500 = 7).
    assert!(eventually(|| handle.stats().panics == 1));
    assert!(eventually(|| handle.stats().requests == 7));
    let snap = client.metrics().unwrap();
    for (endpoint, status, at_least) in [
        ("healthz", "200", 1.0),
        ("synth", "400", 1.0),
        ("fit", "402", 1.0),
        ("synth", "404", 1.0),
        ("healthz", "405", 1.0),
        // The injected panic fires before dispatch assigns an endpoint, so
        // its 500 is counted under the pre-routing label.
        ("unknown", "500", 1.0),
    ] {
        assert!(
            counter(
                &snap,
                "privbayes_requests_total",
                &[("endpoint", endpoint), ("status", status)]
            ) >= at_least,
            "missing {endpoint}/{status} in scrape"
        );
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A well-formed inbound `X-PrivBayes-Request-Id` is echoed back verbatim
/// (so a caller's trace id spans client and server logs); a hostile one —
/// oversized or with characters that could corrupt a log line — is
/// replaced with a generated id, never reflected.
#[test]
fn inbound_ids_are_echoed_and_hostile_ids_replaced() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    let addr = handle.addr();

    let text = raw_exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-PrivBayes-Request-Id: trace-42.a_b\r\n\r\n",
    );
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.contains("X-PrivBayes-Request-Id: trace-42.a_b\r\n"),
        "a valid inbound id must be echoed: {text}"
    );

    let hostile = format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\nX-PrivBayes-Request-Id: {}\r\n\r\n",
        "x".repeat(65)
    );
    let text = raw_exchange(addr, hostile.as_bytes());
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.contains("X-PrivBayes-Request-Id: req-"),
        "an oversized id must be replaced with a generated one: {text}"
    );

    let text = raw_exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-PrivBayes-Request-Id: has space\r\n\r\n",
    );
    assert!(
        text.contains("X-PrivBayes-Request-Id: req-"),
        "an id with invalid characters must be replaced: {text}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The socket-level failure paths — a reaped slow-loris (408) and an
/// acceptor rejection (503) — also carry request ids, and both land in the
/// same request counter as normal traffic (under `endpoint="read"` and
/// `endpoint="acceptor"`), so `/healthz`, `/metrics`, and
/// `ServerHandle::stats` agree about *every* answered connection.
#[test]
fn timeouts_and_overload_are_counted_with_ids() {
    let config = ServerConfig {
        workers: 2,
        fit_threads: Some(1),
        read_deadline: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let (handle, client, _registry, _slot) = start_server(config);
    let addr = handle.addr();

    // Occupy both connection slots with silent peers.
    let a = TcpStream::connect(addr).unwrap();
    let b = TcpStream::connect(addr).unwrap();
    assert!(eventually(|| open_connections(&handle) == 2.0));

    // Beyond capacity: the acceptor's 503 carries an id like any response.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut text = String::new();
    let _ = over.read_to_string(&mut text);
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("X-PrivBayes-Request-Id: "), "503s carry ids: {text}");

    // The silent peers are reaped with 408s that carry ids.
    let mut text = String::new();
    let mut a = a;
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = a.read_to_string(&mut text);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("X-PrivBayes-Request-Id: "), "408s carry ids: {text}");

    // All answered connections land in the one request counter. A scrape
    // that races the reaping can still meet a full server and get a 503,
    // so the condition tolerates scrape failures until `b` is reaped too.
    let retrying = client.clone().with_retry(fast_retry(8));
    assert!(eventually(|| {
        let Ok(snap) = retrying.metrics() else { return false };
        counter(&snap, "privbayes_requests_total", &[("endpoint", "acceptor"), ("status", "503")])
            >= 1.0
            && counter(
                &snap,
                "privbayes_requests_total",
                &[("endpoint", "read"), ("status", "408")],
            ) >= 2.0
    }));
    drop(b);
    let snap = retrying.metrics().unwrap();
    assert!(counter(&snap, "privbayes_queue_rejected_total", &[]) >= 1.0);
    let stats = handle.stats();
    assert!(stats.queue_rejected >= 1);
    // Quiescent now: the scrape's own increment lands just after its bytes
    // left the wire, then the totals agree exactly.
    assert!(
        eventually(|| handle.stats().requests == snap.sum("privbayes_requests_total") as u64 + 1),
        "stats and the scrape must read the same counter, got {} vs {}",
        handle.stats().requests,
        snap.sum("privbayes_requests_total")
    );

    retrying.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 5. One surface: stats, /healthz, /metrics
// ---------------------------------------------------------------------------

/// The live `ServerHandle::stats`, the `/healthz` body, and the `/metrics`
/// exposition all read the same atomics — their request totals agree
/// exactly once the wire settles, with no separate bookkeeping to drift.
#[test]
fn stats_healthz_and_metrics_are_one_surface() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    for seed in 0..3u64 {
        client.synth("m", 200, seed, "csv").unwrap();
    }
    assert!(eventually(|| handle.stats().requests == 3));

    // healthz reports the 3 synths; its own increment lands after its
    // response is written, so the next reader sees 4.
    let health = client.health().unwrap();
    assert_eq!(health.get("requests").and_then(Json::as_f64), Some(3.0));
    assert!(eventually(|| handle.stats().requests == 4));

    // The scrape agrees with the live stats taken at the same instant.
    let snap = client.metrics().unwrap();
    assert_eq!(snap.sum("privbayes_requests_total"), 4.0);
    assert!(eventually(|| handle.stats().requests == 5));

    client.shutdown().unwrap();
    let final_stats = handle.join().unwrap();
    assert_eq!(final_stats.requests, 6, "join returns the same counter, shutdown included");
}

// ---------------------------------------------------------------------------
// 6. Non-interference + access log
// ---------------------------------------------------------------------------

/// Instrumentation must be invisible in the bytes: with the access log
/// enabled, a streamed response is byte-identical to the direct batch
/// sampler — and the log holds one well-formed JSON line per request with
/// the same ids the responses carried.
#[test]
fn instrumented_streaming_is_byte_identical_and_logged() {
    let log_path = temp_path("access");
    let _ = std::fs::remove_file(&log_path);
    let config = ServerConfig {
        fit_threads: Some(1),
        access_log: Some(log_path.clone()),
        ..ServerConfig::default()
    };
    let (handle, client, registry, _slot) = start_server(config);

    // 2 chunks + a remainder, so chunk framing is exercised.
    let rows = 2 * privbayes_suite::core::CHUNK_ROWS + 137;
    let seed = 42u64;
    let entry = registry.get("m").unwrap();
    let direct = entry
        .sampler()
        .unwrap()
        .sample_dataset(rows, None, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let mut expected = Vec::new();
    write_csv(&direct, &mut expected).unwrap();
    let expected = String::from_utf8(expected).unwrap();

    let body = client.synth("m", rows, seed, "csv").unwrap();
    assert_eq!(body, expected, "instrumentation must not change a single byte");
    client.health().unwrap();
    // A path that decodes to a quote, a backslash and a control character.
    let hostile = client.request("GET", "/nope%22%5C%01", None).unwrap();
    assert_eq!(hostile.code, 404);

    client.shutdown().unwrap();
    handle.join().unwrap();

    // One JSON line per request, each parseable, with id/endpoint/status;
    // the hostile path reads back exactly.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = log.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 4, "synth + healthz + 404 + shutdown must be logged:\n{log}");
    let mut saw_synth = false;
    let mut saw_hostile = false;
    for line in &lines {
        let entry = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
        saw_hostile |= entry.get("path").and_then(Json::as_str) == Some("/nope\"\\\u{1}");
        assert!(entry.get("id").and_then(Json::as_str).is_some_and(|id| !id.is_empty()));
        assert!(entry.get("endpoint").and_then(Json::as_str).is_some());
        assert!(entry.get("status").and_then(Json::as_f64).is_some());
        if entry.get("endpoint").and_then(Json::as_str) == Some("synth") {
            saw_synth = true;
            assert_eq!(entry.get("status").and_then(Json::as_f64), Some(200.0));
            // `bytes` is what hit the wire: body plus head and chunk framing.
            let bytes = entry.get("bytes").and_then(Json::as_f64).unwrap();
            assert!(bytes >= expected.len() as f64, "wire bytes {bytes} < body {}", expected.len());
        }
    }
    assert!(saw_synth, "the synth request must appear in the log:\n{log}");
    assert!(saw_hostile, "the hostile path must read back from the log:\n{log}");
    let _ = std::fs::remove_file(&log_path);
}

/// Instrumentation must be cheap next to the work it measures. A streamed
/// request performs ~6 counter-style and ~7 histogram-style events end to
/// end (per-chunk work accumulates locally and lands as one add). Their
/// cost, micro-timed on the server's own registry handles, must stay under
/// 1% of the mean latency of N synth requests.
#[test]
fn instrumentation_stays_under_one_percent_of_a_synth_request() {
    let (handle, client, _registry, _slot) =
        start_server(ServerConfig { fit_threads: Some(1), ..ServerConfig::default() });
    let metrics = handle.metrics();
    let requests = 8u64;
    let rows = 5_000usize;
    let mut total_ms = 0.0;
    for seed in 0..requests {
        let started = Instant::now();
        let body = client.synth("m", rows, seed, "csv").unwrap();
        total_ms += started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(body.lines().count(), rows + 1);
    }
    let mean_request_ms = total_ms / requests as f64;
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Per-event cost of the two hot-path primitives, measured on the
    // server's own (now idle) registry handles.
    let iters = 1_000_000u64;
    let counter = metrics.registry().counter("privbayes_rows_streamed_total", &[]);
    let started = Instant::now();
    for _ in 0..iters {
        counter.add(1);
    }
    let counter_inc_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let histogram = metrics.registry().histogram("privbayes_fit_seconds", &[]);
    let started = Instant::now();
    for i in 0..iters {
        histogram.observe_ns(i);
    }
    let histogram_observe_ns = started.elapsed().as_nanos() as f64 / iters as f64;

    let instrumentation_ns = 6.0 * counter_inc_ns + 7.0 * histogram_observe_ns;
    let overhead_percent = instrumentation_ns / (mean_request_ms * 1e6) * 100.0;
    assert!(
        overhead_percent < 1.0,
        "instrumentation overhead {overhead_percent:.4}% (counter {counter_inc_ns:.1} ns, \
         histogram {histogram_observe_ns:.1} ns, mean request {mean_request_ms:.3} ms) \
         breaches the 1% gate"
    );
}

// ---------------------------------------------------------------------------
// 7. Client helpers and the retry policy
// ---------------------------------------------------------------------------

/// With `metrics_enabled: false` the exposition endpoint is a 404 (which
/// the retrying client surfaces immediately — 4xx is never retried), while
/// `/healthz` and the in-process instrumentation keep working; and a
/// transient 500 on an idempotent read *is* retried to success, visible
/// afterwards in the panic counter.
#[test]
fn disabled_metrics_and_retries_interact_cleanly_with_instrumentation() {
    quiet_injected_panics();
    let config =
        ServerConfig { fit_threads: Some(1), metrics_enabled: false, ..ServerConfig::default() };
    let (handle, client, _registry, slot) = start_server(config);
    let retrying = client.clone().with_retry(fast_retry(5));

    // The 404 is structured and immediate, not retried into a storm.
    match retrying.metrics() {
        Err(ServerError::Status { code: 404, .. }) => {}
        other => panic!("disabled metrics must 404, got {other:?}"),
    }
    assert!(eventually(|| handle.stats().requests == 1));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(handle.stats().requests, 1, "a 404 must not be retried");

    // Health stays live (it reads the same registry, not the endpoint).
    retrying.health().unwrap();

    // A single injected panic: the retrying client recovers, and the
    // in-process registry recorded both the 500 and the retry's 200.
    *slot.write().unwrap() =
        Some(Arc::new(FaultPlan::new().inject(FaultSite::Handler, 0, Fault::Panic)));
    retrying.health().expect("an idempotent read must retry past one 500");
    *slot.write().unwrap() = None;
    assert!(eventually(|| handle.stats().panics == 1));
    // All four requests (404 scrape, healthz, 500, retried 200) counted.
    assert!(eventually(|| handle.stats().requests == 4));
    let rendered = handle.metrics().render(&[]);
    let snap = privbayes_suite::server::parse_text(&rendered).unwrap();
    assert!(
        counter(&snap, "privbayes_requests_total", &[("endpoint", "unknown"), ("status", "500")])
            >= 1.0,
        "the injected panic fires before routing, so its 500 counts as `unknown`"
    );
    assert!(
        counter(&snap, "privbayes_requests_total", &[("endpoint", "healthz"), ("status", "200")])
            >= 2.0
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
