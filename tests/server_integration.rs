//! The server tier: the serving layer's three contracts under concurrency.
//!
//! 1. **Determinism** — concurrent clients hammering one model receive
//!    byte-identical streams for fixed seeds, equal to the direct batch
//!    sampler (`CompiledSampler::sample_dataset`).
//! 2. **Ledger** — budget exhaustion returns the structured 402 exactly at
//!    the ε boundary, and a rejected request mutates nothing.
//! 3. **Registry** — eviction under load never drops an in-flight request.
//! 4. **Keep-alive** — back-to-back streams on one connection are each
//!    completely framed and byte-identical to the batch path;
//!    `Connection: close` stays honored. A chunked request body is one
//!    request, answered once, and leaves the connection in step.
//! 5. **Generation gauge** — `privbayes_model_generation` lists exactly
//!    the ids the registry serves, at their current generation.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

use privbayes_suite::data::csv::write_csv;
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::model::{Json, ReleasedModel};
use privbayes_suite::server::{
    BudgetLedger, Client, ModelRegistry, Server, ServerConfig, ServerError, ServerHandle,
};
use privbayes_suite::synth::{fit_method, FitSettings, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small but non-trivial fixture model (3 attributes, 500 source rows).
fn fixture_model(seed: u64) -> ReleasedModel {
    let schema = Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::categorical("region", 3).unwrap(),
        Attribute::binary("disease"),
    ])
    .unwrap();
    let rows: Vec<Vec<u32>> =
        (0..500u32).map(|i| vec![i % 2, (i / 2) % 3, u32::from(i % 2 == 1)]).collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let settings =
        FitSettings { comment: "server integration fixture".into(), ..FitSettings::default() };
    fit_method(Method::PrivBayes, &data, 1.0, seed, &settings).unwrap().artifact
}

/// Starts a server with the fixture model loaded as `m` and a fresh
/// registry/ledger; returns (handle, client, registry, ledger).
fn start_server() -> (ServerHandle, Client, Arc<ModelRegistry>, Arc<BudgetLedger>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", fixture_model(1)).unwrap();
    let ledger = Arc::new(BudgetLedger::in_memory());
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: Some(1), ..ServerConfig::default() },
        Arc::clone(&registry),
        Arc::clone(&ledger),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    (handle, client, registry, ledger)
}

#[test]
fn concurrent_streams_are_byte_identical_to_the_batch_path() {
    let (handle, client, registry, _ledger) = start_server();
    // 2 chunks + a remainder, so chunk framing is exercised.
    let rows = 2 * privbayes_suite::core::CHUNK_ROWS + 137;
    let seed = 42u64;

    // The reference bytes come from the direct batch sampler.
    let entry = registry.get("m").unwrap();
    let direct = entry
        .sampler()
        .unwrap()
        .sample_dataset(rows, None, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let mut expected = Vec::new();
    write_csv(&direct, &mut expected).unwrap();
    let expected = String::from_utf8(expected).unwrap();

    // 8 concurrent clients, same request: every stream must be identical.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || client.synth("m", rows, seed, "csv").unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(body, &expected, "stream {i} diverged from the batch path");
    }

    // Distinct seeds under concurrency: each equals its own batch output.
    let per_seed: Vec<(u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6u64)
            .map(|s| {
                let client = client.clone();
                scope.spawn(move || (s, client.synth("m", 300, s, "csv").unwrap()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (s, body) in per_seed {
        let direct = entry
            .sampler()
            .unwrap()
            .sample_dataset(300, None, &mut StdRng::seed_from_u64(s))
            .unwrap();
        let mut expected = Vec::new();
        write_csv(&direct, &mut expected).unwrap();
        assert_eq!(body.as_bytes(), &expected[..], "seed {s}");
    }

    // JSONL carries the same tuples: spot-check the line count.
    let jsonl = client.synth("m", 300, seed, "jsonl").unwrap();
    assert_eq!(jsonl.lines().count(), 300);

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.requests >= 16, "every request must be counted, got {}", stats.requests);
}

#[test]
fn budget_exhaustion_is_structured_and_exact() {
    let (handle, client, _registry, ledger) = start_server();
    client.register_tenant("acme", 1.0).unwrap();

    let schema_json =
        Json::parse(r#"[{"name": "a", "kind": "binary"}, {"name": "b", "kind": "binary"}]"#)
            .unwrap();
    let csv: String = std::iter::once("a,b".to_string())
        .chain((0..200).map(|i| format!("{},{}", i % 2, i % 2)))
        .collect::<Vec<_>>()
        .join("\n");
    let fit_body = |id: &str, epsilon: f64| {
        Json::object(vec![
            ("tenant", Json::String("acme".into())),
            ("model_id", Json::String(id.into())),
            ("epsilon", Json::Number(epsilon)),
            ("seed", Json::from_usize(5)),
            ("schema", schema_json.clone()),
            ("csv", Json::String(csv.clone())),
        ])
    };

    // Two fits of 0.4 succeed (spent: 0.8).
    for (i, id) in ["f1", "f2"].iter().enumerate() {
        let resp = client.fit_raw(&fit_body(id, 0.4)).unwrap();
        assert_eq!(resp.code, 201, "fit {i}: {}", resp.text());
    }
    // 0.3 exceeds the remaining 0.2: structured 402, nothing mutated.
    let before = ledger.budget("acme").unwrap();
    let resp = client.fit_raw(&fit_body("f3", 0.3)).unwrap();
    assert_eq!(resp.code, 402, "{}", resp.text());
    let body = Json::parse(&resp.text()).unwrap();
    assert_eq!(body.get("error").and_then(Json::as_str), Some("budget-exhausted"));
    assert_eq!(body.get("tenant").and_then(Json::as_str), Some("acme"));
    assert_eq!(body.get("requested").and_then(Json::as_f64), Some(0.3));
    let remaining = body.get("remaining").and_then(Json::as_f64).unwrap();
    assert!((remaining - 0.2).abs() < 1e-9, "remaining = {remaining}");
    assert_eq!(ledger.budget("acme").unwrap(), before, "rejected fit must not spend");
    let rejected_model = client.request("GET", "/models/f3", None).unwrap();
    assert_eq!(rejected_model.code, 404, "rejected fit must not register a model");

    // Exactly the remaining 0.2 still fits — the boundary is inclusive.
    let resp = client.fit_raw(&fit_body("f3", 0.2)).unwrap();
    assert_eq!(resp.code, 201, "{}", resp.text());
    assert!(ledger.budget("acme").unwrap().remaining() < 1e-9);

    // And the very next request, however small, is rejected.
    let resp = client.fit_raw(&fit_body("f4", 0.01)).unwrap();
    assert_eq!(resp.code, 402);

    // Unknown tenants and invalid amounts have their own structured errors.
    let mut unknown = fit_body("f5", 0.1);
    if let Json::Object(fields) = &mut unknown {
        fields[0].1 = Json::String("ghost".into());
    }
    assert_eq!(client.fit_raw(&unknown).unwrap().code, 404);
    assert_eq!(client.fit_raw(&fit_body("f6", -1.0)).unwrap().code, 400);

    // Synthesis from an already fitted model is post-processing: free.
    let body = client.synth("f1", 50, 3, "csv").unwrap();
    assert_eq!(body.lines().count(), 51);
    assert!(ledger.budget("acme").unwrap().remaining() < 1e-9, "synth must not charge");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn eviction_under_load_never_drops_inflight_requests() {
    let (handle, client, registry, _ledger) = start_server();
    let rows = 4 * privbayes_suite::core::CHUNK_ROWS; // a stream long enough to race
    let reference = client.synth("m", rows, 9, "csv").unwrap();

    // Readers hammer the model while the main thread evicts and reloads it
    // repeatedly. Every request that starts before an eviction must either
    // complete with the full, correct stream, or — if it arrives in a gap
    // where the model is evicted — fail with a clean 404. No torn streams.
    let results: Vec<Result<String, ServerError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    (0..6).map(|_| client.synth("m", rows, 9, "csv")).collect::<Vec<_>>()
                })
            })
            .collect();
        // Pre-built artifact: the evict → load gap is a few microseconds,
        // so most requests find the model present while some race the gap.
        let reload = fixture_model(1);
        for _ in 0..12 {
            let _ = registry.evict("m");
            registry.load("m", reload.clone()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        workers.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut completed = 0;
    for result in results {
        match result {
            Ok(body) => {
                assert_eq!(body, reference, "a completed stream must be intact and identical");
                completed += 1;
            }
            Err(ServerError::Status { code: 404, .. }) => {} // hit an eviction gap: clean error
            Err(other) => panic!("in-flight request failed uncleanly: {other}"),
        }
    }
    assert!(completed > 0, "at least some streams must have completed");

    // The model survives in the registry and still serves identical bytes.
    assert_eq!(client.synth("m", rows, 9, "csv").unwrap(), reference);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Reads one HTTP/1.1 chunked response off `stream` — exactly up to the
/// chunked terminator, leaving the connection positioned at the next
/// response — and returns `(head, dechunked body)`. The scan for the
/// terminator is unambiguous because CSV/NDJSON bodies never contain `\r`.
fn read_chunked_response(stream: &mut TcpStream) -> (String, String) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    while !raw.ends_with(b"\r\n0\r\n\r\n") {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed before the chunked terminator");
        raw.extend_from_slice(&buf[..n]);
    }
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let head = String::from_utf8(raw[..head_end].to_vec()).unwrap();
    let mut body = String::new();
    let mut rest = &raw[head_end..];
    loop {
        let line_end = rest.windows(2).position(|w| w == b"\r\n").unwrap();
        let size =
            usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).unwrap(), 16).unwrap();
        rest = &rest[line_end + 2..];
        if size == 0 {
            break;
        }
        body.push_str(std::str::from_utf8(&rest[..size]).unwrap());
        rest = &rest[size + 2..];
    }
    (head, body)
}

/// Two cold streams on one kept-alive connection, each with its own seed,
/// are each a complete, correctly framed `Connection: keep-alive` response
/// whose dechunked body is byte-identical to the direct batch sampler; a
/// `Connection: close` fetch of the same request still closes and carries
/// the same bytes.
#[test]
fn a_kept_alive_connection_serves_byte_identical_streams_back_to_back() {
    let (handle, client, registry, _ledger) = start_server();
    let rows = privbayes_suite::core::CHUNK_ROWS + 201;

    let entry = registry.get("m").unwrap();
    let expected = |seed: u64| {
        let direct = entry
            .sampler()
            .unwrap()
            .sample_dataset(rows, None, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let mut bytes = Vec::new();
        write_csv(&direct, &mut bytes).unwrap();
        String::from_utf8(bytes).unwrap()
    };
    let body = |seed: u64| format!(r#"{{"rows": {rows}, "seed": {seed}}}"#);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    for seed in [13u64, 14] {
        let body = body(seed);
        write!(
            stream,
            "POST /v1/models/m/synth HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let (head, body) = read_chunked_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "seed {seed}: {head}");
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "a kept-alive response must say so (seed {seed}): {head}"
        );
        assert_eq!(
            body,
            expected(seed),
            "the seed-{seed} keep-alive stream must equal the batch path"
        );
    }
    drop(stream);
    let body = body(13);
    let expected = expected(13);

    // `Connection: close` is still honored per request, bytes unchanged.
    let closed = client
        .request("POST", "/v1/models/m/synth", Some(("application/json", body.as_bytes())))
        .unwrap();
    assert_eq!(closed.code, 200);
    assert_eq!(closed.header("connection"), Some("close"));
    assert_eq!(closed.text(), expected);

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.panics, 0, "{stats:?}");
}

/// A chunked request body is decoded, not left on the socket: one chunked
/// POST gets exactly one 200 whose rows equal the `Content-Length`
/// request's, and the kept-alive connection then serves the next request.
#[test]
fn a_chunked_request_body_gets_one_response_and_keeps_the_connection_in_step() {
    let (handle, client, _registry, _ledger) = start_server();
    let body = r#"{"rows": 5, "seed": 21}"#;
    let plain = client
        .request("POST", "/v1/models/m/synth", Some(("application/json", body.as_bytes())))
        .unwrap();
    assert_eq!(plain.code, 200);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let (first, second) = body.split_at(9);
    write!(
        stream,
        "POST /v1/models/m/synth HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
         {:x}\r\n{first}\r\n{:x}\r\n{second}\r\n0\r\n\r\n",
        first.len(),
        second.len()
    )
    .unwrap();
    let (head, rows) = read_chunked_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(rows, plain.text(), "chunked and Content-Length bodies are one request");

    write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert_eq!(rest.matches("HTTP/1.1 ").count(), 1, "one response per request: {rest}");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `privbayes_model_generation` mirrors the registry at scrape time: a model
/// loaded before the server starts (what `serve --model` does) is listed at
/// its generation, and an id loaded and then evicted over HTTP is gone.
#[test]
fn the_generation_gauge_lists_exactly_the_loaded_models() {
    let (handle, client, registry, _ledger) = start_server();
    let generation = registry.get("m").unwrap().generation;
    client.load_model("other", &fixture_model(2)).unwrap();
    client.load_model("other", &fixture_model(3)).unwrap();
    client.evict_model("other").unwrap();

    let snapshot = client.metrics().unwrap();
    let listed: Vec<(&[(String, String)], f64)> = snapshot
        .samples
        .iter()
        .filter(|s| s.name == "privbayes_model_generation")
        .map(|s| (s.labels.as_slice(), s.value))
        .collect();
    let m = [("model".to_string(), "m".to_string())];
    assert_eq!(listed, vec![(&m[..], generation as f64)]);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Sends raw `bytes`, half-closes the write side, and returns whatever the
/// server answers (empty if it just closed the connection).
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text
}

#[test]
fn malformed_requests_get_structured_errors_and_never_wedge_workers() {
    let (handle, client, _registry, _ledger) = start_server();
    let addr = handle.addr();

    // A request line cut off before the headers arrive: clean 400.
    let text = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: x");
    assert!(text.starts_with("HTTP/1.1 400"), "truncated head must get 400: {text}");
    assert!(text.contains("bad-request"), "{text}");

    // Nothing at all (connect, immediately hang up): no response expected,
    // and crucially no stuck connection thread.
    let text = raw_exchange(addr, b"");
    assert!(text.is_empty() || text.starts_with("HTTP/1.1 400"), "{text}");

    // A single header line larger than the head limit is cut off mid-read
    // instead of buffered into memory.
    let mut oversized = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
    oversized.resize(oversized.len() + privbayes_suite::server::http::MAX_HEAD_BYTES + 16, b'a');
    oversized.extend_from_slice(b"\r\n\r\n");
    let text = raw_exchange(addr, &oversized);
    assert!(text.starts_with("HTTP/1.1 400"), "oversized header must get 400: {text}");
    assert!(text.contains("size limit"), "{text}");

    // A body shorter than its declared Content-Length: 400, not a hang.
    let text = raw_exchange(
        addr,
        b"POST /v1/models/m/synth HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"rows\":",
    );
    assert!(text.starts_with("HTTP/1.1 400"), "short body must get 400: {text}");
    assert!(text.contains("truncated"), "{text}");

    // A client that disconnects mid-way through a long chunked synthesis:
    // the server's next write fails and the connection closes.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = format!(r#"{{"rows": {}, "seed": 1}}"#, 8 * privbayes_suite::core::CHUNK_ROWS);
        write!(
            stream,
            "POST /v1/models/m/synth HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut first = [0u8; 256];
        let n = stream.read(&mut first).unwrap();
        assert!(n > 0, "the stream must have started before the disconnect");
        drop(stream); // vanish mid-stream
    }

    // The server still serves: concurrent requests, all correct, then a
    // clean shutdown (which would hang on a wedged connection).
    let reference = client.synth("m", 100, 5, "csv").unwrap();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || client.synth("m", 100, 5, "csv").unwrap())
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for body in &bodies {
        assert_eq!(body, &reference, "post-abuse streams must be intact");
    }

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.panics, 0, "malformed input must never panic a handler: {stats:?}");
}

#[test]
fn registry_and_tenant_endpoints_round_trip() {
    let (handle, client, _registry, _ledger) = start_server();

    // Load a second model over HTTP and list both.
    client.load_model("extra", &fixture_model(2)).unwrap();
    let models = client.get_json("/models").unwrap();
    let ids: Vec<&str> = models
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(ids, vec!["extra", "m"]);

    // Metadata reflects the artifact.
    let meta = client.get_json("/models/extra").unwrap();
    assert_eq!(meta.get("attributes").and_then(Json::as_usize), Some(3));
    assert_eq!(meta.get("source_rows").and_then(Json::as_usize), Some(500));

    // Tenant listing and duplicate registration.
    client.register_tenant("t1", 0.5).unwrap();
    assert!(matches!(
        client.register_tenant("t1", 9.0),
        Err(ServerError::Status { code: 409, .. })
    ));
    let tenants = client.get_json("/tenants").unwrap();
    assert_eq!(tenants.as_array().unwrap().len(), 1);

    // Eviction over HTTP; a second evict is a clean 404.
    client.evict_model("extra").unwrap();
    assert!(matches!(client.evict_model("extra"), Err(ServerError::Status { code: 404, .. })));

    // Unknown routes and bad parameters are structured errors.
    let resp = client.request("GET", "/nope", None).unwrap();
    assert_eq!(resp.code, 404);
    // A known path with the wrong method is 405, not 404.
    let resp = client.request("POST", "/healthz", None).unwrap();
    assert_eq!(resp.code, 405);
    let resp = client.request("DELETE", "/tenants/t1", None).unwrap();
    assert_eq!(resp.code, 405);
    let synth = |body: &str| {
        let body = Some(("application/json", body.as_bytes()));
        client.request("POST", "/v1/models/m/synth", body).unwrap()
    };
    assert_eq!(synth(r#"{"rows": "abc"}"#).code, 400);
    // A row count beyond the per-request cap is rejected up front instead
    // of pinning a thread.
    let resp = synth(r#"{"rows": 20000000}"#);
    assert_eq!(resp.code, 400);
    assert!(resp.text().contains("too-many-rows"), "{}", resp.text());
    assert_eq!(synth(r#"{"seed": 1, "format": "xml"}"#).code, 400);
    // The retired `GET /models/{id}/synth` alias is an unknown path.
    assert_eq!(client.request("GET", "/models/m/synth?rows=5&seed=1", None).unwrap().code, 404);
    // A wrong method on a known path is 405, counted under its endpoint.
    assert_eq!(client.request("GET", "/v1/models/m/synth", None).unwrap().code, 405);

    client.shutdown().unwrap();
    handle.join().unwrap();
}
