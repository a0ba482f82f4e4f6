//! The chaos tier: the serving stack under deterministic fault injection.
//!
//! Every test here drives real sockets against a real server, with a
//! seeded [`FaultPlan`] injecting crashes, resets, stalls, and panics at
//! exact step indices — so each "storm" is reproducible run to run. The
//! contracts under test:
//!
//! 1. **Ledger durability** — killing the persist sequence at every step
//!    leaves the on-disk ledger either wholly pre- or wholly post-mutation,
//!    and a restart always recovers it; a file in the retired v1 format is
//!    refused at startup.
//! 2. **Panic isolation** — a panicking handler costs one request, never a
//!    connection slot; the server keeps its full capacity afterwards.
//! 3. **Byte-exact recovery** — a client resuming a truncated stream via
//!    cursors reassembles exactly the bytes of an uninterrupted stream.
//! 4. **Graceful overload** — beyond `workers` open connections the server
//!    answers 503 + `Retry-After` instead of queueing; idle kept-alive
//!    connections hold their slot until the idle deadline, shutdown does
//!    not wait for them, and slow-loris peers are reaped with 408.
//! 5. **Retry discipline** — idempotent requests retry; `POST /fit` (which
//!    spends privacy budget) never auto-retries.
//! 6. **Keep-alive survival** — registry eviction and ledger persistence
//!    churn never tear a stream on a reused connection, and an injected
//!    reset on an idle kept-alive connection fails the next request
//!    cleanly, with the pooled client recovering byte-exactly on a fresh
//!    connection.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use privbayes_suite::core::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::model::{Json, ModelMetadata, ReleasedModel};
use privbayes_suite::server::http::Response;
use privbayes_suite::server::{
    parse_text, BudgetLedger, Client, Fault, FaultPlan, FaultSite, ModelRegistry, PersistStep,
    RetryPolicy, Server, ServerConfig, ServerError, ServerHandle, SynthSpec, LEDGER_FORMAT_V2,
};
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
    std::env::temp_dir().join(format!("privbayes-chaos-{tag}-{}.json", std::process::id()))
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
    let options = PrivBayesOptions::new(1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let result = PrivBayes::new(options.clone()).synthesize(&data, &mut rng).unwrap();
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: options.epsilon,
            beta: options.beta,
            theta: options.theta,
            score: options.effective_score().name().to_string(),
            encoding: options.encoding.name().to_string(),
            source_rows: data.n(),
            comment: "chaos fixture".to_string(),
        },
        data.schema().clone(),
        result.model,
    )
    .unwrap()
}

/// Starts a server with model `m` loaded; returns the handle, a plain
/// (non-retrying) client, and the live fault slot.
fn start_server(
    config: ServerConfig,
) -> (ServerHandle, Client, privbayes_suite::server::server::FaultSlot) {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", fixture_model(1)).unwrap();
    let ledger = Arc::new(BudgetLedger::in_memory());
    let server = Server::bind("127.0.0.1:0", config, registry, ledger).unwrap();
    let slot = server.fault_slot();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    (handle, client, slot)
}

/// The server's open-connection gauge, read in-process.
fn open_connections(handle: &ServerHandle) -> f64 {
    let text = handle.metrics().render(&[]);
    parse_text(&text).unwrap().value("privbayes_open_connections", &[]).unwrap_or(0.0)
}

/// Polls `cond` for up to five seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A fast-but-persistent retry policy for tests (real delays stay in the
/// microsecond range so storms resolve quickly).
fn fast_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        jitter_seed: 7,
    }
}

// ---------------------------------------------------------------------------
// 1. Ledger durability under process death
// ---------------------------------------------------------------------------

/// Kill the persist sequence at every possible instant, then "restart" by
/// re-opening the file: the recovered ledger must hold exactly the pre- or
/// exactly the post-mutation state (CRC intact), never a torn mix — and a
/// crash after the rename must preserve the *new* state.
#[test]
fn killing_persistence_at_every_step_recovers_a_consistent_ledger() {
    let cases: &[(Fault, bool, &str)] = &[
        (Fault::CrashAt(PersistStep::Write), false, "before-write"),
        (Fault::ShortWrite, false, "mid-write"),
        (Fault::CrashAt(PersistStep::Sync), false, "before-tmp-sync"),
        (Fault::CrashAt(PersistStep::Rename), false, "before-rename"),
        (Fault::CrashAt(PersistStep::SyncDir), true, "before-dir-sync"),
        (Fault::Fail, false, "clean-io-error"),
    ];
    for &(fault, survives, tag) in cases {
        let path = temp_path(&format!("kill-{tag}"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));

        // Process one: a clean history, then a charge whose persist dies.
        {
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("t", 1.0).unwrap();
            ledger.charge("t", 0.25).unwrap();
            let plan = Arc::new(FaultPlan::new().inject(FaultSite::LedgerPersist, 0, fault));
            ledger.set_fault_plan(Some(plan));
            let charge = ledger.charge("t", 0.25);
            assert_eq!(
                charge.is_ok(),
                survives,
                "{tag}: a charge whose mutation reached disk must report success \
                 and one that rolled back must report failure"
            );
        }

        // Process two: restart from whatever the "crash" left on disk.
        let restored = BudgetLedger::with_persistence(&path)
            .unwrap_or_else(|e| panic!("{tag}: restart must recover, got {e}"));
        let expected: f64 = if survives { 0.5 } else { 0.25 };
        let spent = restored.budget("t").unwrap().spent;
        assert_eq!(
            spent.to_bits(),
            expected.to_bits(),
            "{tag}: disk must hold exactly the pre- or post-mutation state, got {spent}"
        );
        // The recovered file is a valid v2 ledger and keeps working.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(LEDGER_FORMAT_V2), "{tag}: {text}");
        restored.charge("t", 0.125).unwrap();

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }
}

/// A ledger in the retired v1 (pre-CRC) format is refused at startup, like
/// any unknown format, and the file is left untouched.
#[test]
fn v1_ledger_files_are_refused_at_startup() {
    let path = temp_path("v1-refused");
    let v1 =
        r#"{"format": "privbayes-ledger/1", "tenants": {"acme": {"total": 1.5, "spent": 0.25}}}"#;
    std::fs::write(&path, v1).unwrap();

    let err = BudgetLedger::with_persistence(&path).unwrap_err();
    assert!(err.to_string().contains("unsupported ledger format"), "{err}");
    assert!(err.to_string().contains(LEDGER_FORMAT_V2), "the error names the format: {err}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), v1, "a refused file is left as is");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// 2. Panic isolation
// ---------------------------------------------------------------------------

/// A panicking handler answers a structured 500 and costs nothing else: its
/// connection frees its slot, every slot then serves a concurrent stream,
/// and shutdown returns (a wedged connection would hang it).
#[test]
fn a_handler_panic_is_isolated_and_the_pool_keeps_its_capacity() {
    quiet_injected_panics();
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let workers = config.workers;
    let (handle, client, slot) = start_server(config);
    let addr = handle.addr().to_string();
    // Dropping this client closes its kept-alive connection.
    let reference = Client::new(addr.clone()).synth("m", 200, 9, "csv").unwrap();

    // The very next dispatched request panics inside its handler.
    *slot.write().unwrap() =
        Some(Arc::new(FaultPlan::new().inject(FaultSite::Handler, 0, Fault::Panic)));
    let response = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(response.code, 500, "{}", response.text());
    let body = Json::parse(&response.text()).unwrap();
    assert_eq!(body.get("error").and_then(Json::as_str), Some("internal"));
    *slot.write().unwrap() = None;
    assert!(eventually(|| open_connections(&handle) == 0.0), "the panicked slot is freed");

    // Afterwards: every slot still serves. Each client keeps its connection
    // open until all are done, so the last needs all `workers` slots.
    let served: Vec<(Client, String)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|_| {
                let client = Client::new(addr.clone());
                scope.spawn(move || {
                    let body = client.synth("m", 200, 9, "csv").unwrap();
                    (client, body)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (_, body) in &served {
        assert_eq!(body, &reference, "a post-panic stream must be intact");
    }
    drop(served);
    assert!(eventually(|| open_connections(&handle) == 0.0));

    // The panic is visible in the stats and on /healthz.
    let health = client.health().unwrap();
    assert_eq!(health.get("panics").and_then(Json::as_usize), Some(1));
    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.panics, 1);
    assert!(stats.requests >= workers as u64 + 3, "all requests counted: {stats:?}");
}

// ---------------------------------------------------------------------------
// 3. Byte-exact stream recovery through cursor resume
// ---------------------------------------------------------------------------

/// A response truncated mid-stream by an injected connection death is
/// reassembled byte-exactly by the resuming client: prefix + cursor-resumed
/// remainder equals the uninterrupted stream.
#[test]
fn a_truncated_stream_resumes_to_the_exact_uninterrupted_bytes() {
    let (handle, client, slot) = start_server(ServerConfig::default());
    let rows = 3 * privbayes_suite::core::CHUNK_ROWS + 137;
    let spec = SynthSpec::new().with_rows(rows).with_seed(42);

    // Reference: the same spec served without any faults.
    let reference = client.synth_with("m", &spec).unwrap().text();
    assert!(reference.len() > 16 * 1024, "stream must span several socket writes");

    // The second 8 KiB socket write dies halfway; everything after is clean,
    // so the retry's connection streams the remainder unharmed.
    let plan = Arc::new(FaultPlan::new().inject(FaultSite::ConnWrite, 1, Fault::ShortWrite));
    *slot.write().unwrap() = Some(Arc::clone(&plan));
    let assembled = client.with_retry(fast_retry(4)).synth_resuming("m", &spec).unwrap();
    assert!(plan.fired() >= 1, "the truncation fault must actually fire");
    assert_eq!(
        assembled, reference,
        "prefix + resumed remainder must equal the uninterrupted stream byte for byte"
    );

    *slot.write().unwrap() = None;
    let client = Client::new(handle.addr().to_string());
    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 4. The full storm: panics + resets + stalls under concurrency
// ---------------------------------------------------------------------------

/// Eight concurrent clients against a seeded storm of handler panics,
/// connection resets, and read stalls: every request is eventually answered
/// with exactly the right bytes, and the server ends the run serving
/// concurrently with zero wedged connections.
#[test]
fn every_request_survives_a_seeded_storm_of_panics_resets_and_stalls() {
    quiet_injected_panics();
    let clients = 8;
    let config = ServerConfig { fit_threads: Some(1), ..ServerConfig::default() };
    let (handle, client, slot) = start_server(config);
    let reference = client.synth("m", 300, 11, "csv").unwrap();

    // A reproducible storm (seed 0xC4A05): sparse faults over the first
    // couple hundred operations per site, plus a few guaranteed hits so the
    // test exercises something even if the sampled schedule is light.
    let plan = Arc::new(
        FaultPlan::seeded(
            0xC4A05,
            200,
            4,
            &[
                (FaultSite::Handler, Fault::Panic),
                (FaultSite::ConnWrite, Fault::Reset),
                (FaultSite::ConnRead, Fault::DelayMs(5)),
            ],
        )
        .inject(FaultSite::Handler, 2, Fault::Panic)
        .inject(FaultSite::ConnWrite, 5, Fault::Reset),
    );
    *slot.write().unwrap() = Some(Arc::clone(&plan));

    // 8 clients × 4 requests, all retrying: every one must end correct.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let client = client.clone().with_retry(fast_retry(12));
                scope.spawn(move || {
                    (0..4).map(|_| client.synth("m", 300, 11, "csv").unwrap()).collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(bodies.len(), 32);
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(body, &reference, "request {i} must deliver exact bytes despite the storm");
    }
    assert!(plan.fired() >= 2, "the storm must have exercised faults, fired {}", plan.fired());

    // Calm after the storm: the server still serves concurrently.
    *slot.write().unwrap() = None;
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || client.synth("m", 300, 11, "csv").unwrap())
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), reference);
        }
    });

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.requests >= 37, "all requests counted: {stats:?}");
}

// ---------------------------------------------------------------------------
// 5. Admission control and slow-loris reaping
// ---------------------------------------------------------------------------

fn read_all(stream: &mut TcpStream) -> String {
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text
}

/// Writes `request` to a fresh connection, then reads the whole answer. A
/// reset at any point fails the caller's assertion with the I/O error.
fn exchange_over_capacity(addr: std::net::SocketAddr, request: &[u8]) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(request).map_err(|e| format!("write: {e}"))?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).map_err(|e| format!("read: {e}"))?;
    String::from_utf8(bytes).map_err(|e| format!("utf-8: {e}"))
}

/// Checks that `text` is one complete 503 with `Retry-After: 1`: the body
/// is exactly as long as its `Content-Length` says.
fn assert_complete_503(text: &str) {
    assert!(text.starts_with("HTTP/1.1 503"), "overflow must be rejected: {text}");
    assert!(text.contains("Retry-After: 1\r\n"), "503 must carry a retry hint: {text}");
    let (head, body) = text.split_once("\r\n\r\n").expect("a complete head");
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("a Content-Length header")
        .parse()
        .unwrap();
    assert_eq!(body.len(), length, "the whole body must arrive: {text}");
    assert!(body.contains("overloaded"), "{text}");
}

/// With a cap of two connections, connections beyond capacity get an
/// immediate 503 with `Retry-After` from the acceptor — not a queue, not a
/// hang — and the server serves normally once load drops. Over-capacity
/// clients that send a whole request before reading, with or without a
/// body, still read the complete 503: the acceptor drains what they sent
/// instead of resetting the connection.
#[test]
fn overload_answers_503_with_retry_after_instead_of_queueing() {
    let config = ServerConfig {
        workers: 2,
        fit_threads: Some(1),
        read_deadline: Duration::from_secs(20),
        ..ServerConfig::default()
    };
    let (handle, client, _slot) = start_server(config);
    let addr = handle.addr();

    // Occupy both slots: `a` and `b` connect and send nothing, pinning
    // capacity until the read deadline reaps them.
    let a = TcpStream::connect(addr).unwrap();
    let b = TcpStream::connect(addr).unwrap();
    assert!(eventually(|| open_connections(&handle) == 2.0));

    // Beyond capacity: immediate 503 + Retry-After, no thread spent.
    for _ in 0..2 {
        let mut over = TcpStream::connect(addr).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_complete_503(&read_all(&mut over));
    }
    // Clients that write a whole request first: a bare head, then a head
    // with a 64 KiB body.
    let head_only = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
    let mut with_body = b"POST /fit HTTP/1.1\r\nHost: x\r\nContent-Length: 65536\r\n\r\n".to_vec();
    with_body.resize(with_body.len() + 65_536, b'x');
    for (kind, request) in [("head only", &head_only), ("64 KiB body", &with_body)] {
        for i in 0..25 {
            match exchange_over_capacity(addr, request) {
                Ok(text) => assert_complete_503(&text),
                Err(e) => panic!("{kind} client {i} must read the 503, got {e}"),
            }
        }
    }

    // Release capacity; the freed slots serve normally again.
    drop(a);
    drop(b);
    assert!(eventually(|| open_connections(&handle) == 0.0));
    let body = client.with_retry(fast_retry(6)).synth("m", 50, 3, "csv").unwrap();
    assert_eq!(body.lines().count(), 51);

    let client = Client::new(addr.to_string());
    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.queue_rejected >= 52, "rejections must be counted: {stats:?}");
}

/// A peer that sends half a request line and stalls is answered 408 when
/// the read deadline expires, freeing its slot for the next request.
#[test]
fn a_slow_loris_peer_is_reaped_with_408() {
    let config = ServerConfig {
        workers: 2,
        fit_threads: Some(1),
        read_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let (handle, client, _slot) = start_server(config);

    let mut loris = TcpStream::connect(handle.addr()).unwrap();
    loris.write_all(b"GET /healthz HT").unwrap(); // ...and then silence
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let text = read_all(&mut loris);
    assert!(text.starts_with("HTTP/1.1 408"), "stalled peers get 408: {text}");
    assert!(text.contains("request-timeout"), "{text}");

    // The loris's slot is free again right afterwards.
    assert!(eventually(|| open_connections(&handle) == 0.0));
    let health = client.health().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// An idle kept-alive connection holds its slot: with a cap of two, one
/// idle client and one silent socket make the next connection get a 503.
/// Once the idle deadline passes the server closes the idle connection,
/// and a new client is served.
#[test]
fn an_idle_kept_alive_connection_holds_its_slot_until_the_idle_deadline() {
    let idle_deadline = Duration::from_millis(1500);
    let config = ServerConfig {
        workers: 2,
        fit_threads: Some(1),
        read_deadline: Duration::from_secs(20),
        idle_deadline,
        ..ServerConfig::default()
    };
    let (handle, client, _slot) = start_server(config);
    let addr = handle.addr();

    // One kept-alive client, idle after its request, and one silent socket.
    // The server's idle wait starts after `asked`.
    let idle = Client::new(addr.to_string());
    let asked = Instant::now();
    idle.health().unwrap();
    let silent = TcpStream::connect(addr).unwrap();
    assert!(eventually(|| open_connections(&handle) == 2.0));

    let text = exchange_over_capacity(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap_or_else(|e| panic!("the over-capacity client must read the 503, got {e}"));
    assert_complete_503(&text);
    assert!(asked.elapsed() < idle_deadline, "the 503 must come before the idle deadline");

    // Past the idle deadline the idle connection is closed and its slot is
    // free; the silent socket still holds the other.
    assert!(eventually(|| open_connections(&handle) == 1.0));
    assert!(asked.elapsed() >= idle_deadline, "closed only after the idle deadline");
    let fresh = Client::new(addr.to_string());
    assert_eq!(fresh.health().unwrap().get("status").and_then(Json::as_str), Some("ok"));

    drop((fresh, silent));
    assert!(eventually(|| open_connections(&handle) == 0.0));
    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.queue_rejected, 1, "{stats:?}");
}

/// Shutdown does not wait out the idle deadline: with a kept-alive
/// connection idle, `join` returns well inside it, and the idle connection
/// is closed.
#[test]
fn join_returns_promptly_while_a_kept_alive_connection_idles() {
    let idle_deadline = Duration::from_secs(30);
    let config = ServerConfig { idle_deadline, ..ServerConfig::default() };
    let (handle, client, _slot) = start_server(config);

    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reader = std::io::BufReader::new(idle.try_clone().unwrap());
    let response = Response::read_from(&mut reader).unwrap();
    assert_eq!(response.code, 200);
    assert_eq!(response.header("connection"), Some("keep-alive"));

    let started = Instant::now();
    client.shutdown().unwrap();
    handle.join().unwrap();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(2), "join waited {waited:?} on an idle connection");
    // The server closed the idle connection: EOF (or a reset), no bytes.
    let mut buf = [0u8; 64];
    assert_eq!(reader.read(&mut buf).unwrap_or(0), 0, "the idle connection must be closed");
}

// ---------------------------------------------------------------------------
// 6. Keep-alive connections under churn and injected resets
// ---------------------------------------------------------------------------

/// Registry eviction and ledger persistence churn racing kept-alive
/// connections mid-stream: every streamed request on a reused connection
/// either completes byte-identically to the reference or fails with a clean
/// 404 (an eviction gap) — never a torn stream — and the same connections
/// keep serving once the churn stops. The ledger, persisted throughout the
/// race, holds every charge.
#[test]
fn eviction_and_ledger_churn_never_tear_a_keepalive_stream() {
    let path = temp_path("keepalive-churn");
    let _ = std::fs::remove_file(&path);
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", fixture_model(1)).unwrap();
    let ledger = Arc::new(BudgetLedger::with_persistence(&path).unwrap());
    let config = ServerConfig { fit_threads: Some(1), ..ServerConfig::default() };
    let server =
        Server::bind("127.0.0.1:0", config, Arc::clone(&registry), Arc::clone(&ledger)).unwrap();
    let handle = server.spawn();
    let addr = handle.addr();
    let client = Client::new(addr.to_string());

    let rows = 4 * privbayes_suite::core::CHUNK_ROWS; // long enough to race
    let reference = client.synth("m", rows, 9, "csv").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let outcomes: Vec<Result<String, ServerError>> = std::thread::scope(|scope| {
        let churn = {
            let registry = Arc::clone(&registry);
            let ledger = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let reload = fixture_model(1);
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let _ = registry.evict("m");
                    registry.load("m", reload.clone()).unwrap();
                    let tenant = format!("tenant-{i}");
                    ledger.register(&tenant, 1.0).unwrap();
                    ledger.charge(&tenant, 0.5).unwrap();
                    i += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        // Two streamers, each with its own kept-alive connection (a fresh
        // `Client` each: clones would share one pool slot).
        let streamers: Vec<_> = (0..2)
            .map(|_| {
                let client = Client::new(addr.to_string());
                scope.spawn(move || {
                    let results: Vec<_> =
                        (0..8).map(|_| client.synth("m", rows, 9, "csv")).collect();
                    // The churn is still running: one more request on the
                    // same kept-alive connection must still be exact.
                    (client, results)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut clients = Vec::new();
        for t in streamers {
            let (client, results) = t.join().unwrap();
            all.extend(results);
            clients.push(client);
        }
        stop.store(true, Ordering::SeqCst);
        churn.join().unwrap();
        // Calm after the churn: the *same* pooled connections serve again.
        for client in &clients {
            all.push(client.synth("m", rows, 9, "csv"));
        }
        all
    });

    let mut completed = 0;
    for outcome in outcomes {
        match outcome {
            Ok(body) => {
                assert_eq!(body, reference, "a completed keep-alive stream must be exact");
                completed += 1;
            }
            Err(ServerError::Status { code: 404, .. }) => {} // eviction gap: clean error
            Err(other) => panic!("keep-alive request failed uncleanly: {other}"),
        }
    }
    assert!(completed >= 2, "streams must have completed during the churn");

    // The connections really were reused, and the ledger persisted every
    // charge through the race.
    let reused =
        client.metrics().unwrap().value("privbayes_connections_reused_total", &[]).unwrap_or(0.0);
    assert!(reused > 0.0, "the streamers must have ridden kept-alive connections");
    assert_eq!(ledger.budget("tenant-0").unwrap().spent.to_bits(), 0.5f64.to_bits());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(LEDGER_FORMAT_V2), "{text}");

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tmp"));
}

/// An injected reset on a *reused* connection (`ConnRead` step 1: the first
/// read after the first request) kills the idle kept-alive connection. The
/// next request on that raw socket fails cleanly — EOF or a reset, never a
/// partial response — and a pooled client then recovers byte-exactly on a
/// fresh connection.
#[test]
fn a_reset_on_a_reused_connection_fails_cleanly_and_recovery_is_byte_exact() {
    let (handle, client, slot) = start_server(ServerConfig::default());
    let addr = handle.addr();
    let rows = 2 * privbayes_suite::core::CHUNK_ROWS + 57;
    let body = format!(r#"{{"rows": {rows}, "seed": 5}}"#);
    let request = format!(
        "POST /v1/models/m/synth HTTP/1.1\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );

    // Install the plan before any connection exists: each connection
    // captures the live plan at accept time.
    let plan = Arc::new(FaultPlan::new().inject(FaultSite::ConnRead, 1, Fault::Reset));
    *slot.write().unwrap() = Some(Arc::clone(&plan));

    // Request 1 on a raw keep-alive connection, written in one piece: its
    // read is ConnRead step 0, clean — the full response arrives.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    let mut buf = [0u8; 8192];
    while !response.ends_with(b"\r\n0\r\n\r\n") {
        let n = raw.read(&mut buf).expect("the first response must stream cleanly");
        assert!(n > 0, "the first response must complete before the fault fires");
        response.extend_from_slice(&buf[..n]);
    }
    assert!(response.starts_with(b"HTTP/1.1 200"), "first keep-alive response must be 200");

    // The server's next read on this connection — its wait for the next
    // request — consumes ConnRead step 1 and dies on the injected reset.
    std::thread::sleep(Duration::from_millis(120));
    assert!(plan.fired() >= 1, "the injected reset must have fired");

    // Request 2 on the dead connection fails *cleanly*: the write may be
    // buffered, but no partial second response ever arrives.
    let _ = raw.write_all(request.as_bytes());
    // EOF and ECONNRESET are equally clean — both read as "no bytes".
    let after = raw.read(&mut buf).unwrap_or_default();
    assert_eq!(after, 0, "a killed connection must never deliver a partial response");
    drop(raw);

    // A retrying pooled client recovers on a fresh connection (ConnRead
    // steps 2+ are clean) — byte-exactly.
    let recovered = client.with_retry(fast_retry(4)).synth("m", rows, 5, "csv").unwrap();
    *slot.write().unwrap() = None;
    let client = Client::new(addr.to_string());
    let reference = client.synth("m", rows, 5, "csv").unwrap();
    assert_eq!(recovered, reference, "recovery after the reset must be byte-exact");

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(
        stats.panics, 0,
        "an injected reset must never panic a connection thread: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// 7. Retry discipline: /fit is never auto-retried
// ---------------------------------------------------------------------------

/// Against a server that answers every request 500, a retrying client
/// re-issues idempotent reads (`max_retries + 1` connections) but sends a
/// budget-spending `POST /fit` exactly once: a retried fit could double-
/// charge ε, so the client refuses to guess.
#[test]
fn fit_is_sent_exactly_once_while_idempotent_reads_retry() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let connections = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let connections = Arc::clone(&connections);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { break };
                connections.fetch_add(1, Ordering::SeqCst);
                // Drain the whole request (head + declared body) so the
                // client never sees a broken pipe mid-write, then answer a
                // canned 500 and close.
                let mut request = Vec::new();
                let mut buf = [0u8; 4096];
                while !request.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => request.extend_from_slice(&buf[..n]),
                    }
                }
                let head_end = request
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map_or(request.len(), |i| i + 4);
                let declared = String::from_utf8_lossy(&request[..head_end])
                    .to_ascii_lowercase()
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:").map(|v| v.trim().to_string()))
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(0);
                let mut body_seen = request.len() - head_end;
                while body_seen < declared {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => body_seen += n,
                    }
                }
                let _ = stream.write_all(
                    b"HTTP/1.1 500 Internal Server Error\r\n\
                      Content-Type: application/json\r\n\
                      Content-Length: 20\r\n\
                      Retry-After: 0\r\n\r\n\
                      {\"error\":\"internal\"}",
                );
            }
        })
    };

    let client = Client::new(addr.to_string()).with_retry(fast_retry(3));

    // A fit that fails server-side is reported once, never re-sent.
    let body = Json::object(vec![("tenant", Json::String("t".into()))]);
    let response = client.fit_raw(&body).unwrap();
    assert_eq!(response.code, 500);
    assert_eq!(connections.load(Ordering::SeqCst), 1, "/fit must be sent exactly once");

    // The same failure on an idempotent read burns every retry.
    let err = client.synth("m", 10, 1, "csv").unwrap_err();
    assert!(matches!(err, ServerError::Status { code: 500, .. }), "{err}");
    assert_eq!(
        connections.load(Ordering::SeqCst),
        1 + 4,
        "an idempotent read retries max_retries times before giving up"
    );

    // Unblock and join the acceptor.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    acceptor.join().unwrap();
}
