//! The HTTP service: accept loop, one thread per connection, and route
//! handlers.
//!
//! # Endpoints
//!
//! | method & path | effect |
//! |---|---|
//! | `GET /healthz` | liveness + registry/ledger/connection counts (live, from the metric registry) |
//! | `GET /metrics` | Prometheus text exposition (v0.0.4) of every server metric |
//! | `GET /models` | list loaded models |
//! | `PUT /models/{id}` | load a release artifact (body: `privbayes-model/1` JSON) |
//! | `GET /models/{id}` | one model's metadata |
//! | `DELETE /models/{id}` | evict from the registry |
//! | `POST /v1/models/{id}/synth` | stream rows per a [`SynthSpec`] JSON body (evidence, projection, cursor resume) |
//! | `POST /v1/models/{id}/query` | answer a [`MarginalQuery`] exactly from the released θ |
//! | `GET /v1/models/{id}/generations` | the retained generation chain, newest first |
//! | `POST /v1/tenants/{id}/ingest` | append a batch to the tenant's journaled dataset |
//! | `POST /fit` | fit + register a model, debiting the tenant's ε |
//! | `GET /tenants` | ledger snapshot |
//! | `PUT /tenants/{id}?budget=E` | register a tenant |
//! | `GET /tenants/{id}` | one tenant's budget |
//! | `POST /shutdown` | drain in-flight requests and stop |
//!
//! In code the table is `ROUTES`: one list that yields both the handler and
//! the endpoint label a request is counted under.
//!
//! Every response — fixed, chunked, success, or error — carries a
//! `Content-Type`, an `X-PrivBayes-Api: v1` header, and an
//! `X-PrivBayes-Request-Id` (echoing the client's, when it sent a valid
//! one). Spec-validation failures (unknown attribute, out-of-domain
//! evidence value, bad cursor, …) are answered `400` with the structured
//! body `{"error": "invalid-spec", "message": …}`.
//!
//! # Observability
//!
//! One [`ServerMetrics`] registry backs `GET /metrics`, `GET /healthz`,
//! the live [`ServerHandle::stats`] view, and the final counters from
//! [`ServerHandle::join`] — a single source of truth, so the surfaces can
//! never drift. Requests are counted by endpoint and status (including
//! acceptor-level 503 rejections, under `endpoint="acceptor"`), stage wall
//! time is recorded per request (`parse → ledger → lookup → sample →
//! write` for fits and streams, `parse → journal → append → write` for
//! ingest batches; a stream's `sample` and `write` sum over the threads that
//! served it, so they can add up to more than its wall time), and, when an
//! access-log file is configured, every finished request appends one JSON
//! line to it. The cost discipline is one relaxed atomic add per event, with
//! no locks on the per-chunk streaming path.
//!
//! # Concurrency and determinism
//!
//! One acceptor thread admits each accepted socket (with `TCP_NODELAY`
//! set) while fewer than [`ServerConfig::workers`] connections are open,
//! and serves it on a thread of its own; beyond the cap it answers 503 with
//! `Retry-After`. Connections are **persistent**: a connection's thread
//! serves requests until the client asks `Connection: close`, the response
//! failed mid-write (a truncated chunked stream must be followed by a
//! close, so the client sees the interruption), or the connection sits idle
//! past [`ServerConfig::idle_deadline`] — between requests the thread
//! blocks on the socket for at most that long. Idle connections count
//! toward the cap.
//!
//! A synthesis response is computed entirely from `(model, seed, spec)` —
//! the per-request RNG is seeded from the request, rows are generated in
//! the sampler's fixed 1024-row chunk scheme, and each chunk is written as
//! one HTTP chunk — so a fixed request is **byte-identical** no matter how
//! many other streams are in flight, whether the connection is fresh or
//! reused, how many threads rendered its chunks, or how often the model was
//! evicted and reloaded in between. Each stream pre-renders its cell labels
//! once ([`RowRenderer`]); its chunks are sampled and rendered on up to
//! [`ServerConfig::fit_threads`] threads ([`render_chunks`]) and written by
//! the connection's thread strictly in chunk order. A cursor-resumed stream
//! yields exactly the suffix of its uninterrupted counterpart. Shutdown
//! stops accepting, lets every in-flight request complete, and closes idle
//! connections at once.
//!
//! [`SynthSpec`]: privbayes_synth::SynthSpec
//! [`MarginalQuery`]: privbayes_synth::MarginalQuery
//! [`RowRenderer`]: privbayes_synth::RowRenderer
//! [`render_chunks`]: privbayes_synth::render_chunks

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use privbayes::inference::{theta_projection, DEFAULT_CELL_CAP};
use privbayes_data::csv::read_csv;
use privbayes_model::{schema_from_json, seed_from_json, Json, ReleasedModel};
use privbayes_synth::{
    fit_method, fit_method_with_engine, render_chunks, Cursor, FitSettings, FittedArtifact,
    MarginalQuery, Method, ResolvedSynth, RowRenderer, SpecError, SynthSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{Fault, FaultPlan, FaultSite, FaultStream};
use crate::http::{write_response, ChunkedResponse, Request};
use crate::ingest::{parse_batch, BatchFormat, DatasetStore, RefitJob, RefitPolicy, RefitSpec};
use crate::ledger::{BudgetLedger, LedgerError, LedgerObserver, TenantBudget};
use crate::metrics::{render_model_generations, RequestCtx, ServerMetrics, REQUEST_ID_HEADER};
use crate::registry::{GenerationLookup, ModelEntry, ModelRegistry};
#[cfg(any(test, feature = "fault-injection"))]
use std::sync::RwLock;

/// The API version marker attached to every response.
const API_HEADER: (&str, &str) = ("X-PrivBayes-Api", "v1");

/// The shared fault-plan slot handed to tests (absent from release builds).
#[cfg(any(test, feature = "fault-injection"))]
pub type FaultSlot = Arc<RwLock<Option<Arc<FaultPlan>>>>;

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections open at once, idle kept-alive ones included. Each open
    /// connection is served by a thread of its own (the accept loop runs on
    /// the caller's thread); a connection beyond the cap is answered 503 +
    /// `Retry-After` by the acceptor. Minimum 1.
    pub workers: usize,
    /// Worker threads used *inside* a request: candidate scoring in a fit,
    /// and the threads that sample and render a synthesis stream's chunks
    /// (resolved once, when the server binds). `None` uses
    /// [`std::thread::available_parallelism`]. Never changes a byte.
    pub fit_threads: Option<usize>,
    /// Upper bound on `rows` per synthesis request; larger requests get a
    /// structured 400. Bounds how long one request can hold its connection.
    pub max_rows: usize,
    /// How long a connection waits for request bytes before answering 408
    /// — a slow-loris peer is reaped instead of holding its slot.
    pub read_deadline: Duration,
    /// Socket write timeout: a peer that stops draining its response frees
    /// its slot after this long.
    pub write_deadline: Duration,
    /// Budget for handler work after the request is read. Checked between
    /// stream chunks (an overrunning stream is truncated) and before
    /// starting a fit.
    pub handler_deadline: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it. An idle connection keeps its slot.
    pub idle_deadline: Duration,
    /// Whether `GET /metrics` is served (the registry itself always runs —
    /// `/healthz` and [`ServerHandle::stats`] read it regardless).
    pub metrics_enabled: bool,
    /// File appended with one JSON line per finished request. `None`
    /// writes no access log.
    pub access_log: Option<PathBuf>,
    /// Directory for the per-tenant dataset journals behind
    /// `POST /v1/tenants/{t}/ingest`. `None` keeps ingested data in memory
    /// only (appends do not survive a restart).
    pub data_dir: Option<PathBuf>,
    /// When accumulated appends trigger a ledger-accounted background
    /// refit. The default never triggers; ingested rows then sit pending
    /// until the policy is enabled.
    pub refit: RefitPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 64,
            fit_threads: None,
            max_rows: 10_000_000,
            read_deadline: Duration::from_secs(30),
            write_deadline: Duration::from_secs(30),
            handler_deadline: Duration::from_secs(120),
            idle_deadline: Duration::from_secs(5),
            metrics_enabled: true,
            access_log: None,
            data_dir: None,
            refit: RefitPolicy::disabled(),
        }
    }
}

/// Counters reported by [`Server::run`] after a clean shutdown — a
/// snapshot of the live metric registry, so [`ServerHandle::stats`],
/// `GET /healthz`, `GET /metrics`, and the value returned by
/// [`ServerHandle::join`] all read the same source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered (including the shutdown request itself and
    /// acceptor-level 503 rejections, which are also in `queue_rejected`).
    pub requests: u64,
    /// Handler panics caught and isolated (each also answered 500 when the
    /// response had not started). Zero in a healthy server.
    pub panics: u64,
    /// Connections rejected with 503 because `workers` connections were
    /// already open.
    pub queue_rejected: u64,
}

impl ServerStats {
    /// The current counters, read live from the metric registry.
    fn snapshot(metrics: &ServerMetrics) -> Self {
        Self {
            requests: metrics.registry().counter_total("privbayes_requests_total"),
            panics: metrics.panics.get(),
            queue_rejected: metrics.queue_rejected.get(),
        }
    }
}

/// Shared state visible to every connection thread.
struct Shared {
    registry: Arc<ModelRegistry>,
    ledger: Arc<BudgetLedger>,
    store: Arc<DatasetStore>,
    config: ServerConfig,
    /// Threads that render a synthesis stream's chunks:
    /// [`ServerConfig::fit_threads`], resolved once at bind.
    stream_threads: usize,
    addr: SocketAddr,
    shutdown: AtomicBool,
    metrics: Arc<ServerMetrics>,
    /// The open connections: what admission counts and shutdown closes.
    connections: Mutex<Connections>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: FaultSlot,
}

/// The open-connection table, keyed by slot id.
#[derive(Default)]
struct Connections {
    next_id: u64,
    open: HashMap<u64, OpenConnection>,
}

/// One open connection as admission and shutdown see it.
struct OpenConnection {
    /// A handle on the socket, so shutdown can close the connection while
    /// its thread waits between requests.
    socket: TcpStream,
    /// Whether the thread is waiting between requests.
    idle: bool,
}

impl Shared {
    /// The connection table. Every update to it is a single insert, remove
    /// or flag store, so the table is valid even after a panic elsewhere
    /// poisoned the lock, and the guard is recovered.
    fn connections(&self) -> MutexGuard<'_, Connections> {
        self.connections.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Closes every idle connection; busy ones close after their request.
    /// Runs after the shutdown flag is set, so no connection goes idle
    /// afterwards (see [`Slot::set_idle`]).
    fn close_idle_connections(&self) {
        for connection in self.connections().open.values().filter(|c| c.idle) {
            let _ = connection.socket.shutdown(Shutdown::Both);
        }
    }
}

/// A connection's claim on one of the [`ServerConfig::workers`] slots.
/// Dropping it — also while its thread unwinds — frees the slot.
struct Slot<'s> {
    shared: &'s Shared,
    id: u64,
}

impl<'s> Slot<'s> {
    /// Claims a slot for `stream`; `None` when the cap is reached.
    fn claim(shared: &'s Shared, stream: &TcpStream) -> Option<Self> {
        let socket = stream.try_clone().ok()?;
        let mut connections = shared.connections();
        if connections.open.len() >= shared.config.workers.max(1) {
            return None;
        }
        let id = connections.next_id;
        connections.next_id += 1;
        connections.open.insert(id, OpenConnection { socket, idle: false });
        shared.metrics.open_connections.set(connections.open.len() as i64);
        Some(Self { shared, id })
    }

    /// Marks the connection idle (waiting between requests) or busy.
    /// Returns false once the server is shutting down: the connection then
    /// closes instead of waiting or serving. The flag is read under the
    /// table lock, which orders it against [`Shared::close_idle_connections`].
    fn set_idle(&self, idle: bool) -> bool {
        let mut connections = self.shared.connections();
        if let Some(connection) = connections.open.get_mut(&self.id) {
            connection.idle = idle;
        }
        !self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A panic escaped the per-request `catch_unwind`.
            self.shared.metrics.panics.inc();
        }
        let mut connections = self.shared.connections();
        connections.open.remove(&self.id);
        self.shared.metrics.open_connections.set(connections.open.len() as i64);
    }
}

/// [`std::thread::available_parallelism`], read once per process: on Linux
/// it reads cgroup files, which took 50–100 µs, as long as the rest of
/// [`Server::bind`].
fn available_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A bound-but-not-yet-running synthesis service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over the
    /// given registry and ledger. Callers keep their `Arc`s to pre-load
    /// models or inspect the ledger while the server runs.
    ///
    /// # Errors
    /// Returns [`ServerError::Io`] if the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        registry: Arc<ModelRegistry>,
        ledger: Arc<BudgetLedger>,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let access_log =
            match &config.access_log {
                Some(path) => {
                    Some(std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(
                        |e| ServerError::Io(format!("access log {}: {e}", path.display())),
                    )?)
                }
                None => None,
            };
        let metrics = Arc::new(ServerMetrics::new(access_log));
        // The ledger records persist latency and outcomes into the same
        // registry; the per-tenant ε gauges stay scrape-time mirrors of
        // the ledger snapshot (the ledger remains the accounting truth).
        ledger.set_observer(Some(LedgerObserver {
            persist_seconds: Arc::clone(&metrics.ledger_persist_seconds),
            ok: metrics.registry().counter("privbayes_ledger_persist_total", &[("outcome", "ok")]),
            rolled_back: metrics
                .registry()
                .counter("privbayes_ledger_persist_total", &[("outcome", "rolled_back")]),
            durable_failure: metrics
                .registry()
                .counter("privbayes_ledger_persist_total", &[("outcome", "durable_failure")]),
        }));
        // The dataset store recovers every journaled tenant before the
        // first request is accepted, so a post-restart append lands on the
        // full recovered history.
        let store = Arc::new(match &config.data_dir {
            Some(dir) => DatasetStore::open(dir)?,
            None => DatasetStore::in_memory(),
        });
        let stream_threads = config.fit_threads.unwrap_or_else(available_parallelism).max(1);
        let shared = Arc::new(Shared {
            registry,
            ledger,
            store,
            config,
            stream_threads,
            addr,
            shutdown: AtomicBool::new(false),
            metrics,
            connections: Mutex::new(Connections::default()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Arc::new(RwLock::new(None)),
        });
        Ok(Self { listener, shared })
    }

    /// The live metric registry surface (shared with `GET /metrics`).
    #[must_use]
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The per-tenant dataset store behind the ingest endpoint (shared
    /// with the running server; callers keep it across [`Server::spawn`]
    /// to inspect ingestion state or install fault plans in tests).
    #[must_use]
    pub fn store(&self) -> Arc<DatasetStore> {
        Arc::clone(&self.shared.store)
    }

    /// The actual bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The slot tests use to install, swap, or clear a [`FaultPlan`] while
    /// the server runs. The plan is consulted per connection (IO faults)
    /// and per request (handler faults). Test-only: absent from release
    /// builds.
    #[cfg(any(test, feature = "fault-injection"))]
    #[must_use]
    pub fn fault_slot(&self) -> FaultSlot {
        Arc::clone(&self.shared.fault)
    }

    /// Serves until a `POST /shutdown` request arrives, then lets every
    /// in-flight request finish, closes idle connections, and returns.
    /// Blocks the calling thread; use [`Server::spawn`] to run in the
    /// background.
    ///
    /// # Errors
    /// Returns [`ServerError::Io`] if the accept loop fails fatally.
    ///
    /// # Panics
    /// Re-raises, once every thread has stopped, a panic that escaped a
    /// connection's per-request isolation (a bug in this crate).
    pub fn run(self) -> Result<ServerStats, ServerError> {
        let shared = &*self.shared;
        // Rejected connections linger on their own thread, so a slow peer
        // never stalls the acceptor.
        let (linger_tx, linger_rx) = mpsc::channel::<TcpStream>();
        // Every thread is scoped: the scope ends once each connection has
        // finished its request and closed, the janitor has stopped, and
        // nothing lingers.
        std::thread::scope(|scope| {
            // The refit janitor: polls the dataset store for tenants the
            // policy says are due and runs each refit with the same ledger
            // discipline as `POST /fit` (charge first, refund on failure).
            // It runs beside the connections so a long fit never blocks
            // request serving; the store single-flights per tenant, so at
            // most one refit per tenant is in flight regardless of poll
            // cadence.
            if shared.config.refit.is_enabled() {
                scope.spawn(|| {
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        for job in shared.store.due_refits(&shared.config.refit) {
                            run_refit(shared, &job);
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                });
            }
            scope.spawn(move || linger_loop(&linger_rx));
            loop {
                let (stream, _) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                    Err(_) => {
                        // Transient accept failure (e.g. fd exhaustion):
                        // back off briefly instead of hot-looping; the
                        // condition clears as open connections close.
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                };
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection from the shutdown handler (or a
                    // straggler racing it): stop accepting. Dropping the
                    // stream closes it; in-flight requests still complete.
                    break;
                }
                // Small responses must not sit in the kernel waiting for an
                // ACK under Nagle — a keep-alive ping-pong would otherwise
                // pay up to one RTT-with-delay per request.
                let _ = stream.set_nodelay(true);
                match Slot::claim(shared, &stream) {
                    // A failed spawn drops the closure, which closes the
                    // stream and frees the slot.
                    Some(slot) => {
                        let _ = std::thread::Builder::new()
                            .spawn_scoped(scope, move || serve_connection(&slot, stream));
                    }
                    None => reject_overloaded(shared, stream, &linger_tx),
                }
            }
            drop(linger_tx);
            shared.close_idle_connections();
        });
        Ok(ServerStats::snapshot(&shared.metrics))
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address and the eventual stats.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let metrics = Arc::clone(&self.shared.metrics);
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, metrics, join }
    }
}

/// A running background server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    join: std::thread::JoinHandle<Result<ServerStats, ServerError>>,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current counters, read live while the server runs — the same
    /// registry `GET /metrics` and `GET /healthz` serve, so this view and
    /// the final [`ServerHandle::join`] value can never disagree.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats::snapshot(&self.metrics)
    }

    /// The live metric registry surface (shared with the running server).
    #[must_use]
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Waits for the server to shut down (something must send
    /// `POST /shutdown`, e.g. [`crate::client::Client::shutdown`]).
    ///
    /// # Errors
    /// Propagates the server's exit error; panics if the server thread
    /// panicked.
    pub fn join(self) -> Result<ServerStats, ServerError> {
        self.join.join().expect("server thread panicked")
    }
}

/// One connection's thread: serves requests until the peer closes or asks
/// `Connection: close`, the connection idles past the idle deadline, or
/// the server shuts down.
fn serve_connection(slot: &Slot<'_>, stream: TcpStream) {
    let shared = slot.shared;
    let Some(mut conn) = Conn::new(shared, stream) else { return };
    while serve_request(shared, &mut conn) && conn.await_request(shared, slot) {}
}

/// The connection's IO type: faultable in test builds, bare TCP otherwise.
#[cfg(any(test, feature = "fault-injection"))]
type ConnIo = FaultStream<TcpStream>;
#[cfg(not(any(test, feature = "fault-injection")))]
type ConnIo = TcpStream;

/// One accepted connection with its buffered halves.
struct Conn {
    /// A plain handle on the socket, kept for timeout control (the file
    /// description — and thus `SO_RCVTIMEO` — is shared with both halves).
    socket: TcpStream,
    reader: BufReader<ConnIo>,
    writer: TrackedWriter<BufWriter<ConnIo>>,
    /// Requests already answered on this connection.
    served: u64,
}

impl Conn {
    /// Wraps an accepted socket. Under fault injection both halves go
    /// through the currently installed plan (captured once per connection).
    fn new(shared: &Shared, stream: TcpStream) -> Option<Self> {
        let _ = stream.set_read_timeout(Some(shared.config.read_deadline));
        let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
        let read_half = stream.try_clone().ok()?;
        let socket = stream.try_clone().ok()?;
        #[cfg(any(test, feature = "fault-injection"))]
        let (reader, writer) = {
            let plan = shared.fault.read().expect("fault plan lock poisoned").clone();
            (
                BufReader::new(FaultStream::new(read_half, plan.clone())),
                TrackedWriter::new(BufWriter::new(FaultStream::new(stream, plan))),
            )
        };
        #[cfg(not(any(test, feature = "fault-injection")))]
        let (reader, writer) =
            (BufReader::new(read_half), TrackedWriter::new(BufWriter::new(stream)));
        Some(Self { socket, reader, writer, served: 0 })
    }

    /// Waits for the next request on a kept-alive connection, blocking for
    /// at most the idle deadline. False when the peer closed, the deadline
    /// passed, or the server is shutting down: the connection then closes
    /// without a response, since there is no request to answer.
    fn await_request(&mut self, shared: &Shared, slot: &Slot<'_>) -> bool {
        if !slot.set_idle(true) {
            return false;
        }
        let _ = self.socket.set_read_timeout(Some(shared.config.idle_deadline));
        let ready = matches!(self.reader.fill_buf(), Ok(bytes) if !bytes.is_empty());
        let _ = self.socket.set_read_timeout(Some(shared.config.read_deadline));
        slot.set_idle(false) && ready
    }
}

/// The per-request core: read, dispatch inside `catch_unwind`, answer,
/// count. Returns whether the connection survives for another request.
///
/// A handler panic is isolated to this request — counted, answered with a
/// structured 500 when the response has not started (after that the torn
/// connection itself is the correct failure signal) — and always closes
/// the connection. A read deadline expiring mid-request is answered 408. A
/// peer that closes (or resets) a kept-alive connection *between* requests
/// is not an error and not a request: the connection is dropped silently,
/// so idle churn never skews the request counters.
fn serve_request(shared: &Shared, conn: &mut Conn) -> bool {
    let metrics = &shared.metrics;
    conn.writer.begin_request();
    let parsed = Request::read_from(&mut conn.reader);
    let reused = conn.served > 0;
    if reused && matches!(parsed, Err(ServerError::Io(_))) {
        // EOF or reset between requests on a kept-alive connection.
        return false;
    }
    let inbound_id = parsed.as_ref().ok().and_then(|r| r.header("x-privbayes-request-id"));
    let ctx = RequestCtx::new(metrics, metrics.request_id(inbound_id));
    ctx.stage("parse");
    let (method, path) = match &parsed {
        Ok(request) => (request.method.clone(), request.path.clone()),
        Err(_) => ("-".to_string(), "-".to_string()),
    };
    let mut keep = false;
    match parsed {
        Ok(request) => {
            if reused {
                metrics.connections_reused.inc();
            }
            conn.served += 1;
            ctx.keep_alive
                .set(request.wants_keep_alive() && !shared.shutdown.load(Ordering::SeqCst));
            let deadline = Instant::now() + shared.config.handler_deadline;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(shared, &request, &mut conn.writer, deadline, &ctx)
            }));
            match outcome {
                // The handler may flip `keep_alive` off (shutdown does).
                Ok(Ok(())) => keep = ctx.keep_alive.get(),
                // Socket-level failure mid-response: for a streaming
                // response this is the deliberate truncation path — the
                // close is what lets the client detect the torn transfer.
                Ok(Err(_)) => {}
                Err(_) => {
                    metrics.panics.inc();
                    if !conn.writer.started() {
                        ctx.keep_alive.set(false);
                        let _ = respond_error(
                            &mut conn.writer,
                            &ctx,
                            500,
                            "internal",
                            "request handler panicked",
                        );
                    }
                }
            }
        }
        Err(ServerError::Timeout(msg)) => {
            ctx.endpoint.set("read");
            let _ = respond_error(&mut conn.writer, &ctx, 408, "request-timeout", &msg);
        }
        Err(e) => {
            ctx.endpoint.set("read");
            let _ = respond_error(&mut conn.writer, &ctx, 400, "bad-request", &e.to_string());
        }
    }
    metrics.finish_request(&ctx, &method, &path, conn.writer.request_bytes());
    keep
}

/// Answers an over-capacity connection from the acceptor thread: an
/// immediate 503 with `Retry-After`, without parsing the request — the
/// whole point is to spend no connection thread on it. The rejection still
/// goes through the normal instrumentation path, so overload shows up in
/// the request counters and the access log (under `endpoint="acceptor"`),
/// not just in `queue_rejected`.
///
/// The close lingers: after the response the write side is shut down and
/// the socket goes to [`linger_loop`], which discards the request bytes
/// until the peer closes. Closing with unread bytes would make the kernel
/// reset the connection, and the reset can destroy the 503 before the
/// client reads it.
fn reject_overloaded(shared: &Shared, stream: TcpStream, linger: &mpsc::Sender<TcpStream>) {
    let metrics = &shared.metrics;
    metrics.queue_rejected.inc();
    let ctx = RequestCtx::new(metrics, metrics.request_id(None));
    ctx.endpoint.set("acceptor");
    let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
    let mut writer = TrackedWriter::new(BufWriter::new(&stream));
    let body = Json::object(vec![
        ("error", Json::String("overloaded".into())),
        ("message", Json::String("the server's connections are all in use; retry shortly".into())),
    ]);
    let text = body.to_string_compact().expect("static body");
    ctx.status.set(503);
    let _ = write_response(
        &mut writer,
        503,
        "application/json",
        &[API_HEADER, ("Retry-After", "1"), (REQUEST_ID_HEADER, &ctx.id)],
        false,
        text.as_bytes(),
    );
    metrics.finish_request(&ctx, "-", "-", writer.request_bytes());
    drop(writer);
    if stream.shutdown(Shutdown::Write).is_ok() {
        let _ = linger.send(stream);
    }
}

/// How long a rejected connection is drained before it is closed anyway.
const LINGER: Duration = Duration::from_secs(1);

/// Connections lingering at once; past this a rejected connection is closed
/// without draining, so a flood of rejections cannot exhaust descriptors.
const MAX_LINGERING: usize = 256;

/// Drains rejected connections: reads and discards until each peer closes
/// or its [`LINGER`] deadline passes, then drops the socket. Returns once
/// the acceptor has hung up and nothing lingers.
fn linger_loop(rx: &mpsc::Receiver<TcpStream>) {
    let mut lingering: Vec<(TcpStream, Instant)> = Vec::new();
    let mut sink = vec![0u8; 64 * 1024];
    loop {
        // Block for work only when nothing lingers.
        let first = if lingering.is_empty() {
            match rx.recv() {
                Ok(stream) => Some(stream),
                Err(_) => return,
            }
        } else {
            None
        };
        for stream in first.into_iter().chain(rx.try_iter()) {
            if lingering.len() < MAX_LINGERING && stream.set_nonblocking(true).is_ok() {
                lingering.push((stream, Instant::now() + LINGER));
            }
        }
        let now = Instant::now();
        lingering.retain_mut(|(stream, until)| match stream.read(&mut sink) {
            Ok(0) => false,
            Ok(_) => now < *until,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => now < *until,
            Err(_) => false,
        });
        if !lingering.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A writer that counts response bytes per request on a persistent
/// connection: `started` tells the panic handler whether a structured 500
/// is still possible for the *current* request, and `request_bytes` feeds
/// the access log.
struct TrackedWriter<W: Write> {
    inner: W,
    bytes: u64,
    mark: u64,
}

impl<W: Write> TrackedWriter<W> {
    fn new(inner: W) -> Self {
        Self { inner, bytes: 0, mark: 0 }
    }

    /// Resets the per-request view (call before reading each request).
    fn begin_request(&mut self) {
        self.mark = self.bytes;
    }

    /// Whether any byte of the current request's response was written.
    fn started(&self) -> bool {
        self.bytes > self.mark
    }

    /// Bytes written for the current request.
    fn request_bytes(&self) -> u64 {
        self.bytes - self.mark
    }
}

impl<W: Write> Write for TrackedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A routed request as its handler sees it.
#[derive(Clone, Copy)]
struct Call<'a> {
    req: &'a Request,
    /// The path segment the route's `*` matched — a model or tenant id;
    /// empty for routes without one.
    id: &'a str,
    deadline: Instant,
    ctx: &'a RequestCtx<'a>,
}

/// Answers one routed request on the writer.
type Handler = fn(&Shared, Call<'_>, &mut dyn Write) -> std::io::Result<()>;

/// The route table: method, path (`*` matches any one segment), the
/// endpoint label requests are counted under, and the handler. A listed
/// path with an unlisted method is answered 405 and counted under the
/// path's label; an unlisted path is 404.
const ROUTES: &[(&str, &[&str], &str, Handler)] = &[
    ("GET", &["healthz"], "healthz", healthz),
    ("GET", &["metrics"], "metrics", scrape),
    ("GET", &["models"], "models", list_models),
    ("PUT", &["models", "*"], "models", load_model),
    ("GET", &["models", "*"], "models", get_model),
    ("DELETE", &["models", "*"], "models", evict_model),
    ("POST", &["v1", "models", "*", "synth"], "synth", synth_v1),
    ("POST", &["v1", "models", "*", "query"], "query", query_v1),
    ("GET", &["v1", "models", "*", "generations"], "generations", generations_v1),
    ("POST", &["v1", "tenants", "*", "ingest"], "ingest", ingest_v1),
    ("POST", &["fit"], "fit", fit),
    ("GET", &["tenants"], "tenants", list_tenants),
    ("PUT", &["tenants", "*"], "tenants", register_tenant),
    ("GET", &["tenants", "*"], "tenants", get_tenant),
    ("POST", &["shutdown"], "shutdown", shutdown),
];

/// Dispatches through [`ROUTES`]. The endpoint label is set before the
/// handler runs, so even a response that fails mid-write is attributed.
fn route(
    shared: &Shared,
    req: &Request,
    out: &mut dyn Write,
    deadline: Instant,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    #[cfg(any(test, feature = "fault-injection"))]
    if let Some(plan) = shared.fault.read().expect("fault plan lock poisoned").as_ref() {
        if let Some(Fault::Panic) = plan.take(FaultSite::Handler) {
            panic!("injected handler panic");
        }
    }
    let segments = req.segments();
    let matches = |path: &[&str]| {
        path.len() == segments.len() && path.iter().zip(&segments).all(|(p, s)| *p == "*" || p == s)
    };
    let mut known = ROUTES.iter().filter(|(_, path, _, _)| matches(path)).peekable();
    let Some(&&(_, _, endpoint, _)) = known.peek() else {
        return respond_error(out, ctx, 404, "not-found", &req.path);
    };
    ctx.endpoint.set(endpoint);
    let Some(&(_, path, _, handler)) = known.find(|(method, ..)| *method == req.method) else {
        return respond_error(out, ctx, 405, "method-not-allowed", &req.method);
    };
    let id = path.iter().position(|p| *p == "*").map_or("", |i| segments[i]);
    handler(shared, Call { req, id, deadline, ctx }, out)
}

/// `GET /healthz`: liveness plus registry, ledger and connection counts.
fn healthz(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let metrics = &shared.metrics;
    let count = |n: u64| Json::from_usize(n as usize);
    let gauge = |n: i64| Json::from_usize(n.max(0) as usize);
    let body = Json::object(vec![
        ("status", Json::String("ok".into())),
        ("models", Json::from_usize(shared.registry.len())),
        ("tenants", Json::from_usize(shared.ledger.snapshot().len())),
        ("requests", count(metrics.registry().counter_total("privbayes_requests_total"))),
        ("panics", count(metrics.panics.get())),
        ("queue_rejected", count(metrics.queue_rejected.get())),
        ("open_connections", gauge(metrics.open_connections.get())),
        ("active_streams", gauge(metrics.active_streams.get())),
    ]);
    respond_json(out, call.ctx, 200, &body)
}

/// `GET /metrics`: the Prometheus text exposition (404 when disabled).
fn scrape(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let ctx = call.ctx;
    if !shared.config.metrics_enabled {
        return respond_error(
            out,
            ctx,
            404,
            "not-found",
            "metrics exposition is disabled on this server",
        );
    }
    let mut body = shared.metrics.render(&shared.ledger.snapshot());
    render_model_generations(&mut body, &shared.registry.list());
    ctx.status.set(200);
    ctx.stage("write");
    write_response(
        out,
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        &[API_HEADER, (REQUEST_ID_HEADER, &ctx.id)],
        ctx.keep_alive.get(),
        body.as_bytes(),
    )
}

/// `GET /models`: every loaded model's metadata.
fn list_models(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let models: Vec<Json> = shared.registry.list().iter().map(|e| model_json(e)).collect();
    respond_json(out, call.ctx, 200, &Json::Array(models))
}

/// `PUT /models/{id}`: parse, validate, compile, register.
fn load_model(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { req, id, ctx, .. } = call;
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return respond_error(out, ctx, 400, "bad-request", "artifact body is not UTF-8");
    };
    let artifact = match ReleasedModel::from_json_string(text) {
        Ok(artifact) => artifact,
        Err(e) => return respond_error(out, ctx, 400, "invalid-model", &e.to_string()),
    };
    // `registry.load` validates and eagerly compiles the alias tables; its
    // wall time is the alias-build cost for this artifact.
    let compile_started = Instant::now();
    let loaded = shared.registry.load(id, artifact);
    ctx.metrics.alias_build_seconds.observe(compile_started.elapsed());
    match loaded {
        Ok((entry, created)) => {
            respond_json(out, ctx, if created { 201 } else { 200 }, &model_json(&entry))
        }
        Err(e) => respond_error(out, ctx, 400, "invalid-model", &e.to_string()),
    }
}

/// `GET /models/{id}`: one model's metadata.
fn get_model(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { id, ctx, .. } = call;
    ctx.stage("lookup");
    match shared.registry.get(id) {
        Some(entry) => respond_json(out, ctx, 200, &model_json(&entry)),
        None => respond_error(out, ctx, 404, "model-not-found", id),
    }
}

/// `DELETE /models/{id}`: evict from the registry.
fn evict_model(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { id, ctx, .. } = call;
    if shared.registry.evict(id) {
        let body = Json::object(vec![("evicted", Json::String(id.to_string()))]);
        respond_json(out, ctx, 200, &body)
    } else {
        respond_error(out, ctx, 404, "model-not-found", id)
    }
}

/// `GET /tenants`: the ledger snapshot.
fn list_tenants(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let tenants: Vec<Json> = shared.ledger.snapshot().iter().map(tenant_json).collect();
    respond_json(out, call.ctx, 200, &Json::Array(tenants))
}

/// `PUT /tenants/{id}?budget=E`: register a tenant.
fn register_tenant(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { req, id, ctx, .. } = call;
    let Some(raw) = req.query("budget") else {
        return respond_error(out, ctx, 400, "bad-request", "missing `budget` query parameter");
    };
    let Ok(total) = raw.parse::<f64>() else {
        return respond_error(out, ctx, 400, "bad-request", "unparsable `budget`");
    };
    match shared.ledger.register(id, total) {
        Ok(()) => {
            let row = shared.ledger.budget(id).expect("registered above");
            respond_json(out, ctx, 201, &tenant_json(&row))
        }
        Err(ServerError::Conflict(msg)) => respond_error(out, ctx, 409, "tenant-exists", &msg),
        Err(e @ ServerError::Ledger(_)) => {
            respond_error(out, ctx, 500, "ledger-error", &e.to_string())
        }
        Err(e) => respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    }
}

/// `GET /tenants/{id}`: one tenant's budget.
fn get_tenant(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { id, ctx, .. } = call;
    match shared.ledger.budget(id) {
        Some(row) => respond_json(out, ctx, 200, &tenant_json(&row)),
        None => respond_error(out, ctx, 404, "tenant-not-found", id),
    }
}

/// `POST /shutdown`: stop accepting; in-flight requests still complete.
fn shutdown(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let ctx = call.ctx;
    shared.shutdown.store(true, Ordering::SeqCst);
    // The final response on a draining server always closes.
    ctx.keep_alive.set(false);
    let body = Json::object(vec![("status", Json::String("shutting-down".into()))]);
    let result = respond_json(out, ctx, 200, &body);
    // Wake the acceptor, which is blocked in `accept`; it sees the flag
    // and stops. Errors are moot — if the connect fails the listener is
    // already gone.
    let _ = TcpStream::connect(shared.addr);
    result
}

/// `POST /v1/models/{id}/synth`: parse the [`SynthSpec`] body, resolve it
/// against the model's schema, stream rows.
///
/// [`SynthSpec`]: privbayes_synth::SynthSpec
fn synth_v1(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { req, id, deadline, ctx } = call;
    let json = match parse_json_body(&req.body) {
        Ok(json) => json,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let spec = match SynthSpec::from_json(&json) {
        Ok(spec) => spec,
        Err(e) => return respond_invalid_spec(out, ctx, &e),
    };
    ctx.stage("lookup");
    // A `pbc2` cursor pins the model *generation* it was cut from, so a
    // stream resumed across a hot-swap keeps sampling the exact artifact
    // that produced its prefix — bytes identical to the uninterrupted
    // stream. Unpinned requests serve the newest generation.
    let pinned = spec.cursor.as_ref().and_then(|c| c.generation);
    let entry = match pinned {
        None => match shared.registry.get(id) {
            Some(entry) => entry,
            None => return respond_error(out, ctx, 404, "model-not-found", id),
        },
        Some(generation) => match shared.registry.get_generation(id, generation) {
            GenerationLookup::Found(entry) => entry,
            GenerationLookup::Evicted { newest } => {
                return respond_error(
                    out,
                    ctx,
                    410,
                    "generation-evicted",
                    &format!(
                        "generation {generation} of model `{id}` has aged out \
                         (newest is {newest}); restart the stream without a cursor"
                    ),
                );
            }
            GenerationLookup::Unknown => {
                return respond_error(out, ctx, 404, "model-not-found", id)
            }
        },
    };
    let resolved = match spec.resolve(&entry.artifact.schema) {
        Ok(resolved) => resolved,
        Err(e) => return respond_invalid_spec(out, ctx, &e),
    };
    stream_synth(shared, &entry, &resolved, out, deadline, ctx)
}

/// Streams one resolved synthesis request. The response carries `X-PrivBayes-Seed`
/// (the effective seed, also when the server drew it) and
/// `X-PrivBayes-Cursor` (the stream's own resume token), and skips the CSV
/// header on resumed streams so `prefix + resumed` is byte-identical to an
/// uninterrupted stream.
fn stream_synth(
    shared: &Shared,
    entry: &ModelEntry,
    resolved: &ResolvedSynth,
    out: &mut dyn Write,
    deadline: Instant,
    ctx: &RequestCtx<'_>,
) -> std::io::Result<()> {
    let rows = resolved.rows.unwrap_or(entry.artifact.metadata.source_rows);
    if rows > shared.config.max_rows {
        return respond_error(
            out,
            ctx,
            400,
            "too-many-rows",
            &format!("rows = {rows} exceeds the per-request cap of {}", shared.config.max_rows),
        );
    }
    let seed = match resolved.seed {
        Some(seed) => seed,
        None => match StdRng::try_from_rng(&mut rand::rngs::SysRng) {
            Ok(mut rng) => rng.random::<u64>(),
            Err(_) => {
                return respond_error(out, ctx, 500, "internal", "entropy source unavailable")
            }
        },
    };
    let sampler = match entry.sampler() {
        Ok(sampler) => sampler,
        Err(e) => return respond_error(out, ctx, 500, "internal", &e.to_string()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = match sampler.stream_spec(&resolved.sample_spec(rows), &mut rng) {
        Ok(stream) => stream,
        Err(e) => return respond_error(out, ctx, 400, "invalid-spec", &e.to_string()),
    };
    let schema = sampler.schema();
    let projection = resolved.projection.as_deref();
    let seed_text = seed.to_string();
    // The resume token pins the generation actually serving this stream,
    // so resuming after a refit hot-swaps in keeps the original artifact.
    let cursor =
        Cursor { seed, row: resolved.start_row as u64, generation: Some(entry.generation) }
            .encode();
    let headers = [
        API_HEADER,
        ("X-PrivBayes-Seed", &seed_text),
        ("X-PrivBayes-Cursor", &cursor),
        (REQUEST_ID_HEADER, &ctx.id),
    ];
    if Instant::now() >= deadline {
        // Out of budget before the first byte: a clean 408 is still
        // possible (and more useful than a truncated stream).
        return respond_error(out, ctx, 408, "request-timeout", "handler deadline expired");
    }
    ctx.status.set(200);
    let mut record = StreamRecord::start(ctx);
    let write_started = Instant::now();
    let mut chunked = ChunkedResponse::begin(
        out,
        200,
        resolved.format.content_type(),
        &headers,
        ctx.keep_alive.get(),
    )?;
    if resolved.start_row == 0 {
        let header = resolved.format.header(schema, projection);
        chunked.write(header.as_bytes())?;
        record.bytes += header.len() as u64;
    }
    let renderer = RowRenderer::new(resolved.format, schema, projection);
    record.write += write_started.elapsed();
    render_chunks(&stream, &renderer, shared.stream_threads, |chunk| {
        record.sample += chunk.sample;
        record.write += chunk.render;
        // The deadline is checked at chunk boundaries. Once the response has
        // started the only honest way to stop is to truncate the chunked
        // stream (no terminating chunk), which the client decodes as an
        // interrupted transfer and may resume via the cursor.
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "handler deadline expired mid-stream",
            ));
        }
        let write_started = Instant::now();
        chunked.write(&chunk.bytes)?;
        record.write += write_started.elapsed();
        record.rows += chunk.rows as u64;
        record.bytes += chunk.bytes.len() as u64;
        Ok(())
    })?;
    let write_started = Instant::now();
    let result = chunked.finish();
    record.write += write_started.elapsed();
    result
}

/// A stream's stage times and throughput counters. They accumulate locally
/// per chunk and reach the shared metrics once, when the stream ends —
/// finished, timed out or cut off by a failed write alike — together with
/// the `privbayes_active_streams` decrement, so the per-chunk path pays no
/// contention. A stream unwound by a panic records its counters and the
/// decrement but no stage.
///
/// `sample` sums every chunk's sampling time and `write` every chunk's
/// render time plus the socket writes, whichever thread did the work: the
/// two can add up to more than the stream's wall time.
struct StreamRecord<'c, 'm> {
    ctx: &'c RequestCtx<'m>,
    sample: Duration,
    write: Duration,
    /// Rows and bytes handed to the socket.
    rows: u64,
    bytes: u64,
}

impl<'c, 'm> StreamRecord<'c, 'm> {
    fn start(ctx: &'c RequestCtx<'m>) -> Self {
        ctx.metrics.active_streams.add(1);
        Self { ctx, sample: Duration::ZERO, write: Duration::ZERO, rows: 0, bytes: 0 }
    }
}

impl Drop for StreamRecord<'_, '_> {
    fn drop(&mut self) {
        let metrics = self.ctx.metrics;
        // A stage histogram is found under the registry's lock, which panics
        // once poisoned, and a panic while unwinding aborts the process.
        if !std::thread::panicking() {
            self.ctx.observe_stage("sample", self.sample);
            self.ctx.observe_stage("write", self.write);
        }
        metrics.rows_streamed.add(self.rows);
        metrics.bytes_streamed.add(self.bytes);
        metrics.active_streams.sub(1);
    }
}

/// `POST /v1/models/{id}/query`: answer a [`MarginalQuery`] exactly from
/// the released θ via the deterministic θ-projection — no sampling, no
/// privacy cost (post-processing), bit-reproducible values.
///
/// [`MarginalQuery`]: privbayes_synth::MarginalQuery
fn query_v1(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { req, id, ctx, .. } = call;
    ctx.stage("lookup");
    let Some(entry) = shared.registry.get(id) else {
        return respond_error(out, ctx, 404, "model-not-found", id);
    };
    let json = match parse_json_body(&req.body) {
        Ok(json) => json,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let schema = &entry.artifact.schema;
    let attrs = match MarginalQuery::from_json(&json).and_then(|q| q.resolve(schema)) {
        Ok(attrs) => attrs,
        Err(e) => return respond_invalid_spec(out, ctx, &e),
    };
    let table = match theta_projection(&entry.artifact.model, schema, &attrs, DEFAULT_CELL_CAP) {
        Ok(table) => table,
        Err(e) => return respond_error(out, ctx, 400, "invalid-spec", &e.to_string()),
    };
    ctx.stage("sample");
    let names: Vec<Json> =
        attrs.iter().map(|&a| Json::String(schema.attribute(a).name().to_string())).collect();
    let dims: Vec<Json> = table.dims().iter().map(|&d| Json::from_usize(d)).collect();
    let values: Vec<Json> = table.values().iter().map(|&v| Json::Number(v)).collect();
    let body = Json::object(vec![
        ("model", Json::String(entry.id.clone())),
        ("attrs", Json::Array(names)),
        ("dims", Json::Array(dims)),
        ("values", Json::Array(values)),
    ]);
    respond_json(out, ctx, 200, &body)
}

/// `GET /v1/models/{id}/generations`: the retained generation chain,
/// newest first — what a pinned cursor can still resume against.
fn generations_v1(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { id, ctx, .. } = call;
    ctx.stage("lookup");
    match shared.registry.generations(id) {
        Some(entries) => {
            let generations: Vec<Json> = entries.iter().map(|e| model_json(e)).collect();
            respond_json(
                out,
                ctx,
                200,
                &Json::object(vec![
                    ("id", Json::String(id.to_string())),
                    ("retained", Json::from_usize(generations.len())),
                    ("generations", Json::Array(generations)),
                ]),
            )
        }
        None => respond_error(out, ctx, 404, "model-not-found", id),
    }
}

/// `POST /v1/tenants/{t}/ingest`: append a schema-validated batch to the
/// tenant's journaled dataset. The first batch must carry `schema` and the
/// refit target (`model_id`, `epsilon`, optional `method`/`seed`); later
/// batches may omit both. Rows ride in `csv` (the `POST /fit` layout) or
/// `jsonl` (one object or array per line). Appending spends no budget —
/// ε is debited by the background refit the appended rows trigger.
fn ingest_v1(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { req, id: tenant, ctx, .. } = call;
    let json = match parse_json_body(&req.body) {
        Ok(json) => json,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let (spec, format, text) = match parse_ingest_body(&json) {
        Ok(parsed) => parsed,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    let schema = match json.get("schema") {
        Some(v) => match schema_from_json(v) {
            Ok(schema) => schema,
            Err(e) => return respond_error(out, ctx, 400, "bad-request", &format!("schema: {e}")),
        },
        None => match shared.store.schema(tenant) {
            Some(schema) => schema,
            None => {
                return respond_error(
                    out,
                    ctx,
                    400,
                    "bad-request",
                    &format!("first ingest batch for tenant `{tenant}` must carry `schema`"),
                )
            }
        },
    };
    let batch = match parse_batch(&schema, format, &text) {
        Ok(batch) => batch,
        Err(e) => return respond_error(out, ctx, 400, "bad-batch", &e.to_string()),
    };
    ctx.stage("parse");
    match shared.store.append_staged(tenant, &batch, spec.as_ref(), &mut |stage| ctx.stage(stage)) {
        Ok(receipt) => {
            shared.metrics.record_ingest(tenant, receipt.batch_rows);
            respond_json(
                out,
                ctx,
                200,
                &Json::object(vec![
                    ("tenant", Json::String(tenant.to_string())),
                    ("batch_rows", Json::from_usize(receipt.batch_rows as usize)),
                    ("total_rows", Json::from_usize(receipt.total_rows as usize)),
                    ("pending_rows", Json::from_usize(receipt.pending_rows as usize)),
                ]),
            )
        }
        Err(e @ ServerError::Dataset(_)) => {
            respond_error(out, ctx, 400, "ingest-rejected", &e.to_string())
        }
        Err(e) => respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    }
}

/// Pulls the optional refit target and the batch rows out of an ingest
/// body. A body naming `model_id` must also carry a valid `epsilon`;
/// `method` defaults to `privbayes` and `seed` to 0 (refit seeds are fixed
/// per tenant so every generation is a pure function of the data).
fn parse_ingest_body(json: &Json) -> Result<(Option<RefitSpec>, BatchFormat, String), ServerError> {
    let field = |name: &str| ServerError::Protocol(format!("missing or mistyped `{name}`"));
    let spec = match json.get("model_id") {
        None => None,
        Some(v) => {
            let model_id = v.as_str().ok_or_else(|| field("model_id"))?.to_string();
            let method = parse_method(json)?;
            let epsilon =
                json.get("epsilon").and_then(Json::as_f64).ok_or_else(|| field("epsilon"))?;
            let seed = match json.get("seed") {
                None => 0,
                Some(v) => seed_from_json(v).ok_or_else(|| field("seed"))?,
            };
            Some(RefitSpec { model_id, method, epsilon, seed })
        }
    };
    let (format, text) = if let Some(v) = json.get("csv") {
        (BatchFormat::Csv, v.as_str().ok_or_else(|| field("csv"))?.to_string())
    } else if let Some(v) = json.get("jsonl") {
        (BatchFormat::Jsonl, v.as_str().ok_or_else(|| field("jsonl"))?.to_string())
    } else {
        return Err(ServerError::Protocol("batch must carry `csv` or `jsonl` rows".into()));
    };
    Ok((spec, format, text))
}

/// Parses the body's `method` field, `privbayes` when absent.
fn parse_method(json: &Json) -> Result<Method, ServerError> {
    let Some(v) = json.get("method") else { return Ok(Method::PrivBayes) };
    let name =
        v.as_str().ok_or_else(|| ServerError::Protocol("missing or mistyped `method`".into()))?;
    Method::parse(name).ok_or_else(|| {
        ServerError::Protocol(format!(
            "unknown method `{name}`; valid methods: {}",
            Method::names()
        ))
    })
}

/// One background refit: a [`charged_fit`] over the tenant's live engine
/// that hot-swaps the model's registry generation. The fit holds the
/// tenant's dataset lock, so same-tenant appends queue behind it and each
/// generation covers an exact point-in-time prefix of the data.
fn run_refit(shared: &Shared, job: &RefitJob) {
    let spec = &job.spec;
    let settings = FitSettings {
        threads: shared.config.fit_threads,
        comment: format!("refit via privbayes-server ingest for tenant {}", job.tenant),
        ..FitSettings::default()
    };
    let target = FitTarget {
        tenant: &job.tenant,
        model_id: &spec.model_id,
        method: spec.method,
        epsilon: spec.epsilon,
    };
    let outcome = charged_fit(shared, &target, &mut |_| {}, || {
        let vanished =
            || ServerError::Dataset(format!("tenant `{}` vanished mid-refit", job.tenant));
        shared
            .store
            .with_engine(&job.tenant, |engine| {
                fit_method_with_engine(spec.method, engine, spec.epsilon, spec.seed, &settings)
            })
            .ok_or_else(vanished)?
            .map_err(|e| ServerError::Model(e.to_string()))
    });
    let (status, fitted_rows) = match outcome {
        // The rows the fit saw, which include any appended after the job
        // was cut.
        Ok(entry) => ("ok", Some(entry.artifact.metadata.source_rows as u64)),
        Err(FitError::Refused(LedgerError::Exhausted { .. })) => ("exhausted", None),
        Err(FitError::Refused(_)) => ("charge-failed", None),
        Err(FitError::Failed(_)) => ("failed", None),
    };
    shared.metrics.record_refit(status);
    shared.store.refit_finished(&job.tenant, fitted_rows);
}

/// Who pays for a fit, which model id its artifact loads under, and what
/// it charges.
struct FitTarget<'a> {
    tenant: &'a str,
    model_id: &'a str,
    method: Method,
    epsilon: f64,
}

/// Why a [`charged_fit`] loaded no model.
enum FitError {
    /// The ledger refused the charge, or does not know the tenant of a fit
    /// that spends no budget: nothing was spent and no data was read.
    Refused(LedgerError),
    /// The fit or the registry load failed, and the charge was refunded.
    Failed(ServerError),
}

/// The charge → fit → load sequence of `POST /fit` and the ingest refits.
/// Debits the tenant the target's ε before `fit` reads any data (a method
/// that spends no budget only needs a registered tenant), records the
/// fit's engine counters, loads its artifact as the model id's next
/// generation, and refunds the debit if the fit or the load fails: a failed
/// fit never leaks budget, a successful one is charged exactly once.
/// `privbayes_fit_seconds` times `fit` alone, `privbayes_alias_build_seconds`
/// the load, and `stage` closes the request's `ledger` stage and, once the
/// charge passed, its `fit` stage (the fit and the load).
fn charged_fit(
    shared: &Shared,
    target: &FitTarget<'_>,
    stage: &mut dyn FnMut(&'static str),
    fit: impl FnOnce() -> Result<FittedArtifact, ServerError>,
) -> Result<Arc<ModelEntry>, FitError> {
    let spends = target.method.spends_budget();
    let charged = if spends {
        shared.ledger.charge(target.tenant, target.epsilon).map(drop)
    } else if shared.ledger.budget(target.tenant).is_none() {
        Err(LedgerError::UnknownTenant(target.tenant.to_string()))
    } else {
        Ok(())
    };
    stage("ledger");
    charged.map_err(FitError::Refused)?;
    let fit_started = Instant::now();
    let fitted = fit();
    shared.metrics.fit_seconds.observe(fit_started.elapsed());
    let loaded = fitted.and_then(|fitted| {
        shared.metrics.record_engine(&fitted.stats);
        let compile_started = Instant::now();
        let loaded = shared.registry.load(target.model_id, fitted.artifact);
        shared.metrics.alias_build_seconds.observe(compile_started.elapsed());
        loaded.map(|(entry, _)| entry)
    });
    stage("fit");
    loaded.map_err(|e| {
        if spends {
            shared.ledger.refund(target.tenant, target.epsilon);
        }
        FitError::Failed(e)
    })
}

/// Parses a request body as UTF-8 JSON.
fn parse_json_body(body: &[u8]) -> Result<Json, ServerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::Protocol("request body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ServerError::Protocol(e.to_string()))
}

/// Answers a spec-validation failure: `400` with the `invalid-spec` error
/// code and the typed error's message.
fn respond_invalid_spec(
    out: &mut dyn Write,
    ctx: &RequestCtx<'_>,
    e: &SpecError,
) -> std::io::Result<()> {
    respond_error(out, ctx, 400, "invalid-spec", &e.to_string())
}

/// `POST /fit`: a [`charged_fit`] on the uploaded table with the requested
/// method, which registers the resulting model. The charge comes first, so
/// an over-budget request never touches the data, and a rejected or failed
/// request never leaks budget. Methods that spend no budget (`uniform`)
/// skip the charge, but the tenant must still be registered.
fn fit(shared: &Shared, call: Call<'_>, out: &mut dyn Write) -> std::io::Result<()> {
    let Call { req, deadline, ctx, .. } = call;
    let parsed = match parse_fit_body(&req.body) {
        Ok(parsed) => parsed,
        Err(e) => return respond_error(out, ctx, 400, "bad-request", &e.to_string()),
    };
    ctx.stage("parse");
    // Checked before the charge: a fit that cannot start within its budget
    // must not touch the ledger at all.
    if Instant::now() >= deadline {
        return respond_error(out, ctx, 408, "request-timeout", "handler deadline expired");
    }
    let target = FitTarget {
        tenant: &parsed.tenant,
        model_id: &parsed.model_id,
        method: parsed.method,
        epsilon: parsed.epsilon,
    };
    let outcome =
        charged_fit(shared, &target, &mut |stage| ctx.stage(stage), || run_fit(shared, &parsed));
    match outcome {
        Ok(entry) => {
            let remaining = shared.ledger.budget(&parsed.tenant).map_or(0.0, |row| row.remaining());
            let mut body = model_json(&entry);
            if let Json::Object(fields) = &mut body {
                fields.push(("tenant".into(), Json::String(parsed.tenant.clone())));
                fields.push(("remaining".into(), Json::Number(remaining)));
            }
            respond_json(out, ctx, 201, &body)
        }
        Err(FitError::Refused(e)) => {
            let message = e.to_string();
            match e {
                LedgerError::Exhausted { tenant, requested, remaining } => {
                    let body = Json::object(vec![
                        ("error", Json::String("budget-exhausted".into())),
                        ("message", Json::String(message)),
                        ("tenant", Json::String(tenant)),
                        ("requested", Json::Number(requested)),
                        ("remaining", Json::Number(remaining)),
                    ]);
                    respond_json(out, ctx, 402, &body)
                }
                LedgerError::UnknownTenant(t) => {
                    respond_error(out, ctx, 404, "tenant-not-found", &t)
                }
                LedgerError::InvalidAmount(msg) => {
                    respond_error(out, ctx, 400, "bad-request", &msg)
                }
                LedgerError::Persistence(_) => {
                    respond_error(out, ctx, 500, "ledger-error", &message)
                }
            }
        }
        Err(FitError::Failed(e)) => respond_error(out, ctx, 400, "fit-failed", &e.to_string()),
    }
}

/// A parsed `POST /fit` body.
struct FitRequest {
    tenant: String,
    model_id: String,
    method: Method,
    epsilon: f64,
    beta: Option<f64>,
    theta: Option<f64>,
    alpha: Option<usize>,
    iterations: Option<usize>,
    k: Option<usize>,
    seed: Option<u64>,
    schema: Json,
    csv: String,
}

fn parse_fit_body(body: &[u8]) -> Result<FitRequest, ServerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServerError::Protocol("fit body is not UTF-8".into()))?;
    let json = Json::parse(text).map_err(|e| ServerError::Protocol(e.to_string()))?;
    let field = |name: &str| ServerError::Protocol(format!("missing or mistyped `{name}`"));
    let str_field = |name: &str| -> Result<String, ServerError> {
        Ok(json.get(name).and_then(Json::as_str).ok_or_else(|| field(name))?.to_string())
    };
    let opt_number = |name: &str| -> Result<Option<f64>, ServerError> {
        match json.get(name) {
            None => Ok(None),
            Some(v) => Ok(Some(v.as_f64().ok_or_else(|| field(name))?)),
        }
    };
    let opt_usize = |name: &str| -> Result<Option<usize>, ServerError> {
        match json.get(name) {
            None => Ok(None),
            Some(v) => Ok(Some(v.as_usize().ok_or_else(|| field(name))?)),
        }
    };
    // Validate the id *here*, before the caller charges the ledger and
    // runs the fit — a request that can only fail at registration must
    // never spend CPU on the DP mechanism.
    let model_id = str_field("model_id")?;
    crate::registry::validate_id(&model_id)?;
    Ok(FitRequest {
        tenant: str_field("tenant")?,
        model_id,
        method: parse_method(&json)?,
        epsilon: json.get("epsilon").and_then(Json::as_f64).ok_or_else(|| field("epsilon"))?,
        beta: opt_number("beta")?,
        theta: opt_number("theta")?,
        alpha: opt_usize("alpha")?,
        iterations: opt_usize("iterations")?,
        k: opt_usize("k")?,
        seed: match json.get("seed") {
            None => None,
            Some(v) => Some(seed_from_json(v).ok_or_else(|| field("seed"))?),
        },
        schema: json.get("schema").ok_or_else(|| field("schema"))?.clone(),
        csv: str_field("csv")?,
    })
}

/// Decodes the uploaded table and fits it with the requested method.
fn run_fit(shared: &Shared, fit: &FitRequest) -> Result<FittedArtifact, ServerError> {
    let schema = schema_from_json(&fit.schema).map_err(|e| ServerError::Model(e.to_string()))?;
    let data = read_csv(&schema, fit.csv.as_bytes())
        .map_err(|e| ServerError::Model(format!("csv: {e}")))?;
    let defaults = FitSettings::default();
    let settings = FitSettings {
        beta: fit.beta.unwrap_or(defaults.beta),
        theta: fit.theta.unwrap_or(defaults.theta),
        alpha: fit.alpha.unwrap_or(defaults.alpha),
        fixed_k: fit.k.unwrap_or(defaults.fixed_k),
        mwem: privbayes_synth::MwemOptions {
            iterations: fit.iterations.unwrap_or(defaults.mwem.iterations),
            ..defaults.mwem
        },
        threads: shared.config.fit_threads,
        comment: format!("fit via privbayes-server for tenant {}", fit.tenant),
        ..defaults
    };
    let seed = match fit.seed {
        Some(seed) => seed,
        None => StdRng::try_from_rng(&mut rand::rngs::SysRng)
            .map_err(|_| ServerError::Io("entropy source unavailable".into()))?
            .random::<u64>(),
    };
    fit_method(fit.method, &data, fit.epsilon, seed, &settings)
        .map_err(|e| ServerError::Model(e.to_string()))
}

/// A model's public metadata (no conditionals — those are the artifact).
fn model_json(entry: &ModelEntry) -> Json {
    let meta = &entry.artifact.metadata;
    Json::object(vec![
        ("id", Json::String(entry.id.clone())),
        ("generation", Json::from_usize(entry.generation as usize)),
        ("method", Json::String(meta.method.clone())),
        ("attributes", Json::from_usize(entry.artifact.schema.len())),
        ("epsilon", Json::Number(meta.epsilon)),
        ("source_rows", Json::from_usize(meta.source_rows)),
        ("score", Json::String(meta.score.clone())),
        ("encoding", Json::String(meta.encoding.clone())),
    ])
}

fn tenant_json(row: &TenantBudget) -> Json {
    Json::object(vec![
        ("tenant", Json::String(row.tenant.clone())),
        ("total", Json::Number(row.total)),
        ("spent", Json::Number(row.spent)),
        ("remaining", Json::Number(row.remaining())),
    ])
}

/// Writes a complete JSON response. Every response carries the
/// [`API_HEADER`] and the request id (errors included), and records its
/// status on the [`RequestCtx`] so the access log and counters agree with
/// what hit the wire.
fn respond_json(
    out: &mut dyn Write,
    ctx: &RequestCtx<'_>,
    code: u16,
    body: &Json,
) -> std::io::Result<()> {
    let text = body.to_string_compact().expect("response bodies are finite");
    ctx.status.set(code);
    ctx.stage("write");
    write_response(
        out,
        code,
        "application/json",
        &[API_HEADER, (REQUEST_ID_HEADER, &ctx.id)],
        ctx.keep_alive.get(),
        text.as_bytes(),
    )
}

/// Writes a structured error: `{"error": CODE, "message": …}`.
fn respond_error(
    out: &mut dyn Write,
    ctx: &RequestCtx<'_>,
    code: u16,
    error: &str,
    message: &str,
) -> std::io::Result<()> {
    let body = Json::object(vec![
        ("error", Json::String(error.to_string())),
        ("message", Json::String(message.to_string())),
    ]);
    respond_json(out, ctx, code, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use privbayes_data::{Attribute, Dataset, Schema};
    use privbayes_model::schema_to_json;

    fn schema() -> Schema {
        Schema::new(vec![Attribute::binary("a"), Attribute::binary("b"), Attribute::binary("c")])
            .unwrap()
    }

    /// Rows `range` of a deterministic correlated table over [`schema`].
    fn rows(range: std::ops::Range<u32>) -> Dataset {
        let rows: Vec<Vec<u32>> =
            range.map(|i| vec![i % 2, (i / 2) % 2, u32::from(i % 3 == 0)]).collect();
        Dataset::from_rows(schema(), &rows).unwrap()
    }

    fn bind(config: ServerConfig, ledger: Arc<BudgetLedger>) -> Server {
        Server::bind("127.0.0.1:0", config, Arc::new(ModelRegistry::new()), ledger).unwrap()
    }

    /// Rows appended between a job's cut and its fit are fitted, so the
    /// finished refit must cover them: no second job, no second charge.
    #[test]
    fn a_refit_records_the_rows_it_fitted() {
        let ledger = Arc::new(BudgetLedger::in_memory());
        ledger.register("acme", 2.0).unwrap();
        let config = ServerConfig { fit_threads: Some(1), ..ServerConfig::default() };
        let server = bind(config, Arc::clone(&ledger));
        let shared = &*server.shared;
        let spec = RefitSpec {
            model_id: "acme-model".into(),
            method: Method::PrivBayes,
            epsilon: 0.5,
            seed: 9,
        };
        let policy = RefitPolicy { min_rows: 1, max_staleness: None };

        shared.store.append("acme", &rows(0..40), Some(&spec)).unwrap();
        let jobs = shared.store.due_refits(&policy);
        assert_eq!(jobs.len(), 1);
        shared.store.append("acme", &rows(40..70), None).unwrap();
        run_refit(shared, &jobs[0]);

        let entry = shared.registry.get("acme-model").unwrap();
        assert_eq!(entry.artifact.metadata.source_rows, 70);
        assert_eq!(shared.store.snapshot()[0].fitted_rows, 70);
        assert!(shared.store.due_refits(&policy).is_empty(), "every row is fitted");
        assert_eq!(ledger.budget("acme").unwrap().spent, 0.5);
    }

    /// Spawns a server whose ledger grants tenant `acme` ε = 2, and a
    /// client for it.
    fn serve() -> (Arc<DatasetStore>, ServerHandle, Client) {
        let ledger = Arc::new(BudgetLedger::in_memory());
        ledger.register("acme", 2.0).unwrap();
        let server = bind(ServerConfig::default(), ledger);
        let store = server.store();
        let handle = server.spawn();
        let client = Client::new(handle.addr().to_string());
        (store, handle, client)
    }

    /// A seed at or above 2^53, as a decimal string: how `SynthSpec` sends
    /// one.
    fn max_seed() -> Json {
        Json::String(u64::MAX.to_string())
    }

    const CSV: &str = "a,b,c\n0,0,1\n1,0,0\n0,1,0\n1,1,1\n";

    #[test]
    fn ingest_accepts_a_string_seed() {
        let (store, handle, client) = serve();
        let body = Json::object(vec![
            ("schema", schema_to_json(&schema())),
            ("model_id", Json::String("acme-model".into())),
            ("epsilon", Json::Number(0.5)),
            ("seed", max_seed()),
            ("csv", Json::String(CSV.into())),
        ]);
        let response = client.ingest("acme", &body).unwrap();
        assert_eq!(response.code, 200, "{}", response.text());
        assert_eq!(store.snapshot()[0].refit.seed, u64::MAX);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// A charged fit whose table fails to decode refunds its charge in
    /// full and registers no model.
    #[test]
    fn a_failed_fit_refunds_its_charge() {
        let (_, handle, client) = serve();
        let body = Json::object(vec![
            ("tenant", Json::String("acme".into())),
            ("model_id", Json::String("fitted".into())),
            ("epsilon", Json::Number(0.5)),
            ("seed", Json::Number(5.0)),
            ("schema", schema_to_json(&schema())),
            ("csv", Json::String("a,b,c\n0,0,7\n".into())),
        ]);
        let response = client.fit_raw(&body).unwrap();
        assert_eq!(response.code, 400, "{}", response.text());
        assert!(response.text().contains("fit-failed"), "{}", response.text());
        let snapshot = client.metrics().unwrap();
        assert_eq!(snapshot.value("privbayes_fit_seconds_count", &[]), Some(1.0), "the fit ran");
        let tenant = client.tenant("acme").unwrap();
        assert_eq!(tenant.get("spent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(client.request("GET", "/models/fitted", None).unwrap().code, 404);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// `POST /fit` closes one `fit` stage around the fit and the model load,
    /// so its `write` stage times the response alone, far below the fit.
    #[test]
    fn a_posted_fit_closes_one_fit_stage() {
        let (_, handle, client) = serve();
        let mut csv = Vec::new();
        privbayes_data::csv::write_csv(&rows(0..20_000), &mut csv).unwrap();
        let body = Json::object(vec![
            ("tenant", Json::String("acme".into())),
            ("model_id", Json::String("fitted".into())),
            ("epsilon", Json::Number(0.5)),
            ("seed", Json::Number(5.0)),
            ("schema", schema_to_json(&schema())),
            ("csv", Json::String(String::from_utf8(csv).unwrap())),
        ]);
        let response = client.fit_raw(&body).unwrap();
        assert_eq!(response.code, 201, "{}", response.text());
        let snapshot = crate::parse_text(&handle.metrics().render(&[])).unwrap();
        let stage = |series: &str, stage: &str| snapshot.value(series, &[("stage", stage)]);
        assert_eq!(stage("privbayes_stage_seconds_count", "fit"), Some(1.0));
        let fit_stage = stage("privbayes_stage_seconds_sum", "fit").unwrap();
        let write = stage("privbayes_stage_seconds_sum", "write").unwrap();
        let fit = snapshot.value("privbayes_fit_seconds_sum", &[]).unwrap();
        assert!(fit_stage >= fit, "the fit stage ({fit_stage} s) holds the fit ({fit} s)");
        assert!(write * 4.0 < fit, "write stage {write} s against a {fit} s fit");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn fit_accepts_a_string_seed() {
        let (_, handle, client) = serve();
        let body = Json::object(vec![
            ("tenant", Json::String("acme".into())),
            ("model_id", Json::String("fitted".into())),
            ("epsilon", Json::Number(0.5)),
            ("seed", max_seed()),
            ("schema", schema_to_json(&schema())),
            ("csv", Json::String(CSV.into())),
        ]);
        let response = client.fit_raw(&body).unwrap();
        assert_eq!(response.code, 201, "{}", response.text());
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
