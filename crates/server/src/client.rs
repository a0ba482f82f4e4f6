//! A tiny std-only client for the service — used by the integration tests,
//! the benchmark (`perfbench/`), the `serve_and_query` example, and
//! scripting against a running server.
//!
//! # Connection reuse
//!
//! Idempotent requests issued through [`Client::request_retrying`] (reads,
//! synthesis, queries, model loads) are sent `Connection: keep-alive` and
//! the connection is pooled for the next request, so a request/response
//! ping-pong pays one TCP handshake total instead of one per request. A
//! pooled connection can always have gone stale behind our back (the
//! server's idle deadline, a shutdown, a crashed peer),
//! so a failure on a *reused* connection is retried once on a fresh
//! connection before it counts as a real failure — this costs nothing
//! semantically precisely because only idempotent requests ever reuse.
//! Non-idempotent requests ([`Client::request`] — fits, tenant
//! registration, shutdown) keep the one-connection-per-request
//! `Connection: close` discipline.
//!
//! # Retries
//!
//! With a [`RetryPolicy`] installed ([`Client::with_retry`]), transient
//! failures — connection errors, timeouts, 5xx statuses — are retried with
//! capped exponential backoff and deterministic seeded jitter, honoring a
//! server `Retry-After` hint (still capped by the policy's `max_delay`).
//! **Only idempotent requests are ever retried**: reads, model loads and
//! evictions, synthesis and queries (pure post-processing of a released
//! model). `POST /fit` debits the tenant's ε and `PUT /tenants/{id}`
//! registers exactly once, so neither is ever auto-retried — a lost
//! response would otherwise risk a double spend.
//!
//! An interrupted row stream is not restarted from scratch:
//! [`Client::synth_resuming`] keeps the delivered prefix, counts its
//! complete rows, and re-issues the spec with the stream's cursor advanced,
//! so the assembled bytes are identical to an uninterrupted stream.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use privbayes_model::{Json, ReleasedModel};
use privbayes_obs::Snapshot;
use privbayes_synth::{Cursor, MarginalQuery, RowFormat, SynthSpec};

use crate::error::ServerError;
use crate::http::Response;

/// Connect/read timeout for client sockets.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Backoff schedule for retrying idempotent requests. Delay for retry `i`
/// (0-based) is `base_delay · 2^i`, scaled by a deterministic jitter factor
/// in `[0.5, 1.0)` drawn from `jitter_seed`, raised to any `Retry-After`
/// the server sent, and finally capped at `max_delay` — so a fleet of
/// clients with distinct seeds de-synchronizes its retry storms while each
/// individual client stays exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// First-retry backoff before jitter.
    pub base_delay: Duration,
    /// Hard cap on any single delay, `Retry-After` included.
    pub max_delay: Duration,
    /// Seed for the jitter stream; same seed, same delays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// No retries at all — the default for a plain [`Client::new`].
    #[must_use]
    pub fn none() -> Self {
        Self { max_retries: 0, ..Self::default() }
    }

    /// The backoff before retry `attempt` (0-based), honoring an optional
    /// server `Retry-After` hint.
    #[must_use]
    pub fn delay(&self, attempt: u32, retry_after: Option<Duration>) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let mut state = self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let frac = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = exp.mul_f64(0.5 + frac / 2.0);
        let with_hint = match retry_after {
            Some(hint) => jittered.max(hint),
            None => jittered,
        };
        with_hint.min(self.max_delay)
    }
}

/// The SplitMix64 step — a tiny, dependency-free PRNG good enough for
/// retry jitter, request-id seeds and fault schedules (not for anything
/// DP-related).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One kept-alive connection waiting in the client's pool.
#[derive(Debug)]
struct PooledConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether this connection has already carried a request (a reused
    /// connection gets one free reconnect on failure; a fresh one fails
    /// for real).
    used: bool,
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    retry: RetryPolicy,
    /// The kept-alive connection pool (capacity 1: this client is a
    /// sequential caller; clones share it). Only idempotent requests check
    /// connections in or out.
    pool: Arc<Mutex<Option<PooledConn>>>,
}

impl Client {
    /// A client for `addr` (anything `ToSocketAddrs` accepts as text, e.g.
    /// `127.0.0.1:8321`). Does not retry; see [`Client::with_retry`].
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), retry: RetryPolicy::none(), pool: Arc::new(Mutex::new(None)) }
    }

    /// Installs a retry policy for idempotent requests.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The address this client talks to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request and reads the full response (chunked bodies are
    /// reassembled).
    ///
    /// # Errors
    /// Returns [`ServerError::Io`] on socket failure and
    /// [`ServerError::Protocol`] on malformed response framing. Error
    /// *statuses* are returned as ordinary [`Response`]s — use
    /// [`Client::expect_success`] to convert them.
    pub fn request(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<Response, ServerError> {
        let (response, truncated) = self.request_partial(method, path_and_query, body)?;
        match truncated {
            None => Ok(response),
            Some(e) => Err(e),
        }
    }

    /// Like [`Client::request`], but a body truncated mid-transfer is
    /// returned as the delivered prefix plus the terminating error (see
    /// [`Response::read_partial`]) — the primitive under
    /// [`Client::synth_resuming`]. Always a fresh `Connection: close`
    /// exchange (partial-body recovery and connection reuse don't mix).
    ///
    /// # Errors
    /// Socket failure before the response head, or malformed head framing.
    pub fn request_partial(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<(Response, Option<ServerError>), ServerError> {
        let mut conn = self.connect()?;
        self.exchange(&mut conn, method, path_and_query, body, false)
    }

    /// Opens a fresh connection with the client timeouts and `TCP_NODELAY`.
    fn connect(&self) -> Result<PooledConn, ServerError> {
        // `connect_timeout` needs a resolved address; plain `connect` would
        // block on the OS SYN-retry schedule (minutes) for dead hosts.
        let addr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                ServerError::Io(format!("`{}` resolves to no address", self.addr))
            })?;
        let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        // Requests are small and written in one flush; don't let Nagle
        // delay them behind an unacked previous segment.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(PooledConn { reader: BufReader::new(stream), writer, used: false })
    }

    /// Writes one request on `conn` and reads the full response. `keep`
    /// picks the `Connection` header; whether the connection actually
    /// survives is decided from the *response* (see `checkin`).
    fn exchange(
        &self,
        conn: &mut PooledConn,
        method: &str,
        path_and_query: &str,
        body: Option<(&str, &[u8])>,
        keep: bool,
    ) -> Result<(Response, Option<ServerError>), ServerError> {
        let connection = if keep { "keep-alive" } else { "close" };
        match body {
            Some((content_type, data)) => {
                write!(
                    conn.writer,
                    "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                    self.addr,
                    data.len()
                )?;
                conn.writer.write_all(data)?;
            }
            None => {
                write!(
                    conn.writer,
                    "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\nConnection: {connection}\r\n\r\n",
                    self.addr
                )?;
            }
        }
        conn.writer.flush()?;
        conn.used = true;
        Response::read_partial(&mut conn.reader)
    }

    /// One keep-alive request: reuse the pooled connection when present,
    /// fall back to (and pool) a fresh one. A failure on a *reused*
    /// connection — the server may have idled it out at any moment — is
    /// invisibly retried once on a fresh connection; the caller must
    /// therefore only use this for idempotent requests.
    fn request_pooled(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<(&str, &[u8])>,
    ) -> Result<Response, ServerError> {
        let pooled = self.pool.lock().expect("client pool poisoned").take();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => self.connect()?,
        };
        let reused = conn.used;
        let outcome = self.exchange(&mut conn, method, path_and_query, body, true);
        let outcome = match outcome {
            Err(ServerError::Io(_) | ServerError::Timeout(_) | ServerError::Protocol(_))
                if reused =>
            {
                // Stale pooled connection: rebuild and re-send once.
                conn = self.connect()?;
                self.exchange(&mut conn, method, path_and_query, body, true)
            }
            other => other,
        };
        let (response, truncated) = outcome?;
        match truncated {
            Some(e) => Err(e), // a torn body also tore the framing: no checkin
            None => {
                // The server says whether the connection survives.
                let keep = response
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
                if keep {
                    let mut slot = self.pool.lock().expect("client pool poisoned");
                    if slot.is_none() {
                        *slot = Some(conn);
                    }
                }
                Ok(response)
            }
        }
    }

    /// [`Client::request`] under the retry policy. `idempotent` is the
    /// caller's promise that re-issuing the request cannot double an
    /// effect; non-idempotent requests are never retried regardless of the
    /// failure (so a lost `POST /fit` response cannot double-debit ε).
    /// Idempotent requests are also the ones sent keep-alive over the
    /// pooled connection (reuse *is* an invisible retry on failure, so it
    /// demands the same promise). Retried failures: connection errors,
    /// timeouts, and 5xx statuses (honoring `Retry-After` on a 503).
    ///
    /// # Errors
    /// The last attempt's error once retries are exhausted.
    pub fn request_retrying(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<(&str, &[u8])>,
        idempotent: bool,
    ) -> Result<Response, ServerError> {
        let mut attempt = 0u32;
        loop {
            let result = if idempotent {
                self.request_pooled(method, path_and_query, body)
            } else {
                self.request(method, path_and_query, body)
            };
            let retriable = idempotent
                && attempt < self.retry.max_retries
                && match &result {
                    Ok(response) => response.code >= 500,
                    Err(ServerError::Io(_) | ServerError::Timeout(_)) => true,
                    Err(_) => false,
                };
            if !retriable {
                return result;
            }
            let hint = result.as_ref().ok().and_then(retry_after);
            std::thread::sleep(self.retry.delay(attempt, hint));
            attempt += 1;
        }
    }

    /// Unwraps a 2xx response, converting error statuses into
    /// [`ServerError::Status`].
    ///
    /// # Errors
    /// Returns [`ServerError::Status`] carrying the code and body for any
    /// non-2xx response.
    pub fn expect_success(response: Response) -> Result<Response, ServerError> {
        if (200..300).contains(&response.code) {
            Ok(response)
        } else {
            Err(ServerError::Status { code: response.code, body: response.text() })
        }
    }

    /// `GET /healthz`, parsed.
    ///
    /// # Errors
    /// Socket/protocol errors, or [`ServerError::Status`] on non-2xx.
    pub fn health(&self) -> Result<Json, ServerError> {
        self.get_json("/healthz")
    }

    /// `GET /metrics`, parsed into a typed [`Snapshot`]. Idempotent (a
    /// scrape mutates nothing), so retried under the policy like any read.
    ///
    /// # Errors
    /// Socket errors, [`ServerError::Status`] on non-2xx (404 when the
    /// server runs with metrics disabled), and [`ServerError::Protocol`] if
    /// the exposition text does not parse.
    pub fn metrics(&self) -> Result<Snapshot, ServerError> {
        let response = Self::expect_success(self.request_retrying("GET", "/metrics", None, true)?)?;
        privbayes_obs::parse_text(&response.text()).map_err(ServerError::Protocol)
    }

    /// `GET` returning parsed JSON. Idempotent: retried under the policy.
    ///
    /// # Errors
    /// Socket/protocol errors, [`ServerError::Status`] on non-2xx, and
    /// [`ServerError::Protocol`] if the body is not JSON.
    pub fn get_json(&self, path_and_query: &str) -> Result<Json, ServerError> {
        let response =
            Self::expect_success(self.request_retrying("GET", path_and_query, None, true)?)?;
        Json::parse(&response.text()).map_err(|e| ServerError::Protocol(e.to_string()))
    }

    /// `PUT /models/{id}` with a release artifact.
    ///
    /// # Errors
    /// Serialization, socket, and status errors.
    pub fn load_model(&self, id: &str, artifact: &ReleasedModel) -> Result<Json, ServerError> {
        let text = artifact.to_json_string().map_err(|e| ServerError::Model(e.to_string()))?;
        // PUT of a fixed artifact is idempotent: loading the same model
        // twice converges to the same registry state.
        let response = Self::expect_success(self.request_retrying(
            "PUT",
            &format!("/models/{id}"),
            Some(("application/json", text.as_bytes())),
            true,
        )?)?;
        Json::parse(&response.text()).map_err(|e| ServerError::Protocol(e.to_string()))
    }

    /// `DELETE /models/{id}`.
    ///
    /// # Errors
    /// Socket and status errors (404 if the model is not loaded).
    pub fn evict_model(&self, id: &str) -> Result<(), ServerError> {
        Self::expect_success(self.request("DELETE", &format!("/models/{id}"), None)?)?;
        Ok(())
    }

    /// `POST /v1/models/{id}/synth` with the default spec for `rows`,
    /// `seed` and `format` (`csv` or `jsonl`) — the full streamed body as
    /// text. Idempotent (sampling a released model is deterministic, free
    /// post-processing), so retried under the policy.
    ///
    /// # Errors
    /// [`ServerError::Protocol`] for an unknown format; socket and status
    /// errors.
    pub fn synth(
        &self,
        id: &str,
        rows: usize,
        seed: u64,
        format: &str,
    ) -> Result<String, ServerError> {
        let format =
            RowFormat::parse(Some(format)).map_err(|e| ServerError::Protocol(e.to_string()))?;
        let spec = SynthSpec::new().with_rows(rows).with_seed(seed).with_format(format);
        Ok(self.synth_with(id, &spec)?.text())
    }

    /// `POST /v1/models/{id}/synth` with a typed [`SynthSpec`] — the v1
    /// request-spec route (evidence, projection, cursor resume). Returns the
    /// full [`Response`] so callers can read the body alongside the
    /// `X-PrivBayes-Seed` / `X-PrivBayes-Cursor` headers needed to build a
    /// resume cursor for an interrupted stream.
    ///
    /// # Errors
    /// Socket and status errors (spec-validation failures come back as
    /// [`ServerError::Status`] with code 400 and an `invalid-spec` body).
    pub fn synth_with(&self, id: &str, spec: &SynthSpec) -> Result<Response, ServerError> {
        let text =
            spec.to_json().to_string_compact().map_err(|e| ServerError::Protocol(e.to_string()))?;
        Self::expect_success(self.request_retrying(
            "POST",
            &format!("/v1/models/{id}/synth"),
            Some(("application/json", text.as_bytes())),
            true,
        )?)
    }

    /// `POST /v1/models/{id}/synth` with interruption recovery: an
    /// interrupted stream keeps its delivered prefix and is re-issued with
    /// the cursor advanced past every *complete* row already received, so
    /// the assembled bytes are identical to an uninterrupted stream. The
    /// seed comes from the response's `X-PrivBayes-Seed` header, so this
    /// works even when the spec left the seed to the server. Retries (for
    /// interruptions, connection failures, and 5xx statuses alike) are
    /// bounded by the policy's `max_retries`.
    ///
    /// # Errors
    /// Socket and status errors; the terminating error once retries are
    /// exhausted mid-stream.
    pub fn synth_resuming(&self, id: &str, spec: &SynthSpec) -> Result<String, ServerError> {
        let path = format!("/v1/models/{id}/synth");
        let mut assembled: Vec<u8> = Vec::new();
        // Once the first response head arrives: the server-reported cursor
        // with the row advanced past what we kept. The cursor carries the
        // model generation too, so a resume keeps sampling the generation
        // the stream started on even if a refit swapped in a newer one.
        let mut state: Option<Cursor> = None;
        let mut attempt = 0u32;
        loop {
            let current = match state {
                None => spec.clone(),
                Some(cursor) => spec.clone().with_cursor(cursor),
            };
            let text = current
                .to_json()
                .to_string_compact()
                .map_err(|e| ServerError::Protocol(e.to_string()))?;
            let outcome =
                self.request_partial("POST", &path, Some(("application/json", text.as_bytes())));
            let (response, truncated) = match outcome {
                Ok(pair) => pair,
                Err(e) => {
                    // Connection died before any response head.
                    if attempt >= self.retry.max_retries
                        || !matches!(e, ServerError::Io(_) | ServerError::Timeout(_))
                    {
                        return Err(e);
                    }
                    std::thread::sleep(self.retry.delay(attempt, None));
                    attempt += 1;
                    continue;
                }
            };
            if !(200..300).contains(&response.code) {
                if response.code >= 500 && attempt < self.retry.max_retries {
                    let hint = retry_after(&response);
                    std::thread::sleep(self.retry.delay(attempt, hint));
                    attempt += 1;
                    continue;
                }
                return Err(ServerError::Status { code: response.code, body: response.text() });
            }
            let seed: u64 = response
                .header("x-privbayes-seed")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ServerError::Protocol("stream lacks X-PrivBayes-Seed".into()))?;
            let cursor = response
                .header("x-privbayes-cursor")
                .and_then(|t| Cursor::decode(t).ok())
                .ok_or_else(|| ServerError::Protocol("stream lacks X-PrivBayes-Cursor".into()))?;
            let start_row = cursor.row;
            match truncated {
                None => {
                    assembled.extend_from_slice(&response.body);
                    return Ok(String::from_utf8_lossy(&assembled).into_owned());
                }
                Some(e) => {
                    if attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    // Keep only complete lines; a partial final row is
                    // discarded and regenerated by the resumed stream.
                    let keep = response.body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    let kept = &response.body[..keep];
                    let mut lines = kept.iter().filter(|&&b| b == b'\n').count() as u64;
                    // A stream that started at row 0 leads with the CSV
                    // header line, which is not a data row.
                    let has_header = start_row == 0
                        && response
                            .header("content-type")
                            .is_some_and(|ct| ct.starts_with("text/csv"));
                    if has_header {
                        lines = lines.saturating_sub(1);
                    }
                    assembled.extend_from_slice(kept);
                    state = Some(Cursor { seed, row: start_row + lines, ..cursor });
                    std::thread::sleep(self.retry.delay(attempt, None));
                    attempt += 1;
                }
            }
        }
    }

    /// `POST /v1/models/{id}/query` with a typed [`MarginalQuery`]; returns
    /// the parsed answer (`attrs`, `dims`, row-major `values` — exact
    /// θ-projection of the released model, bit-reproducible for a fixed
    /// model).
    ///
    /// # Errors
    /// Socket/protocol/status errors.
    pub fn query(&self, id: &str, query: &MarginalQuery) -> Result<Json, ServerError> {
        let text = query
            .to_json()
            .to_string_compact()
            .map_err(|e| ServerError::Protocol(e.to_string()))?;
        let response = Self::expect_success(self.request(
            "POST",
            &format!("/v1/models/{id}/query"),
            Some(("application/json", text.as_bytes())),
        )?)?;
        Json::parse(&response.text()).map_err(|e| ServerError::Protocol(e.to_string()))
    }

    /// `PUT /tenants/{tenant}?budget=…`. Never auto-retried: registration
    /// succeeds exactly once (the second attempt would read a confusing
    /// 409 for a request that actually worked).
    ///
    /// # Errors
    /// Socket and status errors (409 if the tenant exists).
    pub fn register_tenant(&self, tenant: &str, budget: f64) -> Result<(), ServerError> {
        Self::expect_success(self.request(
            "PUT",
            &format!("/tenants/{tenant}?budget={budget}"),
            None,
        )?)?;
        Ok(())
    }

    /// `GET /tenants/{tenant}`, parsed.
    ///
    /// # Errors
    /// Socket/protocol/status errors.
    pub fn tenant(&self, tenant: &str) -> Result<Json, ServerError> {
        self.get_json(&format!("/tenants/{tenant}"))
    }

    /// `POST /fit` with a raw JSON body (see the server docs for fields).
    /// Returns the raw [`Response`] so callers can inspect structured 4xx
    /// bodies (budget exhaustion) without error mapping.
    ///
    /// **Never auto-retried**, whatever the policy: a fit debits the
    /// tenant's ε, and a retry after a lost response would spend it twice.
    /// Callers who know their fit is safe to repeat must re-issue it
    /// explicitly.
    ///
    /// # Errors
    /// Socket/protocol errors only; HTTP error statuses come back as
    /// responses.
    pub fn fit_raw(&self, body: &Json) -> Result<Response, ServerError> {
        let text = body.to_string_compact().map_err(|e| ServerError::Protocol(e.to_string()))?;
        self.request("POST", "/fit", Some(("application/json", text.as_bytes())))
    }

    /// `POST /v1/tenants/{tenant}/ingest` with a raw JSON body (schema +
    /// refit target on the first batch, `csv` or `jsonl` rows on every
    /// batch). Returns the raw [`Response`] so callers can inspect
    /// structured 4xx bodies.
    ///
    /// **Never auto-retried**, whatever the policy: an accepted append
    /// mutates the tenant's dataset, and a retry after an ambiguous
    /// timeout could land the same rows twice.
    ///
    /// # Errors
    /// Socket and protocol errors only; HTTP-level failures come back as
    /// the response.
    pub fn ingest(&self, tenant: &str, body: &Json) -> Result<Response, ServerError> {
        let text = body.to_string_compact().map_err(|e| ServerError::Protocol(e.to_string()))?;
        self.request(
            "POST",
            &format!("/v1/tenants/{tenant}/ingest"),
            Some(("application/json", text.as_bytes())),
        )
    }

    /// `GET /v1/models/{id}/generations`: the retained generation chain,
    /// newest first. Idempotent: retried under the policy.
    ///
    /// # Errors
    /// Socket/protocol errors and [`ServerError::Status`] on non-2xx.
    pub fn generations(&self, id: &str) -> Result<Json, ServerError> {
        self.get_json(&format!("/v1/models/{id}/generations"))
    }

    /// `POST /shutdown`.
    ///
    /// # Errors
    /// Socket and status errors.
    pub fn shutdown(&self) -> Result<(), ServerError> {
        Self::expect_success(self.request("POST", "/shutdown", None)?)?;
        Ok(())
    }
}

/// Parses a `Retry-After: <seconds>` response header.
fn retry_after(response: &Response) -> Option<Duration> {
    response
        .header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 0..5 {
            let a = policy.delay(attempt, None);
            let b = policy.delay(attempt, None);
            assert_eq!(a, b, "same seed and attempt, same delay");
            assert!(a <= policy.max_delay);
            let exp = policy.base_delay * (1 << attempt);
            assert!(a >= exp.mul_f64(0.5).min(policy.max_delay), "jitter floor is half the step");
        }
        // Deep attempts saturate at the cap instead of overflowing.
        assert_eq!(policy.delay(40, None), policy.max_delay);
        // Different seeds de-synchronize.
        let other = RetryPolicy { jitter_seed: 99, ..policy };
        assert!((0..8).any(|i| other.delay(i, None) != policy.delay(i, None)));
    }

    #[test]
    fn retry_after_hint_raises_but_never_exceeds_the_cap() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            ..RetryPolicy::default()
        };
        let hinted = policy.delay(0, Some(Duration::from_millis(200)));
        assert!(hinted >= Duration::from_millis(200), "the server hint is honored");
        let huge = policy.delay(0, Some(Duration::from_secs(3600)));
        assert_eq!(huge, policy.max_delay, "but tests never sleep an hour");
    }

    #[test]
    fn retry_after_header_parses() {
        let response = Response {
            code: 503,
            headers: vec![("retry-after".into(), "1".into())],
            body: Vec::new(),
        };
        assert_eq!(retry_after(&response), Some(Duration::from_secs(1)));
        let response = Response { code: 503, headers: vec![], body: Vec::new() };
        assert_eq!(retry_after(&response), None);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut a), "stream advances");
    }
}
