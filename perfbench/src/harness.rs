//! The server under test: an in-process `privbayes_server::Server` on an
//! ephemeral loopback port, reached over HTTP like any client would, plus
//! the `/metrics` exposition the traced run diffs around each operation.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use privbayes_server::{
    parse_text, BudgetLedger, DatasetStore, ModelRegistry, Server, ServerConfig, ServerHandle,
    ServerMetrics, Snapshot,
};

use crate::http::one_shot;

/// The request counter every answered request increments.
pub const REQUESTS: &str = "privbayes_requests_total";

pub struct Harness {
    pub addr: SocketAddr,
    pub registry: Arc<ModelRegistry>,
    pub store: Arc<DatasetStore>,
    ledger: Arc<BudgetLedger>,
    metrics: Arc<ServerMetrics>,
    handle: Option<ServerHandle>,
}

impl Harness {
    /// Binds and spawns a server with `config`.
    pub fn start(config: ServerConfig) -> Result<Self, String> {
        let registry = Arc::new(ModelRegistry::new());
        let ledger = Arc::new(BudgetLedger::in_memory());
        let server =
            Server::bind("127.0.0.1:0", config, Arc::clone(&registry), Arc::clone(&ledger))
                .map_err(|e| format!("bind: {e}"))?;
        let store = server.store();
        let metrics = server.metrics();
        let handle = server.spawn();
        Ok(Self { addr: handle.addr(), registry, store, ledger, metrics, handle: Some(handle) })
    }

    /// The `/metrics` exposition rendered in-process: the text `GET /metrics`
    /// serves, read without adding a request to the measured traffic.
    pub fn scrape(&self) -> Snapshot {
        parse_text(&self.metrics.render(&self.ledger.snapshot()))
            .expect("the server's own exposition parses")
    }

    /// Scrapes once the server has counted `requests` requests. A response's
    /// last byte reaches the client just before the server records the
    /// request, so an immediate scrape could miss it.
    pub fn scrape_after(&self, requests: f64) -> Snapshot {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let snapshot = self.scrape();
            if snapshot.sum(REQUESTS) >= requests || Instant::now() >= deadline {
                return snapshot;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Asks the server to shut down and waits until it has drained and
    /// stopped.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        // Without an acknowledged shutdown request the server keeps running,
        // and joining it would block forever.
        one_shot(self.addr, "POST", "/shutdown", None, &mut Vec::new())
            .map_err(|e| format!("shutdown: {e}"))?;
        handle.join().map(drop).map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// `after − before` of one sample; an absent sample reads 0.
pub fn delta(after: &Snapshot, before: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    after.value(name, labels).unwrap_or(0.0) - before.value(name, labels).unwrap_or(0.0)
}

/// [`delta`] of a seconds-valued sample, in milliseconds.
pub fn delta_ms(after: &Snapshot, before: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    delta(after, before, name, labels) * 1e3
}
