//! `privbayes-server`: a concurrent synthesis service over released
//! PrivBayes models.
//!
//! The library crates fit, release, and sample models in-process; this crate
//! turns them into a *system*: a std-only HTTP/1.1 service (no async
//! runtime — a hand-rolled accept loop on [`std::net::TcpListener`] that
//! serves each persistent keep-alive connection on a thread of its own, up
//! to a connection cap) with three pieces:
//!
//! * **Model registry** ([`ModelRegistry`]): released models are loaded
//!   once, their alias-table [`CompiledSampler`]s compiled once, and shared
//!   (via [`std::sync::Arc`]) by every request. Eviction removes a model
//!   from the map without touching requests already streaming from it.
//! * **Budget ledger** ([`BudgetLedger`]): one `privbayes-dp`
//!   [`PrivacyBudget`] per tenant, debited atomically by fit requests and
//!   persisted as checksummed JSON so accounting survives restarts
//!   bit-for-bit. An
//!   over-budget request is rejected with a structured `402` body and no
//!   state change.
//! * **Streaming synthesis**: `POST /v1/models/{id}/synth` takes a typed
//!   [`SynthSpec`] body (evidence-conditioned cohorts, column projection,
//!   cursor-resumable streams) and streams CSV or NDJSON rows with chunked
//!   transfer encoding, one HTTP chunk per sampler chunk;
//!   `POST /v1/models/{id}/query` answers [`MarginalQuery`]s exactly from
//!   the released θ.
//!
//! # The determinism contract
//!
//! A synthesis response is a pure function of `(model, seed, rows, format)`.
//! Rows are generated in the sampler's fixed 1024-row chunk scheme
//! ([`privbayes::CHUNK_ROWS`]), each chunk's RNG stream derived from
//! `(seed, chunk index)` alone, so the streamed bytes are **identical** to
//! the batch `sample_synthetic` path for the same seed — regardless of how
//! many requests are in flight, how many connections the server admits,
//! whether the connection is fresh or reused, or whether the model was
//! evicted and reloaded in between. The registry and ledger never
//! participate in row generation; they only decide *whether* a request
//! runs.
//!
//! [`CompiledSampler`]: privbayes::CompiledSampler
//! [`PrivacyBudget`]: privbayes_dp::PrivacyBudget
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use privbayes_server::{BudgetLedger, Client, ModelRegistry, Server, ServerConfig};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let ledger = Arc::new(BudgetLedger::in_memory());
//! ledger.register("acme", 1.0).unwrap();
//! let server = Server::bind(
//!     "127.0.0.1:0",
//!     ServerConfig::default(),
//!     Arc::clone(&registry),
//!     Arc::clone(&ledger),
//! )
//! .unwrap();
//! let handle = server.spawn();
//!
//! let client = Client::new(handle.addr().to_string());
//! let health = client.health().unwrap();
//! assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

pub mod client;
mod durable;
pub mod error;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
pub mod http;
pub mod ingest;
pub mod ledger;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod stream;

pub use client::{Client, RetryPolicy};
pub use error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{Fault, FaultPlan, FaultSite, FaultStream, PersistStep};
pub use http::{Request, Response};
pub use ingest::{
    parse_batch, BatchFormat, DatasetStore, IngestReceipt, RefitJob, RefitPolicy, RefitSpec,
    TenantIngest, DATASET_FORMAT,
};
pub use ledger::{BudgetLedger, LedgerError, LedgerObserver, TenantBudget, LEDGER_FORMAT_V2};
pub use metrics::{ServerMetrics, REQUEST_ID_HEADER};
pub use registry::{GenerationLookup, ModelEntry, ModelRegistry, RETAINED_GENERATIONS};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use stream::RowFormat;
// The metric-snapshot surface, re-exported so scrape consumers (tests, the
// perf harness) can parse `/metrics` without a separate `privbayes-obs`
// dependency.
pub use privbayes_obs::{parse_text, Snapshot};
// The typed request surface of the query API, re-exported so client code
// can build specs without a separate `privbayes-synth` dependency.
pub use privbayes_synth::{AttrRef, Cursor, MarginalQuery, SpecError, SynthSpec, ValueRef};
