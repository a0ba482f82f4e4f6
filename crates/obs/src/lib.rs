//! Std-only observability primitives for the PrivBayes serving stack.
//!
//! The build environment is offline, so this crate hand-rolls the three
//! things a production DP-release service must be able to answer at any
//! moment — *how many, how long, and what just happened* — without pulling
//! in a metrics framework:
//!
//! - [`Counter`] / [`Gauge`]: single atomics. Recording an event is one
//!   `fetch_add` with relaxed ordering; there is no lock anywhere on the
//!   increment path.
//! - [`Histogram`]: log-bucketed latencies (powers of two over
//!   microseconds). One observation is one atomic bucket increment plus an
//!   atomic sum/count update; p50/p95/p99 are derived from the buckets at
//!   read time, never tracked online.
//! - [`Registry`]: a named, label-aware family store rendering
//!   [Prometheus text exposition format v0.0.4][prom]. Handle lookup takes
//!   an uncontended `RwLock` read; hot loops clone the `Arc` handle once
//!   and then touch only atomics.
//! - [`Span`]: request-scoped stage timing over [`std::time::Instant`]
//!   (monotonic, cheap), feeding per-stage histograms.
//! - [`json_escape`]: string escaping for the structured (JSON-line) access
//!   log the server writes.
//! - [`parse_text`] / [`Snapshot`]: the matching exposition parser, used by
//!   the bundled client (`Client::metrics`), the tests and the benchmark
//!   (`perfbench/`) to assert on counter deltas.
//!
//! Scrapes are coherent per metric (each sample is one atomic load) and
//! monotone for counters: a scrape concurrent with writers can only observe
//! values between the start and end of the scrape, never torn ones.
//!
//! [prom]: https://prometheus.io/docs/instrumenting/exposition_formats/

mod log;
mod metrics;
mod span;

pub use log::json_escape;
pub use metrics::{parse_text, Counter, Gauge, Histogram, MetricKind, Registry, Sample, Snapshot};
pub use span::Span;
