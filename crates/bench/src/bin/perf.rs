//! `perf`: wall-clock benchmark of the hot paths — network learning,
//! synthesis, and the serving layer — emitting machine-readable
//! `BENCH_PR3.json` so future PRs can track the perf trajectory.
//!
//! Two batch workloads cover both engine strategies:
//!
//! * **adult-vanilla** — the quickstart-scale general-domain path (Adult,
//!   Algorithm 4, score `R`): the baseline re-scans rows once per candidate;
//!   the engine memoises joints across rounds.
//! * **nltcs-binary** — the all-binary path (NLTCS, Algorithm 2, score `I`):
//!   the baseline recomputes popcount joints; the engine caches them.
//!
//! Each learning measurement also *asserts* that the engine network is
//! identical to the reference network, so the speedup numbers can never come
//! from silently diverging semantics.
//!
//! The **serve** workload then starts an in-process `privbayes-server` over
//! the Adult model and measures streamed synthesis throughput (rows/sec)
//! at 1, 4, and 8 concurrent clients — asserting first that the streamed
//! CSV is byte-identical to the direct batch sampling path for the same
//! seed, so the throughput numbers can never come from a diverging stream.
//!
//! The **query** workload (PR 5) benches the query API v2 paths over a
//! served NLTCS model (the paper's marginal-workload dataset; its all-binary
//! domains keep θ-projection closures small): `/v1/models/{id}/query` latency
//! (p50/p95 across 1/2/3-way queries, gated on bit-identity with the
//! independent `reference_theta_projection` oracle) and conditional-synth
//! throughput (`/v1` spec with evidence) versus the unconditional stream.
//! Those numbers land in `BENCH_PR5.json`.
//!
//! The **observability** workload (PR 8) scrapes `GET /metrics` before and
//! after a concurrent synth storm, asserts the counter deltas equal the
//! known workload exactly (N requests ⇒ +N on the by-endpoint counter,
//! N·rows on the row counter), micro-times the hot-path primitives, and
//! gates the estimated per-request instrumentation share of mean latency.
//! Those numbers land in `BENCH_PR8.json`.
//!
//! Every BENCH_*.json records the machine's available parallelism, the
//! server worker count, and the quick/full harness mode, so the perf
//! trajectory across PRs never silently compares unlike environments.
//!
//! Usage: `perf [--quick] [--reps N] [--scale F] [--out DIR]`. The JSON is
//! written to `--out` (or the working directory).

use std::sync::Arc;
use std::time::{Duration, Instant};

use privbayes::conditionals::noisy_conditionals_general;
use privbayes::greedy::{greedy_bayes_adaptive, greedy_bayes_fixed_k, GreedySettings};
use privbayes::network::BayesianNetwork;
use privbayes::sampler::sample_synthetic_with_threads;
use privbayes::ScoreKind;
use privbayes_bench::reference::{
    reference_greedy_adaptive, reference_greedy_fixed_k, reference_sample_synthetic,
    reference_theta_projection,
};
use privbayes_bench::HarnessConfig;
use privbayes_data::csv::write_csv;
use privbayes_data::Dataset;
use privbayes_model::{Json, ModelMetadata, ReleasedModel};
use privbayes_server::{
    BudgetLedger, Client, MarginalQuery, ModelRegistry, Server, ServerConfig, SynthSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Best-of-`reps` wall-clock in milliseconds, plus the last result.
fn time_min_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("at least one repetition"))
}

struct Stage {
    name: &'static str,
    baseline_ms: f64,
    engine_ms: f64,
    rows: usize,
}

impl Stage {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.engine_ms
    }

    fn rows_per_sec(&self, ms: f64) -> f64 {
        self.rows as f64 / (ms / 1e3)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"baseline_ms\": {:.2}, \"engine_ms\": {:.2}, ",
                "\"baseline_rows_per_sec\": {:.0}, \"engine_rows_per_sec\": {:.0}, ",
                "\"speedup\": {:.2}}}"
            ),
            self.baseline_ms,
            self.engine_ms,
            self.rows_per_sec(self.baseline_ms),
            self.rows_per_sec(self.engine_ms),
            self.speedup()
        )
    }
}

struct Workload {
    name: &'static str,
    rows: usize,
    attrs: usize,
    stages: Vec<Stage>,
}

/// Times one workload: baseline vs engine learning (asserting the networks
/// are identical so speedups can never come from diverging semantics), then
/// baseline vs engine synthesis from the same noisy model. Seeds are derived
/// from `seed_base` so the two learners consume identical RNG streams.
fn measure_workload(
    name: &'static str,
    cfg: &HarnessConfig,
    data: &Dataset,
    eps2: f64,
    seed_base: u64,
    reference_learn: impl Fn(&mut StdRng) -> BayesianNetwork,
    engine_learn: impl Fn(&mut StdRng) -> BayesianNetwork,
) -> Workload {
    let n = data.n();
    let (baseline_ms, baseline_net) =
        time_min_ms(cfg.reps, || reference_learn(&mut StdRng::seed_from_u64(seed_base)));
    let (engine_ms, net) =
        time_min_ms(cfg.reps, || engine_learn(&mut StdRng::seed_from_u64(seed_base)));
    assert_eq!(net, baseline_net, "engine must reproduce the reference network bit-for-bit");
    let learn = Stage { name: "network_learning", baseline_ms, engine_ms, rows: n };

    let model = noisy_conditionals_general(
        data,
        &net,
        Some(eps2),
        &mut StdRng::seed_from_u64(seed_base + 1),
    )
    .unwrap();
    let (baseline_ms, _) = time_min_ms(cfg.reps, || {
        reference_sample_synthetic(
            &model,
            data.schema(),
            n,
            &mut StdRng::seed_from_u64(seed_base + 2),
        )
        .unwrap()
    });
    let (engine_ms, _) = time_min_ms(cfg.reps, || {
        sample_synthetic_with_threads(
            &model,
            data.schema(),
            n,
            None,
            &mut StdRng::seed_from_u64(seed_base + 2),
        )
        .unwrap()
    });
    let synth = Stage { name: "synthesis", baseline_ms, engine_ms, rows: n };

    Workload { name, rows: n, attrs: data.d(), stages: vec![learn, synth] }
}

/// Adult under the vanilla encoding (Algorithm 4 + score R): the paper's
/// general-domain configuration and the quickstart default.
fn run_adult(cfg: &HarnessConfig) -> Workload {
    let data = privbayes_datasets::adult::adult_sized(7, cfg.scaled(45_222)).data;
    let (theta, eps1, eps2) = (4.0, 0.3, 0.7);
    let settings = GreedySettings::private(ScoreKind::R, eps1).with_max_degree(4);
    measure_workload(
        "adult-vanilla",
        cfg,
        &data,
        eps2,
        42,
        |rng| reference_greedy_adaptive(&data, theta, eps2, false, &settings, rng).unwrap(),
        |rng| greedy_bayes_adaptive(&data, theta, eps2, false, &settings, rng).unwrap(),
    )
}

/// NLTCS under the binary encoding (Algorithm 2, fixed k = 3, score I): the
/// all-binary popcount configuration.
fn run_nltcs(cfg: &HarnessConfig) -> Workload {
    let data = privbayes_datasets::nltcs::nltcs_sized(8, cfg.scaled(21_574)).data;
    let (k, eps1, eps2) = (3, 0.3, 0.7);
    let settings = GreedySettings::private(ScoreKind::MutualInformation, eps1);
    measure_workload(
        "nltcs-binary",
        cfg,
        &data,
        eps2,
        52,
        |rng| reference_greedy_fixed_k(&data, k, &settings, rng).unwrap(),
        |rng| greedy_bayes_fixed_k(&data, k, &settings, rng).unwrap(),
    )
}

/// Serve-path throughput at one concurrency level.
struct ServePoint {
    clients: usize,
    requests_per_client: usize,
    rows_per_request: usize,
    rows_per_sec: f64,
}

/// Measured serve-path results.
struct ServeBench {
    model_rows: usize,
    attrs: usize,
    points: Vec<ServePoint>,
}

/// Fits the Adult serving model once; shared by the serve-throughput and
/// overload workloads so the (expensive) fit is not repeated.
fn fit_adult_artifact(cfg: &HarnessConfig) -> (Dataset, ReleasedModel) {
    let data = privbayes_datasets::adult::adult_sized(7, cfg.scaled(45_222)).data;
    let settings = GreedySettings::private(ScoreKind::R, 0.3).with_max_degree(4);
    let mut rng = StdRng::seed_from_u64(1042);
    let net = greedy_bayes_adaptive(&data, 4.0, 0.7, false, &settings, &mut rng).unwrap();
    let model = noisy_conditionals_general(&data, &net, Some(0.7), &mut rng).unwrap();
    let artifact = ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 1.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: data.n(),
            comment: "perf serve workload".into(),
        },
        data.schema().clone(),
        model,
    )
    .unwrap();
    (data, artifact)
}

/// Starts an in-process server over a model fit on Adult and measures
/// streamed-synthesis throughput at 1/4/8 concurrent clients. Before
/// timing, asserts the streamed CSV equals the direct batch path byte for
/// byte — the serving layer must add overhead only, never divergence.
fn run_serve(cfg: &HarnessConfig, data: &Dataset, artifact: &ReleasedModel) -> ServeBench {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("adult", artifact.clone()).unwrap();
    let entry = registry.get("adult").unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: None, ..ServerConfig::default() },
        Arc::clone(&registry),
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());

    // Correctness gate: the streamed body must be byte-identical to the
    // direct batch path for the same seed.
    let check_rows = 3000.min(data.n());
    let streamed = client.synth("adult", check_rows, 7, "csv").unwrap();
    let direct = entry
        .sampler()
        .unwrap()
        .sample_dataset(check_rows, None, &mut StdRng::seed_from_u64(7))
        .unwrap();
    let mut expected = Vec::new();
    write_csv(&direct, &mut expected).unwrap();
    assert_eq!(
        streamed.as_bytes(),
        &expected[..],
        "served stream must match the batch sampler byte-for-byte"
    );

    let rows_per_request = if cfg.quick { 5_000 } else { 20_000 };
    let requests_per_client = if cfg.quick { 2 } else { 4 };
    let mut points = Vec::new();
    for clients in [1usize, 4, 8] {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let client = Client::new(handle.addr().to_string());
                scope.spawn(move || {
                    for r in 0..requests_per_client {
                        let seed = (c * requests_per_client + r) as u64;
                        let body = client.synth("adult", rows_per_request, seed, "csv").unwrap();
                        assert_eq!(body.lines().count(), rows_per_request + 1);
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let total_rows = clients * requests_per_client * rows_per_request;
        points.push(ServePoint {
            clients,
            requests_per_client,
            rows_per_request,
            rows_per_sec: total_rows as f64 / secs,
        });
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
    ServeBench { model_rows: data.n(), attrs: data.d(), points }
}

/// Measured behavior at 2× the connection cap: latency of the accepted
/// requests and the 503 rejection rate.
struct OverloadBench {
    workers: usize,
    clients: usize,
    requests: usize,
    ok: usize,
    rejected_503: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives a deliberately small connection cap (6) with twice that many
/// concurrent clients, none of them retrying: the accepted requests must
/// stream correctly (counted + latency-profiled) and every overflow
/// connection must get an immediate 503 carrying a `Retry-After` hint —
/// graceful degradation, not collapse.
fn run_overload(cfg: &HarnessConfig, artifact: &ReleasedModel) -> OverloadBench {
    let workers = 6usize;
    let clients = 2 * workers;
    let requests_per_client = if cfg.quick { 2 } else { 4 };
    let rows_per_request = if cfg.quick { 2_000 } else { 8_000 };

    let registry = Arc::new(ModelRegistry::new());
    registry.load("adult", artifact.clone()).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers, fit_threads: Some(1), ..ServerConfig::default() },
        registry,
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let handle = server.spawn();

    // (status, latency) per request, across all clients.
    let outcomes: Vec<(u16, f64, bool)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let client = Client::new(handle.addr().to_string());
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(requests_per_client);
                    for r in 0..requests_per_client {
                        let seed = (c * requests_per_client + r) as u64;
                        let spec = SynthSpec::new().with_rows(rows_per_request).with_seed(seed);
                        let body = spec.to_json().to_string_compact().unwrap();
                        let start = Instant::now();
                        let response = client
                            .request(
                                "POST",
                                "/v1/models/adult/synth",
                                Some(("application/json", body.as_bytes())),
                            )
                            .unwrap();
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        let has_retry_after = response.header("retry-after").is_some();
                        if response.code == 200 {
                            assert_eq!(
                                response.text().lines().count(),
                                rows_per_request + 1,
                                "accepted streams must be complete under overload"
                            );
                        }
                        local.push((response.code, ms, has_retry_after));
                    }
                    local
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });

    let client = Client::new(handle.addr().to_string());
    client.shutdown().unwrap();
    let stats = handle.join().unwrap();

    let ok = outcomes.iter().filter(|(code, _, _)| *code == 200).count();
    let rejected = outcomes.iter().filter(|(code, _, _)| *code == 503).count();
    assert_eq!(ok + rejected, outcomes.len(), "every request is served or rejected cleanly");
    for (code, _, has_retry_after) in &outcomes {
        if *code == 503 {
            assert!(has_retry_after, "every 503 must carry a Retry-After hint");
        }
    }
    assert_eq!(stats.queue_rejected as usize, rejected, "rejections must be counted");

    let mut accepted_ms: Vec<f64> =
        outcomes.iter().filter(|(code, _, _)| *code == 200).map(|&(_, ms, _)| ms).collect();
    accepted_ms.sort_by(f64::total_cmp);
    let percentile = |p: f64| -> f64 {
        if accepted_ms.is_empty() {
            return f64::NAN;
        }
        accepted_ms[((accepted_ms.len() as f64 - 1.0) * p).round() as usize]
    };
    OverloadBench {
        workers,
        clients,
        requests: outcomes.len(),
        ok,
        rejected_503: rejected,
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
    }
}

/// Query API v2 measurements over a served model.
struct QueryBench {
    /// Number of marginal queries timed (across the arity mix).
    marginal_requests: usize,
    marginal_p50_ms: f64,
    marginal_p95_ms: f64,
    /// Streamed rows/sec for the default (unconditional) `/v1` spec.
    unconditional_rows_per_sec: f64,
    /// Streamed rows/sec with one root-evidence clamp (exact mode).
    conditional_rows_per_sec: f64,
    rows_per_request: usize,
}

/// Starts an in-process server over a model fit on NLTCS — the paper's
/// marginal-workload dataset, whose all-binary domains keep θ-projection
/// closures small — and measures the query-path latency and
/// conditional-synth throughput. Before timing, asserts that every
/// `/v1/query` answer is bit-identical to the independent
/// `reference_theta_projection` oracle — latency numbers must never come
/// from a diverging answer.
fn run_query(cfg: &HarnessConfig) -> QueryBench {
    let data = privbayes_datasets::nltcs::nltcs_sized(8, cfg.scaled(21_574)).data;
    let settings = GreedySettings::private(ScoreKind::MutualInformation, 0.3);
    let mut rng = StdRng::seed_from_u64(2042);
    let net = greedy_bayes_fixed_k(&data, 3, &settings, &mut rng).unwrap();
    let model = noisy_conditionals_general(&data, &net, Some(0.7), &mut rng).unwrap();
    let artifact = ReleasedModel::new(
        ModelMetadata {
            method: "privbayes-k".into(),
            epsilon: 1.0,
            beta: 0.3,
            theta: 4.0,
            score: "I".into(),
            encoding: "binary".into(),
            source_rows: data.n(),
            comment: "perf query workload".into(),
        },
        data.schema().clone(),
        model.clone(),
    )
    .unwrap();

    let registry = Arc::new(ModelRegistry::new());
    registry.load("nltcs", artifact).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: None, ..ServerConfig::default() },
        Arc::clone(&registry),
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());

    // A 1/2/3-way query mix over the first attributes.
    let queries: Vec<Vec<usize>> = vec![vec![0], vec![1, 0], vec![2, 1], vec![0, 1, 2]];

    // Correctness gate: served answers must be bit-identical to the oracle.
    for attrs in &queries {
        let mut q = MarginalQuery::new();
        for &a in attrs {
            q = q.over(data.schema().attribute(a).name());
        }
        let answer = client.query("nltcs", &q).unwrap();
        let served: Vec<f64> = answer
            .get("values")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        let oracle = reference_theta_projection(&model, data.schema(), attrs);
        assert_eq!(served.len(), oracle.values().len(), "attrs {attrs:?}");
        for (i, (a, b)) in served.iter().zip(oracle.values()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "served /v1/query must be bit-identical to the oracle (attrs {attrs:?}, cell {i})"
            );
        }
    }

    // Marginal latency distribution across the mix.
    let rounds = if cfg.quick { 10 } else { 40 };
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(rounds * queries.len());
    for _ in 0..rounds {
        for attrs in &queries {
            let mut q = MarginalQuery::new();
            for &a in attrs {
                q = q.over(data.schema().attribute(a).name());
            }
            let start = Instant::now();
            let _ = client.query("nltcs", &q).unwrap();
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    let percentile = |p: f64| -> f64 {
        let idx = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[idx]
    };

    // Conditional vs unconditional streamed throughput. Evidence on the
    // first attribute's first value (a root or near-root clamp on Adult).
    let rows_per_request = if cfg.quick { 5_000 } else { 20_000 };
    let requests = if cfg.quick { 2 } else { 4 };
    let evidence_attr = data.schema().attribute(0).name().to_string();
    let throughput = |spec_for: &dyn Fn(u64) -> SynthSpec| -> f64 {
        let start = Instant::now();
        for r in 0..requests {
            let body = client.synth_with("nltcs", &spec_for(r as u64)).unwrap();
            assert!(!body.body.is_empty());
        }
        (requests * rows_per_request) as f64 / start.elapsed().as_secs_f64()
    };
    let unconditional =
        throughput(&|seed| SynthSpec::new().with_rows(rows_per_request).with_seed(seed));
    let conditional = throughput(&|seed| {
        SynthSpec::new()
            .with_rows(rows_per_request)
            .with_seed(seed)
            .where_eq(evidence_attr.as_str(), 0u32)
    });

    client.shutdown().unwrap();
    handle.join().unwrap();
    QueryBench {
        marginal_requests: latencies_ms.len(),
        marginal_p50_ms: percentile(0.50),
        marginal_p95_ms: percentile(0.95),
        unconditional_rows_per_sec: unconditional,
        conditional_rows_per_sec: conditional,
        rows_per_request,
    }
}

/// PR 8 observability measurements: scrape-delta conformance around a known
/// workload plus the instrumentation overhead gate.
struct ObsBench {
    clients: usize,
    requests: usize,
    rows_per_request: usize,
    rows_per_sec: f64,
    delta_synth_200: f64,
    delta_rows_streamed: f64,
    delta_bytes_streamed: f64,
    counter_inc_ns: f64,
    histogram_observe_ns: f64,
    mean_request_ms: f64,
    overhead_percent: f64,
}

/// The overhead gate: per-request instrumentation cost (estimated from
/// measured per-event atomic costs times the events a request performs) must
/// stay under this share of the measured mean request latency.
const OBS_OVERHEAD_GATE_PERCENT: f64 = 1.0;

/// Scrapes `/metrics` before and after a concurrent synth storm and checks
/// the counter deltas against the known workload exactly — N requests must
/// move the by-endpoint counter by N and the row counter by N·rows. Then
/// micro-times the two hot-path primitives (relaxed counter add, histogram
/// observe) on real registry handles and gates their estimated per-request
/// share against [`OBS_OVERHEAD_GATE_PERCENT`].
fn run_observability(cfg: &HarnessConfig, artifact: &ReleasedModel) -> ObsBench {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("adult", artifact.clone()).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: None, ..ServerConfig::default() },
        registry,
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let metrics = server.metrics();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());

    let rows_per_request = if cfg.quick { 5_000 } else { 20_000 };
    let requests_per_client = if cfg.quick { 2 } else { 4 };
    let clients = 4usize;

    let before = client.metrics().unwrap();
    let start = Instant::now();
    let latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let client = Client::new(handle.addr().to_string());
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(requests_per_client);
                    for r in 0..requests_per_client {
                        let seed = (c * requests_per_client + r) as u64;
                        let t = Instant::now();
                        let body = client.synth("adult", rows_per_request, seed, "csv").unwrap();
                        local.push(t.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(body.lines().count(), rows_per_request + 1);
                    }
                    local
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let total_requests = clients * requests_per_client;
    // A request is counted just *after* its bytes reach the wire, so the
    // last client can return a beat before the last increment lands; let
    // the registry settle before the closing scrape.
    let synth_200 = metrics
        .registry()
        .counter("privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")]);
    let expected = before
        .value("privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")])
        .unwrap_or(0.0) as u64
        + total_requests as u64;
    for _ in 0..400 {
        if synth_200.get() >= expected {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = client.metrics().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    let delta = |name: &str, labels: &[(&str, &str)]| -> f64 {
        after.value(name, labels).unwrap_or(0.0) - before.value(name, labels).unwrap_or(0.0)
    };
    let delta_synth_200 =
        delta("privbayes_requests_total", &[("endpoint", "synth"), ("status", "200")]);
    assert_eq!(
        delta_synth_200 as usize, total_requests,
        "N synth requests must move the synth/200 counter by exactly N"
    );
    let delta_rows_streamed = delta("privbayes_rows_streamed_total", &[]);
    assert_eq!(
        delta_rows_streamed as usize,
        total_requests * rows_per_request,
        "the row counter must move by exactly the streamed rows"
    );
    let delta_bytes_streamed = delta("privbayes_bytes_streamed_total", &[]);
    assert!(delta_bytes_streamed > 0.0, "byte counter must move");

    // Per-event cost of the two hot-path primitives, measured on the
    // server's own (now idle) registry handles.
    let iters = 1_000_000u64;
    let counter = metrics.registry().counter("privbayes_rows_streamed_total", &[]);
    let t = Instant::now();
    for _ in 0..iters {
        counter.add(1);
    }
    let counter_inc_ns = t.elapsed().as_nanos() as f64 / iters as f64;
    let histogram = metrics.registry().histogram("privbayes_fit_seconds", &[]);
    let t = Instant::now();
    for i in 0..iters {
        histogram.observe_ns(i);
    }
    let histogram_observe_ns = t.elapsed().as_nanos() as f64 / iters as f64;

    // A streamed request performs ~6 counter-style and ~7 histogram-style
    // events end to end (per-chunk work accumulates locally and lands as
    // one add). Gate that share of the measured mean latency.
    let instrumentation_ns = 6.0 * counter_inc_ns + 7.0 * histogram_observe_ns;
    let mean_request_ms = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
    let overhead_percent = instrumentation_ns / (mean_request_ms * 1e6) * 100.0;
    assert!(
        overhead_percent < OBS_OVERHEAD_GATE_PERCENT,
        "instrumentation overhead {overhead_percent:.4}% breaches the \
         {OBS_OVERHEAD_GATE_PERCENT}% gate"
    );

    ObsBench {
        clients,
        requests: total_requests,
        rows_per_request,
        rows_per_sec: (total_requests * rows_per_request) as f64 / secs,
        delta_synth_200,
        delta_rows_streamed,
        delta_bytes_streamed,
        counter_inc_ns,
        histogram_observe_ns,
        mean_request_ms,
        overhead_percent,
    }
}

struct IngestBench {
    rows: usize,
    batches: usize,
    batch_rows: usize,
    /// Accepted rows/s through journaled `POST /v1/tenants/{t}/ingest`
    /// (CSV parse + schema validation + write-temp/fsync/rename included).
    ingest_rows_per_sec: f64,
    /// Fit over the long-lived appended engine, cache warm from the
    /// previous generation — what a background refit actually costs.
    warm_refit_ms: f64,
    /// Fresh engine + fit from scratch over the same rows — what a
    /// restart-and-refit-cold deployment would pay per generation.
    cold_fit_ms: f64,
    /// `cold_fit / warm_refit`.
    refit_speedup: f64,
}

/// Drives the online-ingestion path end to end: journaled ingest batches
/// over a live server (timing accepted rows/s with every fsync on the
/// path), then a refit over the long-lived appended engine against a
/// from-scratch cold fit of the same rows — asserting first that the two
/// artifacts serialise **bit-identically**, so the refit speedup can never
/// come from diverging semantics.
fn run_ingestion(cfg: &HarnessConfig, data: &Dataset) -> IngestBench {
    let dir = std::env::temp_dir().join(format!("privbayes-perf-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create ingest journal dir");

    // The refit policy stays disabled so the timed loop measures ingest
    // alone; the refit cost is measured separately below.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { data_dir: Some(dir.clone()), ..ServerConfig::default() },
        Arc::new(ModelRegistry::new()),
        Arc::new(BudgetLedger::in_memory()),
    )
    .expect("bind ingest server");
    let store = server.store();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());

    let n = data.n();
    let batches = 16usize;
    let batch_rows = n.div_ceil(batches);
    let mut bodies: Vec<Json> = Vec::new();
    for (index, start) in (0..n).step_by(batch_rows).enumerate() {
        let rows: Vec<usize> = (start..(start + batch_rows).min(n)).collect();
        let mut csv = Vec::new();
        write_csv(&data.select_rows(&rows), &mut csv).expect("render batch CSV");
        let csv = Json::String(String::from_utf8(csv).expect("CSV is UTF-8"));
        bodies.push(if index == 0 {
            Json::object(vec![
                ("schema", privbayes_model::schema_to_json(data.schema())),
                ("model_id", Json::String("adult-inc".into())),
                ("epsilon", Json::Number(1.0)),
                ("seed", Json::Number(4242.0)),
                ("csv", csv),
            ])
        } else {
            Json::object(vec![("csv", csv)])
        });
    }
    let start = Instant::now();
    for body in &bodies {
        let response = client.ingest("acme", body).expect("ingest batch");
        assert_eq!(response.code, 200, "{}", response.text());
    }
    let ingest_secs = start.elapsed().as_secs_f64();
    client.shutdown().expect("shutdown ingest server");
    handle.join().expect("join ingest server");

    // Generation 1 warms the engine cache (untimed), then warm-vs-cold.
    let settings = privbayes_synth::FitSettings::default();
    let refit = |engine: &privbayes_marginals::CountEngine| {
        privbayes_synth::fit_method_with_engine(
            privbayes_synth::Method::PrivBayes,
            engine,
            1.0,
            4242,
            &settings,
        )
        .expect("refit over appended engine")
    };
    let _generation1 = store.with_engine("acme", refit).expect("tenant exists");
    let (warm_refit_ms, warm) =
        time_min_ms(cfg.reps, || store.with_engine("acme", refit).expect("tenant exists"));
    let (cold_fit_ms, cold) = time_min_ms(cfg.reps, || {
        privbayes_synth::fit_method(privbayes_synth::Method::PrivBayes, data, 1.0, 4242, &settings)
            .expect("cold fit")
    });
    assert_eq!(
        warm.artifact.to_json_string().unwrap(),
        cold.artifact.to_json_string().unwrap(),
        "a refit over the appended engine must serialise bit-identically to a cold fit"
    );
    let _ = std::fs::remove_dir_all(&dir);

    IngestBench {
        rows: n,
        batches: bodies.len(),
        batch_rows,
        ingest_rows_per_sec: n as f64 / ingest_secs,
        warm_refit_ms,
        cold_fit_ms,
        refit_speedup: cold_fit_ms / warm_refit_ms,
    }
}

/// The common environment stanza every BENCH_*.json carries: harness mode,
/// the machine's available parallelism, and the server connection cap
/// (`ServerConfig::workers`) the scenario ran with.
fn env_json(cfg: &HarnessConfig, workers: usize) -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    format!(
        "\"quick\": {}, \"mode\": \"{}\", \"available_parallelism\": {}, \"workers\": {}",
        cfg.quick,
        if cfg.quick { "quick" } else { "full" },
        threads,
        workers
    )
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let workloads = vec![run_adult(&cfg), run_nltcs(&cfg)];
    let (adult_data, adult_artifact) = fit_adult_artifact(&cfg);
    let serve = run_serve(&cfg, &adult_data, &adult_artifact);
    let overload = run_overload(&cfg, &adult_artifact);
    let query = run_query(&cfg);
    let obs = run_observability(&cfg, &adult_artifact);
    let ingest = run_ingestion(&cfg, &adult_data);

    for w in &workloads {
        println!("== {} (n = {}, d = {}) ==", w.name, w.rows, w.attrs);
        for s in &w.stages {
            println!(
                "  {:<17} baseline {:>9.1} ms | engine {:>9.1} ms | {:>5.1}x | {:>9.0} rows/s",
                s.name,
                s.baseline_ms,
                s.engine_ms,
                s.speedup(),
                s.rows_per_sec(s.engine_ms),
            );
        }
    }

    println!("== serve (model: adult, n = {}, d = {}) ==", serve.model_rows, serve.attrs);
    for p in &serve.points {
        println!(
            "  {} client(s) x {} req x {} rows   {:>9.0} rows/s",
            p.clients, p.requests_per_client, p.rows_per_request, p.rows_per_sec,
        );
    }

    println!("== overload (cap {} connections, {} clients) ==", overload.workers, overload.clients);
    println!(
        "  {} requests: {} ok, {} rejected 503 | accepted p50 {:>7.1} ms | p99 {:>7.1} ms",
        overload.requests, overload.ok, overload.rejected_503, overload.p50_ms, overload.p99_ms,
    );

    println!("== query API v2 (model: nltcs) ==");
    println!(
        "  marginal /v1/query      p50 {:>7.2} ms | p95 {:>7.2} ms  ({} requests)",
        query.marginal_p50_ms, query.marginal_p95_ms, query.marginal_requests,
    );
    println!(
        "  synth throughput        unconditional {:>9.0} rows/s | conditional {:>9.0} rows/s",
        query.unconditional_rows_per_sec, query.conditional_rows_per_sec,
    );

    println!(
        "== observability ({} clients x {} req x {} rows) ==",
        obs.clients,
        obs.requests / obs.clients,
        obs.rows_per_request
    );
    println!(
        "  scrape deltas           synth/200 {:>4.0} | rows {:>9.0} | bytes {:>11.0}",
        obs.delta_synth_200, obs.delta_rows_streamed, obs.delta_bytes_streamed,
    );
    println!(
        "  hot-path cost           counter {:.1} ns | histogram {:.1} ns | overhead {:.5}% of \
         {:.1} ms mean (gate {OBS_OVERHEAD_GATE_PERCENT}%)",
        obs.counter_inc_ns, obs.histogram_observe_ns, obs.overhead_percent, obs.mean_request_ms,
    );

    println!(
        "== ingestion ({} rows in {} batches of {}) ==",
        ingest.rows, ingest.batches, ingest.batch_rows
    );
    println!(
        "  journaled ingest {:>9.0} rows/s | warm refit {:>8.1} ms | cold fit {:>8.1} ms \
         ({:.2}x)",
        ingest.ingest_rows_per_sec, ingest.warm_refit_ms, ingest.cold_fit_ms, ingest.refit_speedup,
    );

    let workload_json: Vec<String> = workloads
        .iter()
        .map(|w| {
            let stages: Vec<String> =
                w.stages.iter().map(|s| format!("\"{}\": {}", s.name, s.json())).collect();
            format!(
                "    {{\"name\": \"{}\", \"rows\": {}, \"attrs\": {}, {}}}",
                w.name,
                w.rows,
                w.attrs,
                stages.join(", ")
            )
        })
        .collect();
    let serve_points: Vec<String> = serve
        .points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "      {{\"clients\": {}, \"requests_per_client\": {}, ",
                    "\"rows_per_request\": {}, \"rows_per_sec\": {:.0}}}"
                ),
                p.clients, p.requests_per_client, p.rows_per_request, p.rows_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"pr\": 3,\n  {},\n  \"reps\": {},\n  \"threads\": {},\n  \"workloads\": [\n{}\n  ],\n  \"serve\": {{\n    \"model_rows\": {},\n    \"attrs\": {},\n    \"format\": \"csv\",\n    \"points\": [\n{}\n    ]\n  }}\n}}\n",
        env_json(&cfg, ServerConfig::default().workers),
        cfg.reps,
        threads,
        workload_json.join(",\n"),
        serve.model_rows,
        serve.attrs,
        serve_points.join(",\n")
    );

    let out_path = |name: &str| -> std::path::PathBuf {
        let path =
            cfg.out_dir.clone().map_or_else(|| std::path::PathBuf::from(name), |d| d.join(name));
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        path
    };
    let path = out_path("BENCH_PR3.json");
    std::fs::write(&path, json).expect("write BENCH_PR3.json");
    println!("wrote {}", path.display());

    let query_json = format!(
        concat!(
            "{{\n  \"pr\": 5,\n  {},\n  \"threads\": {},\n",
            "  \"marginal_query\": {{\"requests\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}}},\n",
            "  \"synth_throughput\": {{\"rows_per_request\": {}, ",
            "\"unconditional_rows_per_sec\": {:.0}, \"conditional_rows_per_sec\": {:.0}}}\n}}\n"
        ),
        env_json(&cfg, ServerConfig::default().workers),
        threads,
        query.marginal_requests,
        query.marginal_p50_ms,
        query.marginal_p95_ms,
        query.rows_per_request,
        query.unconditional_rows_per_sec,
        query.conditional_rows_per_sec,
    );
    let path = out_path("BENCH_PR5.json");
    std::fs::write(&path, query_json).expect("write BENCH_PR5.json");
    println!("wrote {}", path.display());

    let overload_json = format!(
        concat!(
            "{{\n  \"pr\": 7,\n  {},\n  \"threads\": {},\n",
            "  \"overload\": {{\"workers\": {}, \"clients\": {}, ",
            "\"requests\": {}, \"ok\": {}, \"rejected_503\": {}, ",
            "\"accepted_p50_ms\": {:.2}, \"accepted_p99_ms\": {:.2}}}\n}}\n"
        ),
        env_json(&cfg, overload.workers),
        threads,
        overload.workers,
        overload.clients,
        overload.requests,
        overload.ok,
        overload.rejected_503,
        overload.p50_ms,
        overload.p99_ms,
    );
    let path = out_path("BENCH_PR7.json");
    std::fs::write(&path, overload_json).expect("write BENCH_PR7.json");
    println!("wrote {}", path.display());

    let obs_json = format!(
        concat!(
            "{{\n  \"pr\": 8,\n  {},\n  \"threads\": {},\n",
            "  \"workload\": {{\"clients\": {}, \"requests\": {}, \"rows_per_request\": {}, ",
            "\"rows_per_sec\": {:.0}}},\n",
            "  \"scrape_deltas\": {{\"requests_synth_200\": {:.0}, \"rows_streamed\": {:.0}, ",
            "\"bytes_streamed\": {:.0}}},\n",
            "  \"overhead\": {{\"counter_inc_ns\": {:.2}, \"histogram_observe_ns\": {:.2}, ",
            "\"mean_request_ms\": {:.3}, \"overhead_percent\": {:.6}, ",
            "\"gate_percent\": {}, \"pass\": true}}\n}}\n"
        ),
        env_json(&cfg, ServerConfig::default().workers),
        threads,
        obs.clients,
        obs.requests,
        obs.rows_per_request,
        obs.rows_per_sec,
        obs.delta_synth_200,
        obs.delta_rows_streamed,
        obs.delta_bytes_streamed,
        obs.counter_inc_ns,
        obs.histogram_observe_ns,
        obs.mean_request_ms,
        obs.overhead_percent,
        OBS_OVERHEAD_GATE_PERCENT,
    );
    let path = out_path("BENCH_PR8.json");
    std::fs::write(&path, obs_json).expect("write BENCH_PR8.json");
    println!("wrote {}", path.display());

    let ingest_json = format!(
        concat!(
            "{{\n  \"pr\": 10,\n  {},\n",
            "  \"ingest\": {{\"rows\": {}, \"batches\": {}, \"batch_rows\": {}, ",
            "\"journaled_rows_per_sec\": {:.0}}},\n",
            "  \"refit\": {{\"warm_refit_ms\": {:.2}, \"cold_fit_ms\": {:.2}, ",
            "\"speedup\": {:.2}}},\n",
            "  \"byte_identity\": ",
            "\"refit over appended engine == cold fit over concatenated data\"\n}}\n"
        ),
        env_json(&cfg, ServerConfig::default().workers),
        ingest.rows,
        ingest.batches,
        ingest.batch_rows,
        ingest.ingest_rows_per_sec,
        ingest.warm_refit_ms,
        ingest.cold_fit_ms,
        ingest.refit_speedup,
    );
    let path = out_path("BENCH_PR10.json");
    std::fs::write(&path, ingest_json).expect("write BENCH_PR10.json");
    println!("wrote {}", path.display());
}
