//! `methods`: the §6-style method-vs-epsilon comparison for the unified
//! `Synthesizer` layer, emitting machine-readable `BENCH_PR4.json`.
//!
//! Three measurement families:
//!
//! 1. **Equivalence gate.** Every engine-routed baseline (MWEM, Laplace,
//!    geometric, Contingency, Fourier) is run side-by-side with its
//!    pre-refactor `from_dataset` reference on the same seed and asserted
//!    **bit-identical** — a count mismatch aborts the run, so no number in
//!    the JSON can come from diverging semantics.
//! 2. **MWEM engine-vs-scan fit.** Wall-clock of the engine-backed
//!    `mwem_marginals` (full-domain joint counted once, workload truths by
//!    integer projection) against the scan reference (one row scan per
//!    truth), reported as a speedup, plus the engine's cache counters.
//! 3. **Method table + serve throughput.** Every [`Method`] is fit across
//!    the ε grid (fit wall-clock, α = 2 workload TVD of its samples, engine
//!    stats), and every fitted artifact is loaded into an in-process
//!    `privbayes-server` and streamed from, reporting rows/sec per method.
//!
//! Usage: `methods [--quick] [--reps N] [--scale F] [--out DIR]`.

use std::sync::Arc;
use std::time::Instant;

use privbayes_baselines::{
    contingency_marginals, fourier_marginals, geometric_marginals, laplace_marginals,
    mwem_marginals, MwemOptions,
};
use privbayes_bench::reference::{
    reference_contingency_marginals, reference_fourier_marginals, reference_geometric_marginals,
    reference_laplace_marginals, reference_mwem_marginals,
};
use privbayes_bench::HarnessConfig;
use privbayes_data::{Dataset, Schema};
use privbayes_datasets::GroundTruthNetwork;
use privbayes_marginals::{
    average_workload_tvd, AlphaWayWorkload, ContingencyTable, CountEngine, EngineStats,
};
use privbayes_server::{BudgetLedger, Client, ModelRegistry, Server, ServerConfig};
use privbayes_synth::{fit_method, FitSettings, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The benchmark dataset: 8 correlated binary attributes drawn from a
/// hidden ground-truth network — an MWEM-representative domain (2⁸ cells
/// ≪ 4n, so the engine retains the full joint) with enough rows that
/// per-marginal row scans dominate the scan baseline.
fn benchmark_data(cfg: &HarnessConfig) -> Dataset {
    let schema =
        Schema::new((0..8).map(|i| privbayes_data::Attribute::binary(format!("x{i}"))).collect())
            .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(41);
    let net = GroundTruthNetwork::random(&schema, 3, 0.3, &mut rng);
    net.sample(cfg.scaled(40_000), &mut rng)
}

/// Asserts two table lists are bit-identical (axes, dims, every f64 cell).
fn assert_tables_identical(
    name: &str,
    engine: &[ContingencyTable],
    reference: &[ContingencyTable],
) {
    assert_eq!(engine.len(), reference.len(), "{name}: table count");
    for (i, (e, r)) in engine.iter().zip(reference).enumerate() {
        assert_eq!(e.axes(), r.axes(), "{name}[{i}]: axes");
        assert_eq!(e.dims(), r.dims(), "{name}[{i}]: dims");
        for (j, (a, b)) in e.values().iter().zip(r.values()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}[{i}] cell {j}: engine {a} vs reference {b} — count mismatch"
            );
        }
    }
}

/// Best-of-`reps` wall-clock in milliseconds.
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

fn stats_json(s: EngineStats) -> String {
    format!(
        "{{\"scans\": {}, \"projections\": {}, \"hits\": {}, \"cached_tables\": {}, \
         \"bytes_materialized\": {}, \"scan_micros\": {}, \"score_micros\": {}}}",
        s.scans,
        s.projections,
        s.hits,
        s.cached_tables,
        s.bytes_materialized,
        s.scan_micros,
        s.score_micros
    )
}

/// Family 1: engine vs reference bit-identity for every baseline.
fn equivalence_gate(data: &Dataset, workload: &AlphaWayWorkload) {
    let eps = 0.8;
    let opts = MwemOptions { iterations: 4, ..MwemOptions::default() };
    let check = |name: &str, engine: Vec<ContingencyTable>, reference: Vec<ContingencyTable>| {
        assert_tables_identical(name, &engine, &reference);
        println!("  equivalence: {name:<12} OK ({} tables bit-identical)", engine.len());
    };
    let rng = |seed| StdRng::seed_from_u64(seed);
    check(
        "laplace",
        laplace_marginals(&CountEngine::new(data), workload, eps, &mut rng(97)),
        reference_laplace_marginals(data, workload, eps, &mut rng(97)),
    );
    check(
        "geometric",
        geometric_marginals(&CountEngine::new(data), workload, eps, &mut rng(97)),
        reference_geometric_marginals(data, workload, eps, &mut rng(97)),
    );
    check(
        "contingency",
        contingency_marginals(&CountEngine::new(data), workload, eps, &mut rng(97)),
        reference_contingency_marginals(data, workload, eps, &mut rng(97)),
    );
    check(
        "fourier",
        fourier_marginals(data, workload, eps, &mut rng(97)),
        reference_fourier_marginals(data, workload, eps, &mut rng(97)),
    );
    check(
        "mwem",
        mwem_marginals(&CountEngine::new(data), workload, eps, opts, &mut rng(97)),
        reference_mwem_marginals(data, workload, eps, opts, &mut rng(97)),
    );
}

/// Family 2: MWEM fit wall-clock, engine vs scan.
struct MwemBench {
    engine_ms: f64,
    scan_ms: f64,
    stats: EngineStats,
}

fn mwem_bench(cfg: &HarnessConfig, data: &Dataset, workload: &AlphaWayWorkload) -> MwemBench {
    let eps = 1.0;
    // Few update passes: the timed configuration weights the fit towards the
    // marginal-measurement phase the engine accelerates, not the shared
    // multiplicative-weights arithmetic.
    let opts = MwemOptions { iterations: 4, update_passes: 2, ..MwemOptions::default() };
    let (scan_ms, reference) = time_min_ms(cfg.reps, || {
        reference_mwem_marginals(data, workload, eps, opts, &mut StdRng::seed_from_u64(11))
    });
    let mut stats = EngineStats::default();
    let (engine_ms, engine_tables) = time_min_ms(cfg.reps, || {
        let engine = CountEngine::new(data);
        let tables = mwem_marginals(&engine, workload, eps, opts, &mut StdRng::seed_from_u64(11));
        stats = engine.stats();
        tables
    });
    assert_tables_identical("mwem-timed", &engine_tables, &reference);
    MwemBench { engine_ms, scan_ms, stats }
}

/// Family 3 rows: one fitted point of the method table.
struct MethodPoint {
    method: Method,
    epsilon: f64,
    fit_ms: f64,
    avg_tvd_alpha2: f64,
    stats: EngineStats,
}

/// One serve-throughput measurement.
struct ServePoint {
    method: Method,
    rows_per_request: usize,
    requests: usize,
    rows_per_sec: f64,
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let data = benchmark_data(&cfg);
    let workload = AlphaWayWorkload::new(data.d(), 3);
    println!("== methods bench (n = {}, d = {}, |Q3| = {}) ==", data.n(), data.d(), workload.len());

    equivalence_gate(&data, &workload);

    let mwem = mwem_bench(&cfg, &data, &workload);
    println!(
        "  mwem fit: scan {:.1} ms | engine {:.1} ms | {:.2}x  (stats {:?})",
        mwem.scan_ms,
        mwem.engine_ms,
        mwem.scan_ms / mwem.engine_ms,
        mwem.stats,
    );

    // Method-vs-epsilon table (§6 style): fit, sample, measure Q2 TVD.
    let epsilons: Vec<f64> = if cfg.quick { vec![0.1, 1.0] } else { vec![0.05, 0.2, 0.8, 1.6] };
    let settings = FitSettings {
        mwem: MwemOptions { iterations: 8, ..MwemOptions::default() },
        ..FitSettings::default()
    };
    let mut table: Vec<MethodPoint> = Vec::new();
    for method in Method::ALL {
        let eps_grid: &[f64] = if method.spends_budget() { &epsilons } else { &[0.0][..] };
        for &epsilon in eps_grid {
            let fit_eps = if method.spends_budget() { epsilon } else { 1.0 };
            let (fit_ms, fitted) = time_min_ms(cfg.reps, || {
                fit_method(method, &data, fit_eps, 61, &settings).expect("fit")
            });
            let synthetic =
                fitted.artifact.sample(data.n(), &mut StdRng::seed_from_u64(62)).expect("sample");
            let avg_tvd_alpha2 = average_workload_tvd(&data, &synthetic, 2);
            println!(
                "  {:<12} eps {:>5}  fit {:>8.1} ms  Q2 tvd {:.4}",
                method.name(),
                epsilon,
                fit_ms,
                avg_tvd_alpha2
            );
            table.push(MethodPoint {
                method,
                epsilon,
                fit_ms,
                avg_tvd_alpha2,
                stats: fitted.stats,
            });
        }
    }

    // Per-method serve throughput through the real HTTP path.
    let registry = Arc::new(ModelRegistry::new());
    for method in Method::ALL {
        let fitted = fit_method(method, &data, 1.0, 71, &settings).expect("fit for serving");
        registry.load(method.name(), fitted.artifact).expect("register");
    }
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: None, ..ServerConfig::default() },
        Arc::clone(&registry),
        Arc::new(BudgetLedger::in_memory()),
    )
    .expect("bind");
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    let rows_per_request = if cfg.quick { 5_000 } else { 20_000 };
    let requests = if cfg.quick { 2 } else { 4 };
    let mut serve: Vec<ServePoint> = Vec::new();
    for method in Method::ALL {
        let start = Instant::now();
        for r in 0..requests {
            let body =
                client.synth(method.name(), rows_per_request, r as u64, "csv").expect("synth");
            assert_eq!(body.lines().count(), rows_per_request + 1, "{method}: header + rows");
        }
        let secs = start.elapsed().as_secs_f64();
        let rows_per_sec = (requests * rows_per_request) as f64 / secs;
        println!("  serve {:<12} {:>9.0} rows/s", method.name(), rows_per_sec);
        serve.push(ServePoint { method, rows_per_request, requests, rows_per_sec });
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server join");

    // Emit BENCH_PR4.json.
    let table_json: Vec<String> = table
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"method\": \"{}\", \"epsilon\": {}, \"fit_ms\": {:.2}, ",
                    "\"avg_tvd_alpha2\": {:.6}, \"engine\": {}}}"
                ),
                p.method.name(),
                p.epsilon,
                p.fit_ms,
                p.avg_tvd_alpha2,
                stats_json(p.stats)
            )
        })
        .collect();
    let serve_json: Vec<String> = serve
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"method\": \"{}\", \"rows_per_request\": {}, \"requests\": {}, ",
                    "\"rows_per_sec\": {:.0}}}"
                ),
                p.method.name(),
                p.rows_per_request,
                p.requests,
                p.rows_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"pr\": 4,\n  \"quick\": {},\n  \"mode\": \"{}\",\n  \"reps\": {},\n  \
         \"threads\": {},\n  \"available_parallelism\": {},\n  \"workers\": {},\n  \
         \"rows\": {},\n  \"attrs\": {},\n  \"workload\": {},\n  \
         \"equivalence\": \"all baselines bit-identical to scan references\",\n  \
         \"mwem\": {{\"scan_ms\": {:.2}, \"engine_ms\": {:.2}, \"speedup\": {:.2}, \"engine\": {}}},\n  \
         \"methods\": [\n{}\n  ],\n  \"serve\": [\n{}\n  ]\n}}\n",
        cfg.quick,
        if cfg.quick { "quick" } else { "full" },
        cfg.reps,
        threads,
        threads,
        ServerConfig::default().workers,
        data.n(),
        data.d(),
        workload.len(),
        mwem.scan_ms,
        mwem.engine_ms,
        mwem.scan_ms / mwem.engine_ms,
        stats_json(mwem.stats),
        table_json.join(",\n"),
        serve_json.join(",\n")
    );
    let path = cfg
        .out_dir
        .clone()
        .map_or_else(|| std::path::PathBuf::from("BENCH_PR4.json"), |d| d.join("BENCH_PR4.json"));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, json).expect("write BENCH_PR4.json");
    println!("wrote {}", path.display());
}
