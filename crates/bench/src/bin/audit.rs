//! `audit`: the empirical membership-inference audit of every synthesis
//! method, emitting machine-readable `BENCH_PR6.json`.
//!
//! For each method × ε point this fits shadow models on replace-one
//! neighbour worlds over seeded repetitions, runs the calibrated
//! likelihood-ratio attack of `privbayes_bench::audit`, and prints utility
//! (α = 2 workload TVD) **side by side** with the measured leakage and its
//! analytic ε-DP ceiling.
//!
//! The run is a regression test, not just a report: any point whose
//! measured advantage exceeds `(e^ε − 1)/(e^ε + 1)` beyond the seeded
//! confidence slack makes the process **exit 1**. A point whose slack
//! leaves no room under an advantage of 1 cannot fail; it prints
//! `vacuous (needs ≥ N reps)`, and a run in which every point is vacuous
//! **exits 2**, since it gated nothing. `uniform` spends no budget, so its
//! bound is exactly 0 — the null-attacker calibration control that would
//! catch a broken harness claiming leakage everywhere.
//!
//! Usage: `audit [--quick] [--reps N] [--methods a,b,...] [--out DIR]`.

use std::path::PathBuf;

use privbayes_bench::audit::{audit_method, vacuous_verdict, AuditConfig, AuditOutcome};
use privbayes_data::{Attribute, Dataset, Schema};
use privbayes_datasets::GroundTruthNetwork;
use privbayes_synth::{FitSettings, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    quick: bool,
    reps: usize,
    methods: Vec<Method>,
    out_dir: Option<PathBuf>,
}

/// The audit bin takes `--methods`, which `HarnessConfig` rejects, so it
/// parses its own flags (same style, same defaults).
fn parse_options() -> Options {
    let mut opts = Options { quick: false, reps: 40, methods: Method::ALL.to_vec(), out_dir: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                opts.quick = true;
                // The fewest reps at which the ε = 1 point can fail.
                opts.reps = 84;
            }
            "--reps" => {
                let v = it.next().expect("--reps needs a value");
                opts.reps = v.parse().expect("--reps needs an even integer ≥ 4");
            }
            "--methods" => {
                let v = it.next().expect("--methods needs a comma-separated list");
                opts.methods = v
                    .split(',')
                    .map(|name| {
                        Method::parse(name.trim()).unwrap_or_else(|| {
                            panic!("unknown method `{name}` (valid: {})", Method::names())
                        })
                    })
                    .collect();
            }
            "--out" => {
                let v = it.next().expect("--out needs a directory");
                opts.out_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                eprintln!("options: --quick | --reps N (even) | --methods a,b,... | --out DIR");
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}` (try --help)"),
        }
    }
    assert!(opts.reps >= 4 && opts.reps.is_multiple_of(2), "--reps must be even and ≥ 4");
    opts
}

/// The audit dataset: 6 correlated binary attributes (a 64-cell domain) at
/// a size small enough that thousands of shadow fits stay interactive,
/// large enough that one tuple is not trivially visible without a privacy
/// bug.
fn audit_data() -> Dataset {
    let schema =
        Schema::new((0..6).map(|i| Attribute::binary(format!("x{i}"))).collect::<Vec<_>>())
            .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let net = GroundTruthNetwork::random(&schema, 2, 0.6, &mut rng);
    net.sample(400, &mut rng)
}

fn point_json(p: &AuditOutcome) -> String {
    format!(
        concat!(
            "    {{\"method\": \"{}\", \"epsilon\": {}, \"epsilon_spent\": {}, ",
            "\"avg_tvd_alpha2\": {:.6}, \"advantage\": {:.6}, \"tpr\": {:.4}, \"fpr\": {:.4}, ",
            "\"bound\": {:.6}, \"slack\": {:.6}, \"eval_reps\": {}, \"pass\": {}, ",
            "\"vacuous\": {}}}"
        ),
        p.method,
        p.epsilon,
        p.epsilon_spent,
        p.avg_tvd_alpha2,
        p.advantage,
        p.tpr,
        p.fpr,
        p.bound,
        p.slack,
        p.eval_reps,
        p.passes_gate(),
        p.vacuous()
    )
}

fn main() {
    let opts = parse_options();
    let data = audit_data();
    let cfg = AuditConfig { reps: opts.reps, ..AuditConfig::default() };
    let settings = FitSettings::default();
    let epsilons: Vec<f64> = if opts.quick { vec![0.1, 1.0] } else { vec![0.1, 0.4, 1.6, 8.0] };

    println!(
        "== privacy audit (n = {}, d = {}, reps = {} [{} cal / {} eval], δ = {}) ==",
        data.n(),
        data.d(),
        cfg.reps,
        cfg.reps - cfg.eval_reps(),
        cfg.eval_reps(),
        cfg.delta
    );
    println!(
        "  {:<12} {:>5}  {:>8}  {:>10}  {:>7}  {:>7}  verdict",
        "method", "eps", "Q2 tvd", "advantage", "bound", "slack"
    );

    let mut points: Vec<AuditOutcome> = Vec::new();
    for &method in &opts.methods {
        let eps_grid: &[f64] = if method.spends_budget() { &epsilons } else { &[0.0][..] };
        for &epsilon in eps_grid {
            let point = audit_method(method, &data, epsilon, &settings, &cfg)
                .unwrap_or_else(|e| panic!("{e}"));
            let verdict = if point.vacuous() {
                vacuous_verdict(point.bound, cfg.delta)
            } else if point.passes_gate() {
                "ok".to_string()
            } else {
                "LEAK > BOUND".to_string()
            };
            println!(
                "  {:<12} {:>5}  {:>8.4}  {:>10.4}  {:>7.4}  {:>7.4}  {}",
                point.method,
                point.epsilon,
                point.avg_tvd_alpha2,
                point.advantage,
                point.bound,
                point.slack,
                verdict
            );
            points.push(point);
        }
    }

    let failures: Vec<&AuditOutcome> = points.iter().filter(|p| !p.passes_gate()).collect();
    let method_names: Vec<String> =
        opts.methods.iter().map(|m| format!("\"{}\"", m.name())).collect();
    let json = format!(
        "{{\n  \"pr\": 6,\n  \"quick\": {},\n  \"mode\": \"{}\",\n  \
         \"available_parallelism\": {},\n  \"workers\": 1,\n  \"reps\": {},\n  \"delta\": {},\n  \
         \"rows\": {},\n  \"attrs\": {},\n  \"neighborhood\": \"replace-one-tuple\",\n  \
         \"attack\": \"calibrated likelihood-ratio threshold on log Pr_model[target]\",\n  \
         \"bound\": \"(e^eps - 1)/(e^eps + 1) at the recorded epsilon_spent\",\n  \
         \"methods\": [{}],\n  \"points\": [\n{}\n  ],\n  \"all_pass\": {}\n}}\n",
        opts.quick,
        if opts.quick { "quick" } else { "full" },
        privbayes::resolve_threads(None),
        cfg.reps,
        cfg.delta,
        data.n(),
        data.d(),
        method_names.join(", "),
        points.iter().map(point_json).collect::<Vec<_>>().join(",\n"),
        failures.is_empty()
    );
    let path =
        opts.out_dir.map_or_else(|| PathBuf::from("BENCH_PR6.json"), |d| d.join("BENCH_PR6.json"));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, json).expect("write BENCH_PR6.json");
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for p in &failures {
            eprintln!(
                "PRIVACY GATE FAILED: {} at eps {} measured advantage {:.4} > bound {:.4} + slack {:.4}",
                p.method, p.epsilon, p.advantage, p.bound, p.slack
            );
        }
        std::process::exit(1);
    }
    let vacuous = points.iter().filter(|p| p.vacuous()).count();
    if vacuous == points.len() {
        eprintln!("PRIVACY GATE VACUOUS: no point could fail at {} reps; raise --reps", cfg.reps);
        std::process::exit(2);
    }
    println!(
        "privacy gate: {} of {} points gated and under the analytic bound, {vacuous} vacuous",
        points.len() - vacuous,
        points.len()
    );
}
