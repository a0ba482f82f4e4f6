//! Synthesizer-equivalence tier (PR 4).
//!
//! Three families of guarantees behind the unified synthesis layer:
//!
//! 1. **Engine/reference bit-identity.** Every engine-routed baseline
//!    (Laplace, geometric, Contingency, Fourier, MWEM) produces tables
//!    **bit-identical** to its pre-refactor `ContingencyTable::from_dataset`
//!    reference (`privbayes_bench::reference`) for a fixed seed — the count
//!    engine changed how marginals are *computed*, never what they *are*.
//! 2. **One PrivBayes fit.** `fit_method`'s `privbayes` and `privbayes-k`
//!    learn the model the core pipeline learns for the same options and
//!    seed, bit for bit.
//! 3. **Fit → serve → stream round-trips.** Every `Method` fits to a
//!    `privbayes-model/1` artifact that survives a JSON round-trip, loads
//!    into the server registry, and streams rows byte-identical to the batch
//!    sampling path — one serving core for the whole method family.

use std::sync::Arc;

use privbayes_bench::reference::{
    reference_contingency_marginals, reference_fourier_marginals, reference_geometric_marginals,
    reference_laplace_marginals, reference_mwem_marginals,
};
use privbayes_suite::baselines::{
    contingency_marginals, fourier_marginals, geometric_marginals, laplace_marginals,
    mwem_marginals, MwemOptions,
};
use privbayes_suite::core::{PrivBayes, PrivBayesOptions};
use privbayes_suite::data::csv::write_csv;
use privbayes_suite::data::encoding::EncodingKind;
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::datasets::adult::adult_sized;
use privbayes_suite::marginals::{AlphaWayWorkload, ContingencyTable, CountEngine};
use privbayes_suite::model::{Json, ReleasedModel};
use privbayes_suite::server::{BudgetLedger, Client, ModelRegistry, Server, ServerConfig};
use privbayes_suite::synth::{fit_method, FitSettings, Method};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A mixed-domain dataset with genuine pairwise structure.
fn mixed_data(n: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::binary("a"),
        Attribute::categorical("b", 3).unwrap(),
        Attribute::binary("c"),
        Attribute::categorical("d", 4).unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let a = rng.random_range(0..2u32);
            vec![a, a + rng.random_range(0..2u32), a, a * 2 + rng.random_range(0..2u32)]
        })
        .collect();
    Dataset::from_rows(schema, &rows).unwrap()
}

fn assert_bit_identical(name: &str, engine: &[ContingencyTable], reference: &[ContingencyTable]) {
    assert_eq!(engine.len(), reference.len(), "{name}: table count");
    for (i, (e, r)) in engine.iter().zip(reference).enumerate() {
        assert_eq!(e.axes(), r.axes(), "{name}[{i}]: axes");
        assert_eq!(e.dims(), r.dims(), "{name}[{i}]: dims");
        for (j, (a, b)) in e.values().iter().zip(r.values()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{name}[{i}] cell {j}: engine {a} vs reference {b}"
            );
        }
    }
}

#[test]
fn laplace_engine_is_bit_identical_to_scan_reference() {
    let data = mixed_data(700, 1);
    let workload = AlphaWayWorkload::new(data.d(), 2);
    for seed in [3u64, 17, 91] {
        let engine = laplace_marginals(
            &CountEngine::new(&data),
            &workload,
            0.4,
            &mut StdRng::seed_from_u64(seed),
        );
        let reference =
            reference_laplace_marginals(&data, &workload, 0.4, &mut StdRng::seed_from_u64(seed));
        assert_bit_identical("laplace", &engine, &reference);
    }
}

#[test]
fn geometric_engine_is_bit_identical_to_scan_reference() {
    let data = mixed_data(700, 2);
    let workload = AlphaWayWorkload::new(data.d(), 3);
    for seed in [5u64, 23] {
        let engine = geometric_marginals(
            &CountEngine::new(&data),
            &workload,
            0.7,
            &mut StdRng::seed_from_u64(seed),
        );
        let reference =
            reference_geometric_marginals(&data, &workload, 0.7, &mut StdRng::seed_from_u64(seed));
        assert_bit_identical("geometric", &engine, &reference);
    }
}

#[test]
fn contingency_engine_is_bit_identical_to_scan_reference() {
    let data = mixed_data(500, 3);
    let workload = AlphaWayWorkload::new(data.d(), 2);
    let engine = contingency_marginals(
        &CountEngine::new(&data),
        &workload,
        0.5,
        &mut StdRng::seed_from_u64(8),
    );
    let reference =
        reference_contingency_marginals(&data, &workload, 0.5, &mut StdRng::seed_from_u64(8));
    assert_bit_identical("contingency", &engine, &reference);
}

#[test]
fn fourier_engine_is_bit_identical_to_scan_reference() {
    let data = mixed_data(400, 4);
    let workload = AlphaWayWorkload::new(data.d(), 2);
    let engine = fourier_marginals(&data, &workload, 0.6, &mut StdRng::seed_from_u64(12));
    let reference =
        reference_fourier_marginals(&data, &workload, 0.6, &mut StdRng::seed_from_u64(12));
    assert_bit_identical("fourier", &engine, &reference);
}

#[test]
fn mwem_engine_is_bit_identical_to_scan_reference() {
    let data = mixed_data(600, 5);
    let workload = AlphaWayWorkload::new(data.d(), 2);
    for opts in [
        MwemOptions { iterations: 3, ..MwemOptions::default() },
        MwemOptions { iterations: 5, max_candidates: Some(3), update_passes: 2 },
    ] {
        let engine = mwem_marginals(
            &CountEngine::new(&data),
            &workload,
            0.9,
            opts,
            &mut StdRng::seed_from_u64(31),
        );
        let reference =
            reference_mwem_marginals(&data, &workload, 0.9, opts, &mut StdRng::seed_from_u64(31));
        assert_bit_identical("mwem", &engine, &reference);
    }
}

#[test]
fn mwem_truths_are_served_by_projection_not_rescans() {
    // One full-domain count; MWEM projects every workload truth from it
    // itself, so the engine neither rescans nor projects.
    let data = mixed_data(600, 6);
    let workload = AlphaWayWorkload::new(data.d(), 2);
    let engine = CountEngine::new(&data);
    let _ = mwem_marginals(
        &engine,
        &workload,
        1.0,
        MwemOptions::default(),
        &mut StdRng::seed_from_u64(1),
    );
    let stats = engine.stats();
    assert_eq!(stats.scans, 1, "exactly the full-domain joint is counted: {stats:?}");
    assert_eq!(stats.projections, 0, "the engine never projects: {stats:?}");
}

/// Every method: fit → JSON round-trip → register → stream, with the
/// streamed CSV byte-identical to the batch sampler.
/// Both PrivBayes methods of `fit_method` are `PrivBayes::fit`: each case
/// pairs `FitSettings` with the `PrivBayesOptions` they map to. 4,000 Adult
/// rows at ε = 2 learn networks with edges; at ε = 0.8 on 800 rows the
/// adaptive search learns none, and a model without edges proves nothing.
#[test]
fn fit_method_and_the_pipeline_learn_the_same_model() {
    let data = adult_sized(3, 4000).data;
    let epsilon = 2.0;
    let options = PrivBayesOptions::new(epsilon);
    let cases = [
        (Method::PrivBayes, FitSettings::default(), options.clone()),
        (
            Method::PrivBayes,
            FitSettings { encoding: EncodingKind::Hierarchical, ..FitSettings::default() },
            options.clone().with_encoding(EncodingKind::Hierarchical),
        ),
        (
            Method::PrivBayes,
            FitSettings { consistency_rounds: 2, ..FitSettings::default() },
            options.clone().with_consistency_rounds(2),
        ),
        (
            Method::PrivBayesK,
            FitSettings::default(),
            PrivBayesOptions { fixed_k: Some(2), ..options.clone() },
        ),
    ];
    for seed in [1u64, 7] {
        for (method, settings, options) in &cases {
            let case = format!("{method} with {options:?}, seed {seed}");
            let fitted = fit_method(*method, &data, epsilon, seed, settings).unwrap();
            let piped = PrivBayes::new(options.clone())
                .synthesize(&data, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(fitted.artifact.model, piped.model, "{case}");
            assert!(!piped.model.network.edges().is_empty(), "{case}: no edges learned");
        }
    }
}

#[test]
fn every_method_fits_serves_and_streams_round_trip() {
    let data = mixed_data(500, 7);
    let registry = Arc::new(ModelRegistry::new());
    let settings = FitSettings::default();
    for method in Method::ALL {
        let fitted = fit_method(method, &data, 1.2, 42, &settings)
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        // Serialise → parse → identical artifact with the method recorded.
        let text = fitted.artifact.to_json_string().unwrap();
        let back = ReleasedModel::from_json_string(&text).unwrap();
        assert_eq!(back, fitted.artifact, "{method}: JSON round-trip");
        assert_eq!(back.metadata.method, method.name());
        registry.load(method.name(), back).unwrap();
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&registry),
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    for method in Method::ALL {
        let streamed = client.synth(method.name(), 300, 9, "csv").unwrap();
        let entry = registry.get(method.name()).unwrap();
        let direct = entry
            .sampler()
            .unwrap()
            .sample_dataset(300, None, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let mut expected = Vec::new();
        write_csv(&direct, &mut expected).unwrap();
        assert_eq!(
            streamed.as_bytes(),
            &expected[..],
            "{method}: streamed CSV must match the batch sampler byte-for-byte"
        );
        let jsonl = client.synth(method.name(), 64, 9, "jsonl").unwrap();
        assert_eq!(jsonl.lines().count(), 64, "{method}: one JSONL object per row");
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `POST /fit` accepts a `method` field and the registry serves the result
/// through the existing streaming path.
#[test]
fn server_fit_endpoint_dispatches_methods() {
    let schema_json = r#"[{"name": "x", "kind": "binary"},
                          {"name": "y", "kind": "binary"},
                          {"name": "z", "kind": "binary"}]"#;
    let mut csv = String::from("x,y,z\n");
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..300 {
        let x = rng.random_range(0..2u32);
        csv.push_str(&format!("v{x},v{x},v{}\n", rng.random_range(0..2u32)));
    }

    let registry = Arc::new(ModelRegistry::new());
    let ledger = BudgetLedger::in_memory();
    ledger.register("acme", 10.0).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&registry),
        Arc::new(ledger),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());

    for (method, expect_spend) in [("mwem", true), ("laplace", true), ("uniform", false)] {
        let before = client.tenant("acme").unwrap().get("spent").and_then(Json::as_f64).unwrap();
        let body = format!(
            r#"{{"tenant": "acme", "model_id": "m-{method}", "method": "{method}",
                 "epsilon": 1.0, "seed": 5, "schema": {schema_json}, "csv": {csv:?}}}"#,
        );
        let response = client.fit_raw(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(response.code, 201, "{method}: {}", response.text());
        let response = Json::parse(&response.text()).unwrap();
        assert_eq!(
            response.get("method").and_then(Json::as_str),
            Some(method),
            "fit response carries the method"
        );
        let after = client.tenant("acme").unwrap().get("spent").and_then(Json::as_f64).unwrap();
        if expect_spend {
            assert!((after - before - 1.0).abs() < 1e-9, "{method} debits ε");
        } else {
            assert_eq!(after, before, "{method} spends no budget");
        }
        let streamed = client.synth(&format!("m-{method}"), 50, 2, "csv").unwrap();
        assert_eq!(streamed.lines().count(), 51, "{method}: header + 50 rows");
    }

    // Unknown methods are rejected before any budget is charged.
    let before = client.tenant("acme").unwrap().get("spent").and_then(Json::as_f64).unwrap();
    let body = format!(
        r#"{{"tenant": "acme", "model_id": "bad", "method": "frequentist",
             "epsilon": 1.0, "schema": {schema_json}, "csv": {csv:?}}}"#,
    );
    let response = client.fit_raw(&Json::parse(&body).unwrap()).unwrap();
    assert_eq!(response.code, 400, "unknown method is a bad request");
    assert!(response.text().contains("frequentist"), "{}", response.text());
    let after = client.tenant("acme").unwrap().get("spent").and_then(Json::as_f64).unwrap();
    assert_eq!(after, before, "rejected request must not charge");

    client.shutdown().unwrap();
    handle.join().unwrap();
}
