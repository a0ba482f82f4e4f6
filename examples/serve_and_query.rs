//! Serve and query: the synthesis service end to end, in one process.
//!
//! Spins up `privbayes-server` on an ephemeral port, loads a released model
//! into the registry, registers two tenants with separate privacy budgets,
//! fits one private model per tenant through the budget ledger, and streams
//! synthetic rows back — demonstrating that (a) a fixed `(model, seed, n)`
//! request returns identical bytes on every call, (b) one tenant
//! exhausting its ε does not affect the other, and (c) the `/v1` query API:
//! conditional cohort synthesis with projection, cursor resume, and direct
//! marginal queries answered exactly from the released θ.
//!
//! Run with: `cargo run --example serve_and_query`

use std::sync::Arc;

use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::model::Json;
use privbayes_suite::server::{
    BudgetLedger, Client, Cursor, MarginalQuery, ModelRegistry, Server, ServerConfig, SynthSpec,
};
use privbayes_suite::synth::{fit_method, FitSettings, Method};

fn main() {
    // A released model to pre-load: fit offline, as `privbayes-cli fit`
    // would.
    let schema = Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::categorical("region", 3).unwrap(),
        Attribute::binary("disease"),
    ])
    .unwrap();
    let rows: Vec<Vec<u32>> =
        (0..600u32).map(|i| vec![i % 2, (i / 3) % 3, u32::from(i % 2 == 1)]).collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let settings =
        FitSettings { comment: "serve_and_query example".into(), ..FitSettings::default() };
    let artifact = fit_method(Method::PrivBayes, &data, 1.0, 1, &settings).unwrap().artifact;

    // Start the service: registry + ledger + worker pool.
    let registry = Arc::new(ModelRegistry::new());
    registry.load("health-survey", artifact).unwrap();
    let ledger = Arc::new(BudgetLedger::in_memory());
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: Some(1), ..ServerConfig::default() },
        Arc::clone(&registry),
        Arc::clone(&ledger),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    println!("server listening on {}", handle.addr());

    // Two tenants, separate budgets.
    client.register_tenant("acme", 1.0).unwrap();
    client.register_tenant("globex", 0.3).unwrap();

    // Streaming synthesis from the pre-loaded model is post-processing: it
    // costs no budget, and a fixed (model, seed, n) request is
    // deterministic.
    let first = client.synth("health-survey", 1500, 7, "csv").unwrap();
    let second = client.synth("health-survey", 1500, 7, "csv").unwrap();
    assert_eq!(first, second, "fixed seeds stream identical bytes");
    println!(
        "streamed {} rows twice with seed 7 — byte-identical: {}",
        first.lines().count() - 1,
        first == second
    );

    // Each tenant fits its own private model through the ledger.
    let csv: String = std::iter::once("smoker,disease".to_string())
        .chain((0..300).map(|i| format!("{},{}", i % 2, i % 2)))
        .collect::<Vec<_>>()
        .join("\n");
    let schema_json = Json::parse(
        r#"[{"name": "smoker", "kind": "binary"}, {"name": "disease", "kind": "binary"}]"#,
    )
    .unwrap();
    for (tenant, epsilon) in [("acme", 0.8), ("globex", 0.3)] {
        let body = Json::object(vec![
            ("tenant", Json::String(tenant.into())),
            ("model_id", Json::String(format!("{tenant}-model"))),
            ("epsilon", Json::Number(epsilon)),
            ("seed", Json::from_usize(11)),
            ("schema", schema_json.clone()),
            ("csv", Json::String(csv.clone())),
        ]);
        let resp = client.fit_raw(&body).unwrap();
        assert_eq!(resp.code, 201, "{}", resp.text());
        let rows = client.synth(&format!("{tenant}-model"), 200, 3, "jsonl").unwrap();
        let remaining =
            client.tenant(tenant).unwrap().get("remaining").and_then(Json::as_f64).unwrap();
        println!(
            "tenant {tenant}: fit ε = {epsilon}, streamed {} JSONL rows, ε remaining = {remaining:.3}",
            rows.lines().count()
        );
    }

    // globex is now exhausted; acme still has budget. The rejection is
    // structured and mutates nothing.
    let over = Json::object(vec![
        ("tenant", Json::String("globex".into())),
        ("model_id", Json::String("globex-2".into())),
        ("epsilon", Json::Number(0.1)),
        ("schema", schema_json.clone()),
        ("csv", Json::String(csv.clone())),
    ]);
    let resp = client.fit_raw(&over).unwrap();
    assert_eq!(resp.code, 402);
    let error = Json::parse(&resp.text()).unwrap();
    println!(
        "tenant globex over budget: {} (requested {}, remaining {})",
        error.get("error").and_then(Json::as_str).unwrap(),
        error.get("requested").and_then(Json::as_f64).unwrap(),
        error.get("remaining").and_then(Json::as_f64).unwrap(),
    );

    // The /v1 query API: a label-conditioned cohort, projected to two
    // columns — an analytics export without materialising full rows.
    let cohort = SynthSpec::new()
        .with_rows(1000)
        .with_seed(21)
        .where_eq("smoker", "v1")
        .select("region")
        .select("disease");
    let response = client.synth_with("health-survey", &cohort).unwrap();
    println!(
        "conditional cohort (smoker = v1, region/disease only): {} rows, content-type {}",
        response.text().lines().count() - 1,
        response.header("content-type").unwrap_or("?"),
    );

    // Interrupt-and-resume: take the first 400 rows, then continue from a
    // cursor. The concatenation is byte-identical to one uninterrupted run.
    let full = client
        .synth_with("health-survey", &SynthSpec::new().with_rows(1000).with_seed(33))
        .unwrap()
        .text();
    let tail = client
        .synth_with(
            "health-survey",
            &SynthSpec::new().with_rows(1000).with_cursor(Cursor {
                seed: 33,
                row: 400,
                generation: None,
            }),
        )
        .unwrap()
        .text();
    let prefix: String = full.lines().take(401).map(|l| format!("{l}\n")).collect();
    assert_eq!(format!("{prefix}{tail}"), full);
    println!("cursor resume at row 400 — prefix + tail byte-identical: true");

    // A marginal query answered exactly from the released θ: no sampling,
    // no privacy cost, bit-reproducible.
    let answer = client
        .query("health-survey", &MarginalQuery::new().over("smoker").over("disease"))
        .unwrap();
    let values: Vec<f64> = answer
        .get("values")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    println!(
        "exact marginal Pr*[smoker, disease] = {values:?} (sums to {:.6})",
        values.iter().sum::<f64>()
    );

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    println!("server shut down cleanly after {} requests", stats.requests);
}
