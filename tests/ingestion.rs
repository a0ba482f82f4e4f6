//! The ingestion tier: continuous data arrival as a first-class, exactly
//! accounted workflow.
//!
//! 1. **Bit-identity** — an incrementally appended [`CountEngine`] answers
//!    every marginal, fits every method, and (loaded into a server) streams
//!    every synthesis byte *identically* to a cold fit over the
//!    concatenated data. Appends and delta merges are the same operation.
//! 2. **Hot swap** — `POST /v1/tenants/{t}/ingest` journals batches,
//!    triggers ledger-accounted background refits, and swaps new model
//!    generations in atomically; in-flight streams pin their generation via
//!    the `pbc2` cursor and resume byte-identically across the swap, while
//!    unpinned requests see the new generation. Aged-out generations answer
//!    a structured `410`.
//! 3. **Accounting** — every refit debits ε through the ledger
//!    exactly like `POST /fit`: success spends exactly the spec's ε,
//!    failure refunds it, and an exhausted tenant is refused with no state
//!    change.
//! 4. **Durability** — the dataset journal survives a crash at every step
//!    of its write-temp → fsync → rename → fsync-dir sequence: non-durable
//!    failures roll the append back (the live engine and the on-disk
//!    journal both still show the pre-append rows), while a crash after
//!    the rename is durable and the batch is recovered on reopen.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use privbayes_suite::core::CHUNK_ROWS;
use privbayes_suite::data::csv::write_csv;
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::marginals::{Axis, ContingencyTable, CountEngine, EngineDelta};
use privbayes_suite::model::{Json, ReleasedModel};
use privbayes_suite::server::{
    BudgetLedger, Client, Cursor, DatasetStore, Fault, FaultPlan, FaultSite, LedgerStep,
    ModelRegistry, RefitPolicy, RefitSpec, Server, ServerConfig, ServerError, ServerHandle,
    SynthSpec, RETAINED_GENERATIONS,
};
use privbayes_suite::synth::{fit_method, fit_method_with_engine, FitSettings, Method, SynthError};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// The 3-attribute fixture schema used across the serving tiers.
fn schema() -> Schema {
    Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::categorical("region", 3).unwrap(),
        Attribute::binary("disease"),
    ])
    .unwrap()
}

/// Deterministic correlated rows for `range` (arrival order matters for
/// the bit-identity tests, so the generator is a pure function of the
/// index).
fn rows(range: std::ops::Range<u32>) -> Vec<Vec<u32>> {
    range
        .map(|i| {
            let smoker = (i * 7 + 3) % 5 < 2;
            let region = (i * 11 + smoker as u32) % 3;
            let disease = (smoker && region != 1) || i % 13 == 0;
            vec![u32::from(smoker), region, u32::from(disease)]
        })
        .collect()
}

fn dataset(rows: &[Vec<u32>]) -> Dataset {
    Dataset::from_rows(schema(), rows).unwrap()
}

/// The headered coded-CSV body `POST /v1/tenants/{t}/ingest` accepts.
fn csv_body(rows: &[Vec<u32>]) -> String {
    let mut out = Vec::new();
    write_csv(&dataset(rows), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn refit_spec(model_id: &str, epsilon: f64, seed: u64) -> RefitSpec {
    RefitSpec { model_id: model_id.to_string(), method: Method::PrivBayes, epsilon, seed }
}

/// A release artifact fit over `rows` — the cold-fit oracle.
fn cold_artifact(rows_: &[Vec<u32>], epsilon: f64, seed: u64) -> ReleasedModel {
    fit_method(Method::PrivBayes, &dataset(rows_), epsilon, seed, &FitSettings::default())
        .unwrap()
        .artifact
}

/// A fresh per-test journal directory (recreated empty each run).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("privbayes-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Binds a server over the given stores; returns the pieces tests poke at.
fn start_server(
    config: ServerConfig,
    registry: Arc<ModelRegistry>,
    ledger: Arc<BudgetLedger>,
) -> (ServerHandle, Client) {
    let server = Server::bind("127.0.0.1:0", config, registry, ledger).unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

/// Polls `cond` for up to ten seconds (background refits run on a 20 ms
/// janitor cadence and include a full model fit).
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..2000 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

// ---------------------------------------------------------------------------
// 1. Bit-identity: appended engine ≡ cold scan, for counts, fits, and bytes
// ---------------------------------------------------------------------------

/// Appending batches to a tenant's live engine leaves every joint count
/// and every fitted artifact (all six methods) bit-identical to a cold fit
/// over the concatenated data, and a shard-merged [`EngineDelta`] is
/// indistinguishable from row-order appends.
#[test]
fn appends_and_merges_are_bit_identical_to_a_cold_fit() {
    let store = DatasetStore::in_memory();
    let spec = refit_spec("acme-model", 1.0, 7);
    let batches = [rows(0..300), rows(300..500), rows(500..650)];
    for batch in &batches {
        store.append("acme", &dataset(batch), Some(&spec)).unwrap();
    }
    let all = rows(0..650);
    let cold_data = dataset(&all);

    // Every joint marginal is exactly the cold contingency table.
    let axis_sets: &[&[usize]] = &[&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]];
    for attrs in axis_sets {
        let axes: Vec<Axis> = attrs.iter().map(|&a| Axis::raw(a)).collect();
        let live = store.with_engine("acme", |e| e.joint(&axes)).unwrap();
        let cold = ContingencyTable::from_dataset(&cold_data, &axes).values().to_vec();
        assert_eq!(live, cold, "joint over {attrs:?} must match a cold scan exactly");
    }

    // Every method fits the identical artifact through the appended engine.
    let settings = FitSettings::default();
    for method in Method::ALL {
        let live = store
            .with_engine("acme", |e| fit_method_with_engine(method, e, 1.0, 7, &settings))
            .unwrap()
            .unwrap();
        let cold = fit_method(method, &cold_data, 1.0, 7, &settings).unwrap();
        assert_eq!(
            live.artifact.to_json_string().unwrap(),
            cold.artifact.to_json_string().unwrap(),
            "{method}: refit over appends must serialise bit-identically to a cold fit"
        );
        assert_eq!(live.epsilon_spent, cold.epsilon_spent, "{method}");
    }

    // Shard deltas merged in a different grouping reach the same engine.
    let mut merged = CountEngine::new(&dataset(&rows(0..300)));
    let mut tail = EngineDelta::from_dataset(&dataset(&rows(300..500)));
    tail.merge(EngineDelta::from_dataset(&dataset(&rows(500..650))));
    merged.merge(tail);
    assert_eq!(merged.n(), 650);
    let axes = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
    assert_eq!(
        merged.joint(&axes),
        ContingencyTable::from_dataset(&cold_data, &axes).values().to_vec(),
        "merge(delta) must equal append-per-batch exactly"
    );
}

/// The whole pipeline end to end: a model refit over an appended engine,
/// loaded into a live server, streams the same synthesis bytes as the
/// cold-fit artifact for the same seed.
#[test]
fn a_refit_model_streams_the_same_bytes_as_a_cold_fit() {
    let store = DatasetStore::in_memory();
    let spec = refit_spec("m-live", 1.0, 11);
    store.append("t", &dataset(&rows(0..400)), Some(&spec)).unwrap();
    store.append("t", &dataset(&rows(400..640)), None).unwrap();
    let live = store
        .with_engine("t", |e| {
            fit_method_with_engine(Method::PrivBayes, e, 1.0, 11, &FitSettings::default())
        })
        .unwrap()
        .unwrap()
        .artifact;
    let cold = cold_artifact(&rows(0..640), 1.0, 11);

    let registry = Arc::new(ModelRegistry::new());
    registry.load("m-live", live).unwrap();
    registry.load("m-cold", cold).unwrap();
    let (handle, client) =
        start_server(ServerConfig::default(), registry, Arc::new(BudgetLedger::in_memory()));
    for format in ["csv", "ndjson"] {
        assert_eq!(
            client.synth("m-live", CHUNK_ROWS + 321, 9, format).unwrap(),
            client.synth("m-cold", CHUNK_ROWS + 321, 9, format).unwrap(),
            "{format}: streamed bytes must not depend on which fit path built the model"
        );
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 2. Ingest → journal → ledger-accounted refit → generations
// ---------------------------------------------------------------------------

/// `POST /v1/tenants/{t}/ingest` accepts schema-validated batches, the
/// background refit debits exactly the spec's ε per generation, the
/// generation list grows newest-first, the new model serves the cold-fit
/// bytes over all rows so far, and the journal survives a restart.
#[test]
fn ingest_triggers_ledger_accounted_refits_and_new_generations() {
    let dir = temp_dir("refit");
    let registry = Arc::new(ModelRegistry::new());
    let ledger = Arc::new(BudgetLedger::in_memory());
    ledger.register("acme", 2.0).unwrap();
    let config = ServerConfig {
        fit_threads: Some(1),
        data_dir: Some(dir.clone()),
        refit: RefitPolicy { min_rows: 1, max_staleness: None },
        ..ServerConfig::default()
    };
    let (handle, client) = start_server(config, Arc::clone(&registry), Arc::clone(&ledger));

    // First batch must carry the schema and the refit target.
    let first = Json::object(vec![
        ("schema", schema_json()),
        ("model_id", Json::String("acme-model".into())),
        ("epsilon", Json::Number(0.5)),
        ("method", Json::String("privbayes".into())),
        ("seed", Json::Number(9.0)),
        ("csv", Json::String(csv_body(&rows(0..40)))),
    ]);
    let response = client.ingest("acme", &first).unwrap();
    assert_eq!(response.code, 200, "{}", response.text());
    let receipt = Json::parse(&response.text()).unwrap();
    assert_eq!(receipt.get("batch_rows").and_then(Json::as_usize), Some(40));
    assert_eq!(receipt.get("total_rows").and_then(Json::as_usize), Some(40));
    assert_eq!(receipt.get("pending_rows").and_then(Json::as_usize), Some(40));

    // The janitor refits in the background; the charge is exactly ε.
    assert!(eventually(|| registry.get("acme-model").is_some()), "first refit never landed");
    let tenant = client.tenant("acme").unwrap();
    assert_eq!(tenant.get("spent").and_then(Json::as_f64), Some(0.5));
    let gens = client.generations("acme-model").unwrap();
    assert_eq!(gens.get("retained").and_then(Json::as_usize), Some(1));
    let gen1 = generation_of(&gens, 0);

    // Later batches need neither schema nor spec; each refit is a new,
    // strictly newer generation and another exact ε debit.
    let second = Json::object(vec![("csv", Json::String(csv_body(&rows(40..70))))]);
    let response = client.ingest("acme", &second).unwrap();
    assert_eq!(response.code, 200, "{}", response.text());
    let receipt = Json::parse(&response.text()).unwrap();
    assert_eq!(receipt.get("total_rows").and_then(Json::as_usize), Some(70));
    assert_eq!(receipt.get("pending_rows").and_then(Json::as_usize), Some(30));
    assert!(
        eventually(|| {
            client
                .generations("acme-model")
                .ok()
                .and_then(|g| g.get("retained").and_then(Json::as_usize))
                == Some(2)
        }),
        "second refit never landed"
    );
    let tenant = client.tenant("acme").unwrap();
    assert_eq!(tenant.get("spent").and_then(Json::as_f64), Some(1.0));
    let gens = client.generations("acme-model").unwrap();
    assert!(generation_of(&gens, 0) > gen1, "generations must be strictly increasing");

    // The served model covers all 70 rows and is bit-identical to a cold
    // fit of the concatenated data at the spec's (ε, seed).
    let entry = registry.get("acme-model").unwrap();
    assert_eq!(entry.artifact.metadata.source_rows, 70);
    client.load_model("oracle", &cold_artifact(&rows(0..70), 0.5, 9)).unwrap();
    assert_eq!(
        client.synth("acme-model", 500, 3, "csv").unwrap(),
        client.synth("oracle", 500, 3, "csv").unwrap(),
        "the refit generation must serve the cold-fit bytes"
    );

    // The ingest metric families are exact.
    let snapshot = client.metrics().unwrap();
    assert_eq!(snapshot.value("privbayes_ingest_rows_total", &[("tenant", "acme")]), Some(70.0));
    assert_eq!(snapshot.value("privbayes_refits_total", &[("status", "ok")]), Some(2.0));
    assert_eq!(
        snapshot.value("privbayes_model_generation", &[("model", "acme-model")]),
        Some(generation_of(&gens, 0) as f64)
    );

    client.shutdown().unwrap();
    handle.join().unwrap();

    // The journal recovered by a fresh process covers everything: all 70
    // rows, all fitted, the refit target intact, and the engine answers
    // the cold counts.
    let reopened = DatasetStore::open(&dir).unwrap();
    let tenants = reopened.snapshot();
    assert_eq!(tenants.len(), 1);
    assert_eq!(tenants[0].tenant, "acme");
    assert_eq!(tenants[0].total_rows, 70);
    assert_eq!(tenants[0].fitted_rows, 70);
    assert_eq!(tenants[0].refit, refit_spec("acme-model", 0.5, 9));
    let axes = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
    assert_eq!(
        reopened.with_engine("acme", |e| e.joint(&axes)).unwrap(),
        ContingencyTable::from_dataset(&dataset(&rows(0..70)), &axes).values().to_vec()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixture schema as the JSON the ingest endpoint accepts.
fn schema_json() -> Json {
    privbayes_suite::model::schema_to_json(&schema())
}

fn generation_of(gens: &Json, index: usize) -> u64 {
    let list = match gens.get("generations") {
        Some(Json::Array(items)) => items,
        other => panic!("generations must be an array, got {other:?}"),
    };
    list[index].get("generation").and_then(Json::as_usize).unwrap() as u64
}

// ---------------------------------------------------------------------------
// 3. Hot swap: pinned cursors, unpinned requests, aged-out generations
// ---------------------------------------------------------------------------

/// A stream interrupted mid-chunk resumes byte-identically *across a hot
/// swap* because its cursor pins the generation it started on; an unpinned
/// request sees the new generation immediately; a cursor whose generation
/// has aged out of the retained window answers a structured `410`.
#[test]
fn pinned_cursors_survive_hot_swap_and_aged_out_generations_answer_410() {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", cold_artifact(&rows(0..400), 1.0, 1)).unwrap();
    let (handle, client) = start_server(
        ServerConfig::default(),
        Arc::clone(&registry),
        Arc::new(BudgetLedger::in_memory()),
    );

    let total = 2 * CHUNK_ROWS + 137;
    let spec = SynthSpec::new().with_rows(total).with_seed(9);
    let full = client.synth_with("m", &spec).unwrap();
    let token = full.header("x-privbayes-cursor").expect("v1 streams carry a cursor").to_string();
    let gen1 = Cursor::decode(&token)
        .expect("cursor must decode")
        .generation
        .expect("v1 cursors pin the serving generation (pbc2)");
    let full_text = full.text();

    // Hot swap: a different fit becomes the new generation. Unpinned
    // requests serve it at once.
    registry.load("m", cold_artifact(&rows(0..400), 1.0, 2)).unwrap();
    let swapped = client.synth_with("m", &spec).unwrap();
    assert_ne!(swapped.text(), full_text, "the swap must change unpinned streams");
    let gen2 =
        Cursor::decode(swapped.header("x-privbayes-cursor").unwrap()).unwrap().generation.unwrap();
    assert!(gen2 > gen1);

    // A resume pinned to the old generation reproduces the original bytes
    // even though the registry now serves a different model.
    let resume_at = CHUNK_ROWS + 211;
    let resumed = client
        .synth_with(
            "m",
            &SynthSpec::new().with_rows(total).with_cursor(Cursor {
                seed: 9,
                row: resume_at as u64,
                generation: Some(gen1),
            }),
        )
        .unwrap();
    let prefix: String = full_text.lines().take(1 + resume_at).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        format!("{prefix}{}", resumed.text()),
        full_text,
        "prefix + pinned resume must equal the uninterrupted pre-swap stream"
    );

    // Push gen1 out of the retained window; the pinned resume now gets a
    // structured 410 telling the client to restart.
    for seed in 0..RETAINED_GENERATIONS as u64 {
        registry.load("m", cold_artifact(&rows(0..400), 1.0, 10 + seed)).unwrap();
    }
    let err = client
        .synth_with(
            "m",
            &SynthSpec::new().with_rows(total).with_cursor(Cursor {
                seed: 9,
                row: resume_at as u64,
                generation: Some(gen1),
            }),
        )
        .unwrap_err();
    match err {
        ServerError::Status { code: 410, body } => {
            assert!(body.contains("generation-evicted"), "{body}");
        }
        other => panic!("expected 410 generation-evicted, got {other}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 4. Refit accounting: refusal without charge, refund on failure
// ---------------------------------------------------------------------------

/// A tenant whose remaining budget cannot cover the refit ε is refused
/// with no ledger movement and no model — exactly the `POST /fit`
/// discipline, applied by the janitor.
#[test]
fn an_exhausted_tenant_is_refused_without_any_ledger_movement() {
    let registry = Arc::new(ModelRegistry::new());
    let ledger = Arc::new(BudgetLedger::in_memory());
    ledger.register("poor", 0.25).unwrap();
    let config = ServerConfig {
        fit_threads: Some(1),
        refit: RefitPolicy { min_rows: 1, max_staleness: None },
        ..ServerConfig::default()
    };
    let (handle, client) = start_server(config, Arc::clone(&registry), Arc::clone(&ledger));

    let body = Json::object(vec![
        ("schema", schema_json()),
        ("model_id", Json::String("poor-model".into())),
        ("epsilon", Json::Number(0.5)),
        ("csv", Json::String(csv_body(&rows(0..30)))),
    ]);
    assert_eq!(client.ingest("poor", &body).unwrap().code, 200);
    assert!(
        eventually(|| {
            client
                .metrics()
                .ok()
                .and_then(|s| s.value("privbayes_refits_total", &[("status", "exhausted")]))
                .is_some_and(|v| v >= 1.0)
        }),
        "the exhausted refit attempt was never recorded"
    );
    assert!(registry.get("poor-model").is_none(), "no model may appear");

    client.shutdown().unwrap();
    handle.join().unwrap();
    // After the janitor has stopped, the ledger shows zero movement.
    let budgets = ledger.snapshot();
    assert_eq!(budgets.len(), 1);
    assert_eq!(budgets[0].spent, 0.0, "a refused charge must not move the ledger");
}

/// A refit whose *fit* fails (here: a one-attribute schema, which no
/// method accepts) refunds its charge in full.
#[test]
fn a_failed_refit_refunds_its_charge() {
    // The store accepts the batch — schema validation is per-row, and a
    // one-column dataset is well-formed; only the fit rejects it.
    let one_col = Schema::new(vec![Attribute::binary("smoker")]).unwrap();
    let narrow =
        Dataset::from_rows(one_col, &(0..20).map(|i| vec![i % 2]).collect::<Vec<_>>()).unwrap();
    assert!(matches!(
        fit_method(Method::PrivBayes, &narrow, 0.5, 9, &FitSettings::default()),
        Err(SynthError::InvalidConfig(_))
    ));
    let mut csv = Vec::new();
    write_csv(&narrow, &mut csv).unwrap();

    let registry = Arc::new(ModelRegistry::new());
    let ledger = Arc::new(BudgetLedger::in_memory());
    ledger.register("acme", 2.0).unwrap();
    let config = ServerConfig {
        fit_threads: Some(1),
        refit: RefitPolicy { min_rows: 1, max_staleness: None },
        ..ServerConfig::default()
    };
    let (handle, client) = start_server(config, Arc::clone(&registry), Arc::clone(&ledger));

    let body = Json::object(vec![
        ("schema", privbayes_suite::model::schema_to_json(narrow.schema())),
        ("model_id", Json::String("narrow-model".into())),
        ("epsilon", Json::Number(0.5)),
        ("csv", Json::String(String::from_utf8(csv).unwrap())),
    ]);
    assert_eq!(client.ingest("acme", &body).unwrap().code, 200);
    assert!(
        eventually(|| {
            client
                .metrics()
                .ok()
                .and_then(|s| s.value("privbayes_refits_total", &[("status", "failed")]))
                .is_some_and(|v| v >= 1.0)
        }),
        "the failed refit was never recorded"
    );
    assert!(registry.get("narrow-model").is_none());

    client.shutdown().unwrap();
    handle.join().unwrap();
    // Charged, fit failed, refunded: net zero once the janitor stops.
    let budgets = ledger.snapshot();
    assert_eq!(budgets[0].spent, 0.0, "a failed refit must refund its charge in full");
}

// ---------------------------------------------------------------------------
// 5. Journal durability: a crash at every persist step
// ---------------------------------------------------------------------------

/// The dataset journal inherits the ledger's crash contract: a fault at
/// any point up to (and including the instant before) the rename rolls the
/// append back — live engine untouched, a reopened store sees only the
/// first batch — while a crash before the final directory fsync is already
/// durable. A retried append always lands, and the recovered engine
/// answers the exact cold counts either way.
#[test]
fn the_dataset_journal_survives_a_crash_at_every_persist_step() {
    let spec = refit_spec("acme-model", 1.0, 7);
    let cases: &[(&str, Fault, bool)] = &[
        ("fail", Fault::Fail, false),
        ("torn", Fault::ShortWrite, false),
        ("crash-write", Fault::CrashAt(LedgerStep::WriteTmp), false),
        ("crash-sync", Fault::CrashAt(LedgerStep::SyncTmp), false),
        ("crash-rename", Fault::CrashAt(LedgerStep::Rename), false),
        ("crash-syncdir", Fault::CrashAt(LedgerStep::SyncDir), true),
    ];
    for &(tag, fault, durable) in cases {
        let dir = temp_dir(&format!("crash-{tag}"));
        let store = DatasetStore::open(&dir).unwrap();
        store.append("acme", &dataset(&rows(0..5)), Some(&spec)).unwrap();

        store.set_fault_plan(Some(Arc::new(FaultPlan::new().inject(
            FaultSite::DatasetPersist,
            0,
            fault,
        ))));
        let outcome = store.append("acme", &dataset(&rows(5..8)), None);
        store.set_fault_plan(None);

        if durable {
            // The rename happened: the batch is on disk and in the engine
            // even though the process "died" before the directory fsync.
            let receipt = outcome.unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(receipt.total_rows, 8, "{tag}");
        } else {
            // The journal is the commit point: no journal, no append.
            assert!(outcome.is_err(), "{tag}: a non-durable fault must fail the append");
            assert_eq!(
                store.with_engine("acme", CountEngine::n),
                Some(5),
                "{tag}: the live engine must be untouched after rollback"
            );
            let midway = DatasetStore::open(&dir).unwrap();
            assert_eq!(
                midway.snapshot()[0].total_rows,
                5,
                "{tag}: a reopened store must see only the committed batch"
            );
            // The client retries the rejected batch; it lands cleanly.
            let receipt = store.append("acme", &dataset(&rows(5..8)), None).unwrap();
            assert_eq!(receipt.total_rows, 8, "{tag}");
        }

        // Either way the journal now holds all 8 rows, bit-exact.
        let recovered = DatasetStore::open(&dir).unwrap();
        let tenants = recovered.snapshot();
        assert_eq!(tenants[0].total_rows, 8, "{tag}");
        assert_eq!(tenants[0].refit, spec, "{tag}");
        let axes = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
        assert_eq!(
            recovered.with_engine("acme", |e| e.joint(&axes)).unwrap(),
            ContingencyTable::from_dataset(&dataset(&rows(0..8)), &axes).values().to_vec(),
            "{tag}: the recovered engine must answer the exact cold counts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
