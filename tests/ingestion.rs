//! The ingestion tier: continuous data arrival as a first-class, exactly
//! accounted workflow.
//!
//! 1. **Bit-identity** — an incrementally appended [`CountEngine`] answers
//!    every marginal, fits every method, and (loaded into a server) streams
//!    every synthesis byte *identically* to a cold fit over the rows so
//!    far, whatever the engine counted before a batch landed.
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
//! 4. **Durability** — the dataset log survives a crash at every step of
//!    its write (an I/O error cuts the log back and refuses the batch; a
//!    crash leaves nothing or a whole record that a restart recovers), and
//!    a power loss at any byte of its final record: a reopen gives exactly
//!    the acknowledged rows and accepts the retried batch, while damage
//!    to any earlier record refuses the reopen.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use privbayes_suite::core::CHUNK_ROWS;
use privbayes_suite::data::csv::write_csv;
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::marginals::{Axis, ContingencyTable, CountEngine};
use privbayes_suite::model::{Json, ReleasedModel};
use privbayes_suite::server::{
    BudgetLedger, Client, Cursor, DatasetStore, Fault, FaultPlan, FaultSite, ModelRegistry,
    PersistStep, RefitPolicy, RefitSpec, Server, ServerConfig, ServerError, ServerHandle,
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
/// over the rows so far. Every later append lands on an engine that the
/// fits after the previous batch counted through.
#[test]
fn appends_are_bit_identical_to_a_cold_fit() {
    let store = DatasetStore::in_memory();
    let spec = refit_spec("acme-model", 1.0, 7);
    let settings = FitSettings::default();
    let axis_sets: &[&[usize]] = &[&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 2], &[0, 1, 2]];
    for batch in [0..300, 300..500, 500..650] {
        let end = batch.end;
        store.append("acme", &dataset(&rows(batch)), Some(&spec)).unwrap();
        let cold_data = dataset(&rows(0..end));

        // Every joint marginal is exactly the cold contingency table.
        for attrs in axis_sets {
            let axes: Vec<Axis> = attrs.iter().map(|&a| Axis::raw(a)).collect();
            let live = store.with_engine("acme", |e| e.joint(&axes)).unwrap();
            let cold = ContingencyTable::from_dataset(&cold_data, &axes).values().to_vec();
            assert_eq!(live, cold, "{end} rows: joint over {attrs:?} must match a cold scan");
        }

        // Every method fits the identical artifact through the appended
        // engine.
        for method in Method::ALL {
            let live = store
                .with_engine("acme", |e| fit_method_with_engine(method, e, 1.0, 7, &settings))
                .unwrap()
                .unwrap();
            let cold = fit_method(method, &cold_data, 1.0, 7, &settings).unwrap();
            assert_eq!(
                live.artifact.to_json_string().unwrap(),
                cold.artifact.to_json_string().unwrap(),
                "{method} at {end} rows: a fit over appends must serialise bit-identically \
                 to a cold fit"
            );
            assert_eq!(live.epsilon_spent, cold.epsilon_spent, "{method}");
        }
    }
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
    // Each refit adds its own engine work, not the long-lived tenant
    // engine's running total: the two refits together count what cold fits
    // over their 40 and 70 rows count.
    let cold: Vec<_> = [40, 70]
        .iter()
        .map(|&end| {
            fit_method(Method::PrivBayes, &dataset(&rows(0..end)), 0.5, 9, &FitSettings::default())
                .unwrap()
                .stats
        })
        .collect();
    assert!(cold[0].subsets > 0, "the first refit walks a subset lattice");
    for (family, per_fit) in [
        ("privbayes_engine_subsets_total", cold.iter().map(|s| s.subsets as u64).sum::<u64>()),
        ("privbayes_engine_scans_total", cold.iter().map(|s| s.scans as u64).sum()),
        (
            "privbayes_engine_bytes_materialized_total",
            cold.iter().map(|s| s.bytes_materialized).sum(),
        ),
    ] {
        assert_eq!(snapshot.value(family, &[]), Some(per_fit as f64), "{family}");
    }

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
// 5. Journal durability: a crash at every persist step, power loss at every
//    byte
// ---------------------------------------------------------------------------

/// Rows `0..n` of the fixture as the tenant's exact cold counts.
fn cold_counts(n: u32) -> Vec<f64> {
    let axes = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
    ContingencyTable::from_dataset(&dataset(&rows(0..n)), &axes).values().to_vec()
}

/// The recovered tenant's row count and joint counts (`None` when the
/// store holds no tenant).
fn recovered(store: &DatasetStore) -> Option<(u64, Vec<f64>)> {
    let axes = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
    let total = store.snapshot().first()?.total_rows;
    Some((total, store.with_engine("acme", |e| e.joint(&axes))?))
}

/// The dataset log keeps the journal's crash contract at each step of its
/// write: an I/O error cuts the log back and the batch is refused with no
/// bytes left; a crash before the write, or half-way through it, leaves
/// nothing a restart recovers; a crash after the write but before its
/// fsync leaves the whole record in the page cache, so a restart recovers
/// the batch the client never saw acknowledged (power loss at that instant
/// is the next test's subject); and a crash before the directory sync of
/// a tenant's first batch leaves a synced file a restart recovers. A
/// retried append always lands, and the recovered engine answers the
/// exact cold counts.
#[test]
fn the_dataset_journal_survives_a_crash_at_every_persist_step() {
    let spec = refit_spec("acme-model", 1.0, 7);
    // (tag, fault, is the faulted append the tenant's first, does a
    // restart recover the faulted batch)
    let cases: &[(&str, Fault, bool, bool)] = &[
        ("fail", Fault::Fail, false, false),
        ("fail-first", Fault::Fail, true, false),
        ("torn", Fault::ShortWrite, false, false),
        ("torn-first", Fault::ShortWrite, true, false),
        ("crash-write", Fault::CrashAt(PersistStep::Write), false, false),
        ("crash-sync", Fault::CrashAt(PersistStep::Sync), false, true),
        ("crash-syncdir", Fault::CrashAt(PersistStep::SyncDir), true, true),
    ];
    for &(tag, fault, first, survives) in cases {
        let dir = temp_dir(&format!("crash-{tag}"));
        let log = dir.join("acme.dataset.log");
        let store = DatasetStore::open(&dir).unwrap();
        let committed: u32 = if first { 0 } else { 5 };
        if !first {
            store.append("acme", &dataset(&rows(0..5)), Some(&spec)).unwrap();
        }
        let before = std::fs::read(&log).unwrap_or_default();

        store.set_fault_plan(Some(Arc::new(FaultPlan::new().inject(
            FaultSite::DatasetPersist,
            0,
            fault,
        ))));
        let outcome = store.append("acme", &dataset(&rows(committed..8)), Some(&spec));
        store.set_fault_plan(None);
        // No fault lets the append be acknowledged, and none touches the
        // live engine.
        assert!(outcome.is_err(), "{tag}: a faulted append must be refused");
        let live = store.with_engine("acme", CountEngine::n).unwrap_or(0);
        assert_eq!(live, committed as usize, "{tag}: the live engine must be untouched");

        let store = if fault == Fault::Fail {
            // An I/O error is not a crash: the process lives on, the log is
            // cut back to its committed bytes, and the retry goes to the
            // same store.
            assert_eq!(std::fs::read(&log).unwrap_or_default(), before, "{tag}: bytes left");
            store
        } else {
            // A crash: restart from whatever the dead process left.
            drop(store);
            let restarted = DatasetStore::open(&dir)
                .unwrap_or_else(|e| panic!("{tag}: restart must recover, got {e}"));
            let expected = if survives { 8 } else { committed };
            let got = recovered(&restarted).map_or(0, |(total, _)| total);
            assert_eq!(got, u64::from(expected), "{tag}: rows after the restart");
            restarted
        };
        if !survives {
            // The client retries the refused batch; it lands cleanly.
            let receipt = store.append("acme", &dataset(&rows(committed..8)), Some(&spec)).unwrap();
            assert_eq!(receipt.total_rows, 8, "{tag}");
        }
        drop(store);

        // Either way the log now holds all 8 rows, bit-exact.
        let reopened = DatasetStore::open(&dir).unwrap();
        assert_eq!(reopened.snapshot()[0].refit, spec, "{tag}");
        assert_eq!(recovered(&reopened), Some((8, cold_counts(8))), "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Power loss can keep any prefix of an unsynced write, but never loses a
/// synced one. So after each acknowledged append, the log is cut at every
/// byte from the previous acknowledgement's length to the new one — every
/// state a power loss during that append could leave. Reopening must give
/// exactly the rows acknowledged by then (the new batch only once its
/// whole record is there), cold-count equal, and must accept the retried
/// batch. A flipped byte inside any record but the last makes the reopen
/// fail, naming the file.
#[test]
fn acknowledged_rows_survive_power_loss_at_every_byte_of_the_final_record() {
    let spec = refit_spec("acme-model", 1.0, 7);
    let dir = temp_dir("power");
    let scratch = temp_dir("power-cut");
    let log = dir.join("acme.dataset.log");
    let cut_log = scratch.join("acme.dataset.log");
    let store = DatasetStore::open(&dir).unwrap();
    let bounds = [0u32, 5, 8, 15, 17];
    let mut synced = 0usize;
    let mut record_starts = Vec::new();
    for pair in bounds.windows(2) {
        let (acked, next) = (pair[0], pair[1]);
        store.append("acme", &dataset(&rows(acked..next)), Some(&spec)).unwrap();
        let bytes = std::fs::read(&log).unwrap();
        for cut in synced..=bytes.len() {
            let _ = std::fs::remove_dir_all(&scratch);
            std::fs::create_dir_all(&scratch).unwrap();
            std::fs::write(&cut_log, &bytes[..cut]).unwrap();
            let reopened = DatasetStore::open(&scratch)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: reopen failed: {e}"));
            let whole = if cut == bytes.len() { next } else { acked };
            let expected = (whole > 0).then(|| (u64::from(whole), cold_counts(whole)));
            // A cut inside a first write's batch record may keep its header,
            // which registers the tenant with no rows.
            let got = recovered(&reopened).filter(|&(total, _)| total > 0);
            assert_eq!(got, expected, "cut at byte {cut} of {}", bytes.len());
            if cut < bytes.len() {
                let receipt =
                    reopened.append("acme", &dataset(&rows(acked..next)), Some(&spec)).unwrap();
                assert_eq!(receipt.total_rows, u64::from(next), "cut at byte {cut}");
                drop(reopened);
                let again = DatasetStore::open(&scratch).unwrap();
                assert_eq!(
                    recovered(&again),
                    Some((u64::from(next), cold_counts(next))),
                    "cut at byte {cut}: the retried batch must recover"
                );
            }
        }
        record_starts.push(synced);
        synced = bytes.len();
    }
    drop(store);

    let whole = std::fs::read(&log).unwrap();
    for &start in &record_starts[..record_starts.len() - 1] {
        // The first byte after each record's 8-byte length and checksum.
        let mut flipped = whole.clone();
        flipped[start + 8] ^= 0x40;
        std::fs::write(&log, &flipped).unwrap();
        let err = DatasetStore::open(&dir).unwrap_err().to_string();
        assert!(err.contains(&log.display().to_string()), "byte {}: {err}", start + 8);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}
