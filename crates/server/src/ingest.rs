//! Per-tenant online ingestion: durable dataset journals feeding live
//! incremental count engines.
//!
//! [`DatasetStore`] holds one state per tenant: the full coded dataset,
//! journaled as CRC-tagged `privbayes-dataset/1` JSON, and a live
//! [`CountEngine`] the rows have been appended into. An append batch is
//! validated against the tenant's schema, journaled with the same
//! write-temp → `fsync` → rename → directory-sync sequence the budget
//! ledger uses (one `FaultSite::DatasetPersist` step per persist under
//! fault injection), and only then merged into the engine — a persist
//! failure before the rename rolls the whole append back, so the journal
//! and the engine can never disagree about which rows exist, and a crash
//! at any instant leaves the file as either the complete old dataset or
//! the complete new one.
//!
//! Because [`CountEngine::append`] integer-adds batch counts into cached
//! tables, an engine grown by appends is bit-identical to one cold-built
//! over the concatenated data. A refit over the live engine therefore
//! produces exactly the network a from-scratch fit over all rows would —
//! the journal is only ever replayed at recovery.
//!
//! The store also owns the *when* of refitting: [`RefitPolicy`] names the
//! row-count and staleness triggers, [`DatasetStore::due_refits`] hands
//! out at most one in-flight [`RefitJob`] per tenant, and
//! [`DatasetStore::refit_finished`] records how many rows the new model
//! generation covers (journaled best-effort: losing that metadata can
//! only cause one extra — correctly ε-charged — refit after a restart,
//! never a missed charge).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use privbayes_data::csv::read_csv;
use privbayes_data::{Dataset, Schema};
use privbayes_marginals::CountEngine;
use privbayes_model::{schema_from_json, schema_to_json, Json};
use privbayes_synth::Method;

use crate::error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{Fault, FaultPlan, FaultSite, LedgerStep};
use crate::ledger::crc32;
use crate::registry::validate_id;

/// The dataset journal file format identifier.
pub const DATASET_FORMAT: &str = "privbayes-dataset/1";

/// When a tenant's accumulated rows trigger a background refit.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitPolicy {
    /// Refit once at least this many rows are pending (appended since the
    /// last fitted generation). `u64::MAX` disables the row trigger.
    pub min_rows: u64,
    /// Refit once *any* rows have been pending this long, even if fewer
    /// than `min_rows`. `None` disables the staleness trigger.
    pub max_staleness: Option<Duration>,
}

impl RefitPolicy {
    /// A policy that never triggers (the server's default).
    #[must_use]
    pub fn disabled() -> Self {
        Self { min_rows: u64::MAX, max_staleness: None }
    }

    /// Whether either trigger can ever fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.min_rows != u64::MAX || self.max_staleness.is_some()
    }
}

/// What a tenant's background refits produce: which model to re-release,
/// with which method, and at what per-refit ε price. The seed is fixed so
/// every generation is a pure function of (data, spec) — the bit-identity
/// tests fit cold over the same rows and compare artifacts exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitSpec {
    /// The registry id the refit (re-)loads; each refit bumps its
    /// generation.
    pub model_id: String,
    /// The synthesis method to fit.
    pub method: Method,
    /// ε debited from the tenant's ledger per refit.
    pub epsilon: f64,
    /// The fit seed (deterministic across refits by design).
    pub seed: u64,
}

/// What one accepted append did to a tenant's dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReceipt {
    /// Rows in the accepted batch.
    pub batch_rows: u64,
    /// All rows ever accepted for the tenant.
    pub total_rows: u64,
    /// Rows not yet covered by a fitted model generation.
    pub pending_rows: u64,
}

/// A due refit handed to the server's refit driver. The tenant stays
/// marked in-flight until [`DatasetStore::refit_finished`] is called.
#[derive(Debug, Clone)]
pub struct RefitJob {
    /// The tenant whose data is due.
    pub tenant: String,
    /// What to fit and at what price.
    pub spec: RefitSpec,
    /// Rows the engine held when the job was cut — what the new
    /// generation will cover.
    pub total_rows: u64,
}

/// One row of [`DatasetStore::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantIngest {
    /// Tenant name.
    pub tenant: String,
    /// All rows ever accepted.
    pub total_rows: u64,
    /// Rows covered by the latest fitted generation.
    pub fitted_rows: u64,
    /// The tenant's refit target.
    pub refit: RefitSpec,
}

/// The wire encodings accepted for an ingest batch body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFormat {
    /// Headered CSV of coded values, exactly the `POST /fit` layout.
    Csv,
    /// One JSON object (attribute name → code) or array (codes in schema
    /// order) per line.
    Jsonl,
}

/// Parses a batch body into a [`Dataset`] over `schema`.
///
/// # Errors
/// Returns [`ServerError::Dataset`] for malformed rows, unknown
/// attributes, or out-of-domain codes.
pub fn parse_batch(
    schema: &Schema,
    format: BatchFormat,
    text: &str,
) -> Result<Dataset, ServerError> {
    match format {
        BatchFormat::Csv => read_csv(schema, text.as_bytes())
            .map_err(|e| ServerError::Dataset(format!("csv batch: {e}"))),
        BatchFormat::Jsonl => parse_jsonl(schema, text),
    }
}

fn parse_jsonl(schema: &Schema, text: &str) -> Result<Dataset, ServerError> {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| ServerError::Dataset(format!("jsonl line {}: {msg}", index + 1));
        let json = Json::parse(line).map_err(|e| at(e.to_string()))?;
        let code = |value: Option<&Json>, name: &str| -> Result<u32, ServerError> {
            let raw = value
                .and_then(Json::as_usize)
                .ok_or_else(|| at(format!("missing or mistyped `{name}`")))?;
            u32::try_from(raw).map_err(|_| at(format!("`{name}` exceeds the code range")))
        };
        let row: Vec<u32> = if let Some(items) = json.as_array() {
            if items.len() != schema.len() {
                return Err(at(format!("expected {} codes, found {}", schema.len(), items.len())));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, v)| code(Some(v), schema.attribute(i).name()))
                .collect::<Result<_, _>>()?
        } else if json.as_object().is_some() {
            schema
                .attributes()
                .iter()
                .map(|a| code(json.get(a.name()), a.name()))
                .collect::<Result<_, _>>()?
        } else {
            return Err(at("expected a JSON object or array of codes".into()));
        };
        rows.push(row);
    }
    Dataset::from_rows(schema.clone(), &rows)
        .map_err(|e| ServerError::Dataset(format!("jsonl batch: {e}")))
}

/// Everything the store tracks for one tenant. The engine owns the only
/// copy of the coded columns; the journal is rendered from it on demand.
#[derive(Debug)]
struct TenantState {
    engine: CountEngine,
    refit: RefitSpec,
    /// Rows covered by the latest fitted model generation.
    fitted_rows: u64,
    /// When the oldest currently-pending row arrived (drives the
    /// staleness trigger). Reset after every refit outcome.
    pending_since: Option<Instant>,
    /// Set while a [`RefitJob`] for this tenant is outstanding, so a slow
    /// refit is never doubled up.
    refit_inflight: bool,
}

impl TenantState {
    fn pending_rows(&self) -> u64 {
        (self.engine.n() as u64).saturating_sub(self.fitted_rows)
    }
}

/// Why a journal persist did not complete cleanly — same semantics as the
/// ledger's: after the rename the new dataset *is* the file, so the
/// mutation is kept; before it, nothing landed and the append rolls back.
struct PersistFailure {
    durable: bool,
    error: ServerError,
}

/// The per-tenant dataset store. See the module docs for the durability
/// and bit-identity contracts.
#[derive(Debug)]
pub struct DatasetStore {
    dir: Option<PathBuf>,
    tenants: Mutex<BTreeMap<String, Arc<Mutex<TenantState>>>>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Mutex<Option<Arc<FaultPlan>>>,
}

impl DatasetStore {
    /// A store with no journal directory: appends feed live engines but
    /// nothing survives a restart.
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            tenants: Mutex::new(BTreeMap::new()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Mutex::new(None),
        }
    }

    /// Opens (creating if needed) a journal directory and recovers every
    /// `*.dataset.json` file in it: CRC-validated, schema-validated, and
    /// rebuilt into a live engine. Stray `*.tmp` debris from a crash
    /// mid-persist is ignored — the rename never landed, so the target
    /// file still holds the pre-crash dataset.
    ///
    /// # Errors
    /// Returns [`ServerError::Dataset`] if a journal file is unreadable,
    /// corrupt, or fails its checksum — a dataset that cannot be trusted
    /// must never be silently dropped or guessed at.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServerError> {
        let dir = dir.into();
        let io = |e: std::io::Error| ServerError::Dataset(format!("{}: {e}", dir.display()));
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut tenants = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let Some(tenant) = name.strip_suffix(".dataset.json") else { continue };
            let text = std::fs::read_to_string(&path)
                .map_err(|e| ServerError::Dataset(format!("{}: {e}", path.display())))?;
            let (named, state) = parse_journal(&text)
                .map_err(|e| ServerError::Dataset(format!("{}: {e}", path.display())))?;
            if named != tenant {
                return Err(ServerError::Dataset(format!(
                    "{}: journal names tenant `{named}`",
                    path.display()
                )));
            }
            tenants.insert(tenant.to_string(), Arc::new(Mutex::new(state)));
        }
        Ok(Self {
            dir: Some(dir),
            tenants: Mutex::new(tenants),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Mutex::new(None),
        })
    }

    /// Installs (or clears) a fault plan consulted on every journal
    /// persist. Test-only: absent from release builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock().expect("fault lock poisoned") = plan;
    }

    /// The registered tenants, in name order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TenantIngest> {
        let slots: Vec<(String, Arc<Mutex<TenantState>>)> = {
            let map = self.tenants.lock().expect("tenant map lock poisoned");
            map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        };
        slots
            .into_iter()
            .map(|(tenant, slot)| {
                let state = slot.lock().expect("tenant state lock poisoned");
                TenantIngest {
                    tenant,
                    total_rows: state.engine.n() as u64,
                    fitted_rows: state.fitted_rows,
                    refit: state.refit.clone(),
                }
            })
            .collect()
    }

    /// The schema the tenant's batches must match, if the tenant exists.
    #[must_use]
    pub fn schema(&self, tenant: &str) -> Option<Schema> {
        let slot = self.slot_of(tenant)?;
        let state = slot.lock().expect("tenant state lock poisoned");
        Some(state.engine.schema().clone())
    }

    /// Runs `f` against the tenant's live engine, holding the tenant's
    /// lock for the duration — appends to the same tenant wait, so the
    /// engine `f` sees is a consistent point-in-time dataset.
    pub fn with_engine<T>(&self, tenant: &str, f: impl FnOnce(&CountEngine) -> T) -> Option<T> {
        let slot = self.slot_of(tenant)?;
        let state = slot.lock().expect("tenant state lock poisoned");
        Some(f(&state.engine))
    }

    /// Appends a schema-validated batch to `tenant`'s dataset: journal
    /// first (durably), engine second — a persist failure before the
    /// rename returns the error with *nothing* appended.
    ///
    /// The first batch for a tenant must carry the [`RefitSpec`] naming
    /// what its refits produce; later batches may repeat it (it must
    /// match) or omit it.
    ///
    /// # Errors
    /// [`ServerError::Protocol`] for a bad tenant name,
    /// [`ServerError::Dataset`] for a schema/refit mismatch or a
    /// non-durable journal failure.
    pub fn append(
        &self,
        tenant: &str,
        batch: &Dataset,
        refit: Option<&RefitSpec>,
    ) -> Result<IngestReceipt, ServerError> {
        validate_id(tenant)?;
        if let Some(spec) = refit {
            validate_id(&spec.model_id)?;
            if !spec.epsilon.is_finite() || spec.epsilon <= 0.0 {
                return Err(ServerError::Dataset(format!(
                    "refit epsilon must be positive and finite, got {}",
                    spec.epsilon
                )));
            }
        }
        let slot = self.slot(tenant, batch.schema(), refit)?;
        let mut state = slot.lock().expect("tenant state lock poisoned");
        if state.engine.schema() != batch.schema() {
            return Err(ServerError::Dataset(format!(
                "batch schema does not match tenant `{tenant}`'s dataset"
            )));
        }
        if let Some(spec) = refit {
            if *spec != state.refit {
                return Err(ServerError::Dataset(format!(
                    "refit target differs from tenant `{tenant}`'s registered one \
                     (model `{}`, method `{}`, epsilon {}, seed {})",
                    state.refit.model_id,
                    state.refit.method.name(),
                    state.refit.epsilon,
                    state.refit.seed
                )));
            }
        }
        if batch.n() > 0 {
            if let Some(dir) = &self.dir {
                // Render the *post-append* dataset and persist it before
                // touching the engine: the journal is the commit point.
                let columns = appended_columns(&state.engine, batch);
                let inner = dataset_json(
                    tenant,
                    state.engine.schema(),
                    &columns,
                    state.engine.n() + batch.n(),
                    &state.refit,
                    state.fitted_rows,
                );
                if let Err(f) = self.persist(&Self::tenant_path(dir, tenant), &render(inner)) {
                    if !f.durable {
                        return Err(f.error);
                    }
                }
            }
            state.engine.append(batch);
            if state.pending_since.is_none() {
                state.pending_since = Some(Instant::now());
            }
        }
        Ok(IngestReceipt {
            batch_rows: batch.n() as u64,
            total_rows: state.engine.n() as u64,
            pending_rows: state.pending_rows(),
        })
    }

    /// Cuts a [`RefitJob`] for every tenant the policy says is due, and
    /// marks each in-flight — the caller *must* answer every job with
    /// [`DatasetStore::refit_finished`], success or not, or the tenant
    /// never refits again.
    #[must_use]
    pub fn due_refits(&self, policy: &RefitPolicy) -> Vec<RefitJob> {
        let slots: Vec<(String, Arc<Mutex<TenantState>>)> = {
            let map = self.tenants.lock().expect("tenant map lock poisoned");
            map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
        };
        let mut jobs = Vec::new();
        for (tenant, slot) in slots {
            let mut state = slot.lock().expect("tenant state lock poisoned");
            let pending = state.pending_rows();
            if state.refit_inflight || pending == 0 {
                continue;
            }
            let stale = state.pending_since.is_some_and(|since| {
                policy.max_staleness.is_some_and(|max| since.elapsed() >= max)
            });
            if pending >= policy.min_rows || stale {
                state.refit_inflight = true;
                jobs.push(RefitJob {
                    tenant,
                    spec: state.refit.clone(),
                    total_rows: state.engine.n() as u64,
                });
            }
        }
        jobs
    }

    /// Reports a [`RefitJob`]'s outcome. On success, `fitted_rows` is the
    /// job's `total_rows` — rows appended *during* the fit stay pending
    /// and re-trigger normally. On failure (`None`), the staleness clock
    /// restarts so a persistently failing refit retries at the staleness
    /// cadence instead of spinning.
    pub fn refit_finished(&self, tenant: &str, fitted_rows: Option<u64>) {
        let Some(slot) = self.slot_of(tenant) else { return };
        let mut state = slot.lock().expect("tenant state lock poisoned");
        state.refit_inflight = false;
        match fitted_rows {
            Some(rows) => {
                state.fitted_rows = state.fitted_rows.max(rows);
                state.pending_since = (state.pending_rows() > 0).then(Instant::now);
                // Best-effort metadata persist: if it fails, a restart
                // re-pends these rows and refits once more — an extra,
                // correctly charged fit, never a forgotten one.
                if let Some(dir) = &self.dir {
                    let columns: Vec<Vec<u32>> = (0..state.engine.schema().len())
                        .map(|a| state.engine.column(a).to_vec())
                        .collect();
                    let inner = dataset_json(
                        tenant,
                        state.engine.schema(),
                        &columns,
                        state.engine.n(),
                        &state.refit,
                        state.fitted_rows,
                    );
                    let _ = self.persist(&Self::tenant_path(dir, tenant), &render(inner));
                }
            }
            None => state.pending_since = Some(Instant::now()),
        }
    }

    fn slot_of(&self, tenant: &str) -> Option<Arc<Mutex<TenantState>>> {
        self.tenants.lock().expect("tenant map lock poisoned").get(tenant).map(Arc::clone)
    }

    /// The tenant's slot, created from the batch schema + refit spec when
    /// absent. Creation requires the spec — a tenant with no refit target
    /// would accumulate rows it could never spend.
    fn slot(
        &self,
        tenant: &str,
        schema: &Schema,
        refit: Option<&RefitSpec>,
    ) -> Result<Arc<Mutex<TenantState>>, ServerError> {
        let mut map = self.tenants.lock().expect("tenant map lock poisoned");
        if let Some(slot) = map.get(tenant) {
            return Ok(Arc::clone(slot));
        }
        let Some(spec) = refit else {
            return Err(ServerError::Dataset(format!(
                "first ingest batch for tenant `{tenant}` must name a refit target \
                 (model_id, method, epsilon, seed)"
            )));
        };
        let state = TenantState {
            engine: CountEngine::new(&Dataset::empty(schema.clone())),
            refit: spec.clone(),
            fitted_rows: 0,
            pending_since: None,
            refit_inflight: false,
        };
        let slot = Arc::new(Mutex::new(state));
        map.insert(tenant.to_string(), Arc::clone(&slot));
        Ok(slot)
    }

    fn tenant_path(dir: &Path, tenant: &str) -> PathBuf {
        // `validate_id` admits only `[A-Za-z0-9._-]`, so the name can
        // never smuggle a path separator.
        dir.join(format!("{tenant}.dataset.json"))
    }

    /// The ledger's crash-durable persist sequence, verbatim, against the
    /// dataset journal: write sibling temp, `fsync` it, rename over the
    /// target, `fsync` the parent directory. One
    /// `FaultSite::DatasetPersist` step is consumed per call under fault
    /// injection; `CrashAt(step)` aborts immediately before the named
    /// step, exactly as `kill -9` at that instant would.
    fn persist(&self, path: &Path, body: &str) -> Result<(), PersistFailure> {
        let io_err = |e: std::io::Error| ServerError::Dataset(format!("{}: {e}", path.display()));
        let fail = |durable: bool, error: ServerError| -> PersistFailure {
            PersistFailure { durable, error }
        };
        let tmp = path.with_extension("tmp");

        #[cfg(any(test, feature = "fault-injection"))]
        let injected: Option<Fault> = self
            .fault
            .lock()
            .expect("fault lock poisoned")
            .as_ref()
            .map(Arc::clone)
            .and_then(|p| p.take(FaultSite::DatasetPersist));
        #[cfg(any(test, feature = "fault-injection"))]
        let crashed = |step: LedgerStep| -> Option<PersistFailure> {
            match injected {
                Some(Fault::CrashAt(s)) if s == step => Some(PersistFailure {
                    durable: step == LedgerStep::SyncDir,
                    error: ServerError::Dataset(format!("injected crash before {step:?}")),
                }),
                _ => None,
            }
        };

        #[cfg(any(test, feature = "fault-injection"))]
        {
            if let Some(f) = crashed(LedgerStep::WriteTmp) {
                return Err(f);
            }
            match injected {
                Some(Fault::Fail) => {
                    return Err(fail(
                        false,
                        ServerError::Dataset("injected persist failure".to_string()),
                    ))
                }
                Some(Fault::ShortWrite) => {
                    // Die halfway through writing the temp file: the
                    // target is untouched, the temp file is torn garbage.
                    let _ = std::fs::write(&tmp, &body.as_bytes()[..body.len() / 2]);
                    return Err(fail(
                        false,
                        ServerError::Dataset("injected crash mid temp-file write".to_string()),
                    ));
                }
                _ => {}
            }
        }

        let mut file = File::create(&tmp).map_err(|e| fail(false, io_err(e)))?;
        file.write_all(body.as_bytes()).map_err(|e| fail(false, io_err(e)))?;

        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(f) = crashed(LedgerStep::SyncTmp) {
            return Err(f);
        }

        file.sync_all().map_err(|e| fail(false, io_err(e)))?;
        drop(file);

        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(f) = crashed(LedgerStep::Rename) {
            return Err(f);
        }

        std::fs::rename(&tmp, path).map_err(|e| fail(false, io_err(e)))?;

        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(f) = crashed(LedgerStep::SyncDir) {
            return Err(f);
        }

        // Make the rename itself durable; past it the file already holds
        // the new dataset, so the caller keeps the append.
        #[cfg(unix)]
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = File::open(parent).and_then(|dir| dir.sync_all()) {
                return Err(fail(true, io_err(e)));
            }
        }
        Ok(())
    }
}

/// The tenant's full column set with `batch` appended — rendered before
/// the engine is touched, so the journal is always post-state.
fn appended_columns(engine: &CountEngine, batch: &Dataset) -> Vec<Vec<u32>> {
    (0..engine.schema().len())
        .map(|a| {
            let mut col = Vec::with_capacity(engine.n() + batch.n());
            col.extend_from_slice(engine.column(a));
            col.extend_from_slice(batch.column(a));
            col
        })
        .collect()
}

/// The canonical inner object the journal CRC is computed over.
fn dataset_json(
    tenant: &str,
    schema: &Schema,
    columns: &[Vec<u32>],
    rows: usize,
    refit: &RefitSpec,
    fitted_rows: u64,
) -> Json {
    Json::object(vec![
        ("tenant", Json::String(tenant.to_string())),
        ("rows", Json::from_usize(rows)),
        ("fitted_rows", Json::from_usize(fitted_rows as usize)),
        (
            "refit",
            Json::object(vec![
                ("model_id", Json::String(refit.model_id.clone())),
                ("method", Json::String(refit.method.name().to_string())),
                ("epsilon", Json::Number(refit.epsilon)),
                // Hex, not a JSON number: a u64 seed can exceed f64's
                // exact-integer range.
                ("seed", Json::String(format!("{:016x}", refit.seed))),
            ]),
        ),
        ("schema", schema_to_json(schema)),
        (
            "columns",
            Json::Array(
                columns
                    .iter()
                    .map(|col| {
                        Json::Array(col.iter().map(|&c| Json::from_usize(c as usize)).collect())
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders the journal file around `inner`, taking it by value: the tree
/// holds a node per stored cell, so a copy would double each batch's
/// transient memory.
fn render(inner: Json) -> String {
    let canonical = inner.to_string_compact().expect("codes are finite");
    let crc = crc32(canonical.as_bytes());
    drop(canonical);
    Json::object(vec![
        ("format", Json::String(DATASET_FORMAT.to_string())),
        ("crc", Json::String(format!("{crc:08x}"))),
        ("dataset", inner),
    ])
    .to_string_pretty()
    .expect("codes are finite")
}

/// Parses and CRC-validates one journal file into a recovered tenant
/// state. The checksum is recomputed over the canonical re-rendering of
/// the parsed content (exactly like the v2 ledger), so whitespace is
/// irrelevant but any value corruption is caught.
fn parse_journal(text: &str) -> Result<(String, TenantState), String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    match json.get("format").and_then(Json::as_str) {
        Some(DATASET_FORMAT) => {}
        other => return Err(format!("unsupported format {other:?}, expected `{DATASET_FORMAT}`")),
    }
    let dataset = json.get("dataset").ok_or("missing `dataset` object")?;
    let field = |name: &str| format!("missing or mistyped `{name}`");
    let tenant = dataset.get("tenant").and_then(Json::as_str).ok_or_else(|| field("tenant"))?;
    let rows = dataset.get("rows").and_then(Json::as_usize).ok_or_else(|| field("rows"))?;
    let fitted_rows =
        dataset.get("fitted_rows").and_then(Json::as_usize).ok_or_else(|| field("fitted_rows"))?
            as u64;
    let refit_json = dataset.get("refit").ok_or_else(|| field("refit"))?;
    let method_name =
        refit_json.get("method").and_then(Json::as_str).ok_or_else(|| field("method"))?;
    let refit = RefitSpec {
        model_id: refit_json
            .get("model_id")
            .and_then(Json::as_str)
            .ok_or_else(|| field("model_id"))?
            .to_string(),
        method: Method::parse(method_name)
            .ok_or_else(|| format!("unknown refit method `{method_name}`"))?,
        epsilon: refit_json
            .get("epsilon")
            .and_then(Json::as_f64)
            .ok_or_else(|| field("epsilon"))?,
        seed: refit_json
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| field("seed"))?,
    };
    let schema = schema_from_json(dataset.get("schema").ok_or_else(|| field("schema"))?)
        .map_err(|e| e.to_string())?;
    let column_json =
        dataset.get("columns").and_then(Json::as_array).ok_or_else(|| field("columns"))?;
    let mut columns: Vec<Vec<u32>> = Vec::with_capacity(column_json.len());
    for (a, col) in column_json.iter().enumerate() {
        let items = col.as_array().ok_or_else(|| format!("column {a} is not an array"))?;
        let mut out = Vec::with_capacity(items.len());
        for v in items {
            let raw = v.as_usize().ok_or_else(|| format!("column {a} holds a non-code value"))?;
            out.push(u32::try_from(raw).map_err(|_| format!("column {a} code exceeds the range"))?);
        }
        columns.push(out);
    }
    let stored = json.get("crc").and_then(Json::as_str).ok_or("journal is missing `crc`")?;
    let canonical = dataset_json(tenant, &schema, &columns, rows, &refit, fitted_rows)
        .to_string_compact()
        .expect("codes are finite");
    let expected = format!("{:08x}", crc32(canonical.as_bytes()));
    if stored != expected {
        return Err(format!(
            "crc mismatch: file says {stored}, content hashes to {expected} \
             (corrupt dataset journal; refusing to guess at rows)"
        ));
    }
    let data = Dataset::from_columns(schema, columns).map_err(|e| e.to_string())?;
    if data.n() != rows {
        return Err(format!("journal says {rows} rows but columns hold {}", data.n()));
    }
    let fitted_rows = fitted_rows.min(rows as u64);
    let state = TenantState {
        pending_since: ((data.n() as u64) > fitted_rows).then(Instant::now),
        engine: CountEngine::new(&data),
        refit,
        fitted_rows,
        refit_inflight: false,
    };
    Ok((tenant.to_string(), state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::Attribute;
    use privbayes_marginals::{Axis, ContingencyTable};

    fn schema() -> Schema {
        Schema::new(vec![Attribute::binary("a"), Attribute::categorical("b", 3).unwrap()]).unwrap()
    }

    fn batch(rows: &[[u32; 2]]) -> Dataset {
        Dataset::from_rows(schema(), &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    fn spec() -> RefitSpec {
        RefitSpec { model_id: "m".into(), method: Method::PrivBayes, epsilon: 0.5, seed: 7 }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("privbayes-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn first_batch_requires_a_refit_target() {
        let store = DatasetStore::in_memory();
        let err = store.append("acme", &batch(&[[0, 1]]), None).unwrap_err();
        assert!(err.to_string().contains("refit target"), "{err}");
        // With the spec, the same batch lands.
        let receipt = store.append("acme", &batch(&[[0, 1]]), Some(&spec())).unwrap();
        assert_eq!(receipt.batch_rows, 1);
        assert_eq!(receipt.total_rows, 1);
        assert_eq!(receipt.pending_rows, 1);
    }

    #[test]
    fn appends_accumulate_and_match_a_cold_table() {
        let store = DatasetStore::in_memory();
        store.append("acme", &batch(&[[0, 0], [1, 2]]), Some(&spec())).unwrap();
        store.append("acme", &batch(&[[1, 1], [0, 2], [1, 0]]), None).unwrap();
        let axes = [Axis::raw(0), Axis::raw(1)];
        let live = store.with_engine("acme", |e| e.joint(&axes)).unwrap();
        let all = batch(&[[0, 0], [1, 2], [1, 1], [0, 2], [1, 0]]);
        let cold = ContingencyTable::from_dataset(&all, &axes);
        assert_eq!(live, cold.values().to_vec());
    }

    #[test]
    fn schema_and_refit_mismatches_are_rejected() {
        let store = DatasetStore::in_memory();
        store.append("acme", &batch(&[[0, 0]]), Some(&spec())).unwrap();
        let other = Dataset::from_rows(
            Schema::new(vec![Attribute::binary("x"), Attribute::binary("y")]).unwrap(),
            &[vec![0, 1]],
        )
        .unwrap();
        let err = store.append("acme", &other, None).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        let wrong = RefitSpec { epsilon: 0.9, ..spec() };
        let err = store.append("acme", &batch(&[[1, 1]]), Some(&wrong)).unwrap_err();
        assert!(err.to_string().contains("refit target differs"), "{err}");
        // Neither rejection appended anything.
        assert_eq!(store.snapshot()[0].total_rows, 1);
    }

    #[test]
    fn journal_round_trips_through_recovery() {
        let dir = temp_dir("roundtrip");
        let store = DatasetStore::open(&dir).unwrap();
        store.append("acme", &batch(&[[0, 0], [1, 2]]), Some(&spec())).unwrap();
        store.append("acme", &batch(&[[1, 1]]), None).unwrap();
        store.refit_finished("acme", Some(3));
        drop(store);

        let recovered = DatasetStore::open(&dir).unwrap();
        let rows = recovered.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tenant, "acme");
        assert_eq!(rows[0].total_rows, 3);
        assert_eq!(rows[0].fitted_rows, 3);
        assert_eq!(rows[0].refit, spec());
        let axes = [Axis::raw(0), Axis::raw(1)];
        let live = recovered.with_engine("acme", |e| e.joint(&axes)).unwrap();
        let all = batch(&[[0, 0], [1, 2], [1, 1]]);
        let cold = ContingencyTable::from_dataset(&all, &axes);
        assert_eq!(live, cold.values().to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journals_are_refused() {
        let dir = temp_dir("corrupt");
        let store = DatasetStore::open(&dir).unwrap();
        store.append("acme", &batch(&[[0, 0]]), Some(&spec())).unwrap();
        drop(store);
        let path = dir.join("acme.dataset.json");
        let flipped = std::fs::read_to_string(&path).unwrap().replace("\"rows\": 1", "\"rows\": 2");
        std::fs::write(&path, flipped).unwrap();
        let err = DatasetStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_failure_rolls_the_append_back() {
        let dir = temp_dir("rollback");
        let store = DatasetStore::open(&dir).unwrap();
        store.append("acme", &batch(&[[0, 0]]), Some(&spec())).unwrap();
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::DatasetPersist, 0, Fault::Fail));
        store.set_fault_plan(Some(plan));
        let err = store.append("acme", &batch(&[[1, 1]]), None).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(store.snapshot()[0].total_rows, 1, "failed append must not land");
        store.set_fault_plan(None);
        // The journal still holds exactly the pre-failure dataset.
        drop(store);
        let recovered = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshot()[0].total_rows, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refit_policy_triggers_and_single_flights() {
        let store = DatasetStore::in_memory();
        store.append("acme", &batch(&[[0, 0], [1, 1]]), Some(&spec())).unwrap();
        let rows_policy = RefitPolicy { min_rows: 3, max_staleness: None };
        assert!(store.due_refits(&rows_policy).is_empty(), "below the row floor");
        store.append("acme", &batch(&[[1, 2]]), None).unwrap();
        let jobs = store.due_refits(&rows_policy);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].tenant, "acme");
        assert_eq!(jobs[0].total_rows, 3);
        assert!(store.due_refits(&rows_policy).is_empty(), "in-flight jobs never double up");
        store.refit_finished("acme", Some(3));
        assert!(store.due_refits(&rows_policy).is_empty(), "nothing pending after success");
        // A staleness-only policy fires as soon as anything is pending.
        store.append("acme", &batch(&[[0, 2]]), None).unwrap();
        let stale_policy =
            RefitPolicy { min_rows: u64::MAX, max_staleness: Some(Duration::from_millis(0)) };
        assert_eq!(store.due_refits(&stale_policy).len(), 1);
        store.refit_finished("acme", None);
        assert!(
            store.due_refits(&RefitPolicy { min_rows: 1, max_staleness: None }).len() == 1,
            "failure keeps the rows pending"
        );
    }

    #[test]
    fn jsonl_batches_parse_in_both_row_shapes() {
        let s = schema();
        let text = "{\"a\": 1, \"b\": 2}\n\n[0, 1]\n";
        let data = parse_batch(&s, BatchFormat::Jsonl, text).unwrap();
        assert_eq!(data.n(), 2);
        assert_eq!(data.row(0), vec![1, 2]);
        assert_eq!(data.row(1), vec![0, 1]);
        assert!(parse_batch(&s, BatchFormat::Jsonl, "{\"a\": 1}").is_err(), "missing attribute");
        assert!(parse_batch(&s, BatchFormat::Jsonl, "[0, 9]").is_err(), "out-of-domain code");
        assert!(parse_batch(&s, BatchFormat::Jsonl, "7").is_err(), "scalar line");
        let csv = parse_batch(&s, BatchFormat::Csv, "a,b\n1,2\n").unwrap();
        assert_eq!(csv.row(0), vec![1, 2]);
    }
}
