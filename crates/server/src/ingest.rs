//! Per-tenant online ingestion: durable dataset logs feeding live
//! incremental count engines.
//!
//! [`DatasetStore`] holds one state per tenant: a live [`CountEngine`]
//! holding every row accepted for it, and, in a data directory, the
//! tenant's `{tenant}.dataset.log` (the append-only log of `durable.rs`).
//! The log is a sequence of CRC-framed records:
//!
//! * a header: the `privbayes-dataset/2` format, the tenant, its schema and
//!   its refit target, as compact JSON;
//! * one record per accepted batch: the row count, then the batch's codes
//!   column by column as little-endian `u32`;
//! * one record per finished refit: the rows the new generation covers.
//!
//! An append batch is validated against the tenant's schema, written as
//! one record and `fsync`ed, and only then appended to the engine: the log
//! is the commit point. A failed write or sync cuts the log back and
//! refuses the append, so the log and the engine never disagree about
//! which rows exist. The record holds the batch alone, so an append costs
//! the same whatever the tenant's history. A tenant's first batch creates
//! its log: header and batch in one write, one file sync and one directory
//! sync. Recovery replays the records, cuts a torn final record (the only
//! kind a crash or power loss can leave), and refuses damage to any
//! earlier one. It also refuses a `*.dataset.json` journal from the
//! retired `privbayes-dataset/1` format: there is no upgrade path.
//!
//! [`CountEngine::append`] grows the engine's columns and drops its cached
//! tables, so a refit counts every row afresh and the engine answers
//! exactly as one cold-built over the concatenated data would. A refit over
//! the live engine therefore produces exactly the network a from-scratch
//! fit over all rows would — the log is only ever replayed at recovery.
//!
//! The store also owns the *when* of refitting: [`RefitPolicy`] names the
//! row-count and staleness triggers, [`DatasetStore::due_refits`] hands
//! out at most one in-flight [`RefitJob`] per tenant, and
//! [`DatasetStore::refit_finished`] records how many rows the new model
//! generation covers (journaled best-effort: losing that record can only
//! cause one extra — correctly ε-charged — refit after a restart, never a
//! missed charge).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use privbayes_data::csv::read_csv;
use privbayes_data::{Dataset, Schema};
use privbayes_marginals::CountEngine;
use privbayes_model::{schema_from_json, schema_to_json, Json};
use privbayes_synth::Method;

use crate::durable::{push_frame, Injected, Log};
use crate::error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultPlan, FaultSite};
use crate::registry::validate_id;

/// The dataset log format identifier, carried in each log's header.
pub const DATASET_FORMAT: &str = "privbayes-dataset/2";

/// The file name suffix of a tenant's dataset log.
const LOG_SUFFIX: &str = ".dataset.log";

/// The first payload byte of a batch record.
const BATCH: u8 = b'B';

/// The first payload byte of a finished-refit record.
const REFIT: u8 = b'R';

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
/// in-memory copy of the coded columns.
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
    /// The tenant's log: absent in a store without a directory, and until
    /// the tenant's first non-empty batch creates the file.
    log: Option<Log>,
}

impl TenantState {
    fn pending_rows(&self) -> u64 {
        (self.engine.n() as u64).saturating_sub(self.fitted_rows)
    }
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
    /// A store with no data directory: appends feed live engines but
    /// nothing survives a restart.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::build(None, BTreeMap::new())
    }

    fn build(dir: Option<PathBuf>, tenants: BTreeMap<String, Arc<Mutex<TenantState>>>) -> Self {
        Self {
            dir,
            tenants: Mutex::new(tenants),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Mutex::new(None),
        }
    }

    /// Opens (creating if needed) a data directory and recovers every
    /// `*.dataset.log` in it into a live engine: records CRC-checked, a
    /// torn final record cut, the header's tenant and schema validated.
    /// An empty log (a first append that died before its header reached
    /// the disk) holds no tenant.
    ///
    /// # Errors
    /// Returns [`ServerError::Dataset`], naming the file, if a log is
    /// unreadable or damaged before its final record, or if the directory
    /// holds a `*.dataset.json` journal of the retired format — a dataset
    /// that cannot be trusted must never be silently dropped or guessed
    /// at.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServerError> {
        let dir = dir.into();
        let io = |e: std::io::Error| ServerError::Dataset(format!("{}: {e}", dir.display()));
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut tenants = BTreeMap::new();
        for entry in std::fs::read_dir(&dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let failed = |e: String| ServerError::Dataset(format!("{}: {e}", path.display()));
            if name.ends_with(".dataset.json") {
                return Err(failed(format!(
                    "a `privbayes-dataset/1` journal; this version reads only `{DATASET_FORMAT}` \
                     logs (`*{LOG_SUFFIX}`) and cannot upgrade it"
                )));
            }
            let Some(tenant) = name.strip_suffix(LOG_SUFFIX) else { continue };
            if let Some(state) = recover(&path, tenant).map_err(failed)? {
                tenants.insert(tenant.to_string(), Arc::new(Mutex::new(state)));
            }
        }
        Ok(Self::build(Some(dir), tenants))
    }

    /// Installs (or clears) a fault plan consulted on every log write.
    /// Test-only: absent from release builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock().expect("fault lock poisoned") = plan;
    }

    /// The fault the installed plan aims at the next log write.
    #[cfg(any(test, feature = "fault-injection"))]
    fn injected(&self) -> Injected {
        let plan = self.fault.lock().expect("fault lock poisoned").clone();
        Injected(plan.and_then(|p| p.take(FaultSite::DatasetPersist)))
    }

    #[cfg(not(any(test, feature = "fault-injection")))]
    fn injected(&self) -> Injected {
        Injected::default()
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

    /// Appends a schema-validated batch to `tenant`'s dataset: log first
    /// (durably), engine second — a failed log write returns the error
    /// with *nothing* appended.
    ///
    /// The first batch for a tenant must carry the [`RefitSpec`] naming
    /// what its refits produce; later batches may repeat it (it must
    /// match) or omit it.
    ///
    /// # Errors
    /// [`ServerError::Protocol`] for a bad tenant name,
    /// [`ServerError::Dataset`] for a schema/refit mismatch or a failed
    /// log write.
    pub fn append(
        &self,
        tenant: &str,
        batch: &Dataset,
        refit: Option<&RefitSpec>,
    ) -> Result<IngestReceipt, ServerError> {
        self.append_staged(tenant, batch, refit, &mut |_| {})
    }

    /// [`DatasetStore::append`], calling `stage` as each stage of a
    /// non-empty batch closes: `"journal"` once its log write has synced
    /// or failed (stores with a directory only), then `"append"` once the
    /// engine holds its rows. The server records them as request stages.
    ///
    /// # Errors
    /// As [`DatasetStore::append`].
    pub(crate) fn append_staged(
        &self,
        tenant: &str,
        batch: &Dataset,
        refit: Option<&RefitSpec>,
        stage: &mut dyn FnMut(&'static str),
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
                let journaled = self.journal(dir, tenant, &mut state, batch);
                stage("journal");
                journaled?;
            }
            state.engine.append(batch);
            stage("append");
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

    /// Writes `batch` to the tenant's log as one synced record, after the
    /// header in the same write when the batch creates the file.
    fn journal(
        &self,
        dir: &Path,
        tenant: &str,
        state: &mut TenantState,
        batch: &Dataset,
    ) -> Result<(), ServerError> {
        let path = dir.join(format!("{tenant}{LOG_SUFFIX}"));
        let failed = |e: std::io::Error| ServerError::Dataset(format!("{}: {e}", path.display()));
        let rows = u32::try_from(batch.n())
            .map_err(|_| failed(std::io::Error::other("a batch holds at most u32::MAX rows")))?;
        let mut frames = Vec::new();
        if state.log.is_none() {
            let header = header_json(tenant, state.engine.schema(), &state.refit)
                .to_string_compact()
                .expect("refit epsilon is finite");
            push_frame(&mut frames, |out| out.extend_from_slice(header.as_bytes()))
                .map_err(failed)?;
        }
        push_frame(&mut frames, |out| {
            out.push(BATCH);
            out.extend_from_slice(&rows.to_le_bytes());
            for a in 0..batch.d() {
                for &code in batch.column(a) {
                    out.extend_from_slice(&code.to_le_bytes());
                }
            }
        })
        .map_err(failed)?;
        let injected = self.injected();
        match state.log.as_mut() {
            Some(log) => log.append(&frames, injected),
            None => Log::create(&path, &frames, injected).map(|log| state.log = Some(log)),
        }
        .map_err(failed)
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
                jobs.push(RefitJob { tenant, spec: state.refit.clone() });
            }
        }
        jobs
    }

    /// Reports a [`RefitJob`]'s outcome. On success, `fitted_rows` is the
    /// row count the new generation was fitted over (its artifact's
    /// `source_rows`), which includes rows appended between the job's cut
    /// and the fit; rows appended after the fit stay pending and re-trigger
    /// normally. On failure (`None`), the staleness clock restarts so a
    /// persistently failing refit retries at the staleness cadence instead
    /// of spinning.
    pub fn refit_finished(&self, tenant: &str, fitted_rows: Option<u64>) {
        let Some(slot) = self.slot_of(tenant) else { return };
        let mut state = slot.lock().expect("tenant state lock poisoned");
        state.refit_inflight = false;
        match fitted_rows {
            Some(rows) => {
                state.fitted_rows = state.fitted_rows.max(rows);
                state.pending_since = (state.pending_rows() > 0).then(Instant::now);
                // Best-effort record: if it is lost, a restart re-pends
                // these rows and refits once more — an extra, correctly
                // charged fit, never a forgotten one.
                let mut frame = Vec::new();
                let fitted = state.fitted_rows;
                push_frame(&mut frame, |out| {
                    out.push(REFIT);
                    out.extend_from_slice(&fitted.to_le_bytes());
                })
                .expect("a refit record is nine bytes");
                if let Some(log) = state.log.as_mut() {
                    let _ = log.append(&frame, self.injected());
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
            log: None,
        };
        let slot = Arc::new(Mutex::new(state));
        map.insert(tenant.to_string(), Arc::clone(&slot));
        Ok(slot)
    }
}

/// The header record's content.
fn header_json(tenant: &str, schema: &Schema, refit: &RefitSpec) -> Json {
    Json::object(vec![
        ("format", Json::String(DATASET_FORMAT.to_string())),
        ("tenant", Json::String(tenant.to_string())),
        ("schema", schema_to_json(schema)),
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
    ])
}

/// Replays one tenant's log into a live state; `None` for an empty log.
fn recover(path: &Path, tenant: &str) -> Result<Option<TenantState>, String> {
    let mut replay: Option<Replay> = None;
    let log = Log::open(path, |payload| match &mut replay {
        None => {
            replay = Some(Replay::from_header(payload, tenant)?);
            Ok(())
        }
        Some(replay) => replay.record(payload),
    })
    .map_err(|e| e.to_string())?;
    let Some(replay) = replay else { return Ok(None) };
    let data = Dataset::from_columns(replay.schema, replay.columns).map_err(|e| e.to_string())?;
    let rows = data.n() as u64;
    let fitted_rows = replay.fitted_rows.min(rows);
    Ok(Some(TenantState {
        pending_since: (rows > fitted_rows).then(Instant::now),
        engine: CountEngine::new(&data),
        refit: replay.refit,
        fitted_rows,
        refit_inflight: false,
        log: Some(log),
    }))
}

/// A tenant's dataset as its log's records rebuild it.
struct Replay {
    schema: Schema,
    refit: RefitSpec,
    columns: Vec<Vec<u32>>,
    fitted_rows: u64,
}

impl Replay {
    fn from_header(payload: &[u8], tenant: &str) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("header: {e}"))?;
        let json = Json::parse(text).map_err(|e| format!("header: {e}"))?;
        match json.get("format").and_then(Json::as_str) {
            Some(DATASET_FORMAT) => {}
            other => {
                return Err(format!("unsupported format {other:?}, expected `{DATASET_FORMAT}`"))
            }
        }
        let field = |name: &str| format!("header: missing or mistyped `{name}`");
        let named = json.get("tenant").and_then(Json::as_str).ok_or_else(|| field("tenant"))?;
        if named != tenant {
            return Err(format!("log names tenant `{named}`"));
        }
        let refit_json = json.get("refit").ok_or_else(|| field("refit"))?;
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
        let schema = schema_from_json(json.get("schema").ok_or_else(|| field("schema"))?)
            .map_err(|e| format!("header: {e}"))?;
        let columns = vec![Vec::new(); schema.len()];
        Ok(Self { schema, refit, columns, fitted_rows: 0 })
    }

    /// Applies one batch or refit record.
    fn record(&mut self, payload: &[u8]) -> Result<(), String> {
        match payload.split_first() {
            Some((&BATCH, body)) if body.len() >= 4 => {
                let (count, codes) = body.split_at(4);
                let rows = u32::from_le_bytes([count[0], count[1], count[2], count[3]]) as usize;
                let d = self.columns.len();
                if rows.checked_mul(d * 4) != Some(codes.len()) {
                    return Err(format!(
                        "batch record holds {} code bytes, not {rows} rows of {d} codes",
                        codes.len()
                    ));
                }
                for (a, column) in self.columns.iter_mut().enumerate() {
                    let bytes = &codes[a * rows * 4..(a + 1) * rows * 4];
                    column.extend(
                        bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                    );
                }
                Ok(())
            }
            Some((&REFIT, &[a, b, c, d, e, f, g, h])) => {
                self.fitted_rows = u64::from_le_bytes([a, b, c, d, e, f, g, h]);
                Ok(())
            }
            _ => Err("neither a batch nor a refit record".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, FaultSite};
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
        store.append("acme", &batch(&[[0, 0], [1, 1]]), Some(&spec())).unwrap();
        let path = dir.join("acme.dataset.log");
        let first = std::fs::read(&path).unwrap().len();
        store.append("acme", &batch(&[[1, 2]]), None).unwrap();
        drop(store);
        // Flip the last code of the first batch record: a record with more
        // after it, so damage rather than a torn write.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first - 1] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let err = DatasetStore::open(&dir).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("damaged frame"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_json_journals_are_refused() {
        let dir = temp_dir("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("acme.dataset.json");
        std::fs::write(&path, "{\"format\": \"privbayes-dataset/1\"}").unwrap();
        let err = DatasetStore::open(&dir).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("privbayes-dataset/1"), "{err}");
        assert!(path.exists(), "a refused journal is left as it is");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_failure_rolls_the_append_back() {
        let dir = temp_dir("rollback");
        let store = DatasetStore::open(&dir).unwrap();
        // A failed first write leaves no log behind.
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::DatasetPersist, 0, Fault::Fail));
        store.set_fault_plan(Some(plan));
        assert!(store.append("acme", &batch(&[[0, 0]]), Some(&spec())).is_err());
        store.set_fault_plan(None);
        let path = dir.join("acme.dataset.log");
        assert!(!path.exists(), "a refused first batch must leave no file");

        store.append("acme", &batch(&[[0, 0]]), Some(&spec())).unwrap();
        let committed = std::fs::read(&path).unwrap();
        let plan = Arc::new(FaultPlan::new().inject(FaultSite::DatasetPersist, 0, Fault::Fail));
        store.set_fault_plan(Some(plan));
        let err = store.append("acme", &batch(&[[1, 1]]), None).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(store.snapshot()[0].total_rows, 1, "failed append must not land");
        store.set_fault_plan(None);
        assert_eq!(std::fs::read(&path).unwrap(), committed, "a rolled-back batch leaves no bytes");
        // The log still holds exactly the pre-failure dataset.
        drop(store);
        let recovered = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered.snapshot()[0].total_rows, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_append_grows_the_log_by_one_record_sized_by_its_batch() {
        let dir = temp_dir("growth");
        let store = DatasetStore::open(&dir).unwrap();
        let path = dir.join("acme.dataset.log");
        let rows: Vec<[u32; 2]> = (0..100u32).map(|i| [i % 2, i % 3]).collect();
        let record = crate::durable::FRAME_HEADER + 1 + 4 + rows.len() * 2 * 4;
        let mut before = Vec::new();
        for i in 0..200 {
            store.append("acme", &batch(&rows), Some(&spec())).unwrap();
            let after = std::fs::read(&path).unwrap();
            assert!(after.starts_with(&before), "batch {}: the log is append-only", i + 1);
            let grown = after.len() - before.len();
            if i == 0 {
                assert!(grown > record, "the first batch also carries the header");
            } else {
                assert_eq!(grown, record, "batch {}: one record, sized by the batch alone", i + 1);
            }
            before = after;
        }
        assert_eq!(store.snapshot()[0].total_rows, 200 * 100);
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
