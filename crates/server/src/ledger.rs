//! The per-tenant privacy-budget ledger.
//!
//! Every tenant owns one [`PrivacyBudget`]; endpoints that *fit* models
//! debit ε from it atomically (check, spend and persist under one lock, so
//! two racing requests can never jointly overspend), while synthesis from
//! an already released model is post-processing and costs nothing. A
//! rejected charge leaves the ledger byte-for-byte unchanged — the structured
//! [`LedgerError::Exhausted`] carries the requested and remaining amounts so
//! the serving layer can surface them to the caller.
//!
//! With a persistence path configured, every mutation rewrites the ledger
//! file (CRC-tagged `privbayes-ledger/2` JSON via `privbayes-model`'s
//! budget IO), and construction restores it, so accounting survives
//! restarts exactly: budgets round-trip bit-for-bit. A file in any other
//! format is refused at startup.
//!
//! Each rewrite is one crash-durable replacement through the `durable`
//! module, the dataset journal's storage: a synced temp file renamed over
//! the target, then a synced directory, so a crash or a power loss at
//! *any* instant leaves the file as either the complete old state or the
//! complete new one. A mutation stands once the rename has landed and is
//! rolled back otherwise, so a charge is only reported as spent once it is
//! on disk — a ledger that forgets a debit would let a tenant re-spend ε
//! and silently void the DP guarantee. The fault-injection tests kill the
//! persist sequence at every step and prove the reloaded ledger is always
//! pre- or post-mutation.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use privbayes_dp::{DpError, PrivacyBudget};
use privbayes_model::{budget_from_json, budget_to_json, Json};
use privbayes_obs::{Counter, Histogram};

use crate::durable::{self, crc32, Injected};
use crate::error::ServerError;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultPlan, FaultSite};
use crate::registry::validate_id;
use std::sync::Arc;

/// The ledger file format: the tenants' budgets plus a CRC32 over the
/// canonical compact rendering of the `tenants` object, so bit rot (or a
/// torn write that still parses as JSON) is detected at startup instead of
/// silently mis-accounting ε.
pub const LEDGER_FORMAT_V2: &str = "privbayes-ledger/2";

/// Structured failures from ledger operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The tenant has never been registered.
    UnknownTenant(String),
    /// The charge would exceed the tenant's remaining budget. State is
    /// unchanged.
    Exhausted {
        /// The tenant involved.
        tenant: String,
        /// ε requested by the rejected operation.
        requested: f64,
        /// ε still available to the tenant.
        remaining: f64,
    },
    /// The amount itself was invalid (non-positive or non-finite).
    InvalidAmount(String),
    /// The ledger file could not be written; the in-memory state was rolled
    /// back, so nothing was spent.
    Persistence(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            LedgerError::Exhausted { tenant, requested, remaining } => write!(
                f,
                "tenant `{tenant}` budget exhausted: requested {requested}, remaining {remaining}"
            ),
            LedgerError::InvalidAmount(msg) => write!(f, "invalid amount: {msg}"),
            LedgerError::Persistence(msg) => write!(f, "ledger persistence failed: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// One row of a ledger snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantBudget {
    /// Tenant name.
    pub tenant: String,
    /// Total ε granted.
    pub total: f64,
    /// ε spent so far.
    pub spent: f64,
}

impl TenantBudget {
    /// ε still available.
    #[must_use]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }
}

/// Observability handles consulted on every persist attempt (see
/// [`BudgetLedger::set_observer`]). The handles are shared `Arc`s into a
/// metric registry, so recording is one relaxed atomic add each — nothing
/// here can fail or slow the durability path.
#[derive(Debug, Clone)]
pub struct LedgerObserver {
    /// Persist wall time (write temp, fsync, rename, directory sync).
    pub persist_seconds: Arc<Histogram>,
    /// Persists that completed cleanly.
    pub ok: Arc<Counter>,
    /// Persists that failed before the rename (mutation rolled back).
    pub rolled_back: Arc<Counter>,
    /// Persists where the rename landed but the directory sync failed
    /// (mutation kept — the file already holds the new state).
    pub durable_failure: Arc<Counter>,
}

/// A thread-safe map from tenant name to privacy budget, optionally backed
/// by a JSON file.
///
/// One lock guards the map and is held across check, spend and persist, so
/// a debit is durable before any other caller can see it, and the file
/// always renders a consistent whole-ledger state.
#[derive(Debug)]
pub struct BudgetLedger {
    tenants: Mutex<BTreeMap<String, PrivacyBudget>>,
    path: Option<PathBuf>,
    observer: Mutex<Option<LedgerObserver>>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Mutex<Option<Arc<FaultPlan>>>,
}

impl BudgetLedger {
    /// An empty, purely in-memory ledger.
    #[must_use]
    pub fn in_memory() -> Self {
        Self::build(BTreeMap::new(), None)
    }

    fn build(tenants: BTreeMap<String, PrivacyBudget>, path: Option<PathBuf>) -> Self {
        Self {
            tenants: Mutex::new(tenants),
            path,
            observer: Mutex::new(None),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: Mutex::new(None),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, PrivacyBudget>> {
        self.tenants.lock().expect("ledger lock poisoned")
    }

    /// Installs (or clears) the persist-observability handles. The server
    /// wires these to its metric registry at bind time; a ledger used
    /// standalone records nothing.
    pub fn set_observer(&self, observer: Option<LedgerObserver>) {
        *self.observer.lock().expect("observer lock poisoned") = observer;
    }

    /// Installs (or clears) a fault plan consulted on every persist
    /// attempt. Test-only: absent from release builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock().expect("fault lock poisoned") = plan;
    }

    /// A ledger persisted at `path`. If the file exists it is restored;
    /// otherwise the ledger starts empty and the file is created on the
    /// first mutation.
    ///
    /// # Errors
    /// Returns [`ServerError::Ledger`] if an existing file cannot be read or
    /// parsed (a corrupt ledger must never be silently reset — that would
    /// forget spending).
    pub fn with_persistence(path: impl Into<PathBuf>) -> Result<Self, ServerError> {
        let path = path.into();
        let tenants = if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| ServerError::Ledger(format!("{}: {e}", path.display())))?;
            Self::parse(&text)
                .map_err(|e| ServerError::Ledger(format!("{}: {e}", path.display())))?
        } else {
            BTreeMap::new()
        };
        Ok(Self::build(tenants, Some(path)))
    }

    fn parse(text: &str) -> Result<BTreeMap<String, PrivacyBudget>, ServerError> {
        let json = Json::parse(text).map_err(|e| ServerError::Ledger(e.to_string()))?;
        let format = json.get("format").and_then(Json::as_str);
        if format != Some(LEDGER_FORMAT_V2) {
            return Err(ServerError::Ledger(format!(
                "unsupported ledger format {format:?}, expected `{LEDGER_FORMAT_V2}`"
            )));
        }
        let fields = json
            .get("tenants")
            .and_then(Json::as_object)
            .ok_or_else(|| ServerError::Ledger("missing `tenants` object".into()))?;
        let mut tenants = BTreeMap::new();
        for (name, value) in fields {
            let budget = budget_from_json(value)
                .map_err(|e| ServerError::Ledger(format!("tenant `{name}`: {e}")))?;
            tenants.insert(name.clone(), budget);
        }
        // The checksum is over the *canonical* compact rendering, which
        // re-rendering the parsed budgets reproduces exactly (f64s print
        // their shortest round-trip form), so whitespace in the file is
        // irrelevant but any value corruption is caught.
        let stored = json
            .get("crc")
            .and_then(Json::as_str)
            .ok_or_else(|| ServerError::Ledger("ledger is missing `crc`".into()))?;
        let expected = format!("{:08x}", crc32(Self::tenants_canonical(&tenants).as_bytes()));
        if stored != expected {
            return Err(ServerError::Ledger(format!(
                "crc mismatch: file says {stored}, tenants hash to {expected} \
                 (corrupt ledger; refusing to guess at spent budgets)"
            )));
        }
        Ok(tenants)
    }

    fn tenants_json(tenants: &BTreeMap<String, PrivacyBudget>) -> Json {
        let fields: Vec<(String, Json)> =
            tenants.iter().map(|(name, b)| (name.clone(), budget_to_json(b))).collect();
        Json::Object(fields)
    }

    /// The canonical byte string the CRC is computed over.
    fn tenants_canonical(tenants: &BTreeMap<String, PrivacyBudget>) -> String {
        Self::tenants_json(tenants).to_string_compact().expect("budgets are finite")
    }

    fn render(tenants: &BTreeMap<String, PrivacyBudget>) -> String {
        let crc = crc32(Self::tenants_canonical(tenants).as_bytes());
        Json::object(vec![
            ("format", Json::String(LEDGER_FORMAT_V2.to_string())),
            ("crc", Json::String(format!("{crc:08x}"))),
            ("tenants", Self::tenants_json(tenants)),
        ])
        .to_string_pretty()
        .expect("budgets are finite")
    }

    /// Rewrites the ledger file, if it has one, under the lock so its
    /// contents always match a consistent in-memory state. `Err` means the
    /// new state did not reach the file, and the caller must roll its
    /// mutation back. Once the rename has landed the file *is* the new
    /// state, so a failed directory sync after it is counted but not
    /// returned: dropping the mutation then would un-spend recorded ε.
    ///
    /// Under fault injection, one [`FaultSite::LedgerPersist`] step is
    /// consumed per call.
    fn persist(&self, tenants: &BTreeMap<String, PrivacyBudget>) -> Result<(), ServerError> {
        let Some(path) = &self.path else { return Ok(()) };
        #[cfg(any(test, feature = "fault-injection"))]
        let fault = Injected(
            self.fault
                .lock()
                .expect("fault lock poisoned")
                .as_ref()
                .and_then(|plan| plan.take(FaultSite::LedgerPersist)),
        );
        #[cfg(not(any(test, feature = "fault-injection")))]
        let fault = Injected::default();
        let started = std::time::Instant::now();
        let result = durable::replace(path, Self::render(tenants).as_bytes(), fault);
        if let Some(obs) = self.observer.lock().expect("observer lock poisoned").as_ref() {
            obs.persist_seconds.observe(started.elapsed());
            match &result {
                Ok(Ok(())) => obs.ok.inc(),
                Ok(Err(_)) => obs.durable_failure.inc(),
                Err(_) => obs.rolled_back.inc(),
            }
        }
        match result {
            Ok(_) => Ok(()),
            Err(e) => Err(ServerError::Ledger(format!("{}: {e}", path.display()))),
        }
    }

    /// Registers `tenant` with a total budget of `total` ε. Re-registering
    /// an existing tenant is rejected — it would reset spending.
    ///
    /// # Errors
    /// Returns [`ServerError::Protocol`] for an invalid name or amount,
    /// [`ServerError::Conflict`] if the tenant already exists, and
    /// [`ServerError::Ledger`] if persistence fails (the in-memory insert is
    /// rolled back, so memory and file stay in sync).
    pub fn register(&self, tenant: &str, total: f64) -> Result<(), ServerError> {
        validate_id(tenant)?;
        let budget = PrivacyBudget::new(total).map_err(|e| ServerError::Protocol(e.to_string()))?;
        let mut tenants = self.lock();
        if tenants.contains_key(tenant) {
            return Err(ServerError::Conflict(format!("tenant `{tenant}` is already registered")));
        }
        tenants.insert(tenant.to_string(), budget);
        if let Err(e) = self.persist(&tenants) {
            tenants.remove(tenant);
            return Err(e);
        }
        Ok(())
    }

    /// Atomically debits `epsilon` from `tenant`, returning the remaining
    /// budget. On any error the ledger (and its file) is unchanged: a
    /// persistence failure rolls the in-memory debit back and is reported as
    /// [`LedgerError::Persistence`], so memory and file never disagree and a
    /// charge is only considered spent once it is durably recorded.
    ///
    /// # Errors
    /// [`LedgerError::UnknownTenant`] for an unregistered tenant,
    /// [`LedgerError::Exhausted`] if the charge exceeds the remainder,
    /// [`LedgerError::InvalidAmount`] for non-positive ε, and
    /// [`LedgerError::Persistence`] if the ledger file cannot be written.
    pub fn charge(&self, tenant: &str, epsilon: f64) -> Result<f64, LedgerError> {
        let mut tenants = self.lock();
        let budget = tenants
            .get_mut(tenant)
            .ok_or_else(|| LedgerError::UnknownTenant(tenant.to_string()))?;
        map_dp_error(budget.consume(epsilon), tenant, budget)?;
        let remaining = budget.remaining();
        if let Err(e) = self.persist(&tenants) {
            // Never hand out budget that is not durably recorded.
            tenants.get_mut(tenant).expect("present above").refund(epsilon);
            return Err(LedgerError::Persistence(e.to_string()));
        }
        Ok(remaining)
    }

    /// Returns `epsilon` to `tenant` — compensation when an operation was
    /// charged but failed before touching sensitive data. Unknown tenants
    /// are ignored, and a persistence failure undoes the in-memory refund
    /// (the tenant keeps the spend — the conservative direction for a
    /// privacy ledger): the refund path runs on error paths and must not
    /// introduce new failures, only stay consistent.
    pub fn refund(&self, tenant: &str, epsilon: f64) {
        let mut tenants = self.lock();
        if let Some(budget) = tenants.get_mut(tenant) {
            budget.refund(epsilon);
            if self.persist(&tenants).is_err() {
                let _ = tenants.get_mut(tenant).expect("present above").consume(epsilon);
            }
        }
    }

    /// The tenant's current budget, if registered.
    #[must_use]
    pub fn budget(&self, tenant: &str) -> Option<TenantBudget> {
        self.lock().get(tenant).map(|b| TenantBudget {
            tenant: tenant.to_string(),
            total: b.total(),
            spent: b.spent(),
        })
    }

    /// All tenants, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TenantBudget> {
        self.lock()
            .iter()
            .map(|(name, b)| TenantBudget {
                tenant: name.clone(),
                total: b.total(),
                spent: b.spent(),
            })
            .collect()
    }
}

/// Translates a [`DpError`] into the tenant-scoped ledger error.
fn map_dp_error(
    result: Result<(), DpError>,
    tenant: &str,
    budget: &PrivacyBudget,
) -> Result<(), LedgerError> {
    result.map_err(|e| match e {
        DpError::BudgetExhausted { requested, .. } => LedgerError::Exhausted {
            tenant: tenant.to_string(),
            requested,
            remaining: budget.remaining(),
        },
        DpError::InvalidParameter(msg) => LedgerError::InvalidAmount(msg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("privbayes-ledger-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn charge_and_check_share_the_boundary() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("acme", 1.0).unwrap();
        ledger.charge("acme", 0.4).unwrap();
        let before = ledger.budget("acme").unwrap();
        let err = ledger.charge("acme", 0.7).unwrap_err();
        assert!(matches!(err, LedgerError::Exhausted { ref tenant, .. } if tenant == "acme"));
        assert_eq!(ledger.budget("acme").unwrap(), before, "rejected charge must not mutate");
        // Spending exactly the remainder drains the budget.
        let remaining = ledger.charge("acme", 0.6).unwrap();
        assert!(remaining < 1e-9);
    }

    #[test]
    fn tenants_are_isolated() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("a", 1.0).unwrap();
        ledger.register("b", 2.0).unwrap();
        ledger.charge("a", 1.0).unwrap();
        assert!(matches!(ledger.charge("a", 0.1), Err(LedgerError::Exhausted { .. })));
        assert!(ledger.charge("b", 0.1).is_ok(), "tenant b is unaffected");
        assert!(matches!(ledger.charge("nobody", 0.1), Err(LedgerError::UnknownTenant(_))));
    }

    #[test]
    fn refund_compensates_failed_operations() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("t", 1.0).unwrap();
        ledger.charge("t", 0.8).unwrap();
        ledger.refund("t", 0.8);
        assert_eq!(ledger.budget("t").unwrap().spent, 0.0);
        ledger.refund("ghost", 1.0); // ignored, no panic
    }

    #[test]
    fn duplicate_registration_rejected() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("t", 1.0).unwrap();
        ledger.charge("t", 0.5).unwrap();
        assert!(ledger.register("t", 9.0).is_err(), "re-registering would reset spending");
        assert_eq!(ledger.budget("t").unwrap().total, 1.0);
        assert!(ledger.register("bad name", 1.0).is_err());
        assert!(ledger.register("x", 0.0).is_err());
    }

    #[test]
    fn persistence_round_trips_exactly() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 1.6).unwrap();
            ledger.register("globex", 0.5).unwrap();
            ledger.charge("acme", 0.48).unwrap();
        }
        let restored = BudgetLedger::with_persistence(&path).unwrap();
        let rows = restored.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "acme");
        assert_eq!(rows[0].total.to_bits(), 1.6f64.to_bits());
        assert_eq!(rows[0].spent.to_bits(), 0.48f64.to_bits());
        assert_eq!(rows[1].tenant, "globex");
        assert_eq!(rows[1].spent, 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_ledger_file_is_rejected() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{not json").unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_err());
        std::fs::write(&path, r#"{"format": "other/9", "tenants": {}}"#).unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writes_are_v2_with_crc() {
        let path = temp_path("v2");
        let _ = std::fs::remove_file(&path);
        let ledger = BudgetLedger::with_persistence(&path).unwrap();
        ledger.register("acme", 1.0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(LEDGER_FORMAT_V2), "writes use the v2 format");
        assert!(text.contains("\"crc\""), "v2 records carry a checksum");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_files_are_refused() {
        let path = temp_path("v1");
        // A file in the retired pre-CRC format, as its writer left it.
        let mut budget = PrivacyBudget::new(1.6).unwrap();
        budget.consume(0.48).unwrap();
        let v1 = Json::object(vec![
            ("format", Json::String("privbayes-ledger/1".to_string())),
            ("tenants", Json::Object(vec![("acme".to_string(), budget_to_json(&budget))])),
        ])
        .to_string_pretty()
        .unwrap();
        std::fs::write(&path, &v1).unwrap();

        let err = BudgetLedger::with_persistence(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported ledger format"), "got: {err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), v1, "a refused file is left as is");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_mismatch_is_rejected() {
        let path = temp_path("crc-tamper");
        let _ = std::fs::remove_file(&path);
        {
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 2.0).unwrap();
            ledger.charge("acme", 0.5).unwrap();
        }
        // Flip the spent amount without updating the checksum — the kind of
        // corruption plain JSON parsing would happily accept.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("0.5", "0.25");
        assert_ne!(text, tampered, "tamper target must exist");
        std::fs::write(&path, tampered).unwrap();
        let err = BudgetLedger::with_persistence(&path).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_at_every_persist_step_recovers_pre_or_post_state() {
        use crate::fault::{Fault, FaultPlan, FaultSite, PersistStep};

        // (fault, does the mutation survive the crash?)
        let cases: &[(Fault, bool)] = &[
            (Fault::CrashAt(PersistStep::Write), false),
            (Fault::ShortWrite, false),
            (Fault::CrashAt(PersistStep::Sync), false),
            (Fault::CrashAt(PersistStep::Rename), false),
            (Fault::CrashAt(PersistStep::SyncDir), true),
            (Fault::Fail, false),
        ];
        for (i, &(fault, survives)) in cases.iter().enumerate() {
            let path = temp_path(&format!("kill-{i}"));
            let _ = std::fs::remove_file(&path);
            let tmp = path.with_extension("tmp");
            let _ = std::fs::remove_file(&tmp);

            // Pre-state on disk: acme has spent 0.25 of 2.0.
            let ledger = BudgetLedger::with_persistence(&path).unwrap();
            ledger.register("acme", 2.0).unwrap();
            ledger.charge("acme", 0.25).unwrap();

            // The process "dies" at the injected step of the next persist.
            let plan = Arc::new(FaultPlan::new().inject(FaultSite::LedgerPersist, 0, fault));
            ledger.set_fault_plan(Some(plan));
            let charge = ledger.charge("acme", 0.25);
            drop(ledger);

            // Restart: the reloaded ledger must parse cleanly (never torn)
            // and hold exactly the pre- or post-mutation balance.
            let restored = BudgetLedger::with_persistence(&path)
                .unwrap_or_else(|e| panic!("case {i} ({fault:?}): torn ledger: {e}"));
            let spent = restored.budget("acme").unwrap().spent;
            let expected: f64 = if survives { 0.5 } else { 0.25 };
            assert_eq!(
                spent.to_bits(),
                expected.to_bits(),
                "case {i} ({fault:?}): expected spent {expected}, found {spent}"
            );
            // The in-memory result must agree with the disk outcome: a debit
            // is reported spent iff it is durably recorded.
            assert_eq!(
                charge.is_ok(),
                survives,
                "case {i} ({fault:?}): charge result disagrees with disk"
            );
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&tmp);
        }
    }

    #[test]
    fn torn_tmp_file_never_bricks_startup() {
        use crate::fault::{Fault, FaultPlan, FaultSite};

        let path = temp_path("torn-tmp");
        let _ = std::fs::remove_file(&path);
        let ledger = BudgetLedger::with_persistence(&path).unwrap();
        ledger.register("acme", 1.0).unwrap();
        ledger.set_fault_plan(Some(Arc::new(FaultPlan::new().inject(
            FaultSite::LedgerPersist,
            0,
            Fault::ShortWrite,
        ))));
        assert!(matches!(ledger.charge("acme", 0.5), Err(LedgerError::Persistence(_))));
        drop(ledger);

        let tmp = path.with_extension("tmp");
        assert!(tmp.exists(), "the torn temp file is left behind, as after a real crash");
        // Restart ignores the garbage temp file and the next mutation
        // overwrites it.
        let restored = BudgetLedger::with_persistence(&path).unwrap();
        assert_eq!(restored.budget("acme").unwrap().spent, 0.0);
        restored.charge("acme", 0.5).unwrap();
        assert!(BudgetLedger::with_persistence(&path).is_ok());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn striped_concurrent_charges_account_exactly() {
        // N threads × K charges per tenant must land on exactly K·ε spent
        // each: the one lock must never lose or double-apply a debit.
        let ledger = Arc::new(BudgetLedger::in_memory());
        let tenants: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
        for t in &tenants {
            ledger.register(t, 10.0).unwrap();
        }
        std::thread::scope(|scope| {
            for t in &tenants {
                for _ in 0..2 {
                    let ledger = Arc::clone(&ledger);
                    scope.spawn(move || {
                        for _ in 0..25 {
                            ledger.charge(t, 0.125).unwrap();
                        }
                    });
                }
            }
        });
        for t in &tenants {
            let spent = ledger.budget(t).unwrap().spent;
            assert_eq!(
                spent.to_bits(),
                6.25f64.to_bits(),
                "tenant={t}: expected 6.25, got {spent}"
            );
        }
        assert_eq!(ledger.snapshot().len(), tenants.len());
    }

    #[test]
    fn snapshot_reports_remaining() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("t", 2.0).unwrap();
        ledger.charge("t", 0.5).unwrap();
        let row = ledger.budget("t").unwrap();
        assert!((row.remaining() - 1.5).abs() < 1e-12);
    }
}
