//! The model registry: released models, loaded once, shared by every request.
//!
//! Each entry wraps a [`ReleasedModel`] in an [`Arc`]. Loading compiles the
//! model's alias tables **once** (via the `ReleasedModel` sampler cache), so
//! concurrent synthesis requests against the same model share one compiled
//! form instead of rebuilding it per request. Eviction only removes the
//! entry from the map: any request that already cloned the `Arc` keeps
//! streaming from the (still-alive) compiled model — an in-flight request is
//! never dropped by an eviction racing with it.
//!
//! An id names a **generation chain**, not a single model: every
//! [`ModelRegistry::load`] under an existing id puts a new current
//! generation in front of the old one under the registry's write lock
//! (readers never observe a half-updated chain), and the most
//! recent [`RETAINED_GENERATIONS`] stay addressable through
//! [`ModelRegistry::get_generation`]. A stream that pinned its generation
//! via a `pbc2` cursor therefore resumes against exactly the artifact it
//! started on, even after a background refit hot-swaps the current model;
//! once a generation ages out of the chain, resumption gets a structured
//! "evicted" answer instead of silently different bytes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use privbayes::CompiledSampler;
use privbayes_model::ReleasedModel;

use crate::error::ServerError;

/// Maximum accepted length of a model id or tenant name.
pub const MAX_ID_LEN: usize = 64;

/// Validates a registry/ledger identifier: 1..=64 chars from
/// `[A-Za-z0-9._-]`, so ids embed safely in paths, queries, and JSON.
///
/// # Errors
/// Returns [`ServerError::Protocol`] describing the violation.
pub fn validate_id(id: &str) -> Result<(), ServerError> {
    if id.is_empty() || id.len() > MAX_ID_LEN {
        return Err(ServerError::Protocol(format!(
            "id must have 1..={MAX_ID_LEN} characters, got {}",
            id.len()
        )));
    }
    if !id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')) {
        return Err(ServerError::Protocol(format!(
            "id `{id}` contains characters outside [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

/// Stamps every loaded entry with a process-unique generation, so a cursor
/// pinned to it can never confuse a reloaded model with its predecessor
/// (even when both carried the same id).
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// One registered model: the artifact plus its id.
#[derive(Debug)]
pub struct ModelEntry {
    /// The registry id the model was loaded under.
    pub id: String,
    /// The released artifact (owns the cached [`CompiledSampler`]).
    pub artifact: ReleasedModel,
    /// Process-unique load generation (fresh per [`ModelRegistry::load`]).
    pub generation: u64,
}

impl ModelEntry {
    /// The compiled sampler, built on first use and shared afterwards.
    ///
    /// # Errors
    /// Propagates compilation failures as [`ServerError::Model`].
    pub fn sampler(&self) -> Result<&CompiledSampler, ServerError> {
        self.artifact.compiled().map_err(ServerError::from)
    }
}

/// How many generations of one id stay addressable (and alive) in the
/// chain. Older generations are dropped from the map on the next load —
/// streams already holding their `Arc` finish unaffected, but new
/// pinned-cursor lookups for them answer "evicted".
pub const RETAINED_GENERATIONS: usize = 4;

/// Outcome of a generation-pinned lookup (see
/// [`ModelRegistry::get_generation`]).
#[derive(Debug)]
pub enum GenerationLookup {
    /// The pinned generation is still in the chain.
    Found(Arc<ModelEntry>),
    /// The id exists but that generation aged out of the chain; `newest`
    /// is the current generation (for the structured 410 body).
    Evicted {
        /// The chain's current generation.
        newest: u64,
    },
    /// No model is loaded under the id at all.
    Unknown,
}

/// A concurrent map from model id to its generation chain (newest first),
/// behind one read-write lock. A load compiles its model before it takes
/// the lock and holds the write lock only to put the entry in front of one
/// chain of at most [`RETAINED_GENERATIONS`] entries; a lookup holds the
/// read lock only to clone an [`Arc`].
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: RwLock<BTreeMap<String, Vec<Arc<ModelEntry>>>>,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `artifact` under `id`, eagerly compiling its sampler so the
    /// cost is paid at load time, not on the first synthesis request. The
    /// new entry becomes the id's current generation; previous ones stay
    /// in the chain up to [`RETAINED_GENERATIONS`]. Returns the installed
    /// entry and `true` if the id was new.
    ///
    /// # Errors
    /// Returns [`ServerError::Protocol`] for an invalid id and
    /// [`ServerError::Model`] if the artifact fails to compile.
    pub fn load(
        &self,
        id: &str,
        artifact: ReleasedModel,
    ) -> Result<(Arc<ModelEntry>, bool), ServerError> {
        validate_id(id)?;
        let mut entry = ModelEntry { id: id.to_string(), artifact, generation: 0 };
        entry.sampler()?; // compile once, up front
        let mut entries = self.entries.write().expect("registry lock poisoned");
        // Numbered under the lock, so every chain is newest first even when
        // two loads of one id race.
        entry.generation = GENERATION.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(entry);
        let was_new = !entries.contains_key(id);
        let chain = entries.entry(id.to_string()).or_default();
        chain.insert(0, Arc::clone(&entry));
        chain.truncate(RETAINED_GENERATIONS);
        Ok((entry, was_new))
    }

    /// The current-generation entry for `id`, if loaded. The returned
    /// [`Arc`] keeps the model alive across later evictions and reloads.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<Arc<ModelEntry>> {
        self.entries.read().expect("registry lock poisoned").get(id)?.first().cloned()
    }

    /// The entry for a specific pinned `generation` of `id` — what a
    /// `pbc2` cursor resumes against.
    #[must_use]
    pub fn get_generation(&self, id: &str, generation: u64) -> GenerationLookup {
        let entries = self.entries.read().expect("registry lock poisoned");
        let Some(chain) = entries.get(id) else { return GenerationLookup::Unknown };
        match chain.iter().find(|e| e.generation == generation) {
            Some(entry) => GenerationLookup::Found(Arc::clone(entry)),
            None => GenerationLookup::Evicted { newest: chain.first().map_or(0, |e| e.generation) },
        }
    }

    /// The retained generation chain for `id`, newest first.
    #[must_use]
    pub fn generations(&self, id: &str) -> Option<Vec<Arc<ModelEntry>>> {
        self.entries.read().expect("registry lock poisoned").get(id).cloned()
    }

    /// Removes `id` — the whole chain; returns whether it was present.
    /// In-flight requests holding an entry's [`Arc`] are unaffected.
    #[must_use]
    pub fn evict(&self, id: &str) -> bool {
        self.entries.write().expect("registry lock poisoned").remove(id).is_some()
    }

    /// The current generation of every id, sorted by id.
    #[must_use]
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        let entries = self.entries.read().expect("registry lock poisoned");
        entries.values().filter_map(|chain| chain.first().cloned()).collect()
    }

    /// Number of loaded model ids (not generations).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset, Schema};
    use privbayes_synth::{fit_method, FitSettings, Method};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> ReleasedModel {
        let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
        let rows: Vec<Vec<u32>> = (0..120).map(|i| vec![i % 2, (i + 1) % 2]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        fit_method(Method::PrivBayes, &data, 1.0, 3, &FitSettings::default()).unwrap().artifact
    }

    #[test]
    fn load_get_evict_cycle() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        let (first, created) = registry.load("m1", tiny_model()).unwrap();
        assert!(created, "first load is new");
        let (second, created) = registry.load("m1", tiny_model()).unwrap();
        assert!(!created, "reload replaces");
        assert!(second.generation > first.generation, "the reload is the newer generation");
        assert_eq!(registry.len(), 1);
        assert!(registry.get("m1").is_some());
        assert!(registry.get("m2").is_none());
        assert!(registry.evict("m1"));
        assert!(!registry.evict("m1"));
        assert!(registry.get("m1").is_none());
    }

    #[test]
    fn eviction_does_not_invalidate_held_entries() {
        let registry = ModelRegistry::new();
        registry.load("m", tiny_model()).unwrap();
        let held = registry.get("m").unwrap();
        assert!(registry.evict("m"));
        // The held Arc still samples fine after eviction.
        let sampler = held.sampler().unwrap();
        let data = sampler.sample_dataset(32, Some(1), &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(data.n(), 32);
    }

    #[test]
    fn reload_gets_a_fresh_generation() {
        let registry = ModelRegistry::new();
        registry.load("m", tiny_model()).unwrap();
        let first = registry.get("m").unwrap().generation;
        assert!(registry.evict("m"));
        registry.load("m", tiny_model()).unwrap();
        let second = registry.get("m").unwrap().generation;
        assert_ne!(first, second, "same id reloaded must never share a generation");
    }

    #[test]
    fn reloads_grow_a_pinned_generation_chain() {
        let registry = ModelRegistry::new();
        registry.load("m", tiny_model()).unwrap();
        let first = registry.get("m").unwrap().generation;
        registry.load("m", tiny_model()).unwrap();
        let second = registry.get("m").unwrap().generation;
        assert_ne!(first, second);
        // Both generations resolve; the chain lists newest first.
        assert!(matches!(
            registry.get_generation("m", first),
            GenerationLookup::Found(e) if e.generation == first
        ));
        assert!(matches!(
            registry.get_generation("m", second),
            GenerationLookup::Found(e) if e.generation == second
        ));
        let chain: Vec<u64> =
            registry.generations("m").unwrap().iter().map(|e| e.generation).collect();
        assert_eq!(chain, vec![second, first]);
        assert_eq!(registry.len(), 1, "a chain is one id");
        assert_eq!(registry.list().len(), 1, "list shows current generations only");
    }

    #[test]
    fn old_generations_age_out_and_answer_evicted() {
        let registry = ModelRegistry::new();
        registry.load("m", tiny_model()).unwrap();
        let first = registry.get("m").unwrap().generation;
        for _ in 0..RETAINED_GENERATIONS {
            registry.load("m", tiny_model()).unwrap();
        }
        assert_eq!(registry.generations("m").unwrap().len(), RETAINED_GENERATIONS);
        let newest = registry.get("m").unwrap().generation;
        match registry.get_generation("m", first) {
            GenerationLookup::Evicted { newest: n } => assert_eq!(n, newest),
            other => panic!("expected Evicted, got {other:?}"),
        }
        assert!(matches!(registry.get_generation("ghost", 1), GenerationLookup::Unknown));
    }

    #[test]
    fn list_is_sorted_by_id() {
        let registry = ModelRegistry::new();
        registry.load("zeta", tiny_model()).unwrap();
        registry.load("alpha", tiny_model()).unwrap();
        let ids: Vec<String> = registry.list().iter().map(|e| e.id.clone()).collect();
        assert_eq!(ids, vec!["alpha", "zeta"]);
    }

    #[test]
    fn id_validation() {
        assert!(validate_id("adult-v1.2_final").is_ok());
        assert!(validate_id("").is_err());
        assert!(validate_id("has space").is_err());
        assert!(validate_id("slash/y").is_err());
        assert!(validate_id(&"x".repeat(MAX_ID_LEN + 1)).is_err());
        let registry = ModelRegistry::new();
        assert!(registry.load("bad id", tiny_model()).is_err());
    }
}
