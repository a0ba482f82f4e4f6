//! `CountEngine`: the shared joint-count engine behind network learning.
//!
//! GreedyBayes materialises `d·C(d+1, k+1)` candidate joints (§4.1); doing
//! that with a fresh row scan per candidate is the dominant cost of the whole
//! pipeline. The engine makes candidate joints cheap three ways:
//!
//! 1. **Radix-coded columns.** Every requested (attribute, level) axis is
//!    encoded once into a dense `u32` code column (level 0 borrows the
//!    dataset column; generalised levels are materialised lazily through the
//!    taxonomy's level lookup). A joint is then a single fused radix pass:
//!    `cell = Σ code·stride` per row, no per-row `Vec` indirection.
//! 2. **Bit-packed popcount fast path.** When every requested axis is a raw
//!    binary attribute the joint comes from AND + popcount chains over
//!    bit-packed columns plus a Möbius transform — the strategy that makes
//!    full-size NLTCS/ACS learning tractable. The engine picks the bit
//!    backend whenever it supports the axes and the radix pass otherwise,
//!    so callers have one entry point.
//! 3. **Joint memoisation.** Materialised tables are cached keyed by the
//!    *sorted* axis set. A request that is a subset of an already-counted
//!    joint is answered by integer projection instead of a row scan — in
//!    round r+1 of greedy learning almost every candidate was already
//!    counted in round r. The memo serves one fit: an
//!    [`append`](CountEngine::append) drops it, and the next fit counts
//!    the grown columns afresh.
//!
//! # Determinism contract
//!
//! All strategies produce **identical integer counts** (counting is exact),
//! and probabilities are always derived as `count · (1/n)` — the same
//! expression [`ContingencyTable::from_dataset`] uses. A joint served from
//! the cache, derived by projection, counted by popcount, or counted by the
//! radix pass is therefore **bit-identical**, regardless of which threads
//! populated the cache in which order. This is what lets parallel candidate
//! scoring reproduce the sequential scores exactly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use privbayes_data::{Dataset, Schema};

use crate::table::{Axis, ContingencyTable};

/// A dense joint **count** table (row-major, last axis fastest) — the integer
/// twin of [`ContingencyTable`]. Counts are exact, so any two ways of
/// computing the same table agree bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountTable {
    axes: Vec<Axis>,
    dims: Vec<usize>,
    counts: Vec<u64>,
}

impl CountTable {
    /// Builds a table from raw parts.
    ///
    /// # Panics
    /// Panics if `counts.len()` does not equal the product of `dims`, or the
    /// lengths of `axes` and `dims` differ.
    #[must_use]
    pub fn from_parts(axes: Vec<Axis>, dims: Vec<usize>, counts: Vec<u64>) -> Self {
        assert_eq!(axes.len(), dims.len(), "axes/dims length mismatch");
        let cells: usize = dims.iter().product();
        assert_eq!(counts.len(), cells, "counts length must match dims product");
        Self { axes, dims, counts }
    }

    /// Axes of the table.
    #[must_use]
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Per-axis domain sizes.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Flat cell counts (row-major, last axis fastest).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.counts.len()
    }

    /// Projects (sums out) onto the axes at positions `keep`, in the given
    /// order. Keeping every axis in a new order is a pure permutation.
    /// Integer summation is exact, so a projection equals a direct count.
    ///
    /// # Panics
    /// Panics if `keep` is empty, repeats a position, or indexes out of range.
    #[must_use]
    pub fn project(&self, keep: &[usize]) -> Self {
        assert!(!keep.is_empty(), "projection must keep at least one axis");
        for (i, &k) in keep.iter().enumerate() {
            assert!(k < self.axes.len(), "axis position {k} out of range");
            assert!(!keep[..i].contains(&k), "axis position {k} repeated");
        }
        let out_axes: Vec<Axis> = keep.iter().map(|&k| self.axes[k]).collect();
        let out_dims: Vec<usize> = keep.iter().map(|&k| self.dims[k]).collect();
        let out_cells: usize = out_dims.iter().product();
        let mut out = vec![0u64; out_cells];

        let mut in_strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            in_strides[i] = in_strides[i + 1] * self.dims[i + 1];
        }
        let mut out_strides = vec![1usize; keep.len()];
        for i in (0..keep.len().saturating_sub(1)).rev() {
            out_strides[i] = out_strides[i + 1] * out_dims[i + 1];
        }
        // Per input axis: the stride it contributes to the output (0 if summed out).
        let mut contrib = vec![0usize; self.dims.len()];
        for (o, &k) in keep.iter().enumerate() {
            contrib[k] = out_strides[o];
        }

        for (idx, &c) in self.counts.iter().enumerate() {
            let mut rem = idx;
            let mut out_idx = 0usize;
            for (i, &stride) in in_strides.iter().enumerate() {
                let coord = rem / stride;
                rem %= stride;
                out_idx += coord * contrib[i];
            }
            out[out_idx] += c;
        }
        Self { axes: out_axes, dims: out_dims, counts: out }
    }

    /// Writes the probability-scale cells (`count · (1/n)`) into `out`.
    /// This is bit-identical to [`ContingencyTable::from_dataset`] on the
    /// same axes — same counts, same scaling expression.
    pub fn probs_into(&self, n: usize, out: &mut Vec<f64>) {
        let scale = if n == 0 { 0.0 } else { 1.0 / n as f64 };
        out.clear();
        out.extend(self.counts.iter().map(|&c| c as f64 * scale));
    }

    /// The probability-scale [`ContingencyTable`] form of this count table.
    #[must_use]
    pub fn to_contingency(&self, n: usize) -> ContingencyTable {
        let mut values = Vec::new();
        self.probs_into(n, &mut values);
        ContingencyTable::from_parts(self.axes.clone(), self.dims.clone(), values)
    }
}

/// The general-domain backend: one fused radix pass over pre-encoded dense
/// `u32` code columns. Owns its columns (cloned from the source dataset)
/// so a long-lived engine — e.g. one per ingesting tenant — does not
/// borrow the `Dataset` it was built from.
#[derive(Debug)]
struct RadixBackend {
    schema: Schema,
    /// Level-0 code columns, one per attribute.
    columns: Vec<Vec<u32>>,
    /// Lazily-encoded generalised columns, indexed `[attr][level - 1]`.
    generalised: Vec<Vec<OnceLock<Vec<u32>>>>,
    n: usize,
}

impl RadixBackend {
    fn new(schema: Schema, columns: Vec<Vec<u32>>, n: usize) -> Self {
        let generalised = schema
            .attributes()
            .iter()
            .map(|a| {
                let height = a.taxonomy().map_or(1, privbayes_data::TaxonomyTree::height);
                (1..height).map(|_| OnceLock::new()).collect()
            })
            .collect();
        Self { schema, columns, generalised, n }
    }

    /// The dense code column of an axis (encoded once, then shared).
    fn codes(&self, axis: Axis) -> &[u32] {
        if axis.level == 0 {
            return &self.columns[axis.attr];
        }
        self.generalised[axis.attr][axis.level - 1].get_or_init(|| {
            let lookup = self
                .schema
                .attribute(axis.attr)
                .taxonomy()
                .expect("validated by Axis::size")
                .level_lookup(axis.level);
            self.columns[axis.attr].iter().map(|&v| lookup[v as usize]).collect()
        })
    }

    /// Appends a batch's level-0 code columns. Encoded generalised columns
    /// are dropped rather than extended; the next request re-encodes them
    /// over every row.
    fn extend(&mut self, batch: &Dataset) {
        for slot in self.generalised.iter_mut().flatten() {
            slot.take();
        }
        for (attr, col) in self.columns.iter_mut().enumerate() {
            col.extend_from_slice(batch.column(attr));
        }
        self.n += batch.n();
    }

    /// Materialises the joint counts of `axes` (last axis fastest).
    fn materialise(&self, axes: &[Axis]) -> CountTable {
        let schema = &self.schema;
        let dims: Vec<usize> = axes.iter().map(|a| a.size(schema)).collect();
        let cells: usize = dims.iter().product();
        let mut counts = vec![0u64; cells];

        let mut strides = vec![1usize; axes.len()];
        for i in (0..axes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let cols: Vec<(&[u32], usize)> =
            axes.iter().zip(&strides).map(|(&axis, &s)| (self.codes(axis), s)).collect();

        match cols.as_slice() {
            // Unrolled low arities: the k ≤ 3 cases cover almost every
            // candidate joint the greedy rounds request.
            [(a, _)] => {
                for &x in *a {
                    counts[x as usize] += 1;
                }
            }
            [(a, sa), (b, _)] => {
                for (&x, &y) in a.iter().zip(*b) {
                    counts[x as usize * sa + y as usize] += 1;
                }
            }
            [(a, sa), (b, sb), (c, _)] => {
                for ((&x, &y), &z) in a.iter().zip(*b).zip(*c) {
                    counts[x as usize * sa + y as usize * sb + z as usize] += 1;
                }
            }
            _ => {
                for row in 0..self.n {
                    let mut idx = 0usize;
                    for (col, stride) in &cols {
                        idx += col[row] as usize * stride;
                    }
                    counts[idx] += 1;
                }
            }
        }
        CountTable { axes: axes.to_vec(), dims, counts }
    }
}

/// Bit-packed columns of the binary attributes: joints over raw binary axes
/// come from AND + popcount chains instead of row scans.
#[derive(Debug)]
struct BitBackend {
    /// One bit mask per attribute (empty for non-binary attributes).
    cols: Vec<Vec<u64>>,
    n: usize,
}

impl BitBackend {
    /// Joints above this arity fall back to the radix pass (the subset
    /// lattice is exponential in the arity).
    const MAX_ARITY: usize = 16;

    fn new(schema: &Schema, columns: &[Vec<u32>], n: usize) -> Self {
        let words = n.div_ceil(64);
        let cols = columns
            .iter()
            .enumerate()
            .map(|(a, column)| {
                if !schema.attribute(a).is_binary() {
                    return Vec::new();
                }
                let mut mask = vec![0u64; words];
                for (row, &v) in column.iter().enumerate() {
                    if v == 1 {
                        mask[row / 64] |= 1 << (row % 64);
                    }
                }
                mask
            })
            .collect();
        Self { cols, n }
    }

    /// Appends a batch's rows to the bit masks (binary attributes only —
    /// the schema decides, since an empty mask can also mean "no rows yet").
    fn extend(&mut self, batch: &Dataset) {
        let words = (self.n + batch.n()).div_ceil(64);
        for (a, mask) in self.cols.iter_mut().enumerate() {
            if !batch.schema().attribute(a).is_binary() {
                continue;
            }
            mask.resize(words, 0);
            for (i, &v) in batch.column(a).iter().enumerate() {
                if v == 1 {
                    let row = self.n + i;
                    mask[row / 64] |= 1 << (row % 64);
                }
            }
        }
        self.n += batch.n();
    }

    /// Whether every axis is a raw binary attribute and there are at most
    /// `MAX_ARITY` of them.
    fn supports(&self, axes: &[Axis]) -> bool {
        axes.len() <= Self::MAX_ARITY
            && axes.iter().all(|a| a.level == 0 && !self.cols[a.attr].is_empty())
    }

    /// Counts via the subset-AND lattice plus a Möbius transform from
    /// "all-ones" counts to exact cell counts; layout matches
    /// [`ContingencyTable::from_dataset`] with the same axes.
    fn materialise(&self, axes: &[Axis]) -> CountTable {
        let m = axes.len();
        let cells = 1usize << m;
        let mut counts = vec![0i64; cells];
        // AND products for subsets of size ≥ 2; singleton subsets borrow the
        // attribute column directly instead of cloning it.
        let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); cells];

        // ones[s] = #rows where every attribute in s is 1. Bit p of `s`
        // corresponds to axes[m-1-p], so `s` doubles as the cell index of
        // the all-ones pattern restricted to s.
        counts[0] = self.n as i64;
        for s in 1..cells {
            let low = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let col = &self.cols[axes[m - 1 - low].attr];
            if rest == 0 {
                counts[s] = col.iter().map(|w| i64::from(w.count_ones())).sum();
                continue;
            }
            let prev: &[u64] = if rest & (rest - 1) == 0 {
                // Singleton remainder: borrow its column.
                &self.cols[axes[m - 1 - rest.trailing_zeros() as usize].attr]
            } else {
                &scratch[rest]
            };
            let mut out = vec![0u64; col.len()];
            let mut c = 0i64;
            for ((o, &a), &b) in out.iter_mut().zip(prev).zip(col) {
                *o = a & b;
                c += i64::from(o.count_ones());
            }
            counts[s] = c;
            scratch[s] = out;
        }
        // Möbius: convert "attr unconstrained" to "attr = 0", bit by bit.
        for p in 0..m {
            let bit = 1usize << p;
            for s in 0..cells {
                if s & bit == 0 {
                    counts[s] -= counts[s | bit];
                }
            }
        }
        CountTable {
            axes: axes.to_vec(),
            dims: vec![2; m],
            counts: counts.into_iter().map(|c| c as u64).collect(),
        }
    }
}

/// Cache effectiveness and count-scan cost counters (see
/// [`CountEngine::stats`]). All fields are integers with zero defaults,
/// keeping the struct `Eq` and a no-work fit equal to
/// `EngineStats::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests answered from the cache without any computation.
    pub hits: usize,
    /// Requests answered by projecting a cached superset joint.
    pub projections: usize,
    /// Requests that required a fresh pass over the rows.
    pub scans: usize,
    /// Tables currently cached.
    pub cached_tables: usize,
    /// Bytes of count tables materialized by scans (8 bytes per cell).
    pub bytes_materialized: u64,
    /// Wall time spent materializing scan tables, in microseconds.
    pub scan_micros: u64,
}

/// The shared count engine: one per dataset, used by every greedy round (and
/// safe to share across scoring threads). Owns its encoded columns, so an
/// engine can outlive the `Dataset` it was built from and keep growing via
/// [`CountEngine::append`]. Every marginal-consuming algorithm (GreedyBayes,
/// the noisy conditionals, the §6 baselines, the relational fact model)
/// reads its joints from an engine, so none of them re-scans the dataset's
/// rows itself.
///
/// The contract, detailed in the module docs:
///
/// * [`joint_table`](CountEngine::joint_table) is **bit-identical** to
///   [`ContingencyTable::from_dataset`] with the same axes on the underlying
///   data — same counts, same `count · (1/n)` scaling expression — no matter
///   how the answer was produced (fresh count, cache hit, projection).
/// * Requests are pure: an engine consumes no randomness and its answers do
///   not depend on request order or thread interleaving.
#[derive(Debug)]
pub struct CountEngine {
    n: usize,
    radix: RadixBackend,
    bits: Option<BitBackend>,
    /// Canonical tables keyed by the axis set sorted by (attr, level).
    cache: RwLock<HashMap<Vec<Axis>, Arc<CountTable>>>,
    hits: AtomicUsize,
    projections: AtomicUsize,
    scans: AtomicUsize,
    bytes_materialized: AtomicU64,
    scan_nanos: AtomicU64,
}

impl CountEngine {
    /// Builds an engine over `data` (columns are cloned — the engine does
    /// not borrow the dataset). The popcount backend is constructed when
    /// the schema has any binary attribute; generalised code columns are
    /// encoded lazily on first use.
    #[must_use]
    pub fn new(data: &Dataset) -> Self {
        let schema = data.schema().clone();
        let columns: Vec<Vec<u32>> = (0..data.d()).map(|a| data.column(a).to_vec()).collect();
        let n = data.n();
        let any_binary = schema.attributes().iter().any(privbayes_data::Attribute::is_binary);
        let bits = any_binary.then(|| BitBackend::new(&schema, &columns, n));
        Self {
            n,
            radix: RadixBackend::new(schema, columns, n),
            bits,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            projections: AtomicUsize::new(0),
            scans: AtomicUsize::new(0),
            bytes_materialized: AtomicU64::new(0),
            scan_nanos: AtomicU64::new(0),
        }
    }

    /// Appends a batch of rows: the backends' columns grow in place, and
    /// every cached table and encoded generalised column is dropped. The
    /// next request counts the concatenated rows afresh, so the engine
    /// answers **bit-identically** to a cold engine over the concatenated
    /// data. A table a reader still holds keeps its pre-append counts.
    ///
    /// # Panics
    /// Panics if the batch's schema differs from the engine's.
    pub fn append(&mut self, batch: &Dataset) {
        assert_eq!(&self.radix.schema, batch.schema(), "append schema must match the engine's");
        if batch.n() == 0 {
            return;
        }
        if let Some(bits) = &mut self.bits {
            bits.extend(batch);
        }
        self.radix.extend(batch);
        self.cache.get_mut().expect("cache lock poisoned").clear();
        self.n += batch.n();
    }

    /// Number of rows in the underlying dataset.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Schema of the underlying dataset.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.radix.schema
    }

    /// Raw (level-0) code column of attribute `attr`, spanning every row
    /// ever appended. Lets callers that journal or re-materialise the
    /// backing data read it without keeping a second copy.
    ///
    /// # Panics
    /// Panics if `attr` is out of range.
    #[must_use]
    pub fn column(&self, attr: usize) -> &[u32] {
        &self.radix.columns[attr]
    }

    /// The joint distribution over `axes` (probability scale), laid out
    /// exactly like [`ContingencyTable::from_dataset`] with the same axes:
    /// row-major, last axis fastest.
    ///
    /// # Panics
    /// Panics if `axes` is empty, repeats an axis, or an axis is invalid for
    /// the schema.
    #[must_use]
    pub fn joint(&self, axes: &[Axis]) -> Vec<f64> {
        let mut out = Vec::new();
        self.joint_into(axes, &mut out);
        out
    }

    /// As [`joint`](Self::joint), but writes into a caller-owned buffer so a
    /// scoring loop can reuse one allocation across candidates.
    pub fn joint_into(&self, axes: &[Axis], out: &mut Vec<f64>) {
        self.joint_counts(axes).probs_into(self.n, out);
    }

    /// The integer count table over `axes`, in the requested axis order.
    ///
    /// # Panics
    /// As [`joint`](Self::joint).
    #[must_use]
    pub fn joint_counts(&self, axes: &[Axis]) -> Arc<CountTable> {
        assert!(!axes.is_empty(), "need at least one axis");
        let mut canonical: Vec<Axis> = axes.to_vec();
        canonical.sort_unstable_by_key(|a| (a.attr, a.level));
        canonical.windows(2).for_each(|w| assert!(w[0] != w[1], "axis repeated: {:?}", w[0]));

        let table = self.canonical_table(&canonical);
        if table.axes() == axes {
            return table;
        }
        // Reorder (pure permutation) into the requested axis order.
        let perm: Vec<usize> = axes
            .iter()
            .map(|ax| canonical.iter().position(|c| c == ax).expect("axis in canonical set"))
            .collect();
        Arc::new(table.project(&perm))
    }

    /// The probability-scale [`ContingencyTable`] over `axes` — a drop-in,
    /// bit-identical replacement for [`ContingencyTable::from_dataset`].
    ///
    /// # Panics
    /// As [`joint`](Self::joint).
    #[must_use]
    pub fn joint_table(&self, axes: &[Axis]) -> ContingencyTable {
        self.joint_counts(axes).to_contingency(self.n)
    }

    /// Cache effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            projections: self.projections.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            cached_tables: self.cache.read().expect("cache lock poisoned").len(),
            bytes_materialized: self.bytes_materialized.load(Ordering::Relaxed),
            scan_micros: self.scan_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }

    /// The canonical (sorted-axes) table: cache hit, projection from a cached
    /// superset, or fresh materialisation — all bit-identical by the
    /// determinism contract.
    fn canonical_table(&self, canonical: &[Axis]) -> Arc<CountTable> {
        // Fast path: exact hit, plus superset search under the same read lock.
        let from_superset = {
            let cache = self.cache.read().expect("cache lock poisoned");
            if let Some(hit) = cache.get(canonical) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
            self.best_superset(&cache, canonical).map(|(key, positions)| {
                (Arc::clone(cache.get(&key).expect("key just found")), positions)
            })
        };

        let table = if let Some((superset, positions)) = from_superset {
            self.projections.fetch_add(1, Ordering::Relaxed);
            Arc::new(superset.project(&positions))
        } else {
            self.scans.fetch_add(1, Ordering::Relaxed);
            let started = std::time::Instant::now();
            let fresh = Arc::new(match &self.bits {
                Some(bits) if bits.supports(canonical) => bits.materialise(canonical),
                _ => self.radix.materialise(canonical),
            });
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.scan_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.bytes_materialized.fetch_add(fresh.cell_count() as u64 * 8, Ordering::Relaxed);
            fresh
        };

        // Tables past the projection budget are also not worth *retaining*:
        // they are as expensive to hold as to recount, and an unbounded
        // cache would otherwise accumulate every distinct candidate joint
        // for the engine's lifetime.
        if table.cell_count() > self.cell_budget() {
            return table;
        }
        let mut cache = self.cache.write().expect("cache lock poisoned");
        // Another thread may have raced us to the same key; keep the first
        // insertion (both are bit-identical anyway).
        Arc::clone(cache.entry(canonical.to_vec()).or_insert(table))
    }

    /// Whether a table of `cells` cells would be retained by the cache
    /// (callers use this to decide whether pre-warming a superset joint pays
    /// off).
    #[must_use]
    pub fn retains(&self, cells: usize) -> bool {
        cells <= self.cell_budget()
    }

    /// Cell bound shared by caching and projection: a table past it costs
    /// more to hold or to project than the O(n·k) row scan it would save.
    fn cell_budget(&self) -> usize {
        self.n.max(1).saturating_mul(4)
    }

    /// Finds the cached superset with the fewest cells whose projection is
    /// cheaper than a fresh row scan. Returns the key and the positions of
    /// `canonical`'s axes within it.
    fn best_superset(
        &self,
        cache: &HashMap<Vec<Axis>, Arc<CountTable>>,
        canonical: &[Axis],
    ) -> Option<(Vec<Axis>, Vec<usize>)> {
        // A projection touches every superset cell; past this it is cheaper
        // to re-count the rows.
        let budget = self.cell_budget();
        let mut best: Option<(&Vec<Axis>, usize)> = None;
        for (key, table) in cache {
            if key.len() <= canonical.len() || table.cell_count() > budget {
                continue;
            }
            if !is_sorted_subset(canonical, key) {
                continue;
            }
            if best.is_none_or(|(_, cells)| table.cell_count() < cells) {
                best = Some((key, table.cell_count()));
            }
        }
        best.map(|(key, _)| {
            let positions = canonical
                .iter()
                .map(|ax| key.iter().position(|k| k == ax).expect("subset checked"))
                .collect();
            (key.clone(), positions)
        })
    }
}

/// Whether sorted axis list `sub` is a subset of sorted axis list `sup`
/// (merge walk; both sorted by (attr, level)).
fn is_sorted_subset(sub: &[Axis], sup: &[Axis]) -> bool {
    let mut it = sup.iter();
    'outer: for a in sub {
        for b in it.by_ref() {
            if b == a {
                continue 'outer;
            }
            if (b.attr, b.level) > (a.attr, a.level) {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Schema, TaxonomyTree};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn mixed_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("b0"),
            Attribute::categorical("c4", 4)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
                .unwrap(),
            Attribute::binary("b1"),
            Attribute::categorical("c8", 8)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(8).unwrap())
                .unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let c = rng.random_range(0..4u32);
                vec![
                    u32::from(c >= 2),
                    c,
                    rng.random_range(0..2u32),
                    c * 2 + rng.random_range(0..2u32),
                ]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    fn binary_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("x0"),
            Attribute::binary("x1"),
            Attribute::binary("x2"),
            Attribute::binary("x3"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                vec![a, a ^ u32::from(rng.random_bool(0.1)), rng.random_range(0..2u32), a]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    fn assert_matches_from_dataset(data: &Dataset, engine: &CountEngine, axes: &[Axis]) {
        let fast = engine.joint(axes);
        let slow = ContingencyTable::from_dataset(data, axes);
        assert_eq!(fast.len(), slow.values().len(), "{axes:?}");
        for (i, (a, b)) in fast.iter().zip(slow.values()).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{axes:?} cell {i}: {a} vs {b}");
        }
    }

    #[test]
    fn engine_matches_contingency_table_on_mixed_schema() {
        let data = mixed_dataset(321, 1); // non-multiple of 64 rows
        let engine = CountEngine::new(&data);
        for axes in [
            vec![Axis::raw(0)],
            vec![Axis::raw(1)],
            vec![Axis::raw(3), Axis::raw(1)],
            vec![Axis::raw(1), Axis::raw(0), Axis::raw(2)],
            vec![Axis { attr: 1, level: 1 }, Axis::raw(0)],
            vec![Axis { attr: 3, level: 2 }, Axis { attr: 1, level: 1 }, Axis::raw(2)],
            vec![Axis::raw(0), Axis::raw(1), Axis::raw(2), Axis::raw(3)],
        ] {
            assert_matches_from_dataset(&data, &engine, &axes);
        }
    }

    #[test]
    fn bit_backend_matches_radix_and_from_dataset() {
        let data = binary_dataset(321, 2);
        let engine = CountEngine::new(&data);
        for axes in [
            vec![Axis::raw(0)],
            vec![Axis::raw(1), Axis::raw(0)],
            vec![Axis::raw(2), Axis::raw(3), Axis::raw(1)],
            vec![Axis::raw(0), Axis::raw(1), Axis::raw(2), Axis::raw(3)],
        ] {
            assert_matches_from_dataset(&data, &engine, &axes);
            // And the radix pass agrees with the popcount path exactly.
            let bits = engine.bits.as_ref().unwrap().materialise(&axes);
            let radix = engine.radix.materialise(&axes);
            assert_eq!(bits, radix);
        }
    }

    #[test]
    fn cache_serves_repeats_and_projections() {
        let data = mixed_dataset(200, 3);
        let engine = CountEngine::new(&data);
        let full = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
        let _ = engine.joint(&full);
        assert_eq!(engine.stats().scans, 1);

        // Same set again (any order): pure cache traffic, no new scan.
        let _ = engine.joint(&[Axis::raw(2), Axis::raw(0), Axis::raw(1)]);
        assert_eq!(engine.stats().scans, 1);
        assert_eq!(engine.stats().hits, 1);

        // A subset: served by projection, not a scan.
        let sub = engine.joint(&[Axis::raw(1), Axis::raw(0)]);
        let stats = engine.stats();
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.projections, 1);
        let direct = ContingencyTable::from_dataset(&data, &[Axis::raw(1), Axis::raw(0)]);
        for (a, b) in sub.iter().zip(direct.values()) {
            assert!(a.to_bits() == b.to_bits(), "projection must be bit-identical");
        }
    }

    #[test]
    fn generalised_axis_is_not_served_from_raw_superset() {
        // {c4@1} is not a projection of {c4@0, …}: levels must match exactly.
        let data = mixed_dataset(150, 4);
        let engine = CountEngine::new(&data);
        let _ = engine.joint(&[Axis::raw(1), Axis::raw(0)]);
        let g = engine.joint(&[Axis { attr: 1, level: 1 }]);
        assert_eq!(engine.stats().scans, 2, "level-1 axis needs its own count");
        let direct = ContingencyTable::from_dataset(&data, &[Axis { attr: 1, level: 1 }]);
        for (a, b) in g.iter().zip(direct.values()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn concurrent_requests_are_bit_identical() {
        let data = mixed_dataset(400, 5);
        let engine = CountEngine::new(&data);
        let requests: Vec<Vec<Axis>> = vec![
            vec![Axis::raw(0), Axis::raw(1)],
            vec![Axis::raw(1), Axis::raw(2), Axis::raw(3)],
            vec![Axis::raw(1)],
            vec![Axis::raw(3), Axis::raw(0)],
            vec![Axis { attr: 3, level: 1 }, Axis::raw(0)],
        ];
        let parallel: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = requests
                .iter()
                .map(|axes| {
                    let engine = &engine;
                    s.spawn(move || engine.joint(axes))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (axes, got) in requests.iter().zip(&parallel) {
            let direct = ContingencyTable::from_dataset(&data, axes);
            for (a, b) in got.iter().zip(direct.values()) {
                assert!(a.to_bits() == b.to_bits());
            }
        }
    }

    #[test]
    fn count_table_projection_is_exact() {
        let data = mixed_dataset(100, 6);
        let engine = CountEngine::new(&data);
        let full = engine.joint_counts(&[Axis::raw(0), Axis::raw(1), Axis::raw(2)]);
        let proj = full.project(&[2, 0]);
        let direct = engine.radix.materialise(&[Axis::raw(2), Axis::raw(0)]);
        assert_eq!(proj, direct);
        let total: u64 = proj.counts().iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn oversized_tables_are_served_but_not_retained() {
        // 16 cells > 4·n for n = 3: correct values, nothing cached.
        let data = binary_dataset(3, 8);
        let engine = CountEngine::new(&data);
        let axes = [Axis::raw(0), Axis::raw(1), Axis::raw(2), Axis::raw(3)];
        assert_matches_from_dataset(&data, &engine, &axes);
        assert_eq!(engine.stats().cached_tables, 0, "over-budget table must not be cached");
        let _ = engine.joint(&axes);
        assert_eq!(engine.stats().scans, 2, "repeat over-budget requests re-count");
    }

    #[test]
    fn empty_dataset_yields_zero_probabilities() {
        let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
        let data = Dataset::from_rows(schema, &[]).unwrap();
        let engine = CountEngine::new(&data);
        let j = engine.joint(&[Axis::raw(0), Axis::raw(1)]);
        assert!(j.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "axis repeated")]
    fn rejects_repeated_axes() {
        let data = binary_dataset(10, 7);
        let engine = CountEngine::new(&data);
        let _ = engine.joint(&[Axis::raw(0), Axis::raw(0)]);
    }

    /// Splits `data`'s rows into `[..at]` and `[at..]` datasets.
    fn split_rows(data: &Dataset, at: usize) -> (Dataset, Dataset) {
        let rows: Vec<Vec<u32>> =
            (0..data.n()).map(|r| (0..data.d()).map(|a| data.column(a)[r]).collect()).collect();
        let head = Dataset::from_rows(data.schema().clone(), &rows[..at]).unwrap();
        let tail = Dataset::from_rows(data.schema().clone(), &rows[at..]).unwrap();
        (head, tail)
    }

    #[test]
    fn append_is_bit_identical_to_cold_scan_of_concatenated_data() {
        for (full, warm_axes) in [
            (mixed_dataset(321, 11), vec![Axis::raw(0), Axis::raw(1), Axis::raw(3)]),
            (binary_dataset(257, 12), vec![Axis::raw(0), Axis::raw(1), Axis::raw(2)]),
        ] {
            let (head, tail) = split_rows(&full, 128);
            let mut engine = CountEngine::new(&head);
            // Warm the cache (including a generalised level where available)
            // so a stale table or generalised column would show after the
            // append.
            let _ = engine.joint(&warm_axes);
            if full.schema().attribute(1).taxonomy().is_some() {
                let _ = engine.joint(&[Axis { attr: 1, level: 1 }, Axis::raw(0)]);
            }
            engine.append(&tail);
            assert_eq!(engine.n(), full.n());
            for axes in [
                warm_axes.clone(),
                vec![Axis::raw(2), Axis::raw(0)],
                vec![Axis::raw(1)],
                vec![Axis::raw(0), Axis::raw(1), Axis::raw(2), Axis::raw(3)],
            ] {
                assert_matches_from_dataset(&full, &engine, &axes);
            }
            if full.schema().attribute(1).taxonomy().is_some() {
                assert_matches_from_dataset(
                    &full,
                    &engine,
                    &[Axis { attr: 1, level: 1 }, Axis::raw(0)],
                );
            }
        }
    }

    #[test]
    fn append_drops_cached_tables() {
        let full = mixed_dataset(300, 13);
        let (head, tail) = split_rows(&full, 100);
        let mut engine = CountEngine::new(&head);
        let generalised = [Axis { attr: 3, level: 1 }, Axis::raw(0)];
        let _ = engine.joint(&[Axis::raw(1), Axis::raw(2)]);
        let _ = engine.joint(&generalised);
        assert_eq!(engine.stats().cached_tables, 2);

        engine.append(&tail);
        assert_eq!(engine.stats().cached_tables, 0, "an append must drop every cached table");
        let cold = CountEngine::new(&full);
        assert_eq!(engine.joint_counts(&generalised), cold.joint_counts(&generalised));
    }

    #[test]
    fn appending_to_an_empty_engine_matches_a_cold_engine() {
        let full = binary_dataset(90, 14);
        let empty = Dataset::from_rows(full.schema().clone(), &[]).unwrap();
        let mut engine = CountEngine::new(&empty);
        let _ = engine.joint(&[Axis::raw(0), Axis::raw(3)]);
        engine.append(&full);
        for axes in
            [vec![Axis::raw(0), Axis::raw(3)], vec![Axis::raw(1), Axis::raw(2), Axis::raw(0)]]
        {
            assert_matches_from_dataset(&full, &engine, &axes);
        }
    }

    #[test]
    fn append_does_not_mutate_tables_held_by_readers() {
        let full = mixed_dataset(200, 15);
        let (head, tail) = split_rows(&full, 120);
        let mut engine = CountEngine::new(&head);
        let axes = [Axis::raw(0), Axis::raw(1)];
        let before = engine.joint_counts(&axes);
        let snapshot = before.counts().to_vec();
        engine.append(&tail);
        // The pre-append handle still sees head-only counts…
        assert_eq!(before.counts(), &snapshot[..]);
        // …while the engine serves the concatenated counts.
        assert_matches_from_dataset(&full, &engine, &axes);
    }

    #[test]
    #[should_panic(expected = "append schema must match")]
    fn append_rejects_schema_mismatch() {
        let mut engine = CountEngine::new(&binary_dataset(10, 16));
        engine.append(&mixed_dataset(10, 16));
    }

    #[test]
    fn sorted_subset_walk() {
        let a = |attr, level| Axis { attr, level };
        assert!(is_sorted_subset(&[a(1, 0)], &[a(0, 0), a(1, 0), a(2, 0)]));
        assert!(is_sorted_subset(&[a(0, 0), a(2, 0)], &[a(0, 0), a(1, 0), a(2, 0)]));
        assert!(!is_sorted_subset(&[a(1, 1)], &[a(0, 0), a(1, 0), a(2, 0)]));
        assert!(!is_sorted_subset(&[a(3, 0)], &[a(0, 0), a(1, 0)]));
        assert!(is_sorted_subset(&[], &[a(0, 0)]));
    }
}
