//! `CountEngine`: the shared joint-count engine behind network learning.
//!
//! GreedyBayes scores up to `d·C(d+1, k+1)` candidate joints (§4.1); doing
//! that with a fresh row-by-row scan per candidate is the dominant cost of
//! the whole pipeline. The engine makes candidate joints cheap three ways:
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
//! 3. **Children counted against shared parents.** A search scores many
//!    children against the same parent set.
//!    [`child_joints`](CountEngine::child_joints) counts `[parents…, child]`
//!    for all of them in one pass over blocks of rows: the parents' AND
//!    masks (bit backend) or cell index (radix) are built once per block
//!    and shared by every child.
//!
//! The engine keeps no tables: every request counts the rows, and an
//! [`append`](CountEngine::append) only grows the columns. Callers that
//! need a joint twice keep it themselves, as the greedy search keeps its
//! scores.
//!
//! # Determinism contract
//!
//! Both backends produce **identical integer counts** (counting is exact),
//! and probabilities are always derived as `count · (1/n)` — the same
//! expression [`ContingencyTable::from_dataset`] uses. A joint counted by
//! popcount, by the radix pass, alone or in a group of children, is
//! therefore **bit-identical**, whichever thread asks for it. This is what
//! lets parallel candidate scoring reproduce the sequential scores exactly.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

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

    /// Counts `[parents…, child]` for every raw attribute in `children`.
    /// Each block of `BLOCK_ROWS` rows gets its parent cell index built
    /// once, and then one pass per child: a child of domain `c` lands in
    /// cell `parent_cell·c + code`, the row-major layout of the full axes.
    fn child_counts(&self, parents: &[Axis], children: &[usize]) -> Vec<CountTable> {
        let dims: Vec<usize> = parents.iter().map(|a| a.size(&self.schema)).collect();
        let mut strides = vec![1usize; parents.len()];
        for i in (0..parents.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let parent_cells: usize = dims.iter().product();
        let cols: Vec<(&[u32], usize)> =
            parents.iter().zip(&strides).map(|(&axis, &s)| (self.codes(axis), s)).collect();
        let kids: Vec<(&[u32], usize)> = children
            .iter()
            .map(|&c| (&self.columns[c][..], self.schema.attribute(c).domain_size()))
            .collect();
        let mut counts: Vec<Vec<u64>> =
            kids.iter().map(|&(_, size)| vec![0; parent_cells * size]).collect();

        let mut cell = Vec::with_capacity(BLOCK_ROWS.min(self.n));
        for start in (0..self.n).step_by(BLOCK_ROWS) {
            let rows = start..(start + BLOCK_ROWS).min(self.n);
            cell.clear();
            cell.resize(rows.len(), 0usize);
            for &(col, stride) in &cols {
                for (c, &code) in cell.iter_mut().zip(&col[rows.clone()]) {
                    *c += code as usize * stride;
                }
            }
            for (table, &(col, size)) in counts.iter_mut().zip(&kids) {
                for (&c, &code) in cell.iter().zip(&col[rows.clone()]) {
                    table[c * size + code as usize] += 1;
                }
            }
        }
        children
            .iter()
            .zip(counts)
            .zip(&kids)
            .map(|((&child, counts), &(_, size))| {
                let mut axes = parents.to_vec();
                axes.push(Axis::raw(child));
                let mut table_dims = dims.clone();
                table_dims.push(size);
                CountTable { axes, dims: table_dims, counts }
            })
            .collect()
    }
}

/// Rows per block of a [`CountEngine::child_joints`] pass: 64 mask words,
/// so a block's scratch stays in cache and never grows with `n`.
const BLOCK_ROWS: usize = 4096;

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

    /// Counts `[parents…, child]` for every child (each a raw binary
    /// attribute) via the subset-AND lattice plus a Möbius transform from
    /// "all-ones" counts to exact cell counts; the layout matches
    /// [`ContingencyTable::from_dataset`] with the same axes. Per block of
    /// mask words, every parent subset's AND mask is built once, and each
    /// child costs one AND + popcount per subset.
    fn child_counts(&self, parents: &[Axis], children: &[usize]) -> Vec<CountTable> {
        const BLOCK: usize = BLOCK_ROWS / 64;
        let m = parents.len();
        let subsets = 1usize << m;
        // Bit p of a subset index stands for parents[m-1-p], so `s << 1`
        // (plus the child's bit) is the cell index of the all-ones pattern
        // restricted to s.
        let cols: Vec<&[u64]> = parents.iter().rev().map(|a| &self.cols[a.attr][..]).collect();
        let kids: Vec<&[u64]> = children.iter().map(|&c| &self.cols[c][..]).collect();
        // ones[s]: rows where every parent in s is 1; kid_ones[k][s]: the
        // same rows with child k also 1.
        let mut ones = vec![0i64; subsets];
        let mut kid_ones = vec![vec![0i64; subsets]; kids.len()];
        // masks[s·BLOCK..]: the block's AND of the parents in s (all ones
        // for the empty set).
        let mut masks = vec![!0u64; subsets * BLOCK];
        let words = self.n.div_ceil(64);
        for start in (0..words).step_by(BLOCK) {
            let block = start..(start + BLOCK).min(words);
            for s in 1..subsets {
                let rest = s & (s - 1);
                let col = &cols[s.trailing_zeros() as usize][block.clone()];
                let (done, todo) = masks.split_at_mut(s * BLOCK);
                let mut c = 0i64;
                for ((o, &a), &b) in todo.iter_mut().zip(&done[rest * BLOCK..]).zip(col) {
                    *o = a & b;
                    c += i64::from(o.count_ones());
                }
                ones[s] += c;
            }
            for (kid, counts) in kids.iter().zip(&mut kid_ones) {
                let kid = &kid[block.clone()];
                for (count, mask) in counts.iter_mut().zip(masks.chunks_exact(BLOCK)) {
                    let c: u32 = mask.iter().zip(kid).map(|(&a, &b)| (a & b).count_ones()).sum();
                    *count += i64::from(c);
                }
            }
        }
        ones[0] = self.n as i64;

        children
            .iter()
            .zip(kid_ones)
            .map(|(&child, kid)| {
                let mut counts: Vec<i64> =
                    ones.iter().zip(&kid).flat_map(|(&without, &with)| [without, with]).collect();
                // Möbius: convert "attr unconstrained" to "attr = 0", bit by bit.
                for p in 0..=m {
                    let bit = 1usize << p;
                    for s in 0..counts.len() {
                        if s & bit == 0 {
                            counts[s] -= counts[s | bit];
                        }
                    }
                }
                let mut axes = parents.to_vec();
                axes.push(Axis::raw(child));
                CountTable {
                    axes,
                    dims: vec![2; m + 1],
                    counts: counts.into_iter().map(|c| c as u64).collect(),
                }
            })
            .collect()
    }
}

/// Count-scan cost counters (see [`CountEngine::stats`]). All fields are
/// integers with zero defaults, keeping the struct `Eq` and a no-work fit
/// equal to `EngineStats::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Always 0: the engine keeps no table cache. Kept only because the
    /// benchmark still reads it; it leaves with the benchmark's next change.
    pub hits: usize,
    /// Always 0, as `hits`.
    pub projections: usize,
    /// Joint tables counted from the rows: one per
    /// [`joint_counts`](CountEngine::joint_counts) request and one per
    /// child of a [`child_joints`](CountEngine::child_joints) group.
    pub scans: usize,
    /// Always 0, as `hits`.
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
///   data — same counts, same `count · (1/n)` scaling expression — and each
///   table of [`child_joints`](CountEngine::child_joints) equals the single
///   joint over the same axes.
/// * Requests are pure: an engine consumes no randomness and its answers do
///   not depend on request order or thread interleaving.
#[derive(Debug)]
pub struct CountEngine {
    n: usize,
    radix: RadixBackend,
    bits: Option<BitBackend>,
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
            scans: AtomicUsize::new(0),
            bytes_materialized: AtomicU64::new(0),
            scan_nanos: AtomicU64::new(0),
        }
    }

    /// Appends a batch of rows: the backends' columns grow in place, and
    /// every encoded generalised column is dropped. The next request counts
    /// the concatenated rows, so the engine answers **bit-identically** to a
    /// cold engine over the concatenated data.
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
        self.joint_counts(axes).probs_into(self.n, &mut out);
        out
    }

    /// The integer count table over `axes`, in the requested axis order.
    ///
    /// # Panics
    /// As [`joint`](Self::joint).
    #[must_use]
    pub fn joint_counts(&self, axes: &[Axis]) -> CountTable {
        let (last, parents) = axes.split_last().expect("need at least one axis");
        assert_distinct(axes);
        let started = Instant::now();
        let table = match &self.bits {
            Some(bits) if bits.supports(axes) => {
                bits.child_counts(parents, &[last.attr]).pop().expect("one child")
            }
            _ => self.radix.materialise(axes),
        };
        self.record(std::slice::from_ref(&table), started);
        table
    }

    /// The count tables over `[parents…, child]` for every raw attribute in
    /// `children`, in that order, each equal to
    /// [`joint_counts`](Self::joint_counts) over the same axes. One pass
    /// over blocks of rows serves the whole group: the bit backend (when
    /// the parents and every child are raw binary attributes) builds each
    /// parent subset's AND mask once per block, the radix pass builds the
    /// parents' cell index once per block.
    ///
    /// # Panics
    /// Panics if a table would repeat an axis or an axis is invalid for the
    /// schema.
    #[must_use]
    pub fn child_joints(&self, parents: &[Axis], children: &[usize]) -> Vec<CountTable> {
        assert_distinct(parents);
        for child in children.iter().map(|&c| Axis::raw(c)) {
            assert!(!parents.contains(&child), "axis repeated: {child:?}");
        }
        let started = Instant::now();
        let tables = match &self.bits {
            Some(bits)
                if parents.len() < BitBackend::MAX_ARITY
                    && bits.supports(parents)
                    && children.iter().all(|&c| !bits.cols[c].is_empty()) =>
            {
                bits.child_counts(parents, children)
            }
            _ => self.radix.child_counts(parents, children),
        };
        self.record(&tables, started);
        tables
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

    /// Count-scan cost counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: 0,
            projections: 0,
            scans: self.scans.load(Ordering::Relaxed),
            cached_tables: 0,
            bytes_materialized: self.bytes_materialized.load(Ordering::Relaxed),
            scan_micros: self.scan_nanos.load(Ordering::Relaxed) / 1_000,
        }
    }

    /// Adds counted `tables`, and the time since `started`, to the stats.
    fn record(&self, tables: &[CountTable], started: Instant) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.scan_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.scans.fetch_add(tables.len(), Ordering::Relaxed);
        let cells: usize = tables.iter().map(CountTable::cell_count).sum();
        self.bytes_materialized.fetch_add(cells as u64 * 8, Ordering::Relaxed);
    }
}

/// Panics if `axes` names an axis twice.
fn assert_distinct(axes: &[Axis]) {
    for (i, axis) in axes.iter().enumerate() {
        assert!(!axes[..i].contains(axis), "axis repeated: {axis:?}");
    }
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

    /// Ten binary attributes over 321 rows (the last mask word partial),
    /// every third one a copy of a shared bit and the rest noisy copies.
    fn wide_binary_dataset() -> Dataset {
        let schema =
            Schema::new((0..10).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<u32>> = (0..321)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                (0..10)
                    .map(|j| if j % 3 == 0 { a } else { a ^ u32::from(rng.random_bool(0.3)) })
                    .collect()
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    /// Asserts that every table of `child_joints(parents, children)` equals
    /// the single joint over `[parents…, child]`, the radix pass and
    /// `ContingencyTable::from_dataset`, and that each child adds one scan.
    fn assert_child_joints_match(data: &Dataset, parents: &[Axis], children: &[usize]) {
        let engine = CountEngine::new(data);
        let tables = engine.child_joints(parents, children);
        assert_eq!(engine.stats().scans, children.len(), "{parents:?}");
        assert_eq!(tables.len(), children.len());
        for (table, &child) in tables.iter().zip(children) {
            let mut axes = parents.to_vec();
            axes.push(Axis::raw(child));
            assert_eq!(table.axes(), &axes[..]);
            assert_eq!(*table, engine.joint_counts(&axes), "{axes:?}");
            assert_eq!(*table, engine.radix.materialise(&axes), "{axes:?}");
            let slow = ContingencyTable::from_dataset(data, &axes);
            let mut fast = Vec::new();
            table.probs_into(data.n(), &mut fast);
            assert_eq!(fast.len(), slow.values().len(), "{axes:?}");
            for (i, (a, b)) in fast.iter().zip(slow.values()).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "{axes:?} cell {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn bit_backend_matches_radix_and_from_dataset() {
        // Full-size binary fits score five-way joints through the bit
        // backend, so cover every arity up to 8, each requested unsorted.
        let data = wide_binary_dataset();
        let engine = CountEngine::new(&data);
        let bits = engine.bits.as_ref().unwrap();
        for arity in 1..=8 {
            let axes: Vec<Axis> =
                (0..arity).rev().map(|i| Axis::raw((3 * i + arity) % 10)).collect();
            assert!(arity == 1 || axes.windows(2).any(|w| w[0].attr > w[1].attr), "{axes:?}");
            assert!(bits.supports(&axes));
            let (last, parents) = axes.split_last().unwrap();
            let counted = bits.child_counts(parents, &[last.attr]).pop().unwrap();
            assert_eq!(counted, engine.radix.materialise(&axes), "{axes:?}");
            assert_matches_from_dataset(&data, &engine, &axes);
        }
        assert_eq!(engine.stats().scans, 8);
    }

    #[test]
    fn child_joints_match_single_joints_on_binary_data() {
        // Parent arities 0 through 8, given unsorted, with children below,
        // between and above the parents: the bit backend's group pass.
        let data = wide_binary_dataset();
        for arity in 0..=8 {
            let parents: Vec<Axis> = (0..arity).rev().map(|i| Axis::raw(i + 1)).collect();
            let children: Vec<usize> = (0..10).filter(|&c| c == 0 || c > arity).collect();
            assert_child_joints_match(&data, &parents, &children);
        }
        let between = [Axis::raw(9), Axis::raw(2), Axis::raw(6)];
        assert_child_joints_match(&data, &between, &[0, 4, 8, 1]);
    }

    #[test]
    fn child_joints_match_single_joints_on_mixed_data() {
        // Generalised parent axes, child lists mixing binary and categorical
        // attributes, and binary children under a categorical parent take
        // the radix group pass; a binary parent over a binary child takes
        // the bit pass.
        let data = mixed_dataset(321, 2);
        for (parents, children) in [
            (vec![Axis { attr: 3, level: 1 }, Axis { attr: 1, level: 1 }], vec![2, 0]),
            (vec![Axis { attr: 3, level: 2 }], vec![1, 0, 2]),
            (vec![Axis::raw(2)], vec![3, 0, 1]),
            (vec![Axis::raw(1)], vec![0, 2]),
            (vec![Axis::raw(2)], vec![0]),
            (vec![], vec![3, 0, 1, 2]),
        ] {
            assert_child_joints_match(&data, &parents, &children);
        }
    }

    #[test]
    #[should_panic(expected = "axis repeated")]
    fn child_joints_reject_a_child_among_the_parents() {
        let data = wide_binary_dataset();
        let _ = CountEngine::new(&data).child_joints(&[Axis::raw(1), Axis::raw(2)], &[0, 2]);
    }

    #[test]
    fn repeats_are_rescanned_bit_identically() {
        let data = mixed_dataset(200, 3);
        let engine = CountEngine::new(&data);
        let full = [Axis::raw(0), Axis::raw(1), Axis::raw(2)];
        let first = engine.joint(&full);
        assert_eq!(engine.stats().scans, 1);

        // The same axes again: a second scan, bit for bit the first.
        let again = engine.joint(&full);
        assert_eq!(engine.stats().scans, 2);
        assert!(first.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()));

        // Another order of the same set is counted in that order.
        let sub = engine.joint(&[Axis::raw(1), Axis::raw(0)]);
        let stats = engine.stats();
        assert_eq!((stats.scans, stats.hits, stats.projections, stats.cached_tables), (3, 0, 0, 0));
        let direct = ContingencyTable::from_dataset(&data, &[Axis::raw(1), Axis::raw(0)]);
        for (a, b) in sub.iter().zip(direct.values()) {
            assert!(a.to_bits() == b.to_bits(), "scan must be bit-identical");
        }
    }

    #[test]
    fn generalised_axis_is_not_served_from_raw_superset() {
        // {c4@1} is counted from its own encoded column: levels never mix.
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
            // Count before the append (including a generalised level where
            // available) so a stale generalised column would show after it.
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
    #[should_panic(expected = "append schema must match")]
    fn append_rejects_schema_mismatch() {
        let mut engine = CountEngine::new(&binary_dataset(10, 16));
        engine.append(&mixed_dataset(10, 16));
    }
}
