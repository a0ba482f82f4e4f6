//! `CountEngine`: the shared joint-count engine behind network learning.
//!
//! GreedyBayes scores up to `d·C(d+1, k+1)` candidate joints (§4.1); doing
//! that with a fresh row-by-row scan per candidate is the dominant cost of
//! the whole pipeline. The engine makes candidate joints cheap three ways:
//!
//! 1. **Radix-coded columns.** Every requested (attribute, level) axis is
//!    encoded once into a dense `u32` code column (level 0 copies the
//!    dataset column; generalised levels are materialised lazily through the
//!    taxonomy's level lookup). The radix backend has one counting
//!    primitive, a pass over blocks of rows that builds the parents' cell
//!    index (`Σ code·stride`) once per block: [`child_joints`](CountEngine::child_joints)
//!    counts `[parents…, child]` for many children in one such pass, and a
//!    single radix joint is the one-child case.
//! 2. **One bit-packed walk.** Binary attributes are also kept as bit masks.
//!    The bit backend has one counting primitive: a depth-first walk over a
//!    set of binary attributes that counts the rows where every attribute of
//!    a subset is 1, one AND + popcount pass per subset and one AND mask per
//!    depth. A joint over raw binary axes (at most 8 of them) is the walk
//!    over its axes followed by a Möbius transform from those "all ones"
//!    counts to cell counts. [`joint_counts`](CountEngine::joint_counts)
//!    picks the bit backend whenever it supports the axes and the radix pass
//!    otherwise, so callers have one entry point.
//! 3. **One subset lattice per search.** On binary axes, every candidate
//!    joint of a search is a Möbius transform of all-ones counts of subsets
//!    of at most `K` attributes. [`subset_counts`](CountEngine::subset_counts)
//!    walks each such subset of the schema's binary attributes once and
//!    returns the counts as an owned [`SubsetCounts`], from which
//!    [`child_counts`](SubsetCounts::child_counts) builds each binary
//!    candidate's table without reading a row.
//!
//! The engine keeps no tables: every request counts the rows, and an
//! [`append`](CountEngine::append) only grows the columns. Callers that
//! need a joint twice keep it themselves, as the greedy search keeps its
//! subset counts and its scores.
//!
//! # Determinism contract
//!
//! Both backends produce **identical integer counts** (counting is exact),
//! and probabilities are always derived as `count · (1/n)` — the same
//! expression [`ContingencyTable::from_dataset`] uses. A joint counted by
//! the bit walk, by the radix pass alone or in a group of children, or built
//! from a subset lattice walked on any number of threads, is therefore
//! **bit-identical**, whichever thread asks for it. This is what lets
//! parallel candidate scoring reproduce the sequential scores exactly.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use privbayes_data::{Dataset, Schema};

use crate::table::{project_values, Axis, ContingencyTable};

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
    /// order, with [`project_values`]. Keeping every axis in a new order is a
    /// pure permutation. Integer summation is exact, so a projection equals a
    /// direct count.
    ///
    /// # Panics
    /// Panics if `keep` is empty, repeats a position, or indexes out of range.
    #[must_use]
    pub fn project(&self, keep: &[usize]) -> Self {
        assert!(!keep.is_empty(), "projection must keep at least one axis");
        let counts = project_values(&self.dims, &self.counts, keep);
        let axes = keep.iter().map(|&k| self.axes[k]).collect();
        let dims = keep.iter().map(|&k| self.dims[k]).collect();
        Self { axes, dims, counts }
    }

    /// Writes the probability-scale cells (`count · (1/n)`) into `out`, as
    /// the free [`probs_into`] does.
    pub fn probs_into(&self, n: usize, out: &mut Vec<f64>) {
        probs_into(&self.counts, n, out);
    }

    /// The probability-scale [`ContingencyTable`] form of this count table.
    #[must_use]
    pub fn to_contingency(&self, n: usize) -> ContingencyTable {
        let mut values = Vec::new();
        self.probs_into(n, &mut values);
        ContingencyTable::from_parts(self.axes.clone(), self.dims.clone(), values)
    }
}

/// Writes the probability-scale cells (`count · (1/n)`) of `counts` into
/// `out`. This is bit-identical to [`ContingencyTable::from_dataset`] on the
/// same axes — same counts, same scaling expression.
pub fn probs_into(counts: &[u64], n: usize, out: &mut Vec<f64>) {
    let scale = if n == 0 { 0.0 } else { 1.0 / n as f64 };
    out.clear();
    out.extend(counts.iter().map(|&c| c as f64 * scale));
}

/// The general-domain backend: one blocked radix pass over pre-encoded dense
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

    /// Counts `[parents…, child]` for every axis in `children`. Each block
    /// of `BLOCK_ROWS` rows gets its parent cell index built once, and then
    /// one pass per child: a child of domain `c` lands in cell
    /// `parent_cell·c + code`, the row-major layout of the full axes.
    fn child_counts(&self, parents: &[Axis], children: &[Axis]) -> Vec<CountTable> {
        let dims: Vec<usize> = parents.iter().map(|a| a.size(&self.schema)).collect();
        let mut strides = vec![1usize; parents.len()];
        for i in (0..parents.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let parent_cells: usize = dims.iter().product();
        let cols: Vec<(&[u32], usize)> =
            parents.iter().zip(&strides).map(|(&axis, &s)| (self.codes(axis), s)).collect();
        let kids: Vec<(&[u32], usize)> =
            children.iter().map(|&c| (self.codes(c), c.size(&self.schema))).collect();
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
                axes.push(child);
                let mut table_dims = dims.clone();
                table_dims.push(size);
                CountTable { axes, dims: table_dims, counts }
            })
            .collect()
    }
}

/// The bit mask of at most 64 binary codes: bit `i` is set when `codes[i]`
/// is 1. A fold without a data-dependent branch, so the compiler can
/// vectorise it.
fn pack_bits(codes: &[u32]) -> u64 {
    codes.iter().enumerate().fold(0, |word, (i, &v)| word | u64::from(v == 1) << i)
}

/// Rows per block of a radix pass, so a block's cell index stays in cache
/// and never grows with `n`.
const BLOCK_ROWS: usize = 4096;

/// Bit-packed columns of the binary attributes: joints over raw binary axes
/// come from the subset walk's AND + popcount passes instead of row scans.
#[derive(Debug)]
struct BitBackend {
    /// One bit mask per attribute (empty for non-binary attributes).
    cols: Vec<Vec<u64>>,
    n: usize,
}

impl BitBackend {
    /// Joints above this arity take the radix pass. The walk counts all
    /// `2^m − 1` subsets of a joint's `m` axes, so its cost doubles with
    /// each axis, while a radix pass grows slowly; on a 21,574-row table the
    /// two cross between 8 and 9 axes. A search's lattice is not bound by
    /// this cut, because its counts are shared by many candidates.
    const MAX_ARITY: usize = 8;

    fn new(schema: &Schema, columns: &[Vec<u32>], n: usize) -> Self {
        let cols = columns
            .iter()
            .enumerate()
            .map(|(a, column)| {
                if !schema.attribute(a).is_binary() {
                    return Vec::new();
                }
                column.chunks(64).map(pack_bits).collect()
            })
            .collect();
        Self { cols, n }
    }

    /// Appends a batch's rows to the bit masks (binary attributes only —
    /// the schema decides, since an empty mask can also mean "no rows yet").
    /// The batch's first rows fill the last mask word; the rest are packed
    /// 64 rows to a word.
    fn extend(&mut self, batch: &Dataset) {
        let words = (self.n + batch.n()).div_ceil(64);
        let (word, bit) = (self.n / 64, self.n % 64);
        for (a, mask) in self.cols.iter_mut().enumerate() {
            if !batch.schema().attribute(a).is_binary() {
                continue;
            }
            mask.resize(words, 0);
            let column = batch.column(a);
            let (head, tail) = column.split_at(((64 - bit) % 64).min(column.len()));
            if !head.is_empty() {
                mask[word] |= pack_bits(head) << bit;
            }
            let full = (self.n + head.len()) / 64;
            for (word, rows) in mask[full..].iter_mut().zip(tail.chunks(64)) {
                *word = pack_bits(rows);
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

    /// Fills `lattice` with the all-ones count of each of its subsets of
    /// `attrs` (the lattice's attributes, ascending): a depth-first walk
    /// with one AND mask per depth and one AND + popcount pass per subset.
    /// The walk's top-level branches, one per attribute, are dealt to
    /// `threads` scoped threads in a strided split, and each thread writes
    /// its branches' ranges in place. Returns the walk's time summed over
    /// the threads.
    fn walk(&self, attrs: &[usize], lattice: &mut SubsetCounts, threads: usize) -> Duration {
        let depth = lattice.max_size;
        if depth == 0 {
            return Duration::ZERO;
        }
        let cols: Vec<&[u64]> = attrs.iter().map(|&a| &self.cols[a][..]).collect();
        let words = self.n.div_ceil(64);
        let all_rows = vec![!0u64; words];
        let threads = threads.clamp(1, cols.len());
        let mut dealt: Vec<Vec<(usize, &mut [u64])>> = (0..threads).map(|_| Vec::new()).collect();
        let mut rest = &mut lattice.counts[1..];
        for (p, bounds) in lattice.offsets[..=cols.len()].windows(2).enumerate() {
            let (branch, tail) = std::mem::take(&mut rest).split_at_mut(bounds[1] - bounds[0]);
            dealt[p % threads].push((p, branch));
            rest = tail;
        }
        // Every buffer is allocated here, so that the walking threads
        // allocate nothing: a thread that allocates may get an allocator
        // arena of its own, whose freed memory stays resident after the walk
        // (ingest's peak RSS rose by about 1 MB when each thread allocated
        // its masks).
        let mut masks = vec![vec![vec![0u64; words]; depth - 1]; threads];
        let walk = |dealt: &mut [(usize, &mut [u64])], masks: &mut [Vec<u64>]| {
            let started = Instant::now();
            for (p, out) in dealt {
                descend(&cols, &all_rows, *p, depth, masks, out);
            }
            started.elapsed()
        };
        if threads == 1 {
            return walk(&mut dealt[0], &mut masks[0]);
        }
        let walk = &walk;
        std::thread::scope(|scope| {
            let handles: Vec<_> = dealt
                .iter_mut()
                .zip(&mut masks)
                .map(|(dealt, masks)| scope.spawn(move || walk(dealt, masks)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("subset walker panicked")).sum()
        })
    }
}

/// Counts the rows of `mask ∧ cols[q]` into `out[0]` and then, depth first,
/// every extension of that subset by up to `levels − 1` later columns;
/// returns how many counts it wrote. `masks` holds one scratch mask for
/// each level but the last.
fn descend(
    cols: &[&[u64]],
    mask: &[u64],
    q: usize,
    levels: usize,
    masks: &mut [Vec<u64>],
    out: &mut [u64],
) -> usize {
    if levels == 1 {
        out[0] = mask.iter().zip(cols[q]).map(|(&a, &b)| u64::from((a & b).count_ones())).sum();
        return 1;
    }
    let (next, deeper) = masks.split_first_mut().expect("one mask per level");
    let mut count = 0u64;
    for ((o, &a), &b) in next.iter_mut().zip(mask).zip(cols[q]) {
        *o = a & b;
        count += u64::from(o.count_ones());
    }
    out[0] = count;
    let mut at = 1;
    for r in q + 1..cols.len() {
        at += descend(cols, next, r, levels - 1, deeper, &mut out[at..]);
    }
    at
}

/// The "all ones" counts of every subset of at most `K` of a set of binary
/// attributes: for each subset, the rows where all its attributes are 1.
/// [`CountEngine::subset_counts`] returns one over the schema's binary
/// attributes, counted once by the bit backend's walk.
///
/// A joint over raw binary axes is a Möbius transform of the all-ones counts
/// of its axes' subsets, so one lattice serves every binary candidate of a
/// search: [`child_counts`](Self::child_counts) builds a table from
/// `2^(m+1)` lookups. The counts are dense and indexed by rank: index 0
/// holds the empty set (`n`), and the non-empty subsets follow in
/// depth-first (lexicographic) order of their attributes' lattice
/// positions, so each top-level branch of the walk owns one contiguous
/// range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetCounts {
    /// Lattice position of each schema attribute (`None` outside it).
    position: Vec<Option<usize>>,
    /// `K`: the largest subset counted.
    max_size: usize,
    /// Row `j − 1` (stride `width + 1`), entry `p`: how many subsets the
    /// depth-`j` subtrees of positions `0..p` hold. A subset `S ∪ {q}` of
    /// size `j`, with `q` above every position of `S`, has index
    /// `index(S) + 1 + offset(j, q) − offset(j, last(S) + 1)`.
    offsets: Vec<usize>,
    /// The counts by index.
    counts: Vec<u64>,
}

impl SubsetCounts {
    /// A zeroed lattice of the subsets of at most `max_size` of `attrs`
    /// (ascending attributes of a `d`-attribute schema) over `n` rows, or
    /// `None` when its length overflows `usize` or one allocation.
    fn zeroed(d: usize, attrs: &[usize], max_size: usize, n: usize) -> Option<Self> {
        let width = attrs.len();
        let max_size = max_size.min(width);
        // below[r][h]: the non-empty subsets of at most h of r attributes.
        let mut below = vec![vec![0usize; max_size + 1]; width + 1];
        for r in 1..=width {
            for h in 1..=max_size {
                below[r][h] = below[r - 1][h].checked_add(below[r - 1][h - 1])?.checked_add(1)?;
            }
        }
        let mut offsets = vec![0usize; max_size * (width + 1)];
        for (j, row) in offsets.chunks_exact_mut(width + 1).enumerate() {
            for p in 0..width {
                let subtree = below[width - 1 - p][max_size - 1 - j].checked_add(1)?;
                row[p + 1] = row[p].checked_add(subtree)?;
            }
        }
        let len = offsets.get(width).copied().unwrap_or(0).checked_add(1)?;
        if len > isize::MAX as usize / std::mem::size_of::<u64>() {
            return None;
        }
        let mut position = vec![None; d];
        for (p, &attr) in attrs.iter().enumerate() {
            position[attr] = Some(p);
        }
        let mut counts = vec![0; len];
        counts[0] = n as u64;
        Some(Self { position, max_size, offsets, counts })
    }

    /// The number of counts, the empty set's included.
    fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the lattice holds every subset of `[parents…, child]`: raw
    /// attributes of the lattice, at most `K` of them.
    #[must_use]
    pub fn covers(&self, parents: &[Axis], child: usize) -> bool {
        parents.len() < self.max_size
            && self.position[child].is_some()
            && parents.iter().all(|a| a.level == 0 && self.position[a.attr].is_some())
    }

    /// The cell counts of the tables over `[parents…, child]` for every
    /// child, one table of `2^(m+1)` cells after another in child order,
    /// each laid out as [`CountEngine::joint_counts`] lays out the same axes.
    /// No row is read: each table is `2^(m+1)` lookups, one per subset of
    /// its axes, and a Möbius transform from all-ones counts to cell counts.
    /// The parents' half (the subsets without the child) is looked up and
    /// transformed once for the group, and each subset's index follows from
    /// its prefix's in O(1).
    ///
    /// # Panics
    /// Panics unless the lattice [`covers`](Self::covers) every table, or if
    /// a table would repeat an axis.
    #[must_use]
    pub fn child_counts(&self, parents: &[Axis], children: &[usize]) -> Vec<u64> {
        assert!(children.iter().all(|&c| self.covers(parents, c)), "tables outside the lattice");
        let m = parents.len();
        let subsets = 1usize << m;
        let mut tables = Vec::with_capacity(2 * subsets * children.len());
        if children.is_empty() {
            return tables;
        }
        let stride = self.offsets.len() / self.max_size;
        let offset = |size: usize, p: usize| self.offsets[(size - 1) * stride + p];
        // The parents by descending lattice position, each with its bit in
        // the parents' cell index (parents[i] is bit m − 1 − i). Bit t of a
        // subset mask stands for desc[t], so a mask's lowest bit is its
        // highest position, and clearing it leaves the subset's prefix.
        let mut desc: Vec<(usize, usize)> = parents
            .iter()
            .enumerate()
            .map(|(i, a)| (self.position[a.attr].expect("covered"), m - 1 - i))
            .collect();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        assert!(desc.windows(2).all(|w| w[0].0 > w[1].0), "axis repeated");
        // Per parent subset mask: its size, cell, lattice index and the
        // position after its highest member; `ones` becomes the parents'
        // cell counts.
        let mut node = vec![(0, 0, 0, 0); subsets];
        let mut ones = vec![self.counts[0]; subsets];
        for u in 1..subsets {
            let (size, cell, index, after) = node[u & (u - 1)];
            let (p, bit) = desc[u.trailing_zeros() as usize];
            let index = index + 1 + offset(size + 1, p) - offset(size + 1, after);
            node[u] = (size + 1, cell | 1 << bit, index, p + 1);
            ones[cell | 1 << bit] = self.counts[index];
        }
        mobius(&mut ones);
        // Per parent subset mask: the lattice index of the subset with the
        // child, and the position after its highest member.
        let mut with_child = vec![(0, 0); subsets];
        let mut kid = vec![0u64; subsets];
        for &child in children {
            let q = self.position[child].expect("covered");
            assert!(desc.iter().all(|&(p, _)| p != q), "axis repeated");
            // Masks below `above` hold only parents above the child.
            let above = 1 << desc.partition_point(|&(p, _)| p > q);
            for low in (0..subsets).step_by(above) {
                // No parent above the child: the child extends the subset.
                let (size, cell, index, after) = node[low];
                with_child[low] =
                    (index + 1 + offset(size + 1, q) - offset(size + 1, after), q + 1);
                kid[cell] = self.counts[with_child[low].0];
                for u in low + 1..low + above {
                    let (size, cell, ..) = node[u];
                    let (index, after) = with_child[u & (u - 1)];
                    let p = desc[u.trailing_zeros() as usize].0;
                    with_child[u] =
                        (index + 1 + offset(size + 1, p) - offset(size + 1, after), p + 1);
                    kid[cell] = self.counts[with_child[u].0];
                }
            }
            mobius(&mut kid);
            for (&all, &one) in ones.iter().zip(&kid) {
                tables.push(all - one);
                tables.push(one);
            }
        }
        tables
    }
}

/// The Möbius transform over the bits of a cell index, in place: from
/// "all ones" counts (a clear bit leaves its attribute unconstrained) to
/// cell counts (a clear bit means the attribute is 0).
fn mobius(counts: &mut [u64]) {
    let mut half = 1;
    while half < counts.len() {
        for block in counts.chunks_exact_mut(2 * half) {
            let (zeros, ones) = block.split_at_mut(half);
            for (zero, &one) in zeros.iter_mut().zip(&*ones) {
                *zero -= one;
            }
        }
        half *= 2;
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
    /// Count tables materialised from rows: one per
    /// [`joint_counts`](CountEngine::joint_counts) request and one per
    /// child of a [`child_joints`](CountEngine::child_joints) group. Tables
    /// built from a [`SubsetCounts`] lattice read no rows and are not scans.
    pub scans: usize,
    /// Always 0, as `hits`.
    pub cached_tables: usize,
    /// Bytes materialised by counting: 8 per cell of each scanned table and
    /// 8 per count of each walked lattice.
    pub bytes_materialized: u64,
    /// Time spent counting rows (scans and subset walks), in microseconds,
    /// summed over the threads that counted.
    pub scan_micros: u64,
    /// Binary attribute subsets counted by the bit backend's walk, one
    /// AND + popcount pass each: a [`subset_counts`](CountEngine::subset_counts)
    /// lattice's non-empty subsets, and the `2^m − 1` subsets of each
    /// `m`-axis joint the bit backend counts.
    pub subsets: usize,
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
///   table of [`child_joints`](CountEngine::child_joints) and of a
///   [`subset_counts`](CountEngine::subset_counts) lattice equals the single
///   joint over the same axes.
/// * Requests are pure: an engine consumes no randomness and its answers do
///   not depend on request order, thread interleaving or thread count.
#[derive(Debug)]
pub struct CountEngine {
    n: usize,
    radix: RadixBackend,
    bits: Option<BitBackend>,
    scans: AtomicUsize,
    subsets: AtomicUsize,
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
            subsets: AtomicUsize::new(0),
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

    /// The integer count table over `axes`, in the requested axis order: the
    /// bit backend's walk over the axes when they are at most 8 raw binary
    /// attributes, else the radix group pass with the last axis as its child.
    ///
    /// # Panics
    /// As [`joint`](Self::joint).
    #[must_use]
    pub fn joint_counts(&self, axes: &[Axis]) -> CountTable {
        let (last, parents) = axes.split_last().expect("need at least one axis");
        assert_distinct(axes);
        let started = Instant::now();
        let (table, lattice) = match &self.bits {
            Some(bits) if bits.supports(axes) => {
                let mut attrs: Vec<usize> = axes.iter().map(|a| a.attr).collect();
                attrs.sort_unstable();
                let mut lattice =
                    SubsetCounts::zeroed(self.schema().len(), &attrs, axes.len(), self.n)
                        .expect("at most 2^8 subsets");
                bits.walk(&attrs, &mut lattice, 1);
                let counts = lattice.child_counts(parents, &[last.attr]);
                let table = CountTable { axes: axes.to_vec(), dims: vec![2; axes.len()], counts };
                (table, Some(lattice))
            }
            _ => (self.radix.child_counts(parents, &[*last]).remove(0), None),
        };
        self.record(started.elapsed(), std::slice::from_ref(&table), lattice.as_ref());
        table
    }

    /// The all-ones counts of every subset of at most `max_size` of the
    /// schema's binary attributes (see [`SubsetCounts`]), walked once on
    /// `threads` scoped threads. The counts do not depend on `threads`.
    /// Returns `None` when the lattice's length overflows `usize` or one
    /// allocation.
    #[must_use]
    pub fn subset_counts(&self, max_size: usize, threads: usize) -> Option<SubsetCounts> {
        let schema = self.schema();
        let attrs: Vec<usize> =
            (0..schema.len()).filter(|&a| schema.attribute(a).is_binary()).collect();
        let started = Instant::now();
        let mut lattice = SubsetCounts::zeroed(schema.len(), &attrs, max_size, self.n)?;
        let mut elapsed = started.elapsed();
        if let Some(bits) = &self.bits {
            elapsed += bits.walk(&attrs, &mut lattice, threads);
        }
        self.record(elapsed, &[], Some(&lattice));
        Some(lattice)
    }

    /// The count tables over `[parents…, child]` for every raw attribute in
    /// `children`, in that order, each equal to
    /// [`joint_counts`](Self::joint_counts) over the same axes. One radix
    /// pass over blocks of rows serves the whole group: each block's parent
    /// cell index is built once and shared by the children. No children, no
    /// pass.
    ///
    /// # Panics
    /// Panics if a table would repeat an axis or an axis is invalid for the
    /// schema.
    #[must_use]
    pub fn child_joints(&self, parents: &[Axis], children: &[usize]) -> Vec<CountTable> {
        assert_distinct(parents);
        let children: Vec<Axis> = children.iter().map(|&c| Axis::raw(c)).collect();
        for child in &children {
            assert!(!parents.contains(child), "axis repeated: {child:?}");
        }
        if children.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let tables = self.radix.child_counts(parents, &children);
        self.record(started.elapsed(), &tables, None);
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
            subsets: self.subsets.load(Ordering::Relaxed),
        }
    }

    /// Adds `elapsed`, the `tables` counted from rows and the walked
    /// `lattice` to the stats.
    fn record(&self, elapsed: Duration, tables: &[CountTable], lattice: Option<&SubsetCounts>) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.scan_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.scans.fetch_add(tables.len(), Ordering::Relaxed);
        let mut cells: usize = tables.iter().map(CountTable::cell_count).sum();
        if let Some(lattice) = lattice {
            self.subsets.fetch_add(lattice.len() - 1, Ordering::Relaxed);
            cells += lattice.len();
        }
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
        // 321 rows leave the last mask word partial; the larger table
        // crosses two radix block boundaries and ends in a partial block.
        for n in [321, 2 * BLOCK_ROWS + 7] {
            let data = mixed_dataset(n, 1);
            let engine = CountEngine::new(&data);
            for axes in [
                vec![Axis::raw(0)],
                vec![Axis::raw(1)],
                vec![Axis::raw(3), Axis::raw(1)],
                vec![Axis::raw(1), Axis::raw(0), Axis::raw(2)],
                vec![Axis { attr: 1, level: 1 }, Axis::raw(0)],
                vec![Axis { attr: 3, level: 2 }, Axis { attr: 1, level: 1 }, Axis::raw(2)],
                vec![Axis::raw(0), Axis::raw(1), Axis::raw(2), Axis::raw(3)],
                // A generalised last axis, alone or after mixed levels.
                vec![Axis { attr: 3, level: 1 }],
                vec![Axis::raw(0), Axis { attr: 1, level: 1 }],
                vec![Axis::raw(2), Axis { attr: 3, level: 2 }],
                vec![
                    Axis { attr: 3, level: 1 },
                    Axis::raw(0),
                    Axis::raw(2),
                    Axis { attr: 1, level: 1 },
                ],
            ] {
                assert_matches_from_dataset(&data, &engine, &axes);
            }
        }
    }

    /// `d` binary attributes over 321 rows (the last mask word partial),
    /// every third one a copy of a shared bit and the rest noisy copies.
    fn wide_binary_dataset(d: usize) -> Dataset {
        let schema =
            Schema::new((0..d).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<u32>> = (0..321)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                (0..d)
                    .map(|j| if j % 3 == 0 { a } else { a ^ u32::from(rng.random_bool(0.3)) })
                    .collect()
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    /// The radix pass over `axes`, whatever backend `joint_counts` picks.
    fn radix_joint(engine: &CountEngine, axes: &[Axis]) -> CountTable {
        let (last, parents) = axes.split_last().unwrap();
        engine.radix.child_counts(parents, &[*last]).pop().unwrap()
    }

    /// Asserts that `table` equals the radix pass over its axes and, on the
    /// probability scale, `ContingencyTable::from_dataset` bit for bit.
    fn assert_table_matches(data: &Dataset, engine: &CountEngine, table: &CountTable) {
        let axes = table.axes();
        assert_eq!(*table, radix_joint(engine, axes), "{axes:?}");
        let slow = ContingencyTable::from_dataset(data, axes);
        let mut fast = Vec::new();
        table.probs_into(data.n(), &mut fast);
        assert_eq!(fast.len(), slow.values().len(), "{axes:?}");
        for (i, (a, b)) in fast.iter().zip(slow.values()).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{axes:?} cell {i}: {a} vs {b}");
        }
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
            assert_table_matches(data, &engine, table);
        }
    }

    #[test]
    fn bit_backend_matches_radix_and_from_dataset() {
        // The bit backend's walk serves joints of up to 8 raw binary axes:
        // cover every arity, each requested unsorted.
        let data = wide_binary_dataset(10);
        let engine = CountEngine::new(&data);
        let bits = engine.bits.as_ref().unwrap();
        let mut subsets = 0;
        for arity in 1..=8 {
            let axes: Vec<Axis> =
                (0..arity).rev().map(|i| Axis::raw((3 * i + arity) % 10)).collect();
            assert!(arity == 1 || axes.windows(2).any(|w| w[0].attr > w[1].attr), "{axes:?}");
            assert!(bits.supports(&axes));
            let counted = engine.joint_counts(&axes);
            subsets += (1 << arity) - 1;
            assert_eq!(engine.stats().subsets, subsets, "one pass per subset of {axes:?}");
            assert_table_matches(&data, &engine, &counted);
            assert_matches_from_dataset(&data, &engine, &axes);
            subsets += (1 << arity) - 1;
        }
        assert_eq!(engine.stats().scans, 16);
    }

    #[test]
    fn binary_joints_past_eight_axes_take_the_radix_pass() {
        let data = wide_binary_dataset(16);
        let engine = CountEngine::new(&data);
        let bits = engine.bits.as_ref().unwrap();
        for arity in [9, 16] {
            let axes: Vec<Axis> = (0..arity).rev().map(|i| Axis::raw((5 * i + 3) % 16)).collect();
            assert!(!bits.supports(&axes), "{axes:?}");
            assert_table_matches(&data, &engine, &engine.joint_counts(&axes));
            assert_matches_from_dataset(&data, &engine, &axes);
        }
        let stats = engine.stats();
        assert_eq!((stats.scans, stats.subsets), (4, 0), "no walk past 8 axes");
    }

    #[test]
    fn child_joints_match_single_joints_on_binary_data() {
        // Parent arities 0 through 8, given unsorted, with children below,
        // between and above the parents: the radix group pass on binary
        // data equals the bit backend's single joints.
        let data = wide_binary_dataset(10);
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
        // attributes, binary children under a categorical parent and a
        // binary parent over a binary child all take the radix group pass,
        // within one block of rows and across block boundaries.
        for n in [321, 2 * BLOCK_ROWS + 7] {
            let data = mixed_dataset(n, 2);
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
    }

    #[test]
    fn child_joints_without_children_read_no_rows() {
        let engine = CountEngine::new(&mixed_dataset(50, 3));
        assert!(engine.child_joints(&[Axis::raw(1)], &[]).is_empty());
        assert_eq!(engine.stats(), EngineStats::default());
    }

    /// Asserts that the tables a lattice of every subset of at most 9 of
    /// `engine`'s ten binary attributes builds equal the radix pass and
    /// `ContingencyTable::from_dataset` over `data`, at parent arities 0
    /// through 8 given unsorted, with children below, between and above the
    /// parents, and that building them reads no rows.
    fn assert_lattice_tables_match(data: &Dataset, engine: &CountEngine) {
        let lattice = engine.subset_counts(9, 2).unwrap();
        assert_eq!(lattice.len(), (1 << 10) - 1, "every subset but the full set");
        let mut groups: Vec<(Vec<Axis>, Vec<usize>)> = (0..=8)
            .map(|arity| {
                let parents = (0..arity).rev().map(|i| Axis::raw(i + 1)).collect();
                (parents, (0..10).filter(|&c| c == 0 || c > arity).collect())
            })
            .collect();
        groups.push((vec![Axis::raw(9), Axis::raw(2), Axis::raw(6)], vec![0, 4, 8, 1]));
        groups.push((vec![Axis::raw(3), Axis::raw(7), Axis::raw(0)], vec![5, 9, 1]));
        for (parents, children) in &groups {
            let scans = engine.stats().scans;
            let counts = lattice.child_counts(parents, children);
            assert_eq!(engine.stats().scans, scans, "a lattice table reads no rows");
            let cells = 2 << parents.len();
            assert_eq!(counts.len(), cells * children.len());
            for (counts, &child) in counts.chunks_exact(cells).zip(children) {
                let mut axes = parents.clone();
                axes.push(Axis::raw(child));
                let table = CountTable::from_parts(axes, vec![2; parents.len() + 1], counts.into());
                assert_table_matches(data, engine, &table);
            }
        }
    }

    #[test]
    fn lattice_tables_match_radix_and_from_dataset() {
        let data = wide_binary_dataset(10);
        let engine = CountEngine::new(&data);
        assert_lattice_tables_match(&data, &engine);
        assert_eq!(engine.stats().subsets, (1 << 10) - 2);

        let empty = Dataset::from_rows(data.schema().clone(), &[]).unwrap();
        assert_lattice_tables_match(&empty, &CountEngine::new(&empty));

        let (head, tail) = split_rows(&data, 128);
        let mut appended = CountEngine::new(&head);
        let _ = appended.subset_counts(3, 1).unwrap();
        appended.append(&tail);
        assert_lattice_tables_match(&data, &appended);
    }

    #[test]
    #[should_panic(expected = "axis repeated")]
    fn lattice_rejects_a_child_among_the_parents() {
        let engine = CountEngine::new(&wide_binary_dataset(10));
        let lattice = engine.subset_counts(3, 1).unwrap();
        let _ = lattice.child_counts(&[Axis::raw(1), Axis::raw(2)], &[0, 2]);
    }

    #[test]
    fn lattice_covers_exactly_the_binary_attributes() {
        // b0 and b1 are binary; c4 and c8 are categorical with taxonomies.
        let data = mixed_dataset(321, 1);
        let engine = CountEngine::new(&data);
        let lattice = engine.subset_counts(3, 2).unwrap();
        assert_eq!(lattice.max_size, 2, "two binary attributes bound every subset");
        assert_eq!((lattice.len(), engine.stats().subsets), (4, 3));
        for attr in 0..4 {
            let binary = data.schema().attribute(attr).is_binary();
            assert_eq!(lattice.covers(&[], attr), binary, "attribute {attr}");
        }
        assert!(lattice.covers(&[Axis::raw(0)], 2));
        assert!(!lattice.covers(&[Axis::raw(1)], 0));
        assert!(!lattice.covers(&[Axis { attr: 1, level: 1 }], 2));
        assert!(!lattice.covers(&[Axis::raw(0)], 3));
        let counts = lattice.child_counts(&[Axis::raw(2)], &[0]);
        let table = CountTable::from_parts(vec![Axis::raw(2), Axis::raw(0)], vec![2, 2], counts);
        assert_table_matches(&data, &engine, &table);
    }

    #[test]
    fn lattice_counts_do_not_depend_on_the_thread_count() {
        let engine = CountEngine::new(&wide_binary_dataset(10));
        for max_size in [1, 4, 10] {
            let one = engine.subset_counts(max_size, 1).unwrap();
            for threads in [2, 3, 8] {
                assert_eq!(engine.subset_counts(max_size, threads).unwrap(), one, "{threads}");
            }
        }
    }

    #[test]
    fn oversized_lattice_is_refused() {
        let schema =
            Schema::new((0..64).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let engine = CountEngine::new(&Dataset::from_rows(schema, &[]).unwrap());
        // 2^64 subsets overflow usize; every subset of at most 30 of 64
        // fits usize but not one allocation.
        for max_size in [64, 30] {
            assert!(engine.subset_counts(max_size, 1).is_none(), "{max_size}");
        }
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.subset_counts(2, 1).unwrap().len(), 1 + 64 + 64 * 63 / 2);
    }

    #[test]
    #[should_panic(expected = "axis repeated")]
    fn child_joints_reject_a_child_among_the_parents() {
        let data = wide_binary_dataset(10);
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
        let direct = radix_joint(&engine, &[Axis::raw(2), Axis::raw(0)]);
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
    fn appended_bit_masks_equal_cold_masks_across_word_boundaries() {
        let full = binary_dataset(300, 15);
        let cold = CountEngine::new(&full);
        let cold = &cold.bits.as_ref().expect("binary schema").cols;
        // Batches that start and end inside a word, on a word boundary, and
        // span several words.
        for cuts in [vec![0, 1, 64, 65, 130, 300], vec![0, 63, 64, 200, 300], vec![0, 129, 300]] {
            let rows: Vec<Vec<u32>> =
                (0..300).map(|r| (0..full.d()).map(|a| full.column(a)[r]).collect()).collect();
            let batch = |from: usize, to: usize| {
                Dataset::from_rows(full.schema().clone(), &rows[from..to]).unwrap()
            };
            let mut engine = CountEngine::new(&batch(0, 0));
            for pair in cuts.windows(2) {
                engine.append(&batch(pair[0], pair[1]));
            }
            assert_eq!(&engine.bits.as_ref().unwrap().cols, cold, "cuts {cuts:?}");
        }
        assert_eq!(pack_bits(&[1, 0, 1]), 0b101);
        assert_eq!(pack_bits(&[1; 64]), u64::MAX);
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
