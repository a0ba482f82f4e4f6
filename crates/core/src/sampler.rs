//! Data synthesis: ancestral sampling from the noisy model (§3).
//!
//! Attributes are sampled in network order; by the structural invariant every
//! parent is sampled before its child, so the full-dimensional distribution
//! `Pr*_N[A]` is never materialised — the step that lets PrivBayes sidestep
//! the output-scalability problem.
//!
//! The model is first **compiled** ([`NoisyModel::compile`]): every slice of
//! a conditional goes into one flat [`AliasSlices`] array per conditional
//! (O(1) branch-free draws instead of a linear scan, one entry load per
//! cell) and generalised parents become flat leaf→code lookups. Rows
//! are then generated in fixed-size chunks, each chunk from its own RNG
//! stream derived from the caller's seed, so the output is **identical for
//! every worker count** — including the sequential path.
//!
//! A [`RowStream`] draws every chunk through one routine,
//! [`RowStream::fill_chunk`], which writes any chunk, by index, into a flat
//! row-major buffer. It takes `&self`, so the threads that serve one stream
//! share it; its `Iterator` form fills the next chunk and splits it into
//! one `Vec` per row.
//!
//! Evidence cohorts ([`CompiledSampler::stream_spec`]) are drawn exactly:
//! the variable-elimination buckets of the evidence's ancestral closure are
//! compiled into flat alias arrays the same way.

use std::ops::Range;

use privbayes_data::{Dataset, Schema};
use privbayes_dp::AliasSlices;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::conditionals::NoisyModel;
use crate::error::PrivBayesError;
use crate::greedy::resolve_threads;
use crate::inference::{eliminate_closure, DEFAULT_CELL_CAP};

/// Rows per sampling chunk. Each chunk owns an RNG stream seeded from
/// `(base, chunk index)` only, which makes the output independent of how
/// chunks are distributed over workers — and of whether chunks are
/// materialised at once ([`CompiledSampler::sample_dataset`]) or streamed
/// one by one ([`CompiledSampler::stream_rows`]). Fixed: changing it changes
/// which stream generates which row.
pub const CHUNK_ROWS: usize = 1024;

/// A sampling request against a [`CompiledSampler`]: how many rows of the
/// underlying stream exist, which attributes are clamped as evidence, which
/// columns the caller wants back, and where in the stream to resume.
///
/// The spec is the single determinism anchor of the query API: for a fixed
/// `(model, seed, spec)` the produced rows are identical no matter how they
/// are consumed (batch or stream), where the stream is resumed, or which
/// columns are projected — resuming at `start_row = r` yields exactly rows
/// `r..rows` of the `start_row = 0` stream, and projection drops columns
/// from otherwise identical tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleSpec {
    /// Total rows of the (unresumed) stream.
    pub rows: usize,
    /// Clamped `(attribute, code)` evidence; sampled rows all carry these
    /// values and the remaining attributes are drawn exactly from the model
    /// conditioned on them — see [`CompiledSampler::stream_spec`].
    pub evidence: Vec<(usize, u32)>,
    /// Columns to yield, in order (`None` = every attribute in schema
    /// order). Sampling always computes full tuples — ancestors are needed —
    /// but only projected columns are copied out.
    pub projection: Option<Vec<usize>>,
    /// First row (of the `rows`-row stream) to yield; rows before it are
    /// never generated except for the resumed chunk's skipped prefix.
    pub start_row: usize,
}

impl SampleSpec {
    /// A spec for `rows` unconditional full-width rows from the start.
    #[must_use]
    pub fn rows(rows: usize) -> Self {
        Self { rows, ..Self::default() }
    }

    /// Sets the evidence list.
    #[must_use]
    pub fn with_evidence(mut self, evidence: Vec<(usize, u32)>) -> Self {
        self.evidence = evidence;
        self
    }

    /// Sets the projection.
    #[must_use]
    pub fn with_projection(mut self, projection: Vec<usize>) -> Self {
        self.projection = Some(projection);
        self
    }
}

/// One conditional — a network pair's, or an evidence cohort's bucket —
/// compiled for the sampling hot loop.
#[derive(Debug, Clone)]
struct CompiledConditional {
    child: usize,
    /// Parent attribute indices (raw values come from the tuple).
    parent_attrs: Vec<usize>,
    /// Per parent: leaf→generalised-code lookup (`None` for level-0 parents).
    generalisers: Vec<Option<Vec<u32>>>,
    /// Per parent: domain size at its generalisation level.
    parent_dims: Vec<usize>,
    /// Every parent slice's alias table, indexed by the flat parent index
    /// ([`CompiledConditional::slice_index`]), with the child's domain size
    /// as its outcome count. A degenerate slice (zero-sum / negative /
    /// non-finite weights) compiles to the table's marker: compilation
    /// tolerates it — a hand-built model may contain structurally
    /// unreachable parent combinations — and sampling panics only if the
    /// slice is actually drawn from.
    table: AliasSlices,
}

/// A [`NoisyModel`] compiled into alias tables, reusable across sampling
/// calls and shareable across sampling workers.
#[derive(Debug, Clone)]
pub struct CompiledSampler {
    schema: Schema,
    /// The model itself, for compiling evidence cohorts.
    model: NoisyModel,
    conditionals: Vec<CompiledConditional>,
}

/// An evidence cohort compiled for one stream; see
/// [`CompiledSampler::stream_spec`].
#[derive(Debug)]
struct Posterior {
    /// The evidence, written into each chunk's tuple once.
    evidence: Vec<(usize, u32)>,
    /// One draw per free attribute of the evidence's ancestral closure, from
    /// its variable-elimination bucket, in reverse elimination order: a
    /// bucket's other attributes are eliminated later, so they are drawn
    /// first.
    buckets: Vec<CompiledConditional>,
    /// The sampler's conditionals (indices) for the attributes outside the
    /// closure, in network order.
    rest: Vec<usize>,
}

impl NoisyModel {
    /// Compiles the model for `schema`: one flat [`AliasSlices`] array per
    /// conditional, holding every parent slice, plus flattened
    /// parent-generalisation lookups.
    ///
    /// # Errors
    /// Returns [`PrivBayesError::InvalidNetwork`] if the model does not cover
    /// all attributes of `schema`.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledSampler, PrivBayesError> {
        let d = schema.len();
        if self.conditionals.len() != d {
            return Err(PrivBayesError::InvalidNetwork(format!(
                "model covers {} attributes, schema has {d}",
                self.conditionals.len()
            )));
        }
        let conditionals = self
            .conditionals
            .iter()
            .map(|cond| CompiledConditional {
                child: cond.child,
                parent_attrs: cond.parents.iter().map(|a| a.attr).collect(),
                generalisers: cond
                    .parents
                    .iter()
                    .map(|axis| {
                        (axis.level > 0).then(|| {
                            schema
                                .attribute(axis.attr)
                                .taxonomy()
                                .expect("validated by BayesianNetwork::new")
                                .level_lookup(axis.level)
                                .to_vec()
                        })
                    })
                    .collect(),
                parent_dims: cond.parent_dims.clone(),
                table: AliasSlices::from_slices(&cond.probs, cond.child_dim),
            })
            .collect();
        Ok(CompiledSampler { schema: schema.clone(), model: self.clone(), conditionals })
    }
}

impl CompiledConditional {
    /// Flat parent-slice index for the parent values currently in `tuple`
    /// (raw values generalised through the compiled lookups).
    #[inline]
    fn slice_index(&self, tuple: &[u32]) -> usize {
        let mut idx = 0usize;
        for ((&attr, generaliser), &dim) in
            self.parent_attrs.iter().zip(&self.generalisers).zip(&self.parent_dims)
        {
            let raw = tuple[attr];
            let code = match generaliser {
                Some(lookup) => lookup[raw as usize],
                None => raw,
            };
            idx = idx * dim + code as usize;
        }
        idx
    }

    /// Draws the child for the parent values currently in `tuple`.
    // `always`: left to the optimiser, this call stayed out of line and
    // unconditional sampling measured ~20% slower.
    #[inline(always)]
    fn draw<R: Rng + ?Sized>(&self, tuple: &mut [u32], rng: &mut R) {
        tuple[self.child] = self.table.sample(self.slice_index(tuple), rng) as u32;
    }
}

impl Posterior {
    /// Fills the free attributes of `tuple` (whose evidence is already set)
    /// with one row of the cohort.
    #[inline]
    fn sample_row<R: Rng + ?Sized>(
        &self,
        conditionals: &[CompiledConditional],
        tuple: &mut [u32],
        rng: &mut R,
    ) {
        for bucket in &self.buckets {
            bucket.draw(tuple, rng);
        }
        for &i in &self.rest {
            conditionals[i].draw(tuple, rng);
        }
    }
}

impl CompiledSampler {
    /// The schema the sampler was compiled against.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Fills `tuple` with one synthetic row (network order).
    #[inline]
    fn sample_row<R: Rng + ?Sized>(&self, tuple: &mut [u32], rng: &mut R) {
        for cond in &self.conditionals {
            cond.draw(tuple, rng);
        }
    }

    /// Compiles `evidence` into a [`Posterior`]: the greedy variable
    /// elimination of the evidence's ancestral closure (see
    /// [`crate::inference::model_conditional`]), with each eliminated
    /// attribute's bucket turned into one flat alias array holding a slice
    /// per configuration of the bucket's other attributes.
    ///
    /// A bucket slice of zero mass is never drawn from: its configuration
    /// carries zero weight in every bucket drawn before it.
    ///
    /// # Errors
    /// Returns [`PrivBayesError::InvalidConfig`] for evidence out of range,
    /// outside its domain or repeated, evidence with probability zero under
    /// the model, or a bucket above `cell_cap` cells.
    fn posterior(
        &self,
        evidence: &[(usize, u32)],
        cell_cap: usize,
    ) -> Result<Posterior, PrivBayesError> {
        let (_, buckets) = eliminate_closure(&self.model, &self.schema, &[], evidence, cell_cap)?;
        let mut in_closure = vec![false; self.schema.len()];
        for &(attr, _) in evidence {
            in_closure[attr] = true;
        }
        let mut draws = Vec::with_capacity(buckets.len());
        for bucket in buckets.iter().rev() {
            let (&child, context) =
                bucket.scope.split_last().expect("a bucket holds its attribute");
            let (&child_dim, context_dims) = bucket.dims.split_last().expect("dims match scope");
            in_closure[child] = true;
            draws.push(CompiledConditional {
                child,
                parent_attrs: context.to_vec(),
                generalisers: vec![None; context.len()],
                parent_dims: context_dims.to_vec(),
                table: AliasSlices::from_slices(&bucket.values, child_dim),
            });
        }
        let rest = (0..self.conditionals.len())
            .filter(|&i| !in_closure[self.conditionals[i].child])
            .collect();
        Ok(Posterior { evidence: evidence.to_vec(), buckets: draws, rest })
    }

    /// Samples `rows` synthetic tuples. `threads = None` uses
    /// [`std::thread::available_parallelism`]; the output depends only on
    /// `rng`'s state, never on the worker count.
    ///
    /// # Errors
    /// Returns [`PrivBayesError`] if the assembled columns violate the schema
    /// (cannot happen for a model compiled against the same schema).
    pub fn sample_dataset<R: Rng + ?Sized>(
        &self,
        rows: usize,
        threads: Option<usize>,
        rng: &mut R,
    ) -> Result<Dataset, PrivBayesError> {
        let d = self.schema.len();
        // One draw fixes every chunk stream; the caller's generator advances
        // by exactly one step regardless of `rows`.
        let base = rng.next_u64();
        let mut columns: Vec<Vec<u32>> = vec![vec![0u32; rows]; d];

        if rows > 0 && d > 0 {
            let chunk_count = rows.div_ceil(CHUNK_ROWS);
            // Regroup the column-major output into per-chunk slice bundles so
            // each chunk owns a disjoint row range of every column.
            let mut chunk_slices: Vec<Vec<&mut [u32]>> =
                (0..chunk_count).map(|_| Vec::with_capacity(d)).collect();
            for column in &mut columns {
                for (c, slice) in column.chunks_mut(CHUNK_ROWS).enumerate() {
                    chunk_slices[c].push(slice);
                }
            }
            let mut tasks: Vec<(usize, Vec<&mut [u32]>)> =
                chunk_slices.into_iter().enumerate().collect();
            let workers = resolve_threads(threads).min(chunk_count).max(1);
            let per_worker = tasks.len().div_ceil(workers);
            std::thread::scope(|scope| {
                while !tasks.is_empty() {
                    let batch: Vec<_> = tasks.drain(..per_worker.min(tasks.len())).collect();
                    scope.spawn(move || {
                        for (c, mut slices) in batch {
                            // Fresh per chunk: attributes a (hand-built)
                            // model never writes must hold the same value —
                            // zero — in every chunk, regardless of which
                            // worker batch the chunk landed in.
                            let mut tuple = vec![0u32; d];
                            let mut rng = StdRng::seed_from_u64(chunk_seed(base, c));
                            for row in 0..slices[0].len() {
                                self.sample_row(&mut tuple, &mut rng);
                                for (col, &value) in slices.iter_mut().zip(tuple.iter()) {
                                    col[row] = value;
                                }
                            }
                        }
                    });
                }
            });
        }
        Ok(Dataset::from_columns(self.schema.clone(), columns)?)
    }

    /// Streams `rows` synthetic tuples as row-major chunks of (at most)
    /// [`CHUNK_ROWS`] rows each, without materialising the full dataset.
    ///
    /// The stream consumes exactly one `next_u64` from `rng` — the same base
    /// draw as [`CompiledSampler::sample_dataset`] — and derives every chunk's
    /// RNG stream from `(base, chunk index)`, so for a given `rng` state the
    /// concatenated chunks hold exactly the rows `sample_dataset` would
    /// return, in the same order. This is the contract the serving layer
    /// relies on: a streamed response is byte-identical to the batch path for
    /// a fixed seed, regardless of how many requests run concurrently.
    ///
    /// Equivalent to [`CompiledSampler::stream_spec`] with
    /// [`SampleSpec::rows`]`(rows)` (which can additionally clamp evidence,
    /// project columns, and resume mid-stream).
    pub fn stream_rows<R: Rng + ?Sized>(&self, rows: usize, rng: &mut R) -> RowStream<'_> {
        RowStream {
            sampler: self,
            base: rng.next_u64(),
            rows,
            next_row: 0,
            posterior: None,
            projection: None,
        }
    }

    /// Streams rows according to `spec`: evidence-conditioned, column-
    /// projected, resumable. Consumes exactly one `next_u64` from `rng`
    /// (like [`CompiledSampler::stream_rows`]) — resuming with the same
    /// `rng` state and a nonzero [`SampleSpec::start_row`] therefore yields
    /// exactly the suffix of the unresumed stream, byte for byte once
    /// rendered.
    ///
    /// # Conditioning semantics
    ///
    /// Evidence attributes carry their observed codes in every row, and the
    /// other attributes are drawn exactly from `Pr*[free | evidence]`. Each
    /// call runs the greedy variable elimination of
    /// [`crate::inference::model_conditional`] over the evidence's ancestral
    /// closure (the evidence plus all its ancestors) and keeps each
    /// eliminated attribute's bucket — the product of the factors that
    /// mentioned it, before the sum. Each row then draws the closure's free
    /// attributes from alias tables over their buckets in reverse
    /// elimination order, and every other free attribute from its own
    /// conditional in network order. That is exact because attributes
    /// outside the closure depend on the evidence only through the closure.
    /// Evidence whose closure is just the evidence (network roots, for
    /// example) has no free closure attributes: its rows are ancestral
    /// samples with the evidence clamped. Conditional streams use the same
    /// per-chunk RNG streams as unconditional ones, so they are
    /// deterministic for a fixed `(model, seed, spec)` and resume
    /// suffix-identically.
    ///
    /// # Errors
    /// Returns [`PrivBayesError::InvalidConfig`] for evidence or projection
    /// attributes out of range or repeated, evidence codes outside their
    /// domains, an empty projection list, evidence with probability zero
    /// under the model, or a closure bucket above
    /// [`DEFAULT_CELL_CAP`] cells.
    pub fn stream_spec<R: Rng + ?Sized>(
        &self,
        spec: &SampleSpec,
        rng: &mut R,
    ) -> Result<RowStream<'_>, PrivBayesError> {
        let posterior = if spec.evidence.is_empty() {
            None
        } else {
            Some(self.posterior(&spec.evidence, DEFAULT_CELL_CAP)?)
        };
        if let Some(projection) = &spec.projection {
            if projection.is_empty() {
                return Err(PrivBayesError::InvalidConfig(
                    "projection must keep at least one attribute".into(),
                ));
            }
            for (i, &attr) in projection.iter().enumerate() {
                if attr >= self.schema.len() {
                    return Err(PrivBayesError::InvalidConfig(format!(
                        "projected attribute {attr} out of range"
                    )));
                }
                if projection[..i].contains(&attr) {
                    return Err(PrivBayesError::InvalidConfig(format!(
                        "projected attribute {attr} repeated"
                    )));
                }
            }
        }
        Ok(RowStream {
            sampler: self,
            base: rng.next_u64(),
            rows: spec.rows,
            next_row: spec.start_row,
            posterior,
            projection: spec.projection.clone(),
        })
    }

    /// Samples `rows` synthetic tuples conditioned on `evidence` — the
    /// batch form of [`CompiledSampler::stream_spec`]: the returned dataset
    /// holds exactly the concatenated chunks the stream would yield for the
    /// same `rng` state (full schema width; project afterwards if needed).
    ///
    /// # Errors
    /// As [`CompiledSampler::stream_spec`].
    pub fn sample_conditional<R: Rng + ?Sized>(
        &self,
        rows: usize,
        evidence: &[(usize, u32)],
        rng: &mut R,
    ) -> Result<Dataset, PrivBayesError> {
        let spec = SampleSpec::rows(rows).with_evidence(evidence.to_vec());
        let stream = self.stream_spec(&spec, rng)?;
        let d = self.schema.len();
        let mut columns: Vec<Vec<u32>> = vec![Vec::with_capacity(rows); d];
        for chunk in stream {
            for tuple in &chunk {
                for (col, &value) in columns.iter_mut().zip(tuple) {
                    col.push(value);
                }
            }
        }
        Ok(Dataset::from_columns(self.schema.clone(), columns)?)
    }
}

/// Iterator over row-major chunks of synthetic tuples; see
/// [`CompiledSampler::stream_rows`] and [`CompiledSampler::stream_spec`].
#[derive(Debug)]
pub struct RowStream<'a> {
    sampler: &'a CompiledSampler,
    base: u64,
    rows: usize,
    next_row: usize,
    /// The compiled evidence cohort; `None` for unconditional streams.
    posterior: Option<Posterior>,
    /// Columns each yielded tuple carries, in order (`None` = all).
    projection: Option<Vec<usize>>,
}

impl RowStream<'_> {
    /// Total rows of the unresumed stream (a resumed stream yields the
    /// rows from its start row on).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.rows
    }

    /// The schema the stream samples: a tuple [`RowStream::fill_chunk`]
    /// draws into has one code per attribute.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.sampler.schema
    }

    /// Columns of each yielded row: the projection's length, or the schema
    /// width when unprojected.
    #[must_use]
    pub fn width(&self) -> usize {
        self.projection.as_ref().map_or(self.sampler.schema.len(), Vec::len)
    }

    /// The indices of the chunks still to yield, in order: from the chunk
    /// holding the stream's position (its start row, until the iterator
    /// advances it) to the last. Empty once the stream is exhausted.
    #[must_use]
    pub fn chunks(&self) -> Range<usize> {
        if self.next_row >= self.rows {
            return 0..0;
        }
        self.next_row / CHUNK_ROWS..self.rows.div_ceil(CHUNK_ROWS)
    }

    /// Clears `rows` and writes into it, row-major at [`RowStream::width`],
    /// the rows chunk `chunk` yields; returns how many. `tuple` is scratch
    /// of schema width.
    ///
    /// A chunk's rows depend only on the stream and `chunk`, so any thread
    /// may fill any chunk: the chunk's RNG stream is seeded from
    /// `(base, chunk)`, the tuple starts zeroed with the evidence written
    /// once, and the rows of the resumed chunk before the stream's position
    /// are generated (they advance the RNG stream identically) but not
    /// written.
    ///
    /// # Panics
    /// Panics if `chunk` is not in [`RowStream::chunks`] or `tuple` is not
    /// of schema width.
    pub fn fill_chunk(&self, chunk: usize, tuple: &mut [u32], rows: &mut Vec<u32>) -> usize {
        assert!(self.chunks().contains(&chunk), "chunk {chunk} is outside the stream");
        assert_eq!(tuple.len(), self.sampler.schema.len(), "tuple must be of schema width");
        let chunk_start = chunk * CHUNK_ROWS;
        let len = CHUNK_ROWS.min(self.rows - chunk_start);
        let skip = self.next_row.saturating_sub(chunk_start);
        // The same set-up as `sample_dataset`: a zeroed tuple and the
        // chunk's own RNG stream.
        tuple.fill(0);
        if let Some(posterior) = &self.posterior {
            for &(attr, code) in &posterior.evidence {
                tuple[attr] = code;
            }
        }
        let mut rng = StdRng::seed_from_u64(chunk_seed(self.base, chunk));
        rows.clear();
        rows.reserve((len - skip) * self.width());
        for i in 0..len {
            match &self.posterior {
                Some(posterior) => {
                    posterior.sample_row(&self.sampler.conditionals, tuple, &mut rng);
                }
                None => self.sampler.sample_row(tuple, &mut rng),
            }
            if i >= skip {
                match &self.projection {
                    Some(keep) => rows.extend(keep.iter().map(|&attr| tuple[attr])),
                    None => rows.extend_from_slice(tuple),
                }
            }
        }
        len - skip
    }
}

impl Iterator for RowStream<'_> {
    /// One chunk: `len ≤ CHUNK_ROWS` rows, each of projection width (schema
    /// width when unprojected).
    type Item = Vec<Vec<u32>>;

    fn next(&mut self) -> Option<Self::Item> {
        let chunk = self.chunks().next()?;
        let mut tuple = vec![0u32; self.sampler.schema.len()];
        let mut rows = Vec::new();
        self.fill_chunk(chunk, &mut tuple, &mut rows);
        self.next_row = ((chunk + 1) * CHUNK_ROWS).min(self.rows);
        Some(rows.chunks_exact(self.width()).map(<[u32]>::to_vec).collect())
    }
}

/// The RNG seed of chunk `c`: SplitMix-style spacing under the base seed,
/// then expanded by `StdRng::seed_from_u64`'s own SplitMix64 pass.
fn chunk_seed(base: u64, c: usize) -> u64 {
    base.wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditionals::noisy_conditionals_general_engine;
    use crate::network::{ApPair, BayesianNetwork};
    use privbayes_data::{Attribute, TaxonomyTree};
    use privbayes_marginals::{Axis, ContingencyTable, CountEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn copy_chain_data(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i % 2, i % 2, i % 2]).collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn noise_free_model_reproduces_deterministic_chain() {
        let data = copy_chain_data(100);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let synth =
            model.compile(data.schema()).unwrap().sample_dataset(500, None, &mut rng).unwrap();
        assert_eq!(synth.n(), 500);
        // Every sampled row must satisfy a == b == c (the chain is a copy).
        for row in 0..synth.n() {
            let r = synth.row(row);
            assert_eq!(r[0], r[1]);
            assert_eq!(r[1], r[2]);
        }
        // And a should be roughly uniform.
        let ones = synth.column(0).iter().filter(|&&v| v == 1).count();
        assert!((ones as f64 / 500.0 - 0.5).abs() < 0.1);
    }

    #[test]
    fn sampled_marginals_approach_model_marginals() {
        let data = copy_chain_data(1000);
        let net = BayesianNetwork::new(
            vec![ApPair::new(2, vec![]), ApPair::new(0, vec![2]), ApPair::new(1, vec![2])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let synth =
            model.compile(data.schema()).unwrap().sample_dataset(20_000, None, &mut rng).unwrap();
        let truth = ContingencyTable::from_dataset(&data, &[Axis::raw(0), Axis::raw(1)]);
        let got = ContingencyTable::from_dataset(&synth, &[Axis::raw(0), Axis::raw(1)]);
        let tvd = privbayes_marginals::total_variation(truth.values(), got.values());
        assert!(tvd < 0.03, "sampling should match the model, tvd = {tvd}");
    }

    #[test]
    fn output_is_invariant_to_worker_count() {
        let data = copy_chain_data(600);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, Some(0.5), &mut rng).unwrap();
        // More rows than one chunk, not a multiple of the chunk size.
        let rows = 2 * CHUNK_ROWS + 137;
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(99);
            model
                .compile(data.schema())
                .unwrap()
                .sample_dataset(rows, Some(threads), &mut rng)
                .unwrap()
        };
        let reference = run(1);
        for threads in [2, 3, 7] {
            let got = run(threads);
            for attr in 0..data.d() {
                assert_eq!(got.column(attr), reference.column(attr), "threads={threads}");
            }
        }
    }

    #[test]
    fn generalized_parent_sampling_uses_taxonomy() {
        // Attribute c has 4 values with a binary taxonomy; child b depends on
        // c's level-1 generalisation (c < 2 vs c >= 2).
        let schema = Schema::new(vec![
            Attribute::categorical("c", 4)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
                .unwrap(),
            Attribute::binary("b"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..200u32).map(|i| vec![i % 4, u32::from(i % 4 >= 2)]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::generalized(1, vec![Axis { attr: 0, level: 1 }])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let synth =
            model.compile(data.schema()).unwrap().sample_dataset(2000, None, &mut rng).unwrap();
        for row in 0..synth.n() {
            let r = synth.row(row);
            assert_eq!(r[1], u32::from(r[0] >= 2), "b must track c's level-1 group");
        }
    }

    #[test]
    fn zero_rows_allowed() {
        let data = copy_chain_data(10);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let synth =
            model.compile(data.schema()).unwrap().sample_dataset(0, None, &mut rng).unwrap();
        assert_eq!(synth.n(), 0);
    }

    #[test]
    fn incomplete_model_rejected() {
        let data = copy_chain_data(10);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        assert!(model.compile(data.schema()).is_err());
    }

    /// A hand-built model (fields are public) over binary `a → b` whose
    /// `b` slice under `a = 1` is all-zero; the root draws `a` from
    /// `root_probs`.
    fn degenerate_slice_model(root_probs: [f64; 2]) -> (Schema, NoisyModel) {
        let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
        let net =
            BayesianNetwork::new(vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])], &schema)
                .unwrap();
        let model = crate::conditionals::NoisyModel {
            network: net,
            conditionals: vec![
                crate::conditionals::Conditional {
                    child: 0,
                    parents: vec![],
                    parent_dims: vec![],
                    child_dim: 2,
                    probs: root_probs.to_vec(),
                },
                crate::conditionals::Conditional {
                    child: 1,
                    parents: vec![Axis::raw(0)],
                    parent_dims: vec![2],
                    child_dim: 2,
                    probs: vec![0.5, 0.5, 0.0, 0.0], // a = 1 slice is degenerate
                },
            ],
        };
        (schema, model)
    }

    #[test]
    fn unreachable_degenerate_slice_does_not_break_compilation() {
        // Parent value a = 1 is structurally impossible and its conditional
        // slice is all-zero. The lazy pre-compile sampler tolerated this;
        // compilation must too.
        let (schema, model) = degenerate_slice_model([1.0, 0.0]); // a is always 0
        let mut rng = StdRng::seed_from_u64(8);
        let synth = model.compile(&schema).unwrap().sample_dataset(300, None, &mut rng).unwrap();
        assert!(synth.column(0).iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "degenerate conditional slice")]
    fn reachable_degenerate_slice_panics_when_drawn() {
        // The root always draws a = 1, whose child slice is all-zero: the
        // model compiles, and the first draw from that slice panics.
        let (schema, model) = degenerate_slice_model([0.0, 1.0]); // a is always 1
        let compiled = model.compile(&schema).unwrap();
        // A stream draws on the calling thread, so the panic is the draw's.
        let _ = compiled.stream_rows(10, &mut StdRng::seed_from_u64(8)).next();
    }

    #[test]
    fn uncovered_attribute_is_zero_and_worker_invariant() {
        // A hand-built model whose conditionals never write attribute 1
        // (both cover child 0). The pre-compile sampler emitted zeros for
        // the uncovered column; the chunked sampler must do the same for
        // every worker count — the tuple buffer is reset per chunk.
        let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
        let net =
            BayesianNetwork::new(vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])], &schema)
                .unwrap();
        let root = crate::conditionals::Conditional {
            child: 0,
            parents: vec![],
            parent_dims: vec![],
            child_dim: 2,
            probs: vec![0.5, 0.5],
        };
        let model = crate::conditionals::NoisyModel {
            network: net,
            conditionals: vec![root.clone(), root],
        };
        let rows = 3 * CHUNK_ROWS + 17;
        let run = |threads: usize| {
            model
                .compile(&schema)
                .unwrap()
                .sample_dataset(rows, Some(threads), &mut StdRng::seed_from_u64(9))
                .unwrap()
        };
        let sequential = run(1);
        assert!(sequential.column(1).iter().all(|&v| v == 0), "uncovered column must be zero");
        for threads in [2usize, 5] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn stream_rows_matches_sample_dataset_exactly() {
        let data = copy_chain_data(400);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, Some(0.8), &mut rng).unwrap();
        let compiled = model.compile(data.schema()).unwrap();
        // More rows than one chunk, not a multiple of the chunk size.
        let rows = 2 * CHUNK_ROWS + 311;
        let batch = compiled.sample_dataset(rows, Some(3), &mut StdRng::seed_from_u64(77)).unwrap();
        let stream = compiled.stream_rows(rows, &mut StdRng::seed_from_u64(77));
        assert_eq!(stream.total_rows(), rows);
        let mut row = 0;
        for chunk in stream {
            assert!(chunk.len() <= CHUNK_ROWS);
            for tuple in chunk {
                assert_eq!(tuple, batch.row(row), "row {row}");
                row += 1;
            }
        }
        assert_eq!(row, rows, "stream must yield every row exactly once");
        // Both paths consume exactly one base draw from the caller's RNG.
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let _ = compiled.sample_dataset(10, None, &mut a).unwrap();
        let _ = compiled.stream_rows(10, &mut b).count();
        assert_eq!(a.next_u64(), b.next_u64(), "RNG must advance identically");
    }

    #[test]
    fn stream_rows_zero_rows_is_empty() {
        let data = copy_chain_data(10);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let compiled = model.compile(data.schema()).unwrap();
        assert_eq!(compiled.stream_rows(0, &mut rng).count(), 0);
    }

    #[test]
    fn posterior_refuses_a_bucket_above_the_cell_cap() {
        // Evidence on e leaves a, b, c and d pairwise joined by the
        // conditionals, so whichever is eliminated first, its bucket spans
        // all four: 16 cells, while no conditional exceeds 8.
        let schema =
            Schema::new(["a", "b", "c", "d", "e"].into_iter().map(Attribute::binary).collect())
                .unwrap();
        let rows: Vec<Vec<u32>> =
            (0..32u32).map(|i| (0..5).map(|bit| (i >> bit) & 1).collect()).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![
                ApPair::new(0, vec![]),
                ApPair::new(1, vec![0]),
                ApPair::new(2, vec![0, 1]),
                ApPair::new(3, vec![0, 2]),
                ApPair::new(4, vec![1, 3]),
            ],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, Some(1.0), &mut rng).unwrap();
        let compiled = model.compile(data.schema()).unwrap();
        match compiled.posterior(&[(4, 1)], 8) {
            Err(PrivBayesError::InvalidConfig(msg)) => assert!(msg.contains("16 cells"), "{msg}"),
            other => panic!("want InvalidConfig, got {other:?}"),
        }
        assert_eq!(compiled.posterior(&[(4, 1)], 16).unwrap().buckets.len(), 4);
    }

    #[test]
    fn compiled_sampler_is_reusable() {
        let data = copy_chain_data(50);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let compiled = model.compile(data.schema()).unwrap();
        let a = compiled.sample_dataset(100, Some(1), &mut StdRng::seed_from_u64(7)).unwrap();
        let b = compiled.sample_dataset(100, Some(4), &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a.n(), 100);
        for attr in 0..data.d() {
            assert_eq!(a.column(attr), b.column(attr));
        }
    }
}
