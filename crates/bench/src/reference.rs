//! Reference (pre-engine) implementations of the hot paths, kept as the
//! oracle for the equivalence test tiers.
//!
//! These reproduce, through public APIs only, the exact semantics the suite
//! had before the shared `CountEngine`: one fresh contingency-table scan
//! per candidate / marginal (with the bit-packed popcount path for
//! all-binary data) and sequential scoring. Given the same seed they must
//! select identical networks — and the marginal baselines must produce
//! **bit-identical** tables — as the engine-backed implementations, which
//! `tests/engine_equivalence.rs` and `tests/synthesizer_equivalence.rs`
//! assert.
//!
//! This module is the one sanctioned home of
//! [`ContingencyTable::from_dataset`] row scans outside the `marginals`
//! crate: the references exist precisely to pin the pre-engine behaviour.

use privbayes::conditionals::NoisyModel;
use privbayes::greedy::GreedySettings;
use privbayes::network::{ApPair, BayesianNetwork};
use privbayes::parent_sets::{maximal_parent_sets, maximal_parent_sets_generalized};
use privbayes::theta::tau_for_child;
use privbayes::{PrivBayesError, ScoreKind};
use privbayes_baselines::MwemOptions;
use privbayes_data::{Dataset, Schema};
use privbayes_dp::exponential::{exponential_mechanism, select_with_scale};
use privbayes_dp::geometric::sample_two_sided_geometric;
use privbayes_dp::laplace::sample_laplace;
use privbayes_marginals::{clamp_and_normalize, AlphaWayWorkload, Axis, ContingencyTable};
use privbayes_model::Json;
use privbayes_synth::RowFormat;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// Pre-engine single-candidate scorer: one fresh row scan per call.
///
/// # Errors
/// Propagates score errors (e.g. `F` on a non-binary child).
fn scan_score(
    data: &Dataset,
    child: usize,
    parents: &[Axis],
    score: ScoreKind,
) -> Result<f64, PrivBayesError> {
    let mut axes: Vec<Axis> = parents.to_vec();
    axes.push(Axis::raw(child));
    let table = ContingencyTable::from_dataset(data, &axes);
    let child_dim = data.schema().attribute(child).domain_size();
    score.compute(table.values(), child_dim, data.n())
}

struct Candidate {
    child: usize,
    parents: Vec<Axis>,
}

/// Bit-packed columns of an all-binary dataset (the pre-engine fast path for
/// Algorithm 2 joints: AND + popcount chains plus a Möbius transform).
struct BitColumns {
    cols: Vec<Vec<u64>>,
    n: usize,
}

impl BitColumns {
    fn build(data: &Dataset) -> Self {
        let n = data.n();
        let words = n.div_ceil(64);
        let cols = (0..data.d())
            .map(|a| {
                let mut mask = vec![0u64; words];
                for (row, &v) in data.column(a).iter().enumerate() {
                    if v == 1 {
                        mask[row / 64] |= 1 << (row % 64);
                    }
                }
                mask
            })
            .collect();
        Self { cols, n }
    }

    fn joint(
        &self,
        attrs: &[usize],
        scratch: &mut Vec<Vec<u64>>,
        counts: &mut Vec<i64>,
    ) -> Vec<f64> {
        let m = attrs.len();
        assert!(m <= 16, "bit-path joints limited to 16 attributes");
        let cells = 1usize << m;
        scratch.resize(cells, Vec::new());
        counts.clear();
        counts.resize(cells, 0);

        counts[0] = self.n as i64;
        for s in 1..cells {
            let low = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let col = &self.cols[attrs[m - 1 - low]];
            let (count, vec) = if rest == 0 {
                (col.iter().map(|w| i64::from(w.count_ones())).sum(), col.clone())
            } else {
                let prev = std::mem::take(&mut scratch[rest]);
                let mut out = vec![0u64; col.len()];
                let mut c = 0i64;
                for ((o, &a), &b) in out.iter_mut().zip(&prev).zip(col) {
                    *o = a & b;
                    c += i64::from(o.count_ones());
                }
                scratch[rest] = prev;
                (c, out)
            };
            counts[s] = count;
            scratch[s] = vec;
        }
        for p in 0..m {
            let bit = 1usize << p;
            for s in 0..cells {
                if s & bit == 0 {
                    counts[s] -= counts[s | bit];
                }
            }
        }
        let scale = 1.0 / self.n as f64;
        counts.iter().map(|&c| c as f64 * scale).collect()
    }
}

fn combinations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    fn rec(
        items: &[usize],
        k: usize,
        start: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        let needed = k - cur.len();
        for i in start..=items.len().saturating_sub(needed) {
            cur.push(items[i]);
            rec(items, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    rec(items, k, 0, &mut cur, &mut out);
    out
}

fn select<R: Rng + ?Sized>(
    scores: &[f64],
    settings: &GreedySettings,
    d: usize,
    n: usize,
    all_binary: bool,
    rng: &mut R,
) -> Result<usize, PrivBayesError> {
    match settings.epsilon1 {
        Some(eps1) => {
            let sensitivity = settings.score.sensitivity(n, all_binary);
            let delta = (d as f64 - 1.0) * sensitivity / eps1;
            Ok(select_with_scale(scores, delta, rng)?)
        }
        None => {
            let (mut best, mut best_score) = (0usize, f64::NEG_INFINITY);
            for (i, &s) in scores.iter().enumerate() {
                if s > best_score {
                    best = i;
                    best_score = s;
                }
            }
            Ok(best)
        }
    }
}

/// Pre-engine Algorithm 2: per-candidate joints from the popcount path
/// (all-binary data) or a fresh row scan, scored sequentially.
///
/// # Errors
/// As [`privbayes::greedy::greedy_bayes_fixed_k_engine`].
pub fn reference_greedy_fixed_k<R: Rng + ?Sized>(
    data: &Dataset,
    k: usize,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let d = data.d();
    if d < 2 {
        return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
    }
    let k = k.min(settings.max_degree).min(d - 1);
    let n = data.n();
    let all_binary = data.schema().all_binary();

    let first = rng.random_range(0..d);
    let mut pairs = vec![ApPair::new(first, vec![])];
    let mut in_v = vec![false; d];
    in_v[first] = true;
    let mut v = vec![first];

    let bit_cols = all_binary.then(|| BitColumns::build(data));
    let mut scratch: Vec<Vec<u64>> = Vec::new();
    let mut count_buf: Vec<i64> = Vec::new();
    let mut attr_buf: Vec<usize> = Vec::new();

    for _ in 2..=d {
        let mut candidates = Vec::new();
        let mut scores = Vec::new();
        let subset_size = k.min(v.len());
        let parent_sets = combinations(&v, subset_size);
        for child in (0..d).filter(|&x| !in_v[x]) {
            for parents in &parent_sets {
                let score = match &bit_cols {
                    Some(bits) => {
                        attr_buf.clear();
                        attr_buf.extend_from_slice(parents);
                        attr_buf.push(child);
                        let joint = bits.joint(&attr_buf, &mut scratch, &mut count_buf);
                        settings.score.compute(&joint, 2, n)?
                    }
                    None => {
                        let axes: Vec<Axis> = parents.iter().copied().map(Axis::raw).collect();
                        scan_score(data, child, &axes, settings.score)?
                    }
                };
                scores.push(score);
                candidates.push(Candidate {
                    child,
                    parents: parents.iter().copied().map(Axis::raw).collect(),
                });
            }
        }
        let chosen = select(&scores, settings, d, n, all_binary, rng)?;
        let c = candidates.swap_remove(chosen);
        in_v[c.child] = true;
        v.push(c.child);
        pairs.push(ApPair::generalized(c.child, c.parents));
    }
    BayesianNetwork::new(pairs, data.schema())
}

/// Pre-engine Algorithm 4: one fresh contingency-table scan per candidate,
/// scored sequentially.
///
/// # Errors
/// As [`privbayes::greedy::greedy_bayes_adaptive_engine`].
pub fn reference_greedy_adaptive<R: Rng + ?Sized>(
    data: &Dataset,
    theta: f64,
    epsilon2: f64,
    use_taxonomy: bool,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let d = data.d();
    if d < 2 {
        return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
    }
    let n = data.n();
    let schema = data.schema();
    let all_binary = schema.all_binary();
    let domain_sizes = schema.domain_sizes();
    let level_sizes: Vec<Vec<usize>> = schema
        .attributes()
        .iter()
        .map(|a| match (use_taxonomy, a.taxonomy()) {
            (true, Some(t)) => (0..t.height()).map(|l| t.level_size(l)).collect(),
            _ => vec![a.domain_size()],
        })
        .collect();

    let first = rng.random_range(0..d);
    let mut pairs = vec![ApPair::new(first, vec![])];
    let mut in_v = vec![false; d];
    in_v[first] = true;
    let mut v = vec![first];

    for _ in 2..=d {
        let mut candidates = Vec::new();
        let mut scores = Vec::new();
        for child in (0..d).filter(|&x| !in_v[x]) {
            let tau = tau_for_child(n, d, epsilon2, theta, domain_sizes[child]);
            let tops: Vec<Vec<Axis>> = if use_taxonomy {
                maximal_parent_sets_generalized(&v, &level_sizes, tau, settings.max_degree)
            } else {
                maximal_parent_sets(&v, &domain_sizes, tau, settings.max_degree)
            };
            if tops.is_empty() {
                scores.push(scan_score(data, child, &[], settings.score)?);
                candidates.push(Candidate { child, parents: Vec::new() });
            } else {
                for parents in tops {
                    scores.push(scan_score(data, child, &parents, settings.score)?);
                    candidates.push(Candidate { child, parents });
                }
            }
        }
        let chosen = select(&scores, settings, d, n, all_binary, rng)?;
        let c = candidates.swap_remove(chosen);
        in_v[c.child] = true;
        v.push(c.child);
        pairs.push(ApPair::generalized(c.child, c.parents));
    }
    BayesianNetwork::new(pairs, data.schema())
}

/// Pre-engine Laplace baseline: one fresh row scan per workload marginal.
/// Must be bit-identical to `privbayes_baselines::laplace_marginals` over a
/// `CountEngine` for the same seed.
#[must_use]
pub fn reference_laplace_marginals<R: Rng + ?Sized>(
    data: &Dataset,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    let scale = 2.0 * workload.len() as f64 / (data.n() as f64 * epsilon);
    workload
        .subsets()
        .iter()
        .map(|subset| {
            let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
            let mut table = ContingencyTable::from_dataset(data, &axes);
            for v in table.values_mut() {
                *v += sample_laplace(scale, rng);
            }
            clamp_and_normalize(table.values_mut(), 1.0);
            table
        })
        .collect()
}

/// Pre-engine geometric baseline (count-scale noise per marginal).
#[must_use]
pub fn reference_geometric_marginals<R: Rng + ?Sized>(
    data: &Dataset,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    let n = data.n();
    let alpha = (-epsilon / (2.0 * workload.len() as f64)).exp();
    workload
        .subsets()
        .iter()
        .map(|subset| {
            let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
            let mut table = ContingencyTable::from_dataset(data, &axes);
            for v in table.values_mut() {
                let count = (*v * n as f64).round();
                let noisy = count + sample_two_sided_geometric(alpha, rng) as f64;
                *v = noisy / n as f64;
            }
            clamp_and_normalize(table.values_mut(), 1.0);
            table
        })
        .collect()
}

/// Pre-engine Contingency baseline: one full-domain row scan, then noisy
/// projection of every workload marginal.
#[must_use]
pub fn reference_contingency_marginals<R: Rng + ?Sized>(
    data: &Dataset,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    let axes: Vec<Axis> = (0..data.d()).map(Axis::raw).collect();
    let mut full = ContingencyTable::from_dataset(data, &axes);
    let scale = 2.0 / (data.n() as f64 * epsilon);
    for v in full.values_mut() {
        *v += sample_laplace(scale, rng);
    }
    clamp_and_normalize(full.values_mut(), 1.0);
    workload.subsets().iter().map(|subset| full.project(subset)).collect()
}

/// Pre-engine MWEM: exact workload truths via one
/// [`ContingencyTable::from_dataset`] scan per marginal, then the identical
/// multiplicative-weights loop. Consumes the same RNG stream as the
/// engine-backed `mwem_marginals` (truth computation draws no randomness),
/// so the outputs must match bit for bit, as
/// `tests/synthesizer_equivalence.rs` asserts.
#[must_use]
pub fn reference_mwem_marginals<R: Rng + ?Sized>(
    data: &Dataset,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    options: MwemOptions,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
    assert!(options.iterations > 0, "need at least one round");
    assert!(data.n() > 0, "empty dataset");
    let dims = data.schema().domain_sizes();
    let cells: usize = dims.iter().product();

    let n = data.n() as f64;
    let strides = {
        let mut s = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * dims[i + 1];
        }
        s
    };
    let cell_of = |idx: usize, subset: &[usize]| -> usize {
        let mut cell = 0usize;
        for &a in subset {
            cell = cell * dims[a] + (idx / strides[a]) % dims[a];
        }
        cell
    };
    let project = |weights: &[f64], subset: &[usize]| -> Vec<f64> {
        let out_cells: usize = subset.iter().map(|&a| dims[a]).product();
        let mut out = vec![0.0f64; out_cells];
        for (idx, &w) in weights.iter().enumerate() {
            out[cell_of(idx, subset)] += w;
        }
        out
    };

    let truths: Vec<Vec<f64>> = workload
        .subsets()
        .iter()
        .map(|subset| {
            let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
            ContingencyTable::from_dataset(data, &axes).values().to_vec()
        })
        .collect();

    let mut weights = vec![1.0 / cells as f64; cells];
    let eps_round = epsilon / options.iterations as f64;
    let eps_select = eps_round / 2.0;
    let eps_measure = eps_round / 2.0;

    let mut candidate_pool: Vec<usize> = (0..workload.len()).collect();
    let mut measurements: Vec<(usize, usize, f64)> = Vec::with_capacity(options.iterations);
    for _ in 0..options.iterations {
        let candidates: &[usize] = match options.max_candidates {
            Some(m) if m < candidate_pool.len() => {
                candidate_pool.shuffle(rng);
                &candidate_pool[..m]
            }
            _ => &candidate_pool,
        };
        let mut cell_ids: Vec<(usize, usize)> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for &q in candidates {
            let approx = project(&weights, &workload.subsets()[q]);
            for (cell, (a, t)) in approx.iter().zip(&truths[q]).enumerate() {
                cell_ids.push((q, cell));
                scores.push((a - t).abs());
            }
        }
        let chosen =
            exponential_mechanism(&scores, 1.0 / n, eps_select, rng).expect("valid scores");
        let (q, cell) = cell_ids[chosen];

        let measured = truths[q][cell] + sample_laplace(1.0 / (n * eps_measure), rng);
        measurements.push((q, cell, measured));

        for _ in 0..options.update_passes.max(1) {
            for &(q, cell, measured) in &measurements {
                let subset = &workload.subsets()[q];
                let approx_cell: f64 = weights
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| cell_of(*idx, subset) == cell)
                    .map(|(_, &w)| w)
                    .sum();
                let factor = ((measured - approx_cell) / 2.0).exp();
                for (idx, w) in weights.iter_mut().enumerate() {
                    if cell_of(idx, subset) == cell {
                        *w *= factor;
                    }
                }
                let total: f64 = weights.iter().sum();
                for w in &mut weights {
                    *w /= total;
                }
            }
        }
    }

    workload
        .subsets()
        .iter()
        .map(|subset| {
            let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
            let out_dims: Vec<usize> = subset.iter().map(|&a| dims[a]).collect();
            let mut vals = project(&weights, subset);
            clamp_and_normalize(&mut vals, 1.0);
            ContingencyTable::from_parts(axes, out_dims, vals)
        })
        .collect()
}

/// Pre-engine Fourier baseline (Barak et al.): binarise, then one fresh row
/// scan of the binarised table per workload marginal, WHT, shared noisy
/// coefficients, inverse WHT, fold back to the original domains.
///
/// # Panics
/// As `privbayes_baselines::fourier_marginals`.
#[must_use]
pub fn reference_fourier_marginals<R: Rng + ?Sized>(
    data: &Dataset,
    workload: &AlphaWayWorkload,
    epsilon: f64,
    rng: &mut R,
) -> Vec<ContingencyTable> {
    use privbayes_baselines::fourier::walsh_hadamard;
    use privbayes_data::encoding::{binarize, BinarizationMap, EncodingKind};
    use std::collections::{HashMap, HashSet};

    let n = data.n() as f64;
    let (bin_data, map) = binarize(data, EncodingKind::Binary).expect("binarisation");

    let bit_sets: Vec<Vec<usize>> = workload
        .subsets()
        .iter()
        .map(|subset| {
            let mut bits = Vec::new();
            for &attr in subset {
                let ab = &map.per_attr()[attr];
                bits.extend(ab.first_bit_attr..ab.first_bit_attr + ab.bits);
            }
            bits
        })
        .collect();

    let global_key = |local_mask: u64, bits: &[usize]| -> u64 {
        let b = bits.len();
        let mut key = 0u64;
        for (j, &bit_attr) in bits.iter().enumerate() {
            if local_mask >> (b - 1 - j) & 1 == 1 {
                key |= 1 << bit_attr;
            }
        }
        key
    };

    let mut coefficient_count = HashSet::new();
    for bits in &bit_sets {
        for mask in 0u64..(1 << bits.len()) {
            coefficient_count.insert(global_key(mask, bits));
        }
    }
    let scale = 2.0 * coefficient_count.len() as f64 / (n * epsilon);

    let fold_to_original = |subset: &[usize],
                            map: &BinarizationMap,
                            bits: &[usize],
                            bit_values: &[f64]|
     -> ContingencyTable {
        let schema = data.schema();
        let out_axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
        let out_dims: Vec<usize> =
            subset.iter().map(|&a| schema.attribute(a).domain_size()).collect();
        let out_cells: usize = out_dims.iter().product();
        let mut out = vec![0.0f64; out_cells];
        let b = bits.len();
        for (cell, &v) in bit_values.iter().enumerate() {
            let mut out_idx = 0usize;
            let mut offset = 0usize;
            for (&attr, &dim) in subset.iter().zip(&out_dims) {
                let ab = &map.per_attr()[attr];
                let mut code = 0u32;
                for j in 0..ab.bits {
                    let pos = b - 1 - (offset + j);
                    code = (code << 1) | ((cell >> pos) & 1) as u32;
                }
                if map.is_gray() {
                    code = privbayes_data::encoding::from_gray(code);
                }
                let code = code.min(dim as u32 - 1);
                out_idx = out_idx * dim + code as usize;
                offset += ab.bits;
            }
            out[out_idx] += v;
        }
        ContingencyTable::from_parts(out_axes, out_dims, out)
    };

    let mut released: HashMap<u64, f64> = HashMap::with_capacity(coefficient_count.len());
    workload
        .subsets()
        .iter()
        .zip(&bit_sets)
        .map(|(subset, bits)| {
            let axes: Vec<Axis> = bits.iter().map(|&i| Axis::raw(i)).collect();
            let table = ContingencyTable::from_dataset(&bin_data, &axes);
            let mut coeffs = table.values().to_vec();
            walsh_hadamard(&mut coeffs);
            for (local_mask, c) in coeffs.iter_mut().enumerate() {
                let key = global_key(local_mask as u64, bits);
                let noisy = *released.entry(key).or_insert_with(|| *c + sample_laplace(scale, rng));
                *c = noisy;
            }
            walsh_hadamard(&mut coeffs);
            let cells = coeffs.len() as f64;
            for v in &mut coeffs {
                *v /= cells;
            }
            clamp_and_normalize(&mut coeffs, 1.0);
            fold_to_original(subset, &map, bits, &coeffs)
        })
        .collect()
}

/// Independent oracle for the query API: the exact model marginal
/// `Pr*_N[attrs]` by variable elimination in the operation order that
/// `privbayes::inference::model_conditional` documents as its bit contract,
/// with none of the serving code (a worklist closure and div/mod cell
/// decoding instead). `tests/query_api.rs` asserts the served `/v1/query`
/// values equal this oracle's **bit for bit**. The name is the one the
/// query API's earlier closure enumeration gave it.
///
/// # Panics
/// Panics on an invalid query, a model that does not cover the schema, or
/// a query with no mass.
#[must_use]
pub fn reference_theta_projection(
    model: &NoisyModel,
    schema: &Schema,
    attrs: &[usize],
) -> ContingencyTable {
    let d = schema.len();
    assert_eq!(model.conditionals.len(), d, "model must cover the schema");
    let valid = attrs.iter().enumerate().all(|(i, &a)| a < d && !attrs[..i].contains(&a));
    assert!(valid && !attrs.is_empty(), "invalid query {attrs:?}");

    // Ancestral closure: mark an unmarked parent of a marked child until
    // none is left (no ordering assumption on the conditional list, unlike
    // the serving path's single reverse sweep).
    let mut needed: Vec<bool> = (0..d).map(|a| attrs.contains(&a)).collect();
    loop {
        let parents =
            model.conditionals.iter().filter(|c| needed[c.child]).flat_map(|c| &c.parents);
        let Some(next) = parents.map(|p| p.attr).find(|&a| !needed[a]) else { break };
        needed[next] = true;
    }

    // One factor per closure pair in network order: its parents' raw codes,
    // then its child's.
    let mut factors = Vec::new();
    for cond in model.conditionals.iter().filter(|c| needed[c.child]) {
        let scope: Vec<usize> = cond.parents.iter().map(|p| p.attr).chain([cond.child]).collect();
        let dims: Vec<usize> = scope.iter().map(|&a| schema.attribute(a).domain_size()).collect();
        let cell = |flat| {
            let raw = decode(flat, &dims);
            let codes: Vec<usize> = (cond.parents.iter().zip(&raw))
                .map(|(p, &code)| {
                    let tree = schema.attribute(p.attr).taxonomy();
                    tree.map_or(code, |tree| tree.generalize(code as u32, p.level) as usize)
                })
                .collect();
            cond.child_distribution(cond.parent_index(&codes))[raw[scope.len() - 1]]
        };
        let values = (0..dims.iter().product()).map(cell).collect();
        factors.push(OracleFactor { scope, dims, values });
    }

    // Eliminate the candidate whose bucket context has the fewest cells; the
    // strict `<` keeps the earliest of equal ones.
    let mut candidates: Vec<usize> = (0..d).filter(|&a| needed[a] && !attrs.contains(&a)).collect();
    while !candidates.is_empty() {
        let cells = |i: usize| -> f64 {
            context(&factors, candidates[i]).1.iter().map(|&n| n as f64).product()
        };
        let best =
            (1..candidates.len()).fold(0, |best, i| if cells(i) < cells(best) { i } else { best });
        let var = candidates.swap_remove(best);
        let (scope, dims) = context(&factors, var);
        let ones = OracleFactor { values: vec![1.0; dims.iter().product()], scope, dims };
        let (mentioning, mut rest): (Vec<_>, Vec<_>) =
            factors.into_iter().partition(|f| f.scope.contains(&var));
        let bucket = mentioning.iter().fold(ones, |bucket, f| bucket.join(f));
        let keep: Vec<usize> = bucket.scope.iter().copied().filter(|&a| a != var).collect();
        rest.push(bucket.project(&keep));
        factors = rest;
    }

    let unit = OracleFactor { scope: Vec::new(), dims: Vec::new(), values: vec![1.0] };
    let mut joint = factors.iter().fold(unit, |joint, f| joint.join(f));
    let total = joint.values.iter().fold(0.0, |sum, &v| sum + v);
    assert!(total > 0.0, "the query has no mass");
    for v in &mut joint.values {
        *v /= total;
    }
    let answer = joint.project(attrs);
    let axes = attrs.iter().map(|&a| Axis::raw(a)).collect();
    ContingencyTable::from_parts(axes, answer.dims, answer.values)
}

/// A dense factor of [`reference_theta_projection`], row-major over `scope`.
struct OracleFactor {
    scope: Vec<usize>,
    dims: Vec<usize>,
    values: Vec<f64>,
}

/// The attributes that share a factor with `var`, in first-mention order,
/// without `var`, and their dims.
fn context(factors: &[OracleFactor], var: usize) -> (Vec<usize>, Vec<usize>) {
    let (mut scope, mut dims) = (Vec::new(), Vec::new());
    for f in factors.iter().filter(|f| f.scope.contains(&var)) {
        for (&a, &dim) in f.scope.iter().zip(&f.dims) {
            if a != var && !scope.contains(&a) {
                scope.push(a);
                dims.push(dim);
            }
        }
    }
    (scope, dims)
}

impl OracleFactor {
    /// This factor's cell at the coordinates `coords` gives the attributes of
    /// `scope`.
    fn cell_at(&self, scope: &[usize], coords: &[usize]) -> usize {
        let coord = |a: &usize| coords[scope.iter().position(|s| s == a).expect("in scope")];
        self.scope.iter().zip(&self.dims).fold(0, |cell, (a, &dim)| cell * dim + coord(a))
    }

    /// The product over this factor's attributes, then `other`'s new ones.
    fn join(&self, other: &OracleFactor) -> OracleFactor {
        let (mut scope, mut dims) = (self.scope.clone(), self.dims.clone());
        for (&a, &dim) in other.scope.iter().zip(&other.dims) {
            if !self.scope.contains(&a) {
                scope.push(a);
                dims.push(dim);
            }
        }
        let cell = |flat| {
            let coords = decode(flat, &dims);
            self.values[self.cell_at(&scope, &coords)]
                * other.values[other.cell_at(&scope, &coords)]
        };
        let values = (0..dims.iter().product()).map(cell).collect();
        OracleFactor { scope, dims, values }
    }

    /// The sum onto the attributes `keep`, in that order, each cell added in
    /// index order from 0.0.
    fn project(&self, keep: &[usize]) -> OracleFactor {
        let position = |a: &usize| self.scope.iter().position(|s| s == a).expect("kept");
        let dims: Vec<usize> = keep.iter().map(|a| self.dims[position(a)]).collect();
        let values = vec![0.0; dims.iter().product()];
        let mut out = OracleFactor { scope: keep.to_vec(), dims, values };
        for (flat, &v) in self.values.iter().enumerate() {
            let cell = out.cell_at(&self.scope, &decode(flat, &self.dims));
            out.values[cell] += v;
        }
        out
    }
}

/// The row-major coordinates of cell `flat` of a table of `dims`.
fn decode(mut flat: usize, dims: &[usize]) -> Vec<usize> {
    let mut coords = vec![0; dims.len()];
    for (coord, &dim) in coords.iter_mut().zip(dims).rev() {
        *coord = flat % dim;
        flat /= dim;
    }
    coords
}

/// Reference row renderer: the per-cell `RowFormat::render` that predates
/// the pre-rendered `RowRenderer` — one `Domain::label` string per cell for
/// CSV, one `Json` object per row for JSONL. `tests/query_api.rs` asserts
/// the served renderer's bytes equal this oracle's.
///
/// # Panics
/// Panics if a tuple is narrower than the projection or holds a code
/// outside its attribute's domain.
#[must_use]
pub fn reference_render(
    format: RowFormat,
    schema: &Schema,
    projection: Option<&[usize]>,
    rows: &[Vec<u32>],
) -> String {
    let attrs: Vec<usize> = match projection {
        Some(keep) => keep.to_vec(),
        None => (0..schema.len()).collect(),
    };
    let mut out = String::new();
    for tuple in rows {
        match format {
            RowFormat::Csv => {
                for (slot, &attr) in attrs.iter().enumerate() {
                    if slot > 0 {
                        out.push(',');
                    }
                    out.push_str(&schema.attribute(attr).domain().label(tuple[slot]));
                }
            }
            RowFormat::Jsonl => {
                let fields: Vec<(String, Json)> = attrs
                    .iter()
                    .enumerate()
                    .map(|(slot, &attr)| {
                        let a = schema.attribute(attr);
                        (a.name().to_string(), Json::String(a.domain().label(tuple[slot])))
                    })
                    .collect();
                out.push_str(&Json::Object(fields).to_string_compact().expect("labels are finite"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes::ScoreKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_fixed_k_learns_a_valid_network() {
        let data = privbayes_datasets::nltcs::nltcs_sized(1, 500).data;
        let mut rng = StdRng::seed_from_u64(2);
        let settings = GreedySettings::private(ScoreKind::F, 1.0);
        let net = reference_greedy_fixed_k(&data, 2, &settings, &mut rng).unwrap();
        assert_eq!(net.len(), data.d());
        assert!(net.degree() <= 2);
    }

    #[test]
    fn theta_projection_oracle_is_bit_identical_to_the_serving_path() {
        use privbayes::conditionals::noisy_conditionals_general_engine;
        use privbayes::inference::{model_marginal, DEFAULT_CELL_CAP};
        use privbayes_marginals::CountEngine;

        let data = privbayes_datasets::nltcs::nltcs_sized(3, 800).data;
        let net = reference_greedy_fixed_k(
            &data,
            2,
            &GreedySettings::private(ScoreKind::MutualInformation, 0.5),
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(
            &engine,
            &net,
            Some(0.5),
            &mut StdRng::seed_from_u64(8),
        )
        .unwrap();
        for attrs in [vec![0usize], vec![3, 1], vec![2, 5, 0]] {
            let served = model_marginal(&model, data.schema(), &attrs, DEFAULT_CELL_CAP).unwrap();
            let oracle = reference_theta_projection(&model, data.schema(), &attrs);
            assert_eq!(served.dims(), oracle.dims(), "attrs {attrs:?}");
            for (i, (a, b)) in served.values().iter().zip(oracle.values()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "attrs {attrs:?}, cell {i}: {a} vs {b}");
            }
        }
    }
}
