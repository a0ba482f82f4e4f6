//! NoisyConditionals: the distribution-learning phase (Algorithms 1 and 3).
//!
//! For each AP pair the joint `Pr[Xᵢ, Πᵢ]` is materialised, perturbed with
//! Laplace noise (sensitivity 2/n in probability scale), post-processed to a
//! valid distribution, and conditioned on the parents. Algorithm 1 (binary
//! encodings, fixed degree `k`) additionally derives the first `k`
//! conditionals from the noisy joint of pair `k+1` at no extra privacy cost;
//! Algorithm 3 (general domains) materialises all `d` joints directly, and
//! [`noisy_conditionals_consistent_engine`] is its one body: zero
//! consistency rounds is the paper's Algorithm 3.
//!
//! All joints are served by a [`CountEngine`]: the `*_engine` entry points
//! take a caller-owned engine ([`crate::PrivBayes::fit`] shares one across
//! structure and distribution learning, so AP-pair joints already counted
//! during scoring are answered from the cache), while the `&Dataset` forms
//! build a throwaway engine. Engine joints are bit-identical to a fresh
//! `ContingencyTable::from_dataset` scan, so which form is used never
//! changes the output.

use privbayes_data::Dataset;
use privbayes_dp::laplace::sample_laplace;
use privbayes_marginals::{
    clamp_and_normalize, mutual_consistency, Axis, ContingencyTable, CountEngine,
};
use rand::Rng;

use crate::error::PrivBayesError;
use crate::network::BayesianNetwork;

/// A noisy conditional distribution `Pr*[X | Π]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Conditional {
    /// Child attribute.
    pub child: usize,
    /// Parent axes (attribute + generalisation level).
    pub parents: Vec<Axis>,
    /// Parent domain sizes, same order as `parents`.
    pub parent_dims: Vec<usize>,
    /// Child domain size.
    pub child_dim: usize,
    /// Parent-major, child-fastest probabilities; each parent slice sums to 1.
    pub probs: Vec<f64>,
}

impl Conditional {
    /// Flat parent index for concrete (generalised) parent codes.
    ///
    /// # Panics
    /// Panics if arity or a code is out of range.
    #[must_use]
    pub fn parent_index(&self, codes: &[usize]) -> usize {
        assert_eq!(codes.len(), self.parent_dims.len(), "parent arity mismatch");
        let mut idx = 0usize;
        for (&c, &dim) in codes.iter().zip(&self.parent_dims) {
            assert!(c < dim, "parent code {c} out of dim {dim}");
            idx = idx * dim + c;
        }
        idx
    }

    /// The child distribution slice for a flat parent index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[must_use]
    pub fn child_distribution(&self, parent_index: usize) -> &[f64] {
        let start = parent_index * self.child_dim;
        &self.probs[start..start + self.child_dim]
    }
}

/// The result of distribution learning: network plus noisy conditionals in
/// network order — everything data synthesis needs (no further data access).
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyModel {
    /// The Bayesian network.
    pub network: BayesianNetwork,
    /// One conditional per AP pair, in network order.
    pub conditionals: Vec<Conditional>,
}

/// Builds a conditional from a joint table whose **last axis is the child**:
/// clamps negatives, renormalises, and conditions each parent slice (zero
/// slices become uniform). This is *the* post-processing step between a
/// (noisy) joint and a sampling-ready CPT, shared by every layer that
/// assembles models — the core's distribution learning, the relational fact
/// model, and the synthesizer layer's artifact constructions.
#[must_use]
pub fn conditional_from_joint(table: &ContingencyTable, child: usize) -> Conditional {
    let dims = table.dims();
    let child_dim = *dims.last().expect("table has axes");
    let parent_dims: Vec<usize> = dims[..dims.len() - 1].to_vec();
    let parents: Vec<Axis> = table.axes()[..dims.len() - 1].to_vec();

    let mut probs = table.values().to_vec();
    clamp_and_normalize(&mut probs, 1.0);
    for slice in probs.chunks_exact_mut(child_dim) {
        let total: f64 = slice.iter().sum();
        if total > 0.0 {
            for v in slice.iter_mut() {
                *v /= total;
            }
        } else {
            let u = 1.0 / child_dim as f64;
            slice.fill(u);
        }
    }
    Conditional { child, parents, parent_dims, child_dim, probs }
}

/// Materialises the noisy joint of one AP pair: axes `[parents…, child]`,
/// `Lap(scale)` noise per cell (skipped when `scale` is `None`), then
/// non-negativity + renormalisation (Algorithm 1 line 5).
fn noisy_joint<R: Rng + ?Sized>(
    engine: &CountEngine,
    child: usize,
    parents: &[Axis],
    scale: Option<f64>,
    rng: &mut R,
) -> ContingencyTable {
    let mut axes: Vec<Axis> = parents.to_vec();
    axes.push(Axis::raw(child));
    let mut table = engine.joint_table(&axes);
    if let Some(scale) = scale {
        for v in table.values_mut() {
            *v += sample_laplace(scale, rng);
        }
        clamp_and_normalize(table.values_mut(), 1.0);
    }
    table
}

/// Algorithm 3: all `d` joints materialised with `Lap(2d/nε₂)` noise.
/// `epsilon2 = None` skips the noise entirely (the BestMarginal ablation).
///
/// # Errors
/// Returns [`PrivBayesError::InvalidConfig`] for a non-positive ε₂ or empty data.
pub fn noisy_conditionals_general<R: Rng + ?Sized>(
    data: &Dataset,
    network: &BayesianNetwork,
    epsilon2: Option<f64>,
    rng: &mut R,
) -> Result<NoisyModel, PrivBayesError> {
    noisy_conditionals_general_engine(&CountEngine::new(data), network, epsilon2, rng)
}

/// [`noisy_conditionals_general`] over a caller-owned engine (joints already
/// counted during structure learning come straight from the cache):
/// [`noisy_conditionals_consistent_engine`] with zero rounds.
///
/// # Errors
/// As [`noisy_conditionals_general`].
pub fn noisy_conditionals_general_engine<R: Rng + ?Sized>(
    engine: &CountEngine,
    network: &BayesianNetwork,
    epsilon2: Option<f64>,
    rng: &mut R,
) -> Result<NoisyModel, PrivBayesError> {
    noisy_conditionals_consistent_engine(engine, network, epsilon2, 0, rng)
}

/// Algorithm 3 plus the §3 footnote-1 optimisation: after all `d` noisy
/// joints are materialised, overlapping joints are reconciled with
/// [`mutual_consistency`] *before* clamping and conditioning, so that shared
/// sub-marginals agree across the model. Consistency is pure post-processing
/// of the Laplace output — the privacy guarantee is exactly that of
/// [`noisy_conditionals_general`].
///
/// With `rounds == 0` this is Algorithm 3 itself — every noisy joint is
/// clamped and renormalised on its own — and [`noisy_conditionals_general`]
/// is exactly that call. Reconciliation averages independent noise draws
/// of the same sub-marginal, which reduces its variance — the ablation bench
/// `abl01_consistency` quantifies the effect.
///
/// # Errors
/// Returns [`PrivBayesError::InvalidConfig`] for a non-positive ε₂ or empty
/// data.
pub fn noisy_conditionals_consistent<R: Rng + ?Sized>(
    data: &Dataset,
    network: &BayesianNetwork,
    epsilon2: Option<f64>,
    rounds: usize,
    rng: &mut R,
) -> Result<NoisyModel, PrivBayesError> {
    noisy_conditionals_consistent_engine(&CountEngine::new(data), network, epsilon2, rounds, rng)
}

/// [`noisy_conditionals_consistent`] over a caller-owned engine.
///
/// # Errors
/// As [`noisy_conditionals_consistent`].
pub fn noisy_conditionals_consistent_engine<R: Rng + ?Sized>(
    engine: &CountEngine,
    network: &BayesianNetwork,
    epsilon2: Option<f64>,
    rounds: usize,
    rng: &mut R,
) -> Result<NoisyModel, PrivBayesError> {
    let n = engine.n();
    if n == 0 {
        return Err(PrivBayesError::InvalidConfig("empty dataset".into()));
    }
    let d = network.len() as f64;
    let scale = match epsilon2 {
        Some(e) if e > 0.0 => Some(2.0 * d / (n as f64 * e)),
        Some(e) => {
            return Err(PrivBayesError::InvalidConfig(format!(
                "epsilon2 must be positive, got {e}"
            )))
        }
        None => None,
    };
    // Materialise the raw noisy joints *without* clamping: least-squares
    // reconciliation assumes zero-mean noise, which clamping would bias.
    let mut tables: Vec<ContingencyTable> = network
        .pairs()
        .iter()
        .map(|pair| {
            let mut axes: Vec<Axis> = pair.parents.clone();
            axes.push(Axis::raw(pair.child));
            let mut table = engine.joint_table(&axes);
            if let Some(scale) = scale {
                for v in table.values_mut() {
                    *v += sample_laplace(scale, rng);
                }
            }
            table
        })
        .collect();
    if rounds > 0 {
        let variances = vec![1.0; tables.len()];
        mutual_consistency(&mut tables, &variances, rounds);
    } else if scale.is_some() {
        // No reconciliation requested: Algorithm 3's per-joint
        // clamp+renormalise.
        for table in &mut tables {
            clamp_and_normalize(table.values_mut(), 1.0);
        }
    }
    let conditionals = tables
        .iter()
        .zip(network.pairs())
        .map(|(table, pair)| conditional_from_joint(table, pair.child))
        .collect();
    Ok(NoisyModel { network: network.clone(), conditionals })
}

/// Algorithm 1: fixed-degree variant for binary encodings. Materialises the
/// `d−k` joints of pairs `k+1..d` with `Lap(2(d−k)/nε₂)` noise and derives
/// the first `k` conditionals from the noisy joint of pair `k+1` — no
/// additional privacy cost.
///
/// # Errors
/// Returns [`PrivBayesError::InvalidConfig`] if `k ≥ d`, ε₂ ≤ 0, or the
/// network violates the structural invariant the derivation relies on
/// (`Xᵢ ∈ Π_{k+1}` and `Πᵢ ⊂ Π_{k+1}` for `i ≤ k`, §3).
pub fn noisy_conditionals_binary_k<R: Rng + ?Sized>(
    data: &Dataset,
    network: &BayesianNetwork,
    k: usize,
    epsilon2: Option<f64>,
    rng: &mut R,
) -> Result<NoisyModel, PrivBayesError> {
    noisy_conditionals_binary_k_engine(&CountEngine::new(data), network, k, epsilon2, rng)
}

/// [`noisy_conditionals_binary_k`] over a caller-owned engine.
///
/// # Errors
/// As [`noisy_conditionals_binary_k`].
pub fn noisy_conditionals_binary_k_engine<R: Rng + ?Sized>(
    engine: &CountEngine,
    network: &BayesianNetwork,
    k: usize,
    epsilon2: Option<f64>,
    rng: &mut R,
) -> Result<NoisyModel, PrivBayesError> {
    let n = engine.n();
    if n == 0 {
        return Err(PrivBayesError::InvalidConfig("empty dataset".into()));
    }
    let d = network.len();
    if k >= d {
        return Err(PrivBayesError::InvalidConfig(format!("k={k} must be below d={d}")));
    }
    let scale = match epsilon2 {
        Some(e) if e > 0.0 => Some(2.0 * (d - k) as f64 / (n as f64 * e)),
        Some(e) => {
            return Err(PrivBayesError::InvalidConfig(format!(
                "epsilon2 must be positive, got {e}"
            )))
        }
        None => None,
    };
    let pairs = network.pairs();

    // Pairs k+1..d (0-based k..d): direct noisy materialisation.
    let mut tail: Vec<(ContingencyTable, usize)> = Vec::with_capacity(d - k);
    for pair in &pairs[k..] {
        tail.push((noisy_joint(engine, pair.child, &pair.parents, scale, rng), pair.child));
    }

    // Pairs 1..k (0-based 0..k): derived from the noisy joint of pair k+1.
    let anchor = &tail[0].0;
    let mut conditionals: Vec<Conditional> = Vec::with_capacity(d);
    for (i, pair) in pairs[..k].iter().enumerate() {
        // Locate Πᵢ ∪ {Xᵢ} among the anchor's axes.
        let mut keep: Vec<usize> = Vec::with_capacity(pair.parents.len() + 1);
        for parent in &pair.parents {
            let pos = anchor
                .axes()
                .iter()
                .position(|ax| ax.attr == parent.attr && ax.level == parent.level)
                .ok_or_else(|| {
                    PrivBayesError::InvalidNetwork(format!(
                        "pair {i}: parent {} not inside pair k+1's joint (Algorithm 1 invariant)",
                        parent.attr
                    ))
                })?;
            keep.push(pos);
        }
        let child_pos =
            anchor.axes().iter().position(|ax| ax.attr == pair.child).ok_or_else(|| {
                PrivBayesError::InvalidNetwork(format!(
                    "pair {i}: child {} not inside pair k+1's joint (Algorithm 1 invariant)",
                    pair.child
                ))
            })?;
        keep.push(child_pos);
        let projected = anchor.project(&keep);
        conditionals.push(conditional_from_joint(&projected, pair.child));
    }
    for (table, child) in &tail {
        conditionals.push(conditional_from_joint(table, *child));
    }
    Ok(NoisyModel { network: network.clone(), conditionals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ApPair;
    use privbayes_data::{Attribute, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data_and_network() -> (Dataset, BayesianNetwork) {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ])
        .unwrap();
        // b copies a; c is independent-ish.
        let rows: Vec<Vec<u32>> = (0..400u32)
            .map(|i| {
                let a = i % 2;
                vec![a, a, u32::from(i % 5 == 0)]
            })
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![0, 1])],
            data.schema(),
        )
        .unwrap();
        (data, net)
    }

    #[test]
    fn conditionals_are_valid_distributions() {
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(1);
        let model = noisy_conditionals_general(&data, &net, Some(1.0), &mut rng).unwrap();
        assert_eq!(model.conditionals.len(), 3);
        for cond in &model.conditionals {
            for slice in cond.probs.chunks_exact(cond.child_dim) {
                assert!((slice.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(slice.iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn noise_free_matches_empirical_conditionals() {
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(2);
        let model = noisy_conditionals_general(&data, &net, None, &mut rng).unwrap();
        // Pr[b=1 | a=1] = 1 in the data.
        let cond_b = &model.conditionals[1];
        let slice = cond_b.child_distribution(cond_b.parent_index(&[1]));
        assert!((slice[1] - 1.0).abs() < 1e-9, "b copies a: {slice:?}");
        let slice = cond_b.child_distribution(cond_b.parent_index(&[0]));
        assert!((slice[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_epsilon_recovers_truth_approximately() {
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(3);
        let model = noisy_conditionals_general(&data, &net, Some(100.0), &mut rng).unwrap();
        let cond_b = &model.conditionals[1];
        let slice = cond_b.child_distribution(cond_b.parent_index(&[1]));
        assert!(slice[1] > 0.95, "high ε₂ should barely perturb: {slice:?}");
    }

    #[test]
    fn binary_k_derives_prefix_without_recounting() {
        // Network with prefix structure: (a,∅), (b,{a}), (c,{a,b}); k = 2.
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(4);
        let model = noisy_conditionals_binary_k(&data, &net, 2, None, &mut rng).unwrap();
        assert_eq!(model.conditionals.len(), 3);
        // With no noise, the derived Pr[b|a] must equal the empirical one.
        let cond_b = &model.conditionals[1];
        let slice = cond_b.child_distribution(cond_b.parent_index(&[1]));
        assert!((slice[1] - 1.0).abs() < 1e-9, "derived conditional: {slice:?}");
        // And the root marginal Pr[a] is (.5, .5).
        let cond_a = &model.conditionals[0];
        let slice = cond_a.child_distribution(0);
        assert!((slice[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn binary_k_rejects_violated_invariant() {
        // Network where pair 1's parent is NOT inside pair 2's joint:
        // (a,∅), (b,{a}), (c,{b}) with k=1 works (b ∈ Π₂... actually Π₂={b}
        // must contain X₁=a — it does not).
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i % 2, i % 2, 0]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // k=1: pair 2 (0-based 1) is the anchor, its joint is {a}∪{b} ∋ a. OK.
        assert!(noisy_conditionals_binary_k(&data, &net, 1, None, &mut rng).is_ok());
        // k=2: anchor is pair 3 with joint {b, c}; pair 1's child a ∉ joint.
        assert!(noisy_conditionals_binary_k(&data, &net, 2, None, &mut rng).is_err());
    }

    #[test]
    fn rejects_bad_parameters() {
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(noisy_conditionals_general(&data, &net, Some(0.0), &mut rng).is_err());
        assert!(noisy_conditionals_binary_k(&data, &net, 3, Some(1.0), &mut rng).is_err());
        assert!(noisy_conditionals_binary_k(&data, &net, 0, Some(-1.0), &mut rng).is_err());
    }

    #[test]
    fn k_zero_equals_general_with_matching_scale() {
        // With k=0, Algorithm 1's noise scale 2(d−0)/nε₂ equals Algorithm 3's
        // 2d/nε₂ and no derivation happens: same code path semantics.
        let (data, net) = data_and_network();
        let model_a = {
            let mut rng = StdRng::seed_from_u64(7);
            noisy_conditionals_binary_k(&data, &net, 0, Some(0.5), &mut rng).unwrap()
        };
        let model_b = {
            let mut rng = StdRng::seed_from_u64(7);
            noisy_conditionals_general(&data, &net, Some(0.5), &mut rng).unwrap()
        };
        assert_eq!(model_a, model_b);
    }

    #[test]
    fn consistent_with_zero_rounds_matches_general() {
        let (data, net) = data_and_network();
        let model_a = {
            let mut rng = StdRng::seed_from_u64(8);
            noisy_conditionals_consistent(&data, &net, Some(0.8), 0, &mut rng).unwrap()
        };
        let model_b = {
            let mut rng = StdRng::seed_from_u64(8);
            noisy_conditionals_general(&data, &net, Some(0.8), &mut rng).unwrap()
        };
        assert_eq!(model_a, model_b, "rounds=0 must be a no-op relative to Algorithm 3");
    }

    #[test]
    fn consistent_noise_free_is_exact() {
        // With no noise the joints are already mutually consistent (they are
        // all projections of the same empirical distribution), so
        // reconciliation must not disturb them.
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(9);
        let with = noisy_conditionals_consistent(&data, &net, None, 3, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let without = noisy_conditionals_general(&data, &net, None, &mut rng).unwrap();
        for (a, b) in with.conditionals.iter().zip(&without.conditionals) {
            for (x, y) in a.probs.iter().zip(&b.probs) {
                assert!((x - y).abs() < 1e-9, "noise-free consistency must be a fixed point");
            }
        }
    }

    #[test]
    fn consistent_conditionals_are_valid_distributions() {
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(10);
        let model = noisy_conditionals_consistent(&data, &net, Some(0.2), 2, &mut rng).unwrap();
        for cond in &model.conditionals {
            for slice in cond.probs.chunks_exact(cond.child_dim) {
                assert!((slice.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(slice.iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn consistency_reduces_marginal_error_on_average() {
        // Shared sub-marginals are estimated twice with independent noise;
        // averaging them must reduce squared error on the shared margin.
        // Measured over repetitions to smooth the randomness.
        let (data, net) = data_and_network();
        let truth = ContingencyTable::from_dataset(&data, &[Axis::raw(0)]);
        let mut err_with = 0.0;
        let mut err_without = 0.0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let with = noisy_conditionals_consistent(&data, &net, Some(0.05), 2, &mut rng).unwrap();
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let without = noisy_conditionals_general(&data, &net, Some(0.05), &mut rng).unwrap();
            // Root marginal Pr*[a] from each model's first conditional.
            let pa_with = with.conditionals[0].child_distribution(0);
            let pa_without = without.conditionals[0].child_distribution(0);
            err_with += (pa_with[0] - truth.values()[0]).abs();
            err_without += (pa_without[0] - truth.values()[0]).abs();
        }
        assert!(
            err_with < err_without,
            "consistency should shrink root-marginal error: {err_with} vs {err_without}"
        );
    }

    #[test]
    fn consistent_rejects_bad_epsilon() {
        let (data, net) = data_and_network();
        let mut rng = StdRng::seed_from_u64(11);
        assert!(noisy_conditionals_consistent(&data, &net, Some(0.0), 1, &mut rng).is_err());
    }

    #[test]
    fn parent_index_math() {
        let cond = Conditional {
            child: 0,
            parents: vec![Axis::raw(1), Axis::raw(2)],
            parent_dims: vec![3, 4],
            child_dim: 2,
            probs: vec![0.5; 24],
        };
        assert_eq!(cond.parent_index(&[0, 0]), 0);
        assert_eq!(cond.parent_index(&[1, 2]), 6);
        assert_eq!(cond.parent_index(&[2, 3]), 11);
        assert_eq!(cond.child_distribution(11).len(), 2);
    }
}
