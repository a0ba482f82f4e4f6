//! GreedyBayes network learning (Algorithms 2 and 4).
//!
//! Both variants repeatedly pick an attribute–parent pair from a candidate
//! set Ω: Algorithm 2 (all-binary data, fixed degree `k`) draws parent sets
//! from `(V choose min(k,|V|))`; Algorithm 4 (general domains) draws them
//! from the θ-usefulness-constrained maximal parent sets. The selection is
//! either the exponential mechanism at ε₁/(d−1) per round (private) or an
//! argmax (the paper's NoPrivacy / BestNetwork reference lines).
//!
//! All candidate joints are served by a per-run
//! [`CountEngine`](privbayes_marginals::CountEngine) (radix-coded columns, a
//! popcount fast path for binary axes, and cross-round joint memoisation),
//! and each round's candidate list is scored by a pool of scoped threads.
//! Scoring is deterministic — only [`select`] consumes randomness — and the
//! engine's integer-count contract makes every score bit-identical to the
//! sequential path, so the learned network does not depend on the worker
//! count.

use privbayes_data::Dataset;
use privbayes_dp::exponential::select_with_scale;
use privbayes_marginals::{Axis, CountEngine};
use rand::{Rng, RngExt};

use crate::error::PrivBayesError;
use crate::network::{ApPair, BayesianNetwork};
use crate::parent_sets::{maximal_parent_sets, maximal_parent_sets_generalized};
use crate::score::ScoreKind;
use crate::theta::tau_for_child;

/// Settings shared by both GreedyBayes variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedySettings {
    /// Score function for candidate AP pairs.
    pub score: ScoreKind,
    /// Network-learning budget ε₁; `None` selects by argmax (no privacy),
    /// which implements the paper's NoPrivacy and BestNetwork lines.
    pub epsilon1: Option<f64>,
    /// Cap on parent-set cardinality. `usize::MAX` is the paper-faithful
    /// setting; the experiment harness uses a small cap for tractability,
    /// because the candidate parent sets of a child grow combinatorially
    /// with their size.
    pub max_degree: usize,
    /// Scoring worker threads; `None` uses
    /// [`std::thread::available_parallelism`]. The learned network is
    /// bit-identical for every thread count (scores are deterministic and
    /// candidate order is preserved).
    pub threads: Option<usize>,
}

impl GreedySettings {
    /// Private learning with the given budget and score.
    #[must_use]
    pub fn private(score: ScoreKind, epsilon1: f64) -> Self {
        Self { score, epsilon1: Some(epsilon1), max_degree: usize::MAX, threads: None }
    }

    /// Non-private argmax learning (NoPrivacy / BestNetwork).
    #[must_use]
    pub fn non_private(score: ScoreKind) -> Self {
        Self { score, epsilon1: None, max_degree: usize::MAX, threads: None }
    }

    /// Returns a copy with the degree cap set.
    #[must_use]
    pub fn with_max_degree(mut self, cap: usize) -> Self {
        self.max_degree = cap;
        self
    }

    /// Returns a copy with an explicit scoring worker count (tests and
    /// benchmarks; `1` forces the sequential path).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// Resolves an optional thread override against the machine's parallelism.
pub(crate) fn resolve_threads(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .max(1)
}

/// One candidate AP pair under consideration.
#[derive(Debug, Clone)]
struct Candidate {
    child: usize,
    parents: Vec<Axis>,
}

/// Scores every candidate through the engine, preserving candidate order.
/// With `threads > 1` the list is split into contiguous chunks scored by
/// scoped workers; results are collected via the join handles, so the output
/// is the in-order concatenation regardless of scheduling.
fn score_candidates(
    engine: &CountEngine,
    candidates: &[Candidate],
    score: ScoreKind,
    threads: usize,
) -> Result<Vec<f64>, PrivBayesError> {
    let score_chunk = |chunk: &[Candidate]| -> Result<Vec<f64>, PrivBayesError> {
        let mut axes: Vec<Axis> = Vec::new();
        let mut joint: Vec<f64> = Vec::new();
        chunk
            .iter()
            .map(|cand| {
                axes.clear();
                axes.extend_from_slice(&cand.parents);
                axes.push(Axis::raw(cand.child));
                engine.joint_into(&axes, &mut joint);
                let child_dim = engine.schema().attribute(cand.child).domain_size();
                score.compute(&joint, child_dim, engine.n())
            })
            .collect()
    };

    let workers = threads.min(candidates.len()).max(1);
    if workers == 1 {
        return score_chunk(candidates);
    }
    let chunk_len = candidates.len().div_ceil(workers);
    let per_chunk: Vec<Result<Vec<f64>, PrivBayesError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || score_chunk(chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("scoring worker panicked")).collect()
    });
    let mut scores = Vec::with_capacity(candidates.len());
    for chunk in per_chunk {
        scores.extend(chunk?);
    }
    Ok(scores)
}

/// All size-`k` subsets of `items` (the paper's `(V choose k)`).
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

/// Selects one candidate: exponential mechanism (private) or argmax.
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
            // Δ = (d−1)·S/ε₁ (§4.2): d−1 invocations compose to ε₁.
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

/// Algorithm 2: GreedyBayes with a fixed degree `k` (binary encodings).
/// Builds a fresh [`CountEngine`] over `data`; callers that already hold an
/// engine (and want its cache shared with distribution learning) should use
/// [`greedy_bayes_fixed_k_engine`].
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures or invalid configuration.
pub fn greedy_bayes_fixed_k<R: Rng + ?Sized>(
    data: &Dataset,
    k: usize,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    greedy_bayes_fixed_k_engine(&CountEngine::new(data), k, settings, rng)
}

/// [`greedy_bayes_fixed_k`] over a caller-owned engine. The learned network
/// depends only on the underlying data and `rng` — never on the engine's
/// cache state — so sharing an engine across phases is purely a speedup.
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures or invalid configuration.
pub fn greedy_bayes_fixed_k_engine<R: Rng + ?Sized>(
    engine: &CountEngine,
    k: usize,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let schema = engine.schema();
    let d = schema.len();
    if d < 2 {
        return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
    }
    let k = k.min(settings.max_degree).min(d - 1);
    let n = engine.n();
    let all_binary = schema.all_binary();
    let threads = resolve_threads(settings.threads);

    let first = rng.random_range(0..d);
    let mut pairs = vec![ApPair::new(first, vec![])];
    let mut in_v = vec![false; d];
    in_v[first] = true;
    let mut v = vec![first];

    for _ in 2..=d {
        let subset_size = k.min(v.len());
        let parent_sets = combinations(&v, subset_size);
        let mut candidates = Vec::new();
        for child in (0..d).filter(|&x| !in_v[x]) {
            for parents in &parent_sets {
                candidates.push(Candidate {
                    child,
                    parents: parents.iter().copied().map(Axis::raw).collect(),
                });
            }
        }
        let scores = score_candidates(engine, &candidates, settings.score, threads)?;
        let chosen = select(&scores, settings, d, n, all_binary, rng)?;
        let c = candidates.swap_remove(chosen);
        in_v[c.child] = true;
        v.push(c.child);
        pairs.push(ApPair::generalized(c.child, c.parents));
    }
    BayesianNetwork::new(pairs, schema)
}

/// Algorithm 4: GreedyBayes with θ-usefulness-driven maximal parent sets
/// (vanilla and hierarchical encodings). `use_taxonomy` enables generalised
/// parent sets (Algorithm 6) where taxonomy trees are available. Builds a
/// fresh [`CountEngine`] over `data`; see [`greedy_bayes_adaptive_engine`]
/// for the shared-engine form.
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures or invalid configuration.
pub fn greedy_bayes_adaptive<R: Rng + ?Sized>(
    data: &Dataset,
    theta: f64,
    epsilon2: f64,
    use_taxonomy: bool,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    greedy_bayes_adaptive_engine(
        &CountEngine::new(data),
        theta,
        epsilon2,
        use_taxonomy,
        settings,
        rng,
    )
}

/// [`greedy_bayes_adaptive`] over a caller-owned engine. The learned network
/// depends only on the underlying data and `rng` — never on the engine's
/// cache state — so sharing an engine across phases is purely a speedup.
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures or invalid configuration.
pub fn greedy_bayes_adaptive_engine<R: Rng + ?Sized>(
    engine: &CountEngine,
    theta: f64,
    epsilon2: f64,
    use_taxonomy: bool,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let schema = engine.schema();
    let d = schema.len();
    if d < 2 {
        return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
    }
    let n = engine.n();
    let all_binary = schema.all_binary();
    let threads = resolve_threads(settings.threads);
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
        for child in (0..d).filter(|&x| !in_v[x]) {
            let tau = tau_for_child(n, d, epsilon2, theta, domain_sizes[child]);
            let tops: Vec<Vec<Axis>> = if use_taxonomy {
                maximal_parent_sets_generalized(&v, &level_sizes, tau, settings.max_degree)
            } else {
                maximal_parent_sets(&v, &domain_sizes, tau, settings.max_degree)
                    .into_iter()
                    .map(|s| s.into_iter().map(Axis::raw).collect())
                    .collect()
            };
            if tops.is_empty() {
                // Algorithm 4 lines 7–8: even Pr[X] violates θ-usefulness;
                // model X as independent so every attribute is covered.
                candidates.push(Candidate { child, parents: Vec::new() });
            } else {
                for parents in tops {
                    candidates.push(Candidate { child, parents });
                }
            }
        }
        let scores = score_candidates(engine, &candidates, settings.score, threads)?;
        let chosen = select(&scores, settings, d, n, all_binary, rng)?;
        let c = candidates.swap_remove(chosen);
        in_v[c.child] = true;
        v.push(c.child);
        pairs.push(ApPair::generalized(c.child, c.parents));
    }
    BayesianNetwork::new(pairs, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Schema, TaxonomyTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A binary dataset where x1 ≈ x0 and x3 ≈ x2, with x0 ⊥ x2.
    fn correlated_binary(n: usize, seed: u64) -> Dataset {
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
                let b = rng.random_range(0..2u32);
                let noise1 = rng.random::<f64>() < 0.05;
                let noise3 = rng.random::<f64>() < 0.05;
                vec![a, a ^ u32::from(noise1), b, b ^ u32::from(noise3)]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn combinations_enumeration() {
        assert_eq!(combinations(&[5, 7, 9], 2), vec![vec![5, 7], vec![5, 9], vec![7, 9]]);
        assert_eq!(combinations(&[1, 2], 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(&[1], 1), vec![vec![1]]);
    }

    #[test]
    fn non_private_greedy_finds_true_edges() {
        let data = correlated_binary(2000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let settings = GreedySettings::non_private(ScoreKind::MutualInformation);
        let net = greedy_bayes_fixed_k(&data, 1, &settings, &mut rng).unwrap();
        assert_eq!(net.degree(), 1);
        // The two strongly-correlated pairs must be joined by an edge (the
        // Chow-Liu tree necessarily adds one ~zero-MI edge between the
        // independent blocks, which is fine).
        let edges = net.edges();
        let has = |a: usize, b: usize| edges.contains(&(a, b)) || edges.contains(&(b, a));
        assert!(has(0, 1), "x0—x1 edge missing: {edges:?}");
        assert!(has(2, 3), "x2—x3 edge missing: {edges:?}");
    }

    #[test]
    fn private_greedy_produces_valid_network() {
        let data = correlated_binary(500, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for score in [ScoreKind::MutualInformation, ScoreKind::F, ScoreKind::R] {
            let settings = GreedySettings::private(score, 0.5);
            let net = greedy_bayes_fixed_k(&data, 2, &settings, &mut rng).unwrap();
            assert_eq!(net.len(), 4);
            assert!(net.degree() <= 2);
        }
    }

    #[test]
    fn parallel_scoring_is_bit_identical_to_sequential() {
        let data = correlated_binary(800, 21);
        for score in [ScoreKind::MutualInformation, ScoreKind::F, ScoreKind::R] {
            let run = |threads: usize| {
                let mut rng = StdRng::seed_from_u64(77);
                let settings = GreedySettings::private(score, 0.6).with_threads(threads);
                greedy_bayes_fixed_k(&data, 2, &settings, &mut rng).unwrap()
            };
            let sequential = run(1);
            for threads in [2, 3, 8] {
                assert_eq!(run(threads), sequential, "{score:?} threads={threads}");
            }
        }
    }

    #[test]
    fn fixed_k_zero_yields_independent_network() {
        let data = correlated_binary(200, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let settings = GreedySettings::private(ScoreKind::F, 0.1);
        let net = greedy_bayes_fixed_k(&data, 0, &settings, &mut rng).unwrap();
        assert_eq!(net.degree(), 0);
    }

    #[test]
    fn max_degree_caps_parent_sets() {
        let data = correlated_binary(500, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let settings = GreedySettings::private(ScoreKind::F, 1.0).with_max_degree(1);
        let net = greedy_bayes_fixed_k(&data, 3, &settings, &mut rng).unwrap();
        assert!(net.degree() <= 1);
    }

    #[test]
    fn first_k_pairs_have_prefix_parents() {
        // Algorithm 1's derivation of the first k conditionals relies on
        // Πᵢ = {X₁..Xᵢ₋₁} for i ≤ k and Π_{k+1} = {X₁..X_k}.
        let data = correlated_binary(300, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let k = 2;
        let settings = GreedySettings::private(ScoreKind::F, 1.0);
        let net = greedy_bayes_fixed_k(&data, k, &settings, &mut rng).unwrap();
        let children: Vec<usize> = net.pairs().iter().map(|p| p.child).collect();
        for (i, pair) in net.pairs().iter().enumerate().take(k + 1) {
            let parent_attrs: Vec<usize> = pair.parents.iter().map(|a| a.attr).collect();
            let expected: Vec<usize> = children[..i.min(k)].to_vec();
            let mut a = parent_attrs;
            let mut b = expected;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "pair {i} parents");
        }
    }

    fn mixed_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("b"),
            Attribute::categorical("c", 4)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
                .unwrap(),
            Attribute::categorical("e", 8)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(8).unwrap())
                .unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let c = rng.random_range(0..4u32);
                vec![u32::from(c >= 2), c, c * 2 + rng.random_range(0..2u32)]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn adaptive_greedy_respects_theta() {
        let data = mixed_dataset(1000, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let settings = GreedySettings::private(ScoreKind::R, 0.3);
        let net = greedy_bayes_adaptive(&data, 4.0, 0.7, false, &settings, &mut rng).unwrap();
        assert_eq!(net.len(), 3);
        // Every AP joint must satisfy the θ bound m ≤ nε₂/(2dθ).
        let bound = crate::theta::max_joint_cells(data.n(), data.d(), 0.7, 4.0);
        for pair in net.pairs() {
            let child_dim = data.schema().attribute(pair.child).domain_size() as f64;
            let parent_dim: f64 =
                pair.parents.iter().map(|ax| ax.size(data.schema()) as f64).product();
            assert!(
                pair.parents.is_empty() || child_dim * parent_dim <= bound + 1e-9,
                "AP pair exceeds θ bound"
            );
        }
    }

    #[test]
    fn adaptive_parallel_matches_sequential() {
        let data = mixed_dataset(600, 31);
        for (use_taxonomy, score) in
            [(false, ScoreKind::R), (true, ScoreKind::R), (false, ScoreKind::MutualInformation)]
        {
            let run = |threads: usize| {
                let mut rng = StdRng::seed_from_u64(32);
                let settings = GreedySettings::private(score, 0.4).with_threads(threads);
                greedy_bayes_adaptive(&data, 4.0, 0.6, use_taxonomy, &settings, &mut rng).unwrap()
            };
            let sequential = run(1);
            assert_eq!(run(4), sequential, "taxonomy={use_taxonomy} {score:?}");
        }
    }

    #[test]
    fn adaptive_with_taxonomy_can_generalize() {
        let data = mixed_dataset(1000, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let settings = GreedySettings::non_private(ScoreKind::R);
        // Tight budget: forces generalised parents if any.
        let net = greedy_bayes_adaptive(&data, 4.0, 0.05, true, &settings, &mut rng).unwrap();
        assert_eq!(net.len(), 3);
        for pair in net.pairs() {
            for ax in &pair.parents {
                let attr = data.schema().attribute(ax.attr);
                let height = attr.taxonomy().map_or(1, |t| t.height());
                assert!(ax.level < height);
            }
        }
    }

    #[test]
    fn tiny_budget_gives_empty_parents() {
        let data = mixed_dataset(50, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let settings = GreedySettings::private(ScoreKind::R, 0.01);
        let net = greedy_bayes_adaptive(&data, 4.0, 0.0001, false, &settings, &mut rng).unwrap();
        assert_eq!(net.degree(), 0, "θ-usefulness must reject all parent sets");
    }

    #[test]
    fn rejects_single_attribute() {
        let schema = Schema::new(vec![Attribute::binary("only")]).unwrap();
        let data = Dataset::from_rows(schema, &[vec![0], vec![1]]).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let settings = GreedySettings::private(ScoreKind::F, 1.0);
        assert!(greedy_bayes_fixed_k(&data, 1, &settings, &mut rng).is_err());
    }

    #[test]
    fn resolve_threads_floors_at_one() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }
}
