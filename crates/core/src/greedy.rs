//! GreedyBayes network learning (Algorithms 2 and 4).
//!
//! [`greedy_bayes`] is the one search. Each round it scores every unplaced
//! attribute against the parent sets a rule draws from the placed ones,
//! selects one pair by the exponential mechanism at ε₁/c (or, without
//! privacy, by argmax: the paper's NoPrivacy / BestNetwork lines) and places
//! it. The learners differ only in their arguments:
//!
//! * Algorithm 2 ([`greedy_bayes_fixed_k_engine`], binary encodings) draws
//!   parent sets from `(V choose min(k,|V|))`;
//! * Algorithm 4 ([`greedy_bayes_adaptive_engine`], general domains) draws
//!   the θ-usefulness-constrained maximal parent sets;
//! * both start from one random attribute with c = d − 1; the relational
//!   fact model starts from its evidence roots with c = d_f·m.
//!
//! Candidate joints are counted by one [`CountEngine`], and each (child,
//! parent set) candidate is counted and scored once per search, a round's
//! new candidates grouped by parent set on a pool of scoped threads.
//! Scoring is deterministic, only the selection consumes randomness, and
//! every score is bit-identical to the sequential path, so the learned
//! network does not depend on the worker count.

use std::collections::HashMap;

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
    /// The attribute to place.
    child: usize,
    /// Its candidate parents, in the order its joint is counted.
    parents: Vec<Axis>,
}

/// The candidate scores of one greedy search, kept for the whole fit.
///
/// A candidate's score depends only on the data, so each (child, parent
/// set) pair is counted and scored once per fit. A round's unscored
/// candidates are those whose parent set holds the attribute placed last
/// (a maximal set of `V ∪ {a}` that leaves out `a` is maximal in `V`);
/// they are grouped by parent set, and each group is counted by one
/// [`CountEngine::child_joints`] pass. The groups are dealt to the scoring
/// threads in a strided split, which keeps the threads' work comparable
/// when one round's new groups are contiguous. Candidate order never
/// depends on the threads, so neither does the learned network.
#[derive(Debug)]
struct CandidateScores<'e> {
    engine: &'e CountEngine,
    score: ScoreKind,
    threads: usize,
    /// Kept scores, indexed by child and keyed by parent set.
    kept: Vec<HashMap<Vec<Axis>, f64>>,
}

impl<'e> CandidateScores<'e> {
    /// An empty score store over `engine`; `threads` as
    /// [`GreedySettings::threads`].
    fn new(engine: &'e CountEngine, score: ScoreKind, threads: Option<usize>) -> Self {
        let kept = vec![HashMap::new(); engine.schema().len()];
        Self { engine, score, threads: resolve_threads(threads), kept }
    }

    /// One round's candidates and their scores, in candidate order: each
    /// child paired with every set that `parent_sets` returns for the
    /// child's domain size, or with the empty set when it returns none.
    /// `parent_sets` is called once per distinct domain size. `children`
    /// are the attributes still to place; the kept scores of every other
    /// attribute are dropped.
    ///
    /// # Errors
    /// Returns the first score failure, in parent-set order.
    fn round(
        &mut self,
        children: impl IntoIterator<Item = usize>,
        mut parent_sets: impl FnMut(usize) -> Vec<Vec<Axis>>,
    ) -> Result<(Vec<Candidate>, Vec<f64>), PrivBayesError> {
        let (engine, score) = (self.engine, self.score);
        let schema = engine.schema();
        let children: Vec<usize> = children.into_iter().collect();
        for (child, kept) in self.kept.iter_mut().enumerate() {
            if !children.contains(&child) {
                *kept = HashMap::new();
            }
        }
        let mut sets_by_size: Vec<(usize, Vec<Vec<Axis>>)> = Vec::new();
        let mut candidates = Vec::new();
        for child in children {
            let size = schema.attribute(child).domain_size();
            let i = sets_by_size.iter().position(|&(s, _)| s == size).unwrap_or_else(|| {
                sets_by_size.push((size, parent_sets(size)));
                sets_by_size.len() - 1
            });
            match sets_by_size[i].1.as_slice() {
                // Algorithm 4 lines 7–8: even Pr[X] violates θ-usefulness;
                // model X as independent so every attribute is covered.
                [] => candidates.push(Candidate { child, parents: Vec::new() }),
                sets => candidates.extend(
                    sets.iter().map(|parents| Candidate { child, parents: parents.clone() }),
                ),
            }
        }

        // The kept scores in candidate order, and the indices of the
        // unscored candidates grouped by parent set in candidate order.
        let mut scores: Vec<Option<f64>> = Vec::with_capacity(candidates.len());
        let mut groups: Vec<(&[Axis], Vec<usize>)> = Vec::new();
        let mut group_of: HashMap<&[Axis], usize> = HashMap::new();
        for (i, c) in candidates.iter().enumerate() {
            let kept = self.kept[c.child].get(&c.parents).copied();
            if kept.is_none() {
                let g = *group_of.entry(&c.parents).or_insert_with(|| {
                    groups.push((&c.parents, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(i);
            }
            scores.push(kept);
        }
        let score_group = |(parents, at): &(&[Axis], Vec<usize>)| {
            let children: Vec<usize> = at.iter().map(|&i| candidates[i].child).collect();
            let mut joint = Vec::new();
            let tables = engine.child_joints(parents, &children);
            tables
                .iter()
                .zip(&children)
                .map(|(table, &child)| {
                    table.probs_into(engine.n(), &mut joint);
                    score.compute(&joint, schema.attribute(child).domain_size(), engine.n())
                })
                .collect::<Result<Vec<f64>, PrivBayesError>>()
        };
        let scored = map_strided(&groups, self.threads.min(groups.len()), score_group);
        for ((parents, at), group_scores) in groups.iter().zip(scored) {
            for (&i, score) in at.iter().zip(group_scores?) {
                self.kept[candidates[i].child].insert(parents.to_vec(), score);
                scores[i] = Some(score);
            }
        }
        let scores = scores.into_iter().map(|s| s.expect("every candidate is scored")).collect();
        Ok((candidates, scores))
    }
}

/// `f` over every item, in item order, on `workers` scoped threads that
/// take the items in a strided split: worker `w` takes items `w`,
/// `w + workers`, ….
fn map_strided<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || items.iter().skip(w).step_by(workers).map(f).collect()))
            .collect();
        let mut dealt: Vec<std::vec::IntoIter<R>> = handles
            .into_iter()
            .map(|h| h.join().expect("scoring worker panicked"))
            .map(Vec::into_iter)
            .collect();
        (0..items.len()).map(|i| dealt[i % workers].next().expect("one result per item")).collect()
    })
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

/// Selects one candidate: the exponential mechanism with Δ = c·S/ε₁, so
/// that `composition` = c draws compose to ε₁ (§4.2), or the first argmax.
fn select<R: Rng + ?Sized>(
    scores: &[f64],
    settings: &GreedySettings,
    composition: usize,
    n: usize,
    all_binary: bool,
    rng: &mut R,
) -> Result<usize, PrivBayesError> {
    match settings.epsilon1 {
        Some(eps1) => {
            let sensitivity = settings.score.sensitivity(n, all_binary);
            let delta = composition as f64 * sensitivity / eps1;
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

/// The GreedyBayes search: starting from the `placed` pairs, each round
/// scores every unplaced attribute against the sets `parent_sets` returns
/// for (the placed attributes in placement order, the child's domain size),
/// selects one candidate and places it, until every attribute is placed.
///
/// Each selection spends ε₁/`composition` of [`GreedySettings::epsilon1`]:
/// Algorithms 2 and 4 pass `d − 1`, one draw per attribute placed after the
/// first. One `rng` draw is taken per round, in round order, and none when
/// ε₁ is `None`.
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures, a failed selection or an
/// invalid network.
pub fn greedy_bayes<R: Rng + ?Sized>(
    engine: &CountEngine,
    placed: Vec<ApPair>,
    composition: usize,
    settings: &GreedySettings,
    mut parent_sets: impl FnMut(&[usize], usize) -> Vec<Vec<Axis>>,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let schema = engine.schema();
    let d = schema.len();
    let mut scorer = CandidateScores::new(engine, settings.score, settings.threads);
    let mut v: Vec<usize> = placed.iter().map(|pair| pair.child).collect();
    let mut pairs = placed;
    while v.len() < d {
        let unplaced = (0..d).filter(|x| !v.contains(x));
        let (mut candidates, scores) = scorer.round(unplaced, |size| parent_sets(&v, size))?;
        let chosen = select(&scores, settings, composition, engine.n(), schema.all_binary(), rng)?;
        let Candidate { child, parents } = candidates.swap_remove(chosen);
        v.push(child);
        pairs.push(ApPair::generalized(child, parents));
    }
    BayesianNetwork::new(pairs, schema)
}

/// Line 1 of Algorithms 2 and 4: one attribute drawn uniformly at random,
/// placed without parents.
fn random_root<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Result<Vec<ApPair>, PrivBayesError> {
    if d < 2 {
        return Err(PrivBayesError::InvalidConfig("need at least two attributes".into()));
    }
    Ok(vec![ApPair::new(rng.random_range(0..d), vec![])])
}

/// Algorithm 2: GreedyBayes with a fixed degree `k` (binary encodings). The
/// learned network depends only on the data `engine` counts and `rng`.
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures or invalid configuration.
pub fn greedy_bayes_fixed_k_engine<R: Rng + ?Sized>(
    engine: &CountEngine,
    k: usize,
    settings: &GreedySettings,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let d = engine.schema().len();
    let root = random_root(d, rng)?;
    let k = k.min(settings.max_degree).min(d - 1);
    let sets = |v: &[usize], _| {
        combinations(v, k.min(v.len()))
            .into_iter()
            .map(|set| set.into_iter().map(Axis::raw).collect())
            .collect()
    };
    greedy_bayes(engine, root, d - 1, settings, sets, rng)
}

/// Algorithm 4: GreedyBayes with θ-usefulness-driven maximal parent sets
/// (vanilla and hierarchical encodings). `use_taxonomy` enables generalised
/// parent sets (Algorithm 6) where taxonomy trees are available. The
/// learned network depends only on the data `engine` counts and `rng`.
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
    let (n, d) = (engine.n(), schema.len());
    let root = random_root(d, rng)?;
    let domain_sizes = schema.domain_sizes();
    let level_sizes: Vec<Vec<usize>> = schema
        .attributes()
        .iter()
        .map(|a| match (use_taxonomy, a.taxonomy()) {
            (true, Some(t)) => (0..t.height()).map(|l| t.level_size(l)).collect(),
            _ => vec![a.domain_size()],
        })
        .collect();
    // τ depends on the child only through its domain size.
    let sets = |v: &[usize], child_domain| {
        let tau = tau_for_child(n, d, epsilon2, theta, child_domain);
        if use_taxonomy {
            maximal_parent_sets_generalized(v, &level_sizes, tau, settings.max_degree)
        } else {
            maximal_parent_sets(v, &domain_sizes, tau, settings.max_degree)
                .into_iter()
                .map(|s| s.into_iter().map(Axis::raw).collect())
                .collect()
        }
    };
    greedy_bayes(engine, root, d - 1, settings, sets, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset, Schema, TaxonomyTree};
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
        let engine = CountEngine::new(&correlated_binary(2000, 1));
        let mut rng = StdRng::seed_from_u64(2);
        let settings = GreedySettings::non_private(ScoreKind::MutualInformation);
        let net = greedy_bayes_fixed_k_engine(&engine, 1, &settings, &mut rng).unwrap();
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
        let engine = CountEngine::new(&correlated_binary(500, 3));
        let mut rng = StdRng::seed_from_u64(4);
        for score in [ScoreKind::MutualInformation, ScoreKind::F, ScoreKind::R] {
            let settings = GreedySettings::private(score, 0.5);
            let net = greedy_bayes_fixed_k_engine(&engine, 2, &settings, &mut rng).unwrap();
            assert_eq!(net.len(), 4);
            assert!(net.degree() <= 2);
        }
    }

    #[test]
    fn parallel_scoring_is_bit_identical_to_sequential() {
        let engine = CountEngine::new(&correlated_binary(800, 21));
        for score in [ScoreKind::MutualInformation, ScoreKind::F, ScoreKind::R] {
            let run = |threads: usize| {
                let mut rng = StdRng::seed_from_u64(77);
                let settings = GreedySettings::private(score, 0.6).with_threads(threads);
                greedy_bayes_fixed_k_engine(&engine, 2, &settings, &mut rng).unwrap()
            };
            let sequential = run(1);
            for threads in [2, 3, 8] {
                assert_eq!(run(threads), sequential, "{score:?} threads={threads}");
            }
        }
    }

    #[test]
    fn each_candidate_is_counted_once_per_fit() {
        // Ten binary attributes: every round re-offers most of the previous
        // round's candidates, and only the new ones may be counted.
        let schema =
            Schema::new((0..10).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<u32>> = (0..321)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                (0..10).map(|_| a ^ u32::from(rng.random_bool(0.3))).collect()
            })
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let engine = CountEngine::new(&data);
        let settings = GreedySettings::private(ScoreKind::R, 1.0).with_threads(3);
        let net =
            greedy_bayes_fixed_k_engine(&engine, 2, &settings, &mut StdRng::seed_from_u64(18))
                .unwrap();

        let order: Vec<usize> = net.pairs().iter().map(|p| p.child).collect();
        let mut distinct = std::collections::HashSet::new();
        for placed in 1..order.len() {
            let v = &order[..placed];
            for set in combinations(v, 2.min(placed)) {
                for &child in &order[placed..] {
                    distinct.insert((child, set.clone()));
                }
            }
        }
        assert_eq!(engine.stats().scans, distinct.len());
    }

    #[test]
    fn fixed_k_zero_yields_independent_network() {
        let engine = CountEngine::new(&correlated_binary(200, 5));
        let mut rng = StdRng::seed_from_u64(6);
        let settings = GreedySettings::private(ScoreKind::F, 0.1);
        let net = greedy_bayes_fixed_k_engine(&engine, 0, &settings, &mut rng).unwrap();
        assert_eq!(net.degree(), 0);
    }

    #[test]
    fn max_degree_caps_parent_sets() {
        let engine = CountEngine::new(&correlated_binary(500, 7));
        let mut rng = StdRng::seed_from_u64(8);
        let settings = GreedySettings::private(ScoreKind::F, 1.0).with_max_degree(1);
        let net = greedy_bayes_fixed_k_engine(&engine, 3, &settings, &mut rng).unwrap();
        assert!(net.degree() <= 1);
    }

    #[test]
    fn first_k_pairs_have_prefix_parents() {
        // Algorithm 1's derivation of the first k conditionals relies on
        // Πᵢ = {X₁..Xᵢ₋₁} for i ≤ k and Π_{k+1} = {X₁..X_k}.
        let engine = CountEngine::new(&correlated_binary(300, 9));
        let mut rng = StdRng::seed_from_u64(10);
        let k = 2;
        let settings = GreedySettings::private(ScoreKind::F, 1.0);
        let net = greedy_bayes_fixed_k_engine(&engine, k, &settings, &mut rng).unwrap();
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
        let engine = CountEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(12);
        let settings = GreedySettings::private(ScoreKind::R, 0.3);
        let net =
            greedy_bayes_adaptive_engine(&engine, 4.0, 0.7, false, &settings, &mut rng).unwrap();
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
        let engine = CountEngine::new(&mixed_dataset(600, 31));
        for (use_taxonomy, score) in
            [(false, ScoreKind::R), (true, ScoreKind::R), (false, ScoreKind::MutualInformation)]
        {
            let run = |threads: usize| {
                let mut rng = StdRng::seed_from_u64(32);
                let settings = GreedySettings::private(score, 0.4).with_threads(threads);
                greedy_bayes_adaptive_engine(&engine, 4.0, 0.6, use_taxonomy, &settings, &mut rng)
                    .unwrap()
            };
            let sequential = run(1);
            for threads in [2, 3, 8] {
                assert_eq!(run(threads), sequential, "taxonomy={use_taxonomy} {score:?} {threads}");
            }
        }
    }

    #[test]
    fn adaptive_with_taxonomy_can_generalize() {
        let data = mixed_dataset(1000, 13);
        let engine = CountEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(14);
        let settings = GreedySettings::non_private(ScoreKind::R);
        // Tight budget: forces generalised parents if any.
        let net =
            greedy_bayes_adaptive_engine(&engine, 4.0, 0.05, true, &settings, &mut rng).unwrap();
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
        let engine = CountEngine::new(&mixed_dataset(50, 15));
        let mut rng = StdRng::seed_from_u64(16);
        let settings = GreedySettings::private(ScoreKind::R, 0.01);
        let net =
            greedy_bayes_adaptive_engine(&engine, 4.0, 0.0001, false, &settings, &mut rng).unwrap();
        assert_eq!(net.degree(), 0, "θ-usefulness must reject all parent sets");
    }

    #[test]
    fn rejects_single_attribute() {
        let schema = Schema::new(vec![Attribute::binary("only")]).unwrap();
        let data = Dataset::from_rows(schema, &[vec![0], vec![1]]).unwrap();
        let engine = CountEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(17);
        let settings = GreedySettings::private(ScoreKind::F, 1.0);
        assert!(greedy_bayes_fixed_k_engine(&engine, 1, &settings, &mut rng).is_err());
    }

    #[test]
    fn resolve_threads_floors_at_one() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }
}
