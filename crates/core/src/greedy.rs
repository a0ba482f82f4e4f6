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
//! Candidate joints come from one [`CountEngine`]. Before round 1 the search
//! counts every subset of at most `K` of the schema's binary attributes once
//! ([`CountEngine::subset_counts`]), with `K` the largest binary candidate
//! the caller's rule allows; every candidate whose child and parents are
//! binary builds its joint from those counts, and the rest are counted from
//! the rows. Each (child, parent set) candidate is scored once per search:
//! a round carries the last round's parent-set lists with one score row per
//! set, so a candidate it scored costs one read from a row, and only the
//! sets that hold the attribute placed last are scored, grouped by parent
//! set on a pool of scoped threads.
//! Scoring is deterministic, only the selection consumes randomness, and
//! every score is bit-identical to the sequential path, so the learned
//! network does not depend on the worker count.

use std::collections::HashMap;

use privbayes_dp::exponential::select_with_scale;
use privbayes_marginals::{probs_into, Axis, CountEngine, CountTable, SubsetCounts};
use rand::{Rng, RngExt};

use crate::error::PrivBayesError;
use crate::network::{ApPair, BayesianNetwork};
use crate::parent_sets::{maximal_parent_sets, maximal_parent_sets_generalized};
use crate::score::ScoreKind;
use crate::theta::{max_binary_parents, tau_for_child};

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

/// The candidate scores of one greedy search, carried from round to round.
///
/// A candidate's score depends only on the data, so each (child, parent
/// set) pair is scored once per fit. Each round lists, for each child domain
/// size, the sets `parent_sets` returns, and pairs every listed set with a
/// score row: one score per attribute, read at the children of that size.
/// A set that holds the attribute placed last is new and gets a fresh row.
/// Any other set was in the last round's list for that size (a
/// maximal set of `V ∪ {a}` that leaves out `a` is maximal in `V`), in the
/// same relative order: both rules list subsets in one lexicographic order
/// over a fixed attribute order, so removing `a`'s sets leaves the rest in
/// order. One cursor through the last list finds each such set and takes its
/// row; a set the cursor does not find is scored afresh, so the order
/// property buys speed and never correctness.
///
/// The fresh rows' (child, set) pairs are grouped by parent set across the
/// domain sizes. In a group, the tables of the children the subset lattice
/// covers (binary children under binary parents) are built from the
/// lattice, which is counted once before round 1 and kept for the fit; the
/// other children are counted by one [`CountEngine::child_joints`] pass. The
/// groups are dealt to the scoring threads in a strided split, which keeps
/// the threads' work comparable when one round's new groups are contiguous.
/// Candidate order never depends on the threads, so neither does the
/// learned network.
#[derive(Debug)]
struct CandidateScores<'e> {
    engine: &'e CountEngine,
    /// The all-ones counts of every subset of at most `K` binary attributes.
    lattice: SubsetCounts,
    score: ScoreKind,
    threads: usize,
    /// The current round's lists, one per child domain size.
    lists: Vec<SetList>,
    /// The current round's children, ascending, each with its list.
    children: Vec<(usize, usize)>,
}

/// One round's parent sets for the children of one domain size, each set
/// with a score row of one entry per attribute, read at those children.
#[derive(Debug)]
struct SetList {
    size: usize,
    sets: Vec<Vec<Axis>>,
    /// `sets.len()` rows of `d` scores, indexed by child.
    rows: Vec<f64>,
}

impl SetList {
    /// The list of `sets` for the children of domain `size`, or of the empty
    /// set alone when `sets` is empty. A set takes its row from `last`
    /// unless it holds `newest` or the cursor does not find it; the indices
    /// of the sets with fresh rows are returned with the list.
    fn carry(
        size: usize,
        mut sets: Vec<Vec<Axis>>,
        last: Option<&SetList>,
        newest: Option<usize>,
        d: usize,
    ) -> (Self, Vec<usize>) {
        if sets.is_empty() {
            // Algorithm 4 lines 7–8: even Pr[X] violates θ-usefulness;
            // model X as independent so every attribute is covered.
            sets.push(Vec::new());
        }
        let (last_sets, last_rows) =
            last.map_or((&[][..], &[][..]), |l| (&l.sets[..], &l.rows[..]));
        let (mut rows, mut fresh, mut cursor) = (Vec::with_capacity(sets.len() * d), Vec::new(), 0);
        for (j, set) in sets.iter().enumerate() {
            let found = if set.iter().any(|ax| Some(ax.attr) == newest) {
                None
            } else {
                last_sets[cursor..].iter().position(|s| s == set).map(|k| cursor + k)
            };
            if let Some(k) = found {
                cursor = k + 1;
                rows.extend_from_slice(&last_rows[k * d..(k + 1) * d]);
            } else {
                rows.resize(rows.len() + d, f64::NAN);
                fresh.push(j);
            }
        }
        (Self { size, sets, rows }, fresh)
    }
}

/// A parent set to score, as its list and index there, with the children to
/// score under it, each with its list and its entry in that list's rows.
type Group = ((usize, usize), Vec<usize>, Vec<(usize, usize)>);

impl<'e> CandidateScores<'e> {
    /// An empty score store over `engine`, whose lattice holds every subset
    /// of at most `binary_arity` binary attributes; `threads` as
    /// [`GreedySettings::threads`].
    ///
    /// # Errors
    /// Returns [`PrivBayesError::InvalidConfig`] when the lattice's length
    /// overflows.
    fn new(
        engine: &'e CountEngine,
        score: ScoreKind,
        threads: Option<usize>,
        binary_arity: usize,
    ) -> Result<Self, PrivBayesError> {
        let threads = resolve_threads(threads);
        let lattice = engine.subset_counts(binary_arity, threads).ok_or_else(|| {
            PrivBayesError::InvalidConfig(format!(
                "the subsets of at most {binary_arity} binary attributes are too many to count"
            ))
        })?;
        let (lists, children) = (Vec::new(), Vec::new());
        Ok(Self { engine, lattice, score, threads, lists, children })
    }

    /// One round's scores, in candidate order: each attribute not in
    /// `placed`, ascending, paired with every set that `parent_sets` returns
    /// for its domain size, or with the empty set when it returns none.
    /// `parent_sets` is called once per distinct domain size.
    ///
    /// # Errors
    /// Returns the first score failure, in parent-set order.
    fn round(
        &mut self,
        placed: &[usize],
        mut parent_sets: impl FnMut(usize) -> Vec<Vec<Axis>>,
    ) -> Result<Vec<f64>, PrivBayesError> {
        let (engine, score) = (self.engine, self.score);
        let schema = engine.schema();
        let d = schema.len();
        // The lists in the order of their first children, and per list the
        // indices of its sets with fresh rows.
        let mut lists: Vec<SetList> = Vec::new();
        let (mut fresh, mut children) = (Vec::new(), Vec::new());
        for child in (0..d).filter(|c| !placed.contains(c)) {
            let size = schema.attribute(child).domain_size();
            let l = lists.iter().position(|list| list.size == size).unwrap_or_else(|| {
                let last = self.lists.iter().find(|list| list.size == size);
                let sets = parent_sets(size);
                let (list, unscored) = SetList::carry(size, sets, last, placed.last().copied(), d);
                lists.push(list);
                fresh.push(unscored);
                lists.len() - 1
            });
            children.push((child, l));
        }

        // The fresh pairs grouped by parent set across the lists, groups and
        // their children in candidate order.
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: HashMap<&[Axis], usize> = HashMap::new();
        for &(child, l) in &children {
            for &j in &fresh[l] {
                let g = *group_of.entry(&lists[l].sets[j]).or_insert_with(|| {
                    groups.push(((l, j), Vec::new(), Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(child);
                groups[g].2.push((l, j * d + child));
            }
        }
        let lattice = &self.lattice;
        let score_group = |&((l, j), ref children, _): &Group| {
            let parents = &lists[l].sets[j];
            let (binary, counted): (Vec<usize>, Vec<usize>) =
                children.iter().copied().partition(|&child| lattice.covers(parents, child));
            let binary = lattice.child_counts(parents, &binary);
            let mut binary = binary.chunks_exact(2 << parents.len());
            let counted = engine.child_joints(parents, &counted);
            let mut counted = counted.iter().map(CountTable::counts);
            let mut joint = Vec::new();
            children
                .iter()
                .map(|&child| {
                    let counts =
                        if lattice.covers(parents, child) { binary.next() } else { counted.next() };
                    probs_into(counts.expect("one table per child"), engine.n(), &mut joint);
                    score.compute(&joint, schema.attribute(child).domain_size(), engine.n())
                })
                .collect::<Result<Vec<f64>, PrivBayesError>>()
        };
        let scored = map_strided(&groups, self.threads.min(groups.len()), score_group);
        for ((_, _, entries), group_scores) in groups.iter().zip(scored) {
            for (&(l, entry), score) in entries.iter().zip(group_scores?) {
                lists[l].rows[entry] = score;
            }
        }
        let scores = children
            .iter()
            .flat_map(|&(child, l)| lists[l].rows.iter().skip(child).step_by(d).copied())
            .collect();
        (self.lists, self.children) = (lists, children);
        Ok(scores)
    }

    /// The `i`-th candidate of the current round: its child and parent set.
    fn candidate(&self, mut i: usize) -> (usize, Vec<Axis>) {
        for &(child, l) in &self.children {
            let sets = &self.lists[l].sets;
            if i < sets.len() {
                return (child, sets[i].clone());
            }
            i -= sets.len();
        }
        panic!("candidate index out of range");
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
/// `binary_arity` is `K`, the most axes a candidate over raw binary
/// attributes can have: the largest parent set `parent_sets` can return for
/// a child of domain size 2, plus the child. Before round 1 the search counts
/// every subset of at most `K` of the schema's binary attributes once, and
/// each binary candidate's joint is built from those counts; a candidate
/// outside them is counted from the rows.
///
/// # Errors
/// Returns [`PrivBayesError`] on score failures, a failed selection, an
/// invalid network, or a lattice too large to count.
pub fn greedy_bayes<R: Rng + ?Sized>(
    engine: &CountEngine,
    placed: Vec<ApPair>,
    composition: usize,
    settings: &GreedySettings,
    binary_arity: usize,
    mut parent_sets: impl FnMut(&[usize], usize) -> Vec<Vec<Axis>>,
    rng: &mut R,
) -> Result<BayesianNetwork, PrivBayesError> {
    let schema = engine.schema();
    let d = schema.len();
    let mut scorer = CandidateScores::new(engine, settings.score, settings.threads, binary_arity)?;
    let mut v: Vec<usize> = placed.iter().map(|pair| pair.child).collect();
    let mut pairs = placed;
    while v.len() < d {
        let scores = scorer.round(&v, |size| parent_sets(&v, size))?;
        let chosen = select(&scores, settings, composition, engine.n(), schema.all_binary(), rng)?;
        let (child, parents) = scorer.candidate(chosen);
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
    greedy_bayes(engine, root, d - 1, settings, k + 1, sets, rng)
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
    let binary_tau = tau_for_child(n, d, epsilon2, theta, 2);
    let binary_arity = max_binary_parents(binary_tau, settings.max_degree.min(d - 1)) + 1;
    let sets = |v: &[usize], child_domain| {
        let tau = tau_for_child(n, d, epsilon2, theta, child_domain);
        if use_taxonomy {
            maximal_parent_sets_generalized(v, &level_sizes, tau, settings.max_degree)
        } else {
            maximal_parent_sets(v, &domain_sizes, tau, settings.max_degree)
        }
    };
    greedy_bayes(engine, root, d - 1, settings, binary_arity, sets, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Dataset, Schema, TaxonomyTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

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
    fn each_subset_is_counted_once_per_fit() {
        // Ten binary attributes at k = 2: every candidate reads the lattice
        // of the subsets of at most 3 attributes, each counted once, and the
        // search reads no rows.
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
        assert_eq!(net.degree(), 2);
        let stats = engine.stats();
        assert_eq!(stats.subsets, 10 + 45 + 120, "every non-empty subset of at most 3 of 10");
        assert_eq!(stats.scans, 0, "no candidate reads the rows");
    }

    #[test]
    fn mixed_schemas_count_only_non_binary_candidates_from_rows() {
        // Binary groups read the lattice; a candidate with a categorical
        // child or parent is counted from the rows, once per fit.
        let schema = Schema::new(vec![
            Attribute::binary("b0"),
            Attribute::categorical("c", 3).unwrap(),
            Attribute::binary("b1"),
            Attribute::binary("b2"),
            Attribute::categorical("e", 4).unwrap(),
            Attribute::binary("b3"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        let rows: Vec<Vec<u32>> = (0..400)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                let c = a + rng.random_range(0..2u32);
                let b1 = a ^ u32::from(rng.random_bool(0.2));
                let b2 = a ^ u32::from(rng.random_bool(0.2));
                vec![a, c, b1, b2, rng.random_range(0..4u32), a]
            })
            .collect();
        let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
        for threads in [1, 3] {
            let engine = CountEngine::new(&data);
            let settings = GreedySettings::private(ScoreKind::R, 1.0).with_threads(threads);
            let net =
                greedy_bayes_fixed_k_engine(&engine, 2, &settings, &mut StdRng::seed_from_u64(20))
                    .unwrap();
            let order: Vec<usize> = net.pairs().iter().map(|p| p.child).collect();
            let mut distinct = std::collections::HashSet::new();
            for placed in 1..order.len() {
                for set in combinations(&order[..placed], 2.min(placed)) {
                    for &child in &order[placed..] {
                        let binary = |a: usize| schema.attribute(a).is_binary();
                        if !(binary(child) && set.iter().all(|&a| binary(a))) {
                            distinct.insert((child, set.clone()));
                        }
                    }
                }
            }
            let stats = engine.stats();
            assert_eq!(stats.scans, distinct.len(), "threads = {threads}");
            assert_eq!(stats.subsets, 4 + 6 + 4, "every subset of at most 3 of 4 binary");
        }
    }

    #[test]
    fn an_uncountable_lattice_is_refused() {
        // Every subset of at most 64 of 64 binary attributes overflows.
        let schema =
            Schema::new((0..64).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let data = Dataset::from_rows(schema, &[vec![0; 64], vec![1; 64]]).unwrap();
        let engine = CountEngine::new(&data);
        let settings = GreedySettings::non_private(ScoreKind::R);
        let refused =
            greedy_bayes_fixed_k_engine(&engine, 63, &settings, &mut StdRng::seed_from_u64(21));
        assert!(matches!(refused, Err(PrivBayesError::InvalidConfig(_))), "{refused:?}");
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

    /// What one checked search saw: its pairs, whether a round listed one
    /// set for several child domain sizes, and whether a round fell back to
    /// `(X, ∅)`.
    struct Checked {
        pairs: Vec<ApPair>,
        shared: bool,
        fallback: bool,
    }

    /// Runs the search `greedy_bayes` runs from `roots`, and checks every
    /// round's carried scores against the whole candidate list scored from
    /// scratch (a single joint per candidate on a second engine), bit for
    /// bit and in order. The scorer's lattice covers nothing, so its
    /// engine's scans count the pairs it scored: each distinct (child, set)
    /// pair must be scored exactly once. The network must be the one
    /// `greedy_bayes` learns.
    fn check_carried_scores(
        data: &Dataset,
        roots: &[usize],
        settings: &GreedySettings,
        parent_sets: impl Fn(&[usize], usize) -> Vec<Vec<Axis>>,
        seed: u64,
    ) -> Checked {
        let schema = data.schema();
        let (n, d) = (data.n(), schema.len());
        let (engine, fresh) = (CountEngine::new(data), CountEngine::new(data));
        let mut scorer =
            CandidateScores::new(&engine, settings.score, settings.threads, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = roots.to_vec();
        let mut pairs: Vec<ApPair> = roots.iter().map(|&r| ApPair::new(r, vec![])).collect();
        let (mut distinct, mut shared, mut fallback) = (HashSet::new(), false, false);
        while v.len() < d {
            let carried = scorer.round(&v, |size| parent_sets(&v, size)).unwrap();
            let mut candidates = Vec::new();
            let mut sizes_of: HashMap<Vec<Axis>, HashSet<usize>> = HashMap::new();
            for child in (0..d).filter(|c| !v.contains(c)) {
                let size = schema.attribute(child).domain_size();
                let mut sets = parent_sets(&v, size);
                fallback |= sets.is_empty();
                if sets.is_empty() {
                    sets.push(Vec::new());
                }
                for set in sets {
                    sizes_of.entry(set.clone()).or_default().insert(size);
                    candidates.push((child, set));
                }
            }
            shared |= sizes_of.values().any(|sizes| sizes.len() > 1);
            let expected: Vec<u64> = candidates
                .iter()
                .map(|(child, set)| {
                    let axes: Vec<Axis> = set.iter().copied().chain([Axis::raw(*child)]).collect();
                    let joint = fresh.joint(&axes);
                    let size = schema.attribute(*child).domain_size();
                    settings.score.compute(&joint, size, n).unwrap().to_bits()
                })
                .collect();
            let carried_bits: Vec<u64> = carried.iter().map(|s| s.to_bits()).collect();
            assert_eq!(carried_bits, expected, "round with {} placed", v.len());
            distinct.extend(candidates.iter().cloned());
            assert_eq!(engine.stats().scans, distinct.len(), "a pair scored twice or never");
            let composition = d - roots.len();
            let chosen =
                select(&carried, settings, composition, n, schema.all_binary(), &mut rng).unwrap();
            let (child, parents) = scorer.candidate(chosen);
            assert_eq!((child, &parents), (candidates[chosen].0, &candidates[chosen].1));
            v.push(child);
            pairs.push(ApPair::generalized(child, parents));
        }
        let placed = roots.iter().map(|&r| ApPair::new(r, vec![])).collect();
        let composition = d - roots.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let learned = greedy_bayes(
            &CountEngine::new(data),
            placed,
            composition,
            settings,
            3,
            |v, size| parent_sets(v, size),
            &mut rng,
        )
        .unwrap();
        assert_eq!(learned.pairs(), &pairs[..], "the checked search is not the search");
        Checked { pairs, shared, fallback }
    }

    /// Seven attributes: three binary, one ternary, and sizes 4 and 8 with
    /// balanced taxonomies, all loosely tied to one hidden draw.
    fn taxonomy_dataset(n: usize, seed: u64) -> Dataset {
        let balanced = |name: &str, size: usize| {
            Attribute::categorical(name, size)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(size).unwrap())
                .unwrap()
        };
        let schema = Schema::new(vec![
            Attribute::binary("b0"),
            balanced("c4", 4),
            Attribute::binary("b1"),
            Attribute::categorical("t3", 3).unwrap(),
            balanced("e8", 8),
            Attribute::binary("b2"),
            balanced("f4", 4),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let h = rng.random_range(0..8u32);
                let flip = |rng: &mut StdRng, v: u32, m: u32| {
                    if rng.random_bool(0.3) {
                        rng.random_range(0..m)
                    } else {
                        v % m
                    }
                };
                vec![
                    flip(&mut rng, h / 4, 2),
                    flip(&mut rng, h / 2, 4),
                    flip(&mut rng, h, 2),
                    flip(&mut rng, h, 3),
                    flip(&mut rng, h, 8),
                    flip(&mut rng, h / 2, 2),
                    flip(&mut rng, h + 1, 4),
                ]
            })
            .collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn carried_scores_equal_fresh_scores_under_algorithm_2() {
        // Sets in placement order, from (V choose k).
        let schema =
            Schema::new((0..7).map(|i| Attribute::binary(format!("x{i}"))).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let rows: Vec<Vec<u32>> = (0..500)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                (0..7).map(|i| a ^ u32::from(rng.random_bool(0.1 + 0.05 * f64::from(i)))).collect()
            })
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        for (k, score, threads) in
            [(2, ScoreKind::MutualInformation, 1), (3, ScoreKind::F, 2), (2, ScoreKind::R, 3)]
        {
            let settings = GreedySettings::private(score, 0.8).with_threads(threads);
            let sets = |v: &[usize], _| {
                combinations(v, k.min(v.len()))
                    .into_iter()
                    .map(|set| set.into_iter().map(Axis::raw).collect())
                    .collect()
            };
            let checked = check_carried_scores(&data, &[4], &settings, sets, 42);
            assert_eq!(checked.pairs.len(), 7);
        }
    }

    #[test]
    fn carried_scores_equal_fresh_scores_under_algorithm_4_with_taxonomies() {
        // Several child domain sizes share sets, so one group serves them.
        let data = taxonomy_dataset(600, 43);
        let schema = data.schema();
        let (n, d) = (data.n(), schema.len());
        let level_sizes: Vec<Vec<usize>> = schema
            .attributes()
            .iter()
            .map(|a| match a.taxonomy() {
                Some(t) => (0..t.height()).map(|l| t.level_size(l)).collect(),
                None => vec![a.domain_size()],
            })
            .collect();
        for (epsilon2, threads) in [(2.0, 1), (6.0, 2)] {
            let settings = GreedySettings::private(ScoreKind::R, 0.5).with_threads(threads);
            let sets = |v: &[usize], size| {
                let tau = tau_for_child(n, d, epsilon2, 4.0, size);
                maximal_parent_sets_generalized(v, &level_sizes, tau, 3)
            };
            let checked = check_carried_scores(&data, &[2], &settings, sets, 44);
            assert!(checked.shared, "no set served two domain sizes at ε₂ = {epsilon2}");
            assert!(checked.pairs.iter().any(|p| p.parents.iter().any(|ax| ax.level > 0)));
        }
    }

    #[test]
    fn carried_scores_equal_fresh_scores_with_the_empty_fallback() {
        // τ < 1 for the size-8 child only: it falls back to (X, ∅) every
        // round while the others draw sets.
        let data = taxonomy_dataset(600, 45);
        let schema = data.schema();
        let (n, d) = (data.n(), schema.len());
        assert!(tau_for_child(n, d, 0.5, 4.0, 8) < 1.0 && tau_for_child(n, d, 0.5, 4.0, 4) > 1.0);
        let settings = GreedySettings::private(ScoreKind::R, 0.5).with_threads(2);
        let sizes = schema.domain_sizes();
        let sets = |v: &[usize], size| {
            maximal_parent_sets(v, &sizes, tau_for_child(n, d, 0.5, 4.0, size), usize::MAX)
        };
        let checked = check_carried_scores(&data, &[0], &settings, sets, 46);
        assert!(checked.fallback);
        let e8 = checked.pairs.iter().find(|p| p.child == 4).unwrap();
        assert!(e8.parents.is_empty());
    }

    #[test]
    fn carried_scores_equal_fresh_scores_from_two_roots() {
        // The relational fact model's search: two evidence roots placed
        // before round 1, Algorithm 5's sets, no privacy.
        let data = taxonomy_dataset(400, 47);
        let schema = data.schema();
        let (n, d) = (data.n(), schema.len());
        let sizes = schema.domain_sizes();
        for settings in [
            GreedySettings::non_private(ScoreKind::R).with_threads(1),
            GreedySettings::private(ScoreKind::R, 1.0).with_threads(3),
        ] {
            let sets = |v: &[usize], size| {
                maximal_parent_sets(v, &sizes, tau_for_child(n, d, 4.0, 2.0, size), 3)
            };
            let checked = check_carried_scores(&data, &[3, 1], &settings, sets, 48);
            assert_eq!(checked.pairs[..2], [ApPair::new(3, vec![]), ApPair::new(1, vec![])]);
        }
    }

    #[test]
    fn resolve_threads_floors_at_one() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }
}
