//! Maximal parent-set enumeration (Algorithms 5 and 6).
//!
//! Given the remaining candidate attributes `V` and a domain-size budget τ
//! (from θ-usefulness), these routines enumerate every *maximal* subset of
//! `V` whose joint domain fits within τ — plain subsets for the vanilla
//! encoding (Algorithm 5), and generalised subsets mixing taxonomy levels for
//! the hierarchical encoding (Algorithm 6).
//!
//! Both are one depth-first walk over `V` in ascending attribute order. At
//! each attribute the walk takes it at every level that fits, finest first,
//! and then leaves it out. It lists the set once every attribute is decided
//! or the slots are full, unless a member taken at a coarse level would fit
//! one level finer, or a left-out attribute would fit at its coarsest level
//! while a slot is free. A set fits when τ, divided by each member's size in
//! ascending attribute order, stays ≥ 1. The walk lists Algorithm 6's sets
//! in the order of its recursion: the sets with an attribute (finest level
//! first) before the sets without it. On one-level attributes Algorithm 5
//! keeps the same sets and lists the sets without an attribute first, so it
//! is the walk reversed. The greedy search's candidate order, and with it
//! every `select` draw, follows this order.
//!
//! Each attribute's level sizes must strictly decrease from the finest
//! level to the coarsest, as `TaxonomyTree::from_parent_maps` guarantees.
//!
//! Both accept an additional `max_size` cap on the number of parents; the
//! paper's algorithms correspond to `max_size = usize::MAX`. The cap is a
//! tractability knob for the experiment harness (on a large τ the number of
//! maximal sets grows combinatorially with their size): maximality is then
//! defined with respect to *both* constraints.

use privbayes_marginals::Axis;

/// Enumerates the maximal subsets of `v` (attribute indices) whose domain
/// size product is ≤ `tau` and whose cardinality is ≤ `max_size`
/// (Algorithm 5), as raw axes.
///
/// Returns an empty collection when even the empty set violates τ (τ < 1);
/// the caller then falls back to the `(X, ∅)` pair (Algorithm 4 lines 7–8).
/// Sets are returned with ascending attribute indices.
#[must_use]
pub fn maximal_parent_sets(
    v: &[usize],
    domain_sizes: &[usize],
    tau: f64,
    max_size: usize,
) -> Vec<Vec<Axis>> {
    let mut sets = walk(v, |a| std::slice::from_ref(&domain_sizes[a]), tau, max_size);
    sets.reverse();
    sets
}

/// Enumerates maximal *generalised* subsets of `v` (Algorithm 6): each
/// attribute may participate at any taxonomy level, and maximality also
/// forbids lowering any member's generalisation level.
///
/// `level_sizes[a]` lists the domain size of attribute `a` at each level
/// (index 0 = raw, sizes strictly decreasing); plain attributes have a
/// single entry.
#[must_use]
pub fn maximal_parent_sets_generalized(
    v: &[usize],
    level_sizes: &[Vec<usize>],
    tau: f64,
    max_size: usize,
) -> Vec<Vec<Axis>> {
    debug_assert!(
        v.iter().all(|&a| level_sizes[a].windows(2).all(|w| w[0] > w[1])),
        "level sizes must strictly decrease"
    );
    walk(v, |a| &level_sizes[a], tau, max_size)
}

/// Algorithm 6's maximal sets of `v`, attribute `a` taking the level sizes
/// `levels(a)`, in the order of its recursion.
fn walk<'a>(
    v: &[usize],
    levels: impl Fn(usize) -> &'a [usize],
    tau: f64,
    max_size: usize,
) -> Vec<Vec<Axis>> {
    let mut sorted = v.to_vec();
    sorted.sort_unstable();
    let attrs: Vec<(usize, &[usize])> = sorted.iter().map(|&a| (a, levels(a))).collect();
    let finest =
        (0..=attrs.len()).map(|i| attrs[i..].iter().map(|(_, l)| l[0] as f64).product()).collect();
    let mut walk =
        Walk { attrs, finest, max_size, set: Vec::new(), limits: Vec::new(), sets: Vec::new() };
    if tau >= 1.0 {
        walk.descend(0, tau);
    }
    walk.sets
}

/// The walk's state: the attributes with their level sizes, the product of
/// the finest sizes from each position on, the current set with its
/// members' sizes, and the limits it must meet to be listed. A limit
/// `(room, after, while_free)` rules the set out while `room`, divided by
/// the sizes of `set[after..]`, stays ≥ 1 (only while a slot is free, if
/// `while_free`).
struct Walk<'a> {
    attrs: Vec<(usize, &'a [usize])>,
    finest: Vec<f64>,
    max_size: usize,
    set: Vec<(Axis, f64)>,
    limits: Vec<(f64, usize, bool)>,
    sets: Vec<Vec<Axis>>,
}

impl Walk<'_> {
    /// Decides `attrs[i..]` with `budget` left.
    fn descend(&mut self, i: usize, budget: f64) {
        if i == self.attrs.len() || self.set.len() == self.max_size {
            let free = self.set.len() < self.max_size;
            let maximal = self.limits.iter().all(|&(room, after, while_free)| {
                (while_free && !free)
                    || self.set[after..].iter().fold(room, |room, &(_, size)| room / size) < 1.0
            });
            if maximal {
                self.sets.push(self.set.iter().map(|&(axis, _)| axis).collect());
            }
            return;
        }
        let (attr, levels) = self.attrs[i];
        let mark = self.limits.len();
        for (level, &size) in levels.iter().enumerate() {
            let rest = budget / size as f64;
            if rest < 1.0 {
                continue;
            }
            // The later members must leave the next finer level no room.
            if level > 0 {
                self.limits.push((budget / levels[level - 1] as f64, self.set.len() + 1, false));
            }
            self.set.push((Axis { attr, level }, size as f64));
            self.descend(i + 1, rest);
            self.set.pop();
            self.limits.truncate(mark);
        }
        // Left out, the attribute must find no room at its coarsest level
        // while a slot is free. Skip the branch when no set can meet that:
        // fewer attributes remain than slots, and all of them at their finest
        // levels still leave room (the margin covers the divisions' rounding).
        let room = budget / levels[levels.len() - 1] as f64;
        if self.attrs.len() - i - 1 < self.max_size - self.set.len()
            && room / self.finest[i + 1] >= 1.0 + 1e-9
        {
            return;
        }
        self.limits.push((room, self.set.len(), true));
        self.descend(i + 1, budget);
        self.limits.truncate(mark);
    }
}

/// Joint domain size of a generalised subset.
#[must_use]
pub fn generalized_subset_domain(set: &[Axis], level_sizes: &[Vec<usize>]) -> f64 {
    set.iter().map(|ax| level_sizes[ax.attr][ax.level] as f64).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NO_CAP: usize = usize::MAX;

    /// Joint domain size of a plain subset.
    fn subset_domain(set: &[usize], domain_sizes: &[usize]) -> f64 {
        set.iter().map(|&a| domain_sizes[a] as f64).product()
    }

    /// Algorithm 5's sets over `v` as attribute lists, each axis raw.
    fn plain_sets(v: &[usize], sizes: &[usize], tau: f64, cap: usize) -> Vec<Vec<usize>> {
        maximal_parent_sets(v, sizes, tau, cap)
            .iter()
            .map(|set| {
                assert!(set.iter().all(|ax| ax.level == 0), "{set:?}");
                set.iter().map(|ax| ax.attr).collect()
            })
            .collect()
    }

    #[test]
    fn binary_domains_yield_fixed_size_subsets() {
        // All-binary attributes with τ = 2^j: maximal sets are exactly the
        // size-j subsets (the bridge between Algorithm 4 and Lemma 4.8).
        let sizes = vec![2usize; 6];
        let v: Vec<usize> = (0..5).collect();
        let sets = maximal_parent_sets(&v, &sizes, 8.0, NO_CAP);
        assert_eq!(sets.len(), 10, "C(5,3) = 10");
        for s in &sets {
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn tau_below_one_returns_nothing() {
        let sizes = vec![2usize; 3];
        assert!(maximal_parent_sets(&[0, 1, 2], &sizes, 0.5, NO_CAP).is_empty());
        let level_sizes = vec![vec![2]; 3];
        assert!(maximal_parent_sets_generalized(&[0, 1, 2], &level_sizes, 0.5, NO_CAP).is_empty());
    }

    #[test]
    fn tau_below_two_allows_only_empty_set() {
        let sizes = vec![2usize; 3];
        let sets = maximal_parent_sets(&[0, 1, 2], &sizes, 1.5, NO_CAP);
        assert_eq!(sets, vec![Vec::<Axis>::new()]);
    }

    #[test]
    fn whole_v_when_tau_is_large() {
        let sizes = vec![2usize, 3, 4];
        let sets = maximal_parent_sets(&[0, 1, 2], &sizes, 1000.0, NO_CAP);
        assert_eq!(sets, vec![vec![Axis::raw(0), Axis::raw(1), Axis::raw(2)]]);
    }

    #[test]
    fn mixed_domains_respect_tau() {
        // sizes: a=2, b=8, c=3; τ=10: maximal sets are {a,c} (6), {b} (8).
        let sizes = vec![2usize, 8, 3];
        let mut sets = plain_sets(&[0, 1, 2], &sizes, 10.0, NO_CAP);
        sets.sort();
        assert_eq!(sets, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn max_size_cap_applies() {
        let sizes = vec![2usize; 5];
        let v: Vec<usize> = (0..5).collect();
        let sets = maximal_parent_sets(&v, &sizes, 1000.0, 2);
        assert_eq!(sets.len(), 10, "C(5,2) subsets at the cap");
        for s in &sets {
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn generalized_reduces_to_plain_for_flat_attributes() {
        // On one-level attributes Algorithm 5 lists Algorithm 6's sets in
        // reverse: the sets without an attribute before the sets with it.
        let level_sizes = vec![vec![2], vec![8], vec![3]];
        let sizes = vec![2usize, 8, 3];
        let plain = maximal_parent_sets(&[0, 1, 2], &sizes, 10.0, NO_CAP);
        let mut gen = maximal_parent_sets_generalized(&[0, 1, 2], &level_sizes, 10.0, NO_CAP);
        gen.reverse();
        assert_eq!(plain, gen);
        assert_eq!(plain_sets(&[0, 1, 2], &sizes, 10.0, NO_CAP), vec![vec![1], vec![0, 2]]);
    }

    #[test]
    fn a_huge_budget_without_a_cap_takes_every_attribute_at_once() {
        // 2^40 < τ: the only maximal set is all 40 attributes, and the
        // enumeration must not visit the 2^40 subsets on its way there.
        let v: Vec<usize> = (0..40).rev().collect();
        let sizes = vec![2usize; 40];
        let plain = plain_sets(&v, &sizes, 1e15, NO_CAP);
        assert_eq!(plain, vec![(0..40).collect::<Vec<usize>>()]);
        let level_sizes = vec![vec![2]; 40];
        let gen = maximal_parent_sets_generalized(&v, &level_sizes, 1e15, NO_CAP);
        assert_eq!(gen, vec![(0..40).map(Axis::raw).collect::<Vec<_>>()]);
    }

    /// Algorithm 6's sets by brute force: every assignment of each attribute
    /// of `v` to one of its levels or to "absent" that fits τ and the cap
    /// (τ divided by each member's size in ascending attribute order stays
    /// ≥ 1) and is maximal (no absent attribute fits at its coarsest level
    /// while a slot is free, and no member fits one level finer), sorted
    /// lexicographically over the ascending attributes by level, an absent
    /// attribute ranking after its levels.
    fn oracle(v: &[usize], level_sizes: &[Vec<usize>], tau: f64, cap: usize) -> Vec<Vec<Axis>> {
        let mut attrs = v.to_vec();
        attrs.sort_unstable();
        // choice[i]: the level of attrs[i], or its level count when absent.
        let fits = |choice: &[usize]| {
            let mut budget = tau;
            let mut members = 0;
            for (&attr, &level) in attrs.iter().zip(choice) {
                if let Some(&size) = level_sizes[attr].get(level) {
                    budget /= size as f64;
                    members += 1;
                }
            }
            budget >= 1.0 && members <= cap
        };
        let mut sets = Vec::new();
        let mut choice = vec![0; attrs.len()];
        loop {
            let maximal = fits(&choice)
                && (0..attrs.len()).all(|i| {
                    let levels = level_sizes[attrs[i]].len();
                    let mut other = choice.clone();
                    match choice[i] {
                        0 => return true,
                        c if c == levels => other[i] = levels - 1,
                        c => other[i] = c - 1,
                    }
                    !fits(&other)
                });
            if maximal {
                sets.push(
                    attrs
                        .iter()
                        .zip(&choice)
                        .filter(|&(&attr, &level)| level < level_sizes[attr].len())
                        .map(|(&attr, &level)| Axis { attr, level })
                        .collect(),
                );
            }
            // The next assignment, the last attribute fastest.
            let mut i = attrs.len();
            loop {
                if i == 0 {
                    return sets;
                }
                i -= 1;
                choice[i] += 1;
                if choice[i] <= level_sizes[attrs[i]].len() {
                    break;
                }
                choice[i] = 0;
            }
        }
    }

    /// One to three strictly decreasing level sizes, size-1 domains included.
    fn levels() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(1usize..13, 1..4).prop_map(|mut sizes| {
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            sizes.dedup();
            sizes
        })
    }

    #[test]
    fn generalized_uses_coarser_levels_to_fit() {
        // Attribute 0 has levels (16, 4, 2); attribute 1 is binary. τ = 10:
        // {0@level1, 1} fits (4·2=8); {0@level0} alone does not (16 > 10);
        // maximal sets: {0(1), 1}. ({0(0)} violates τ; {0(2),1} is dominated
        // by {0(1),1}.)
        let level_sizes = vec![vec![16, 4, 2], vec![2]];
        let sets = maximal_parent_sets_generalized(&[0, 1], &level_sizes, 10.0, NO_CAP);
        assert_eq!(sets.len(), 1, "{sets:?}");
        let s = &sets[0];
        assert!(s.contains(&Axis { attr: 0, level: 1 }));
        assert!(s.contains(&Axis { attr: 1, level: 0 }));
    }

    #[test]
    fn generalized_prefers_finer_levels_when_both_fit() {
        let level_sizes = vec![vec![4, 2]];
        // τ = 5: level 0 (size 4) fits, so {0@0} is the unique maximal set.
        let sets = maximal_parent_sets_generalized(&[0], &level_sizes, 5.0, NO_CAP);
        assert_eq!(sets, vec![vec![Axis { attr: 0, level: 0 }]]);
    }

    #[test]
    fn generalized_mixes_levels_across_attributes() {
        // Two attributes with levels (8, 2) each, τ = 17:
        // candidates: {0@0,1@1} (16), {0@1,1@0} (16), {0@0} (8) dominated,
        // {0@1,1@1} (4) dominated. Expect exactly the two 16-cell sets.
        let level_sizes = vec![vec![8, 2], vec![8, 2]];
        let sets = maximal_parent_sets_generalized(&[0, 1], &level_sizes, 17.0, NO_CAP);
        assert_eq!(sets.len(), 2, "{sets:?}");
        for s in &sets {
            let dom = generalized_subset_domain(s, &level_sizes);
            assert!((dom - 16.0).abs() < 1e-9);
        }
    }

    /// Checks maximality semantics directly: every returned set fits, no
    /// returned set is contained in another, and no single-attribute
    /// extension fits.
    fn assert_maximal(v: &[usize], sizes: &[usize], tau: f64, cap: usize, sets: &[Vec<usize>]) {
        for (i, s) in sets.iter().enumerate() {
            assert!(subset_domain(s, sizes) <= tau + 1e-9, "set {s:?} violates tau");
            assert!(s.len() <= cap);
            for (j, t) in sets.iter().enumerate() {
                if i != j {
                    assert!(!s.iter().all(|a| t.contains(a)), "set {s:?} is contained in {t:?}");
                }
            }
            if s.len() < cap {
                for &a in v {
                    if !s.contains(&a) {
                        assert!(
                            subset_domain(s, sizes) * sizes[a] as f64 > tau,
                            "set {s:?} can absorb {a} without violating tau"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both algorithms list exactly the oracle's sets, in its order
        /// (Algorithm 6) or in reverse on one-level attributes (Algorithm 5),
        /// with `v` a shuffled subset of the attributes.
        #[test]
        fn prop_sets_and_their_order_match_the_oracle(
            attrs in proptest::collection::vec((levels(), 0u32..100), 1..8),
            tau in prop_oneof![0.5f64..300.0, (0i32..12).prop_map(|e| 2f64.powi(e))],
            cap in prop_oneof![0usize..6, Just(NO_CAP)],
        ) {
            let level_sizes: Vec<Vec<usize>> = attrs.iter().map(|(l, _)| l.clone()).collect();
            let mut v: Vec<usize> = (0..attrs.len()).filter(|&a| attrs[a].1 >= 20).collect();
            v.sort_by_key(|&a| attrs[a].1);
            let expected = oracle(&v, &level_sizes, tau, cap);
            let gen = maximal_parent_sets_generalized(&v, &level_sizes, tau, cap);
            prop_assert_eq!(&gen, &expected, "v {:?} levels {:?} τ {} cap {}", v, level_sizes, tau, cap);

            let sizes: Vec<usize> = level_sizes.iter().map(|l| l[0]).collect();
            let flat: Vec<Vec<usize>> = sizes.iter().map(|&s| vec![s]).collect();
            let mut expected = oracle(&v, &flat, tau, cap);
            expected.reverse();
            let plain = maximal_parent_sets(&v, &sizes, tau, cap);
            prop_assert_eq!(&plain, &expected, "v {:?} sizes {:?} τ {} cap {}", v, sizes, tau, cap);
        }
    }

    proptest! {
        /// Maximality invariants hold for random domain-size profiles.
        #[test]
        fn prop_maximality(
            sizes in proptest::collection::vec(2usize..12, 2..7),
            tau in 1.0f64..200.0,
        ) {
            let v: Vec<usize> = (0..sizes.len()).collect();
            let sets = plain_sets(&v, &sizes, tau, NO_CAP);
            prop_assert!(!sets.is_empty(), "tau ≥ 1 admits at least the empty set");
            assert_maximal(&v, &sizes, tau, usize::MAX, &sets);
        }

        /// All sets are distinct and sorted.
        #[test]
        fn prop_distinct_sorted(
            sizes in proptest::collection::vec(2usize..8, 2..7),
            tau in 1.0f64..100.0,
        ) {
            let v: Vec<usize> = (0..sizes.len()).collect();
            let sets = plain_sets(&v, &sizes, tau, NO_CAP);
            for s in &sets {
                prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
            }
            let mut distinct = sets.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), sets.len(), "a set repeats in {:?}", sets);
        }

        /// Generalised sets always fit τ and never repeat an attribute.
        #[test]
        fn prop_generalized_fits(
            heights in proptest::collection::vec(1usize..4, 2..5),
            tau in 1.0f64..100.0,
        ) {
            // Attribute a has level sizes 2^(h), 2^(h-1), ..., 2.
            let level_sizes: Vec<Vec<usize>> = heights
                .iter()
                .map(|&h| (0..h).map(|l| 1usize << (h - l)).collect())
                .collect();
            let v: Vec<usize> = (0..level_sizes.len()).collect();
            let sets = maximal_parent_sets_generalized(&v, &level_sizes, tau, NO_CAP);
            for s in &sets {
                prop_assert!(generalized_subset_domain(s, &level_sizes) <= tau + 1e-9);
                let mut attrs: Vec<usize> = s.iter().map(|ax| ax.attr).collect();
                attrs.sort_unstable();
                attrs.dedup();
                prop_assert_eq!(attrs.len(), s.len(), "attribute repeated in {:?}", s);
            }
        }
    }
}
