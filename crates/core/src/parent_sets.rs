//! Maximal parent-set enumeration (Algorithms 5 and 6).
//!
//! Given the remaining candidate attributes `V` and a domain-size budget τ
//! (from θ-usefulness), these routines enumerate every *maximal* subset of
//! `V` whose joint domain fits within τ — plain subsets for the vanilla
//! encoding (Algorithm 5), and generalised subsets mixing taxonomy levels for
//! the hierarchical encoding (Algorithm 6).
//!
//! Both accept an additional `max_size` cap on the number of parents; the
//! paper's algorithms correspond to `max_size = usize::MAX`. The cap is a
//! tractability knob for the experiment harness (on a large τ the number of
//! maximal sets grows combinatorially with their size): maximality is then
//! defined with respect to *both* constraints.

use std::collections::HashMap;
use std::rc::Rc;

use privbayes_marginals::Axis;

/// Enumerates the maximal subsets of `v` (attribute indices) whose domain
/// size product is ≤ `tau` and whose cardinality is ≤ `max_size`
/// (Algorithm 5).
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
) -> Vec<Vec<usize>> {
    let mut sorted: Vec<usize> = v.to_vec();
    sorted.sort_unstable();
    let mut memo = HashMap::new();
    plain_rec(&sorted, domain_sizes, tau, max_size, 0, &mut memo).as_ref().clone()
}

type PlainMemo = HashMap<(usize, usize, u64), Rc<Vec<Vec<usize>>>>;

fn plain_rec(
    v: &[usize],
    sizes: &[usize],
    tau: f64,
    slots: usize,
    pos: usize,
    memo: &mut PlainMemo,
) -> Rc<Vec<Vec<usize>>> {
    if tau < 1.0 {
        return Rc::new(Vec::new());
    }
    if pos == v.len() || slots == 0 {
        return Rc::new(vec![Vec::new()]);
    }
    let key = (pos, slots, tau.to_bits());
    if let Some(hit) = memo.get(&key) {
        return Rc::clone(hit);
    }

    let x = v[pos];
    // Without x.
    let mut s: Vec<Vec<usize>> = plain_rec(v, sizes, tau, slots, pos + 1, memo).as_ref().clone();
    // With x: recurse under the tightened budget, then merge.
    let with_x = plain_rec(v, sizes, tau / sizes[x] as f64, slots - 1, pos + 1, memo);
    if !with_x.is_empty() {
        let to_remove: std::collections::HashSet<&Vec<usize>> = with_x.iter().collect();
        s.retain(|z| !to_remove.contains(z));
        for z in with_x.iter() {
            let mut zx = Vec::with_capacity(z.len() + 1);
            zx.push(x);
            zx.extend_from_slice(z);
            s.push(zx);
        }
    }
    let rc = Rc::new(s);
    memo.insert(key, Rc::clone(&rc));
    rc
}

/// Enumerates maximal *generalised* subsets of `v` (Algorithm 6): each
/// attribute may participate at any taxonomy level, and maximality also
/// forbids lowering any member's generalisation level.
///
/// `level_sizes[a]` lists the domain size of attribute `a` at each level
/// (index 0 = raw); plain attributes have a single entry.
#[must_use]
pub fn maximal_parent_sets_generalized(
    v: &[usize],
    level_sizes: &[Vec<usize>],
    tau: f64,
    max_size: usize,
) -> Vec<Vec<Axis>> {
    let mut sorted: Vec<usize> = v.to_vec();
    sorted.sort_unstable();
    let mut memo = HashMap::new();
    gen_rec(&sorted, level_sizes, tau, max_size, 0, &mut memo).as_ref().clone()
}

type GenMemo = HashMap<(usize, usize, u64), Rc<Vec<Vec<Axis>>>>;

fn gen_rec(
    v: &[usize],
    level_sizes: &[Vec<usize>],
    tau: f64,
    slots: usize,
    pos: usize,
    memo: &mut GenMemo,
) -> Rc<Vec<Vec<Axis>>> {
    if tau < 1.0 {
        return Rc::new(Vec::new());
    }
    if pos == v.len() || slots == 0 {
        return Rc::new(vec![Vec::new()]);
    }
    let key = (pos, slots, tau.to_bits());
    if let Some(hit) = memo.get(&key) {
        return Rc::clone(hit);
    }

    let x = v[pos];
    let mut s: Vec<Vec<Axis>> = Vec::new();
    // `U` of Algorithm 6: bases already extended with a less-generalised x.
    let mut used: std::collections::HashSet<Vec<Axis>> = std::collections::HashSet::new();
    // Levels from least generalised (level 0, largest domain) upwards, so the
    // U-check keeps the most informative extension of each base.
    for (level, &size) in level_sizes[x].iter().enumerate() {
        let with_x = gen_rec(v, level_sizes, tau / size as f64, slots - 1, pos + 1, memo);
        for z in with_x.iter() {
            if used.contains(z) {
                continue;
            }
            used.insert(z.clone());
            let mut zx = Vec::with_capacity(z.len() + 1);
            zx.push(Axis { attr: x, level });
            zx.extend_from_slice(z);
            s.push(zx);
        }
    }
    // Bases with x excluded entirely (Algorithm 6 lines 9–11).
    for z in gen_rec(v, level_sizes, tau, slots, pos + 1, memo).iter() {
        if !used.contains(z) {
            s.push(z.clone());
        }
    }
    let rc = Rc::new(s);
    memo.insert(key, Rc::clone(&rc));
    rc
}

/// Joint domain size of a plain subset.
#[must_use]
pub fn subset_domain(set: &[usize], domain_sizes: &[usize]) -> f64 {
    set.iter().map(|&a| domain_sizes[a] as f64).product()
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
    }

    #[test]
    fn tau_below_two_allows_only_empty_set() {
        let sizes = vec![2usize; 3];
        let sets = maximal_parent_sets(&[0, 1, 2], &sizes, 1.5, NO_CAP);
        assert_eq!(sets, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn whole_v_when_tau_is_large() {
        let sizes = vec![2usize, 3, 4];
        let sets = maximal_parent_sets(&[0, 1, 2], &sizes, 1000.0, NO_CAP);
        assert_eq!(sets, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn mixed_domains_respect_tau() {
        // sizes: a=2, b=8, c=3; τ=10: maximal sets are {a,c} (6), {b} (8).
        let sizes = vec![2usize, 8, 3];
        let mut sets = maximal_parent_sets(&[0, 1, 2], &sizes, 10.0, NO_CAP);
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
        let level_sizes = vec![vec![2], vec![8], vec![3]];
        let sizes = vec![2usize, 8, 3];
        let plain = maximal_parent_sets(&[0, 1, 2], &sizes, 10.0, NO_CAP);
        let gen = maximal_parent_sets_generalized(&[0, 1, 2], &level_sizes, 10.0, NO_CAP);
        let gen_as_plain: Vec<Vec<usize>> = gen
            .iter()
            .map(|s| {
                assert!(s.iter().all(|ax| ax.level == 0));
                s.iter().map(|ax| ax.attr).collect()
            })
            .collect();
        let mut a = plain;
        let mut b = gen_as_plain;
        a.sort();
        b.sort();
        assert_eq!(a, b);
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
        /// Maximality invariants hold for random domain-size profiles.
        #[test]
        fn prop_maximality(
            sizes in proptest::collection::vec(2usize..12, 2..7),
            tau in 1.0f64..200.0,
        ) {
            let v: Vec<usize> = (0..sizes.len()).collect();
            let sets = maximal_parent_sets(&v, &sizes, tau, NO_CAP);
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
            let sets = maximal_parent_sets(&v, &sizes, tau, NO_CAP);
            let mut seen = std::collections::HashSet::new();
            for s in &sets {
                prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(seen.insert(s.clone()));
            }
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
