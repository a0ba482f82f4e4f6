//! θ-usefulness (Definition 4.7, Lemma 4.8, §5.2): choosing how much marginal
//! structure the distribution-learning budget can support.
//!
//! A noisy distribution is θ-useful if its average information-to-noise ratio
//! is at least θ. For all-binary data this yields a closed-form choice of the
//! network degree `k`; for general domains it yields a per-child bound τ on
//! the domain size of candidate parent sets.

/// Usefulness of the (k+1)-dimensional binary marginals released by
/// Algorithm 1: `n·ε₂ / ((d−k)·2^{k+2})` (Lemma 4.8).
///
/// # Panics
/// Panics if `k >= d`.
#[must_use]
pub fn usefulness_binary(n: usize, d: usize, k: usize, epsilon2: f64) -> f64 {
    assert!(k < d, "degree k={k} must be below d={d}");
    (n as f64) * epsilon2 / (((d - k) as f64) * 2f64.powi(k as i32 + 2))
}

/// The paper's automatic degree choice (§4.5): the largest positive `k` such
/// that Algorithm 1's marginals are θ-useful, or 0 if none exists.
#[must_use]
pub fn choose_degree_binary(n: usize, d: usize, epsilon2: f64, theta: f64) -> usize {
    let mut best = 0usize;
    for k in 1..d {
        if usefulness_binary(n, d, k, epsilon2) >= theta {
            best = k;
        }
    }
    best
}

/// Usefulness of one `cells`-cell marginal under Algorithm 3's noise
/// (`Lap(2d/nε₂)` per cell): `n·ε₂ / (2·d·cells)` (§5.2).
#[must_use]
pub fn usefulness_general(n: usize, d: usize, epsilon2: f64, cells: usize) -> f64 {
    (n as f64) * epsilon2 / (2.0 * d as f64 * cells as f64)
}

/// Maximum θ-useful joint size for Algorithm 3: `m ≤ n·ε₂ / (2dθ)` (§5.2).
#[must_use]
pub fn max_joint_cells(n: usize, d: usize, epsilon2: f64, theta: f64) -> f64 {
    (n as f64) * epsilon2 / (2.0 * d as f64 * theta)
}

/// The per-child parent-domain bound τ passed to `MaximalParentSets`
/// (Algorithm 4 line 6): `n·ε₂ / (2dθ·|dom(X)|)`.
#[must_use]
pub fn tau_for_child(n: usize, d: usize, epsilon2: f64, theta: f64, child_domain: usize) -> f64 {
    max_joint_cells(n, d, epsilon2, theta) / child_domain as f64
}

/// The most binary parents a parent-set rule with budget `tau` and size cap
/// `cap` can give a binary child: how often τ halves before it drops below
/// 1, in the arithmetic the parent-set walk behind
/// [`maximal_parent_sets`](crate::parent_sets::maximal_parent_sets) applies
/// to each binary member it takes (`τ / 2`, one member at a time), and at
/// most `cap` (the loop runs at most `cap` times, so callers bound it by
/// the attribute count).
#[must_use]
pub fn max_binary_parents(tau: f64, cap: usize) -> usize {
    let (mut tau, mut parents) = (tau, 0);
    while parents < cap && tau / 2.0 >= 1.0 {
        tau /= 2.0;
        parents += 1;
    }
    parents
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lemma_4_8_formula() {
        // n=1000, d=10, k=2, ε₂=0.8: 1000·0.8 / (8·16) = 6.25.
        assert!((usefulness_binary(1000, 10, 2, 0.8) - 6.25).abs() < 1e-12);
    }

    #[test]
    fn degree_grows_with_epsilon() {
        let (n, d, theta) = (21_574, 16, 4.0);
        let degrees: Vec<usize> = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
            .iter()
            .map(|&e| choose_degree_binary(n, d, (1.0 - 0.3) * e, theta))
            .collect();
        for w in degrees.windows(2) {
            assert!(w[0] <= w[1], "degree must be monotone in ε: {degrees:?}");
        }
        assert!(degrees[5] >= 3, "NLTCS at ε=1.6 supports a multi-degree network");
    }

    #[test]
    fn tiny_epsilon_chooses_independence() {
        // §4.5: with very small ε the best choice is k = 0.
        let k = choose_degree_binary(1000, 16, 0.001, 4.0);
        assert_eq!(k, 0);
    }

    #[test]
    fn chosen_degree_is_theta_useful() {
        let (n, d, eps2, theta) = (47_461, 23, 1.12, 4.0);
        let k = choose_degree_binary(n, d, eps2, theta);
        assert!(k >= 1);
        assert!(usefulness_binary(n, d, k, eps2) >= theta);
        assert!(usefulness_binary(n, d, k + 1, eps2) < theta, "k is maximal");
    }

    #[test]
    fn general_domain_bound() {
        // m ≤ nε₂/(2dθ); a marginal with exactly that many cells is θ-useful.
        let (n, d, eps2, theta) = (38_000, 14, 1.12, 4.0);
        let m = max_joint_cells(n, d, eps2, theta);
        assert!(usefulness_general(n, d, eps2, m.floor() as usize) >= theta);
        assert!(usefulness_general(n, d, eps2, (m * 2.0) as usize) < theta);
    }

    #[test]
    fn tau_divides_by_child_domain() {
        let tau = tau_for_child(1000, 10, 1.0, 4.0, 16);
        assert!((tau - 1000.0 / (2.0 * 10.0 * 4.0 * 16.0)).abs() < 1e-12);
    }

    #[test]
    fn binary_parents_halve_tau() {
        for (tau, cap, parents) in [
            (0.5, 9, 0),
            (1.0, 9, 0),
            (2.0, 9, 1),
            (3.99, 9, 1),
            (4.0, 9, 2),
            (90.3, 9, 6),
            (90.3, 4, 4),
            (f64::INFINITY, 5, 5),
            (f64::NAN, 5, 0),
        ] {
            assert_eq!(max_binary_parents(tau, cap), parents, "τ = {tau}, cap {cap}");
        }
    }

    proptest! {
        /// The bound is the largest binary parent set the rule returns.
        #[test]
        fn prop_binary_parents_match_the_largest_maximal_set(
            tau in 0.1f64..300.0,
            cap in 0usize..8,
            v in 0usize..9,
        ) {
            let placed: Vec<usize> = (0..v).collect();
            let largest = crate::parent_sets::maximal_parent_sets(&placed, &[2; 9], tau, cap)
                .iter()
                .map(Vec::len)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(max_binary_parents(tau, cap.min(v)), largest);
        }

        /// Usefulness is non-increasing in k ((d−k)·2^{k+2} grows whenever
        /// d−k ≥ 2, with equality exactly at k = d−2) and θ-choice picks a
        /// k that satisfies the threshold.
        #[test]
        fn prop_usefulness_monotone(
            n in 100usize..100_000,
            d in 3usize..24,
            eps in 0.05f64..2.0,
        ) {
            for k in 1..d - 1 {
                prop_assert!(
                    usefulness_binary(n, d, k, eps) >= usefulness_binary(n, d, k + 1, eps)
                );
            }
            let k = choose_degree_binary(n, d, eps, 4.0);
            if k > 0 {
                prop_assert!(usefulness_binary(n, d, k, eps) >= 4.0);
            }
            prop_assert!(k < d);
        }
    }
}
