//! Consistency post-processing.
//!
//! Two layers, both pure post-processing (no privacy cost):
//!
//! * **Per-table**: non-negativity followed by renormalisation (Algorithm 1
//!   line 5 and §6.1's baseline boosting).
//! * **Cross-table**: [`mutual_consistency`] reconciles a *set* of noisy
//!   marginals that overlap on shared attributes — the optimisation the paper
//!   points to in §3, footnote 1 ("we could apply additional post-processing
//!   of distributions, in the spirit of \[2, 17, 27\], to reflect the fact that
//!   lower degree distributions should be consistent"). Two noisy joints that
//!   share attributes generally disagree on the shared marginal; averaging
//!   them (inverse-variance weighted) and distributing the correction evenly
//!   is the least-squares adjustment subject to the agreed margin.

use crate::table::{project_values, projected_cells, Axis, ContingencyTable};

/// Sets negative cells to zero, then rescales the vector to sum to `target`.
///
/// If everything clamps to zero (possible under heavy noise), the result is
/// uniform — the least-informative valid distribution, mirroring the paper's
/// Uniform fallback. Post-processing never consumes privacy budget.
pub fn clamp_and_normalize(values: &mut [f64], target: f64) {
    debug_assert!(target > 0.0);
    let mut total = 0.0;
    for v in values.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
        total += *v;
    }
    if total > 0.0 {
        let scale = target / total;
        for v in values.iter_mut() {
            *v *= scale;
        }
    } else {
        let u = target / values.len() as f64;
        for v in values.iter_mut() {
            *v = u;
        }
    }
}

/// The axes two tables share (matching attribute **and** generalisation
/// level), in `a`'s axis order.
#[must_use]
pub fn shared_axes(a: &ContingencyTable, b: &ContingencyTable) -> Vec<Axis> {
    a.axes().iter().copied().filter(|axis| b.axes().contains(axis)).collect()
}

/// Reconciles overlapping noisy marginals in place.
///
/// For every pair of tables that share at least one axis, the shared marginal
/// is re-estimated as the inverse-variance-weighted average of the two
/// projections, and each table absorbs its correction spread evenly over the
/// cells that aggregate into each shared-margin cell — the least-squares
/// update subject to the new margin.
///
/// `cell_variance[i]` is the noise variance of one cell of `tables[i]`
/// (relative scale suffices; PrivBayes adds identically-distributed noise to
/// every joint, so `&[1.0; d]` is correct there). Projections onto the shared
/// margin sum cells, so a margin cell of table `i` carries variance
/// `cell_variance[i] · (cells_i / margin_cells)` — coarser tables therefore
/// get more weight, as in the consistency literature the paper cites.
///
/// One `round` makes each *pair* exactly consistent in isolation; later pairs
/// can disturb earlier ones, so a few rounds (2–3) are typically used. The
/// total mass of every table is preserved exactly; individual cells may go
/// negative and callers releasing distributions should re-apply
/// [`clamp_and_normalize`] afterwards (which costs a small, final deviation
/// from exact consistency, as in the consistency literature).
///
/// # Panics
/// Panics if `cell_variance.len() != tables.len()` or any variance is not
/// positive.
pub fn mutual_consistency(tables: &mut [ContingencyTable], cell_variance: &[f64], rounds: usize) {
    assert_eq!(tables.len(), cell_variance.len(), "one variance per table");
    assert!(cell_variance.iter().all(|&v| v > 0.0), "variances must be positive");
    for _ in 0..rounds {
        for i in 0..tables.len() {
            for j in i + 1..tables.len() {
                let shared = shared_axes(&tables[i], &tables[j]);
                if shared.is_empty() {
                    continue;
                }
                reconcile_pair(tables, i, j, &shared, cell_variance);
            }
        }
    }
}

/// Margin of `table` over `shared` plus, per table cell, the flat index of
/// the shared-margin cell it aggregates into.
fn margin_of(table: &ContingencyTable, shared: &[Axis]) -> (Vec<f64>, Vec<usize>) {
    let positions: Vec<usize> = shared
        .iter()
        .map(|axis| {
            table.axes().iter().position(|a| a == axis).expect("shared axis present in table")
        })
        .collect();
    let margin = project_values(table.dims(), table.values(), &positions);
    (margin, projected_cells(table.dims(), &positions).collect())
}

fn reconcile_pair(
    tables: &mut [ContingencyTable],
    i: usize,
    j: usize,
    shared: &[Axis],
    cell_variance: &[f64],
) {
    let (margin_i, map_i) = margin_of(&tables[i], shared);
    let (margin_j, map_j) = margin_of(&tables[j], shared);
    let margin_cells = margin_i.len();

    // Inverse-variance weights for the shared margin.
    let agg_i = tables[i].cell_count() / margin_cells;
    let agg_j = tables[j].cell_count() / margin_cells;
    let var_i = cell_variance[i] * agg_i as f64;
    let var_j = cell_variance[j] * agg_j as f64;
    let w_i = 1.0 / var_i;
    let w_j = 1.0 / var_j;

    let target: Vec<f64> =
        margin_i.iter().zip(&margin_j).map(|(&a, &b)| (w_i * a + w_j * b) / (w_i + w_j)).collect();

    // Least-squares absorption: spread each margin correction evenly over
    // the cells aggregating into it.
    let spread_i = agg_i as f64;
    for (idx, v) in tables[i].values_mut().iter_mut().enumerate() {
        let m = map_i[idx];
        *v += (target[m] - margin_i[m]) / spread_i;
    }
    let spread_j = agg_j as f64;
    for (idx, v) in tables[j].values_mut().iter_mut().enumerate() {
        let m = map_j[idx];
        *v += (target[m] - margin_j[m]) / spread_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clamps_then_normalizes() {
        let mut v = vec![0.5, -0.2, 0.3, 0.2];
        clamp_and_normalize(&mut v, 1.0);
        assert_eq!(v[1], 0.0);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((v[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_negative_becomes_uniform() {
        let mut v = vec![-1.0, -2.0, -3.0, -4.0];
        clamp_and_normalize(&mut v, 1.0);
        assert!(v.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn respects_target_mass() {
        let mut v = vec![1.0, 1.0];
        clamp_and_normalize(&mut v, 10.0);
        assert!((v.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    fn table(axes: Vec<Axis>, dims: Vec<usize>, values: Vec<f64>) -> ContingencyTable {
        ContingencyTable::from_parts(axes, dims, values)
    }

    /// Shared margin of `t` over `shared`, for assertions.
    fn margin(t: &ContingencyTable, shared: &[Axis]) -> Vec<f64> {
        margin_of(t, shared).0
    }

    #[test]
    fn shared_axes_match_attr_and_level() {
        let a = table(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2], vec![0.25; 4]);
        let b = table(vec![Axis::raw(1), Axis::raw(2)], vec![2, 2], vec![0.25; 4]);
        assert_eq!(shared_axes(&a, &b), vec![Axis::raw(1)]);
        // A generalised axis does not match its raw counterpart.
        let c = table(vec![Axis { attr: 1, level: 1 }, Axis::raw(2)], vec![2, 2], vec![0.25; 4]);
        assert_eq!(shared_axes(&a, &c), vec![]);
    }

    #[test]
    fn one_round_makes_a_pair_exactly_consistent() {
        // Two 2×2 joints over ({0,1}) and ({1,2}) disagreeing on Pr[1].
        let mut tables = vec![
            // Pr[attr1 = 1] = 0.6 here…
            table(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2], vec![0.2, 0.2, 0.2, 0.4]),
            // …and 0.4 here.
            table(vec![Axis::raw(1), Axis::raw(2)], vec![2, 2], vec![0.3, 0.3, 0.2, 0.2]),
        ];
        mutual_consistency(&mut tables, &[1.0, 1.0], 1);
        let m0 = margin(&tables[0], &[Axis::raw(1)]);
        let m1 = margin(&tables[1], &[Axis::raw(1)]);
        for (a, b) in m0.iter().zip(&m1) {
            assert!((a - b).abs() < 1e-12, "margins must agree: {m0:?} vs {m1:?}");
        }
        // Equal variances and equal aggregation -> plain average 0.5/0.5.
        assert!((m0[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn total_mass_is_preserved() {
        let mut tables = vec![
            table(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2], vec![0.1, 0.2, 0.3, 0.4]),
            table(
                vec![Axis::raw(1), Axis::raw(2)],
                vec![2, 3],
                vec![0.05, 0.1, 0.15, 0.2, 0.25, 0.25],
            ),
        ];
        mutual_consistency(&mut tables, &[1.0, 1.0], 3);
        for t in &tables {
            assert!((t.total() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn coarser_tables_get_more_weight() {
        // Table A is 2 cells over {1}; table B is 8 cells over {0,1,2}.
        // Projecting B onto {1} sums 4 cells -> 4x the variance of A's cells,
        // so the reconciled margin must sit much closer to A.
        let mut tables = vec![
            table(vec![Axis::raw(1)], vec![2], vec![0.9, 0.1]),
            table(
                vec![Axis::raw(0), Axis::raw(1), Axis::raw(2)],
                vec![2, 2, 2],
                vec![0.125; 8], // margin over {1} = (0.5, 0.5)
            ),
        ];
        mutual_consistency(&mut tables, &[1.0, 1.0], 1);
        let m = margin(&tables[0], &[Axis::raw(1)]);
        // Weighted: (1*0.9 + 0.25*0.5) / 1.25 = 0.82.
        assert!((m[0] - 0.82).abs() < 1e-12, "got {m:?}");
        let m_b = margin(&tables[1], &[Axis::raw(1)]);
        assert!((m_b[0] - 0.82).abs() < 1e-12, "both sides share the margin: {m_b:?}");
    }

    #[test]
    fn disjoint_tables_are_untouched() {
        let original = table(vec![Axis::raw(0)], vec![2], vec![0.7, 0.3]);
        let mut tables = vec![original.clone(), table(vec![Axis::raw(1)], vec![2], vec![0.5, 0.5])];
        mutual_consistency(&mut tables, &[1.0, 1.0], 5);
        assert_eq!(tables[0], original);
    }

    #[test]
    fn already_consistent_tables_are_a_fixed_point() {
        // Both joints are products of the same marginals -> already agree.
        let mut tables = vec![
            table(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2], vec![0.12, 0.28, 0.18, 0.42]),
            table(vec![Axis::raw(1), Axis::raw(2)], vec![2, 2], vec![0.15, 0.15, 0.35, 0.35]),
        ];
        let before = tables.clone();
        mutual_consistency(&mut tables, &[1.0, 1.0], 2);
        for (t, b) in tables.iter().zip(&before) {
            for (x, y) in t.values().iter().zip(b.values()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one variance per table")]
    fn variance_arity_mismatch_panics() {
        let mut tables = vec![table(vec![Axis::raw(0)], vec![2], vec![0.5, 0.5])];
        mutual_consistency(&mut tables, &[1.0, 1.0], 1);
    }

    proptest! {
        /// After one round, every overlapping *pair* processed last agrees on
        /// its shared margin; after a few rounds a chain A–B–C agrees globally
        /// within a loose tolerance.
        #[test]
        fn prop_chain_converges(
            a in proptest::collection::vec(0.01f64..1.0, 4),
            b in proptest::collection::vec(0.01f64..1.0, 4),
            c in proptest::collection::vec(0.01f64..1.0, 4),
        ) {
            let norm = |mut v: Vec<f64>| {
                let s: f64 = v.iter().sum();
                for x in &mut v { *x /= s; }
                v
            };
            let mut tables = vec![
                table(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2], norm(a)),
                table(vec![Axis::raw(1), Axis::raw(2)], vec![2, 2], norm(b)),
                table(vec![Axis::raw(2), Axis::raw(3)], vec![2, 2], norm(c)),
            ];
            mutual_consistency(&mut tables, &[1.0, 1.0, 1.0], 8);
            let m01 = margin(&tables[0], &[Axis::raw(1)]);
            let m11 = margin(&tables[1], &[Axis::raw(1)]);
            let m12 = margin(&tables[1], &[Axis::raw(2)]);
            let m22 = margin(&tables[2], &[Axis::raw(2)]);
            for (x, y) in m01.iter().zip(&m11) {
                prop_assert!((x - y).abs() < 1e-6, "{m01:?} vs {m11:?}");
            }
            for (x, y) in m12.iter().zip(&m22) {
                prop_assert!((x - y).abs() < 1e-6, "{m12:?} vs {m22:?}");
            }
            // Mass conservation throughout.
            for t in &tables {
                prop_assert!((t.total() - 1.0).abs() < 1e-9);
            }
        }

        /// Consistency is an averaging operation: reconciled margins lie
        /// inside the interval spanned by the two original estimates.
        #[test]
        fn prop_margin_within_bounds(
            a in proptest::collection::vec(0.01f64..1.0, 4),
            b in proptest::collection::vec(0.01f64..1.0, 4),
        ) {
            let norm = |mut v: Vec<f64>| {
                let s: f64 = v.iter().sum();
                for x in &mut v { *x /= s; }
                v
            };
            let t0 = table(vec![Axis::raw(0), Axis::raw(1)], vec![2, 2], norm(a));
            let t1 = table(vec![Axis::raw(1), Axis::raw(2)], vec![2, 2], norm(b));
            let m0 = margin(&t0, &[Axis::raw(1)]);
            let m1 = margin(&t1, &[Axis::raw(1)]);
            let mut tables = vec![t0, t1];
            mutual_consistency(&mut tables, &[1.0, 1.0], 1);
            let m = margin(&tables[0], &[Axis::raw(1)]);
            for k in 0..2 {
                let lo = m0[k].min(m1[k]) - 1e-12;
                let hi = m0[k].max(m1[k]) + 1e-12;
                prop_assert!(m[k] >= lo && m[k] <= hi);
            }
        }
    }

    proptest! {
        /// Output is a valid distribution for arbitrary noisy input.
        #[test]
        fn prop_valid_distribution(mut v in proptest::collection::vec(-5.0f64..5.0, 1..50)) {
            clamp_and_normalize(&mut v, 1.0);
            prop_assert!(v.iter().all(|&x| x >= 0.0));
            prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }

        /// Idempotence: applying twice changes nothing.
        #[test]
        fn prop_idempotent(mut v in proptest::collection::vec(-5.0f64..5.0, 1..50)) {
            clamp_and_normalize(&mut v, 1.0);
            let once = v.clone();
            clamp_and_normalize(&mut v, 1.0);
            for (a, b) in once.iter().zip(&v) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
