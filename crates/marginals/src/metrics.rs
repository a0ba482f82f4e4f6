//! Accuracy metrics: total-variation distance and workload averages (§6.1).

use privbayes_data::Dataset;

use crate::query::AlphaWayWorkload;
use crate::table::{Axis, ContingencyTable};

/// Total-variation distance between two distributions: half the L1 distance.
///
/// The inputs need not be normalised (noisy marginals may not be); the metric
/// is computed on the raw vectors exactly as the paper does after its
/// consistency step.
///
/// # Panics
/// Panics if lengths differ.
#[must_use]
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Average total-variation distance over all α-way marginals between the
/// true dataset and a synthetic dataset — the paper's count-query error
/// metric ("average variation distance").
#[must_use]
pub fn average_workload_tvd(truth: &Dataset, synthetic: &Dataset, alpha: usize) -> f64 {
    let workload = AlphaWayWorkload::new(truth.d(), alpha);
    average_workload_tvd_with(truth, synthetic, &workload)
}

/// As [`average_workload_tvd`], with an explicit workload.
///
/// # Panics
/// Panics if schemas of the two datasets have different domain sizes.
#[must_use]
pub fn average_workload_tvd_with(
    truth: &Dataset,
    synthetic: &Dataset,
    workload: &AlphaWayWorkload,
) -> f64 {
    assert_eq!(
        truth.schema().domain_sizes(),
        synthetic.schema().domain_sizes(),
        "datasets must share domains"
    );
    let mut acc = 0.0;
    for subset in workload.subsets() {
        let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
        let t = ContingencyTable::from_dataset(truth, &axes);
        let s = ContingencyTable::from_dataset(synthetic, &axes);
        acc += total_variation(t.values(), s.values());
    }
    acc / workload.len() as f64
}

/// Average TVD between true marginals and a caller-supplied set of noisy
/// marginal tables (one per workload subset, same order) — used by baselines
/// that release marginals directly rather than synthetic data.
///
/// # Panics
/// Panics if `noisy.len()` differs from the workload size or a table's shape
/// does not match its subset.
#[must_use]
pub fn average_workload_tvd_tables(
    truth: &Dataset,
    noisy: &[ContingencyTable],
    workload: &AlphaWayWorkload,
) -> f64 {
    assert_eq!(noisy.len(), workload.len(), "one table per workload subset required");
    let mut acc = 0.0;
    for (subset, table) in workload.subsets().iter().zip(noisy) {
        let axes: Vec<Axis> = subset.iter().map(|&a| Axis::raw(a)).collect();
        let t = ContingencyTable::from_dataset(truth, &axes);
        assert_eq!(t.dims(), table.dims(), "noisy table shape mismatch for {subset:?}");
        acc += total_variation(t.values(), table.values());
    }
    acc / workload.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_data::{Attribute, Schema};
    use proptest::prelude::*;

    #[test]
    fn tvd_basic() {
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(total_variation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((total_variation(&[0.7, 0.3], &[0.5, 0.5]) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn tvd_length_mismatch() {
        let _ = total_variation(&[1.0], &[0.5, 0.5]);
    }

    fn dataset(rows: &[[u32; 3]]) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = rows.iter().map(|r| r.to_vec()).collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn identical_datasets_have_zero_error() {
        let ds = dataset(&[[0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]]);
        assert_eq!(average_workload_tvd(&ds, &ds, 2), 0.0);
    }

    #[test]
    fn disjoint_datasets_have_error_one() {
        let a = dataset(&[[0, 0, 0], [0, 0, 0]]);
        let b = dataset(&[[1, 1, 1], [1, 1, 1]]);
        assert!((average_workload_tvd(&a, &b, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workload_tables_variant_matches_dataset_variant() {
        let truth = dataset(&[[0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]]);
        let synth = dataset(&[[0, 0, 0], [1, 1, 1], [0, 1, 1], [1, 0, 0]]);
        let workload = AlphaWayWorkload::new(3, 2);
        let tables: Vec<ContingencyTable> = workload
            .subsets()
            .iter()
            .map(|s| {
                let axes: Vec<Axis> = s.iter().map(|&a| Axis::raw(a)).collect();
                ContingencyTable::from_dataset(&synth, &axes)
            })
            .collect();
        let via_tables = average_workload_tvd_tables(&truth, &tables, &workload);
        let via_dataset = average_workload_tvd_with(&truth, &synth, &workload);
        assert!((via_tables - via_dataset).abs() < 1e-12);
    }

    proptest! {
        /// TVD is a metric bounded by [0,1] for probability vectors.
        #[test]
        fn prop_tvd_bounds(
            p in proptest::collection::vec(0.0f64..1.0, 8..=8),
            q in proptest::collection::vec(0.0f64..1.0, 8..=8),
        ) {
            let norm = |v: Vec<f64>| {
                let s: f64 = v.iter().sum::<f64>().max(1e-12);
                v.into_iter().map(|x| x / s).collect::<Vec<_>>()
            };
            let (p, q) = (norm(p), norm(q));
            let d = total_variation(&p, &q);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&d));
            // Symmetry and identity.
            prop_assert!((d - total_variation(&q, &p)).abs() < 1e-12);
            prop_assert!(total_variation(&p, &p) < 1e-12);
        }

        /// Triangle inequality.
        #[test]
        fn prop_tvd_triangle(
            p in proptest::collection::vec(0.0f64..1.0, 6..=6),
            q in proptest::collection::vec(0.0f64..1.0, 6..=6),
            r in proptest::collection::vec(0.0f64..1.0, 6..=6),
        ) {
            let d_pq = total_variation(&p, &q);
            let d_qr = total_variation(&q, &r);
            let d_pr = total_variation(&p, &r);
            prop_assert!(d_pr <= d_pq + d_qr + 1e-12);
        }
    }
}
