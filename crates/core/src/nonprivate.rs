//! Non-private reference quantities: the quality metric of Figure 4 and the
//! NoPrivacy / BestNetwork helpers.

use privbayes_data::Dataset;
use privbayes_marginals::{Axis, CountEngine};

use crate::network::BayesianNetwork;
use crate::score::mi::mutual_information;

/// Sum of mutual information `Σᵢ I(Xᵢ, Πᵢ)` of a network measured on `data`
/// — the network-quality metric plotted in Figure 4 (maximising it minimises
/// the KL divergence of Equation 6). Joints are counted by a
/// [`CountEngine`].
#[must_use]
pub fn sum_mutual_information(data: &Dataset, network: &BayesianNetwork) -> f64 {
    let engine = CountEngine::new(data);
    network
        .pairs()
        .iter()
        .map(|pair| {
            if pair.parents.is_empty() {
                return 0.0;
            }
            let mut axes: Vec<Axis> = pair.parents.clone();
            axes.push(Axis::raw(pair.child));
            let table = engine.joint_table(&axes);
            let child_dim = data.schema().attribute(pair.child).domain_size();
            mutual_information(table.values(), child_dim)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_bayes_fixed_k_engine, GreedySettings};
    use crate::network::ApPair;
    use crate::score::ScoreKind;
    use privbayes_data::{Attribute, Schema};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn chain_data(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::binary("c"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i % 2, i % 2, (i / 2) % 2]).collect();
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn copy_edge_contributes_one_bit() {
        let data = chain_data(400);
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![])],
            data.schema(),
        )
        .unwrap();
        let q = sum_mutual_information(&data, &net);
        assert!((q - 1.0).abs() < 1e-9, "I(a;b)=1 and roots contribute 0, got {q}");
    }

    #[test]
    fn independent_network_scores_zero() {
        let data = chain_data(100);
        let net =
            BayesianNetwork::new((0..3).map(|i| ApPair::new(i, vec![])).collect(), data.schema())
                .unwrap();
        assert_eq!(sum_mutual_information(&data, &net), 0.0);
    }

    #[test]
    fn non_private_network_dominates_noisy_ones_on_average() {
        // The argmax network's quality upper-bounds heavily-noised selections.
        let data = {
            let schema = Schema::new(vec![
                Attribute::binary("a"),
                Attribute::binary("b"),
                Attribute::binary("c"),
                Attribute::binary("d"),
            ])
            .unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            let rows: Vec<Vec<u32>> = (0..800)
                .map(|_| {
                    let a = rng.random_range(0..2u32);
                    let c = rng.random_range(0..2u32);
                    vec![a, a, c, c]
                })
                .collect();
            Dataset::from_rows(schema, &rows).unwrap()
        };
        let engine = CountEngine::new(&data);
        let mut rng = StdRng::seed_from_u64(2);
        let best = greedy_bayes_fixed_k_engine(
            &engine,
            1,
            &GreedySettings::non_private(ScoreKind::MutualInformation),
            &mut rng,
        )
        .unwrap();
        let q_best = sum_mutual_information(&data, &best);
        let mut q_noisy_sum = 0.0;
        let reps = 10;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let noisy = greedy_bayes_fixed_k_engine(
                &engine,
                1,
                &GreedySettings::private(ScoreKind::MutualInformation, 0.01),
                &mut rng,
            )
            .unwrap();
            q_noisy_sum += sum_mutual_information(&data, &noisy);
        }
        assert!(
            q_best >= q_noisy_sum / reps as f64 - 1e-9,
            "argmax quality {q_best} must dominate the noisy average"
        );
    }
}
