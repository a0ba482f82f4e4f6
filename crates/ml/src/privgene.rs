//! PrivGene: differentially private model fitting with genetic algorithms
//! (Zhang et al. \[50\]).
//!
//! Each generation, the fittest candidate weight vector is selected with the
//! exponential mechanism (fitness = number of correctly classified training
//! tuples, sensitivity 1) and the next generation is bred from it by
//! crossover and Gaussian mutation. The per-generation budget is ε/r.
//!
//! Faithful simplifications: one parent per generation (the original
//! selects two and pairs offspring) and a fixed mutation schedule — both
//! preserve the method's budget/iteration trade-off, which is what the
//! evaluation exercises.

use privbayes_dp::exponential::exponential_mechanism;
use privbayes_dp::stats::sample_normal;
use rand::{Rng, RngExt};

use crate::features::{dot, FeatureMatrix};
use crate::svm::LinearSvm;

/// PrivGene hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivGeneOptions {
    /// Population size per generation.
    pub population: usize,
    /// Number of generations `r`; `None` derives it from the budget as
    /// `clamp(round(ε·n / 800), 2, 30)` (the original scales iterations with
    /// ε·n).
    pub generations: Option<usize>,
    /// Initial mutation standard deviation (decays geometrically).
    pub mutation_std: f64,
}

impl Default for PrivGeneOptions {
    fn default() -> Self {
        Self { population: 100, generations: None, mutation_std: 0.3 }
    }
}

/// The PrivGene learner.
#[derive(Debug, Clone)]
pub struct PrivGene {
    options: PrivGeneOptions,
}

impl PrivGene {
    /// Creates the learner.
    #[must_use]
    pub fn new(options: PrivGeneOptions) -> Self {
        Self { options }
    }

    fn generations_for(&self, epsilon: f64, n: usize) -> usize {
        self.options
            .generations
            .unwrap_or_else(|| ((epsilon * n as f64 / 800.0).round() as usize).clamp(2, 30))
    }

    /// Trains an ε-DP linear classifier.
    ///
    /// # Panics
    /// Panics if the training set is empty, ε ≤ 0, or the population < 2.
    pub fn train<R: Rng + ?Sized>(
        &self,
        train: &FeatureMatrix,
        epsilon: f64,
        rng: &mut R,
    ) -> LinearSvm {
        assert!(train.rows() > 0, "empty training set");
        assert!(epsilon > 0.0 && epsilon.is_finite(), "epsilon must be positive");
        assert!(self.options.population >= 2, "population must be at least 2");
        let dim = train.dim;
        let generations = self.generations_for(epsilon, train.rows());
        let eps_per_gen = epsilon / generations as f64;

        // Fitness: correctly classified count; changing one tuple moves it by
        // at most 1 → sensitivity 1.
        let fitness = |w: &[f64]| -> f64 {
            (0..train.rows())
                .filter(|&i| {
                    let margin = train.y[i] * dot(w, train.row(i));
                    margin > 0.0
                })
                .count() as f64
        };

        let mut population: Vec<Vec<f64>> = (0..self.options.population)
            .map(|_| (0..dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect())
            .collect();
        let mut best = population[0].clone();
        let mut std = self.options.mutation_std;

        for _ in 0..generations {
            let scores: Vec<f64> = population.iter().map(|w| fitness(w)).collect();
            let chosen =
                exponential_mechanism(&scores, 1.0, eps_per_gen, rng).expect("valid scores");
            best = population[chosen].clone();

            // Breed the next generation: crossover best with random
            // population members, then mutate.
            let mut next = Vec::with_capacity(self.options.population);
            next.push(best.clone());
            while next.len() < self.options.population {
                let mate = &population[rng.random_range(0..population.len())];
                let mut child: Vec<f64> = best
                    .iter()
                    .zip(mate)
                    .map(|(&a, &b)| if rng.random::<bool>() { a } else { b })
                    .collect();
                for v in &mut child {
                    *v += sample_normal(0.0, std, rng);
                }
                next.push(child);
            }
            population = next;
            std *= 0.9;
        }
        LinearSvm::from_weights(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::misclassification_rate;
    use privbayes_data::{Attribute, Dataset, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn separable(n: usize, seed: u64) -> FeatureMatrix {
        let schema = Schema::new(vec![
            Attribute::binary("t"),
            Attribute::binary("f"),
            Attribute::binary("g"),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let t = rng.random_range(0..2u32);
                vec![t, t, rng.random_range(0..2u32)]
            })
            .collect();
        let ds = Dataset::from_rows(schema, &rows).unwrap();
        FeatureMatrix::build(&ds, 0, &[1])
    }

    #[test]
    fn generation_count_scales_with_budget() {
        let pg = PrivGene::new(PrivGeneOptions::default());
        assert_eq!(pg.generations_for(0.05, 1000), 2, "floor at 2");
        assert_eq!(pg.generations_for(1.6, 20_000), 30, "cap at 30");
        let mid = pg.generations_for(0.4, 10_000);
        assert!(mid > 2 && mid < 30);
    }

    #[test]
    fn explicit_generations_respected() {
        let pg =
            PrivGene::new(PrivGeneOptions { generations: Some(7), ..PrivGeneOptions::default() });
        assert_eq!(pg.generations_for(0.1, 10), 7);
    }

    #[test]
    fn large_budget_learns_separable_data() {
        let train = separable(600, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let pg = PrivGene::new(PrivGeneOptions {
            population: 80,
            generations: Some(15),
            mutation_std: 0.3,
        });
        let model = pg.train(&train, 100.0, &mut rng);
        let err = misclassification_rate(&model, &train);
        assert!(err < 0.2, "PrivGene at huge ε should learn, err = {err}");
    }

    #[test]
    fn output_shape_and_finiteness() {
        let train = separable(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let model = PrivGene::new(PrivGeneOptions::default()).train(&train, 0.1, &mut rng);
        assert_eq!(model.weights.len(), train.dim);
        assert!(model.weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_bad_epsilon() {
        let train = separable(10, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = PrivGene::new(PrivGeneOptions::default()).train(&train, 0.0, &mut rng);
    }
}
