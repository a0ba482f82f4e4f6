//! Linear hinge-loss C-SVM trained with Pegasos-style projected sub-gradient
//! descent (Shalev-Shwartz et al.), standing in for LIBSVM's linear C-SVM
//! with C = 1 (§6.1): the same objective, minimised without a native
//! library.
//!
//! Objective: `min_w λ/2·‖w‖² + (1/n)·Σ max(0, 1 − yᵢ·w·xᵢ)` with
//! `λ = 1/(C·n)`.

use rand::{Rng, RngExt};

use crate::features::{dot, FeatureMatrix};

/// A trained linear classifier: `predict(x) = sign(w·x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// Weight vector (bias folded into the last feature).
    pub weights: Vec<f64>,
}

impl LinearSvm {
    /// Trains with hinge loss and regularisation `C` (paper default 1.0).
    ///
    /// # Panics
    /// Panics if the matrix is empty or `c <= 0`.
    pub fn train_hinge<R: Rng + ?Sized>(
        data: &FeatureMatrix,
        c: f64,
        epochs: usize,
        rng: &mut R,
    ) -> Self {
        assert!(data.rows() > 0, "no training rows");
        assert!(c > 0.0, "C must be positive");
        let n = data.rows();
        let lambda = 1.0 / (c * n as f64);
        let mut w = vec![0.0f64; data.dim];
        let total_steps = epochs * n;
        for t in 1..=total_steps {
            let i = rng.random_range(0..n);
            let eta = 1.0 / (lambda * t as f64);
            let xi = data.row(i);
            let margin = data.y[i] * dot(&w, xi);
            // w ← (1 − η·λ)·w  [+ η·y·x if the hinge is active]
            let shrink = 1.0 - eta * lambda;
            for v in &mut w {
                *v *= shrink;
            }
            if margin < 1.0 {
                let step = eta * data.y[i];
                for (v, &x) in w.iter_mut().zip(xi) {
                    *v += step * x;
                }
            }
            // Pegasos projection onto the ‖w‖ ≤ 1/√λ ball.
            let norm = dot(&w, &w).sqrt();
            let bound = (1.0 / lambda).sqrt();
            if norm > bound {
                let s = bound / norm;
                for v in &mut w {
                    *v *= s;
                }
            }
        }
        Self { weights: w }
    }

    /// Builds a classifier from explicit weights (used by the private
    /// learners, which optimise their own objectives).
    #[must_use]
    pub fn from_weights(weights: Vec<f64>) -> Self {
        Self { weights }
    }

    /// The signed margin `w·x`.
    #[must_use]
    pub fn margin(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x)
    }

    /// ±1 prediction (0 margins predict +1).
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.margin(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::misclassification_rate;
    use privbayes_data::{Attribute, Dataset, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// target == strongly determined by feature attribute.
    fn separable(n: usize, noise: f64, seed: u64) -> FeatureMatrix {
        let schema = Schema::new(vec![
            Attribute::binary("t"),
            Attribute::binary("f1"),
            Attribute::categorical("f2", 3).unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let t = rng.random_range(0..2u32);
                let f1 = if rng.random::<f64>() < noise { 1 - t } else { t };
                vec![t, f1, rng.random_range(0..3u32)]
            })
            .collect();
        let ds = Dataset::from_rows(schema, &rows).unwrap();
        FeatureMatrix::build(&ds, 0, &[1])
    }

    #[test]
    fn learns_separable_data() {
        let train = separable(1000, 0.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let svm = LinearSvm::train_hinge(&train, 1.0, 20, &mut rng);
        let err = misclassification_rate(&svm, &train);
        assert!(err < 0.02, "separable data should be learned, err = {err}");
    }

    #[test]
    fn tolerates_label_noise() {
        let train = separable(2000, 0.1, 3);
        let test = separable(500, 0.1, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let svm = LinearSvm::train_hinge(&train, 1.0, 20, &mut rng);
        let err = misclassification_rate(&svm, &test);
        assert!(err < 0.2, "should approach the 10% Bayes rate, err = {err}");
    }

    #[test]
    fn prediction_is_sign_of_margin() {
        let svm = LinearSvm::from_weights(vec![1.0, -2.0]);
        assert_eq!(svm.predict(&[1.0, 0.0]), 1.0);
        assert_eq!(svm.predict(&[0.0, 1.0]), -1.0);
        assert_eq!(svm.predict(&[0.0, 0.0]), 1.0, "ties go positive");
    }

    #[test]
    #[should_panic(expected = "no training rows")]
    fn rejects_empty_training_set() {
        let m = FeatureMatrix { x: vec![], y: vec![], dim: 3 };
        let mut rng = StdRng::seed_from_u64(6);
        let _ = LinearSvm::train_hinge(&m, 1.0, 5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn rejects_non_positive_c() {
        let train = separable(10, 0.0, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let _ = LinearSvm::train_hinge(&train, 0.0, 5, &mut rng);
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let train = separable(200, 0.05, 9);
        let fit = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            LinearSvm::train_hinge(&train, 1.0, 5, &mut rng).weights
        };
        assert_eq!(fit(11), fit(11));
    }

    #[test]
    fn weights_respect_the_pegasos_ball() {
        // After training, ‖w‖ ≤ 1/√λ = √(C·n) must hold (the projection
        // invariant the convergence analysis relies on).
        let train = separable(300, 0.2, 12);
        let c = 1.0;
        let mut rng = StdRng::seed_from_u64(13);
        let svm = LinearSvm::train_hinge(&train, c, 10, &mut rng);
        let norm = dot(&svm.weights, &svm.weights).sqrt();
        let bound = (c * train.rows() as f64).sqrt();
        assert!(norm <= bound + 1e-9, "‖w‖ = {norm} exceeds {bound}");
    }

    #[test]
    fn flipped_labels_flip_the_classifier() {
        // Symmetry: negating every label must negate predictions on the
        // same inputs (up to tie-breaking at exactly zero margin).
        let train = separable(800, 0.0, 14);
        let mut flipped = train.clone();
        for l in &mut flipped.y {
            *l = -*l;
        }
        let mut rng = StdRng::seed_from_u64(15);
        let svm = LinearSvm::train_hinge(&train, 1.0, 15, &mut rng);
        let mut rng = StdRng::seed_from_u64(15);
        let svm_flipped = LinearSvm::train_hinge(&flipped, 1.0, 15, &mut rng);
        let mut disagreements = 0;
        for i in 0..train.rows() {
            let a = svm.predict(train.row(i));
            let b = svm_flipped.predict(train.row(i));
            if a == b {
                disagreements += 1;
            }
        }
        let frac = disagreements as f64 / train.rows() as f64;
        assert!(frac < 0.05, "flipped training should invert predictions, agreement {frac}");
    }
}
