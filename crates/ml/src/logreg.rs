//! Logistic regression trained with stochastic gradient descent.
//!
//! The binary model's probability output is used directly as a degree of
//! truth in OpineDB's membership functions: "we can directly use the
//! probability output as the membership function" (Sec. 3.3).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed; training is deterministic for a given seed.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 17,
        }
    }
}

/// A binary logistic-regression classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Trains on `(features, label)` pairs; every feature vector must have
    /// the same length. Returns a zero model for an empty training set.
    pub fn train(data: &[(Vec<f64>, bool)], config: &LogRegConfig) -> Self {
        let dim = data.first().map(|(x, _)| x.len()).unwrap_or(0);
        assert!(
            data.iter().all(|(x, _)| x.len() == dim),
            "all feature vectors must have equal length"
        );
        let mut model = Self {
            weights: vec![0.0; dim],
            bias: 0.0,
        };
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (x, y) = &data[i];
                let target = if *y { 1.0 } else { 0.0 };
                let p = model.predict_proba(x);
                let err = target - p;
                for (w, xi) in model.weights.iter_mut().zip(x) {
                    *w += config.learning_rate * (err * xi - config.l2 * *w);
                }
                model.bias += config.learning_rate * err;
            }
        }
        model
    }

    /// `P(label = true | x)` — a value in `(0, 1)`.
    ///
    /// A model trained on an empty set has no weights and returns 0.5 for
    /// any input; extra feature dimensions beyond the trained width are
    /// ignored.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let z: f64 = self.bias
            + self
                .weights
                .iter()
                .zip(x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>();
        sigmoid(z)
    }

    /// Hard decision at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Learned weights (for inspection / tests).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned bias: `predict_proba(x)` is the sigmoid of `bias` plus
    /// the weighted sum of `x`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Fraction of correctly classified examples.
    pub fn accuracy(&self, data: &[(Vec<f64>, bool)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }
}

/// One-vs-rest multiclass logistic regression.
#[derive(Debug, Clone)]
pub struct MulticlassLogReg {
    models: Vec<LogisticRegression>,
}

impl MulticlassLogReg {
    /// Trains `num_classes` one-vs-rest binary models.
    pub fn train(data: &[(Vec<f64>, usize)], num_classes: usize, config: &LogRegConfig) -> Self {
        let models = (0..num_classes)
            .map(|class| {
                let binary: Vec<(Vec<f64>, bool)> =
                    data.iter().map(|(x, y)| (x.clone(), *y == class)).collect();
                LogisticRegression::train(&binary, config)
            })
            .collect();
        Self { models }
    }

    /// The class with the highest one-vs-rest probability.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.scores(x)
            .into_iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Per-class probabilities (not normalized across classes).
    pub fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.models.iter().map(|m| m.predict_proba(x)).collect()
    }

    /// Fraction of correctly classified examples.
    pub fn accuracy(&self, data: &[(Vec<f64>, usize)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable() -> Vec<(Vec<f64>, bool)> {
        // y = x0 > x1
        let mut data = Vec::new();
        for i in 0..40 {
            let a = i as f64 / 40.0;
            data.push((vec![a + 1.0, a], true));
            data.push((vec![a, a + 1.0], false));
        }
        data
    }

    #[test]
    fn learns_separable_data() {
        let data = linearly_separable();
        let model = LogisticRegression::train(&data, &LogRegConfig::default());
        assert!(model.accuracy(&data) > 0.98);
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let data = linearly_separable();
        let model = LogisticRegression::train(&data, &LogRegConfig::default());
        for (x, _) in &data {
            let p = model.predict_proba(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn confident_examples_get_extreme_probabilities() {
        let data = linearly_separable();
        let model = LogisticRegression::train(&data, &LogRegConfig::default());
        assert!(model.predict_proba(&[5.0, 0.0]) > 0.9);
        assert!(model.predict_proba(&[0.0, 5.0]) < 0.1);
    }

    #[test]
    fn empty_training_set_is_neutral() {
        let model = LogisticRegression::train(&[], &LogRegConfig::default());
        assert_eq!(model.predict_proba(&[]), 0.5);
    }

    #[test]
    fn training_is_deterministic() {
        let data = linearly_separable();
        let a = LogisticRegression::train(&data, &LogRegConfig::default());
        let b = LogisticRegression::train(&data, &LogRegConfig::default());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn multiclass_learns_three_clusters() {
        let mut data = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.02;
            data.push((vec![1.0 + jitter, 0.0, 0.0], 0usize));
            data.push((vec![0.0, 1.0 + jitter, 0.0], 1));
            data.push((vec![0.0, 0.0, 1.0 + jitter], 2));
        }
        let model = MulticlassLogReg::train(&data, 3, &LogRegConfig::default());
        assert!(model.accuracy(&data) > 0.98);
        assert_eq!(model.predict(&[0.9, 0.1, 0.0]), 0);
        assert_eq!(model.predict(&[0.0, 0.9, 0.1]), 1);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_features_panic() {
        let data = vec![(vec![1.0], true), (vec![1.0, 2.0], false)];
        let _ = LogisticRegression::train(&data, &LogRegConfig::default());
    }
}
