//! Linear support-vector machine trained by dual coordinate descent.
//!
//! This is the algorithm behind liblinear's L1-loss SVC (Hsieh et al.,
//! ICML 2008): solve
//!
//! ```text
//! min_w  ½‖w‖² + C Σᵢ max(0, 1 − yᵢ w·xᵢ)
//! ```
//!
//! in the dual, one coordinate `αᵢ ∈ [0, Cᵢ]` at a time, maintaining
//! `w = Σ αᵢ yᵢ xᵢ` incrementally. A bias term is handled by augmenting
//! every sample with a constant feature. Per-class costs compensate for
//! the strong class imbalance in SIFT's training protocol (positives come
//! from eleven donor subjects, negatives from one wearer).

use crate::{Classifier, Dataset, Label, MlError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for [`LinearSvmTrainer::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvmTrainer {
    /// Soft-margin cost parameter `C`.
    pub c: f64,
    /// Convergence tolerance on the maximal projected gradient.
    pub tol: f64,
    /// Maximum passes over the data.
    pub max_passes: usize,
    /// Magnitude of the augmented bias feature (0 disables the bias).
    pub bias_scale: f64,
    /// Reweight per-class costs inversely to class frequency
    /// (`C_class = C · n / (2 · n_class)`).
    pub balanced: bool,
    /// RNG seed for the coordinate-selection shuffle.
    pub seed: u64,
}

impl Default for LinearSvmTrainer {
    fn default() -> Self {
        Self {
            c: 1.0,
            tol: 1e-4,
            max_passes: 1000,
            bias_scale: 1.0,
            balanced: true,
            seed: 0x51F7,
        }
    }
}

impl LinearSvmTrainer {
    /// Train a linear SVM on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] on an empty dataset,
    /// [`MlError::SingleClass`] when only one label is present, and
    /// [`MlError::InvalidParameter`] for non-positive `c` or `tol`.
    pub fn fit(&self, data: &Dataset) -> Result<LinearSvm, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if !data.has_both_classes() {
            return Err(MlError::SingleClass);
        }
        if self.c <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: "cost must be positive",
            });
        }
        if self.tol <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "tol",
                reason: "tolerance must be positive",
            });
        }

        let n = data.len();
        let dim = data.dim();
        let aug = dim + usize::from(self.bias_scale != 0.0);

        // Per-class costs.
        let (c_pos, c_neg) = if self.balanced {
            let n_pos = data.count(Label::Positive) as f64;
            let n_neg = data.count(Label::Negative) as f64;
            (
                self.c * n as f64 / (2.0 * n_pos),
                self.c * n as f64 / (2.0 * n_neg),
            )
        } else {
            (self.c, self.c)
        };

        // Pre-compute augmented rows, labels, and Q_ii.
        let rows: Vec<Vec<f64>> = data
            .iter()
            .map(|(x, _)| {
                let mut r = x.to_vec();
                if self.bias_scale != 0.0 {
                    r.push(self.bias_scale);
                }
                r
            })
            .collect();
        let y: Vec<f64> = data.labels().iter().map(|l| l.sign()).collect();
        let upper: Vec<f64> = data
            .labels()
            .iter()
            .map(|l| match l {
                Label::Positive => c_pos,
                Label::Negative => c_neg,
            })
            .collect();
        let q_diag: Vec<f64> = rows.iter().map(|r| dot(r, r)).collect();

        let mut alpha = vec![0.0f64; n];
        let mut w = vec![0.0f64; aug];
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);

        for _pass in 0..self.max_passes {
            order.shuffle(&mut rng);
            let mut max_pg: f64 = 0.0;
            for &i in &order {
                if q_diag[i] <= 0.0 {
                    continue;
                }
                let g = y[i] * dot(&w, &rows[i]) - 1.0;
                // Projected gradient respecting the box [0, upper_i].
                let pg = if alpha[i] <= 0.0 {
                    g.min(0.0)
                } else if alpha[i] >= upper[i] {
                    g.max(0.0)
                } else {
                    g
                };
                if pg.abs() > 1e-12 {
                    max_pg = max_pg.max(pg.abs());
                    let old = alpha[i];
                    alpha[i] = (old - g / q_diag[i]).clamp(0.0, upper[i]);
                    let delta = (alpha[i] - old) * y[i];
                    if delta != 0.0 {
                        for (wj, xj) in w.iter_mut().zip(&rows[i]) {
                            *wj += delta * xj;
                        }
                    }
                }
            }
            if max_pg < self.tol {
                break;
            }
        }

        let (weights, bias) = if self.bias_scale != 0.0 {
            let b = w[dim] * self.bias_scale;
            w.truncate(dim);
            (w, b)
        } else {
            (w, 0.0)
        };
        Ok(LinearSvm { weights, bias })
    }
}

/// A trained linear SVM: `f(x) = w·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Construct directly from weights and bias.
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// Hyperplane normal vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Bias (intercept) term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Feature dimension the model expects.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }
}

impl Classifier for LinearSvm {
    fn decision_function(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        // Two clusters separated along x₀ + x₁ = 1.
        let mut d = Dataset::new(2).unwrap();
        for i in 0..20 {
            let t = i as f64 * 0.05;
            d.push(vec![t * 0.3, t * 0.25], Label::Negative).unwrap();
            d.push(vec![1.0 + t * 0.3, 1.0 + t * 0.25], Label::Positive)
                .unwrap();
        }
        d
    }

    #[test]
    fn separates_linearly_separable_data() {
        let d = separable();
        let m = LinearSvmTrainer::default().fit(&d).unwrap();
        for (x, y) in d.iter() {
            assert_eq!(m.predict(x), y, "x={x:?}");
        }
    }

    #[test]
    fn decision_sign_matches_geometry() {
        let d = separable();
        let m = LinearSvmTrainer::default().fit(&d).unwrap();
        assert!(m.decision_function(&[2.0, 2.0]) > 0.0);
        assert!(m.decision_function(&[-1.0, -1.0]) < 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let d = separable();
        let t = LinearSvmTrainer::default();
        let a = t.fit(&d).unwrap();
        let b = t.fit(&d).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_single_class() {
        let mut d = Dataset::new(1).unwrap();
        d.push(vec![1.0], Label::Positive).unwrap();
        d.push(vec![2.0], Label::Positive).unwrap();
        assert_eq!(
            LinearSvmTrainer::default().fit(&d),
            Err(MlError::SingleClass)
        );
    }

    #[test]
    fn rejects_empty_and_bad_params() {
        let d = Dataset::new(1).unwrap();
        assert_eq!(
            LinearSvmTrainer::default().fit(&d),
            Err(MlError::EmptyDataset)
        );
        let mut d = Dataset::new(1).unwrap();
        d.push(vec![0.0], Label::Negative).unwrap();
        d.push(vec![1.0], Label::Positive).unwrap();
        let bad_c = LinearSvmTrainer {
            c: 0.0,
            ..LinearSvmTrainer::default()
        };
        assert!(bad_c.fit(&d).is_err());
        let bad_tol = LinearSvmTrainer {
            tol: 0.0,
            ..LinearSvmTrainer::default()
        };
        assert!(bad_tol.fit(&d).is_err());
    }

    #[test]
    fn handles_class_imbalance_with_balancing() {
        // 5 negatives vs 50 positives; balanced costs keep the minority
        // class classified correctly.
        let mut d = Dataset::new(1).unwrap();
        for i in 0..5 {
            d.push(vec![-1.0 - 0.01 * i as f64], Label::Negative).unwrap();
        }
        for i in 0..50 {
            d.push(vec![1.0 + 0.01 * i as f64], Label::Positive).unwrap();
        }
        let m = LinearSvmTrainer::default().fit(&d).unwrap();
        assert_eq!(m.predict(&[-1.0]), Label::Negative);
        assert_eq!(m.predict(&[1.0]), Label::Positive);
    }

    #[test]
    fn bias_disabled_when_scale_zero() {
        let d = separable();
        let t = LinearSvmTrainer {
            bias_scale: 0.0,
            ..LinearSvmTrainer::default()
        };
        let m = t.fit(&d).unwrap();
        assert_eq!(m.bias(), 0.0);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn noisy_data_still_mostly_correct() {
        // Overlapping Gaussians: expect > 80 % training accuracy.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dataset::new(2).unwrap();
        for _ in 0..100 {
            let x = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            d.push(x, Label::Negative).unwrap();
            let x = vec![
                1.2 + rng.gen_range(-1.0..1.0),
                1.2 + rng.gen_range(-1.0..1.0),
            ];
            d.push(x, Label::Positive).unwrap();
        }
        let m = LinearSvmTrainer::default().fit(&d).unwrap();
        let correct = d.iter().filter(|(x, y)| m.predict(x) == *y).count();
        assert!(correct as f64 / d.len() as f64 > 0.8);
    }
}
