//! Property-based tests for the ML substrate.

use ml::dataset::{Dataset, Label};
use ml::embedded::EmbeddedModel;
use ml::linear_svm::{LinearSvm, LinearSvmTrainer};
use ml::metrics::{roc_auc, roc_curve, ConfusionMatrix};
use ml::scaler::StandardScaler;
use ml::Classifier;
use proptest::prelude::*;

fn labeled_points(min: usize) -> impl Strategy<Value = Vec<(Vec<f64>, bool)>> {
    prop::collection::vec(
        (prop::collection::vec(-100.0f64..100.0, 3), any::<bool>()),
        min..60,
    )
}

fn to_dataset(points: &[(Vec<f64>, bool)]) -> Dataset {
    let mut d = Dataset::new(3).unwrap();
    for (x, pos) in points {
        let label = if *pos { Label::Positive } else { Label::Negative };
        d.push(x.clone(), label).unwrap();
    }
    d
}

proptest! {
    #[test]
    fn scaler_transform_is_invertible_statistically(points in labeled_points(2)) {
        let d = to_dataset(&points);
        let s = StandardScaler::fit(&d).unwrap();
        let t = s.transform_dataset(&d).unwrap();
        // Column means of transformed data are ~0 for non-constant cols.
        for j in 0..3 {
            let col: Vec<f64> = t.features().iter().map(|r| r[j]).collect();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            prop_assert!(mean.abs() < 1e-6, "col {j} mean {mean}");
        }
    }

    #[test]
    fn svm_training_separable_shifted_clusters(
        shift in 3.0f64..50.0,
        n in 5usize..30,
        seed in 0u64..50,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(2).unwrap();
        for _ in 0..n {
            d.push(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], Label::Negative).unwrap();
            d.push(vec![shift + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], Label::Positive).unwrap();
        }
        let m = LinearSvmTrainer::default().fit(&d).unwrap();
        for (x, y) in d.iter() {
            prop_assert_eq!(m.predict(x), y);
        }
    }

    #[test]
    fn decision_function_is_affine(w in prop::collection::vec(-5.0f64..5.0, 4), b in -5.0f64..5.0,
                                   x in prop::collection::vec(-5.0f64..5.0, 4),
                                   y in prop::collection::vec(-5.0f64..5.0, 4),
                                   k in -3.0f64..3.0) {
        let m = LinearSvm::from_parts(w, b);
        // f(x + k(y-x)) = f(x) + k (f(y) - f(x)) for affine f.
        let mix: Vec<f64> = x.iter().zip(&y).map(|(a, c)| a + k * (c - a)).collect();
        let fx = m.decision_function(&x);
        let fy = m.decision_function(&y);
        let fmix = m.decision_function(&mix);
        prop_assert!((fmix - (fx + k * (fy - fx))).abs() < 1e-6);
    }

    #[test]
    fn embedded_codec_round_trips(weights in prop::collection::vec(-10.0f64..10.0, 1..16), bias in -10.0f64..10.0) {
        let dim = weights.len();
        let svm = LinearSvm::from_parts(weights, bias);
        let scaler = StandardScaler::identity(dim);
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let back = EmbeddedModel::decode(&em.encode()).unwrap();
        prop_assert_eq!(back, em);
    }

    #[test]
    fn embedded_agrees_with_reference_on_sign(
        weights in prop::collection::vec(-3.0f64..3.0, 2..8),
        bias in -3.0f64..3.0,
        x in prop::collection::vec(-3.0f64..3.0, 8),
    ) {
        let dim = weights.len();
        let svm = LinearSvm::from_parts(weights, bias);
        let scaler = StandardScaler::identity(dim);
        let em = EmbeddedModel::translate(&scaler, &svm).unwrap();
        let xs = &x[..dim];
        let ref_score = svm.decision_function(xs);
        // f32 rounding can flip only near-zero scores.
        prop_assume!(ref_score.abs() > 1e-3);
        let xf: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        let got = em.predict_f32(&xf);
        prop_assert_eq!(got, Label::from_sign(ref_score));
    }

    #[test]
    fn confusion_matrix_totals(truth in prop::collection::vec(any::<bool>(), 1..100),
                               pred in prop::collection::vec(any::<bool>(), 1..100)) {
        let n = truth.len().min(pred.len());
        let t: Vec<Label> = truth[..n].iter().map(|&b| if b { Label::Positive } else { Label::Negative }).collect();
        let p: Vec<Label> = pred[..n].iter().map(|&b| if b { Label::Positive } else { Label::Negative }).collect();
        let mut m = ConfusionMatrix::default();
        for (&ti, &pi) in t.iter().zip(&p) {
            m.record(ti, pi);
        }
        prop_assert_eq!(m.total(), n);
        prop_assert_eq!(m.tp + m.fn_, t.iter().filter(|&&l| l == Label::Positive).count());
        prop_assert_eq!(m.fp + m.tn, t.iter().filter(|&&l| l == Label::Negative).count());
        if let Some(acc) = m.accuracy() {
            prop_assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn auc_is_invariant_to_monotone_transform(scores in prop::collection::vec((0.001f64..100.0, any::<bool>()), 4..50)) {
        let scored: Vec<(f64, Label)> = scores.iter()
            .map(|&(s, b)| (s, if b { Label::Positive } else { Label::Negative }))
            .collect();
        prop_assume!(scored.iter().any(|(_, l)| *l == Label::Positive));
        prop_assume!(scored.iter().any(|(_, l)| *l == Label::Negative));
        let a1 = roc_auc(&scored).unwrap();
        // ln is strictly monotone on positive scores.
        let transformed: Vec<(f64, Label)> = scored.iter().map(|&(s, l)| (s.ln(), l)).collect();
        let a2 = roc_auc(&transformed).unwrap();
        prop_assert!((a1 - a2).abs() < 1e-12);
    }

    #[test]
    fn roc_curve_is_monotone_decreasing(scores in prop::collection::vec((-10.0f64..10.0, any::<bool>()), 4..60)) {
        let scored: Vec<(f64, Label)> = scores.iter()
            .map(|&(s, b)| (s, if b { Label::Positive } else { Label::Negative }))
            .collect();
        prop_assume!(scored.iter().any(|(_, l)| *l == Label::Positive));
        prop_assume!(scored.iter().any(|(_, l)| *l == Label::Negative));
        let curve = roc_curve(&scored).unwrap();
        for w in curve.windows(2) {
            prop_assert!(w[1].fpr <= w[0].fpr + 1e-12);
            prop_assert!(w[1].tpr <= w[0].tpr + 1e-12);
            prop_assert!(w[1].threshold >= w[0].threshold || w[0].threshold == f64::NEG_INFINITY);
        }
    }
}

/// Cross-validation of the two SVM trainers: on separable data the dual
/// coordinate-descent and SMO solvers must agree on every training
/// label (their decision functions approximate the same max-margin
/// hyperplane).
#[test]
fn dual_cd_and_smo_agree_on_separable_data() {
    use ml::linear_svm::LinearSvmTrainer;
    use ml::smo::SmoTrainer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(11);
    let mut d = Dataset::new(3).unwrap();
    for _ in 0..40 {
        let n: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        d.push(n, Label::Negative).unwrap();
        let p: Vec<f64> = (0..3).map(|_| 2.5 + rng.gen_range(-1.0..1.0)).collect();
        d.push(p, Label::Positive).unwrap();
    }
    let cd = LinearSvmTrainer {
        balanced: false,
        ..LinearSvmTrainer::default()
    }
    .fit(&d)
    .unwrap();
    let smo = SmoTrainer::default().fit(&d).unwrap();
    for (x, y) in d.iter() {
        assert_eq!(cd.predict(x), y, "dual CD mislabels {x:?}");
        assert_eq!(smo.predict(x), y, "SMO mislabels {x:?}");
    }
    // The SMO hyperplane points the same way as dual CD's. With a
    // linear kernel, `f(e_j) - f(0)` is the j-th weight.
    let origin = smo.decision_function(&[0.0; 3]);
    let w_smo: Vec<f64> = (0..3)
        .map(|j| {
            let mut e = [0.0; 3];
            e[j] = 1.0;
            smo.decision_function(&e) - origin
        })
        .collect();
    let dot: f64 = cd.weights().iter().zip(&w_smo).map(|(a, b)| a * b).sum();
    assert!(dot > 0.0, "hyperplanes disagree in direction");
}
