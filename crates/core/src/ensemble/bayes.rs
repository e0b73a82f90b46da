//! The historical two-parent Bayesian-network combiner (paper §4.2): each
//! class gets its own BN with two parent nodes — the CNN's prediction and
//! the IMU model's prediction — and a child node indicating class
//! membership. The conditional probability tables are computed from
//! observation counts on training data.
//!
//! Test-only: this is the frozen reference the N-ary combiner's two-parent
//! fit and inference are pinned against bit for bit (see `nary.rs`
//! tests). Production code fuses through [`super::NaryBayesianCombiner`].

use darnet_tensor::Tensor;

use crate::error::CoreError;
use crate::Result;

/// The per-class Bayesian-network ensemble.
///
/// For class `c` the CPT stores `P(Y = c | A = a, B = b)` where `A` is the
/// CNN's predicted 6-class label and `B` the IMU model's predicted 3-class
/// label. Inference marginalizes over the parents using the two models'
/// full probability outputs:
///
/// `score(c) = Σ_a Σ_b  p_cnn(a) · p_imu(b) · CPT_c[a][b]`
///
/// Laplace smoothing keeps unseen parent combinations usable.
#[derive(Debug, Clone, PartialEq)]
pub struct BayesianCombiner {
    classes: usize,
    imu_classes: usize,
    /// `cpt[c][a][b]`, flattened.
    cpt: Vec<f32>,
    alpha: f32,
    fitted: bool,
}

impl BayesianCombiner {
    /// Creates an unfitted combiner for `classes` behaviour classes and
    /// `imu_classes` IMU classes, with Laplace smoothing `alpha`.
    pub fn new(classes: usize, imu_classes: usize, alpha: f32) -> Self {
        BayesianCombiner {
            classes,
            imu_classes,
            cpt: vec![0.0; classes * classes * imu_classes],
            alpha,
            fitted: false,
        }
    }

    fn idx(&self, c: usize, a: usize, b: usize) -> usize {
        (c * self.classes + a) * self.imu_classes + b
    }

    /// The CPT entry `P(Y=c | A=a, B=b)`.
    pub fn cpt(&self, c: usize, a: usize, b: usize) -> f32 {
        self.cpt[self.idx(c, a, b)]
    }

    /// Estimates the CPTs from training observations: the two models'
    /// probability outputs (`[n, classes]` and `[n, imu_classes]`) and the
    /// true labels. Counting uses each model's argmax (the "number of
    /// true-positive observations" of the paper).
    ///
    /// # Errors
    ///
    /// Returns an error on shape/label mismatches.
    pub fn fit(&mut self, cnn_probs: &Tensor, imu_probs: &Tensor, labels: &[usize]) -> Result<()> {
        let n = labels.len();
        if cnn_probs.dims() != [n, self.classes] || imu_probs.dims() != [n, self.imu_classes] {
            return Err(CoreError::Dataset(format!(
                "combiner fit shape mismatch: cnn {:?}, imu {:?}, {n} labels",
                cnn_probs.dims(),
                imu_probs.dims()
            )));
        }
        let a_pred = cnn_probs.argmax_rows()?;
        let b_pred = imu_probs.argmax_rows()?;
        // counts[c][a][b]
        let mut counts = vec![0.0f32; self.cpt.len()];
        for i in 0..n {
            let label = labels[i];
            if label >= self.classes {
                return Err(CoreError::Dataset(format!(
                    "label {label} out of range for {} classes",
                    self.classes
                )));
            }
            counts[self.idx(label, a_pred[i], b_pred[i])] += 1.0;
        }
        // Normalize over c for each (a, b) with Laplace smoothing.
        for a in 0..self.classes {
            for b in 0..self.imu_classes {
                let total: f32 = (0..self.classes).map(|c| counts[self.idx(c, a, b)]).sum();
                let denom = total + self.alpha * self.classes as f32;
                for c in 0..self.classes {
                    let i = self.idx(c, a, b);
                    self.cpt[i] = (counts[i] + self.alpha) / denom;
                }
            }
        }
        self.fitted = true;
        Ok(())
    }

    /// Combines one sample's probability rows into class scores
    /// (normalized to a distribution).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting or on width
    /// mismatches.
    pub fn combine(&self, cnn_probs: &[f32], imu_probs: &[f32]) -> Result<Vec<f32>> {
        if !self.fitted {
            return Err(CoreError::NotReady("bayesian combiner not fitted".into()));
        }
        if cnn_probs.len() != self.classes || imu_probs.len() != self.imu_classes {
            return Err(CoreError::Dataset(format!(
                "combiner expects {}/{} probabilities, got {}/{}",
                self.classes,
                self.imu_classes,
                cnn_probs.len(),
                imu_probs.len()
            )));
        }
        let mut scores = vec![0.0f32; self.classes];
        for (a, &pa) in cnn_probs.iter().enumerate().take(self.classes) {
            if pa == 0.0 {
                continue;
            }
            for (b, &pb) in imu_probs.iter().enumerate().take(self.imu_classes) {
                let w = pa * pb;
                if w == 0.0 {
                    continue;
                }
                for (c, s) in scores.iter_mut().enumerate() {
                    *s += w * self.cpt(c, a, b);
                }
            }
        }
        let total: f32 = scores.iter().sum();
        if total > 0.0 {
            for s in scores.iter_mut() {
                *s /= total;
            }
        }
        Ok(scores)
    }
}
