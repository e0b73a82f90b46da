//! The Bayesian-network combiner (paper §4.2) over an arbitrary ordered
//! list of parent streams: each class gets its own BN whose parents are
//! the registered streams' predictions and whose child indicates class
//! membership, with conditional probability tables computed from
//! observation counts on training data.
//!
//! The flattened CPT layout folds the parent indices lexicographically —
//! `idx = ((c · card₀ + a₀) · card₁ + a₁) …` — which for the paper's
//! `[cnn, imu]` pair is exactly the historical two-parent
//! `(c · classes + a) · imu_classes + b` layout. The 2-parent fit and
//! inference reproduce the historical pair combiner bitwise (same visit
//! order, zero-weight skips, accumulation order and normalization); the
//! tests below pin that against the frozen pair reference.

use serde::{Deserialize, Serialize};

use darnet_tensor::Tensor;

use crate::error::CoreError;
use crate::Result;

/// The N-parent per-class Bayesian-network ensemble.
///
/// For class `c` the CPT stores `P(Y = c | A₀ = a₀, …, Aₖ = aₖ)` over the
/// registered parents' predicted labels. Inference marginalizes over every
/// parent using its full probability output:
///
/// `score(c) = Σ_{a₀} … Σ_{aₖ}  Π p_k(a_k) · CPT_c[a₀]…[aₖ]`
///
/// A parent missing at inference time (an unavailable stream) is summed
/// out with a uniform posterior over its classes, so any healthy subset of
/// two or more parents still yields a calibrated fusion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaryBayesianCombiner {
    classes: usize,
    parent_cards: Vec<usize>,
    /// Per-parent tempering exponent applied to that parent's posterior
    /// before marginalization; `1.0` is neutral (and bitwise-invisible).
    parent_weights: Vec<f32>,
    /// `cpt[c][a₀]…[aₖ]`, flattened lexicographically.
    cpt: Vec<f32>,
    alpha: f32,
    fitted: bool,
}

impl NaryBayesianCombiner {
    /// Creates an unfitted combiner for `classes` output classes over
    /// parents with the given cardinalities (registry order), with Laplace
    /// smoothing `alpha`.
    pub fn new(classes: usize, parent_cards: Vec<usize>, alpha: f32) -> Self {
        let stride: usize = parent_cards.iter().product();
        let weights = vec![1.0; parent_cards.len()];
        NaryBayesianCombiner {
            classes,
            parent_weights: weights,
            cpt: vec![0.0; classes * stride],
            parent_cards,
            alpha,
            fitted: false,
        }
    }

    /// Sets per-parent tempering weights (posterior exponents). A weight
    /// of `1.0` leaves that parent untouched bitwise.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight count does not match the parents.
    pub fn with_weights(mut self, weights: Vec<f32>) -> Result<Self> {
        if weights.len() != self.parent_cards.len() {
            return Err(CoreError::Dataset(format!(
                "{} weights for {} parents",
                weights.len(),
                self.parent_cards.len()
            )));
        }
        self.parent_weights = weights;
        Ok(self)
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Parent cardinalities in registry order.
    pub fn parent_cards(&self) -> &[usize] {
        &self.parent_cards
    }

    /// Whether [`NaryBayesianCombiner::fit`] has run.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Product of all parent cardinalities: the per-class CPT block size.
    fn stride(&self) -> usize {
        self.parent_cards.iter().product()
    }

    /// Estimates the CPTs from training observations: each parent's
    /// probability output (`[n, card_k]`, registry order) and the true
    /// labels. Counting uses each parent's argmax, exactly as the legacy
    /// pair fit does.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/label mismatches.
    pub fn fit(&mut self, parent_probs: &[&Tensor], labels: &[usize]) -> Result<()> {
        if parent_probs.len() != self.parent_cards.len() {
            return Err(CoreError::Dataset(format!(
                "{} parent tensors for {} registered parents",
                parent_probs.len(),
                self.parent_cards.len()
            )));
        }
        let n = labels.len();
        for (k, probs) in parent_probs.iter().enumerate() {
            if probs.dims() != [n, self.parent_cards[k]] {
                return Err(CoreError::Dataset(format!(
                    "parent {k} fit shape mismatch: {:?} for {n} labels of width {}",
                    probs.dims(),
                    self.parent_cards[k]
                )));
            }
        }
        let preds: Vec<Vec<usize>> = parent_probs
            .iter()
            .map(|p| p.argmax_rows())
            .collect::<std::result::Result<_, _>>()?;
        let stride = self.stride();
        let mut counts = vec![0.0f32; self.cpt.len()];
        for i in 0..n {
            let label = labels[i];
            if label >= self.classes {
                return Err(CoreError::Dataset(format!(
                    "label {label} out of range for {} classes",
                    self.classes
                )));
            }
            let mut base = 0usize;
            for (k, p) in preds.iter().enumerate() {
                base = base * self.parent_cards[k] + p[i];
            }
            counts[label * stride + base] += 1.0;
        }
        // Normalize over c for each parent combination with Laplace
        // smoothing — identical arithmetic to the legacy pair fit.
        for base in 0..stride {
            let total: f32 = (0..self.classes).map(|c| counts[c * stride + base]).sum();
            let denom = total + self.alpha * self.classes as f32;
            for c in 0..self.classes {
                let i = c * stride + base;
                self.cpt[i] = (counts[i] + self.alpha) / denom;
            }
        }
        self.fitted = true;
        Ok(())
    }

    /// Combines one sample's parent posteriors (all parents present) into
    /// normalized class scores.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting or on width
    /// mismatches.
    pub fn combine_n(&self, parents: &[&[f32]]) -> Result<Vec<f32>> {
        let mut scores = Vec::with_capacity(self.classes);
        self.combine_n_into(parents, &mut scores)?;
        Ok(scores)
    }

    /// [`NaryBayesianCombiner::combine_n`] writing into a caller-provided
    /// buffer (cleared first) — the zero-alloc fusion path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting or on width
    /// mismatches.
    // darlint: hot
    pub fn combine_n_into(&self, parents: &[&[f32]], scores: &mut Vec<f32>) -> Result<()> {
        const MAX_PARENTS: usize = 8;
        if parents.len() > MAX_PARENTS {
            return Err(CoreError::Dataset(format!(
                "{} parents exceeds the {MAX_PARENTS}-stream registry cap",
                parents.len()
            )));
        }
        let mut subset: [Option<&[f32]>; MAX_PARENTS] = [None; MAX_PARENTS];
        for (slot, p) in subset.iter_mut().zip(parents) {
            *slot = Some(p);
        }
        self.combine_subset_into(&subset[..parents.len()], scores)
    }

    /// Combines whichever parents are present (`Some`), summing absent
    /// parents out with a uniform posterior. This is the healthy-subset
    /// fusion primitive: the engine drops an unavailable stream by passing
    /// `None` in its registry slot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before fitting, a dataset error on
    /// width mismatches, a wrong parent count, or when every parent is
    /// absent.
    // darlint: hot
    pub fn combine_subset_into(
        &self,
        parents: &[Option<&[f32]>],
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        if !self.fitted {
            return Err(CoreError::NotReady("bayesian combiner not fitted".into()));
        }
        if parents.len() != self.parent_cards.len() {
            return Err(CoreError::Dataset(format!(
                "{} parent rows for {} registered parents",
                parents.len(),
                self.parent_cards.len()
            )));
        }
        let mut present = 0usize;
        for (k, p) in parents.iter().enumerate() {
            if let Some(row) = p {
                if row.len() != self.parent_cards[k] {
                    return Err(CoreError::Dataset(format!(
                        "parent {k} expects {} probabilities, got {}",
                        self.parent_cards[k],
                        row.len()
                    )));
                }
                present += 1;
            }
        }
        if present == 0 {
            return Err(CoreError::NotReady(
                "every parent stream is absent — nothing to fuse".into(),
            ));
        }
        scores.clear();
        scores.resize(self.classes, 0.0);
        self.descend(parents, 0, 1.0, 0, scores);
        let total: f32 = scores.iter().sum();
        if total > 0.0 {
            for s in scores.iter_mut() {
                *s /= total;
            }
        }
        Ok(())
    }

    /// Recursive lexicographic descent over the parent label space. The
    /// weight threading starts at `1.0`, so the first level's weight is
    /// `1.0 · p₀` — bitwise `p₀` — and every deeper level multiplies in
    /// exactly the legacy order; zero weights prune the subtree exactly
    /// where the legacy nested loop `continue`d.
    // darlint: hot
    fn descend(
        &self,
        parents: &[Option<&[f32]>],
        depth: usize,
        w: f32,
        base: usize,
        scores: &mut [f32],
    ) {
        if depth == parents.len() {
            let stride = self.stride();
            for (c, s) in scores.iter_mut().enumerate() {
                *s += w * self.cpt[c * stride + base];
            }
            return;
        }
        let card = self.parent_cards[depth];
        let weight = self.parent_weights[depth];
        match parents[depth] {
            Some(probs) => {
                for (a, &p) in probs.iter().enumerate().take(card) {
                    let p = if weight == 1.0 { p } else { p.powf(weight) };
                    let w_new = w * p;
                    if w_new == 0.0 {
                        continue;
                    }
                    self.descend(parents, depth + 1, w_new, base * card + a, scores);
                }
            }
            None => {
                // Absent parent: marginalize with a uniform posterior.
                let p = 1.0 / card as f32;
                let p = if weight == 1.0 { p } else { p.powf(weight) };
                for a in 0..card {
                    let w_new = w * p;
                    if w_new == 0.0 {
                        continue;
                    }
                    self.descend(parents, depth + 1, w_new, base * card + a, scores);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::BayesianCombiner;
    use super::*;
    use darnet_tensor::SplitMix64;
    use proptest::prelude::*;

    fn random_rows(rng: &mut SplitMix64, n: usize, width: usize, zeros: bool) -> Vec<f32> {
        let mut rows = Vec::with_capacity(n * width);
        for _ in 0..n {
            let mut row: Vec<f32> = (0..width)
                .map(|_| {
                    if zeros && rng.next_f64() < 0.2 {
                        0.0
                    } else {
                        rng.next_f64() as f32
                    }
                })
                .collect();
            let total: f32 = row.iter().sum();
            if total > 0.0 {
                for v in &mut row {
                    *v /= total;
                }
            }
            rows.extend_from_slice(&row);
        }
        rows
    }

    /// The reference pair combiner and the N-ary one, fitted on the same
    /// random posteriors.
    fn fitted_pair(seed: u64) -> (BayesianCombiner, NaryBayesianCombiner) {
        let mut rng = SplitMix64::new(seed);
        let n = 64;
        let cnn = Tensor::from_vec(random_rows(&mut rng, n, 6, false), &[n, 6]).unwrap();
        let imu = Tensor::from_vec(random_rows(&mut rng, n, 3, false), &[n, 3]).unwrap();
        let labels: Vec<usize> = (0..n).map(|_| rng.next_usize(6)).collect();
        let mut legacy = BayesianCombiner::new(6, 3, 1.0);
        legacy.fit(&cnn, &imu, &labels).unwrap();
        let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        nary.fit(&[&cnn, &imu], &labels).unwrap();
        (legacy, nary)
    }

    #[test]
    fn two_parent_inference_is_bitwise_legacy() {
        let (legacy, nary) = fitted_pair(0x17A5);
        let mut rng = SplitMix64::new(99);
        for case in 0..200 {
            let cnn = random_rows(&mut rng, 1, 6, true);
            let imu = random_rows(&mut rng, 1, 3, true);
            let want = legacy.combine(&cnn, &imu).unwrap();
            let got = nary.combine_n(&[&cnn, &imu]).unwrap();
            assert_eq!(want.len(), got.len());
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case} class {i}");
            }
        }
    }

    #[test]
    fn two_parent_fit_matches_legacy_fit_bitwise() {
        let mut rng = SplitMix64::new(0xF1F1);
        let n = 96;
        let cnn = Tensor::from_vec(random_rows(&mut rng, n, 6, false), &[n, 6]).unwrap();
        let imu = Tensor::from_vec(random_rows(&mut rng, n, 3, false), &[n, 3]).unwrap();
        let labels: Vec<usize> = (0..n).map(|_| rng.next_usize(6)).collect();
        let mut legacy = BayesianCombiner::new(6, 3, 1.0);
        legacy.fit(&cnn, &imu, &labels).unwrap();
        let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        nary.fit(&[&cnn, &imu], &labels).unwrap();
        for c in 0..6 {
            for a in 0..6 {
                for b in 0..3 {
                    let want = legacy.cpt(c, a, b);
                    let got = nary.cpt[(c * 6 + a) * 3 + b];
                    assert_eq!(want.to_bits(), got.to_bits(), "cpt({c},{a},{b})");
                }
            }
        }
    }

    #[test]
    fn three_parent_fit_and_inference_work() {
        let mut rng = SplitMix64::new(7);
        let n = 120;
        let a = Tensor::from_vec(random_rows(&mut rng, n, 8, false), &[n, 8]).unwrap();
        let b = Tensor::from_vec(random_rows(&mut rng, n, 8, false), &[n, 8]).unwrap();
        let c = Tensor::from_vec(random_rows(&mut rng, n, 3, false), &[n, 3]).unwrap();
        let labels: Vec<usize> = (0..n).map(|i| i % 8).collect();
        let mut comb = NaryBayesianCombiner::new(8, vec![8, 8, 3], 1.0);
        comb.fit(&[&a, &b, &c], &labels).unwrap();
        let pa = &a.data()[..8];
        let pb = &b.data()[..8];
        let pc = &c.data()[..3];
        let scores = comb.combine_n(&[pa, pb, pc]).unwrap();
        assert_eq!(scores.len(), 8);
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(scores.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn absent_parent_marginalizes_uniformly() {
        let (_, nary) = fitted_pair(0xAB);
        let mut rng = SplitMix64::new(3);
        let cnn = random_rows(&mut rng, 1, 6, false);
        // Explicit uniform IMU vs absent IMU must agree (the uniform
        // marginalization is exactly a uniform posterior).
        let uniform = vec![1.0 / 3.0; 3];
        let explicit = nary.combine_n(&[&cnn, &uniform]).unwrap();
        let mut absent = Vec::new();
        nary.combine_subset_into(&[Some(&cnn), None], &mut absent)
            .unwrap();
        for (a, b) in explicit.iter().zip(&absent) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn all_absent_or_unfitted_is_an_error() {
        let (_, nary) = fitted_pair(0xCD);
        let mut out = Vec::new();
        assert!(matches!(
            nary.combine_subset_into(&[None, None], &mut out),
            Err(CoreError::NotReady(_))
        ));
        let fresh = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        assert!(matches!(
            fresh.combine_n_into(&[&[0.5; 6][..], &[0.5; 3][..]], &mut out),
            Err(CoreError::NotReady(_))
        ));
        // Wrong widths and wrong parent counts are dataset errors.
        assert!(nary.combine_n(&[&[0.5; 5][..], &[0.5; 3][..]]).is_err());
        assert!(nary.combine_n(&[&[0.5; 6][..]]).is_err());
    }

    #[test]
    fn neutral_weights_are_bitwise_invisible() {
        let (_, nary) = fitted_pair(0xEE);
        let weighted = nary.clone().with_weights(vec![1.0, 1.0]).unwrap();
        let mut rng = SplitMix64::new(11);
        let cnn = random_rows(&mut rng, 1, 6, false);
        let imu = random_rows(&mut rng, 1, 3, false);
        let a = nary.combine_n(&[&cnn, &imu]).unwrap();
        let b = weighted.combine_n(&[&cnn, &imu]).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A non-neutral weight changes the posterior.
        let tempered = nary.clone().with_weights(vec![1.0, 2.0]).unwrap();
        let c = tempered.combine_n(&[&cnn, &imu]).unwrap();
        assert_ne!(a, c);
        assert!(nary.clone().with_weights(vec![1.0]).is_err());
    }

    /// A toy world where the first parent confuses classes 0/1 but the
    /// second resolves them perfectly.
    fn toy_fit() -> NaryBayesianCombiner {
        let n = 200;
        let mut weak = Vec::new();
        let mut strong = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            labels.push(label);
            // Barely informative (52/48) vs highly informative.
            if label == 0 {
                weak.extend_from_slice(&[0.52, 0.48]);
                strong.extend_from_slice(&[0.95, 0.05]);
            } else {
                weak.extend_from_slice(&[0.48, 0.52]);
                strong.extend_from_slice(&[0.05, 0.95]);
            }
        }
        let weak = Tensor::from_vec(weak, &[n, 2]).unwrap();
        let strong = Tensor::from_vec(strong, &[n, 2]).unwrap();
        let mut comb = NaryBayesianCombiner::new(2, vec![2, 2], 1.0);
        comb.fit(&[&weak, &strong], &labels).unwrap();
        comb
    }

    #[test]
    fn combiner_trusts_the_informative_parent() {
        let comb = toy_fit();
        // The weak parent says class 0; the strong one says class 1.
        let scores = comb.combine_n(&[&[0.52, 0.48], &[0.05, 0.95]]).unwrap();
        assert!(scores[1] > scores[0], "{scores:?}");
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Laplace smoothing keeps rare parent combinations usable.
        let scores = comb.combine_n(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(scores.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn combined_accuracy_beats_weak_parent_alone() {
        // Generative model: the first parent is right 70% of the time, the
        // second 95%. The fused posterior should track the more reliable
        // parent and beat the first alone — the structural claim behind
        // the paper's Table 2.
        let gen = |i: usize| -> (usize, [f32; 2], [f32; 2]) {
            let label = i % 2;
            let toward = |right: bool, conf: f32| -> [f32; 2] {
                let target = if right { label } else { 1 - label };
                if target == 0 {
                    [conf, 1.0 - conf]
                } else {
                    [1.0 - conf, conf]
                }
            };
            (
                label,
                toward(i % 10 < 7, 0.7),
                toward(!i.is_multiple_of(20), 0.95),
            )
        };
        let n_fit = 400;
        let mut weak = Vec::new();
        let mut strong = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_fit {
            let (l, a, b) = gen(i);
            labels.push(l);
            weak.extend_from_slice(&a);
            strong.extend_from_slice(&b);
        }
        let mut comb = NaryBayesianCombiner::new(2, vec![2, 2], 1.0);
        comb.fit(
            &[
                &Tensor::from_vec(weak, &[n_fit, 2]).unwrap(),
                &Tensor::from_vec(strong, &[n_fit, 2]).unwrap(),
            ],
            &labels,
        )
        .unwrap();
        // Evaluate on a phase-shifted sample of the same distribution.
        let (mut correct_comb, mut correct_weak) = (0, 0);
        let n = 200;
        for k in 0..n {
            let (label, a, b) = gen(k + 3);
            let scores = comb.combine_n(&[&a, &b]).unwrap();
            correct_comb += usize::from(usize::from(scores[1] > scores[0]) == label);
            correct_weak += usize::from(usize::from(a[1] > a[0]) == label);
        }
        assert!(
            correct_comb > correct_weak,
            "combined {correct_comb} vs weak {correct_weak}"
        );
        assert!(correct_comb as f32 / n as f32 > 0.85);
    }

    #[test]
    fn fit_validates_shapes_and_labels() {
        let mut comb = NaryBayesianCombiner::new(2, vec![2, 2], 1.0);
        let a = Tensor::zeros(&[3, 2]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(comb.fit(&[&a, &b], &[0, 1]).is_err());
        assert!(comb.fit(&[&a, &b], &[0, 1, 5]).is_err());
        assert!(comb.fit(&[&a], &[0, 1, 1]).is_err());
    }

    fn prob_row(n: usize) -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec(0.01f32..1.0, n).prop_map(|v| {
            let s: f32 = v.iter().sum();
            v.into_iter().map(|x| x / s).collect()
        })
    }

    proptest! {
        #[test]
        fn cpt_columns_are_distributions_after_any_fit(
            labels in prop::collection::vec(0usize..3, 10..60),
            seed in 0u64..100,
        ) {
            let n = labels.len();
            let mut rng = SplitMix64::new(seed);
            let a = Tensor::from_vec(random_rows(&mut rng, n, 3, false), &[n, 3]).unwrap();
            let b = Tensor::from_vec(random_rows(&mut rng, n, 2, false), &[n, 2]).unwrap();
            let mut comb = NaryBayesianCombiner::new(3, vec![3, 2], 1.0);
            comb.fit(&[&a, &b], &labels).unwrap();
            for base in 0..6 {
                let total: f32 = (0..3).map(|c| comb.cpt[c * 6 + base]).sum();
                prop_assert!((total - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn pair_combiner_is_bitwise_reference(
            n in 12usize..40,
            alpha in 0.1f32..2.0,
            seed in 0u64..200,
            cnn_row in prob_row(6),
            imu_row in prob_row(3),
        ) {
            let mut rng = SplitMix64::new(seed);
            let cnn = Tensor::from_vec(random_rows(&mut rng, n, 6, false), &[n, 6]).unwrap();
            let imu = Tensor::from_vec(random_rows(&mut rng, n, 3, false), &[n, 3]).unwrap();
            let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 6).collect();
            let mut reference = BayesianCombiner::new(6, 3, alpha);
            reference.fit(&cnn, &imu, &labels).unwrap();
            let mut nary = NaryBayesianCombiner::new(6, vec![6, 3], alpha);
            nary.fit(&[&cnn, &imu], &labels).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = reference.combine(&cnn_row, &imu_row).unwrap();
            let full = nary.combine_n(&[&cnn_row, &imu_row]).unwrap();
            prop_assert_eq!(bits(&want), bits(&full));
            let mut subset = Vec::new();
            nary.combine_subset_into(
                &[Some(cnn_row.as_slice()), Some(imu_row.as_slice())],
                &mut subset,
            ).unwrap();
            prop_assert_eq!(bits(&want), bits(&subset));
        }
    }
}
