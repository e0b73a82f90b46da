//! Dataset construction: from collection-campaign recordings to labeled
//! multimodal training data.
//!
//! The paper divides its collected dataset into an 80/20 partition for
//! training and evaluation (§5.1); IMU windows are 20 points at 4 Hz
//! (5 seconds, §4.2).

use darnet_collect::runtime::MultiStreamRecording;
use darnet_collect::StreamId;
use darnet_sim::{
    Behavior, CanonicalBehavior, DrivingWorld, ExtendedBehavior, Frame, ImuClass, Segment,
};
use darnet_tensor::{SplitMix64, Tensor};

use crate::error::CoreError;
use crate::Result;

/// The paper's IMU window length: 4 Hz × 5 s.
pub const WINDOW_LEN: usize = 20;
/// IMU features per grid point.
pub const IMU_FEATURES: usize = 12;

/// Looks up the scripted behaviour at session time `t` within a driver's
/// (sorted) segments, defaulting to normal driving outside the script.
pub fn label_at(segments: &[Segment<Behavior>], t: f64) -> Behavior {
    let idx = segments.partition_point(|s| s.start <= t);
    if idx == 0 {
        return segments
            .first()
            .map(|s| s.behavior)
            .unwrap_or(Behavior::NormalDriving);
    }
    let seg = &segments[idx - 1];
    if seg.contains(t) {
        seg.behavior
    } else {
        Behavior::NormalDriving
    }
}

/// [`label_at`] over the canonical 8-class taxonomy (the 6 manual
/// distractions plus the two drowsiness cues).
pub fn canonical_label_at(segments: &[Segment<CanonicalBehavior>], t: f64) -> CanonicalBehavior {
    let idx = segments.partition_point(|s| s.start <= t);
    if idx == 0 {
        return segments
            .first()
            .map(|s| s.behavior)
            .unwrap_or(CanonicalBehavior::NormalDriving);
    }
    let seg = &segments[idx - 1];
    if seg.contains(t) {
        seg.behavior
    } else {
        CanonicalBehavior::NormalDriving
    }
}

/// One N-stream sample: the front frame, the side frame nearest to it,
/// and the IMU window ending at the front frame's timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalSample {
    /// Controller timestamp of the front frame.
    pub t: f64,
    /// Driver id.
    pub driver: usize,
    /// Ground-truth canonical 8-class behaviour.
    pub class: CanonicalBehavior,
    /// The front-camera frame.
    pub front: Frame,
    /// The side-camera frame nearest in time.
    pub side: Frame,
    /// Flattened `[WINDOW_LEN × IMU_FEATURES]` window, time-major.
    pub imu_window: Vec<f32>,
}

/// A labeled N-stream dataset over the canonical 8-class taxonomy, built
/// from multi-stream campaign recordings: every sample joins the front
/// camera, the side camera, and the IMU at one instant.
#[derive(Debug, Clone, Default)]
pub struct CanonicalDataset {
    samples: Vec<CanonicalSample>,
    frame_size: usize,
}

impl CanonicalDataset {
    /// Builds the dataset from canonical multi-stream recordings plus
    /// the schedule that produced them. The front camera anchors the
    /// join (as in [`MultimodalDataset::from_recordings`]); each front
    /// tuple then adopts the side frame nearest in time, and tuples with
    /// no side frame within `side_tolerance` seconds are dropped — a
    /// three-way-complete dataset, so single-stream ablations evaluate
    /// the exact same instants.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] on inconsistent frame sizes.
    pub fn from_recordings(
        recordings: &[MultiStreamRecording],
        segments: &[Segment<CanonicalBehavior>],
        side_tolerance: f64,
    ) -> Result<Self> {
        let mut samples = Vec::new();
        let mut frame_size = 0usize;
        for rec in recordings {
            let mut script: Vec<Segment<CanonicalBehavior>> = segments
                .iter()
                .filter(|s| s.driver == rec.driver)
                .copied()
                .collect();
            script.sort_by(|a, b| a.start.total_cmp(&b.start));
            let side = rec.frames_for(StreamId::CAMERA_SIDE);
            for tup in rec.aligned_tuples_for(StreamId::CAMERA_FRONT, WINDOW_LEN) {
                // Nearest side frame by timestamp (the side stream is in
                // timestamp order).
                let at = side.partition_point(|f| f.t < tup.t);
                let nearest = [at.checked_sub(1), Some(at)]
                    .into_iter()
                    .flatten()
                    .filter_map(|i| side.get(i))
                    .min_by(|a, b| (a.t - tup.t).abs().total_cmp(&(b.t - tup.t).abs()));
                let Some(near) = nearest else { continue };
                if (near.t - tup.t).abs() > side_tolerance {
                    continue;
                }
                if frame_size == 0 {
                    frame_size = tup.frame.width();
                }
                for f in [&tup.frame, &near.frame] {
                    if f.width() != frame_size || f.height() != frame_size {
                        return Err(CoreError::Dataset(format!(
                            "inconsistent frame size {}x{} (expected {frame_size})",
                            f.width(),
                            f.height()
                        )));
                    }
                }
                samples.push(CanonicalSample {
                    t: tup.t,
                    driver: rec.driver,
                    class: canonical_label_at(&script, tup.t),
                    front: tup.frame,
                    side: near.frame.clone(),
                    imu_window: tup.window,
                });
            }
        }
        Ok(CanonicalDataset {
            samples,
            frame_size,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Square frame edge length.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// The samples.
    pub fn samples(&self) -> &[CanonicalSample] {
        &self.samples
    }

    /// Per-class sample counts over the canonical taxonomy.
    pub fn class_counts(&self) -> [usize; 8] {
        let mut counts = [0usize; 8];
        for s in &self.samples {
            counts[s.class.index()] += 1;
        }
        counts
    }

    /// Canonical 8-class labels (all samples).
    pub fn labels8(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.class.index()).collect()
    }

    /// Shuffled split into `(train, eval)` — same shuffle machinery as
    /// [`MultimodalDataset::split`].
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is not within `(0, 1)`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (CanonicalDataset, CanonicalDataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut idx);
        let n_train = ((self.samples.len() as f64) * train_frac).round() as usize;
        let take = |ids: &[usize]| CanonicalDataset {
            samples: ids.iter().map(|&i| self.samples[i].clone()).collect(),
            frame_size: self.frame_size,
        };
        (take(&idx[..n_train]), take(&idx[n_train..]))
    }

    fn camera_tensor(&self, pick: impl Fn(&CanonicalSample) -> &Frame) -> Result<Tensor> {
        if self.is_empty() {
            return Err(CoreError::Dataset("empty frame batch".into()));
        }
        let hw = self.frame_size * self.frame_size;
        let mut data = Vec::with_capacity(self.len() * hw);
        for s in &self.samples {
            data.extend_from_slice(pick(s).pixels());
        }
        Ok(Tensor::from_vec(
            data,
            &[self.len(), 1, self.frame_size, self.frame_size],
        )?)
    }

    /// Front frames as a `[n, 1, h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty.
    pub fn front_tensor(&self) -> Result<Tensor> {
        self.camera_tensor(|s| &s.front)
    }

    /// Side frames as a `[n, 1, h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty.
    pub fn side_tensor(&self) -> Result<Tensor> {
        self.camera_tensor(|s| &s.side)
    }

    /// IMU windows as a `[n, WINDOW_LEN, IMU_FEATURES]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty.
    pub fn imu_tensor(&self) -> Result<Tensor> {
        if self.is_empty() {
            return Err(CoreError::Dataset("empty imu batch".into()));
        }
        let mut data = Vec::with_capacity(self.len() * WINDOW_LEN * IMU_FEATURES);
        for s in &self.samples {
            data.extend_from_slice(&s.imu_window);
        }
        Ok(Tensor::from_vec(
            data,
            &[self.len(), WINDOW_LEN, IMU_FEATURES],
        )?)
    }

    /// Front frames of the samples (for the step-by-step engine path).
    pub fn front_frames(&self) -> Vec<Frame> {
        self.samples.iter().map(|s| s.front.clone()).collect()
    }

    /// Side frames of the samples.
    pub fn side_frames(&self) -> Vec<Frame> {
        self.samples.iter().map(|s| s.side.clone()).collect()
    }
}

/// One multimodal sample: a camera frame with the IMU window that ends at
/// the frame's timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct MultimodalSample {
    /// Controller timestamp of the frame.
    pub t: f64,
    /// Driver id.
    pub driver: usize,
    /// Ground-truth 6-class behaviour.
    pub behavior: Behavior,
    /// The camera frame.
    pub frame: Frame,
    /// Flattened `[WINDOW_LEN × IMU_FEATURES]` window, time-major.
    pub imu_window: Vec<f32>,
}

impl MultimodalSample {
    /// The 3-class IMU label implied by the behaviour.
    pub fn imu_class(&self) -> ImuClass {
        self.behavior.imu_class()
    }
}

/// A labeled multimodal dataset.
#[derive(Debug, Clone, Default)]
pub struct MultimodalDataset {
    samples: Vec<MultimodalSample>,
    frame_size: usize,
}

impl MultimodalDataset {
    /// Builds the dataset from campaign recordings plus the schedule that
    /// produced them (the schedule provides ground-truth labels — the
    /// paper's "each video was verified at a later point in time").
    ///
    /// For every received frame, the IMU window is the last [`WINDOW_LEN`]
    /// aligned grid points not after the frame timestamp; windows at the
    /// session start are front-padded with their earliest point. Frames
    /// with no IMU data at all are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] if the recordings contain frames of
    /// inconsistent sizes.
    pub fn from_recordings(
        recordings: &[MultiStreamRecording],
        segments: &[Segment<Behavior>],
    ) -> Result<Self> {
        let mut samples = Vec::new();
        let mut frame_size = 0usize;
        for rec in recordings {
            let mut script: Vec<Segment<Behavior>> = segments
                .iter()
                .filter(|s| s.driver == rec.driver)
                .copied()
                .collect();
            script.sort_by(|a, b| a.start.total_cmp(&b.start));
            // The collect pipeline owns frame↔window pairing; the dataset
            // adds ground-truth labels from the schedule on top.
            for tup in rec.aligned_tuples_for(StreamId::CAMERA_FRONT, WINDOW_LEN) {
                if frame_size == 0 {
                    frame_size = tup.frame.width();
                }
                if tup.frame.width() != frame_size || tup.frame.height() != frame_size {
                    return Err(CoreError::Dataset(format!(
                        "inconsistent frame size {}x{} (expected {frame_size})",
                        tup.frame.width(),
                        tup.frame.height()
                    )));
                }
                samples.push(MultimodalSample {
                    t: tup.t,
                    driver: rec.driver,
                    behavior: label_at(&script, tup.t),
                    frame: tup.frame,
                    imu_window: tup.window,
                });
            }
        }
        Ok(MultimodalDataset {
            samples,
            frame_size,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Square frame edge length.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// The samples.
    pub fn samples(&self) -> &[MultimodalSample] {
        &self.samples
    }

    /// Per-class sample counts (Table 1 reproduction).
    pub fn class_counts(&self) -> [usize; 6] {
        let mut counts = [0usize; 6];
        for s in &self.samples {
            counts[s.behavior.index()] += 1;
        }
        counts
    }

    /// Shuffled 80/20-style split: returns `(train, eval)` datasets.
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is not within `(0, 1)`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (MultimodalDataset, MultimodalDataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut idx);
        let n_train = ((self.samples.len() as f64) * train_frac).round() as usize;
        let take = |ids: &[usize]| MultimodalDataset {
            samples: ids.iter().map(|&i| self.samples[i].clone()).collect(),
            frame_size: self.frame_size,
        };
        (take(&idx[..n_train]), take(&idx[n_train..]))
    }

    /// Frames as a `[n, 1, h, w]` tensor for the CNN.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty.
    pub fn frames_tensor(&self) -> Result<Tensor> {
        self.frames_tensor_of(&(0..self.len()).collect::<Vec<_>>())
    }

    /// Frames at `indices` as a `[n, 1, h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error on empty/out-of-range indices.
    pub fn frames_tensor_of(&self, indices: &[usize]) -> Result<Tensor> {
        if indices.is_empty() {
            return Err(CoreError::Dataset("empty frame batch".into()));
        }
        let hw = self.frame_size * self.frame_size;
        let mut data = Vec::with_capacity(indices.len() * hw);
        for &i in indices {
            let s = self
                .samples
                .get(i)
                .ok_or_else(|| CoreError::Dataset(format!("index {i} out of range")))?;
            data.extend_from_slice(s.frame.pixels());
        }
        Ok(Tensor::from_vec(
            data,
            &[indices.len(), 1, self.frame_size, self.frame_size],
        )?)
    }

    /// 6-class labels (all samples).
    pub fn labels6(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.behavior.index()).collect()
    }

    /// 3-class IMU labels (all samples).
    pub fn labels3(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.imu_class().index()).collect()
    }

    /// IMU windows as a `[n, WINDOW_LEN, IMU_FEATURES]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty.
    pub fn imu_tensor(&self) -> Result<Tensor> {
        if self.is_empty() {
            return Err(CoreError::Dataset("empty imu batch".into()));
        }
        let mut data = Vec::with_capacity(self.len() * WINDOW_LEN * IMU_FEATURES);
        for s in &self.samples {
            data.extend_from_slice(&s.imu_window);
        }
        Ok(Tensor::from_vec(
            data,
            &[self.len(), WINDOW_LEN, IMU_FEATURES],
        )?)
    }
}

/// Per-feature standardization (zero mean, unit variance), fitted on the
/// training split and applied everywhere — essential for LSTM convergence
/// when raw accelerometer channels sit near ±9.8.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits per-feature statistics over the last axis of a `[n, t, f]` or
    /// `[n, f]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for empty input.
    pub fn fit(data: &Tensor) -> Result<Standardizer> {
        let f = *data
            .dims()
            .last()
            .ok_or_else(|| CoreError::Dataset("cannot standardize a scalar".into()))?;
        if data.is_empty() || f == 0 {
            return Err(CoreError::Dataset("cannot standardize empty data".into()));
        }
        let rows = data.len() / f;
        let mut mean = vec![0.0f32; f];
        for r in 0..rows {
            for (m, &v) in mean.iter_mut().zip(&data.data()[r * f..(r + 1) * f]) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= rows as f32;
        }
        let mut var = vec![0.0f32; f];
        for r in 0..rows {
            for ((s, &v), &m) in var
                .iter_mut()
                .zip(&data.data()[r * f..(r + 1) * f])
                .zip(&mean)
            {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| (v / rows as f32).sqrt().max(1e-6))
            .collect();
        Ok(Standardizer { mean, std })
    }

    /// The `(mean, std)` rows as rank-1 tensors (for serialization).
    pub fn to_tensors(&self) -> (Tensor, Tensor) {
        (
            Tensor::from_slice(&self.mean),
            Tensor::from_slice(&self.std),
        )
    }

    /// Rebuilds a standardizer from `(mean, std)` rows.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows have different lengths or are empty.
    pub fn from_tensors(mean: &Tensor, std: &Tensor) -> Result<Standardizer> {
        if mean.len() != std.len() || mean.is_empty() {
            return Err(CoreError::Dataset(format!(
                "standardizer rows mismatched: {} vs {}",
                mean.len(),
                std.len()
            )));
        }
        Ok(Standardizer {
            mean: mean.data().to_vec(),
            std: std.data().iter().map(|v| v.max(1e-6)).collect(),
        })
    }

    /// Applies the transform, returning a new tensor of the same shape.
    pub fn apply(&self, data: &Tensor) -> Tensor {
        let mut out = data.clone();
        self.apply_inplace(&mut out);
        out
    }

    /// Applies the transform in place — the workspace inference path
    /// copies the input into a checked-out buffer and standardizes it
    /// there. Bitwise-identical to [`Standardizer::apply`], which
    /// delegates here.
    // darlint: hot
    pub fn apply_inplace(&self, data: &mut Tensor) {
        let f = self.mean.len();
        let rows = data.len() / f;
        for r in 0..rows {
            for ((v, &m), &s) in data.data_mut()[r * f..(r + 1) * f]
                .iter_mut()
                .zip(&self.mean)
                .zip(&self.std)
            {
                *v = (*v - m) / s;
            }
        }
    }
}

/// A labeled frame-only dataset over the 18-class extended taxonomy — the
/// "previously collected distracted driver dataset" of the paper's privacy
/// study (§5.3), which has no IMU component.
#[derive(Debug, Clone, Default)]
pub struct ExtendedFrameDataset {
    frames: Vec<Frame>,
    labels: Vec<usize>,
    drivers: Vec<usize>,
    frame_size: usize,
}

impl ExtendedFrameDataset {
    /// Samples the dataset directly from the world at `fps` over an
    /// extended-behaviour schedule (this dataset predates the collection
    /// framework in the paper, so frames are taken straight from the
    /// camera).
    pub fn generate(
        world: &DrivingWorld,
        segments: &[Segment<ExtendedBehavior>],
        fps: f64,
    ) -> Self {
        let mut frames = Vec::new();
        let mut labels = Vec::new();
        let mut drivers = Vec::new();
        let mut frame_size = 0usize;
        let dt = 1.0 / fps;
        for seg in segments {
            let n = (seg.duration * fps).floor() as usize;
            for k in 0..n {
                let t = seg.start + k as f64 * dt;
                let frame = world.render_extended_frame(seg.driver, seg.behavior, t);
                frame_size = frame.width();
                frames.push(frame);
                labels.push(seg.behavior.index());
                drivers.push(seg.driver);
            }
        }
        ExtendedFrameDataset {
            frames,
            labels,
            drivers,
            frame_size,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Square frame edge length.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// The frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The labels (0..18).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Driver ids per frame.
    pub fn drivers(&self) -> &[usize] {
        &self.drivers
    }

    /// Returns a copy with a fraction of labels flipped to random other
    /// classes — modelling the labelling noise of a hand-annotated video
    /// dataset (frames near scripted-segment boundaries are easily
    /// mis-tagged). The paper's §5.3 explains the dCNN results through the
    /// teacher "display\[ing\] effects of overfitting accrued during
    /// training"; memorized label noise is exactly such an effect, and the
    /// distilled students never see the labels.
    pub fn with_label_noise(&self, fraction: f64, seed: u64) -> ExtendedFrameDataset {
        let mut out = self.clone();
        let classes = ExtendedBehavior::ALL.len();
        let mut rng = SplitMix64::new(seed);
        for l in &mut out.labels {
            if (rng.next_f64()) < fraction {
                let flip = rng.next_usize(classes - 1);
                *l = if flip >= *l { flip + 1 } else { flip };
            }
        }
        out
    }

    /// Driver-disjoint split: drivers with `id % holdout_mod == holdout_rem`
    /// go to evaluation, everyone else to training. The paper's privacy
    /// study evaluates generalization across its 10 participants; holding
    /// out whole drivers exposes the teacher's identity overfitting that
    /// §5.3 hypothesizes (and that down-sampling removes).
    pub fn split_by_driver(
        &self,
        holdout_mod: usize,
        holdout_rem: usize,
    ) -> (ExtendedFrameDataset, ExtendedFrameDataset) {
        let take = |want_eval: bool| {
            let ids: Vec<usize> = (0..self.len())
                .filter(|&i| (self.drivers[i] % holdout_mod == holdout_rem) == want_eval)
                .collect();
            ExtendedFrameDataset {
                frames: ids.iter().map(|&i| self.frames[i].clone()).collect(),
                labels: ids.iter().map(|&i| self.labels[i]).collect(),
                drivers: ids.iter().map(|&i| self.drivers[i]).collect(),
                frame_size: self.frame_size,
            }
        };
        (take(false), take(true))
    }

    /// Shuffled split into `(train, eval)`.
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is not within `(0, 1)`.
    pub fn split(
        &self,
        train_frac: f64,
        seed: u64,
    ) -> (ExtendedFrameDataset, ExtendedFrameDataset) {
        assert!(train_frac > 0.0 && train_frac < 1.0);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut idx);
        let n_train = ((self.len() as f64) * train_frac).round() as usize;
        let take = |ids: &[usize]| ExtendedFrameDataset {
            frames: ids.iter().map(|&i| self.frames[i].clone()).collect(),
            labels: ids.iter().map(|&i| self.labels[i]).collect(),
            drivers: ids.iter().map(|&i| self.drivers[i]).collect(),
            frame_size: self.frame_size,
        };
        (take(&idx[..n_train]), take(&idx[n_train..]))
    }

    /// Frames at `indices` as a `[n, 1, h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error on empty/out-of-range indices.
    pub fn frames_tensor_of(&self, indices: &[usize]) -> Result<Tensor> {
        if indices.is_empty() {
            return Err(CoreError::Dataset("empty frame batch".into()));
        }
        let hw = self.frame_size * self.frame_size;
        let mut data = Vec::with_capacity(indices.len() * hw);
        for &i in indices {
            let f = self
                .frames
                .get(i)
                .ok_or_else(|| CoreError::Dataset(format!("index {i} out of range")))?;
            data.extend_from_slice(f.pixels());
        }
        Ok(Tensor::from_vec(
            data,
            &[indices.len(), 1, self.frame_size, self.frame_size],
        )?)
    }
}

/// Converts a batch of frames (all the same square size) into a
/// `[n, 1, h, w]` tensor.
///
/// # Errors
///
/// Returns an error for an empty batch or inconsistent sizes.
pub fn frames_to_tensor(frames: &[Frame]) -> Result<Tensor> {
    let first = frames
        .first()
        .ok_or_else(|| CoreError::Dataset("empty frame batch".into()))?;
    let (w, h) = (first.width(), first.height());
    let mut data = Vec::with_capacity(frames.len() * w * h);
    for f in frames {
        if f.width() != w || f.height() != h {
            return Err(CoreError::Dataset("inconsistent frame sizes".into()));
        }
        data.extend_from_slice(f.pixels());
    }
    Ok(Tensor::from_vec(data, &[frames.len(), 1, h, w])?)
}

/// [`frames_to_tensor`] writing into a caller-provided `[n, 1, h, w]`
/// tensor (typically a workspace checkout) instead of allocating one.
/// Bitwise-identical values to the allocating variant.
///
/// # Errors
///
/// Returns an error for an empty batch, inconsistent frame sizes, or an
/// `out` tensor whose shape does not match the batch.
// darlint: hot
pub fn frames_to_tensor_into(frames: &[Frame], out: &mut Tensor) -> Result<()> {
    let first = frames
        .first()
        .ok_or_else(|| CoreError::Dataset("empty frame batch".into()))?;
    let (w, h) = (first.width(), first.height());
    if out.dims() != [frames.len(), 1, h, w] {
        return Err(CoreError::Dataset(format!(
            "frame batch is [{}, 1, {h}, {w}] but output tensor is {:?}",
            frames.len(),
            out.dims()
        )));
    }
    let od = out.data_mut();
    let hw = h * w;
    for (i, f) in frames.iter().enumerate() {
        if f.width() != w || f.height() != h {
            return Err(CoreError::Dataset("inconsistent frame sizes".into()));
        }
        od[i * hw..(i + 1) * hw].copy_from_slice(f.pixels());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_collect::runtime::{run_campaign, CampaignConfig};
    use darnet_sim::WorldConfig;
    use std::sync::Arc;

    fn tiny_campaign() -> (Vec<MultiStreamRecording>, Vec<Segment<Behavior>>) {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![
            Segment {
                driver: 0,
                behavior: Behavior::NormalDriving,
                start: 0.0,
                duration: 6.0,
            },
            Segment {
                driver: 0,
                behavior: Behavior::Texting,
                start: 6.0,
                duration: 6.0,
            },
            Segment {
                driver: 0,
                behavior: Behavior::Talking,
                start: 12.0,
                duration: 6.0,
            },
        ];
        let recs = run_campaign(&world, &segments, &CampaignConfig::default()).unwrap();
        (recs, segments)
    }

    #[test]
    fn canonical_dataset_joins_three_streams() {
        use darnet_collect::runtime::run_canonical_campaign;

        let world = Arc::new(DrivingWorld::new(WorldConfig {
            drivers: 1,
            frame_size: 24,
            ..WorldConfig::default()
        }));
        let segments = vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::NormalDriving,
                start: 0.0,
                duration: 5.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::EyesClosing,
                start: 5.0,
                duration: 5.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::HeadDroop,
                start: 10.0,
                duration: 5.0,
            },
        ];
        let streams = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
        let recs =
            run_canonical_campaign(&world, &segments, &CampaignConfig::default(), &streams, &[])
                .unwrap();
        let ds = CanonicalDataset::from_recordings(&recs, &segments, 0.5).unwrap();
        assert!(!ds.is_empty());
        assert_eq!(ds.frame_size(), 24);
        for s in ds.samples() {
            assert_eq!(s.imu_window.len(), WINDOW_LEN * IMU_FEATURES);
            assert_eq!(s.front.width(), 24);
            assert_eq!(s.side.width(), 24);
            // The adopted side frame differs from the front view at the
            // same instant (different camera geometry).
            assert_ne!(s.front.pixels(), s.side.pixels());
        }
        // The drowsy classes are labeled.
        let counts = ds.class_counts();
        assert!(counts[CanonicalBehavior::EyesClosing.index()] > 0);
        assert!(counts[CanonicalBehavior::HeadDroop.index()] > 0);
        assert_eq!(ds.labels8().len(), ds.len());
        let front = ds.front_tensor().unwrap();
        let side = ds.side_tensor().unwrap();
        assert_eq!(front.dims(), &[ds.len(), 1, 24, 24]);
        assert_eq!(side.dims(), front.dims());
        let (train, eval) = ds.split(0.8, 3);
        assert_eq!(train.len() + eval.len(), ds.len());
        // A zero tolerance drops every tuple (clocks never line up
        // perfectly across devices).
        let strict = CanonicalDataset::from_recordings(&recs, &segments, 0.0).unwrap();
        assert!(strict.len() <= ds.len());
    }

    #[test]
    fn canonical_label_lookup_matches_schedule() {
        let segments = vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Texting,
                start: 0.0,
                duration: 2.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::EyesClosing,
                start: 4.0,
                duration: 3.0,
            },
        ];
        assert_eq!(
            canonical_label_at(&segments, 1.0),
            CanonicalBehavior::Texting
        );
        // The gap between segments is normal driving (same semantics as
        // the 6-class `label_at`).
        assert_eq!(
            canonical_label_at(&segments, 3.0),
            CanonicalBehavior::NormalDriving
        );
        assert_eq!(
            canonical_label_at(&segments, 5.0),
            CanonicalBehavior::EyesClosing
        );
        assert_eq!(
            canonical_label_at(&segments, 9.0),
            CanonicalBehavior::NormalDriving
        );
    }

    #[test]
    fn label_lookup_matches_schedule() {
        let (_, segments) = tiny_campaign();
        assert_eq!(label_at(&segments, 1.0), Behavior::NormalDriving);
        assert_eq!(label_at(&segments, 7.0), Behavior::Texting);
        assert_eq!(label_at(&segments, 13.0), Behavior::Talking);
        assert_eq!(label_at(&segments, 99.0), Behavior::NormalDriving);
    }

    #[test]
    fn dataset_builds_with_windows() {
        let (recs, segments) = tiny_campaign();
        let ds = MultimodalDataset::from_recordings(&recs, &segments).unwrap();
        assert!(ds.len() > 40, "only {} samples", ds.len());
        assert_eq!(ds.frame_size(), 48);
        for s in ds.samples() {
            assert_eq!(s.imu_window.len(), WINDOW_LEN * IMU_FEATURES);
        }
        // All three scripted classes appear.
        let counts = ds.class_counts();
        assert!(counts[0] > 0 && counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn split_preserves_total_and_is_disjoint_in_size() {
        let (recs, segments) = tiny_campaign();
        let ds = MultimodalDataset::from_recordings(&recs, &segments).unwrap();
        let (train, eval) = ds.split(0.8, 1);
        assert_eq!(train.len() + eval.len(), ds.len());
        let expected_train = ((ds.len() as f64) * 0.8).round() as usize;
        assert_eq!(train.len(), expected_train);
    }

    #[test]
    fn tensors_have_expected_shapes() {
        let (recs, segments) = tiny_campaign();
        let ds = MultimodalDataset::from_recordings(&recs, &segments).unwrap();
        let frames = ds.frames_tensor().unwrap();
        assert_eq!(frames.dims(), &[ds.len(), 1, 48, 48]);
        let imu = ds.imu_tensor().unwrap();
        assert_eq!(imu.dims(), &[ds.len(), WINDOW_LEN, IMU_FEATURES]);
        assert_eq!(ds.labels6().len(), ds.len());
        assert_eq!(ds.labels3().len(), ds.len());
    }

    #[test]
    fn standardizer_normalizes_features() {
        let data = Tensor::from_vec(
            vec![
                10.0, 100.0, //
                12.0, 200.0, //
                8.0, 300.0, //
                10.0, 400.0,
            ],
            &[4, 2],
        )
        .unwrap();
        let std = Standardizer::fit(&data).unwrap();
        let out = std.apply(&data);
        // Column means ~0.
        let m0 = (0..4).map(|r| out.data()[r * 2]).sum::<f32>() / 4.0;
        let m1 = (0..4).map(|r| out.data()[r * 2 + 1]).sum::<f32>() / 4.0;
        assert!(m0.abs() < 1e-5 && m1.abs() < 1e-5);
        // Column stds ~1.
        let s1 = ((0..4).map(|r| out.data()[r * 2 + 1].powi(2)).sum::<f32>() / 4.0).sqrt();
        assert!((s1 - 1.0).abs() < 1e-4);
    }

    #[test]
    fn standardizer_handles_constant_features() {
        let data = Tensor::from_vec(vec![5.0, 5.0, 5.0, 5.0], &[4, 1]).unwrap();
        let std = Standardizer::fit(&data).unwrap();
        let out = std.apply(&data);
        assert!(out.all_finite());
    }

    #[test]
    fn extended_dataset_generates_balanced_classes() {
        let world = DrivingWorld::new(WorldConfig {
            drivers: 2,
            ..WorldConfig::default()
        });
        let config = darnet_sim::schedule::ExtendedScheduleConfig {
            drivers: 2,
            seconds_per_class: 2.0,
            segment_seconds: 15.0,
        };
        let segments = darnet_sim::schedule::build_extended_schedule(&config);
        let ds = ExtendedFrameDataset::generate(&world, &segments, 4.0);
        assert_eq!(ds.len(), 2 * 18 * 8); // 2 drivers × 18 classes × 2 s × 4 fps
        let mut counts = [0usize; 18];
        for &l in ds.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16));
    }

    #[test]
    fn frames_to_tensor_validates() {
        assert!(frames_to_tensor(&[]).is_err());
        let frames = vec![Frame::new(4, 4), Frame::new(5, 5)];
        assert!(frames_to_tensor(&frames).is_err());
        let ok = vec![Frame::new(4, 4); 3];
        assert_eq!(frames_to_tensor(&ok).unwrap().dims(), &[3, 1, 4, 4]);
    }
}
