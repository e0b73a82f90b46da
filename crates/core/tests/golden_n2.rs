//! Golden digests of the two-stream (front camera + IMU) engine's output.
//!
//! Every case builds small seeded models, fuses a seeded batch and folds
//! each item's class index and fused score bits into an FNV-1a digest.
//! The committed digests were computed by the historical two-stream pair
//! engine before its removal, so they pin the N=2 [`MultiModalEngine`] to
//! that engine's numbers bit for bit:
//! every combiner kind, both IMU models, all three availability patterns
//! (both streams, front camera down, IMU down), three seeds, and both a
//! serial and a 2-thread [`Parallelism`].

use darnet_collect::StreamId;
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::{
    CnnConfig, CombinerKind, FrameCnn, ImuRnn, ImuSvm, ModalityStatus, MultiModalEngine,
    NaryBayesianCombiner, Result, RnnConfig, StreamInput, StreamModelSlot,
};
use darnet_nn::SvmConfig;
use darnet_sim::Frame;
use darnet_tensor::{Parallelism, SplitMix64, Tensor};

const SEEDS: [u64; 3] = [1, 2, 3];
const BATCH: usize = 4;
const SIZE: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Imu {
    Rnn,
    Svm,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Avail {
    Both,
    FrontDown,
    ImuDown,
}

use Avail::{Both, FrontDown, ImuDown};
use CombinerKind::{Bayesian, CnnOnly, Product};
use Imu::{Rnn, Svm};

/// FNV-1a (64-bit) over each seed's class indices and fused score bits,
/// seeds in [`SEEDS`] order.
const GOLDEN: [(CombinerKind, Imu, Avail, u64); 18] = [
    (Bayesian, Rnn, Both, 0xa978_7006_7356_7e4a),
    (Bayesian, Rnn, FrontDown, 0xd550_fe06_ccd9_bcc3),
    (Bayesian, Rnn, ImuDown, 0x9e17_7daa_3ceb_ed24),
    (Bayesian, Svm, Both, 0x5985_151f_77db_95d3),
    (Bayesian, Svm, FrontDown, 0x2122_a8f5_5106_28a8),
    (Bayesian, Svm, ImuDown, 0x9e17_7daa_3ceb_ed24),
    (Product, Rnn, Both, 0x0a5d_299c_1e88_5b16),
    (Product, Rnn, FrontDown, 0xd550_fe06_ccd9_bcc3),
    (Product, Rnn, ImuDown, 0x9e17_7daa_3ceb_ed24),
    (Product, Svm, Both, 0x2f66_9b71_2375_1789),
    (Product, Svm, FrontDown, 0x2122_a8f5_5106_28a8),
    (Product, Svm, ImuDown, 0x9e17_7daa_3ceb_ed24),
    (CnnOnly, Rnn, Both, 0x9e17_7daa_3ceb_ed24),
    (CnnOnly, Rnn, FrontDown, 0xd550_fe06_ccd9_bcc3),
    (CnnOnly, Rnn, ImuDown, 0x9e17_7daa_3ceb_ed24),
    (CnnOnly, Svm, Both, 0x9e17_7daa_3ceb_ed24),
    (CnnOnly, Svm, FrontDown, 0x2122_a8f5_5106_28a8),
    (CnnOnly, Svm, ImuDown, 0x9e17_7daa_3ceb_ed24),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn item(&mut self, class: usize, scores: &[f32]) {
        self.bytes(&(class as u64).to_le_bytes());
        for s in scores {
            self.bytes(&s.to_bits().to_le_bytes());
        }
    }
}

fn random_tensor(dims: &[usize], rng: &mut SplitMix64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(0.01, 1.0);
    }
    t
}

fn cnn(seed: u64) -> FrameCnn {
    FrameCnn::new(
        CnnConfig {
            input_size: SIZE,
            classes: 6,
            width: 0.25,
            ..CnnConfig::default()
        },
        seed ^ 0x11,
    )
}

fn imu_windows(seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = SplitMix64::new(seed ^ 0x1234);
    let windows = random_tensor(&[9, WINDOW_LEN, IMU_FEATURES], &mut rng);
    (windows, (0..9).map(|i| i % 3).collect())
}

fn rnn(seed: u64) -> Result<ImuRnn> {
    let (windows, labels) = imu_windows(seed);
    let mut rnn = ImuRnn::new(
        RnnConfig {
            hidden: 4,
            depth: 1,
            ..RnnConfig::default()
        },
        seed ^ 0x22,
    );
    rnn.fit(&windows, &labels, 1)?;
    Ok(rnn)
}

fn svm(seed: u64) -> Result<ImuSvm> {
    let (windows, labels) = imu_windows(seed);
    let mut svm = ImuSvm::new(WINDOW_LEN, IMU_FEATURES, 3, SvmConfig::default());
    svm.fit(&windows, &labels, &mut SplitMix64::new(seed ^ 0x55))?;
    Ok(svm)
}

/// A pair combiner fitted on seeded training posteriors.
fn combiner(seed: u64) -> Result<NaryBayesianCombiner> {
    let mut rng = SplitMix64::new(seed ^ 0xC0B);
    let n = 48;
    let cnn = random_tensor(&[n, 6], &mut rng);
    let imu = random_tensor(&[n, 3], &mut rng);
    let labels: Vec<usize> = (0..n).map(|_| rng.next_usize(6)).collect();
    let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    combiner.fit(&[&cnn, &imu], &labels)?;
    Ok(combiner)
}

fn batch(seed: u64) -> (Vec<Frame>, Tensor) {
    let mut rng = SplitMix64::new(seed ^ 0xBA7C);
    let frames = (0..BATCH)
        .map(|_| {
            let pixels = (0..SIZE * SIZE).map(|_| rng.uniform(0.0, 1.0)).collect();
            Frame::from_pixels(SIZE, SIZE, pixels)
        })
        .collect();
    (
        frames,
        random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], &mut rng),
    )
}

fn registry_digest(kind: CombinerKind, imu: Imu, avail: Avail, par: Parallelism) -> Result<u64> {
    let mut fnv = Fnv::new();
    for seed in SEEDS {
        let slot = match imu {
            Imu::Rnn => StreamModelSlot::Rnn(rnn(seed)?),
            Imu::Svm => StreamModelSlot::Svm(svm(seed)?),
        };
        let mut engine = MultiModalEngine::darnet_pair(cnn(seed), slot, combiner(seed)?, kind)?;
        engine.set_parallelism(par);
        let (frames, windows) = batch(seed);
        let inputs = [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::IMU, StreamInput::Windows(&windows)),
        ];
        let statuses: &[(StreamId, ModalityStatus)] = match avail {
            Avail::Both => &[],
            Avail::FrontDown => &[(StreamId::CAMERA_FRONT, ModalityStatus::Unavailable)],
            Avail::ImuDown => &[(StreamId::IMU, ModalityStatus::Unavailable)],
        };
        let mut out = Vec::new();
        engine.classify_batch_checked_into(&inputs, statuses, &mut out)?;
        assert_eq!(out.len(), BATCH);
        for o in &out {
            fnv.item(o.class, &o.scores);
        }
    }
    Ok(fnv.0)
}

fn parallelisms() -> [Parallelism; 2] {
    [Parallelism::serial(), Parallelism::new(2).with_min_work(1)]
}

#[test]
fn registry_engine_matches_n2_goldens() {
    let mut mismatches = Vec::new();
    for par in parallelisms() {
        for (kind, imu, avail, want) in GOLDEN {
            let got = registry_digest(kind, imu, avail, par).unwrap();
            if got != want {
                mismatches.push(format!(
                    "({kind:?}, {imu:?}, {avail:?}, {got:#018x}) threads={}",
                    par.threads()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
