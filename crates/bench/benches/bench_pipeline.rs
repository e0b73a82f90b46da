//! End-to-end per-time-step classification latency (the paper's
//! "near real-time detection" claim) and wire-format costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use darnet_collect::{decode_batch, encode_batch, Batch, SensorReading, StampedReading, StreamId};
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::{
    CnnConfig, CombinerKind, FrameCnn, ImuRnn, MultiModalEngine, NaryBayesianCombiner, RnnConfig,
    StreamInput, StreamModelSlot,
};
use darnet_sim::Frame;
use darnet_tensor::Tensor;

fn engine() -> MultiModalEngine {
    let cnn = FrameCnn::new(
        CnnConfig {
            width: 1.5,
            ..CnnConfig::default()
        },
        1,
    );
    let mut rnn = ImuRnn::new(
        RnnConfig {
            hidden: 32,
            depth: 2,
            ..RnnConfig::default()
        },
        2,
    );
    // One-epoch fit so the standardizer exists; weights are irrelevant to
    // the latency measurement.
    let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
    rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).unwrap();
    let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
    combiner
        .fit(
            &[
                &Tensor::full(&[6, 6], 1.0 / 6.0),
                &Tensor::full(&[6, 3], 1.0 / 3.0),
            ],
            &[0, 1, 2, 3, 4, 5],
        )
        .unwrap();
    MultiModalEngine::darnet_pair(
        cnn,
        StreamModelSlot::Rnn(rnn),
        combiner,
        CombinerKind::Bayesian,
    )
    .unwrap()
}

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    let mut eng = engine();
    let frame = Frame::new(48, 48);
    let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
    let inputs = [
        (
            StreamId::CAMERA_FRONT,
            StreamInput::Frames(std::slice::from_ref(&frame)),
        ),
        (StreamId::IMU, StreamInput::Windows(&window)),
    ];
    let mut out = Vec::new();
    group.bench_function("engine classify_step (frame + imu window)", |bench| {
        bench.iter(|| {
            eng.classify_step_into(&inputs, &mut out).unwrap();
            black_box(&out);
        })
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let frame = Frame::new(48, 48);
    let batch = Batch {
        agent_id: 0,
        seq: 0,
        readings: vec![StampedReading {
            timestamp: 0.0,
            reading: SensorReading::Frame(frame),
        }],
    };
    c.bench_function("wire encode+decode 48x48 frame batch", |bench| {
        bench.iter(|| black_box(decode_batch(encode_batch(black_box(&batch))).unwrap()))
    });
}

criterion_group!(benches, bench_step, bench_wire);
criterion_main!(benches);
