//! Steady-state zero-allocation gate for the workspace inference path.
//!
//! Uses the crate's counting global allocator
//! ([`darnet_bench::alloc_counter`]) to prove that, after warm-up, the
//! `*_into` classification paths of a serially-configured engine — the
//! two-stream pair and a 3-stream registry — never touch the heap. Kept as a single `#[test]` in its own integration
//! binary: the allocation counter is process-global, so a concurrently
//! running test would pollute the measurement.

use darnet_bench::tiny::{self, FRAME_SIZE};
use darnet_bench::{alloc_counter, random_tensor};
use darnet_collect::runtime::AlignedTuple;
use darnet_collect::StreamId;
use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
use darnet_core::{ModalityStatus, MultiStepClassification, StreamInput};
use darnet_sim::Frame;
use darnet_tensor::Tensor;

const BATCH: usize = 8;

#[test]
fn warm_into_paths_perform_zero_heap_allocations() {
    let mut engine = tiny::pair_engine();
    let frames: Vec<Frame> = (0..BATCH)
        .map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE))
        .collect();
    let windows = random_tensor(&[BATCH, WINDOW_LEN, IMU_FEATURES], 14);
    let row = WINDOW_LEN * IMU_FEATURES;
    let single_window = Tensor::from_vec(
        windows.data()[..row].to_vec(),
        &[1, WINDOW_LEN, IMU_FEATURES],
    )
    .expect("window slice");
    let tuples: Vec<AlignedTuple> = (0..BATCH)
        .map(|i| AlignedTuple {
            t: i as f64 * 0.25,
            frame: frames[i].clone(),
            window: windows.data()[i * row..(i + 1) * row].to_vec(),
        })
        .collect();
    let pair_batch = [
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
        (StreamId::IMU, StreamInput::Windows(&windows)),
    ];
    let pair_step = [
        (
            StreamId::CAMERA_FRONT,
            StreamInput::Frames(std::slice::from_ref(&frames[0])),
        ),
        (StreamId::IMU, StreamInput::Windows(&single_window)),
    ];
    let mut results: Vec<MultiStepClassification> = Vec::new();
    let mut step_result: Vec<MultiStepClassification> = Vec::new();

    // Warm-up: one call per path populates the workspaces and session
    // buffers for every shape used below.
    for _ in 0..2 {
        engine
            .classify_batch_into(&pair_batch, &mut results)
            .expect("warm classify_batch_into");
        engine
            .classify_step_into(&pair_step, &mut step_result)
            .expect("warm classify_step_into");
        engine
            .classify_tuples_into(&tuples, &mut results)
            .expect("warm classify_tuples_into");
    }

    // Steady state: several rounds, every round must be allocation-free.
    for round in 0..3 {
        let ((), allocs) = alloc_counter::allocations_during(|| {
            engine
                .classify_batch_into(&pair_batch, &mut results)
                .expect("steady classify_batch_into");
        });
        assert_eq!(allocs, 0, "classify_batch_into allocated in round {round}");
        assert_eq!(results.len(), BATCH);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            engine
                .classify_step_into(&pair_step, &mut step_result)
                .expect("steady classify_step_into");
        });
        assert_eq!(allocs, 0, "classify_step_into allocated in round {round}");
        assert_eq!(step_result.len(), 1);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            engine
                .classify_tuples_into(&tuples, &mut results)
                .expect("steady classify_tuples_into");
        });
        assert_eq!(allocs, 0, "classify_tuples_into allocated in round {round}");
        assert_eq!(results.len(), BATCH);
    }

    // The N-stream registry engine must meet the same bar: after
    // warm-up, serial `classify_*_into` calls — full fusion and the
    // health-gated subset path alike — never touch the heap.
    let mut registry = tiny::three_view_engine();
    let side_frames: Vec<Frame> = (0..BATCH)
        .map(|_| Frame::new(FRAME_SIZE, FRAME_SIZE))
        .collect();
    let batch_inputs = [
        (StreamId::IMU, StreamInput::Windows(&windows)),
        (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
        (StreamId::CAMERA_SIDE, StreamInput::Frames(&side_frames)),
    ];
    let step_inputs = [
        (StreamId::IMU, StreamInput::Windows(&single_window)),
        (
            StreamId::CAMERA_FRONT,
            StreamInput::Frames(std::slice::from_ref(&frames[0])),
        ),
        (
            StreamId::CAMERA_SIDE,
            StreamInput::Frames(std::slice::from_ref(&side_frames[0])),
        ),
    ];
    let front_down = [(StreamId::CAMERA_FRONT, ModalityStatus::Unavailable)];
    let mut multi_results: Vec<MultiStepClassification> = Vec::new();
    let mut multi_step: Vec<MultiStepClassification> = Vec::new();

    for _ in 0..2 {
        registry
            .classify_batch_into(&batch_inputs, &mut multi_results)
            .expect("warm registry classify_batch_into");
        registry
            .classify_step_into(&step_inputs, &mut multi_step)
            .expect("warm registry classify_step_into");
        registry
            .classify_batch_checked_into(&batch_inputs, &front_down, &mut multi_results)
            .expect("warm registry subset path");
    }

    for round in 0..3 {
        let ((), allocs) = alloc_counter::allocations_during(|| {
            registry
                .classify_batch_into(&batch_inputs, &mut multi_results)
                .expect("steady registry classify_batch_into");
        });
        assert_eq!(
            allocs, 0,
            "registry classify_batch_into allocated in round {round}"
        );
        assert_eq!(multi_results.len(), BATCH);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            registry
                .classify_step_into(&step_inputs, &mut multi_step)
                .expect("steady registry classify_step_into");
        });
        assert_eq!(
            allocs, 0,
            "registry classify_step_into allocated in round {round}"
        );
        assert_eq!(multi_step.len(), 1);

        let ((), allocs) = alloc_counter::allocations_during(|| {
            registry
                .classify_batch_checked_into(&batch_inputs, &front_down, &mut multi_results)
                .expect("steady registry subset path");
        });
        assert_eq!(
            allocs, 0,
            "registry health-gated subset path allocated in round {round}"
        );
        assert_eq!(multi_results.len(), BATCH);
    }
}
