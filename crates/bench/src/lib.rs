//! # darnet-bench
//!
//! Benchmark harness for the DarNet reproduction. Two kinds of targets:
//!
//! * **`repro_*` binaries** — regenerate every table and figure of the
//!   paper (`cargo run -p darnet-bench --release --bin repro_table2`).
//!   Each accepts `--fast` to run a reduced-scale smoke version.
//! * **Criterion benches** (`cargo bench`) — performance characterization
//!   of the substrates: tensor kernels, model inference, controller
//!   ingest/alignment, end-to-end per-time-step classification latency,
//!   and privacy transforms.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

use darnet_core::experiment::{ExperimentConfig, MultiviewConfig, PrivacyExperimentConfig};

/// Returns true if the process args request the reduced-scale preset.
pub fn fast_requested() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// Picks the experiment config from the command line (`--fast` or full).
pub fn experiment_config() -> ExperimentConfig {
    if fast_requested() {
        ExperimentConfig::fast()
    } else {
        ExperimentConfig::paper()
    }
}

/// Picks the privacy experiment config from the command line.
pub fn privacy_config() -> PrivacyExperimentConfig {
    if fast_requested() {
        PrivacyExperimentConfig::fast()
    } else {
        PrivacyExperimentConfig::paper()
    }
}

/// Picks the multiview N-stream ablation config from the command line.
pub fn multiview_config() -> MultiviewConfig {
    if fast_requested() {
        MultiviewConfig::fast()
    } else {
        MultiviewConfig::paper()
    }
}

/// Formats a fraction as a paper-style percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Flat-JSON metric files for bench-regression tracking.
///
/// The CI pipeline commits a baseline `BENCH_parallel.json` and compares
/// every run's metrics against it. Files are a single flat object of
/// numeric values — hand-rolled here so the harness works offline with no
/// serde dependence. Three key prefixes participate in regression
/// comparison: `speedup_*` and `rate_*` are higher-is-better, `cost_*`
/// is lower-is-better. Speedups are ratios of two timings taken on the
/// same machine in the same run, so they are comparable across machines;
/// `rate_`/`cost_` keys must likewise be machine-portable (simulated-time
/// latencies, deterministic byte counts, 0/1 invariant checks — or
/// wall-clock rates whose committed baselines are deliberately
/// conservative). Everything else is recorded for humans but would make
/// the gate flaky across hardware.
pub mod metrics {
    use std::collections::BTreeMap;

    /// Higher-is-better metric prefix subject to regression comparison.
    pub const COMPARED_PREFIX: &str = "speedup_";
    /// Higher-is-better prefix for throughputs and invariant indicators.
    pub const RATE_PREFIX: &str = "rate_";
    /// Lower-is-better prefix for latencies and footprints.
    pub const COST_PREFIX: &str = "cost_";

    /// Serializes metrics as a flat JSON object (sorted keys, one per
    /// line — diff-friendly for a committed baseline).
    pub fn to_json(metrics: &BTreeMap<String, f64>) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (k, v) in metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  {k:?}: {v}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a flat JSON object of numbers (the subset [`to_json`]
    /// emits, whitespace-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| "metrics file is not a JSON object".to_string())?;
        let mut out = BTreeMap::new();
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted key in {entry:?}"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad number for {key:?}: {e}"))?;
            out.insert(key.to_string(), value);
        }
        Ok(out)
    }

    /// Compares a run against a committed baseline: every `speedup_*` or
    /// `rate_*` key present in both must not fall below
    /// `baseline × (1 − tolerance)`, and every `cost_*` key must not rise
    /// above `baseline × (1 + tolerance)`. Improvements never fail.
    /// Returns the list of regression descriptions (empty = pass).
    // darlint: pure-root
    pub fn compare(
        baseline: &BTreeMap<String, f64>,
        current: &BTreeMap<String, f64>,
        tolerance: f64,
    ) -> Vec<String> {
        let mut regressions = Vec::new();
        for (key, &base) in baseline {
            let higher_better = key.starts_with(COMPARED_PREFIX) || key.starts_with(RATE_PREFIX);
            let lower_better = key.starts_with(COST_PREFIX);
            if (!higher_better && !lower_better) || base <= 0.0 {
                continue;
            }
            match current.get(key) {
                Some(&cur) if higher_better && cur < base * (1.0 - tolerance) => {
                    regressions.push(format!(
                        "{key}: {cur:.3} is below baseline {base:.3} − {:.0}% tolerance",
                        tolerance * 100.0
                    ));
                }
                Some(&cur) if lower_better && cur > base * (1.0 + tolerance) => {
                    regressions.push(format!(
                        "{key}: {cur:.3} is above baseline {base:.3} + {:.0}% tolerance",
                        tolerance * 100.0
                    ));
                }
                Some(_) => {}
                None => regressions.push(format!("{key}: missing from current run")),
            }
        }
        regressions
    }
}

/// Counting global allocator for allocation-budget benchmarks and tests.
///
/// Installed as this crate's `#[global_allocator]`, so every
/// `darnet-bench` binary, test, and Criterion bench can measure heap
/// allocation events (alloc + realloc; frees are not counted). The
/// zero-alloc inference gate (`bench_inference`, the `zero_alloc`
/// integration test) is built on this.
#[allow(unsafe_code)]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// A [`System`]-backed allocator that counts every allocation event.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Total allocation events since process start.
    pub fn allocation_count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns its result together with the number of
    /// allocation events it performed. Only meaningful when no other
    /// thread is allocating concurrently.
    pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocation_count();
        let out = f();
        (out, allocation_count() - before)
    }
}

/// A seeded tensor of values in `[0.1, 1.0)`. Non-zero everywhere: the
/// matmul kernel skips zero elements, so a zero-filled benchmark input
/// would measure the wrong code path.
pub fn random_tensor(dims: &[usize], seed: u64) -> darnet_tensor::Tensor {
    let mut rng = darnet_tensor::SplitMix64::new(seed);
    let mut t = darnet_tensor::Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = rng.uniform(0.1, 1.0);
    }
    t
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// The deliberately small engines the inference benchmarks and the
/// zero-alloc test drive: per-item compute low enough that per-call
/// allocation and dispatch overhead is a visible fraction of runtime.
/// Every engine keeps its default serial parallelism — threaded dispatch
/// allocates by design, so the zero-alloc contract is serial.
pub mod tiny {
    use darnet_collect::StreamId;
    use darnet_core::dataset::{frames_to_tensor, IMU_FEATURES, WINDOW_LEN};
    use darnet_core::{
        ClassMap, CnnConfig, CombinerKind, FrameCnn, ImuRnn, ModalityDescriptor, MultiModalEngine,
        NaryBayesianCombiner, RnnConfig, StreamModelSlot,
    };
    use darnet_sim::Frame;
    use darnet_tensor::Tensor;

    /// Square frame edge of every tiny camera model.
    pub const FRAME_SIZE: usize = 12;

    /// A tiny 6-class frame CNN.
    pub fn cnn(seed: u64) -> FrameCnn {
        FrameCnn::new(
            CnnConfig {
                input_size: FRAME_SIZE,
                classes: 6,
                width: 0.25,
                ..CnnConfig::default()
            },
            seed,
        )
    }

    /// A tiny 3-class IMU BiLSTM, smoke-fitted so its standardizer
    /// exists.
    pub fn rnn() -> ImuRnn {
        let mut rnn = ImuRnn::new(
            RnnConfig {
                hidden: 8,
                depth: 1,
                ..RnnConfig::default()
            },
            2,
        );
        let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
        rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).expect("rnn smoke fit");
        rnn
    }

    /// A pair combiner (parents `[cnn, imu]`) fitted on uniform
    /// posteriors.
    pub fn pair_combiner() -> NaryBayesianCombiner {
        let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        combiner
            .fit(
                &[
                    &Tensor::full(&[6, 6], 1.0 / 6.0),
                    &Tensor::full(&[6, 3], 1.0 / 3.0),
                ],
                &[0, 1, 2, 3, 4, 5],
            )
            .expect("combiner smoke fit");
        combiner
    }

    /// The paper's two-stream engine (front camera + IMU) over the tiny
    /// models.
    pub fn pair_engine() -> MultiModalEngine {
        MultiModalEngine::darnet_pair(
            cnn(1),
            StreamModelSlot::Rnn(rnn()),
            pair_combiner(),
            CombinerKind::Bayesian,
        )
        .expect("pair engine")
    }

    /// A 3-stream engine: the IMU RNN behind the 6→3 projection plus
    /// front and side camera views, fused through a 3-parent Bayesian
    /// combiner.
    pub fn three_view_engine() -> MultiModalEngine {
        let mut engine = MultiModalEngine::new(6, CombinerKind::Bayesian);
        engine
            .register(
                ModalityDescriptor::darnet_imu(),
                StreamModelSlot::Rnn(rnn()),
            )
            .expect("register imu");
        engine
            .register(
                ModalityDescriptor::darnet_camera(),
                StreamModelSlot::Cnn(cnn(3)),
            )
            .expect("register front");
        engine
            .register(
                ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity),
                StreamModelSlot::Cnn(cnn(4)),
            )
            .expect("register side");
        engine
            .fit_combiner(
                &[
                    &Tensor::full(&[6, 3], 1.0 / 3.0),
                    &Tensor::full(&[6, 6], 1.0 / 6.0),
                    &Tensor::full(&[6, 6], 1.0 / 6.0),
                ],
                &[0, 1, 2, 3, 4, 5],
            )
            .expect("combiner smoke fit");
        engine
    }

    /// The allocating reference for the two-stream engine: the same
    /// models and combiner as [`pair_engine`], run the way the historical
    /// pair engine's allocating `classify_step`/`classify_batch` ran them.
    pub struct AllocatingPair {
        cnn: FrameCnn,
        rnn: ImuRnn,
        combiner: NaryBayesianCombiner,
    }

    impl Default for AllocatingPair {
        fn default() -> Self {
            AllocatingPair {
                cnn: cnn(1),
                rnn: rnn(),
                combiner: pair_combiner(),
            }
        }
    }

    impl AllocatingPair {
        /// Classifies `frames[i]` with window `i` of `windows`: a fresh
        /// frame tensor, each model's allocating `predict_proba`, then
        /// [`NaryBayesianCombiner::combine_n`] per item. Returns each
        /// item's class and fused scores.
        ///
        /// # Errors
        ///
        /// Propagates model and combiner errors.
        pub fn classify(
            &mut self,
            frames: &[Frame],
            windows: &Tensor,
        ) -> darnet_core::Result<Vec<(usize, Vec<f32>)>> {
            let cnn_probs = self.cnn.predict_proba(&frames_to_tensor(frames)?)?;
            let imu_probs = self.rnn.predict_proba(windows)?;
            cnn_probs
                .data()
                .chunks_exact(6)
                .zip(imu_probs.data().chunks_exact(3))
                .map(|(cnn, imu)| {
                    let scores = self.combiner.combine_n(&[cnn, imu])?;
                    let best = scores
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map_or(0, |(c, _)| c);
                    Ok((best, scores))
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.8702), "87.02%");
        assert_eq!(pct(0.0), "0.00%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn metrics_json_roundtrips() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("speedup_matmul_threads".to_string(), 2.125);
        m.insert("threads_available".to_string(), 4.0);
        m.insert("throughput_matmul_serial".to_string(), 1.5e9);
        let text = metrics::to_json(&m);
        assert_eq!(metrics::parse_json(&text).unwrap(), m);
    }

    #[test]
    fn metrics_parser_rejects_garbage() {
        assert!(metrics::parse_json("not json").is_err());
        assert!(metrics::parse_json("{\"a\": nope}").is_err());
        assert!(metrics::parse_json("{a: 1}").is_err());
        assert_eq!(metrics::parse_json("{}").unwrap().len(), 0);
    }

    #[test]
    fn compare_flags_only_speedup_regressions() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("speedup_matmul_threads".to_string(), 2.0);
        base.insert("speedup_engine_batch32".to_string(), 1.8);
        base.insert("throughput_matmul_serial".to_string(), 1e9);

        // Within tolerance, absolute throughput halved: pass.
        let mut cur = base.clone();
        cur.insert("speedup_matmul_threads".to_string(), 1.75);
        cur.insert("throughput_matmul_serial".to_string(), 5e8);
        assert!(metrics::compare(&base, &cur, 0.15).is_empty());

        // Speedup collapsed: fail.
        cur.insert("speedup_matmul_threads".to_string(), 1.0);
        let regressions = metrics::compare(&base, &cur, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("speedup_matmul_threads"));

        // Missing compared key: fail.
        cur.remove("speedup_engine_batch32");
        cur.insert("speedup_matmul_threads".to_string(), 2.0);
        let regressions = metrics::compare(&base, &cur, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing"));

        // Improvements never fail.
        cur.insert("speedup_engine_batch32".to_string(), 3.0);
        assert!(metrics::compare(&base, &cur, 0.15).is_empty());
    }

    #[test]
    fn compare_gates_rates_up_and_costs_down() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("rate_ingest_rps".to_string(), 100_000.0);
        base.insert("cost_ack_p99_s".to_string(), 0.20);
        base.insert("cost_bytes_per_agent".to_string(), 4096.0);
        base.insert("agents".to_string(), 10_000.0);

        // Within tolerance both ways; the unprefixed key is ignored.
        let mut cur = base.clone();
        cur.insert("rate_ingest_rps".to_string(), 90_000.0);
        cur.insert("cost_ack_p99_s".to_string(), 0.22);
        cur.insert("agents".to_string(), 1.0);
        assert!(metrics::compare(&base, &cur, 0.15).is_empty());

        // Throughput collapse fails.
        cur.insert("rate_ingest_rps".to_string(), 50_000.0);
        let regressions = metrics::compare(&base, &cur, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("rate_ingest_rps"));

        // Cost blow-up fails (lower-is-better inverts the check).
        cur.insert("rate_ingest_rps".to_string(), 100_000.0);
        cur.insert("cost_bytes_per_agent".to_string(), 9000.0);
        let regressions = metrics::compare(&base, &cur, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("cost_bytes_per_agent"));

        // Cost improvements never fail; missing gated cost key does.
        cur.insert("cost_bytes_per_agent".to_string(), 100.0);
        assert!(metrics::compare(&base, &cur, 0.15).is_empty());
        cur.remove("cost_ack_p99_s");
        assert_eq!(metrics::compare(&base, &cur, 0.15).len(), 1);
    }

    #[test]
    fn allocating_pair_matches_the_pair_engine_bitwise() {
        use darnet_collect::StreamId;
        use darnet_core::dataset::{IMU_FEATURES, WINDOW_LEN};
        use darnet_core::StreamInput;
        use darnet_sim::Frame;

        let mut rng = darnet_tensor::SplitMix64::new(5);
        let frames: Vec<Frame> = (0..3)
            .map(|_| {
                let pixels = (0..tiny::FRAME_SIZE * tiny::FRAME_SIZE)
                    .map(|_| rng.uniform(0.0, 1.0))
                    .collect();
                Frame::from_pixels(tiny::FRAME_SIZE, tiny::FRAME_SIZE, pixels)
            })
            .collect();
        let windows = random_tensor(&[3, WINDOW_LEN, IMU_FEATURES], 6);
        let want = tiny::AllocatingPair::default()
            .classify(&frames, &windows)
            .unwrap();
        let mut got = Vec::new();
        tiny::pair_engine()
            .classify_batch_into(
                &[
                    (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
                    (StreamId::IMU, StreamInput::Windows(&windows)),
                ],
                &mut got,
            )
            .unwrap();
        assert_eq!(want.len(), got.len());
        for ((class, scores), o) in want.iter().zip(&got) {
            assert_eq!(*class, o.class);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(scores), bits(&o.scores));
        }
    }
}
